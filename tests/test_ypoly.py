"""``YPoly`` (integer numerators over one denominator) against
``FractionYPoly``, the one-``Fraction``-per-coefficient oracle: every
operator, mixed and reflected operands, equality, hashing and text, with
the representation invariants checked on every result."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauclass.series import YPoly

from oracles import FractionYPoly

fractions = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)
scalars = st.one_of(st.integers(-50, 50), fractions)
coeff_lists = st.lists(fractions, max_size=5)


def pair(coeffs):
    return YPoly(coeffs), FractionYPoly(coeffs)


def assert_canonical(p):
    assert type(p) is YPoly
    assert all(type(n) is int for n in p.nums)
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    if not p:
        assert (p.nums, p.den) == ((), 1)


def assert_same(new, old):
    """``new`` is canonical and reads exactly like the oracle's ``old``."""
    assert_canonical(new)
    assert new.coeffs == old.coeffs
    assert new == YPoly(old.coeffs)
    assert hash(new) == hash(YPoly(old.coeffs))
    if len(old.coeffs) <= 1:  # a constant hashes like its rational value
        assert hash(new) == hash(old)
    assert str(new) == str(old)
    assert repr(new) == repr(old).replace("FractionYPoly", "YPoly")
    assert bool(new) == bool(old)


@settings(max_examples=120, deadline=None)
@given(coeff_lists)
def test_constructor_and_negation(cs):
    new, old = pair(cs)
    assert_same(new, old)
    assert_same(-new, -old)
    assert_same(YPoly.of(new), old)


@settings(max_examples=120, deadline=None)
@given(coeff_lists, coeff_lists)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_binary_operators(op, xs, ys):
    a, a_old = pair(xs)
    b, b_old = pair(ys)
    assert_same(op(a, b), op(a_old, b_old))
    assert_same(op(b, a), op(b_old, a_old))
    assert_same(op(a, a), op(a_old, a_old))


@settings(max_examples=120, deadline=None)
@given(coeff_lists, scalars)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_mixed_and_reflected_operands(op, xs, q):
    a, a_old = pair(xs)
    assert_same(op(a, q), op(a_old, q))
    assert_same(op(q, a), op(q, a_old))


@settings(max_examples=80, deadline=None)
@given(coeff_lists, st.integers(0, 4))
def test_power(xs, n):
    a, a_old = pair(xs)
    assert_same(a ** n, a_old ** n)


@settings(max_examples=120, deadline=None)
@given(coeff_lists, scalars.filter(bool))
def test_division_by_nonzero_scalar(xs, q):
    a, a_old = pair(xs)
    assert_same(a / q, a_old / q)


@pytest.mark.parametrize("value", [YPoly(), YPoly([1]), YPoly([0, Fraction(1, 2)])])
@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_division_by_zero_raises(value, zero):
    # as Fraction(0) / 0 does, the zero polynomial included
    with pytest.raises(ZeroDivisionError):
        value / zero


@settings(max_examples=120, deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_equality_and_hash(xs, ys, q):
    a, a_old = pair(xs)
    b, b_old = pair(ys)
    assert (a == b) == (a_old == b_old)
    assert (a == q) == (a_old == q)
    assert (q == a) == (q == a_old)
    assert (a == Fraction(q)) == (a_old == Fraction(q))
    if a == b:
        assert hash(a) == hash(b)
    if a == q:
        assert hash(a) == hash(q)


@settings(max_examples=120, deadline=None)
@given(coeff_lists, scalars)
def test_evaluate_and_constant_value(xs, v):
    a, a_old = pair(xs)
    got = a.evaluate(v)
    assert type(got) is Fraction
    assert got == a_old.evaluate(v)
    if len(a_old.coeffs) > 1:
        with pytest.raises(ValueError):
            a.constant_value()
    else:
        got = a.constant_value()
        assert type(got) is Fraction
        assert got == a_old.constant_value()
