"""The packed kernel (``GradedPoly.__mul__``, ``inverse``, ``Series1.log``
and ``multiplicative_class``) against its former loops in ``oracles``,
which run one ``Fraction`` or ``YPoly`` operation per coefficient.

Every result must have the same terms, in the same order, and every
coefficient the same type: Q-only input gives ``Fraction``s, and a term
the old loops made a ``YPoly`` stays one (a constant ``YPoly`` renders
as ``(1/2)`` where a ``Fraction`` renders as ``1/2``)."""

import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauclass.series import (
    ClassSpec,
    GradedPoly,
    Series1,
    YPoly,
    chern_spec,
    l_spec,
    multiplicative_class,
    spec_from_text,
    todd_spec,
    ty_spec,
)

from oracles import as_fraction_kernel, fraction_multiplicative_class

fractions = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)
ypolys = st.lists(fractions, min_size=1, max_size=3).map(YPoly)
COEFFS = {
    "Q": fractions,
    "Q[y]": ypolys,
    "mixed": st.one_of(fractions, ypolys),
    # sums that pass through zero decide a coefficient's type: a constant
    # YPoly cancelled by a Fraction leaves a Fraction behind
    "cancelling": st.sampled_from([
        Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), YPoly([1]), YPoly([-1]),
        YPoly([Fraction(1, 2)]), YPoly([Fraction(-1, 2)]), YPoly([0, 1]),
    ]),
}
kinds = st.sampled_from(sorted(COEFFS))


@st.composite
def dims_lists(draw, size_cap=64):
    """Up to 8 variables with nilpotency bounds 0..3, zeros included, and
    at most ``size_cap`` monomials in all."""
    dims = []
    size = 1
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 3))
        while size * (n + 1) > size_cap:
            n -= 1
        dims.append(n)
        size *= n + 1
    return tuple(dims)


def polys(draw, dims, kind, max_degree=None, max_size=12):
    exps = st.tuples(*(st.integers(0, n) for n in dims))
    if max_degree is not None:
        exps = exps.filter(lambda e: sum(e) <= max_degree)
    terms = draw(st.lists(st.tuples(exps, COEFFS[kind]), max_size=max_size))
    return GradedPoly(dims, terms)


def assert_same(new, old):
    assert type(new) is (Series1 if isinstance(old, Series1) else GradedPoly)
    assert new.dims == old.dims
    assert list(new.terms) == list(old.terms)
    for e, c in old.terms.items():
        assert new.terms[e] == c
        assert type(new.terms[e]) is type(c), (e, new.terms[e], c)
    assert new.render() == old.render()


@settings(max_examples=150, deadline=None)
@given(st.data(), dims_lists(), kinds, kinds)
def test_product_matches_oracle(data, dims, kind_a, kind_b):
    a = polys(data.draw, dims, kind_a)
    b = polys(data.draw, dims, kind_b)
    assert_same(a * b, as_fraction_kernel(a) * as_fraction_kernel(b))


@settings(max_examples=200, deadline=None)
@given(st.data(), dims_lists(), kinds, st.one_of(fractions.filter(bool), ypolys))
def test_inverse_matches_oracle(data, dims, kind, c0):
    poly = polys(data.draw, dims, kind)
    terms = dict(poly.terms)
    terms[(0,) * len(dims)] = c0
    poly = GradedPoly(dims, terms)
    try:
        expected = as_fraction_kernel(poly).inverse()
    except ValueError as err:  # zero or non-constant c0
        with pytest.raises(ValueError, match=re.escape(str(err))):
            poly.inverse()
        return
    assert_same(poly.inverse(), expected)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 12), kinds, st.sampled_from([Fraction(1), YPoly([1])]))
def test_log_matches_oracle(data, cap, kind, one):
    rest = data.draw(st.lists(st.one_of(st.just(Fraction(0)), COEFFS[kind]),
                              min_size=cap, max_size=cap))
    series = Series1([one] + rest, cap=cap)
    assert_same(series.log(), as_fraction_kernel(series).log())


def spec_text(draw, cap, ring):
    lines = [f"ring: {ring}", "1"]
    for _ in range(cap):
        if ring == "Q":
            lines.append(str(draw(fractions)))
        else:
            lines.append(" ".join(str(q) for q in draw(st.lists(fractions, min_size=1,
                                                                  max_size=3))))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.data(), dims_lists(size_cap=48), kinds,
       st.sampled_from(["chern", "todd", "l", "ty", "Q", "Q[y]"]))
def test_multiplicative_class_matches_oracle(data, dims, kind, klass):
    top = sum(dims)
    cap = top + data.draw(st.integers(0, 2))
    builders = {"chern": chern_spec, "todd": todd_spec, "l": l_spec, "ty": ty_spec}
    if klass in builders:
        spec = builders[klass](cap)
    else:
        spec = spec_from_text(spec_text(data.draw, cap, klass))
    rank = data.draw(st.integers(0, top + 1))
    chern = polys(data.draw, dims, kind, max_degree=data.draw(st.integers(0, top)))
    terms = {e: c for e, c in chern.terms.items() if any(e)}
    terms[(0,) * len(dims)] = data.draw(st.sampled_from([Fraction(1), YPoly([1])]))
    chern = GradedPoly(dims, terms)
    try:
        expected = fraction_multiplicative_class(spec, chern, rank)
    except ValueError as err:  # a Chern part above the rank
        with pytest.raises(ValueError, match=re.escape(str(err))):
            multiplicative_class(spec, chern, rank)
        return
    assert_same(multiplicative_class(spec, chern, rank), expected)


def chern_over_q_y(cap):
    # log coefficient 1 is a constant YPoly: scaling by it keeps Fractions
    return ClassSpec("chern-y", Series1([YPoly([1]), YPoly([1])], cap=cap))


@pytest.mark.parametrize("n", [0, 1, 7, 40])
@pytest.mark.parametrize("builder", [chern_spec, todd_spec, l_spec, ty_spec, chern_over_q_y])
def test_projective_space_classes_match_oracle(builder, n):
    spec = builder(n)
    chern = GradedPoly((n,), {(k,): Fraction(comb(n + 1, k)) for k in range(n + 1)})
    assert_same(multiplicative_class(spec, chern, n),
                fraction_multiplicative_class(spec, chern, n))


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "dims,terms",
    [
        ((3, 2), {(1, 0): Fraction(-1), (1, 1): YPoly([1]), (0, 2): HALF,
                  (3, 1): YPoly([0, 1]), (0, 0): Fraction(1)}),
        ((3, 3), {(0, 2): YPoly([HALF]), (2, 1): Fraction(-1), (2, 0): Fraction(1),
                  (1, 3): Fraction(-1), (2, 3): YPoly([HALF]), (0, 1): Fraction(1),
                  (0, 0): Fraction(1)}),
    ],
)
def test_inverse_cancelling_across_products(dims, terms):
    # a YPoly sum passes through zero part way through a later product:
    # the old loops added each product whole, and adding term by term
    # gives a different coefficient type
    poly = GradedPoly(dims, terms)
    assert_same(poly.inverse(), as_fraction_kernel(poly).inverse())


@pytest.mark.parametrize(
    "dims,terms",
    [
        ((1, 1), {(1, 0): Fraction(-1), (1, 1): YPoly([HALF]), (0, 1): Fraction(-1),
                  (0, 0): YPoly([1])}),
        ((2, 3), {(2, 0): Fraction(-1), (2, 3): YPoly([1]), (0, 2): YPoly([-1]),
                  (1, 0): Fraction(-1), (1, 1): Fraction(1), (0, 0): YPoly([1])}),
    ],
)
def test_multiplicative_class_cancelling_across_products(dims, terms):
    chern = GradedPoly(dims, terms)
    spec = todd_spec(sum(dims))
    assert_same(multiplicative_class(spec, chern, sum(dims)),
                fraction_multiplicative_class(spec, chern, sum(dims)))
