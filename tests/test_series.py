from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauclass.series import (
    ClassSpec,
    GradedPoly,
    Series1,
    VirtualBundle,
    YPoly,
    chern_spec,
    l_spec,
    _log_coefficients,
    multiplicative_class,
    spec_from_text,
    spec_to_text,
    todd_spec,
    ty_spec,
    virtual_class,
)

from graded_checks import (
    RATIONAL,
    RATIONAL_Y,
    assert_canonical,
    coefficients,
    factor_dims,
    graded_polys,
    rings,
    small_fractions,
)
from oracles import (
    TANH_COEFFS,
    bernoulli_plus,
    exp_by_powers_class,
    inverse_by_geometric_series,
    lift_to_y,
    root_splitting_class,
    series_exp,
    series_quotient,
)


class TestNamedSeries:
    def test_todd_against_bernoulli_oracle(self):
        # t/(1 - e^{-t}) = sum B_n^+ t^n / n!
        from math import factorial

        b = bernoulli_plus(8)
        spec = todd_spec(8)
        for n in range(9):
            assert spec.series[n] == b[n] / factorial(n)

    def test_todd_first_coefficients(self):
        spec = todd_spec(4)
        assert [spec.series[k] for k in range(5)] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 12),
            Fraction(0),
            Fraction(-1, 720),
        ]

    def test_l_against_tanh_oracle(self):
        # t/tanh t = 1 / (tanh t / t)
        tanh_over_t = TANH_COEFFS[1:]
        expect = series_quotient([Fraction(1)], tanh_over_t, 8)
        spec = l_spec(8)
        assert list(spec.series.coeffs) == expect

    def test_l_first_coefficients(self):
        spec = l_spec(4)
        assert [spec.series[k] for k in range(5)] == [
            Fraction(1),
            Fraction(0),
            Fraction(1, 3),
            Fraction(0),
            Fraction(-1, 45),
        ]

    def test_ty_linear_coefficient(self):
        # hand expansion of e^{-t(1+y)} gives (1+y)/2 - y = (1-y)/2
        spec = ty_spec(3)
        assert spec.series[1] == YPoly([Fraction(1, 2), Fraction(-1, 2)])

    def test_ty_quadratic_coefficient(self):
        # (1+y)^2 / 12
        spec = ty_spec(3)
        assert spec.series[2] == YPoly(
            [Fraction(1, 12), Fraction(2, 12), Fraction(1, 12)]
        )

    @pytest.mark.parametrize("cap", range(9))
    def test_specialization_ladder(self, cap):
        ty = ty_spec(cap).series
        assert ty.specialize_y(-1) == chern_spec(cap).series
        assert ty.specialize_y(0) == todd_spec(cap).series
        assert ty.specialize_y(1) == l_spec(cap).series

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            ClassSpec("bad", Series1([2, 1], cap=2))


class TestSeriesOps:
    def test_inverse_geometric(self):
        inv = Series1([1, 1], cap=5).inverse()
        assert list(inv.coeffs) == [Fraction((-1) ** k) for k in range(6)]

    def test_exp_log_round_trip(self):
        one_plus_t = Series1([1, 1], cap=6)
        assert series_exp(one_plus_t.log()) == one_plus_t

    def test_log_exp_round_trip_y(self):
        s = Series1([0, YPoly([1, 1]), YPoly([0, 2])], cap=5)
        assert series_exp(s).log() == s

    def test_inverse_requires_unit(self):
        with pytest.raises(ValueError):
            Series1([0, 1], cap=3).inverse()

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(Series1([1], cap=3))

    def test_log_requires_one(self):
        with pytest.raises(ValueError):
            Series1([2], cap=3).log()

    def test_specialize_ty_matches_todd(self):
        assert ty_spec(6).series.specialize_y(0) == todd_spec(6).series


@st.composite
def series(draw, ring, cap, constant=None):
    """Random Series1 with the given cap, optionally with a fixed constant
    term."""
    coeffs = draw(st.lists(coefficients(ring), min_size=cap + 1, max_size=cap + 1))
    if constant is not None:
        coeffs[0] = constant
    return Series1(coeffs, cap=cap)


class TestSeries1Results:
    """Series1 is the one-variable GradedPoly: every result is canonical
    and still a Series1."""

    @settings(max_examples=100, deadline=None)
    @given(rings, st.integers(0, 5), st.data())
    def test_results_are_canonical_series(self, ring, cap, data):
        s = data.draw(series(ring, cap))
        t = data.draw(series(ring, cap))
        unit = data.draw(series(ring, cap, constant=data.draw(small_fractions.filter(bool))))
        normalized = data.draw(series(ring, cap, constant=1))
        results = [s * t, unit.inverse(), normalized.log()]
        results += [Series1(s.coeffs[: c + 1]) for c in range(cap + 1)]
        if ring == RATIONAL_Y:
            results.append(s.specialize_y(data.draw(small_fractions)))
            # chern at y = -1: every coefficient past degree 1 vanishes
            results.append(ty_spec(cap).series.specialize_y(-1))
        for r in results:
            assert type(r) is Series1
            assert_canonical(r)
        assert unit * unit.inverse() == Series1([1], cap=cap)

    def test_different_caps_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            Series1([1, 1], cap=6) * Series1([1, 2], cap=3)


class TestGradedInverse:
    @settings(max_examples=100, deadline=None)
    @given(rings, factor_dims, st.data())
    def test_equals_geometric_series(self, ring, dims, data):
        # a random polynomial with its constant term replaced by a unit
        p = data.draw(graded_polys(ring, dims))
        unit = data.draw(small_fractions.filter(bool))
        p = p + GradedPoly.constant(dims, unit - p.constant_term())
        inv = p.inverse()
        assert inv == inverse_by_geometric_series(p)
        assert_canonical(inv)
        assert p * inv == GradedPoly.one(dims)


def line_ring(n):
    return GradedPoly((n,), {(1,): 1})


class TestMultiplicativeClass:
    def test_chern_is_identity(self):
        dims = (2, 1)
        c = GradedPoly(
            dims, {(0, 0): 1, (1, 0): 3, (0, 1): 2, (1, 1): 6, (2, 0): 3}
        )
        assert multiplicative_class(chern_spec(4), c, rank=3) == c

    def test_line_bundle_gives_f_of_x(self):
        # rank 1, c = 1 + x: the class is f(x)
        x = line_ring(3)
        c = GradedPoly.one((3,)) + x
        spec = todd_spec(4)
        got = multiplicative_class(spec, c, rank=1)
        expect = GradedPoly(
            (3,), {(k,): spec.series[k] for k in range(4)}
        )
        assert got == expect

    def test_rank_two_todd_degree_two(self):
        # td = 1 + c1/2 + (c1^2 + c2)/12 + ...
        dims = (1, 1)
        c1 = GradedPoly(dims, {(1, 0): 1, (0, 1): 1})
        c2 = GradedPoly(dims, {(1, 1): 1})
        total = GradedPoly.one(dims) + c1 + c2
        got = multiplicative_class(todd_spec(4), total, rank=2)
        expect_degree2 = (c1 * c1 + c2).scale(Fraction(1, 12))
        assert got.graded_part(2) == expect_degree2
        assert got.graded_part(1) == c1.scale(Fraction(1, 2))

    def test_unit_series_gives_one(self):
        unit = ClassSpec("unit", Series1([1], cap=6))
        dims = (2, 2)
        total = GradedPoly(dims, {(0, 0): 1, (1, 0): 5, (0, 1): -2, (1, 1): 1})
        got = multiplicative_class(unit, total, rank=2)
        assert got == GradedPoly.one(dims)

    def test_unnormalized_input_rejected(self):
        bad = GradedPoly((2,), {(0,): 2})
        with pytest.raises(ValueError):
            multiplicative_class(chern_spec(3), bad, rank=1)

    def test_part_beyond_rank_rejected(self):
        c = GradedPoly((2,), {(0,): 1, (2,): 1})
        with pytest.raises(ValueError, match="rank"):
            multiplicative_class(chern_spec(3), c, rank=1)

    def test_series_cap_too_small_rejected(self):
        c = GradedPoly.one((4,)) + line_ring(4)
        with pytest.raises(ValueError, match="truncated"):
            multiplicative_class(chern_spec(2), c, rank=1)

    @pytest.mark.parametrize("make_spec", [chern_spec, todd_spec, l_spec, ty_spec])
    @pytest.mark.parametrize(
        "dims,rank",
        [((3,), 1), ((2, 1), 2), ((1, 1, 1), 3), ((5,), 2)],
    )
    def test_newton_equals_root_splitting(self, make_spec, dims, rank):
        spec = make_spec(6)
        # a deterministic not-too-trivial total Chern class
        terms = {(0,) * len(dims): 1}
        count = 1
        from itertools import product as iproduct

        for exp in iproduct(*(range(n + 1) for n in dims)):
            d = sum(exp)
            if 0 < d <= rank:
                count += 1
                terms[exp] = Fraction((-1) ** count * count, 1 + (d % 3))
        total = GradedPoly(dims, terms)
        newton = multiplicative_class(spec, total, rank)
        oracle = root_splitting_class(spec, total, rank)
        assert newton == oracle

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 2),
        st.integers(1, 2),
        st.lists(st.integers(-3, 3), min_size=16, max_size=16),
    )
    def test_whitney_sum(self, rank_e, rank_f, coeffs):
        # cl(E (+) F) = cl(E) cl(F) when total Chern classes multiply
        dims = (2, 2)
        from itertools import product as iproduct

        exps = [e for e in iproduct(range(3), range(3)) if 0 < sum(e)]
        it = iter(coeffs)

        def random_total(rank):
            terms = {(0, 0): 1}
            for e in exps:
                if sum(e) <= rank:
                    terms[e] = Fraction(next(it))
            return GradedPoly(dims, terms)

        ce = random_total(rank_e)
        cf = random_total(rank_f)
        spec = todd_spec(6)
        left = multiplicative_class(spec, ce * cf, rank_e + rank_f)
        right = multiplicative_class(spec, ce, rank_e) * multiplicative_class(
            spec, cf, rank_f
        )
        assert left == right


@st.composite
def normalized_totals(draw):
    """A total Chern class 1 + ... on 1-3 factors of dims <= 3, with a
    rank between its top nonzero degree and the top degree of the ring."""
    from itertools import product as iproduct

    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    top = sum(dims)
    cut = draw(st.integers(0, top))
    terms = {(0,) * len(dims): 1}
    for exp in iproduct(*(range(n + 1) for n in dims)):
        if 0 < sum(exp) <= cut:
            terms[exp] = draw(small_fractions)
    total = GradedPoly(dims, terms)
    highest = max(sum(e) for e in total.terms)
    return total, draw(st.integers(highest, top))


@st.composite
def class_specs(draw, cap):
    kind = draw(st.sampled_from(["chern", "todd", "l", "ty", "random-y"]))
    if kind != "random-y":
        return {"chern": chern_spec, "todd": todd_spec, "l": l_spec, "ty": ty_spec}[kind](cap)
    coeffs = [1] + [
        YPoly(draw(st.lists(small_fractions, max_size=3))) for _ in range(cap)
    ]
    return ClassSpec("random-y", Series1(coeffs, cap=cap))


class TestLogOfSpec:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_sliced_log_equals_truncated_log(self, cap, data):
        spec = data.draw(class_specs(cap))
        assert spec.log is spec.log  # computed once per spec
        for t in range(cap + 1):
            assert _log_coefficients(spec, t) == Series1(spec.series.coeffs[: t + 1]).log().coeffs

    def test_degree_past_cap_rejected(self):
        with pytest.raises(ValueError, match="truncated at 2"):
            _log_coefficients(todd_spec(2), 3)


class TestMixedCoefficients:
    """Q sits inside Q[y]: Q and Q[y] operands mix without a lift, and give
    what the same operation gives after lifting Q into Q[y]."""

    @settings(max_examples=100, deadline=None)
    @given(factor_dims, st.data())
    def test_mixed_operations_match_lifted(self, dims, data):
        p = data.draw(graded_polys(RATIONAL, dims))
        q = data.draw(graded_polys(RATIONAL_Y, dims))
        y_scalar = data.draw(coefficients(RATIONAL_Y))
        q_scalar = data.draw(coefficients(RATIONAL))
        lifted = lift_to_y(p)
        pairs = [
            (p, lifted),
            (p + q, lifted + q),
            (q + p, q + lifted),
            (p - q, lifted - q),
            (q - p, q - lifted),
            (p * q, lifted * q),
            (q * p, q * lifted),
            (p.scale(y_scalar), lifted.scale(y_scalar)),
            (q.scale(q_scalar), q.scale(YPoly.of(q_scalar))),
        ]
        for got, expect in pairs:
            assert got == expect
            assert hash(got) == hash(expect)
            assert_canonical(got)
        assert (p == q) == (lifted == q)

    @given(small_fractions)
    def test_constant_ypoly_hashes_like_its_value(self, value):
        constant = YPoly([value])
        assert constant == value
        assert hash(constant) == hash(value)
        assert len({constant, value}) == 1

    def test_zero_ypoly_hashes_like_zero(self):
        assert hash(YPoly()) == hash(Fraction(0)) == hash(0)
        assert len({YPoly([3]), Fraction(3)}) == 1

    @settings(max_examples=60, deadline=None)
    @given(factor_dims, st.data())
    def test_specialize_y_free_value_is_unchanged(self, dims, data):
        p = data.draw(graded_polys(RATIONAL, dims))
        value = data.draw(small_fractions)
        for poly in (p, lift_to_y(p)):
            got = poly.specialize_y(value)
            assert got == p
            assert_canonical(got)

    def test_specialize_y_free_series_keeps_fractions(self):
        todd = todd_spec(4).series
        assert todd.specialize_y(Fraction(3, 7)) == todd
        assert not ClassSpec("todd", todd.specialize_y(2)).has_y

    def test_has_y(self):
        assert ty_spec(2).has_y
        assert not todd_spec(2).has_y
        # a Q[y] file whose rows are all y-free still reads as Q[y]
        assert spec_from_text("ring: Q[y]\n1\n1/2\n").has_y


class TestGradedExpRecurrence:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_exp_by_powers(self, data):
        total, rank = data.draw(normalized_totals())
        spec = data.draw(class_specs(total.total_degree_cap() + data.draw(st.integers(0, 2))))
        assert multiplicative_class(spec, total, rank) == exp_by_powers_class(
            spec, total, rank
        )


class TestTrustedResults:
    """Kernel results are built without re-validation; each must still be
    what the validating constructor would have built."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_arithmetic_results_are_canonical(self, data):
        ring = data.draw(rings)
        dims = data.draw(factor_dims)
        p = data.draw(graded_polys(ring, dims))
        q = data.draw(graded_polys(ring, dims))
        results = [p + q, p - q, p - p, -p, p * q, p * p, q * p]
        results += [p.graded_part(d) for d in range(sum(dims) + 2)]
        for value in (0, 1, Fraction(1), -1, data.draw(coefficients(ring))):
            results.append(p.scale(value))
        for r in results:
            assert_canonical(r)
        assert (p - p).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(rings, factor_dims, st.data())
    def test_constructors_are_canonical(self, ring, dims, data):
        results = [
            GradedPoly.zero(dims),
            GradedPoly.one(dims),
            GradedPoly.constant(dims, data.draw(coefficients(ring))),
        ]
        results += [GradedPoly.variable(dims, i) for i in range(len(dims))]
        for r in results:
            assert_canonical(r)

    @pytest.mark.parametrize("one", [1, Fraction(1), YPoly.of(1)])
    def test_scale_by_one_shares_the_value(self, one):
        p = GradedPoly((2,), {(0,): YPoly([1, 1]), (1,): 3})
        assert p.scale(one) is p

    def test_scale_by_zero(self):
        p = GradedPoly((1, 1), {(0, 0): 1, (1, 1): 2})
        assert p.scale(0) == GradedPoly.zero((1, 1))

    def test_validating_constructor_merges_and_drops(self):
        p = GradedPoly((2,), [((1,), 2), ((1,), -2), ((2,), 1), ((0,), 0)])
        assert p.terms == {(2,): Fraction(1)}
        with pytest.raises(ValueError, match="outside dims"):
            GradedPoly((1,), {(2,): 1})
        with pytest.raises(ValueError, match="arity"):
            GradedPoly((1,), {(0, 0): 1})
        with pytest.raises(ValueError, match="dims"):
            GradedPoly.zero((-1,))


class TestVirtualClass:
    def test_trivial_minus_part(self):
        dims = (2,)
        plus = GradedPoly.one(dims) + line_ring(2).scale(3)
        vb = VirtualBundle(plus, 1, GradedPoly.one(dims), 0)
        spec = todd_spec(4)
        assert virtual_class(spec, vb) == multiplicative_class(spec, plus, 1)

    def test_cancellation(self):
        dims = (2,)
        c = GradedPoly.one(dims) + line_ring(2)
        vb = VirtualBundle(c, 1, c, 1)
        assert virtual_class(chern_spec(4), vb) == GradedPoly.one(dims)

    def test_plane_conic_virtual_tangent(self):
        # degree-2 curve in the plane: (1+h)^3 / (1+2h) = 1 + h + h^2 mod h^3
        dims = (2,)
        h = line_ring(2)
        ambient = (GradedPoly.one(dims) + h) ** 3
        normal = GradedPoly.one(dims) + h.scale(2)
        vb = VirtualBundle(ambient, 2, normal, 1)
        got = virtual_class(chern_spec(4), vb)
        assert got == GradedPoly(dims, {(0,): 1, (1,): 1, (2,): 1})


class TestSpecSerialization:
    @pytest.mark.parametrize("spec", [chern_spec(4), todd_spec(5), ty_spec(3)])
    def test_round_trip(self, spec):
        text = spec_to_text(spec)
        back = spec_from_text(text, name=spec.name)
        assert back.series == spec.series
        assert back.name == spec.name

    def test_missing_ring_header(self):
        with pytest.raises(ValueError, match="ring"):
            spec_from_text("1\n1\n")

    @pytest.mark.parametrize("text", ["ring: Q\n1\n1/0\n", "ring: Q[y]\n1\n0 1/0\n"])
    def test_zero_denominator_is_malformed(self, text):
        with pytest.raises(ValueError, match="^line 3: malformed rational$"):
            spec_from_text(text)

    @pytest.mark.parametrize("text", ["ring: Q\n1\n1/3\n", "ring: Q[y]\n1\n1/2\n0 1/3\n"])
    def test_header_follows_the_coefficients(self, text):
        assert spec_to_text(spec_from_text(text)) == text

    def test_q_ring_rejects_vectors(self):
        with pytest.raises(ValueError, match="one rational"):
            spec_from_text("ring: Q\n1 2\n")
