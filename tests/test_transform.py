import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauclass.constr import ConstrFn, const_transform, euler_integral
from tauclass.geom import (
    EMPTY,
    POINT,
    HClass,
    ToyMorphism,
    disjoint_union,
    identity_morphism,
    product,
    projective,
    pullback,
    pushforward,
    relative_tangent,
    to_point,
)
from tauclass.relk import (
    KElement,
    Triple,
    cross_k,
    distinguished,
    k_class,
    pullback_k,
    pushforward_k,
)
from tauclass.series import (
    GradedPoly,
    YPoly,
    chern_spec,
    l_spec,
    multiplicative_class,
    todd_spec,
    ty_spec,
)
from tauclass.transform import (
    EulerCharacteristic,
    EulerValue,
    _invariant_pool,
    _report,
    check_const_diagram,
    check_multiplicativity,
    check_naturality,
    check_verdier_rr,
    chi_y_genus,
    class_invariant,
    connected_dims,
    corpus_spaces,
    euler_invariant,
    eval_invariant,
    fundamental_invariant,
    indicator_invariant,
    random_element,
    random_morphism,
    render_value,
    run_suite,
    tau,
    virtual_in_ambient,
)

import oracles
from oracles import inclusions

P1 = projective(1)
P2 = projective(2)


class TestEvalInvariant:
    def test_chern_class_of_p2(self):
        # (1+h)^3 capped with the fundamental class: 1, 3h, 3h^2
        value = eval_invariant(class_invariant(chern_spec(4)), P2)
        assert value.polys[0] == GradedPoly(
            (2,), {(0,): 1, (1,): 3, (2,): 3}
        )
        assert value.integral() == 3  # matches the Euler characteristic

    def test_fundamental_on_empty(self):
        value = eval_invariant(fundamental_invariant(), EMPTY)
        assert value.is_zero()

    def test_todd_class_of_p1(self):
        # td(TP1) = 1 + h: fundamental class plus one point
        value = eval_invariant(class_invariant(todd_spec(3)), P1)
        assert value.polys[0] == GradedPoly((1,), {(0,): 1, (1,): 1})

    def test_indicator(self):
        assert eval_invariant(indicator_invariant(), P2) == ConstrFn.ones(P2)

    def test_euler(self):
        assert eval_invariant(euler_invariant(), disjoint_union(P1, P2)) == 5


class TestTau:
    @pytest.mark.parametrize(
        "inv",
        [
            fundamental_invariant(),
            class_invariant(chern_spec(6)),
            class_invariant(todd_spec(6)),
            class_invariant(l_spec(6)),
            class_invariant(ty_spec(6)),
            indicator_invariant(),
            euler_invariant(),
        ],
        ids=lambda inv: inv.name,
    )
    @pytest.mark.parametrize(
        "space",
        [POINT, P1, P2, projective(1, 1), disjoint_union(P1, P2)],
        ids=str,
    )
    def test_normalization_on_distinguished(self, inv, space):
        assert tau(inv, distinguished(space)) == eval_invariant(inv, space)

    def test_fiber_integration_example(self):
        # projection P1 x P1 -> P1 doubles the Chern class of the target
        pr = ToyMorphism(projective(1, 1), P1, ((0, (1,)),))
        e = k_class(Triple(projective(1, 1), P1, pr))
        inv = class_invariant(chern_spec(4))
        got = tau(inv, e)
        expect = eval_invariant(inv, P1).scale(2)
        assert got == expect

    def test_zero_element(self):
        inv = class_invariant(chern_spec(3))
        assert tau(inv, KElement.zero(P2)).is_zero()

    def test_linearity(self):
        inv = class_invariant(todd_spec(5))
        rng = random.Random(3)
        e1 = random_element(rng, P2)
        e2 = random_element(rng, P2)
        assert tau(inv, e1 + e2) == tau(inv, e1) + tau(inv, e2)

    def test_uniqueness_surface(self):
        """Every generator is the pushforward of a distinguished element
        along its own structure map, so tau is forced by normalization
        plus naturality; recompute it that way."""
        rng = random.Random(5)
        inv = class_invariant(ty_spec(7))
        for base in [P1, P2, projective(1, 1)]:
            e = random_element(rng, base)
            direct = tau(inv, e)
            rebuilt = None
            for key, coeff in e.terms.items():
                t = key.representative(base)
                via_delta = pushforward(
                    t.arrow, tau(inv, distinguished(t.space))
                ).scale(coeff)
                rebuilt = via_delta if rebuilt is None else rebuilt + via_delta
            assert direct == rebuilt


class TestAdditivity:
    @pytest.mark.parametrize(
        "inv",
        [
            fundamental_invariant(),
            class_invariant(chern_spec(6)),
            class_invariant(ty_spec(6)),
            indicator_invariant(),
            euler_invariant(),
        ],
        ids=lambda inv: inv.name,
    )
    def test_invariant_additive_over_union(self, inv):
        for x, y in [(P1, P2), (projective(1, 1), POINT), (P2, P2)]:
            ix, iy = inclusions(x, y)
            whole = eval_invariant(inv, disjoint_union(x, y))
            glued = eval_invariant(inv, x).push(ix) + eval_invariant(inv, y).push(iy)
            assert whole == glued


class TestValueOperations:
    """Every value type's push, cross, scale and render against the
    switch on the value's type they replace (``oracles.push_value`` and
    its siblings)."""

    spaces = corpus_spaces(3, 2)

    @settings(max_examples=150, deadline=None)
    @given(
        inv=st.sampled_from(_invariant_pool(5)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(-4, 4),
    )
    def test_matches_type_switch(self, inv, seed, n):
        rng = random.Random(seed)
        f = random_morphism(rng, self.spaces)
        v = tau(inv, random_element(rng, f.source))
        w = eval_invariant(inv, rng.choice(self.spaces))
        assert render_value(v) == oracles.render_value(v)
        for got, expect in [
            (v.push(f), oracles.push_value(f, v)),
            (v.cross(w), oracles.cross_value(v, w)),
            (v.scale(n), oracles.scale_value(v, n)),
        ]:
            assert got == expect
            assert render_value(got) == oracles.render_value(expect)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(-9, 9).map(EulerValue),
        b=st.integers(-9, 9).map(EulerValue),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(-4, 4),
    )
    def test_euler_value_keeps_its_type(self, a, b, seed, n):
        f = random_morphism(random.Random(seed), self.spaces)
        for got, expect in [
            (a + b, int(a) + int(b)),
            (a - b, int(a) - int(b)),
            (a.push(f), int(a)),
            (a.cross(b), int(a) * int(b)),
            (a.scale(n), int(a) * n),
        ]:
            assert type(got) is EulerValue
            assert got == expect

    def test_failing_euler_report(self):
        report = _report("naturality", {}, EulerValue(3), EulerValue(5))
        assert not report.passed
        assert (report.left, report.right, report.difference) == ("3", "5", "-2")


class TestNaturality:
    def test_identity_passes(self):
        e = distinguished(P2)
        report = check_naturality(
            class_invariant(chern_spec(4)), identity_morphism(P2), e
        )
        assert report.passed

    def test_projection_with_ty(self):
        f = ToyMorphism(projective(1, 1), P1, ((0, (1,)),))
        report = check_naturality(
            class_invariant(ty_spec(5)), f, distinguished(projective(1, 1))
        )
        assert report.passed

    def test_injected_fault_detected(self):
        # perturb tau by comparing against a scaled pushforward
        f = to_point(P1)
        e = distinguished(P1)
        inv = class_invariant(chern_spec(3))
        left = tau(inv, pushforward_k(f, e))
        right = pushforward(f, tau(inv, e)).scale(2)  # deliberate fault
        assert left != right
        report = check_naturality(inv, f, e)
        assert report.passed
        # now an actually broken comparison reports a nonzero difference
        from tauclass.transform import _report

        broken = _report("naturality", {}, left, right)
        assert not broken.passed
        assert broken.difference is not None

    @pytest.mark.parametrize("kind", ["fundamental", "indicator", "euler"])
    def test_other_value_kinds(self, kind):
        inv = {
            "fundamental": fundamental_invariant(),
            "indicator": indicator_invariant(),
            "euler": euler_invariant(),
        }[kind]
        f = ToyMorphism(projective(2, 1), P1, ((0, (1,)),))
        rng = random.Random(9)
        e = random_element(rng, projective(2, 1))
        assert check_naturality(inv, f, e).passed


class TestMultiplicativity:
    def test_distinguished_chern(self):
        report = check_multiplicativity(
            class_invariant(chern_spec(4)), distinguished(P1), distinguished(P1)
        )
        assert report.passed

    def test_zero_factor(self):
        report = check_multiplicativity(
            class_invariant(todd_spec(4)), distinguished(P1), KElement.zero(P2)
        )
        assert report.passed
        assert report.left == "0"

    def test_ty_on_p1_x_p2(self):
        report = check_multiplicativity(
            class_invariant(ty_spec(6)), distinguished(P1), distinguished(P2)
        )
        assert report.passed

    def test_non_multiplicative_rejected(self):
        broken = EulerCharacteristic(multiplicative=False)
        with pytest.raises(ValueError, match="not cross-compatible"):
            check_multiplicativity(broken, distinguished(P1), distinguished(P1))


class TestVerdier:
    def test_identity_trivial(self):
        report = check_verdier_rr(
            todd_spec(4), identity_morphism(P2), distinguished(P2)
        )
        assert report.passed

    @pytest.mark.parametrize(
        "make_spec", [chern_spec, todd_spec, l_spec, ty_spec], ids=lambda s: s.__name__
    )
    def test_projection_all_specs(self, make_spec):
        f = ToyMorphism(projective(1, 1), P1, ((0, (1,)),))
        report = check_verdier_rr(make_spec(6), f, distinguished(P1))
        assert report.passed

    def test_non_distinguished_element(self):
        f = ToyMorphism(projective(2, 1), P1, ((0, (1,)),))
        e = k_class(Triple(P1, P1, identity_morphism(P1)))
        for spec in [chern_spec(6), todd_spec(6), l_spec(6), ty_spec(6)]:
            assert check_verdier_rr(spec, f, e).passed


class TestConstDiagram:
    def test_distinguished_p2(self):
        report = check_const_diagram(distinguished(P2))
        assert report.passed
        assert "integral 3" in report.left

    def test_projection_element(self):
        pr = ToyMorphism(projective(1, 1), P1, ((0, (1,)),))
        e = k_class(Triple(projective(1, 1), P1, pr))
        report = check_const_diagram(e)
        assert report.passed
        # both sides are twice the Chern class of P1; integral chi(P1)^2
        assert "integral 4" in report.left

    def test_zero(self):
        assert check_const_diagram(KElement.zero(P2)).passed

    def test_degree_zero_euler_identity(self):
        rng = random.Random(13)
        for space in [P1, P2, projective(1, 1), disjoint_union(P1, POINT)]:
            e = random_element(rng, space)
            inv = class_invariant(chern_spec(6))
            assert tau(inv, e).integral() == Fraction(
                euler_integral(const_transform(e))
            )


class TestGenus:
    @pytest.mark.parametrize("n", range(5))
    def test_ladder(self, n):
        genus = chi_y_genus(projective(n))
        # chi_{-1} = Euler characteristic
        assert genus.evaluate(-1) == n + 1
        # chi_0 = arithmetic genus of projective space
        assert genus.evaluate(0) == 1
        # chi_1 = signature
        assert genus.evaluate(1) == (1 if n % 2 == 0 else 0)

    @pytest.mark.parametrize("n", range(5))
    def test_closed_form(self, n):
        # sum_{p<=n} (-y)^p
        expect = YPoly([Fraction((-1) ** p) for p in range(n + 1)])
        assert chi_y_genus(projective(n)) == expect

    def test_empty(self):
        assert chi_y_genus(EMPTY) == YPoly()

    def test_multiplicative(self):
        left = chi_y_genus(product(P1, P2))
        right = chi_y_genus(P1) * chi_y_genus(P2)
        assert left == right

    def test_additive(self):
        left = chi_y_genus(disjoint_union(P1, P2))
        assert left == chi_y_genus(P1) + chi_y_genus(P2)


class TestVirtualAmbient:
    def test_empty_degree_list_gives_tangent_class(self):
        got = virtual_in_ambient(chern_spec(4), P2, [])
        tangent_class = eval_invariant(class_invariant(chern_spec(4)), P2)
        assert got == tangent_class

    def test_line_in_plane(self):
        got = virtual_in_ambient(chern_spec(4), P2, [(1,)])
        # (1+h)^3 (1+h)^{-1} h = h + 2h^2: a line plus two points
        assert got.polys[0] == GradedPoly((2,), {(1,): 1, (2,): 2})
        # degree zero: chi(P1) = 2
        assert got.integral() == 2

    def test_quadric_in_p3(self):
        got = virtual_in_ambient(chern_spec(5), projective(3), [(2,)])
        assert got.integral() == 4  # chi(P1 x P1)

    def test_bidegree_in_product(self):
        # the (1,1) hypersurface in P1 x P1 is a P1; check chi = 2
        got = virtual_in_ambient(chern_spec(5), projective(1, 1), [(1, 1)])
        assert got.integral() == 2

    def test_codimension_cap(self):
        with pytest.raises(ValueError, match="codimension"):
            virtual_in_ambient(chern_spec(4), P2, [(1,), (1,), (1,)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            virtual_in_ambient(chern_spec(4), P2, [(1, 1)])

    def test_disconnected_ambient_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            virtual_in_ambient(chern_spec(4), disjoint_union(P1, P1), [])


class TestTyFractionCoefficients:
    """A Q[y] value may hold ``Fraction`` coefficients next to ``YPoly``
    ones: they come from Q-by-Q products, so they are integers and render
    exactly as the equal constant ``YPoly`` would."""

    spaces = corpus_spaces(3, 2)
    spec = ty_spec(9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fraction_coefficients_are_integers(self, seed):
        rng = random.Random(seed)
        inv = class_invariant(self.spec)
        space = rng.choice(self.spaces)
        value = tau(inv, random_element(rng, space))
        f = random_morphism(rng, self.spaces)
        element = random_element(rng, f.target, max_extra=1, max_terms=2)
        relative = relative_tangent(f)
        rel_class = HClass(f.source, tuple(
            multiplicative_class(self.spec, p, r) for p, r in zip(relative.polys, relative.ranks)
        ))
        values = [
            value,
            value.cross(tau(inv, random_element(rng, rng.choice(self.spaces)))),
            tau(inv, random_element(rng, f.source)).push(f),
            pullback(f, tau(inv, element)),
            tau(inv, pullback_k(f, element)),
            rel_class * pullback(f, tau(inv, element)),
        ]
        for v in values:
            for poly in v.polys:
                for c in poly.terms.values():
                    assert not isinstance(c, Fraction) or c.denominator == 1, (c, v)


class TestSpecializationLadder:
    def test_tau_ty_specializes(self):
        rng = random.Random(21)
        inv_ty = class_invariant(ty_spec(7))
        ladders = [
            (-1, class_invariant(chern_spec(7))),
            (0, class_invariant(todd_spec(7))),
            (1, class_invariant(l_spec(7))),
        ]
        for base in [P1, projective(1, 1), disjoint_union(P1, P2)]:
            e = random_element(rng, base)
            full = tau(inv_ty, e)
            for y_value, inv in ladders:
                assert full.specialize_y(y_value) == tau(inv, e)


class TestCorpus:
    def test_connected_dims_count(self):
        # the point plus partition counts p(1..5) = 1, 2, 3, 5, 7
        assert len(connected_dims(5)) == 1 + 1 + 2 + 3 + 5 + 7

    def test_corpus_spaces_bounded(self):
        spaces = corpus_spaces(4, 2)
        assert all(sum(sum(c) for c in s.components) <= 4 for s in spaces)
        assert all(1 <= s.n_components <= 2 for s in spaces)
        assert len(set(spaces)) == len(spaces)

    def test_random_element_deterministic(self):
        a = random_element(random.Random("fixed"), P2)
        b = random_element(random.Random("fixed"), P2)
        assert a == b

    def test_random_morphism_valid(self):
        rng = random.Random(2)
        spaces = corpus_spaces(4, 2)
        for _ in range(50):
            f = random_morphism(rng, spaces)
            assert f.source in spaces


class TestSuites:
    def test_naturality_suite_passes(self):
        reports = run_suite("naturality", seed=7, max_dim=4, max_components=2)
        assert len(reports) >= 200
        assert all(r.passed for r in reports)

    def test_multiplicativity_suite_passes(self):
        reports = run_suite("multiplicativity", seed=7, max_dim=3, max_components=2)
        assert len(reports) >= 100
        assert all(r.passed for r in reports)

    def test_verdier_suite_small(self):
        reports = run_suite("verdier-rr", seed=1, max_dim=3)
        assert all(r.passed for r in reports)

    def test_const_suite_small(self):
        reports = run_suite("const-diagram", seed=1, max_dim=3, max_components=2)
        assert all(r.passed for r in reports)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus", seed=0)

    def test_deterministic_reports(self):
        a = run_suite("naturality", seed=3, max_dim=3, max_components=2)
        b = run_suite("naturality", seed=3, max_dim=3, max_components=2)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
