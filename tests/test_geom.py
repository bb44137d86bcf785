from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauclass.geom import (
    EMPTY,
    POINT,
    HClass,
    SpaceParseError,
    ToyMorphism,
    ToySpace,
    cross,
    disjoint_union,
    enumerate_projections,
    euler_char,
    fiber_square,
    homological_degree,
    identity_morphism,
    morphism_product,
    parse_space,
    product,
    projective,
    pullback,
    pushforward,
    relative_tangent,
    tangent_chern,
    to_point,
)
from tauclass.series import GradedPoly

from graded_checks import assert_canonical_class, hclasses, projections, rings
from oracles import enumerate_morphisms, inclusions

P1 = projective(1)
P2 = projective(2)
P1xP1 = projective(1, 1)


def iso_key(space):
    """Isomorphism-class key: the multiset of sorted factor tuples."""
    return tuple(sorted(tuple(sorted(c)) for c in space.components))


def monomial_class(space, comp_index, exp, coeff=1):
    polys = [GradedPoly.zero(c) for c in space.components]
    polys[comp_index] = GradedPoly(
        space.components[comp_index], {tuple(exp): coeff}
    )
    return HClass(space, tuple(polys))


def basis_classes(space):
    """All monomial classes of a space."""
    out = []
    for i, comp in enumerate(space.components):
        for exp in iproduct(*(range(n + 1) for n in comp)):
            out.append(monomial_class(space, i, exp))
    return out


class TestSpaces:
    def test_products_distribute(self):
        left = product(disjoint_union(P1, POINT), P1)
        assert left == disjoint_union(P1xP1, P1)

    def test_point_is_unit(self):
        assert product(P2, POINT) == P2
        assert product(POINT, P2) == P2

    def test_empty_absorbs(self):
        assert product(P2, EMPTY) == EMPTY
        assert disjoint_union(EMPTY, P2) == P2

    def test_euler_characteristics(self):
        assert euler_char(projective(3)) == 4
        assert euler_char(EMPTY) == 0
        assert euler_char(disjoint_union(product(P1, P2), POINT)) == 7

    def test_euler_multiplicative_and_additive(self):
        for x in [P1, P2, P1xP1, POINT]:
            for y in [P1, P2, POINT]:
                assert euler_char(product(x, y)) == euler_char(x) * euler_char(y)
                assert euler_char(disjoint_union(x, y)) == euler_char(x) + euler_char(y)

    def test_iso_key_ignores_order(self):
        assert iso_key(projective(2, 1)) == iso_key(projective(1, 2))
        assert iso_key(disjoint_union(P1, P2)) == iso_key(disjoint_union(P2, P1))
        assert iso_key(projective(2, 1)) != iso_key(disjoint_union(P1, P2))


class TestParse:
    def test_simple(self):
        assert parse_space("P2 x P1 + pt") == disjoint_union(projective(2, 1), POINT)

    def test_whitespace_insensitive(self):
        assert parse_space("P2xP1+pt") == parse_space("  P2 x  P1 +   pt ")

    def test_product_binds_tighter(self):
        got = parse_space("P1 + P1 x P1")
        assert got == disjoint_union(P1, P1xP1)

    def test_round_trip_render(self):
        for text in ["P2", "pt", "P1 x P1", "P3 + P1 x P2 + pt"]:
            assert parse_space(parse_space(text).render()) == parse_space(text)

    @pytest.mark.parametrize("bad", ["", "P", "Q2", "P2 +", "P2 y P1", "x P1"])
    def test_errors(self, bad):
        with pytest.raises(SpaceParseError):
            parse_space(bad)


class TestTangent:
    def test_p1(self):
        td = tangent_chern(P1)
        assert td.polys[0] == GradedPoly((1,), {(0,): 1, (1,): 2})
        assert td.ranks == (1,)

    def test_point(self):
        td = tangent_chern(POINT)
        assert td.polys[0] == GradedPoly.one(())
        assert td.ranks == (0,)

    def test_p1_x_p1_top_class_integrates_to_euler(self):
        td = tangent_chern(P1xP1)
        expect = GradedPoly(
            (1, 1), {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 4}
        )
        assert td.polys[0] == expect
        assert HClass(P1xP1, td.polys).integral() == euler_char(P1xP1)

    @pytest.mark.parametrize(
        "space",
        [P1, P2, P1xP1, projective(3), projective(2, 1), disjoint_union(P1, P2)],
    )
    def test_top_chern_is_euler_characteristic(self, space):
        td = tangent_chern(space)
        total = sum(p.top_coefficient() for p in td.polys)
        assert total == euler_char(space)


class TestRelativeTangent:
    def test_identity_is_trivial(self):
        td = relative_tangent(identity_morphism(projective(2, 1)))
        assert td.polys[0] == GradedPoly.one((2, 1))
        assert td.ranks == (0,)

    def test_projection_keeps_dropped_factor(self):
        # P2 x P1 -> P1 keeping the last factor
        f = ToyMorphism(projective(2, 1), P1, ((0, (1,)),))
        td = relative_tangent(f)
        h0 = GradedPoly.variable((2, 1), 0)
        one = GradedPoly.one((2, 1))
        assert td.polys[0] == (one + h0) ** 3
        assert td.ranks == (2,)

    def test_map_to_point_gives_full_tangent(self):
        f = to_point(projective(3))
        assert relative_tangent(f).polys == tangent_chern(projective(3)).polys

    @pytest.mark.parametrize(
        "source,f",
        [
            (projective(2, 1), ToyMorphism(projective(2, 1), P1, ((0, (1,)),))),
            (projective(1, 1, 2), ToyMorphism(projective(1, 1, 2), projective(1, 2), ((0, (1, 2)),))),
            (P1xP1, ToyMorphism(P1xP1, P1, ((0, (0,)),))),
        ],
    )
    def test_whitney_relation(self, source, f):
        # c(T_source) = pullback(c(T_target)) * c(T_f)
        src = HClass(source, tangent_chern(source).polys)
        tgt = HClass(f.target, tangent_chern(f.target).polys)
        rel = HClass(source, relative_tangent(f).polys)
        assert src == pullback(f, tgt) * rel


class TestPushforwardPullback:
    def test_identity(self):
        c = monomial_class(P2, 0, (1,), 5)
        f = identity_morphism(P2)
        assert pushforward(f, c) == c
        assert pullback(f, c) == c

    def test_point_class_pushes_to_point_class(self):
        f = ToyMorphism(P1xP1, P1, ((0, (1,)),))
        point_class = monomial_class(P1xP1, 0, (1, 1))
        got = pushforward(f, point_class)
        assert got == monomial_class(P1, 0, (1,))

    def test_degree_drop_to_point(self):
        f = to_point(P1)
        assert pushforward(f, HClass.unit(P1)) == HClass.zero(POINT)
        h = monomial_class(P1, 0, (1,))
        assert pushforward(f, h) == HClass.unit(POINT)

    def test_pullback_substitution(self):
        f = ToyMorphism(P1xP1, P1, ((0, (1,)),))
        h = monomial_class(P1, 0, (1,))
        assert pullback(f, h) == monomial_class(P1xP1, 0, (0, 1))

    def test_pullback_scalar_from_point(self):
        f = to_point(P2)
        q = HClass.unit(POINT).scale(Fraction(7, 2))
        assert pullback(f, q) == HClass.unit(P2).scale(Fraction(7, 2))

    def test_space_mismatch(self):
        f = to_point(P1)
        c = HClass.unit(P2)
        with pytest.raises(ValueError):
            pushforward(f, c)
        with pytest.raises(ValueError):
            pullback(f, HClass.unit(P1))

    def test_fold_map_adds(self):
        both = disjoint_union(P1, P1)
        fold = ToyMorphism(both, P1, ((0, (0,)), (0, (0,))))
        c = HClass(
            both,
            (
                GradedPoly((1,), {(1,): 1}),
                GradedPoly((1,), {(1,): 2}),
            ),
        )
        assert pushforward(fold, c) == monomial_class(P1, 0, (1,), 3)


def sample_morphisms(max_total_dim=6):
    """A deterministic family of test morphisms within the dimension bound."""
    out = []
    spaces = [
        POINT,
        P1,
        P2,
        P1xP1,
        projective(2, 1),
        projective(1, 1, 1),
        projective(3, 2),
        disjoint_union(P1, P1),
        disjoint_union(P1xP1, POINT),
    ]
    for x in spaces:
        if sum(sum(c) for c in x.components) > max_total_dim:
            continue
        out.append(identity_morphism(x))
        out.append(to_point(x))
    out.append(ToyMorphism(projective(2, 1), P1, ((0, (1,)),)))
    out.append(ToyMorphism(projective(2, 1), P2, ((0, (0,)),)))
    out.append(ToyMorphism(projective(2, 1), projective(1, 2), ((0, (1, 0)),)))
    out.append(ToyMorphism(projective(3, 2), projective(2, 3), ((0, (1, 0)),)))
    out.append(ToyMorphism(P1xP1, P1xP1, ((0, (1, 0)),)))
    out.append(ToyMorphism(projective(1, 1, 1), P1xP1, ((0, (2, 0)),)))
    out.append(
        ToyMorphism(disjoint_union(P1xP1, P1), P1, ((0, (1,)), (0, (0,))))
    )
    return out


class TestProjectionFormula:
    @pytest.mark.parametrize("f", sample_morphisms(), ids=lambda f: f"{f.source}->{f.target}")
    def test_projection_formula_on_monomials(self, f):
        # pushforward(pullback(a) * b) = a * pushforward(b)
        for a in basis_classes(f.target):
            for b in basis_classes(f.source):
                left = pushforward(f, pullback(f, a) * b)
                right = a * pushforward(f, b)
                assert left == right


class TestFunctoriality:
    def test_pushforward_composes(self):
        f = ToyMorphism(projective(2, 1), P1, ((0, (1,)),))
        g = to_point(P1)
        gf = f.then(g)
        for b in basis_classes(projective(2, 1)):
            assert pushforward(gf, b) == pushforward(g, pushforward(f, b))

    def test_pullback_composes_contravariantly(self):
        f = ToyMorphism(projective(2, 1), P1, ((0, (1,)),))
        g = to_point(P1)
        gf = f.then(g)
        for a in basis_classes(POINT):
            assert pullback(gf, a) == pullback(f, pullback(g, a))

    def test_morphism_composition_associative(self):
        f = ToyMorphism(projective(1, 1, 1), P1xP1, ((0, (2, 0)),))
        g = ToyMorphism(P1xP1, P1, ((0, (1,)),))
        h = to_point(P1)
        assert f.then(g).then(h) == f.then(g.then(h))


class TestBaseChange:
    @pytest.mark.parametrize(
        "y,v_extra,x_extra",
        [
            (P1, (1,), (2,)),
            (P2, (1,), (1,)),
            (P1xP1, (2,), (1,)),
        ],
    )
    def test_base_change_on_monomials(self, y, v_extra, x_extra):
        # independent projections f: X -> Y and h: V -> Y
        x = product(projective(*x_extra), y)
        v = product(projective(*v_extra), y)
        kx = len(x_extra)
        kv = len(v_extra)
        f = ToyMorphism(x, y, ((0, tuple(range(kx, kx + len(y.components[0])))),))
        h = ToyMorphism(v, y, ((0, tuple(range(kv, kv + len(y.components[0])))),))
        square = fiber_square(f, h)
        f_prime = square.to_source
        h_prime = square.to_base
        for m in basis_classes(v):
            left = pullback(f, pushforward(h, m))
            right = pushforward(h_prime, pullback(f_prime, m))
            assert left == right

    def test_fiber_square_commutes(self):
        f = ToyMorphism(projective(2, 1), P1, ((0, (1,)),))
        h = ToyMorphism(P1xP1, P1, ((0, (0,)),))
        square = fiber_square(f, h)
        assert square.to_base.then(f) == square.to_source.then(h)

    def test_pullback_of_projection_along_itself(self):
        f = ToyMorphism(P1xP1, P1, ((0, (1,)),))
        square = fiber_square(f, identity_morphism(P1))
        assert square.corner == P1xP1 or iso_key(square.corner) == iso_key(P1xP1)


class TestCapAndGrading:
    def test_p1_tangent_class_homology_view(self):
        # (1 + 2h) against [P1]: fundamental class plus 2 points
        td = HClass(P1, tangent_chern(P1).polys)
        assert td.polys[0].coefficient((0,)) == 1
        assert td.polys[0].coefficient((1,)) == 2
        assert homological_degree((1,), (0,)) == 2
        assert homological_degree((1,), (1,)) == 0


class TestCross:
    def test_cross_multiplies_coefficients(self):
        a = monomial_class(P1, 0, (0,), 1) + monomial_class(P1, 0, (1,), 2)
        b = monomial_class(P1, 0, (1,), 1)
        got = cross(a, b)
        assert got.space == P1xP1
        assert got.polys[0] == GradedPoly(
            (1, 1), {(0, 1): 1, (1, 1): 2}
        )

    def test_cross_with_zero(self):
        a = HClass.unit(P1)
        z = HClass.zero(P2)
        assert cross(a, z) == HClass.zero(product(P1, P2))

    def test_additivity_over_components(self):
        both = disjoint_union(P1, P2)
        c = HClass.unit(both)
        assert len(c.polys) == 2
        # restriction to each piece is the unit of that piece
        assert c.polys[0] == GradedPoly.one((1,))
        assert c.polys[1] == GradedPoly.one((2,))


class TestTrustedResults:
    """pushforward, pullback and cross build their polynomials without
    re-validation; each must still be what the validating constructor
    would have built."""

    @settings(max_examples=150, deadline=None)
    @given(rings, projections(), st.data())
    def test_pushforward_and_pullback_are_canonical(self, ring, f, data):
        c = data.draw(hclasses(ring, f.source))
        d = data.draw(hclasses(ring, f.target))
        assert_canonical_class(pushforward(f, c))
        assert_canonical_class(pullback(f, d))
        # two copies of the source carrying c and -c push forward to zero
        doubled = ToyMorphism(
            disjoint_union(f.source, f.source), f.target, f.legs + f.legs
        )
        c_and_minus_c = HClass(doubled.source, c.polys + (-c).polys)
        pushed = pushforward(doubled, c_and_minus_c)
        assert_canonical_class(pushed)
        assert pushed == HClass.zero(f.target)

    @settings(max_examples=100, deadline=None)
    @given(rings, projections(), projections(), st.data())
    def test_cross_is_canonical(self, ring, f, g, data):
        c = data.draw(hclasses(ring, f.source))
        d = data.draw(hclasses(ring, g.target))
        assert_canonical_class(cross(c, d))
        assert_canonical_class(cross(d, c))


class TestInclusionsAndEnumeration:
    def test_inclusions(self):
        ix, iy = inclusions(P1, P2)
        both = disjoint_union(P1, P2)
        assert ix.target == both and iy.target == both
        c = HClass.unit(P1)
        pushed = pushforward(ix, c)
        assert pushed.polys[0] == GradedPoly.one((1,))
        assert pushed.polys[1].is_zero()

    def test_enumerate_morphisms_counts(self):
        # P1 x P1 -> P1: two factor choices
        assert len(enumerate_morphisms(P1xP1, P1)) == 2
        # P1 x P1 -> P1 x P1: two permutations
        assert len(enumerate_morphisms(P1xP1, P1xP1)) == 2
        # no morphism P1 -> P2 in the projection class
        assert enumerate_morphisms(P1, P2) == []

    def test_enumerate_projections_count(self):
        # ordered arrangements of subsets: sum_k P(3, k) = 1 + 3 + 6 + 6
        assert len(enumerate_projections(projective(1, 1, 1))) == 16
        got = enumerate_projections(projective(2, 1))
        assert len(got) == 1 + 2 + 2

    def test_morphism_product(self):
        f = ToyMorphism(P1xP1, P1, ((0, (0,)),))
        g = identity_morphism(P1)
        fg = morphism_product(f, g)
        assert fg.source == product(P1xP1, P1)
        assert fg.target == P1xP1
        assert fg.legs == ((0, (0, 2)),)

    def test_empty_space_morphism(self):
        bang = ToyMorphism(EMPTY, P2, ())
        assert pushforward(bang, HClass.zero(EMPTY)) == HClass.zero(P2)
