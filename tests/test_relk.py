import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauclass.geom import (
    EMPTY,
    POINT,
    ToyMorphism,
    ToySpace,
    disjoint_union,
    identity_morphism,
    morphism_product,
    product,
    projective,
    to_point,
)
from tauclass.relk import (
    KElement,
    Triple,
    TripleClass,
    cross_k,
    distinguished,
    k_class,
    pullback_k,
    pushforward_k,
)

from oracles import canonical_class_by_permutations, enumerate_morphisms, inclusions

P1 = projective(1)
P2 = projective(2)


class TestKClass:
    def test_empty_source_is_zero(self):
        bang = ToyMorphism(EMPTY, P2, ())
        assert k_class(Triple(EMPTY, P2, bang)).is_zero()

    def test_union_splits_and_merges(self):
        both = disjoint_union(P1, P1)
        e = k_class(Triple(both, POINT, to_point(both)))
        single = k_class(Triple(P1, POINT, to_point(P1)))
        assert e == single.scale(2)
        ((key, coeff),) = e.terms.items()
        assert coeff == 2
        assert key.dims == (1,)

    def test_connected_source_single_generator(self):
        v = projective(1, 2)
        f = ToyMorphism(v, P2, ((0, (1,)),))
        e = k_class(Triple(v, P2, f))
        assert len(list(e.terms.items())) == 1

    def test_sqcup_additivity(self):
        v1, v2 = projective(1, 1), P2
        both = disjoint_union(v1, v2)
        h = to_point(both)
        total = k_class(Triple(both, POINT, h))
        split = k_class(Triple(v1, POINT, to_point(v1))) + k_class(
            Triple(v2, POINT, to_point(v2))
        )
        assert total == split


class TestCanonicalization:
    def test_factor_order_quotiented(self):
        # P2 x P1 -> P1 and P1 x P2 -> P1 are isomorphic over P1
        a = k_class(Triple(projective(2, 1), P1, ToyMorphism(projective(2, 1), P1, ((0, (1,)),))))
        b = k_class(Triple(projective(1, 2), P1, ToyMorphism(projective(1, 2), P1, ((0, (0,)),))))
        assert a == b

    def test_distinct_assignments_distinguished(self):
        # over P1 x P1, projecting to the first or second factor differ
        base = projective(1, 1)
        v = projective(1, 1, 1)
        first = k_class(Triple(v, base, ToyMorphism(v, base, ((0, (0, 1)),))))
        # same source shape but the two base factors pull from swapped slots
        second = k_class(Triple(v, base, ToyMorphism(v, base, ((0, (1, 0)),))))
        assert first == second  # a source permutation swaps the slots
        third = k_class(Triple(v, base, ToyMorphism(v, base, ((0, (2, 0)),))))
        assert first == third  # still conjugate by a permutation fixing dims

    def test_non_isomorphic_sources_differ(self):
        a = k_class(Triple(P1, POINT, to_point(P1)))
        b = k_class(Triple(P2, POINT, to_point(P2)))
        assert a != b

    def test_randomized_permutation_soundness(self):
        rng = random.Random(11)
        base = projective(1, 1)
        dims_pool = [(1, 1, 2), (1, 1, 1), (2, 1, 1, 2)]
        for dims in dims_pool:
            v = projective(*dims)
            options = enumerate_morphisms(v, base)
            for f in options:
                e1 = k_class(Triple(v, base, f))
                # conjugate by a random permutation of the source factors
                perm = list(range(len(dims)))
                rng.shuffle(perm)
                new_dims = tuple(dims[perm[i]] for i in range(len(dims)))
                position = [0] * len(dims)
                for pos, old in enumerate(perm):
                    position[old] = pos
                v2 = projective(*new_dims)
                j, assignment = f.legs[0]
                g = ToyMorphism(
                    v2, base, ((j, tuple(position[s] for s in assignment)),)
                )
                e2 = k_class(Triple(v2, base, g))
                assert e1 == e2

    def test_different_base_component_distinguished(self):
        base = disjoint_union(P1, P1)
        v = P1
        a = k_class(Triple(v, base, ToyMorphism(v, base, ((0, (0,)),))))
        b = k_class(Triple(v, base, ToyMorphism(v, base, ((1, (0,)),))))
        assert a != b


@st.composite
def connected_legs(draw):
    """0-7 source factors of dims 0-3 and a random injective assignment."""
    dims = tuple(draw(st.lists(st.integers(0, 3), max_size=7)))
    size = draw(st.integers(0, len(dims)))
    assignment = tuple(draw(st.permutations(range(len(dims))))[:size])
    return dims, assignment


class TestClosedFormCanonicalClass:
    @settings(max_examples=200, deadline=None)
    @given(connected_legs())
    def test_matches_permutation_search(self, case):
        dims, assignment = case
        space = ToySpace((dims,))
        base = ToySpace((tuple(dims[s] for s in assignment),))
        e = k_class(Triple(space, base, ToyMorphism(space, base, ((0, assignment),))))
        ((key, coeff),) = e.terms.items()
        assert coeff == 1
        assert key == canonical_class_by_permutations(dims, (0, assignment))


class TestGroupStructure:
    def test_add_and_negate(self):
        a = distinguished(P1)
        z = a + (-a)
        assert z.is_zero()

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            distinguished(P1) + distinguished(P2)

    def test_free_on_connected_iso_classes_over_point(self):
        # over the point the group is free on iso classes of connected spaces
        gens = [
            k_class(Triple(v, POINT, to_point(v)))
            for v in [P1, P2, projective(1, 1), projective(2, 1)]
        ]
        combo = gens[0] + gens[1].scale(-2) + gens[3].scale(5)
        items = dict(combo.terms.items())
        assert len(items) == 3
        assert set(items.values()) == {1, -2, 5}

    def test_matches_group_completion_of_free_submonoid(self):
        """Cross-validation: a finite family of connected generators over
        the point has no relations, so an explicit presentation on them
        completes to a free group of the same rank."""
        from tauclass.abelian import FpMonoid, group_completion

        gens = [P1, P2, projective(1, 1)]
        monoid = FpMonoid(len(gens), ())
        g = group_completion(monoid)
        assert (g.rank, g.torsion) == (len(gens), ())
        elems = [k_class(Triple(v, POINT, to_point(v))) for v in gens]
        vec = (3, -1, 2)
        combined = KElement.zero(POINT)
        for e, c in zip(elems, vec):
            combined = combined + e.scale(c)
        coeffs = dict(combined.terms.items())
        assert sorted(coeffs.values()) == sorted(vec)
        assert g.normalize_element(vec)[0] == vec


class TestPushforward:
    def test_identity(self):
        e = distinguished(projective(2, 1))
        assert pushforward_k(identity_morphism(projective(2, 1)), e) == e

    def test_functorial(self):
        v = projective(1, 1, 2)
        base = projective(1, 2)
        h = ToyMorphism(v, base, ((0, (1, 2)),))
        e = k_class(Triple(v, base, h)) + distinguished(base).scale(-2)
        f = ToyMorphism(base, P2, ((0, (1,)),))
        g = to_point(P2)
        left = pushforward_k(g, pushforward_k(f, e))
        right = pushforward_k(f.then(g), e)
        assert left == right

    def test_to_point_forgets_structure_map(self):
        v = projective(1, 1)
        h = ToyMorphism(v, P1, ((0, (0,)),))
        e = k_class(Triple(v, P1, h))
        got = pushforward_k(to_point(P1), e)
        assert got == k_class(Triple(v, POINT, to_point(v)))

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            pushforward_k(to_point(P2), distinguished(P1))


class TestPullback:
    def test_identity(self):
        e = distinguished(P2)
        assert pullback_k(identity_morphism(P2), e) == e

    def test_projection_multiplies_source(self):
        # f: P1 x Y -> Y pulls [(V, Y, h)] back to [(V x P1, P1 x Y, h x id)]
        y = P2
        f = ToyMorphism(product(P1, y), y, ((0, (1,)),))
        v = projective(2)
        h = identity_morphism(y)
        e = k_class(Triple(v, y, h))
        got = pullback_k(f, e)
        expect_arrow = morphism_product(identity_morphism(P1), h)
        # component order of the fiber product is (V factors, extra factors)
        expect = k_class(
            Triple(
                product(v, P1),
                product(P1, y),
                ToyMorphism(product(v, P1), product(P1, y), ((0, (1, 0)),)),
            )
        )
        assert got == expect
        assert expect_arrow.source == product(P1, y)

    def test_pullback_of_zero(self):
        f = ToyMorphism(product(P1, P2), P2, ((0, (1,)),))
        assert pullback_k(f, KElement.zero(P2)).is_zero()

    def test_group_homomorphism(self):
        y = P1
        f = ToyMorphism(product(P1, y), y, ((0, (1,)),))
        a = distinguished(y)
        b = k_class(Triple(projective(1, 1), y, ToyMorphism(projective(1, 1), y, ((0, (0,)),))))
        left = pullback_k(f, a + b.scale(-3))
        right = pullback_k(f, a) + pullback_k(f, b).scale(-3)
        assert left == right

    def test_contravariant_functorial(self):
        z = P1
        g = ToyMorphism(product(P2, z), z, ((0, (1,)),))
        f = ToyMorphism(product(P1, product(P2, z)), product(P2, z), ((0, (1, 2)),))
        e = distinguished(z) + k_class(
            Triple(projective(1, 1), z, ToyMorphism(projective(1, 1), z, ((0, (1,)),)))
        )
        left = pullback_k(f, pullback_k(g, e))
        right = pullback_k(f.then(g), e)
        assert left == right


class TestCrossProduct:
    def test_with_zero(self):
        e = distinguished(P1)
        assert cross_k(e, KElement.zero(P2)).is_zero()

    def test_distinguished_multiply(self):
        x, y = P1, P2
        assert cross_k(distinguished(x), distinguished(y)) == distinguished(product(x, y))

    def test_square_of_p1_over_point(self):
        e = k_class(Triple(P1, POINT, to_point(P1)))
        got = cross_k(e, e)
        expect = k_class(Triple(projective(1, 1), POINT, to_point(projective(1, 1))))
        assert got == expect

    def test_bilinear(self):
        a = distinguished(P1)
        b = k_class(Triple(projective(1, 1), P1, ToyMorphism(projective(1, 1), P1, ((0, (0,)),))))
        c = distinguished(P2)
        left = cross_k(a + b.scale(2), c)
        right = cross_k(a, c) + cross_k(b, c).scale(2)
        assert left == right

    def test_associative(self):
        # products of spaces concatenate factor tuples, so re-association
        # is the identity and the cross product is strictly associative
        a = distinguished(P1)
        b = k_class(Triple(projective(1, 1), P1, ToyMorphism(projective(1, 1), P1, ((0, (1,)),))))
        c = distinguished(POINT).scale(2)
        assert cross_k(cross_k(a, b), c) == cross_k(a, cross_k(b, c))

    def test_compatible_with_pushforward(self):
        # (f x g)_* after cross = cross after (f_*, g_*)
        f = ToyMorphism(projective(1, 1), P1, ((0, (0,)),))
        g = to_point(P2)
        e1 = distinguished(projective(1, 1))
        e2 = distinguished(P2)
        left = pushforward_k(morphism_product(f, g), cross_k(e1, e2))
        right = cross_k(pushforward_k(f, e1), pushforward_k(g, e2))
        assert left == right


class TestJsonSerialization:
    def test_round_trip(self):
        from tauclass.relk import kelement_from_json, kelement_to_json

        base = disjoint_union(projective(1, 1), P1)
        v = projective(2, 1, 1)
        e = k_class(
            Triple(v, base, ToyMorphism(v, base, ((0, (1, 2)),)))
        ).scale(-3) + distinguished(base)
        records = kelement_to_json(e)
        assert all(set(r) == {"V", "X", "h", "coeff"} for r in records)
        back = kelement_from_json(records)
        assert back == e

    def test_zero_needs_base(self):
        from tauclass.relk import kelement_from_json, kelement_to_json

        assert kelement_to_json(KElement.zero(P1)) == []
        assert kelement_from_json([], base=P1) == KElement.zero(P1)
        with pytest.raises(ValueError):
            kelement_from_json([])


class TestDistinguished:
    def test_point(self):
        e = distinguished(POINT)
        ((key, coeff),) = e.terms.items()
        assert coeff == 1
        assert key == TripleClass((), 0, ())

    def test_empty(self):
        assert distinguished(EMPTY).is_zero()

    def test_union_is_sum_of_inclusions(self):
        x, y = P1, P2
        both = disjoint_union(x, y)
        ix, iy = inclusions(x, y)
        left = distinguished(both)
        right = pushforward_k(ix, distinguished(x)) + pushforward_k(iy, distinguished(y))
        assert left == right
