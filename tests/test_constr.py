import pytest

from tauclass.constr import (
    ConstrFn,
    const_transform,
    cross_constr,
    euler_integral,
    push_constr,
)
from tauclass.geom import (
    EMPTY,
    POINT,
    ToyMorphism,
    disjoint_union,
    identity_morphism,
    product,
    projective,
    to_point,
)
from tauclass.relk import Triple, distinguished, k_class

P1 = projective(1)
P2 = projective(2)


class TestPushforward:
    def test_identity(self):
        beta = ConstrFn(P2, (5,))
        assert push_constr(identity_morphism(P2), beta) == beta

    def test_projection_weights_by_fiber_euler(self):
        f = ToyMorphism(projective(2, 1), P1, ((0, (1,)),))
        got = push_constr(f, ConstrFn.ones(projective(2, 1)))
        assert got == ConstrFn(P1, (3,))

    def test_fold_map_adds(self):
        both = disjoint_union(P1, P1)
        fold = ToyMorphism(both, P1, ((0, (0,)), (0, (0,))))
        got = push_constr(fold, ConstrFn(both, (1, 2)))
        assert got == ConstrFn(P1, (3,))

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            push_constr(to_point(P1), ConstrFn.ones(P2))

    def test_functoriality(self):
        f = ToyMorphism(projective(2, 1), P1, ((0, (1,)),))
        g = to_point(P1)
        beta = ConstrFn(projective(2, 1), (4,))
        assert push_constr(f.then(g), beta) == push_constr(g, push_constr(f, beta))

    def test_euler_integral_preserved(self):
        cases = [
            (identity_morphism(P2), ConstrFn(P2, (2,))),
            (ToyMorphism(projective(2, 1), P1, ((0, (1,)),)), ConstrFn(projective(2, 1), (3,))),
            (to_point(disjoint_union(P1, P2)), ConstrFn(disjoint_union(P1, P2), (1, -2))),
        ]
        for f, beta in cases:
            assert euler_integral(push_constr(f, beta)) == euler_integral(beta)


class TestEulerIntegral:
    def test_unit_on_p2(self):
        assert euler_integral(ConstrFn.ones(P2)) == 3

    def test_zero(self):
        assert euler_integral(ConstrFn.zero(P2)) == 0

    def test_union(self):
        space = disjoint_union(P1, POINT)
        assert euler_integral(ConstrFn.ones(space)) == 3

    def test_empty_space(self):
        assert euler_integral(ConstrFn.zero(EMPTY)) == 0


class TestCross:
    def test_unit_times_unit(self):
        got = cross_constr(ConstrFn.ones(P1), ConstrFn.ones(P2))
        assert got == ConstrFn.ones(product(P1, P2))

    def test_scalars_multiply(self):
        got = cross_constr(ConstrFn(P1, (2,)), ConstrFn(POINT, (3,)))
        assert got == ConstrFn(product(P1, POINT), (6,))

    def test_with_zero(self):
        got = cross_constr(ConstrFn(P1, (7,)), ConstrFn.zero(P2))
        assert got == ConstrFn.zero(product(P1, P2))


class TestConstTransform:
    def test_identity_triple(self):
        t = Triple(P2, P2, identity_morphism(P2))
        assert const_transform(k_class(t)) == ConstrFn.ones(P2)

    def test_projection_triple(self):
        pr = ToyMorphism(projective(1, 1), P1, ((0, (1,)),))
        t = Triple(projective(1, 1), P1, pr)
        assert const_transform(k_class(t)) == ConstrFn(P1, (2,))

    def test_empty_source(self):
        bang = ToyMorphism(EMPTY, P2, ())
        assert const_transform(k_class(Triple(EMPTY, P2, bang))) == ConstrFn.zero(P2)

    def test_linear_on_elements(self):
        e = distinguished(P1).scale(3)
        assert const_transform(e) == ConstrFn(P1, (3,))

    def test_additive_over_source_union(self):
        both = disjoint_union(P1, P2)
        bang = to_point(both)
        e = k_class(Triple(both, POINT, bang))
        left = const_transform(e)
        right = const_transform(k_class(Triple(P1, POINT, to_point(P1)))) + const_transform(
            k_class(Triple(P2, POINT, to_point(P2)))
        )
        assert left == right

    def test_multiplicative_under_cross(self):
        from tauclass.relk import cross_k

        e1 = distinguished(P1)
        e2 = k_class(Triple(projective(1, 1), P1, ToyMorphism(projective(1, 1), P1, ((0, (0,)),))))
        left = const_transform(cross_k(e1, e2))
        right = cross_constr(const_transform(e1), const_transform(e2))
        assert left == right
