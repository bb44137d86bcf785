"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints one line ``criterion N: PASS/FAIL ...`` (visible under
``pytest -s``) and enforces its runtime budget.
"""

import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from tauclass.abelian import FpMonoid, IntMatrix, group_completion, smith_normal_form
from tauclass.cat import (
    Cospan,
    FinCategory,
    FinFunctor,
    build_comma,
    categories_isomorphic,
    discrete_category,
    fiber_category,
    induced_fiber_functor,
    s_over_category,
    verify_category,
    verify_functor,
)
from tauclass.geom import projective
from tauclass.relk import distinguished
from tauclass.series import (
    GradedPoly,
    chern_spec,
    l_spec,
    multiplicative_class,
    todd_spec,
    ty_spec,
)
from tauclass.transform import (
    CharacteristicClass,
    EulerCharacteristic,
    FundamentalClass,
    Indicator,
    chi_y_genus,
    corpus_spaces,
    eval_invariant,
    run_suite,
    tau,
    virtual_in_ambient,
)

from oracles import BoundedMonoidCongruence, compose_functors, root_splitting_class


class Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s) {self.description}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_1_specialization_identities():
    with Criterion(1, "interpolating series specializes to chern/todd/l at degree 8", 1.0):
        ty = ty_spec(8).series
        assert ty.specialize_y(-1) == chern_spec(8).series
        assert ty.specialize_y(0) == todd_spec(8).series
        assert ty.specialize_y(1) == l_spec(8).series
        for cap in range(9):
            short = ty_spec(cap).series
            assert short.specialize_y(-1) == chern_spec(cap).series
            assert short.specialize_y(0) == todd_spec(cap).series
            assert short.specialize_y(1) == l_spec(cap).series


def test_criterion_2_normalization():
    with Criterion(2, "tau on distinguished elements equals the invariant, dim <= 5", 5.0):
        invariants = [
            FundamentalClass(),
            CharacteristicClass(chern_spec(6)),
            CharacteristicClass(todd_spec(6)),
            CharacteristicClass(l_spec(6)),
            CharacteristicClass(ty_spec(6)),
            Indicator(),
            EulerCharacteristic(),
        ]
        spaces = corpus_spaces(max_dim=5, max_components=3)
        assert len(spaces) > 100
        for space in spaces:
            delta = distinguished(space)
            for inv in invariants:
                assert tau(inv, delta) == eval_invariant(inv, space)


def test_criterion_3_naturality():
    with Criterion(3, ">= 200 seeded naturality checks over the bounded corpus", 30.0):
        reports = run_suite("naturality", seed=7, max_dim=5, max_components=3)
        assert len(reports) >= 200
        assert all(r.passed for r in reports)


def test_criterion_4_multiplicativity():
    with Criterion(4, ">= 100 seeded cross-product checks", 30.0):
        reports = run_suite("multiplicativity", seed=7, max_dim=5, max_components=3)
        assert len(reports) >= 100
        assert all(r.passed for r in reports)


def test_criterion_5_riemann_roch_for_pullback():
    with Criterion(5, "all four classes over all projections, total dim <= 5", 60.0):
        reports = run_suite("verdier-rr", seed=7, max_dim=5)
        # 561 projections x 4 classes plus the seeded extras
        assert len(reports) >= 4 * 561
        assert all(r.passed for r in reports)


def test_criterion_6_const_diagram():
    with Criterion(6, "comparison through constructible functions, full corpus", 30.0):
        reports = run_suite("const-diagram", seed=7, max_dim=5, max_components=3)
        assert len(reports) > 0
        assert all(r.passed for r in reports)
        # every report also carries the degree-zero integral comparison
        assert all("integral" in r.left for r in reports)


def test_criterion_7_genus_ladder():
    with Criterion(7, "genus specializations on projective spaces, n <= 4", 5.0):
        for n in range(5):
            genus = chi_y_genus(projective(n))
            assert genus.evaluate(-1) == Fraction(n + 1)
            assert genus.evaluate(0) == Fraction(1)
            assert genus.evaluate(1) == Fraction(1 if n % 2 == 0 else 0)


def test_criterion_8_group_completion():
    with Criterion(8, "group completion matches the pair-construction oracle", 5.0):
        free = FpMonoid(2)
        idem = FpMonoid(1, (((2,), (1,)),))
        two_each = FpMonoid(2, (((2, 0), (0, 2)),))

        g_free = group_completion(free)
        assert (g_free.rank, g_free.torsion) == (2, ())
        g_idem = group_completion(idem)
        assert (g_idem.rank, g_idem.torsion) == (0, ())
        g_two = group_completion(two_each)
        assert (g_two.rank, g_two.torsion) == (1, (2,))

        # Smith invariants of the relation matrix
        snf = smith_normal_form(IntMatrix.from_rows([[2, -2]]))
        assert snf.s.entries == ((2, 0),)

        for monoid, group, bound, size in [
            (idem, g_idem, 7, 2),
            (two_each, g_two, 6, 1),
        ]:
            cong = BoundedMonoidCongruence(monoid, bound=bound)
            vecs = [
                v
                for v in iproduct(range(size + 1), repeat=monoid.n_generators)
                if sum(v) <= 2
            ]
            for a in vecs:
                for b in vecs:
                    for c in vecs:
                        for d in vecs:
                            brute = cong.pair_equal(a, b, c, d)
                            ours = group.normalize_element(
                                tuple(x - y for x, y in zip(a, b))
                            ) == group.normalize_element(
                                tuple(x - y for x, y in zip(c, d))
                            )
                            assert brute == ours


def _identity_functor(c):
    return FinFunctor(c, c, range(c.n_objects), range(c.n_morphisms), name="id")


def _constant_functor(dom, cod, obj):
    return FinFunctor(
        dom, cod, [obj] * dom.n_objects, [cod.identity[obj]] * dom.n_morphisms
    )


def _chain_category(n):
    """Total order 0 < 1 < ... < n-1 as a category (n <= 4 objects)."""
    objects = [str(i) for i in range(n)]
    morphisms = []
    index = {}
    for i in range(n):
        for j in range(i, n):
            index[(i, j)] = len(morphisms)
            morphisms.append((f"m{i}{j}", i, j))
    composition = {}
    for (i, j), f in index.items():
        for (k, l), g in index.items():
            if j == k:
                composition[(f, g)] = index[(i, l)]
    identity = [index[(i, i)] for i in range(n)]
    return FinCategory(objects, morphisms, identity, composition), index


def test_criterion_9_comma_and_fibers():
    with Criterion(9, "comma counts, fiber comparison, induced functor laws", 5.0):
        # hom-sum oracle on discrete cospans over a base with extra endomaps
        base = FinCategory(
            ["*"],
            [("e", 0, 0), ("s", 0, 0)],
            [0],
            {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        )
        assert verify_category(base) == []
        for n_source, n_target in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            cs = discrete_category([f"v{i}" for i in range(n_source)])
            ct = discrete_category([f"x{i}" for i in range(n_target)])
            cospan = Cospan(
                cs, base, ct, _constant_functor(cs, base, 0), _constant_functor(ct, base, 0)
            )
            comma = build_comma(cospan)
            hom_sum = sum(
                len(base.hom(0, 0)) for _ in range(n_source) for _ in range(n_target)
            )
            assert comma.cat.n_objects == hom_sum
            assert verify_category(comma.cat) == []
            assert verify_functor(comma.pi_s) == []
            assert verify_functor(comma.pi_t) == []

        # fiber of the target projection vs the directly built over-category
        for n in (2, 3, 4):
            chain, index = _chain_category(n)
            assert verify_category(chain) == []
            ident = _identity_functor(chain)
            cospan = Cospan(chain, chain, chain, ident, ident)
            comma = build_comma(cospan)
            for x in range(n):
                fib = fiber_category(comma.pi_t, x)
                direct = s_over_category(cospan, x)
                assert categories_isomorphic(fib.cat, direct)

            # induced functors compose, exhaustively over composable pairs
            for (i, j), f in index.items():
                for (k, l), g in index.items():
                    if j != k:
                        continue
                    gf = index[(i, l)]
                    left = compose_functors(
                        induced_fiber_functor(comma, f),
                        induced_fiber_functor(comma, g),
                    )
                    right = induced_fiber_functor(comma, gf)
                    assert left.object_map == right.object_map
                    assert left.morphism_map == right.morphism_map
                    assert verify_functor(right) == []


def test_criterion_10_oracle_equivalence():
    with Criterion(10, "Newton-identity classes equal root-splitting oracle", 5.0):
        cases = [
            ((3,), 1),
            ((5,), 2),
            ((2, 2), 2),
            ((2, 1, 1), 3),
            ((1, 1, 1), 3),
        ]
        for make_spec in (chern_spec, todd_spec, l_spec, ty_spec):
            spec = make_spec(6)
            for dims, rank in cases:
                terms = {(0,) * len(dims): 1}
                counter = 0
                for exp in iproduct(*(range(n + 1) for n in dims)):
                    d = sum(exp)
                    if 0 < d <= rank:
                        counter += 1
                        terms[exp] = Fraction((-1) ** counter * (counter + 1), 1 + d)
                total = GradedPoly(dims, terms)
                newton = multiplicative_class(spec, total, rank)
                oracle = root_splitting_class(spec, total, rank)
                assert newton == oracle


def test_criterion_11_virtual_classes():
    with Criterion(11, "virtual classes of a line in P2 and a quadric in P3", 1.0):
        line = virtual_in_ambient(chern_spec(4), projective(2), [(1,)])
        assert line.integral() == Fraction(2)  # chi(P1)
        quadric = virtual_in_ambient(chern_spec(5), projective(3), [(2,)])
        assert quadric.integral() == Fraction(4)  # chi(P1 x P1)
