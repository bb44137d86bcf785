import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauclass.abelian import (
    FormalSum,
    FpMonoid,
    IntMatrix,
    group_completion,
    parse_monoid_text,
    smith_normal_form,
)

from bench_source import load_perfbench
from oracles import (
    BoundedMonoidCongruence,
    all_unimodular,
    completion_by_two_pass,
    det,
    is_diagonal,
    smith_normal_form_two_pass,
)


def check_smith_invariants(a):
    snf = smith_normal_form(a)
    assert snf.u @ a @ snf.v == snf.s
    assert det(snf.u) in (1, -1)
    assert det(snf.v) in (1, -1)
    assert is_diagonal(snf.s)
    diag = snf.s.diagonal()
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    return snf


@st.composite
def int_matrices(draw):
    """Up to 7 x 7, entries in [-1000, 1000] with many zeros, some rows
    repeated or zeroed."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-1000, 1000))
    m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        m[i] = list(m[j]) if draw(st.booleans()) else [0] * cols
    return IntMatrix.from_rows(m, cols)


class TestSmithNormalForm:
    def test_row_vector(self):
        a = IntMatrix.from_rows([[2, -2]])
        snf = check_smith_invariants(a)
        assert snf.s.entries == ((2, 0),)

    def test_row_vector_against_exhaustive_search(self):
        # any diagonalization by small unimodular matrices has |diagonal| (2, 0)
        a = IntMatrix.from_rows([[2, -2]])
        seen = set()
        for u in all_unimodular(1, 1):
            for v in all_unimodular(2, 2):
                m = u @ a @ v
                if is_diagonal(m):
                    seen.add(tuple(abs(d) for d in m.diagonal()))
        assert seen == {(2,)}
        assert (u_entry := smith_normal_form(a).s.entries[0]) == (2, 0), u_entry

    def test_identity(self):
        a = IntMatrix.from_rows([[int(i == j) for j in range(3)] for i in range(3)])
        snf = check_smith_invariants(a)
        assert snf.s == a
        assert snf.u == a
        assert snf.v == a

    def test_column_vector(self):
        a = IntMatrix.from_rows([[4], [6]])
        snf = check_smith_invariants(a)
        assert snf.s.entries == ((2,), (0,))

    def test_empty_shapes(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0)]:
            check_smith_invariants(IntMatrix.from_rows([[0] * cols] * rows, cols))

    def test_needs_divisibility_fixup(self):
        # diag(2, 3) must become diag(1, 6)
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        snf = check_smith_invariants(a)
        assert snf.s.diagonal() == (1, 6)

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, 4, 2], [2, 8, 4]])
        assert smith_normal_form(a) == smith_normal_form(a)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.integers(1, 4).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(-5, 5), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        )
    )
    def test_random_matrices(self, rows):
        check_smith_invariants(IntMatrix.from_rows(rows))

    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_same_diagonal_as_two_pass_oracle(self, a):
        snf = check_smith_invariants(a)
        assert snf.s == smith_normal_form_two_pass(a).s

    def test_benchmark_presentations_match_oracle(self):
        # the 32 presentations of the benchmark's ``structures`` pool
        workloads = load_perfbench("workloads")
        for i in range(workloads.STRUCTURE_POOL):
            monoid = parse_monoid_text(workloads.presentation_request(i).input_text)
            g = group_completion(monoid)
            assert (g.rank, g.torsion) == completion_by_two_pass(monoid), i


FREE_2 = FpMonoid(2)
IDEMPOTENT = FpMonoid(1, (((2,), (1,)),))
TWO_A_TWO_B = FpMonoid(2, (((2, 0), (0, 2)),))
CORPUS = [FREE_2, IDEMPOTENT, TWO_A_TWO_B, FpMonoid(3, (((1, 1, 0), (0, 0, 1)),))]


class TestGroupCompletion:
    def test_free_monoid(self):
        g = group_completion(FREE_2)
        assert (g.rank, g.torsion) == (2, ())

    def test_idempotent_generator_gives_trivial_group(self):
        g = group_completion(IDEMPOTENT)
        assert (g.rank, g.torsion) == (0, ())

    def test_idempotent_matches_pair_construction(self):
        # pair entries stay at degree <= 2; the closure bound leaves room
        # for the shift element k in the pair relation
        cong = BoundedMonoidCongruence(IDEMPOTENT, bound=7)
        g = group_completion(IDEMPOTENT)
        vecs = [(0,), (1,), (2,)]
        for a in vecs:
            for b in vecs:
                for c in vecs:
                    for d in vecs:
                        brute = cong.pair_equal(a, b, c, d)
                        diff_a = tuple(x - y for x, y in zip(a, b))
                        diff_c = tuple(x - y for x, y in zip(c, d))
                        ours = g.normalize_element(diff_a) == g.normalize_element(diff_c)
                        assert brute == ours

    def test_two_a_equals_two_b(self):
        g = group_completion(TWO_A_TWO_B)
        assert (g.rank, g.torsion) == (1, (2,))
        assert g.describe() == "Z + Z/2"

    def test_two_a_equals_two_b_matches_pair_construction(self):
        cong = BoundedMonoidCongruence(TWO_A_TWO_B, bound=6)
        g = group_completion(TWO_A_TWO_B)
        vecs = [(i, j) for i in range(2) for j in range(2)]
        for a in vecs:
            for b in vecs:
                for c in vecs:
                    for d in vecs:
                        brute = cong.pair_equal(a, b, c, d)
                        diff_a = tuple(x - y for x, y in zip(a, b))
                        diff_c = tuple(x - y for x, y in zip(c, d))
                        ours = g.normalize_element(diff_a) == g.normalize_element(diff_c)
                        assert brute == ours

    def test_empty_presentation(self):
        g = group_completion(FpMonoid(0))
        assert (g.rank, g.torsion) == (0, ())
        assert g.describe() == "0"
        assert g.normalize_element(()) == ((), ())

    @pytest.mark.parametrize("monoid", CORPUS)
    def test_free_rank_counts(self, monoid):
        g = group_completion(monoid)
        assert g.rank + len(g.torsion) <= monoid.n_generators

    @pytest.mark.parametrize("monoid", CORPUS)
    def test_universal_property_on_integer_homs(self, monoid):
        """Monoid homs to (Z, +) respecting the relations factor through
        the completion: normalize-equal vectors get equal hom values."""
        import random

        g = group_completion(monoid)
        n = monoid.n_generators
        rng = random.Random(7)
        # find generator assignments phi killing every relation
        homs = []
        for _ in range(200):
            phi = tuple(rng.randint(-3, 3) for _ in range(n))
            if all(
                sum(p * x for p, x in zip(phi, u)) == sum(p * x for p, x in zip(phi, v))
                for u, v in monoid.relations
            ):
                homs.append(phi)
        assert homs
        rows = [tuple(u[i] - v[i] for i in range(n)) for u, v in monoid.relations]
        for phi in homs[:20]:
            for _ in range(20):
                vec = [rng.randint(-4, 4) for _ in range(n)]
                other = list(vec)
                for row in rows:
                    k = rng.randint(-2, 2)
                    other = [o + k * r for o, r in zip(other, row)]
                assert g.normalize_element(vec) == g.normalize_element(other)
                assert sum(p * x for p, x in zip(phi, vec)) == sum(
                    p * x for p, x in zip(phi, other)
                )


class TestNormalizeElement:
    def test_mixed_basis_coordinates(self):
        g = group_completion(TWO_A_TWO_B)
        # frozen from the deterministic Smith transform: U = [[1,0],[1,1]]
        assert g.normalize_element((1, 1)) == ((2,), (1,))
        assert g.normalize_element((1, -1)) == ((0,), (1,))
        # a - b is 2-torsion and equals b - a in the completion
        assert g.normalize_element((1, -1)) == g.normalize_element((-1, 1))
        assert g.normalize_element((1, 0)) != g.normalize_element((0, 1))

    def test_zero_vector(self):
        for monoid in CORPUS:
            g = group_completion(monoid)
            zero = (0,) * monoid.n_generators
            free, torsion = g.normalize_element(zero)
            assert all(x == 0 for x in free)
            assert all(x == 0 for x in torsion)

    def test_free_group_identity_presentation(self):
        g = group_completion(FpMonoid(3))
        assert g.normalize_element((5, -2, 7)) == ((5, -2, 7), ())

    def test_length_mismatch(self):
        g = group_completion(FREE_2)
        with pytest.raises(ValueError):
            g.normalize_element((1, 2, 3))


class TestFormalSum:
    def test_cancellation(self):
        assert FormalSum({"x": 1}) + FormalSum({"x": -1}) == FormalSum()

    def test_merge(self):
        left = FormalSum({"x": 2, "y": 1})
        right = FormalSum({"y": -1, "z": 3})
        assert left + right == FormalSum({"x": 2, "z": 3})

    def test_scale(self):
        assert FormalSum({"x": 3}).scale(-2) == FormalSum({"x": -6})
        assert FormalSum({"x": 3}).scale(0) == FormalSum()

    def test_items_sorted(self):
        s = FormalSum({"b": 1, "a": 2})
        assert s.items() == [("a", 2), ("b", 1)]

    keys = st.sampled_from(["a", "b", "c", "d"])
    sums = st.dictionaries(keys, st.integers(-10, 10)).map(FormalSum)

    @given(sums, sums, sums)
    def test_group_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + (-x) == FormalSum()
        assert x + FormalSum() == x

    @given(sums, st.integers(-5, 5), st.integers(-5, 5))
    def test_scaling_is_linear(self, x, m, n):
        assert x.scale(m) + x.scale(n) == x.scale(m + n)


class TestMonoidParsing:
    def test_round_trip(self):
        text = """
        # sample presentation
        gens: 2
        rel: 2 0 = 0 2
        """
        monoid = parse_monoid_text(text)
        assert monoid == TWO_A_TWO_B

    def test_error_has_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_monoid_text("\ngens: 2\nrel: 1 = 1\n")

    def test_missing_gens(self):
        with pytest.raises(ValueError, match="gens"):
            parse_monoid_text("rel: 1 = 1\n")
