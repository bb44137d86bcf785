"""Independent test oracles.

Everything here deliberately avoids the production code paths it is used
to check: brute-force enumerations, classical number-theoretic series,
and symmetric-function expansions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct

from tauclass.abelian import FpMonoid


def bernoulli_plus(n_max: int) -> list[Fraction]:
    """Bernoulli numbers with the B_1 = +1/2 convention.

    Computed from the defining recurrence sum_{j<=m} C(m+1, j) B_j = m+1
    (equivalently the classical one with B_1 sign flipped), independent of
    any power-series code.
    """
    from math import comb

    b = [Fraction(0)] * (n_max + 1)
    b[0] = Fraction(1)
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * b[j]
        b[m] = (Fraction(m + 1) - acc) / (m + 1)
    return b


# tanh t = t - t^3/3 + 2 t^5/15 - 17 t^7/315 + 62 t^9/2835 - ...
TANH_COEFFS = [
    Fraction(0),
    Fraction(1),
    Fraction(0),
    Fraction(-1, 3),
    Fraction(0),
    Fraction(2, 15),
    Fraction(0),
    Fraction(-17, 315),
    Fraction(0),
    Fraction(62, 2835),
]


def series_quotient(num: list[Fraction], den: list[Fraction], cap: int) -> list[Fraction]:
    """Coefficients of num/den to degree cap (den must have unit constant)."""
    out = []
    for k in range(cap + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, k + 1):
            dj = den[j] if j < len(den) else Fraction(0)
            acc -= dj * out[k - j]
        out.append(acc / den[0])
    return out


class BoundedMonoidCongruence:
    """Congruence closure of a finitely presented commutative monoid,
    restricted to exponent vectors of bounded total degree."""

    def __init__(self, monoid: FpMonoid, bound: int):
        self.monoid = monoid
        self.bound = bound
        self.vectors = [
            v
            for v in iproduct(range(bound + 1), repeat=monoid.n_generators)
            if sum(v) <= bound
        ]
        self._parent = {v: v for v in self.vectors}
        self._close()

    def _find(self, v):
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:
            self._parent[v], v = root, self._parent[v]
        return root

    def _union(self, a, b) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        return True

    def _close(self):
        rules = []
        for u, v in self.monoid.relations:
            rules.append((u, v))
            rules.append((v, u))
        changed = True
        while changed:
            changed = False
            for vec in self.vectors:
                for u, v in rules:
                    if all(x >= y for x, y in zip(vec, u)):
                        other = tuple(x - y + z for x, y, z in zip(vec, u, v))
                        if sum(other) <= self.bound and self._union(vec, other):
                            changed = True

    def equal(self, a, b) -> bool:
        return self._find(tuple(a)) == self._find(tuple(b))

    def pair_equal(self, a, b, c, d) -> bool:
        """Group-completion pair equivalence (a, b) ~ (c, d):
        exists k with a + d + k = c + b + k in the monoid."""
        for k in self.vectors:
            left = tuple(x + y + z for x, y, z in zip(a, d, k))
            right = tuple(x + y + z for x, y, z in zip(c, b, k))
            if max(sum(left), sum(right)) > self.bound:
                continue
            if self.equal(left, right):
                return True
        return False


def all_unimodular(n: int, bound: int):
    """Every n x n integer matrix with entries in [-bound, bound] and det +-1."""
    from tauclass.abelian import IntMatrix

    span = range(-bound, bound + 1)
    for flat in iproduct(span, repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        m = IntMatrix.from_rows(rows, n)
        if m.det() in (1, -1):
            yield m


def _elementary_symmetric(ring, dims, roots, j):
    from itertools import combinations

    from tauclass.series import GradedPoly

    acc = GradedPoly.zero(ring, dims)
    for subset in combinations(roots, j):
        term = GradedPoly.one(ring, dims)
        for var in subset:
            term = term * var
        acc = acc + term
    return acc


def root_splitting_class(spec, total_chern, rank):
    """Oracle for multiplicative classes: expand prod_i f(a_i) in formal
    root variables, rewrite each homogeneous part in the elementary
    symmetric basis, then substitute the graded parts of the total Chern
    class.  Independent of the Newton-identity path."""
    from tauclass.series import GradedPoly

    ring = spec.ring
    chern = total_chern.with_ring(ring)
    top = chern.total_degree_cap()
    if rank == 0:
        return GradedPoly.one(ring, chern.dims)

    root_dims = (top,) * rank
    roots = [GradedPoly.variable(ring, root_dims, i) for i in range(rank)]
    f_coeffs = spec.series.truncate(top).coeffs

    product = GradedPoly.one(ring, root_dims)
    for var in roots:
        f_at_root = GradedPoly.zero(ring, root_dims)
        power = GradedPoly.one(ring, root_dims)
        for k, fk in enumerate(f_coeffs):
            if k:
                power = power * var
            f_at_root = f_at_root + power.scale(fk)
        product = product * f_at_root

    e_parts = [chern.graded_part(d) for d in range(top + 1)]
    result = GradedPoly.zero(ring, chern.dims)
    for d in range(top + 1):
        part = product.graded_part(d)
        # rewrite the symmetric degree-d part in elementary symmetric terms
        while not part.is_zero():
            lead = max(part.terms)
            coeff = part.terms[lead]
            padded = tuple(lead) + (0,)
            multiplicity = [padded[j] - padded[j + 1] for j in range(rank)]
            basis_in_roots = GradedPoly.one(ring, root_dims)
            substituted = GradedPoly.one(ring, chern.dims)
            for j, m in enumerate(multiplicity, start=1):
                for _ in range(m):
                    basis_in_roots = basis_in_roots * _elementary_symmetric(
                        ring, root_dims, roots, j
                    )
                    substituted = substituted * e_parts[j]
            part = part - basis_in_roots.scale(coeff)
            result = result + substituted.scale(coeff)
    return result


def exp_by_powers_class(spec, total_chern, rank):
    """Oracle for multiplicative classes: the same Newton-identity power
    sums as production, then exp(arg) = sum_m arg^m / m! by full products
    of the whole argument instead of the graded recurrence."""
    from math import factorial

    from tauclass.series import GradedPoly

    ring = spec.ring
    chern = total_chern.with_ring(ring)
    dims = chern.dims
    top = chern.total_degree_cap()
    b = spec.series.truncate(top).log().coeffs
    e = [chern.graded_part(d) for d in range(top + 1)]

    def e_part(j):
        return e[j] if j <= min(rank, top) else GradedPoly.zero(ring, dims)

    p = [GradedPoly.zero(ring, dims)]
    for k in range(1, top + 1):
        acc = e_part(k).scale(((-1) ** (k - 1)) * k)
        for i in range(1, k):
            acc = acc + (e_part(i) * p[k - i]).scale((-1) ** (i - 1))
        p.append(acc)

    arg = GradedPoly.zero(ring, dims)
    for j in range(1, top + 1):
        arg = arg + p[j].scale(b[j])

    result = GradedPoly.one(ring, dims)
    term = GradedPoly.one(ring, dims)
    for m in range(1, top + 1):
        term = term * arg
        if term.is_zero():
            break
        result = result + term.scale(Fraction(1, factorial(m)))
    return result


def canonical_class_by_permutations(comp_dims, leg):
    """Oracle for canonical triple classes: try every relabeling of the
    source factors that sorts the dimensions and keep the least
    relabeled assignment (k! candidates for k factors)."""
    from tauclass.relk import TripleClass

    j, assignment = leg
    k = len(comp_dims)
    sorted_dims = tuple(sorted(comp_dims))
    best = None
    # relabelings old index -> new position that realize the sorted dims
    for perm in permutations(range(k)):
        if tuple(comp_dims[perm[pos]] for pos in range(k)) != sorted_dims:
            continue
        position = [0] * k
        for pos, old in enumerate(perm):
            position[old] = pos
        candidate = tuple(position[s] for s in assignment)
        if best is None or candidate < best:
            best = candidate
    return TripleClass(sorted_dims, j, best if best is not None else ())
