"""Independent test oracles.

Everything here deliberately avoids the production code paths it is used
to check: brute-force enumerations, classical number-theoretic series,
and symmetric-function expansions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct

from tauclass.abelian import FpMonoid, IntMatrix, SmithForm
from tauclass.cat import (
    DEFAULT_MAX_MORPHISMS,
    DEFAULT_MAX_OBJECTS,
    CapacityError,
    CommaCat,
    Cospan,
    FinCategory,
    FinFunctor,
)


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


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form_two_pass(a: IntMatrix) -> SmithForm:
    """Oracle for ``abelian.smith_normal_form``: the two-pass elimination
    it replaced, which reduces remainders first and then runs a separate
    exact-elimination pass.

    Returns ``SmithForm(u, s, v)`` with ``u @ a @ v == s``, ``s`` diagonal,
    all diagonal entries non-negative and each dividing the next.  The
    pivot is always the smallest nonzero entry (first in row-major order
    on ties), so the output is reproducible for a given input.
    """
    m, n = a.rows, a.cols
    s = [list(r) for r in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in s:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        if q:
            s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        if q:
            for r in s:
                r[dst] += q * r[src]
            for r in v:
                r[dst] += q * r[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        where = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(s[i][j])
                if x and (best is None or x < best):
                    best, where = x, (i, j)
        return where

    t = 0
    while t < min(m, n):
        where = find_pivot(t)
        if where is None:
            break
        swap_rows(t, where[0])
        swap_cols(t, where[1])
        if s[t][t] < 0:
            negate_row(t)
        while True:
            p = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                q, r = divmod(s[i][t], p)
                if r:
                    add_row(i, t, -q)
                    dirty = True
            for j in range(t + 1, n):
                q, r = divmod(s[t][j], p)
                if r:
                    add_col(j, t, -q)
                    dirty = True
            if dirty:
                # a remainder strictly smaller than the pivot appeared
                where = find_pivot(t)
                swap_rows(t, where[0])
                swap_cols(t, where[1])
                if s[t][t] < 0:
                    negate_row(t)
                continue
            for i in range(t + 1, m):
                add_row(i, t, -(s[i][t] // p))
            for j in range(t + 1, n):
                add_col(j, t, -(s[t][j] // p))
            bad = None
            for i in range(t + 1, m):
                if any(s[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            # drag a non-divisible entry into the working row and retry
            add_row(t, bad, 1)
        t += 1

    return SmithForm(
        IntMatrix.from_rows(u, m),
        IntMatrix.from_rows(s, n),
        IntMatrix.from_rows(v, n),
    )


def completion_by_two_pass(monoid: FpMonoid) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) of the group completion, read off the two-pass
    Smith form of the relation matrix (one column u - v per relation)."""
    n = monoid.n_generators
    cols = [tuple(a - b for a, b in zip(u, v)) for u, v in monoid.relations]
    rel = IntMatrix.from_rows([[col[i] for col in cols] for i in range(n)], len(cols))
    diag = list(smith_normal_form_two_pass(rel).s.diagonal())
    diag += [0] * (n - len(diag))
    return diag.count(0), tuple(d for d in diag if d >= 2)


def is_diagonal(a: IntMatrix) -> bool:
    """Every entry off the main diagonal is zero."""
    return all(
        a.entries[i][j] == 0 for i in range(a.rows) for j in range(a.cols) if i != j
    )


def all_unimodular(n: int, bound: int):
    """Every n x n integer matrix with entries in [-bound, bound] and det +-1."""
    span = range(-bound, bound + 1)
    for flat in iproduct(span, repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        m = IntMatrix.from_rows(rows, n)
        if det(m) in (1, -1):
            yield m


def _elementary_symmetric(dims, roots, j):
    from itertools import combinations

    from tauclass.series import GradedPoly

    acc = GradedPoly.zero(dims)
    for subset in combinations(roots, j):
        term = GradedPoly.one(dims)
        for var in subset:
            term = term * var
        acc = acc + term
    return acc


def root_splitting_class(spec, chern, rank):
    """Oracle for multiplicative classes: expand prod_i f(a_i) in formal
    root variables, rewrite each homogeneous part in the elementary
    symmetric basis, then substitute the graded parts of the total Chern
    class.  Independent of the Newton-identity path."""
    from tauclass.series import GradedPoly

    top = chern.total_degree_cap()
    if rank == 0:
        return GradedPoly.one(chern.dims)

    root_dims = (top,) * rank
    roots = [GradedPoly.variable(root_dims, i) for i in range(rank)]
    f_coeffs = spec.series.coeffs[: top + 1]

    product = GradedPoly.one(root_dims)
    for var in roots:
        f_at_root = GradedPoly.zero(root_dims)
        power = GradedPoly.one(root_dims)
        for k, fk in enumerate(f_coeffs):
            if k:
                power = power * var
            f_at_root = f_at_root + power.scale(fk)
        product = product * f_at_root

    e_parts = [chern.graded_part(d) for d in range(top + 1)]
    result = GradedPoly.zero(chern.dims)
    for d in range(top + 1):
        part = product.graded_part(d)
        # rewrite the symmetric degree-d part in elementary symmetric terms
        while not part.is_zero():
            lead = max(part.terms)
            coeff = part.terms[lead]
            padded = tuple(lead) + (0,)
            multiplicity = [padded[j] - padded[j + 1] for j in range(rank)]
            basis_in_roots = GradedPoly.one(root_dims)
            substituted = GradedPoly.one(chern.dims)
            for j, m in enumerate(multiplicity, start=1):
                for _ in range(m):
                    basis_in_roots = basis_in_roots * _elementary_symmetric(
                        root_dims, roots, j
                    )
                    substituted = substituted * e_parts[j]
            part = part - basis_in_roots.scale(coeff)
            result = result + substituted.scale(coeff)
    return result


def exp_by_powers_class(spec, chern, rank):
    """Oracle for multiplicative classes: the same Newton-identity power
    sums as production, then exp(arg) = sum_m arg^m / m! by full products
    of the whole argument instead of the graded recurrence."""
    from math import factorial

    from tauclass.series import GradedPoly, Series1

    dims = chern.dims
    top = chern.total_degree_cap()
    b = Series1(spec.series.coeffs[: top + 1]).log().coeffs
    e = [chern.graded_part(d) for d in range(top + 1)]

    def e_part(j):
        return e[j] if j <= min(rank, top) else GradedPoly.zero(dims)

    p = [GradedPoly.zero(dims)]
    for k in range(1, top + 1):
        acc = e_part(k).scale(((-1) ** (k - 1)) * k)
        for i in range(1, k):
            acc = acc + (e_part(i) * p[k - i]).scale((-1) ** (i - 1))
        p.append(acc)

    arg = GradedPoly.zero(dims)
    for j in range(1, top + 1):
        arg = arg + p[j].scale(b[j])

    result = GradedPoly.one(dims)
    term = GradedPoly.one(dims)
    for m in range(1, top + 1):
        term = term * arg
        if term.is_zero():
            break
        result = result + term.scale(Fraction(1, factorial(m)))
    return result


def lift_to_y(poly):
    """The same polynomial with every coefficient made a ``YPoly``: the
    inclusion of Q into Q[y], written out instead of left to the mixed
    operators."""
    from tauclass.series import GradedPoly, YPoly

    return GradedPoly(poly.dims, {e: YPoly.of(c) for e, c in poly.terms.items()})


def series_exp(s):
    """exp of a truncated series with constant term 0: the inverse of
    ``Series1.log``, for the log round-trip tests."""
    from tauclass.series import Series1

    if s.coeffs[0]:
        raise ValueError("exp needs constant term 0")
    out = [Fraction(1)] + [Fraction(0)] * s.cap
    # f' = a' f  =>  k f_k = sum_{j>=1} j a_j f_{k-j}
    for k in range(1, s.cap + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc = acc + (j * s.coeffs[j]) * out[k - j]
        out[k] = acc / k
    return Series1(out, cap=s.cap)


def inverse_by_geometric_series(poly):
    """Oracle for ``GradedPoly.inverse``: (c0 + x)^{-1} = c0^{-1} sum_m
    (-x/c0)^m for the nilpotent part x, by full products instead of the
    graded recurrence."""
    from tauclass.series import GradedPoly, YPoly

    c0 = poly.constant_term()
    unit = c0.constant_value() if isinstance(c0, YPoly) else Fraction(c0)
    if unit == 0:
        raise ValueError("constant term is not a unit")
    # (c0 + x)^{-1} = c0^{-1} sum (-x/c0)^m, x nilpotent
    nil = poly - GradedPoly.constant(poly.dims, c0)
    acc = GradedPoly.one(poly.dims)
    term = GradedPoly.one(poly.dims)
    for _ in range(poly.total_degree_cap()):
        term = term * nil.scale(Fraction(-1) / unit)
        if term.is_zero():
            break
        acc = acc + term
    return acc.scale(Fraction(1) / unit)


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


def verify_category_exhaustive(c: FinCategory) -> list[str]:
    """Oracle for ``cat.verify_category``: scan every ordered pair of
    morphisms, and every morphism as the third factor of each composable
    pair; one message per violation."""
    bad = []
    for x, e in enumerate(c.identity):
        if not 0 <= e < c.n_morphisms:
            bad.append(f"identity of object {c.object_names[x]} out of range")
            continue
        if c.source[e] != x or c.target[e] != x:
            bad.append(f"identity of {c.object_names[x]} is not an endomorphism")
    names, m = c.morphism_names, c.n_morphisms
    for (f, g), h in c.composition.items():
        if not all(0 <= k < m for k in (f, g, h)):
            bad.append(f"composition entry ({f}, {g}) -> {h} names no morphism")
    for f in range(c.n_morphisms):
        for g in range(c.n_morphisms):
            composable = c.target[f] == c.source[g]
            defined = (f, g) in c.composition
            named = defined and 0 <= c.composition[(f, g)] < m
            if composable and not defined:
                bad.append(f"missing composite of {names[f]} then {names[g]}")
            if named and not composable:
                bad.append(f"composite of non-composable {names[f]}, {names[g]}")
            if composable and named:
                h = c.composition[(f, g)]
                if c.source[h] != c.source[f] or c.target[h] != c.target[g]:
                    bad.append(f"composite {names[f]};{names[g]} has wrong endpoints")
    for x in range(c.n_objects):
        e = c.identity[x]
        for f in range(c.n_morphisms):
            if c.source[f] == x and c.composition.get((e, f)) != f:
                bad.append(f"left identity fails at {names[f]}")
            if c.target[f] == x and c.composition.get((f, e)) != f:
                bad.append(f"right identity fails at {names[f]}")
    for f in range(c.n_morphisms):
        for g in range(c.n_morphisms):
            if c.target[f] != c.source[g]:
                continue
            for h in range(c.n_morphisms):
                if c.target[g] != c.source[h]:
                    continue
                left = c.composition.get((c.composition.get((f, g)), h))
                right = c.composition.get((f, c.composition.get((g, h))))
                if left != right:
                    bad.append(
                        "associativity fails on "
                        f"({names[f]}, {names[g]}, {names[h]})"
                    )
    return bad


def build_comma_exhaustive(cospan: Cospan,
                           max_objects=DEFAULT_MAX_OBJECTS,
                           max_morphisms=DEFAULT_MAX_MORPHISMS) -> CommaCat:
    """Oracle for ``cat.build_comma``: compose every ordered pair of comma
    morphisms, keeping the pairs whose middle triples agree."""
    cs, base, ct = cospan.source_cat, cospan.base_cat, cospan.target_cat
    s, t = cospan.s, cospan.t

    triples = []
    for v in range(cs.n_objects):
        for x in range(ct.n_objects):
            for h in base.hom(s.object_map[v], t.object_map[x]):
                triples.append((v, x, h))
    if len(triples) > max_objects:
        raise CapacityError(
            f"comma category has {len(triples)} objects, cap is {max_objects}"
        )

    def square_commutes(h1, h2, gs, gt):
        # h2 . S(gs) == T(gt) . h1
        return base.compose(s.morphism_map[gs], h2) == base.compose(
            h1, t.morphism_map[gt]
        )

    pairs = []
    pair_source = []
    pair_target = []
    for i, (v1, x1, h1) in enumerate(triples):
        for j, (v2, x2, h2) in enumerate(triples):
            for gs in cs.hom(v1, v2):
                for gt in ct.hom(x1, x2):
                    if square_commutes(h1, h2, gs, gt):
                        pairs.append((gs, gt))
                        pair_source.append(i)
                        pair_target.append(j)
    if len(pairs) > max_morphisms:
        raise CapacityError(
            f"comma category has {len(pairs)} morphisms, cap is {max_morphisms}"
        )

    index = {}
    for k, (gs, gt) in enumerate(pairs):
        index[(pair_source[k], pair_target[k], gs, gt)] = k

    composition = {}
    for k1 in range(len(pairs)):
        for k2 in range(len(pairs)):
            if pair_target[k1] != pair_source[k2]:
                continue
            gs = cs.compose(pairs[k1][0], pairs[k2][0])
            gt = ct.compose(pairs[k1][1], pairs[k2][1])
            composition[(k1, k2)] = index[(pair_source[k1], pair_target[k2], gs, gt)]

    identity = []
    for i, (v, x, h) in enumerate(triples):
        identity.append(index[(i, i, cs.identity[v], ct.identity[x])])

    object_names = [
        f"({cs.object_names[v]},{ct.object_names[x]},{base.morphism_names[h]})"
        for v, x, h in triples
    ]
    morphism_names = [
        f"({cs.morphism_names[gs]},{ct.morphism_names[gt]})" for gs, gt in pairs
    ]
    cat = FinCategory(
        object_names,
        [(morphism_names[k], pair_source[k], pair_target[k]) for k in range(len(pairs))],
        identity,
        composition,
        max_objects=max_objects,
        max_morphisms=max_morphisms,
    )
    pi_s = FinFunctor(
        cat, cs, [v for v, _, _ in triples], [gs for gs, _ in pairs], name="pi_s"
    )
    pi_t = FinFunctor(
        cat, ct, [x for _, x, _ in triples], [gt for _, gt in pairs], name="pi_t"
    )
    return CommaCat(cospan, cat, tuple(triples), tuple(pairs), pi_s, pi_t)


def compose_functors(first: FinFunctor, second: FinFunctor) -> FinFunctor:
    """``second`` after ``first``, by composing the index maps."""
    if first.cod != second.dom:
        raise ValueError("functors not composable")
    return FinFunctor(
        first.dom,
        second.cod,
        [second.object_map[x] for x in first.object_map],
        [second.morphism_map[f] for f in first.morphism_map],
        name=f"{second.name}.{first.name}",
    )


def inclusions(x, y):
    """Canonical inclusions of x and y into their disjoint union."""
    from tauclass.geom import ToyMorphism, disjoint_union

    both = disjoint_union(x, y)
    off = x.n_components
    left = ToyMorphism(
        x, both, tuple((i, tuple(range(len(c)))) for i, c in enumerate(x.components))
    )
    right = ToyMorphism(
        y,
        both,
        tuple((off + i, tuple(range(len(c)))) for i, c in enumerate(y.components)),
    )
    return left, right


def _injections(target_dims, source_dims):
    """All injective factor assignments matching dimensions."""
    out = []
    positions = list(range(len(source_dims)))
    for perm in permutations(positions, len(target_dims)):
        if all(source_dims[s] == t for s, t in zip(perm, target_dims)):
            out.append(tuple(perm))
    return out


def enumerate_morphisms(x, y):
    """All projection-type morphisms from x to y."""
    from tauclass.geom import ToyMorphism

    per_comp = []
    for comp in x.components:
        options = []
        for j, tgt in enumerate(y.components):
            for assignment in _injections(tgt, comp):
                options.append((j, assignment))
        if not options:
            return []
        per_comp.append(options)
    return [
        ToyMorphism(x, y, tuple(choice)) for choice in iproduct(*per_comp)
    ]


# Value operations as one switch on the value's type per operation: the
# reference for the push, cross, scale and render methods of the values.


def push_value(f, value):
    from tauclass.constr import ConstrFn, push_constr
    from tauclass.geom import HClass, pushforward

    if isinstance(value, HClass):
        return pushforward(f, value)
    if isinstance(value, ConstrFn):
        return push_constr(f, value)
    return value  # integers: the target group is constant


def cross_value(a, b):
    from tauclass.constr import ConstrFn, cross_constr
    from tauclass.geom import HClass, cross

    if isinstance(a, HClass):
        return cross(a, b)
    if isinstance(a, ConstrFn):
        return cross_constr(a, b)
    return a * b


def scale_value(value, n: int):
    from tauclass.constr import ConstrFn
    from tauclass.geom import HClass

    if isinstance(value, (HClass, ConstrFn)):
        return value.scale(n)
    return value * n


def render_value(value) -> str:
    from tauclass.constr import ConstrFn
    from tauclass.geom import HClass

    if isinstance(value, (HClass, ConstrFn)):
        return value.render()
    return str(value)
