"""Exact abelian-group machinery.

Formal integer combinations of ordered generator keys, integer matrices
with Smith normal form, and finitely presented commutative monoids with
their group completions.

Arbitrary-precision integers are Python ``int``; exact rationals are
``fractions.Fraction`` (always normalized, positive denominator).  Both
satisfy the canonical-representation invariants this package relies on,
so no separate wrapper types are introduced.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FormalSum",
    "IntMatrix",
    "SmithForm",
    "smith_normal_form",
    "FpMonoid",
    "FpAbelianGroup",
    "group_completion",
    "parse_monoid_text",
]


class FormalSum:
    """Finitely supported Z-linear combination of generator keys.

    Keys may be any hashable, totally ordered values.  Zero coefficients
    are never stored, so equality is plain term-by-term comparison.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            c = data.get(key, 0) + coeff
            if c:
                data[key] = c
            elif key in data:
                del data[key]
        self._terms = data

    @classmethod
    def single(cls, key, coeff=1):
        return cls(((key, coeff),))

    def items(self):
        """Terms as a list of (key, coefficient), sorted by key."""
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        merged = dict(self._terms)
        for k, c in other._terms.items():
            s = merged.get(k, 0) + c
            if s:
                merged[k] = s
            else:
                del merged[k]
        out = FormalSum()
        out._terms = merged
        return out

    def __neg__(self):
        out = FormalSum()
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, n: int) -> "FormalSum":
        if n == 0:
            return FormalSum()
        out = FormalSum()
        out._terms = {k: n * c for k, c in self._terms.items()}
        return out

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self.support())

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        if not self._terms:
            return "FormalSum()"
        body = ", ".join(f"{k!r}: {c}" for k, c in self.items())
        return f"FormalSum({{{body}}})"


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with explicit shape (rows or cols may be 0)."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [tuple(int(x) for x in r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, tuple(rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        rows = []
        for i in range(self.rows):
            left = self.entries[i]
            rows.append(
                tuple(
                    sum(left[k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                )
            )
        return IntMatrix(self.rows, other.cols, tuple(rows))

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(r[j] * vec[j] for j in range(self.cols)) for r in self.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SmithForm:
    """Decomposition U*A*V = S with S diagonal and U, V unimodular."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with transformation matrices.

    Returns ``SmithForm(u, s, v)`` with ``u @ a @ v == s``, ``s`` diagonal,
    all diagonal entries non-negative and each dividing the next.  The
    pivot is always the smallest nonzero entry (first in row-major order
    on ties), so the output is reproducible for a given input.  One loop
    reduces row and column ``t`` by the pivot at ``(t, t)`` and pivots
    again at ``t`` while a remainder or an entry it does not divide is left.
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
        p = s[t][t]
        for i in range(t + 1, m):
            add_row(i, t, -(s[i][t] // p))
        for j in range(t + 1, n):
            add_col(j, t, -(s[t][j] // p))
        if any(s[i][t] for i in range(t + 1, m)) or any(s[t][t + 1:]):
            continue  # a remainder smaller than the pivot is left: pivot again
        for i in range(t + 1, m):
            if any(x % p for x in s[i][t + 1:]):
                add_row(t, i, 1)  # drag a non-divisible entry into row t
                break
        else:
            t += 1

    return SmithForm(
        IntMatrix.from_rows(u, m),
        IntMatrix.from_rows(s, n),
        IntMatrix.from_rows(v, n),
    )


@dataclass(frozen=True)
class FpMonoid:
    """Finitely presented commutative monoid.

    ``relations`` is a list of pairs (u, v) of length-``n_generators``
    vectors of non-negative integers, each meaning u = v.
    """

    n_generators: int
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if self.n_generators < 0:
            raise ValueError("negative generator count")
        for u, v in self.relations:
            if len(u) != self.n_generators or len(v) != self.n_generators:
                raise ValueError("relation vector length mismatch")
            if any(x < 0 for x in u) or any(x < 0 for x in v):
                raise ValueError("monoid relation entries must be non-negative")


@dataclass(frozen=True)
class FpAbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    Keeps the normalizing change of basis so that elements given in the
    original generators can be put into canonical coordinates.
    """

    n_generators: int
    rank: int
    torsion: tuple[int, ...]
    transform: IntMatrix
    diagonal: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion factors must be >= 2")

    def normalize_element(self, vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical coordinates (free part, torsion residues) of a vector.

        Two vectors get equal coordinates exactly when they differ by an
        integer combination of the relations.
        """
        if len(vec) != self.n_generators:
            raise ValueError(
                f"element length {len(vec)} != generator count {self.n_generators}"
            )
        y = self.transform.mul_vector(tuple(int(x) for x in vec))
        free = []
        torsion = []
        for yi, d in zip(y, self.diagonal):
            if d == 0:
                free.append(yi)
            elif d >= 2:
                torsion.append(yi % d)
        return tuple(free), tuple(torsion)

    def describe(self) -> str:
        """Human-readable shape, e.g. ``Z + Z/2`` or ``0``."""
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def group_completion(monoid: FpMonoid) -> FpAbelianGroup:
    """Universal abelian group of a finitely presented commutative monoid.

    Completion preserves presentations, so the group is presented by the
    same generators with the relations read as u - v = 0; the quotient is
    computed through the Smith normal form of the relation matrix.  An
    empty presentation (0 generators) gives the trivial group.
    """
    n = monoid.n_generators
    cols = []
    for u, v in monoid.relations:
        cols.append(tuple(ui - vi for ui, vi in zip(u, v)))
    # columns generate the relation subgroup of Z^n
    rel = IntMatrix.from_rows(
        [[col[i] for col in cols] for i in range(n)], len(cols)
    )
    snf = smith_normal_form(rel)
    diag = list(snf.s.diagonal()) + [0] * (n - min(rel.rows, rel.cols))
    rank = sum(1 for d in diag if d == 0)
    torsion = tuple(d for d in diag if d >= 2)
    return FpAbelianGroup(
        n_generators=n,
        rank=rank,
        torsion=torsion,
        transform=snf.u,
        diagonal=tuple(diag),
    )


# most generators, and most relations, a presentation file may have: a
# seeded 64 x 64 presentation with exponents 0-3 completes in 0.7 s on a
# 2-vCPU host, and 80 x 80 already takes 3.8 s (README)
PRESENTATION_CAP = 64


def parse_monoid_text(text: str) -> FpMonoid:
    """Parse a monoid presentation.

    Format: one line ``gens: n`` followed by zero or more lines
    ``rel: u1 ... un = v1 ... vn``.  Blank lines and ``#`` comments are
    ignored.  Errors carry 1-based line numbers.  More than
    ``PRESENTATION_CAP`` generators or relations is an error.
    """
    n = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate 'gens:' line")
            try:
                n = int(line[len("gens:"):].strip())
            except ValueError:
                raise ValueError(f"line {lineno}: malformed generator count") from None
            if n < 0:
                raise ValueError(f"line {lineno}: negative generator count")
            if n > PRESENTATION_CAP:
                raise ValueError(
                    f"line {lineno}: {n} generators exceed the cap {PRESENTATION_CAP}"
                )
        elif line.startswith("rel:"):
            if n is None:
                raise ValueError(f"line {lineno}: 'rel:' before 'gens:'")
            if len(relations) == PRESENTATION_CAP:
                raise ValueError(
                    f"line {lineno}: relation {PRESENTATION_CAP + 1} exceeds the cap "
                    f"of {PRESENTATION_CAP} relations"
                )
            body = line[len("rel:"):]
            sides = body.split("=")
            if len(sides) != 2:
                raise ValueError(f"line {lineno}: relation needs exactly one '='")
            vecs = []
            for side in sides:
                try:
                    vec = tuple(int(tok) for tok in side.split())
                except ValueError:
                    raise ValueError(f"line {lineno}: non-integer entry") from None
                if len(vec) != n:
                    raise ValueError(
                        f"line {lineno}: expected {n} entries, got {len(vec)}"
                    )
                if any(x < 0 for x in vec):
                    raise ValueError(f"line {lineno}: negative exponent")
                vecs.append(vec)
            relations.append((vecs[0], vecs[1]))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ValueError("missing 'gens:' line")
    return FpMonoid(n, tuple(relations))
