"""Toy geometric model: disjoint unions of products of projective spaces.

A space is a tuple of components, each component an ordered tuple of
projective factor dimensions (the empty component is the point; a space
with no components is empty).  Morphisms project away some factors and
permute the rest, so every map is proper with a constant fiber over each
target component.  That restriction keeps cohomology pushforward, base
change and Euler-characteristic bookkeeping exactly computable.

Cohomology rings are truncated polynomial rings, one hyperplane variable
per factor.  Homology is the same data read through Poincare duality
(all components are smooth and compact); only the grading convention
changes, so capping with the fundamental class is a re-grading, not a
new representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .series import GradedPoly

__all__ = [
    "ToySpace",
    "ToyMorphism",
    "HClass",
    "TangentData",
    "FiberSquare",
    "EMPTY",
    "POINT",
    "projective",
    "product",
    "disjoint_union",
    "identity_morphism",
    "to_point",
    "morphism_product",
    "fiber_square",
    "euler_char",
    "tangent_chern",
    "relative_tangent",
    "pushforward",
    "pullback",
    "homological_degree",
    "cross",
    "enumerate_projections",
    "parse_space",
]


@dataclass(frozen=True)
class ToySpace:
    """Finite disjoint union of products of projective spaces."""

    components: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for comp in self.components:
            if any(n < 0 for n in comp):
                raise ValueError("projective factor dimensions must be >= 0")

    @property
    def n_components(self) -> int:
        return len(self.components)

    def is_empty(self) -> bool:
        return not self.components

    def __mul__(self, other: "ToySpace") -> "ToySpace":
        return product(self, other)

    def __add__(self, other: "ToySpace") -> "ToySpace":
        return disjoint_union(self, other)

    def render(self) -> str:
        if not self.components:
            return "(empty)"
        parts = []
        for comp in self.components:
            if not comp:
                parts.append("pt")
            else:
                parts.append(" x ".join(f"P{n}" for n in comp))
        return " + ".join(parts)

    def __str__(self):
        return self.render()


EMPTY = ToySpace(())
POINT = ToySpace(((),))


def projective(*dims: int) -> ToySpace:
    """Connected product of projective spaces, e.g. projective(2, 1)."""
    return ToySpace((tuple(dims),))


def product(x: ToySpace, y: ToySpace) -> ToySpace:
    """Product distributes over components, row-major in x then y."""
    return ToySpace(tuple(cx + cy for cx in x.components for cy in y.components))


def disjoint_union(x: ToySpace, y: ToySpace) -> ToySpace:
    return ToySpace(x.components + y.components)


def euler_char(x: ToySpace) -> int:
    """Sum over components of prod (n_i + 1): the cell count."""
    total = 0
    for comp in x.components:
        prod = 1
        for n in comp:
            prod *= n + 1
        total += prod
    return total


@dataclass(frozen=True)
class ToyMorphism:
    """Projection-type map between toy spaces.

    ``legs[i] = (j, assignment)`` sends source component i onto target
    component j; ``assignment[t]`` names the source factor carrying target
    factor t (dimensions must agree, the map is injective on factors).
    Unassigned source factors are projected away.
    """

    source: ToySpace
    target: ToySpace
    legs: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if len(self.legs) != self.source.n_components:
            raise ValueError("one leg per source component required")
        for i, (j, assignment) in enumerate(self.legs):
            if not 0 <= j < self.target.n_components:
                raise ValueError(f"leg {i}: no target component {j}")
            src = self.source.components[i]
            tgt = self.target.components[j]
            if len(assignment) != len(tgt):
                raise ValueError(f"leg {i}: assignment arity != target factors")
            if len(set(assignment)) != len(assignment):
                raise ValueError(f"leg {i}: assignment not injective")
            for t, s in enumerate(assignment):
                if not 0 <= s < len(src):
                    raise ValueError(f"leg {i}: no source factor {s}")
                if src[s] != tgt[t]:
                    raise ValueError(
                        f"leg {i}: factor dimension mismatch P{src[s]} vs P{tgt[t]}"
                    )

    def unassigned(self, i: int) -> tuple[int, ...]:
        """Source factors of component i projected away, in index order."""
        used = set(self.legs[i][1])
        return tuple(
            s for s in range(len(self.source.components[i])) if s not in used
        )

    def fiber_euler_char(self, i: int) -> int:
        """Euler characteristic of the fiber over the image of component i."""
        prod = 1
        for s in self.unassigned(i):
            prod *= self.source.components[i][s] + 1
        return prod

    def then(self, other: "ToyMorphism") -> "ToyMorphism":
        """Composite self followed by other."""
        if self.target != other.source:
            raise ValueError("morphisms not composable")
        legs = []
        for j, assignment in self.legs:
            k, second = other.legs[j]
            legs.append((k, tuple(assignment[s] for s in second)))
        return ToyMorphism(self.source, other.target, tuple(legs))


def identity_morphism(x: ToySpace) -> ToyMorphism:
    legs = tuple(
        (i, tuple(range(len(comp)))) for i, comp in enumerate(x.components)
    )
    return ToyMorphism(x, x, legs)


def to_point(x: ToySpace) -> ToyMorphism:
    """The unique map to the point."""
    return ToyMorphism(x, POINT, tuple((0, ()) for _ in x.components))


def morphism_product(f: ToyMorphism, g: ToyMorphism) -> ToyMorphism:
    """f x g between the product spaces, components row-major."""
    source = product(f.source, g.source)
    target = product(f.target, g.target)
    n_gt = g.target.n_components
    # legs follow the row-major component order of the product spaces
    legs = []
    for i_f, (j_f, a_f) in enumerate(f.legs):
        width = len(f.source.components[i_f])
        for j_g, a_g in g.legs:
            legs.append(
                (
                    j_f * n_gt + j_g,
                    tuple(a_f) + tuple(width + s for s in a_g),
                )
            )
    return ToyMorphism(source, target, tuple(legs))


@dataclass(frozen=True)
class FiberSquare:
    """Pullback of h: V -> Y along f: X -> Y inside the toy class.

    ``corner`` is the fiber product, ``to_base`` the induced map to X and
    ``to_source`` the projection to V.
    """

    corner: ToySpace
    to_base: ToyMorphism
    to_source: ToyMorphism


def fiber_square(f: ToyMorphism, h: ToyMorphism) -> FiberSquare:
    """Fiber product of f: X -> Y and h: V -> Y.

    Componentwise: a V-component and an X-component over the same
    Y-component contribute V_comp x (projected-away factors of X_comp).
    """
    if f.target != h.target:
        raise ValueError("fiber square needs a common target")
    comps = []
    legs_to_x = []
    legs_to_v = []
    for iv, (jv, a_h) in enumerate(h.legs):
        cv = h.source.components[iv]
        for ix, (jx, a_f) in enumerate(f.legs):
            if jx != jv:
                continue
            cx = f.source.components[ix]
            extra = f.unassigned(ix)
            comps.append(cv + tuple(cx[s] for s in extra))
            # map to X: shared factors through h's assignment, the rest fresh
            assignment = [0] * len(cx)
            for t, s in enumerate(a_f):
                assignment[s] = a_h[t]
            for offset, s in enumerate(extra):
                assignment[s] = len(cv) + offset
            legs_to_x.append((ix, tuple(assignment)))
            legs_to_v.append((iv, tuple(range(len(cv)))))
    corner = ToySpace(tuple(comps))
    return FiberSquare(
        corner,
        ToyMorphism(corner, f.source, tuple(legs_to_x)),
        ToyMorphism(corner, h.source, tuple(legs_to_v)),
    )


@dataclass(frozen=True)
class HClass:
    """Cohomology class of a toy space: one graded polynomial per component."""

    space: ToySpace
    polys: tuple[GradedPoly, ...]

    def __post_init__(self):
        if len(self.polys) != self.space.n_components:
            raise ValueError("one polynomial per component required")
        for comp, poly in zip(self.space.components, self.polys):
            if poly.dims != comp:
                raise ValueError("polynomial dims must match component factors")

    @classmethod
    def zero(cls, space: ToySpace) -> "HClass":
        return cls(space, tuple(GradedPoly.zero(c) for c in space.components))

    @classmethod
    def unit(cls, space: ToySpace) -> "HClass":
        return cls(space, tuple(GradedPoly.one(c) for c in space.components))

    def _check(self, other: "HClass"):
        if self.space != other.space:
            raise ValueError("classes live on different spaces")

    def __add__(self, other: "HClass") -> "HClass":
        self._check(other)
        return HClass(self.space, tuple(a + b for a, b in zip(self.polys, other.polys)))

    def __neg__(self) -> "HClass":
        return HClass(self.space, tuple(-p for p in self.polys))

    def __sub__(self, other: "HClass") -> "HClass":
        return self + (-other)

    def __mul__(self, other: "HClass") -> "HClass":
        """Cup product, componentwise."""
        self._check(other)
        return HClass(self.space, tuple(a * b for a, b in zip(self.polys, other.polys)))

    def scale(self, value) -> "HClass":
        return HClass(self.space, tuple(p.scale(value) for p in self.polys))

    def push(self, f: ToyMorphism) -> "HClass":
        return pushforward(f, self)

    def cross(self, other: "HClass") -> "HClass":
        return cross(self, other)

    def integral(self):
        """Pushforward to the point: sum of top-monomial coefficients."""
        acc = None
        for poly in self.polys:
            c = poly.top_coefficient()
            acc = c if acc is None else acc + c
        return acc if acc is not None else Fraction(0)

    def render(self) -> str:
        if not self.polys:
            return "0"
        return " | ".join(p.render() for p in self.polys)

    def __str__(self):
        return self.render()


def homological_degree(comp: tuple[int, ...], exponent: tuple[int, ...]) -> int:
    """Degree of a monomial read as a homology class: 2(dim - |e|)."""
    return 2 * (sum(comp) - sum(exponent))


@dataclass(frozen=True)
class TangentData:
    """Total Chern class of a (relative) tangent bundle, with its rank."""

    space: ToySpace
    polys: tuple[GradedPoly, ...]
    ranks: tuple[int, ...]


def tangent_chern(x: ToySpace) -> TangentData:
    """c(TX) per component: prod_i (1 + h_i)^(n_i + 1), the tangents along
    the fibers of the map to the point."""
    return relative_tangent(to_point(x))


def relative_tangent(f: ToyMorphism) -> TangentData:
    """Chern class of the bundle of tangents along the fibers of f.

    Only the projected-away factors contribute, so
    c(T_source) = pullback(c(T_target)) * c(T_f) holds on the nose.
    """
    polys = []
    ranks = []
    for i, comp in enumerate(f.source.components):
        acc = GradedPoly.one(comp)
        rank = 0
        for s in f.unassigned(i):
            n = comp[s]
            factor = GradedPoly.one(comp) + GradedPoly.variable(comp, s)
            acc = acc * factor ** (n + 1)
            rank += n
        polys.append(acc)
        ranks.append(rank)
    return TangentData(f.source, tuple(polys), tuple(ranks))


def pushforward(f: ToyMorphism, c: HClass) -> HClass:
    """Gysin pushforward: fiber integration over the projected-away factors.

    A monomial contributes iff it carries the top power of every
    projected-away variable; what remains is relabeled along the factor
    assignment.
    """
    if c.space != f.source:
        raise ValueError("class does not live on the source of the morphism")
    sums = [{} for _ in f.target.components]
    for i, (j, assignment) in enumerate(f.legs):
        comp = f.source.components[i]
        gone = f.unassigned(i)
        contrib = sums[j]
        for exp, coeff in c.polys[i].terms.items():
            if any(exp[s] != comp[s] for s in gone):
                continue
            target_exp = tuple(exp[s] for s in assignment)
            prev = contrib.get(target_exp)
            contrib[target_exp] = coeff if prev is None else prev + coeff
    # assigned factors keep their dimensions, so every exponent fits the
    # target component; only sums that cancelled need dropping
    polys = tuple(
        GradedPoly._trusted(comp, {e: v for e, v in contrib.items() if v})
        for comp, contrib in zip(f.target.components, sums)
    )
    return HClass(f.target, polys)


def pullback(f: ToyMorphism, c: HClass) -> HClass:
    """Ring pullback: substitute each target variable by its source factor."""
    if c.space != f.target:
        raise ValueError("class does not live on the target of the morphism")
    polys = []
    for i, (j, assignment) in enumerate(f.legs):
        comp = f.source.components[i]
        terms = {}
        for exp, coeff in c.polys[j].terms.items():
            new_exp = [0] * len(comp)
            for t, s in enumerate(assignment):
                new_exp[s] = exp[t]
            terms[tuple(new_exp)] = coeff
        # an injective relabelling of nonzero terms between equal dimensions
        polys.append(GradedPoly._trusted(comp, terms))
    return HClass(f.source, tuple(polys))


def cross(c: HClass, d: HClass) -> HClass:
    """External product on the product space (component pairs row-major)."""
    space = product(c.space, d.space)
    polys = []
    for cx, px in zip(c.space.components, c.polys):
        for cy, py in zip(d.space.components, d.polys):
            dims = cx + cy
            terms = {}
            for e1, c1 in px.terms.items():
                for e2, c2 in py.terms.items():
                    terms[e1 + e2] = c1 * c2
            # distinct concatenated exponents; Q and Q[y] have no zero divisors
            polys.append(GradedPoly._trusted(dims, terms))
    return HClass(space, tuple(polys))


def enumerate_projections(x: ToySpace) -> list[ToyMorphism]:
    """All projections from a connected space onto arranged factor subsets.

    Each choice of an ordered subset of the factors yields the target
    space made of those factors in that order.
    """
    if x.n_components != 1:
        raise ValueError("enumerate_projections expects a connected space")
    comp = x.components[0]
    out = []
    for size in range(len(comp) + 1):
        for arrangement in permutations(range(len(comp)), size):
            target = ToySpace((tuple(comp[s] for s in arrangement),))
            out.append(ToyMorphism(x, target, ((0, arrangement),)))
    return out


class SpaceParseError(ValueError):
    """Space-expression syntax error, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_space(text: str) -> ToySpace:
    """Parse space expressions like ``P2 x P1 + pt``.

    Grammar (whitespace-insensitive, product binds tighter than union):

        space   ::= term ('+' term)*
        term    ::= atom ('x' atom)*
        atom    ::= 'P' digits | 'pt'
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "+":
            tokens.append(("+", i))
            i += 1
        elif ch in ("x", "X"):
            tokens.append(("x", i))
            i += 1
        elif ch in ("p", "P"):
            if text[i : i + 2] in ("pt", "Pt", "PT"):
                tokens.append(("pt", i))
                i += 2
            else:
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise SpaceParseError("expected digits after 'P'", i)
                tokens.append((f"P{text[i + 1 : j]}", i))
                i = j
        else:
            raise SpaceParseError(f"unexpected character {ch!r}", i)
    if not tokens:
        raise SpaceParseError("empty space expression", 0)

    def atom(pos):
        if pos >= len(tokens):
            raise SpaceParseError("unexpected end of expression", len(text))
        tok, where = tokens[pos]
        if tok == "pt":
            return POINT, pos + 1
        if tok.startswith("P"):
            return projective(int(tok[1:])), pos + 1
        raise SpaceParseError(f"unexpected token {tok!r}", where)

    def term(pos):
        space, pos = atom(pos)
        while pos < len(tokens) and tokens[pos][0] == "x":
            nxt, pos = atom(pos + 1)
            space = product(space, nxt)
        return space, pos

    space, pos = term(0)
    while pos < len(tokens):
        tok, where = tokens[pos]
        if tok != "+":
            raise SpaceParseError(f"unexpected token {tok!r}", where)
        nxt, pos = term(pos + 1)
        space = disjoint_union(space, nxt)
    return space
