"""Relative Grothendieck groups of spaces over a base.

Elements are integer combinations of isomorphism classes of triples
(V, X, h: V -> X) with X fixed.  Disjoint union in V is the monoid
operation, so after splitting V into connected components the group is
free on canonical connected-source classes; triples are identified
exactly when a factor permutation of V commutes with the maps to X.

Covariant pushforward composes h with a morphism of bases; contravariant
pullback forms the fiber square; the cross product sends a pair of
triples to their product triple over the product base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FormalSum
from .geom import (
    ToyMorphism,
    ToySpace,
    fiber_square,
    identity_morphism,
    morphism_product,
    product,
)

__all__ = [
    "Triple",
    "TripleClass",
    "KElement",
    "k_class",
    "pushforward_k",
    "pullback_k",
    "cross_k",
    "distinguished",
    "kelement_to_json",
    "kelement_from_json",
]


@dataclass(frozen=True)
class Triple:
    """A space over a base: (space, base, arrow: space -> base)."""

    space: ToySpace
    base: ToySpace
    arrow: ToyMorphism

    def __post_init__(self):
        if self.arrow.source != self.space or self.arrow.target != self.base:
            raise ValueError("arrow endpoints must match the triple")


@dataclass(frozen=True, order=True)
class TripleClass:
    """Canonical form of a connected-source triple over a fixed base.

    ``dims`` are the source factor dimensions sorted ascending;
    ``assignment`` is the lexicographically least relabeling of the
    factor assignment among source factor permutations that sort the
    dimensions.  Two connected triples over the same base get equal
    canonical forms exactly when some factor permutation of the source
    commutes with the arrows.
    """

    dims: tuple[int, ...]
    component: int
    assignment: tuple[int, ...]

    def representative(self, base: ToySpace) -> Triple:
        space = ToySpace((self.dims,))
        arrow = ToyMorphism(space, base, ((self.component, self.assignment),))
        return Triple(space, base, arrow)

    def render(self) -> str:
        src = " x ".join(f"P{n}" for n in self.dims) if self.dims else "pt"
        return f"[{src} -> comp_{self.component} via {self.assignment}]"


def _canonical_class(comp_dims: tuple[int, ...], leg) -> TripleClass:
    """Least representative under dimension-preserving source relabelings.

    A relabeling that sorts the dimensions may order each block of equal
    dimensions freely, and blocks do not interact.  Giving each assigned
    factor, in target order, the next free slot of its block is therefore
    the lexicographically least choice.
    """
    j, assignment = leg
    sorted_dims = tuple(sorted(comp_dims))
    next_free = {}
    for pos, d in enumerate(sorted_dims):
        next_free.setdefault(d, pos)
    canonical = []
    for s in assignment:
        d = comp_dims[s]
        canonical.append(next_free[d])
        next_free[d] += 1
    return TripleClass(sorted_dims, j, tuple(canonical))


@dataclass(frozen=True)
class KElement:
    """Element of the relative Grothendieck group of a fixed base."""

    base: ToySpace
    terms: FormalSum

    @classmethod
    def zero(cls, base: ToySpace) -> "KElement":
        return cls(base, FormalSum())

    def _check(self, other: "KElement"):
        if self.base != other.base:
            raise ValueError("elements live over different bases")

    def __add__(self, other: "KElement") -> "KElement":
        self._check(other)
        return KElement(self.base, self.terms + other.terms)

    def __neg__(self) -> "KElement":
        return KElement(self.base, -self.terms)

    def __sub__(self, other: "KElement") -> "KElement":
        return self + (-other)

    def scale(self, n: int) -> "KElement":
        return KElement(self.base, self.terms.scale(n))

    def is_zero(self) -> bool:
        return not self.terms

    def generators(self):
        """Sorted (TripleClass, coefficient) pairs."""
        return self.terms.items()

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for key, coeff in self.generators():
            if coeff == 1:
                parts.append(key.render())
            else:
                parts.append(f"{coeff}*{key.render()}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.render()


def k_class(triple: Triple) -> KElement:
    """Class of a triple: split the source into connected components and
    canonicalize each restriction.  An empty source gives zero."""
    acc = FormalSum()
    for i, comp in enumerate(triple.space.components):
        acc = acc + FormalSum.single(_canonical_class(comp, triple.arrow.legs[i]))
    return KElement(triple.base, acc)


def distinguished(x: ToySpace) -> KElement:
    """Class of the identity triple over x."""
    return k_class(Triple(x, x, identity_morphism(x)))


def pushforward_k(f: ToyMorphism, element: KElement) -> KElement:
    """Covariant pushforward along f: compose each structure arrow with f."""
    if element.base != f.source:
        raise ValueError("element is not based at the source of the morphism")
    acc = KElement.zero(f.target)
    for key, coeff in element.terms.items():
        triple = key.representative(element.base)
        moved = Triple(triple.space, f.target, triple.arrow.then(f))
        acc = acc + k_class(moved).scale(coeff)
    return acc


def pullback_k(f: ToyMorphism, element: KElement) -> KElement:
    """Contravariant pullback along f through the fiber square."""
    if element.base != f.target:
        raise ValueError("element is not based at the target of the morphism")
    acc = KElement.zero(f.source)
    for key, coeff in element.terms.items():
        triple = key.representative(element.base)
        square = fiber_square(f, triple.arrow)
        acc = acc + k_class(
            Triple(square.corner, f.source, square.to_base)
        ).scale(coeff)
    return acc


def cross_k(left: KElement, right: KElement) -> KElement:
    """Bilinear cross product over the product base."""
    base = product(left.base, right.base)
    acc = KElement.zero(base)
    for k1, c1 in left.terms.items():
        t1 = k1.representative(left.base)
        for k2, c2 in right.terms.items():
            t2 = k2.representative(right.base)
            arrow = morphism_product(t1.arrow, t2.arrow)
            acc = acc + k_class(
                Triple(arrow.source, base, arrow)
            ).scale(c1 * c2)
    return acc


def kelement_to_json(element: KElement) -> list[dict]:
    """Serialize to a list of generator records.

    Spaces use the expression grammar (``P2 x P1``, ``pt``); ``h`` names
    the base component hit and the source factor carrying each of its
    factors.  Records come out in canonical generator order.
    """
    records = []
    for key, coeff in element.terms.items():
        source = ToySpace((key.dims,))
        records.append(
            {
                "V": source.render(),
                "X": element.base.render(),
                "h": {"component": key.component, "assignment": list(key.assignment)},
                "coeff": coeff,
            }
        )
    return records


def kelement_from_json(records, base: ToySpace | None = None) -> KElement:
    """Rebuild an element from generator records.

    ``base`` is required when the record list is empty (the zero element
    carries no base of its own).
    """
    from .geom import parse_space

    acc = None
    for record in records:
        record_base = parse_space(record["X"])
        if base is not None and record_base != base:
            raise ValueError("record base does not match the requested base")
        if acc is None:
            acc = KElement.zero(record_base)
        elif acc.base != record_base:
            raise ValueError("records mix different bases")
        source = parse_space(record["V"])
        leg = (record["h"]["component"], tuple(record["h"]["assignment"]))
        arrow = ToyMorphism(source, record_base, (leg,))
        acc = acc + k_class(Triple(source, record_base, arrow)).scale(int(record["coeff"]))
    if acc is None:
        if base is None:
            raise ValueError("empty record list needs an explicit base")
        return KElement.zero(base)
    return acc
