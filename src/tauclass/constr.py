"""Constructible functions in the locally constant model.

A function assigns one integer to each component.  For the projection
morphisms of this package every fiber over a target component is the
same space, so pushforward weighted by fiber Euler characteristics is
exact, and the usual Euler-calculus identities hold literally rather
than up to stratification bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import ToyMorphism, ToySpace, euler_char, product
from .relk import KElement

__all__ = [
    "ConstrFn",
    "push_constr",
    "cross_constr",
    "euler_integral",
    "const_transform",
]


@dataclass(frozen=True)
class ConstrFn:
    """Locally constant integer function: one value per component."""

    space: ToySpace
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.space.n_components:
            raise ValueError("one value per component required")

    @classmethod
    def ones(cls, space: ToySpace) -> "ConstrFn":
        return cls(space, (1,) * space.n_components)

    @classmethod
    def zero(cls, space: ToySpace) -> "ConstrFn":
        return cls(space, (0,) * space.n_components)

    def _check(self, other: "ConstrFn"):
        if self.space != other.space:
            raise ValueError("functions live on different spaces")

    def __add__(self, other: "ConstrFn") -> "ConstrFn":
        self._check(other)
        return ConstrFn(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "ConstrFn":
        return ConstrFn(self.space, tuple(-v for v in self.values))

    def __sub__(self, other: "ConstrFn") -> "ConstrFn":
        return self + (-other)

    def scale(self, n: int) -> "ConstrFn":
        return ConstrFn(self.space, tuple(n * v for v in self.values))

    def push(self, f: ToyMorphism) -> "ConstrFn":
        return push_constr(f, self)

    def cross(self, other: "ConstrFn") -> "ConstrFn":
        return cross_constr(self, other)

    def render(self) -> str:
        if not self.values:
            return "0"
        return ", ".join(f"comp_{i}: {v}" for i, v in enumerate(self.values))

    def __str__(self):
        return self.render()


def push_constr(f: ToyMorphism, beta: ConstrFn) -> ConstrFn:
    """Pushforward: each source component contributes its value weighted
    by the Euler characteristic of the projected-away factors."""
    if beta.space != f.source:
        raise ValueError("function does not live on the source of the morphism")
    out = [0] * f.target.n_components
    for i, (j, _) in enumerate(f.legs):
        out[j] += f.fiber_euler_char(i) * beta.values[i]
    return ConstrFn(f.target, tuple(out))


def cross_constr(beta: ConstrFn, gamma: ConstrFn) -> ConstrFn:
    """External product: values multiply on component pairs."""
    space = product(beta.space, gamma.space)
    values = tuple(b * g for b in beta.values for g in gamma.values)
    return ConstrFn(space, values)


def euler_integral(beta: ConstrFn) -> int:
    """Pushforward to the point: sum of chi(component) * value."""
    return sum(
        euler_char(ToySpace((comp,))) * v
        for comp, v in zip(beta.space.components, beta.values)
    )


def const_transform(element: KElement) -> ConstrFn:
    """Push the constant function 1 on each generator's source along its
    structure map, extended linearly."""
    acc = ConstrFn.zero(element.base)
    for key, coeff in element.terms.items():
        triple = key.representative(element.base)
        acc = acc + push_constr(triple.arrow, ConstrFn.ones(triple.space)).scale(coeff)
    return acc
