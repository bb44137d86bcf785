"""Additive invariants and the transformations they induce on relative
Grothendieck groups, with a machine-checkable diagram harness.

An invariant assigns to every space a value additive over disjoint union:
a characteristic homology class, the constant function 1, or the Euler
characteristic.  Its transformation sends a generator (V, X, h) to the
pushforward along h of the invariant of V, extended linearly.

The check operations compare both sides of the structural identities
(naturality, cross-product compatibility, smooth-pullback Riemann-Roch,
the comparison through constructible functions) with exact equality and
return reports instead of raising.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .constr import ConstrFn, const_transform, euler_integral
from .geom import (
    HClass,
    TangentData,
    ToyMorphism,
    ToySpace,
    enumerate_projections,
    euler_char,
    projective,
    pullback,
    relative_tangent,
    tangent_chern,
    to_point,
)
from .relk import KElement, Triple, cross_k, distinguished, k_class, pullback_k, pushforward_k
from .series import (
    ClassSpec,
    GradedPoly,
    VirtualBundle,
    YPoly,
    chern_spec,
    l_spec,
    multiplicative_class,
    todd_spec,
    ty_spec,
    virtual_class,
)

__all__ = [
    "Invariant",
    "FundamentalClass",
    "CharacteristicClass",
    "Indicator",
    "EulerCharacteristic",
    "EulerValue",
    "eval_invariant",
    "tau",
    "CheckReport",
    "check_naturality",
    "check_multiplicativity",
    "check_verdier_rr",
    "check_const_diagram",
    "chi_y_genus",
    "virtual_in_ambient",
    "connected_dims",
    "corpus_spaces",
    "random_element",
    "random_morphism",
    "run_suite",
    "SUITE_NAMES",
]


class EulerValue(int):
    """Euler characteristic as a value: an integer that keeps its type
    through ``+``, ``-``, ``push``, ``cross`` and ``scale``."""

    def __add__(self, other) -> "EulerValue":
        return EulerValue(int(self) + other)

    def __sub__(self, other) -> "EulerValue":
        return EulerValue(int(self) - other)

    def push(self, f: ToyMorphism) -> "EulerValue":
        return self  # the target group is constant

    def cross(self, other: "EulerValue") -> "EulerValue":
        return EulerValue(int(self) * other)

    def scale(self, n: int) -> "EulerValue":
        return EulerValue(int(self) * n)

    def render(self) -> str:
        return str(int(self))


@dataclass(frozen=True)
class Invariant:
    """Additive invariant of spaces: ``evaluate(space)`` gives its value
    and ``zero(base)`` the zero value over a base.  Values push, cross,
    scale and render themselves, so ``tau`` and the checks need no branch.

    ``multiplicative`` records compatibility with cross products; a
    deliberately broken invariant can be built to test the rejection path.
    """

    multiplicative: bool = field(default=True, kw_only=True)


class FundamentalClass(Invariant):
    name = "fundamental"

    def evaluate(self, space: ToySpace) -> HClass:
        return HClass.unit(space)

    def zero(self, base: ToySpace) -> HClass:
        return HClass.zero(base)


@dataclass(frozen=True)
class CharacteristicClass(Invariant):
    spec: ClassSpec

    @property
    def name(self) -> str:
        return f"class[{self.spec.name}]"

    def evaluate(self, space: ToySpace) -> HClass:
        """The class of the tangent bundle capped with the fundamental
        class.  Every toy space is smooth and compact, so capping is
        Poincare duality: the coefficients stay as they are and only the
        grading convention moves (see ``geom.homological_degree``).
        A cap below some component's dimension fails before any work."""
        for comp in space.components:
            self.spec.require_degree(sum(comp))
        return _bundle_class(self.spec, _tangent(space))

    def zero(self, base: ToySpace) -> HClass:
        return HClass.zero(base)


class Indicator(Invariant):
    name = "indicator"

    def evaluate(self, space: ToySpace) -> ConstrFn:
        return ConstrFn.ones(space)

    def zero(self, base: ToySpace) -> ConstrFn:
        return ConstrFn.zero(base)


class EulerCharacteristic(Invariant):
    name = "euler"

    def evaluate(self, space: ToySpace) -> EulerValue:
        return EulerValue(euler_char(space))

    def zero(self, base: ToySpace) -> EulerValue:
        return EulerValue(0)


@lru_cache(maxsize=None)
def _tangent(space: ToySpace):
    return tangent_chern(space)


@lru_cache(maxsize=None)
def _cached_class(spec: ClassSpec, poly: GradedPoly, rank: int) -> GradedPoly:
    return multiplicative_class(spec, poly, rank)


def _bundle_class(spec: ClassSpec, bundle: TangentData) -> HClass:
    """The spec's multiplicative class of a (relative) tangent bundle."""
    parts = zip(bundle.polys, bundle.ranks)
    return HClass(bundle.space, tuple(_cached_class(spec, p, r) for p, r in parts))


@lru_cache(maxsize=None)
def eval_invariant(inv: Invariant, space: ToySpace):
    """Value of the invariant on a space, cached."""
    return inv.evaluate(space)


def render_value(value) -> str:
    return value.render()


def render_morphism(f: ToyMorphism) -> str:
    legs = "; ".join(f"c{i}->c{j}{list(a)}" for i, (j, a) in enumerate(f.legs))
    return f"{f.source} -> {f.target} [{legs or 'empty'}]"


def tau(inv: Invariant, element: KElement):
    """The transformation: generators (V, X, h) map to h_*(invariant(V)),
    extended linearly."""
    acc = inv.zero(element.base)
    for key, coeff in element.terms.items():
        triple = key.representative(element.base)
        acc = acc + eval_invariant(inv, triple.space).push(triple.arrow).scale(coeff)
    return acc


@dataclass
class CheckReport:
    """Outcome of one exact identity check."""

    check: str
    inputs: dict = field(default_factory=dict)
    left: str = ""
    right: str = ""
    passed: bool = False
    difference: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "inputs": {k: str(v) for k, v in self.inputs.items()},
            "left": self.left,
            "right": self.right,
            "passed": self.passed,
            "difference": self.difference,
        }


def _report(check: str, inputs: dict, left, right) -> CheckReport:
    # equal values render equally, so a passing check renders one side
    passed = left == right
    left_text = render_value(left)
    right_text = left_text if passed else render_value(right)
    difference = None
    if not passed:
        try:
            difference = render_value(left - right)
        except (TypeError, ValueError):
            difference = f"left={left_text} right={right_text}"
    return CheckReport(
        check=check,
        inputs=inputs,
        left=left_text,
        right=right_text,
        passed=passed,
        difference=difference,
    )


def check_naturality(inv: Invariant, f: ToyMorphism, element: KElement) -> CheckReport:
    """tau after pushforward against pushforward after tau."""
    left = tau(inv, pushforward_k(f, element))
    right = tau(inv, element).push(f)
    return _report(
        "naturality",
        {
            "invariant": inv.name,
            "morphism": render_morphism(f),
            "element": element.render(),
        },
        left,
        right,
    )


def check_multiplicativity(inv: Invariant, e1: KElement, e2: KElement) -> CheckReport:
    """tau of a cross product against the cross product of the values."""
    if not inv.multiplicative:
        raise ValueError(f"invariant {inv.name} is not cross-compatible")
    left = tau(inv, cross_k(e1, e2))
    right = tau(inv, e1).cross(tau(inv, e2))
    return _report(
        "multiplicativity",
        {
            "invariant": inv.name,
            "left_element": e1.render(),
            "right_element": e2.render(),
        },
        left,
        right,
    )


def check_verdier_rr(spec: ClassSpec, f: ToyMorphism, element: KElement) -> CheckReport:
    """Riemann-Roch for smooth pullback: pulling back and then applying
    the transformation equals the relative-tangent class times the
    pullback of the transformed element."""
    inv = CharacteristicClass(spec)
    left = tau(inv, pullback_k(f, element))
    right = _bundle_class(spec, relative_tangent(f)) * pullback(f, tau(inv, element))
    return _report(
        "verdier-rr",
        {
            "class": spec.name,
            "morphism": render_morphism(f),
            "element": element.render(),
        },
        left,
        right,
    )


def check_const_diagram(element: KElement) -> CheckReport:
    """Unification through constructible functions.

    The Chern-class transformation of the element must match pushing the
    constant function forward and then taking classes on the (smooth)
    base; in degree zero both integrate to the same Euler characteristic.
    """
    needed = [sum(c) for c in element.base.components]
    needed += [sum(key.dims) for key in element.terms]
    inv = CharacteristicClass(chern_spec(max(needed, default=0)))
    left = tau(inv, element)
    beta = const_transform(element)
    tangent = _tangent(element.base)
    right = HClass(
        element.base,
        tuple(poly.scale(value) for poly, value in zip(tangent.polys, beta.values)),
    )
    classes_match = left == right
    left_integral = left.integral()
    right_integral = Fraction(euler_integral(beta))
    degree_zero_match = left_integral == right_integral
    passed = classes_match and degree_zero_match
    difference = None
    if not classes_match:
        difference = render_value(left - right)
    elif not degree_zero_match:
        difference = f"integrals {left_integral} != {right_integral}"
    return CheckReport(
        check="const-diagram",
        inputs={"element": element.render()},
        left=f"{left.render()} ; integral {left_integral}",
        right=f"{right.render()} ; integral {right_integral}",
        passed=passed,
        difference=difference,
    )


def chi_y_genus(space: ToySpace) -> YPoly:
    """Genus interpolating Euler characteristic (y=-1), arithmetic genus
    (y=0) and signature (y=1): the degree-zero part of the interpolating
    class transformation pushed to the point."""
    if space.is_empty():
        return YPoly()
    cap = max(sum(c) for c in space.components)
    element = pushforward_k(to_point(space), distinguished(space))
    value = tau(CharacteristicClass(ty_spec(cap)), element)
    return YPoly.of(value.polys[0].constant_term())


def virtual_in_ambient(
    spec: ClassSpec, ambient: ToySpace, multidegrees
) -> HClass:
    """Class of an embedded complete intersection, computed upstairs.

    The intersection X of hypersurfaces with the given degree vectors in
    the connected ambient M has virtual tangent bundle TM - (+)O(d_j);
    its class capped with [X] and pushed into M is the virtual-bundle
    class times the product of the hyperplane sections.
    """
    if ambient.n_components != 1:
        raise ValueError("ambient space must be connected")
    dims = ambient.components[0]
    multidegrees = [tuple(int(x) for x in d) for d in multidegrees]
    for d in multidegrees:
        if len(d) != len(dims):
            raise ValueError("degree vector length must match the factor count")
        if any(x < 0 for x in d):
            raise ValueError("degrees must be >= 0")
    if len(multidegrees) > sum(dims):
        raise ValueError("codimension exceeds the ambient dimension")

    tangent = _tangent(ambient)
    one = GradedPoly.one(dims)
    normal_total = one
    sections = one
    for d in multidegrees:
        section = GradedPoly.zero(dims)
        for i, degree in enumerate(d):
            if degree:
                section = section + GradedPoly.variable(dims, i).scale(degree)
        normal_total = normal_total * (one + section)
        sections = sections * section
    vb = VirtualBundle(tangent.polys[0], tangent.ranks[0], normal_total, len(multidegrees))
    cls = virtual_class(spec, vb)
    return HClass(ambient, (cls * sections,))


# --- bounded corpus and suites ----------------------------------------------


def _partitions(n: int, largest: int | None = None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def connected_dims(max_dim: int) -> list[tuple[int, ...]]:
    """Factor-dimension tuples of connected spaces up to the bound, the
    point included, in a fixed deterministic order."""
    out: list[tuple[int, ...]] = [()]
    for n in range(1, max_dim + 1):
        out.extend(_partitions(n))
    return out


def corpus_spaces(max_dim: int, max_components: int) -> list[ToySpace]:
    """All spaces with at most the given component count and total
    dimension, one representative per isomorphism class."""
    pool = connected_dims(max_dim)
    out = []
    for count in range(1, max_components + 1):
        for combo in combinations_with_replacement(pool, count):
            if sum(sum(c) for c in combo) <= max_dim:
                out.append(ToySpace(tuple(combo)))
    return out


def random_element(
    rng: random.Random,
    base: ToySpace,
    max_extra: int = 2,
    max_terms: int = 3,
) -> KElement:
    """Seeded random group element over the base: generators are sources
    built from a base component plus a few extra factors, shuffled."""
    if base.is_empty():
        return KElement.zero(base)
    acc = KElement.zero(base)
    for _ in range(rng.randint(1, max_terms)):
        j = rng.randrange(base.n_components)
        comp = base.components[j]
        extras = []
        budget = rng.randint(0, max_extra)
        while budget > 0:
            d = rng.randint(1, budget)
            extras.append(d)
            budget -= d
        items = [("base", t, d) for t, d in enumerate(comp)]
        items += [("extra", i, d) for i, d in enumerate(extras)]
        rng.shuffle(items)
        dims = tuple(d for _, _, d in items)
        assignment = tuple(
            items.index(("base", t, comp[t])) for t in range(len(comp))
        )
        source = projective(*dims)
        arrow = ToyMorphism(source, base, ((j, assignment),))
        coeff = rng.choice([-2, -1, 1, 2, 3])
        acc = acc + k_class(Triple(source, base, arrow)).scale(coeff)
    return acc


def random_morphism(rng: random.Random, spaces) -> ToyMorphism:
    """Seeded random projection-type morphism out of one of the spaces."""
    source = rng.choice(spaces)
    targets: list[tuple[int, ...]] = []
    legs = []
    for comp in source.components:
        size = rng.randint(0, len(comp))
        arrangement = tuple(rng.sample(range(len(comp)), size))
        kept = tuple(comp[s] for s in arrangement)
        shared = [t for t, dims in enumerate(targets) if dims == kept]
        if shared and rng.random() < 0.5:
            j = rng.choice(shared)
        else:
            j = len(targets)
            targets.append(kept)
        legs.append((j, arrangement))
    return ToyMorphism(source, ToySpace(tuple(targets)), tuple(legs))


def _invariant_pool(max_degree: int) -> list[Invariant]:
    return [
        FundamentalClass(),
        CharacteristicClass(chern_spec(max_degree)),
        CharacteristicClass(todd_spec(max_degree)),
        CharacteristicClass(l_spec(max_degree)),
        CharacteristicClass(ty_spec(max_degree)),
        Indicator(),
        EulerCharacteristic(),
    ]


def suite_naturality(seed: int, max_dim: int = 5, max_components: int = 3) -> list[CheckReport]:
    rng = random.Random(f"naturality:{seed}")
    spaces = corpus_spaces(max_dim, max_components)
    pool = _invariant_pool(max_dim + 4)
    reports = []
    while len(reports) < 220:
        f = random_morphism(rng, spaces)
        element = random_element(rng, f.source)
        inv = pool[len(reports) % len(pool)]
        reports.append(check_naturality(inv, f, element))
    return reports


def suite_multiplicativity(seed: int, max_dim: int = 5,
                           max_components: int = 3) -> list[CheckReport]:
    rng = random.Random(f"multiplicativity:{seed}")
    # factors stay small so products stay within reach
    spaces = [s for s in corpus_spaces(min(max_dim, 3), min(max_components, 2))]
    pool = _invariant_pool(2 * min(max_dim, 3) + 3)
    reports = []
    while len(reports) < 120:
        e1 = random_element(rng, rng.choice(spaces), max_extra=1, max_terms=2)
        e2 = random_element(rng, rng.choice(spaces), max_extra=1, max_terms=2)
        inv = pool[len(reports) % len(pool)]
        reports.append(check_multiplicativity(inv, e1, e2))
    return reports


def suite_verdier(seed: int, max_dim: int = 5) -> list[CheckReport]:
    """Every projection out of every connected space within the bound,
    against the distinguished element, for all four classes; plus 40
    seeded random elements on smaller spaces."""
    cap = max_dim + 4
    specs = [chern_spec(cap), todd_spec(cap), l_spec(cap), ty_spec(cap)]
    reports = []
    for dims in connected_dims(max_dim):
        space = projective(*dims)
        for f in enumerate_projections(space):
            element = distinguished(f.target)
            for spec in specs:
                reports.append(check_verdier_rr(spec, f, element))
    rng = random.Random(f"verdier:{seed}")
    small = [projective(*dims) for dims in connected_dims(min(max_dim, 4))]
    for k in range(40):
        space = rng.choice(small)
        f = rng.choice(enumerate_projections(space))
        element = random_element(rng, f.target, max_extra=1, max_terms=2)
        reports.append(check_verdier_rr(specs[k % len(specs)], f, element))
    return reports


def suite_const_diagram(seed: int, max_dim: int = 5, max_components: int = 3) -> list[CheckReport]:
    """The comparison diagram over the whole bounded corpus: distinguished
    elements plus seeded random ones."""
    rng = random.Random(f"const:{seed}")
    reports = []
    for space in corpus_spaces(max_dim, max_components):
        reports.append(check_const_diagram(distinguished(space)))
        reports.append(check_const_diagram(random_element(rng, space)))
    return reports


SUITE_NAMES = ("naturality", "multiplicativity", "verdier-rr", "const-diagram", "all")


def run_suite(name: str, seed: int, max_dim: int = 5,
              max_components: int = 3) -> list[CheckReport]:
    if max_dim < 0:
        raise ValueError(f"max dim must be >= 0, got {max_dim}")
    if name == "naturality":
        return suite_naturality(seed, max_dim=max_dim, max_components=max_components)
    if name == "multiplicativity":
        return suite_multiplicativity(seed, max_dim=max_dim, max_components=max_components)
    if name == "verdier-rr":
        return suite_verdier(seed, max_dim=max_dim)
    if name == "const-diagram":
        return suite_const_diagram(seed, max_dim=max_dim, max_components=max_components)
    if name == "all":
        reports = []
        for sub in ("naturality", "multiplicativity", "verdier-rr", "const-diagram"):
            reports.extend(run_suite(sub, seed, max_dim=max_dim, max_components=max_components))
        return reports
    raise ValueError(f"unknown suite {name!r}")
