"""Hypothesis strategies for truncated polynomials and toy morphisms, and
the canonical-form check for results the kernel builds without
re-validation.

``RATIONAL`` and ``RATIONAL_Y`` label which coefficients a strategy
draws: ``Fraction`` for Q, ``YPoly`` for Q[y].  The values themselves
carry no label."""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from hypothesis import strategies as st

from tauclass.geom import HClass, ToyMorphism, ToySpace
from tauclass.series import GradedPoly, YPoly

RATIONAL = "Q"
RATIONAL_Y = "Q[y]"
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
rings = st.sampled_from([RATIONAL, RATIONAL_Y])
factor_dims = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)


def coefficients(ring):
    """Coefficients drawn for the label, zero included."""
    if ring == RATIONAL:
        return small_fractions
    return st.lists(small_fractions, max_size=3).map(YPoly)


@st.composite
def graded_polys(draw, ring, dims):
    """Random polynomial through the validating constructor: repeated
    exponents and zero coefficients are part of the input."""
    exps = list(iproduct(*(range(n + 1) for n in dims)))
    chosen = draw(st.lists(st.sampled_from(exps), max_size=8))
    return GradedPoly(dims, [(e, draw(coefficients(ring))) for e in chosen])


@st.composite
def hclasses(draw, ring, space):
    return HClass(space, tuple(draw(graded_polys(ring, comp)) for comp in space.components))


@st.composite
def projections(draw):
    """Random projection-type morphism: each source component carries the
    factors of its target component plus 0-3 extra ones, in a random
    order, with 1-3 factors in all."""
    targets = draw(
        st.lists(
            st.lists(st.integers(0, 3), max_size=2).map(tuple), min_size=1, max_size=2
        )
    )
    comps = []
    legs = []
    for _ in range(draw(st.integers(1, 2))):
        j = draw(st.integers(0, len(targets) - 1))
        tgt = targets[j]
        extra = draw(
            st.lists(st.integers(0, 3), min_size=max(0, 1 - len(tgt)), max_size=3 - len(tgt))
        )
        combined = tgt + tuple(extra)
        perm = draw(st.permutations(range(len(combined))))
        comps.append(tuple(combined[perm[s]] for s in range(len(combined))))
        legs.append((j, tuple(perm.index(t) for t in range(len(tgt)))))
    return ToyMorphism(ToySpace(tuple(comps)), ToySpace(tuple(targets)), tuple(legs))


def assert_canonical(poly: GradedPoly):
    """What the validating constructor guarantees, checked on any value."""
    assert poly == GradedPoly(poly.dims, dict(poly.terms))
    assert type(poly.dims) is tuple
    for exp, coeff in poly.terms.items():
        assert coeff, f"zero coefficient stored at {exp}"
        assert type(coeff) in (Fraction, YPoly)
        assert type(exp) is tuple and len(exp) == len(poly.dims)
        assert all(0 <= e <= n for e, n in zip(exp, poly.dims))


def assert_canonical_class(c: HClass):
    for poly in c.polys:
        assert_canonical(poly)
