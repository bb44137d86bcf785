"""Exact characteristic-class transformations on relative Grothendieck
groups of spaces over a base, verified by machine-checked diagrams.

Layers, bottom up: ``abelian`` (formal sums, Smith normal form, group
completion), ``cat`` (finite categories, comma and fiber categories),
``series`` (truncated series and multiplicative classes), ``geom`` (the
projective-space toy model), ``constr`` (constructible functions),
``relk`` (relative Grothendieck groups), ``transform`` (invariants, the
transformations and the check harness) and ``cli``.
"""

from .abelian import (
    FormalSum,
    FpAbelianGroup,
    FpMonoid,
    IntMatrix,
    SmithForm,
    group_completion,
    smith_normal_form,
)
from .cat import (
    CommaCat,
    Cospan,
    FinCategory,
    FinFunctor,
    build_comma,
    fiber_category,
    induced_fiber_functor,
    verify_category,
    verify_functor,
)
from .constr import ConstrFn, const_transform, cross_constr, euler_integral, push_constr
from .geom import (
    EMPTY,
    POINT,
    HClass,
    ToyMorphism,
    ToySpace,
    disjoint_union,
    euler_char,
    parse_space,
    product,
    projective,
    pullback,
    pushforward,
    relative_tangent,
    tangent_chern,
)
from .relk import (
    KElement,
    Triple,
    TripleClass,
    cross_k,
    distinguished,
    k_class,
    pullback_k,
    pushforward_k,
)
from .series import (
    ClassSpec,
    GradedPoly,
    Series1,
    VirtualBundle,
    YPoly,
    chern_spec,
    l_spec,
    multiplicative_class,
    todd_spec,
    ty_spec,
    virtual_class,
)
from .transform import (
    CharacteristicClass,
    CheckReport,
    EulerCharacteristic,
    FundamentalClass,
    Indicator,
    Invariant,
    check_const_diagram,
    check_multiplicativity,
    check_naturality,
    check_verdier_rr,
    chi_y_genus,
    eval_invariant,
    run_suite,
    tau,
    virtual_in_ambient,
)

__version__ = "0.1.0"
