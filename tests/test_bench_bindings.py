"""The benchmark traces tauclass by wrapping names it lists in
``perfbench/spans.py``.  Each listed name must resolve the way
``spans.install`` resolves it, or ``perfbench/run.py --trace 1`` breaks
after a refactor of ``src/``."""

import importlib

import pytest

import tauclass.cli  # noqa: F401  (loads every module the spans name)
from bench_source import load_perfbench

spans = load_perfbench("spans")


@pytest.mark.parametrize("entry", spans.SPANNED, ids=lambda e: f"{e[0]}.{e[1]}")
def test_spanned_binding_resolves(entry):
    _, _, module_name, class_name, attrs = entry
    module = importlib.import_module(module_name)
    for attr in attrs:
        if class_name is None:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
        else:
            cls = getattr(module, class_name)
            # install wraps what the class itself defines, not inherited names
            assert callable(cls.__dict__.get(attr)), f"{class_name}.__dict__[{attr!r}]"


@pytest.mark.parametrize("target", spans.COEFF_TARGETS, ids=lambda t: t[1])
def test_coefficient_target_resolves(target):
    module_name, class_name, attrs = target
    cls = getattr(importlib.import_module(module_name), class_name)
    # install skips an operator the class does not define (YPoly has no
    # reflected division); the constructors and helpers must all be there
    missing = [a for a in attrs if a not in cls.__dict__ and a not in spans.COEFF_OPS]
    assert not missing
    assert any(a in cls.__dict__ for a in spans.COEFF_OPS)


def test_eval_invariant_cache_info_resolves():
    # perfbench/child.py reads the hit ratio from this cache
    from tauclass import transform

    assert callable(getattr(transform.eval_invariant, "cache_info", None))


@pytest.fixture(scope="module")
def hook_calls():
    """One real call per hooked span: metric -> (arguments, result)."""
    from tauclass.abelian import IntMatrix, smith_normal_form
    from tauclass.geom import (
        cross,
        identity_morphism,
        parse_space,
        pullback,
        pushforward,
        tangent_chern,
        to_point,
    )
    from tauclass.relk import Triple, k_class
    from tauclass.series import chern_spec, multiplicative_class
    from tauclass.transform import CharacteristicClass

    x = parse_space("P2 x P1")
    c = CharacteristicClass(chern_spec(3)).evaluate(x)
    point = to_point(x)
    pushed = pushforward(point, c)
    bundle = tangent_chern(x)
    mc = (chern_spec(3), bundle.polys[0], bundle.ranks[0])
    snf = (IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]),)
    triple = (Triple(x, x, identity_morphism(x)),)
    return {
        "series.multiplicative_class": (mc, multiplicative_class(*mc)),
        "geom.pushforward": ((point, c), pushed),
        "geom.pullback": ((point, pushed), pullback(point, pushed)),
        "geom.cross": ((c, c), cross(c, c)),
        "geom.hclass_mul": ((c, c), c * c),
        "relk.k_class": (triple, k_class(*triple)),
        "abelian.smith_normal_form": (snf, smith_normal_form(*snf)),
    }


@pytest.mark.parametrize("metric", sorted(spans.HOOKS))
def test_hook_reads_a_real_call(metric, hook_calls):
    # a hook that no longer finds what it reads fails here, not only
    # under ``perfbench/run.py --trace 1``
    args, result = hook_calls[metric]
    before, after = spans.HOOKS[metric]
    tracer = spans.Tracer()
    if before is not None:
        before(tracer, args)
    if after is not None:
        after(tracer, result)
    assert tracer.counters != spans.Tracer().counters
