"""The benchmark traces tauclass by wrapping names it lists in
``perfbench/spans.py``.  Each listed name must resolve the way
``spans.install`` resolves it, or ``perfbench/run.py --trace 1`` breaks
after a refactor of ``src/``."""

import importlib
import types
from pathlib import Path

import pytest

import tauclass.cli  # noqa: F401  (loads every module the spans name)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # executed from its source text, so no bytecode is written next to it
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


spans = _load_spans()


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
