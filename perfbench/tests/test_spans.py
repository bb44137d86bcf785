"""Self-time arithmetic and the tracer installed on the real CLI."""

import json
import subprocess
import sys

import pytest

import spans
from run import CHILD, SRC


def _add(tracer, name, parent, start, end, coeff=0.0):
    tracer.name.append(tracer.name_id(name))
    tracer.parent.append(parent)
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.coeff.append(coeff)
    return len(tracer.name) - 1


def test_self_time_on_a_synthetic_nested_trace():
    t = spans.Tracer()
    root = _add(t, "bench.pass", -1, 0.0, 10.0)
    main = _add(t, "cli.main", root, 1.0, 9.0)
    mul = _add(t, "series.graded_mul", main, 2.0, 5.0, coeff=1.0)
    _add(t, "series.graded_init", mul, 3.0, 4.0)
    _add(t, "geom.pushforward", main, 5.0, 6.0)
    _add(t, "geom.pushforward", main, 6.5, 7.0)
    assert t.self_times() == pytest.approx([2.0, 3.5, 1.0, 1.0, 1.0, 0.5])
    s = t.summary()
    assert s["geom.pushforward.calls"] == 2
    assert s["geom.pushforward.self_s"] == pytest.approx(1.5)
    assert s["series.coeff.self_s"] == pytest.approx(1.0)
    assert s["series.self_s"] == pytest.approx(3.0)
    layers = ("bench", "cli", "series", "geom")
    assert sum(s[f"{layer}.self_s"] for layer in layers) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    t = spans.Tracer()
    root = _add(t, "bench.pass", -1, 0.0, 10.0)
    _add(t, "cli.main", root, 1.0, 6.0)
    _add(t, "cli.main", root, 4.0, 12.0)
    assert t.self_times()[0] == pytest.approx(1.0)


def test_traced_pass_adds_up_and_wraps_every_binding(tmp_path):
    spec = {
        "argv": [
            ["classes", "P3", "--class", "ty", "--max-degree", "3", "--format", "json"],
            ["check", "const-diagram", "--seed", "1", "--max-dim", "2", "--format", "json"],
        ],
        "requests": [{"key": "a", "expect": []}, {"key": "b", "expect": []}],
        "reference": str(tmp_path / "reference.json"),
        "trace": True,
        "full_check": False,
        "trace_path": str(tmp_path / "spans"),
    }
    (tmp_path / "reference.json").write_text("{}")
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(CHILD), str(SRC), str(tmp_path / "spec.json"), str(tmp_path / "out.json")],
        check=True, timeout=120,
    )
    layers = json.loads((tmp_path / "out.json").read_text())["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS + ("bench",))
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-6)
    assert layers["cli.main.calls"] == 2
    assert layers["transform.run_suite.calls"] == 1  # bound in cli by name
    assert layers["transform.tau.calls"] > 0  # bound in cli and in transform
    assert layers["series.coeff.calls"] > 0
    assert (tmp_path / "spans.bin").stat().st_size > 0
