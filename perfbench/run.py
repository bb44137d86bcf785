"""Benchmark of the tauclass command line, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark drives the public entry
point ``tauclass.cli.main(argv)`` from ``src/``: a closed loop with one
client, each pass a fresh interpreter that sends the workload's requests
one after another.  Passes repeat until ``--seconds`` have gone by (at
least one).  It prints one line per metric and, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced pass with ``--trace 1``.  A record with the environment stamp and
every pass goes to ``perfbench/out/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"

# (name, unit, better, bound): the bound is the share of the parent
# commit's median by which a metric may worsen before a change counts as
# a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SETUP_SAMPLES = 5  # set-up-only interpreters at the start of a run
SETUP_PER_PASS = 3  # more after each pass, so the median spans the whole run
RUN_BUDGET_S = 170  # every child is killed past this point of the run


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def environment() -> dict:
    """Stamp that makes runs on different commits comparable."""
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    loadavg = Path("/proc/loadavg")
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": loadavg.read_text().split()[:3] if loadavg.exists() else None,
    }


class Runner:
    """Starts the child interpreters of one run and keeps its deadline."""

    def __init__(self, tag: str):
        self.tag = tag
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.count = 0

    def _run(self, args) -> tuple[float, str]:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(SRC), *args],
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child interpreter ran past the {RUN_BUDGET_S} s budget") from None
        if proc.returncode != 0:
            raise BenchError(f"child interpreter exited {proc.returncode}: {proc.stderr[-2000:]}")
        return t_spawn, proc.stdout

    def setup(self) -> float:
        t_spawn, stdout = self._run(["-"])
        return float(stdout) - t_spawn

    def run_pass(self, spec: dict) -> dict:
        self.count += 1
        spec_path = OUT / "passes" / f"{self.tag}-{self.count}.spec.json"
        result_path = spec_path.with_name(f"{self.tag}-{self.count}.result.json")
        spec_path.parent.mkdir(parents=True, exist_ok=True)
        if spec["trace"]:
            spec = dict(spec, trace_path=str(OUT / "trace" / f"{self.tag}-{self.count}"))
            (OUT / "trace").mkdir(parents=True, exist_ok=True)
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        t_spawn, _ = self._run([str(spec_path), str(result_path)])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result.pop("t_ready") - t_spawn
        return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = workloads.build(workload, seed)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    argv = workloads.materialize(requests, OUT / "inputs" / tag)
    base_spec = {
        "argv": argv,
        "requests": [{"key": r.key, "expect": list(r.expect)} for r in requests],
        "reference": str(REFERENCE),
        "trace": False,
        "full_check": True,
    }
    runner = Runner(tag)
    runner.setup()  # warm-up: byte-compiles src/ once, as an installed package would be
    setups = [runner.setup() for _ in range(SETUP_SAMPLES)]

    passes = []
    traced = []
    start = time.perf_counter()
    setup_time = 0.0  # spent on set-up samples between passes, not measuring
    while True:
        # identical bytes need the full check only once per run
        spec = dict(base_spec, full_check=not passes and not traced)
        began = time.perf_counter()
        if trace and passes:
            spec["trace"] = True
            traced.append(runner.run_pass(spec))
        else:
            passes.append(runner.run_pass(spec))
        now = time.perf_counter()
        measured = now - start - setup_time
        setups += [runner.setup() for _ in range(SETUP_PER_PASS)]
        setup_time += time.perf_counter() - now
        done = len(traced) if trace else len(passes)
        # stop before a pass that would end past the measuring time
        if done >= 1 and measured + (now - began) > seconds:
            break
    everything = passes + traced
    setups += [p["setup_s"] for p in everything]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "requests": [r.key for r in requests],
        "setups_s": setups,
        "passes": passes,
        "traced_passes": traced,
        "attempted": sum(p["attempted"] for p in everything),
        "failed": sum(len(p["failures"]) for p in everything),
        "checks_per_pass": passes[0]["checks"],
    }


def end_to_end(record: dict) -> dict[str, float]:
    """Every figure as the median over the run's samples.

    On a shared host whose speed comes in spells, a fast spell is the rare
    one; the fastest pass reports whether a run happened to catch one and
    spread across runs two to three times more than the median did."""
    passes = record["passes"]
    return {
        "setup_s": statistics.median(record["setups_s"]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(record: dict) -> dict[str, float]:
    """Layer metrics of the median traced pass (by traced wall time), so
    that its layer self times add up with ``bench.self_s`` to its wall."""
    traced = sorted(record["traced_passes"], key=lambda p: p["layers"]["trace.wall_s"])
    chosen = traced[(len(traced) - 1) // 2]["layers"]
    untraced = statistics.median(p["wall_s"] for p in record["passes"])
    return dict(chosen, **{"trace.overhead_s": chosen["trace.wall_s"] - untraced})


def report_lines(record: dict, metrics: dict, units: dict) -> list[str]:
    n_pass = len(record["passes"])
    lines = [f"workload {record['workload']} seed {record['seed']}: "
             f"{len(record['requests'])} requests per pass, {n_pass} passes, "
             f"{len(record['traced_passes'])} traced, {len(record['setups_s'])} set-ups"]
    for name, value in metrics.items():
        lines.append(f"  {name:<42} {value:>14.6g} {units[name]}")
    lines.append(f"  {'error_rate':<42} {record['failed'] / record['attempted']:>14.6g} "
                 f"ratio ({record['failed']} of {record['attempted']} requests failed)")
    if record["trace"]:
        total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS + ("bench",))
        lines.append(f"  layer self times + bench.self_s = {total:.6f} s = trace.wall_s; "
                     f"tracing overhead {metrics['trace.overhead_s']:.6f} s over an untraced pass")
    elif record["checks_per_pass"]:
        rate = record["checks_per_pass"] / metrics["wall_s"]
        lines.append(f"  {'checks_per_s':<42} {rate:>14.6g} 1/s "
                     f"({record['checks_per_pass']} check reports per pass)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tauclass" / "cli.py").is_file():
        print(f"error: no tauclass sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    env = environment()
    try:
        record = measure(args.workload, args.seed, args.seconds, trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if trace:
        metrics = per_layer(record)
        units = {name: unit for name, unit, _ in spans.per_layer_metrics()}
        metrics = {name: metrics[name] for name in units}
    else:
        metrics = end_to_end(record)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    record.update(environment=env, metrics=metrics)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in report_lines(record, metrics, units):
        print(line)
    for p in record["passes"] + record["traced_passes"]:
        for failure in p["failures"][:5]:
            print(f"  FAIL {failure['key']}: {'; '.join(failure['errors'])}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
