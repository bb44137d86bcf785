"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py <src dir> -                      # set-up only
    python3 perfbench/child.py <src dir> <spec.json> <result.json>

The first thing the process does is import ``tauclass.cli``; the
``perf_counter`` reading right after that import ends set-up (the parent
took one just before it started the process; on Linux both read
CLOCK_MONOTONIC).  Then it sends the spec's requests one after another to
``tauclass.cli.main`` with stdout captured, so the ``lru_cache``s start
cold and stay warm across the pass.  Wall time, CPU time and peak RSS
cover the requests only; checking the outputs comes after.
"""

import sys
import time


def _ready(src: str) -> float:
    sys.path.insert(0, src)
    import tauclass.cli  # noqa: F401  (the import is the set-up being timed)

    return time.perf_counter()


def run_pass(spec: dict) -> dict:
    import contextlib
    import io
    import resource
    import traceback

    import spans
    from tauclass import cli, transform

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
        pass_id = tracer.name_id("bench.pass")
        request_id = tracer.name_id("bench.request")

    outputs = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer:
        root = tracer.begin(pass_id)
    for argv in spec["argv"]:
        if tracer:
            span = tracer.begin(request_id)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed request, not a failed pass
            code = None
            err.write(traceback.format_exc())
        if tracer:
            tracer.finish(span)
        outputs.append((code, out.getvalue(), err.getvalue()))
    if tracer:
        tracer.finish(root)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb}
    if tracer:
        result["layers"] = spans.layer_metrics(tracer, transform.eval_invariant.cache_info())
        result["layers"]["trace.wall_s"] = tracer.end[root] - tracer.start[root]
        result["spans"] = len(tracer.name)
        tracer.dump(spec["trace_path"])
    return result, outputs


def check_pass(spec: dict, outputs) -> dict:
    import json
    from pathlib import Path

    import jsonschema

    import verify
    from tauclass import cli

    reference = json.loads(Path(spec["reference"]).read_text(encoding="utf-8"))
    schema = json.loads(cli.schema_path().read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    failures = []
    checks = 0
    for request, (code, stdout, stderr) in zip(spec["requests"], outputs):
        errors, reports = verify.check_output(
            request, code, stdout, reference, validator, spec["full_check"]
        )
        checks += reports
        if errors:
            failures.append({"key": request["key"], "errors": errors, "stderr": stderr[-2000:]})
    return {"attempted": len(outputs), "failures": failures, "checks": checks}


def main() -> int:
    t_ready = _ready(sys.argv[1])
    if sys.argv[2] == "-":
        print(repr(t_ready))
        return 0
    import json
    from pathlib import Path

    spec = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
    spec["trace_path"] = Path(spec["trace_path"]) if spec.get("trace_path") else None
    result, outputs = run_pass(spec)
    result["t_ready"] = t_ready
    result.update(check_pass(spec, outputs))
    Path(sys.argv[3]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
