"""Print BENCHMARK.json from the definitions in this directory.

    python3 perfbench/make_benchmark_json.py > BENCHMARK.json

Workloads come from ``workloads.WORKLOADS``, end-to-end metrics and
their bounds from ``run.END_TO_END``, per-layer metrics from
``spans.per_layer_metrics()``.
"""

import json

import spans
import workloads
from run import END_TO_END

RUN_SECONDS = 25


def benchmark() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in spans.per_layer_metrics()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark(), indent=2))
