"""Record the reference stdout digest of every request in every pool.

    python3 perfbench/record_digests.py

Runs each request of ``workloads.pool`` through ``tauclass.cli.main``
in this process, checks it fully (exit code, schema, ``passed``, closed
forms) and writes ``perfbench/reference_digests.json``.  Run it only on a
commit whose outputs are known to be right: later runs compare against
these bytes.  Takes about four minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads
from run import REFERENCE, SRC
from verify import check_output, digest


def main() -> int:
    sys.path.insert(0, str(SRC))
    import jsonschema

    from tauclass import cli

    validator = jsonschema.Draft202012Validator(
        json.loads(cli.schema_path().read_text(encoding="utf-8"))
    )
    reference = {}
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            pool = workloads.pool(name)
            for request, argv in zip(pool, workloads.materialize(pool, Path(tmp))):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                stdout = out.getvalue()
                key = request.key
                errors, _ = check_output(
                    {"key": key, "expect": list(request.expect)}, code, stdout,
                    {key: digest(stdout)}, validator, full=True,
                )
                if errors:
                    bad += 1
                    print(f"NOT RECORDED {key}: {errors}", file=sys.stderr)
                    continue
                reference[key] = digest(stdout)
            print(f"{name}: {len(pool)} requests", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
