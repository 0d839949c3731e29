"""Traced stand-in for `python -m cyclocomp.cli`, used by the traced `cli`
run: it times the import, installs the span recorders of `spans.py`, calls
`cli.run` with its arguments, and writes the recorder's aggregates and
spans to the file named by PERFBENCH_CHILD_STATS.  Standard output is
exactly what the CLI writes.

    PERFBENCH_CHILD_STATS=stats.json python3 bench/cli_runner.py cyclotomic 12
"""

import json
import os
import sys
import time

start = time.perf_counter()
from cyclocomp import cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - start

import spans  # noqa: E402


def main() -> int:
    rec = spans.Recorder(span_cap=5_000)
    rec.job = int(os.environ.get("PERFBENCH_JOB_ID", "-1"))
    rec.install()
    try:
        code = cli.run(sys.argv[1:], sys.stdout, sys.stderr)
    finally:
        rec.uninstall()
    snap = rec.snapshot()
    snap.update(import_s=import_s, job=rec.job)
    with open(os.environ["PERFBENCH_CHILD_STATS"], "w", encoding="utf-8") as fh:
        json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
