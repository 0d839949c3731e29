"""Run every workload of BENCHMARK.json and print all metrics in two tables.

    python3 bench/report.py --seed 1 [--seconds 25] [--out results.json]

First the end-to-end metrics of each workload (tracing off) with their
units and sample counts, then the per-layer table from one traced run per
workload on the same seed.  `--out` also writes every result as JSON, so
two commits can be compared later.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _table(title: str, names: list[tuple[str, str]], results: dict, counts) -> None:
    names_w = max(len(n) for n, _ in names)
    print(f"\n{title}")
    print(f"{'metric':{names_w}s}  {'unit':5s}" + "".join(f"{w:>24s}" for w in results))
    for name, unit in names:
        cells = []
        for w, res in results.items():
            value = res["metrics"][name]["value"]
            n = counts(w, name, res)
            cells.append(f"{value:>14.6g}" + (f" (n={n})" if n else "").ljust(10))
        print(f"{name:{names_w}s}  {unit:5s}" + "".join(f"{c:>24s}" for c in cells))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    plain = {w: _run(w, args.seed, args.seconds, 0) for w in names}
    traced = {w: _run(w, args.seed, args.seconds, 1) for w in names}
    for res in plain.values():
        res["metrics"]["fail_frac"] = {"value": res["failed"] / res["attempted"], "unit": "1"}

    def e2e_count(w, name, res):
        if name == "setup_s":
            return run.PROBES_PER_GAP * (workloads.ROUNDS + 1)
        if name == "peak_rss_mb":
            return workloads.ROUNDS
        return res["attempted"]

    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + [("fail_frac", "1")]
    print(f"seed {args.seed}, {args.seconds} s per run; job times are CPU times in "
          f"reference milliseconds, the median of {workloads.ROUNDS} fresh-process rounds")
    _table("end-to-end (tracing off)", e2e, plain, e2e_count)
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    _table("per-layer (traced run)", layer, traced, lambda w, name, res: None)
    ok = all(r["correct"] for r in [*plain.values(), *traced.values()])
    print(f"\nall outputs verified: {'yes' if ok else 'NO'}")
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                        "end_to_end": plain, "per_layer": traced}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
