"""Run one workload of the cyclocomp benchmark and print its result.

    python3 bench/run.py --workload roots --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The job list comes from the seed and
`--seconds`; only the generated inputs reach the program.  A round runs
every job once, one at a time (a closed loop with one client), in a fresh
process, so process-wide caches start each round in the same state.

With `--trace 0` the run makes `workloads.ROUNDS` rounds.  The outputs of
the first are checked by `checks.py`; the later rounds must reproduce
them.  A job's time is its CPU time (that of this process plus that of
the CLI child it waits for) in reference milliseconds (see
`workloads.REF_MS`), and then its median over the rounds.  CPU time
leaves out the time the shared host runs other guests on this VM's
processors, and the reference leaves out how fast the host lets them run
meanwhile.  The metrics are the end-to-end ones of BENCHMARK.json.

With `--trace 1` the run makes one untraced round and one round under the
span recorders of `spans.py`, checks the traced outputs, and reports the
per-layer metrics; `trace.overhead_s` is the difference of the two
rounds' wall times.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; a readable summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import BENCH, ROOT, SRC, Session

# Set-up probes before, between and after the rounds.
PROBES_PER_GAP = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a set-up probe, one round written to a file (checked or
    # not), and a shortened job list for the benchmark's own tests.
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--round", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--limit-jobs", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _base_cmd(args) -> list[str]:
    cmd = [str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.limit_jobs:
        cmd += ["--limit-jobs", str(args.limit_jobs)]
    return cmd


# -- one round, in its own process ----------------------------------------------


def run_jobs(session: Session, recorder=None):
    """Run every job once, in order; returns (wall, times, refs, outputs,
    errors), where `times` are the jobs' CPU seconds (see
    `Session.cpu_time`) and `refs` those of the reference task, timed
    before each job and once after the last."""
    times, refs, outputs, errors = [], [], [], {}
    start = time.perf_counter()
    for i, job in enumerate(session.jobs):
        if recorder is not None:
            recorder.job = i
        refs.append(session.reference_cpu())
        t0 = session.cpu_time()
        try:
            out = session.run(job, i)
        except Exception as exc:  # a failed job is counted, not fatal
            out = None
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        times.append(session.cpu_time() - t0)
        outputs.append(out)
    refs.append(session.reference_cpu())
    return time.perf_counter() - start, times, refs, outputs, errors


def check_outputs(workload: str, jobs, outputs, errors) -> dict:
    """Job index -> reason, for every job that raised or failed its check."""
    import checks  # imports sympy, so only after peak memory is read

    failures = dict(errors)
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if i in failures:
            continue
        try:
            reason = checks.check(workload, job, out)
        except Exception as exc:  # a malformed output fails its check
            reason = f"checker raised {type(exc).__name__}: {exc}"
        if reason:
            failures[i] = reason
    return failures


def run_round(args, jobs, work_dir: Path) -> dict:
    session = Session(args.workload, jobs, work_dir, traced=bool(args.trace))
    session.setup()
    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        rec.install()
    try:
        wall, times, refs, outputs, errors = run_jobs(session, rec)
    finally:
        if rec is not None:
            rec.uninstall()
    result = {
        "wall": wall,
        "times": times,
        "refs": refs,
        "rss_mb": workloads.peak_rss_mb(args.workload, outputs),
        "errors": errors,
        "digests": [workloads.fingerprint(args.workload, out) for out in outputs],
    }
    if args.check:
        result["failures"] = check_outputs(args.workload, jobs, outputs, errors)
    if rec is not None:
        for child in session.child_stats:
            rec.merge(child)
        trace_dir = ROOT / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        rec.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.jsonl", session.child_stats)
        extra = {}
        if args.workload == "cli":
            cache = session.cache_dir / "cyclotomic_cache.json"
            extra["cyclotomic.cache_entries"] = len(json.loads(cache.read_text()))
            extra["cli.cache_bytes"] = cache.stat().st_size
            extra["cli.import_s"] = sum(c["import_s"] for c in session.child_stats)
            extra["cli.child_cpu_s"] = sum(o[3] for o in outputs if o is not None)
        result["layer"] = spans.layer_metrics(rec, extra)
        result["spans_dropped"] = rec.dropped
    return result


def spawn_round(args, work_dir: Path, index: int, trace: int, check: bool) -> dict:
    path = work_dir / f"round-{index}.json"
    cmd = [sys.executable, *_base_cmd(args), "--trace", str(trace), "--round", str(path)]
    subprocess.run(cmd + (["--check"] if check else []), check=True)
    result = json.loads(path.read_text())
    for key in ("errors", "failures"):
        if key in result:
            result[key] = {int(i): reason for i, reason in result[key].items()}
    return result


def _replay_failures(rounds: list[dict]) -> dict:
    """Failures of the checked round, plus every job whose output differs
    from it in a later round."""
    first = rounds[0]
    failures = dict(first["failures"])
    for r in rounds[1:]:
        failures.update(r["errors"])
        for i, (a, b) in enumerate(zip(first["digests"], r["digests"])):
            if a != b and i not in failures:
                failures[i] = "output differs from the checked round"
    return failures


# -- the run -----------------------------------------------------------------------


def setup_seconds(args, probes: int) -> list[float]:
    """Fresh interpreters that import, generate and warm up, then report
    the CPU seconds this took them from their start, and the median CPU
    time of a few reference computations after it: the set-up time in
    reference seconds, once per probe."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-S", *_base_cmd(args), "--setup-only"],
            stdout=subprocess.PIPE, check=True,
        )
        word, cpu, ref = proc.stdout.split()
        if word != b"ready":
            raise RuntimeError("set-up probe failed")
        samples.append(float(cpu) / float(ref) * workloads.REF_MS[args.workload] / 1000)
    return samples


def reference_ms(workload: str, r: dict) -> list[float]:
    """A round's job times in reference milliseconds: each job's CPU time
    over the mean of the reference times just before and just after it."""
    refs, unit = r["refs"], workloads.REF_MS[workload]
    return [2 * t / (refs[i] + refs[i + 1]) * unit for i, t in enumerate(r["times"])]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, work_dir: Path) -> tuple[dict, dict, dict]:
    # Set-up probes run before, between and after the rounds, so that
    # their median spans the whole run rather than one moment of it.
    setup, rounds = [], []
    for r in range(workloads.ROUNDS + 1):
        setup += setup_seconds(args, PROBES_PER_GAP)
        if r < workloads.ROUNDS:
            rounds.append(spawn_round(args, work_dir, r, trace=0, check=(r == 0)))
    job_ms = [statistics.median(ts)
              for ts in zip(*(reference_ms(args.workload, r) for r in rounds))]
    metrics = {
        "total_s": _metric(sum(job_ms) / 1000, "s"),
        "job_p50_ms": _metric(statistics.median(job_ms), "ms"),
        "job_p90_ms": _metric(statistics.quantiles(job_ms, n=10)[-1], "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(max(r["rss_mb"] for r in rounds), "MiB"),
    }
    counts = {"setup_s": len(setup), "peak_rss_mb": len(rounds)}
    raw_cpu = sum(statistics.median(ts) for ts in zip(*(r["times"] for r in rounds)))
    ref_ms = statistics.median(x for r in rounds for x in r["refs"]) * 1000
    print(f"  (CPU time, median of rounds: {raw_cpu:.4f} s; reference: median "
          f"{ref_ms:.4f} ms CPU = {workloads.REF_MS[args.workload]} reference ms)",
          file=sys.stderr)
    return metrics, _replay_failures(rounds), counts


def traced(args, work_dir: Path) -> tuple[dict, dict, dict]:
    plain = spawn_round(args, work_dir, 0, trace=0, check=False)
    rounds = [spawn_round(args, work_dir, 1, trace=1, check=True), plain]
    failures = _replay_failures(rounds)
    metrics = rounds[0]["layer"]
    metrics["trace.overhead_s"]["value"] = rounds[0]["wall"] - plain["wall"]
    terms = metrics["completion.series_terms"]["value"]
    witness = metrics["completion.witness_checks"]["value"]
    if witness < terms:
        failures[-1] = f"only {witness} witness checks for {terms} series terms"
    if rounds[0]["spans_dropped"]:
        print(f"note: {rounds[0]['spans_dropped']} spans past the in-memory cap "
              "were counted but not written", file=sys.stderr)
    return metrics, failures, {}


def _summary(args, jobs, metrics, failures, counts) -> None:
    err = sys.stderr
    rounds = 2 if args.trace else workloads.ROUNDS
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} rounds={rounds}", file=err)
    for name, m in metrics.items():
        n = counts.get(name, len(jobs))
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:6s} n={n}", file=err)
    failed = sum(1 for i in failures if i >= 0)
    print(f"  {'fail_frac':40s} {failed / len(jobs):>16.6g} {'1':6s} n={len(jobs)}", file=err)
    for i, reason in sorted(failures.items()):
        job = str(jobs[i])[:120] if i >= 0 else "(run)"
        print(f"  FAILED job {i} {job}: {reason}", file=err)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "cyclocomp" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.generate(args.workload, args.seed, args.seconds)
    if args.limit_jobs:
        jobs = jobs[: args.limit_jobs]
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    # Child interpreters share one bytecode cache inside the top-level
    # run's work directory, so their start-up does not depend on whether
    # the host lets Python write bytecode next to the sources.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ.setdefault("PYTHONPYCACHEPREFIX", str(work_dir / "pycache"))
    try:
        if args.setup_only:
            session = Session(args.workload, jobs, work_dir, traced=False)
            session.setup()
            cpu = session.cpu_time()
            ref = statistics.median(session.reference_cpu() for _ in range(9))
            print("ready", cpu, ref, flush=True)
            return 0
        if args.round:
            result = run_round(args, jobs, work_dir)
            args.round.write_text(json.dumps(result))
            return 0
        run = traced if args.trace else untraced
        metrics, failures, counts = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    _summary(args, jobs, metrics, failures, counts)
    failed = sum(1 for i in failures if i >= 0)
    print(json.dumps({"correct": not failures, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
