"""Seeded job lists for the four workloads, their set-up, and the code
that runs one job through the public API or the CLI.

A job is a small tuple of plain values; only those values reach the
program.  Every call into `cyclocomp` goes through a module attribute
looked up at call time, so the traced run sees it through the recorders
that `spans.py` installs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

WORKLOADS = ("series", "roots", "algebra", "cli")

# Each run measures ROUNDS fresh-process rounds of the same job list.  The
# speed of this VM's processors, as the program sees it, moves by tens of
# percent over seconds to minutes, from contention on the shared host that
# CPU time does not leave out.  So a round times a fixed reference task of
# the benchmark's own before and after every job, and a job's time is its
# CPU time over the mean of those two, scaled so that one reference counts
# as REF_MS[workload] milliseconds (about its CPU time on a quiet 2-core
# x86 VM), and then the median over the rounds.  In-process jobs are
# compared with integer arithmetic in this process, and CLI jobs with a
# fresh interpreter that imports `json`.  Measured side by side for
# minutes, each kind of job kept within about 5% of its own reference,
# while the two references moved apart by up to 40% and the raw times by
# up to 80%.
#
# Jobs per measured second are fitted so that a run on a 2-core x86 VM
# measures for about `--seconds`; every round runs at least MIN_JOBS jobs
# so that ten samples lie beyond the 90th percentile.
ROUNDS = 3
JOBS_PER_SECOND = {"series": 12, "roots": 12, "algebra": 30, "cli": 12}
MIN_JOBS = 100
REF_MS = {"series": 1.0, "roots": 1.0, "algebra": 1.0, "cli": 20.0}
REF_CHILD = ("-c", "import json")

# Indices every `cli` job can touch stay at or below this bound, so the
# cache that set-up fills is never extended by a job.
CLI_MAX_INDEX = 60


def job_count(workload: str, seconds: int) -> int:
    n = max(MIN_JOBS, round(JOBS_PER_SECOND[workload] * seconds / ROUNDS))
    return -(-n // 12) * 12


def _sizes(count: int, lo: int, hi: int) -> list[int]:
    """The midpoints of `count` equal slices of [lo, hi], ascending.  Every
    seed gets the same sizes, so the work of a job list does not depend on
    the seed; the seed decides everything else about the jobs."""
    width = hi - lo + 1
    return [lo + int(width * (k + 0.5) / count) for k in range(count)]


def generate(workload: str, seed: int, seconds: int) -> list[tuple]:
    """The workload's job list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    n = job_count(workload, seconds)
    jobs = _GENERATORS[workload](rng, n)
    rng.shuffle(jobs)
    return jobs


def _gen_series(rng: random.Random, n: int) -> list[tuple]:
    # Each four consecutive levels get the four (series, chain) pairs, so
    # kz/qinv and fresh/shared chains are balanced across sizes.
    levels = _sizes(n, 15, 40)
    jobs = []
    for g in range(0, n, 4):
        combos = [(s, shared) for s in ("kz", "qinv") for shared in (False, True)]
        rng.shuffle(combos)
        for level, (s, shared) in zip(levels[g : g + 4], combos):
            jobs.append(("series", s, level, shared))
    return jobs


def _gen_roots(rng: random.Random, n: int) -> list[tuple]:
    # Every size runs on both series, so the job list's work is the same
    # for every seed, which decides the order of the jobs alone.
    k = n // 6
    sizes = [("ohtsuki", terms - 1) for terms in _sizes(k, 10, 35)]
    # The same spread of levels n(J+1) in 8..45 at every center 2..10.
    # The top tier of levels, one sixth of the jobs, is the heaviest, so
    # the 90th percentile falls inside it rather than on its edge.
    sizes += [
        ("expand", center, max(1, round(target / center)) - 1)
        for center in range(2, 11)
        for target in _sizes(k // 6, 8, 45)
    ]
    sizes += [("tau", m) for m in _sizes(n // 2 - len(sizes), 8, 20)]
    return [(kind, spec, *rest) for kind, *rest in sizes for spec in ("kz", "qinv")]


def _lambda(rng: random.Random, factors: int, degree: int) -> tuple:
    """Exponent vector on `factors` indices from 1..12, exponents 1..3, whose
    modulus degree is nearest to `degree` among a few seeded candidates
    (the cost of the CRT jobs follows the degree)."""
    best = None
    for _ in range(64):
        support = sorted(rng.sample(range(1, 13), factors))
        lam = tuple((m, rng.randint(1, 3)) for m in support)
        gap = abs(sum(e * totient(m) for m, e in lam) - degree)
        if best is None or gap < best[0]:
            best = (gap, lam)
    return best[1]


# Cofactors of the fresh Phi_n indices n = m * p (p a prime above 12): a
# fixed mix of divisor structures, so the cost spread of a run's misses
# does not depend on the seed.
_PHI_COFACTORS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


def _gen_algebra(rng: random.Random, n: int) -> list[tuple]:
    per = n // 12
    cofactors: list[int] = []
    while len(cofactors) < 4 * per:
        block = list(_PHI_COFACTORS)
        rng.shuffle(block)
        cofactors += block
    jobs, primes = [], set()
    for target, m in zip(_sizes(4 * per, 300, 1500), cofactors):
        p = max(13, -(-target // m))
        while p in primes or not _is_prime(p):
            p += 1
        primes.add(p)
        jobs.append(("phi", m * p))
    for _ in range(3 * per):
        a, b = rng.sample(range(1, 121), 2)
        jobs.append(("coprime", a, b))
    rings = ["Z", "Q", "Z1/2", "Z1/3", "Z1/6", "Z1/10"]
    for i, size in enumerate(_sizes(2 * per, 200, 800)):
        ring = rings[0] if i % 3 == 0 else rings[1] if i % 3 == 1 else rng.choice(rings[2:])
        jobs.append(("components", ring, tuple(rng.sample(range(1, 5001), size))))
    for _ in range(per):
        p = rng.choice((2, 3, 5, 7))
        e = rng.randint(1, 3 if p < 5 else 2)
        m = rng.randint(1, max(1, 300 // p**e))
        jobs.append(("congruence", m, p, e))
    for i, degree in enumerate(_sizes(per, 8, 32)):
        lam = _lambda(rng, 3 + i % 6, degree)
        size = sum(e * totient(m) for m, e in lam) + 4
        f = tuple((rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size + 1))
        jobs.append(("crt", lam, f))
    for i, degree in enumerate(_sizes(n - len(jobs), 6, 18)):
        jobs.append(("idempotents", _lambda(rng, 3 + i % 6, degree)))
    return jobs


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))


def totient(n: int) -> int:
    """Euler's totient by trial division."""
    out, rest, p = 1, n, 2
    while p * p <= rest:
        if rest % p == 0:
            out *= p - 1
            rest //= p
            while rest % p == 0:
                out *= p
                rest //= p
        p += 1
    return out * (rest - 1) if rest > 1 else out


def _cli_argv(rng: random.Random, kind: str, fmt: str) -> list[str]:
    def poly(length: int) -> str:
        return json.dumps([str(rng.randint(-9, 9)) for _ in range(length)])

    def chain() -> str:
        pick = rng.randrange(3)
        if pick == 0:
            return "pochhammer"
        if pick == 1:
            return f"adic:{rng.randint(1, 12)}"
        return "product:" + ",".join(map(str, sorted(rng.sample(range(1, 13), 2))))

    if kind == "cyclotomic":
        argv = ["cyclotomic", str(rng.randint(1, CLI_MAX_INDEX))]
    elif kind == "pochhammer":
        argv = ["pochhammer", str(rng.randint(0, 12))]
    elif kind == "graph":
        ring = rng.choice(["Z", "Q", "Z1/2", "Z1/3"])
        verts = rng.sample(range(1, CLI_MAX_INDEX + 1), rng.randint(3, 12))
        argv = ["graph", "--ring", ring, "--set", ",".join(map(str, verts))]
    elif kind in ("reduce", "digits"):
        argv = ["habiro", kind, "--chain", chain(), "--level", str(rng.randint(1, 5)),
                "--poly", poly(rng.randint(1, 12))]
    elif kind == "rho":
        argv = ["habiro", "rho", "--from-chain", "pochhammer",
                "--from-level", str(rng.randint(4, 8)), "--to-chain", "adic:1",
                "--to-level", str(rng.randint(1, 3)), "--poly", poly(rng.randint(1, 10))]
    elif kind == "series":
        name = rng.choice(["kz", "qinv"])
        argv = ["habiro", "series", "--name", name, "--level", str(rng.randint(2, 9))]
        if name == "qinv" and rng.random() < 0.5:
            argv.append("--check-unit")
    elif kind == "eval":
        orders = sorted(rng.sample(range(1, 9), rng.randint(1, 4)))
        argv = ["habiro", "eval", "--series", rng.choice(["kz", "qinv"]),
                "--orders", ",".join(map(str, orders))]
    elif kind == "expand":
        center = rng.randint(1, 4)
        argv = ["habiro", "expand", "--series", rng.choice(["kz", "qinv"]),
                "--center", str(center), "--terms", str(rng.randint(1, 12 // center))]
    elif kind == "split":
        support = sorted(rng.sample(range(1, 7), rng.randint(1, 3)))
        lam = ",".join(f"{m}:{rng.randint(1, 3)}" for m in support)
        argv = ["qcrt", "split", "--lambda", lam, "--poly", poly(rng.randint(1, 10))]
    elif kind == "witness":
        argv = ["qcrt", "witness", "--level", str(rng.randint(1, 5))]
    else:
        argv = ["selfcheck"]
    return argv + ["--format", fmt]


# Every subcommand once per block, and `selfcheck`, the one slow kind,
# twice: its share then exceeds a tenth, so the 90th percentile falls
# inside one kind of job rather than on the noisy edge between two.
CLI_KINDS = ("cyclotomic", "pochhammer", "graph", "reduce", "digits", "rho",
             "series", "eval", "expand", "split", "witness", "selfcheck", "selfcheck")


def _gen_cli(rng: random.Random, n: int) -> list[tuple]:
    jobs = []
    for g in range(0, n, len(CLI_KINDS)):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds):
            fmt = ("json", "csv", "plain")[(g // len(CLI_KINDS) + i) % 3]
            jobs.append(("cli", tuple(_cli_argv(rng, kind, fmt))))
    return jobs[:n]


_GENERATORS = {
    "series": _gen_series,
    "roots": _gen_roots,
    "algebra": _gen_algebra,
    "cli": _gen_cli,
}


# -- set-up and execution ------------------------------------------------------


def reference() -> list[int]:
    """The fixed reference computation: schoolbook products of integer
    lists, on word-sized and on 300-bit integers, the same kinds of work as
    the program's dense polynomial and cyclotomic-integer arithmetic,
    written here so that no change to the program can change it."""
    a = [(i * 2654435761) % 1000003 - 500000 for i in range(60)]
    b = [(i * 40503) % 999983 - 499990 for i in range(60)]
    big_a = [(i * 2654435761) ** 9 for i in range(1, 41)]
    big_b = [(i * 40503) ** 11 - 7 for i in range(1, 41)]
    for a, b in ((a, b), (a, b), (big_a, big_b)):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def import_program():
    """Import the package from the checkout's `src/`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cyclocomp

    return cyclocomp


class Session:
    """What a run keeps between jobs: the shared chain of `series`, and the
    cache directory and child command of `cli`."""

    def __init__(self, workload: str, jobs: list[tuple], work_dir: Path, traced: bool):
        self.workload = workload
        self.jobs = jobs
        self.work_dir = work_dir
        self.traced = traced
        self.cc = import_program()
        self.shared_chain = None
        self.cache_dir = None
        self.child_stats: list[dict] = []
        self.children_cpu = 0.0

    def cpu_time(self) -> float:
        """CPU seconds spent so far by this process and the CLI children it
        has waited for.  The guest kernel leaves out of it the time the
        host gave this VM's processors to other guests (steal time)."""
        return time.process_time() + self.children_cpu

    def setup(self) -> None:
        """Warm-up; for `cli` also fill the cache directory."""
        cc = self.cc
        if self.workload == "series":
            self.shared_chain = cc.PochhammerChain()
            cc.series_realize(cc.KONTSEVICH_ZAGIER_SPEC, cc.PochhammerChain(), 8)
        elif self.workload == "roots":
            # Levels and orders stay at or below 45, so no job extends the
            # Φ cache and its order of jobs does not decide who pays.
            for n in range(1, 46):
                cc.cyclotomic_poly(n)
            cc.expand_series(cc.KONTSEVICH_ZAGIER_SPEC, 2, 1)
        elif self.workload == "algebra":
            for n in range(1, 121):
                cc.cyclotomic_poly(n)
        else:
            from cyclocomp import cyclotomic

            self.cache_dir = self.work_dir / "cache"
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            for n in range(1, CLI_MAX_INDEX + 1):
                cc.cyclotomic_poly(n)
            cyclotomic.save_cyclotomic_cache(str(self.cache_dir / "cyclotomic_cache.json"))
            self.run_cli(("cyclotomic", "1"), job_id=-1)

    def reference_cpu(self) -> float:
        """CPU seconds of one reference task: `reference()` here, or for
        `cli` a child interpreter started like the CLI's that runs
        REF_CHILD."""
        if self.workload != "cli":
            t0 = time.process_time()
            reference()
            return time.process_time() - t0
        proc = subprocess.Popen([sys.executable, "-S", *REF_CHILD], env=self.child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("reference child failed")
        return usage.ru_utime + usage.ru_stime

    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(SRC), HABIRO_CACHE_DIR=str(self.cache_dir))

    def run(self, job: tuple, job_id: int):
        cc = self.cc
        kind = job[0]
        if kind == "series":
            _, name, level, shared = job
            chain = self.shared_chain if shared else cc.PochhammerChain()
            return cc.series_realize(cc.NAMED_SERIES[name], chain, level)
        if kind == "ohtsuki":
            return cc.ohtsuki_series(cc.NAMED_SERIES[job[1]], job[2])
        if kind == "expand":
            return cc.expand_series(cc.NAMED_SERIES[job[1]], job[2], job[3])
        if kind == "tau":
            _, name, m = job
            elt = cc.series_realize(cc.NAMED_SERIES[name], cc.PochhammerChain(), m)
            return cc.tau_values(elt, range(1, m + 1))
        if kind == "phi":
            return cc.cyclotomic_poly(job[1])
        if kind == "coprime":
            return cc.cyclotomic_coprimality(job[1], job[2])
        if kind == "components":
            return cc.connected_components(_ring_descriptor(cc, job[1]), job[2])
        if kind == "congruence":
            return cc.congruence_check(job[1], job[2], job[3])
        if kind == "crt":
            lam = cc.ExponentVector(dict(job[1]))
            f = cc.RatPolynomial([Fraction(a, b) for a, b in job[2]])
            comps = cc.crt_split(f, lam)
            return comps, cc.crt_reconstruct(comps, lam)
        if kind == "idempotents":
            return cc.crt_idempotents(cc.ExponentVector(dict(job[1])))
        return self.run_cli(job[1], job_id)

    def run_cli(self, argv: tuple, job_id: int) -> tuple[int, bytes, float, float]:
        """One CLI process: (exit code, stdout, peak RSS in MiB, CPU seconds).

        `-S` keeps the host's site hooks out of the measured start-up; the
        CLI needs only the standard library."""
        env = self.child_env()
        if self.traced:
            stats = self.work_dir / f"child-{job_id}.json"
            env["PERFBENCH_CHILD_STATS"] = str(stats)
            env["PERFBENCH_JOB_ID"] = str(job_id)
            cmd = [sys.executable, "-S", str(BENCH / "cli_runner.py"), *argv]
        else:
            cmd = [sys.executable, "-S", "-m", "cyclocomp.cli", *argv]
        with open(self.work_dir / "child.err", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 gives this child's own rusage; Popen.wait would not.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        self.children_cpu += cpu
        if self.traced and job_id >= 0:
            with open(stats, encoding="utf-8") as fh:
                self.child_stats.append(json.load(fh))
            stats.unlink()
        return proc.returncode, out, usage.ru_maxrss / 1024, cpu


def _ring_descriptor(cc, ring: str):
    if ring == "Z":
        return cc.RING_Z
    if ring == "Q":
        return cc.RING_Q
    return cc.ring_z_inverted(int(ring[3:]))


def fingerprint(workload: str, out) -> str:
    """Short digest of a job's output, to compare rounds with the checked one."""
    text = repr(out[:2] if workload == "cli" and out is not None else out)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def peak_rss_mb(workload: str, outputs: list) -> float:
    """Peak resident memory of the process that did the work: this one,
    or for `cli` the largest child."""
    if workload == "cli":
        return max((out[2] for out in outputs if out is not None), default=0.0)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
