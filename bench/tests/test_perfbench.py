"""Self-tests of the benchmark (not of the program):

    python3 -m pytest -q bench/tests

They check that job lists are seeded, that every checker rejects a
perturbed output, that printed metrics match BENCHMARK.json, that the
exact counters repeat across traced runs, that untraced runs patch
nothing, and that the benchmark refuses to run without the program.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    a = workloads.generate(workload, 7, 15)
    assert a == workloads.generate(workload, 7, 15)
    assert a != workloads.generate(workload, 8, 15)
    assert len(a) >= workloads.MIN_JOBS


def test_fresh_phi_indices_never_divide_each_other():
    ns = [job[1] for job in workloads.generate("algebra", 3, 15) if job[0] == "phi"]
    assert len(set(ns)) == len(ns)
    assert not any(a != b and b % a == 0 for a in ns for b in ns)


# -- checkers against perturbed outputs -----------------------------------------


def _bump_poly(poly):
    coeffs = list(poly.coeffs)
    coeffs[0] += 1
    return type(poly)(coeffs)


def _bump_ci(value):
    coeffs = list(value.coeffs)
    coeffs[0] += 1
    return type(value)(value.order, coeffs)


def _perturb(job, out):
    kind = job[0]
    if kind == "series":
        return dataclasses.replace(out, rep=_bump_poly(out.rep))
    if kind in ("ohtsuki", "expand"):
        return dataclasses.replace(out, coeffs=(_bump_ci(out.coeffs[0]),) + out.coeffs[1:])
    if kind == "tau":
        return {**out, 1: _bump_ci(out[1])}
    if kind == "phi":
        return _bump_poly(out)
    if kind == "coprime":
        if hasattr(out, "u"):
            return dataclasses.replace(out, u=_bump_poly(out.u))
        return dataclasses.replace(out, exponent=out.exponent + 1)
    if kind == "components":
        return [sorted(out[0] + out[1])] + out[2:]
    if kind == "congruence":
        return (out[0], not out[1])
    if kind == "crt":
        comps, g = out
        return comps, g + type(g).one()
    if kind == "idempotents":
        first = min(out)
        return {**out, first: out[first] + type(out[first]).one()}
    code, stdout, rss, cpu = out
    i = next(k for k, ch in enumerate(stdout) if chr(ch).isdigit())
    digit = b"1" if stdout[i : i + 1] != b"1" else b"2"
    return code, stdout[:i] + digit + stdout[i + 1 :], rss, cpu


def _sample_jobs(workload):
    """The cheapest job of each kind in the seed-1 list."""
    by_kind = {}
    for job in workloads.generate(workload, 1, 15):
        key = job[1][0] if workload == "cli" else job[0]
        if key not in by_kind or str(job) < str(by_kind[key]):
            by_kind[key] = job
    jobs = list(by_kind.values())
    if workload == "series":
        jobs = sorted(jobs, key=lambda j: j[2])[:1] + [("series", "qinv", 16, False)]
    if workload == "roots":
        jobs += [("ohtsuki", "kz", 12)]
    if workload == "algebra":
        jobs += [("coprime", 6, 12), ("coprime", 5, 7), ("components", "Q", (1, 2, 4))]
    return jobs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checkers_accept_outputs_and_reject_perturbed_ones(workload, tmp_path):
    jobs = _sample_jobs(workload)
    session = workloads.Session(workload, jobs, tmp_path, traced=False)
    session.setup()
    for i, job in enumerate(jobs):
        out = session.run(job, i)
        assert checks.check(workload, job, out) is None, job
        assert checks.check(workload, job, _perturb(job, out)) is not None, job


# -- whole runs ---------------------------------------------------------------------


def test_printed_metrics_match_benchmark_json():
    common = ("--workload", "algebra", "--seed", "1", "--seconds", "1", "--limit-jobs", "12")
    plain = _run(*common, "--trace", "0")
    assert plain["correct"] and plain["attempted"] == 12 and plain["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == want
    traced = _run(*common, "--trace", "1")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == want


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_across_traced_runs(workload):
    import spans

    args = ("--workload", workload, "--seed", "2", "--seconds", "1",
            "--limit-jobs", "8", "--trace", "1")
    first, second = _run(*args), _run(*args)
    assert first["correct"] and second["correct"]
    for name in spans.EXACT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_patches_nothing(tmp_path):
    cc = workloads.import_program()
    from cyclocomp import completion, cyclotomic, polyring, rootexp

    modules = [cc, completion, cyclotomic, polyring, rootexp]
    before = [dict(vars(m)) for m in modules]
    mul = polyring.IntPolynomial.__mul__
    terms = {name: spec.term for name, spec in cc.NAMED_SERIES.items()}
    jobs = workloads.generate("series", 1, 15)[:3]
    session = workloads.Session("series", jobs, tmp_path, traced=False)
    session.setup()
    for i, job in enumerate(jobs):
        session.run(job, i)
    assert polyring.IntPolynomial.__mul__ is mul
    assert "__mul__" not in vars(polyring.IntPolynomial)
    assert [dict(vars(m)) for m in modules] == before
    assert {name: spec.term for name, spec in cc.NAMED_SERIES.items()} == terms


def test_untraced_round_never_imports_the_tracer(tmp_path):
    script = (
        "import sys; sys.path.insert(0, 'bench'); import run; "
        f"run.main(['--workload', 'roots', '--seed', '1', '--seconds', '1', "
        f"'--limit-jobs', '3', '--round', {str(tmp_path / 'r.json')!r}]); "
        "assert 'spans' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", script], cwd=ROOT, check=True)


def test_recorder_uninstall_restores_every_binding():
    import spans

    cc = workloads.import_program()
    from cyclocomp import completion, cyclotomic, polyring, qcrt, rootexp

    modules = [cc, completion, cyclotomic, polyring, qcrt, rootexp]
    classes = [polyring.IntPolynomial, polyring.RatPolynomial,
               completion.FiltrationChain, rootexp.CyclotomicInteger]
    before = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
    rec = spans.Recorder()
    rec.install()
    try:
        assert cyclotomic.cyclotomic_poly is not before[2]["cyclotomic_poly"]
        cc.series_realize(cc.KONTSEVICH_ZAGIER_SPEC, cc.PochhammerChain(), 5)
    finally:
        rec.uninstall()
    assert [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes] == before
    assert rec.calls["completion.series_term"] == 6
    assert rec.count["completion.witness_checks"] == 6


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
