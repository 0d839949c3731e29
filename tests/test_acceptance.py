"""Acceptance suite: one test per criterion, every assertion exact.

Each test prints a single PASS line on success (visible with -s, or via
the per-test line of `pytest -v`); a failure prints the criterion label
through the normal pytest report.  Criteria with stated wall-clock
budgets assert them.
"""

import io
import json
import math
import random
import time
from pathlib import Path

from cyclocomp import (
    CyclotomicInteger,
    IntPolynomial,
    KONTSEVICH_ZAGIER_SPEC,
    PochhammerChain,
    Q_INVERSE_SPEC,
    RatPolynomial,
    RING_Q,
    RING_Z,
    alternating_unit,
    c_value,
    congruence_check,
    connected_components,
    cyclotomic_poly,
    evaluate_at_root,
    expand_series,
    from_digits,
    integer_witness_search,
    is_adjacent,
    ohtsuki_series,
    pochhammer,
    reduce,
    rho_q_kernel_witness,
    ring_z_inverted,
    series_realize,
    subresultant_bezout,
    tau_values,
    taylor_at_root,
    to_digits,
    unit_inverse_mod,
)
from cyclocomp.cli import run
from cyclocomp.completion import DigitExpansion, digit_degree_bound

from support import kz_value_oracle, taylor_by_substitution

ONE = IntPolynomial.one()


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:2d} [{label}]: PASS")


def test_criterion_01_q_inverse_identity():
    poch = PochhammerChain()
    q = IntPolynomial.monomial(1, 1)
    start = time.perf_counter()
    for level in range(1, 31):
        inv = series_realize(Q_INVERSE_SPEC, poch, level)
        assert reduce(q, poch, level) * inv == reduce(ONE, poch, level)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report(1, "q-inverse identity, N <= 30")


def test_criterion_02_cyclotomic_product_law():
    start = time.perf_counter()
    for n in range(1, 201):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == IntPolynomial.monomial(1, n) - ONE
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    report(2, "product over divisors is q^n - 1, n <= 200")


def test_criterion_03_congruence_lemma():
    start = time.perf_counter()
    cases = 0
    for p in (2, 3, 5, 7):
        e = 1
        while p**e <= 400:
            n = 1
            while p**e * n <= 400:
                d, holds = congruence_check(n, p, e)
                assert holds, (n, p, e)
                expected_d = p**e if n % p == 0 else (p - 1) * p ** (e - 1)
                assert d == expected_d, (n, p, e, d)
                cases += 1
                n += 1
            e += 1
    elapsed = time.perf_counter() - start
    assert cases > 700
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    report(3, f"prime-power congruence, {cases} cases with closed-form d")


def test_criterion_04_coprimality_dichotomy():
    for m in range(1, 61):
        for n in range(m + 1, 61):
            res, u, v = subresultant_bezout(cyclotomic_poly(m), cyclotomic_poly(n))
            assert (res == 1) == (c_value(m, n) == 1), (m, n, res)
            if res in (1, -1):
                assert u * cyclotomic_poly(m) + v * cyclotomic_poly(n) == IntPolynomial(
                    [res]
                )
            else:
                p = c_value(m, n)
                r = res
                while r % p == 0:
                    r //= p
                assert r == 1 and res > 1, (m, n, res)
    report(4, "resultant dichotomy with verified certificates, m < n <= 60")


def test_criterion_05_digit_expansion_round_trip():
    rng = random.Random(0xD161)
    poch = PochhammerChain()
    level = 14  # deg g_14 = 105 > 99
    for _ in range(500):
        f = IntPolynomial(
            [rng.randint(-(10**6), 10**6) for _ in range(rng.randint(0, 100))]
        )
        a = reduce(f, poch, level)
        digits = to_digits(a)
        for n, digit in enumerate(digits.digits):
            assert digit.degree <= n  # deg a_n < n + 1
        assert from_digits(digits, level) == a
        # perturbing any digit within its degree bound changes the sum
        slot = rng.randrange(level)
        bump = IntPolynomial.monomial(
            rng.choice([1, -1]), rng.randrange(digit_degree_bound(poch, slot))
        )
        perturbed = list(digits.digits)
        perturbed[slot] = perturbed[slot] + bump
        assert from_digits(DigitExpansion(poch, tuple(perturbed)), level) != a
    report(5, "500 digit expansions: bounds, round-trip, uniqueness")


def test_criterion_06_tau_sigma_consistency():
    rng = random.Random(0x7A06)
    poch = PochhammerChain()
    for _ in range(100):
        f = IntPolynomial([rng.randint(-500, 500) for _ in range(rng.randint(1, 70))])
        a = reduce(f, poch, 12)
        for n in range(1, 13):
            assert taylor_at_root(a, n, 0).coeffs[0] == evaluate_at_root(a, n)
    report(6, "order-0 Taylor coefficient equals evaluation, n <= 12")


def test_criterion_07_kontsevich_zagier_values():
    poch = PochhammerChain()
    elt = series_realize(KONTSEVICH_ZAGIER_SPEC, poch, 6)
    values = tau_values(elt, [1, 2, 3])
    assert values[1] == CyclotomicInteger(1, [1])
    assert values[2] == CyclotomicInteger(2, [3])
    assert values[3] == CyclotomicInteger(3, [5, -1])
    for n in (1, 2, 3):
        assert values[n] == kz_value_oracle(n)
    report(7, "series values at orders 1, 2, 3 are 1, 3, 5 - zeta_3")


def test_criterion_08_expansion_stabilization():
    poch = PochhammerChain()
    by_level = {}
    for level in (9, 15):
        elt = series_realize(KONTSEVICH_ZAGIER_SPEC, poch, level)
        by_level[level] = [c.coeffs[0] for c in taylor_at_root(elt, 1, 8).coeffs]
    assert by_level[9] == by_level[15]
    # independent path: expand each series term at 1 and add coefficients
    term_by_term = [0] * 9
    for n in range(9):
        expansion = taylor_by_substitution(pochhammer(n).coeffs, 1, 8)
        for j in range(9):
            term_by_term[j] += expansion[j].coeffs[0]
    assert by_level[9] == term_by_term
    report(8, "expansion at 1 stable across levels 9/15 and both paths")


def test_criterion_08_expansion_budget_at_center_30():
    start = time.perf_counter()
    series = expand_series(KONTSEVICH_ZAGIER_SPEC, 30, 9)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.2f}s, budget 0.5s"
    assert series.valid_to == 9 and len(series.coeffs) == 10
    assert series.coeffs[0] == kz_value_oracle(30)
    assert series.coeffs[:5] == expand_series(KONTSEVICH_ZAGIER_SPEC, 30, 4).coeffs
    report(8, "10 coefficients at a primitive 30th root within 0.5 s")


def test_criterion_08_ohtsuki_budget():
    start = time.process_time()
    series = ohtsuki_series(KONTSEVICH_ZAGIER_SPEC, 99)
    elapsed = time.process_time() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s CPU, budget 0.1s"
    assert series.valid_to == 99 and len(series.coeffs) == 100
    assert series.coeffs[:10] == ohtsuki_series(KONTSEVICH_ZAGIER_SPEC, 9).coeffs
    report(8, "100 coefficients at q = 1 within 0.1 s CPU")


def test_criterion_09_rational_contrast():
    for level in range(1, 6):
        w = rho_q_kernel_witness(level)
        assert not w.is_zero
        assert w % (cyclotomic_poly(1) ** level).to_rational() == RatPolynomial.zero()
        assert (w - RatPolynomial.one()) % (
            cyclotomic_poly(2) ** level
        ).to_rational() == RatPolynomial.zero()
    assert any(c.denominator != 1 for c in rho_q_kernel_witness(1).coeffs)
    assert integer_witness_search(level=1, max_degree=1, coeff_bound=25) is None
    report(9, "kernel witnesses over Q exist; none over Z at level 1")


def test_criterion_10_alternating_units():
    for m in (3, 5):
        gamma = alternating_unit(m)
        for n in range(1, 26):
            if math.gcd(n, 2 * m) != 1:
                continue
            modulus = IntPolynomial.monomial(1, n) - ONE
            w = unit_inverse_mod(gamma, modulus)
            assert w is not None, (m, n)
            assert (gamma * w) % modulus == ONE % modulus
    report(10, "alternating units invert mod q^n - 1 when gcd(n, 2m) = 1")


def test_criterion_11_graph_facts():
    assert len(connected_components(RING_Z, range(1, 31))) == 1
    assert len(connected_components(RING_Q, range(1, 31))) == 30
    half = ring_z_inverted(2)
    assert not is_adjacent(half, 1, 2)
    assert is_adjacent(half, 1, 3)
    report(11, "connectivity over Z, discreteness over Q, Z[1/2] split")


GOLDEN_CORPUS = [
    ["cyclotomic", "12"],
    ["cyclotomic", "105"],
    ["pochhammer", "6"],
    ["graph", "--ring", "Z", "--set", "1,2,3,4,6,12"],
    ["graph", "--ring", "Q", "--set", "1,2,6"],
    ["graph", "--ring", "Z1/2", "--set", "1,2,3,4,8"],
    ["habiro", "reduce", "--chain", "pochhammer", "--level", "5", "--poly",
     '["3","1","-4","1","5","-9","2","6"]'],
    ["habiro", "reduce", "--chain", "product:1,2,3", "--level", "4", "--poly",
     '["1","2","3","4","5"]'],
    ["habiro", "digits", "--chain", "pochhammer", "--level", "4", "--poly",
     '["0","1","0","2"]'],
    ["habiro", "rho", "--from-chain", "pochhammer", "--from-level", "6",
     "--to-chain", "adic:1", "--to-level", "3", "--poly", '["3","1","4","1","5"]'],
    ["habiro", "series", "--name", "kz", "--level", "6"],
    ["habiro", "series", "--name", "qinv", "--level", "5", "--check-unit"],
    ["habiro", "eval", "--series", "kz", "--orders", "1,2,3,5"],
    ["habiro", "expand", "--series", "kz", "--center", "1", "--terms", "9"],
    ["habiro", "expand", "--series", "qinv", "--center", "2", "--terms", "4"],
    ["qcrt", "split", "--lambda", "1:2,2:2", "--poly", '["1","0","0","1"]'],
    ["qcrt", "split", "--lambda", "1:2,3:1", "--poly", '["1/2","-2/4","0/7","5/3"]'],
    ["qcrt", "witness", "--level", "4"],
    ["selfcheck"],
]


def _run_corpus() -> bytes:
    chunks = []
    for argv in GOLDEN_CORPUS:
        for fmt in ("json", "csv", "plain"):
            out, err = io.StringIO(), io.StringIO()
            code = run(argv + ["--format", fmt], out, err)
            assert code == 0, (argv, fmt, err.getvalue())
            chunks.append(f"$ {' '.join(argv)} --format {fmt}\n".encode())
            chunks.append(out.getvalue().encode())
    return b"".join(chunks)


# The corpus bytes as produced before the CLI emitters were unified; a
# refactor that changes the output consistently still fails here.
GOLDEN_CORPUS_FILE = Path(__file__).with_name("golden_corpus.txt")


def test_criterion_12_golden_determinism():
    first = _run_corpus()
    second = _run_corpus()
    assert first == second
    assert first == GOLDEN_CORPUS_FILE.read_bytes()
    assert b"\r" not in first  # LF only
    # spot-check a payload against its frozen content
    out = io.StringIO()
    assert run(["cyclotomic", "12"], out, io.StringIO()) == 0
    assert json.loads(out.getvalue()) == {"n": 12, "coeffs": ["1", "0", "-1", "0", "1"]}
    report(12, "CLI corpus byte-identical across runs and to the frozen corpus")
