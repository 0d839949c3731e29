import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cyclocomp import IntPolynomial, RatPolynomial, cli, completion, cyclotomic, polyring, qcrt
from cyclocomp.cli import run
from support import kz_value_by_strange_identity
from test_acceptance import GOLDEN_CORPUS


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


ALL_SUBCOMMANDS = [
    ["cyclotomic", "12"],
    ["pochhammer", "4"],
    ["graph", "--ring", "Z", "--set", "1,2,6"],
    ["habiro", "reduce", "--chain", "pochhammer", "--level", "3", "--poly", '["0","1"]'],
    ["habiro", "digits", "--chain", "pochhammer", "--level", "3", "--poly", '["0","1"]'],
    [
        "habiro", "rho",
        "--from-chain", "pochhammer", "--from-level", "6",
        "--to-chain", "adic:1", "--to-level", "3",
        "--poly", '["3","1","4"]',
    ],
    ["habiro", "series", "--name", "kz", "--level", "4"],
    ["habiro", "eval", "--series", "kz", "--orders", "1,2,3"],
    ["habiro", "expand", "--series", "kz", "--center", "1", "--terms", "5"],
    ["qcrt", "split", "--lambda", "1:2,2:2", "--poly", '["1","0","1"]'],
    ["qcrt", "witness", "--level", "2"],
    ["selfcheck"],
]


class TestPayloads:
    def test_cyclotomic_12(self):
        code, out, _ = invoke("cyclotomic", "12")
        assert code == 0
        assert json.loads(out) == {"n": 12, "coeffs": ["1", "0", "-1", "0", "1"]}

    def test_qinv_check_unit_line(self):
        code, out, _ = invoke(
            "habiro", "series", "--name", "qinv", "--level", "5", "--check-unit"
        )
        assert code == 0
        assert out == "q*inv == 1 mod (q)_5: true\n"

    def test_graph_q_is_discrete(self):
        code, out, _ = invoke("graph", "--ring", "Q", "--set", "1,2,6")
        assert code == 0
        assert len(json.loads(out)["components"]) == 3

    def test_graph_inverted_two(self):
        code, out, _ = invoke("graph", "--ring", "Z1/2", "--set", "1,2,3")
        assert code == 0
        comps = json.loads(out)["components"]
        assert [1, 3] in comps and [2] in comps

    def test_eval_values(self):
        code, out, _ = invoke("habiro", "eval", "--series", "kz", "--orders", "1,2,3")
        values = json.loads(out)["values"]
        assert values["1"]["coeffs"] == ["1"]
        assert values["2"]["coeffs"] == ["3"]
        assert values["3"]["coeffs"] == ["5", "-1"]

    @pytest.fixture
    def calls(self, monkeypatch):
        from cyclocomp import completion, rootexp

        log, realize, expand = [], completion.series_realize, rootexp.expand_series
        monkeypatch.setattr(
            completion, "series_realize",
            lambda s, c, k: log.append(("realize", k)) or realize(s, c, k),
        )
        monkeypatch.setattr(
            rootexp, "expand_series", lambda s, n, j: log.append(("jet", n, j)) or expand(s, n, j)
        )
        return log

    def test_eval_takes_one_jet_per_order(self, calls):
        # Phi_n divides g_m for m >= n: level n fixes the value at zeta_n,
        # and c_0 of the jet at zeta_n is that value
        code, out, _ = invoke("habiro", "eval", "--series", "kz", "--orders", "2,1,2")
        code_2, out_2, _ = invoke("habiro", "eval", "--series", "kz", "--orders", "1,2")
        assert calls == [("jet", 1, 0), ("jet", 2, 0)] * 2
        assert code == code_2 == 0
        assert out == out_2
        assert json.loads(out)["level"] == 2  # the level is the deepest order

    def test_eval_level_is_a_usage_error(self, calls):
        code, out, err = invoke(
            "habiro", "eval", "--series", "kz", "--orders", "1,5,3", "--level", "2"
        )
        assert calls == []
        assert (code, out) == (1, "")
        assert err == "error: usage: unrecognized arguments: --level 2\n"

    @pytest.mark.parametrize("name", ["kz", "qinv"])
    def test_eval_matches_the_realised_element(self, name):
        from cyclocomp import NAMED_SERIES, PochhammerChain, series_realize, tau_values

        orders = range(1, 61)
        code, out, _ = invoke(
            "habiro", "eval", "--series", name, "--orders", ",".join(map(str, orders))
        )
        elt = series_realize(NAMED_SERIES[name], PochhammerChain(), 60)
        expected = {str(n): v.to_json_dict() for n, v in tau_values(elt, orders).items()}
        assert code == 0
        assert json.loads(out) == {"level": 60, "series": name, "values": expected}

    def test_eval_matches_the_strange_identity(self):
        code, out, _ = invoke(
            "habiro", "eval", "--series", "kz", "--orders", ",".join(map(str, range(1, 13)))
        )
        values = json.loads(out)["values"]
        assert code == 0
        for k in range(1, 13):
            assert values[str(k)] == kz_value_by_strange_identity(k).to_json_dict()

    def test_expand_csv_header(self):
        code, out, _ = invoke(
            "habiro", "expand", "--series", "qinv", "--center", "1",
            "--terms", "4", "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "j,coefficient"
        assert lines[1:] == ["0,1", "1,-1", "2,1", "3,-1"]

    def test_witness_reports_certificates(self):
        code, out, _ = invoke("qcrt", "witness", "--level", "3")
        data = json.loads(out)
        assert code == 0
        assert data["checks"] == {
            "one_mod_(q+1)^N": True,
            "zero_mod_(q-1)^N": True,
        }

    def test_digits_payload(self):
        code, out, _ = invoke(
            "habiro", "digits", "--chain", "pochhammer", "--level", "3",
            "--poly", '["0","1"]',
        )
        assert json.loads(out)["digits"] == [["1"], ["1"], []]

    def test_selfcheck_passes(self):
        code, out, _ = invoke("selfcheck", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,result"
        assert all(line.endswith(",ok") for line in lines[1:])


class TestFormats:
    @pytest.mark.parametrize("argv", ALL_SUBCOMMANDS, ids=lambda a: "_".join(a[:2]))
    def test_every_subcommand_supports_every_format(self, argv):
        for fmt in ("json", "csv", "plain"):
            code, out, err = invoke(*argv, "--format", fmt)
            assert code == 0, err
            assert out
            if fmt == "json":
                json.loads(out)


# Argument values the parser rejects: each is a usage error, exit 1.
OUT_OF_RANGE = [
    ["cyclotomic", "0"],
    ["pochhammer", "-1"],
    ["graph", "--ring", "Z", "--set", "0,1"],
    ["habiro", "eval", "--series", "kz", "--orders", "0"],
    ["habiro", "expand", "--series", "kz", "--center", "0", "--terms", "2"],
    [
        "habiro", "rho",
        "--from-chain", "pochhammer", "--from-level", "3",
        "--to-chain", "adic:1", "--to-level", "-1",
        "--poly", '["1"]',
    ],
    ["habiro", "reduce", "--chain", "adic:0", "--level", "2", "--poly", '["1"]'],
    ["habiro", "reduce", "--chain", "product:", "--level", "2", "--poly", '["1"]'],
    ["qcrt", "split", "--lambda", "1:0", "--poly", '["1","2"]'],
    ["qcrt", "split", "--lambda", "1:1", "--poly", '["1/0"]'],
    ["qcrt", "split", "--lambda", "1:1", "--poly", '["2", "-3/00"]'],
    ["qcrt", "witness", "--level", "0"],
    ["habiro", "reduce", "--chain", "pochhammer", "--level", "-1", "--poly", '["1"]'],
    ["habiro", "digits", "--chain", "pochhammer", "--level", "-2", "--poly", '["1"]'],
    ["habiro", "series", "--name", "kz", "--level", "-1"],
    # coefficients are decimal strings, never JSON numbers or booleans
    ["habiro", "reduce", "--chain", "pochhammer", "--level", "3", "--poly", "[1.9, true]"],
    ["qcrt", "split", "--lambda", "1:1", "--poly", "[0.5, 2]"],
    # ... and plain ASCII decimals, as to_json writes them
    ["habiro", "reduce", "--chain", "pochhammer", "--level", "3", "--poly", '["1_0", " 2 "]'],
    ["qcrt", "split", "--lambda", "1:1", "--poly", '["0.5", " 1_0 ", "1e1"]'],
    ["qcrt", "split", "--lambda", "1:2,1:1", "--poly", '["0","0","1"]'],
    # integer arguments are plain ASCII decimals too
    ["cyclotomic", "1_0"],
    ["cyclotomic", "\u0663"],
    ["pochhammer", " 3"],
    ["graph", "--ring", "Z1/ 2", "--set", "1,\u0662"],
    ["graph", "--ring", "Z1/1_0", "--set", "1,2"],
    # an integer list has no empty items
    ["graph", "--ring", "Z", "--set", "1,,2,"],
    ["habiro", "eval", "--series", "kz", "--orders", ",3"],
    ["habiro", "reduce", "--chain", "product:1,,2", "--level", "2", "--poly", '["1"]'],
]


NON_UNIT = "adic chains need a unit-leading polynomial of degree >= 1"


class TestExitCodes:
    def test_usage_error_is_one(self):
        code, _, err = invoke("graph", "--ring", "X", "--set", "1")
        assert code == 1
        assert err.startswith("error: usage:") and err.count("\n") == 1

    def test_unparsable_flags_are_one(self):
        code, _, err = invoke("habiro", "series", "--name", "nope", "--level", "3")
        assert code == 1

    def test_precondition_violation_is_two(self):
        code, _, err = invoke(
            "habiro", "rho",
            "--from-chain", "pochhammer", "--from-level", "2",
            "--to-chain", "adic:3", "--to-level", "1",
            "--poly", '["1"]',
        )
        assert code == 2
        assert err.startswith("error: NotCoarser:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--chain", 'adic:["1","2"]', "bad adic chain 'adic:[\"1\",\"2\"]': " + NON_UNIT),
            ("--chain", 'adic:["5"]', "bad adic chain 'adic:[\"5\"]': " + NON_UNIT),
            ("--chain", "bogus", "unknown chain spec 'bogus'"),
            ("--lambda", "1-2", "bad exponent vector '1-2' (expected n:e,n:e,...)"),
        ],
        ids=["adic lc 2", "adic constant", "unknown chain", "lambda without colon"],
    )
    def test_a_rejected_value_is_named(self, option, value, message):
        # an adic chain's unit-leading rule is a usage error at the parser too
        leaf = {"--chain": ["habiro", "reduce", "--level", "2"], "--lambda": ["qcrt", "split"]}
        code, out, err = invoke(*leaf[option], option, value, "--poly", '["1"]')
        assert (code, out, err) == (1, "", f"error: usage: argument {option}: {message}\n")

    def test_an_adic_chain_by_coefficients_is_the_indexed_one(self):
        argv = ("habiro", "reduce", "--level", "2", "--poly", '["1","3","4"]')
        for fmt in ("json", "csv", "plain"):
            by_index = invoke(*argv, "--chain", "adic:1", "--format", fmt)
            assert invoke(*argv, "--chain", 'adic:["-1","1"]', "--format", fmt) == by_index
            assert by_index[0] == 0

    @pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
    def test_out_of_range_integers_are_usage_errors(self, argv):
        code, out, err = invoke(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: usage:") and err.count("\n") == 1

    def test_check_unit_on_wrong_series_is_usage_error(self):
        code, _, _ = invoke(
            "habiro", "series", "--name", "kz", "--level", "3", "--check-unit"
        )
        assert code == 1


def _patch(monkeypatch, module, name, wrong):
    """Replace module.name by a kernel returning wrong(original, *args)."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: wrong(original, *args))


def _selfcheck_row(out, fmt, check):
    if fmt == "json":
        return json.loads(out)[check]
    if fmt == "csv":
        return dict(line.split(",") for line in out.splitlines()[1:])[check]
    return {line[5:]: line[:4].rstrip() for line in out.splitlines()}[check]


def _raise(*args):
    raise RuntimeError("kernel failed")


# One wrong kernel per selfcheck check, fed through one library name the
# check reads: (check, module, name, wrong, format).  The two
# trunc_arith rows fail the homomorphism's product and its sum in turn;
# the last row raises, which the suite itself must turn into a FAIL row
# and one stderr line with the exception.
ONE = RatPolynomial.one()
WRONG_KERNELS = [
    (
        "cyclotomic_product_law_n<=40", "cyclotomic", "cyclotomic_poly",
        lambda f, n: f(n) + IntPolynomial.one() if n == 40 else f(n), "plain",
    ),
    (
        "cyclotomic_degree_is_phi_n<=40", "cyclotomic", "cyclotomic_poly",
        lambda f, n: f(n) * IntPolynomial.monomial(1, 1) if n == 40 else f(n), "csv",
    ),
    ("c_value_symmetry_n<=30", "cyclotomic", "c_value", lambda f, m, n: f(m, n) + (m > n), "json"),
    ("digit_roundtrip_seeded", "completion", "from_digits", lambda f, *a: -f(*a), "plain"),
    ("q_inverse_identity_n<=12", "completion", "series_realize", lambda f, *a: -f(*a), "csv"),
    (
        "coprimality_dichotomy_n<=20", "cyclotomic", "cyclotomic_coprimality",
        lambda f, m, n: f(1, 2), "json",
    ),
    ("taylor_matches_evaluation", "rootexp", "evaluate_at_root", lambda f, *a: -f(*a), "plain"),
    ("crt_roundtrip_seeded", "qcrt", "crt_reconstruct", lambda f, *a: f(*a) + ONE, "csv"),
    (
        "rational_kernel_witness_n<=3", "qcrt", "rho_q_kernel_witness",
        lambda f, k: f(k) + ONE, "json",
    ),
    (
        "reduce_is_ring_homomorphism", "completion", "trunc_arith",
        lambda f, a, b, op: f(a, b, "add" if op == "mul" else op), "plain",
    ),
    (
        "reduce_is_ring_homomorphism", "completion", "trunc_arith",
        lambda f, a, b, op: f(a, b, "sub" if op == "add" else op), "csv",
    ),
    ("c_value_symmetry_n<=30", "cyclotomic", "c_value", lambda f, *a: _raise(), "plain"),
]

# selfcheck's stderr when c_value raises: a line per check that reads it
RAISING_C_VALUE = (
    "error: internal: c_value_symmetry_n<=30: RuntimeError: kernel failed\n"
    "error: internal: coprimality_dichotomy_n<=20: RuntimeError: kernel failed\n"
)


class TestInternalFailures:
    # Exit code 3 is an internal invariant failure: a kernel that lies or
    # raises.  Each case patches one library kernel, in process.

    @pytest.mark.parametrize(
        "check, module, name, wrong, fmt",
        WRONG_KERNELS,
        ids=[f"{check}-{name}-{fmt}" for check, _, name, _, fmt in WRONG_KERNELS],
    )
    def test_selfcheck_reports_a_wrong_kernel(self, monkeypatch, check, module, name, wrong, fmt):
        _patch(monkeypatch, importlib.import_module(f"cyclocomp.{module}"), name, wrong)
        code, out, err = invoke("selfcheck", "--format", fmt)
        raises = (check, module, name, wrong, fmt) == WRONG_KERNELS[-1]
        assert (code, err) == (3, RAISING_C_VALUE if raises else "")
        assert _selfcheck_row(out, fmt, check) == (False if fmt == "json" else "FAIL")

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_a_clean_selfcheck_writes_nothing_to_stderr(self, fmt):
        code, _, err = invoke("selfcheck", "--format", fmt)
        assert (code, err) == (0, "")

    def test_a_raising_check_keeps_its_message_after_the_table(self, monkeypatch):
        # the stdout bytes are those of a check that returned False
        from cyclocomp import rootexp

        original = rootexp.evaluate_at_root
        monkeypatch.setattr(rootexp, "evaluate_at_root", _raise)
        code, out, err = invoke("selfcheck", "--format", "plain")
        assert code == 3
        assert err == "error: internal: taylor_matches_evaluation: RuntimeError: kernel failed\n"
        assert "FAIL taylor_matches_evaluation\n" in out
        monkeypatch.setattr(rootexp, "evaluate_at_root", lambda *a: -original(*a))
        assert invoke("selfcheck", "--format", "plain") == (3, out, "")

    def test_every_check_has_a_wrong_kernel(self):
        code, out, _ = invoke("selfcheck")
        assert code == 0
        assert set(json.loads(out)) == {check for check, *_ in WRONG_KERNELS}

    def test_witness_that_fails_its_checks(self, monkeypatch):
        from cyclocomp import qcrt

        _patch(monkeypatch, qcrt, "rho_q_kernel_witness", lambda f, k: f(k) + ONE)
        code, out, err = invoke("qcrt", "witness", "--level", "2", "--format", "plain")
        assert (code, err) == (3, "")
        assert out.splitlines()[1:] == ["zero mod (q-1)^2: false", "one mod (q+1)^2: false"]
        code, out, _ = invoke("qcrt", "witness", "--level", "2")
        assert code == 3
        assert json.loads(out)["checks"] == {"one_mod_(q+1)^N": False, "zero_mod_(q-1)^N": False}

    def test_check_unit_with_a_wrong_inverse(self, monkeypatch):
        from cyclocomp import completion

        _patch(monkeypatch, completion, "series_realize", lambda f, *a: -f(*a))
        code, out, err = invoke(
            "habiro", "series", "--name", "qinv", "--level", "5", "--check-unit"
        )
        assert (code, out, err) == (3, "q*inv == 1 mod (q)_5: false\n", "")

    def test_a_raising_kernel_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "cyclotomic_poly", _raise)
        code, out, err = invoke("cyclotomic", "12")
        assert (code, out, err) == (3, "", "error: internal: RuntimeError: kernel failed\n")


def _bezout_with_a_wrong_cofactor(f, a, b):
    res, u, v = f(a, b)
    return res, u + IntPolynomial.one(), v


def _prs_with_a_wrong_cofactor(f, a, b):
    res, r, u = f(a, b)
    return res, r, u + IntPolynomial.one()


def _prs_with_a_wrong_remainder(f, a, b):
    res, r, u = f(a, b)
    return res, r + r, u


# One lying kernel per internal-invariant raise of the library: (the
# raise's message, module, kernel, wrong, a call that reaches the raise,
# the selfcheck check that reaches it or None).  No leaf but selfcheck
# reaches these raises, and selfcheck reports each as a FAIL row.
PHI = cyclotomic.cyclotomic_poly
INVARIANT_RAISES = [
    (
        "Bezout inverse fails", completion, "subresultant_bezout", _bezout_with_a_wrong_cofactor,
        lambda: completion.unit_inverse_mod(IntPolynomial.monomial(1, 1), PHI(3)),
        None,
    ),
    (
        "expected resultant 1", cyclotomic, "subresultant_bezout",
        lambda f, a, b: (2, *f(a, b)[1:]),
        lambda: cyclotomic.cyclotomic_coprimality(1, 6),
        "coprimality_dichotomy_n<=20",
    ),
    (
        "Bezout identity", polyring, "_prs", _prs_with_a_wrong_cofactor,
        lambda: polyring.subresultant_bezout(PHI(3), PHI(5)),
        "coprimality_dichotomy_n<=20",
    ),
    (
        "not exact", polyring, "_prs", _prs_with_a_wrong_remainder,
        lambda: polyring.subresultant_bezout(PHI(3), PHI(5)),
        "coprimality_dichotomy_n<=20",
    ),
    (
        "cofactor quotient", polyring, "_prs", _prs_with_a_wrong_cofactor,
        lambda: polyring.rational_xgcd(RatPolynomial([1, 2, 3], 2), RatPolynomial([1, 1])),
        None,
    ),
    (
        "CRT moduli are not coprime", qcrt, "subresultant_bezout",
        lambda f, a, b: (0, IntPolynomial.zero(), IntPolynomial.zero()),
        lambda: qcrt.ExponentVector({1: 1, 2: 1}).modulus(),
        "crt_roundtrip_seeded",
    ),
]


class TestInvariantRaises:
    # Each internal-invariant raise of the library, reached by one lying
    # kernel, in process.

    @pytest.mark.parametrize(
        "message, module, name, wrong, call, check",
        INVARIANT_RAISES,
        ids=[message for message, *_ in INVARIANT_RAISES],
    )
    def test_a_lying_kernel_reaches_the_raise(
        self, monkeypatch, message, module, name, wrong, call, check
    ):
        _patch(monkeypatch, module, name, wrong)
        with pytest.raises(AssertionError, match=message):
            call()
        if check is not None:
            code, out, err = invoke("selfcheck", "--format", "csv")
            assert code == 3
            lines = err.splitlines()
            assert any(
                line.startswith(f"error: internal: {check}: AssertionError: ") and message in line
                for line in lines
            )
            assert _selfcheck_row(out, "csv", check) == "FAIL"
            for line in lines:  # one line per check that raised
                name = line.removeprefix("error: internal: ").partition(":")[0]
                assert line.startswith("error: internal: ")
                assert _selfcheck_row(out, "csv", name) == "FAIL"

    def test_a_lying_prs_is_named_under_each_check_it_reaches(self, monkeypatch):
        # The CRT check reaches the wrong cofactor in the Bezout rescaling,
        # before the identity check: R(0) does not divide its resultant.
        _patch(monkeypatch, polyring, "_prs", _prs_with_a_wrong_cofactor)
        code, _, err = invoke("selfcheck", "--format", "csv")
        assert (code, err.splitlines()) == (3, [
            "error: internal: coprimality_dichotomy_n<=20: AssertionError: "
            "Bezout identity u*a + v*b = res fails",
            "error: internal: crt_roundtrip_seeded: AssertionError: integer division not exact",
        ])

    def test_the_honest_kernels_pass(self):
        for *_, call, _ in INVARIANT_RAISES:
            call()


class TestBudgets:
    def test_budget_rejects_oversized_level(self, tmp_path):
        cfg = tmp_path / "budgets.json"
        cfg.write_text('{"max_level": 5}')
        code, _, err = invoke(
            "--config", str(cfg),
            "habiro", "series", "--name", "kz", "--level", "9",
        )
        assert code == 1
        assert "budget" in err

    @pytest.mark.parametrize(
        "text",
        ["[1,2]", '{"max_level": "5"}', '{"max_level": true}', '{"max_levle": 2}'],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, text):
        cfg = tmp_path / "budgets.json"
        cfg.write_text(text)
        code, out, err = invoke(
            "--config", str(cfg),
            "habiro", "series", "--name", "kz", "--level", "1",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: usage:")

    def test_budget_bounds_qcrt_split_lambda(self, tmp_path):
        cfg = tmp_path / "budgets.json"
        cfg.write_text('{"max_order": 4, "max_level": 2}')
        for lam in ("7:1", "1:9"):
            code, out, err = invoke(
                "--config", str(cfg),
                "qcrt", "split", "--lambda", lam, "--poly", '["1","2"]',
            )
            assert (code, out) == (1, "")
            assert "budget" in err
        code, _, _ = invoke(
            "--config", str(cfg), "qcrt", "split", "--lambda", "4:2", "--poly", '["1","2"]'
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["habiro", "reduce", "--chain", "adic:2000003", "--level", "1", "--poly", '["1","2"]'],
            [
                "habiro", "digits",
                "--chain", "product:61,2000003", "--level", "1", "--poly", '["1","2"]',
            ],
            [
                "habiro", "rho",
                "--from-chain", "pochhammer", "--from-level", "2",
                "--to-chain", "product:1,2000003", "--to-level", "1",
                "--poly", '["1","2"]',
            ],
            ["graph", "--ring", "Z", "--set", "1,100000000000031"],
        ],
        ids=["adic", "product", "rho-target", "graph"],
    )
    def test_budget_bounds_indices_before_factoring(self, tmp_path, monkeypatch, argv):
        # every Phi_n and every c(m, n) starts by factoring its index
        factored = []
        monkeypatch.setattr(cyclotomic, "prime_factors", lambda n: factored.append(n) or [n])
        cfg = tmp_path / "budgets.json"
        cfg.write_text('{"max_order": 60}')
        code, out, err = invoke("--config", str(cfg), *argv)
        assert (code, out, factored) == (1, "", [])
        assert "budget" in err

    def test_budget_allows_chain_indices_within_limit(self, tmp_path):
        cfg = tmp_path / "budgets.json"
        cfg.write_text('{"max_order": 60}')
        argv = ["habiro", "reduce", "--chain", "product:2,60", "--level", "2", "--poly", '["1","2"]']
        assert invoke("--config", str(cfg), *argv) == invoke(*argv)
        assert invoke(*argv)[0] == 0

    def test_empty_config_path_is_usage_error(self):
        code, out, err = invoke(
            "--config", "", "habiro", "series", "--name", "kz", "--level", "1"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: usage:")

    def test_budget_allows_within_limit(self, tmp_path):
        cfg = tmp_path / "budgets.json"
        cfg.write_text('{"max_level": 5, "max_order": 10}')
        code, _, _ = invoke(
            "--config", str(cfg),
            "habiro", "series", "--name", "kz", "--level", "5",
        )
        assert code == 0


def src_env(**extra) -> dict:
    """The environment of a CLI child that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(cyclotomic.__file__).resolve().parents[1])}
    env.pop("HABIRO_CACHE_DIR", None)
    return {**env, **extra}


class TestCachePersistence:
    # Phi_n is cheap to compute, so the CLI keeps no cache between runs: a
    # file where one used to be, right or wrong, changes neither the output
    # nor the file.

    def test_cache_file_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_cyclo_cache", {})
        code, out1, _ = invoke("cyclotomic", "30")
        assert code == 0
        cache = tmp_path / "cyclotomic_cache.json"
        cyclotomic.save_cyclotomic_cache(str(cache))
        assert [p.name for p in tmp_path.iterdir()] == ["cyclotomic_cache.json"]
        assert json.loads(cache.read_text()) == {"30": json.loads(out1)["coeffs"]}
        before = cache.read_bytes()
        monkeypatch.setattr(cyclotomic, "_cyclo_cache", {})
        monkeypatch.setenv("HABIRO_CACHE_DIR", str(tmp_path))
        assert invoke("cyclotomic", "30") == (0, out1, "")
        assert cache.read_bytes() == before

    def test_unchanged_cache_is_not_rewritten(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_cyclo_cache", {})
        monkeypatch.setenv("HABIRO_CACHE_DIR", str(tmp_path))
        cache = tmp_path / "cyclotomic_cache.json"
        cache.write_text('{"3": ["1", "1", "1"]}')
        before = cache.stat()
        assert invoke("cyclotomic", "30")[0] == 0
        after = cache.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert [p.name for p in tmp_path.iterdir()] == ["cyclotomic_cache.json"]

    def test_no_cache_file_is_created(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HABIRO_CACHE_DIR", str(tmp_path / "cache"))
        assert invoke("cyclotomic", "30")[0] == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "data, n, expected",
        [
            ({"5": ["1", "1", "1", "1", "7"], "6": ["1", "1", "1"]}, 5, "q^4 + q^3 + q^2 + q + 1"),
            ({"5": ["1", "1", "1", "1", "7"], "6": ["1", "1", "1"]}, 6, "q^2 - q + 1"),
            ({"3": ["1", "1", "1"], "4": [1, 0, 1]}, 4, "q^2 + 1"),
            ({"3": ["1", "1", "1"], "4": [1, 0, 1]}, 3, "q^2 + q + 1"),
        ],
    )
    def test_poisoned_cache_entries_are_recomputed(self, tmp_path, monkeypatch, data, n, expected):
        monkeypatch.setattr(cyclotomic, "_cyclo_cache", {})
        monkeypatch.setenv("HABIRO_CACHE_DIR", str(tmp_path))
        cache = tmp_path / "cyclotomic_cache.json"
        cache.write_text(json.dumps(data))
        before = cache.read_bytes()
        code, out, _ = invoke("cyclotomic", str(n), "--format", "plain")
        assert (code, out) == (0, f"Phi_{n} = {expected}\n")
        assert cache.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cyclotomic_cache.json"]

    def test_poisoned_cache_file_in_a_fresh_process(self, tmp_path):
        cache = tmp_path / "cyclotomic_cache.json"
        cache.write_text('{"5": ["1","1","1","1","7"]}')
        before = cache.read_bytes()
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "cyclocomp.cli", "cyclotomic", "5", "--format", "plain"],
            capture_output=True,
            env=src_env(HABIRO_CACHE_DIR=str(tmp_path)),
        )
        assert (proc.returncode, proc.stdout) == (0, b"Phi_5 = q^4 + q^3 + q^2 + q + 1\n")
        assert cache.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cyclotomic_cache.json"]

    def test_cache_that_is_not_an_object_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HABIRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "cyclotomic_cache.json").write_text("[1, 2]")
        code, out, _ = invoke("cyclotomic", "4", "--format", "plain")
        assert (code, out) == (0, "Phi_4 = q^2 + 1\n")
        assert (tmp_path / "cyclotomic_cache.json").read_text() == "[1, 2]"


@pytest.mark.parametrize(
    "argv", [["selfcheck", "--format", "json"], ["cyclotomic", "30030"]], ids=" ".join
)
def test_optimized_interpreter_gives_the_same_bytes(argv):
    # `python -O` strips assert statements; the invariants are explicit raises.
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-S", "-m", "cyclocomp.cli", *argv],
            capture_output=True,
            env=src_env(),
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout


# dataclasses and what it imports; no leaf loads them.
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# argparse and what its messages load; only help and usage errors load them.
ARGPARSE = ("argparse", "gettext", "locale")

# Runs cli.run on each argv of a JSON list in turn and prints, after each,
# its exit code (a help screen's is its SystemExit code, the screen itself
# thrown away) and which of the modules that a leaf may not need are
# loaded.  Modules stay loaded from one argv to the next.
IMPORT_PROBE = """
import contextlib, io, json, sys
from cyclocomp.cli import run
watched = {"random", "shutil", "fractions", "decimal", "numbers"} | set(json.loads(sys.argv[2])) | {
    f"cyclocomp.{layer}" for layer in ("completion", "rootexp", "qcrt")
}
for argv in json.loads(sys.argv[1]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv, io.StringIO(), io.StringIO())
    except SystemExit as exc:
        code = exc.code
    print(json.dumps([code, sorted(watched & set(sys.modules))]))
"""


def _probe(argvs: list) -> list:
    watched = INTROSPECTION + ARGPARSE
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, json.dumps(argvs), json.dumps(watched)],
        capture_output=True,
        env=src_env(),
        check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_start_up_imports_neither_shutil_nor_random():
    # argparse imports shutil to ask for the terminal's width unless the
    # help width is fixed.  No leaf loads dataclasses, inspect, ast, dis or
    # tokenize, nor argparse, gettext or locale.  The light leaves load
    # neither the completion nor the root layer, and only the qcrt leaves
    # and selfcheck load the CRT layer.  No leaf loads fractions (with
    # decimal and numbers): work over Q runs on integer numerators, and
    # selfcheck's rationals are drawn as numerator-denominator pairs.  Nor
    # does any load random: selfcheck draws from its own seeded generator.
    # As a probe keeps what it loaded, the light and qcrt leaves (the
    # rational split among them) share one probe, the habiro leaves and
    # selfcheck another.
    leaves = {}
    for argv in GOLDEN_CORPUS:
        leaves.setdefault(tuple(argv[:2] if argv[0] in ("habiro", "qcrt") else argv[:1]), argv)
    light = [leaves[("cyclotomic",)], leaves[("pochhammer",)], leaves[("graph",)]]
    crt = [argv for argv in GOLDEN_CORPUS if argv[0] == "qcrt"]
    habiro = [argv for key, argv in leaves.items() if key[0] == "habiro"]
    assert len(leaves) == 12 and len(habiro) == 6 and leaves[("selfcheck",)] == ["selfcheck"]
    assert len(crt) == 3 and any("/" in word for argv in crt for word in argv)
    assert _probe(light + crt) == [[0, []]] * 3 + [[0, ["cyclocomp.qcrt"]]] * 3
    reports = _probe(habiro + [["selfcheck"]])
    assert [code for code, _ in reports] == [0] * 7
    allowed = {"cyclocomp.completion", "cyclocomp.rootexp"}
    assert all(set(loaded) <= allowed for _, loaded in reports[:-1])
    assert reports[-1][1] == sorted(allowed | {"cyclocomp.qcrt"})


@pytest.mark.parametrize(
    "fallback",
    [["habiro", "series", "--help"], ["--help"], ["cyclotomic", "0"], ["graph", "--ring", "Z"]],
    ids=" ".join,
)
def test_only_help_and_usage_errors_load_argparse(fallback):
    # No golden-corpus line, in any format, loads argparse, gettext or
    # locale: a leaf's plain command line is parsed from its _COMMANDS row.
    # A help screen or a usage error, run after them, still loads all three
    # and exits as argparse decides, so the fallback is reached.
    argvs = [argv + ["--format", fmt] for argv in GOLDEN_CORPUS for fmt in ("json", "csv", "plain")]
    reports = _probe(argvs + [fallback])
    assert [code for code, _ in reports] == [0] * len(argvs) + [0 if "--help" in fallback else 1]
    assert not any(set(ARGPARSE) & set(loaded) for _, loaded in reports[:-1])
    assert set(ARGPARSE) <= set(reports[-1][1])


# Patches eval and compile, imports the CLI, then runs cli.run on each
# command line of argv, the lines split at the word "--next", and prints
# after each its exit code, the eval and compile calls made so far, and
# whether it loaded json, which it then unloads.  A compile of a `.py`
# file is importlib loading a module without bytecode and is not counted.
# The standard library's own namedtuples, built as `re` (under argparse)
# and `decimal` (under fractions) first load, are paid before the patch.
# The probe itself imports no json.
START_UP_PROBE = """
import argparse, builtins, decimal, io, sys
calls = []
real_compile, real_eval = builtins.compile, builtins.eval
def compile(source, filename, *args, **kwargs):
    if not str(filename).endswith(".py"):
        calls.append("compile")
    return real_compile(source, filename, *args, **kwargs)
def eval(*args, **kwargs):
    calls.append("eval")
    return real_eval(*args, **kwargs)
builtins.compile, builtins.eval = compile, eval
from cyclocomp.cli import run
words = sys.argv[1:]
while words:
    end = words.index("--next")
    argv, words = words[:end], words[end + 1 :]
    code = run(argv, io.StringIO(), io.StringIO())
    loaded = [name for name in sys.modules if name == "json" or name.startswith("json.")]
    print(code, calls.count("compile"), calls.count("eval"), bool(loaded))
    for name in loaded:
        del sys.modules[name]
"""


def _reads_or_writes_json(argv: list) -> bool:
    """Whether a command line reads JSON (a --poly, which every leaf with a
    chain takes, or a --config) or writes it (--format json, but for the
    verdict of --check-unit, printed alike in every format)."""
    reads = bool({"--poly", "--config"} & set(argv))
    return reads or argv[argv.index("--format") + 1] == "json" and "--check-unit" not in argv


def test_start_up_compiles_nothing_and_loads_json_only_for_json(tmp_path):
    # Under `from __future__ import annotations` a typing.NamedTuple class
    # compiles a ForwardRef per field and evals its namedtuple's __new__;
    # the CLI defines none.  json is imported only where JSON is read or
    # written, so a csv or plain leaf that reads none skips it.
    config = tmp_path / "budgets.json"
    config.write_text('{"max_level": 9}')
    argvs = [argv + ["--format", fmt] for argv in GOLDEN_CORPUS for fmt in ("json", "csv", "plain")]
    argvs.append(["--config", str(config), "cyclotomic", "3", "--format", "plain"])
    words = [word for argv in argvs for word in (*argv, "--next")]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP_PROBE, *words],
        capture_output=True,
        env=src_env(),
        check=True,
    )
    reports = [line.split() for line in proc.stdout.decode().splitlines()]
    assert [code for code, *_ in reports] == ["0"] * len(argvs)
    assert {(compiles, evals) for _, compiles, evals, _ in reports} == {("0", "0")}
    loaded = [json_loaded == "True" for *_, json_loaded in reports]
    assert loaded == [_reads_or_writes_json(argv) for argv in argvs]
    # the csv and plain rows of the 13 leaves without --poly, and the
    # --check-unit verdict in json
    assert loaded.count(False) == 27


def test_package_import_loads_no_layer():
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, cyclocomp; print(sorted(m for m in sys.modules if 'cyclocomp.' in m))",
        ],
        capture_output=True,
        env=src_env(),
        check=True,
    )
    assert proc.stdout == b"[]\n"


def test_series_names_are_the_registered_ones():
    # build_parser spells the --name and --series choices out, so that
    # the completion layer stays out of start-up.
    from cyclocomp.cli import SERIES_NAMES
    from cyclocomp.completion import NAMED_SERIES

    assert SERIES_NAMES == tuple(sorted(NAMED_SERIES))


def _comparable(value):
    """A parsed value as what it means: a chain argument by the chain it
    builds, a ring by its name and where it is separated."""
    if isinstance(value, cyclotomic.RingDescriptor):
        return value.name, value.is_zero_ring, [value.separated_primes(p) for p in (2, 3, 5)]
    if callable(value) and value.__name__ == "<lambda>":
        return value(cli.Budgets())
    return value


def _parse(parser, argv):
    """The namespace a parser makes of argv, its usage error, or the exit
    code and screen of a help request."""
    screen = io.StringIO()
    try:
        with contextlib.redirect_stdout(screen):
            namespace = parser.parse_args(argv)
    except cli.UsageError as exc:
        return f"usage: {exc}"
    except SystemExit as exc:
        return exc.code, screen.getvalue()
    return {key: _comparable(value) for key, value in vars(namespace).items()}


def _outcome(argv):
    """What run makes of argv: invoke's exit code, stdout and stderr, or
    the exit code and screen of a help request."""
    screen = io.StringIO()
    try:
        with contextlib.redirect_stdout(screen):
            return invoke(*argv)
    except SystemExit as exc:
        return exc.code, screen.getvalue()


def _outcome_of_the_whole_tree(argv):
    with mock.patch.object(cli, "build_parser", lambda argv: cli._argparse_tree()):
        return _outcome(argv)


def _commands(parser) -> list:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize(
    "argv",
    GOLDEN_CORPUS
    + OUT_OF_RANGE
    + [
        # the argvs of the other usage-error tests
        ["graph", "--ring", "X", "--set", "1"],
        ["habiro", "series", "--name", "nope", "--level", "3"],
        ["habiro", "series", "--name", "kz", "--level", "3", "--check-unit"],
        ["--config", "", "habiro", "series", "--name", "kz", "--level", "1"],
        # no leaf path, or one that argparse must reject as a whole
        ["habiro"],
        ["habiro", "nope"],
        ["nope", "3"],
        ["cyclotomic"],
        ["cyclotomic", "3", "--bogus"],
        ["cyclotomic", "3", "--format", "xml"],
        ["cyclotomic", "3", "--config", "x"],
        ["habiro", "series", "reduce", "--name", "kz", "--level", "3"],
        # lines of a leaf that argparse parses, or rejects, its own way
        ["habiro", "series", "--nam", "kz", "--level", "3"],
        ["habiro", "rho", "--from", "pochhammer", "--from-level", "6",
         "--to-chain", "adic:1", "--to-level", "3", "--poly", '["3"]'],
        ["graph", "--ring=Z", "--set", "1,2"],
        ["cyclotomic", "12", "--format", "csv", "--format", "plain"],
        ["habiro", "series", "--name", "qinv", "--level", "3", "--check-unit", "--check-unit"],
        ["cyclotomic", "--format", "plain", "12"],
        ["cyclotomic", "--", "12"],
        ["habiro", "eval", "--series", "kz", "--orders", "-1"],
        ["habiro", "eval", "--series", "kz", "--orders"],
        ["qcrt", "witness", "-h"],
    ],
    ids=" ".join,
)
def test_leaf_parser_matches_the_whole_tree(argv, monkeypatch):
    # build_parser(argv) parses a plain command line of a leaf itself and
    # hands any other to the whole argparse tree; the whole tree must parse
    # argv to the same namespace or the same usage error, and run must
    # print the same bytes and exit alike.
    parser, whole = cli.build_parser(argv), cli.build_parser()
    assert _commands(whole) == ["cyclotomic", "pochhammer", "graph", "habiro", "qcrt", "selfcheck"]
    with monkeypatch.context() as patch:
        if argv in GOLDEN_CORPUS:  # parsed without the fallback
            assert isinstance(parser, cli._LeafParser)
            patch.setattr(cli, "_argparse_tree", None)
        assert _parse(parser, argv) == _parse(whole, argv)
    assert _outcome(argv) == _outcome_of_the_whole_tree(argv)


def _items(words: list) -> list:
    """A leaf's words after its path, as [option, value], [flag] and
    [positional] items."""
    items, words = [], iter(words)
    for word in words:
        flag = word == "--check-unit" or not word.startswith("-")
        items.append([word] if flag else [word, next(words)])
    return items


@st.composite
def perturbed_argv(draw):
    """A golden-corpus command line, maybe with --format, then perturbed:
    an option abbreviated or written `--opt=value`, an item repeated,
    dropped or moved (options before the positional), a value made to
    start with "-", or "--", "-h" or an extra word put anywhere."""
    argv = draw(st.sampled_from(GOLDEN_CORPUS))
    size = 2 if argv[0] in ("habiro", "qcrt") else 1
    path, items = argv[:size], _items(argv[size:])
    if draw(st.booleans()):
        items.append(["--format", draw(st.sampled_from(["json", "csv", "plain"]))])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(
            st.sampled_from(
                ["abbreviate", "equals", "repeat", "drop", "move", "dash", "--", "-h", "extra"]
            )
        )
        if kind in ("--", "-h", "extra"):
            word = draw(st.sampled_from(["3", "kz", "x"])) if kind == "extra" else kind
            items.insert(draw(st.integers(0, len(items))), [word])
            continue
        if not items:
            continue
        i = draw(st.integers(0, len(items) - 1))
        item = items[i]
        if kind == "abbreviate" and item[0].startswith("--") and len(item[0]) > 3:
            item[0] = item[0][: draw(st.integers(3, len(item[0]) - 1))]
        elif kind == "equals" and len(item) == 2:
            items[i] = [f"{item[0]}={item[1]}"]
        elif kind == "repeat":
            items.insert(draw(st.integers(0, len(items))), list(item))
        elif kind == "drop":
            del items[i]
        elif kind == "move":
            items.append(items.pop(i))
        elif kind == "dash":
            item[-1] = "-" + item[-1]
    return path + [word for item in items for word in item]


@settings(max_examples=200, deadline=None)
@given(perturbed_argv())
def test_leaf_parser_matches_the_whole_tree_on_perturbed_lines(argv):
    parser = cli.build_parser(argv)
    assert isinstance(parser, cli._LeafParser)
    assert _parse(parser, argv) == _parse(cli.build_parser(), argv)
    assert _outcome(argv) == _outcome_of_the_whole_tree(argv)


HELP_SCREENS = [
    [],
    ["habiro"],
    ["qcrt"],
    ["cyclotomic"],
    ["pochhammer"],
    ["graph"],
    ["habiro", "reduce"],
    ["habiro", "digits"],
    ["habiro", "rho"],
    ["habiro", "series"],
    ["habiro", "eval"],
    ["habiro", "expand"],
    ["qcrt", "split"],
    ["qcrt", "witness"],
    ["selfcheck"],
]

# Prints the --help screen of each argv of a JSON list, after a
# "$ cyclocomp ... --help" line, to a stdout that is not a terminal.
HELP_PRINTER = """
import contextlib, io, json, sys
from cyclocomp.cli import run
for argv in json.loads(sys.argv[1]):
    screen = io.StringIO()
    with contextlib.redirect_stdout(screen):
        try:
            run(argv + ["--help"], screen)
        except SystemExit as exc:
            if exc.code != 0:
                raise
    sys.stdout.write(" ".join(["$ cyclocomp", *argv, "--help"]) + "\\n" + screen.getvalue())
"""

# The screens as printed before the help width was fixed, one fresh
# process per screen, stdout a pipe and COLUMNS unset.
GOLDEN_HELP_FILE = Path(__file__).with_name("golden_help.txt")


@pytest.mark.parametrize("columns", [None, "40", "200"], ids=lambda c: f"COLUMNS={c}")
def test_help_screens_match_the_golden_file(columns):
    env = src_env()
    env.pop("COLUMNS", None)
    if columns is not None:
        env["COLUMNS"] = columns
    proc = subprocess.run(
        [sys.executable, "-S", "-c", HELP_PRINTER, json.dumps(HELP_SCREENS)],
        capture_output=True,
        env=env,
        check=True,
    )
    assert proc.stdout == GOLDEN_HELP_FILE.read_bytes()


def help_screen(argv):
    """The --help screen of argv, printed in process."""
    screen = io.StringIO()
    with contextlib.redirect_stdout(screen), pytest.raises(SystemExit):
        run([*argv, "--help"], screen)
    return screen.getvalue()


LEAVES = [(path, arguments) for path, fn, _, arguments in cli._COMMANDS if fn is not None]


@pytest.mark.parametrize("path, arguments", LEAVES, ids=[" ".join(path) for path, _ in LEAVES])
def test_a_usage_line_breaks_only_between_whole_options(path, arguments):
    """A wrapped usage line opens with an option, never with the metavar
    of the option that ends the line before, so the argparse that wraps
    by word (3.10 to 3.12) and the one that wraps by option (3.13) write
    the same lines."""
    usage = help_screen(path).partition("\n\n")[0].splitlines()
    options = {"-h", *(name for name, _ in (*arguments, cli._FORMAT))}
    for line in usage[1:]:
        assert line.split()[0].strip("[]") in options, line


README_FILE = Path(__file__).parents[1] / "README.md"


def readme_command_rows():
    """The commands of README's "Command line" table, as spelled there."""
    table = README_FILE.read_text().partition("| command | computes |")[2].partition("\n\n")[0]
    return re.findall(r"^\| `([^`]*)` \|", table, re.M)


@pytest.mark.parametrize("path, arguments", LEAVES, ids=[" ".join(path) for path, _ in LEAVES])
def test_the_readme_table_spells_each_leaf_as_its_row(path, arguments):
    (row,) = [r for r in readme_command_rows() if (r + " ").startswith(" ".join(path) + " ")]
    options = [name for name, _ in arguments if name.startswith("--")]
    assert re.findall(r"--[\w-]+", row) == options
    for name, keywords in arguments:
        if "metavar" in keywords:
            assert f"{name} {keywords['metavar']} " in row + " "


# Runs argv and reports its CPU seconds, peak RSS (KiB) and exit code on
# stderr.  The peak a child reports includes the image it was forked from,
# so the CLI is forked from this small interpreter, not from the test
# process.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
cpu = usage.ru_utime + usage.ru_stime
print(cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status), file=sys.stderr)
"""


def run_fresh(*argv):
    """Run the CLI in a new interpreter, as `python -S -m cyclocomp.cli`:
    (exit code, stdout bytes, peak RSS in MiB, CPU seconds)."""
    cli = [sys.executable, "-S", "-m", "cyclocomp.cli", *argv]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, *cli],
        capture_output=True,
        env=src_env(),
        check=True,
    )
    cpu_s, rss_kib, code = proc.stderr.split()[-3:]
    # Linux reports ru_maxrss in KiB
    return int(code), proc.stdout, int(rss_kib) / 1024, float(cpu_s)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
class TestFreshProcess:
    def test_pochhammer_250_memory(self):
        # (q)_250 alone, not (q)_0 ... (q)_250, is kept
        code, out, rss_mib, _ = run_fresh("pochhammer", "250")
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == (
            "2e9f5ce04d5e698b4713a19bea4848bbdea69c218117d0903d9c63adedb42f50"
        )
        assert rss_mib < 40, f"peak RSS {rss_mib:.1f} MiB, budget 40 MiB"

    def test_expand_center_30_memory(self):
        # the same bytes as realising the series mod (q)_300 and expanding
        code, out, rss_mib, _ = run_fresh(
            "habiro", "expand", "--series", "kz", "--center", "30", "--terms", "10"
        )
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == (
            "e9f69ee8daa6033edd88e51ddff321411ca8baf983cea9c5e64fa69b366f4f73"
        )
        assert rss_mib < 30, f"peak RSS {rss_mib:.1f} MiB, budget 30 MiB"

    def test_eval_order_200_takes_the_jet(self):
        # the value at zeta_200 from the jet, not from realising (q)_200
        code, out, rss_mib, cpu_s = run_fresh(
            "habiro", "eval", "--series", "kz", "--orders", "200"
        )
        assert code == 0
        value = kz_value_by_strange_identity(200).to_json_dict()
        assert json.loads(out) == {"level": 200, "series": "kz", "values": {"200": value}}
        assert cpu_s < 0.2, f"{cpu_s:.3f} s CPU, budget 0.2 s"
        assert rss_mib < 25, f"peak RSS {rss_mib:.1f} MiB, budget 25 MiB"

    def test_series_level_200_memory(self):
        # the chain's moduli are the (q)_k store's entries, not copies
        code, out, rss_mib, _ = run_fresh("habiro", "series", "--name", "kz", "--level", "200")
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == (
            "29caae9bd4d22a4b699bd0068ed68785a280d028c6233e8a7a2aa7bfac6d70be"
        )
        assert rss_mib < 85, f"peak RSS {rss_mib:.1f} MiB, budget 85 MiB"


def _leaf(argv: list) -> tuple:
    return next(path for path, fn, *_ in cli._COMMANDS if fn and tuple(argv[: len(path)]) == path)


# One golden-corpus line per leaf in each format, a usage error, a
# violated precondition and a help screen.
ONE_LINE_PER_LEAF = list({_leaf(argv): argv for argv in GOLDEN_CORPUS}.values())
USAGE_ERROR = ["graph", "--ring", "X", "--set", "1"]
VIOLATED_PRECONDITION = [
    "habiro", "rho",
    "--from-chain", "pochhammer", "--from-level", "2",
    "--to-chain", "adic:3", "--to-level", "1",
    "--poly", '["1"]',
]
HELP_SCREEN = ["habiro", "expand", "--help"]
CONTRACT_LINES = [
    *(argv + ["--format", fmt] for argv in ONE_LINE_PER_LEAF for fmt in ("json", "csv", "plain")),
    USAGE_ERROR,
    VIOLATED_PRECONDITION,
    HELP_SCREEN,
]

# Runs `python -m cyclocomp.cli cyclotomic 3` in this process, as runpy
# runs it, with one kernel replaced: a spy that prints whether the
# collector is on and whether more is frozen than at the start (Python
# 3.12 starts with objects frozen) as the leaf calls it, and whether more
# is frozen once main has exited; or a kernel that raises.
MAIN_WITH_A_PATCHED_KERNEL = """
import gc, runpy, sys
from cyclocomp import cyclotomic
original, frozen = cyclotomic.cyclotomic_poly, [gc.get_freeze_count()]
def spy(n):
    frozen.append(gc.get_freeze_count())
    print(gc.isenabled(), frozen[1] > frozen[0], file=sys.stderr)
    return original(n)
def raising(n):
    raise RuntimeError("kernel failed")
cyclotomic.cyclotomic_poly = {"spy": spy, "raising": raising}[sys.argv[1]]
sys.argv = ["cyclocomp", "cyclotomic", "3", "--format", "plain"]
try:
    runpy.run_module("cyclocomp.cli", run_name="__main__")
finally:
    if len(frozen) > 1:
        print(gc.get_freeze_count() > frozen[1], file=sys.stderr)
"""

# Runs the same command line with a collection threshold of 1, which
# starts a collection at every allocation the collector sees, and prints
# the statements of cli.py's module body, imports included, at which one
# started before main ran.
MAIN_UNDER_A_COLLECTION_PROBE = """
import gc, json, linecache, runpy, sys
statements = set()
def on_collection(phase, info):
    frame = sys._getframe()
    while frame and phase == "start":
        code = frame.f_code
        if code.co_filename.endswith("cli.py") and code.co_name in ("main", "<module>"):
            if code.co_name == "<module>":
                statements.add(linecache.getline(code.co_filename, frame.f_lineno).strip())
            break
        frame = frame.f_back
sys.argv = ["cyclocomp", "cyclotomic", "3", "--format", "plain"]
gc.callbacks.append(on_collection)
gc.set_threshold(1)
try:
    runpy.run_module("cyclocomp.cli", run_name="__main__")
finally:
    print(json.dumps(sorted(statements)), file=sys.stderr)
"""


def _python_s(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, env=src_env())


class TestProcessContract:
    # main is the process entry point and is only ever run in a child:
    # its freezes would pin this process's objects.

    @pytest.mark.parametrize("argv", CONTRACT_LINES, ids=" ".join)
    def test_main_prints_what_run_prints(self, argv):
        proc = _python_s("-m", "cyclocomp.cli", *argv)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv, out, err)
        except SystemExit as exc:
            code = exc.code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.getvalue().encode(), err.getvalue().encode()
        )

    def test_every_leaf_and_exit_code_is_covered(self):
        leaves = {path for path, fn, *_ in cli._COMMANDS if fn}
        assert {_leaf(argv) for argv in ONE_LINE_PER_LEAF} == leaves
        assert [invoke(*USAGE_ERROR)[0], invoke(*VIOLATED_PRECONDITION)[0]] == [1, 2]
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()):
            run(HELP_SCREEN, io.StringIO())
        assert exc.value.code == 0

    def test_the_leaf_runs_with_the_collector_on_between_two_freezes(self):
        proc = _python_s("-c", MAIN_WITH_A_PATCHED_KERNEL, "spy")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, b"Phi_3 = q^2 + q + 1\n", b"True True\nTrue\n"
        )

    def test_no_collection_while_the_module_imports(self):
        proc = _python_s("-c", MAIN_UNDER_A_COLLECTION_PROBE)
        assert (proc.returncode, proc.stdout) == (0, b"Phi_3 = q^2 + q + 1\n")
        # only the statements before gc.disable() may start one
        before = {"from __future__ import annotations", "import gc", "import sys"}
        assert set(json.loads(proc.stderr)) <= before

    def test_a_raising_kernel_exits_three_through_main(self):
        proc = _python_s("-c", MAIN_WITH_A_PATCHED_KERNEL, "raising")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, b"", b"error: internal: RuntimeError: kernel failed\n"
        )

    def test_importing_the_module_leaves_the_collector_alone(self):
        probe = (
            "import gc, json; before = [gc.isenabled(), gc.get_freeze_count()]; "
            "import cyclocomp.cli; print(json.dumps([before, [gc.isenabled(), gc.get_freeze_count()]]))"
        )
        proc = _python_s("-c", probe)
        assert proc.returncode == 0
        before, after = json.loads(proc.stdout)
        assert before == after and after[0] is True
