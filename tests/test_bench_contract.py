"""What the benchmark's own tests rely on in the library.

`bench/tests/test_perfbench.py` checks that its checkers reject a
perturbed output, and perturbs four classes with `dataclasses.replace` on
one field each.  They are `polyring.Frozen` values, not dataclasses, and
only they pose as dataclasses, through `polyring._Replaceable`, so a
refactor of `Frozen` could break the benchmark's tests without failing
any here but these.

The trace recorder in `bench/spans.py` patches library names from
outside, and counts a witness check for each `divides` that
`series_realize` calls itself; the last tests here pin those names and
that call pattern, as the benchmark's suite is not part of this one.
"""

import dataclasses
import importlib
import pprint
from fractions import Fraction

import pytest

from cyclocomp import (
    RING_Q,
    RING_Z,
    AdjacencyGraph,
    CommonPrimeCertificate,
    CrtComponents,
    CyclotomicInteger,
    DigitExpansion,
    ExponentVector,
    IntPolynomial,
    KONTSEVICH_ZAGIER_SPEC,
    PochhammerChain,
    RatPolynomial,
    RootTaylorSeries,
    TruncatedElement,
    UnitCertificate,
)

Q = IntPolynomial([0, 1])
ONE = IntPolynomial.one()
ZETA = CyclotomicInteger(4, [0, 1])
CHAIN = PochhammerChain()

# (value, the field the benchmark changes, its new value, the value built directly)
REPLACED = [
    (TruncatedElement(CHAIN, 2, Q), "rep", ONE, TruncatedElement(CHAIN, 2, ONE)),
    (
        RootTaylorSeries(4, 1, (ZETA, ZETA)),
        "coeffs",
        (ZETA, -ZETA),
        RootTaylorSeries(4, 1, (ZETA, -ZETA)),
    ),
    (UnitCertificate(Q, ONE, 1), "u", -Q, UnitCertificate(-Q, ONE, 1)),
    (CommonPrimeCertificate(2, 4, 2), "exponent", 3, CommonPrimeCertificate(2, 4, 3)),
]


@pytest.mark.parametrize(
    "value, field, new, direct", REPLACED, ids=["element", "taylor", "unit", "prime"]
)
def test_dataclasses_replace_matches_the_constructor(value, field, new, direct):
    out = dataclasses.replace(value, **{field: new})
    assert type(out) is type(direct) and out == direct and repr(out) == repr(direct)
    assert out != value and getattr(value, field) is not new  # the original is untouched


LONG = IntPolynomial(range(1, 30))

# One value of each of the 13 value classes, its repr wider than a pprint line.
WIDE = [
    LONG,
    RatPolynomial([Fraction(1, k) for k in range(1, 20)]),
    CyclotomicInteger(31, range(30)),
    RING_Z,
    AdjacencyGraph(frozenset(range(1, 40)), RING_Q),
    UnitCertificate(LONG, -LONG, 1),
    CommonPrimeCertificate(2, 2**300, 300),
    TruncatedElement(CHAIN, 30, LONG),
    DigitExpansion(CHAIN, (ONE, Q, LONG)),
    KONTSEVICH_ZAGIER_SPEC,
    RootTaylorSeries(4, 4, (ZETA,) * 5),
    ExponentVector({n: 1 for n in range(1, 30)}),
    CrtComponents({1: LONG.to_rational()}),
]
WIDE_IDS = [type(value).__name__ for value in WIDE]


@pytest.mark.parametrize("value", WIDE, ids=WIDE_IDS)
def test_pprint_writes_the_repr_of_a_wide_value(value):
    # pprint reads __dataclass_params__ of whatever is_dataclass accepts
    assert len(repr(value)) > 80
    assert pprint.pformat(value) == repr(value)


def test_only_the_replaced_classes_pose_as_dataclasses():
    assert len(set(WIDE_IDS)) == 13
    assert [name for name, value in zip(WIDE_IDS, WIDE) if dataclasses.is_dataclass(value)] == [
        "UnitCertificate", "CommonPrimeCertificate", "TruncatedElement", "RootTaylorSeries",
    ]


@pytest.mark.parametrize("value", [ExponentVector({1: 2}), LONG], ids=["exponents", "poly"])
def test_dataclasses_replace_refuses_the_other_values(value):
    with pytest.raises(TypeError, match="dataclass instances"):
        dataclasses.replace(value)


def test_series_realize_checks_one_witness_per_term(monkeypatch):
    # the recorder wraps every binding of polyring.divides and the named
    # specs' terms; a traced run needs as many witness checks as terms
    from cyclocomp import NAMED_SERIES, completion, polyring, series_realize

    assert NAMED_SERIES["kz"] is KONTSEVICH_ZAGIER_SPEC
    assert completion.divides is polyring.divides
    terms, checks = [], []
    divides, term = completion.divides, KONTSEVICH_ZAGIER_SPEC.term
    monkeypatch.setattr(completion, "divides", lambda g, a: checks.append(g) or divides(g, a))
    # the spec is a Frozen value: the recorder sets its term as this does
    object.__setattr__(KONTSEVICH_ZAGIER_SPEC, "term", lambda n: terms.append(n) or term(n))
    try:
        series_realize(KONTSEVICH_ZAGIER_SPEC, PochhammerChain(), 5)
    finally:
        object.__setattr__(KONTSEVICH_ZAGIER_SPEC, "term", term)
    assert terms == [0, 1, 2, 3, 4, 5]
    assert len(checks) == 6


# (module, name) of every function the recorder wraps, `cyclotomic.is_adjacent`
# and `cli.build_parser` included
RECORDED_FUNCTIONS = [
    ("polyring", "resultant"),
    ("polyring", "subresultant_bezout"),
    ("polyring", "rational_xgcd"),
    ("polyring", "divides"),
    ("cyclotomic", "cyclotomic_poly"),
    ("cyclotomic", "pochhammer"),
    ("cyclotomic", "connected_components"),
    ("cyclotomic", "cyclotomic_coprimality"),
    ("cyclotomic", "congruence_check"),
    ("cyclotomic", "save_cyclotomic_cache"),
    ("completion", "series_realize"),
    ("completion", "reduce"),
    ("rootexp", "taylor_at_root"),
    ("rootexp", "evaluate_at_root"),
    ("qcrt", "crt_split"),
    ("qcrt", "crt_reconstruct"),
    ("qcrt", "crt_idempotents"),
    ("cyclotomic", "is_adjacent"),
    ("cli", "build_parser"),
]


@pytest.mark.parametrize(
    "module, name", RECORDED_FUNCTIONS, ids=[f"{m}.{n}" for m, n in RECORDED_FUNCTIONS]
)
def test_recorded_functions_exist(module, name):
    fn = getattr(importlib.import_module(f"cyclocomp.{module}"), name)
    assert callable(fn) and fn.__name__ == name


@pytest.mark.parametrize(
    "owner, name",
    [
        ("polyring.IntPolynomial", "__mul__"),
        ("polyring.IntPolynomial", "__rmul__"),
        ("polyring.IntPolynomial", "__divmod__"),
        ("polyring.RatPolynomial", "__mul__"),
        ("polyring.RatPolynomial", "__rmul__"),
        ("polyring.RatPolynomial", "__divmod__"),
        ("completion.FiltrationChain", "modulus"),
        ("rootexp.CyclotomicInteger", "__init__"),
    ],
)
def test_recorded_methods_exist(owner, name):
    module, cls = owner.split(".")
    method = getattr(getattr(importlib.import_module(f"cyclocomp.{module}"), cls), name)
    assert callable(method) and method is not getattr(object, name, None)


def test_cli_run_calls_the_hooks_the_recorder_wraps(monkeypatch):
    # The recorder times cli.parse_s over cli.build_parser(argv) and the
    # returned parser's parse_args(argv), which it rebinds on that object,
    # and cli.dispatch_s over the namespace's fn, which it rebinds on the
    # namespace; a hook run bypasses would silently read 0.
    import io

    from cyclocomp import cli
    from test_acceptance import GOLDEN_CORPUS

    argv = ["habiro", "series", "--name", "kz", "--level", "6"]
    assert argv in GOLDEN_CORPUS
    calls, build = [], cli.build_parser

    def build_parser(args):
        calls.append(("build_parser", args))
        parser = build(args)
        parse = parser.parse_args

        def parse_args(args):
            calls.append(("parse_args", args))
            namespace = parse(args)
            fn = namespace.fn
            namespace.fn = lambda *a: calls.append(("fn", fn)) or fn(*a)
            return namespace

        parser.parse_args = parse_args
        return parser

    expected = io.StringIO()
    assert cli.run(argv, expected) == 0
    monkeypatch.setattr(cli, "build_parser", build_parser)
    out = io.StringIO()
    assert cli.run(argv, out) == 0
    assert out.getvalue() == expected.getvalue()
    assert calls == [
        ("build_parser", argv),
        ("parse_args", argv),
        ("fn", cli._cmd_habiro_series),
    ]
