"""Command-line front end.

Every subcommand takes --format {json|csv|plain}; JSON output has sorted
keys and serializes every coefficient as a decimal string, so identical
invocations produce byte-identical output.  Precision (truncation level)
is always explicit except where a command's result is provably
independent of it (series evaluation, auto-leveled expansions).

Exit codes: 0 success, 1 usage error, 2 violated mathematical
precondition, 3 internal invariant failure.

--help wraps at a fixed 78 columns, whatever the terminal or $COLUMNS,
so every help screen is byte-identical in every environment on Python
3.10 to 3.13.
"""

from __future__ import annotations

import gc
import sys

if __name__ == "__main__":  # the process entry point: no collection until main
    gc.disable()

import math
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, TextIO

# Start-up imports only the polynomial and cyclotomic layers; the
# completion, root and CRT layers are imported by the argument types and
# subcommands that use them.
from . import cyclotomic
from .errors import NonUnitLeadingCoefficient, PrecisionContractError
from .polyring import DECIMAL_INTEGER, Frozen, IntPolynomial, RatPolynomial, divides

if TYPE_CHECKING:
    from .completion import FiltrationChain, TruncatedElement
    from .qcrt import ExponentVector

# sorted(completion.NAMED_SERIES), spelled out so that building the parser
# does not import the completion layer
SERIES_NAMES = ("kz", "qinv")


class UsageError(Exception):
    pass


class _Result(Frozen):
    """What a subcommand computed, ready for every output format: the JSON
    value (None for a verdict printed alike in every format), the CSV
    header line and rows, the newline-terminated plain text, the exit
    status, and the newline-terminated lines for stderr, written after
    the output."""

    __slots__ = _fields = ("payload", "header", "rows", "plain", "code", "errors")

    def __init__(
        self, payload: Any, header: str, rows: list, plain: str, code: int = 0, errors: str = ""
    ) -> None:
        self._init(payload, header, rows, plain, code, errors)


def _emit(out: TextIO, fmt: str, result: _Result) -> None:
    if result.payload is None or fmt == "plain":
        out.write(result.plain)
    elif fmt == "json":
        import json  # only where JSON is read or written; kept out of start-up

        out.write(json.dumps(result.payload, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    else:
        out.write(result.header + "\n")
        for row in result.rows:
            out.write(",".join(str(x) for x in row) + "\n")


def _poly_result(payload, poly, plain: str, code: int = 0) -> _Result:
    return _Result(payload, "index,coefficient", list(enumerate(poly.to_json())), plain, code)


def _element_result(elt: TruncatedElement) -> _Result:
    plain = f"{elt.rep} (mod g_{elt.level} on {elt.chain.label})\n"
    return _poly_result(elt.to_json_dict(), elt.rep, plain)


# -- argument types -------------------------------------------------------------
#
# Every user-supplied value is parsed and range-checked here, at the
# parser, so a bad value exits 1 as a usage error instead of reaching
# the library.  A rejected value sends the command line to the argparse
# tree, which words the error; only then is argparse imported.


def _type_error(message: str) -> Exception:
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _int_at_least(text: str, least: int) -> int:
    if not DECIMAL_INTEGER.fullmatch(text) or int(text) < least:
        raise _type_error(f"expected an integer >= {least}, got {text!r}")
    return int(text)


def _level(text: str) -> int:
    return _int_at_least(text, 0)


def _positive(text: str) -> int:
    return _int_at_least(text, 1)


def _positive_list(text: str) -> list[int]:
    return [_positive(x) for x in text.split(",")]


def _parse_poly(text: str, cls=IntPolynomial):
    import json

    try:
        return cls.from_json(json.loads(text))
    except (ValueError, TypeError) as exc:
        raise _type_error(f"bad polynomial JSON {text!r}: {exc}") from exc


def _parse_chain(spec: str) -> Callable[["Budgets"], FiltrationChain]:
    """pochhammer | adic:<n> | adic:<coeff json> | product:<n1,n2,...>

    Returns a function of the budgets that checks every cyclotomic index
    against max_order before it builds Phi_n, so no Phi_n is built while
    the arguments are parsed, before --config is read."""
    from .completion import AdicChain, PochhammerChain, ProductChain

    if spec == "pochhammer":
        return lambda budgets: PochhammerChain()
    if spec.startswith("adic:"):
        arg = spec[len("adic:") :]
        if arg.startswith("["):
            try:
                chain = AdicChain(_parse_poly(arg))
            except NonUnitLeadingCoefficient as exc:
                raise _type_error(f"bad adic chain {spec!r}: {exc}") from exc
            return lambda budgets: chain
        n = _positive(arg)
        return lambda budgets: AdicChain(cyclotomic.cyclotomic_poly(budgets.check_order(n)))
    if spec.startswith("product:"):
        indices = _positive_list(spec[len("product:") :])
        return lambda budgets: ProductChain([budgets.check_order(n) for n in indices])
    raise _type_error(f"unknown chain spec {spec!r}")


def _parse_ring(name: str) -> cyclotomic.RingDescriptor:
    if name == "Z":
        return cyclotomic.RING_Z
    if name == "Q":
        return cyclotomic.RING_Q
    if name.startswith("Z1/"):
        return cyclotomic.ring_z_inverted(_positive(name[3:]))
    raise _type_error(f"unknown ring {name!r} (expected Z, Q, or Z1/m)")


def _parse_lambda(text: str) -> ExponentVector:
    from .qcrt import ExponentVector

    pairs = {}
    for item in text.split(","):
        n, sep, e = item.partition(":")
        if not sep:
            raise _type_error(f"bad exponent vector {text!r} (expected n:e,n:e,...)")
        n = _positive(n)
        if n in pairs:
            raise _type_error(f"index {n} repeated in exponent vector {text!r}")
        pairs[n] = _positive(e)
    return ExponentVector(pairs)


class Budgets:
    """Guardrails from an optional config file; they never supply
    defaults, only reject oversized requests."""

    def __init__(self, max_level: Optional[int] = None, max_order: Optional[int] = None):
        self.max_level = max_level
        self.max_order = max_order

    @staticmethod
    def load(path: Optional[str]) -> "Budgets":
        if path is None:
            return Budgets()
        import json

        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"config {path!r} must hold a JSON object")
        unknown = sorted(set(data) - {"max_level", "max_order"})
        if unknown:
            raise UsageError(f"config {path!r} has unknown keys {unknown}")
        for key in ("max_level", "max_order"):
            value = data.get(key)
            # bool is an int subclass; a budget of `true` is not a number
            if value is not None and (type(value) is not int or value < 0):
                raise UsageError(
                    f"config {key} must be a non-negative integer or null, got {value!r}"
                )
        return Budgets(data.get("max_level"), data.get("max_order"))

    def check_level(self, level: int) -> int:
        if self.max_level is not None and level > self.max_level:
            raise UsageError(f"level {level} exceeds configured budget {self.max_level}")
        return level

    def check_order(self, order: int) -> int:
        if self.max_order is not None and order > self.max_order:
            raise UsageError(f"order {order} exceeds configured budget {self.max_order}")
        return order


# -- subcommand implementations ---------------------------------------------


def _cmd_cyclotomic(args, budgets: Budgets) -> _Result:
    n = budgets.check_order(args.n)
    poly = cyclotomic.cyclotomic_poly(n)
    return _poly_result({"coeffs": poly.to_json(), "n": n}, poly, f"Phi_{n} = {poly}\n")


def _cmd_pochhammer(args, budgets: Budgets) -> _Result:
    n = budgets.check_level(args.n)
    poly = cyclotomic.pochhammer(n)
    return _poly_result({"coeffs": poly.to_json(), "n": n}, poly, f"(q)_{n} = {poly}\n")


def _cmd_graph(args, budgets: Budgets) -> _Result:
    desc, members = args.ring, args.set
    budgets.check_order(max(members))
    comps = cyclotomic.connected_components(desc, members)
    return _Result(
        {"components": comps, "ring": desc.name, "set": sorted(set(members))},
        "component,member",
        [(i, m) for i, comp in enumerate(comps) for m in comp],
        f"{len(comps)} component(s) over {desc.name}:\n"
        + "".join("  " + " ".join(map(str, comp)) + "\n" for comp in comps),
    )


def _cmd_habiro_reduce(args, budgets: Budgets) -> _Result:
    from . import completion

    level = budgets.check_level(args.level)
    return _element_result(completion.reduce(args.poly, args.chain(budgets), level))


def _cmd_habiro_digits(args, budgets: Budgets) -> _Result:
    from . import completion

    level = budgets.check_level(args.level)
    elt = completion.reduce(args.poly, args.chain(budgets), level)
    digits = completion.to_digits(elt).digits
    return _Result(
        {
            "chain": elt.chain.to_json_dict(),
            "digits": [d.to_json() for d in digits],
            "level": level,
        },
        "digit,index,coefficient",
        [(n, i, c) for n, d in enumerate(digits) for i, c in enumerate(d.to_json())],
        "".join(f"a_{n} = {d}\n" for n, d in enumerate(digits)),
    )


def _cmd_habiro_rho(args, budgets: Budgets) -> _Result:
    from . import completion

    budgets.check_level(max(args.from_level, args.to_level))
    from_chain, to_chain = args.from_chain(budgets), args.to_chain(budgets)
    elt = completion.reduce(args.poly, from_chain, args.from_level)
    return _element_result(completion.rho(elt, to_chain, args.to_level))


def _cmd_habiro_series(args, budgets: Budgets) -> _Result:
    from . import completion

    if args.check_unit and args.name != "qinv":
        raise UsageError("--check-unit only applies to the qinv series")
    level = budgets.check_level(args.level)
    chain = completion.PochhammerChain()
    elt = completion.series_realize(completion.NAMED_SERIES[args.name], chain, level)
    if not args.check_unit:
        return _element_result(elt)
    q_elt = completion.reduce(IntPolynomial.monomial(1, 1), chain, level)
    one = completion.reduce(IntPolynomial.one(), chain, level)
    ok = (q_elt * elt) == one
    verdict = f"q*inv == 1 mod (q)_{level}: {'true' if ok else 'false'}\n"
    return _Result(None, "", [], verdict, 0 if ok else 3)


def _cmd_habiro_eval(args, budgets: Budgets) -> _Result:
    from . import completion, rootexp

    for n in args.orders:
        budgets.check_order(n)
    # Phi_n divides g_m for m >= n, so level n fixes the value at zeta_n:
    # it is c_0 of the series' jet at zeta_n, which sums the terms up to
    # level n in Z[zeta_n].  The level used is the deepest order.
    level = budgets.check_level(max(args.orders))
    orders = sorted(set(args.orders))
    spec = completion.NAMED_SERIES[args.series]
    values = [(n, rootexp.expand_series(spec, n, 0).coeffs[0]) for n in orders]
    return _Result(
        {
            "level": level,
            "series": args.series,
            "values": {str(n): v.to_json_dict() for n, v in values},
        },
        "order,index,coefficient",
        [(n, i, c) for n, v in values for i, c in enumerate(v.to_json_dict()["coeffs"])],
        "".join(f"order {n}: {v}\n" for n, v in values),
    )


def _cmd_habiro_expand(args, budgets: Budgets) -> _Result:
    from . import completion, rootexp

    budgets.check_order(args.center)
    budgets.check_level(args.center * args.terms)
    spec = completion.NAMED_SERIES[args.series]
    series = rootexp.expand_series(spec, args.center, args.terms - 1)
    return _Result(
        series.to_json_dict(),
        "j,coefficient",
        [(j, ";".join(str(x) for x in c.coeffs)) for j, c in enumerate(series.coeffs)],
        "".join(f"c_{j} = {c}\n" for j, c in enumerate(series.coeffs)),
    )


def _cmd_qcrt_split(args, budgets: Budgets) -> _Result:
    from . import qcrt

    lam = args.lam
    for n, e in lam.exponents:
        budgets.check_order(n)
        budgets.check_level(e)
    comps = qcrt.crt_split(args.poly, lam).components
    return _Result(
        {
            "components": {str(n): c.to_json() for n, c in comps},
            "lambda": {str(n): e for n, e in lam.exponents},
        },
        "n,index,coefficient",
        [(n, i, c) for n, comp in comps for i, c in enumerate(comp.to_json())],
        "".join(f"mod Phi_{n}^{lam.exponent(n)}: {comp}\n" for n, comp in comps),
    )


def _checked_witness(level: int) -> tuple[RatPolynomial, bool, bool]:
    """The kernel witness at a level, and whether it is 0 mod (q-1)^level
    and 1 mod (q+1)^level.  With w = N/d, N and d integral, that is whether
    the monic (q-1)^level divides N and (q+1)^level divides N - d over Z."""
    from .qcrt import rho_q_kernel_witness

    w, phi = rho_q_kernel_witness(level), cyclotomic.cyclotomic_poly
    num, den = IntPolynomial(w.numerators), IntPolynomial.constant(w.denominator)
    return w, divides(phi(1) ** level, num), divides(phi(2) ** level, num - den)


def _cmd_qcrt_witness(args, budgets: Budgets) -> _Result:
    level = budgets.check_level(args.level)
    w, zero_check, one_check = _checked_witness(level)
    return _poly_result(
        {
            "checks": {
                "one_mod_(q+1)^N": one_check,
                "zero_mod_(q-1)^N": zero_check,
            },
            "level": level,
            "witness": w.to_json(),
        },
        w,
        f"witness = {w}\n"
        f"zero mod (q-1)^{level}: {str(zero_check).lower()}\n"
        f"one mod (q+1)^{level}: {str(one_check).lower()}\n",
        0 if zero_check and one_check else 3,
    )


# -- selfcheck ----------------------------------------------------------------


def _selfcheck_suite() -> list[tuple[str, bool, Optional[str]]]:
    """(name, passed, error) per check: error is "<ExceptionType>:
    <message>" for a check that raised, which counts as failed, else None."""
    from . import completion, qcrt, rootexp
    from .completion import AdicChain, PochhammerChain, ProductChain

    state = 0x5EED

    def randint(lo: int, hi: int) -> int:
        """A seeded draw from [lo, hi]: the top half of a 64-bit LCG (Knuth's MMIX)."""
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return lo + ((state >> 32) * (hi - lo + 1) >> 32)

    results: list[tuple[str, bool, Optional[str]]] = []

    def check(name: str, fn) -> None:
        try:
            results.append((name, bool(fn()), None))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def product_law():
        for n in range(1, 41):
            prod = IntPolynomial.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic.cyclotomic_poly(d)
            if prod != IntPolynomial.monomial(1, n) - IntPolynomial.one():
                return False
        return True

    check("cyclotomic_product_law_n<=40", product_law)

    check(
        "cyclotomic_degree_is_phi_n<=40",
        lambda: all(
            cyclotomic.cyclotomic_poly(n).degree
            == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            for n in range(1, 41)
        ),
    )

    check(
        "c_value_symmetry_n<=30",
        lambda: all(
            cyclotomic.c_value(m, n) == cyclotomic.c_value(n, m)
            for m in range(1, 31)
            for n in range(1, 31)
        ),
    )

    def digit_roundtrip():
        chain = PochhammerChain()
        for _ in range(25):
            f = IntPolynomial([randint(-99, 99) for _ in range(randint(0, 40))])
            a = completion.reduce(f, chain, 10)
            if completion.from_digits(completion.to_digits(a), 10) != a:
                return False
        return True

    check("digit_roundtrip_seeded", digit_roundtrip)

    def qinv_identity():
        chain = PochhammerChain()
        for n in range(1, 13):
            inv = completion.series_realize(completion.Q_INVERSE_SPEC, chain, n)
            q_elt = completion.reduce(IntPolynomial.monomial(1, 1), chain, n)
            if q_elt * inv != completion.reduce(IntPolynomial.one(), chain, n):
                return False
        return True

    check("q_inverse_identity_n<=12", qinv_identity)

    def coprimality():
        for m in range(1, 21):
            for n in range(m + 1, 21):
                cert = cyclotomic.cyclotomic_coprimality(m, n)
                unit = isinstance(cert, cyclotomic.UnitCertificate)
                if unit != (cyclotomic.c_value(m, n) == 1):
                    return False
        return True

    check("coprimality_dichotomy_n<=20", coprimality)

    def tau_sigma():
        chain = PochhammerChain()
        for _ in range(10):
            f = IntPolynomial([randint(-50, 50) for _ in range(randint(1, 30))])
            a = completion.reduce(f, chain, 8)
            for n in range(1, 9):
                t = rootexp.taylor_at_root(a, n, 0)
                if t.coeffs[0] != rootexp.evaluate_at_root(a, n):
                    return False
        return True

    check("taylor_matches_evaluation", tau_sigma)

    def crt_roundtrip():
        lam = qcrt.ExponentVector({1: 2, 2: 1, 3: 2})
        for _ in range(10):
            pairs = [(randint(-9, 9), randint(1, 9)) for _ in range(8)]
            den = math.lcm(*(d for _, d in pairs))
            f = RatPolynomial([n * (den // d) for n, d in pairs], den)
            c = qcrt.crt_split(f, lam)
            g = qcrt.crt_reconstruct(c, lam)
            if (f - g) % lam.modulus() != RatPolynomial.zero():
                return False
        return True

    check("crt_roundtrip_seeded", crt_roundtrip)

    def witnesses():
        for n in range(1, 4):
            w, zero_check, one_check = _checked_witness(n)
            if w.is_zero or not (zero_check and one_check):
                return False
        return True

    check("rational_kernel_witness_n<=3", witnesses)

    def hom_law():
        chains = [
            PochhammerChain(),
            AdicChain(cyclotomic.cyclotomic_poly(2)),
            ProductChain([1, 2, 3]),
        ]
        for chain in chains:
            for _ in range(20):
                f = IntPolynomial([randint(-9, 9) for _ in range(randint(0, 12))])
                g = IntPolynomial([randint(-9, 9) for _ in range(randint(0, 12))])
                k = randint(0, 6)
                fr = completion.reduce(f, chain, k)
                gr = completion.reduce(g, chain, k)
                if fr * gr != completion.reduce(f * g, chain, k):
                    return False
                if fr + gr != completion.reduce(f + g, chain, k):
                    return False
        return True

    check("reduce_is_ring_homomorphism", hom_law)

    return results


def _cmd_selfcheck(args, budgets: Budgets) -> _Result:
    results = _selfcheck_suite()
    return _Result(
        {name: ok for name, ok, _ in results},
        "check,result",
        [(name, "ok" if ok else "FAIL") for name, ok, _ in results],
        "".join(f"{'ok  ' if ok else 'FAIL'} {name}\n" for name, ok, _ in results),
        0 if all(ok for _, ok, _ in results) else 3,
        "".join(
            f"error: internal: {name}: {error}\n" for name, _, error in results if error is not None
        ),
    )


# -- parser / dispatcher -------------------------------------------------------


def _required_positive(**keywords: Any) -> dict:
    return {"type": _positive, "required": True, **keywords}


_FORMAT = ("--format", {"choices": ("json", "csv", "plain"), "default": "json"})

_REQUIRED_CHAIN_LEVEL_POLY = (
    ("--chain", {"type": _parse_chain, "required": True}),
    ("--level", {"type": _level, "required": True}),
    ("--poly", {"type": _parse_poly, "required": True}),
)

# The command tree in help order, one row per group and leaf: (path,
# handler, help, arguments), a group's handler None, each argument a
# (name, add_argument keywords) pair.  Every leaf also takes _FORMAT.
_COMMANDS = (
    (
        ("cyclotomic",),
        _cmd_cyclotomic,
        "n-th cyclotomic polynomial",
        (("n", {"type": _positive}),),
    ),
    (
        ("pochhammer",),
        _cmd_pochhammer,
        "q-Pochhammer product (q)_n",
        (("n", {"type": _level}),),
    ),
    (
        ("graph",),
        _cmd_graph,
        "adjacency components of an index set",
        (
            ("--ring", {"type": _parse_ring, "required": True, "help": "Z, Q, or Z1/m"}),
            (
                "--set",
                {"type": _positive_list, "required": True, "help": "comma-separated vertices"},
            ),
        ),
    ),
    (("habiro",), None, "truncated completion arithmetic", ()),
    (
        ("habiro", "reduce"),
        _cmd_habiro_reduce,
        "canonical remainder at a level",
        _REQUIRED_CHAIN_LEVEL_POLY,
    ),
    (
        ("habiro", "digits"),
        _cmd_habiro_digits,
        "unique digit expansion",
        _REQUIRED_CHAIN_LEVEL_POLY,
    ),
    (
        ("habiro", "rho"),
        _cmd_habiro_rho,
        "restriction to a coarser chain",
        (
            ("--from-chain", {"type": _parse_chain, "required": True, "metavar": "C"}),
            ("--from-level", {"type": _level, "required": True, "metavar": "K"}),
            ("--to-chain", {"type": _parse_chain, "required": True, "metavar": "D"}),
            ("--to-level", {"type": _level, "required": True, "metavar": "L"}),
            ("--poly", {"type": _parse_poly, "required": True}),
        ),
    ),
    (
        ("habiro", "series"),
        _cmd_habiro_series,
        "realize a named series at a level",
        (
            ("--name", {"choices": SERIES_NAMES, "required": True}),
            ("--level", {"type": _level, "required": True}),
            ("--check-unit", {"action": "store_true"}),
        ),
    ),
    (
        ("habiro", "eval"),
        _cmd_habiro_eval,
        "values at roots of unity",
        (
            ("--series", {"choices": SERIES_NAMES, "required": True}),
            ("--orders", {"type": _positive_list, "required": True}),
        ),
    ),
    (
        ("habiro", "expand"),
        _cmd_habiro_expand,
        "Taylor expansion at a root of unity",
        (
            ("--series", {"choices": SERIES_NAMES, "required": True}),
            ("--center", _required_positive(metavar="N", help="order of the root")),
            ("--terms", _required_positive(metavar="J", help="number of coefficients")),
        ),
    ),
    (("qcrt",), None, "rational CRT splitting", ()),
    (
        ("qcrt", "split"),
        _cmd_qcrt_split,
        "componentwise remainders",
        (
            (
                "--lambda",
                {"dest": "lam", "type": _parse_lambda, "required": True, "help": "n:e,n:e,..."},
            ),
            ("--poly", {"type": partial(_parse_poly, cls=RatPolynomial), "required": True}),
        ),
    ),
    (
        ("qcrt", "witness"),
        _cmd_qcrt_witness,
        "kernel witness for restriction over Q",
        (("--level", _required_positive()),),
    ),
    (("selfcheck",), _cmd_selfcheck, "run the invariant suite", ()),
)


class _LeafParser:
    """The parser of a command line that opens with a leaf's path, driven
    by that leaf's _COMMANDS row.  It accepts the leaf's positional, its
    store_true flags and exact `--option value` pairs of its own options
    and --format, each at most once and no value starting with "-", and
    returns argparse's namespace for them.  Any other command line (help,
    an abbreviation, `--opt=value`, a repeat, `--`, an extra word, a
    missing required option, a value its type or choices reject) goes to
    the whole argparse tree, which prints the help screen or usage
    error."""

    def __init__(self, path: tuple, fn: Callable, arguments: tuple) -> None:
        self.path, self.fn, self.arguments = path, fn, (*arguments, _FORMAT)

    def parse_args(self, argv: Sequence[str]) -> Any:
        namespace = self._namespace(argv[len(self.path) :])
        return namespace if namespace is not None else _argparse_tree().parse_args(argv)

    def _namespace(self, words: Sequence[str]) -> Optional[SimpleNamespace]:
        options = dict(self.arguments)
        positionals = [name for name in options if not name.startswith("-")]
        given: dict[str, Any] = {}
        words = iter(words)
        for word in words:
            if not word.startswith("-"):
                if not positionals:
                    return None
                given[positionals.pop(0)] = word
            elif word in given or word not in options:
                return None
            elif options[word].get("action") == "store_true":
                given[word] = True
            else:
                given[word] = value = next(words, "-")  # a missing value reads as "-"
                if value.startswith("-"):
                    return None
        values: dict[str, Any] = {"config": None, "command": self.path[0]}
        if len(self.path) > 1:
            values["subcommand"] = self.path[1]
        for name, keywords in self.arguments:
            dest = keywords.get("dest", name.lstrip("-").replace("-", "_"))
            if keywords.get("action") == "store_true":
                values[dest] = name in given
            elif name not in given:
                if keywords.get("required") or not name.startswith("-"):  # a positional
                    return None
                values[dest] = keywords.get("default")
            else:
                try:
                    value = keywords.get("type", str)(given[name])
                except Exception:  # argparse words the error, or raises it again
                    return None
                if "choices" in keywords and value not in keywords["choices"]:
                    return None
                values[dest] = value
        values["fn"] = self.fn
        return SimpleNamespace(**values)


def _argparse_tree() -> Any:
    """The whole command tree as an argparse parser: the help screens and
    usage errors.  Errors raise UsageError instead of exiting.  Help wraps
    at the width argparse picks when stdout is not a terminal and $COLUMNS
    is unset; a fixed width also spares argparse a terminal-size query
    (and the import of shutil) at every add_argument."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            super().__init__(formatter_class=partial(argparse.HelpFormatter, width=78), **kwargs)

        def error(self, message):
            raise UsageError(message)

    # the module docstring less its last paragraph, which is about --help
    description = __doc__ and __doc__.rpartition("\n\n")[0]
    parser = _Parser(prog="cyclocomp", description=description)
    parser.add_argument("--config", help="JSON config file with budget guardrails")
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, fn, text, arguments in _COMMANDS:
        p = subparsers[path[:-1]].add_parser(path[-1], help=text)
        if fn is None:
            subparsers[path] = p.add_subparsers(dest="subcommand", required=True)
            continue
        p.set_defaults(fn=fn)
        for name, keywords in (*arguments, _FORMAT):
            p.add_argument(name, **keywords)
    return parser


def build_parser(argv: Optional[Sequence[str]] = None) -> Any:
    """The parser of a command line, an object whose parse_args(argv)
    returns the namespace run dispatches.  When argv opens with a leaf's
    path, it is a _LeafParser of that leaf's row, so a plain command line
    never loads argparse; any other argv (the root's and a group's help
    screens, a leading --config, an unknown or partial command), and argv
    None, get the whole argparse tree."""
    if argv is not None:
        for path, fn, _, arguments in _COMMANDS:
            if fn is not None and tuple(argv[: len(path)]) == path:
                return _LeafParser(path, fn, arguments)
    return _argparse_tree()


def run(argv: list[str], out: TextIO, err: TextIO = sys.stderr) -> int:
    try:
        parser = build_parser(argv)
        args = parser.parse_args(argv)
        budgets = Budgets.load(args.config)
        result = args.fn(args, budgets)
        _emit(out, args.format, result)
        if result.errors:
            err.write(result.errors)
    except UsageError as exc:
        err.write(f"error: usage: {exc}\n")
        return 1
    except PrecisionContractError as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except Exception as exc:  # internal invariant failure
        err.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return 3
    return result.code


def main() -> None:
    """The process entry point; in-process callers use `run`.

    A CLI process makes most of its objects while it starts up, and they
    live until it exits, so the cyclic collector would only walk them
    again and again.  `python -m cyclocomp.cli` disables the collector
    before its imports; main freezes what start-up made and enables the
    collector for the subcommand, which still collects its own cycles.
    On the way out, whether run returned or a help screen left it by
    SystemExit, main freezes again, so the interpreter's shutdown
    collections skip everything made before.  The collector is frozen,
    not disabled for good, and the process ends by sys.exit, so atexit
    handlers and the flush of its streams still run.  The `cyclocomp`
    console script imports this module before it calls main, so it gets
    only the two freezes.
    """
    gc.freeze()
    gc.enable()
    try:
        sys.exit(run(sys.argv[1:], sys.stdout))
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
