"""Span recorders for the traced run, installed from outside the program.

`install` replaces every binding through which `cyclocomp` looks up a
measured function (class attributes, module globals in every loaded
`cyclocomp` module, and the `term` functions held by `NAMED_SERIES`)
with a wrapper that records a span: name, start, end, parent span and
job id.  Spans stay in memory and are written out when the run ends.
`uninstall` puts every original binding back.  Untraced runs never import
this module.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("polyring.mul.calls", "count"),
    ("polyring.mul.self_s", "s"),
    ("polyring.mul.coef_products", "count"),
    ("polyring.mul.max_bits", "bit"),
    ("polyring.divmod.calls", "count"),
    ("polyring.divmod.self_s", "s"),
    ("polyring.divmod.coef_ops", "count"),
    ("polyring.prs.calls", "count"),
    ("polyring.prs.self_s", "s"),
    ("cyclotomic.cyclotomic_poly.calls", "count"),
    ("cyclotomic.cyclotomic_poly.misses", "count"),
    ("cyclotomic.cyclotomic_poly.self_s", "s"),
    ("cyclotomic.pochhammer.calls", "count"),
    ("cyclotomic.pochhammer.total_s", "s"),
    ("cyclotomic.adjacency_tests", "count"),
    ("cyclotomic.components.total_s", "s"),
    ("cyclotomic.coprimality.total_s", "s"),
    ("cyclotomic.cache_load_s", "s"),
    ("cyclotomic.cache_save_s", "s"),
    ("cyclotomic.cache_entries", "count"),
    ("completion.series_realize.calls", "count"),
    ("completion.series_realize.self_s", "s"),
    ("completion.series_realize.total_s", "s"),
    ("completion.series_terms", "count"),
    ("completion.witness_checks", "count"),
    ("completion.witness_s", "s"),
    ("completion.modulus.calls", "count"),
    ("completion.modulus.self_s", "s"),
    ("completion.reduce.calls", "count"),
    ("completion.reduce.total_s", "s"),
    ("completion.max_degree", "deg"),
    ("rootexp.taylor_at_root.calls", "count"),
    ("rootexp.taylor_at_root.self_s", "s"),
    ("rootexp.evaluate_at_root.calls", "count"),
    ("rootexp.evaluate_at_root.self_s", "s"),
    ("rootexp.cyclotomic_integer.created", "count"),
    ("rootexp.level_used_max", "level"),
    ("rootexp.valid_to_max", "index"),
    ("qcrt.crt_split.calls", "count"),
    ("qcrt.crt_split.self_s", "s"),
    ("qcrt.crt_reconstruct.calls", "count"),
    ("qcrt.crt_reconstruct.self_s", "s"),
    ("qcrt.xgcd.calls", "count"),
    ("cli.import_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.dispatch_s", "s"),
    ("cli.cache_io_s", "s"),
    ("cli.cache_bytes", "B"),
    ("cli.child_cpu_s", "s"),
    ("trace.overhead_s", "s"),
]

# Counters that are a pure function of the job list: two traced runs of
# one seed must give the same values.
EXACT_COUNTERS = (
    "polyring.mul.coef_products",
    "polyring.divmod.coef_ops",
    "cyclotomic.adjacency_tests",
    "cyclotomic.cyclotomic_poly.misses",
    "completion.series_terms",
    "completion.witness_checks",
    "rootexp.cyclotomic_integer.created",
)

_MISSING = object()


class Recorder:
    """In-memory spans plus per-name aggregates (calls, total and self
    time) and the computed counters, kept exact even past `span_cap`."""

    def __init__(self, span_cap: int = 200_000):
        self.job = -1
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.count: Counter = Counter()
        self.peak: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, child seconds, divmod child]
        self._next_id = 0
        self._undo: list = []

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result) records computed counts."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self._next_id, name, 0.0, False]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that it only bumps a count (for very frequent calls)."""
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _close(self, frame: list, start: float, end: float) -> None:
        sid, name, child, divmod_child = frame
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
            if name == "polyring.divmod":
                parent[3] = True
            if parent[1] == "completion.series_realize" and name in (
                "polyring.divides",
                "polyring.divmod",
            ):
                self.count["completion.witness_checks"] += 1
                self.total["completion.witness"] += dur
        if name == "cyclotomic.cyclotomic_poly" and divmod_child:
            self.count["cyclotomic.cyclotomic_poly.misses"] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append(
                (sid, name, start, end, parent[0] if parent else -1, self.job)
            )
        else:
            self.dropped += 1

    # -- aggregation across processes -----------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_s": dict(self.self_s),
            "count": dict(self.count),
            "peak": dict(self.peak),
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, snap: dict) -> None:
        """Add a child process's aggregates (peaks take the maximum)."""
        for key in ("calls", "total", "self_s", "count"):
            mine = getattr(self, key)
            for name, value in snap[key].items():
                mine[name] += value
        for name, value in snap["peak"].items():
            self.peak[name] = max(self.peak[name], value)
        self.dropped += snap["dropped"]

    def write_spans(self, path, children: list[dict]) -> None:
        """One JSON array per line: [process, id, name, start, end, parent, job];
        process is "main" or the job id of a CLI child."""
        with open(path, "w", encoding="utf-8") as fh:
            for proc, spans in [("main", self.spans)] + [
                (c["job"], c["spans"]) for c in children
            ]:
                for span in spans:
                    fh.write(json.dumps([proc, *span]) + "\n")

    # -- installing the recorders ----------------------------------------

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from cyclocomp import completion, cyclotomic, polyring, qcrt, rootexp

        count, peak = self.count, self.peak

        def after_mul(args, result):
            a, b = args
            count["polyring.mul.coef_products"] += len(a.coeffs) * len(
                getattr(b, "coeffs", (b,))
            )
            if result.coeffs and isinstance(result.coeffs[0], int):
                bits = max(map(int.bit_length, result.coeffs))
                if bits > peak["polyring.mul.max_bits"]:
                    peak["polyring.mul.max_bits"] = bits

        def after_divmod(args, result):
            a, g = len(args[0].coeffs), len(args[1].coeffs)
            count["polyring.divmod.coef_ops"] += max(a - g + 1, 0) * g

        def after_modulus(args, result):
            peak["completion.max_degree"] = max(
                peak["completion.max_degree"], len(result.coeffs) - 1
            )

        def after_root(args, result):
            peak["rootexp.level_used_max"] = max(
                peak["rootexp.level_used_max"], args[0].level
            )
            valid_to = getattr(result, "valid_to", None)
            if valid_to is not None:
                peak["rootexp.valid_to_max"] = max(peak["rootexp.valid_to_max"], valid_to)

        def after_xgcd(args, result):
            count["qcrt.xgcd.calls"] += 1

        for cls in (polyring.IntPolynomial, polyring.RatPolynomial):
            for attr in ("__mul__", "__rmul__"):
                self._patch_attr(cls, attr, self.span("polyring.mul", getattr(cls, attr), after_mul))
            self._patch_attr(
                cls, "__divmod__", self.span("polyring.divmod", cls.__divmod__, after_divmod)
            )
        chain = completion.FiltrationChain
        self._patch_attr(chain, "modulus", self.span("completion.modulus", chain.modulus, after_modulus))
        ci = rootexp.CyclotomicInteger
        self._patch_attr(ci, "__init__", self.counter("rootexp.cyclotomic_integer.created", ci.__init__))

        functions = [
            (polyring, "resultant", "polyring.prs", None),
            (polyring, "subresultant_bezout", "polyring.prs", None),
            (polyring, "rational_xgcd", "polyring.prs", after_xgcd),
            (polyring, "divides", "polyring.divides", None),
            (cyclotomic, "cyclotomic_poly", "cyclotomic.cyclotomic_poly", None),
            (cyclotomic, "pochhammer", "cyclotomic.pochhammer", None),
            (cyclotomic, "connected_components", "cyclotomic.components", None),
            (cyclotomic, "cyclotomic_coprimality", "cyclotomic.coprimality", None),
            (cyclotomic, "congruence_check", "cyclotomic.congruence", None),
            (cyclotomic, "load_cyclotomic_cache", "cyclotomic.cache_load", None),
            (cyclotomic, "save_cyclotomic_cache", "cyclotomic.cache_save", None),
            (completion, "series_realize", "completion.series_realize", None),
            (completion, "reduce", "completion.reduce", None),
            (rootexp, "taylor_at_root", "rootexp.taylor_at_root", after_root),
            (rootexp, "evaluate_at_root", "rootexp.evaluate_at_root", after_root),
            (qcrt, "crt_split", "qcrt.crt_split", None),
            (qcrt, "crt_reconstruct", "qcrt.crt_reconstruct", None),
            (qcrt, "crt_idempotents", "qcrt.crt_idempotents", None),
        ]
        wrappers = {}  # id(original) -> (original, wrapper)
        for module, attr, name, after in functions:
            fn = getattr(module, attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self.span(name, fn, after))
        fn = getattr(cyclotomic, "is_adjacent", None)
        if fn is not None:
            wrappers[id(fn)] = (fn, self.counter("cyclotomic.adjacency_tests", fn))
        cli = sys.modules.get("cyclocomp.cli")
        if cli is not None:
            fn = cli.build_parser
            wrappers[id(fn)] = (fn, self.span("cli.build_parser", fn, self._after_build_parser))

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cyclocomp" and not mod_name.startswith("cyclocomp."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch_attr(module, attr, hit[1])

        for spec in completion.NAMED_SERIES.values():
            term = spec.term
            hit = wrappers.get(id(term))
            inner = hit[1] if hit is not None and hit[0] is term else term
            # The specs are frozen dataclasses.
            self._undo.append((spec, "term", term))
            object.__setattr__(spec, "term", self.span("completion.series_term", inner))

    def _after_build_parser(self, args, parser) -> None:
        parse = self.span("cli.parse_args", parser.parse_args, self._after_parse_args)
        parser.parse_args = parse

    def _after_parse_args(self, args, namespace) -> None:
        fn = getattr(namespace, "fn", None)
        if fn is not None:
            namespace.fn = self.span("cli.dispatch", fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            elif isinstance(owner, (type, types.ModuleType)):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)


def layer_metrics(rec: Recorder, extra: dict) -> dict:
    """Every PER_LAYER metric as {name: {"value", "unit"}}; `extra` holds
    the values measured by the run rather than by spans."""
    derived = {
        "completion.series_terms": rec.calls["completion.series_term"],
        "completion.witness_s": rec.total["completion.witness"],
        "cyclotomic.cache_load_s": rec.total["cyclotomic.cache_load"],
        "cyclotomic.cache_save_s": rec.total["cyclotomic.cache_save"],
        "cli.parse_s": rec.total["cli.build_parser"] + rec.total["cli.parse_args"],
        "cli.dispatch_s": rec.total["cli.dispatch"],
        "cli.cache_io_s": rec.total["cyclotomic.cache_load"] + rec.total["cyclotomic.cache_save"],
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in extra:
            value = extra[name]
        elif name in derived:
            value = derived[name]
        elif name in rec.count:
            value = rec.count[name]
        elif name in rec.peak:
            value = rec.peak[name]
        else:
            base, _, what = name.rpartition(".")
            table = {"calls": rec.calls, "self_s": rec.self_s, "total_s": rec.total}.get(what)
            value = table[base] if table is not None else 0
        out[name] = {"value": value, "unit": unit}
    return out
