"""Exact arithmetic in cyclotomic completions of polynomial rings.

The objects: dense exact polynomials over Z and Q (`polyring`),
cyclotomic polynomials and the adjacency combinatorics of completion
indices (`cyclotomic`), truncated elements of completed rings with digit
expansions, restriction maps and convergent series (`completion`),
evaluation and Taylor expansion at roots of unity (`rootexp`), and the
contrasting Chinese-Remainder structure over Q (`qcrt`).

`import cyclocomp` loads none of these layers.  Each exported name is
imported from its layer on first access (PEP 562) and then bound here,
so a program pays only for the layers it uses.
"""

import sys

# (layer, the names it exports), tuples: the package keeps no store.
_EXPORTS = (
    ("completion", (
        "AdicChain", "DigitExpansion", "FiltrationChain", "KONTSEVICH_ZAGIER_SPEC",
        "NAMED_SERIES", "PochhammerChain", "ProductChain", "Q_INVERSE_SPEC", "SeriesSpec",
        "TruncatedElement", "alternating_unit", "from_digits", "reduce", "rho",
        "series_realize", "to_digits", "trunc_arith", "unit_inverse_mod",
    )),
    ("cyclotomic", (
        "AdjacencyGraph", "CommonPrimeCertificate", "RING_Q", "RING_Z", "RING_ZERO",
        "RingDescriptor", "UnitCertificate", "arrow_witness", "c_value", "congruence_check",
        "connected_components", "cyclotomic_coprimality", "cyclotomic_poly", "is_adjacent",
        "pochhammer", "ring_z_inverted",
    )),
    ("polyring", (
        "IntPolynomial", "NEG_INFINITY", "RatPolynomial", "divides", "poly_mod_prime",
        "rational_xgcd", "resultant", "subresultant_bezout",
    )),
    ("qcrt", (
        "CrtComponents", "ExponentVector", "crt_idempotents", "crt_reconstruct",
        "crt_split", "integer_witness_search", "rho_q_kernel_witness",
    )),
    ("rootexp", (
        "CyclotomicInteger", "RootTaylorSeries", "evaluate_at_root", "expand_series",
        "ohtsuki_series", "root_multiplicity", "tau_values", "taylor_at_root",
    )),
)

# The layers a star import binds beside their names, as the eager
# imports of earlier versions did.
_LAYERS = ("completion", "cyclotomic", "errors", "polyring", "qcrt", "rootexp")

__all__ = _LAYERS + tuple(name for _, names in _EXPORTS for name in names)

__version__ = "0.1.0"


def _layer(layer: str):
    """The submodule cyclocomp.<layer>, imported if need be (through
    __import__, as importing importlib would add to start-up)."""
    name = f"{__name__}.{layer}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name: str):
    for layer, names in _EXPORTS:
        if name in names:
            value = getattr(_layer(layer), name)
            break
    else:
        if name not in _LAYERS:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = _layer(name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
