"""Arithmetic in Z[zeta_n] and the two maps out of a completion that see
roots of unity: evaluation at a primitive n-th root (tau) and Taylor
expansion in powers of (q - zeta) (sigma).

Z[zeta_n] is Z[q]/(Phi_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1).
Evaluation folds instead of dividing: Phi_n divides q^n - 1, so the value
of a representative at zeta_n is its coefficients summed into n buckets by
index mod n (zeta^n = 1), and only those n sums are reduced mod Phi_n.
Taylor coefficients come the same way from the representative's integer
coefficients: c_j = sum_i C(i, j) a_i zeta^(i-j), collected in n buckets
and reduced mod Phi_n once per coefficient, so c_0 is the value.  No
factorials, no division by integers, everything exact.

A convergent series is expanded locally, without a global representative:
`expand_series` works with jets, the images of polynomials in
Z[y]/(y^n - 1)[x]/(x^(J+1)) under q -> y + x, stored as J + 1 rows of n
buckets.  Mapping y to zeta_n is a ring homomorphism onto
Z[zeta_n][x]/(x^(J+1)), so the sum of the terms' jets, reduced mod Phi_n
row by row, is the expansion c_0 ... c_J of the series' value.

The precision contract: an element truncated at level K determines its
expansion at zeta only up to the multiplicity of (q - zeta) in g_K, which
for the Pochhammer chain at a primitive n-th root is floor(K/n).
`taylor_at_root` computes its `valid_to` bound from the chain, never
trusting the caller; `expand_series` sums the terms up to level n(J+1),
whose multiplicity at zeta_n is J + 1, so valid_to = J.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .completion import (
    FiltrationChain,
    PochhammerChain,
    SeriesSpec,
    TruncatedElement,
    _series_terms,
)
from .cyclotomic import cyclotomic_poly
from .errors import InsufficientPrecision, OrderMismatch
from .polyring import NEG_INFINITY, IntPolynomial, check_index, json_fields, json_int


class CyclotomicInteger:
    """An element of Z[zeta_n], stored as exactly phi(n) power-basis
    coordinates (n = 1 is a plain integer in disguise)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[int]):
        phi = len(cyclotomic_poly(order).coeffs) - 1
        coeffs = [check_index(c, "coefficient", NEG_INFINITY) for c in coeffs]
        if len(coeffs) > phi:
            rem = IntPolynomial(coeffs) % cyclotomic_poly(order)
            coeffs = list(rem.coeffs)
        self.order = order
        self.coeffs = tuple(coeffs) + (0,) * (phi - len(coeffs))

    @classmethod
    def from_int(cls, order: int, value: int) -> "CyclotomicInteger":
        return cls(order, [value])

    @classmethod
    def zero(cls, order: int) -> "CyclotomicInteger":
        return cls(order, [])

    @classmethod
    def one(cls, order: int) -> "CyclotomicInteger":
        return cls(order, [1])

    @classmethod
    def zeta(cls, order: int) -> "CyclotomicInteger":
        return cls(order, [0, 1])

    def _check(self, other: "CyclotomicInteger") -> None:
        if not isinstance(other, CyclotomicInteger):
            raise TypeError(f"expected CyclotomicInteger, got {type(other).__name__}")
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order} differ")

    def __add__(self, other):
        self._check(other)
        return CyclotomicInteger(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        return CyclotomicInteger(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return CyclotomicInteger(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(other, int):
            return CyclotomicInteger(self.order, [other * a for a in self.coeffs])
        self._check(other)
        product = IntPolynomial(self.coeffs) * IntPolynomial(other.coeffs)
        return CyclotomicInteger(self.order, product.coeffs)

    __rmul__ = __mul__

    def mul_by_zeta(self) -> "CyclotomicInteger":
        return self * CyclotomicInteger.zeta(self.order)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CyclotomicInteger)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __str__(self):
        if self.order == 1:
            return str(self.coeffs[0])
        return f"({IntPolynomial(self.coeffs)})".replace("q", "z")

    def __repr__(self):
        return f"CyclotomicInteger(order={self.order}, {self.coeffs})"

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json_dict(data: dict) -> "CyclotomicInteger":
        order, coeffs = json_fields(data, "order", "coeffs")
        if not isinstance(coeffs, list):
            raise ValueError("coeffs is a JSON array of integers")
        return CyclotomicInteger(json_int(order), [json_int(c) for c in coeffs])


# -- evaluation (tau) ---------------------------------------------------------


def root_multiplicity(chain: FiltrationChain, level: int, n: int) -> int:
    """Multiplicity of (q - zeta_n) in g_level: floor(level/n) on the
    Pochhammer chain, otherwise the exact multiplicity of Phi_n obtained
    by repeated exact division."""
    check_index(n, "order", 1)
    if isinstance(chain, PochhammerChain):
        return level // n
    phi_n = cyclotomic_poly(n)
    g = chain.modulus(level)
    mult = 0
    while True:
        quot, rem = divmod(g, phi_n)
        if not rem.is_zero:
            return mult
        mult += 1
        g = quot


def evaluate_at_root(a: TruncatedElement, n: int) -> CyclotomicInteger:
    """Value of a at a primitive n-th root of unity, as an element of
    Z[zeta_n]; well defined only when Phi_n divides the truncation
    modulus (level >= n on the Pochhammer chain).  The coefficients are
    folded into n buckets by index mod n, since Phi_n divides q^n - 1,
    and CyclotomicInteger reduces the n sums mod Phi_n: row 0 of `_jet`."""
    if root_multiplicity(a.chain, a.level, n) < 1:
        raise InsufficientPrecision(
            f"level {a.level} on {a.chain.label!r} does not determine the "
            f"value at a primitive {n}-th root"
        )
    coeffs = a.rep.coeffs
    return CyclotomicInteger(n, [sum(coeffs[r::n]) for r in range(n)])


def tau_values(a: TruncatedElement, orders: Sequence[int]) -> dict[int, CyclotomicInteger]:
    """Componentwise evaluation at every order in `orders` (a finite slice
    of the product-of-residues picture of the completion)."""
    orders = sorted({check_index(n, "order", 1) for n in orders})
    return {n: evaluate_at_root(a, n) for n in orders}


# -- Taylor expansion (sigma) -------------------------------------------------


@dataclass(frozen=True)
class RootTaylorSeries:
    """Expansion sum_j coeffs[j] * (q - zeta)^j at a primitive order-th
    root; coefficients with index > valid_to would depend on data beyond
    the source truncation and are never produced."""

    order: int
    valid_to: int
    coeffs: tuple[CyclotomicInteger, ...]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "valid_to": self.valid_to,
            "coeffs": [c.to_json_dict() for c in self.coeffs],
        }


def _jet(poly: IntPolynomial, n: int, j_max: int) -> list[list[int]]:
    """Image of poly under q -> y + x in Z[y]/(y^n - 1)[x]/(x^(j_max+1)):
    row j holds the x^j coefficient as n buckets, row[r] collecting the
    y^r terms C(i, j) a_i y^(i-j)."""
    rows = [[0] * n for _ in range(j_max + 1)]
    for i, a in enumerate(poly.coeffs):
        if a:
            for j in range(min(i, j_max) + 1):
                rows[j][(i - j) % n] += comb(i, j) * a
    return rows


def taylor_at_root(a: TruncatedElement, n: int, j_max: int) -> RootTaylorSeries:
    """Taylor coefficients c_0 ... c_{j_max} of a at a primitive n-th root,
    c_j = sum_i C(i, j) a_i zeta^(i-j) over the representative's
    coefficients a_i.  c_0 agrees with evaluate_at_root; requesting j_max
    beyond the precision bound raises instead of fabricating
    coefficients."""
    check_index(j_max, "j_max", 0)
    valid_to = root_multiplicity(a.chain, a.level, n) - 1
    if j_max > valid_to:
        raise InsufficientPrecision(
            f"level {a.level} on {a.chain.label!r} only determines "
            f"coefficients up to index {valid_to} at order {n}; {j_max} requested"
        )
    coeffs = tuple(CyclotomicInteger(n, row) for row in _jet(a.rep, n, j_max))
    return RootTaylorSeries(order=n, valid_to=valid_to, coeffs=coeffs)


def _jet_mul(rows: list[list[int]], factor: list[list[int]], low: int) -> list[list[int]]:
    """rows * factor with everything at x^(j_max+1) or above dropped; the
    rows of `rows` below `low` are zero.  Each nonzero bucket c*y^r*x^j of
    factor adds c times rows, rotated by r and moved j rows up, in passes
    along the longer axis of the live part of rows: with at most n live
    rows, one pass per row (rotate it by r, scale, add); with more, the
    live rows are transposed into n x-columns and each column b is scaled,
    shifted up j and added into column (b + r) mod n.  A bucket then
    costs min(live rows, n) passes, one at n = 1."""
    n, top = len(rows[0]), len(rows)
    if top - low > n:
        columns = list(zip(*rows[low:]))
        out_columns = [[0] * (top - low) for _ in range(n)]
        for j, factor_row in enumerate(factor):
            for r, c in enumerate(factor_row):
                if not c:
                    continue
                for b, column in enumerate(columns):
                    dest = out_columns[(b + r) % n]
                    dest[j:] = [d + c * s for d, s in zip(dest[j:], column)]
        return [[0] * n for _ in range(low)] + [list(row) for row in zip(*out_columns)]
    out = [[0] * n for _ in range(top)]
    for j, factor_row in enumerate(factor):
        for r, c in enumerate(factor_row):
            if not c:
                continue
            for t in range(low, top - j):
                row = rows[t]
                out[t + j] = [d + c * s for d, s in zip(out[t + j], row[n - r :] + row[: n - r])]
    return out


def expand_series(spec: SeriesSpec, n: int, j_max: int) -> RootTaylorSeries:
    """Taylor coefficients c_0 ... c_{j_max} at a primitive n-th root of
    the series' value, computed locally in Z[zeta_n][x]/(x^(j_max+1))
    with q = zeta + x, as a sum of the terms' jets (see `_jet`).

    Precision: terms are summed while witness(k) <= n*(j_max+1), the
    Pochhammer level whose multiplicity at zeta_n is j_max + 1.  A later
    term is divisible by (q)_w with w past that level, so by
    (q - zeta)^(j_max+1), and adds nothing: every coefficient returned is
    stable under any further precision, and valid_to = j_max.

    With spec.step the jet of term 0 is 1 and that of term k is the jet
    of term k - 1 times the jet of step(k), so term is never called;
    without a step, the jet of term(k).  Each consumed term's
    witness w is checked locally: its x^j coefficients must vanish in
    Z[zeta_n] for j < min(w // n, j_max + 1), else AssertionError.  The
    terms come from `_series_terms`, as in `series_realize`."""
    check_index(n, "order", 1)
    check_index(j_max, "j_max", 0)
    level = n * (j_max + 1)
    top = j_max + 1
    total = [[0] * n for _ in range(top)]
    term = _jet(IntPolynomial.one(), n, j_max)  # term(0) of a spec with a step
    low = 0  # term's rows below low are zero
    for k, w in _series_terms(spec, level):
        if spec.step is None:
            term = _jet(spec.term(k), n, j_max)
        elif k and low < top:
            term = _jet_mul(term, _jet(spec.step(k), n, j_max), low)
        low = next((j for j, row in enumerate(term) if any(row)), top)
        for j in range(low, min(w // n, top)):
            if not CyclotomicInteger(n, term[j]).is_zero:
                raise AssertionError(
                    f"series {spec.name!r}: witness {w} of term {k} fails "
                    f"at order {n}: x^{j} coefficient is not zero"
                )
        for j in range(low, top):
            total[j] = [a + b for a, b in zip(total[j], term[j])]
    coeffs = tuple(CyclotomicInteger(n, row) for row in total)
    # level n*(j_max+1) has multiplicity j_max + 1 at zeta_n
    return RootTaylorSeries(order=n, valid_to=j_max, coeffs=coeffs)


def ohtsuki_series(spec: SeriesSpec, j_max: int) -> RootTaylorSeries:
    """Expansion at q = 1 (order 1): level j_max + 1 already pins every
    coefficient up to index j_max, since (q-1)^k divides (q)_k."""
    return expand_series(spec, 1, j_max)
