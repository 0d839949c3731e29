"""Arithmetic in Z[zeta_n] and the two maps out of a completion that see
roots of unity: evaluation at a primitive n-th root (tau) and Taylor
expansion in powers of (q - zeta) (sigma).

Z[zeta_n] is Z[q]/(Phi_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1);
a longer coefficient list is reduced mod the monic Phi_n in place, by
`polyring`'s division kernel.

Jets and values live in the smallest binomial ring that Phi_n divides,
Z[y]/(y^m - eps) (`_ring`).  For even n, zeta_n^(n/2) = -1, so Phi_n
divides y^(n/2) + 1 and m = n/2, eps = -1; odd n keep y^n - 1 (m = n,
eps = 1).  There y^i is eps^floor(i/m) y^(i mod m): index i falls into
bucket i mod m with that sign, and a rotation by y^s negates the s buckets
it wraps when eps = -1.  Evaluation folds instead of dividing: the value
of a representative at zeta_n is its coefficients summed into those m
signed buckets, and only the m sums are reduced mod Phi_n.

Taylor coefficients come from jets, the images of polynomials in
Z[y]/(y^m - eps)[x]/(x^(J+1)) under q -> y + x; y -> zeta_n maps them
onto Z[zeta_n][x]/(x^(J+1)).  A jet is kept in the basis z = x/y,
q = y(1 + z), as one flat row-major list of J + 1 rows of m buckets: the
z^j row of sum a_i q^i holds eps^floor(i/m) C(i, j) a_i in bucket i mod m.
The x^j coefficient c_j is that row times y^(-j), a signed rotation,
reduced mod Phi_n once, and c_0 is the value.  A convergent series is
expanded locally, without a global representative, as the sum of its
terms' jets (`expand_series`), each term the last one times a step, on
the term's live rows only: one rotation per signed class mod m of the
step's nonzero coefficients, and one slice pass per nonzero binomial sum
of a class (`_times_step`).  At n = 2 the jet is a scalar series (m = 1)
and no step rotates.

The precision contract comes from the chain's factors: an element
truncated at level K determines its expansion at a primitive n-th root
zeta only up to the multiplicity of (q - zeta) in g_K, which the chain
counts as the multiplicity of Phi_n over f_1 ... f_K (floor(K/n) on the
Pochhammer chain).  `taylor_at_root` computes its `valid_to` bound from
the chain, never trusting the caller; `expand_series` sums the terms up
to level n(J+1), whose multiplicity at zeta_n is J + 1, so valid_to = J.
"""

from __future__ import annotations

import operator
from itertools import compress
from math import comb
from typing import Sequence

from .completion import SeriesSpec, TruncatedElement, _series_terms
from .cyclotomic import cyclotomic_poly
from .errors import InsufficientPrecision, OrderMismatch
from .polyring import (
    NEG_INFINITY, Frozen, IntPolynomial, _convolve, _divide_in_place, _Replaceable,
    check_index, json_fields, json_int,
)


class CyclotomicInteger(Frozen):
    """An element of Z[zeta_n], stored as exactly phi(n) power-basis
    coordinates (n = 1 is a plain integer in disguise).  A longer list is
    reduced mod Phi_n by `polyring`'s division kernel, in place."""

    __slots__ = _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[int]):
        modulus = cyclotomic_poly(order).coeffs
        phi = len(modulus) - 1
        coeffs = [
            c if type(c) is int else check_index(c, "coefficient", NEG_INFINITY)
            for c in coeffs
        ]
        if len(coeffs) > phi:
            _divide_in_place(coeffs, modulus)
            del coeffs[phi:]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs) + (0,) * (phi - len(coeffs)))

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
        return self + -other

    def __neg__(self):
        return CyclotomicInteger(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(other, int):
            return CyclotomicInteger(self.order, [other * a for a in self.coeffs])
        self._check(other)
        return CyclotomicInteger(self.order, _convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self):
        if self.order == 1:
            return str(self.coeffs[0])
        return f"({IntPolynomial(self.coeffs)})".replace("q", "z")

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json_dict(data: dict) -> "CyclotomicInteger":
        order, coeffs = json_fields(data, "order", "coeffs")
        if not isinstance(coeffs, list):
            raise ValueError("coeffs is a JSON array of integers")
        return CyclotomicInteger(json_int(order), [json_int(c) for c in coeffs])


# -- evaluation (tau) ---------------------------------------------------------


def root_multiplicity(chain, level: int, n: int) -> int:
    """Multiplicity of (q - zeta_n) in g_level of a filtration chain: the
    multiplicity of Phi_n that the chain counts over its factors
    f_1 ... f_level (floor(level/n) on the Pochhammer chain)."""
    return chain.multiplicity(check_index(n, "order", 1), check_index(level, "level", 0))


def evaluate_at_root(a: TruncatedElement, n: int) -> CyclotomicInteger:
    """Value of a at a primitive n-th root of unity, as an element of
    Z[zeta_n]; well defined only when Phi_n divides one of the chain's
    factors f_1 ... f_level (level >= n on the Pochhammer chain).  The
    coefficients are folded into m signed buckets, since Phi_n divides
    q^m - eps (`_ring`), and CyclotomicInteger reduces the m sums mod
    Phi_n: row 0 of `_z_jet`."""
    if root_multiplicity(a.chain, a.level, n) < 1:
        raise InsufficientPrecision(
            f"level {a.level} on {a.chain.label!r} does not determine the "
            f"value at a primitive root of unity of order {n}"
        )
    return CyclotomicInteger(n, _z_jet(a.rep.coeffs, n, 1))


def tau_values(a: TruncatedElement, orders: Sequence[int]) -> dict[int, CyclotomicInteger]:
    """Componentwise evaluation at every order in `orders` (a finite slice
    of the product-of-residues picture of the completion)."""
    orders = sorted({check_index(n, "order", 1) for n in orders})
    return {n: evaluate_at_root(a, n) for n in orders}


# -- Taylor expansion (sigma) -------------------------------------------------


class RootTaylorSeries(_Replaceable):
    """Expansion sum_j coeffs[j] * (q - zeta)^j at a primitive order-th
    root; coefficients with index > valid_to would depend on data beyond
    the source truncation and are never produced."""

    __slots__ = _fields = ("order", "valid_to", "coeffs")

    def __init__(
        self, order: int, valid_to: int, coeffs: tuple[CyclotomicInteger, ...]
    ) -> None:
        self._init(order, valid_to, coeffs)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "valid_to": self.valid_to,
            "coeffs": [c.to_json_dict() for c in self.coeffs],
        }


def _ring(n: int) -> tuple[int, int]:
    """(m, eps) of the jet ring Z[y]/(y^m - eps) at zeta_n, the smallest
    binomial ring that Phi_n divides: (n/2, -1) for even n, since
    zeta_n^(n/2) = -1, and (n, 1) for odd n."""
    return (n // 2, -1) if n % 2 == 0 else (n, 1)


def _z_jet(coeffs: Sequence[int], n: int, top: int) -> list[int]:
    """Image of sum a_i q^i under q -> y(1 + z) in Z[y]/(y^m - eps)[z]/(z^top)
    (`_ring`), flat and row-major: entry j*m + r is the z^j y^r
    coefficient, the sum of eps^floor(i/m) C(i, j) a_i over i = r mod m.
    Row j folds w_j(i) = C(i, j) a_i into m signed buckets, and
    w_j(i) = w_(j-1)(i) (i - j + 1) / j exactly."""
    m, eps = _ring(n)
    flat, w = [], coeffs
    for j in range(top):
        if j:
            w = [c * (i - j + 1) // j for i, c in enumerate(w)]
        if eps == 1:
            flat += [sum(w[r::m]) for r in range(m)]
        else:  # n = 2m: i = r mod n has sign +1, i = r + m mod n sign -1
            flat += [sum(w[r::n]) - sum(w[r + m :: n]) for r in range(m)]
    return flat


def _emit(flat: list[int], n: int, valid_to: int) -> RootTaylorSeries:
    """The x^j coefficient is the z^j row times y^(-j), reduced mod Phi_n:
    y^(-j) = eps^floor(j/m) y^(-s) with s = j mod m, a rotation by s whose
    s wrapped buckets take a factor eps."""
    m, eps = _ring(n)
    coeffs = []
    for j, t in enumerate(range(0, len(flat), m)):
        s = j % m
        row = flat[t + s : t + m] + [eps * c for c in flat[t : t + s]]
        if eps ** (j // m) == -1:
            row = [-c for c in row]
        coeffs.append(CyclotomicInteger(n, row))
    return RootTaylorSeries(order=n, valid_to=valid_to, coeffs=tuple(coeffs))


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
    return _emit(_z_jet(a.rep.coeffs, n, j_max + 1), n, valid_to)


def _times_step(live: list[int], step: Sequence[int], n: int) -> list[int]:
    """live * sum a_i q^i in the z-basis, where live is a run of rows of m
    buckets (`_ring`) and q^i = y^i (1 + z)^i = eps^floor(i/m) y^(i mod m)
    (1 + z)^i; rows past its end are cut.  The step's nonzero a_i are
    grouped by i mod m: class s sums D_s[j] = sum eps^floor(i/m) C(i, j) a_i
    over its i, rotates the live rows by s once (times y^s: the s buckets
    that wrap take a factor eps) and adds D_s[j] times them, moved j rows
    up, in one slice pass per nonzero D_s[j].  The unit class, s = 0 with
    D_0 = [1], starts the product as a copy of the live rows instead.  So
    1 - q^k with n | k makes no row-0 pass (1 - 1 = 0)."""
    m, eps = _ring(n)
    rows = len(live) // m
    sums: dict[int, list[int]] = {}
    for i in compress(range(len(step)), step):
        d, a = sums.setdefault(i % m, [0] * rows), step[i]
        if eps == -1 and i // m % 2:
            a = -a
        for j in range(min(i + 1, rows)):
            d[j] += comb(i, j) * a
    d = sums.get(0)
    if d and d[0] == 1 and not any(d[1:]):
        del sums[0]
        out = live[:]
    else:
        out = [0] * len(live)
    for s, d in sums.items():
        src = live
        if s:  # times y^s: every live row rotated by s
            src = []
            for t in range(0, len(live), m):
                wrap = live[t + m - s : t + m]
                src += (wrap if eps == 1 else [-v for v in wrap]) + live[t : t + m - s]
        for j in compress(range(rows), d):
            c, at = d[j], j * m
            out[at:] = [o + c * v for o, v in zip(out[at:], src)]
    return out


def expand_series(spec: SeriesSpec, n: int, j_max: int) -> RootTaylorSeries:
    """Taylor coefficients c_0 ... c_{j_max} at a primitive n-th root of
    the series' value: the sum of the terms' z-basis jets (see the module
    docstring), turned into x^j coefficients once, at the end.

    Precision: terms are summed while witness(k) <= n*(j_max+1), the
    Pochhammer level whose multiplicity at zeta_n is j_max + 1.  A witness
    bounds the whole tail (`SeriesSpec`), so every later term is divisible
    by (q)_w with w past that level, so by (q - zeta)^(j_max+1), and adds
    nothing: every coefficient is stable under any further precision, and
    valid_to = j_max.  With a step the tail is proved: unless the last
    witness w has w // n > j_max, the stop term's jet (the live rows times
    the next step, or term 0 if no term was consumed) must vanish in
    Z[zeta_n] on rows 0..j_max, else AssertionError, and every later term
    is a multiple of it.  A stepless tail is trusted: no finite check can
    see past the last term summed (the `SeriesSpec` example).

    Only the live rows of the running term are kept, from its first
    nonzero row to row j_max.  With spec.step the jet of term 0 is 1 and
    that of term k is the jet of term k - 1 times step(k), unchecked
    against term(k), which is never called: one rotation per signed class
    mod m of the step's nonzero coefficients, and one slice pass per
    nonzero summed binomial entry (`_times_step`).  Without a step, the
    jet of term(k).  Each term is added into the sum in one pass at its
    first live row.  Each consumed term's witness w is checked locally:
    its z^j rows must vanish in Z[zeta_n] for j < min(w // n, j_max + 1),
    else AssertionError; zeta is a unit, so the x^j coefficients vanish
    with them.  The terms come from `_series_terms`, as in
    `series_realize`.

    A spec with a step keeps, per center, the deepest expansion finished
    with every check passed (`SeriesSpec._expansions`), and answers a
    request at most that deep with its prefix, calling nothing, while the
    spec's fields are the objects it was computed from.  The prefix is
    proved.  The deeper run consumed a superset of the terms and checked a
    superset of the rows of each.  Let k0 be the shallower run's stop term,
    or its last term if that one's witness is n*(j_max+1): every term the
    deeper run sums past k0 is a multiple of t_k0, and the deeper run
    verified that rows 0..j_max of t_k0 vanish in Z[zeta_n] (its witness
    check, or its own stop-term check).  So c_0 ... c_{j_max} are equal,
    and every check the shallower run would make is implied.  A stepless
    spec recomputes every time: its tail is trusted, so a prefix of a
    deeper sum is not proved to be the shallower sum."""
    check_index(n, "order", 1)
    check_index(j_max, "j_max", 0)
    if spec.step is not None:
        fields, kept = spec._values(), spec._expansions.get(n)
        if kept and kept[1].valid_to >= j_max and all(map(operator.is_, kept[0], fields)):
            return RootTaylorSeries(order=n, valid_to=j_max, coeffs=kept[1].coeffs[: j_max + 1])
    top, m = j_max + 1, _ring(n)[0]
    total = [0] * (top * m)
    live = [1] + [0] * (top * m - 1)  # term(0) of a spec with a step
    low = 0  # live holds the term's rows low .. j_max; the rows below are zero
    k = w = -1  # no term consumed yet
    for k, w in _series_terms(spec, n * top):
        if spec.step is None:
            live, low = _z_jet(spec.term(k).coeffs, n, top), 0
        elif k and live:
            live = _times_step(live, spec.step(k).coeffs, n)
        z = next((t for t in range(0, len(live), m) if any(live[t : t + m])), len(live))
        if z:
            live, low = live[z:], low + z // m
        j = _nonzero_row(live, n, min(w // n, top) - low)
        if j is not None:
            raise AssertionError(
                f"series {spec.name!r}: witness {w} of term {k} fails "
                f"at order {n}: x^{low + j} coefficient is not zero"
            )
        at = low * m
        total[at:] = [a + b for a, b in zip(total[at:], live)]
    if spec.step is not None and w // n < top:
        stop = _times_step(live, spec.step(k + 1).coeffs, n) if k >= 0 else live
        j = _nonzero_row(stop, n, top - low)
        if j is not None:
            raise AssertionError(
                f"series {spec.name!r}: the stop term {k + 1} fails at order {n}: "
                f"x^{low + j} coefficient is not zero"
            )
    series = _emit(total, n, j_max)
    if spec.step is not None:
        spec._expansions[n] = (fields, series)
    return series


def _nonzero_row(rows: list[int], n: int, count: int) -> int | None:
    """The index of the first of the first `count` rows of m buckets
    (`_ring`) that is not zero in Z[zeta_n], or None."""
    m = _ring(n)[0]
    for j in range(count):
        if not CyclotomicInteger(n, rows[j * m : j * m + m]).is_zero:
            return j
    return None


def ohtsuki_series(spec: SeriesSpec, j_max: int) -> RootTaylorSeries:
    """Expansion at q = 1 (order 1): level j_max + 1 already pins every
    coefficient up to index j_max, since (q-1)^k divides (q)_k."""
    return expand_series(spec, 1, j_max)
