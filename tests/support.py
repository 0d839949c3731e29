"""Independent oracles used across the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: products and division over Q Fraction by
Fraction instead of on integer numerators, Sylvester determinants by
fraction-free elimination instead of remainder sequences, gcds over Q by
Euclid's algorithm instead of one primitive PRS over Z, that PRS and its
Bezout cofactors on polynomial objects instead of coefficient lists,
totients by trial factorization instead of polynomial degrees,
root-of-unity arithmetic by direct products in Z[zeta] instead of
polynomial reduction, CRT by cofactors instead of a mixed radix, jets in
Z[y]/(y^n - 1) instead of the smallest binomial ring that Phi_n divides,
values and Taylor coefficients of the Kontsevich-Zagier series by
Zagier's strange identity instead of its terms, and so on.
"""

from __future__ import annotations

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import compress
from math import comb

import pytest
from hypothesis import strategies as st

from cyclocomp import (
    CyclotomicInteger,
    ExponentVector,
    IntPolynomial,
    KONTSEVICH_ZAGIER_SPEC,
    PochhammerChain,
    RatPolynomial,
    RootTaylorSeries,
    SeriesSpec,
    cyclotomic_poly,
    is_adjacent,
    series_realize,
    subresultant_bezout,
)
from cyclocomp.errors import BothZero, InsufficientPrecision
from cyclocomp.polyring import _divide_in_place, _exact_div, _int_xgcd, _pseudo_divmod


def random_int_poly(rng: random.Random, max_degree: int, coeff_bound: int = 50):
    n = rng.randint(0, max_degree + 1)  # 0 -> zero polynomial
    return IntPolynomial([rng.randint(-coeff_bound, coeff_bound) for _ in range(n)])


def random_unit_leading_poly(rng: random.Random, max_degree: int, coeff_bound: int = 50):
    deg = rng.randint(1, max_degree)
    coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(deg)]
    coeffs.append(rng.choice([1, -1]))
    return IntPolynomial(coeffs)


def fractions_within(bound: int, max_denominator: int):
    """The fractions of absolute value at most `bound` with denominator at
    most `max_denominator`, the values of `st.fractions(-bound, bound,
    max_denominator=...)`: a denominator d, then a numerator in
    [-bound * d, bound * d], drawn in about a third of its time."""

    @st.composite
    def fractions(draw):
        d = draw(st.integers(1, max_denominator))
        return Fraction(draw(st.integers(-bound * d, bound * d)), d)

    return fractions()


def random_rat_poly(rng: random.Random, max_degree: int, bound: int = 20):
    n = rng.randint(0, max_degree + 1)
    return RatPolynomial(
        [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)]
    )


def schoolbook_rat_mul(a: RatPolynomial, b: RatPolynomial) -> RatPolynomial:
    """Product over Q coefficient by coefficient, Fraction by Fraction,
    instead of integer numerators over a common denominator."""
    if not a.coeffs or not b.coeffs:
        return RatPolynomial.zero()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return RatPolynomial(out)


def schoolbook_rat_add(a: RatPolynomial, b: RatPolynomial) -> RatPolynomial:
    """Sum over Q coefficient by coefficient, Fraction by Fraction, instead
    of integer numerators over a common denominator."""
    x, y = list(a.coeffs), list(b.coeffs)
    n = max(len(x), len(y))
    x, y = x + [Fraction(0)] * (n - len(x)), y + [Fraction(0)] * (n - len(y))
    return RatPolynomial([s + t for s, t in zip(x, y)])


def terms_text(coeffs) -> str:
    """str() of a polynomial with these coefficients (ints or Fractions),
    read off their numeric values instead of to_json's strings."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        var = "" if i == 0 else "q" if i == 1 else f"q^{i}"
        body = str(mag) if not var else var if mag == 1 else f"{mag}*{var}"
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) or "0"


def schoolbook_rat_divmod(a: RatPolynomial, g: RatPolynomial):
    """(quotient, remainder) over Q by long division with the inverse of
    g's leading coefficient, Fraction by Fraction, instead of an integer
    pseudo-division."""
    r = list(a.coeffs)
    gc = g.coeffs
    dg = len(gc) - 1
    inv = 1 / gc[-1]
    quot = [Fraction(0)] * max(len(r) - dg, 0)
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top] * inv
        quot[top - dg] = c
        for j in range(dg + 1):
            r[top - dg + j] -= c * gc[j]
    return RatPolynomial(quot), RatPolynomial(r[:dg])


def sylvester_determinant(a: IntPolynomial, b: IntPolynomial) -> int:
    """Resultant as the determinant of the Sylvester matrix (first deg b
    rows from a, then deg a rows from b), by exact Gaussian elimination
    over Q.  Small inputs only."""
    m = len(a.coeffs) - 1
    n = len(b.coeffs) - 1
    size = m + n
    if size == 0:
        return 1
    rows = []
    a_desc = list(reversed(a.coeffs))
    b_desc = list(reversed(b.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in a_desc] + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in b_desc] + [Fraction(0)] * (m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return det.numerator


def rational_xgcd_by_euclid(
    a: RatPolynomial, b: RatPolynomial
) -> tuple[RatPolynomial, RatPolynomial, RatPolynomial]:
    """(g, u, v) with u*a + v*b = g, g the monic gcd (or zero), by
    Euclid's remainder sequence in Fraction arithmetic instead of one
    primitive PRS over Z: the library's former `rational_xgcd`."""
    r0, r1 = a, b
    u0, u1 = RatPolynomial.one(), RatPolynomial.zero()
    v0, v1 = RatPolynomial.zero(), RatPolynomial.one()
    while not r1.is_zero:
        q, r2 = divmod(r0, r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    lc = r0.leading_coefficient
    inv = 1 / lc
    return r0 * inv, u0 * inv, v0 * inv


def prs_by_polynomials(a: IntPolynomial, b: IntPolynomial):
    """`polyring._prs` as it was before the sequence ran on coefficient
    lists: every remainder and cofactor an `IntPolynomial`, each step one
    `_pseudo_divmod` and polynomial products and differences."""
    num, den = 1, 1
    if len(a.coeffs) < len(b.coeffs):
        if (len(a.coeffs) - 1) * (len(b.coeffs) - 1) % 2:
            num = -1
        a, b = b, a
    r0, r1 = a, b
    u0, u1 = IntPolynomial.one(), IntPolynomial.zero()
    while len(r1.coeffs) > 1:
        m = len(r0.coeffs) - 1
        n = len(r1.coeffs) - 1
        q, r2, alpha = _pseudo_divmod(r0.coeffs, r1.coeffs)
        q, r2 = IntPolynomial(q), IntPolynomial(r2)
        if r2.is_zero:
            return 0, r1, u1
        u2 = u0 * alpha - q * u1
        g = math.gcd(r2.content(), *u2.coeffs)
        if g > 1:
            r2 = IntPolynomial([c // g for c in r2.coeffs])
            u2 = IntPolynomial([c // g for c in u2.coeffs])
        e = len(r2.coeffs) - 1 - m + n * (m - n + 1)
        num *= g**n * r1.coeffs[-1] ** max(-e, 0)
        den *= r1.coeffs[-1] ** max(e, 0)
        if (m * n) % 2:
            num = -num
        r0, r1, u0, u1 = r1, r2, u1, u2
    num *= r1.coeffs[0] ** (len(r0.coeffs) - 1)
    return _exact_div(num, den), r1, u1


def bezout_by_polynomials(a: IntPolynomial, b: IntPolynomial):
    """`polyring.subresultant_bezout` as it was before the PRS ran on
    coefficient lists, on `prs_by_polynomials`, errors included."""
    if a.is_zero and b.is_zero:
        raise BothZero("Bezout data of two zero polynomials")
    zero = IntPolynomial.zero()
    if a.is_zero or b.is_zero:
        return 0, zero, zero
    if len(a.coeffs) == 1 and len(b.coeffs) == 1:
        g, x, y = _int_xgcd(a.coeffs[0], b.coeffs[0])
        if g != 1:
            raise ValueError("no integer Bezout identity for two non-coprime constants")
        return 1, IntPolynomial([x]), IntPolynomial([y])
    res, R, u = prs_by_polynomials(a, b)
    if not res:
        return 0, zero, zero
    swapped = len(a.coeffs) < len(b.coeffs)
    long, short = (b, a) if swapped else (a, b)
    u = IntPolynomial([_exact_div(c * res, R.coeffs[0]) for c in u.coeffs])
    rest = list((IntPolynomial.constant(res) - u * long).coeffs)
    _divide_in_place(rest, short.coeffs)
    v = IntPolynomial(rest[len(short.coeffs) - 1 :])
    if swapped:
        u, v = v, u
    if u * a + v * b != IntPolynomial.constant(res):
        raise AssertionError("Bezout identity u*a + v*b = res fails")
    return res, u, v


def crt_by_cofactors(
    lam: ExponentVector, components: dict[int, RatPolynomial]
) -> tuple[RatPolynomial, dict[int, RatPolynomial]]:
    """(reconstruction of `components`, idempotents) by `qcrt`'s former
    cofactor engine instead of the mixed radix: for each index n the
    product R_n of the other factors, one PRS of (R_n, F_n) giving s_n =
    R_n^-1 mod F_n, then the sum of ((c_n s_n) mod F_n) R_n and e_n = s_n R_n."""
    factors = {n: cyclotomic_poly(n) ** e for n, e in lam.exponents}
    out, idempotents = RatPolynomial.zero(), {}
    for n, f in factors.items():
        rest = math.prod((g for m, g in factors.items() if m != n), start=IntPolynomial.one())
        res, u, _ = subresultant_bezout(rest, f)
        assert res != 0
        s = RatPolynomial([Fraction(c, res) for c in u.coeffs])
        rest = rest.to_rational()
        out = out + ((components[n] * s) % f.to_rational()) * rest
        idempotents[n] = s * rest
    return out, idempotents


def phi_by_trial_factorization(n: int) -> int:
    out, rest, p = 1, n, 2
    while p * p <= rest:
        if rest % p == 0:
            out *= p - 1
            rest //= p
            while rest % p == 0:
                out *= p
                rest //= p
        p += 1
    if rest > 1:
        out *= rest - 1
    return out


def zeta_pochhammer(order: int, k: int) -> CyclotomicInteger:
    """(zeta)_k = (1 - zeta)(1 - zeta^2)...(1 - zeta^k) computed directly
    in Z[zeta_order], never through polynomial reduction."""
    one, zeta = CyclotomicInteger.one(order), CyclotomicInteger.zeta(order)
    power = one
    out = one
    for _ in range(k):
        power = power * zeta
        out = out * (one - power)
    return out


def kz_value_oracle(order: int) -> CyclotomicInteger:
    """Terminating sum sum_{k < order} (zeta)_k: the value of the
    Kontsevich-Zagier series at a primitive order-th root."""
    total = CyclotomicInteger.zero(order)
    for k in range(order):
        total = total + zeta_pochhammer(order, k)
    return total


def kz_value_by_strange_identity(order: int) -> CyclotomicInteger:
    """The Kontsevich-Zagier series at a primitive order-th root from
    Zagier's strange identity, with no (zeta)_j at all: with M = 12 order
    and chi_12(n) = 1 for n = +-1 and -1 for n = +-5 mod 12,
    F(zeta) = (M/4) sum_{n=1}^{M} chi_12(n) zeta^((n^2-1)/24) B_2(n/M),
    B_2(x) = x^2 - x + 1/6, summed in Q[y]/Phi_order by Fraction.  (D.
    Zagier, "Vassiliev invariants and a strange identity related to the
    Dedekind eta-function", Topology 40, 2001.)"""
    big, chi = 12 * order, {1: 1, 11: 1, 5: -1, 7: -1}
    sums = [Fraction(0)] * order
    for n in range(1, big + 1):
        if n % 12 in chi:
            x = Fraction(n, big)
            sums[(n * n - 1) // 24 % order] += chi[n % 12] * (x * x - x + Fraction(1, 6))
    poly = RatPolynomial([Fraction(big, 4) * c for c in sums])
    value = poly % cyclotomic_poly(order).to_rational()
    assert all(c.denominator == 1 for c in value.coeffs)
    return CyclotomicInteger(order, [c.numerator for c in value.coeffs])


def kz_taylor_by_strange_identity(order: int, r_max: int) -> list[RatPolynomial]:
    """a_0 ... a_{r_max} in Q[y]/Phi_order with
    F(zeta e^(-t)) = e^(t/24) sum_r a_r t^r for the Kontsevich-Zagier
    series at a primitive order-th root zeta, from Zagier's strange
    identity: with M = 12 order and C(n) = chi_12(n) zeta^((n^2-1)/24),
    a_r = -(1/2) L(-2r-1, C) (-1/24)^r / r! and
    L(-2r-1, C) = -M^(2r+1)/(2r+2) sum_{n=1}^{M} C(n) B_{2r+2}(n/M), the
    Bernoulli polynomials taken from sympy.  a_0 is the value
    (`kz_value_by_strange_identity`)."""
    import sympy

    x, big, chi = sympy.Symbol("x"), 12 * order, {1: 1, 11: 1, 5: -1, 7: -1}
    phi = cyclotomic_poly(order).to_rational()
    out = []
    for r in range(r_max + 1):
        bernoulli = sympy.Poly(sympy.bernoulli(2 * r + 2, x), x).all_coeffs()
        bernoulli = [Fraction(int(c.p), int(c.q)) for c in bernoulli]
        sums = [Fraction(0)] * order
        for n in range(1, big + 1):
            if n % 12 in chi:
                value = Fraction(0)
                for c in bernoulli:
                    value = value * Fraction(n, big) + c
                sums[(n * n - 1) // 24 % order] += chi[n % 12] * value
        scale = Fraction(big ** (2 * r + 1), 4 * r + 4) * Fraction(-1, 24) ** r / math.factorial(r)
        out.append(RatPolynomial([scale * c for c in sums]) % phi)
    return out


def taylor_in_t(coeffs, order: int) -> list[RatPolynomial]:
    """The t^0 ... t^J coefficients, in Q[y]/Phi_order, of sum_j c_j x^j
    at x = zeta (e^(-t) - 1) for the J + 1 Taylor coefficients c_j at a
    primitive order-th root zeta, i.e. of the expansion in t of the value
    at q = zeta e^(-t).  x^j starts at t^j with (-zeta)^j, so the map
    from c_0 ... c_J is triangular and invertible."""
    top, phi = len(coeffs), cyclotomic_poly(order).to_rational()
    e = [Fraction(0)] + [Fraction((-1) ** i, math.factorial(i)) for i in range(1, top)]
    power = [Fraction(1)] + [Fraction(0)] * (top - 1)  # (e^(-t) - 1)^j
    out = [RatPolynomial.zero()] * top
    for j, c in enumerate(coeffs):
        term = (RatPolynomial(c.coeffs) * RatPolynomial.monomial(1, j)) % phi  # c_j zeta^j
        out = [o + term * p for o, p in zip(out, power)]
        power = [sum(power[i] * e[r - i] for i in range(r + 1)) for r in range(top)]
    return out


def taylor_by_substitution(coeffs, order: int, j_max: int):
    """Taylor coefficients of an integer polynomial at zeta_order,
    computed by expanding P(x + zeta) with Horner over Z[zeta][x] —
    a different algorithm from the library's binomial sums over zeta
    buckets (c_j = sum_i C(i, j) a_i zeta^(i-j))."""
    zero = CyclotomicInteger.zero(order)
    zeta = CyclotomicInteger.zeta(order)
    acc: list[CyclotomicInteger] = []
    for c in reversed(coeffs):
        new = [zero] * (len(acc) + 1)
        for i, a in enumerate(acc):
            new[i + 1] = new[i + 1] + a
            new[i] = new[i] + a * zeta
        new[0] = new[0] + CyclotomicInteger(order, [c])
        acc = new
    out = []
    for j in range(j_max + 1):
        out.append(acc[j] if j < len(acc) else zero)
    return out


def x_jet(coeffs, order: int, j_max: int) -> list[list[int]]:
    """Image of sum a_i q^i under q -> y + x in
    Z[y]/(y^order - 1)[x]/(x^(j_max+1)): row j holds the x^j coefficient
    as order buckets, bucket r collecting C(i, j) a_i for i - j = r mod
    order — the binomial sum in the x-basis, term by term, where the
    library works in the basis z = x / y."""
    rows = [[0] * order for _ in range(j_max + 1)]
    for i, a in enumerate(coeffs):
        if a:
            for j in range(min(i, j_max) + 1):
                rows[j][(i - j) % order] += comb(i, j) * a
    return rows


def z_jet_n_buckets(coeffs, n: int, top: int) -> list[int]:
    """`rootexp._z_jet` as it was before jets lived in the smallest binomial
    ring that Phi_n divides: the z-basis jet in Z[y]/(y^n - 1), n buckets
    a row at every center.

    Image of sum a_i q^i under q -> y(1 + z) in Z[y]/(y^n - 1)[z]/(z^top),
    flat and row-major: entry j*n + r is the z^j y^r coefficient, the sum
    of C(i, j) a_i over i = r mod n.  Row j folds w_j(i) = C(i, j) a_i into
    n buckets, and w_j(i) = w_(j-1)(i) (i - j + 1) / j exactly."""
    flat, w = [], coeffs
    for j in range(top):
        if j:
            w = [c * (i - j + 1) // j for i, c in enumerate(w)]
        flat += [sum(w[r::n]) for r in range(n)]
    return flat


def times_step_n_buckets(live: list[int], step, n: int) -> list[int]:
    """`rootexp._times_step` as it was before jets lived in the smallest
    binomial ring that Phi_n divides, on rows of n buckets.

    live * sum a_i q^i in the z-basis, where q^i = y^i (1 + z)^i and live
    is a run of rows; rows past its end are cut.  The step's nonzero a_i
    are grouped by i mod n: class s sums D_s[j] = sum C(i, j) a_i over its
    i, rotates the live rows by s once and adds D_s[j] times them, moved j
    rows up, in one slice pass per nonzero D_s[j].  So 1 - q^k with n | k
    makes no row-0 pass (1 - 1 = 0)."""
    rows = len(live) // n
    sums: dict[int, list[int]] = {}
    for i in compress(range(len(step)), step):
        d, a = sums.setdefault(i % n, [0] * rows), step[i]
        for j in range(min(i + 1, rows)):
            d[j] += comb(i, j) * a
    out = [0] * len(live)
    for s, d in sums.items():
        src = live
        if s:  # times y^s: every live row rotated by s
            src = []
            for t in range(0, len(live), n):
                src += live[t + n - s : t + n] + live[t : t + n - s]
        for j in compress(range(rows), d):
            c, at = d[j], j * n
            out[at:] = [o + c * v for o, v in zip(out[at:], src)]
    return out


def div_by_q_minus_zeta(coeffs, order):
    """Synthetic division over Z[zeta]: (quotient, remainder)."""
    acc, zeta = CyclotomicInteger.zero(order), CyclotomicInteger.zeta(order)
    quot = [acc] * max(len(coeffs) - 1, 0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * zeta + coeffs[i]
        quot[i - 1] = acc
    rem = acc * zeta + coeffs[0] if coeffs else acc
    return quot, rem


def multiplicity_by_synthetic_division(g: IntPolynomial, order: int) -> int:
    """Exponent of (q - zeta_order) in nonzero g over Z[zeta_order]."""
    coeffs = [CyclotomicInteger(order, [c]) for c in g.coeffs]
    mult = 0
    while True:
        quot, rem = div_by_q_minus_zeta(coeffs, order)
        if not rem.is_zero:
            return mult
        mult, coeffs = mult + 1, quot


def taylor_by_binomial_sum(coeffs, order: int, j_max: int, valid_to: int) -> RootTaylorSeries:
    """Taylor coefficients of sum a_i q^i at zeta_order: the rows of
    `x_jet` reduced mod Phi_order."""
    rows = x_jet(coeffs, order, j_max)
    return RootTaylorSeries(order, valid_to, tuple(CyclotomicInteger(order, r) for r in rows))


def taylor_oracle(a, order: int, j_max: int) -> RootTaylorSeries:
    """taylor_at_root by other routes: the precision bound from the
    multiplicity of (q - zeta) in the truncation modulus, counted by
    synthetic division, and the coefficients from `x_jet`."""
    valid_to = multiplicity_by_synthetic_division(a.chain.modulus(a.level), order) - 1
    if j_max > valid_to:
        raise InsufficientPrecision(f"valid to {valid_to}, {j_max} requested")
    return taylor_by_binomial_sum(a.rep.coeffs, order, j_max, valid_to)


def expand_series_global(spec, order: int, j_max: int):
    """Expansion of a series at zeta_order by the global route: realise it
    mod (q)_level at level order*(j_max+1), a representative of degree
    about level^2/2 whose expansion is valid to j_max, then Taylor-expand
    that representative by `x_jet`."""
    level = order * (j_max + 1)
    rep = series_realize(spec, PochhammerChain(), level).rep
    return taylor_by_binomial_sum(rep.coeffs, order, j_max, j_max)


def u_term(k: int) -> IntPolynomial:
    """u_k = q^k [k+1]_q prod_{i=k+2}^{2k+1} (1 - q^i), from its closed form;
    u_k = q^k [2k+1 choose k]_q [k+1]_q (q)_k, so (q)_k divides it and
    (q)_(k+1) does not (u_k / (q)_k is nonzero at q = 1)."""
    out = IntPolynomial.monomial(1, k) * IntPolynomial([1] * (k + 1))
    for i in range(k + 2, 2 * k + 2):
        out = out * (IntPolynomial.one() - IntPolynomial.monomial(1, i))
    return out


def u_step(k: int) -> IntPolynomial:
    """u_k / u_(k-1) = q (1 + q^k)(1 - q^(2k+1)): four coefficients, at
    1, k + 1, 2k + 2 and 3k + 2, and q^k - 1 divides it only at k = 1
    (Phi_k for k >= 2 takes the values 2 and 1 - zeta_k on the factors)."""
    one, q = IntPolynomial.one(), IntPolynomial.monomial
    return q(1, 1) * (one + q(1, k)) * (one - q(1, 2 * k + 1))


def u_spec(witness_shift: int = 0) -> SeriesSpec:
    """sum_k u_k with a step and witness k + witness_shift: a third series
    for the jet's general path, kept out of NAMED_SERIES (and so out of
    the CLI).  Shift 0 keeps the tail contract; shift 1 lies at k = 0."""
    return SeriesSpec(
        name="u", term=u_term, witness=lambda k: k + witness_shift, step=u_step
    )


def kz_stopped_at(at: int) -> SeriesSpec:
    """kz's own term and step, with witness(at) = 10**6, past every level,
    and witness k elsewhere."""
    kz = KONTSEVICH_ZAGIER_SPEC
    return SeriesSpec(
        name="kz-stopped", term=kz.term, witness=lambda k: 10**6 if k == at else k, step=kz.step
    )


def evaluate_by_division(a, order: int) -> CyclotomicInteger:
    """Value of a truncated element at zeta_order by long division of its
    representative by Phi_order, instead of folding its coefficients into
    order buckets."""
    return CyclotomicInteger(order, (a.rep % cyclotomic_poly(order)).coeffs)


def components_by_pairwise_closure(desc, S) -> list[list[int]]:
    """Connected components by a search that tests `is_adjacent` on every
    pair it meets, O(V^2) tests, instead of a union-find over prime-power
    divisors.  Each component sorted, ordered by smallest member."""
    verts = sorted(set(S))
    seen: set[int] = set()
    comps = []
    for start in verts:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            cur = queue.pop()
            for other in verts:
                if other not in seen and is_adjacent(desc, cur, other):
                    seen.add(other)
                    comp.append(other)
                    queue.append(other)
        comps.append(sorted(comp))
    return comps


def twins(value) -> list:
    """A copy, a deep copy and an unpickled copy of `value`."""
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def check_round_trip(value) -> None:
    """Every twin of a `polyring.Frozen` value is a new value of its type,
    equal to it."""
    for twin in twins(value):
        assert type(twin) is type(value) and twin == value and twin is not value


def check_frozen_value(make, other, text: str, field: str) -> None:
    """The value protocol of `polyring.Frozen`: equality and hash by field
    values, the repr `text`, copies and pickles equal to the value, and an
    AttributeError on assigning or deleting `field` or any new attribute."""
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and a is not b
    check_round_trip(a)
    assert a != other() and a != text
    assert repr(a) == text
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
