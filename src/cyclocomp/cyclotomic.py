"""Cyclotomic polynomials, q-Pochhammer products, and the adjacency
combinatorics that controls which completions restrict injectively.

The central combinatorial datum is c(m, n): 0 when m = n, a prime p when
n/m is a nonzero integer power of p, and 1 otherwise.  Two indices are
adjacent over a coefficient ring exactly when the ring is c-adically
separated, which for the built-in descriptors reduces to a predicate on
primes.  The module's one store is the Phi_n table `_cyclo_cache`, of
immutable polynomials; the (q)_k store is `completion.PochhammerChain`'s,
and `pochhammer` keeps none.  Of the value classes here only the two
coprimality certificates pose as dataclasses (`polyring._Replaceable`).
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from typing import Callable, Iterable, Optional

from .errors import EmptySet, EqualIndices, NotPrime
from .polyring import (
    Frozen,
    IntPolynomial,
    _Replaceable,
    check_index,
    is_prime,
    poly_mod_prime,
    prime_factors,
    resultant,
    subresultant_bezout,
)

# -- cyclotomic polynomials -----------------------------------------------

_cyclo_cache: dict[int, IntPolynomial] = {}


def cyclotomic_poly(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, cached: -+ prod_{d | n} (1 - q^d)^mu(n/d)
    (minus for n = 1 only) as a power series cut above degree phi(n), after
    A. Arnold and M. Monagan, "Calculating cyclotomic polynomials" (2011).
    A factor with d > phi(n) acts as 1.  Multiplying by 1 - q^d is a slice
    update; dividing by it, a running sum along each class mod d.  Cost
    O(2^omega(n) phi(n)) additions.  A result that is not monic, and for
    n >= 2 palindromic, is an AssertionError."""
    check_index(n, "cyclotomic index", 1)
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    primes = prime_factors(n)
    deg = n // math.prod(primes) * math.prod(p - 1 for p in primes)
    f = [-1 if n == 1 else 1] + [0] * deg
    for k in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            d = n // math.prod(chosen)
            if d > deg:
                continue
            if k % 2 == 0:  # mu(n/d) = 1
                f[d:] = map(operator.sub, f[d:], f[: deg + 1 - d])
            else:
                for r in range(d):
                    f[r::d] = itertools.accumulate(f[r::d])
    if f[deg] != 1 or (n > 1 and f != f[::-1]):
        raise AssertionError(f"Moebius series for Phi_{n} is not monic and palindromic")
    return _cyclo_cache.setdefault(n, IntPolynomial(f))


def save_cyclotomic_cache(path: str) -> None:
    """Write the cached Phi_n as a JSON object n -> coefficients, through a
    file beside path renamed over it, so no reader sees a partial file."""
    import json  # no CLI process writes the file; kept out of start-up

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({str(n): p.to_json() for n, p in _cyclo_cache.items()}, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def pochhammer_factor(k: int) -> IntPolynomial:
    """q^k - 1 for k >= 1, the factor g_k / g_{k-1} of the monic (q)_k chain."""
    return IntPolynomial._wrap([-1] + [0] * (check_index(k, "pochhammer factor", 1) - 1) + [1])


def pochhammer(n: int) -> IntPolynomial:
    """(q)_n = (1 - q)(1 - q^2)...(1 - q^n); (q)_0 = 1.  Degree n(n+1)/2.
    The product of the factors q^k - 1, sign restored; it stores nothing."""
    check_index(n, "pochhammer index", 0)
    g = math.prod(map(pochhammer_factor, range(1, n + 1)), start=IntPolynomial.one())
    return -g if n % 2 else g


# -- the c table and the adjacency graph ----------------------------------


def c_value(m: int, n: int) -> int:
    """0 if m = n; p if n/m is a nonzero integer power of the prime p;
    1 otherwise.  Symmetric in its arguments."""
    check_index(m, "cyclotomic index", 1)
    check_index(n, "cyclotomic index", 1)
    if m == n:
        return 0
    g = math.gcd(m, n)
    m, n = m // g, n // g
    if m > n:
        m, n = n, m
    if m != 1:
        return 1
    primes = prime_factors(n)
    return primes[0] if len(primes) == 1 else 1


class RingDescriptor(Frozen):
    """Separatedness profile of a coefficient ring: everything the
    adjacency graph needs, nothing else (no ring elements)."""

    _fields = ("name", "is_zero_ring", "separated_primes")

    def __init__(
        self, name: str, is_zero_ring: bool, separated_primes: Callable[[int], bool]
    ) -> None:
        self._init(name, is_zero_ring, separated_primes)

    def is_separated_at(self, c: int) -> bool:
        """Whether the ring is (c)-adically separated, for c in {0, 1, p}."""
        if self.is_zero_ring or c == 0:
            return True
        if c == 1:
            return False
        return self.separated_primes(c)


class _PrimesNotDividing(Frozen):
    """The built-in descriptors' "p does not divide m", as a value: m = 1
    holds at every prime, m = 0 at none."""

    __slots__ = _fields = ("m",)

    def __init__(self, m: int) -> None:
        self._init(m)

    def __call__(self, p: int) -> bool:
        return self.m % p != 0


RING_Z = RingDescriptor("Z", False, _PrimesNotDividing(1))
RING_Q = RingDescriptor("Q", False, _PrimesNotDividing(0))
RING_ZERO = RingDescriptor("0", True, _PrimesNotDividing(1))


def ring_z_inverted(m: int) -> RingDescriptor:
    """Z[1/m]: separated exactly at the primes not dividing m."""
    return RingDescriptor(f"Z[1/{m}]", False, _PrimesNotDividing(check_index(m, "m", 1)))


def is_adjacent(desc: RingDescriptor, m: int, n: int) -> bool:
    """Adjacency of m and n in the completion graph over desc: equal
    indices, a prime-power ratio at a separated prime, or the zero ring."""
    return desc.is_separated_at(c_value(m, n))


class AdjacencyGraph(Frozen):
    _fields = ("vertices", "descriptor")

    def __init__(self, vertices: frozenset[int], descriptor: RingDescriptor) -> None:
        self._init(vertices, descriptor)

    def components(self) -> list[list[int]]:
        return connected_components(self.descriptor, self.vertices)


def connected_components(
    desc: RingDescriptor, S: Iterable[int]
) -> list[list[int]]:
    """Partition of S into adjacency-connected components, each sorted,
    ordered by smallest member.  A union-find joins each v to the members
    v / p^j (j >= 1) at the primes p where desc is separated, its
    neighbours below it; over the zero ring all of S is one component."""
    verts = sorted({check_index(v, "vertex", 1) for v in S})
    if not verts:
        raise EmptySet("component partition of the empty set")
    if desc.is_zero_ring:
        return [verts]
    parent = {v: v for v in verts}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for v in verts:
        for p in filter(desc.is_separated_at, prime_factors(v)):
            u = v
            while u % p == 0:
                u //= p
                if u in parent:
                    parent[root(u)] = root(v)
    comps: dict[int, list[int]] = {}
    for v in verts:
        comps.setdefault(root(v), []).append(v)
    return list(comps.values())


# -- the mod-p congruence between cyclotomic levels ------------------------


def _pow_mod_p(base: IntPolynomial, exp: int, p: int) -> IntPolynomial:
    """base^exp over Z/p, by square-and-multiply with coefficients
    reduced into [0, p) after every product."""
    out = IntPolynomial.one()
    base = poly_mod_prime(base, p)
    while exp:
        if exp & 1:
            out = poly_mod_prime(out * base, p)
        exp >>= 1
        if exp:
            base = poly_mod_prime(base * base, p)
    return out


def congruence_check(n: int, p: int, e: int) -> tuple[int, bool]:
    """Order-raising congruence: Phi_{p^e * n} == Phi_n^d mod p, with
    d = deg Phi_{p^e n} / deg Phi_n.

    Returns (d, holds) where holds also requires d to match its closed
    form: (p-1)*p^(e-1) when p does not divide n, p^e when it does.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    check_index(n, "n", 1)
    check_index(e, "e", 1)
    big = cyclotomic_poly(p**e * n)
    small = cyclotomic_poly(n)
    d = (len(big.coeffs) - 1) // (len(small.coeffs) - 1)
    closed = p**e if n % p == 0 else (p - 1) * p ** (e - 1)
    holds = d == closed and poly_mod_prime(big, p) == _pow_mod_p(small, d, p)
    return d, holds


# -- coprimality certificates ----------------------------------------------


class UnitCertificate(_Replaceable):
    """u*Phi_m + v*Phi_n = 1 with integer cofactors."""

    __slots__ = _fields = ("u", "v", "resultant")

    def __init__(self, u: IntPolynomial, v: IntPolynomial, resultant: int) -> None:
        self._init(u, v, resultant)


class CommonPrimeCertificate(_Replaceable):
    """The two indices share the prime p = c(m, n).  The resultant, taken
    in ascending index order, is p^exponent with exponent phi(min(m, n))."""

    __slots__ = _fields = ("p", "resultant", "exponent")

    def __init__(self, p: int, resultant: int, exponent: int) -> None:
        self._init(p, resultant, exponent)


def cyclotomic_coprimality(m: int, n: int) -> UnitCertificate | CommonPrimeCertificate:
    """Dichotomy for the ideal (Phi_m, Phi_n) in Z[q]: a Bezout
    certificate of coprimality when c(m, n) = 1, otherwise the shared
    prime p with the resultant res(Phi_min, Phi_max), checked to equal
    p^phi(min(m, n)) (T. M. Apostol, "Resultants of cyclotomic
    polynomials", Proc. AMS 24, 1970).  Ascending order fixes the sign: a
    swap multiplies it by (-1)^(phi(m) phi(n)), -1 only for the pair {1, 2}."""
    if m == n:
        raise EqualIndices("coprimality needs two distinct indices")
    c = c_value(m, n)
    if c == 1:
        res, u, v = subresultant_bezout(cyclotomic_poly(m), cyclotomic_poly(n))
        if res != 1:
            raise AssertionError(f"expected resultant 1 for ({m},{n}), got {res}")
        return UnitCertificate(u=u, v=v, resultant=res)
    # no cofactors are kept for a shared prime, so only the resultant is built
    low, high = map(cyclotomic_poly, sorted((m, n)))
    res = resultant(low, high)
    if res != c**low.degree:
        raise AssertionError(f"resultant {res} of ({m},{n}) is not {c}^{low.degree}")
    return CommonPrimeCertificate(p=c, resultant=res, exponent=low.degree)


# -- bounded ideal-membership search ---------------------------------------


def arrow_witness(
    f: IntPolynomial, g: IntPolynomial, c: int, max_power: int
) -> Optional[int]:
    """Smallest m with 0 <= m <= max_power such that every coefficient of
    f^m mod g is divisible by c, or None.  c >= 0, and c = 0 demands exact
    vanishing.  max_power must be at least 1 (a ValueError otherwise), so
    the search always tries f^0 = 1 and f^1; c = 1 is met at m = 0."""
    g._unit_leading_coefficient()
    check_index(c, "c", 0)
    check_index(max_power, "max_power", 1)
    power = IntPolynomial.one() % g  # f^m mod g, one division per power
    for m in range(max_power + 1):
        if all((coef == 0 if c == 0 else coef % c == 0) for coef in power.coeffs):
            return m
        power = (power * f) % g
    return None
