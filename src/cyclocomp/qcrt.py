"""Chinese-Remainder structure of the rational-coefficient completions.

Over Q, distinct cyclotomic powers Phi_m^i and Phi_n^j are comaximal, so
Q[q] modulo a product of such powers splits as a direct product of the
single-factor quotients.  That splitting is what makes restriction maps
over Q lossy: dropping a component is a surjection with a visible kernel.
`rho_q_kernel_witness` constructs such kernel elements explicitly, and a
bounded search certifies that the analogous integer-coefficient element
does not exist at level 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .cyclotomic import cyclotomic_poly
from .errors import DegreeViolation
from .polyring import IntPolynomial, RatPolynomial, rational_xgcd


@dataclass(frozen=True)
class ExponentVector:
    """Finite support map n -> lambda(n) >= 1 selecting the modulus
    prod Phi_n^lambda(n)."""

    exponents: tuple[tuple[int, int], ...]

    def __init__(self, exponents: Mapping[int, int]):
        items = tuple(sorted((int(n), int(e)) for n, e in exponents.items()))
        if not items:
            raise ValueError("exponent vector needs nonempty support")
        for n, e in items:
            if n < 1 or e < 1:
                raise ValueError("indices and exponents must be >= 1")
        object.__setattr__(self, "exponents", items)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.exponents)

    def exponent(self, n: int) -> int:
        return dict(self.exponents)[n]

    def factor(self, n: int) -> RatPolynomial:
        """Phi_n^lambda(n) over Q."""
        return (cyclotomic_poly(n) ** self.exponent(n)).to_rational()

    def modulus(self) -> RatPolynomial:
        out = RatPolynomial.one()
        for n, _ in self.exponents:
            out = out * self.factor(n)
        return out

    def component_degree_bound(self, n: int) -> int:
        return self.exponent(n) * (len(cyclotomic_poly(n).coeffs) - 1)


@dataclass(frozen=True)
class CrtComponents:
    """One residue per support index, each reduced mod Phi_n^lambda(n)."""

    components: tuple[tuple[int, RatPolynomial], ...]

    def __init__(self, components: Mapping[int, RatPolynomial]):
        object.__setattr__(
            self,
            "components",
            tuple(sorted((int(n), c) for n, c in components.items())),
        )

    def component(self, n: int) -> RatPolynomial:
        return dict(self.components)[n]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.components)


def crt_split(f: RatPolynomial, lam: ExponentVector) -> CrtComponents:
    """Componentwise remainders: the direct-product image of f."""
    return CrtComponents(
        {n: f % lam.factor(n) for n in lam.support}
    )


_bezout_cache: dict[tuple, tuple[RatPolynomial, RatPolynomial]] = {}


def _bezout_pair(f: RatPolynomial, g: RatPolynomial):
    """Cached (u, v) with u*f + v*g = 1 for coprime moduli."""
    key = (f.coeffs, g.coeffs)
    hit = _bezout_cache.get(key)
    if hit is not None:
        return hit
    one, u, v = rational_xgcd(f, g)
    if one != RatPolynomial.one():
        raise AssertionError("CRT moduli are not coprime")
    return _bezout_cache.setdefault(key, (u, v))


def crt_reconstruct(comps: CrtComponents, lam: ExponentVector) -> RatPolynomial:
    """The unique representative of degree < deg modulus hitting every
    component; inverse to crt_split."""
    if comps.support != lam.support:
        raise ValueError(
            f"component support {comps.support} does not match {lam.support}"
        )
    for n in lam.support:
        c = comps.component(n)
        if c.degree >= lam.component_degree_bound(n):
            raise DegreeViolation(
                f"component at {n} has degree {c.degree}, bound is "
                f"{lam.component_degree_bound(n)}"
            )
    ns = lam.support
    acc_mod = lam.factor(ns[0])
    acc = comps.component(ns[0])
    for n in ns[1:]:
        f, c = lam.factor(n), comps.component(n)
        u, v = _bezout_pair(acc_mod, f)
        # u*acc_mod + v*f = 1: glue acc (mod acc_mod) with c (mod f)
        acc = (acc * v * f + c * u * acc_mod) % (acc_mod * f)
        acc_mod = acc_mod * f
    return acc


def crt_idempotents(lam: ExponentVector) -> dict[int, RatPolynomial]:
    """Preimages e_n of the unit vectors: e_n = 1 at n, 0 elsewhere."""
    out = {}
    zero, one = RatPolynomial.zero(), RatPolynomial.one()
    for n in lam.support:
        comps = CrtComponents({m: (one if m == n else zero) for m in lam.support})
        out[n] = crt_reconstruct(comps, lam)
    return out


def rho_q_kernel_witness(level: int) -> RatPolynomial:
    """A rational polynomial that is 0 mod (q-1)^level and 1 mod
    (q+1)^level: nonzero in the completion at {1, 2} but killed by
    restriction to {1}.  Built by CRT reconstruction."""
    if level < 1:
        raise ValueError("level must be >= 1")
    lam = ExponentVector({1: level, 2: level})
    comps = CrtComponents({1: RatPolynomial.zero(), 2: RatPolynomial.one()})
    return crt_reconstruct(comps, lam)


def integer_witness_search(
    level: int = 1, max_degree: int = 1, coeff_bound: int = 20
) -> Optional[IntPolynomial]:
    """Bounded exhaustive search for an integer-coefficient polynomial of
    degree <= max_degree that is 0 mod (q-1)^level and 1 mod (q+1)^level.

    This is a finite certificate over the searched box, not a proof: it
    scans all coefficient vectors with entries in [-coeff_bound,
    coeff_bound] and returns the first witness found, or None.
    """
    f1 = cyclotomic_poly(1) ** level
    f2 = cyclotomic_poly(2) ** level
    rng = range(-coeff_bound, coeff_bound + 1)
    for coeffs in itertools.product(rng, repeat=max_degree + 1):
        cand = IntPolynomial(coeffs)
        if (cand % f1).is_zero and (cand - IntPolynomial.one()) % f2 == IntPolynomial.zero():
            return cand
    return None
