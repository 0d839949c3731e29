"""Chinese-Remainder structure of the rational-coefficient completions.

Over Q, distinct cyclotomic powers Phi_m^i and Phi_n^j are comaximal, so
Q[q] modulo a product of such powers splits as a direct product of the
single-factor quotients.  That splitting is what makes restriction maps
over Q lossy: dropping a component is a surjection with a visible kernel.
`rho_q_kernel_witness` builds one such kernel element, the idempotent of
{1: L, 2: L}, from its closed form, not by gluing.  Over Z the analogous
element exists at no level: `integer_witness_search` says why.

Residues are glued by Garner's mixed radix.  Walk the factors F_j =
Phi_n^lambda(n) in support order with M_{j-1} the product of those before
F_j (M_0 = 1).  `subresultant_bezout(M_{j-1} mod F_j, F_j)` returns res
and u with u*M_{j-1} = res mod F_j, an identity it checks, so t_j = u/res
inverts M_{j-1} mod F_j; each such PRS has the degree of F_j only.  An
`ExponentVector` keeps two things, each computed once on first use: its
factor powers over Q, which a split reads, and this glue (F_j, M_{j-1},
t_j) together with the modulus M_k, the walk's last prefix.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping

from .cyclotomic import cyclotomic_poly
from .errors import DegreeViolation
from .polyring import Frozen, IntPolynomial, RatPolynomial, check_index
from .polyring import subresultant_bezout


class ExponentVector(Frozen):
    """Finite support map n -> lambda(n) >= 1 selecting the modulus
    prod Phi_n^lambda(n), kept as the sorted pairs `exponents`; the
    constructor takes a mapping or such pairs, read as `dict` reads them.
    The derived polynomials are cached properties, computed on first use."""

    _fields = ("exponents",)

    def __init__(self, exponents: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = tuple(sorted(dict(exponents).items()))
        if not items:
            raise ValueError("exponent vector needs nonempty support")
        for n, e in items:
            check_index(n, "cyclotomic index", 1)
            check_index(e, "exponent", 1)
        self._init(items)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.exponents)

    def exponent(self, n: int) -> int:
        return dict(self.exponents)[n]

    @cached_property
    def _factors(self) -> dict[int, RatPolynomial]:
        """n -> Phi_n^lambda(n) over Q."""
        return {n: (cyclotomic_poly(n) ** e).to_rational() for n, e in self.exponents}

    def factor(self, n: int) -> RatPolynomial:
        """Phi_n^lambda(n) over Q."""
        return self._factors[n]

    def modulus(self) -> RatPolynomial:
        """prod Phi_n^lambda(n) over Q, read off the glue as M_k: a vector
        asked only for its modulus builds the glue, one PRS per factor.  The
        one program caller, `selfcheck`, asks after a reconstruction."""
        return self._mixed_radix[1]

    @cached_property
    def _mixed_radix(self) -> tuple[tuple[tuple, ...], RatPolynomial]:
        """The rows (n, F_j, M_{j-1}, t_j) over Q, one per factor in support
        order, and M_k, as in the module docstring; deg t_j < deg F_j."""
        rows, prefix = [], IntPolynomial.one()
        for n, f in self._factors.items():
            g = IntPolynomial(f.numerators)  # f is g over 1
            res, u, _ = subresultant_bezout(prefix % g, g)
            if res == 0:
                raise AssertionError("CRT moduli are not coprime")
            rows.append((n, f, prefix.to_rational(), RatPolynomial(u.coeffs, res)))
            prefix = prefix * g
        return tuple(rows), prefix.to_rational()


class CrtComponents(Frozen):
    """One residue per support index, each reduced mod Phi_n^lambda(n),
    kept as the sorted pairs `components`; the constructor takes a mapping
    or such pairs, as `ExponentVector` does."""

    _fields = ("components",)

    def __init__(
        self, components: Mapping[int, RatPolynomial] | Iterable[tuple[int, RatPolynomial]]
    ):
        items = tuple(sorted(dict(components).items()))
        for n, _ in items:
            check_index(n, "cyclotomic index", 1)
        self._init(items)

    def component(self, n: int) -> RatPolynomial:
        return dict(self.components)[n]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.components)


def crt_split(f: RatPolynomial, lam: ExponentVector) -> CrtComponents:
    """Componentwise remainders: the direct-product image of f."""
    return CrtComponents({n: f % lam.factor(n) for n in lam.support})


def crt_reconstruct(comps: CrtComponents, lam: ExponentVector) -> RatPolynomial:
    """The unique representative of degree < deg modulus hitting every
    component; inverse to crt_split.  Each step of the mixed radix,
    x <- x + M_{j-1} * (((c_j - x mod F_j) * t_j) mod F_j), keeps x = c_i
    mod F_i for i < j, makes x = c_j mod F_j and keeps deg x < deg M_j."""
    if comps.support != lam.support:
        raise ValueError(f"component support {comps.support} does not match {lam.support}")
    out, components = RatPolynomial.zero(), dict(comps.components)
    for n, f, prefix, t in lam._mixed_radix[0]:
        c = components[n]
        if c.degree >= f.degree:
            raise DegreeViolation(f"component at {n} has degree {c.degree}, bound is {f.degree}")
        out = out + prefix * (((c - out % f) * t) % f)
    return out


def crt_idempotents(lam: ExponentVector) -> dict[int, RatPolynomial]:
    """Preimages e_n of the unit vectors, each glued by crt_reconstruct:
    e_n = 1 mod Phi_n^lambda(n), 0 mod the other factors.  That is one
    glue per support index: k indices cost k mixed-radix walks of k
    steps, though all of them share the one set of inverses t_j."""
    zero, one = RatPolynomial.zero(), RatPolynomial.one()
    return {
        n: crt_reconstruct(CrtComponents({m: one if m == n else zero for m in lam.support}), lam)
        for n in lam.support
    }


def rho_q_kernel_witness(level: int) -> RatPolynomial:
    """A rational polynomial that is 0 mod (q-1)^level and 1 mod
    (q+1)^level: nonzero in the completion at {1, 2} but killed by
    restriction to {1}; a level < 1 is a ValueError.  It is the CRT
    idempotent e_2 of {1: L, 2: L}, L the level, built from its closed form
    instead of the glue.  With x = (1-q)/2 and y = (1+q)/2, x + y = 1, and
    splitting (x + y)^(2L-1) at the power L of x gives
    x^L A(y) + y^L A(x) = 1, A(t) = sum_{i<L} C(L-1+i, i) t^i.  So x^L A(y)
    is a witness of degree 2L - 1 < deg (q-1)^L (q+1)^L, the one that
    `crt_reconstruct` glues.  Over 2^(2L-1) its numerators are
    (1-q)^L * sum_{i<L} C(L-1+i, i) 2^(L-1-i) (1+q)^i, the sum taken by
    Horner's rule in 1 + q."""
    check_index(level, "level", 1)
    one_plus_q, total = IntPolynomial([1, 1]), IntPolynomial.zero()
    for i in reversed(range(level)):
        total = total * one_plus_q + IntPolynomial.constant(
            math.comb(level - 1 + i, i) << (level - 1 - i)
        )
    return RatPolynomial((IntPolynomial([1, -1]) ** level * total).coeffs, 2 ** (2 * level - 1))


def integer_witness_search(level: int = 1, max_degree: int = 1, coeff_bound: int = 20) -> None:
    """The integer analogue of `rho_q_kernel_witness` in the box deg w <=
    max_degree, |coefficients| <= coeff_bound; there is none, so None.

    Proof, for every level, degree and bound: a witness w is 0 mod
    (q-1)^level and 1 mod (q+1)^level, so w(1) = 0 and w(-1) = 1.  But
    w(1) - w(-1) is twice the sum of w's odd coefficients, so it is even.
    Equivalently, 1 = w - (w - 1) would lie in (Phi_1, Phi_2) = (q - 1, 2),
    a proper ideal: the CommonPrimeCertificate(p=2) of the pair (1, 2).
    The box arguments are still validated (a level below 1 or a negative
    max_degree or coeff_bound is a ValueError) but cannot change the answer.
    """
    check_index(level, "level", 1)
    check_index(max_degree, "max_degree", 0)
    check_index(coeff_bound, "coeff_bound", 0)
