"""Truncated elements of cyclotomic completions.

A completion of Z[q] is handled through a *filtration chain*: a
divisibility chain g_0 = 1 | g_1 | g_2 | ... of unit-leading polynomials
cofinal in the directed system of moduli.  An element of the completed
ring is only ever represented *truncated*: as (chain, level k, rep) with
rep the canonical remainder mod g_k.  Raising precision is the caller's
job (via higher-level reps or series specs); nothing here pretends to
hold infinite data, so the precision contract is always explicit.

Each g_k is g_{k-1} times one unit-leading factor f_k: a chain class
supplies factor(k) and `FiltrationChain.modulus` multiplies the factors
out, so the divisibility g_{k-1} | g_k holds by construction and only the
unit-leading property of each factor is checked.  Multiplicities of Phi_n
and digit gaps are read from the factors, never from the dense g_k.

Three chain kinds are provided:

* PochhammerChain: g_k = (q)_k up to sign, normalized to leading
  coefficient +1 (the generated ideals are unchanged); f_k = q^k - 1.
  Its moduli list, shared by every instance, is the one store of (q)_k.
* AdicChain(f): g_k = f^k, the f-adic filtration; f_k = f.
* ProductChain(S) or ProductChain(enumeration=e): g_k = product of the
  first k entries of e, cyclotomic indices that recur forever; a set S is
  enumerated by cycling through sorted(S); f_k = Phi_{e(k-1)}.

Digit expansions generalize base-p digits: every level-k element is
uniquely a = sum of a_n * g_n with deg a_n < deg f_{n+1}, the mixed-radix
expansion a_0 + f_1 (a_1 + f_2 (a_2 + ...)) in the factors.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Optional

from .cyclotomic import cyclotomic_poly, pochhammer_factor
from .errors import (
    ChainMismatch,
    DigitDegreeViolation,
    EvenM,
    NonConvergent,
    NonUnitLeadingCoefficient,
    NotCoarser,
)
from .polyring import (
    Frozen, IntPolynomial, _Replaceable, check_index, divides, json_fields, json_int,
    subresultant_bezout,
)


class FiltrationChain(Frozen):
    """Base class: lazily generated, memoized modulus chain.

    Subclasses implement factor(k), the unit-leading f_k with
    g_k = g_{k-1} * f_k for k >= 1, and do not override `modulus`, the
    one loop that multiplies the factors out.  A factor that is not
    unit-leading is an AssertionError naming the chain and k, wherever
    the factor is read.  A chain is a `Frozen` value; its g_k are a cache.
    """

    label: str = "chain"

    def factor(self, k: int) -> IntPolynomial:
        raise NotImplementedError

    @cached_property
    def _moduli(self) -> list[IntPolynomial]:
        """The g_k so far, made on first use: a copy starts its own."""
        return [IntPolynomial.one()]

    def modulus(self, k: int) -> IntPolynomial:
        """g_k; g_0 = 1."""
        check_index(k, "level", 0)
        moduli = self._moduli
        while len(moduli) <= k:
            moduli.append(moduli[-1] * self._checked_factor(len(moduli)))
        return moduli[k]

    def _checked_factor(self, k: int) -> IntPolynomial:
        """factor(k), checked to be unit-leading; every reader of the
        factors goes through here."""
        f = self.factor(k)
        if not f.has_unit_leading_coefficient:
            raise AssertionError(f"{self.label}: factor f_{k} = {f} is not unit-leading")
        return f

    def multiplicity(self, n: int, level: int) -> int:
        """Multiplicity of Phi_n in g_level (checked ints n >= 1, level >= 0):
        the count of exact divisions by Phi_n over f_1 ... f_level."""
        phi, mult = cyclotomic_poly(n), 0
        for k in range(1, level + 1):
            quot, rem = divmod(self._checked_factor(k), phi)
            while rem.is_zero:
                mult += 1
                quot, rem = divmod(quot, phi)
        return mult

    def to_json_dict(self) -> dict:
        raise NotImplementedError


class PochhammerChain(FiltrationChain):
    """g_k = (q)_k normalized to leading coefficient +1: f_k = q^k - 1.
    The moduli list is a class attribute that shadows the per-chain memo,
    the one store of the g_k: every instance and copy reads it, and only
    `FiltrationChain.modulus` extends it."""

    label = "pochhammer"
    _moduli: list[IntPolynomial] = [IntPolynomial.one()]

    def factor(self, k: int) -> IntPolynomial:
        return pochhammer_factor(k)

    def multiplicity(self, n: int, level: int) -> int:
        """Phi_n divides q^k - 1 once exactly when n | k."""
        return level // n

    def to_json_dict(self) -> dict:
        return {"kind": "pochhammer"}


class AdicChain(FiltrationChain):
    """g_k = f^k for a fixed unit-leading polynomial f of degree >= 1."""

    _fields = ("f",)

    def __init__(self, f: IntPolynomial) -> None:
        if not f.has_unit_leading_coefficient or f.degree < 1:
            raise NonUnitLeadingCoefficient(
                "adic chains need a unit-leading polynomial of degree >= 1"
            )
        self._init(f)

    @property
    def label(self) -> str:
        return f"adic({self.f})"

    def factor(self, k: int) -> IntPolynomial:
        return self.f

    def multiplicity(self, n: int, level: int) -> int:
        """Every factor is f: level times the multiplicity of Phi_n in f."""
        return level * super().multiplicity(n, 1)

    def to_json_dict(self) -> dict:
        return {"kind": "adic", "f": self.f.to_json()}


class ProductChain(FiltrationChain):
    """g_k = Phi_{e(0)} * ... * Phi_{e(k-1)} for an enumeration e of
    indices in which every index recurs forever.

    A chain is identified by exactly one field, the data that fixes its
    factors: nonempty `indices`, cycled through sorted, or an
    `enumeration` i -> n (e.g. for an infinite set); the other is None.
    The label is derived from it: product[1, 2] or product(<qualname>).
    """

    _fields = ("indices", "enumeration")

    def __init__(
        self,
        indices: Optional[Iterable[int]] = None,
        enumeration: Optional[Callable[[int], int]] = None,
    ) -> None:
        if indices is not None:
            indices = tuple(sorted({check_index(n, "cyclotomic index", 1) for n in indices}))
        if (indices is None) == (enumeration is None) or indices == ():
            raise ValueError("a product chain takes nonempty indices or an enumeration, not both")
        self._init(indices, enumeration)

    @property
    def label(self) -> str:
        if self.enumeration is None:
            return f"product{list(self.indices)}"
        name = getattr(self.enumeration, "__qualname__", type(self.enumeration).__qualname__)
        return f"product({name})"

    def factor(self, k: int) -> IntPolynomial:
        if self.enumeration is None:
            return cyclotomic_poly(self.indices[(k - 1) % len(self.indices)])
        return cyclotomic_poly(self.enumeration(k - 1))

    def to_json_dict(self) -> dict:
        if self.enumeration is not None:
            raise ValueError("custom-enumeration chains are not serializable")
        return {"kind": "product", "indices": list(self.indices)}


def chain_from_json_dict(data: dict) -> FiltrationChain:
    """Inverse of to_json_dict; a malformed object is a ValueError."""
    (kind,) = json_fields(data, "kind")
    if kind == "pochhammer":
        return PochhammerChain()
    if kind == "adic":
        return AdicChain(IntPolynomial.from_json(data.get("f")))
    if kind == "product":
        indices = data.get("indices")
        if not isinstance(indices, list):
            raise ValueError("indices is a JSON array of integers")
        return ProductChain([json_int(n) for n in indices])
    raise ValueError(f"unknown chain kind {kind!r}")


# -- truncated elements -----------------------------------------------------


class TruncatedElement(_Replaceable):
    """An element of the completed ring known modulo g_level, by its canonical
    rep: the constructor stores rep mod g_level, so any IntPolynomial is a
    rep and any other is a TypeError."""

    __slots__ = _fields = ("chain", "level", "rep")

    def __init__(self, chain: FiltrationChain, level: int, rep: IntPolynomial) -> None:
        rep = rep % chain.modulus(level)
        _set_chain(self, chain)
        _set_level(self, level)
        _set_rep(self, rep)

    def __add__(self, other):
        return trunc_arith(self, other, "add")

    def __sub__(self, other):
        return trunc_arith(self, other, "sub")

    def __mul__(self, other):
        return trunc_arith(self, other, "mul")

    def __neg__(self):
        return TruncatedElement(self.chain, self.level, -self.rep)

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def to_json_dict(self) -> dict:
        return {
            "chain": self.chain.to_json_dict(),
            "level": self.level,
            "rep": self.rep.to_json(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TruncatedElement":
        chain, rep, level = json_fields(data, "chain", "rep", "level")
        return reduce(IntPolynomial.from_json(rep), chain_from_json_dict(chain), json_int(level))

    def __repr__(self):
        return f"<{self.rep} mod g_{self.level} on {self.chain.label}>"


# the slots' own setters, for the hot constructor
_set_chain = TruncatedElement.chain.__set__
_set_level = TruncatedElement.level.__set__
_set_rep = TruncatedElement.rep.__set__


def reduce(f: IntPolynomial, chain: FiltrationChain, level: int) -> TruncatedElement:
    """Canonical remainder of f modulo g_level; a ring homomorphism onto
    each truncation level.  It is the constructor's reduction under its
    exported name.  A level that is not an int is a TypeError, a negative
    level a ValueError."""
    return TruncatedElement(chain, level, f)


def trunc_arith(a: TruncatedElement, b: TruncatedElement, op: str) -> TruncatedElement:
    """Ring operation at the coarser of the two levels (same chain only)."""
    if a.chain != b.chain:
        raise ChainMismatch(
            f"cannot mix chains {a.chain.label!r} and {b.chain.label!r}; "
            "restrict both to a common chain first"
        )
    if op == "add":
        rep = a.rep + b.rep
    elif op == "sub":
        rep = a.rep - b.rep
    elif op == "mul":
        rep = a.rep * b.rep
    else:
        raise ValueError(f"unknown op {op!r}")
    return reduce(rep, a.chain, min(a.level, b.level))


# -- digit expansions --------------------------------------------------------


class DigitExpansion(Frozen):
    """Digits a_0 ... a_{k-1} with deg a_n < deg f_{n+1}; the bounds make
    the representation a = sum a_n g_n unique."""

    _fields = ("chain", "digits")

    def __init__(self, chain: FiltrationChain, digits: tuple[IntPolynomial, ...]) -> None:
        self._init(chain, digits)

    def __len__(self):
        return len(self.digits)


def to_digits(a: TruncatedElement) -> DigitExpansion:
    """Unique digit expansion of a level-k element (k digits), the inverse
    of from_digits' Horner sum: a_n is the remainder of the running quotient
    by f_(n+1), and the quotient left after k digits is zero."""
    chain, k = a.chain, a.level
    digits, r = [], a.rep
    for n in range(k):
        r, digit = divmod(r, chain._checked_factor(n + 1))
        digits.append(digit)
    if r:
        raise AssertionError(f"{chain.label}: level {k} leaves a quotient past its digits")
    return DigitExpansion(chain, tuple(digits))


def from_digits(d: DigitExpansion, level: int) -> TruncatedElement:
    """Re-sum digits by Horner's rule in the factors,
    a_0 + f_1 (a_1 + f_2 (a_2 + ...)) = sum a_n g_n, and reduce mod
    g_level; inverse to to_digits.  Each factor f_(n+1) is read once, for
    the degree bound of digit n (deg a_n < deg f_(n+1), the gap
    deg g_(n+1) - deg g_n) and for the sum."""
    factors = []
    for n, digit in enumerate(d.digits):
        f = d.chain._checked_factor(n + 1)
        if digit.degree >= f.degree:
            raise DigitDegreeViolation(f"digit {n} has degree {digit.degree}, bound is {f.degree}")
        factors.append(f)
    total = IntPolynomial.zero()
    for f, digit in zip(reversed(factors), reversed(d.digits)):
        total = total * f + digit
    return reduce(total, d.chain, level)


# -- restriction between chains ---------------------------------------------


def rho(
    a: TruncatedElement, target_chain: FiltrationChain, target_level: int
) -> TruncatedElement:
    """Restrict to a coarser truncation: defined when the target modulus
    divides the source modulus exactly."""
    h = target_chain.modulus(target_level)
    if not divides(h, a.chain.modulus(a.level)):
        raise NotCoarser(
            f"{target_chain.label} level {target_level} is not coarser than "
            f"{a.chain.label} level {a.level}"
        )
    return TruncatedElement(target_chain, target_level, a.rep)


# -- convergent series -------------------------------------------------------


class SeriesSpec(Frozen):
    """An infinite sum sum_n t_n convergent in a completion: term(n) is
    t_n and witness(n) bounds the whole tail, a level k with g_k | t_m for
    every m >= n (bounding t_n alone is not enough: the sum stops at the
    first witness past the level).  The optional step(n) makes the series
    a sum of products: t_0 = 1 and t_n = t_{n-1} * step(n) for n >= 1,
    which only n = 0 checks, so the expansion at a root of unity builds
    each term from the last without calling term.

    With a step the tail is proved, not trusted: every later term is a
    multiple of the stop term, the first one the sum leaves out, so one
    division of the stop term by g_level (one jet at a root of unity)
    proves the whole tail.  Without a step the tail contract is trusted:
    no finite check sees the terms past the level.  With t_n = (q)_n for
    even n and 0 for odd n, and witness n for even n and 10**6 for odd n,
    every witness bounds its own term, the sum stops after t_0, and
    `series_realize` at level 10 returns 1."""

    _fields = ("name", "term", "witness", "step")

    def __init__(
        self,
        name: str,
        term: Callable[[int], IntPolynomial],
        witness: Callable[[int], int],
        step: Optional[Callable[[int], IntPolynomial]] = None,
    ) -> None:
        self._init(name, term, witness, step)
        if step is not None and term(0) != IntPolynomial.one():
            raise ValueError(f"series {name!r}: a spec with a step needs term(0) = 1")

    @cached_property
    def _expansions(self) -> dict[int, tuple]:
        """Center n -> (the fields, the deepest expansion at zeta_n) that
        `rootexp.expand_series` finished for this spec with a step, made on
        first use: a copy starts its own, and an entry whose fields are no
        longer the spec's own objects is stale.  Each entry is one tuple,
        set whole, so threads that race can at worst keep a shallower one."""
        return {}


_POCHHAMMER = PochhammerChain()


def _stored_pochhammer(n: int) -> IntPolynomial:
    """(q)_n = (-1)^n g_n, read from the Pochhammer chain's store."""
    g = _POCHHAMMER.modulus(n)
    return -g if n % 2 else g


KONTSEVICH_ZAGIER_SPEC = SeriesSpec(
    name="kz",
    term=_stored_pochhammer,
    witness=lambda n: n,
    # step(n) = 1 - q^n
    step=lambda n: IntPolynomial._wrap([1] + [0] * (check_index(n, "step", 1) - 1) + [-1]),
)

Q_INVERSE_SPEC = SeriesSpec(
    name="qinv",
    term=lambda n: IntPolynomial.monomial(1, n) * _stored_pochhammer(n),
    witness=lambda n: n,
    # step(n) = q - q^(n+1)
    step=lambda n: IntPolynomial._wrap([0, 1] + [0] * (check_index(n, "step", 1) - 1) + [-1]),
)

NAMED_SERIES: dict[str, SeriesSpec] = {
    "kz": KONTSEVICH_ZAGIER_SPEC,
    "qinv": Q_INVERSE_SPEC,
}


# Terms a series may take before its witness passes the level.
MAX_SERIES_TERMS = 10_000


def _series_terms(spec: SeriesSpec, level: int):
    """Yield (k, witness(k)) for k = 0, 1, ... while the witness is <= the
    level; by the tail contract of `SeriesSpec` (g_witness(k) | t_m for
    every m >= k) the later terms vanish mod g_level.  At most MAX_SERIES_TERMS terms
    are yielded: a witness still <= the level at k = MAX_SERIES_TERMS
    raises NonConvergent."""
    for k in range(MAX_SERIES_TERMS + 1):
        w = spec.witness(k)
        if w > level:
            return
        if k == MAX_SERIES_TERMS:
            break
        yield k, w
    raise NonConvergent(
        f"series {spec.name!r}: witness stayed <= {level} for {MAX_SERIES_TERMS} terms"
    )


def series_realize(spec: SeriesSpec, chain: FiltrationChain, level: int) -> TruncatedElement:
    """Partial sum of the series at a truncation level: the terms of
    `_series_terms`.  Each consumed term's witness is verified by exact
    division.  With a step, one more division proves the tail: g_level
    must divide the stop term t_last * step(last + 1) (t_0 = 1 if no term
    was consumed), unless the last witness is the level and its own check
    proved g_level | t_last.  A stepless tail is trusted (`SeriesSpec`)."""
    total, t, n, w = IntPolynomial.zero(), IntPolynomial.one(), -1, -1
    for n, w in _series_terms(spec, level):
        t = spec.term(n)
        if not divides(chain.modulus(w), t):
            raise AssertionError(
                f"series {spec.name!r}: witness {w} of term {n} fails on "
                f"chain {chain.label!r}"
            )
        total = total + t
    if spec.step is not None and w < level:
        if not divides(chain.modulus(level), t * spec.step(n + 1) if n >= 0 else t):
            raise AssertionError(
                f"series {spec.name!r}: g_{level} does not divide the stop term "
                f"{n + 1} on chain {chain.label!r}"
            )
    return reduce(total, chain, level)


# -- units --------------------------------------------------------------------


def alternating_unit(m: int) -> IntPolynomial:
    """1 - q + q^2 - ... + q^(m-1) for odd m >= 3; a unit mod q^n - 1
    whenever gcd(n, 2m) = 1."""
    if check_index(m, "m", 3) % 2 == 0:
        raise EvenM(f"alternating units need odd m, got {m}")
    return IntPolynomial([(-1) ** i for i in range(m)])


def unit_inverse_mod(
    u: IntPolynomial, modulus: IntPolynomial
) -> Optional[IntPolynomial]:
    """Inverse of u modulo a unit-leading modulus m of degree >= 1, or None
    exactly when u is not a unit of Z[q]/(m).  That ring is free over Z of
    rank deg m, and multiplication by u has determinant +-res(u, m) on it,
    so u is a unit iff the resultant is +-1: None proves u is no unit, and
    no lifting of other resultants is missing.  E.g. q + 1 mod q - 1 has
    resultant -2, and its value 2 at q = 1 is no unit of Z."""
    modulus._unit_leading_coefficient()
    if u.is_zero:
        return None
    res, a, _ = subresultant_bezout(u, modulus)
    if res not in (1, -1):
        return None
    w = (a * res) % modulus
    if (u * w) % modulus != IntPolynomial.one() % modulus:
        raise AssertionError("Bezout inverse fails: u*w != 1 mod modulus")
    return w
