"""Dense exact univariate polynomial arithmetic over Z and Q.

A polynomial is a tuple of coefficients indexed by the power of q, with no
trailing zeros; the zero polynomial is the empty tuple.  The degree of the
zero polynomial is the sentinel NEG_INFINITY, which compares smaller than
every integer, so degree inequalities can be written without special cases.

Over Z, division is only defined when the divisor's leading coefficient is
a unit (+-1); exact divisibility by such divisors is tested with
`divides`.  Over Q any nonzero divisor works, and every operation runs
the integer kernels on integer numerators over one common denominator,
with one gcd normalisation per result.  One schoolbook kernel,
`_divide_in_place`, does every division (`%`, divmod, Bezout quotients,
Z[zeta_n]) and skips a sparse divisor's zeros; its quotient rule is read
off the divisor's leading coefficient: 1 keeps a top coefficient, -1
negates it, any other divides it exactly.  Pseudo-division has one body,
`_pseudo_divmod`, the PRS's step and division over Q, and `_convolve`
does every product of coefficient lists.  The PRS runs on plain lists
and wraps only its results.

Serialization: a polynomial is a JSON array of decimal coefficient
strings, little-endian, e.g. 1 - q^3  <->  ["1", "0", "0", "-1"].
Rational coefficients serialize as "num/den" in lowest terms.
"""

from __future__ import annotations

import math
import re
import sys
from itertools import compress, zip_longest
from typing import Callable, Iterable, Sequence

from .errors import (
    BothZero,
    DivisionByZeroPolynomial,
    NonUnitLeadingCoefficient,
    NotPrime,
)

NEG_INFINITY = float("-inf")
# A plain decimal integer as to_json writes it: ASCII digits, optional minus.
DECIMAL_INTEGER = re.compile(r"-?[0-9]+")


def json_int(value) -> int:
    """An integer field of a JSON object: a JSON integer (not a boolean) or
    a DECIMAL_INTEGER string; anything else is a ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and DECIMAL_INTEGER.fullmatch(value):
        return int(value)
    raise ValueError(f"{value!r} is not a plain decimal integer")


def json_fields(data, *names: str) -> list:
    """The named fields of a JSON object; a non-object or a missing field
    is a ValueError."""
    if not isinstance(data, dict) or not all(k in data for k in names):
        raise ValueError(f"expected a JSON object with the fields {list(names)}")
    return [data[k] for k in names]


def check_index(value: int, name: str, least: int | float) -> int:
    """The one check of integer arguments: value if its type is int (not
    bool) and value >= least (NEG_INFINITY: none); else TypeError/ValueError."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


class Frozen:
    """Base of the immutable value classes, and the library's one value
    protocol, without the import cost of `dataclasses`: the attributes
    named by `_fields`, set once by `_init` or a hot constructor, decide
    equality, hash and a dataclass-style repr, and assigning or deleting
    any attribute is an AttributeError.  The constructor takes the fields
    in that order, and copy and pickle rebuild a value through it, so a
    restored value is checked and reduced as a new one is.  No subclass
    defines its own `__eq__` or `__hash__`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # field by field: a third of the time of comparing two _values()
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _DataclassAttribute:
    """A `__dataclass_*__` attribute of `_Replaceable`, that of a dataclass made
    from `_fields` on each read: `dataclasses` is never imported on a CLI path."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls):
        import dataclasses

        return getattr(dataclasses.make_dataclass(cls.__name__, cls._fields), self.name)


class _Replaceable(Frozen):
    """A `Frozen` value that poses as a dataclass, so that `dataclasses.replace`
    rebuilds it through its constructor: only for the four classes the
    benchmark's tests perturb that way, until the ROADMAP's `_perturb` change."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassAttribute()
    __dataclass_params__ = _DataclassAttribute()


def _strip(coeffs: list) -> tuple:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class _Polynomial(Frozen):
    """Shared dense-representation machinery for both coefficient domains,
    written against the tuple `coeffs`; RatPolynomial, whose `coeffs` is a
    view, overrides each method that reads it on a hot path."""

    __slots__ = ()

    # subclasses fill these in
    _json_coeff: re.Pattern
    _coerce = staticmethod(lambda c: c)
    _wrap: Callable[[list], "_Polynomial"]  # from coerced coefficients, trailing zeros allowed
    _parse: Callable[[Sequence[str]], "_Polynomial"]  # from checked JSON strings

    @classmethod
    def zero(cls):
        return cls._wrap([])

    @classmethod
    def one(cls):
        return cls._wrap([cls._coerce(1)])

    @classmethod
    def constant(cls, c):
        return cls._wrap([cls._coerce(c)])

    @classmethod
    def monomial(cls, c, power: int):
        """c * q^power."""
        check_index(power, "power", 0)
        return cls._wrap([cls._coerce(0)] * power + [cls._coerce(c)])

    @property
    def degree(self) -> int | float:
        """Degree, or NEG_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ------------------------------------------------

    def _same_domain(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"mixed coefficient domains: {type(self).__name__} and {type(other).__name__}"
            )

    def __add__(self, other):
        self._same_domain(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b) :]
        return self._wrap(out)

    def __sub__(self, other):
        self._same_domain(other)
        return self + -other

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, _Polynomial):
            c = self._coerce(other)
            return self._wrap([c * x for x in self.coeffs])
        self._same_domain(other)
        return self._wrap(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        check_index(n, "exponent", 0)
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, g):
        self._same_domain(g)
        if g.is_zero:
            raise DivisionByZeroPolynomial("division by the zero polynomial")
        return self._divmod(g)

    def __floordiv__(self, g):
        return divmod(self, g)[0]

    def __mod__(self, g):
        return divmod(self, g)[1]

    def __bool__(self):
        return bool(self.coeffs)

    # -- presentation ----------------------------------------------------

    def __str__(self):
        """The terms from the top down, each coefficient as to_json writes
        it, but without a denominator of 1, as a Fraction prints."""
        parts = []
        for i, c in reversed(list(enumerate(self.to_json()))):
            c = c.removesuffix("/1")
            if c == "0":
                continue
            sign = "-" if c[0] == "-" else ("+" if parts else "")
            mag = c.lstrip("-")
            if i == 0:
                body = mag
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == "1" else f"{mag}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts) or "0"

    def __repr__(self):
        return f"{type(self).__name__}('{self}')"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence) -> "_Polynomial":
        """Inverse of to_json.  Anything but a list of strings of the form
        to_json writes (ASCII digits, a leading minus, "/den" over Q) is a
        ValueError: no JSON numbers, whitespace, underscores or exponents."""
        if not isinstance(data, (list, tuple)):
            raise ValueError("a polynomial is a JSON array of coefficient strings")
        for c in data:
            if not isinstance(c, str) or not cls._json_coeff.fullmatch(c):
                raise ValueError(f"{c!r} is not a plain decimal coefficient string")
        return cls._parse(data)


class IntPolynomial(_Polynomial):
    """Polynomial with arbitrary-precision integer coefficients.

    >>> p = IntPolynomial([1, 0, -1])
    >>> str(p)
    '-q^2 + 1'
    >>> divmod(IntPolynomial([1, 0, 0, 1]), IntPolynomial([1, 1]))
    (IntPolynomial('q^2 - q + 1'), IntPolynomial('0'))
    """

    __slots__ = _fields = ("coeffs",)
    _json_coeff = DECIMAL_INTEGER

    def __init__(self, coeffs: Iterable = ()):
        coerce = self._coerce
        _set_coeffs(self, _strip([coerce(c) for c in coeffs]))

    @classmethod
    def _wrap(cls, coeffs: list):
        """Build from already-coerced coefficients (trailing zeros allowed)."""
        p = object.__new__(cls)
        _set_coeffs(p, _strip(coeffs))
        return p

    @staticmethod
    def _coerce(c) -> int:
        if isinstance(c, int) and not isinstance(c, bool):
            return c
        # No value is a Fraction while the fractions module is not loaded,
        # so integer work never imports it.
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(c, fractions.Fraction) and c.denominator == 1:
            return c.numerator
        raise TypeError(f"integer coefficient expected, got {c!r}")

    @classmethod
    def _parse(cls, strings: Sequence[str]) -> "IntPolynomial":
        return cls._wrap([int(c) for c in strings])

    @property
    def has_unit_leading_coefficient(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] in (1, -1)

    def _divmod(self, g):
        g._unit_leading_coefficient()
        r, d = list(self.coeffs), len(g.coeffs) - 1
        _divide_in_place(r, g.coeffs)
        return self._wrap(r[d:]), self._wrap(r[:d])

    def _unit_leading_coefficient(self) -> int:
        """The leading coefficient of self, if it is +-1; the library's one
        unit-leading check, so any other, and the zero polynomial, raise
        NonUnitLeadingCoefficient."""
        lc = self.coeffs[-1] if self.coeffs else 0
        if lc not in (1, -1):
            raise NonUnitLeadingCoefficient(
                f"divisor leading coefficient {lc} is not a unit of Z"
            )
        return lc

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs)

    def to_rational(self) -> "RatPolynomial":
        return RatPolynomial(self.coeffs)


# the slot's own setter: object.__setattr__ looks the slot up on every call
_set_coeffs = IntPolynomial.coeffs.__set__


class RatPolynomial(_Polynomial):
    """Polynomial with exact rational coefficients, kept as the stripped
    tuple `numerators` of integers over one positive `denominator`, in
    lowest terms: gcd(*numerators, denominator) = 1, and zero is () over 1.
    The constructor takes coefficients (ints or Fractions) and a nonzero
    integer denominator they share, and reduces them to that form.

    Every operation runs the integer kernels on the numerators and builds
    no Fraction.  `coeffs`, the coefficients as Fractions, is built when a
    caller reads it, and only there is the fractions module imported.

    >>> from fractions import Fraction
    >>> RatPolynomial([Fraction(1, 2), 1]) * RatPolynomial([Fraction(2, 3)])
    RatPolynomial('2/3*q + 1/3')
    >>> p = RatPolynomial([2, 0, -4], 6)
    >>> p.numerators, p.denominator
    ((1, 0, -2), 3)
    """

    __slots__ = _fields = ("numerators", "denominator")
    _json_coeff = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # no zero denominator

    def __init__(self, coeffs: Iterable = (), denominator: int = 1):
        check_index(denominator, "denominator", NEG_INFINITY)
        nums = list(coeffs)
        if {*map(type, nums)} - {int}:
            fractions = sys.modules.get("fractions")  # no value is a Fraction before it loads
            kinds = (int, fractions.Fraction) if fractions else int
            for c in nums:
                if isinstance(c, bool) or not isinstance(c, kinds):
                    raise TypeError(f"rational coefficient expected, got {c!r}")
            scale = math.lcm(*(c.denominator for c in nums))
            nums = [c.numerator * (scale // c.denominator) for c in nums]
            denominator *= scale
        if not denominator:
            raise ZeroDivisionError("a rational polynomial over the denominator 0")
        nums = _strip(nums)
        g = math.gcd(*nums, denominator) * (1 if denominator > 0 else -1)
        if g != 1:
            nums, denominator = tuple([c // g for c in nums]), denominator // g
        _set_numerators(self, nums)
        _set_denominator(self, denominator)

    _wrap = classmethod(lambda cls, coeffs: cls(coeffs))

    @classmethod
    def _parse(cls, strings: Sequence[str]) -> "RatPolynomial":
        pairs = [(int(n), int(d or 1)) for n, _, d in (c.partition("/") for c in strings)]
        den = math.lcm(*(d for _, d in pairs))
        return cls([n * (den // d) for n, d in pairs], den)

    @property
    def coeffs(self) -> tuple:
        import fractions

        return tuple(fractions.Fraction(c, self.denominator) for c in self.numerators)

    @property
    def degree(self) -> int | float:
        return len(self.numerators) - 1 if self.numerators else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self):
        return bool(self.numerators)

    def __add__(self, other):
        self._same_domain(other)
        g = math.gcd(self.denominator, other.denominator)
        sa, sb = other.denominator // g, self.denominator // g
        pairs = zip_longest(self.numerators, other.numerators, fillvalue=0)
        return RatPolynomial([x * sa + y * sb for x, y in pairs], self.denominator * sa)

    def __neg__(self):
        return RatPolynomial([-c for c in self.numerators], self.denominator)

    def __mul__(self, other):
        if not isinstance(other, _Polynomial):
            other = RatPolynomial([other])
        self._same_domain(other)
        den = self.denominator * other.denominator
        return RatPolynomial(_convolve(self.numerators, other.numerators), den)

    __rmul__ = __mul__

    def _divmod(self, g):
        if len(self.numerators) < len(g.numerators):
            return self.zero(), self
        # alpha*a = quot*b + rem over Z, so with self = a/da and g = b/db:
        # self = (quot*db / (alpha*da)) * g + rem / (alpha*da).
        quot, rem, alpha = _pseudo_divmod(self.numerators, g.numerators)
        den = alpha * self.denominator
        return RatPolynomial([c * g.denominator for c in quot], den), RatPolynomial(rem, den)

    def to_json(self) -> list[str]:
        d = self.denominator
        return [f"{c // g}/{d // g}" for c in self.numerators for g in (math.gcd(c, d),)]


_set_numerators = RatPolynomial.numerators.__set__
_set_denominator = RatPolynomial.denominator.__set__


def divides(g: _Polynomial, a: _Polynomial) -> bool:
    """True iff g divides a exactly; g and a share a coefficient domain,
    and over Z g must have a unit leading coefficient.  Over Z an a of
    degree at most that of g needs no division: of lower degree it is a
    multiple only if it is zero, of equal degree only if it is
    lc(a) lc(g) g (lc(g) = +-1 is its own inverse).  When g(0) != 0, q is
    prime to g, so a = q^s a' with a'(0) != 0 is tested as a': a
    multiple of g times a power of q needs no division either."""
    g._same_domain(a)
    if g.is_zero:
        return a.is_zero
    if type(g) is IntPolynomial:
        lc = g._unit_leading_coefficient()
        if g.coeffs[0]:
            s = next((i for i, c in enumerate(a.coeffs) if c), 0)
            if s:
                a = IntPolynomial._wrap(a.coeffs[s:])
        if len(a.coeffs) < len(g.coeffs):
            return a.is_zero
        if len(a.coeffs) == len(g.coeffs):
            c = a.coeffs[-1] * lc
            return a.coeffs == tuple([c * x for x in g.coeffs])
    return divmod(a, g)[1].is_zero


def poly_mod_prime(a: IntPolynomial, p: int) -> IntPolynomial:
    """Coefficientwise reduction into [0, p), canonical over Z/p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return IntPolynomial._wrap([c % p for c in a.coeffs])


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    check_index(n, "n", 1)
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def is_prime(p: int) -> bool:
    return p > 1 and prime_factors(p) == [p]


# -- schoolbook product and division ---------------------------------------


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of the coefficient lists a and b, trailing zeros kept;
    [] if either is empty.  The outer loop runs over the operand with
    fewer nonzero terms (by `count`), so a product by 1 - q^k, q^n or
    zeta is one slice pass per term."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if len(b) - b.count(0) < len(a) - a.count(0):
        a, b = b, a
    width = len(b)
    for i, ai in compress(enumerate(a), a):
        out[i : i + width] = [o + ai * bj for o, bj in zip(out[i : i + width], b)]
    return out


def _divide_in_place(r: list, g: Sequence[int]) -> None:
    """Divide the integer coefficients r by g in place, from the top down,
    with the quotient rule of lc = g[-1]: each nonzero r[t], t >= d =
    deg g, gives c = r[t] if lc = 1, -r[t] if lc = -1, else r[t] / lc,
    exact or AssertionError (`_pseudo_divmod`, the one pseudo-division,
    scales r first).  Then r[t-d:t] -= c*g[:d] and c goes to r[t], the
    slot whose term the step cancels: one slice pass, or one subtraction
    per nonzero g[i] if most of g[:d] is zero (2 * g.count(0) > d, as for
    q^k - 1).  So r[:d] ends as the remainder and r[d:] as the quotient."""
    d, lc = len(g) - 1, g[-1]
    sparse = [(i - d, y) for i, y in enumerate(g[:d]) if y] if 2 * g.count(0) > d else None
    for t in range(len(r) - 1, d - 1, -1):
        c = r[t]
        if c:
            if lc != 1:
                c = r[t] = -c if lc == -1 else _exact_div(c, lc)
            if sparse is None:
                r[t - d : t] = [x - c * y for x, y in zip(r[t - d : t], g)]
            else:
                for i, y in sparse:
                    r[t + i] -= c * y


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], tuple, int]:
    """(q, r, alpha) for the integer coefficient lists a and b, with
    alpha = lc(b)^(len a - len b + 1), alpha*a = q*b + r over Z and r
    stripped, for deg a >= deg b - 1: the one pseudo-division, each
    quotient step exact.  It is the PRS's step and division over Q."""
    alpha = b[-1] ** (len(a) - len(b) + 1)
    r, d = [c * alpha for c in a], len(b) - 1
    _divide_in_place(r, b)
    return r[d:], _strip(r[:d]), alpha


# -- resultants and Bezout certificates ----------------------------------
#
# Sign convention: `resultant(a, b)` equals the determinant of the
# Sylvester matrix whose first deg(b) rows carry the coefficients of a
# (descending, shifted) and whose remaining deg(a) rows carry b.
# Computed by a primitive pseudo-remainder sequence over Z: the polynomial
# work and the scalar bookkeeping (one integer numerator and denominator)
# both stay in Z.  It also serves `rational_xgcd`: its remainders and
# carried cofactors are constant multiples of Euclid's over Q (W. S. Brown,
# J. ACM 18, 1971), so on a zero remainder the last nonzero one is the gcd.
# The sequence runs on plain coefficient lists: each step is one
# `_pseudo_divmod`, and the cofactor update is one `_convolve`; only the
# results are wrapped as polynomials.


def _prs(a: IntPolynomial, b: IntPolynomial):
    """One primitive PRS of nonzero a and b: (res, R, u) with res the
    resultant of a and b, R the last nonzero remainder (a constant if a and
    b are coprime; on reaching a zero remainder res = 0 and R is the gcd up
    to a constant), and u the integer cofactor of the longer input (a on a
    tie): u*long + v*short = R for a v that is not carried."""
    num, den = 1, 1
    r0, r1 = a.coeffs, b.coeffs
    if len(r0) < len(r1):
        if (len(r0) - 1) * (len(r1) - 1) % 2:
            num = -1
        r0, r1 = r1, r0
    u0, u1 = [1], []
    while len(r1) > 1:
        m, n, lc = len(r0) - 1, len(r1) - 1, r1[-1]
        q, r2, alpha = _pseudo_divmod(r0, r1)
        if not r2:
            return 0, IntPolynomial._wrap(r1), IntPolynomial._wrap(u1)
        u2 = [alpha * x - y for x, y in zip_longest(u0, _convolve(q, u1), fillvalue=0)]
        # Dividing r2 by any nonzero scalar g keeps the resultant
        # recurrence exact: res(r0, r1) picks up lc(r1)^(m-s) * (g/alpha)^n,
        # and alpha = lc(r1)^(m-n+1), so the powers of lc(r1) cancel first.
        g = math.gcd(*r2, *u2)
        if g > 1:
            r2 = [c // g for c in r2]
            u2 = [c // g for c in u2]
        e = len(r2) - 1 - m + n * (m - n + 1)
        num *= g**n * lc ** max(-e, 0)
        den *= lc ** max(e, 0)
        if (m * n) % 2:
            num = -num
        r0, r1, u0, u1 = r1, r2, u1, u2
    num *= r1[0] ** (len(r0) - 1)
    return _exact_div(num, den), IntPolynomial._wrap(r1), IntPolynomial._wrap(u1)


def resultant(a: IntPolynomial, b: IntPolynomial) -> int:
    """Resultant of a and b with the Sylvester determinant sign."""
    if a.is_zero and b.is_zero:
        raise BothZero("resultant of two zero polynomials")
    if a.is_zero or b.is_zero:
        return 0
    return _prs(a, b)[0]


def subresultant_bezout(
    a: IntPolynomial, b: IntPolynomial
) -> tuple[int, IntPolynomial, IntPolynomial]:
    """(res, u, v) with u*a + v*b = res, all over Z.

    res is the resultant of a and b (Sylvester determinant sign).  When a
    and b share a nonconstant factor the PRS reaches a zero remainder, and
    res = 0 and u = v = 0.  Both inputs constant is supported only when
    their integer Bezout identity can hit the conventional res = 1.
    """
    if a.is_zero and b.is_zero:
        raise BothZero("Bezout data of two zero polynomials")
    zero = IntPolynomial.zero()
    if a.is_zero or b.is_zero:
        return 0, zero, zero
    if len(a.coeffs) == 1 and len(b.coeffs) == 1:
        g, x, y = _int_xgcd(a.coeffs[0], b.coeffs[0])
        if g != 1:
            raise ValueError(
                "no integer Bezout identity for two non-coprime constants"
            )
        return 1, IntPolynomial([x]), IntPolynomial([y])

    res, R, u = _prs(a, b)
    if not res:
        return 0, zero, zero
    swapped = len(a.coeffs) < len(b.coeffs)
    long, short = (b.coeffs, a.coeffs) if swapped else (a.coeffs, b.coeffs)
    # Rescale u*long + v*short = R to the resultant.  The minimal-degree
    # cofactors for `res` are integral (Cramer on the Sylvester system)
    # and equal (u/R)*res, so every division here is exact, including
    # each step of v = (res - u*long)/short; at the R scale v need not
    # be integral.  The identity check also catches a nonzero remainder.
    u = [_exact_div(c * res, R.coeffs[0]) for c in u.coeffs]
    rest = [-c for c in _convolve(u, long)] or [0]
    rest[0] += res
    _divide_in_place(rest, short)
    v = rest[len(short) - 1 :]
    if swapped:
        u, v = v, u
    ua, vb = _convolve(u, a.coeffs), _convolve(v, b.coeffs)
    if _strip([x + y for x, y in zip_longest(ua, vb, fillvalue=0)]) != (res,):
        raise AssertionError("Bezout identity u*a + v*b = res fails")
    return res, IntPolynomial._wrap(u), IntPolynomial._wrap(v)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise AssertionError("integer division not exact")
    return q


def _int_xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def rational_xgcd(
    a: RatPolynomial, b: RatPolynomial
) -> tuple[RatPolynomial, RatPolynomial, RatPolynomial]:
    """(g, u, v) with u*a + v*b = g, g the monic gcd (or zero) and u, v
    Euclid's cofactors over Q ((0, 1, 0) for two zeros), read off one PRS
    of the integer numerators: g and the longer input's cofactor from its
    last nonzero remainder, the other cofactor as one exact quotient."""
    if b.is_zero:
        inv = RatPolynomial([a.denominator], a.numerators[-1]) if a else RatPolynomial.one()
        return a * inv, inv, b
    if a.is_zero or len(a.numerators) < len(b.numerators):
        g, v, u = rational_xgcd(b, a)
        return g, u, v
    _, R, u = _prs(IntPolynomial(a.numerators), IntPolynomial(b.numerators))
    # u*A + v'*B = R for the numerators A = da*a and B of b: divide by lc(R)
    lc = R.coeffs[-1]
    g = RatPolynomial(R.coeffs, lc)
    u = RatPolynomial([c * a.denominator for c in u.coeffs], lc)
    v, rem = divmod(g - u * a, b)
    if rem:
        raise AssertionError("rational_xgcd: cofactor quotient is not exact")
    return g, u, v
