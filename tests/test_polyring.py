import ast
import copy
import fractions
import inspect
import math
import os
import pickle
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from cyclocomp import (
    IntPolynomial,
    NEG_INFINITY,
    RatPolynomial,
    cyclotomic_poly,
    divides,
    poly_mod_prime,
    polyring,
    rational_xgcd,
    resultant,
    subresultant_bezout,
)
from cyclocomp.polyring import _prs, _pseudo_divmod
from cyclocomp.errors import (
    BothZero,
    DivisionByZeroPolynomial,
    NonUnitLeadingCoefficient,
    NotPrime,
)

from support import (
    bezout_by_polynomials,
    check_frozen_value,
    fractions_within,
    prs_by_polynomials,
    random_int_poly,
    random_unit_leading_poly,
    rational_xgcd_by_euclid,
    schoolbook_rat_add,
    schoolbook_rat_divmod,
    schoolbook_rat_mul,
    sylvester_determinant,
    terms_text,
)


def P(*coeffs):
    return IntPolynomial(coeffs)


def R(*coeffs):
    return RatPolynomial(coeffs)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0, 0).coeffs == ()

    def test_zero_degree_sentinel(self):
        assert P().degree == NEG_INFINITY
        assert P().degree < -(10**9)
        assert P(5).degree == 0

    def test_every_op_stays_canonical(self):
        rng = random.Random(1)
        for _ in range(200):
            a = random_int_poly(rng, 8)
            b = random_int_poly(rng, 8)
            for result in (a + b, a - b, a * b, -a):
                assert not result.coeffs or result.coeffs[-1] != 0


class TestValueClasses:
    # Polynomials are polyring.Frozen values: cached Phi_n and (q)_k are shared.
    @pytest.mark.parametrize(
        "make, other, text",
        [
            (lambda: P(1, 1), lambda: P(1), "IntPolynomial('q + 1')"),
            (
                lambda: RatPolynomial([Fraction(1, 2), 0, 1]),
                lambda: RatPolynomial([1, 0, 1]),
                "RatPolynomial('q^2 + 1/2')",
            ),
        ],
        ids=["int", "rat"],
    )
    def test_equality_hash_repr_and_no_assignment(self, make, other, text):
        check_frozen_value(make, other, text, "coeffs")

    def test_the_two_domains_stay_unequal(self):
        assert P(1, 2) != RatPolynomial([1, 2]) and RatPolynomial([1, 2]) != P(1, 2)


class TestArithmetic:
    def test_binomial_product(self):
        # (1-q)(1-q^2) = 1 - q - q^2 + q^3
        assert P(1, -1) * P(1, 0, -1) == P(1, -1, -1, 1)

    def test_additive_identity(self):
        rng = random.Random(2)
        for _ in range(50):
            a = random_int_poly(rng, 10)
            assert a + IntPolynomial.zero() == a

    def test_difference_of_squares(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)

    def test_ring_axioms_sampled(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b, c = (random_int_poly(rng, 6) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_pow(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(2, 1) ** 0 == P(1)

    def test_mixed_domain_rejected(self):
        with pytest.raises(TypeError):
            P(1) + RatPolynomial([1])

    @pytest.mark.parametrize(
        "op, message",
        [
            (lambda: P(1) - R(1), "mixed coefficient domains: IntPolynomial and RatPolynomial"),
            (lambda: R(1) - P(1), "mixed coefficient domains: RatPolynomial and IntPolynomial"),
            (lambda: P(1) - 3, "mixed coefficient domains: IntPolynomial and int"),
            (lambda: P(1) - None, "mixed coefficient domains: IntPolynomial and NoneType"),
            (lambda: R(1) - Fraction(1), "mixed coefficient domains: RatPolynomial and Fraction"),
            (lambda: P(1) + R(1), "mixed coefficient domains: IntPolynomial and RatPolynomial"),
            (lambda: P(1) * R(1), "mixed coefficient domains: IntPolynomial and RatPolynomial"),
            (lambda: R(1) * P(1), "mixed coefficient domains: RatPolynomial and IntPolynomial"),
            (lambda: P(1) * "x", "integer coefficient expected, got 'x'"),
            (lambda: R(1) * 1.5, "rational coefficient expected, got 1.5"),
            (lambda: divmod(P(1), R(1)), "mixed coefficient domains: IntPolynomial and RatPolynomial"),
            (lambda: 3 - P(1), "unsupported operand type(s) for -: 'int' and 'IntPolynomial'"),
        ],
    )
    def test_operand_errors_are_pinned(self, op, message):
        # the domain check runs before any coefficient is read
        with pytest.raises(TypeError) as info:
            op()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cls, coeff",
        [
            (IntPolynomial, True),
            (IntPolynomial, 0.5),
            (IntPolynomial, "3"),
            (IntPolynomial, Fraction(1, 2)),
            (RatPolynomial, True),
            (RatPolynomial, 0.1),
            (RatPolynomial, "1e3"),
            (RatPolynomial, " 2/4 "),
            (RatPolynomial, Decimal("0.5")),
        ],
    )
    def test_coefficient_neither_int_nor_fraction_rejected(self, cls, coeff):
        # Coefficients and scalars are ints (not bools) or Fractions;
        # floats and strings are not parsed on the way in.
        with pytest.raises(TypeError):
            cls([1, coeff])
        with pytest.raises(TypeError):
            cls.constant(coeff)
        with pytest.raises(TypeError):
            cls.one() * coeff


def _operands(coeff):
    """Little-endian coefficient lists, sparse, dense or mixed."""
    return st.one_of(
        st.builds(lambda c, k: [0] * k + [c], coeff, st.integers(0, 30)),  # c*q^k
        st.integers(1, 30).map(lambda k: [1] + [0] * (k - 1) + [-1]),  # 1 - q^k
        st.lists(coeff, max_size=25),
        st.lists(st.one_of(st.just(0), coeff), max_size=40),
    )


def _sympy_poly(coeffs, domain):
    return sympy.Poly(list(reversed(coeffs)) or [0], sympy.Symbol("x"), domain=domain)


def _sympy_product(a, b, domain):
    return list(reversed((_sympy_poly(a, domain) * _sympy_poly(b, domain)).all_coeffs()))


class TestProductAgainstSympy:
    @settings(max_examples=300, deadline=None)
    @given(_operands(st.integers(-(10**20), 10**20)), _operands(st.integers(-(10**20), 10**20)))
    def test_int_products(self, a, b):
        expected = IntPolynomial([int(c) for c in _sympy_product(a, b, sympy.ZZ)])
        assert IntPolynomial(a) * IntPolynomial(b) == expected
        assert IntPolynomial(b) * IntPolynomial(a) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        _operands(fractions_within(50, 12)),
        _operands(fractions_within(50, 12)),
    )
    def test_rational_products(self, a, b):
        product = _sympy_product(
            [sympy.Rational(c.numerator, c.denominator) for c in a],
            [sympy.Rational(c.numerator, c.denominator) for c in b],
            sympy.QQ,
        )
        expected = RatPolynomial([Fraction(int(c.p), int(c.q)) for c in product])
        assert RatPolynomial(a) * RatPolynomial(b) == expected
        assert RatPolynomial(b) * RatPolynomial(a) == expected


def _rat_sympy(p):
    return _sympy_poly([sympy.Rational(c.numerator, c.denominator) for c in p.coeffs], sympy.QQ)


def _rat_from_sympy(poly):
    return RatPolynomial(_fractions(poly))


class TestDifferenceAgainstSympy:
    """`a - b` is `a + -b`: checked against sympy's difference."""

    @settings(max_examples=200, deadline=None)
    @given(_operands(st.integers(-(10**20), 10**20)), _operands(st.integers(-(10**20), 10**20)))
    def test_int_differences(self, a, b):
        diff = _sympy_poly(a, sympy.ZZ) - _sympy_poly(b, sympy.ZZ)
        assert IntPolynomial(a) - IntPolynomial(b) == IntPolynomial(_fractions(diff))

    @settings(max_examples=200, deadline=None)
    @given(
        _operands(fractions_within(50, 12)),
        _operands(fractions_within(50, 12)),
    )
    def test_rational_differences(self, a, b):
        a, b = RatPolynomial(a), RatPolynomial(b)
        expected = _rat_from_sympy(_rat_sympy(a) - _rat_sympy(b))
        out = a - b
        assert out == expected
        assert all(type(c) is Fraction for c in out.coeffs)


_rat_coeffs = st.one_of(
    st.integers(-20, 20).map(Fraction),
    fractions_within(50, 12),
    fractions_within(10**6, 10**30),  # large denominators
)
# Zero, sparse and dense operands; a random leading coefficient makes
# most of them non-monic and non-integral.
_rat_polys = st.one_of(
    st.just(RatPolynomial.zero()),
    st.builds(RatPolynomial.monomial, _rat_coeffs, st.integers(0, 12)),
    st.lists(_rat_coeffs, max_size=14).map(RatPolynomial),
)


class TestRationalKernelsAgainstOracles:
    # Products and division run on integer numerators; the oracles are
    # the Fraction-by-Fraction schoolbook routes and sympy over QQ.
    @settings(max_examples=300, deadline=None)
    @given(_rat_polys, _rat_polys)
    def test_product(self, a, b):
        expected = schoolbook_rat_mul(a, b)
        assert a * b == expected
        assert b * a == expected
        assert _rat_from_sympy(_rat_sympy(a) * _rat_sympy(b)) == expected
        assert all(type(c) is Fraction for c in (a * b).coeffs)

    @settings(max_examples=300, deadline=None)
    @given(_rat_polys, _rat_polys.filter(bool))
    @example(RatPolynomial([1, 2]), RatPolynomial([0, 0, Fraction(3, 7)]))
    @example(RatPolynomial.zero(), RatPolynomial([Fraction(1, 10**20), 3]))
    @example(RatPolynomial([5, 0, 1]), RatPolynomial([Fraction(-2, 3)]))
    @example(
        RatPolynomial([Fraction(1, 3**40), 0, 0, 0, Fraction(7, 2**50)]),
        RatPolynomial([Fraction(5, 9), Fraction(-4, 11**20)]),
    )
    def test_divmod_and_mod(self, a, g):
        expected = schoolbook_rat_divmod(a, g)
        assert divmod(a, g) == expected
        assert a // g == expected[0]
        assert a % g == expected[1]
        quot, rem = sympy.div(_rat_sympy(a), _rat_sympy(g))
        assert (_rat_from_sympy(quot), _rat_from_sympy(rem)) == expected
        assert all(type(c) is Fraction for part in divmod(a, g) for c in part.coeffs)


def _representation(p: RatPolynomial) -> tuple:
    """p's fields, checked to be canonical: integer numerators, stripped,
    over a positive denominator, in lowest terms, zero as () over 1."""
    nums, den = p.numerators, p.denominator
    assert type(nums) is tuple and all(type(c) is int for c in nums)
    assert type(den) is int and den >= 1 and math.gcd(*nums, den) == 1
    assert (not nums or nums[-1] != 0) and (nums or den == 1)
    assert p.coeffs == tuple(Fraction(c, den) for c in nums)
    return nums, den


_fraction_lists = st.lists(fractions_within(50, 12), max_size=8)


class TestRationalRepresentation:
    # Integer numerators over one denominator: every operation, checked
    # field by field, against the Fraction-by-Fraction oracles.
    @settings(max_examples=200, deadline=None)
    @given(_fraction_lists, _fraction_lists, fractions_within(50, 12), st.integers(-9, 9))
    def test_operations_agree_with_fraction_oracles(self, xs, ys, c, k):
        a, b = RatPolynomial(xs), RatPolynomial(ys)
        while xs and not xs[-1]:
            xs = xs[:-1]
        assert a.coeffs == tuple(xs) and _representation(a)
        negated_b = RatPolynomial([-t for t in b.coeffs])
        results = [
            (a + b, schoolbook_rat_add(a, b)),
            (a - b, schoolbook_rat_add(a, negated_b)),
            (-b, negated_b),
            (a * k, RatPolynomial([k * t for t in xs])),
            (k * a, RatPolynomial([k * t for t in xs])),
            (a * c, RatPolynomial([c * t for t in xs])),
            (c * a, RatPolynomial([c * t for t in xs])),
            (a * b, schoolbook_rat_mul(a, b)),
            (a**3, schoolbook_rat_mul(schoolbook_rat_mul(a, a), a)),
            (a**0, RatPolynomial([Fraction(1)])),
        ]
        if b:
            results += zip(divmod(a, b), schoolbook_rat_divmod(a, b))
        for value, expected in results:
            assert _representation(value) == _representation(expected)
            assert value.coeffs == expected.coeffs
        assert str(a) == terms_text(a.coeffs)
        assert a.to_json() == [f"{t.numerator}/{t.denominator}" for t in a.coeffs]
        assert _representation(RatPolynomial.from_json(a.to_json())) == _representation(a)

    @settings(max_examples=100, deadline=None)
    @given(_fraction_lists, st.integers(-10**6, 10**6).filter(bool))
    def test_one_value_has_one_representation(self, xs, d):
        a, m = RatPolynomial(xs), abs(d)
        rebuilt = [
            RatPolynomial([t * d for t in xs], d),
            RatPolynomial(a.numerators, a.denominator),
            RatPolynomial.from_json(a.to_json()),
            RatPolynomial.from_json([f"{t.numerator * m}/{t.denominator * m}" for t in xs]),
            pickle.loads(pickle.dumps(a)),
            copy.copy(a),
            copy.deepcopy(a),
        ]
        for b in rebuilt:
            assert b == a and hash(b) == hash(a)
            assert _representation(b) == _representation(a)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RatPolynomial([Fraction(1, 2)]),
            lambda: RatPolynomial([1], 2),
            lambda: RatPolynomial([-3, 0], -6),
            lambda: RatPolynomial([Fraction(3, 2), Fraction(0, 5)], 3),
            lambda: RatPolynomial.from_json(["2/4", "-0/3"]),
            lambda: RatPolynomial.constant(Fraction(1, 2)),
            lambda: IntPolynomial([1]).to_rational() * Fraction(1, 2),
        ],
    )
    def test_every_way_in_reaches_the_same_fields(self, make):
        p = make()
        assert (p.numerators, p.denominator, hash(p)) == ((1,), 2, hash(RatPolynomial([1], 2)))

    def test_integer_coefficients_are_over_one(self):
        for p in (
            RatPolynomial([2, 0, -4]),
            RatPolynomial([Fraction(2), 0, Fraction(-4, 1)]),
            IntPolynomial([2, 0, -4]).to_rational(),
            RatPolynomial.from_json(["2/1", "0/5", "-4"]),
        ):
            assert (p.numerators, p.denominator) == ((2, 0, -4), 1)
        assert (RatPolynomial.zero().numerators, RatPolynomial([0, 0], -7).denominator) == ((), 1)

    @pytest.mark.parametrize(
        "denominator, error",
        [(0, ZeroDivisionError), (True, TypeError), (2.0, TypeError), (Fraction(2), TypeError)],
    )
    def test_denominator_is_a_nonzero_int(self, denominator, error):
        with pytest.raises(error):
            RatPolynomial([1], denominator)


class TestDivMod:
    def test_cube_plus_one(self):
        q, r = divmod(P(1, 0, 0, 1), P(1, 1))
        assert q == P(1, -1, 1) and r.is_zero

    def test_synthetic_at_minus_one(self):
        q, r = divmod(P(1, 0, 1), P(1, 1))
        assert q == P(-1, 1) and r == P(2)

    def test_divide_by_one(self):
        a = P(3, 1, 4)
        assert divmod(a, IntPolynomial.one()) == (a, IntPolynomial.zero())

    def test_reconstruction_random(self):
        rng = random.Random(4)
        for _ in range(300):
            a = random_int_poly(rng, 20)
            g = random_unit_leading_poly(rng, 8)
            quot, rem = divmod(a, g)
            assert g * quot + rem == a
            assert rem.degree < g.degree

    def test_non_unit_leading_rejected(self):
        with pytest.raises(NonUnitLeadingCoefficient):
            divmod(P(1, 0, 1), P(1, 2))

    def test_zero_divisor_rejected(self):
        with pytest.raises(DivisionByZeroPolynomial):
            divmod(P(1), IntPolynomial.zero())

    def test_rational_divmod_any_leading(self):
        a = RatPolynomial([1, 0, 1])
        g = RatPolynomial([2, 2])
        quot, rem = divmod(a, g)
        assert g * quot + rem == a
        assert quot == RatPolynomial([Fraction(-1, 2), Fraction(1, 2)])

    def test_divides(self):
        assert divides(P(1, 1), P(-1, 0, 1))
        assert not divides(P(1, 1), P(1, 0, 1))
        # zero divides only zero, in both domains
        for zero, a in (IntPolynomial.zero(), P(0, 3)), (RatPolynomial.zero(), RatPolynomial([3])):
            assert divides(zero, zero) and not divides(zero, a)

    def test_zero_has_no_leading_coefficient(self):
        for zero in (IntPolynomial.zero(), RatPolynomial.zero()):
            with pytest.raises(ValueError, match="the zero polynomial has no leading coefficient"):
                zero.leading_coefficient

    @pytest.mark.parametrize("g", [P(-1, 0, 1), P(2, -3, 0, -1)], ids=["monic", "lc -1"])
    def test_divides_up_to_the_divisor_degree(self, g):
        assert divides(g, IntPolynomial.zero())
        assert not divides(g, P(5))
        assert not divides(g, P(1, 1))  # deg a < deg g
        assert divides(g, g) and divides(g, -g) and divides(g, g * -7)
        assert not divides(g, g + P(1))
        assert not divides(g, g * 3 + P(0, 1))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.sampled_from([1, -1]),
        st.lists(st.integers(-9, 9), max_size=8),
    )
    def test_divides_matches_the_remainder(self, body, lc, a):
        g, a = IntPolynomial(body + [lc]), IntPolynomial(a)
        assert divides(g, a) == divmod(a, g)[1].is_zero

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=4),
        st.integers(0, 2),
        st.sampled_from([1, -1]),
        st.lists(st.integers(-9, 9), max_size=4),
        st.integers(0, 6),
        st.lists(st.integers(-1, 1), max_size=6),
    )
    @example([], 1, 1, [0, 0, 1], 2, [])  # g = q: g(0) = 0
    @example([2, 1], 1, 1, [3], 4, [])  # g = q (2 + q + q^2), a = q^4 * 3g
    @example([2, 1], 0, -1, [0, 0, 5], 3, [0, 1])  # a = q^3 (q^2 * 5g + q)
    def test_divides_shifted_multiples_match_the_remainder(self, body, t, lc, h, s, e):
        # a = q^s (g h + e) with g = q^t (body + lc q^k): the power of q in
        # a is set aside only when g(0) != 0, i.e. t = 0 and body[0] != 0.
        g = IntPolynomial([0] * t + body + [lc])
        a = IntPolynomial.monomial(1, s) * (g * IntPolynomial(h) + IntPolynomial(e))
        assert divides(g, a) == divmod(a, g)[1].is_zero

    def test_divides_sets_a_power_of_q_aside_only_when_prime_to_g(self, monkeypatch):
        calls = []
        divide = polyring._divide_in_place
        monkeypatch.setattr(
            polyring, "_divide_in_place", lambda *a: calls.append(1) or divide(*a)
        )
        g = P(1, 1, 1)
        assert divides(g, IntPolynomial.monomial(-3, 7) * g)
        assert not divides(g, IntPolynomial.monomial(1, 7) * (g + P(1)))
        assert calls == []
        g = P(0, 1, 1)  # g(0) = 0: the long division decides
        assert divides(g, IntPolynomial.monomial(1, 2) * g)
        assert calls == [1]

    def test_divides_answers_a_short_dividend_without_division(self, monkeypatch):
        calls = []
        divide = polyring._divide_in_place
        monkeypatch.setattr(
            polyring, "_divide_in_place", lambda *a: calls.append(1) or divide(*a)
        )
        assert not divides(P(1, 1, 1), P(0, 0, 1))  # q^2 set aside leaves 1
        assert not divides(P(0, 1, 1), P(3, 1))  # g(0) = 0, deg a < deg g
        assert divides(P(1, 1, 1), IntPolynomial.zero())
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=4),
        st.sampled_from([1, -1]),
        st.lists(st.integers(-9, 9), max_size=4),
        st.integers(0, 6),
    )
    def test_divides_short_dividends_match_the_remainder(self, body, lc, low, s):
        # a = q^s low with deg low < deg g: once a power of q prime to g
        # is set aside, a is shorter than g and no division is run.
        g = IntPolynomial(body + [lc])
        a = IntPolynomial.monomial(1, s) * IntPolynomial(low[: len(body)])
        calls = []
        divide = polyring._divide_in_place
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polyring, "_divide_in_place", lambda *a: calls.append(1) or divide(*a))
            answer = divides(g, a)
        assert answer == divmod(a, g)[1].is_zero
        if g.coeffs[0] or s == 0:
            assert calls == []

    def test_divides_needs_a_unit_leading_divisor(self):
        # whatever the degree of the dividend
        for a in (IntPolynomial.zero(), P(1), P(0, 2), P(0, 0, 1, 2), P(1, 2, 3)):
            with pytest.raises(NonUnitLeadingCoefficient):
                divides(P(1, 2), a)

    def test_divides_over_q_takes_any_nonzero_divisor(self):
        g = RatPolynomial([2, 2])
        assert divides(g, RatPolynomial([-1, 0, 1]))
        assert divides(g, RatPolynomial([Fraction(1, 3), Fraction(1, 3)]))
        assert not divides(g, RatPolynomial([1, 2]))
        assert not divides(g, RatPolynomial([1]))
        assert divides(g, RatPolynomial.zero())

    def test_divides_rejects_mixed_domains(self):
        # whatever the degrees, as divmod does
        for g, a in ((P(1, 1), RatPolynomial([1, 1])), (P(1, 1), RatPolynomial([1])),
                     (P(1, 1), RatPolynomial([1, 0, 1])), (RatPolynomial([1, 1]), P(1, 1)),
                     (IntPolynomial.zero(), RatPolynomial.zero())):
            with pytest.raises(TypeError, match="mixed coefficient domains"):
                divides(g, a)


def _fractions(poly):
    """Little-endian coefficients of a sympy Poly as Fractions."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


_small_ints = st.lists(st.integers(-(10**6), 10**6), max_size=10)
_small_fractions = fractions_within(50, 12)


# +-(q^k - 1) for k <= 40 and Phi_8, Phi_9, Phi_16, Phi_27: all but q - 1
# and q^2 - 1 take the division kernel's sparse step (2 * g.count(0) > deg g)
SPARSE_DIVISORS = [
    (name, [sign * c for c in [-1] + [0] * (k - 1) + [1]])
    for k in range(1, 41)
    for name, sign in ((f"q^{k}-1", 1), (f"1-q^{k}", -1))
] + [(f"Phi_{n}", list(cyclotomic_poly(n).coeffs)) for n in (8, 9, 16, 27)]


class TestDivModAgainstSympy:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-(10**12), 10**12), max_size=30),
        _small_ints,
        st.sampled_from([1, -1]),
    )
    def test_int_divmod_unit_leading(self, a, g, lc):
        g = g + [lc]
        quot, rem = sympy.div(_sympy_poly(a, sympy.ZZ), _sympy_poly(g, sympy.ZZ))
        # IntPolynomial rejects a non-integral Fraction, so this also
        # checks that sympy's result stays in Z.
        expected = (IntPolynomial(_fractions(quot)), IntPolynomial(_fractions(rem)))
        assert divmod(IntPolynomial(a), IntPolynomial(g)) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_small_fractions, max_size=20),
        st.lists(_small_fractions, max_size=8),
        _small_fractions.filter(bool),
    )
    def test_rational_divmod_any_divisor(self, a, g, lc):
        g = g + [lc]
        quot, rem = sympy.div(
            _sympy_poly([sympy.Rational(c.numerator, c.denominator) for c in a], sympy.QQ),
            _sympy_poly([sympy.Rational(c.numerator, c.denominator) for c in g], sympy.QQ),
        )
        expected = (RatPolynomial(_fractions(quot)), RatPolynomial(_fractions(rem)))
        assert divmod(RatPolynomial(a), RatPolynomial(g)) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        _small_ints,
        st.integers(-9, 9).filter(bool),
        st.lists(st.integers(-50, 50), max_size=16),
        st.integers(-50, 50).filter(bool),
    )
    def test_pseudo_divmod_matches_pquo_prem(self, b, lc, a, a_lead):
        # deg a >= deg b, as in every pseudo-division of the PRS
        b = b + [lc]
        a = a + [0] * (len(b) - 1 - len(a)) + [a_lead]
        pa, pb = _sympy_poly(a, sympy.ZZ), _sympy_poly(b, sympy.ZZ)
        quot, rem, alpha = _pseudo_divmod(a, b)
        assert alpha == lc ** (len(a) - len(b) + 1)
        assert not rem or rem[-1]  # the remainder list is stripped
        quot, rem = IntPolynomial(quot), IntPolynomial(rem)
        assert quot == IntPolynomial(_fractions(pa.pquo(pb)))
        assert rem == IntPolynomial(_fractions(pa.prem(pb)))
        assert IntPolynomial(a) * alpha == quot * IntPolynomial(b) + rem

    @pytest.mark.parametrize("g", [g for _, g in SPARSE_DIVISORS],
                             ids=[name for name, _ in SPARSE_DIVISORS])
    def test_sparse_divisors_match_sympy_div(self, g):
        rng = random.Random(len(g) * 7 + g[-1])
        dividends = [[], [5], [0] * (len(g) - 1) + [3]]
        dividends += [
            [rng.choice([0, 0, rng.randint(-(10**9), 10**9)]) for _ in range(rng.randint(1, 200))]
            for _ in range(4)
        ]
        dividends.append([rng.randint(-(10**30), 10**30) for _ in range(200)])
        for a in dividends:
            quot, rem = sympy.div(_sympy_poly(a, sympy.ZZ), _sympy_poly(g, sympy.ZZ))
            expected = (IntPolynomial(_fractions(quot)), IntPolynomial(_fractions(rem)))
            assert divmod(IntPolynomial(a), IntPolynomial(g)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(5, 24),
        st.data(),
        st.lists(st.integers(-50, 50), max_size=60),
        st.integers(-50, 50).filter(bool),
    )
    def test_pseudo_divmod_by_a_sparse_divisor(self, k, data, a, a_lead):
        # b = 2 q^k + c q^j + e: leading coefficient 2, most of b[:k] zero
        j = data.draw(st.integers(1, k - 1))
        b = [data.draw(st.integers(-9, 9))] + [0] * (k - 1) + [2]
        b[j] = data.draw(st.integers(-9, 9).filter(bool))
        assert 2 * b.count(0) > k
        a = a + [0] * (len(b) - 1 - len(a)) + [a_lead]
        pa, pb = _sympy_poly(a, sympy.ZZ), _sympy_poly(b, sympy.ZZ)
        quot, rem, alpha = _pseudo_divmod(a, b)
        assert alpha == 2 ** (len(a) - len(b) + 1)
        quot, rem = IntPolynomial(quot), IntPolynomial(rem)
        assert quot == IntPolynomial(_fractions(pa.pquo(pb)))
        assert rem == IntPolynomial(_fractions(pa.prem(pb)))


class TestOneDivisionKernel:
    """Every division in the library is one call of `_divide_in_place`."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from cyclocomp import rootexp

        calls, divide = [], polyring._divide_in_place
        kernel = lambda r, g: calls.append((len(r), len(g))) or divide(r, g)
        monkeypatch.setattr(polyring, "_divide_in_place", kernel)
        monkeypatch.setattr(rootexp, "_divide_in_place", kernel)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 12, 15, 30])
    def test_one_call_per_reduced_cyclotomic_integer(self, calls, n):
        from cyclocomp import CyclotomicInteger

        phi = cyclotomic_poly(n).degree
        for length in range(3 * n + 2):
            calls.clear()
            CyclotomicInteger(n, range(1, length + 1))
            # a list of phi(n) coordinates or fewer needs no division
            assert calls == ([(length, phi + 1)] if length > phi else [])

    def test_one_call_per_integer_divmod(self, calls):
        rng = random.Random(24)
        for _ in range(200):
            # lc = 1 and lc = -1, constant divisors and short dividends too
            a = random_int_poly(rng, 12)
            g = random_unit_leading_poly(rng, 6) if rng.random() < 0.9 else P(rng.choice([1, -1]))
            calls.clear()
            divmod(a, g)
            assert calls == [(len(a.coeffs), len(g.coeffs))]

    def test_one_call_per_rational_divmod(self, calls):
        a, g = RatPolynomial([Fraction(1, 2), 3, Fraction(-5, 7)]), RatPolynomial([2, Fraction(1, 3)])
        divmod(a, g)
        assert calls == [(3, 2)]


class TestResultantBezout:
    def test_linear_pair(self):
        res, u, v = subresultant_bezout(P(-1, 1), P(1, 1))
        assert (res, u, v) == (2, P(-1), P(1))

    def test_eval_at_one(self):
        # Sylvester determinant of the 3x3 matrix equals 3.
        a, b = P(1, 1, 1), P(-1, 1)
        assert sylvester_determinant(a, b) == 3
        res, u, v = subresultant_bezout(a, b)
        assert res == 3
        assert u * a + v * b == P(3)

    def test_quartic_unit_pair(self):
        a, b = P(1, 0, 1), P(1, -1, 1)
        # independent oracle: sympy's extended Euclid over QQ; its cofactors
        # for the gcd 1 are the least-degree ones, and so integral here
        s, t, h = _sympy_poly(a.coeffs, sympy.QQ).gcdex(_sympy_poly(b.coeffs, sympy.QQ))
        assert h.as_expr() == 1
        res, u, v = subresultant_bezout(a, b)
        assert res == 1
        assert (u.to_rational(), v.to_rational()) == (_rat_from_sympy(s), _rat_from_sympy(t))
        assert u * a + v * b == IntPolynomial.one()
        assert all(isinstance(c, int) for c in u.coeffs + v.coeffs)

    def test_matches_sylvester_sign_on_random_pairs(self):
        rng = random.Random(5)
        checked = 0
        while checked < 120:
            a = random_int_poly(rng, 5, 9)
            b = random_int_poly(rng, 5, 9)
            if a.is_zero or b.is_zero:
                continue
            assert resultant(a, b) == sylvester_determinant(a, b)
            checked += 1

    def test_identity_verified_on_random_pairs(self):
        rng = random.Random(6)
        checked = 0
        while checked < 80:
            a = random_int_poly(rng, 6, 9)
            b = random_int_poly(rng, 6, 9)
            if a.is_zero or b.is_zero:
                continue
            res, u, v = subresultant_bezout(a, b)
            assert u * a + v * b == IntPolynomial([res])
            checked += 1

    def test_common_factor_gives_zero(self):
        a = P(1, 1) * P(1, 2, 3)
        b = P(1, 1) * P(-4, 1)
        res, u, v = subresultant_bezout(a, b)
        assert res == 0 and u.is_zero and v.is_zero
        assert resultant(a, b) == 0 and resultant(b, a) == 0

    @pytest.mark.parametrize(
        "a, b, gcd",
        [
            (P(1, 1) * P(1, 2, 3), P(1, 1) * P(-4, 1), P(1, 1)),
            (P(-4, 1) * P(1, 1), P(1, 1) * P(1, 2, 3), P(1, 1)),  # shorter first
            (P(2, 0, 3) * P(1, 2, 3), P(4, 0, 6), P(2, 0, 3)),  # short divides long
            (P(1, 0, 1) * P(5, 1), P(1, 0, 1) * P(3, -2), P(1, 0, 1)),  # a tie
            (cyclotomic_poly(12) * P(3, 7), cyclotomic_poly(12) * P(1, 0, 2), cyclotomic_poly(12)),
            (P(1, 0, 1), P(1, -1, 1), P(1)),  # coprime: the sequence ends on a constant
        ],
    )
    def test_prs_ends_on_the_gcd(self, a, b, gcd):
        # The last nonzero remainder is the gcd up to a constant, always a
        # polynomial, with the carried cofactor of the longer input.
        res, last, u = _prs(a, b)
        assert (res == 0) == (gcd.degree > 0)
        assert isinstance(last, IntPolynomial) and last.degree == gcd.degree
        assert last * gcd.coeffs[-1] == gcd * last.coeffs[-1]
        long, short = (b, a) if a.degree < b.degree else (a, b)
        rest = (last - u * long).to_rational()
        assert rest % short.to_rational() == RatPolynomial.zero()

    def test_both_zero_rejected(self):
        with pytest.raises(BothZero):
            subresultant_bezout(IntPolynomial.zero(), IntPolynomial.zero())

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    )
    @example([1, 2, 3], [-2, 0, 5], [1])  # non-monic, equal degrees
    @example([4, 0, 0, 6], [2, 3], [1])  # non-monic, longer first
    @example([5, -1], [3, 0, 1, 0, -2], [1])  # non-monic, shorter first
    @example([1, 2, 3], [-4, 2], [2, 3])  # non-monic common factor
    @example([1, 1], [1, 0, 1], [0, 0, -1])  # common factor q^2
    @example([6], [1, 2, 3], [1])  # constant first
    @example([1, -1, 4], [-9], [1])  # constant second
    @example([6], [-10], [1])  # two constants, gcd 2
    @example([3], [-4], [1])  # two coprime constants
    def test_one_pass_matches_sylvester_and_bezout(self, a, b, common):
        # `common` of degree 0 leaves the pair as drawn; a higher degree
        # plants a shared factor (resultant 0).
        a, b = P(*a) * P(*common), P(*b) * P(*common)
        if a.is_zero or b.is_zero:
            return
        res = resultant(a, b)
        assert res == sylvester_determinant(a, b)
        if a.degree == 0 and b.degree == 0:
            assert res == 1
            if math.gcd(a.coeffs[0], b.coeffs[0]) != 1:
                return  # no integer Bezout identity reaches 1
        r, u, v = subresultant_bezout(a, b)
        assert r == res
        assert u * a + v * b == IntPolynomial.constant(res)

    def test_constant_cases(self):
        res, u, v = subresultant_bezout(P(3), P(1, 0, 0, 1))
        assert res == 27
        assert u * P(3) + v * P(1, 0, 0, 1) == P(27)

    def test_integer_inputs_build_no_fraction(self, monkeypatch):
        # The PRS keeps its bookkeeping in Z; a Fraction in polyring is
        # only for RatPolynomial.
        def no_fraction(*args):
            raise AssertionError("Fraction built for integer inputs")

        pairs = [
            (P(1, 1, 1), P(-1, 1)),
            (P(-1, 1), P(1, 1, 1)),
            (P(3), P(1, 0, 0, 1)),
            (P(1, 0, 0, 1), P(3)),
            (P(2, 0, 3), P(1, 5, 0, 7)),
            (P(1, 1) * P(1, 2, 3), P(1, 1) * P(-4, 1)),
            (cyclotomic_poly(12), cyclotomic_poly(8)),
            (cyclotomic_poly(15), cyclotomic_poly(5)),
        ]
        rng = random.Random(8)
        while len(pairs) < 60:
            a, b = random_int_poly(rng, 6, 9), random_int_poly(rng, 6, 9)
            if a and b and (a.degree or b.degree):
                pairs.append((a, b))
        # The oracle computes over Q, so it runs before the patch.
        expected = [sylvester_determinant(a, b) for a, b in pairs]
        # polyring reads Fraction off the fractions module where it builds one
        monkeypatch.setattr(fractions, "Fraction", no_fraction)
        for (a, b), det in zip(pairs, expected):
            res = resultant(a, b)
            assert res == det
            r, u, v = subresultant_bezout(a, b)
            assert r == res
            assert u * a + v * b == IntPolynomial.constant(res)

    def test_integer_work_loads_no_fractions_module(self):
        # Without the module no value can be a Fraction, so integer work,
        # and work over Q on integer numerators, in a fresh process must
        # not load it.
        proc = subprocess.run(
            [sys.executable, "-S", "-c", INTEGER_WORK],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(polyring.__file__).resolve().parents[1])},
            check=True,
        )
        assert proc.stdout == b"[]\n"


def _outcome(fn, *args):
    """fn(*args), or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def _outcomes(pairs, bezout=subresultant_bezout):
    """For each pair, the outcomes of resultant, rational_xgcd and bezout."""
    return [
        (
            _outcome(resultant, a, b),
            _outcome(rational_xgcd, a.to_rational(), b.to_rational()),
            _outcome(bezout, a, b),
        )
        for a, b in pairs
    ]


def _outcomes_as_before(pairs):
    """`_outcomes` on the PRS of polynomial objects and the former
    subresultant_bezout."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(polyring, "_prs", prs_by_polynomials)
        return _outcomes(pairs, bezout_by_polynomials)


# Runs subresultant_bezout on a coprime pair with a corrupted carried
# cofactor u + R: Phi_3 is monic and R a constant, so every division stays
# exact, but the remainder -res*Phi_5 mod Phi_3 is not zero.
CORRUPTED_COFACTOR = """
from cyclocomp import cyclotomic_poly, polyring
prs = polyring._prs
def corrupted(a, b):
    res, R, u = prs(a, b)
    return res, R, u + R
polyring._prs = corrupted
try:
    polyring.subresultant_bezout(cyclotomic_poly(5), cyclotomic_poly(3))
except AssertionError as e:
    print(e)
"""


class TestPrsOnLists:
    # The PRS runs on coefficient lists.  `prs_by_polynomials` and
    # `bezout_by_polynomials` (tests/support.py) run the same sequence on
    # polynomial objects, as the library did before.

    def test_cyclotomic_pairs_as_before(self):
        pairs = [
            (cyclotomic_poly(m), cyclotomic_poly(n)) for n in range(2, 61) for m in range(1, n)
        ]
        assert _outcomes(pairs) == _outcomes_as_before(pairs)
        for a, b in pairs[::7]:
            assert _prs(a, b) == prs_by_polynomials(a, b) and _prs(b, a) == prs_by_polynomials(b, a)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=7),
        st.lists(st.integers(-9, 9), max_size=7),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    )
    @example([], [], [1])  # two zeros: BothZero
    @example([2, 1], [], [1])  # one zero
    @example([6], [-10], [1])  # two constants with gcd 2: ValueError
    @example([3], [-4], [1])  # two coprime constants
    @example([6], [1, 2, 3], [1])  # a constant first
    @example([5, -1], [3, 0, 1, 0, -2], [1])  # shorter first
    @example([1, 2, 3], [-4, 2], [2, 3])  # planted common factor
    @example([1, 1], [1, 0, 1], [0, 0, -1])  # common factor q^2
    def test_drawn_pairs_as_before(self, a, b, common):
        # `common` of degree 0 leaves the pair as drawn (empty lists are
        # zero); a higher degree plants a shared factor.
        a, b = P(*a) * P(*common), P(*b) * P(*common)
        assert _outcomes([(a, b)]) == _outcomes_as_before([(a, b)])
        if a and b:
            assert _prs(a, b) == prs_by_polynomials(a, b)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_a_corrupted_cofactor_fails_the_identity(self, flags):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", CORRUPTED_COFACTOR],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(polyring.__file__).resolve().parents[1])},
            check=True,
        )
        assert proc.stdout == b"Bezout identity u*a + v*b = res fails\n"

    def test_wraps_do_not_grow_with_the_degree(self, monkeypatch):
        # Only results become polynomials: R and u from `_prs`, and
        # `subresultant_bezout` adds its zero, u and v.
        wrap, calls = IntPolynomial._wrap, []
        monkeypatch.setattr(
            IntPolynomial, "_wrap", classmethod(lambda cls, c: calls.append(1) or wrap(c))
        )
        rng = random.Random(27)

        def wraps(degree):
            a = P(*[rng.randint(-9, 9) for _ in range(degree)], 1)
            b = P(*[rng.randint(-9, 9) for _ in range(degree)], -1)
            found = []
            for fn in (_prs, subresultant_bezout):
                calls.clear()
                assert fn(a, b)[0] != 0
                found.append(len(calls))
            return found

        assert wraps(40) == wraps(4) == [2, 5]


# Polynomial work over Z and over Q that touches every coefficient check,
# then the loaded modules among fractions and what it imports.
INTEGER_WORK = """
import sys
from cyclocomp.cyclotomic import cyclotomic_poly
from cyclocomp.polyring import IntPolynomial, RatPolynomial, divides, rational_xgcd
from cyclocomp.polyring import resultant, subresultant_bezout
a, b = cyclotomic_poly(12), cyclotomic_poly(8) * IntPolynomial([2, 0, 3])
resultant(a, b), subresultant_bezout(a, b), divmod(a * b, a), divides(a, b)
IntPolynomial.from_json(["1", "-2"]) * 3
r, s = RatPolynomial.from_json(["1/2", "-2/4", "5/3"]), a.to_rational() * RatPolynomial([3], -4)
str(r - s), repr(-r), (r * s) ** 2 * 3, divmod(r, s), divides(s, r), rational_xgcd(r, s)
r.to_json(), r.degree, r.is_zero, r == s, hash(r), RatPolynomial.monomial(2, 3)
for make, coeff in ((IntPolynomial, 0.5), (RatPolynomial, 0.5)):
    try:
        make([1, coeff])
    except TypeError:
        pass
print(sorted({"fractions", "decimal", "numbers"} & set(sys.modules)))
"""


def _checked_xgcd(a, b):
    """rational_xgcd(a, b), with u*a + v*b = g and g monic or zero."""
    g, u, v = rational_xgcd(a, b)
    assert u * a + v * b == g
    assert g.is_zero or g.leading_coefficient == 1
    return g, u, v


# Degree <= 4 before a planted factor of degree <= 3: zero and constant
# inputs are among them.
_xgcd_parts = st.lists(_small_fractions, max_size=5).map(RatPolynomial)
_xgcd_factors = st.lists(_small_fractions, min_size=1, max_size=4).map(RatPolynomial)


class TestRationalXgcd:
    # One primitive PRS over Z; the oracles are Euclid's algorithm over Q
    # (tests/support.py) and sympy.

    @settings(max_examples=300, deadline=None)
    @given(
        _xgcd_parts,
        _xgcd_parts,
        _xgcd_factors.filter(bool),
        _small_fractions.filter(bool),
        _small_fractions.filter(bool),
    )
    @example(R(), R(), R(1), Fraction(1), Fraction(1))  # two zeros
    @example(R(3), R(Fraction(1, 2), 1), R(1), Fraction(-1), Fraction(2))  # a constant
    @example(R(1, 1), R(2, 2), R(0, 1), Fraction(-1), Fraction(-1))  # proportional
    def test_matches_the_euclid_oracle(self, a, b, common, ca, cb):
        # `common` of degree >= 1 plants a shared factor; ca and cb rescale
        # (and with a negative sign negate) the inputs.
        a, b = a * common, b * common
        g, u, v = _checked_xgcd(a, b)
        assert (g, u, v) == rational_xgcd_by_euclid(a, b)
        scaled = _checked_xgcd(a * ca, b * cb)
        assert scaled == rational_xgcd_by_euclid(a * ca, b * cb)
        if g:  # two zeros keep the cofactors (1, 0)
            assert scaled == (g, u * (1 / ca), v * (1 / cb))

    def test_zero_inputs(self):
        lc = Fraction(-4, 3)
        a = R(Fraction(1, 2), 0, lc)
        assert rational_xgcd(R(), R()) == (R(), R(1), R())
        assert rational_xgcd(a, R()) == (a * (1 / lc), R(1 / lc), R())
        assert rational_xgcd(R(), a) == (a * (1 / lc), R(), R(1 / lc))

    @settings(max_examples=200, deadline=None)
    @given(_xgcd_parts, _xgcd_parts, _xgcd_factors)
    def test_matches_sympy(self, a, b, common):
        a, b = a * common, b * common
        g, u, v = _checked_xgcd(a, b)
        pa, pb = _rat_sympy(a), _rat_sympy(b)
        assert g == _rat_from_sympy(pa.gcd(pb))
        if a and b:
            s, t, h = pa.gcdex(pb)
            assert (g, u, v) == (_rat_from_sympy(h), _rat_from_sympy(s), _rat_from_sympy(t))

    def test_one_prs_pass_and_one_exact_quotient(self, monkeypatch):
        # rational_xgcd of two nonzero inputs runs the PRS once and divides
        # over Q once: (g - u*long) / short.  It has no loop of its own.
        tree = ast.parse(inspect.getsource(rational_xgcd))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree))
        calls = {"prs": 0, "divmod": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(polyring, "_prs", counted("prs", polyring._prs))
        monkeypatch.setattr(RatPolynomial, "_divmod", counted("divmod", RatPolynomial._divmod))
        F, half = Fraction, R(Fraction(1, 2), 1)
        pairs = [
            (R(1, 0, 1), R(1, -1, 1)),  # coprime
            (half * R(3, 0, F(2, 7)), half * R(-1, F(5, 3))),  # common factor
            (R(-1, F(5, 3)), R(F(1, 2), 1, 0, 2)),  # shorter first
            (R(1, 2, 1), R(1, 1)),  # short divides long
            (R(F(3, 4)), R(1, 1)),  # a constant
            (R(6), R(F(-2, 9))),  # two constants
        ]
        for a, b in pairs:
            calls.update(prs=0, divmod=0)
            _checked_xgcd(a, b)
            assert calls == {"prs": 1, "divmod": 1}, (a, b)

    def test_degree_fifty_pair_with_a_common_factor(self):
        # On a 2-core x86 VM this takes about 0.8 s CPU, and Euclid's loop in
        # Fraction arithmetic (`rational_xgcd_by_euclid`) about 10 s.
        rng = random.Random(23)

        def part(degree):
            coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(degree)]
            return RatPolynomial(coeffs + [Fraction(rng.randint(1, 20), rng.randint(1, 20))])

        common = part(12)
        a, b = part(40) * common, part(35) * common
        assert (a.degree, b.degree) == (52, 47)
        start = time.process_time()
        g, u, v = rational_xgcd(a, b)
        elapsed = time.process_time() - start
        assert elapsed < 5, f"rational_xgcd took {elapsed:.2f} s CPU, budget 5 s"
        assert u * a + v * b == g and g.leading_coefficient == 1
        assert g == _rat_from_sympy(_rat_sympy(a).gcd(_rat_sympy(b)))
        assert g.degree == 12 and (g % common).is_zero


class TestModPrime:
    def test_spec_examples(self):
        assert poly_mod_prime(P(1, 1), 2) == P(1, 1)
        assert poly_mod_prime(P(1, 1), 2) == poly_mod_prime(P(-1, 1), 2)
        assert poly_mod_prime(P(1, 0, 1), 2) == poly_mod_prime(P(1, 1) * P(1, 1), 2)
        assert poly_mod_prime(P(6, 0, 3), 3).is_zero

    def test_not_prime_rejected(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(NotPrime):
                poly_mod_prime(P(1), bad)

    def test_is_ring_homomorphism(self):
        rng = random.Random(7)
        for p in (2, 3, 5, 7, 11):
            for _ in range(40):
                a = random_int_poly(rng, 6)
                b = random_int_poly(rng, 6)
                assert poly_mod_prime(a + b, p) == poly_mod_prime(
                    poly_mod_prime(a, p) + poly_mod_prime(b, p), p
                )
                assert poly_mod_prime(a * b, p) == poly_mod_prime(
                    poly_mod_prime(a, p) * poly_mod_prime(b, p), p
                )


class TestSerialization:
    def test_round_trip(self):
        p = P(1, 0, 0, -1)
        assert p.to_json() == ["1", "0", "0", "-1"]
        assert IntPolynomial.from_json(p.to_json()) == p

    def test_rational_round_trip(self):
        p = RatPolynomial([Fraction(1, 2), Fraction(-3)])
        assert p.to_json() == ["1/2", "-3/1"]
        assert RatPolynomial.from_json(p.to_json()) == p

    def test_big_coefficients_survive(self):
        p = P(10**40, -(10**39))
        assert IntPolynomial.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "cls, text",
        [
            (IntPolynomial, "1_0"),
            (IntPolynomial, " 2 "),
            (IntPolynomial, "+1"),
            (IntPolynomial, "\u0663"),  # ARABIC-INDIC DIGIT THREE
            (IntPolynomial, "1/1"),
            (IntPolynomial, "0x10"),
            (IntPolynomial, ""),
            (RatPolynomial, "0.5"),
            (RatPolynomial, " 1_0 "),
            (RatPolynomial, "1e1"),
            (RatPolynomial, "1/-2"),
            (RatPolynomial, "3\n"),
            (RatPolynomial, "1/0"),
            (RatPolynomial, "-3/00"),
        ],
    )
    def test_only_plain_decimal_strings_parse(self, cls, text):
        with pytest.raises(ValueError):
            cls.from_json(["1", text])

    def test_plain_decimal_strings_parse(self):
        assert IntPolynomial.from_json(["-12", "007"]) == P(-12, 7)
        assert RatPolynomial.from_json(["-3", "4/6"]) == RatPolynomial(
            [-3, Fraction(2, 3)]
        )
        assert RatPolynomial.from_json(["1/02", "-3/10"]) == RatPolynomial(
            [Fraction(1, 2), Fraction(-3, 10)]
        )
