import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cyclocomp import (
    CommonPrimeCertificate,
    CrtComponents,
    ExponentVector,
    IntPolynomial,
    RatPolynomial,
    crt_idempotents,
    crt_reconstruct,
    crt_split,
    cyclotomic_coprimality,
    cyclotomic_poly,
    integer_witness_search,
    pochhammer,
    rho_q_kernel_witness,
)
from cyclocomp import qcrt
from cyclocomp.cli import run
from cyclocomp.errors import DegreeViolation

from support import check_frozen_value, crt_by_cofactors, fractions_within, random_rat_poly

ZERO = RatPolynomial.zero()
ONE = RatPolynomial.one()


def factor(n, e):
    return (cyclotomic_poly(n) ** e).to_rational()


def hermite_witness(level):
    """x^L * A(y) with A(t) = sum_{i<L} C(L-1+i, i) t^i, x = (1-q)/2 and
    y = (1+q)/2, as ascending Fractions, from binomial coefficients alone.
    Splitting (x + y)^(2L-1) = 1 at the power L of x gives
    x^L A(y) + y^L A(x) = 1, so this is 0 mod (q-1)^L and 1 mod (q+1)^L,
    of degree 2L - 1: the two-point Hermite interpolant."""
    x_power = [(-1) ** k * math.comb(level, k) for k in range(level + 1)]  # (1-q)^L
    # 2^(L-1) A(y) = sum_i C(L-1+i, i) 2^(L-1-i) (1+q)^i
    a = [0] * level
    for i in range(level):
        for k in range(i + 1):
            a[k] += math.comb(level - 1 + i, i) * 2 ** (level - 1 - i) * math.comb(i, k)
    num = [0] * (2 * level)
    for j, xj in enumerate(x_power):
        for k, ak in enumerate(a):
            num[j + k] += xj * ak
    return [Fraction(c, 2 ** (2 * level - 1)) for c in num]


class TestExponentVector:
    def test_modulus(self):
        lam = ExponentVector({1: 2, 2: 1})
        assert lam.modulus() == factor(1, 2) * factor(2, 1)
        # the glue's last prefix is the product of the split's factors
        rng = random.Random(54)
        for _ in range(25):
            support = rng.sample(range(1, 13), rng.randint(1, 4))
            lam = ExponentVector({n: rng.randint(1, 3) for n in support})
            assert lam.modulus() == math.prod(map(lam.factor, lam.support), start=ONE)
        # prod_d Phi_d^floor(20/d) = prod_{k <= 20} (q^k - 1) = (q)_20
        lam = pochhammer_support(20)
        assert lam.modulus() == math.prod(map(lam.factor, lam.support), start=ONE)
        assert lam.modulus() == pochhammer(20).to_rational()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExponentVector({})

    def test_bezout_data_computed_once_per_vector(self, monkeypatch):
        calls = []
        bezout = qcrt.subresultant_bezout

        def counted(a, b):
            calls.append((a, b))
            return bezout(a, b)

        monkeypatch.setattr(qcrt, "subresultant_bezout", counted)
        lam = ExponentVector({1: 2, 2: 1, 3: 2, 5: 1})
        f = RatPolynomial([Fraction(k - 4, k + 1) for k in range(15)])
        for _ in range(3):
            comps = crt_split(f, lam)
            assert crt_split(crt_reconstruct(comps, lam), lam) == comps
            assert sorted(crt_idempotents(lam)) == [1, 2, 3, 5]
        assert len(calls) == len(lam.support)
        # The cached data does not take part in equality or hashing.
        fresh = ExponentVector({5: 1, 3: 2, 2: 1, 1: 2})
        assert lam == fresh and hash(lam) == hash(fresh)
        assert lam.exponent(3) == 2 and lam.factor(3).degree == 4

    def test_split_and_factors_build_no_glue(self, monkeypatch):
        # A split reads only the factor powers; the PRS belongs to the glue.
        calls = []
        bezout = qcrt.subresultant_bezout

        def counted(a, b):
            calls.append((a, b))
            return bezout(a, b)

        monkeypatch.setattr(qcrt, "subresultant_bezout", counted)
        lam = ExponentVector({1: 2, 2: 1, 3: 2, 5: 1})
        f = RatPolynomial([Fraction(k - 4, k + 1) for k in range(15)])
        comps = crt_split(f, lam)
        assert [lam.factor(n) for n in lam.support] == [factor(n, e) for n, e in lam.exponents]
        assert all(comps.component(n) == f % factor(n, e) for n, e in lam.exponents)
        assert calls == []
        lam.modulus()
        assert len(calls) == len(lam.support)

    def test_repeated_reads_return_the_kept_objects(self):
        lam = ExponentVector({1: 2, 2: 1, 3: 2})
        assert all(lam.factor(n) is lam.factor(n) for n in lam.support)
        assert lam.modulus() is lam.modulus()
        crt_reconstruct(crt_split(RatPolynomial([1, 2, 3, 4, 5, 6, 7]), lam), lam)
        assert lam.modulus() is lam.modulus()

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            ExponentVector({3: 0})


class TestValueClasses:
    # Plain classes that behave as the frozen dataclasses they replaced.
    @pytest.mark.parametrize(
        "make, other, text, field",
        [
            (
                lambda: ExponentVector({1: 2}),
                lambda: ExponentVector({1: 3}),
                "ExponentVector(exponents=((1, 2),))",
                "exponents",
            ),
            (
                lambda: CrtComponents({2: RatPolynomial([1, 2]), 1: ZERO}),
                lambda: CrtComponents({2: RatPolynomial([1, 2])}),
                "CrtComponents(components=((1, RatPolynomial('0')), "
                "(2, RatPolynomial('2*q + 1'))))",
                "components",
            ),
        ],
        ids=["exponents", "components"],
    )
    def test_equality_hash_repr_and_no_assignment(self, make, other, text, field):
        check_frozen_value(make, other, text, field)

    def test_cached_polynomials_leave_equality_and_repr_alone(self):
        lam = ExponentVector({2: 1, 1: 2})
        lam.modulus()
        crt_idempotents(lam)
        assert lam == ExponentVector({1: 2, 2: 1})
        assert repr(lam) == "ExponentVector(exponents=((1, 2), (2, 1)))"


class TestSplit:
    def test_zero_splits_to_zero(self):
        lam = ExponentVector({1: 1, 2: 2, 5: 1})
        comps = crt_split(ZERO, lam)
        assert all(c.is_zero for _, c in comps.components)

    def test_phi1_components(self):
        lam = ExponentVector({1: 1, 2: 1})
        comps = crt_split(cyclotomic_poly(1).to_rational(), lam)
        assert comps.component(1) == ZERO
        assert comps.component(2) == RatPolynomial([-2])  # q - 1 at q = -1

    def test_split_is_ring_homomorphism(self):
        rng = random.Random(51)
        lam = ExponentVector({1: 2, 3: 1})
        for _ in range(40):
            f, g = random_rat_poly(rng, 8), random_rat_poly(rng, 8)
            fs, gs = crt_split(f, lam), crt_split(g, lam)
            prod = crt_split(f * g, lam)
            for n in lam.support:
                assert prod.component(n) == (fs.component(n) * gs.component(n)) % lam.factor(n)


class TestReconstruct:
    def test_zero_components(self):
        lam = ExponentVector({1: 1, 2: 1, 3: 1})
        comps = CrtComponents({1: ZERO, 2: ZERO, 3: ZERO})
        assert crt_reconstruct(comps, lam) == ZERO

    def test_spec_bezout_example(self):
        # a == 1 mod (q-1), a == 0 mod (q+1)  ->  (q+1)/2
        lam = ExponentVector({1: 1, 2: 1})
        comps = CrtComponents({1: ONE, 2: ZERO})
        assert crt_reconstruct(comps, lam) == RatPolynomial([Fraction(1, 2), Fraction(1, 2)])

    def test_round_trip_random(self):
        rng = random.Random(52)
        lam = ExponentVector({1: 2, 2: 2, 4: 1})
        deg = int(lam.modulus().degree)
        for _ in range(200):
            f = random_rat_poly(rng, deg + 4)
            comps = crt_split(f, lam)
            g = crt_reconstruct(comps, lam)
            assert (f - g) % lam.modulus() == ZERO
            assert g.degree < lam.modulus().degree
            assert crt_split(g, lam).components == comps.components

    def test_split_after_reconstruct_is_identity(self):
        rng = random.Random(53)
        lam = ExponentVector({2: 1, 3: 2})
        for _ in range(100):
            comps = CrtComponents(
                {
                    n: random_rat_poly(rng, lam.factor(n).degree - 1)
                    for n in lam.support
                }
            )
            g = crt_reconstruct(comps, lam)
            assert crt_split(g, lam).components == comps.components

    def test_sampled_lambda_family(self):
        # support size <= 4, exponents <= 3, indices <= 12
        rng = random.Random(54)
        for _ in range(25):
            support = rng.sample(range(1, 13), rng.randint(1, 4))
            lam = ExponentVector({n: rng.randint(1, 3) for n in support})
            f = random_rat_poly(rng, int(lam.modulus().degree) + 2)
            g = crt_reconstruct(crt_split(f, lam), lam)
            assert (f - g) % lam.modulus() == ZERO

    def test_degree_violation_rejected(self):
        lam = ExponentVector({1: 1, 2: 1})
        comps = CrtComponents({1: RatPolynomial([0, 0, 1]), 2: ZERO})
        with pytest.raises(DegreeViolation):
            crt_reconstruct(comps, lam)

    def test_mismatched_support_rejected(self):
        lam = ExponentVector({1: 1, 2: 1})
        comps = CrtComponents({1: ZERO, 3: ZERO})
        with pytest.raises(ValueError, match=r"support \(1, 3\) does not match \(1, 2\)"):
            crt_reconstruct(comps, lam)

    def test_idempotent_system(self):
        for support in ({1: 1, 2: 1}, {1: 2, 2: 2}, {2: 1, 3: 2, 4: 1}):
            lam = ExponentVector(support)
            ids = crt_idempotents(lam)
            modulus = lam.modulus()
            total = ZERO
            for n, e in ids.items():
                assert (e * e - e) % modulus == ZERO
                total = total + e
            assert (total - ONE) % modulus == ZERO


def pochhammer_support(n):
    """lambda(d) = floor(n/d) for d <= n: the Phi_d powers of (q)_n."""
    return ExponentVector({d: n // d for d in range(1, n + 1)})


class TestMixedRadix:
    # The glue's outputs equal the former cofactor engine's, coefficient
    # for coefficient: both are the representative of degree < deg modulus.
    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_cofactors_on_pochhammer_supports(self, n):
        rng = random.Random(n)
        lam = pochhammer_support(n)
        components = {m: random_rat_poly(rng, lam.factor(m).degree - 1) for m in lam.support}
        expected, idempotents = crt_by_cofactors(lam, components)
        assert crt_reconstruct(CrtComponents(components), lam) == expected
        assert crt_idempotents(lam) == idempotents

    def test_matches_cofactors_on_sampled_supports(self):
        rng = random.Random(55)
        for _ in range(40):
            support = rng.sample(range(1, 19), rng.randint(1, 5))
            lam = ExponentVector({n: rng.randint(1, 3) for n in support})
            f = random_rat_poly(rng, int(lam.modulus().degree) + 3)
            comps = crt_split(f, lam)
            expected, idempotents = crt_by_cofactors(lam, dict(comps.components))
            assert crt_reconstruct(comps, lam) == expected
            assert crt_idempotents(lam) == idempotents

    def test_kernel_witness_matches_cofactors(self):
        for level in range(1, 7):
            lam = ExponentVector({1: level, 2: level})
            _, idempotents = crt_by_cofactors(lam, {1: ZERO, 2: ZERO})
            assert rho_q_kernel_witness(level) == idempotents[2]

    def test_pochhammer_round_trip_at_forty(self):
        rng = random.Random(40)
        lam = pochhammer_support(40)
        modulus = lam.modulus()
        assert modulus.degree == 40 * 41 // 2
        f = RatPolynomial(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(830)] + [Fraction(3, 7)]
        )
        comps = crt_split(f, lam)
        g = crt_reconstruct(comps, lam)
        assert g.degree < modulus.degree
        assert crt_split(g, lam) == comps
        assert (f - g) % modulus == ZERO

    def test_each_inverse_is_a_prs_of_one_factor(self, monkeypatch):
        # t_j inverts M_{j-1} mod F_j: the PRS sees F_j and M_{j-1} reduced
        # mod F_j, never the product of the other factors.
        calls = []
        bezout = qcrt.subresultant_bezout

        def recorded(a, b):
            calls.append((a, b))
            return bezout(a, b)

        monkeypatch.setattr(qcrt, "subresultant_bezout", recorded)
        lam = ExponentVector({1: 2, 2: 1, 3: 2, 5: 1, 6: 3})
        crt_idempotents(lam)
        assert [b for _, b in calls] == [cyclotomic_poly(n) ** e for n, e in lam.exponents]
        assert all(a.degree < b.degree for a, b in calls)


X = sympy.Symbol("x")


def _to_sympy(coeffs):
    rationals = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return sympy.Poly(rationals or [0], X, domain=sympy.QQ)


def _from_sympy(poly):
    return RatPolynomial([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


class TestCrtAgainstSympy:
    # The factors come from sympy's cyclotomic polynomials and the Bezout
    # cofactors from sympy's gcdex over QQ, not from the integer PRS.
    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.integers(1, 12), st.integers(1, 3), min_size=1, max_size=5),
        st.lists(fractions_within(9, 9), max_size=80),
    )
    def test_idempotents_and_round_trip(self, exponents, f_coeffs):
        lam = ExponentVector(exponents)
        factors = {
            n: sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain=sympy.QQ) ** e
            for n, e in exponents.items()
        }
        modulus = _to_sympy([1])
        for f in factors.values():
            modulus = modulus * f
        ids = crt_idempotents(lam)
        assert sorted(ids) == sorted(exponents)
        for n, f in factors.items():
            rest = modulus.exquo(f)
            s, _, h = sympy.gcdex(rest, f)
            assert h == _to_sympy([1])
            assert ids[n] == _from_sympy((s * rest).rem(modulus))
        f = RatPolynomial(f_coeffs)
        expected = _from_sympy(_to_sympy(f.coeffs).rem(modulus))
        assert crt_reconstruct(crt_split(f, lam), lam) == expected


class TestKernelWitness:
    def test_level_one_exact_value(self):
        assert rho_q_kernel_witness(1) == RatPolynomial([Fraction(1, 2), Fraction(-1, 2)])

    def test_defining_congruences_to_level_five(self):
        for n in range(1, 6):
            w = rho_q_kernel_witness(n)
            assert not w.is_zero
            assert w % factor(1, n) == ZERO
            assert (w - ONE) % factor(2, n) == ZERO

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            rho_q_kernel_witness(0)

    def test_level_of_the_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            rho_q_kernel_witness(2.0)

    @pytest.mark.parametrize("level", range(1, 31))
    def test_witness_is_the_glued_idempotent(self, level):
        # the mixed-radix glue, the library's CRT route, as the oracle
        lam = ExponentVector({1: level, 2: level})
        assert rho_q_kernel_witness(level) == crt_reconstruct(CrtComponents({1: ZERO, 2: ONE}), lam)

    def test_witness_builds_no_glue(self, monkeypatch):
        def no_glue(*args):
            raise AssertionError("the witness ran a PRS")

        monkeypatch.setattr(qcrt, "subresultant_bezout", no_glue)
        assert rho_q_kernel_witness(5) == RatPolynomial(hermite_witness(5))

    def test_defining_congruences_at_level_two_hundred(self):
        w = rho_q_kernel_witness(200)
        assert w.degree == 399
        assert w % factor(1, 200) == ZERO
        assert (w - ONE) % factor(2, 200) == ZERO

    def test_witness_degree_bounded(self):
        for n in range(1, 6):
            assert rho_q_kernel_witness(n).degree < 2 * n

    def test_level_one_witness_needs_non_integer_coefficient(self):
        w = rho_q_kernel_witness(1)
        assert any(c.denominator != 1 for c in w.coeffs)

    def test_no_integer_witness_in_degree_one_box(self):
        assert integer_witness_search(1, 1, 20) is None

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_no_integer_witness_in_degree_three_box(self, level):
        # cand(1) = 0 and cand(-1) = 1 would differ in parity, but
        # cand(1) - cand(-1) is twice the sum of the odd coefficients.
        assert integer_witness_search(level, 3, 3) is None

    def test_twice_the_level_one_witness_is_integral(self):
        # 2*w has integer coefficients and solves the doubled system:
        # 0 mod q - 1 and 2 mod q + 1, where w itself needs the halves
        w = rho_q_kernel_witness(1) * 2
        cand = IntPolynomial([c.numerator for c in w.coeffs])
        f1, f2 = cyclotomic_poly(1), cyclotomic_poly(2)
        assert (cand % f1).is_zero
        assert ((cand - IntPolynomial([2])) % f2).is_zero

    @pytest.mark.parametrize("level", range(1, 61))
    def test_witness_is_the_hermite_interpolant(self, level):
        assert list(rho_q_kernel_witness(level).coeffs) == hermite_witness(level)

    @pytest.mark.parametrize("level", [1, 4, 9])
    def test_cli_prints_the_hermite_interpolant(self, level):
        out = io.StringIO()
        assert run(["qcrt", "witness", "--level", str(level), "--format", "json"], out) == 0
        expected = [f"{c.numerator}/{c.denominator}" for c in hermite_witness(level)]
        assert json.loads(out.getvalue())["witness"] == expected


class TestNoIntegerWitness:
    # A witness w in Z[q] would be 0 mod (q-1)^L and 1 mod (q+1)^L, so
    # w(1) = 0 and w(-1) = 1; integer polynomials take values of equal
    # parity there, as (Phi_1, Phi_2) = (q - 1, 2) is a proper ideal.
    # integer_witness_search returns that theorem; these tests pin its premises.

    def test_phi1_and_phi2_share_the_prime_two(self):
        assert cyclotomic_coprimality(1, 2) == CommonPrimeCertificate(2, 2, 1)

    @given(st.lists(st.integers(-10**6, 10**6), max_size=12))
    def test_values_at_one_and_minus_one_have_equal_parity(self, coeffs):
        p = IntPolynomial(coeffs)
        at_one = sum(coeffs)
        at_minus_one = sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))
        assert p % cyclotomic_poly(1) == IntPolynomial.constant(at_one)
        assert p % cyclotomic_poly(2) == IntPolynomial.constant(at_minus_one)
        assert (at_one - at_minus_one) % 2 == 0

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_brute_force_finds_no_witness_in_small_boxes(self, level):
        # the degree <= 3, |coefficient| <= 3 box holds every smaller box
        zero_mod, one_mod = cyclotomic_poly(1) ** level, cyclotomic_poly(2) ** level
        one = IntPolynomial.one()
        for coeffs in itertools.product(range(-3, 4), repeat=4):
            cand = IntPolynomial(coeffs)
            assert not ((cand % zero_mod).is_zero and ((cand - one) % one_mod).is_zero), coeffs

    def test_search_builds_no_polynomial(self, monkeypatch):
        def no_polynomial(*args):
            raise RuntimeError("integer_witness_search built a polynomial")

        monkeypatch.setattr(qcrt, "IntPolynomial", no_polynomial)
        assert integer_witness_search(1, 5, 3) is None
