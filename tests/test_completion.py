import functools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclocomp import (
    AdicChain,
    FiltrationChain,
    IntPolynomial,
    KONTSEVICH_ZAGIER_SPEC,
    NAMED_SERIES,
    PochhammerChain,
    ProductChain,
    Q_INVERSE_SPEC,
    RatPolynomial,
    SeriesSpec,
    TruncatedElement,
    alternating_unit,
    cyclotomic_poly,
    divides,
    expand_series,
    from_digits,
    pochhammer,
    poly_mod_prime,
    reduce,
    resultant,
    rho,
    series_realize,
    taylor_at_root,
    to_digits,
    unit_inverse_mod,
)
from cyclocomp import completion, polyring
from cyclocomp.completion import DigitExpansion, chain_from_json_dict, digit_degree_bound
from cyclocomp.errors import (
    ChainMismatch,
    DigitDegreeViolation,
    EvenM,
    NonConvergent,
    NonUnitLeadingCoefficient,
    NotCoarser,
)

from support import check_frozen_value, kz_stopped_at, random_int_poly, twins, u_spec


def P(*coeffs):
    return IntPolynomial(coeffs)


Q = IntPolynomial.monomial(1, 1)
ONE = IntPolynomial.one()


def all_chain_kinds():
    return [
        PochhammerChain(),
        AdicChain(cyclotomic_poly(1)),
        AdicChain(cyclotomic_poly(3)),
        ProductChain([1, 2, 3]),
        ProductChain([2, 5]),
    ]


def four_six_one(i):
    """A custom enumeration that pickles: a module-level function."""
    return (4, 6, 1)[i % 3]


class TestChains:
    def test_pochhammer_moduli_generate_the_right_ideals(self):
        chain = PochhammerChain()
        for k in range(8):
            g = chain.modulus(k)
            assert g.leading_coefficient == 1 if k else g == ONE
            assert g in (pochhammer(k), -pochhammer(k))

    def test_divisibility_chain(self):
        for chain in all_chain_kinds():
            for k in range(6):
                assert divides(chain.modulus(k), chain.modulus(k + 1))

    def test_adic_moduli(self):
        chain = AdicChain(cyclotomic_poly(2))
        assert chain.modulus(3) == cyclotomic_poly(2) ** 3

    def test_adic_rejects_non_unit_leading(self):
        with pytest.raises(NonUnitLeadingCoefficient):
            AdicChain(P(1, 2))

    def test_product_chain_cycles_sorted_indices(self):
        chain = ProductChain([3, 1])
        assert chain.modulus(1) == cyclotomic_poly(1)
        assert chain.modulus(2) == cyclotomic_poly(1) * cyclotomic_poly(3)
        assert chain.modulus(3) == chain.modulus(2) * cyclotomic_poly(1)

    def test_product_chain_full_rounds_are_powers(self):
        chain = ProductChain([1, 2, 3])
        base = cyclotomic_poly(1) * cyclotomic_poly(2) * cyclotomic_poly(3)
        assert chain.modulus(6) == base**2

    def test_custom_enumeration(self):
        chain = ProductChain(enumeration=lambda i: 2)
        assert chain.modulus(4) == cyclotomic_poly(2) ** 4

    def test_moduli_are_products_of_factors_without_division(self, monkeypatch):
        def no_division(self, g):
            raise AssertionError("a chain modulus divided")

        monkeypatch.setattr(PochhammerChain, "_moduli", [ONE])
        monkeypatch.setattr(IntPolynomial, "__divmod__", no_division)
        phi = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 6: [1, -1, 1]}
        cases = [
            (PochhammerChain(), lambda k: [-1] + [0] * (k - 1) + [1]),
            (AdicChain(cyclotomic_poly(3)), lambda k: phi[3]),
            (ProductChain([1, 2, 3]), lambda k: phi[(1, 2, 3)[(k - 1) % 3]]),
            (
                ProductChain(enumeration=lambda i: (4, 6, 1)[i % 3]),
                lambda k: phi[(4, 6, 1)[(k - 1) % 3]],
            ),
        ]
        for chain, factor in cases:
            chain.modulus(30)
            expected = [1]
            for k in range(1, 31):
                f = factor(k)
                product = [0] * (len(expected) + len(f) - 1)
                for i, a in enumerate(expected):
                    for j, b in enumerate(f):
                        product[i + j] += a * b
                expected = product
                assert chain.modulus(k) == IntPolynomial(expected), (chain, k)

    def test_non_unit_leading_factor_rejected(self):
        class Doubling(FiltrationChain):
            label = "doubling"

            def factor(self, k):
                return P(1, 2)

        class Vanishing(Doubling):
            label = "vanishing"

            def factor(self, k):
                return IntPolynomial.zero()

        with pytest.raises(AssertionError, match=r"doubling: factor f_1 "):
            Doubling().modulus(1)
        # Every reader of the factors checks them, not only `modulus`; a
        # zero factor would otherwise divide by Phi_n forever.
        for chain in (Doubling(), Vanishing()):
            for read in (
                lambda: chain.multiplicity(1, 1),
                lambda: digit_degree_bound(chain, 0),
                lambda: from_digits(DigitExpansion(chain, (ONE,)), 0),
            ):
                with pytest.raises(AssertionError, match=f"{chain.label}: factor f_1 "):
                    read()

    def test_structural_equality(self):
        assert PochhammerChain() == PochhammerChain()
        assert AdicChain(cyclotomic_poly(2)) == AdicChain(cyclotomic_poly(2))
        assert ProductChain([1, 2]) == ProductChain([2, 1])
        assert PochhammerChain() != AdicChain(cyclotomic_poly(1))

    def test_json_round_trip(self):
        for chain in all_chain_kinds():
            assert chain_from_json_dict(chain.to_json_dict()) == chain

    @pytest.mark.parametrize(
        "chain",
        all_chain_kinds() + [ProductChain(enumeration=four_six_one)],
        ids=lambda chain: chain.label,
    )
    def test_copies_and_pickles_give_the_same_moduli(self, chain):
        # the g_k are a cache, not a field: a twin rebuilds them
        expected = [chain.modulus(k) for k in range(7)]
        for twin in twins(chain):
            assert twin == chain and hash(twin) == hash(chain)
            assert [twin.modulus(k) for k in range(7)] == expected
            assert twin.label == chain.label

    def test_copies_of_a_pochhammer_chain_read_the_one_store(self):
        for twin in twins(PochhammerChain()):
            assert twin._moduli is PochhammerChain._moduli

    def test_other_chains_start_their_own_store(self):
        chain = AdicChain(cyclotomic_poly(3))
        chain.modulus(4)
        for twin in twins(chain):
            assert twin._moduli is not chain._moduli
            assert twin.modulus(4) == chain.modulus(4)

    def test_a_repeated_modulus_builds_no_polynomial(self, monkeypatch):
        # a chain's store is made once; a g_k already in it is only read
        chains = [AdicChain(cyclotomic_poly(3)), ProductChain([1, 2, 3]), PochhammerChain()]
        for chain in chains:
            chain.modulus(5)
        wrap, calls = IntPolynomial._wrap, []
        monkeypatch.setattr(
            IntPolynomial, "_wrap", classmethod(lambda cls, c: calls.append(c) or wrap(c))
        )
        for chain in chains:
            for k in (5, 0, 3, 5):
                chain.modulus(k)
        assert calls == []

    def test_custom_enumerations_are_equal_by_function(self):
        assert ProductChain(enumeration=four_six_one) == ProductChain(enumeration=four_six_one)
        assert ProductChain(enumeration=four_six_one) != ProductChain(
            enumeration=lambda i: four_six_one(i)
        )

    def test_a_product_chain_takes_indices_or_an_enumeration(self):
        # one message for both, for neither and for an empty index set
        for kwargs in ({"indices": [1, 2], "enumeration": four_six_one}, {}, {"indices": []}):
            with pytest.raises(ValueError, match="nonempty indices or an enumeration, not both"):
                ProductChain(**kwargs)

    def test_a_custom_enumeration_has_no_json(self):
        with pytest.raises(ValueError, match="custom-enumeration chains are not serializable"):
            ProductChain(enumeration=four_six_one).to_json_dict()

    def test_a_product_chain_takes_no_label(self):
        # a label once decided equality: two chains with the same factors
        # compared unequal, and an element failed its own JSON round trip
        with pytest.raises(TypeError, match="label"):
            ProductChain([1, 2], label="x")

    def test_a_product_chain_label_is_derived_from_its_factors(self):
        assert ProductChain([2, 1, 2]).label == "product[1, 2]"
        assert ProductChain(enumeration=four_six_one).label == "product(four_six_one)"
        local = ProductChain(enumeration=lambda i: 2).label
        assert local.startswith("product(") and "<lambda>" in local and "0x" not in local
        assert ProductChain(enumeration=functools.partial(max, 2)).label == "product(partial)"


class TestReduce:
    def test_spec_cases(self):
        poch = PochhammerChain()
        assert reduce(IntPolynomial.monomial(1, 5), poch, 1).rep == ONE
        assert reduce(P(9, 9, 9), poch, 0).rep.is_zero
        assert reduce(pochhammer(3) + Q, poch, 3).rep == Q

    def test_rep_is_canonical_remainder(self):
        rng = random.Random(21)
        for chain in all_chain_kinds():
            for _ in range(40):
                f = random_int_poly(rng, 30)
                k = rng.randint(0, 6)
                a = reduce(f, chain, k)
                assert a.rep.degree < chain.modulus(k).degree or k == 0
                assert divides(chain.modulus(k), f - a.rep)

    def test_homomorphism_law(self):
        rng = random.Random(22)
        for chain in all_chain_kinds():
            for _ in range(500):
                f = random_int_poly(rng, 14, 30)
                g = random_int_poly(rng, 14, 30)
                k = rng.randint(0, 6)
                fr, gr = reduce(f, chain, k), reduce(g, chain, k)
                assert fr + gr == reduce(f + g, chain, k)
                assert fr * gr == reduce(f * g, chain, k)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(all_chain_kinds()),
        st.lists(st.integers(-(10**6), 10**6), max_size=14),
        st.lists(st.integers(-(10**6), 10**6), max_size=14),
        st.integers(0, 6),
        st.integers(0, 6),
    )
    def test_subtraction_and_negation(self, chain, f, g, k, m):
        a, b = reduce(IntPolynomial(f), chain, k), reduce(IntPolynomial(g), chain, m)
        assert a - b == a + (-b)
        assert -(-a) == a
        assert (a - a).is_zero

    def test_unknown_op_rejected(self):
        a = reduce(P(1, 2), PochhammerChain(), 3)
        with pytest.raises(ValueError, match="unknown op 'div'"):
            completion.trunc_arith(a, a, "div")

    def test_multiplicative_identity(self):
        poch = PochhammerChain()
        a = reduce(P(4, 7, -2), poch, 4)
        assert a * reduce(ONE, poch, 4) == a

    def test_binomial_reduction_at_level_two(self):
        poch = PochhammerChain()
        lhs = reduce(P(1, -1), poch, 2) * reduce(P(1, 1), poch, 2)
        assert lhs == reduce(P(1, 0, -1), poch, 2)

    def test_level_mismatch_takes_min(self):
        poch = PochhammerChain()
        a = reduce(P(1, 2, 3), poch, 5)
        b = reduce(P(1, 1), poch, 2)
        assert (a * b).level == 2

    def test_chain_mismatch_rejected(self):
        a = reduce(Q, PochhammerChain(), 3)
        b = reduce(Q, AdicChain(cyclotomic_poly(1)), 3)
        with pytest.raises(ChainMismatch):
            a + b

    def test_negative_level_rejected(self):
        # A negative level used to give an empty rep instead of an error.
        for chain in all_chain_kinds():
            with pytest.raises(ValueError):
                reduce(P(1, 2, 3), chain, -1)
        with pytest.raises(ValueError):
            series_realize(KONTSEVICH_ZAGIER_SPEC, PochhammerChain(), -1)
        with pytest.raises(ValueError):
            TruncatedElement.from_json_dict(
                {"chain": {"kind": "pochhammer"}, "level": -2, "rep": ["1"]}
            )

    def test_element_json_round_trip(self):
        for chain in all_chain_kinds():
            a = reduce(P(3, -5, 11, 2), chain, 4)
            assert TruncatedElement.from_json_dict(a.to_json_dict()) == a

    def test_constructor_reduces_its_rep(self):
        # q and 1 stand for the same element mod q - 1; the element keeps 1
        poch = PochhammerChain()
        assert TruncatedElement(poch, 1, Q) == reduce(Q, poch, 1)
        assert TruncatedElement(poch, 0, ONE).rep.is_zero
        rng = random.Random(27)
        for chain in all_chain_kinds():
            for _ in range(20):
                f, k = random_int_poly(rng, 15, 50), rng.randint(0, 5)
                assert TruncatedElement(chain, k, f) == reduce(f, chain, k)
        # a rational rep once made an element whose JSON could not be read
        # back and whose value at a root raised TypeError
        with pytest.raises(TypeError, match="mixed coefficient domains"):
            TruncatedElement(poch, 2, RatPolynomial([Fraction(1, 2)]))

    def test_an_element_on_a_product_chain_pickles(self):
        a = reduce(P(3, -1, 4, 1, 5), ProductChain([1, 2]), 3)
        for twin in twins(a):
            assert twin == a and twin.rep == a.rep

    @pytest.mark.parametrize("level", [True, False, 3.0, "3 ", "1_0", "+3", "\u0663", None, [3]])
    def test_element_json_rejects_non_integer_level(self, level):
        with pytest.raises(ValueError):
            TruncatedElement.from_json_dict(
                {"chain": {"kind": "pochhammer"}, "level": level, "rep": ["1"]}
            )


class TestDigits:
    def test_digits_of_q_resum_to_q(self):
        # deg a_0 < 1 forces a constant leading digit; the identity
        # q = 1 - (q)_1 pins the rest.
        poch = PochhammerChain()
        a = reduce(Q, poch, 3)
        d = to_digits(a)
        assert d.digits[0] == ONE
        total = IntPolynomial.zero()
        for n, digit in enumerate(d.digits):
            total = total + digit * poch.modulus(n)
        assert total == Q
        assert total == ONE - pochhammer(1)

    def test_zero_has_zero_digits(self):
        a = reduce(IntPolynomial.zero(), PochhammerChain(), 5)
        assert all(digit.is_zero for digit in to_digits(a).digits)

    def test_round_trip_everywhere(self):
        rng = random.Random(23)
        for chain in all_chain_kinds():
            for _ in range(200):
                f = random_int_poly(rng, 25, 100)
                k = rng.randint(0, 7)
                a = reduce(f, chain, k)
                d = to_digits(a)
                assert len(d) == len(d.digits) == k
                assert from_digits(d, k) == a

    def test_degree_bounds_hold(self):
        rng = random.Random(24)
        for chain in all_chain_kinds():
            gaps = [chain.modulus(n + 1).degree - chain.modulus(n).degree for n in range(8)]
            for _ in range(40):
                a = reduce(random_int_poly(rng, 30, 1000), chain, 8)
                for n, digit in enumerate(to_digits(a).digits):
                    assert digit.degree < digit_degree_bound(chain, n) == gaps[n]

    def test_digits_read_the_factors(self, monkeypatch):
        # Digits are peeled off the f_k, and digit gaps and the Horner sum
        # use f_k; only the final reduce reads a dense modulus.
        chain = ProductChain([1, 2, 3])
        a = reduce(random_int_poly(random.Random(26), 30, 100), chain, 7)
        read = []
        modulus = FiltrationChain.modulus
        monkeypatch.setattr(
            FiltrationChain, "modulus", lambda self, k: read.append(k) or modulus(self, k)
        )
        d = to_digits(a)
        assert [digit_degree_bound(chain, n) for n in range(7)] == [1, 1, 2] * 2 + [1]
        assert read == []
        from_digits(d, 5)
        assert read == [5]

    def test_sparse_digits_cost_their_terms(self):
        # Dividing by f_k = q^k - 1 updates one coefficient per quotient
        # step, not a k-long slice: 1.0-1.5 s when each step was a slice pass.
        a = series_realize(Q_INVERSE_SPEC, PochhammerChain(), 100)
        start = time.process_time()
        d = to_digits(a)
        elapsed = time.process_time() - start
        # sum q^n (q; q)_n with g_n = (-1)^n (q; q)_n: the digits are (-q)^n
        assert d.digits == tuple(IntPolynomial.monomial((-1) ** n, n) for n in range(100))
        assert from_digits(d, 100) == a
        assert elapsed < 0.5

    def test_a_rep_past_the_level_is_refused(self):
        # an element whose fields are set around the constructor, as a
        # tracer may set them: a rep of degree deg g_2 leaves a quotient
        # after 2 digits
        a = object.__new__(TruncatedElement)
        for name, value in zip(a._fields, (PochhammerChain(), 2, IntPolynomial.monomial(1, 3))):
            object.__setattr__(a, name, value)
        with pytest.raises(AssertionError, match="^pochhammer: level 2 leaves a quotient"):
            to_digits(a)

    def test_uniqueness_by_perturbation(self):
        rng = random.Random(25)
        chain = PochhammerChain()
        for _ in range(60):
            a = reduce(random_int_poly(rng, 20, 50), chain, 6)
            d = to_digits(a)
            n = rng.randrange(6)
            bump_deg = rng.randint(0, digit_degree_bound(chain, n) - 1)
            digits = list(d.digits)
            digits[n] = digits[n] + IntPolynomial.monomial(1, bump_deg)
            perturbed = DigitExpansion(chain, tuple(digits))
            assert from_digits(perturbed, 6) != a

    def test_bound_violation_rejected(self):
        chain = PochhammerChain()
        bad = DigitExpansion(chain, (Q,))  # deg 1 digit at slot 0: bound is 1
        with pytest.raises(DigitDegreeViolation):
            from_digits(bad, 1)

    def test_coefficient_map_to_mod_p_is_onto_digit_systems(self):
        # any mod-p digit system lifts: choose integer digits with the
        # same residues, expand, and reduce coefficientwise
        rng = random.Random(26)
        chain = PochhammerChain()
        p = 5
        for _ in range(40):
            k = rng.randint(1, 6)
            target = [
                IntPolynomial([rng.randrange(p) for _ in range(digit_degree_bound(chain, n))])
                for n in range(k)
            ]
            lifted = from_digits(DigitExpansion(chain, tuple(target)), k)
            back = to_digits(lifted)
            for want, got in zip(target, back.digits):
                assert poly_mod_prime(got, p) == poly_mod_prime(want, p)

    def test_coefficient_map_to_q_is_injective_on_digits(self):
        rng = random.Random(27)
        chain = PochhammerChain()
        for _ in range(40):
            a = reduce(random_int_poly(rng, 20, 30), chain, 6)
            b = reduce(random_int_poly(rng, 20, 30), chain, 6)
            da, db = to_digits(a), to_digits(b)
            rational_a = [dig.to_rational() for dig in da.digits]
            rational_b = [dig.to_rational() for dig in db.digits]
            assert (rational_a == rational_b) == (da.digits == db.digits)


class TestRho:
    def test_pochhammer_to_q_minus_one_adic(self):
        # (q-1) divides (q)_6 with multiplicity 6, so level 3 is coarser
        a = reduce(P(1, 2, 0, 4), PochhammerChain(), 6)
        target = AdicChain(cyclotomic_poly(1))
        image = rho(a, target, 3)
        assert image.level == 3
        assert divides(target.modulus(3), a.rep - image.rep)

    def test_to_level_zero(self):
        a = reduce(P(5, 5), PochhammerChain(), 4)
        assert rho(a, AdicChain(cyclotomic_poly(2)), 0).rep.is_zero

    def test_not_coarser_rejected(self):
        a = reduce(Q, PochhammerChain(), 2)
        with pytest.raises(NotCoarser):
            rho(a, AdicChain(cyclotomic_poly(3)), 1)

    def test_functoriality(self):
        rng = random.Random(31)
        poch = PochhammerChain()
        mid = ProductChain([1, 2])
        end = AdicChain(cyclotomic_poly(1))
        for _ in range(60):
            a = reduce(random_int_poly(rng, 25, 40), poch, 8)
            via = rho(rho(a, mid, 4), end, 2)
            direct = rho(a, end, 2)
            assert via == direct

    def test_commutes_with_arithmetic(self):
        rng = random.Random(32)
        poch = PochhammerChain()
        target = AdicChain(cyclotomic_poly(1))
        for _ in range(60):
            a = reduce(random_int_poly(rng, 20, 40), poch, 6)
            b = reduce(random_int_poly(rng, 20, 40), poch, 6)
            assert rho(a * b, target, 3) == rho(a, target, 3) * rho(b, target, 3)
            assert rho(a + b, target, 3) == rho(a, target, 3) + rho(b, target, 3)

    def test_finite_level_injectivity_consistency(self):
        # a polynomial of degree < deg g_k reduces to zero iff it is
        # divisible by g_k (hence zero); distinct low-degree polynomials
        # keep distinct images exactly when their difference avoids the
        # target modulus
        rng = random.Random(33)
        poch = PochhammerChain()
        k = 6
        gk_deg = poch.modulus(k).degree
        for _ in range(50):
            f = random_int_poly(rng, gk_deg - 1, 20)
            assert reduce(f, poch, k).is_zero == f.is_zero
        target = AdicChain(cyclotomic_poly(2))
        for _ in range(50):
            f = random_int_poly(rng, 15, 20)
            g = random_int_poly(rng, 15, 20)
            fa, ga = reduce(f, poch, k), reduce(g, poch, k)
            fi, gi = rho(fa, target, 3), rho(ga, target, 3)
            expect_equal = divides(target.modulus(3), f - g)
            assert (fi == gi) == expect_equal


class TestSeries:
    def test_kz_at_level_one(self):
        elt = series_realize(KONTSEVICH_ZAGIER_SPEC, PochhammerChain(), 1)
        assert elt.rep == ONE

    def test_kz_at_level_three(self):
        poch = PochhammerChain()
        elt = series_realize(KONTSEVICH_ZAGIER_SPEC, poch, 3)
        expect = (pochhammer(0) + pochhammer(1) + pochhammer(2)) % poch.modulus(3)
        assert elt.rep == expect

    def test_q_inverse_identity(self):
        poch = PochhammerChain()
        for n in range(1, 31):
            inv = series_realize(Q_INVERSE_SPEC, poch, n)
            assert reduce(Q, poch, n) * inv == reduce(ONE, poch, n)

    def test_non_convergent_detected(self, monkeypatch):
        monkeypatch.setattr(completion, "MAX_SERIES_TERMS", 50)
        stuck = SeriesSpec(name="stuck", term=lambda n: ONE, witness=lambda n: 0)
        with pytest.raises(NonConvergent):
            series_realize(stuck, PochhammerChain(), 1)

    @pytest.mark.parametrize(
        "realize",
        [
            lambda spec: series_realize(spec, PochhammerChain(), 1),
            lambda spec: expand_series(spec, 1, 0),
        ],
        ids=["series_realize", "expand_series"],
    )
    def test_series_take_at_most_max_series_terms(self, monkeypatch, realize):
        monkeypatch.setattr(completion, "MAX_SERIES_TERMS", 50)
        calls = []

        def term(n):
            calls.append(n)
            return ONE

        # witness(50) is past level 1: the 50 terms 0..49 are the whole sum
        last = SeriesSpec(name="last", term=term, witness=lambda n: 0 if n < 50 else 2)
        realize(last)
        assert calls == list(range(50))
        calls.clear()
        stuck = SeriesSpec(name="stuck", term=term, witness=lambda n: 0)
        with pytest.raises(NonConvergent, match="for 50 terms"):
            realize(stuck)
        assert calls == list(range(50))

    def test_a_decreasing_tail_witness_gives_one_element_on_both_routes(self):
        # t_k = (q)_k for even k, 0 for odd k.  witness(k) bounds the whole
        # tail t_k, t_{k+1}, ...: k + 1 at odd k, k - 1 at even k >= 2, so
        # it drops at every even k and is still valid.
        poch = PochhammerChain()
        spec = SeriesSpec(
            name="even",
            term=lambda k: IntPolynomial.zero() if k % 2 else pochhammer(k),
            witness=lambda k: k + 1 if k % 2 else max(k - 1, 0),
        )
        for level in range(12):
            partial = sum(map(pochhammer, range(0, level + 1, 2)), IntPolynomial.zero())
            assert series_realize(spec, poch, level) == reduce(partial, poch, level)
        for n in range(1, 6):
            for j_max in range(3):
                elt = series_realize(spec, poch, n * (j_max + 1))
                assert expand_series(spec, n, j_max) == taylor_at_root(elt, n, j_max)

    def test_bad_witness_detected(self):
        lying = SeriesSpec(name="lying", term=lambda n: Q, witness=lambda n: n)
        with pytest.raises(AssertionError):
            series_realize(lying, PochhammerChain(), 3)

    def test_bad_witness_of_the_divisor_degree_detected(self):
        # term n = g_n + 1 has the degree of its witness's modulus
        poch = PochhammerChain()
        off = SeriesSpec(name="off", term=lambda n: poch.modulus(n) + ONE, witness=lambda n: n)
        with pytest.raises(AssertionError, match="witness 1 of term 1 fails"):
            series_realize(off, poch, 3)

    def test_kz_witnesses_need_no_long_division(self, monkeypatch):
        # each kz term is +-g_w: the check is one comparison
        calls = []
        divide = polyring._divide_in_place
        monkeypatch.setattr(
            polyring, "_divide_in_place", lambda *a: calls.append(1) or divide(*a)
        )
        poch = PochhammerChain()
        for n, w in completion._series_terms(KONTSEVICH_ZAGIER_SPEC, 30):
            assert divides(poch.modulus(w), KONTSEVICH_ZAGIER_SPEC.term(n))
        assert calls == []
        # q^n (q)_n is +-q^n g_n, and g_n(0) = +-1 makes q prime to g_n
        for n, w in completion._series_terms(Q_INVERSE_SPEC, 30):
            assert divides(poch.modulus(w), Q_INVERSE_SPEC.term(n))
        assert calls == []

    @pytest.mark.parametrize("name", sorted(NAMED_SERIES))
    def test_step_is_the_ratio_of_consecutive_terms(self, name):
        spec = NAMED_SERIES[name]
        assert spec.term(0) == ONE
        for k in range(1, 41):
            assert spec.term(k) == spec.term(k - 1) * spec.step(k)

    @pytest.mark.parametrize("name", [*sorted(NAMED_SERIES), "u"])
    def test_witnesses_bound_the_whole_tail(self, name):
        # series_realize and expand_series trust the tail contract: g_w(k)
        # divides every later term, not just term k
        spec = u_spec() if name == "u" else NAMED_SERIES[name]
        poch = PochhammerChain()
        terms = [spec.term(m) for m in range(16)]
        for k in range(16):
            g = poch.modulus(spec.witness(k))
            assert all(divides(g, t) for t in terms[k:])

    def test_terms_read_the_store_and_match_the_product(self, monkeypatch):
        monkeypatch.setattr(PochhammerChain, "_moduli", [ONE])
        for n in range(41):
            assert KONTSEVICH_ZAGIER_SPEC.term(n) == pochhammer(n)
            assert Q_INVERSE_SPEC.term(n) == IntPolynomial.monomial(1, n) * pochhammer(n)
        assert len(PochhammerChain._moduli) == 41

    def test_step_needs_term_zero_one(self):
        with pytest.raises(ValueError):
            SeriesSpec(name="shifted", term=lambda n: Q, witness=lambda n: n, step=lambda n: ONE)

    def test_realization_on_adic_chain(self):
        # (q-1)^n divides (q)_n, so the same witness works on the
        # (q-1)-adic chain
        chain = AdicChain(cyclotomic_poly(1))
        inv = series_realize(Q_INVERSE_SPEC, chain, 5)
        assert reduce(Q, chain, 5) * inv == reduce(ONE, chain, 5)


class TestSteppedTail:
    """With a step, the stop term (the first term the sum leaves out)
    proves the tail: every later term is a multiple of it."""

    # Without the stop-term check, a witness past the level at term 1
    # gave the rep 1 at level 10 and (1) at zeta_3, where the value is
    # (5 - zeta); at term 0 it gave the rep 0 at level 3 and (0) at zeta_2.
    @pytest.mark.parametrize("at, level", [(1, 10), (0, 3)])
    def test_series_realize_refuses_a_tail_it_cannot_prove(self, at, level):
        with pytest.raises(AssertionError, match=f"g_{level} does not divide the stop term {at}"):
            series_realize(kz_stopped_at(at), PochhammerChain(), level)

    @pytest.mark.parametrize("at, n", [(1, 3), (0, 2)])
    def test_expand_series_refuses_a_tail_it_cannot_prove(self, at, n):
        with pytest.raises(AssertionError, match=f"the stop term {at} fails at order {n}"):
            expand_series(kz_stopped_at(at), n, 0)

    @pytest.mark.parametrize("name", ["kz", "qinv", "u"])
    def test_the_named_series_stop_at_the_level(self, name):
        # the last consumed witness is the level, whose own check proves
        # the stop term, so no stop-term check runs on these series
        spec = u_spec() if name == "u" else NAMED_SERIES[name]
        for level in range(46):
            assert list(completion._series_terms(spec, level))[-1][1] == level

    def test_a_coarse_witness_is_proved_by_one_more_division(self, monkeypatch):
        # witness 2*(k//2) bounds the tail of kz but stops below an odd
        # level: the stop term (q)_(L+1) proves it, and the sums agree
        kz, poch = KONTSEVICH_ZAGIER_SPEC, PochhammerChain()
        coarse = SeriesSpec(
            name="coarse", term=kz.term, witness=lambda k: k - k % 2, step=kz.step
        )
        checks, divides = [], completion.divides
        monkeypatch.setattr(completion, "divides", lambda g, a: checks.append(g) or divides(g, a))
        for level in range(12):
            checks.clear()
            realized = series_realize(coarse, poch, level)
            # terms 0..L+1 at even L, the last with witness L; terms 0..L
            # and the stop term L + 1 at odd L
            assert len(checks) == level + 2
            assert realized == series_realize(kz, poch, level)
        for n in range(1, 7):
            for j_max in range(3):
                assert expand_series(coarse, n, j_max) == expand_series(kz, n, j_max)


class TestUnits:
    def test_gamma3(self):
        assert alternating_unit(3) == P(1, -1, 1)

    def test_even_rejected(self):
        with pytest.raises(EvenM):
            alternating_unit(4)
        with pytest.raises(ValueError):
            alternating_unit(1)

    def test_gamma3_invertible_mod_q5_minus_1(self):
        modulus = IntPolynomial.monomial(1, 5) - ONE
        w = unit_inverse_mod(alternating_unit(3), modulus)
        assert w is not None
        assert (alternating_unit(3) * w) % modulus == ONE

    def test_zero_divisor_has_no_inverse(self):
        modulus = IntPolynomial.monomial(1, 5) - ONE
        assert unit_inverse_mod(P(-1, 1), modulus) is None
        assert unit_inverse_mod(IntPolynomial.zero(), modulus) is None

    def test_none_means_not_a_unit(self):
        # res(q + 1, q - 1) = -2: q + 1 takes the value 2 at q = 1, and 2 is
        # no unit of Z = Z[q]/(q - 1), so None is the answer, not a give-up.
        assert resultant(P(1, 1), P(-1, 1)) == -2
        assert unit_inverse_mod(P(1, 1), P(-1, 1)) is None
        # Phi_6 vanishes at zeta_6, a root of g_6: no unit mod g_6 either
        assert unit_inverse_mod(cyclotomic_poly(6), PochhammerChain().modulus(6)) is None

    @pytest.mark.parametrize("modulus", [P(1, 2), IntPolynomial.zero()], ids=["lc 2", "zero"])
    def test_non_unit_modulus_rejected(self, modulus):
        with pytest.raises(NonUnitLeadingCoefficient, match="is not a unit of Z"):
            unit_inverse_mod(P(1, 1), modulus)


VALUE_CASES = [
    (
        lambda: SeriesSpec(name="s", term=len, witness=abs),
        lambda: SeriesSpec("s", len, witness=len),
        "SeriesSpec(name='s', term=<built-in function len>, witness=<built-in function abs>, "
        "step=None)",
        "term",
    ),
    (
        lambda: DigitExpansion(PochhammerChain(), (ONE, Q)),
        lambda: DigitExpansion(PochhammerChain(), (ONE,)),
        "DigitExpansion(chain=PochhammerChain(), "
        "digits=(IntPolynomial('1'), IntPolynomial('q')))",
        "digits",
    ),
    (
        lambda: TruncatedElement(PochhammerChain(), 2, Q + ONE),
        lambda: TruncatedElement(chain=PochhammerChain(), level=2, rep=Q),
        "<q + 1 mod g_2 on pochhammer>",  # its own repr, not the dataclass one
        "rep",
    ),
    (PochhammerChain, lambda: AdicChain(cyclotomic_poly(1)), "PochhammerChain()", "label"),
    (
        lambda: AdicChain(cyclotomic_poly(3)),
        lambda: AdicChain(cyclotomic_poly(6)),
        "AdicChain(f=IntPolynomial('q^2 + q + 1'))",
        "f",
    ),
    (
        lambda: ProductChain([2, 1, 2]),
        lambda: ProductChain([1, 2, 3]),
        "ProductChain(indices=(1, 2), enumeration=None)",
        "indices",
    ),
    (
        lambda: ProductChain(enumeration=four_six_one),
        lambda: ProductChain(enumeration=lambda i: four_six_one(i)),
        f"ProductChain(indices=None, enumeration={four_six_one!r})",
        "enumeration",
    ),
]


class TestValueClasses:
    # Plain classes that behave as the frozen dataclasses they replaced.
    @pytest.mark.parametrize(
        "make, other, text, field",
        VALUE_CASES,
        ids=["spec", "digits", "element", "pochhammer", "adic", "product", "custom"],
    )
    def test_equality_hash_repr_and_no_assignment(self, make, other, text, field):
        check_frozen_value(make, other, text, field)

    def test_a_tracer_can_rebind_a_spec_term(self):
        # as the benchmark's span recorder wraps the registered terms
        spec = SeriesSpec("s", len, abs)
        object.__setattr__(spec, "term", str)
        assert spec.term is str and spec == SeriesSpec("s", str, abs)

    def test_copy_and_pickle_rebuild_through_the_constructor(self):
        # Restored through its fields alone, the state (PochhammerChain(),
        # 1, q) came back as <q mod g_1 on pochhammer>, unequal to the
        # reduced element with no error.
        a = object.__new__(TruncatedElement)
        for name, value in zip(a._fields, (PochhammerChain(), 1, Q)):
            object.__setattr__(a, name, value)
        for twin in twins(a):
            assert twin == reduce(Q, PochhammerChain(), 1)
            assert twin.rep == ONE

    def test_cached_moduli_cannot_be_altered(self):
        # Phi_n and (q)_k are handed out from process-wide stores; an
        # assignment to one would change every later answer.
        phi_5 = cyclotomic_poly(5).coeffs
        kz_3 = series_realize(KONTSEVICH_ZAGIER_SPEC, PochhammerChain(), 3)
        for cached in (cyclotomic_poly(5), PochhammerChain().modulus(3)):
            with pytest.raises(AttributeError):
                cached.coeffs = (1,)
        assert cyclotomic_poly(5).coeffs == phi_5 == (1, 1, 1, 1, 1)
        assert series_realize(KONTSEVICH_ZAGIER_SPEC, PochhammerChain(), 3) == kz_3
