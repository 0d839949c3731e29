import itertools
import math
import random
import time

import pytest
import sympy

from cyclocomp import (
    AdjacencyGraph,
    CommonPrimeCertificate,
    IntPolynomial,
    PochhammerChain,
    RING_Q,
    RING_Z,
    RING_ZERO,
    RingDescriptor,
    UnitCertificate,
    arrow_witness,
    c_value,
    congruence_check,
    connected_components,
    cyclotomic_coprimality,
    cyclotomic_poly,
    is_adjacent,
    pochhammer,
    resultant,
    ring_z_inverted,
)
from cyclocomp import cyclotomic
from cyclocomp.cyclotomic import _pow_mod_p
from cyclocomp.errors import EmptySet, EqualIndices, NonUnitLeadingCoefficient, NotPrime

from support import (
    check_frozen_value,
    components_by_pairwise_closure,
    phi_by_trial_factorization,
    sylvester_determinant,
)


def P(*coeffs):
    return IntPolynomial(coeffs)


class TestCyclotomicPoly:
    def test_first_values(self):
        assert cyclotomic_poly(1) == P(-1, 1)
        assert cyclotomic_poly(2) == P(1, 1)
        assert cyclotomic_poly(3) == P(1, 1, 1)
        assert cyclotomic_poly(6) == P(1, -1, 1)

    def test_phi4_by_division_oracle(self):
        numerator = IntPolynomial.monomial(1, 4) - IntPolynomial.one()
        expected, rem = divmod(numerator, P(-1, 1) * P(1, 1))
        assert rem.is_zero
        assert cyclotomic_poly(4) == expected == P(1, 0, 1)

    def test_phi12_by_division_oracle(self):
        numerator = IntPolynomial.monomial(1, 12) - IntPolynomial.one()
        for d in (1, 2, 3, 4, 6):
            numerator, rem = divmod(numerator, cyclotomic_poly(d))
            assert rem.is_zero
        assert cyclotomic_poly(12) == numerator == P(1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        for n in range(1, 201):
            prod = IntPolynomial.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_poly(d)
            assert prod == IntPolynomial.monomial(1, n) - IntPolynomial.one()

    def test_degree_is_totient(self):
        for n in range(1, 201):
            assert cyclotomic_poly(n).degree == phi_by_trial_factorization(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)

    def test_matches_sympy_to_400(self):
        for n in range(1, 401):
            assert cyclotomic_poly(n) == _sympy_phi(n), n

    @pytest.mark.parametrize("n", [2310, 4620, 9699, 30030])
    def test_matches_sympy_at_many_primes(self, n):
        assert cyclotomic_poly(n) == _sympy_phi(n)

    def test_phi_30030_cpu_time(self, fresh_cyclotomic_cache):
        # 2^6 sparse series passes over phi(30030) = 5760 coefficients
        start = time.process_time()
        cyclotomic_poly(30030)
        elapsed = time.process_time() - start
        assert elapsed < 2.0, f"Phi_30030 took {elapsed:.2f} s CPU, budget 2 s"


def _sympy_phi(n):
    poly = sympy.cyclotomic_poly(n, sympy.Symbol("x"), polys=True)
    return IntPolynomial([int(c) for c in reversed(poly.all_coeffs())])


@pytest.fixture
def fresh_cyclotomic_cache(monkeypatch):
    """An empty process-wide Phi cache for one test."""
    monkeypatch.setattr(cyclotomic, "_cyclo_cache", {})


class TestCacheEntryCheck:
    def test_moebius_products(self):
        # Phi_n * D = N, with N and D the products of q^d - 1 over the
        # d | n with mu(n/d) = +1 and -1: dense products, no power series.
        for n in range(1, 201):
            sides = [IntPolynomial.one(), IntPolynomial.one()]
            primes = sympy.primefactors(n)
            for k in range(len(primes) + 1):
                for chosen in itertools.combinations(primes, k):
                    q_d = IntPolynomial.monomial(1, n // math.prod(chosen)) - IntPolynomial.one()
                    sides[k % 2] = sides[k % 2] * q_d
            assert cyclotomic_poly(n) * sides[1] == sides[0]

    def test_a_series_that_is_not_monic_is_rejected(self, monkeypatch, fresh_cyclotomic_cache):
        # With no primes the series is 1 - q^6 cut at degree 6: not monic.
        monkeypatch.setattr(cyclotomic, "prime_factors", lambda n: [])
        with pytest.raises(AssertionError):
            cyclotomic_poly(6)
        assert 6 not in cyclotomic._cyclo_cache


class TestPochhammer:
    def test_small_values(self):
        assert pochhammer(0) == IntPolynomial.one()
        assert pochhammer(1) == P(1, -1)
        assert pochhammer(2) == P(1, -1, -1, 1)

    def test_recurrence_matches_product(self):
        for n in range(1, 25):
            step = IntPolynomial.one() - IntPolynomial.monomial(1, n)
            assert pochhammer(n) == pochhammer(n - 1) * step

    def test_degree(self):
        for n in range(12):
            assert pochhammer(n).degree == n * (n + 1) // 2 or n == 0

    def test_sign_of_the_monic_store(self):
        chain = PochhammerChain()
        for n in range(12):
            g = chain.modulus(n)
            assert g.leading_coefficient == 1
            assert pochhammer(n) == (-g if n % 2 else g)

    def test_instances_share_one_store(self, monkeypatch):
        monkeypatch.setattr(PochhammerChain, "_moduli", [IntPolynomial.one()])
        a, b = PochhammerChain(), PochhammerChain()
        assert a._moduli is b._moduli is PochhammerChain._moduli
        a.modulus(9)
        assert len(b._moduli) == 10
        for k in range(10):
            assert b.modulus(k) is a.modulus(k)

    def test_pochhammer_stores_nothing(self, monkeypatch):
        monkeypatch.setattr(PochhammerChain, "_moduli", [IntPolynomial.one()])
        PochhammerChain().modulus(5)
        for n in (3, 6, 7, 40):  # inside, at and past the store's end
            pochhammer(n)
            assert len(PochhammerChain._moduli) == 6

    def test_store_and_product_match_shift_and_subtract(self, monkeypatch):
        monkeypatch.setattr(PochhammerChain, "_moduli", [IntPolynomial.one()])
        expected = [[1]]
        for k in range(1, 41):
            # (q)_k = (q)_{k-1} - q^k * (q)_{k-1}
            prev = expected[-1]
            shifted = [0] * k + prev
            expected.append([a - b for a, b in zip(prev + [0] * k, shifted)])
        order = list(range(41))
        random.Random(40).shuffle(order)
        chain = PochhammerChain()
        for n in order:
            want = IntPolynomial(expected[n])
            assert pochhammer(n) == want
            assert chain.modulus(n) == (-want if n % 2 else want)


class TestCValue:
    def test_spec_cases(self):
        assert c_value(5, 5) == 0
        assert c_value(2, 4) == 2
        assert c_value(6, 10) == 1

    def test_symmetry(self):
        for m in range(1, 101):
            for n in range(1, 101):
                assert c_value(m, n) == c_value(n, m)

    def test_downward_ratio(self):
        assert c_value(4, 2) == 2
        assert c_value(27, 1) == 3
        assert c_value(1, 6) == 1


class TestAdjacency:
    def test_spec_cases(self):
        assert not is_adjacent(RING_Z, 1, 6)
        assert not is_adjacent(RING_Q, 2, 4)
        assert is_adjacent(RING_Z, 2, 4)

    def test_z_adjacency_is_prime_power_ratio(self):
        def prime_power_ratio(m, n):
            if m == n:
                return True
            big, small = max(m, n), min(m, n)
            if big % small:
                return False
            r = big // small
            p = 2
            while p * p <= r:
                if r % p == 0:
                    while r % p == 0:
                        r //= p
                    return r == 1
                p += 1
            return True  # r prime

        for m in range(1, 101):
            for n in range(1, 101):
                assert is_adjacent(RING_Z, m, n) == prime_power_ratio(m, n)

    def test_q_adjacency_is_equality(self):
        for m in range(1, 101):
            for n in range(1, 101):
                assert is_adjacent(RING_Q, m, n) == (m == n)

    def test_zero_ring_all_adjacent(self):
        assert is_adjacent(RING_ZERO, 1, 6)
        assert is_adjacent(RING_ZERO, 7, 90)

    def test_inverted_prime(self):
        half = ring_z_inverted(2)
        assert not is_adjacent(half, 1, 2)
        assert is_adjacent(half, 1, 3)

    def test_separated_primes_as_the_lambdas_gave_them(self):
        # the built-in descriptors held these lambdas before they were values
        before = [
            (RING_Z, lambda p: True),
            (RING_Q, lambda p: False),
            (RING_ZERO, lambda p: True),
        ] + [(ring_z_inverted(m), lambda p, m=m: m % p != 0) for m in range(1, 31)]
        for desc, separated in before:
            for c in range(51):
                if desc.is_zero_ring or c == 0:
                    expected = True
                else:
                    expected = c != 1 and separated(c)
                assert desc.is_separated_at(c) == expected, (desc.name, c)

    def test_built_in_descriptors_are_values(self):
        assert ring_z_inverted(2) == ring_z_inverted(2) != ring_z_inverted(4)
        assert len({RING_Z, RING_Q, RING_ZERO, ring_z_inverted(1), ring_z_inverted(1)}) == 4


class TestComponents:
    def test_spec_cases(self):
        assert connected_components(RING_Z, {1, 2, 6}) == [[1, 2, 6]]
        assert connected_components(RING_Q, {1, 2, 6}) == [[1], [2], [6]]
        assert connected_components(RING_Z, {1, 6}) == [[1], [6]]

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            connected_components(RING_Z, set())

    def test_partition_properties(self):
        rng = random.Random(11)
        for _ in range(30):
            S = {rng.randint(1, 40) for _ in range(rng.randint(1, 12))}
            comps = connected_components(RING_Z, S)
            flat = [m for comp in comps for m in comp]
            assert sorted(flat) == sorted(S)
            assert len(set(flat)) == len(flat)

    def test_matches_pairwise_closure(self):
        rng = random.Random(12)
        rings = [RING_Z, RING_Q, RING_ZERO] + [ring_z_inverted(m) for m in (2, 6, 10)]
        for desc in rings:
            for _ in range(40):
                top = rng.choice([30, 120, 399])
                S = rng.sample(range(1, top + 1), rng.randint(1, min(top, 40)))
                assert connected_components(desc, S) == components_by_pairwise_closure(desc, S)

    def test_two_thousand_vertices(self):
        start = time.process_time()
        comps = connected_components(RING_Z, range(1, 2001))
        elapsed = time.process_time() - start
        assert elapsed < 0.25, f"1..2000 over Z took {elapsed:.2f} s CPU, budget 0.25 s"
        assert comps == components_by_pairwise_closure(RING_Z, range(1, 2001))

    def test_adjacency_graph_wrapper(self):
        graph = AdjacencyGraph(frozenset({1, 2, 6}), RING_Z)
        assert is_adjacent(RING_Z, 1, 2) and is_adjacent(RING_Z, 2, 6)
        assert not is_adjacent(RING_Z, 1, 6)
        assert graph.components() == [[1, 2, 6]]


DESCRIPTOR = RingDescriptor("Z", False, bool)

VALUE_CASES = [
    (
        lambda: RingDescriptor(name="Z", is_zero_ring=False, separated_primes=bool),
        lambda: RingDescriptor("Q", False, bool),
        "RingDescriptor(name='Z', is_zero_ring=False, separated_primes=<class 'bool'>)",
        "name",
    ),
    (
        lambda: ring_z_inverted(6),
        lambda: ring_z_inverted(3),
        "RingDescriptor(name='Z[1/6]', is_zero_ring=False, "
        "separated_primes=_PrimesNotDividing(m=6))",
        "separated_primes",
    ),
    (
        lambda: AdjacencyGraph(frozenset({2, 6}), DESCRIPTOR),
        lambda: AdjacencyGraph(frozenset({2}), DESCRIPTOR),
        "AdjacencyGraph(vertices=frozenset({2, 6}), descriptor=RingDescriptor(name='Z', "
        "is_zero_ring=False, separated_primes=<class 'bool'>))",
        "vertices",
    ),
    (
        lambda: UnitCertificate(u=P(0, 1), v=P(-1), resultant=-1),
        lambda: UnitCertificate(P(0, 1), P(-1), 1),
        "UnitCertificate(u=IntPolynomial('q'), v=IntPolynomial('-1'), resultant=-1)",
        "u",
    ),
    (
        lambda: CommonPrimeCertificate(p=3, resultant=9, exponent=2),
        lambda: CommonPrimeCertificate(3, 27, 3),
        "CommonPrimeCertificate(p=3, resultant=9, exponent=2)",
        "exponent",
    ),
]


class TestValueClasses:
    # Plain classes that behave as the frozen dataclasses they replaced.
    @pytest.mark.parametrize(
        "make, other, text, field",
        VALUE_CASES,
        ids=["ring", "z-inverted", "graph", "unit", "prime"],
    )
    def test_equality_hash_repr_and_no_assignment(self, make, other, text, field):
        check_frozen_value(make, other, text, field)

    def test_certificates_take_their_fields_by_keyword(self):
        cert = UnitCertificate(resultant=1, v=P(1), u=P(0, 1))
        assert (cert.u, cert.v, cert.resultant) == (P(0, 1), P(1), 1)
        assert cert == UnitCertificate(P(0, 1), P(1), 1)
        cert = CommonPrimeCertificate(exponent=1, p=2, resultant=2)
        assert (cert.p, cert.resultant, cert.exponent) == (2, 2, 1)


class TestCongruence:
    def test_spec_cases(self):
        assert congruence_check(1, 2, 1) == (1, True)
        assert congruence_check(1, 2, 2) == (2, True)
        # degree ratio phi(6)/phi(3) = 1; the reduction confirms it holds
        assert congruence_check(3, 2, 1) == (1, True)

    def test_closed_form_d(self):
        d, ok = congruence_check(5, 3, 2)  # gcd(5,3)=1: d = 2*3 = 6
        assert (d, ok) == (6, True)
        d, ok = congruence_check(6, 2, 2)  # 2 | 6: d = 4
        assert (d, ok) == (4, True)

    def test_not_prime_rejected(self):
        with pytest.raises(NotPrime):
            congruence_check(3, 6, 1)

    def test_small_sweep(self):
        for p in (2, 3, 5):
            for e in (1, 2):
                for n in range(1, 20):
                    if p**e * n <= 100:
                        d, ok = congruence_check(n, p, e)
                        assert ok, (n, p, e, d)

    def test_power_mod_p_matches_sympy(self):
        x = sympy.Symbol("x")
        for p in (2, 3, 5):
            for e in (1, 2):
                for n in range(1, 20):
                    if p**e * n <= 100:
                        small = cyclotomic_poly(n)
                        d = cyclotomic_poly(p**e * n).degree // small.degree
                        oracle = sympy.Poly(list(reversed(small.coeffs)), x, modulus=p) ** d
                        # sympy prints Z/p in the symmetric range; map into [0, p)
                        expected = IntPolynomial(
                            [int(c) % p for c in reversed(oracle.all_coeffs())]
                        )
                        assert _pow_mod_p(small, d, p) == expected, (n, p, e)


class TestCoprimality:
    def test_unit_pair(self):
        cert = cyclotomic_coprimality(2, 3)
        assert isinstance(cert, UnitCertificate)
        assert cert.resultant == 1
        assert cert.u * cyclotomic_poly(2) + cert.v * cyclotomic_poly(3) == IntPolynomial.one()

    def test_common_prime_pair(self):
        cert = cyclotomic_coprimality(1, 2)
        assert isinstance(cert, CommonPrimeCertificate)
        assert (cert.p, cert.resultant, cert.exponent) == (2, 2, 1)

    def test_non_prime_power_ratio(self):
        cert = cyclotomic_coprimality(4, 6)
        assert isinstance(cert, UnitCertificate)
        assert cert.u * cyclotomic_poly(4) + cert.v * cyclotomic_poly(6) == IntPolynomial.one()

    def test_equal_rejected(self):
        with pytest.raises(EqualIndices):
            cyclotomic_coprimality(9, 9)

    def test_dichotomy_small(self):
        for m in range(1, 26):
            for n in range(m + 1, 26):
                cert = cyclotomic_coprimality(m, n)
                if c_value(m, n) == 1:
                    assert isinstance(cert, UnitCertificate)
                else:
                    assert isinstance(cert, CommonPrimeCertificate)
                    assert cert.resultant == cert.p**cert.exponent > 1

    def test_unit_resultant_is_one_in_both_orders(self):
        # deg Phi_k is even for k >= 3, so res(Phi_m, Phi_n) is a product
        # over roots closed under conjugation and positive; with index 1
        # or 2 it is Phi_k(+-1) up to an even-degree sign.  So a unit is +1.
        for m in range(1, 41):
            for n in range(1, 41):
                if m != n and c_value(m, n) == 1:
                    cert = cyclotomic_coprimality(m, n)
                    assert cert.resultant == 1, (m, n)
                    bezout = cert.u * cyclotomic_poly(m) + cert.v * cyclotomic_poly(n)
                    assert bezout == IntPolynomial.one(), (m, n)

    def test_common_prime_pair_builds_no_cofactors(self, monkeypatch):
        calls = []
        bezout = cyclotomic.subresultant_bezout
        monkeypatch.setattr(
            cyclotomic, "subresultant_bezout", lambda a, b: calls.append((a, b)) or bezout(a, b)
        )
        assert cyclotomic_coprimality(3, 9) == CommonPrimeCertificate(p=3, resultant=9, exponent=2)
        assert calls == []
        assert isinstance(cyclotomic_coprimality(3, 4), UnitCertificate)
        assert calls == [(cyclotomic_poly(3), cyclotomic_poly(4))]

    def test_certificates_as_built_from_the_bezout_data(self):
        # Each certificate equals the one built, as before, from the
        # resultant and cofactors of subresultant_bezout for every pair.
        for n in range(2, 31):
            for m in range(1, n):
                res, u, v = cyclotomic.subresultant_bezout(cyclotomic_poly(m), cyclotomic_poly(n))
                c = c_value(m, n)
                if c == 1:
                    expected = UnitCertificate(u=u * res, v=v * res, resultant=res)
                else:
                    exponent = round(math.log(res, c))
                    assert c**exponent == res
                    expected = CommonPrimeCertificate(p=c, resultant=res, exponent=exponent)
                assert cyclotomic_coprimality(m, n) == expected, (m, n)

    def test_apostol_resultants(self):
        # Apostol, "Resultants of cyclotomic polynomials", Proc. AMS 1970:
        # for m < n, res(Phi_m, Phi_n) = p^phi(m) when n/m is a power of
        # the prime p, and 1 otherwise.
        def prime_of_power(x):
            p = next(d for d in range(2, x + 1) if x % d == 0)
            while x % p == 0:
                x //= p
            return p if x == 1 else None

        for n in range(2, 61):
            for m in range(1, n):
                p = prime_of_power(n // m) if n % m == 0 else None
                expected = p ** phi_by_trial_factorization(m) if p else 1
                assert resultant(cyclotomic_poly(m), cyclotomic_poly(n)) == expected, (m, n)

    def test_common_prime_pairs_in_both_orders(self):
        # The sweeps above take m < n; in either order the resultant is
        # taken as res(Phi_min, Phi_max) = p^phi(min(m, n)).
        for m in range(1, 41):
            for n in range(1, 41):
                p = c_value(m, n)
                if m != n and p != 1:
                    phi = phi_by_trial_factorization(min(m, n))
                    expected = CommonPrimeCertificate(p, p**phi, phi)
                    assert cyclotomic_coprimality(m, n) == expected, (m, n)

    def test_common_prime_resultant_is_the_sylvester_determinant_up_to_sign(self):
        # Swapping the arguments multiplies the Sylvester determinant by
        # (-1)^(phi(m) phi(n)), which is -1 only for the pair {1, 2}.
        assert sylvester_determinant(cyclotomic_poly(2), cyclotomic_poly(1)) == -2
        assert cyclotomic_coprimality(2, 1) == CommonPrimeCertificate(p=2, resultant=2, exponent=1)
        for m in range(1, 13):
            for n in range(1, 13):
                if m != n and c_value(m, n) != 1:
                    det = sylvester_determinant(cyclotomic_poly(m), cyclotomic_poly(n))
                    assert abs(det) == cyclotomic_coprimality(m, n).resultant, (m, n)

    @pytest.mark.parametrize("m, n, wrong", [(2, 1, -2), (3, 9, 27), (9, 3, 3)])
    def test_a_resultant_off_apostols_power_raises(self, monkeypatch, m, n, wrong):
        monkeypatch.setattr(cyclotomic, "resultant", lambda a, b: wrong)
        with pytest.raises(AssertionError, match=rf"resultant {wrong} of \({m},{n}\) is not "):
            cyclotomic_coprimality(m, n)


class TestArrowWitness:
    def test_spec_cases(self):
        phi2, phi3, phi4 = cyclotomic_poly(2), cyclotomic_poly(3), cyclotomic_poly(4)
        assert arrow_witness(phi4, phi2, 2, 4) == 1
        assert arrow_witness(phi2, phi4, 2, 4) == 2
        assert arrow_witness(phi2, phi3, 0, 4) is None
        assert arrow_witness(phi2, phi3, 1, 4) == 0

    @pytest.mark.parametrize(
        "g", [IntPolynomial([1, 2]), IntPolynomial.zero()], ids=["lc 2", "zero"]
    )
    def test_non_unit_modulus_rejected(self, g):
        with pytest.raises(NonUnitLeadingCoefficient, match="is not a unit of Z"):
            arrow_witness(cyclotomic_poly(2), g, 2, 3)

    def test_divisor_witnessed_at_one(self):
        # g | f makes f itself vanish mod (g, c) for every c
        f = cyclotomic_poly(2) * cyclotomic_poly(5)
        assert arrow_witness(f, cyclotomic_poly(5), 0, 3) == 1

    def test_witness_is_minimal(self):
        phi2, phi8 = cyclotomic_poly(2), cyclotomic_poly(8)
        m = arrow_witness(phi2, phi8, 2, 10)
        assert m is not None
        power = IntPolynomial.one()
        for k in range(m):
            rem = power % phi8
            assert not all(c % 2 == 0 for c in rem.coeffs)
            power = power * phi2
        rem = (phi2**m) % phi8
        assert all(c % 2 == 0 for c in rem.coeffs)
