"""Integer arguments are checked by one rule, `polyring.check_index`: a
bool or a non-int is a TypeError and an int below the bound a ValueError,
at every entry point that takes an index, level, order or exponent.
Chain JSON is read strictly and round-trips, and every JSON loader raises
ValueError for a non-object or a missing field."""

import json

import pytest
import sympy

from cyclocomp import (
    AdicChain,
    CrtComponents,
    CyclotomicInteger,
    ExponentVector,
    IntPolynomial,
    KONTSEVICH_ZAGIER_SPEC,
    PochhammerChain,
    ProductChain,
    Q_INVERSE_SPEC,
    RING_Z,
    RatPolynomial,
    TruncatedElement,
    alternating_unit,
    arrow_witness,
    c_value,
    congruence_check,
    connected_components,
    cyclotomic_poly,
    integer_witness_search,
    pochhammer,
    reduce,
    ring_z_inverted,
    root_multiplicity,
)
from cyclocomp.completion import chain_from_json_dict
from cyclocomp.cyclotomic import pochhammer_factor
from cyclocomp.polyring import check_index, is_prime, prime_factors

F = IntPolynomial([3, -1, 4, 1, 5])
PHI2 = IntPolynomial([1, 1])
ZERO_Q = RatPolynomial.zero()

# (label, call, error): each call must raise error from check_index.
REJECTIONS = [
    ("reduce level True", lambda: reduce(F, PochhammerChain(), True), TypeError),
    ("reduce level 2.0", lambda: reduce(F, PochhammerChain(), 2.0), TypeError),
    ("reduce level -1", lambda: reduce(F, PochhammerChain(), -1), ValueError),
    ("modulus level True", lambda: AdicChain(PHI2).modulus(True), TypeError),
    ("product chain [True, 3]", lambda: ProductChain([True, 3]), TypeError),
    ("product chain [3.0]", lambda: ProductChain([3.0]), TypeError),
    ("product chain [0, 2]", lambda: ProductChain([0, 2]), ValueError),
    ("exponent vector {2.7: 1}", lambda: ExponentVector({2.7: 1}), TypeError),
    ("exponent vector {1: True}", lambda: ExponentVector({1: True}), TypeError),
    ("exponent vector {'2': 1}", lambda: ExponentVector({"2": 1}), TypeError),
    ("exponent vector {0: 1}", lambda: ExponentVector({0: 1}), ValueError),
    ("crt components {2.0: 0}", lambda: CrtComponents({2.0: ZERO_Q}), TypeError),
    ("crt components {0: 0}", lambda: CrtComponents({0: ZERO_Q}), ValueError),
    ("components [0]", lambda: connected_components(RING_Z, [0]), ValueError),
    ("components [True, 2]", lambda: connected_components(RING_Z, [True, 2]), TypeError),
    ("components [2.0]", lambda: connected_components(RING_Z, [2.0]), TypeError),
    ("cyclotomic_poly(True)", lambda: cyclotomic_poly(True), TypeError),
    ("cyclotomic_poly(2.0)", lambda: cyclotomic_poly(2.0), TypeError),
    ("cyclotomic_poly(0)", lambda: cyclotomic_poly(0), ValueError),
    ("pochhammer(2.0)", lambda: pochhammer(2.0), TypeError),
    ("pochhammer(True)", lambda: pochhammer(True), TypeError),
    ("pochhammer(-1)", lambda: pochhammer(-1), ValueError),
    ("c_value(True, 2)", lambda: c_value(True, 2), TypeError),
    ("c_value(2, 4.0)", lambda: c_value(2, 4.0), TypeError),
    ("c_value(0, 2)", lambda: c_value(0, 2), ValueError),
    ("ring_z_inverted(True)", lambda: ring_z_inverted(True), TypeError),
    ("ring_z_inverted(2.0)", lambda: ring_z_inverted(2.0), TypeError),
    ("ring_z_inverted(0)", lambda: ring_z_inverted(0), ValueError),
    ("congruence_check n True", lambda: congruence_check(True, 2, 1), TypeError),
    ("congruence_check e 1.0", lambda: congruence_check(1, 2, 1.0), TypeError),
    ("congruence_check p 2.0", lambda: congruence_check(1, 2.0, 1), TypeError),
    ("congruence_check n 0", lambda: congruence_check(0, 2, 1), ValueError),
    ("congruence_check e 0", lambda: congruence_check(1, 2, 0), ValueError),
    ("alternating_unit(3.0)", lambda: alternating_unit(3.0), TypeError),
    ("alternating_unit(True)", lambda: alternating_unit(True), TypeError),
    ("alternating_unit(1)", lambda: alternating_unit(1), ValueError),
    ("alternating_unit(2)", lambda: alternating_unit(2), ValueError),
    ("monomial power True", lambda: IntPolynomial.monomial(1, True), TypeError),
    ("monomial power 2.0", lambda: RatPolynomial.monomial(1, 2.0), TypeError),
    ("monomial power -1", lambda: IntPolynomial.monomial(1, -1), ValueError),
    ("power True", lambda: PHI2 ** True, TypeError),
    ("power -1", lambda: PHI2 ** -1, ValueError),
    ("arrow_witness c 2.0", lambda: arrow_witness(PHI2, PHI2, 2.0, 3), TypeError),
    ("arrow_witness max_power 0", lambda: arrow_witness(PHI2, PHI2, 2, 0), ValueError),
    ("root_multiplicity order 0", lambda: root_multiplicity(PochhammerChain(), 5, 0), ValueError),
    ("root_multiplicity level -3", lambda: root_multiplicity(PochhammerChain(), -3, 2), ValueError),
    ("root_multiplicity level True", lambda: root_multiplicity(PochhammerChain(), True, 1), TypeError),
    ("root_multiplicity level 4.0", lambda: root_multiplicity(PochhammerChain(), 4.0, 2), TypeError),
    ("root_multiplicity adic level 2.0", lambda: root_multiplicity(AdicChain(PHI2), 2.0, 2), TypeError),
    ("pochhammer_factor(0)", lambda: pochhammer_factor(0), ValueError),
    ("pochhammer_factor(True)", lambda: pochhammer_factor(True), TypeError),
    ("kz step(-1)", lambda: KONTSEVICH_ZAGIER_SPEC.step(-1), ValueError),
    ("qinv step(True)", lambda: Q_INVERSE_SPEC.step(True), TypeError),
    ("prime_factors(0)", lambda: prime_factors(0), ValueError),
    ("prime_factors(6.0)", lambda: prime_factors(6.0), TypeError),
    ("integer_witness_search level 0", lambda: integer_witness_search(0, 1, 2), ValueError),
    ("integer_witness_search level 1.0", lambda: integer_witness_search(1.0, 1, 2), TypeError),
    ("integer_witness_search max_degree -1", lambda: integer_witness_search(1, -1, 2), ValueError),
    ("integer_witness_search max_degree True", lambda: integer_witness_search(1, True, 2), TypeError),
    ("integer_witness_search coeff_bound -2", lambda: integer_witness_search(1, 1, -2), ValueError),
    ("integer_witness_search coeff_bound 2.0", lambda: integer_witness_search(1, 1, 2.0), TypeError),
]


@pytest.mark.parametrize(
    "call, error", [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS]
)
def test_rejected_through_check_index(call, error):
    with pytest.raises(error, match="must be (an int|>= )"):
        call()


@pytest.mark.parametrize("value", [0, 1, 7, 10**30])
def test_check_index_returns_the_int(value):
    assert check_index(value, "x", 0) is value


def test_prime_factors_match_sympy():
    for n in list(range(1, 2000)) + [3**20 * 7, 9240, 2 * 997**2, 999_983]:
        assert prime_factors(n) == sympy.primefactors(n)


def test_is_prime_matches_sympy():
    assert [p for p in range(-5, 2000) if is_prime(p)] == list(sympy.primerange(2, 2000))


def _elements():
    return [
        reduce(F, PochhammerChain(), 3),
        reduce(F * F, AdicChain(PHI2), 4),
        reduce(F * F, ProductChain([2, 3, 6]), 5),
    ]


@pytest.mark.parametrize("elt", _elements(), ids=["pochhammer", "adic", "product"])
def test_element_json_round_trip(elt):
    text = json.dumps(elt.to_json_dict())
    assert TruncatedElement.from_json_dict(json.loads(text)) == elt


@pytest.mark.parametrize(
    "data",
    [
        [],
        "pochhammer",
        None,
        {},
        {"kind": "cyclic"},
        {"kind": ["pochhammer"]},
        {"kind": "adic"},
        {"kind": "adic", "f": [1, 1]},
        {"kind": "product"},
        {"kind": "product", "indices": 3},
        {"kind": "product", "indices": {"2": 1}},
        {"kind": "product", "indices": [True, 2]},
        {"kind": "product", "indices": [3.0]},
        {"kind": "product", "indices": [0]},
        {"kind": "product", "indices": []},
    ],
)
def test_malformed_chain_json_is_value_error(data):
    with pytest.raises(ValueError):
        chain_from_json_dict(data)
    with pytest.raises(ValueError):
        TruncatedElement.from_json_dict({"chain": data, "level": 1, "rep": ["1"]})


@pytest.mark.parametrize(
    "data",
    [{}, [], 3, {"coeffs": []}, {"chain": {"kind": "pochhammer"}, "rep": ["1"]}],
    ids=["empty", "array", "number", "coeffs only", "no level"],
)
@pytest.mark.parametrize(
    "loader",
    [TruncatedElement.from_json_dict, CyclotomicInteger.from_json_dict],
    ids=["element", "cyclotomic_integer"],
)
def test_non_object_or_missing_field_is_value_error(loader, data):
    with pytest.raises(ValueError):
        loader(data)
