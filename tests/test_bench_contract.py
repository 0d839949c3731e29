"""What the benchmark's own tests rely on in the library.

`bench/tests/test_perfbench.py` checks that its checkers reject a
perturbed output, and perturbs four classes with `dataclasses.replace` on
one field each.  They are `polyring.Frozen` values, not dataclasses, and
only they pose as dataclasses, through `polyring._Replaceable`, so a
refactor of `Frozen` could break the benchmark's tests without failing
any here but these.
"""

import dataclasses
import pprint
from fractions import Fraction

import pytest

from cyclocomp import (
    RING_Q,
    RING_Z,
    AdjacencyGraph,
    CommonPrimeCertificate,
    CrtComponents,
    CyclotomicInteger,
    DigitExpansion,
    ExponentVector,
    IntPolynomial,
    KONTSEVICH_ZAGIER_SPEC,
    PochhammerChain,
    RatPolynomial,
    RootTaylorSeries,
    TruncatedElement,
    UnitCertificate,
)

Q = IntPolynomial([0, 1])
ONE = IntPolynomial.one()
ZETA = CyclotomicInteger(4, [0, 1])
CHAIN = PochhammerChain()

# (value, the field the benchmark changes, its new value, the value built directly)
REPLACED = [
    (TruncatedElement(CHAIN, 2, Q), "rep", ONE, TruncatedElement(CHAIN, 2, ONE)),
    (
        RootTaylorSeries(4, 1, (ZETA, ZETA)),
        "coeffs",
        (ZETA, -ZETA),
        RootTaylorSeries(4, 1, (ZETA, -ZETA)),
    ),
    (UnitCertificate(Q, ONE, 1), "u", -Q, UnitCertificate(-Q, ONE, 1)),
    (CommonPrimeCertificate(2, 4, 2), "exponent", 3, CommonPrimeCertificate(2, 4, 3)),
]


@pytest.mark.parametrize(
    "value, field, new, direct", REPLACED, ids=["element", "taylor", "unit", "prime"]
)
def test_dataclasses_replace_matches_the_constructor(value, field, new, direct):
    out = dataclasses.replace(value, **{field: new})
    assert type(out) is type(direct) and out == direct and repr(out) == repr(direct)
    assert out != value and getattr(value, field) is not new  # the original is untouched


LONG = IntPolynomial(range(1, 30))

# One value of each of the 13 value classes, its repr wider than a pprint line.
WIDE = [
    LONG,
    RatPolynomial([Fraction(1, k) for k in range(1, 20)]),
    CyclotomicInteger(31, range(30)),
    RING_Z,
    AdjacencyGraph(frozenset(range(1, 40)), RING_Q),
    UnitCertificate(LONG, -LONG, 1),
    CommonPrimeCertificate(2, 2**300, 300),
    TruncatedElement(CHAIN, 30, LONG),
    DigitExpansion(CHAIN, (ONE, Q, LONG)),
    KONTSEVICH_ZAGIER_SPEC,
    RootTaylorSeries(4, 4, (ZETA,) * 5),
    ExponentVector({n: 1 for n in range(1, 30)}),
    CrtComponents({1: LONG.to_rational()}),
]
WIDE_IDS = [type(value).__name__ for value in WIDE]


@pytest.mark.parametrize("value", WIDE, ids=WIDE_IDS)
def test_pprint_writes_the_repr_of_a_wide_value(value):
    # pprint reads __dataclass_params__ of whatever is_dataclass accepts
    assert len(repr(value)) > 80
    assert pprint.pformat(value) == repr(value)


def test_only_the_replaced_classes_pose_as_dataclasses():
    assert len(set(WIDE_IDS)) == 13
    assert [name for name, value in zip(WIDE_IDS, WIDE) if dataclasses.is_dataclass(value)] == [
        "UnitCertificate", "CommonPrimeCertificate", "TruncatedElement", "RootTaylorSeries",
    ]


@pytest.mark.parametrize("value", [ExponentVector({1: 2}), LONG], ids=["exponents", "poly"])
def test_dataclasses_replace_refuses_the_other_values(value):
    with pytest.raises(TypeError, match="dataclass instances"):
        dataclasses.replace(value)
