"""What the benchmark's own tests rely on in the library.

`bench/tests/test_perfbench.py` checks that its checkers reject a
perturbed output, and perturbs these four classes with
`dataclasses.replace` on one field each.  They are `polyring.Frozen`
values, not dataclasses, so a refactor of `Frozen` could break the
benchmark's tests without failing any here but this one.
"""

import dataclasses

import pytest

from cyclocomp import (
    CommonPrimeCertificate,
    CyclotomicInteger,
    IntPolynomial,
    PochhammerChain,
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
