"""The two answers of `cyclotomic.cyclotomic_coprimality`.

They are frozen dataclasses, kept apart from `cyclotomic` so that the
layer the CLI's light subcommands load does not import `dataclasses`;
`cyclotomic_coprimality` imports this module on its first call.  They stay
dataclasses only because the benchmark's tests perturb them with
`dataclasses.replace`; once those tests no longer need it, the two classes
become `polyring.Frozen` values and fold back into `cyclotomic`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import IntPolynomial


@dataclass(frozen=True)
class UnitCertificate:
    """u*Phi_m + v*Phi_n = 1 with integer cofactors."""

    u: IntPolynomial
    v: IntPolynomial
    resultant: int


@dataclass(frozen=True)
class CommonPrimeCertificate:
    """The two indices share the prime p; the resultant is p^exponent."""

    p: int
    resultant: int
    exponent: int
