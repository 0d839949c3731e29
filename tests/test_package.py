"""The package namespace: exports resolved lazily from their layers."""

import importlib
import pickle
import pkgutil

import pytest

import cyclocomp

LAYERS = ("completion", "cyclotomic", "errors", "polyring", "qcrt", "rootexp")

# What `from cyclocomp import *` gave when __init__ imported every layer.
STAR_NAMES = {
    *LAYERS,
    "AdicChain", "AdjacencyGraph", "CommonPrimeCertificate", "CrtComponents",
    "CyclotomicInteger", "DigitExpansion", "ExponentVector", "FiltrationChain",
    "IntPolynomial", "KONTSEVICH_ZAGIER_SPEC", "NAMED_SERIES", "NEG_INFINITY",
    "PochhammerChain", "ProductChain", "Q_INVERSE_SPEC", "RING_Q", "RING_Z",
    "RING_ZERO", "RatPolynomial", "RingDescriptor", "RootTaylorSeries", "SeriesSpec",
    "TruncatedElement", "UnitCertificate", "alternating_unit", "arrow_witness",
    "c_value", "congruence_check", "connected_components", "crt_idempotents",
    "crt_reconstruct", "crt_split", "cyclotomic_coprimality", "cyclotomic_poly",
    "divides", "evaluate_at_root", "expand_series", "from_digits",
    "integer_witness_search", "is_adjacent", "ohtsuki_series", "pochhammer",
    "poly_mod_prime", "rational_xgcd", "reduce", "resultant", "rho",
    "rho_q_kernel_witness", "ring_z_inverted", "root_multiplicity", "series_realize",
    "subresultant_bezout", "tau_values", "taylor_at_root", "to_digits", "trunc_arith",
    "unit_inverse_mod",
}


def test_star_import_gives_the_same_names():
    namespace = {}
    exec("from cyclocomp import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    assert set(cyclocomp.__all__) == STAR_NAMES and len(cyclocomp.__all__) == len(STAR_NAMES)


# The public members each exported class defines itself (`vars`, names
# without a leading underscore): adding or removing one is an API change.
CLASS_MEMBERS = {
    "AdicChain": ["factor", "label", "multiplicity", "to_json_dict"],
    "AdjacencyGraph": ["components"],
    "CommonPrimeCertificate": ["exponent", "p", "resultant"],
    "CrtComponents": ["component", "support"],
    "CyclotomicInteger": [
        "coeffs", "from_json_dict", "is_zero", "one", "order", "to_json_dict", "zero", "zeta",
    ],
    "DigitExpansion": [],
    "ExponentVector": ["exponent", "factor", "modulus", "support"],
    "FiltrationChain": ["factor", "label", "modulus", "multiplicity", "to_json_dict"],
    "IntPolynomial": ["coeffs", "content", "has_unit_leading_coefficient", "to_rational"],
    "PochhammerChain": ["factor", "label", "multiplicity", "to_json_dict"],
    "ProductChain": ["factor", "label", "to_json_dict"],
    "RatPolynomial": ["coeffs", "degree", "denominator", "is_zero", "numerators", "to_json"],
    "RingDescriptor": ["is_separated_at"],
    "RootTaylorSeries": ["coeffs", "order", "to_json_dict", "valid_to"],
    "SeriesSpec": [],
    "TruncatedElement": ["chain", "from_json_dict", "is_zero", "level", "rep", "to_json_dict"],
    "UnitCertificate": ["resultant", "u", "v"],
}


def test_exported_classes_define_the_pinned_members():
    classes = {
        name: getattr(cyclocomp, name)
        for name in cyclocomp.__all__
        if isinstance(getattr(cyclocomp, name), type)
    }
    found = {
        name: sorted(m for m in vars(cls) if not m.startswith("_"))
        for name, cls in classes.items()
    }
    assert found == CLASS_MEMBERS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in cyclocomp._EXPORTS for name in names]
)
def test_export_is_its_layers_object(layer, name):
    module = importlib.import_module(f"cyclocomp.{layer}")
    assert getattr(cyclocomp, name) is getattr(module, name)
    assert vars(cyclocomp)[name] is getattr(module, name)  # bound once resolved


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_is_its_submodule(layer):
    assert getattr(cyclocomp, layer) is importlib.import_module(f"cyclocomp.{layer}")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        cyclocomp.cli_main
    assert not hasattr(cyclocomp, "_private")


def test_dir_lists_every_export():
    assert set(cyclocomp.__all__) <= set(dir(cyclocomp))


def test_module_level_values_pickle():
    # Chains and ring descriptors are plain values.  The two named series
    # specs hold lambdas and are left out.
    from cyclocomp.polyring import Frozen

    specs = ("KONTSEVICH_ZAGIER_SPEC", "Q_INVERSE_SPEC")
    checked = []
    for info in pkgutil.iter_modules(cyclocomp.__path__):
        module = importlib.import_module(f"cyclocomp.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, Frozen) and name not in specs:
                assert pickle.loads(pickle.dumps(value)) == value, name
                checked.append(name)
    assert sorted(checked) == ["RING_Q", "RING_Z", "RING_ZERO", "_POCHHAMMER"]



def _value_samples() -> dict:
    """One value of every concrete `polyring.Frozen` class of the library,
    by qualified name; each pickles, so a spec's callables are module-level."""
    from fractions import Fraction

    from cyclocomp import cli, cyclotomic, polyring, qcrt, rootexp
    from cyclocomp import completion as c

    from support import u_step, u_term

    P, R, chain = polyring.IntPolynomial, polyring.RatPolynomial, c.PochhammerChain()
    spec = c.SeriesSpec("u", u_term, abs, u_step)  # witness k, as in support.u_spec
    element = c.reduce(P([1, 2, 3, 4]), chain, 3)
    return {
        "IntPolynomial": P([1, 2]),
        "RatPolynomial": R([Fraction(1, 2), 3]),
        "RingDescriptor": cyclotomic.ring_z_inverted(6),
        "_PrimesNotDividing": cyclotomic._PrimesNotDividing(6),
        "AdjacencyGraph": cyclotomic.AdjacencyGraph(frozenset({2, 6}), cyclotomic.RING_Z),
        "UnitCertificate": cyclotomic.UnitCertificate(P([0, 1]), P([-1]), -1),
        "CommonPrimeCertificate": cyclotomic.CommonPrimeCertificate(3, 9, 2),
        "CyclotomicInteger": rootexp.CyclotomicInteger(5, [1, 0, 2]),
        "RootTaylorSeries": rootexp.expand_series(spec, 3, 1),
        "PochhammerChain": chain,
        "AdicChain": c.AdicChain(P([1, 1])),
        "ProductChain": c.ProductChain([3, 2]),
        "TruncatedElement": element,
        "DigitExpansion": c.to_digits(element),
        "SeriesSpec": spec,
        "ExponentVector": qcrt.ExponentVector({3: 1, 1: 2}),
        "CrtComponents": qcrt.CrtComponents({2: R([1]), 1: R([0, 1])}),
        "_Result": cli._Result({"a": [1]}, "i,c", [(0, 1)], "1\n", 3),
    }


def _library_subclasses(cls) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("cyclocomp."):
            found |= {sub} | _library_subclasses(sub)
    return found


def test_every_value_class_rebuilds_through_its_constructor():
    # Copy and pickle call the constructor with the fields in order, so
    # every concrete value class must take its own fields back, and a new
    # one needs a sample here.
    from cyclocomp.polyring import Frozen

    from support import check_round_trip

    samples = _value_samples()
    bases = {"_Replaceable", "_Polynomial", "FiltrationChain"}
    assert {cls.__qualname__ for cls in _library_subclasses(Frozen)} == set(samples) | bases
    for name, value in samples.items():
        assert type(value).__qualname__ == name
        check_round_trip(value)
