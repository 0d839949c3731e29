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
    "IntPolynomial": ["content", "has_unit_leading_coefficient", "to_rational"],
    "PochhammerChain": ["factor", "label", "multiplicity", "to_json_dict"],
    "ProductChain": ["factor", "to_json_dict"],
    "RatPolynomial": ["to_json"],
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
