"""Checks on the library source itself."""

import ast
import re
from pathlib import Path

import pytest

import cyclocomp

SOURCES = sorted(Path(cyclocomp.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


def test_no_assert_statements():
    # `python -O` strips assert statements, so internal invariants are
    # checked with explicit raises instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _import_time_imports(tree, module: str) -> list[int]:
    """Lines that import `module` while the source itself is imported:
    every import of it outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (
                isinstance(child, ast.Import)
                and any(a.name.partition(".")[0] == module for a in child.names)
            ) or (isinstance(child, ast.ImportFrom) and child.module == module):
                found.append(child.lineno)
            visit(child)

    visit(tree)
    return found


def _imported_at_import_time(module: str) -> list[str]:
    return [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _import_time_imports(ast.parse(path.read_text(encoding="utf-8")), module)
    ]


def test_fractions_imported_only_where_a_rational_is_built():
    # fractions, with decimal and numbers, costs a CLI process 2.8 ms, and
    # none needs it: work over Q runs on integer numerators.  polyring
    # imports it only where RatPolynomial.coeffs builds Fractions for a
    # caller.
    assert _imported_at_import_time("fractions") == []


def test_json_imported_only_where_json_is_read_or_written():
    # a csv or plain CLI leaf that reads no JSON skips json
    assert _imported_at_import_time("json") == []


def _argparse_imports(tree) -> list[str]:
    """Where a source imports argparse: `line N` for each import outside a
    function body, then each top-level function that imports it."""
    found = [f"line {line}" for line in _import_time_imports(tree, "argparse")]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            (isinstance(child, ast.Import) and any(a.name == "argparse" for a in child.names))
            or (isinstance(child, ast.ImportFrom) and child.module == "argparse")
            for child in ast.walk(node)
        ):
            found.append(node.name)
    return found


def test_argparse_imported_only_in_the_cli_fallback():
    # A leaf's plain command line is parsed from cli._COMMANDS; only the
    # whole argparse tree, which prints help screens and usage errors, and
    # the error of a rejected value, which sends its line there, import it.
    found = {
        path.name: _argparse_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in SOURCES
    }
    assert {name: where for name, where in found.items() if where} == {
        "cli.py": ["_type_error", "_argparse_tree"]
    }


def test_argparse_lint_is_recognised():
    # cli.py's module-level import as it was, and the lazy one
    tree = ast.parse(
        "import argparse\n"
        "class _Parser(argparse.ArgumentParser):\n    pass\n"
        "def _type_error(message):\n"
        "    from argparse import ArgumentTypeError\n"
        "    return ArgumentTypeError(message)\n"
        "def _level(text):\n    raise argparse.ArgumentTypeError(text)\n"
    )
    assert _argparse_imports(tree) == ["line 1", "_type_error"]


def test_dataclasses_imported_only_where_a_value_is_replaced():
    # dataclasses, with inspect, ast and dis, costs every CLI process.  The
    # value classes are polyring.Frozen; the __dataclass_*__ attributes of
    # polyring._Replaceable, read only by dataclasses.replace and its kin,
    # hold the one import.
    assert _imported_at_import_time("dataclasses") == []
    found = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == ["polyring.py"]


def test_import_time_imports_are_recognised():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "class A:\n    import fractions\n"
        "def f():\n    from fractions import Fraction\n"
        "if A:\n    import fractions.x\n"
        "g = lambda: __import__('fractions')\n"
        "import fractionsx\n"
    )
    assert _import_time_imports(tree, "fractions") == [1, 3, 7]


def _typing_outside_annotations(tree) -> list[str]:
    """Uses of a name imported from `typing` (or of `typing` itself) that
    are run, not only read by type checkers: anywhere but an annotation
    under `from __future__ import annotations`, except TYPE_CHECKING."""
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "typing"
        for alias in node.names
    } | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "typing"
    }
    deferred = any(
        isinstance(node, ast.ImportFrom)
        and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body
    )
    annotations = set()
    if deferred:
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                found = [node.annotation]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = [node.returns]
            elif isinstance(node, ast.AnnAssign):
                found = [node.annotation]
            else:
                continue
            annotations.update(id(n) for a in found if a is not None for n in ast.walk(a))
    return [
        f"{node.id}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id in names - {"TYPE_CHECKING"}
        and id(node) not in annotations
    ]


def test_typing_names_only_in_annotations():
    # The typing imports stay while the benchmark's set-up is what caches
    # typing's bytecode; once every imported name is only annotation or
    # TYPE_CHECKING, moving the imports under TYPE_CHECKING drops typing
    # from start-up.  So no NamedTuple, TypedDict, TypeVar or cast.
    found = [
        f"{path.name}:{use}"
        for path in SOURCES
        for use in _typing_outside_annotations(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_typing_lint_is_recognised():
    # cli._Result as it was, and the uses the lint rules out
    source = (
        "from typing import TYPE_CHECKING, Any, NamedTuple, Optional, TypeVar, cast\n"
        "import typing\n"
        "if TYPE_CHECKING:\n    pass\n"
        "class _Result(NamedTuple):\n    payload: Any\n    code: int = 0\n"
        "T = TypeVar('T')\n"
        "def f(x: Optional[int]) -> Optional[T]:\n    return cast(int, x)\n"
        "y: typing.Any = typing.cast(int, 1)\n"
    )
    future = ast.parse("from __future__ import annotations\n" + source)
    assert sorted(_typing_outside_annotations(future)) == [
        "NamedTuple:6", "TypeVar:9", "cast:11", "typing:12"
    ]
    # without the future import every annotation is evaluated
    assert sorted(_typing_outside_annotations(ast.parse(source))) == [
        "Any:6", "NamedTuple:5", "Optional:9", "Optional:9",
        "TypeVar:8", "cast:10", "typing:11", "typing:11",
    ]


def _classes_defining(tree, wanted) -> list[str]:
    """Names of the classes in `tree` whose body defines, by a def or an
    assignment, a name for which `wanted` is true."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
        for node in cls.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [t.id for t in targets if isinstance(t, ast.Name)]
        if any(map(wanted, names)):
            found.append(cls.name)
    return found


def _equality(name: str) -> bool:
    return name in ("__eq__", "__hash__")


def _dataclass_attribute(name: str) -> bool:
    return name.startswith("__dataclass_")


def _source_classes_defining(wanted) -> list[str]:
    return sorted(
        name
        for path in SOURCES
        for name in _classes_defining(ast.parse(path.read_text(encoding="utf-8")), wanted)
    )


def test_one_owner_of_value_equality():
    # Frozen decides equality and hash for every value class, chains too.
    assert _source_classes_defining(_equality) == ["Frozen"]


def test_only_the_bridge_poses_as_a_dataclass():
    # dataclasses.is_dataclass, replace and pprint believe any class with
    # a __dataclass_fields__; only the classes the benchmark replaces may.
    assert _source_classes_defining(_dataclass_attribute) == ["_Replaceable"]


def test_value_class_lints_are_recognised():
    # _Polynomial and CyclotomicInteger as they were with their own equality,
    # and Frozen as it was with the dataclass bridge
    tree = ast.parse(
        "class _Polynomial:\n    __slots__ = ('coeffs',)\n"
        "    def __eq__(self, other): pass\n    def __hash__(self): pass\n"
        "class CyclotomicInteger:\n    def __hash__(self): pass\n"
        "class Frozen:\n    __dataclass_fields__ = _DataclassFields()\n"
        "    def __eq__(self, other): pass\n"
        "class Chain:\n    __hash__ = None\n"
    )
    assert _classes_defining(tree, _equality) == [
        "_Polynomial", "CyclotomicInteger", "Frozen", "Chain"
    ]
    assert _classes_defining(tree, _dataclass_attribute) == ["Frozen"]


def _referenced_names() -> set[str]:
    """Every name used as a Name, an Attribute or an import alias in the
    library and its tests."""
    tests = sorted(Path(__file__).parent.glob("*.py"))
    names = set()
    for path in SOURCES + tests:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_no_unreferenced_functions():
    # A function or method that nothing in the library or its tests
    # names is dead code; dunder methods are called by the language.
    used = _referenced_names()
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert found == []


def _chain_classes() -> list[type]:
    """FiltrationChain and every subclass of it defined so far."""
    from cyclocomp.completion import FiltrationChain

    classes, todo = [], [FiltrationChain]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return classes


def test_no_chain_overrides_modulus():
    # The traced benchmark patches FiltrationChain.modulus on the base
    # class; a subclass that defines its own would drop out of the
    # completion.modulus counters.  Chains supply factor(k) instead.
    found = [cls.__qualname__ for cls in _chain_classes()[1:] if "modulus" in vars(cls)]
    assert found == []


def test_chains_are_frozen_values():
    # A chain's fields decide its equality, hash, repr, copy and pickle:
    # no chain, the library's or a user's, writes its own or a signature().
    from cyclocomp.polyring import Frozen

    own = ("signature", "__eq__", "__hash__", "__repr__")
    assert issubclass(_chain_classes()[0], Frozen)
    found = [
        f"{cls.__qualname__}.{name}"
        for cls in _chain_classes()
        for name in own
        if name in vars(cls)
    ]
    assert found == []


def _isinstance_against(tree, names: set[str]) -> list[int]:
    """Lines of isinstance calls whose class argument names one of `names`,
    outside the class bodies of those names."""
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in names
        for node in ast.walk(cls)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and id(node) not in inside
        and any(
            getattr(ref, "id", getattr(ref, "attr", None)) in names
            for arg in node.args[1:]
            for ref in ast.walk(arg)
        )
    ]


def test_no_isinstance_against_a_chain_class():
    # What a chain's factors determine (root multiplicities, digit gaps)
    # is answered by the chain, not by a caller branching on its class.
    # A chain's own methods may test types.
    names = {cls.__name__ for cls in _chain_classes()}
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _isinstance_against(ast.parse(path.read_text(encoding="utf-8")), names)
    ]
    assert found == []


def test_isinstance_against_a_chain_class_is_recognised():
    tree = ast.parse(
        "class AdicChain:\n    def f(self, c): return isinstance(c, AdicChain)\n"
        "isinstance(c, (int, completion.PochhammerChain))\nisinstance(c, int)\n"
    )
    assert _isinstance_against(tree, {"AdicChain", "PochhammerChain"}) == [3]


def _descending_slice_stores(tree) -> list[str]:
    """Functions (dotted with their classes) that assign to a slice inside
    a `for` loop over a descending range(..., ..., -1): a schoolbook
    division, whatever its names."""
    found = []

    def descending(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "range"
            and len(node.args) == 3
            and ast.unparse(node.args[2]) == "-1"
        )

    def stores_a_slice(loop) -> bool:
        return any(
            isinstance(t, ast.Subscript) and isinstance(t.ctx, ast.Store)
            and isinstance(t.slice, ast.Slice)
            for node in ast.walk(loop)
            if isinstance(node, (ast.Assign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for t in ast.walk(target)
        )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.For) and descending(child.iter) and stores_a_slice(child):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def test_one_schoolbook_division():
    # `%`, divmod, pseudo-division, Bezout quotients and the reduction
    # into Z[zeta_n] all run polyring's one kernel.
    found = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _descending_slice_stores(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == ["polyring.py:_divide_in_place"]


def test_kernels_take_only_their_operands():
    # The division reads its quotient rule off the divisor, the product of
    # integer lists needs no zero, and the PRS's pseudo-division is the
    # one `_pseudo_divmod`, not a copy of its body.
    path = Path(cyclocomp.__file__).parent / "polyring.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def parameters(name):  # every kind: positional, keyword, *args, **kwargs
        return [a.arg for a in ast.walk(functions[name].args) if isinstance(a, ast.arg)]

    def calls(name):
        return {
            node.func.id
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }

    assert parameters("_divide_in_place") == ["r", "g"]
    assert parameters("_convolve") == ["a", "b"]
    assert "_pseudo_divmod" in calls("_prs")
    assert "_divide_in_place" not in calls("_prs")


def test_descending_slice_stores_are_recognised():
    # CyclotomicInteger's own fold mod Phi_n as it was, and loops the lint
    # leaves alone: ascending or step -2, an index store, a slice read
    tree = ast.parse(
        "class CyclotomicInteger:\n"
        "    def __init__(self, order, coeffs):\n"
        "        for i in range(len(coeffs) - 1, phi - 1, -1):\n"
        "            t = coeffs[i]\n"
        "            if t:\n"
        "                coeffs[i - phi : i] = [\n"
        "                    c - t * p for c, p in zip(coeffs[i - phi : i], modulus)\n"
        "                ]\n"
        "def up(r):\n    for t in range(0, len(r), 1):\n        r[t:] = r[t + 1 :]\n"
        "def step_two(r):\n    for t in range(9, 0, -2):\n        r[:t] = []\n"
        "def index(r):\n    for t in range(len(r) - 1, 0, -1):\n        r[t] -= r[t - 1]\n"
        "def read(r):\n    for t in range(len(r) - 1, 0, -1):\n        x = r[r[:t][0]]\n"
        "for i in range(3, 0, -1):\n    a[i:], b = b, a\n"
        "def nested(r):\n    for i in range(3, 0, -1):\n        for j in range(i):\n"
        "            r[j:i] += [1]\n"
    )
    assert _descending_slice_stores(tree) == ["CyclotomicInteger.__init__", "<module>", "nested"]


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _crt_engine(tree) -> tuple[list[str], list[str], list[str]]:
    """Functions (dotted with their classes) that call subresultant_bezout;
    those of them with a loop inside a loop, such as a product of the
    other factors for each index; and the functions with a loop over what
    the callers compute, read as an attribute named after one of them."""
    functions = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((".".join(inner), child))
            visit(child, inner)

    def calls_bezout(fn) -> bool:
        return any(
            isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "subresultant_bezout"
            for n in ast.walk(fn)
        )

    def nests_a_loop(fn) -> bool:
        return any(
            isinstance(inner, _LOOPS) and inner is not outer
            for outer in ast.walk(fn)
            if isinstance(outer, _LOOPS)
            for inner in ast.walk(outer)
        )

    def iterables(loop) -> list:
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            return [loop.iter]
        return [g.iter for g in getattr(loop, "generators", [])]

    visit(tree, ())
    callers = [(name, fn) for name, fn in functions if calls_bezout(fn)]
    data = {fn.name for _, fn in callers}
    loops_over_data = [
        name
        for name, fn in functions
        if any(
            isinstance(ref, ast.Attribute) and ref.attr in data
            for loop in ast.walk(fn)
            if isinstance(loop, _LOOPS)
            for it in iterables(loop)
            for ref in ast.walk(it)
        )
    ]
    return (
        [name for name, _ in callers],
        [name for name, fn in callers if nests_a_loop(fn)],
        loops_over_data,
    )


def test_one_crt_engine():
    # One inverse of M_{j-1} mod F_j per factor, each a PRS of F_j's
    # degree, cached on the ExponentVector; one mixed-radix glue walks them.
    path = Path(cyclocomp.__file__).parent / "qcrt.py"
    assert _crt_engine(ast.parse(path.read_text(encoding="utf-8"))) == (
        ["ExponentVector._mixed_radix"], [], ["crt_reconstruct"]
    )


def test_crt_engine_lint_is_recognised():
    # The cofactor engine as it was, and a loop the lint leaves alone: the
    # split's loop over the support
    tree = ast.parse(
        "class ExponentVector:\n"
        "    @cached_property\n"
        "    def _bezout(self):\n"
        "        out = []\n"
        "        for n, f in self._factors.items():\n"
        "            rest = math.prod(\n"
        "                (g for m, g in self._factors.items() if m != n), start=one\n"
        "            )\n"
        "            res, u, _ = subresultant_bezout(rest, f)\n"
        "            out.append((n, f, rest, RatPolynomial._over(u.coeffs, res)))\n"
        "        return tuple(out)\n"
        "def crt_split(f, lam):\n"
        "    return CrtComponents({n: f % lam.factor(n) for n in lam.support})\n"
        "def crt_reconstruct(comps, lam):\n"
        "    out, components = RatPolynomial.zero(), dict(comps.components)\n"
        "    for n, f, rest, s in lam._bezout:\n"
        "        out = out + ((components[n] * s) % f) * rest\n"
        "    return out\n"
        "def crt_idempotents(lam):\n"
        "    return {n: s * rest for n, _, rest, s in lam._bezout}\n"
    )
    assert _crt_engine(tree) == (
        ["ExponentVector._bezout"], ["ExponentVector._bezout"],
        ["crt_reconstruct", "crt_idempotents"],
    )


def _accumulating_loops(tree) -> list[str]:
    """Functions (dotted with their classes) with a `for` loop that stores
    into a slice or an index i + j a sum with a product in it: a schoolbook
    convolution, whatever its names.  A division subtracts its products."""

    def adds_a_product(node) -> bool:
        if isinstance(node, ast.AugAssign):
            return isinstance(node.op, ast.Add) and any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                for n in ast.walk(node.value)
            )
        return any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
            and any(
                isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                for side in (n.left, n.right)
            )
            for n in ast.walk(node.value)
        )

    def accumulates(loop) -> bool:
        return any(
            isinstance(t, ast.Subscript)
            and (
                isinstance(t.slice, ast.Slice)
                or (isinstance(t.slice, ast.BinOp) and isinstance(t.slice.op, ast.Add))
            )
            and adds_a_product(node)
            for node in ast.walk(loop)
            if isinstance(node, (ast.Assign, ast.AugAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.For) and accumulates(child):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def test_one_convolution():
    # Every product of coefficient lists in polyring, the PRS's cofactor
    # updates among them, runs `_convolve`.
    path = Path(cyclocomp.__file__).parent / "polyring.py"
    assert _accumulating_loops(ast.parse(path.read_text(encoding="utf-8"))) == ["_convolve"]


def test_accumulating_loops_are_recognised():
    # _Polynomial.__mul__ as it was, both loops of a product by index
    # pairs, and loops the lint leaves alone: the two division passes, a
    # sum without a product, a product without a sum, a plain index store
    tree = ast.parse(
        "class _Polynomial:\n"
        "    def __mul__(self, other):\n"
        "        a, b = self.coeffs, other.coeffs\n"
        "        out = [self._coerce(0)] * (len(a) + len(b) - 1)\n"
        "        width = len(b)\n"
        "        for i, ai in compress(enumerate(a), a):\n"
        "            out[i : i + width] = [o + ai * bj for o, bj in zip(out[i : i + width], b)]\n"
        "        return self._wrap(out)\n"
        "def pairs(a, b, out):\n"
        "    for i, x in enumerate(a):\n"
        "        for j, y in enumerate(b):\n"
        "            out[i + j] += x * y\n"
        "def divide(r, g, d, sparse):\n"
        "    for t in range(len(r) - 1, d - 1, -1):\n"
        "        c = r[t]\n"
        "        r[t - d : t] = [x - c * y for x, y in zip(r[t - d : t], g)]\n"
        "        for i, y in sparse:\n"
        "            r[t + i] -= c * y\n"
        "def add(total, live, at):\n"
        "    for j in range(3):\n"
        "        total[at:] = [a + b for a, b in zip(total[at:], live)]\n"
        "def scale(r, c):\n    for i, y in enumerate(r):\n        r[i + 1] = c * y\n"
        "def dot(out, a, b):\n    for i, x in enumerate(a):\n        out[i] += x * b[i]\n"
    )
    assert _accumulating_loops(tree) == ["_Polynomial.__mul__", "pairs", "pairs"]


def _functions_with_loops(tree) -> dict[str, bool]:
    """Every function (dotted with its classes) and whether its body holds
    a loop or a comprehension."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[".".join(inner)] = any(isinstance(n, _LOOPS) for n in ast.walk(child))
            visit(child, inner)

    visit(tree, ())
    return found


def test_subtraction_is_addition_of_the_negative():
    # a - b is a + -b: neither __sub__ repeats the coefficient pass of __add__
    subtractions = {"polyring.py": "_Polynomial.__sub__", "rootexp.py": "CyclotomicInteger.__sub__"}
    found = {
        f"{path.name}:{name}": _functions_with_loops(ast.parse(path.read_text(encoding="utf-8")))[name]
        for path in SOURCES
        for file, name in subtractions.items()
        if path.name == file
    }
    assert found == {f"{file}:{name}": False for file, name in subtractions.items()}


def test_functions_with_loops_are_recognised():
    # the two subtractions as they were, and bodies the lint leaves alone
    tree = ast.parse(
        "class _Polynomial:\n"
        "    def __sub__(self, other):\n"
        "        self._same_domain(other)\n"
        "        a, b = self.coeffs, other.coeffs\n"
        "        out = list(a) + [self._coerce(0)] * (len(b) - len(a))\n"
        "        for i, c in enumerate(b):\n"
        "            out[i] -= c\n"
        "        return self._wrap(out)\n"
        "class CyclotomicInteger:\n"
        "    def __sub__(self, other):\n"
        "        self._check(other)\n"
        "        return CyclotomicInteger(\n"
        "            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]\n"
        "        )\n"
        "    def __neg__(self):\n        return self * -1\n"
        "def gen(r):\n    return sum(x for x in r)\n"
        "def spin():\n    while True:\n        pass\n"
        "def outer():\n    def inner():\n        return {k: 1 for k in ()}\n    return inner\n"
    )
    assert _functions_with_loops(tree) == {
        "_Polynomial.__sub__": True,
        "CyclotomicInteger.__sub__": True,
        "CyclotomicInteger.__neg__": False,
        "gen": True,
        "spin": True,
        "outer": True,
        "outer.inner": True,
    }


def _scopes_where(tree, wanted) -> list[str]:
    """Scopes (dotted class and function names, or <module>) of the nodes
    of `tree` for which `wanted` is true, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if wanted(child):
                found.append(".".join(scope) or "<module>")
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            visit(child, inner)

    visit(tree, ())
    return found


def _source_scopes_where(wanted) -> list[str]:
    return sorted(
        f"{path.name}:{scope}"
        for path in SOURCES
        for scope in _scopes_where(ast.parse(path.read_text(encoding="utf-8")), wanted)
    )


def _bare_new(node) -> bool:
    """A call of object.__new__, which skips the class's constructor."""
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"


def _raises_non_unit(node) -> bool:
    """raise NonUnitLeadingCoefficient, called or not, by any module path."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "NonUnitLeadingCoefficient"


def test_elements_are_built_by_their_constructors():
    # A constructor that checks or reduces is the one way in; only the
    # polynomial fast path wraps coefficients it has already coerced.
    assert _source_scopes_where(_bare_new) == ["polyring.py:IntPolynomial._wrap"]


def test_one_owner_of_the_unit_leading_check():
    # Every modulus and divisor over Z is checked by one method, and an
    # adic chain's base also needs degree >= 1.
    assert _source_scopes_where(_raises_non_unit) == [
        "completion.py:AdicChain.__init__",
        "polyring.py:IntPolynomial._unit_leading_coefficient",
    ]


def test_constructor_and_unit_leading_lints_are_recognised():
    # TruncatedElement's unchecked twin and arrow_witness's own check as
    # they were, and code the lints leave alone
    tree = ast.parse(
        "class TruncatedElement:\n"
        "    @classmethod\n"
        "    def _reduced(cls, chain, level, rep):\n"
        "        element = object.__new__(cls)\n"
        "def arrow_witness(f, g, c, max_power):\n"
        "    if not g.has_unit_leading_coefficient:\n"
        "        raise NonUnitLeadingCoefficient(f'modulus {g}')\n"
        "raise errors.NonUnitLeadingCoefficient\n"
        "def fine(cls):\n"
        "    object.__init__(cls)\n    super().__new__(cls)\n"
        "    try:\n        raise ValueError('x')\n"
        "    except NonUnitLeadingCoefficient:\n        raise\n"
    )
    assert _scopes_where(tree, _bare_new) == ["TruncatedElement._reduced"]
    assert _scopes_where(tree, _raises_non_unit) == ["arrow_witness", "<module>"]


MODULES = {path.stem for path in SOURCES}


def _private_reads(tree, module: str) -> list[str]:
    """Private names of another module of the package that `module`
    reads: `from .m import _x` and `m._x`, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module != module:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES - {module}
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    # The kernel's one convolution and one division, the replace bridge
    # and the completion layer's one walk of a series' terms are shared
    # on purpose; everything else crosses a module by a public name, so
    # the CLI reaches the root layer only through its public functions.
    found = sorted(
        f"{path.stem}: {name}"
        for path in SOURCES
        for name in _private_reads(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    )
    assert found == [
        "completion: polyring._Replaceable",
        "cyclotomic: polyring._Replaceable",
        "rootexp: completion._series_terms",
        "rootexp: polyring._Replaceable",
        "rootexp: polyring._convolve",
        "rootexp: polyring._divide_in_place",
    ]


def test_private_read_lint_is_recognised():
    # the eval leaf's precision check as it was, and code the lint leaves alone
    tree = ast.parse(
        "from . import completion, rootexp\n"
        "from .polyring import _prs, divides\n"
        "from .cli import _level\n"
        "def leaf(poch, level, n):\n"
        "    rootexp._require_value(poch, level, n)\n"
        "    completion.__name__, self._init, rootexp.tau_values, _level(n)\n"
    )
    assert _private_reads(tree, "cli") == ["polyring._prs", "rootexp._require_value"]


def _memo_decorator(node) -> bool:
    """@cache, @lru_cache, @lru_cache(...) and their functools.* forms."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name in ("cache", "lru_cache")


def test_no_store_but_the_known_ones():
    # A module- or class-level list, dict or set is state shared by every
    # caller in the process, and so is the table behind a module- or
    # class-level function memoized by functools.cache or lru_cache.  The
    # library keeps three stores: the Phi_n table, the series registry and
    # the Pochhammer chain's (q)_k store.
    containers = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [("", tree)] + [
            (f"{node.name}.", node) for node in tree.body if isinstance(node, ast.ClassDef)
        ]
        for prefix, scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                    node.value, containers
                ):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found += [prefix + ast.unparse(t) for t in targets]
                if isinstance(node, functions) and any(map(_memo_decorator, node.decorator_list)):
                    found.append(prefix + node.name)
    assert sorted(found) == ["NAMED_SERIES", "PochhammerChain._moduli", "_cyclo_cache"]


def _per_value_caches(tree) -> list[str]:
    """Class.method for every method decorated @cached_property or
    @functools.cached_property, in source order."""
    return [
        f"{cls.name}.{fn.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and any(ast.unparse(d) in ("cached_property", "functools.cached_property")
                for d in fn.decorator_list)
    ]


def test_no_per_value_cache_but_the_known_ones():
    # A cached property is state kept by one value for its life: a chain's
    # g_k, an exponent vector's CRT data, and a stepped series' deepest
    # expansion at each root of unity.  A further one is a decision.
    found = sorted(
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _per_value_caches(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == [
        "completion.py:FiltrationChain._moduli",
        "completion.py:SeriesSpec._expansions",
        "qcrt.py:ExponentVector._factors",
        "qcrt.py:ExponentVector._mixed_radix",
    ]


def test_per_value_cache_lint_is_recognised():
    tree = ast.parse(
        "class A:\n"
        "    @cached_property\n    def x(self): pass\n"
        "    @functools.cached_property\n    def y(self): pass\n"
        "    @property\n    def z(self): pass\n"
        "    @cache\n    def w(self): pass\n"
        "    def v(self): pass\n"
        "@cached_property\ndef module_level(self): pass\n"
    )
    assert _per_value_caches(tree) == ["A.x", "A.y"]


@pytest.mark.parametrize(
    "decorator", ["cache", "functools.cache", "lru_cache(maxsize=None)", "functools.lru_cache()"]
)
def test_memo_decorators_are_recognised(decorator):
    tree = ast.parse(f"@{decorator}\ndef f(): pass\n@cached_property\ndef g(self): pass")
    assert [_memo_decorator(fn.decorator_list[0]) for fn in tree.body] == [True, False]


def test_fraction_only_in_rational_coefficients():
    # The integer kernels, the PRS and the arithmetic over Q keep their
    # bookkeeping in Z.  In polyring.py a Fraction may be named only where
    # one is taken in (the two constructors' coercion) and where the
    # public view `RatPolynomial.coeffs` builds them.
    path = Path(cyclocomp.__file__).parent / "polyring.py"
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if (isinstance(child, ast.Name) and child.id == "Fraction") or (
                isinstance(child, ast.Attribute) and child.attr == "Fraction"
            ):
                found.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    assert sorted(found) == [
        "IntPolynomial._coerce", "RatPolynomial.__init__", "RatPolynomial.coeffs"
    ]


def test_sources_parse_at_the_python_floor():
    # New syntax slips in unseen when the suite runs on a newer Python;
    # the floor is the one pyproject.toml declares.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = re.search(r'requires-python = ">=3\.(\d+)"', pyproject.read_text(encoding="utf-8"))
    assert floor is not None
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor[1])))
