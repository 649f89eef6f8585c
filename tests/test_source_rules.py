"""Rules read off the library source.

A certificate is replayed by an explicit check that raises, never by an
`assert` (which `python -O` strips), and every error the library raises is
a class of canonform.errors, so the CLI can map it to an exit code.  A
bare `raise` re-raises, and FrozenInstanceError is the documented
immutability contract of Elem and Matrix.  Arithmetic is exact: no true division `/` (which
makes a float of two ints) and no float(...) call.  Ring dispatch on raw
values lives in domain, in its tables RAW_OPS, RAW_EUCLID, RAW_LIFT and
RAW_SIZE and in raw_egcd: no other module names the raw Z, Q and Q[x]
kernels.  `Fraction` is the public value of a Q coefficient only, built
and read at the API edge in domain: no other module names it.
"""
import ast
from pathlib import Path

import pytest

from canonform import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "canonform"
ERROR_CLASSES = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, errors.Error)}
ALLOWED = ERROR_CLASSES | {"FrozenInstanceError"}
SOURCES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _raised_name(node: ast.Raise):
    """The class a raise statement names, or None for a bare re-raise."""
    exc = node.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return ast.unparse(exc)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"domain.py", "errors.py", "similarity.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_raises_name_error_classes(path):
    bad = [(node.lineno, _raised_name(node)) for node in ast.walk(_tree(path))
           if isinstance(node, ast.Raise) and node.exc is not None
           and _raised_name(node) not in ALLOWED]
    assert bad == [], f"{path.name}: raises outside canonform.errors: {bad}"


def _makes_float(node: ast.AST) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_true_division_or_float_call(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if _makes_float(node)]
    assert lines == [], f"{path.name}: true division or float() on lines {lines}"


@pytest.mark.parametrize("code", ["a / b", "a /= b", "float(a)"])
def test_float_rule_sees(code):
    assert any(_makes_float(node) for node in ast.walk(ast.parse(code)))


RAW_KERNELS = {"_qadd", "_qmul", "_qdivmod", "_qnorm", "_qneg", "_qassoc",
               "_qsize", "_zdivmod", "_zassoc"}


def _names(tree: ast.AST, wanted) -> list[tuple[int, str]]:
    """Every name, attribute or import of one of the wanted names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in wanted:
            found.append((getattr(node, "lineno", 0), name))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_raw_kernels_are_named_only_in_domain(path):
    found = _names(_tree(path), RAW_KERNELS)
    if path.name == "domain.py":
        assert {name for _, name in found} == RAW_KERNELS
    else:
        assert found == [], f"{path.name}: names raw kernels {found}"


@pytest.mark.parametrize("code", ["from .domain import _qadd", "domain._qmul(a, b)",
                                  "_qnorm(nums, 1)", "f = _qdivmod",
                                  "q, r = domain._zdivmod(a, b)",
                                  "from .domain import _qneg, _zassoc"])
def test_raw_kernel_rule_sees(code):
    assert _names(ast.parse(code), RAW_KERNELS)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_fraction_is_named_only_in_domain(path):
    found = _names(_tree(path), {"Fraction"})
    if path.name == "domain.py":
        assert found
    else:
        assert found == [], f"{path.name}: names Fraction {found}"


@pytest.mark.parametrize("code", ["from fractions import Fraction", "fractions.Fraction(1, 2)",
                                  "Fraction(1)", "isinstance(v, Fraction)"])
def test_fraction_rule_sees(code):
    assert _names(ast.parse(code), {"Fraction"})
