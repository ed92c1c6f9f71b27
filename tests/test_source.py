"""Static checks on the package source, run without a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "khlab"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads; a name listed in __all__ counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# numpy routes these to BLAS or LAPACK; no khlab command needs either
BLAS_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot", "polyfit", "lstsq"}


def blas_uses(source):
    """Where a module uses @, calls a BLAS_CALLS name or reaches anything under linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(("@", node.lineno))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS:
                found.append((name, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(("linalg", node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any("linalg" in name.split(".")
                   for name in names + [alias.name for alias in node.names]):
                found.append(("linalg", node.lineno))
    return sorted(f"{name} (line {line})" for name, line in found)


def test_guard_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)", "path (line 2)"]
    assert unused_imports("import os.path\n__all__ = ['x']\nfrom a import x\nos.sep\n") == []


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


def test_guard_flags_blas_and_lapack():
    source = ("import numpy as np\n"
              "a = x @ y\n"
              "a @= y\n"
              "b = np.dot(x, y) + x.dot(y) + matmul(x, y)\n"
              "c = np.tensordot(x, y) + np.inner(x, y) + np.vdot(x, y)\n"
              "d = np.polyfit(x, y, 1)\n"
              "e = np.linalg.norm(x)\n"
              "from numpy.linalg import lstsq\n"
              "from scipy import linalg\n"
              "import scipy.linalg\n")
    assert blas_uses(source) == sorted(
        ["@ (line 2)", "@ (line 3)", "dot (line 4)", "dot (line 4)", "matmul (line 4)",
         "tensordot (line 5)", "inner (line 5)", "vdot (line 5)", "polyfit (line 6)",
         "linalg (line 7)", "linalg (line 8)", "linalg (line 9)", "linalg (line 10)"])
    # elementwise products, sums and the FFTs stay allowed
    assert blas_uses("import numpy as np\n@property\ndef f(x):\n"
                     "    return (x * x).sum() + np.fft.rfft(x).real.sum()\n") == []


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_never_calls_blas_or_lapack(module):
    assert blas_uses(module.read_text()) == []


def pow_and_fraction_uses(source):
    """Where a module uses ** or pow, libm's pow for floats, or imports fractions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            found.append(("**", node.lineno))
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) == "pow":
            found.append(("pow", node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(name.split(".")[0] == "fractions"
                   for name in names + [alias.name for alias in node.names]):
                found.append(("fractions", node.lineno))
    return sorted(f"{name} (line {line})" for name, line in found)


def test_guard_flags_pow_and_fractions():
    source = ("import math\n"
              "a = x ** 2\n"
              "a **= 2\n"
              "b = pow(x, 2) + math.pow(x, 2)\n"
              "from fractions import Fraction\n"
              "def f():\n"
              "    import fractions\n")
    assert pow_and_fraction_uses(source) == sorted(
        ["** (line 2)", "** (line 3)", "pow (line 4)", "pow (line 4)", "fractions (line 5)",
         "fractions (line 7)"])
    # products, keyword unpacking and dict merges stay allowed
    assert pow_and_fraction_uses("def f(x, **kw):\n"
                                 "    return g(x * x, **kw), {**kw}\n") == []


def test_closed_forms_compute_in_plain_arithmetic():
    # stability.py squares as x * x and sums rounded products: no libm pow, no exact rationals
    assert pow_and_fraction_uses((SRC / "stability.py").read_text()) == []
