"""Source hygiene: every name a package module imports is used in it,
every private module-level name is read somewhere in the package, every
public module-level function and class is read by the package or the
benchmark, no module imports scipy (the package runs on numpy alone),
no module calls numpy.linalg.inv (every inverse goes through a Cholesky
factor), only linalg.py calls numpy.linalg's factorizations and solvers
(one gate decides every matrix's definiteness), only linalg.py reaches
numpy's private _umath_linalg (the one place the simulators' Cholesky
kernel is taken from), NotPositiveDefiniteError is constructed at one
place in linalg.py (one factorization gate names every failing pivot), every
text file is opened with an explicit encoding (files read and write as
UTF-8 whatever the locale), no module names numpy's long double
(written bytes must not depend on the platform), and only the optimizer's
start perturbations and the simulators' one block stream draw random
numbers (so a panel and a streamed file come from the same code).

``__init__.py`` is exempt from the first check (its imports are
re-exports, and ``covtarget.__all__`` must list exactly those), and so are
``__future__`` imports.
"""
import ast
import re
from pathlib import Path

import pytest

import covtarget

SOURCES = sorted(Path(covtarget.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def imported_names(source: str) -> set[str]:
    """Names bound by an import in ``source``, ``__future__`` imports aside."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    used = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
    return sorted(imported_names(source) - used)


def test_unused_imports_are_found():
    assert unused_imports("import numpy as np\nimport os.path\nos.sep\n") == ["np"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_all_lists_the_reexports():
    # A stale __all__ entry breaks ``from covtarget import *``; a missing one
    # hides a name from it.
    init = Path(covtarget.__file__).read_text()
    assert len(set(covtarget.__all__)) == len(covtarget.__all__)
    assert set(covtarget.__all__) == imported_names(init)


def unread_private_names(sources: list[str]) -> list[str]:
    """Private (single-underscore) names that a module of ``sources``
    defines at top level and no expression in any of them reads."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    private = {d for d in defined if d.startswith("_") and not d.startswith("__")}
    return sorted(private - read)


def test_unread_private_names_are_found():
    sources = [
        "_A = 1\n_B: int = 2\ndef _f(): return _A\nclass _T: pass\n__all__ = []\n",
        "from m import _f\n_f()\n",
    ]
    assert unread_private_names(sources) == ["_B", "_T"]


def test_every_private_name_is_read():
    assert unread_private_names([p.read_text() for p in SOURCES]) == []


def unread_public_names(defining: list[str], reading: list[str]) -> list[str]:
    """Public functions and classes that a module of ``defining`` defines at
    top level and no expression in ``reading`` reads."""
    defined, read = set(), set()
    for tree in map(ast.parse, defining):
        defined.update(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )
    for tree in map(ast.parse, reading):
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(defined - read)


# Public names with no reader in the package or the benchmark, and why.
UNREAD_PUBLIC_ALLOWED = {
    "fd_gradient": "the gradient tests' finite-difference oracle",
    "write_returns_csv": "the API's writer of a whole panel; the simulate command "
                         "streams its rows through the same renderer",
}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_unread_public_names_are_found():
    defining = ["def f(): pass\ndef g(): pass\nclass C: pass\ndef _h(): pass\n"]
    reading = ["f()\nx.C\n", "def g(): pass\n"]
    assert unread_public_names(defining, reading) == ["g"]


def test_every_public_name_is_read():
    reading = [p.read_text() for p in MODULES]
    reading += [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    unread = unread_public_names([p.read_text() for p in SOURCES], reading)
    assert unread == sorted(UNREAD_PUBLIC_ALLOWED)


def imported_modules(source: str) -> set[str]:
    """Dotted names of the modules ``source`` imports, or imports from."""
    mods = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            mods.add(node.module)
            mods.update(f"{node.module}.{a.name}" for a in node.names)
    return mods


def scipy_imports(source: str) -> list[str]:
    """The scipy modules, and names from them, that ``source`` imports."""
    return sorted(m for m in imported_modules(source)
                  if m == "scipy" or m.startswith("scipy."))


def test_scipy_imports_are_found():
    source = ("import numpy\nfrom scipy import signal\n"
              "def f():\n    import scipy.optimize as so\n")
    assert scipy_imports(source) == ["scipy", "scipy.optimize", "scipy.signal"]
    assert scipy_imports("import scipyx\n") == []


def test_no_module_imports_scipy():
    for path in SOURCES:
        assert scipy_imports(path.read_text()) == [], path.name


# numpy.linalg's factorizations and solvers; norm is not one of them.
DECOMPOSITIONS = {"cholesky", "eig", "eigh", "eigvals", "eigvalsh", "svd", "qr", "solve",
                  "lstsq", "det", "slogdet", "inv", "pinv"}


def linalg_calls(source: str, names: set[str]) -> list[int]:
    """Lines of ``source`` that call a numpy.linalg function named in
    ``names``, under any module alias or as a name imported from numpy.linalg."""
    tree = ast.parse(source)
    modules, imported = {"np.linalg", "numpy.linalg", "linalg"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "numpy.linalg")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            imported.update(a.asname or a.name for a in node.names if a.name in names)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr in names
            and ast.unparse(node.func.value) in modules
            or isinstance(node.func, ast.Name) and node.func.id in imported
        )
    )


def test_general_inverse_calls_are_found():
    source = ("import numpy as np\nimport numpy.linalg as la\n"
              "from numpy.linalg import inv as minv\n"
              "np.linalg.inv(a)\nla.inv(a)\nminv(a)\nnp.linalg.solve(a, b)\nx.inv()\n")
    assert linalg_calls(source, {"inv"}) == [4, 5, 6]


def test_no_module_calls_a_general_inverse():
    # linalg's module docstring: every inverse goes through a Cholesky factor
    for path in SOURCES:
        assert linalg_calls(path.read_text(), {"inv"}) == [], path.name


def test_decompositions_are_found():
    source = ("import numpy as np\nfrom numpy.linalg import eigvalsh, norm\n"
              "np.linalg.cholesky(a)\neigvalsh(a)\nnp.linalg.norm(g)\nnorm(g)\n"
              "np.linalg.svd(a)\nx.solve(a)\n")
    assert linalg_calls(source, DECOMPOSITIONS) == [3, 4, 7]


def test_only_linalg_decomposes_matrices():
    # one Cholesky gate decides every matrix's definiteness
    for path in SOURCES:
        if path.name != "linalg.py":
            assert linalg_calls(path.read_text(), DECOMPOSITIONS) == [], path.name


def private_linalg_uses(source: str) -> list[int]:
    """Lines of ``source`` that import numpy's private _umath_linalg, or
    anything from it, or read it as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
        else:
            continue
        if any("_umath_linalg" in name.split(".") for name in names):
            found.add(node.lineno)
    return sorted(found)


def test_private_linalg_uses_are_found():
    source = ("import numpy as np\nfrom numpy.linalg import _umath_linalg\n"
              "import numpy.linalg._umath_linalg as u\n"
              "from numpy.linalg._umath_linalg import cholesky_lo\n"
              "np.linalg._umath_linalg.cholesky_lo(a)\nnp.linalg.cholesky(a)\n"
              "from numpy.linalg import cholesky\n")
    assert private_linalg_uses(source) == [2, 3, 4, 5]


def test_only_linalg_uses_numpys_private_linalg():
    # linalg._cholesky_lo: one line depends on numpy's private module
    for path in SOURCES:
        found = private_linalg_uses(path.read_text(encoding="utf-8"))
        assert len(found) == (path.name == "linalg.py"), path.name


def constructions(source: str, cls: str) -> list[int]:
    """Lines of ``source`` that call the class ``cls``: by its name, by a
    name it is imported as, or as an attribute of a module."""
    tree = ast.parse(source)
    names = {cls}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name == cls and a.asname)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id in names
            or isinstance(node.func, ast.Attribute) and node.func.attr == cls
        )
    )


def test_constructions_are_found():
    source = ("from .errors import NotPositiveDefiniteError as NPD\n"
              "import covtarget.errors as errs\n"
              "try:\n    f()\nexcept NotPositiveDefiniteError as exc:\n"
              "    raise NotPositiveDefiniteError(str(exc))\n"
              "NPD('a')\nerrs.NotPositiveDefiniteError('b')\n"
              "isinstance(e, NotPositiveDefiniteError)\n")
    assert constructions(source, "NotPositiveDefiniteError") == [6, 7, 8]


def test_one_gate_constructs_not_positive_definite_errors():
    # linalg's factorization gate: every pivot is found and worded one way
    for path in MODULES:
        found = constructions(path.read_text(), "NotPositiveDefiniteError")
        assert len(found) == (path.name == "linalg.py"), path.name


def unencoded_text_io(source: str) -> list[int]:
    """Lines of ``source`` that open a file in text mode, or read or write
    one as text, without an ``encoding=``: open, os.fdopen, Path.open,
    Path.read_text and Path.write_text. A constant mode holding 'b' is
    binary; os.open returns a descriptor and decodes nothing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ("open", "fdopen", "read_text", "write_text") or ast.unparse(func) == "os.open":
            continue
        mode = None
        if name in ("open", "fdopen"):
            # builtin open and os.fdopen take the mode second, Path.open first
            at = 0 if name == "open" and isinstance(func, ast.Attribute) else 1
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0] if modes else node.args[at] if len(node.args) > at else None
        if isinstance(mode, ast.Constant) and "b" in str(mode.value):
            continue
        if not any(k.arg == "encoding" for k in node.keywords):
            found.append(node.lineno)
    return sorted(found)


def test_unencoded_text_io_is_found():
    source = ("import os\nfrom pathlib import Path\n"
              "open(p)\nopen(p, 'rb')\nopen(p, mode='w', encoding='utf-8')\n"
              "os.fdopen(fd, 'w')\nos.fdopen(fd, 'wb')\nos.open(p, os.O_RDONLY)\n"
              "Path(p).read_text()\nPath(p).write_text(s, encoding='utf-8')\n"
              "Path(p).open('rb')\nPath(p).open()\nPath(p).read_bytes()\n"
              "p.write_text(s)\nopen(p, newline='', encoding='utf-8')\n")
    assert unencoded_text_io(source) == [3, 6, 9, 12, 14]


def test_every_text_file_is_opened_with_an_encoding():
    for path in SOURCES:
        assert unencoded_text_io(path.read_text(encoding="utf-8")) == [], path.name



def long_double_uses(source: str) -> list[int]:
    """Lines of ``source`` that name numpy's long double, as longdouble,
    float128 or longfloat, anywhere: code, dtype strings or comments."""
    names = re.compile(r"\b(longdouble|float128|longfloat)\b")
    return [n for n, line in enumerate(source.splitlines(), 1) if names.search(line)]


def test_long_double_uses_are_found():
    source = ("import numpy as np\nfrom numpy import float128 as f\n"
              "np.longdouble(1)\nx.astype('longfloat')\nnp.float64(1)\n"
              "np.dtype('f8')\n# float1280\n")
    assert long_double_uses(source) == [2, 3, 4]


def test_no_module_uses_a_long_double():
    # written bytes must not depend on the platform's long double: 80-bit
    # on x86, quad on aarch64, a plain double on macOS
    for path in SOURCES:
        assert long_double_uses(path.read_text(encoding="utf-8")) == [], path.name


def random_draw_callers(source: str, module: str) -> list[str]:
    """Where ``source`` draws random numbers: a call to default_rng or
    standard_normal, under any name it is imported as, or to anything under
    np.random. Each is named ``module.function`` (``module.Class.method``)
    by the top-level definition around it, or ``module`` outside one."""
    tree = ast.parse(source)
    names = {"default_rng", "standard_normal"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name in names and a.asname)

    def draws(node) -> bool:
        return any(
            isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Name) and n.func.id in names
                or isinstance(n.func, ast.Attribute) and (
                    n.func.attr in names
                    or ast.unparse(n.func.value) in ("np.random", "numpy.random")))
            for n in ast.walk(node)
        )

    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.update(f"{module}.{node.name}.{m.name}" for m in node.body
                         if isinstance(m, ast.FunctionDef) and draws(m))
        elif draws(node):
            found.add(f"{module}.{node.name}" if isinstance(node, ast.FunctionDef) else module)
    return sorted(found)


def test_random_draw_callers_are_found():
    source = ("import numpy as np\nfrom numpy.random import default_rng as rng_of\n"
              "def f():\n    return np.random.default_rng(0)\n"
              "def g(rng):\n    def inner():\n        return rng.standard_normal(3)\n"
              "    return inner\n"
              "class C:\n    def m(self):\n        return rng_of(1)\n"
              "    def n(self):\n        return np.linalg.norm(self)\n"
              "def h():\n    return np.random.randn(2)\n"
              "def k(x):\n    return np.sqrt(x)\n")
    assert random_draw_callers(source, "m") == ["m.C.m", "m.f", "m.g", "m.h"]
    assert random_draw_callers("import numpy\nX = numpy.random.rand()\n", "m") == ["m"]


def test_only_the_optimizer_and_the_block_stream_draw():
    # optimize.maximize perturbs its extra starts; data._sim_blocks draws
    # every simulated shock, for the API's panels and the command's files
    found = []
    for path in SOURCES:
        found += random_draw_callers(path.read_text(encoding="utf-8"), path.stem)
    assert sorted(found) == ["data._sim_blocks", "optimize.maximize"]
