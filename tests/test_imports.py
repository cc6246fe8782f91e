"""Every name a package module imports must be used in that module.

``__init__.py`` is exempt: importing names to re-export them is its job.
Importing the package must also stay free of ``scipy.optimize`` and of
``scipy.special``'s package ``__init__``, each of whose imports alone
costs more start-up time than the rest of the package: ``gaussmath``
loads scipy's ``erfc`` and ``ndtri`` from the compiled
``scipy.special._ufuncs`` alone.  Commands that draw no sample must
also leave ``numpy.random`` unloaded.  These checks run in fresh
interpreters, because pytest's own process has imported scipy.special
already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ael

SRC = str(Path(ael.__file__).resolve().parent.parent)
MODULES = sorted(p for p in Path(ael.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def run_python(args) -> str:
    """stdout of ``python *args`` in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_leaves_out_scipy_optimize():
    assert run_python(["-c", "import sys, ael; print('scipy.optimize' in sys.modules)"]) == "False\n"


def test_import_and_solve_ne_leave_out_numpy_random(tmp_path):
    # only the simulator draws samples, and it imports numpy.random then
    code = ("import sys, ael; from ael.cli import main; "
            "assert main(['solve-ne', '-o', sys.argv[1]]) == 0; "
            "print('numpy.random' in sys.modules)")
    assert run_python(["-c", code, str(tmp_path / "ne.csv")]) == "False\n"


# which of scipy.special, its _ufuncs extension and concurrent.futures are
# loaded after `import ael`, and after a solve-ne run
LOADED = """
import sys
import ael
from ael.cli import main

def loaded():
    return [name in sys.modules for name in
            ("scipy.special", "scipy.special._ufuncs", "concurrent.futures")]

print(loaded())
assert main(["solve-ne", "-o", sys.argv[1]]) == 0
print(loaded())
"""


def test_scipy_special_init_is_never_run(tmp_path):
    # asserted on the scipy installed: one that moves _ufuncs out of
    # scipy/special fails here instead of taking the slow path unseen.
    # solve-ne starts no worker pool, so concurrent.futures stays out too
    out = run_python(["-c", LOADED, str(tmp_path / "ne.csv")])
    assert out.splitlines() == ["[False, True, False]"] * 2


ORDER = """
{}
{}
import scipy.special, scipy.stats
from ael import gaussmath
assert gaussmath.erfc is scipy.special.erfc
assert gaussmath.ndtri is scipy.special.ndtri
print(repr(float(scipy.stats.norm.cdf(1.0))))
"""


@pytest.mark.parametrize("first, second", [("import ael", "import scipy.special"),
                                           ("import scipy.special", "import ael")],
                         ids=["ael_first", "scipy_first"])
def test_scipy_special_shares_the_ufuncs_in_either_order(first, second):
    import scipy.stats

    out = run_python(["-c", ORDER.format(first, second)])
    assert float(out) == scipy.stats.norm.cdf(1.0)


# makes the first import of scipy.special._ufuncs fail, which comes after
# gaussmath has put its stand-in scipy.special in place, then writes the
# default solve-ne and simulate CSVs from the fallback's ufuncs
REFUSED = """
import importlib.abc
import importlib.machinery
import sys


class Refuse(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    parent = None  # the scipy.special the refused import was made under

    def find_spec(self, name, path, target=None):
        if name != "scipy.special._ufuncs" or self.parent is not None:
            return None
        self.parent = sys.modules["scipy.special"]
        return importlib.machinery.ModuleSpec(name, self)

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        raise ImportError("refused")


refuse = Refuse()
sys.meta_path.insert(0, refuse)
import ael
from ael import gaussmath
from ael.cli import main

assert refuse.parent is not None and "erfc" not in vars(refuse.parent)
special = sys.modules.get("scipy.special")
assert special is None or special.erfc is gaussmath.erfc
import scipy.special

assert scipy.special is not refuse.parent and hasattr(scipy.special, "logsumexp")
assert scipy.special.erfc is gaussmath.erfc and scipy.special.ndtri is gaussmath.ndtri
assert main(["solve-ne", "-o", sys.argv[1]]) == 0
assert main(["simulate", "-o", sys.argv[2]]) == 0
"""


def test_fallback_writes_the_same_bytes(tmp_path):
    fast = [tmp_path / "ne.csv", tmp_path / "sim.csv"]
    slow = [tmp_path / "ne_fallback.csv", tmp_path / "sim_fallback.csv"]
    run_python(["-m", "ael", "solve-ne", "-o", str(fast[0])])
    run_python(["-m", "ael", "simulate", "-o", str(fast[1])])
    run_python(["-c", REFUSED, *map(str, slow)])
    assert [p.read_bytes() for p in slow] == [p.read_bytes() for p in fast]
