"""Every name a package module imports must be used in that module.

``__init__.py`` is exempt: importing names to re-export them is its job.
Importing the package must also stay free of ``scipy.optimize`` and of
the package ``__init__`` of ``scipy`` and of ``scipy.special``, each of
whose imports costs more start-up time than the rest of the package:
``gaussmath`` loads scipy's ``erfc`` from the compiled
``scipy.special._special_ufuncs`` alone, and ``ndtri`` from
``scipy.special._ufuncs``, under scipy's own ``__init__``, only when
the Monte Carlo first draws; no module loaded under a stand-in package
stays in ``sys.modules``.  Commands that draw no sample must also
leave ``numpy.random`` unloaded.  These checks run in fresh
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


def run_python(args, **env) -> str:
    """stdout of ``python *args`` in a fresh interpreter, with ``env`` added
    to the environment, which must exit 0."""
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC, **env),
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


# which of scipy, scipy._lib, scipy.special, its two ufunc extensions and
# concurrent.futures are loaded after `import ael`, and after each command
LOADED = """
import sys
import ael
from ael.cli import main

def loaded():
    return [name in sys.modules for name in
            ("scipy", "scipy._lib", "scipy.special", "scipy.special._ufuncs",
             "scipy.special._special_ufuncs", "concurrent.futures")]

print(loaded())
for command in ("solve-ne", "optimal-fee", "stats", "payoff-curve", "simulate"):
    assert main([command, "-o", f"{sys.argv[1]}/{command}.csv"]) == 0
    print(loaded())
"""


def test_scipy_special_init_is_never_run(tmp_path):
    # asserted on the scipy installed: one that moves erfc out of
    # _special_ufuncs, or makes it import more of scipy, fails here instead
    # of taking a slower path unseen.  The extension modules loaded under
    # a stand-in scipy.special leave sys.modules with it.  The four
    # commands that draw no sample start no worker pool either, so
    # concurrent.futures stays out
    out = run_python(["-c", LOADED, str(tmp_path)])
    *no_draw, simulate = out.splitlines()
    assert no_draw == ["[False, False, False, False, False, False]"] * 5
    # the first draw loads ndtri's _ufuncs, under scipy's own __init__ but
    # never scipy.special's
    assert simulate.startswith("[True, True, False, False, False, ")


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
                                           ("import scipy.special", "import ael"),
                                           ("import ael", "ael.gaussmath.load_ndtri()")],
                         ids=["ael_first", "scipy_first", "ndtri_first"])
def test_scipy_special_shares_the_ufuncs_in_either_order(first, second):
    import scipy.stats

    out = run_python(["-c", ORDER.format(first, second)])
    assert float(out) == scipy.stats.norm.cdf(1.0)


# under -W error, an in-process solve-ne (and the first draw's ndtri load,
# if asked), then scipy.special's first real import: it shares both ufuncs,
# and binds its extension modules as attributes
BOUND = """
import sys
import ael
from ael import gaussmath
from ael.cli import main

assert main(["solve-ne", "-o", sys.argv[1]]) == 0
{}
import scipy.special

assert scipy.special.erfc is gaussmath.erfc and scipy.special.ndtri is gaussmath.ndtri
print([name in vars(scipy.special) for name in ("_special_ufuncs", "_ufuncs", "_ufuncs_cxx")])
"""


@pytest.mark.parametrize("load, bound", [("", "[True, True, True]"),
                                         ("gaussmath.load_ndtri()", "[True, True, False]")],
                         ids=["erfc_only", "after_ndtri"])
def test_later_scipy_special_binds_its_extensions(tmp_path, load, bound):
    # _ufuncs_cxx, which ndtri's _ufuncs imports, is not bound after ndtri's
    # load: the package reloads _ufuncs from its cached copy, which runs no
    # import of _ufuncs_cxx again
    out = run_python(["-W", "error", "-c", BOUND.format(load), str(tmp_path / "ne.csv")])
    assert out == bound + "\n"


# makes the first import of the extension named by argv[1] fail, which
# comes after gaussmath has put its stand-ins in place, then writes the
# default solve-ne and simulate CSVs from the fallback's ufuncs
REFUSED = """
import importlib.abc
import importlib.machinery
import sys


class Refuse(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    held = None  # scipy and scipy.special as the refused import saw them

    def find_spec(self, name, path, target=None):
        if name != sys.argv[1] or self.held is not None:
            return None
        self.held = [sys.modules.get(n) for n in ("scipy", "scipy.special")]
        return importlib.machinery.ModuleSpec(name, self)

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        raise ImportError("refused")


def never_run(module):
    # running a module's code puts __builtins__ in its namespace
    return "__builtins__" not in vars(module)


def no_stand_in_left():
    return all(sys.modules.get(name) is not held or not never_run(held)
               for name, held in zip(("scipy", "scipy.special"), refuse.held))


refuse = Refuse()
sys.meta_path.insert(0, refuse)
import ael
from ael import gaussmath
from ael.cli import main

at_import = refuse.held is not None
assert at_import is (sys.argv[1] == "scipy.special._special_ufuncs")
special = sys.modules.get("scipy.special")
assert special is None or special.erfc is gaussmath.erfc
assert main(["solve-ne", "-o", sys.argv[2]]) == 0
assert (refuse.held is not None) is at_import  # solve-ne draws no sample
assert main(["simulate", "-o", sys.argv[3]]) == 0
assert refuse.held is not None and no_stand_in_left()
# refused under a stand-in scipy.special, and under a stand-in scipy only
# at import: ndtri's load runs scipy's own __init__
assert [never_run(m) for m in refuse.held] == [at_import, True]
assert "erfc" not in vars(refuse.held[1])
import scipy.special

assert scipy.special is not refuse.held[1] and hasattr(scipy.special, "logsumexp")
assert scipy.special.erfc is gaussmath.erfc and scipy.special.ndtri is gaussmath.ndtri
"""


@pytest.fixture(scope="module")
def fast_csvs(tmp_path_factory):
    """The default solve-ne and simulate CSVs, written on the fast path."""
    out = tmp_path_factory.mktemp("fast")
    paths = [out / "ne.csv", out / "sim.csv"]
    run_python(["-m", "ael", "solve-ne", "-o", str(paths[0])])
    run_python(["-m", "ael", "simulate", "-o", str(paths[1])])
    return [p.read_bytes() for p in paths]


@pytest.mark.parametrize("refused", ["scipy.special._special_ufuncs", "scipy.special._ufuncs"],
                         ids=["erfc_at_import", "ndtri_at_first_draw"])
def test_fallback_writes_the_same_bytes(tmp_path, fast_csvs, refused):
    slow = [tmp_path / "ne_fallback.csv", tmp_path / "sim_fallback.csv"]
    run_python(["-c", REFUSED, refused, *map(str, slow)])
    assert [p.read_bytes() for p in slow] == fast_csvs


# two threads make the process's first estimate_stats calls at once, on two
# workers each, so both reach ndtri's first load together
RACE = """
import os
import sys
import threading

from ael import MarketParams, SimConfig, Strategy, estimate_stats

market = MarketParams(0.1, 1.1, 0.0)
delta = Strategy.constant(0.3, market, 51)
sims = [SimConfig(samples=100_000, seed=seed) for seed in (1, 2)]
barrier = threading.Barrier(2)
reports = [None, None]


def run(i):
    barrier.wait()
    reports[i] = estimate_stats(delta, market, sims[i])


sys.setswitchinterval(1e-5)
try:
    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(0.005)
assert not any(t.is_alive() for t in threads)
# the stand-in scipy.special is gone, and the package's __init__ never ran
assert "scipy.special" not in sys.modules
assert "__builtins__" in vars(sys.modules["scipy"])
os.environ["AEL_THREADS"] = "1"
assert reports == [estimate_stats(delta, market, sim) for sim in sims]
"""


def test_concurrent_first_draws_load_ndtri_once():
    run_python(["-c", RACE], AEL_THREADS="2")
