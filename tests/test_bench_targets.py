"""The benchmark's span targets must name functions the package defines.

``bench/spans.py`` skips a target it cannot find and ``bench/selftest.py``
fails on it; this check catches a removed or renamed function in the
fast test suite instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def span_targets():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(BENCH))
    return layers.TARGETS


@pytest.mark.parametrize("target", span_targets())
def test_span_target_exists(target):
    modname, _, attr_path = target.partition(".")
    module = importlib.import_module(f"ael.{modname}")
    owner_name, _, name = attr_path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert isinstance(owner, type) and name in vars(owner)
    else:
        assert callable(getattr(module, name, None))
