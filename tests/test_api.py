"""The package root exports and the names the benchmark tracer rebinds."""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import dichokit  # noqa: E402
import spans  # noqa: E402


def test_every_exported_name_resolves():
    missing = [name for name in dichokit.__all__ if not hasattr(dichokit, name)]
    assert missing == []


def test_exports_do_not_shadow_submodules():
    for name in ("spectrum", "lyapfun", "evolution", "dichotomy"):
        assert isinstance(getattr(dichokit, name), types.ModuleType), name


def test_every_spanned_name_resolves():
    # the tracer raises on a missing name, and silently counts nothing if one is no longer reached
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans.SPANNED if not hasattr(owner, attr)]
    assert missing == []
