"""The benchmark's tracing patches name attributes that exist in relucells,
so a rename fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_tracing_patches_resolve():
    patches = _patches()
    assert patches
    missing = [
        f"relucells.{module}.{attr}"
        for module, attr, _ in patches
        if not callable(
            getattr(importlib.import_module(f"relucells.{module}"), attr, None)
        )
    ]
    assert not missing, f"tracing patches name missing attributes: {missing}"
