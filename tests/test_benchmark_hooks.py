"""The traced benchmark pass wraps engine functions by name; a refactor that
renames or deletes one of them would break that pass without failing any
engine test.  This loads ladderbench/tracing.py by path, without changing
it, and checks that every name it wraps still resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "ladderbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("ladderbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolves(owner, attr) -> bool:
    if isinstance(owner, type):
        return attr in owner.__dict__
    return hasattr(importlib.import_module(owner), attr)


def test_every_traced_target_exists():
    tracing = _load_tracing()
    targets = [(owner, attr) for _, owner, attr, _ in tracing.SPANS] + [(owner, attr) for _, owner, attr in tracing.LEAVES]
    assert ("ladderkit.ladder", "_tower") in targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in targets if not _resolves(owner, attr)]
    assert missing == []
