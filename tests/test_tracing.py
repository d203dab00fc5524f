"""The benchmark's tracer (perfbench/tracing.py) wraps the package's public
functions, and a listed set of methods by name, from outside the package.
Installing and uninstalling it here catches a rename that would break it, and
checks that every original comes back."""

import importlib
import sys
from pathlib import Path

import harmsum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracing_install_then_uninstall_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        mods = [harmsum] + [importlib.import_module(f"harmsum.{m}") for m in tracing.MODULES]
        classes = [
            getattr(importlib.import_module(f"harmsum.{m}"), cls)
            for m, cls, _, _ in tracing.METHODS
        ]
        owners = mods + classes
        before = [dict(vars(owner)) for owner in owners]
        patches = tracing.install(tracing.Tracer())
        try:
            assert patches
            assert all(vars(owner)[attr] is not orig for owner, attr, orig in patches)
        finally:
            tracing.uninstall(patches)
        for owner, old in zip(owners, before):
            now = dict(vars(owner))
            assert now.keys() == old.keys()
            assert [k for k in old if now[k] is not old[k]] == [], owner
    finally:
        for name in ("tracing", "exact"):
            sys.modules.pop(name, None)
