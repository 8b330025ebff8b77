"""Guards on the package surface.

Every exported name must resolve, and the benchmark's traced run, which
wraps module functions from outside the package, must still find every
name it wraps.
"""

import importlib
import pkgutil
from pathlib import Path

import digitseq
from digitseq import catalog

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_resolves():
    assert all(hasattr(digitseq, name) for name in digitseq.__all__)
    for info in pkgutil.iter_modules(digitseq.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        module = importlib.import_module(f"digitseq.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"digitseq.{info.name}.__all__ lists {missing}"


def test_traced_benchmark_wraps_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        catalog.thue_morse_dfao().source("traced").prefix(64)
    finally:
        uninstall()
    assert tracer.stats["numbers.gen"]["calls"] == 1
    assert tracer.stats["numbers.gen"]["symbols"] == 64
