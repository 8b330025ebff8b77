"""Guards on the package surface.

Every exported name must resolve, and the benchmark's traced run, which
wraps module functions from outside the package, must still find every
name it wraps.
"""

import importlib
import pkgutil
from pathlib import Path

from click.testing import CliRunner

import digitseq
from digitseq import catalog
from digitseq.cli import main

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


def test_traced_benchmark_wraps_every_layer(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        catalog.thue_morse_dfao().source("traced").prefix(64)
        gen = dict(tracer.stats["numbers.gen"])
        catalog.export_all(tmp_path)
        r = CliRunner().invoke(main, [
            "analyze", "--machine", str(tmp_path / "thue-morse.json"),
            "--dio", "2^4..2^6", "--complexity", "1..4",
            "--right-special", "1..3", "--prefix-length", "256"])
    finally:
        uninstall()
    assert gen["calls"] == 1
    assert gen["symbols"] == 64
    assert r.exit_code == 0, r.output
    for span in ("words.dio", "words.best_repetition", "words.complexity",
                 "words.right_special"):
        assert tracer.stats[span]["calls"] > 0, span
    # one sorted-window index serves the whole --right-special range
    assert tracer.stats["words.right_special"]["calls"] == 1
