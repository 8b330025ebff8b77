"""Guards on the package surface.

Every exported name must resolve, and the benchmark's traced run, which
wraps module functions from outside the package, must still find every
name it wraps. Every submodule is an attribute of the package. The
models, the machine files and the console load no numpy; `catalog
export`, `--help` and `--version` load no model either; and once
`digitseq.cli` is loaded no command imports anything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import digitseq
from digitseq import catalog
from digitseq.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src"


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
        catalog.get("thue-morse").source("traced").prefix(64)
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


def _fresh(code: str, cwd=None) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter on the package sources."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("module", ["machinefile", "catalog", "console"])
def test_models_files_and_console_load_no_numpy(module):
    r = _fresh(f"import sys, digitseq.{module}\n"
               "print('numpy' in sys.modules)\n")
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr


@pytest.mark.parametrize("args", [["catalog", "export", "--dir", "out"],
                                  ["--help"], ["--version"],
                                  ["catalog", "list"]])
def test_commands_without_a_model_load_no_model(args, tmp_path):
    """`catalog export` and `catalog list` read the catalogue's documents
    as they are, and `--help` and `--version` read the command table
    alone: none of them imports `machinefile` or a model."""
    r = _fresh("import json, runpy, sys\n"
               f"sys.argv = ['digitseq', *{args!r}]\n"
               "try:\n"
               "    runpy.run_module('digitseq', run_name='__main__', "
               "alter_sys=True)\n"
               "except SystemExit as stop:\n"
               "    print(json.dumps([stop.code, sorted(\n"
               "        m for m in sys.modules if m.startswith('digitseq'))]))\n",
               tmp_path)
    code, loaded = json.loads(r.stdout.splitlines()[-1])
    assert code == 0, r.stderr
    assert set(loaded) <= {"digitseq", "digitseq.errors", "digitseq.console",
                           "digitseq.catalog", "digitseq.__main__"}, loaded


def test_every_submodule_is_an_attribute_of_the_package():
    r = _fresh("import pkgutil, sys, digitseq\n"
               "for info in pkgutil.iter_modules(digitseq.__path__):\n"
               "    if info.name != '__main__':  # importing it runs the CLI\n"
               "        module = getattr(digitseq, info.name)\n"
               "        assert module is sys.modules[module.__name__]\n"
               "        assert module.__name__ == f'digitseq.{info.name}'\n"
               "print('ok')\n")
    assert (r.returncode, r.stdout) == (0, "ok\n"), r.stderr


def test_commands_import_nothing_once_cli_is_loaded(tmp_path):
    """A process that imports `digitseq.cli` first, as a profiler or a
    benchmark does, runs every command with no import left to do, so no
    import lands inside a timed command."""
    catalog.export_all(tmp_path)
    commands = [
        ["catalog", "export", "--dir", "out"], ["catalog", "list"],
        ["convert", "--machine", "thue-morse.json", "--output", "tm.json"],
        ["digits", "--machine", "xi2.json", "--count", "64"],
        ["digits", "--machine", "thue-morse.json", "--count", "64"],
        ["digits", "--machine", "xi1.json", "--count", "64"],
        ["digits", "--stream", "surd:2", "--base", "10", "--count", "64"],
        ["digits", "--stream", "rational:1/7", "--base", "3", "--count", "9"],
        ["analyze", "--stream", "xi3", "--dio", "2^2..2^8", "--complexity",
         "1..8", "--right-special", "1..4", "--prefix-length", "2^10"],
        ["analyze", "--machine", "xi1.json", "--growth", "--dilation", "64",
         "--format", "json"],
        ["certify", "--machine", "thue-morse.json", "--output", "tm-c.json"],
        ["certify", "--machine", "xi1.json", "--output", "xi1-c.json"],
        ["certify", "--machine", "xi2.json", "--output", "xi2-c.json"],
        ["certify", "--pair", "10,20", "--stream", "xi3", "--depth", "4"],
        ["verify", "--certificate", "xi2-c.json", "--machine", "xi2.json"],
        ["verify", "--certificate", "xi1-c.json", "--machine", "xi1.json"],
        ["equiv", "--machine", "xi2.json", "--pair", "1,5", "--depth", "6"],
        ["equiv", "--machine", "three-squares.json", "--pair", "0,1"],
        ["imitate", "--stream", "surd:2", "--base", "2", "--states", "2",
         "--len", "16", "--output", "best.json"],
        ["digits", "--machine", "missing.json"],
    ]
    code = ("import io, json, sys\n"
            "from digitseq import cli\n"
            "before, codes = set(sys.modules), []\n"
            f"for args in {commands!r}:\n"
            "    sys.stdout = sys.stderr = io.TextIOWrapper(io.BytesIO())\n"
            "    try:\n"
            "        cli.main.main(args=args, prog_name='digitseq')\n"
            "    except SystemExit as stop:\n"
            "        codes.append(stop.code)\n"
            "sys.stdout = sys.__stdout__\n"
            "print(json.dumps([codes, sorted(set(sys.modules) - before)]))\n")
    r = _fresh(code, tmp_path)
    assert r.returncode == 0, r.stderr
    codes, imported = json.loads(r.stdout)
    assert codes == [0] * (len(commands) - 1) + [2]
    assert imported == []
