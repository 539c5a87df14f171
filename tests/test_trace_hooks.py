"""The benchmark's tracer (perfbench/layers.py) wraps bigtor's modules and
the class methods it lists by name.  These tests read its lists, without
changing the file, so a refactor that renames or removes a hooked name fails
here instead of breaking a traced benchmark run."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import bigtor

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
SRC = str(pathlib.Path(bigtor.__file__).resolve().parent.parent)

# hooks whose metrics the benchmark reports on by name
PINNED = {
    ("gysin", "GysinData", "induced"),
    ("intlinalg", "SnfSolver", "solve"),
    ("intlinalg", "IntMatrix", "mul"),
    ("koszul_tor", "KoszulComplex", "differential"),
}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_module_imports():
    for name in _layers().MODULES:
        importlib.import_module("bigtor." + name)


def test_every_traced_method_exists():
    methods = _layers().METHODS
    assert PINNED <= {(module, cls, meth) for module, cls, meth, _ in methods}
    for module, cls_name, meth, _ in methods:
        cls = getattr(importlib.import_module("bigtor." + module), cls_name)
        assert meth in cls.__dict__, f"{module}.{cls_name}.{meth}"
    differential = importlib.import_module("bigtor.koszul_tor").KoszulComplex.__dict__["differential"]
    assert hasattr(differential, "cache_info")  # read for koszul_tor.differential.misses


def test_installed_tracer_sees_lazily_imported_layers():
    # in a child process, because install() rebinds names in bigtor's modules;
    # the commands import koszul_tor and gysin inside their handlers, so this
    # shows that those layers are still traced and no per-layer metric reads 0
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from layers import Tracer; "
        "tracer = Tracer().install(); from bigtor import cli; "
        "codes = [cli.main([command, '--input', sys.argv[2], '--max-degree', '4', '--json']) "
        "for command in ('tor', 'check-free', 'gysin')]; "
        "report = tracer.report(); "
        "print(codes, *(report[name] for name in sys.argv[3:]))"
    )
    data = pathlib.Path(__file__).resolve().parent / "data" / "cp1cp1.tcx"
    counts = (
        "koszul_tor.tor_table.calls",
        "koszul_tor.verdicts.calls",
        "gysin.GysinData.induced.calls",
        "koszul_tor.differential.misses",
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(LAYERS.parent), str(data), *counts],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[-1]
    assert line.startswith("[0, 0, 0] ")
    tor_calls, verdict_calls, induced, misses = map(int, line.split("] ")[1].split())
    assert tor_calls == 2 and verdict_calls == 1
    assert induced > 0 and misses > 0
