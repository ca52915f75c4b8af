"""Smoke test of the benchmark harness: every workload runs a few ops, plain
and traced, on freshly generated inputs, and every op passes its checks.

There is no timing bound.  The test only reads ``perfbench/``: inputs and
results go to a temporary directory and no bytecode is cached, so a rename
in the library that breaks the harness (for instance of a method that
layertrace.py counts) fails here first.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
OPS = 3
# per-layer names that count a method, not a function of the layer
COUNTERS = {"terms.tgraph_contains", "terms.mapping_get"}


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


GEN = _load_gen()


def _run_child(workload: str, inputs: Path, mode: str, result: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), workload, str(inputs), mode, str(OPS), str(result)],
        env=env,
        cwd=inputs.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(GEN.WORKLOADS))
def test_workload_runs_plain_and_traced(workload, tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, text in GEN.generate(workload, 1).items():
        (inputs / name).write_text(text, encoding="utf-8")

    plain = _run_child(workload, inputs, "plain", tmp_path / "plain.json")
    assert plain["ops"] == OPS
    assert plain["failures"] == {}

    traced = _run_child(workload, inputs, "traced", tmp_path / "traced.json")
    assert traced["ops"] == OPS
    assert traced["failures"] == {}
    assert "terms.tgraph_contains" in traced["counts"]
    assert "terms.mapping_get" in traced["counts"]


def _public_functions(layer: str) -> set[str]:
    module = importlib.import_module(f"wdsparql.{layer}")
    return {
        name
        for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
    }


def test_benchmark_per_layer_names_resolve():
    """Every per-layer metric of BENCHMARK.json names a layer, or a public
    function its layer defines, that the tracer can wrap."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for row in spec["per_layer"]:
        name = row["name"]
        layer, what, *stat = name.split(".")
        if name == "trace.overhead_ratio" or f"{layer}.{what}" in COUNTERS:
            continue
        if not stat:
            assert what == "self_s", name
            assert _public_functions(layer), name
        else:
            assert len(stat) == 1, name
            assert what in _public_functions(layer), name
