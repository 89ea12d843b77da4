"""The benchmark's per-layer metrics read functions of the package by name
(bench/tracer.py's LAYERS); a renamed or moved function drops its metrics
from the traced result line. This runs the tracer on a small trial and
checks that every per-layer name BENCHMARK.json declares comes back."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

CONFIG = """[run]
scenario = S1
diabetes_type = T1D
cohort_size = 1
seed = 7
days = 15
arms = abba,bba
"""


def _load(monkeypatch, name):
    """bench/<name>.py as module `name`, for this test only."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # nothing new in bench/
    spec.loader.exec_module(module)
    return module


def test_every_declared_per_layer_metric_is_measured(tmp_path, monkeypatch):
    config, stats, out = tmp_path / "run.ini", tmp_path / "stats.json", tmp_path / "out"
    config.write_text(CONFIG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(stats), "--",
                    "run", "--config", str(config), "--out", str(out)],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    _load(monkeypatch, "tracer")                      # run.py imports it
    run = _load(monkeypatch, "run")
    rep = run.Rep(wall_s=1.0, cpu_s=1.0, stats=[json.loads(stats.read_text())],
                  reports={out: (out / "report_T1D.csv").read_bytes()})
    metrics, missing = run.per_layer(rep, rep, rep, 1, 0.0, 1)
    assert missing == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert len(declared) == 44
    assert sorted(metrics) == sorted(m["name"] for m in declared)
