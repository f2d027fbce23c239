"""Smoke tests of the benchmark itself, on reduced passes (under a minute).

    python3 -m pytest -q perfbench/test_smoke.py

They are not part of the repository's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
CHEAP = {"fdim_metab", "filiform4"}
REPORTED = {"setup_s": "s", "wall_s": "s", "raw_setup_s": "s", "raw_wall_s": "s",
            "ref_setup_s": "s", "ref_wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
            "peak_rss_mb": "MB", "resolved_ratio": "ratio", "fail_ratio": "ratio"}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def reduced(command) -> bool:
    return command.entry in CHEAP


def values(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_pass_prints_every_end_to_end_metric(workload):
    result, lines = run.measure(workload, 0, 1, False, keep=reduced)
    assert result["correct"], lines
    assert result["attempted"] > 0 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert units.items() <= REPORTED.items()
    for name, unit in REPORTED.items():
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert all(v > 0 for v in values(result).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_wall_less_benchmark_time(workload):
    result, lines = run.measure(workload, 0, 1, True, keep=reduced)
    assert result["correct"], lines
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    m = values(result)
    self_total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert self_total == pytest.approx(m["trace.wall_s"] - m["trace.bench_s"], rel=1e-6)
    assert 0 <= m["trace.bench_s"] < 0.1 * m["trace.wall_s"]
    assert m["cli.calls"] == result["attempted"] // 2


def test_pair_answers_both_sides_and_ends_its_workers():
    argv = ["cohomology", "catalog:filiform4", "--degree", "2"]
    with run.Pair() as pair:
        prog, ref = pair.ask({"op": "run", "argv": argv})
        assert prog["code"] == ref["code"] == 0
        assert prog["seconds"] > 0 and ref["seconds"] > 0
        assert pair.ask({"op": "rss"})[0]["peak_rss_mb"] > 0
    assert all(proc.returncode == 0 for proc in pair.procs)


def test_uninstall_restores_every_patched_name():
    names = [f"sympla.{layer}" for layer in LAYERS]
    mods = [importlib.import_module(n) for n in names]
    before = [dict(vars(m)) for m in mods]
    classes = [mods[LAYERS.index("exactla")].Matrix, mods[LAYERS.index("exactla")].Subspace,
               mods[LAYERS.index("liealg")].LieAlgebra]
    class_before = [dict(vars(c)) for c in classes]
    tracer = Tracer()
    tracer.install()
    assert any(vars(m) != b for m, b in zip(mods, before))
    tracer.uninstall()
    for m, b in zip(mods, before):
        assert all(vars(m)[k] is v for k, v in b.items())
    for c, b in zip(classes, class_before):
        assert all(vars(c)[k] is v for k, v in b.items())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
