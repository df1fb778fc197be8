"""Tiny-size smoke test of the benchmark harness (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs for one second in both modes; the test checks that
each metric BENCHMARK.json names is emitted with its unit, that no op
fails, that a repeated traced run reproduces its digest and work counters,
that the benchmark refuses to run without the sources, and that records
with different kernel routes are not compared.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 990001  # used by nothing else, so its stored digests start empty

sys.path.insert(0, HERE)

import compare  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", autouse=True)
def fresh_store():
    for path in glob.glob(os.path.join(HERE, "out", "determinism",
                                       f"*-seed{SEED}-*")):
        os.remove(path)


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_every_metric_is_emitted(workload):
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (0, "end_to_end"),
                           (1, "per_layer"), (1, "per_layer")):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"], done.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for name in units:
            assert name in done.stdout  # the table names every metric


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("search", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_refuses_different_routes():
    def record(impl, routes):
        return {"workload": "search", "trace": 1, "seed": 1, "tasks": 1,
                "digest": "", "metrics": {},
                "kernel": {"implementation": impl, "routes": routes}}

    pure = record("pure", {"pure": 5, "compiled": 0, "int64_fallback": 0})
    assert compare.refusal([pure, pure]) == ""
    assert compare.refusal([pure, record("compiled", None)])
    mixed = record("compiled", {"pure": 0, "compiled": 4, "int64_fallback": 1})
    only = record("compiled", {"pure": 0, "compiled": 5, "int64_fallback": 0})
    assert compare.refusal([mixed, only])
