"""Checks on the benchmark itself.  Run explicitly — it is not part of the
tier-1 ``testpaths``::

    python3 -m pytest bench/test_bench.py

Every run here uses ``--scale tiny`` (300 requests per rep).
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import REPO
from bench.measure import END_TO_END_UNITS, EXACT
from bench.workloads import WORKLOADS

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int, seed: int = 7, again: int = 0) -> dict:
    """Result line of one tiny run (``again`` only defeats the cache)."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload,
         "--trace", str(trace), "--seed", str(seed), "--scale", "tiny",
         "--seconds", "2"],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_contract_and_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"])
               for key in ("end_to_end", "per_layer") for m in SPEC[key])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, key):
    doc = tiny_run(workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and 1 <= doc["attempted"] <= 300
    assert ({n: m["unit"] for n, m in doc["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC[key]})
    assert all(isinstance(m["value"], (int, float))
               for m in doc["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_metrics_repeat_and_follow_the_seed(workload):
    first = tiny_run(workload, 0)["metrics"]
    second = tiny_run(workload, 0, again=1)["metrics"]
    other = tiny_run(workload, 0, seed=8)["metrics"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] != other[name]["value"], name


def test_trace_out_is_chrome_trace_json(tmp_path):
    path = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "full_varden_p256",
         "--trace", "1", "--scale", "tiny", "--trace-out", str(path)],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    events = json.loads(path.read_text())["traceEvents"]
    assert events[0]["name"] == "serve.loop.run"
    assert {"name", "ts", "dur", "args"} <= set(events[1])
    assert {"span", "parent", "batch"} == set(events[1]["args"])
    assert {"store.checkpoint", "balance.step", "core.knn"} <= {
        e["name"] for e in events}


def test_without_the_package_under_test_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "knn_uniform_p64",
         "--trace", "0", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
