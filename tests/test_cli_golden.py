"""Characterisation goldens for the serving subcommands of ``repro.cli``.

Each case runs ``main([...])`` in-process at a tiny scale and pins the
*whole* stdout plus the ``--out`` JSON document against a text file under
``tests/golden/cli/``.  The serving pipeline behind these commands is
deterministic (simulated clock, seeded streams), so any refactor of how a
session is assembled — seed offsets, calibration, attach order, report
blocks — must leave every file byte-identical.  Only two things are
normalised: temp paths and the sweep's host wall-clock readings.

Regenerate (only when an output change is intended) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib
import re

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "cli"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))

SMALL = ["--n", "3000", "--n-modules", "8", "--requests", "160"]

# A hand-written tuned profile (the shape ``tune search`` emits): three
# non-default knobs, so ``--profile`` runs exercise rebalancer + filters
# + a retuned adaptive batcher through the profile ingestion path.
PROFILE = {
    "format": "repro.tune/profile-1",
    "workload": "uniform",
    "seed": 7,
    "config": {
        "batch.overhead_target": 0.2,
        "rebalance.enabled": True,
        "route.enabled": True,
        "route.fpr": 0.04,
    },
}

CASES = {
    "serve_default": ["serve", *SMALL, "--deadline-ms", "50"],
    "serve_fixed_rate": [
        "serve", *SMALL, "--policy", "fixed", "--fixed-batch", "8",
        "--rate", "20000", "--arrival", "bursty", "--overflow", "shed-oldest",
        "--queue-depth", "32"],
    "serve_tenants_replicas": [
        "serve", *SMALL, "--rate", "30000", "--mix", "knn=0.7,insert=0.3",
        "--tenants", "gold=4,bronze=1", "--replicate", "2",
        "--write-policy", "primary-async", "--staleness-ms", "0.5"],
    "serve_varden_rebalance_filter": [
        "serve", *SMALL, "--dataset", "varden", "--rebalance",
        "--route-filter", "--mix", "knn=0.5,insert=0.2,bc=0.2,bf=0.1"],
    "serve_profile_adapt": [
        "serve", *SMALL, "--rate", "30000", "--profile", "{profile}",
        "--adapt", "--adapt-window", "4"],
    "faults": [
        "faults", *SMALL, "--rate", "30000", "--drop-rate", "0.02",
        "--crash", "3@25", "--timeout-ms", "5"],
    "sweep_inline": [
        "sweep", "--n", "3000", "--n-modules", "8", "--requests", "200",
        "--rate", "30000", "--procs", "1"],
    "tune_apply": [
        "tune", "apply", *SMALL, "--profile", "{profile}", "--rate", "30000"],
    "store_demo_kill": [
        "store", "demo", *SMALL, "--kill-round", "30",
        "--path", "{tmp}/store"],
}


def _normalise(text: str, tmp: pathlib.Path) -> str:
    text = text.replace(str(tmp), "<TMP>")
    # Host wall-clock (sweep only): the table line and the JSON readings.
    text = re.sub(r"^wall clock .*$", "wall clock        <WALL>", text,
                  flags=re.M)
    text = re.sub(r'"wall_s": [-+.e\d]+', '"wall_s": "<WALL>"', text)
    text = re.sub(r'"shard_wall_s": \[[^\]]*\]', '"shard_wall_s": "<WALL>"',
                  text)
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(PROFILE))
    out = tmp_path / "out.json"
    argv = [a.format(profile=profile, tmp=tmp_path) for a in CASES[name]]
    rc = main([*argv, "--out", str(out)])
    stdout = capsys.readouterr().out
    got = _normalise(
        f"$ repro.cli {' '.join(CASES[name])} --out <TMP>/out.json\n"
        f"[exit {rc}]\n{stdout}"
        f"--- out.json ---\n{out.read_text()}\n", tmp_path)

    path = GOLDEN_DIR / f"{name}.txt"
    if REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(got)
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with REGEN_GOLDEN=1 "
        "PYTHONPATH=src python -m pytest tests/test_cli_golden.py")
    assert got == path.read_text(), (
        f"`repro.cli {' '.join(argv)}` output diverges from {path.name}")
