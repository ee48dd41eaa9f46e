"""Stdlib-only gate over two ``python3 -m bench.run --out`` reports.

Compares the deterministic half of the benchmark ledger between a base
report (the parent commit) and a change report, both taken at the same
seed and scale.  It fails when, on any workload of the base report:

* the change report lacks the workload or marks a run not ``correct``
  (``bench.run`` drops an incorrect run from its report);
* a simulated metric differs at all — every end-to-end or per-layer
  metric whose last dotted component starts with ``sim_``; the simulated
  clock is a pure function of seed and code, so any difference is a
  behaviour change;
* more requests fail than at the base;
* ``py_calls_per_req`` rises by more than 1 %.

Host time is left out on purpose: it is too noisy for a single CI pair
and keeps the ten-pair protocol of CHANGES.md.

Usage:
    python3 scripts/bench_gate.py BASE.json CHANGE.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PY_CALLS_SLACK = 0.01


def _is_sim(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith("sim_")


def compare(base: dict, change: dict) -> list[str]:
    """Human-readable gate failures (empty: the change passes)."""
    problems = []
    for workload, docs in sorted(base["workloads"].items()):
        got = change["workloads"].get(workload)
        if got is None:
            problems.append(f"{workload}: missing or incorrect in the change")
            continue
        for kind, doc in sorted(docs.items()):
            new = got.get(kind)
            if new is None or new.get("correct") is not True:
                problems.append(f"{workload} {kind}: not correct")
                continue
            if new["failed"] > doc["failed"]:
                problems.append(f"{workload} {kind}: failed requests "
                                f"{doc['failed']} -> {new['failed']}")
            for name, m in sorted(doc["metrics"].items()):
                if name not in new["metrics"]:
                    problems.append(f"{workload}: metric {name} missing")
                    continue
                a, b = m["value"], new["metrics"][name]["value"]
                if _is_sim(name) and a != b:
                    problems.append(f"{workload}: {name} {a!r} -> {b!r}")
                elif name == "py_calls_per_req" and b > a * (1 + PY_CALLS_SLACK):
                    problems.append(f"{workload}: py_calls_per_req {a:.3f} -> "
                                    f"{b:.3f} (+{(b - a) / a:.2%})")
    return problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="report of the parent commit")
    p.add_argument("change", type=Path, help="report of the change")
    args = p.parse_args(argv)
    base, change = (json.loads(path.read_text())
                    for path in (args.base, args.change))
    for key in ("seed", "scale"):
        if base.get(key) != change.get(key):
            print(f"error: reports differ in {key}: {base.get(key)!r} vs "
                  f"{change.get(key)!r}")
            return 2
    problems = compare(base, change)
    for line in problems:
        print(f"FAIL {line}")
    for workload in sorted(set(base["workloads"]) & set(change["workloads"])):
        a, b = (r["workloads"][workload]["end_to_end"]["metrics"]
                ["py_calls_per_req"]["value"] for r in (base, change))
        print(f"{workload:20s} py_calls_per_req {a:10.3f} -> {b:10.3f} "
              f"({(b - a) / a:+.2%})")
    print("bench gate: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
