"""``python3 -m bench.run`` — the benchmark's one command.

Two forms:

* ``--workload W --trace 0|1 [--seed S] [--seconds T]`` runs one workload
  in this process and ends with one JSON result line: the end-to-end
  metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.
* without ``--trace`` it runs that form in a subprocess per workload and
  trace mode (so ``peak_rss_mb`` is per workload), prints every metric by
  name and unit, and with ``--check-repeat`` measures the end-to-end set
  twice and holds the two against the bounds in ``BENCHMARK.json``.

Any correctness failure ends in a non-zero exit with no metrics printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import REPO


def _spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _parser(spec: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python3 -m bench.run",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   help="one workload (default: all of them)")
    p.add_argument("--seed", type=int, default=7,
                   help="dataset, placement and request seeds derive from it")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="host seconds of timed reps per run")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="run in-process and end with the JSON result line")
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--out", type=Path, help="write the report as JSON")
    p.add_argument("--trace-out", type=Path,
                   help="write the traced rep's spans as Chrome trace JSON")
    p.add_argument("--check-repeat", action="store_true",
                   help="measure the end-to-end set twice, compare to bounds")
    return p


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def _run_one(args, spec: dict) -> int:
    try:
        import repro  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import the package under test from "
              f"{REPO / 'src'}: {e}", file=sys.stderr)
        return 2
    from .measure import run_traced, run_untraced
    from .workloads import SCALES, WORKLOADS

    w, scale = WORKLOADS[args.workload], SCALES[args.scale]
    if args.trace:
        out = run_traced(w, args.seed, scale, args.trace_out)
        declared = spec["per_layer"]
    else:
        out = run_untraced(w, args.seed, args.seconds, scale)
        declared = spec["end_to_end"]
    if out.problems:
        for problem in out.problems:
            print(f"INCORRECT {w.name}: {problem}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in out.metrics]
    if missing:
        print(f"error: declared but not measured: {missing}", file=sys.stderr)
        return 1

    print(f"# {w.name} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} attempted={out.attempted} failed={out.failed}")
    for name, (value, unit) in {**out.metrics, **out.notes}.items():
        print(f"{name:42s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": out.metrics[m["name"]][0],
                                "unit": out.metrics[m["name"]][1]}
                    for m in declared},
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, one subprocess per run
# ----------------------------------------------------------------------
def _spawn(args, workload: str, trace: int) -> dict | None:
    """Run the single-workload form; its parsed result line, or None."""
    cmd = [sys.executable, "-m", "bench.run", "--workload", workload,
           "--trace", str(trace), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale]
    if trace and args.trace_out is not None:
        path = args.trace_out
        if args.workload is None:
            path = path.with_name(f"{path.stem}.{workload}{path.suffix}")
        cmd += ["--trace-out", str(path)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"FAILED {workload} (trace {trace}): exit {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_metrics(title: str, doc: dict) -> None:
    print(f"== {title}: attempted {doc['attempted']}, failed {doc['failed']}")
    for name, m in doc["metrics"].items():
        print(f"  {name:42s} {m['value']:16.6f} {m['unit']}")


def _report(args, names: list[str]) -> int:
    report = {"seed": args.seed, "scale": args.scale, "workloads": {}}
    status = 0
    for name in names:
        docs = {kind: _spawn(args, name, trace)
                for kind, trace in (("end_to_end", 0), ("per_layer", 1))}
        if None in docs.values():
            status = 1
            continue
        _print_metrics(f"{name} end to end", docs["end_to_end"])
        _print_metrics(f"{name} per layer", docs["per_layer"])
        report["workloads"][name] = docs
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
    return status


def _check_repeat(args, spec: dict, names: list[str]) -> int:
    from .measure import EXACT

    sets = []
    for _ in range(2):
        docs = {name: _spawn(args, name, 0) for name in names}
        if None in docs.values():
            return 1
        sets.append(docs)
    status = 0
    print(f"{'workload':20s} {'metric':24s} {'first':>16s} {'second':>16s} "
          f"{'change':>9s} {'bound':>7s}")
    for name in names:
        for m in spec["end_to_end"]:
            a, b = (s[name]["metrics"][m["name"]]["value"] for s in sets)
            exact = m["name"] in EXACT
            ok = a == b if exact else abs(b - a) <= m["bound"] * a
            status |= not ok
            print(f"{name:20s} {m['name']:24s} {a:16.6f} {b:16.6f} "
                  f"{(b - a) / a:+9.4f} {'exact' if exact else m['bound']:>7} "
                  f"{'pass' if ok else 'FAIL'}")
        failed = [s[name]["failed"] for s in sets]
        ok = failed[0] == failed[1]
        status |= not ok
        print(f"{name:20s} {'failed':24s} {failed[0]:16d} {failed[1]:16d} "
              f"{'':9s} {'exact':>7} {'pass' if ok else 'FAIL'}")
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        spec = _spec()
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    args = _parser(spec).parse_args(argv)
    if args.trace is not None:
        if args.workload is None:
            print("error: --trace needs --workload", file=sys.stderr)
            return 2
        return _run_one(args, spec)
    names = ([args.workload] if args.workload is not None
             else [w["name"] for w in spec["workloads"]])
    if args.check_repeat:
        return _check_repeat(args, spec, names)
    return _report(args, names)


if __name__ == "__main__":
    sys.exit(main())
