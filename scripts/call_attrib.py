"""Calls per request made inside named functions, on a bench workload.

Serves the head of a ``bench.workloads`` workload's request stream — the
same head ``python3 -m bench.run --trace 0`` serves under cProfile for
``py_calls_per_req`` — under a stdlib ``sys.setprofile`` hook, and prints
for each named function the calls per request made inside its subtree
(its own call included), and that count's share of all calls.  A call
inside several named subtrees counts for the innermost one only, so the
rows are disjoint and add up to at most the total: name one function
alone for its whole subtree.  A name matches a code object's
``co_name``, its ``co_qualname``, or a qualname prefix: ``_Round``
covers every ``_Round`` method and ``make_candidate_kernel`` its inner
``kernel``.

Both profilers count Python calls and calls of C functions and methods,
but the hook sees a few calls cProfile does not (generator resumes count
once per resume, the profiler switch itself), so the total differs from
``py_calls_per_req`` by a little; read the shares, not the absolute
counts, against the ledger.

Usage:
    python3 scripts/call_attrib.py knn_uniform_p64 _ball_descent _Round
    python3 scripts/call_attrib.py W FN... [--seed S] [--scale tiny]
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.workloads import SCALES, WORKLOADS, build_rig  # noqa: E402


def _matcher(names: list[str]):
    """``code -> index into names`` (or ``None``), cached per code object."""
    cache: dict = {}

    def match(code):
        hit = cache.get(code, -1)
        if hit == -1:
            qual = getattr(code, "co_qualname", code.co_name)
            hit = next((i for i, fn in enumerate(names)
                        if fn in (code.co_name, qual)
                        or qual.startswith(fn + ".")), None)
            cache[code] = hit
        return hit

    return match


def attribute(run, names: list[str]) -> tuple[int, list[int]]:
    """Run ``run()`` under the hook: ``(total calls, calls per name)``."""
    match = _matcher(names)
    stack: list[int] = []       # the named frames now running, innermost last
    counts = [0] * len(names)
    total = 0

    def hook(frame, event, arg):
        nonlocal total
        if event == "call":
            total += 1
            i = match(frame.f_code)
            if i is not None:
                stack.append(i)
            if stack:
                counts[stack[-1]] += 1
        elif event == "c_call":
            total += 1
            if stack:
                counts[stack[-1]] += 1
        elif event == "return" and stack and match(frame.f_code) is not None:
            stack.pop()

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return total, counts


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("functions", nargs="+", metavar="FN")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = p.parse_args(argv)

    scale = SCALES[args.scale]
    rig = build_rig(WORKLOADS[args.workload], args.seed, scale)
    try:
        requests = rig.requests[:scale.counted]
        gc.collect()
        total, counts = attribute(lambda: rig.loop.run(requests),
                                  args.functions)
    finally:
        rig.close()
    n = len(requests)
    rest = total - sum(counts)
    print(f"# {args.workload} seed={args.seed} scale={args.scale} "
          f"requests={n}")
    print(f"{'function':32s} {'calls/req':>10s} {'share':>7s}")
    for fn, c in [("(total)", total), *zip(args.functions, counts),
                  ("(elsewhere)", rest)]:
        print(f"{fn:32s} {c / n:10.2f} {c / total:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
