"""Correctness gate: answers against brute force, runs against each other.

A benchmark that times wrong answers measures nothing, so every run ends
by checking the served tree against a NumPy scan of the logical point set
and by checking that reps which must be identical (same stream replayed
plain, or behind the timing proxies) produced byte-identical simulated output.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from repro.core import Box
from repro.serve.request import DONE

__all__ = ["sim_digest", "check_answers"]

_SAMPLES = 64


def sim_digest(rig, result) -> str:
    """Digest of everything the simulated clock produced in one rep.

    ``LatencyStats.to_json()`` plus the simulator's full counter dict:
    two reps of one stream must agree on every byte of both, whatever
    host-side instrumentation surrounded them.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(result.stats.to_json().encode())
    h.update(json.dumps(rig.adapter.system.stats.to_dict(),
                        sort_keys=True).encode())
    return h.hexdigest()


def check_answers(rig, result, seed: int) -> list[str]:
    """Query the served tree directly and compare with a full scan.

    The logical point set is the initial data plus the payload of every
    insert that ended DONE.  Returns a list of mismatch descriptions
    (empty when the tree is right).  The queries charge the simulator, so
    call this only after the rep's counters have been read.
    """
    tree = rig.adapter.tree
    inserted = [r.payload for r in result.requests
                if r.kind == "insert" and r.status == DONE]
    points = np.vstack([rig.data] + inserted) if inserted else rig.data
    problems = []
    if tree.size != len(points):
        problems.append(f"tree.size {tree.size} != logical {len(points)}")

    rng = np.random.default_rng(seed)
    centers = points[rng.integers(0, len(points), size=2 * _SAMPLES)]
    queries = centers[:_SAMPLES] + rng.normal(scale=1e-4,
                                              size=(_SAMPLES, points.shape[1]))
    k = 10
    for i, (dists, _) in enumerate(tree.knn(queries, k)):
        d = np.sqrt(((points - queries[i]) ** 2).sum(axis=1))
        want = np.sort(d)[:k]
        if len(dists) != len(want) or not np.allclose(
                dists, want, rtol=0.0, atol=1e-9):
            problems.append(f"knn query {i}: distances differ from full scan")

    half = rig.workload.box_side / 2.0
    boxes = [Box(c - half, c + half) for c in centers[_SAMPLES:]]
    for i, (got, box) in enumerate(zip(tree.box_count(boxes), boxes)):
        want = int(((points >= box.lo) & (points <= box.hi)).all(axis=1).sum())
        if int(got) != want:
            problems.append(f"box {i}: count {int(got)} != full scan {want}")
    return problems
