"""Orthogonal range (box) queries: BoxCount and BoxFetch (§4.4).

Both follow the SEARCH structure — push-pull applied level by level at
meta-node granularity — but track every node *intersecting* the query box
rather than a single root-to-leaf path:

* **BoxCount** returns the number of stored points inside the box.  A
  node whose bounding box is contained in the query box contributes its
  exact master count (one word of result traffic); only partially
  overlapping leaves are scanned.
* **BoxFetch** returns the points themselves, so contained subtrees must
  still be walked down to their leaves (``all`` mode skips the box tests)
  and every reported point costs D words of result traffic — which is why
  the paper's Fig. 6 shows BoxFetch-100 dominated by CPU↔PIM transfer
  time.

Counts used for contained subtrees are the exact master counts, not the
lazy snapshots: BoxCount is exact by construction.

Both are one range descent at three sites, each answering in ``("count"
| "pts", value)`` items: the host's L0 walk seeds the batch
(:func:`.vexec.l0_box_seeds`, every box against L0's pre-order table at
once), and below L0 the round kernel runs pushed groups at the modules
and pulled ones on the host, level by level.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

import numpy as np

from .geometry import Box
from .push_pull import PushPullExecutor
from .vexec import l0_box_seeds, make_range_kernel

__all__ = ["box_count_batch", "box_fetch_batch"]

_VALUE = itemgetter(1)  # of a ("count" | "pts", value) item


def _normalize_boxes(tree, boxes) -> tuple[np.ndarray, np.ndarray]:
    """The batch's box corners as ``(Lo, Hi)``, each ``(n, D)``.

    Both are views of one corner stack whose rows run ``lo0, hi0, lo1,
    hi1, …``; seeding and the range kernel read the views.  Non-finite
    corners and inverted boxes (``lo > hi`` in some dimension) are refused
    before anything is charged; a zero-width box (``lo == hi``) is valid.
    """
    if isinstance(boxes, Box):
        boxes = [boxes]
    out = []
    for b in boxes:
        if not isinstance(b, Box):
            lo, hi = b
            b = Box(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))
        if b.dims != tree.dims:
            raise ValueError("box dimensionality mismatch")
        out.append((b.lo, b.hi))
    if not out:
        empty = np.empty((0, tree.dims))
        return empty, empty
    corners = np.array(out)
    if not np.logical_and.reduce(np.isfinite(corners), axis=None):
        raise ValueError("box corners must be finite, got NaN or ±inf")
    Lo, Hi = corners[:, 0], corners[:, 1]
    if (Lo > Hi).any():
        raise ValueError("box lo must not exceed hi in any dimension")
    # Dispatching a box to meta-nodes compares against the corners' Morton
    # keys; encode both corners per query (charged per z-order mode).
    tree.encode_keys(corners.reshape(-1, tree.dims))
    return Lo, Hi


def box_count_batch(tree, boxes) -> np.ndarray:
    """Exact number of stored points in each box."""
    return _box_batch(tree, boxes, fetch=False)


def box_fetch_batch(tree, boxes) -> list[np.ndarray]:
    """All stored points in each box, one ``(m, D)`` array per box."""
    return _box_batch(tree, boxes, fetch=True)


def _box_batch(tree, boxes, *, fetch: bool):
    """One batch of either query: normalize, seed L0, run the range
    kernel below it, collect each box's ``"count"`` or ``"pts"`` items."""
    Lo, Hi = _normalize_boxes(tree, boxes)
    n = len(Lo)
    sys = tree.system
    with sys.phase("boxfetch" if fetch else "boxcount"):
        tasks, seeded = l0_box_seeds(tree, Lo, Hi, fetch=fetch)
        found = seeded.items()
        if tasks:
            executor = PushPullExecutor(tree)
            out = executor.run(tasks, make_range_kernel(tree, Lo, Hi, fetch=fetch))
            tree.last_executor = executor
            found = chain(found, out.items())   # per box, L0's items first
        values: list[list] = [[] for _ in range(n)]
        for qid, items in found:
            values[qid] += map(_VALUE, items)
        if not fetch:
            sys.charge_cpu(n * 2)
            return np.array(list(map(sum, values)), dtype=np.int64)
        answers = []
        for chunks in values:
            if chunks:
                allp = np.vstack(chunks)
                sys.dram_stream(len(allp) * tree.dims)
            else:
                allp = np.empty((0, tree.dims))
            answers.append(allp)
    return answers
