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
"""

from __future__ import annotations

import numpy as np

from .geometry import Box
from .node import Layer, Node
from .push_pull import PushPullExecutor, Task

__all__ = ["box_count_batch", "box_fetch_batch"]

_CPU_BOX_TEST_OPS = 4
_PIM_BOX_TEST_CYCLES = 6


def _normalize_boxes(tree, boxes) -> list[Box]:
    if isinstance(boxes, Box):
        boxes = [boxes]
    out = []
    for b in boxes:
        if not isinstance(b, Box):
            lo, hi = b
            b = Box(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))
        if b.dims != tree.dims:
            raise ValueError("box dimensionality mismatch")
        out.append(b)
    # Dispatching a box to meta-nodes compares against the corners' Morton
    # keys; encode both corners per query (charged per z-order mode).
    if out:
        corners = np.vstack([np.vstack([b.lo, b.hi]) for b in out])
        tree.encode_keys(corners)
    return out


def _classify(tree, node: Node, box: Box) -> str:
    nbox = tree.node_box(node)
    if not box.intersects(nbox):
        return "disjoint"
    if box.contains_box(nbox):
        return "contained"
    return "partial"


def _seed_l0(tree, box: Box, qid: int, tasks: list[Task], *,
             fetch: bool, counts: list[int], chunks: list[np.ndarray]) -> None:
    """Walk the L0 portion on the host; emit border tasks."""
    sys = tree.system
    stack: list[tuple[Node, bool]] = [(tree.root, False)]
    while stack:
        node, skip_test = stack.pop()
        if node.layer != Layer.L0:
            words = 2 * tree.dims + 2  # the box corners + query id/mode
            tasks.append(
                Task(qid, node.meta, node, "all" if skip_test else "test", words)
            )
            continue
        sys.charge_cpu(_CPU_BOX_TEST_OPS)
        sys.touch_cpu_block(("pimzd", "l0", node.nid))
        cls = "contained" if skip_test else _classify(tree, node, box)
        if cls == "disjoint":
            continue
        if cls == "contained":
            if not fetch:
                counts[qid] += node.count
                continue
            if node.is_leaf:
                chunks.append(node.pts)
                continue
            stack.append((node.left, True))
            stack.append((node.right, True))
            continue
        if node.is_leaf:
            mask = box.contains_point(node.pts)
            sys.charge_cpu(node.count * 2 * tree.dims)
            if fetch:
                if mask.any():
                    chunks.append(node.pts[mask])
            else:
                counts[qid] += int(np.count_nonzero(mask))
            continue
        stack.append((node.left, False))
        stack.append((node.right, False))


def _make_handler(tree, boxes: list[Box], *, fetch: bool):
    dims = tree.dims

    def handler(task: Task, ctx) -> None:
        box = boxes[task.qid]
        stack: list[tuple[Node, bool]] = [(task.node, task.payload == "all")]
        total = 0
        collected: list[np.ndarray] = []
        n_pts = 0
        while stack:
            node, skip_test = stack.pop()
            ctx.visit_node(node)
            if skip_test:
                cls = "contained"
            else:
                ctx.extra_work(_CPU_BOX_TEST_OPS, _PIM_BOX_TEST_CYCLES)
                cls = _classify(tree, node, box)
            if cls == "disjoint":
                continue
            if cls == "contained" and not fetch:
                total += node.count
                continue
            if node.is_leaf:
                if cls == "contained":
                    if fetch:
                        collected.append(node.pts)
                        n_pts += node.count
                    continue
                ctx.scan_points(node.count, _SCAN_METRIC, dims)
                mask = box.contains_point(node.pts)
                if fetch:
                    if mask.any():
                        collected.append(node.pts[mask])
                        n_pts += int(mask.sum())
                else:
                    total += int(np.count_nonzero(mask))
                continue
            nxt = cls == "contained"
            for child in (node.left, node.right):
                if ctx.local(child):
                    stack.append((child, nxt))
                else:
                    ctx.emit(
                        Task(task.qid, child.meta, child,
                             "all" if nxt else "test", 2 * dims + 2)
                    )
        if fetch:
            if collected:
                ctx.return_words(n_pts * dims)
                ctx.result(("pts", np.vstack(collected)))
        elif total:
            ctx.return_words(1)
            ctx.result(("count", total))

    return handler


class _ScanCost:
    """Box membership test cost profile (compare-only, like ℓ∞)."""

    name = "boxtest"
    cpu_ops_per_dim = 2
    pim_cycles_per_dim = 2


_SCAN_METRIC = _ScanCost()


def box_count_batch(tree, boxes) -> np.ndarray:
    """Exact number of stored points in each box."""
    boxes = _normalize_boxes(tree, boxes)
    sys = tree.system
    vectorized = tree.config.exec_mode == "vectorized"
    with sys.phase("boxcount"):
        counts = [0] * len(boxes)
        tasks: list[Task] = []
        if vectorized:
            from .vexec import seed_l0_boxes

            seed_l0_boxes(tree, boxes, tasks, fetch=False, counts=counts,
                          chunks_list=[[] for _ in boxes])
        else:
            for qid, box in enumerate(boxes):
                _seed_l0(tree, box, qid, tasks, fetch=False, counts=counts,
                         chunks=[])
        if tasks:
            executor = PushPullExecutor(tree)
            handler = _make_handler(tree, boxes, fetch=False)
            if vectorized:
                from .vexec import make_range_round_kernel

                handler.round_kernel = make_range_round_kernel(
                    tree, boxes, fetch=False
                )
            out = executor.run(tasks, handler)
            tree.last_executor = executor
            for qid, items in out.items():
                for kind, value in items:
                    if kind == "count":
                        counts[qid] += value
        sys.charge_cpu(len(boxes) * 2)
    return np.array(counts, dtype=np.int64)


def box_fetch_batch(tree, boxes) -> list[np.ndarray]:
    """All stored points in each box, one ``(m, D)`` array per box."""
    boxes = _normalize_boxes(tree, boxes)
    sys = tree.system
    vectorized = tree.config.exec_mode == "vectorized"
    with sys.phase("boxfetch"):
        per_query_chunks: list[list[np.ndarray]] = [[] for _ in boxes]
        tasks: list[Task] = []
        if vectorized:
            from .vexec import seed_l0_boxes

            seed_l0_boxes(tree, boxes, tasks, fetch=True,
                          counts=[0] * len(boxes),
                          chunks_list=per_query_chunks)
        else:
            for qid, box in enumerate(boxes):
                _seed_l0(
                    tree, box, qid, tasks, fetch=True, counts=[],
                    chunks=per_query_chunks[qid],
                )
        if tasks:
            executor = PushPullExecutor(tree)
            handler = _make_handler(tree, boxes, fetch=True)
            if vectorized:
                from .vexec import make_range_round_kernel

                handler.round_kernel = make_range_round_kernel(
                    tree, boxes, fetch=True
                )
            out = executor.run(tasks, handler)
            tree.last_executor = executor
            for qid, items in out.items():
                for kind, value in items:
                    if kind == "pts":
                        per_query_chunks[qid].append(value)
        answers = []
        for qid in range(len(boxes)):
            chunks = per_query_chunks[qid]
            if chunks:
                allp = np.vstack(chunks)
                sys.dram_stream(len(allp) * tree.dims)
            else:
                allp = np.empty((0, tree.dims))
            answers.append(allp)
    return answers
