"""The PIM Model simulator: host CPU + P modules executing in BSP rounds.

This is the substrate standing in for the UPMEM server (see DESIGN.md).
The simulator is *functional*: the canonical index lives in host memory and
every algorithm runs as ordinary Python, but each step declares where it
would execute (CPU or a specific module) and what it would transfer, and
the simulator accounts for it exactly as the PIM Model defines:

* **CPU work/span** — ``charge_cpu``; CPU↔DRAM traffic flows through an
  LRU LLC model (``touch_cpu_blocks`` / ``dram_stream``).
* **PIM time and communication** — within a BSP :meth:`round`, every
  module charge is an element of a :meth:`charge_sequence` call: PIM
  cycles, a CPU → module send or a module → CPU recv.  At round close
  the *maximum* over modules of the cycles is added (stragglers determine
  round completion, §2.1), words are counted in total and per module,
  and two mux switches (CPU→PIM and PIM→CPU handover [54]).

Phases (:meth:`phase`) label charges for the Fig. 6 runtime breakdown;
attribution is decided *at charge time*: work/communication charged while a
phase is active is booked to that phase even when the enclosing BSP round
closes under a different phase, and a round that touched no module charges
nothing (no round, no mux switch).  Placement (:meth:`place`) is the
hash-based randomisation of §3: a salted deterministic hash, so layouts are
reproducible under a fixed seed yet adversary-oblivious.

An optional :class:`repro.obs.TraceCollector` (``tracer=`` /
:meth:`attach_tracer`) observes every charge and round close; with none
attached the per-charge cost is a single ``is None`` test and the counters
are byte-identical to an untraced run.

All per-module state lives in NumPy arrays, one slot per module
(:class:`~repro.pim.vector.VectorState`): :meth:`charge_sequence` books a
round's charges with a few ``np.add.at`` calls and a round closes with a
handful of array reductions.  The counters themselves are one array
ledger (:class:`PIMStats`): every writer adds into the total row and the
current phase's row, which :meth:`phase` resolves once at entry.
``tests/sim_oracle.py`` keeps the same machine as one Python object per
module and one ``PhaseCounters`` per phase, charged element by element;
the differential suites hold the two to byte-identical :class:`PIMStats`.

An optional :class:`repro.faults.FaultPlan` (``fault_plan=`` /
:meth:`attach_faults`) injects seeded faults at the charging sites:
charges addressed to a decommissioned module raise
:class:`~repro.faults.ModuleFailure`, transfers may be dropped
(:class:`~repro.faults.MessageLoss`, raised before the words are
charged), straggler slowdowns multiply PIM cycles, and each
round close advances the plan's crash/storm schedule.  With no plan
attached (and no dead modules) every fault check is a single ``is None``
or empty-set test and the counters are byte-identical to a fault-free
run.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from functools import partial, partialmethod
from operator import methodcaller

import numpy as np

from ..faults.errors import MachineKill, MessageLoss, ModuleFailure
from .cache import LRUCache
from .stats import (COMM_MAX_WORDS, COMM_WORDS, CPU_OPS, CPU_SPAN, DRAM_WORDS,
                    MODULE_ROUNDS, PIM_CYCLES, ROUNDS, PIMStats)
from .vector import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND, ModuleView, VectorState

__all__ = ["PIMSystem", "CHARGE_PIM", "CHARGE_SEND", "CHARGE_RECV"]

_WORDS_PER_BLOCK = 8  # 64-byte cache blocks


def _canonical_key(key):
    """Reduce a placement key to a NumPy-free canonical form.

    Placement hashes ``repr(key)``, and NumPy ≥ 2.0 changed scalar reprs
    (``repr(np.int64(5))`` became ``"np.int64(5)"``), so a NumPy scalar
    leaking into a key would move the key to a different module than the
    equal Python scalar — making layouts, comm counters and golden stats
    depend on the NumPy version and on which caller's dtype reached the
    key.  Integral and floating scalars are therefore collapsed onto their
    exact Python equivalents, and containers are canonicalised recursively.
    """
    if type(key) in (int, str, bytes, bool):
        return key
    if isinstance(key, (tuple, list)):
        return tuple(_canonical_key(k) for k in key)
    if isinstance(key, np.bool_):
        return bool(key)
    if isinstance(key, (np.integer, int)):
        return int(key)
    if isinstance(key, (np.floating, float)):
        return float(key)
    if isinstance(key, np.str_):
        return str(key)
    if isinstance(key, np.bytes_):
        return bytes(key)
    return key


class _PhaseScope:
    """The scope :meth:`PIMSystem.phase` returns: relabels on entry
    (unless a pinned phase is active and this one is not pinned) and
    restores the outer label and its ledger row on exit."""

    __slots__ = ("_sys", "_label", "_pin", "_outer")

    def __init__(self, system: "PIMSystem", label: str, pin: bool) -> None:
        self._sys, self._label, self._pin = system, label, pin
        self._outer = None

    def __enter__(self) -> None:
        s = self._sys
        if s._pin_depth and not self._pin:
            return
        self._outer = (s._phase, s._row)
        if self._pin:
            s._pin_depth += 1
        s._phase = label = self._label
        s._row = s.stats._rows.get(label, -1)

    def __exit__(self, *exc) -> bool:
        if self._outer is not None:
            s = self._sys
            s._phase, s._row = self._outer
            self._outer = None
            if self._pin:
                s._pin_depth -= 1
        return False


class _RoundScope:
    """The scope :meth:`PIMSystem.round` returns (one per system, as
    rounds cannot nest): opens a BSP round and closes it on exit, booking
    it if it touched a module."""

    __slots__ = ("_sys",)

    def __init__(self, system: "PIMSystem") -> None:
        self._sys = system

    def __enter__(self) -> None:
        s = self._sys
        if s._in_round:
            raise RuntimeError("BSP rounds cannot nest")
        if s._machine_dead:
            raise MachineKill(s._rounds_charged)
        s._in_round = True
        s._round_entry_phase = s._phase

    def __exit__(self, *exc) -> bool:
        s = self._sys
        s._in_round = False
        mids = s._vec.dirty.nonzero()[0]  # ascending module ids
        if mids.size:
            s._close_round(mids)
        return False


class PIMSystem:
    """A host CPU plus ``n_modules`` PIM modules (the PIM Model, Fig. 2)."""

    def __init__(
        self,
        n_modules: int,
        *,
        llc_bytes: int = 22 * 2**20,
        module_capacity_words: int | None = None,
        seed: int = 0,
        tracer=None,
        fault_plan=None,
    ) -> None:
        if n_modules < 1:
            raise ValueError("need at least one PIM module")
        self.n_modules = int(n_modules)
        self._vec = VectorState(self.n_modules, module_capacity_words)
        self.modules = self._vec.views
        self.llc = LRUCache(max(1, llc_bytes // 64), words_per_block=_WORDS_PER_BLOCK)
        self.stats = PIMStats()
        self.seed = seed
        self._salt = str(seed).encode()
        self._phase = "other"  # the innermost active phase label
        # Its ledger row, resolved when the phase is entered; -1 until the
        # label has one (a label gets its row on its first booking).
        self._row = -1
        self._pin_depth = 0  # >0: inner phase() calls do not relabel
        self._in_round = False
        self._round_scope = _RoundScope(self)
        self._round_entry_phase = "other"
        self._rounds_charged = 0  # non-empty rounds closed so far
        self._trace = tracer
        self._faults = fault_plan
        self._dead: set[int] = set()  # decommissioned module ids
        self._live = list(range(self.n_modules))  # the others, ascending
        # Whole-machine kill: set by a "machine_kill" fault event at round
        # close; the *next* round entry raises MachineKill (the last round
        # books normally — its results were already on the wire).
        self._machine_dead = False
        # Outcome of the most recent broadcast: (delivered_mids,
        # dropped_mids) as tuples in module-id order.  Under a drop-prone
        # fault plan the fan-out is atomic per module: every live module
        # is attempted, losses are recorded here (and on the raised
        # MessageLoss), and nothing is left half-attempted.
        self.last_broadcast: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        # Persistent placement overrides (repro.balance migrations): maps
        # the canonical key encoding to a module id.  Consulted by place()
        # before the salted hash; an override whose target died is ignored
        # (the deterministic fault-rehash path takes over), so migration
        # and failover compose.  Empty by default — one truthiness test on
        # the hot path, byte-identical placement when no migration ran.
        self._place_overrides: dict[bytes, int] = {}
        # Bumped whenever residency is changed out of band (decommission
        # zeroes a module): a listener that books words by difference
        # must re-book from scratch under a new epoch.
        self.residency_epoch = 0
        self._capacity_watch = module_capacity_words is not None

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The attached :class:`repro.obs.TraceCollector`, or ``None``."""
        return self._trace

    def attach_tracer(self, tracer) -> None:
        """Attach a trace collector (replaces any previous one).

        For exact reconciliation against :attr:`stats`, attach before any
        charge — or diff the stats against a snapshot taken now.
        """
        self._trace = tracer

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    @property
    def fault_plan(self):
        """The attached :class:`repro.faults.FaultPlan`, or ``None``."""
        return self._faults

    def attach_faults(self, plan) -> None:
        """Attach a fault plan (replaces any previous one)."""
        self._faults = plan

    @property
    def dead_modules(self) -> frozenset[int]:
        """Ids of decommissioned modules."""
        return frozenset(self._dead)

    @property
    def n_live(self) -> int:
        """Number of modules still in service."""
        return self.n_modules - len(self._dead)

    @contextmanager
    def faults_suppressed(self):
        """No new fault injection inside the block (recovery/repair paths).

        Dead-module checks stay in force — a decommissioned module can
        never be charged — but drops, crashes and storms are paused, so
        repair traffic always completes.
        """
        plan = self._faults
        if plan is None:
            yield
            return
        prev = plan.paused
        plan.paused = True
        try:
            yield
        finally:
            plan.paused = prev

    def decommission(self, mid: int) -> None:
        """Mark module ``mid`` dead: it holds nothing and accepts no charge.

        Idempotent.  Placement (:meth:`place`) excludes dead modules from
        here on; residency is zeroed (the master copies are gone — the
        host-resident canonical index is the source for any rebuild).
        """
        mid = int(mid)
        if mid in self._dead:
            return
        if self.n_live <= 1:
            raise RuntimeError("cannot decommission the last live module")
        self._dead.add(mid)
        self._live.remove(mid)
        v = self._vec
        v.failed[mid] = True
        v.master_words[mid] = 0.0
        v.cache_words[mid] = 0.0
        self.residency_epoch += 1

    def _notify_fault(self, event) -> None:
        if self._trace is not None:
            on_fault = getattr(self._trace, "on_fault", None)
            if on_fault is not None:
                on_fault(self.current_phase, event)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, key) -> int:
        """Deterministic salted-hash placement of ``key`` onto a module.

        Keys are canonicalised first (NumPy scalars → Python scalars,
        containers recursively) so placement is independent of the caller's
        dtype and of the installed NumPy version's repr conventions.

        Placement overrides (recorded by ``repro.balance`` migrations via
        :meth:`set_placement_override`) take precedence over the hash while
        their target module is live; a dead target falls through to the
        hash-plus-rehash path below, so an override never routes to a
        decommissioned module and fault recovery composes with migration.

        Dead modules are excluded by deterministic rehashing: attempt 0 is
        the plain salted hash (byte-identical to the fault-free layout),
        and each further attempt mixes an attempt counter into the digest
        until a live module is hit — so failover re-placement is itself a
        pure function of (key, seed, dead set, overrides).
        """
        data = repr(_canonical_key(key)).encode()
        if self._place_overrides:
            mid = self._place_overrides.get(data)
            if mid is not None and mid not in self._dead:
                return mid
        digest = hashlib.blake2b(
            data, key=self._salt[:16], digest_size=8
        ).digest()
        mid = int.from_bytes(digest, "little") % self.n_modules
        if not self._dead:
            return mid
        attempt = 0
        while mid in self._dead:
            attempt += 1
            digest = hashlib.blake2b(
                data + b"#retry%d" % attempt, key=self._salt[:16], digest_size=8
            ).digest()
            mid = int.from_bytes(digest, "little") % self.n_modules
        return mid

    def place_batch(self, head: tuple, ids: list[int]) -> np.ndarray:
        """:meth:`place` of the key ``(*head, i)`` for every int ``i`` in
        ``ids``, in one pass: the keys' ``repr`` bytes are formatted
        directly after ``head``'s, hashed with one ``map``, and reduced
        modulo ``P`` as one array.  A key with a placement override, or
        whose hash lands on a dead module, is placed by :meth:`place`.
        """
        prefix = repr(_canonical_key((*head, 0))).encode()[:-2]
        data = [prefix + b"%d)" % i for i in ids]
        hasher = partial(hashlib.blake2b, key=self._salt[:16], digest_size=8)
        digests = b"".join(map(methodcaller("digest"), map(hasher, data)))
        mids = (np.frombuffer(digests, dtype="<u8")
                % np.uint64(self.n_modules)).astype(np.intp)
        if self._place_overrides or self._dead:
            again = np.isin(mids, list(self._dead))
            if self._place_overrides:
                again |= np.fromiter(map(self._place_overrides.__contains__,
                                         data), dtype=bool, count=len(data))
            for j in np.flatnonzero(again).tolist():
                mids[j] = self.place((*head, ids[j]))
        return mids

    def set_placement_override(self, key, mid: int) -> None:
        """Pin ``key``'s placement to module ``mid`` (migration routing).

        The override persists across rechunks and failovers: any later
        :meth:`place` call with the same (canonicalised) key routes to
        ``mid`` while it is live, and falls back to the deterministic
        rehash once it dies.  Host-side control-plane state: recording an
        override charges nothing.
        """
        mid = int(mid)
        if not 0 <= mid < self.n_modules:
            raise ValueError(f"override target {mid} out of range")
        if mid in self._dead:
            raise ValueError(f"cannot pin placement to dead module {mid}")
        self._place_overrides[repr(_canonical_key(key)).encode()] = mid

    def _capacity_pressure(self, module: ModuleView) -> None:
        """A residency change took ``module`` past ``capacity_words`` — record it.

        Capacity pressure is *recorded*, never booked (like fault events):
        the event reaches an attached ``repro.obs`` collector so dashboards
        and the rebalance planner can see it, but no counter moves, so
        reconciliation stays bit-exact.
        """
        if self._trace is not None:
            on_capacity = getattr(self._trace, "on_capacity", None)
            if on_capacity is not None:
                on_capacity(
                    self.current_phase, module.mid,
                    module.used_words, float(module.capacity_words),
                )

    def over_capacity_modules(self) -> list[int]:
        """Ids of live modules whose residency exceeds ``capacity_words``.

        These are mandatory migration sources for the
        :class:`repro.balance` planner.
        """
        return [
            m.mid for m in self.modules if not m.failed and m.over_capacity()
        ]

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        return self._phase

    def phase(self, label: str, *, pin: bool = False) -> "_PhaseScope":
        """Attribute subsequent charges to ``label`` (nested: innermost wins).

        With ``pin=True`` the label also *wins against its descendants*:
        while a pinned phase is active, inner unpinned ``phase()`` calls
        are no-ops, so code that normally books under its own labels
        ("insert", "wal", …) books under the pinned one instead.  Used by
        the durable tier's recovery path, which replays journaled batches
        through the ordinary operation code but must land every charge in
        the "recovery" bucket.
        """
        return _PhaseScope(self, label, pin)

    def _resolve_row(self) -> int:
        """The current phase's ledger row, added on its first booking."""
        self._row = r = self.stats.add_row(self._phase)
        return r

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------
    def charge_cpu(self, ops: float, span: float = 0.0) -> None:
        """Charge CPU work (instructions across all threads) and span."""
        r = self._row
        if r < 0:
            r = self._resolve_row()
        views = self.stats._views
        t, p = views[0], views[r]
        t[CPU_OPS] += ops
        t[CPU_SPAN] += span
        p[CPU_OPS] += ops
        p[CPU_SPAN] += span
        if self._trace is not None:
            self._trace.on_cpu(self._phase, ops, span)

    def touch_cpu_blocks(self, block_ids) -> None:
        """CPU accesses to 64-byte blocks, in order, charged in one call.

        The LLC sees the ids in turn (:meth:`LRUCache.touch_many`); every
        miss costs one block of DRAM traffic, booked (and traced) as one
        increment for the whole call.
        """
        misses = self.llc.touch_many(block_ids)
        if misses:
            words = misses * _WORDS_PER_BLOCK
            self._book_dram(words)
            if self._trace is not None:
                self._trace.on_dram(self._phase, words, streamed=False)

    def dram_stream(self, words: float) -> None:
        """Streaming (non-cached) CPU↔DRAM transfer of ``words`` words."""
        self.llc.streamed_words += int(words)
        self._book_dram(words)
        if self._trace is not None:
            self._trace.on_dram(self._phase, words, streamed=True)

    def _book_dram(self, words: float) -> None:
        r = self._row
        if r < 0:
            r = self._resolve_row()
        views = self.stats._views
        views[0][DRAM_WORDS] += words
        views[r][DRAM_WORDS] += words

    # ------------------------------------------------------------------
    # BSP rounds / PIM side
    # ------------------------------------------------------------------
    def round(self) -> "_RoundScope":
        """One BSP round: PIM execution + CPU↔PIM transfers.

        At close, the straggler's cycles (max over modules) are added to
        PIM time; communication is totalled and its per-module maximum
        recorded (the channel to one module is the bottleneck link).

        Attribution is decided at charge time: the straggler's cycles and
        every module's words are booked to the phases under which they were
        charged (round-level scalars — the round itself and its DMA module
        rounds — go to the phase active at round *entry*).  A round that
        touched no module is a no-op: no round, no mux switch, no charge.
        """
        return self._round_scope

    def _close_round(self, mids) -> None:
        """Book one non-empty BSP round into the stats (and the trace);
        ``mids`` are the touched modules, ascending."""
        self._book_round(mids)
        self._rounds_charged += 1

        # Advance the fault schedule: storms decay/start, crashes land.
        # Crash events are applied here (decommission) so the failure is
        # detected on the *next* charge addressed to the dead module.
        if self._faults is not None and not self._faults.paused:
            for ev in self._faults.on_round_close(self._rounds_charged - 1,
                                                  self._live):
                if ev.kind == "crash":
                    if self.n_live <= 1:
                        continue  # never crash the last live module
                    self.decommission(ev.mid)
                elif ev.kind == "machine_kill":
                    self._machine_dead = True
                self._notify_fault(ev)

    def _book_round(self, mids) -> None:
        """Book the round over the touched modules' array slots.

        The straggler and bottleneck-link argmaxes take the first maximum
        over ascending module ids, and every charge is an integer, so the
        float64 sums are exact in any order.  Each label of the round
        books its straggler cycles, words and bottleneck-link words into
        its ledger row; a label gets a row only for a nonzero amount
        (:meth:`_add_round_rows`).
        """
        v = self._vec
        labels, S = v.round_charges(mids)  # S: (label, kind, touched module)
        rb = np.add.reduce(S)
        rc = rb[CHARGE_PIM]
        v.total_cycles[mids] += rc
        W = S[:, CHARGE_SEND] + S[:, CHARGE_RECV]  # (label, module) words
        rw = rb[CHARGE_SEND] + rb[CHARGE_RECV]
        i_straggler = rc.argmax()
        max_cycles = rc[i_straggler]
        i_words = rw.argmax()
        max_words = rw[i_words]
        if max_words <= 0:
            max_words = 0.0
        total_words = np.add.reduce(rw)
        module_rounds = np.add.reduce(rw > 0)
        cycles_by_label = S[:, CHARGE_PIM, i_straggler]
        words_by_label = np.add.reduce(W, 1)

        stats = self.stats
        rows = list(map(stats._rows.get, labels))
        if None in rows:
            self._add_round_rows(labels, cycles_by_label, words_by_label)
            rows = list(map(stats._rows.get, labels))
        entry = stats._rows.get(self._round_entry_phase)
        if entry is None:
            entry = stats.add_row(self._round_entry_phase)
        views = stats._views
        t = views[0]
        t[PIM_CYCLES] += max_cycles
        t[COMM_WORDS] += total_words
        t[COMM_MAX_WORDS] += max_words
        t[ROUNDS] += 1.0
        t[MODULE_ROUNDS] += module_rounds
        # Rows take scalar adds: a round has a label or two, and a fancy
        # indexed add costs several times as much for so few.
        max_words_by_label = (W[:, i_words].tolist() if max_words > 0
                              else [0.0] * len(rows))
        for r, c, w, x in zip(rows, cycles_by_label.tolist(),
                              words_by_label.tolist(), max_words_by_label):
            if r is not None:  # a label with nothing to book has no row
                p = views[r]
                p[PIM_CYCLES] += c
                p[COMM_WORDS] += w
                p[COMM_MAX_WORDS] += x
        e = views[entry]
        e[ROUNDS] += 1.0
        e[MODULE_ROUNDS] += module_rounds
        stats.mux_switches += 2

        if self._trace is not None:
            from ..obs.trace import RoundRecord

            mids_list = mids.tolist()
            straggler_mid = mids_list[i_straggler]
            max_words_mid = mids_list[i_words] if max_words > 0 else None

            cycles = {ph: arr[CHARGE_PIM]
                      for ph, arr in v.round_phase_cycles.items()}
            words = {ph: arr[CHARGE_SEND] + arr[CHARGE_RECV]
                     for ph, arr in v.round_phase_words.items()}
            self._trace.on_round(
                RoundRecord(
                    index=self._rounds_charged,
                    entry_phase=self._round_entry_phase,
                    straggler_mid=straggler_mid,
                    max_cycles=float(max_cycles),
                    total_words=float(total_words),
                    max_words=float(max_words),
                    max_words_mid=(
                        max_words_mid if max_words_mid is not None else -1
                    ),
                    module_rounds=int(module_rounds),
                    touched=len(mids_list),
                    cycles_by_module=dict(zip(mids_list, rc.tolist())),
                    words_by_module=dict(zip(mids_list, rw.tolist())),
                    pim_cycles_by_phase={
                        ph: float(arr[straggler_mid])
                        for ph, arr in cycles.items()
                        if arr[straggler_mid] != 0.0
                    },
                    phase_words_by_module={
                        m: {
                            ph: float(arr[m])
                            for ph, arr in words.items()
                            if arr[m] != 0.0
                        }
                        for m in mids_list
                    },
                    comm_max_words_by_phase=(
                        {
                            ph: float(arr[max_words_mid])
                            for ph, arr in words.items()
                            if arr[max_words_mid] != 0.0
                        }
                        if max_words_mid is not None
                        else {}
                    ),
                )
            )
        v.reset_round(mids)

    def _add_round_rows(self, labels, cycles, words) -> None:
        """Give a ledger row to each label that has none and books a
        nonzero amount this round (``cycles`` / ``words`` are indexed like
        ``labels``), in first-booking order: the straggler's cycles in the
        order of the labels' first PIM charge, then words in the order of
        their first transfer.  (A label's bottleneck-link words are part
        of its words, so they add no row.)  The entry phase's row comes
        after these."""
        v, add = self._vec, self.stats.add_row
        at = dict(zip(labels, zip(cycles.tolist(), words.tolist())))
        for ph in v.round_phase_cycles:
            if at[ph][0] != 0.0:
                add(ph)
        for ph in v.round_phase_words:
            if at[ph][1] != 0.0:
                add(ph)

    def charge_sequence(self, kinds, mids, amounts) -> None:
        """Book a sequence of PIM charges and transfers in one call.

        The one way a module is charged.  Element ``i`` is ``(kinds[i],
        mids[i], amounts[i])``: :data:`CHARGE_PIM` cycles, or
        :data:`CHARGE_SEND` (CPU → module) / :data:`CHARGE_RECV` (module →
        CPU) words; a scalar kind or amount applies to every element.
        Zero amounts are skipped, straggler factors multiply each PIM
        element, and ``np.add.at`` adds the amounts in element order, as
        ``tests/sim_oracle.py`` books them one by one.

        A charge to a dead module or a dropped transfer at element ``j``
        books the elements before ``j`` (a dropped transfer also marks its
        module touched) and then raises :class:`~repro.faults.ModuleFailure`
        or :class:`~repro.faults.MessageLoss` (raised before its words are
        charged), with ``charge_index = j``: the position in the caller's
        sequence, zero elements counted.  Work already booked in the round
        stands and books when the round closes.  The drop rolls come from
        one :meth:`~repro.faults.FaultPlan.first_drop` call, one roll per
        transfer up to the first loss.  A tracer sees the booked elements'
        events in element order after the booking, then the fault.
        """
        mids = np.asarray(mids, dtype=np.intp)
        amounts = np.asarray(amounts, dtype=np.float64)
        if amounts.ndim == 0:
            amounts = np.full(mids.shape, amounts)
        faulty = self._faults is not None or self._dead
        # A scalar kind books into one row, unless the fault checks or a
        # tracer read each element's kind.
        kind = (kinds if type(kinds) is int and not faulty
                and self._trace is None else None)
        if kind is None:
            kinds = np.asarray(kinds, dtype=np.intp)
            if kinds.ndim == 0:
                kinds = np.full(mids.shape, kinds)
        pos = None
        if 0.0 in amounts:
            pos = amounts.nonzero()[0]
            mids, amounts = mids[pos], amounts[pos]
            if kind is None:
                kinds = kinds[pos]
        if not mids.size:
            return
        if not self._in_round:
            raise RuntimeError("PIM activity is only legal inside a BSP round")
        end, err = len(mids), None
        if faulty:
            amounts, end, err = self._fault_prefix(kinds, mids, amounts)
            kinds, mids, amounts = kinds[:end], mids[:end], amounts[:end]
        if end:
            v = self._vec
            v.dirty[mids] = True
            phase = self.current_phase
            if kind is not None:
                arr = (v.phase_cycles(phase) if kind == CHARGE_PIM
                       else v.phase_words(phase))
                np.add.at(arr[kind], mids, amounts)
            else:
                # Each kind is a row of the phase's (3, P) array: one flat
                # add.at books the sequence, every slot in element order.
                idx = kinds * self.n_modules
                idx += mids
                if CHARGE_PIM in kinds:
                    arr = v.phase_cycles(phase)
                if CHARGE_SEND in kinds or CHARGE_RECV in kinds:
                    arr = v.phase_words(phase)
                np.add.at(arr.reshape(-1), idx, amounts)
            if self._trace is not None:
                t = self._trace
                hooks = (t.on_pim, t.on_send, t.on_recv)
                for k, mid, a in zip(kinds.tolist(), mids.tolist(),
                                     amounts.tolist()):
                    hooks[k](phase, mid, a)
        if err is not None:
            if isinstance(err, MessageLoss):
                self._notify_fault(self._faults.record_drop(
                    err.direction, err.mid, err.words, self._rounds_charged))
            err.charge_index = end if pos is None else int(pos[end])
            raise err

    def _fault_prefix(self, kinds, mids, amounts):
        """Apply straggler factors and find where a sequence stops.

        Returns ``(amounts, end, err)``: the amounts with each PIM element
        slowed, the number of elements that book, and the error element
        ``end`` raises (``None`` if all book).  A dropped transfer marks
        its module touched here.
        """
        v, plan = self._vec, self._faults
        pim = kinds == CHARGE_PIM
        if plan is not None:
            # x * 1.0 == x exactly, so the all-ones baseline is inert.
            slowed = amounts * plan.slow_vector(self.n_modules)[mids]
            amounts = np.where(pim, slowed, amounts)
        end, err = len(mids), None
        if self._dead:
            dead = np.flatnonzero(v.failed[mids])
            if dead.size:
                end = int(dead[0])
                err = ModuleFailure(int(mids[end]))
        if plan is not None:
            xfer = np.flatnonzero(~pim[:end])
            j = plan.first_drop(len(xfer))
            if j < len(xfer):
                end = int(xfer[j])
                mid = int(mids[end])
                v.dirty[mid] = True
                direction = "send" if kinds[end] == CHARGE_SEND else "recv"
                err = MessageLoss(mid, direction, float(amounts[end]))
        return amounts, end, err

    # One-kind forms of charge_sequence, kept for the benchmark harness's
    # round micro-benchmark (bench/layers.py); src/ calls charge_sequence.
    charge_pim_array = partialmethod(charge_sequence, CHARGE_PIM)
    send_array = partialmethod(charge_sequence, CHARGE_SEND)
    recv_array = partialmethod(charge_sequence, CHARGE_RECV)

    def charge_comm_flat(self, words: float) -> None:
        """Charge CPU↔PIM words without binding them to a specific round.

        Used for replication fan-out (lazy-counter syncs, cache refreshes)
        whose destinations are spread across many modules; the per-module
        maximum is approximated as an even spread.  Legal inside or outside
        a round.
        """
        if words <= 0:
            return
        max_words = words / self.n_live
        r = self._row
        if r < 0:
            r = self._resolve_row()
        views = self.stats._views
        t, p = views[0], views[r]
        t[COMM_WORDS] += words
        t[COMM_MAX_WORDS] += max_words
        p[COMM_WORDS] += words
        p[COMM_MAX_WORDS] += max_words
        if self._trace is not None:
            self._trace.on_comm_flat(self._phase, words, max_words)

    def broadcast(self, words_per_module: float) -> None:
        """CPU → all live modules (replication update), in module-id order.

        One :meth:`charge_sequence` over the live modules.  The fan-out is
        atomic per module under a fault plan: after a dropped transfer
        the sequence resumes at the next module, so every live module is
        attempted and no later module is left silently unsent.  The
        outcome is recorded in :attr:`last_broadcast` as
        ``(delivered_mids, dropped_mids)`` (both in module-id order, so a
        seeded plan reproduces it exactly); if any transfer dropped, the
        first loss is re-raised after the fan-out completes, carrying
        ``delivered_mids`` / ``dropped_mids`` attributes for the caller's
        retry logic.
        """
        live = list(self._live)
        delivered: list[int] = []
        dropped: list[int] = []
        first_loss: MessageLoss | None = None
        start = 0
        while start < len(live):
            try:
                self.charge_sequence(CHARGE_SEND, live[start:],
                                     words_per_module)
            except MessageLoss as e:
                j = start + e.charge_index
                delivered += live[start:j]
                dropped.append(live[j])
                if first_loss is None:
                    e.charge_index = j
                    first_loss = e
                start = j + 1
            else:
                delivered += live[start:]
                break
        self.last_broadcast = (tuple(delivered), tuple(dropped))
        if first_loss is not None:
            first_loss.delivered_mids = tuple(delivered)
            first_loss.dropped_mids = tuple(dropped)
            raise first_loss

    # ------------------------------------------------------------------
    # residency / reporting
    # ------------------------------------------------------------------
    def master_words(self) -> float:
        return float(self._vec.master_words.sum())

    def cache_words(self) -> float:
        return float(self._vec.cache_words.sum())

    def used_words(self) -> float:
        return float(self._vec.master_words.sum()
                     + self._vec.cache_words.sum())

    def module_loads(self) -> np.ndarray:
        """Cumulative PIM cycles per module (load-balance inspection)."""
        return self._vec.total_cycles.copy()

    def residency(self) -> np.ndarray:
        """Words resident per module."""
        return self._vec.master_words + self._vec.cache_words

    def residency_split(self) -> tuple[np.ndarray, np.ndarray]:
        """(master, cache) words per module, as fresh arrays."""
        return self._vec.master_words.copy(), self._vec.cache_words.copy()

    def add_residency(self, mids, master, cache) -> None:
        """Add signed master/cache word changes from parallel arrays.

        The one way residency changes, apart from :meth:`decommission`
        zeroing a dead module (in the manner of :meth:`charge_sequence`):
        element ``i`` adds ``master[i]`` and ``cache[i]`` to module
        ``mids[i]``.  Word counts are integers, so the totals do not
        depend on the order.  Capacity pressure is judged on the net
        change of the whole call: a module whose residency goes from at
        most ``capacity_words`` to above it records one event, in
        module-id order, so a module that stays over capacity is not
        reported again.
        """
        mids = np.asarray(mids, dtype=np.intp)
        if not mids.size:
            return
        watched: list = []
        if self._capacity_watch:
            watched = [(mid, self.modules[mid].used_words)
                       for mid in np.unique(mids).tolist()
                       if self.modules[mid].capacity_words is not None]
        np.add.at(self._vec.master_words, mids, master)
        np.add.at(self._vec.cache_words, mids, cache)
        for mid, before in watched:
            m = self.modules[mid]
            if before <= m.capacity_words < m.used_words:
                self._capacity_pressure(m)

    def snapshot(self) -> PIMStats:
        return self.stats.snapshot()
