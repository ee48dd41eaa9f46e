"""K-way chunk replication with routed reads and policy-bound writes.

One logical owner per chunk (the §3.2 meta-node mastership rule) makes a
single mega-hot chunk both a throughput wall and a single point of
failure — the exact skew failure mode PIM-tree's replication-based skew
resistance targets.  This package adds the missing degree of freedom:

* :class:`ReplicationConfig` — replica count ``k`` (total copies
  including the primary), the write policy (``"write-all"`` synchronous
  fan-out or ``"primary-async"`` with a bounded staleness window), and
  the staleness bound;
* :class:`ReplicaSet` — the per-tree replica registry: deterministic
  secondary placement composing with :meth:`repro.pim.PIMSystem.place`
  overrides, charged replica installation, least-loaded read routing
  (``read-any``), write fan-out accounting, async-flush staleness
  tracking, replica-aware failover promotion, and crash-restart rebind.

A ReplicaSet is a serving tier (``tree.tiers``): the tree refreshes,
checks, persists and restores it through the tier protocol only, and
other modules read the registry through ``secondaries()`` and
``pending``.  With ``tree.replicas is None`` (the default) none of these
paths runs, so replication-off runs stay byte-identical.
"""

from .replicaset import ReplicaSet, ReplicationConfig, WRITE_POLICIES

__all__ = ["ReplicaSet", "ReplicationConfig", "WRITE_POLICIES"]
