"""Deterministic adversarial testing for the serving stack.

The paper's §5.1.1 concurrency-safety claims — snapshot reads need no
locks, lost CAS races are absorbed by merge-update — are only credible
under a checker that replays adversarial concurrent histories. This
package is that checker, in three layers:

* :mod:`repro.testing.faults` — a seeded, deterministic **fault
  injector** wrapped around the asyncio server and shard router:
  connection resets mid-commit, partial reads/writes, delayed flushes,
  stalls of a write before it lands, all decided by a pure function of
  the seed;
* :mod:`repro.testing.history` — a **linearizability checker** over
  per-client operation histories against the memcached sequential
  specification (content-unique CAS tokens and merge-update's
  commutative distinct-key set semantics modeled explicitly);
* :mod:`repro.testing.auditors` — **invariant auditors** for the
  machine underneath: dedup-store refcounts, line signatures and
  content-uniqueness, segment-map root validity.

:mod:`repro.testing.fuzz` composes them into seeded adversarial
episodes against one server, a replicated leader or a whole cluster
(the ``repro fuzz`` CLI subcommand),
:mod:`repro.testing.hi` verifies **history independence**
differentially — permuted/batched/merge-staged schedules of one seeded
workload must produce byte-identical canonical roots, fingerprints and
footprints (``repro fuzz --profile hi``) — and
:mod:`repro.testing.fixtures` exposes the auditors and injector as
reusable pytest fixtures.
"""

from repro.testing.auditors import (
    AuditReport,
    audit_dedup,
    audit_machine,
    audit_refcounts,
    audit_segment_map,
)
from repro.testing.faults import (
    COMMIT_STALL,
    CONN_RESET,
    FLUSH_DELAY,
    READ_SPLIT,
    WRITE_SPLIT,
    FaultInjector,
    FaultPlan,
    InjectedReset,
)
from repro.testing.fuzz import (
    EpisodeConfig,
    EpisodeResult,
    FuzzReport,
    cluster_config,
    episode_seed,
    expiry_config,
    replication_config,
    run_episode,
    run_fuzz,
)
from repro.testing.hi import (
    HIConfig,
    HIEpisodeResult,
    generate_workload,
    run_hi,
    run_hi_episode,
    verify_structure,
)
from repro.testing.history import (
    UNMATCHABLE,
    HistoryRecorder,
    LinearizabilityReport,
    Operation,
    check_history,
)

__all__ = [
    "AuditReport", "audit_dedup", "audit_machine", "audit_refcounts",
    "audit_segment_map",
    "COMMIT_STALL", "CONN_RESET", "FLUSH_DELAY", "READ_SPLIT",
    "WRITE_SPLIT", "FaultInjector", "FaultPlan", "InjectedReset",
    "EpisodeConfig", "EpisodeResult", "FuzzReport", "episode_seed",
    "expiry_config", "replication_config", "cluster_config",
    "run_episode", "run_fuzz",
    "HIConfig", "HIEpisodeResult", "generate_workload",
    "run_hi", "run_hi_episode", "verify_structure",
    "UNMATCHABLE", "HistoryRecorder", "LinearizabilityReport",
    "Operation", "check_history",
]
