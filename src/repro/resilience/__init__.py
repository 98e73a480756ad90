"""``repro.resilience`` -- control-plane hardening for the 2PC installer.

PR 3 (:mod:`repro.chaos`) gave the substrate a fault model: links drop,
degrade, and partition; hosts crash.  This package makes the *control
plane* survive those faults, so the Figure 4 bus-driven installation is
an end-to-end protocol rather than a fair-weather script:

- :mod:`repro.resilience.rpc` -- at-least-once delivery for control
  messages: monotonically increasing message ids, per-RPC timeouts,
  exponential backoff with seeded jitter, and a receiver-side dedup
  window that re-acks duplicates from cached state;
- :mod:`repro.resilience.deadline` -- per-installation deadlines (and
  the :class:`ResilienceConfig` knobs) so a stuck install is aborted
  and fully rolled back instead of leaking reservations;
- :mod:`repro.resilience.sweeper` -- a periodic sim-clock reconciler
  that garbage-collects stalled installs, re-syncs the router's
  capacity view against what VNF controllers actually report, and
  exports the in-flight-install gauge;
- :mod:`repro.resilience.lease` -- the one leader-lease elector
  (:class:`LeaderLease`) over the
  :class:`~repro.controller.replication.ReplicatedStore` lease, with the
  :class:`LeaseMonitor` that records every grant;
- :mod:`repro.resilience.failover` -- a standby Global Switchboard that
  takes the lease when the primary dies, restores from checkpoints, and
  resumes or aborts in-flight installs.

Everything runs on the simulated clock with seeded randomness, so a
chaos soak with control faults replays byte-identically from one seed.
"""

from repro.resilience.deadline import DeadlineManager, ResilienceConfig
from repro.resilience.failover import FailoverManager
from repro.resilience.lease import LeaderLease, LeaseGrant, LeaseMonitor
from repro.resilience.rpc import (
    BackoffPolicy,
    RpcConfig,
    RpcEndpoint,
    RpcError,
    RpcLayer,
    backoff_delay,
)
from repro.resilience.sweeper import ReconciliationSweeper

__all__ = [
    "BackoffPolicy",
    "DeadlineManager",
    "FailoverManager",
    "LeaderLease",
    "LeaseGrant",
    "LeaseMonitor",
    "ReconciliationSweeper",
    "ResilienceConfig",
    "RpcConfig",
    "RpcEndpoint",
    "RpcError",
    "RpcLayer",
    "backoff_delay",
]
