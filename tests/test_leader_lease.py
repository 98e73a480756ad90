"""Unit tests for the shared leader-lease elector.

The failover managers built on :class:`LeaderLease` are covered end to
end elsewhere; these pin the election rules themselves on a bare
elector over a three-replica store.
"""

from repro.chaos.invariants import lease_safety
from repro.controller.replication import ReplicatedStore
from repro.resilience import LeaderLease
from repro.simnet.events import Simulator

REPLICAS = ["r1", "r2", "r3"]


def elector(candidates=("a", "b", "c")):
    store = ReplicatedStore(REPLICAS)
    lease = LeaderLease(
        Simulator(), store, candidates,
        lease_duration_s=2.0, check_interval_s=0.5,
    )
    lease.start(until=12.0)
    return lease


def owners(lease):
    return [(g.owner, g.granted_at) for g in lease.monitor.grants]


def test_standby_waits_for_the_dead_leaders_lease_to_expire():
    lease = elector()
    lease.sim.schedule_at(1.25, lease.mark_dead, "a")
    lease.sim.run()
    # "a" last renewed at t=1.0, so its lease runs to t=3.0; the standby
    # must not hold it a moment earlier.
    assert owners(lease) == [("a", 0.0), ("b", 3.0)]
    assert lease.takeovers == 1
    assert lease.active_name == "b"
    assert lease_safety(lease.monitor)() == []


def test_takeover_goes_to_the_first_live_candidate_in_priority_order():
    lease = elector()
    lease.sim.schedule_at(1.25, lease.mark_dead, "b")
    lease.sim.schedule_at(1.25, lease.mark_dead, "a")
    lease.sim.run()
    assert lease.active_name == "c"
    assert owners(lease) == [("a", 0.0), ("c", 3.0)]


def test_revived_candidate_does_not_preempt_a_live_leader():
    lease = elector()
    lease.sim.schedule_at(1.25, lease.mark_dead, "a")
    lease.sim.schedule_at(4.25, lease.revive, "a")
    lease.sim.run()
    assert lease.active_name == "b"
    assert lease.takeovers == 1
    assert owners(lease) == [("a", 0.0), ("b", 3.0)]
    # The standby kept renewing to the horizon.
    assert lease.monitor.grants[-1].expires_at == 12.0 + 2.0


def test_quorum_loss_yields_no_grant_and_no_exception():
    lease = elector()
    store = lease.store

    def lose_quorum():
        store.fail("r1")
        store.fail("r2")

    def restore_quorum():
        store.recover("r1")
        store.recover("r2")

    lease.sim.schedule_at(1.25, lose_quorum)
    lease.sim.schedule_at(5.25, restore_quorum)
    lease.sim.run()
    # The renewals inside the outage fail cleanly: the lease lapses at
    # t=3.0 and the same leader is granted afresh once quorum returns.
    assert owners(lease) == [("a", 0.0), ("a", 5.5)]
    assert lease.monitor.failed_acquires == 8
    assert lease.takeovers == 0
    assert lease_safety(lease.monitor)() == []
