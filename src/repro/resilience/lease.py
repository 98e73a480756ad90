"""The leader lease (Section 4.5's MUSIC recipe on the quorum store).

:class:`LeaseMonitor` wraps the store's lease API and records every
grant, so lease safety stays checkable; :class:`LeaderLease` is the one
renew-or-elect loop.  The Global Switchboard failover, the federated
coordinator failover and the chaos soak's controller lease all run
through it and differ only in which candidates are alive and what a
takeover does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.controller.replication import ReplicatedStore, ReplicationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.events import Simulator


@dataclass
class LeaseGrant:
    """One successful lease acquisition (possibly truncated by an
    explicit release)."""

    owner: str
    granted_at: float
    expires_at: float
    quorum_alive: int = 0


@dataclass
class LeaseMonitor:
    """Wraps a :class:`ReplicatedStore`'s lease API, recording every
    grant so lease safety is checkable after the fact.

    Renewals by the owner extend its latest grant; a release truncates
    it.  Quorum loss turns acquisition attempts into clean failures
    (recorded as such) instead of exceptions inside scenario events.
    """

    store: ReplicatedStore
    grants: list[LeaseGrant] = field(default_factory=list)
    failed_acquires: int = 0

    def acquire(self, owner: str, now: float, duration: float) -> bool:
        try:
            ok = self.store.acquire_lease(owner, now, duration)
        except ReplicationError:
            self.failed_acquires += 1
            return False
        if ok:
            latest = self.grants[-1] if self.grants else None
            if latest is not None and latest.owner == owner and (
                latest.expires_at >= now
            ):
                latest.expires_at = now + duration  # renewal
            else:
                self.grants.append(
                    LeaseGrant(owner, now, now + duration,
                               self.store.alive_count())
                )
        return ok

    def release(self, owner: str, now: float) -> None:
        try:
            self.store.release_lease(owner)
        except ReplicationError:
            return
        for grant in reversed(self.grants):
            if grant.owner == owner and grant.expires_at > now:
                grant.expires_at = now
                break

    def leader(self, now: float) -> str | None:
        try:
            return self.store.leader(now)
        except ReplicationError:
            return None


class LeaderLease:
    """Keeps exactly one of ``candidates`` (in priority order) leading.

    Every ``check_interval_s`` of simulated time the tick renews the
    active candidate's lease while it is :meth:`alive`; once it is not,
    the first live candidate waits for the old lease to expire, acquires
    it and :meth:`take_over`\\ s.  A revived candidate rejoins as a
    standby and never pre-empts a live leader.  Acquisition goes through
    a :class:`LeaseMonitor` (made when none is given), so quorum loss is
    a failed attempt, retried next tick.  Subclasses override
    :meth:`alive` and :meth:`take_over`.
    """

    def __init__(
        self,
        sim: "Simulator",
        store: ReplicatedStore,
        candidates: Iterable[str],
        lease_duration_s: float = 2.0,
        check_interval_s: float = 0.5,
        monitor: LeaseMonitor | None = None,
    ):
        self.candidates = list(candidates)
        if not self.candidates:
            raise ValueError("need at least one lease candidate")
        self.sim = sim
        self.store = store
        self.monitor = monitor if monitor is not None else LeaseMonitor(store)
        self.lease_duration_s = lease_duration_s
        self.check_interval_s = check_interval_s
        self.active_name = self.candidates[0]
        self.takeovers = 0
        #: Candidates whose process has died; they stop renewing at once.
        self.dead: set[str] = set()

    def mark_dead(self, candidate: str) -> None:
        self.dead.add(candidate)

    def revive(self, candidate: str) -> None:
        self.dead.discard(candidate)

    def alive(self, candidate: str) -> bool:
        """Whether ``candidate`` can hold (or take) the lease now."""
        return candidate not in self.dead

    # -- the election/renewal loop ----------------------------------------

    def start(self, until: float) -> None:
        """Run the renewal/election tick until the sim-clock horizon."""
        self._tick(until)

    def _tick(self, until: float) -> None:
        self.check()
        if self.sim.now + self.check_interval_s <= until:
            self.sim.schedule(self.check_interval_s, self._tick, until)

    def check(self) -> None:
        """One election step: renew, or elect a standby once the dead
        leader's lease has expired."""
        now = self.sim.now
        if self.alive(self.active_name):
            self.monitor.acquire(self.active_name, now, self.lease_duration_s)
            return
        standby = next((c for c in self.candidates if self.alive(c)), None)
        if standby is None or self.monitor.leader(now) is not None:
            return  # nobody left to lead, or the old lease still runs
        if self.monitor.acquire(standby, now, self.lease_duration_s):
            self.take_over(standby)

    def take_over(self, candidate: str) -> None:
        """Make ``candidate`` the active leader."""
        self.takeovers += 1
        self.active_name = candidate


__all__ = ["LeaderLease", "LeaseGrant", "LeaseMonitor"]
