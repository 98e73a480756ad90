"""Standby Global Switchboard: lease-based failover for the installer.

Section 4.5's replication recipe gives the control plane a durable,
quorum-replicated store; this module adds the process that uses it.  A
:class:`FailoverManager` runs a sim-clock tick on behalf of a set of
controller *candidates* (by convention ``gs-primary``/``gs-standby``,
both fronting the same ``ctrl.gs`` role host):

- while the active candidate's host is up, the tick simply **renews the
  leader lease** (the :class:`~repro.resilience.lease.LeaderLease`
  elector, so lease safety stays checkable);
- when the active candidate dies (a chaos ``gs_crash`` marks it dead
  and crashes the host), the standby waits for the old lease to
  **expire**, acquires it, and :meth:`takes over <take_over>`:
  restarts the controller host, adopts every durable
  :func:`~repro.controller.replication.restore_installations`
  checkpoint missing from memory, **aborts** in-flight installs that
  had not committed their route (their 2PC outcome is unknown -- the
  teardown fence makes that safe), **re-drives** installs that had
  committed (the durable checkpoint proves the capacity is theirs), and
  resolves orphaned install markers -- re-applying the configuration of
  published chains, tearing down chains that died mid-2PC.

Everything runs on the simulated clock; the tick self-terminates at its
horizon so a full event-queue drain still finishes.  The election itself
is the shared :class:`~repro.resilience.lease.LeaderLease`; this class
adds only the controller's liveness and the takeover reconciliation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controller.replication import (
    ReplicatedStore,
    ReplicationError,
    pending_install_markers,
    restore_installations,
)
from repro.resilience.lease import LeaderLease, LeaseMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.protocol import BusDrivenInstaller
    from repro.obs.registry import MetricsRegistry


class FailoverManager(LeaderLease):
    """Keeps exactly one controller candidate driving the installer."""

    def __init__(
        self,
        installer: "BusDrivenInstaller",
        store: ReplicatedStore,
        monitor: LeaseMonitor | None = None,
        candidates: tuple[str, ...] = ("gs-primary", "gs-standby"),
        lease_duration_s: float = 2.0,
        check_interval_s: float = 0.5,
        metrics: "MetricsRegistry | None" = None,
    ):
        super().__init__(
            installer.sim, store, candidates, lease_duration_s,
            check_interval_s, monitor=monitor,
        )
        self.installer = installer
        self.metrics = metrics
        if metrics is not None:
            metrics.counter("failover.takeovers")

    @property
    def active(self) -> str:
        return self.active_name

    def alive(self, candidate: str) -> bool:
        """Every candidate fronts the one controller host: its crash
        ends the active candidate's term, while a standby restarts it
        on takeover."""
        network, host = self.installer.network, self.installer.gs_host
        return candidate not in self.dead and (
            candidate != self.active_name or network.host_is_up(host)
        )

    # -- takeover ---------------------------------------------------------

    def take_over(self, owner: str) -> None:
        """Make ``owner`` the active controller and reconcile all
        control state against the durable store."""
        super().take_over(owner)
        if self.metrics is not None:
            self.metrics.counter("failover.takeovers").inc()
        installer = self.installer
        gs = installer.gs
        if not installer.network.host_is_up(installer.gs_host):
            installer.network.restart_host(installer.gs_host)

        # Adopt checkpointed installations the new controller does not
        # hold in memory (committed chains survive their coordinator).
        try:
            restored = restore_installations(self.store)
        except ReplicationError:
            restored = {}
        for name in sorted(restored):
            gs.installations.setdefault(name, restored[name])

        # In-flight installs: the route-commit milestone decides.
        # Uncommitted 2PC outcomes are unknown -> abort (the teardown
        # fence releases whatever participants hold).  Committed ones
        # own their capacity durably -> re-arm the deadline and re-drive
        # the configure phase.
        for name in sorted(installer._pending):
            pending = installer._pending[name]
            if pending.timeline.route_committed_at is None:
                installer.abort_install(name, "controller failover")
            else:
                installer.deadlines.arm(
                    name,
                    installer.resilience.install_deadline_s,
                    installer._on_deadline,
                )
                installer.redrive(name)

        # Install markers with no in-memory pending entry: the previous
        # coordinator died holding them.
        try:
            markers = pending_install_markers(self.store)
        except ReplicationError:
            markers = {}
        for name in sorted(markers):
            if name in installer._pending:
                continue
            marker = markers[name]
            if name in gs.installations and marker["phase"] == "configuring":
                # Published before the crash: re-apply the idempotent
                # configuration from the durable record.
                installation = gs.installations[name]
                gs._assign_instances(installation)
                edge = gs.edge_controllers.get(installation.spec.edge_service)
                if edge is not None:
                    gs._configure_edges(installation, edge)
                if name in gs.model.chains:
                    gs._install_rules(installation)
            else:
                # Died mid-2PC: no durable commit record exists, so
                # release the participants and forget the chain.
                for vnf_name, site in sorted(marker["loads"]):
                    if vnf_name in installer.vnf_hosts:
                        installer.send_teardown(vnf_name, name, site)
                if (
                    name in gs.model.chains
                    and name not in gs.installations
                ):
                    gs.router.rollback(name)
                    gs.model.remove_chain(name)
                if name not in gs.installations:
                    gs.labels.release(name)
                    installer._remove_checkpoint(name)
            installer._clear_marker(name)
