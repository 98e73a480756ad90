"""The shared sim-clock soak driver.

The monolithic chaos soak (:mod:`repro.chaos.runner`) and the federated
one (:mod:`repro.federation.chaos`) both play a seeded scenario against
a deployment on one simulated network under an invariant checker.
:class:`FaultEngine` schedules and dispatches the fault events, handles
the network faults every deployment has, and runs the soak: probes to
the horizon, a drain, the deployment's final settle, and the quiescence
check.  :class:`SoakReportBase` gives every soak report the same
verdict, JSON, scenario encoding and render framing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.chaos.invariants import (
    InvariantChecker,
    Violation,
    network_quiescence,
)
from repro.chaos.scenario import FaultEvent, Scenario

#: Simulated seconds between invariant sweeps in every soak.
PROBE_INTERVAL_S = 1.0


class FaultEngine:
    """Maps :class:`FaultEvent`\\ s onto a deployment's fault primitives.

    ``deployment`` needs ``sim`` and ``net`` handles; subclasses add an
    ``_on_<kind>`` method per deployment-specific event kind.
    """

    def __init__(self, deployment, config):
        self.d = deployment
        self.config = config
        self.applied: list[tuple[float, str]] = []

    def schedule(self, scenario: Scenario) -> None:
        for event in scenario.events:
            self.d.sim.schedule_at(event.at, self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        getattr(self, f"_on_{event.kind}")(event)
        self.applied.append((round(self.d.sim.now, 9), event.kind))

    def _on_link_down(self, event: FaultEvent) -> None:
        self.d.net.fail_link(*event.target)

    def _on_link_up(self, event: FaultEvent) -> None:
        self.d.net.restore_link(*event.target)

    def _on_heal_partition(self, event: FaultEvent) -> None:
        self.d.net.heal_partition()

    def _on_crash_host(self, event: FaultEvent) -> None:
        self.d.net.crash_host(event.target[0])

    def _on_restart_host(self, event: FaultEvent) -> None:
        self.d.net.restart_host(event.target[0])

    # -- the soak -------------------------------------------------------

    def run(
        self,
        probes: "Iterable[tuple[str, Callable[[], Iterable[str]]]]",
        horizon: float,
    ) -> InvariantChecker:
        """Probe every :data:`PROBE_INTERVAL_S` up to ``horizon`` (the
        ``(name, probe)`` pairs in order), drain the event queue,
        :meth:`settle`, then require quiescence."""
        checker = InvariantChecker(self.d.sim, interval_s=PROBE_INTERVAL_S)
        for name, probe in probes:
            checker.add(name, probe)
        checker.start(horizon)
        self.d.net.run(until=horizon)
        self.d.net.run()  # drain in-flight deliveries and late heal events
        self.settle(checker)
        # With the queue drained, nothing may remain in flight.
        for detail in network_quiescence(self.d.net)():
            checker.violations.append(
                Violation(self.d.sim.now, "network_quiescence", detail)
            )
        return checker

    def settle(self, checker: InvariantChecker) -> None:
        """Final probes once the queue has drained."""
        checker.check_now()


@dataclass(kw_only=True)
class SoakReportBase:
    """The fields, verdict, JSON and render framing every soak report
    shares; subclasses build ``to_doc`` on :meth:`scenario_doc`."""

    seed: int
    duration_s: float
    scenario_digest: str
    event_counts: dict[str, int]
    events_applied: list[tuple[float, str]]
    violations: list[Violation]
    probes_run: int = 0
    rpc_sent: int = 0
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    rpc_duplicates: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), separators=(",", ":"),
                          sort_keys=True)

    def scenario_doc(self) -> dict:
        """The schedule, what was applied, and the verdict."""
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "scenario_digest": self.scenario_digest,
            "event_counts": self.event_counts,
            "events_applied": [
                {"at": at, "kind": kind} for at, kind in self.events_applied
            ],
            "violations": [
                {"at": round(v.at, 9), "invariant": v.invariant,
                 "detail": v.detail}
                for v in self.violations
            ],
            "probes_run": self.probes_run,
            "passed": self.passed,
        }

    def render_schedule(self) -> list[str]:
        return [
            f"schedule digest: {self.scenario_digest[:16]}... "
            f"({sum(self.event_counts.values())} events)",
            "events: " + ", ".join(
                f"{kind}={n}" for kind, n in sorted(self.event_counts.items())
            ),
        ]

    def render_verdict(self) -> list[str]:
        lines = [f"invariant probes run: {self.probes_run}"]
        if self.passed:
            lines.append("PASS: zero invariant violations")
        else:
            lines.append(f"FAIL: {len(self.violations)} violation(s)")
            for violation in self.violations[:20]:
                lines.append(f"  {violation}")
        return lines


__all__ = ["PROBE_INTERVAL_S", "FaultEngine", "SoakReportBase"]
