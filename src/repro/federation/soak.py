"""Seeded fault-injection soak for the federated control plane.

A lightweight `repro.chaos`-style soak specialised to the federation:
a seeded operation mix (cross-shard submits, removals, demand changes
with incremental re-plans) runs against a live
:class:`~repro.federation.GlobalCoordinator` while a
:class:`FaultPolicy` injects regional prepare rejections and
coordinator crashes mid-install.  After every operation the invariant
probes from ``federation.invariants`` run -- border capacity safety,
2PC all-or-nothing atomicity, stitching continuity, and quiescence.
The soak is fully deterministic per seed and returns a
machine-readable report, so the CI smoke step and
``python -m repro federation --soak`` share one code path.

The synchronous op layer (:class:`FederatedOps`, :func:`submit_chain`,
:func:`install_base`) is shared with the scenario fuzzer's federated
stack and with the base installs of the chaos deployment and the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.lp import LpObjective
from repro.core.model import Chain, NetworkModel
from repro.federation.coordinator import (
    CoordinatorCrash,
    GlobalCoordinator,
)
from repro.federation.invariants import federation_probes
from repro.federation.shard import FederationError
from repro.resilience.rpc import BackoffPolicy


@dataclass
class FaultPolicy:
    """Seeded fault injection hooks consumed by the coordinator.

    ``reject_rate`` is the probability a regional prepare is refused
    outright (a regional switchboard saying no); ``crash_rate`` the
    probability a coordinator crashes mid-install, after a random
    number of successful prepares (leaving fenced residue for
    :meth:`~repro.federation.GlobalCoordinator.sweep`).  Faults only
    fire on the first attempt of an install so retries can converge.

    The policy also carries the ``retry_backoff``
    :class:`~repro.resilience.rpc.BackoffPolicy` the coordinator paces
    its install retries with, so scripted soaks and the RPC transport
    share one seeded backoff implementation.
    """

    seed: int = 0
    reject_rate: float = 0.0
    crash_rate: float = 0.0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._crash_plan: dict[str, int] = {}
        self.retry_backoff = BackoffPolicy(seed=self.seed, name="fed-install")

    def reject_prepare(self, chain: str, region: int, attempt_no: int) -> bool:
        if attempt_no > 0:
            return False
        return self._rng.random() < self.reject_rate

    def crash_after_prepares(self, chain: str, attempt_no: int) -> int | None:
        if attempt_no > 0:
            return None
        if chain not in self._crash_plan:
            if self._rng.random() < self.crash_rate:
                self._crash_plan[chain] = 1 + self._rng.randrange(3)
            else:
                self._crash_plan[chain] = 0
        planned = self._crash_plan[chain]
        return planned if planned > 0 else None


def submit_chain(
    coordinator: GlobalCoordinator, chain: Chain
) -> tuple[str, int]:
    """Submit one chain, sweeping after a coordinator crash.  Returns
    ``"installed"``, ``"rejected"`` or ``"crashed"`` and the number of
    abandoned prepares the sweep released."""
    try:
        coordinator.submit(chain)
    except CoordinatorCrash:
        return "crashed", len(coordinator.sweep())
    except FederationError:
        return "rejected", 0
    return "installed", 0


def install_base(
    coordinator: GlobalCoordinator, chains: list[Chain]
) -> dict[str, int]:
    """Install a base population in order; returns the tally of
    :func:`submit_chain` outcomes plus ``"swept"``."""
    tally = {"installed": 0, "rejected": 0, "crashed": 0, "swept": 0}
    for chain in chains:
        outcome, swept = submit_chain(coordinator, chain)
        tally[outcome] += 1
        tally["swept"] += swept
    return tally


class FederatedOps:
    """Synchronous ops against a :class:`GlobalCoordinator`, probed
    after each by the caller.  ``detail_key`` names the violation field
    that holds a probe's message."""

    def __init__(
        self,
        model: NetworkModel,
        coordinator: GlobalCoordinator,
        detail_key: str,
        objective: LpObjective = LpObjective.MAX_THROUGHPUT,
    ):
        self.model = model
        self.coordinator = coordinator
        self.detail_key = detail_key
        self.objective = objective
        self.violations: list[dict] = []
        #: Only consulted while still current: a submit/remove
        #: invalidates its RoutingSolutions (they hold the regional
        #: models by reference), so mutation probes fall back to the
        #: ledger-only capacity check.
        self.last_plan = None
        self._probes = federation_probes(
            lambda: coordinator,
            plan_of=lambda: self.last_plan,
            quiescent=True,
        )

    def submit(self, chain: Chain) -> tuple[str, int]:
        self.last_plan = None
        return submit_chain(self.coordinator, chain)

    def remove(self, name: str) -> None:
        self.coordinator.remove(name)
        self.last_plan = None

    def redemand(self, factors: dict[str, float]) -> bool:
        """Scale demands and re-plan incrementally.  When a border cannot
        fit them, returns ``False`` and reverts the model to the demands
        the coordinator still holds (a failed multi-chain ``resolve``
        keeps the chains it re-planned before the failing one)."""
        for name, factor in factors.items():
            scaled = self.model.chains[name].scaled(factor)
            self.model.remove_chain(name)
            self.model.add_chain(scaled)
        self.last_plan = None
        try:
            self.last_plan = self.coordinator.resolve(
                self.model, list(factors), self.objective
            )
        except FederationError:
            for name in factors:
                self.model.remove_chain(name)
                self.model.add_chain(self.coordinator.installed_chain(name))
            return False
        return True

    def probe(self, op: str) -> None:
        for invariant, check in self._probes.items():
            for problem in check():
                self.violations.append(
                    {"op": op, "invariant": invariant,
                     self.detail_key: problem}
                )

    def finish(self):
        """Plan every region and probe the final plan."""
        self.last_plan = self.coordinator.plan_all(self.objective)
        self.probe("final_plan")
        return self.last_plan


def run_soak(
    model: NetworkModel,
    coordinator: GlobalCoordinator,
    pending: list[Chain],
    ops: int = 60,
    seed: int = 0,
    objective: LpObjective = LpObjective.MAX_THROUGHPUT,
) -> dict:
    """Drive a seeded operation mix with invariant probes after each op.

    ``pending`` is the pool of not-yet-installed chains the soak draws
    submits from; removed chains return to it.  The coordinator should
    already hold an installed base (so removals and demand changes have
    targets) and carry a :class:`FaultPolicy` for injection.
    """
    rng = random.Random(seed)
    pending = list(pending)
    counts = {
        "submit": 0,
        "submit_rejected": 0,
        "crash": 0,
        "sweep_released": 0,
        "remove": 0,
        "demand_change": 0,
        "resolve": 0,
    }
    layer = FederatedOps(model, coordinator, "problem", objective)

    for step in range(ops):
        roll = rng.random()
        if roll < 0.45 and pending:
            chain = pending.pop(rng.randrange(len(pending)))
            counts["submit"] += 1
            # A crashed coordinator "restarts" and only runs its sweep;
            # the abandoned install is simply gone.
            outcome, swept = layer.submit(chain)
            counts["crash"] += outcome == "crashed"
            counts["submit_rejected"] += outcome == "rejected"
            counts["sweep_released"] += swept
            layer.probe("submit")
        elif roll < 0.65 and coordinator.installed():
            layer.remove(rng.choice(coordinator.installed()))
            counts["remove"] += 1
            layer.probe("remove")
        elif coordinator.installed():
            names = rng.sample(
                coordinator.installed(),
                k=min(3, len(coordinator.installed())),
            )
            factors = {name: rng.uniform(0.5, 1.5) for name in names}
            counts["demand_change"] += len(factors)
            if layer.redemand(factors):
                counts["resolve"] += 1
            layer.probe("resolve")

    final_plan = layer.finish()
    stats = coordinator.stats()
    return {
        "ops": ops,
        "seed": seed,
        "counts": counts,
        "stats": stats,
        "final_status": final_plan.status,
        "final_carried": round(final_plan.carried_demand, 6),
        "final_offered": round(final_plan.offered_demand, 6),
        "violations": layer.violations,
        "ok": not layer.violations and final_plan.ok,
    }


__all__ = [
    "FaultPolicy",
    "FederatedOps",
    "install_base",
    "run_soak",
    "submit_chain",
]
