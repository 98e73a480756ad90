"""te_diurnal: the monolithic TE controller re-planning over one day.

The substrate and the chain set are fixed (the synthetic tier-1
backbone of Figure 12, 20 PoPs, 60 chains over 12 VNFs at 0.5
coverage).  Each chain's demand follows the local time of its ingress
PoP (its longitude); the seed draws the time of day the run starts at
and a small per-chain jitter, so the seed decides how demand moves, not
what the network is.  One step is one
re-plan epoch: every chain's demand is set to its level for the epoch
(0.06 to 0.20 of the Figure 12 full load, so ``MIN_LATENCY`` stays
feasible), then the controller runs the cloud-capacity plan, SB-LP
``MIN_LATENCY``, SB-LP ``MAX_THROUGHPUT`` and SB-DP.  Sixteen epochs
make one cycle; a run repeats the cycle for as long as it measures.
"""

from __future__ import annotations

import math
import random

import repro.core.capacity as capacity
import repro.core.dp as dp
import repro.core.lp as lp
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES

EPOCHS_PER_CYCLE = 16
LOAD_LOW, LOAD_HIGH = 0.06, 0.20
#: Figure 12's full load and site capacity.
FULL_TRAFFIC = 6000.0
SITE_CAPACITY = 7200.0
CAPACITY_BUDGET = 0.10
#: Per-chain phase jitter, as a share of the cycle.
PHASE_JITTER = 1.0 / 32


class TeDiurnal:
    name = "te_diurnal"
    rss_steps = EPOCHS_PER_CYCLE
    cycle = EPOCHS_PER_CYCLE

    def __init__(self, seed: int, scale: float = 1.0):
        n_cities = max(6, round(20 * scale))
        cities = DEFAULT_CITIES[:n_cities]
        config = WorkloadConfig(
            num_chains=max(6, round(60 * scale)),
            num_vnfs=12,
            coverage=0.5,
            total_traffic=FULL_TRAFFIC,
            site_capacity=SITE_CAPACITY,
            cities=cities,
            seed=42,
        )
        self.model = generate_workload(config, build_backbone(cities))
        self.base = dict(self.model.chains)
        longitude = {city.name: city.lon for city in cities}
        rng = random.Random(f"te_diurnal-{seed}")
        start = rng.random()
        self.phase = {
            name: start - longitude[self.base[name].ingress] / 360.0
            + rng.uniform(-PHASE_JITTER, PHASE_JITTER)
            for name in sorted(self.base)
        }
        self.budget = CAPACITY_BUDGET * sum(
            site.capacity for site in self.model.sites.values()
        )
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.carried: list[float] = []
        self.steps = 0
        self.failed_ops = 0
        self._lp_start = lp.matrix_cache_stats()
        self._cap_start = capacity.capacity_cache_stats()

    def load_factor(self, name: str, epoch: int) -> float:
        t = epoch / EPOCHS_PER_CYCLE + self.phase[name]
        wave = 0.5 * (1.0 - math.cos(2.0 * math.pi * t))
        return LOAD_LOW + (LOAD_HIGH - LOAD_LOW) * wave

    def step(self, index: int) -> None:
        """One re-plan epoch: new demands, then every planner."""
        epoch = index % EPOCHS_PER_CYCLE
        model = self.model
        for name, chain in self.base.items():
            model.remove_chain(name)
            model.add_chain(chain.scaled(self.load_factor(name, epoch)))
        self.steps += 1
        self._last = (
            index,
            capacity.plan_cloud_capacity(model, self.budget),
            lp.solve_chain_routing_lp(model, lp.LpObjective.MIN_LATENCY),
            lp.solve_chain_routing_lp(model, lp.LpObjective.MAX_THROUGHPUT),
            dp.route_chains_dp(model),
        )

    def verify(self) -> None:
        """Check the last epoch's plans (untimed)."""
        index, plan, latency, throughput, heuristic = self._last
        problems = []
        if not plan.alpha > 0:
            problems.append(f"capacity plan alpha {plan.alpha}")
        for label, result in (("MIN_LATENCY", latency),
                              ("MAX_THROUGHPUT", throughput)):
            if not result.ok:
                problems.append(f"{label} status {result.status}")
                continue
            problems += [f"{label}: {v}" for v in result.solution.violations()]
        if latency.ok and throughput.ok:
            lp_carried = throughput.solution.throughput()
            dp_carried = heuristic.solution.throughput()
            if dp_carried > lp_carried + 1e-6:
                problems.append(
                    f"SB-DP carried {dp_carried} > SB-LP {lp_carried}"
                )
            self.latencies.append(latency.solution.mean_latency())
            self.carried.append(lp_carried / self.model.total_demand())
        if problems:
            self.failed_ops += 1
            self.problems += [f"epoch {index}: {p}" for p in problems]

    def ops_completed(self) -> int:
        return self.steps

    def finish(self) -> None:
        pass

    def outcome(self) -> tuple[int, int]:
        return self.steps, self.failed_ops

    def check(self) -> list[str]:
        return list(self.problems)

    def quality(self) -> dict[str, float]:
        n = max(1, len(self.latencies))
        return {
            "route_latency_ms": sum(self.latencies) / n,
            "carried_ratio": sum(self.carried) / n,
        }

    def counters(self) -> dict[str, float]:
        out = {}
        for layer, now, start in (
            ("core.lp", lp.matrix_cache_stats(), self._lp_start),
            ("core.capacity", capacity.capacity_cache_stats(), self._cap_start),
        ):
            hits = now["matrix_reuse_hits"] - start["matrix_reuse_hits"]
            builds = now["matrix_rebuilds"] - start["matrix_rebuilds"]
            out[f"{layer}.matrix_rebuilds"] = builds
            out[f"{layer}.matrix_reuse_ratio"] = hits / max(1, hits + builds)
        return out

    def fingerprint(self) -> dict:
        """Outputs that must not depend on whether the run was traced."""
        return {
            "steps": self.steps,
            "plan_latency_ms": [round(x, 9) for x in self.latencies],
            **self.counters(),
        }
