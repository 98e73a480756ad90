"""fed_churn: the federated two-level controller under chain churn.

The substrate and the chain catalogue are fixed (the generated 36-PoP,
3-metro grid of the federation benchmark, 176 chains).  The seed picks
which 32 chains start held back and draws the churn.  Set-up installs
the other 144 and makes the cold ``plan_all``.  One step is one churn
op: submit 2 held-back chains (intra-region, or cross-shard through the
two-phase commit), remove 2 installed chains (they rejoin the held-back
pool), re-demand 4 installed intra-region chains by x0.8 or x1.25,
then ``GlobalCoordinator.resolve``.  Removals favour the regions the
submits did not touch, so every op changes the LP structure of about
the whole federation: the partitioner, cold matrix builds and cold
column generation do the work.  Cross-shard chains keep their demand:
their border reservation is sized at install time, and the coordinator
rightly refuses a re-demand the border cannot fit.

A removed chain rejoins the pool under a fresh incarnation name
(``chain000040~1``): the federation fences a torn-down segment name
forever, so re-submitting a removed cross-shard chain under its old name
is always refused.
"""

from __future__ import annotations

import random

import repro.core.lp as lp
from repro.core.model import Chain
from repro.federation import GlobalCoordinator, check_all
from repro.topology.pops import PopGridConfig, generate_federation_workload

NUM_POPS = 36
NUM_REGIONS = 3
NUM_CHAINS = 176
TOTAL_TRAFFIC = PopGridConfig.total_traffic
HELD_BACK = 32
PARTITION_SIZE = 16
SUBMITS, REMOVES, REDEMANDS = 2, 2, 4
FACTORS = (0.8, 1.25)
#: Re-demand keeps every chain within FACTORS**2 of its generated demand.
MAX_DRIFT = 2


class FedChurn:
    name = "fed_churn"
    rss_steps = 8
    cycle = 1

    def __init__(self, seed: int, scale: float = 1.0):
        n_chains = max(24, round(NUM_CHAINS * scale))
        held = max(SUBMITS + REMOVES, round(HELD_BACK * scale))
        config = PopGridConfig(
            num_pops=max(18, round(NUM_POPS * scale)),
            num_metros=NUM_REGIONS,
            num_chains=n_chains,
            # Per-chain demand stays that of the full size.
            total_traffic=TOTAL_TRAFFIC * n_chains / NUM_CHAINS,
            seed=7,
        )
        self.model, _ = generate_federation_workload(config)
        self.catalogue = dict(self.model.chains)
        self.rng = random.Random(f"fed_churn-{seed}")
        names = sorted(self.catalogue)
        self.held_back = sorted(self.rng.sample(names, held))
        for name in self.held_back:
            self.model.remove_chain(name)
        #: name -> signed count of x1.25 re-demands applied.
        self.drift = {name: 0 for name in names}
        self.coordinator = GlobalCoordinator(
            self.model,
            n_regions=NUM_REGIONS,
            partition_size=PARTITION_SIZE,
            max_workers=1,
        )
        self.coordinator.sync_chains()
        self.plan = self.coordinator.plan_all(lp.LpObjective.MAX_THROUGHPUT)
        #: installed chain -> regions its segments live in.
        self.regions = {
            name: self._regions(name) for name in self.coordinator.installed()
        }
        self.problems: list[str] = []
        self.failed_ops = 0
        self.steps = 0
        self.carried: list[float] = []
        self.latencies: list[float] = []
        self._lp_start = lp.matrix_cache_stats()
        self._cache_start = self._cache_stats()

    def _cache_stats(self) -> tuple[int, int]:
        farms = [r.farm for r in self.coordinator.regionals.values()]
        return (
            sum(f.cache.stats.hits for f in farms),
            sum(f.cache.stats.misses for f in farms),
        )

    def step(self, index: int) -> None:
        """One churn op, ending in the federated re-plan."""
        coordinator, model, rng = self.coordinator, self.model, self.rng
        self.steps += 1
        self._index = index
        problems = self._op_problems = []
        self._submitted = []
        for name in rng.sample(self.held_back, SUBMITS):
            self.held_back.remove(name)
            self.drift[name] = 0
            try:
                coordinator.submit(self.catalogue[name])
            except Exception as exc:  # a rejected submit is a failed op
                problems.append(f"submit {name}: {exc!r}")
            else:
                self._submitted.append(name)
                self.regions[name] = self._regions(name)
        for name in self._removals():
            coordinator.remove(name)
            del self.regions[name]
            self.held_back.append(self._reincarnate(name))
        self.held_back.sort()
        intra = [n for n in coordinator.installed() if not coordinator.is_cross(n)]
        changed = sorted(rng.sample(intra, REDEMANDS))
        for name in changed:
            drift = self.drift[name]
            up = rng.random() < 0.5
            if drift >= MAX_DRIFT:
                up = False
            elif drift <= -MAX_DRIFT:
                up = True
            self.drift[name] = drift + (1 if up else -1)
            chain = model.chains[name]
            model.remove_chain(name)
            model.add_chain(chain.scaled(FACTORS[1] if up else FACTORS[0]))
        self.plan = coordinator.resolve(model, changed)

    def verify(self) -> None:
        """Check the op's plan and the federation's invariants (untimed)."""
        plan, problems = self.plan, self._op_problems
        if not plan.ok:
            problems.append(f"plan status {plan.status}")
        problems += check_all(self.coordinator, plan)
        self.carried.append(plan.carried_demand / plan.offered_demand)
        self.latencies.append(self._plan_latency(plan))
        if problems:
            self.failed_ops += 1
            self.problems += [f"op {self._index}: {p}" for p in problems]

    def _regions(self, name: str) -> set[int]:
        return {
            part["region"]
            for part in self.coordinator.end_to_end_route(name)
            if part["kind"] == "segment"
        }

    def _removals(self) -> list[str]:
        """REMOVES installed chains, chosen so that the op changes the
        chain set of as many regions as it can: every op then
        re-partitions about the same amount of the federation."""
        coordinator, rng = self.coordinator, self.rng
        installed = coordinator.installed()
        touched: set[int] = set()
        for name in self._submitted:
            touched |= self.regions[name]
        picks: list[str] = []
        for region in sorted(set(coordinator.regionals) - touched):
            if len(picks) == REMOVES:
                break
            local = [n for n in installed
                     if n not in picks and self.regions[n] == {region}]
            if local:
                picks.append(rng.choice(local))
        rest = [n for n in installed if n not in picks]
        picks += rng.sample(rest, REMOVES - len(picks))
        return picks

    def _reincarnate(self, name: str) -> str:
        base, _, count = name.partition("~")
        fresh = f"{base}~{int(count or 0) + 1}"
        c = self.catalogue[base]
        self.catalogue[fresh] = Chain(
            fresh, c.ingress, c.egress, c.vnfs,
            c.forward_traffic, c.reverse_traffic,
        )
        self.drift[fresh] = 0
        return fresh

    def ops_completed(self) -> int:
        return self.steps

    def finish(self) -> None:
        pass

    def outcome(self) -> tuple[int, int]:
        return self.steps, self.failed_ops

    def check(self) -> list[str]:
        return list(self.problems)

    @staticmethod
    def _plan_latency(plan) -> float:
        """Carried-weighted mean chain latency over the regional plans."""
        weighted, carried = 0.0, 0.0
        for result in plan.per_region.values():
            if result.solution is None:
                continue
            throughput = result.solution.throughput()
            if throughput > 0:
                weighted += result.solution.mean_latency() * throughput
                carried += throughput
        return weighted / carried if carried else 0.0

    def quality(self) -> dict[str, float]:
        n = max(1, len(self.carried))
        return {
            "route_latency_ms": sum(self.latencies) / n,
            "carried_ratio": sum(self.carried) / n,
        }

    def counters(self) -> dict[str, float]:
        stats = lp.matrix_cache_stats()
        hits = stats["matrix_reuse_hits"] - self._lp_start["matrix_reuse_hits"]
        builds = stats["matrix_rebuilds"] - self._lp_start["matrix_rebuilds"]
        cache_hits, cache_misses = self._cache_stats()
        cache_hits -= self._cache_start[0]
        cache_misses -= self._cache_start[1]
        return {
            "core.lp.matrix_rebuilds": builds,
            "core.lp.matrix_reuse_ratio": hits / max(1, hits + builds),
            "scale.cache.hit_ratio": cache_hits / max(1, cache_hits + cache_misses),
        }

    def fingerprint(self) -> dict:
        """Outputs that must not depend on whether the run was traced."""
        return {
            "steps": self.steps,
            "carried": [round(x, 9) for x in self.carried],
            "installed": self.coordinator.installed(),
            **self.counters(),
        }
