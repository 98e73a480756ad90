"""install_storm: the control plane installing and removing chains.

Sixteen sites of the synthetic US backbone share one global message
bus (``make_bus``, WAN delays from the backbone's latencies).  Global
Switchboard installs chains with the Figure 4 two-phase commit over the
reliable RPC layer (``BusDrivenInstaller``); four VNF services are each
deployed at eight sites.  The substrate is fixed; the seed draws the
load.

The load is an open loop in simulated time: installs arrive as a
Poisson process at 40 per simulated second, each asking for 1 to 3 VNFs
between two random sites, and each chain is removed 5 simulated seconds
after its install completes.  Arrivals are put on the event queue at
their due time with ``schedule_at``, so an install's latency counts
from when it was due and the generator is never late in simulated time.
One step puts the next 40 arrivals on the queue and simulates up to the
last of them (about one simulated second), so every step carries the
same number of installs.  When the run stops, new
arrivals stop and the queue drains: every pending install finishes and
every chain is removed before the checks run.
"""

from __future__ import annotations

import random

from repro.bus import make_bus
from repro.chaos.invariants import link_conservation, network_quiescence
from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
)
from repro.controller.protocol import BusDrivenInstaller
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane
from repro.edge import EdgeController, EdgeInstance
from repro.simnet.events import Simulator
from repro.simnet.network import SimNetwork
from repro.topology import build_backbone
from repro.topology.cities import DEFAULT_CITIES
from repro.vnf import VnfService

NUM_SITES = 16
VNF_NAMES = ("fw", "nat", "ids", "wanopt")
SITES_PER_VNF = 8
VNF_CAPACITY = 400.0
ARRIVALS_PER_S = 40.0
ARRIVALS_PER_STEP = 40
HOLD_S = 5.0
FORWARD_DEMAND, REVERSE_DEMAND = 1.0, 0.25
#: Simulated time allowed for the final drain (holds plus stragglers).
DRAIN_S = 60.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class InstallStorm:
    name = "install_storm"
    rss_steps = 100
    cycle = 1

    def __init__(self, seed: int, scale: float = 1.0):
        n_sites = max(4, round(NUM_SITES * scale))
        backbone = build_backbone(DEFAULT_CITIES[:n_sites])
        self.sites = [f"S-{node}" for node in backbone.nodes]
        node_of = dict(zip(self.sites, backbone.nodes))
        wan = {
            (a, b): backbone.latency[(node_of[a], node_of[b])] / 1000.0
            for a in self.sites
            for b in self.sites
            if a != b
        }
        self.sim = Simulator()
        self.net = SimNetwork(self.sim)
        self.bus = make_bus(self.sites, wan_delay_s=wan, network=self.net)

        placement = random.Random("install_storm-substrate")
        deployed = {
            name: sorted(placement.sample(self.sites, min(SITES_PER_VNF, n_sites)))
            for name in VNF_NAMES
        }
        vnfs = [
            VNF(name, 1.0, {site: VNF_CAPACITY for site in deployed[name]})
            for name in VNF_NAMES
        ]
        model = NetworkModel(
            backbone.nodes,
            backbone.latency,
            [CloudSite(s, node_of[s], VNF_CAPACITY * len(VNF_NAMES))
             for s in self.sites],
            vnfs,
        )
        self.dataplane = DataPlane(random.Random(0))
        self.gs = GlobalSwitchboard(model, self.dataplane)
        for site in self.sites:
            self.gs.register_local_switchboard(
                LocalSwitchboard(site, self.dataplane)
            )
        self.services = [
            VnfService(v.name, v.load_per_unit, dict(v.site_capacity))
            for v in vnfs
        ]
        for service in self.services:
            self.gs.register_vnf_service(service)
        edge = EdgeController("vpn")
        for site in self.sites:
            edge.register_instance(EdgeInstance(f"edge.{site}", site, self.dataplane))
            edge.register_attachment(f"att-{site}", site)
        self.gs.register_edge_service(edge)
        self.installer = BusDrivenInstaller(
            self.gs,
            self.bus,
            gs_site=self.sites[0],
            edge_controller_site=self.sites[0],
            vnf_controller_sites={name: deployed[name][0] for name in VNF_NAMES},
        )

        self.rng = random.Random(f"install_storm-{seed}")
        self.next_arrival = self.rng.expovariate(ARRIVALS_PER_S)
        self.steps = 0
        self.scheduled = 0
        self.attempted = 0
        self.completed = 0
        self.failures: list[str] = []
        self.removed = 0
        self.latencies_ms: list[float] = []
        self.route_latency_ms: list[float] = []
        self.routed: list[float] = []

    # -- load --------------------------------------------------------------

    def _spec(self, index: int) -> ChainSpecification:
        rng = self.rng
        ingress, egress = rng.sample(self.sites, 2)
        count = rng.randint(1, 3)
        vnfs = [v for v in VNF_NAMES if v in rng.sample(VNF_NAMES, count)]
        return ChainSpecification(
            f"storm{index:06d}", "vpn", f"att-{ingress}", f"att-{egress}",
            vnfs,
            forward_demand=FORWARD_DEMAND,
            reverse_demand=REVERSE_DEMAND,
            dst_prefixes=[f"10.{index // 256 % 256}.{index % 256}.0/24"],
        )

    def _arrive(self, spec: ChainSpecification) -> None:
        self.attempted += 1
        self.installer.install(spec, self._done)

    def _done(self, timeline) -> None:
        if timeline.failed is not None:
            self.failures.append(timeline.failed or "failed without a reason")
            return
        self.completed += 1
        name = timeline.installation.spec.name
        self.latencies_ms.append(timeline.total_s * 1000.0)
        self.route_latency_ms.append(self.gs.router.solution.chain_latency(name))
        self.routed.append(timeline.installation.routed_fraction)
        self.sim.schedule(HOLD_S, self._remove, name)

    def _remove(self, name: str) -> None:
        self.gs.remove_chain(name)
        self.removed += 1

    def step(self, index: int) -> None:
        """Simulate the storm up to the next ARRIVALS_PER_STEP arrivals."""
        for _ in range(ARRIVALS_PER_STEP):
            due = self.next_arrival
            self.sim.schedule_at(due, self._arrive, self._spec(self.scheduled))
            self.scheduled += 1
            self.next_arrival += self.rng.expovariate(ARRIVALS_PER_S)
        self.sim.run(until=due)
        self.steps += 1

    def verify(self) -> None:
        """Installs are checked as they finish and after the drain."""

    def ops_completed(self) -> int:
        return self.completed

    def finish(self) -> None:
        self.sim.run(until=self.sim.now + DRAIN_S)

    # -- results -----------------------------------------------------------

    def outcome(self) -> tuple[int, int]:
        return self.attempted, self.attempted - self.completed

    def check(self) -> list[str]:
        problems = [f"install failed: {reason}" for reason in self.failures]
        unresolved = self.attempted - self.completed - len(self.failures)
        if unresolved:
            problems.append(f"{unresolved} installs neither completed nor failed")
        if self.removed != self.completed:
            problems.append(
                f"{self.completed - self.removed} completed chains not removed"
            )
        for service in self.services:
            left = service.committed_chains()
            if left:
                problems.append(f"{service.name}: committed after removal: {left}")
            if service.reservations():
                problems.append(f"{service.name}: reservations left")
        if self.gs.installations:
            problems.append(f"{len(self.gs.installations)} installations left")
        problems += link_conservation(self.net)()
        problems += network_quiescence(self.net)()
        return problems

    def quality(self) -> dict[str, float]:
        n = max(1, len(self.routed))
        return {
            "route_latency_ms": sum(self.route_latency_ms) / n,
            "carried_ratio": sum(self.routed) / n,
        }

    def counters(self) -> dict[str, float]:
        rpc = self.installer.rpc
        installs = max(1, self.completed)
        return {
            "simnet.events_dispatched": self.sim.events_processed,
            "simnet.events_per_install": self.sim.events_processed / installs,
            "bus.published": self.bus.stats.published,
            "bus.wan_messages": self.bus.stats.wan_messages,
            "resilience.rpc.sent": rpc.sent,
            "resilience.rpc.retries": rpc.retries,
            "resilience.rpc.timeouts": rpc.timeouts,
            "resilience.rpc.msgs_per_install": rpc.sent / installs,
            "controller.installs_committed": self.completed,
            "controller.install_p50_ms": percentile(self.latencies_ms, 50)
            if self.latencies_ms else 0.0,
            "controller.install_p99_ms": percentile(self.latencies_ms, 99)
            if self.latencies_ms else 0.0,
        }

    def fingerprint(self) -> dict:
        """Outputs that must not depend on whether the run was traced."""
        return {
            "steps": self.steps,
            "attempted": self.attempted,
            "latency_sum_ms": round(sum(self.latencies_ms), 6),
            **self.counters(),
        }
