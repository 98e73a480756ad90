"""SB-DP: the dynamic-programming routing heuristic of Section 4.4.

For one chain, the algorithm builds the table ``E(z, s)`` -- the least
cost of a route through the first ``z`` chain nodes that ends at site
``s`` -- using the recurrence of Equation 8::

    E(z + 1, s) = min over s' of E(z, s') + cost(s', z, s)

where ``cost`` combines propagation latency, network-utilization cost,
and compute-utilization cost, the utilization terms using a
piecewise-linear convex penalty (Fortz--Thorup) that grows steeply above
50% utilization.  The least-cost route is recovered by walking the table
backwards from the egress.  If resource constraints let the route carry
only part of the chain's traffic, the algorithm repeats on the residual
capacities until the chain is fully routed or no capacity remains.

Multi-chain workloads are routed sequentially, each chain seeing the
utilization left behind by its predecessors -- this is the "computationally
efficient routing heuristic" evaluated against SB-LP in Section 7.3.

Two ablations from Figure 13a are expressed as configurations:

- ``DpConfig.latency_only()`` -- DP-LATENCY: the cost function degenerates
  to propagation delay (capacities are still *enforced*, they just do not
  steer route choice).
- ``DpConfig.one_hop()`` -- ONEHOP: the same cost function but applied
  greedily one stage at a time instead of over the whole chain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, TYPE_CHECKING

import numpy as np

from repro.core.costs import FORTZ_THORUP, PiecewiseLinearCost
from repro.core.model import Chain, NetworkModel
from repro.core.routes import RoutingSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

_EPS = 1e-9
_INF = float("inf")


@dataclass(frozen=True)
class DpConfig:
    """Tuning knobs for :func:`route_chains_dp`.

    ``utilization_weight`` scales the dimensionless utilization penalty
    into latency units; ``None`` picks ``network diameter / penalty(1.0)``
    so that a fully-utilized resource costs about one diameter crossing.
    """

    use_network_cost: bool = True
    use_compute_cost: bool = True
    per_hop: bool = False
    utilization_weight: float | None = None
    penalty: PiecewiseLinearCost = field(default=FORTZ_THORUP)
    max_paths_per_chain: int = 64
    sort_by_demand: bool = False
    #: Evaluate the Equation 8 recurrence one stage front at a time over
    #: columnar arrays instead of one ``_transition_cost`` call per
    #: (source, destination) pair.  Same routes (the accumulation order
    #: per matrix element matches the scalar code exactly); ``False``
    #: forces the scalar reference implementation.
    vectorized: bool = True

    @staticmethod
    def latency_only() -> "DpConfig":
        """The DP-LATENCY ablation of Figure 13a."""
        return DpConfig(use_network_cost=False, use_compute_cost=False)

    @staticmethod
    def one_hop() -> "DpConfig":
        """The ONEHOP ablation of Figure 13a."""
        return DpConfig(per_hop=True)


class _ResourceState:
    """Mutable residual-capacity state shared across sequentially routed
    chains: VNF loads, site loads, and link loads.

    Array-backed over the model's columnar index maps so the vectorized
    path search can read whole stage fronts at once; the name-keyed
    accessors below translate through the index maps and keep the
    historical per-resource semantics.
    """

    def __init__(self, model: NetworkModel):
        self.model = model
        sub = model.substrate_columns()
        n_vnfs = len(sub.vnf_names)
        n_sites = len(sub.site_names)
        self.vnf_load = np.zeros((n_vnfs, n_sites))
        self.site_load = np.zeros(n_sites)
        self.link_load = sub.link_background.copy()
        self.refresh_substrate(sub)

    def refresh_substrate(self, sub) -> None:
        """Re-read capacities after the substrate views were rebuilt.

        Supported in-place mutations replace catalog *values* (a VNF's
        capacities, a site's capacity, link latencies); names and index
        maps are unchanged, so committed loads carry over.
        """
        self.sub = sub
        caps = np.zeros((len(sub.vnf_names), len(sub.site_names)))
        for (vi, si), cap in sub.vnf_site_cap.items():
            caps[vi, si] = cap
        self.vnf_cap = caps

    # -- residual capacities -------------------------------------------

    def vnf_residual(self, vnf: str, site: str) -> float:
        vi = self.sub.vnf_index[vnf]
        si = self.sub.site_index.get(site)
        if si is None:
            return 0.0
        return float(self.vnf_cap[vi, si] - self.vnf_load[vi, si])

    def site_residual(self, site: str) -> float:
        si = self.sub.site_index[site]
        return float(self.sub.site_capacity[si] - self.site_load[si])

    def link_residual(self, link_name: str) -> float:
        li = self.sub.link_index[link_name]
        return float(
            self.model.mlu_limit * self.sub.link_bandwidth[li]
            - self.link_load[li]
        )

    # -- utilizations ------------------------------------------------------

    def vnf_utilization(self, vnf: str, site: str, extra: float = 0.0) -> float:
        vi = self.sub.vnf_index[vnf]
        si = self.sub.site_index.get(site)
        cap = 0.0 if si is None else self.vnf_cap[vi, si]
        if cap <= 0:
            return _INF
        return float((self.vnf_load[vi, si] + extra) / cap)

    def link_utilization(self, link_name: str, extra: float = 0.0) -> float:
        li = self.sub.link_index[link_name]
        return float(
            (self.link_load[li] + extra) / self.sub.link_bandwidth[li]
        )

    # -- commits -------------------------------------------------------------

    def commit_vnf(self, vnf: str, site: str, load: float) -> None:
        vi = self.sub.vnf_index[vnf]
        si = self.sub.site_index[site]
        self.vnf_load[vi, si] += load
        self.site_load[si] += load

    def commit_link_traffic(self, n1: str, n2: str, volume: float) -> None:
        """Add (or, with negative ``volume``, remove) traffic between two
        nodes, spread over links by the routing fractions."""
        if volume == 0:
            return
        sub = self.sub
        i = sub.node_index.get(n1)
        j = sub.node_index.get(n2)
        if i is None or j is None:
            return
        p = sub.pair_id[i, j]
        if p < 0:
            return
        s = sub.pair_start[p]
        e = s + sub.pair_len[p]
        # Each pair's pool lists every link once, so fancy += is safe.
        self.link_load[sub.pool_link[s:e]] += volume * sub.pool_frac[s:e]


@dataclass
class DpResult:
    """Outcome of routing a workload with SB-DP."""

    solution: RoutingSolution
    #: chain name -> fraction of demand left unrouted (only chains with
    #: a non-zero remainder appear).
    unrouted: dict[str, float]
    paths_computed: int

    @property
    def fully_routed(self) -> bool:
        return not self.unrouted


def route_chains_dp(
    model: NetworkModel,
    config: DpConfig | None = None,
    chain_order: Iterable[str] | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> DpResult:
    """Route every chain in the model with the SB-DP heuristic."""
    config = config or DpConfig()
    router = _DpRouter(model, config)
    if chain_order is None:
        names = list(model.chains)
        if config.sort_by_demand:
            names.sort(
                key=lambda n: model.chains[n].stage_traffic(1), reverse=True
            )
    else:
        names = list(chain_order)
        unknown = set(names) - set(model.chains)
        if unknown:
            raise KeyError(f"unknown chains in chain_order: {sorted(unknown)}")

    solution = RoutingSolution(model)
    unrouted: dict[str, float] = {}
    chain_hist = (
        metrics.histogram("solver.dp_chain_s") if metrics is not None else None
    )
    start = time.perf_counter()
    for name in names:
        chain_start = time.perf_counter()
        remainder = router.route_chain(model.chains[name], solution)
        if chain_hist is not None:
            chain_hist.observe(time.perf_counter() - chain_start)
        if remainder > _EPS:
            unrouted[name] = remainder
    if metrics is not None:
        # Wall-clock heuristic time over the whole workload (the number
        # the paper compares against SB-LP's hours-long CPLEX solves).
        metrics.histogram("solver.dp_route_s").observe(
            time.perf_counter() - start
        )
        metrics.counter("solver.dp_paths_computed").inc(router.paths_computed)
    return DpResult(solution, unrouted, router.paths_computed)


@dataclass(frozen=True)
class _StageFront:
    """Static per-stage arrays used by the vectorized DP.

    Everything here is demand-independent: the propagation-latency
    block over (previous front x this front) and, per traffic
    direction, flattened gather tables mapping each link a pair can use
    to its matrix element.  Demands and residual loads are read fresh
    on every call.
    """

    dst_names: list[str]
    dst_nodes: np.ndarray  # network-node index of each destination
    dst_sites: np.ndarray | None  # site indices (None for the egress)
    vnf_index: int  # -1 for the egress stage
    load_per_unit: float
    lat: np.ndarray  # (n_prev, n_dst) one-way delays
    fwd_targets: np.ndarray  # flat (src, dst) element per pool entry
    fwd_links: np.ndarray
    fwd_fracs: np.ndarray
    fwd_wfracs: np.ndarray  # utilization_weight * frac
    fwd_bw: np.ndarray
    rev_targets: np.ndarray
    rev_links: np.ndarray
    rev_fracs: np.ndarray
    rev_wfracs: np.ndarray
    rev_bw: np.ndarray


class _DpTables:
    """Demand-independent SB-DP tables for one substrate view.

    Held on :class:`~repro.core.columns.SubstrateColumns` (keyed by the
    utilization weight and the routing switch, the only other inputs),
    so every router on the same substrate -- one per
    :func:`route_chains_dp` call -- shares them, and
    ``invalidate_substrate()`` drops them with the view.  Fronts are
    keyed by chain *structure*, never by name: churn re-submits chains
    under fresh names, and the table stays bounded by the number of
    distinct structures.
    """

    def __init__(self) -> None:
        #: (ingress, egress, vnfs) -> per-stage fronts.
        self.fronts: dict[tuple, list[_StageFront]] = {}
        #: (src_key, dst_key) -> shared latency/link tables; chains with
        #: the same stage transition (e.g. the same consecutive VNF
        #: pair) reuse one entry.
        self.transitions: dict[tuple, tuple] = {}


class _DpRouter:
    """Routes chains one at a time against shared residual state."""

    def __init__(self, model: NetworkModel, config: DpConfig):
        self.model = model
        self.config = config
        self.state = _ResourceState(model)
        self._sub = self.state.sub
        self._model_sig = self._substrate_signature()
        self.paths_computed = 0
        self._weight = self._resolve_utilization_weight()
        self._tables = self._substrate_tables()

    def _resolve_utilization_weight(self) -> float:
        if self.config.utilization_weight is not None:
            return self.config.utilization_weight
        # A failed link's delay is infinite (repro.chaos); the
        # utilization weight must stay finite regardless.
        finite = self._sub.latency[np.isfinite(self._sub.latency)]
        diameter = float(finite.max()) if finite.size else 0.0
        penalty_at_full = self.config.penalty(1.0)
        if diameter <= 0 or penalty_at_full <= 0:
            return 1.0
        return diameter / penalty_at_full

    def _substrate_tables(self) -> "_DpTables":
        """The stage tables shared by every router on this substrate
        view with the same utilization weight and routing switch."""
        key = ("dp", self._weight, bool(self.model.routing))
        return self._sub.cached(key, _DpTables)

    def _substrate_signature(self) -> tuple:
        """Object identities of the mutable substrate catalogs.

        Capacity growth and similar dynamic scenarios replace entries of
        ``model.vnfs`` / ``model.sites`` / ``model.links`` in place; the
        scalar code read those dicts live on every transition, so the
        vectorized router re-checks the identities once per routed chain
        and refreshes its snapshots when anything was swapped.
        """
        m = self.model
        return (
            tuple(map(id, m.vnfs.values())),
            tuple(map(id, m.sites.values())),
            tuple(map(id, m.links.values())),
        )

    def _maybe_refresh(self) -> None:
        """Re-read the substrate views after an in-place mutation.

        Triggered either by an external ``invalidate_substrate()`` call
        (``controller.failures`` flipping latency entries) or by a
        catalog-entry swap detected via :meth:`_substrate_signature`.
        Topology names and index maps are unchanged in both cases, so
        committed loads carry over and only the cached views (and the
        derived stage-front tables) are rebuilt.
        """
        sig = self._substrate_signature()
        sub = self.model.substrate_columns()
        if sub is self._sub and sig == self._model_sig:
            return
        if sig != self._model_sig:
            self.model.invalidate_substrate()
            sub = self.model.substrate_columns()
            self._model_sig = sig
        self._sub = sub
        self.state.refresh_substrate(sub)
        self._tables = self._substrate_tables()

    # -- public per-chain entry point ------------------------------------

    def route_chain(
        self,
        chain: Chain,
        solution: RoutingSolution,
        remaining: float = 1.0,
    ) -> float:
        """Route (up to) ``remaining`` of one chain's demand, committing
        onto the shared state.

        Returns the unrouted remainder fraction.
        """
        self._maybe_refresh()
        for _ in range(self.config.max_paths_per_chain):
            if remaining <= _EPS:
                break
            path = self._find_path(chain, remaining)
            self.paths_computed += 1
            if path is None:
                break
            fraction = min(remaining, self._max_feasible_fraction(chain, path))
            if fraction <= _EPS:
                break
            self._commit(chain, path, fraction)
            solution.add_path(chain.name, path, fraction)
            remaining -= fraction
        return max(0.0, remaining)

    # -- path search ----------------------------------------------------------

    def _find_path(self, chain: Chain, pass_fraction: float) -> list[str] | None:
        if self.config.per_hop:
            return self._find_path_greedy(chain, pass_fraction)
        if self.config.vectorized:
            return self._find_path_dp_vec(chain, pass_fraction)
        return self._find_path_dp(chain, pass_fraction)

    def _find_path_dp(self, chain: Chain, pass_fraction: float) -> list[str] | None:
        """The Equation 8 table computation with parent backtracking."""
        # Chain nodes 0 .. num_stages: node 0 is the ingress, node
        # num_stages is the egress; node z (1-based) hosts VNF z.
        prev_sites = [chain.ingress]
        prev_cost = {chain.ingress: 0.0}
        parents: list[dict[str, str]] = []

        for z in range(1, chain.num_stages + 1):
            dests = self.model.stage_destinations(chain, z)
            cost: dict[str, float] = {}
            parent: dict[str, str] = {}
            for dst in dests:
                best, best_src = _INF, None
                for src in prev_sites:
                    base = prev_cost.get(src, _INF)
                    if base == _INF:
                        continue
                    step = self._transition_cost(chain, z, src, dst, pass_fraction)
                    if base + step < best:
                        best = base + step
                        best_src = src
                if best_src is not None:
                    cost[dst] = best
                    parent[dst] = best_src
            if not cost:
                return None
            parents.append(parent)
            prev_sites = list(cost)
            prev_cost = cost

        # Backtrack from the egress.
        path = [chain.egress]
        current = chain.egress
        for parent in reversed(parents):
            current = parent[current]
            path.append(current)
        path.reverse()
        return path

    def _find_path_dp_vec(
        self, chain: Chain, pass_fraction: float
    ) -> list[str] | None:
        """Equation 8 over whole stage fronts.

        One (sources x destinations) cost matrix per stage replaces one
        ``_transition_cost`` call per pair.  Every matrix element is
        accumulated in the same order as the scalar code (latency, then
        compute penalty, then forward link penalties in pool order, then
        reverse), and ``argmin`` keeps the first minimum exactly like
        the scalar strict-``<`` scan, so both implementations pick
        identical routes.
        """
        cfg = self.config
        state = self.state
        sub = self._sub
        fronts = self._stage_fronts(chain)
        use_links = cfg.use_network_cost and bool(self.model.routing)
        # Costs run over the *full* stage fronts; capacity-blocked or
        # unreachable entries carry +inf, which the min-reduction
        # ignores whenever any finite alternative exists -- the same
        # outcome as the scalar code's explicit skips.
        prev_cost = np.zeros(1)
        parents: list[np.ndarray] = []

        for z in range(1, chain.num_stages + 1):
            front = fronts[z - 1]
            is_vnf = front.vnf_index >= 0
            fwd = rev = 0.0
            if use_links:
                fwd = chain.forward_traffic[z - 1] * pass_fraction
                rev = chain.reverse_traffic[z - 1] * pass_fraction
            want_fwd = fwd > 0 and front.fwd_targets.size > 0
            want_rev = rev > 0 and front.rev_targets.size > 0

            # One penalty evaluation per stage: compute utilization,
            # forward-link utilization, and reverse-link utilization are
            # concatenated, run through the (element-wise) piecewise
            # penalty once, and split back apart.
            segments = []
            if is_vnf and cfg.use_compute_cost:
                si = front.dst_sites
                caps = state.vnf_cap[front.vnf_index, si]
                traffic = chain.stage_traffic(z) * pass_fraction
                load = front.load_per_unit * traffic * 2.0
                with np.errstate(divide="ignore"):
                    util = np.where(
                        caps > 0,
                        (state.vnf_load[front.vnf_index, si] + load) / caps,
                        _INF,
                    )
                segments.append(np.minimum(util, 2.0))
            if want_fwd:
                util = (
                    state.link_load[front.fwd_links] + fwd * front.fwd_fracs
                ) / front.fwd_bw
                segments.append(np.minimum(util, 2.0))
            if want_rev:
                util = (
                    state.link_load[front.rev_links] + rev * front.rev_fracs
                ) / front.rev_bw
                segments.append(np.minimum(util, 2.0))
            pens = (
                cfg.penalty.batch(
                    np.concatenate(segments)
                    if len(segments) > 1
                    else segments[0]
                )
                if segments
                else None
            )

            step = front.lat.copy()
            offset = 0
            if is_vnf:
                si = front.dst_sites
                caps = state.vnf_cap[front.vnf_index, si]
                loads = state.vnf_load[front.vnf_index, si]
                blocked = (caps - loads <= _EPS) | (
                    sub.site_capacity[si] - state.site_load[si] <= _EPS
                )
                if cfg.use_compute_cost:
                    n = len(si)
                    step = step + (
                        self._weight * pens[offset : offset + n]
                    )[None, :]
                    offset += n
                step[:, blocked] = _INF
            flat = step.ravel()
            if want_fwd:
                n = front.fwd_targets.size
                np.add.at(
                    flat,
                    front.fwd_targets,
                    front.fwd_wfracs * pens[offset : offset + n],
                )
                offset += n
            if want_rev:
                n = front.rev_targets.size
                np.add.at(
                    flat,
                    front.rev_targets,
                    front.rev_wfracs * pens[offset : offset + n],
                )
            total = prev_cost[:, None] + step
            best_src = np.argmin(total, axis=0)
            best = total[best_src, np.arange(total.shape[1])]
            if not (best < _INF).any():
                return None
            parents.append(best_src)
            prev_cost = best

        if not prev_cost[0] < _INF:
            return None
        # Backtrack from the egress (the only destination of the last
        # stage, so its front index is 0).
        idx = 0
        path = [chain.egress]
        for z in range(len(parents) - 1, 0, -1):
            idx = int(parents[z][idx])
            path.append(fronts[z - 1].dst_names[idx])
        path.append(chain.ingress)
        path.reverse()
        return path

    def _stage_fronts(self, chain: Chain) -> list[_StageFront]:
        """Per-stage static arrays (cached per chain structure)."""
        tables = self._tables
        key = (chain.ingress, chain.egress, chain.vnfs)
        cached = tables.fronts.get(key)
        if cached is not None:
            return cached
        sub = self._sub
        keys = sub.stage_keys(chain, self.model)
        fronts: list[_StageFront] = []
        for z in range(1, chain.num_stages + 1):
            prev_key, dst_key = keys[z - 1], keys[z]
            dst_nodes = sub.stage_nodes(dst_key)
            if z == chain.num_stages:
                dst_names = [chain.egress]
                dst_sites = None
                vnf_index = -1
                load_per_unit = 0.0
            else:
                vnf_index = dst_key[1]
                dst_sites = sub.vnf_sites[vnf_index]
                dst_names = [sub.site_names[si] for si in dst_sites]
                load_per_unit = float(sub.vnf_load[vnf_index])
            shared = tables.transitions.get((prev_key, dst_key))
            if shared is None:
                n_dst = dst_nodes.size
                shared = (
                    sub.latency[np.ix_(sub.stage_nodes(prev_key), dst_nodes)],
                    self._pair_tables(prev_key, dst_key, n_dst, False),
                    self._pair_tables(dst_key, prev_key, n_dst, True),
                )
                tables.transitions[(prev_key, dst_key)] = shared
            lat, fwd, rev = shared
            fronts.append(
                _StageFront(
                    dst_names=dst_names,
                    dst_nodes=dst_nodes,
                    dst_sites=dst_sites,
                    vnf_index=vnf_index,
                    load_per_unit=load_per_unit,
                    lat=lat,
                    fwd_targets=fwd[0],
                    fwd_links=fwd[1],
                    fwd_fracs=fwd[2],
                    fwd_wfracs=fwd[3],
                    fwd_bw=fwd[4],
                    rev_targets=rev[0],
                    rev_links=rev[1],
                    rev_fracs=rev[2],
                    rev_wfracs=rev[3],
                    rev_bw=rev[4],
                )
            )
        tables.fronts[key] = fronts
        return fronts

    def _pair_tables(
        self, a_key: tuple, b_key: tuple, n_dst: int, transpose: bool
    ) -> tuple[np.ndarray, ...]:
        """Flat link-gather tables for every (a, b) node pair of a stage
        with ``n_dst`` destinations.

        ``targets`` maps each pool entry to its (source x destination)
        cost-matrix element: ``a`` is the source side, or with
        ``transpose`` the destination side (the reverse-traffic
        direction of a stage).  Entries stay in pool order per pair so
        the penalty accumulation (``np.add.at`` is sequential)
        reproduces the scalar code's per-link order.
        """
        sub = self._sub
        if not self.model.routing:
            empty_i = np.zeros(0, dtype=np.int64)
            empty_f = np.zeros(0)
            return empty_i, empty_i, empty_f, empty_f, empty_f
        a_pos, b_pos, pool_idx = sub.pair_gather(a_key, b_key)
        links = sub.pool_link[pool_idx]
        fracs = sub.pool_frac[pool_idx]
        if transpose:
            targets = b_pos * n_dst + a_pos
        else:
            targets = a_pos * n_dst + b_pos
        return (
            targets,
            links,
            fracs,
            self._weight * fracs,
            sub.link_bandwidth[links],
        )

    def _find_path_greedy(
        self, chain: Chain, pass_fraction: float
    ) -> list[str] | None:
        """ONEHOP: pick each next site by local cost only."""
        path = [chain.ingress]
        current = chain.ingress
        for z in range(1, chain.num_stages + 1):
            best, best_dst = _INF, None
            for dst in self.model.stage_destinations(chain, z):
                step = self._transition_cost(chain, z, current, dst, pass_fraction)
                if step < best:
                    best = step
                    best_dst = dst
            if best_dst is None:
                return None
            path.append(best_dst)
            current = best_dst
        return path

    # -- cost function -----------------------------------------------------------

    def _transition_cost(
        self, chain: Chain, z: int, src: str, dst: str, pass_fraction: float
    ) -> float:
        """``cost(src, z-1, dst)`` in the paper's notation: latency +
        network-utilization cost + compute-utilization cost of moving
        stage-``z`` traffic from ``src`` to ``dst``."""
        cost = self.model.site_latency(src, dst)
        traffic = chain.stage_traffic(z) * pass_fraction

        if z < chain.num_stages:
            vnf = chain.vnf_at(z)
            residual = self.state.vnf_residual(vnf, dst)
            site_residual = self.state.site_residual(dst)
            if residual <= _EPS or site_residual <= _EPS:
                return _INF
            if self.config.use_compute_cost:
                # The VNF both receives stage-z and sends stage-(z+1)
                # traffic; approximate the added load with twice the
                # incoming demand (symmetric chains).
                load = self.model.vnfs[vnf].load_per_unit * traffic * 2.0
                util = self.state.vnf_utilization(vnf, dst, extra=load)
                cost += self._weight * self.config.penalty(min(util, 2.0))

        if self.config.use_network_cost and self.model.routing:
            n1 = self.model.endpoint_node(src)
            n2 = self.model.endpoint_node(dst)
            fwd = chain.forward_traffic[z - 1] * pass_fraction
            rev = chain.reverse_traffic[z - 1] * pass_fraction
            for direction, volume in (((n1, n2), fwd), ((n2, n1), rev)):
                if volume <= 0:
                    continue
                for link_name, frac in self.model.links_between(*direction).items():
                    util = self.state.link_utilization(
                        link_name, extra=volume * frac
                    )
                    cost += (
                        self._weight
                        * frac
                        * self.config.penalty(min(util, 2.0))
                    )
        return cost

    # -- feasibility and commit ------------------------------------------------------

    def _max_feasible_fraction(self, chain: Chain, path: list[str]) -> float:
        """Largest fraction of the chain's demand the path can carry given
        residual VNF, site, and link capacities."""
        max_fraction = 1.0

        # Compute: each VNF node z (1 .. len(vnfs)) at path[z].  Demands
        # are aggregated per (VNF, site) and per site first, so a path
        # placing several VNFs at one site cannot overload it.
        vnf_demand: dict[tuple[str, str], float] = {}
        site_demand: dict[str, float] = {}
        for z in range(1, chain.num_stages):
            vnf = chain.vnf_at(z)
            site = path[z]
            per_unit = self.model.vnfs[vnf].load_per_unit * (
                chain.stage_traffic(z) + chain.stage_traffic(z + 1)
            )
            if per_unit > 0:
                key = (vnf, site)
                vnf_demand[key] = vnf_demand.get(key, 0.0) + per_unit
                site_demand[site] = site_demand.get(site, 0.0) + per_unit
        for (vnf, site), per_unit in vnf_demand.items():
            max_fraction = min(
                max_fraction, self.state.vnf_residual(vnf, site) / per_unit
            )
        for site, per_unit in site_demand.items():
            max_fraction = min(
                max_fraction, self.state.site_residual(site) / per_unit
            )

        # Network: links along each stage hop.
        if self.model.routing and self.model.links:
            link_demand: dict[str, float] = {}
            for z, (src, dst) in enumerate(zip(path, path[1:]), start=1):
                n1 = self.model.endpoint_node(src)
                n2 = self.model.endpoint_node(dst)
                fwd = chain.forward_traffic[z - 1]
                rev = chain.reverse_traffic[z - 1]
                for direction, volume in (((n1, n2), fwd), ((n2, n1), rev)):
                    if volume <= 0:
                        continue
                    for name, frac in self.model.links_between(*direction).items():
                        link_demand[name] = link_demand.get(name, 0.0) + volume * frac
            for name, per_unit in link_demand.items():
                if per_unit > 0:
                    max_fraction = min(
                        max_fraction, self.state.link_residual(name) / per_unit
                    )

        return max(0.0, max_fraction)

    def _commit(self, chain: Chain, path: list[str], fraction: float) -> None:
        for z in range(1, chain.num_stages):
            vnf = chain.vnf_at(z)
            load = (
                self.model.vnfs[vnf].load_per_unit
                * (chain.stage_traffic(z) + chain.stage_traffic(z + 1))
                * fraction
            )
            self.state.commit_vnf(vnf, path[z], load)
        for z, (src, dst) in enumerate(zip(path, path[1:]), start=1):
            n1 = self.model.endpoint_node(src)
            n2 = self.model.endpoint_node(dst)
            self.state.commit_link_traffic(
                n1, n2, chain.forward_traffic[z - 1] * fraction
            )
            self.state.commit_link_traffic(
                n2, n1, chain.reverse_traffic[z - 1] * fraction
            )


class IncrementalDpRouter:
    """Route chains one at a time against persistent residual state.

    This is the interface Global Switchboard uses operationally: chains
    arrive over time, each is routed against the utilization left by the
    chains already installed, and the accumulated
    :class:`~repro.core.routes.RoutingSolution` always reflects the
    currently installed routes.
    """

    def __init__(self, model: NetworkModel, config: DpConfig | None = None):
        self.model = model
        self.config = config or DpConfig()
        self._router = _DpRouter(model, self.config)
        self.solution = RoutingSolution(model)

    def route(self, chain_name: str) -> float:
        """Route one chain (must already be in the model).

        Any demand already carried (a previous partial routing) is left
        in place and only the remainder is attempted, so re-invoking
        after new capacity appears implements the paper's dynamic route
        addition.  Returns the total carried fraction.
        """
        chain = self.model.chains[chain_name]
        remaining = max(0.0, 1.0 - self.solution.routed_fraction(chain_name))
        self._router.route_chain(chain, self.solution, remaining)
        return self.solution.routed_fraction(chain_name)

    def rollback(self, chain_name: str) -> None:
        """Undo a routed chain: release its VNF, site, and link load and
        drop its flows from the accumulated solution.

        Used when a two-phase commit is rejected by a VNF controller and
        the route must be recomputed (Section 3, chain creation).
        """
        chain = self.model.chains[chain_name]
        for z in range(1, chain.num_stages + 1):
            for (src, dst), frac in self.solution.stage_flows(chain_name, z).items():
                traffic = chain.stage_traffic(z) * frac
                if z < chain.num_stages:
                    vnf = chain.vnf_at(z)
                    load = self.model.vnfs[vnf].load_per_unit * traffic
                    self._router.state.commit_vnf(vnf, dst, -load)
                if z > 1:
                    vnf = chain.vnf_at(z - 1)
                    load = self.model.vnfs[vnf].load_per_unit * traffic
                    self._router.state.commit_vnf(vnf, src, -load)
                n1 = self.model.endpoint_node(src)
                n2 = self.model.endpoint_node(dst)
                fwd = chain.forward_traffic[z - 1] * frac
                rev = chain.reverse_traffic[z - 1] * frac
                self._router.state.commit_link_traffic(n1, n2, -fwd)
                self._router.state.commit_link_traffic(n2, n1, -rev)
        self.solution.clear_chain(chain_name)

    def sync_vnf_capacity(self, vnf_name: str, site: str, available: float) -> None:
        """Reconcile the router's view of a VNF's remaining capacity at a
        site with the capacity the VNF controller actually reports (used
        after a two-phase-commit rejection)."""
        current = self._router.state.vnf_residual(vnf_name, site)
        if available < current:
            extra = current - available
            self._router.state.commit_vnf(vnf_name, site, extra)

    def residual_vnf_capacity(self, vnf_name: str, site: str) -> float:
        return self._router.state.vnf_residual(vnf_name, site)


def dp_latency_config() -> DpConfig:
    """Convenience alias for the DP-LATENCY ablation."""
    return DpConfig.latency_only()


def one_hop_config() -> DpConfig:
    """Convenience alias for the ONEHOP ablation."""
    return DpConfig.one_hop()


__all__ = [
    "DpConfig",
    "DpResult",
    "IncrementalDpRouter",
    "dp_latency_config",
    "one_hop_config",
    "route_chains_dp",
]
