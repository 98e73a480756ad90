"""Chain-set partitioning for the solver farm.

The monolithic SB-LP routes every chain jointly, which is what makes it
optimal -- and what makes its solve time grow superlinearly with the
chain count (Section 7 of the paper; the authors report CPLEX runs of up
to three hours at 10 000 chains).  This module splits a
:class:`~repro.core.model.NetworkModel`'s chain set into *partitions*
that can be solved as independent, much smaller programs:

1. Chains are grouped by **resource coupling**: two chains belong to the
   same coupling group when they can load the same (VNF, site) capacity,
   the same site capacity, or the same physical link.  Distinct coupling
   groups share no constraint of the LP, so solving them separately and
   merging the results is *exactly* equivalent to the monolithic solve
   (the merged program's constraint matrix is block-diagonal).

2. A coupling group larger than ``max_chains`` is split further, and
   each shared resource's budget (compute capacity, link headroom) is
   divided among the subgroups **proportionally to the demand** each
   subgroup can place on it.  The merged solution is always feasible for
   the original program -- per-resource shares sum to the original
   capacity -- but may be suboptimal, because a subgroup cannot borrow
   capacity another subgroup leaves idle.

Optimality-gap contract (documented, checked by
``tests/test_scale_properties.py`` and
``benchmarks/bench_scale_solver_farm.py``):

- ``PartitionPlan.exact`` is ``True`` when no coupling group was split;
  the merged objective then equals the monolithic objective (up to LP
  tolerance).
- When groups are split, the gap is workload-dependent.  With capacity
  headroom >= the demand imbalance between subgroups the gap is near
  zero; :data:`DEFAULT_GAP_TOLERANCE` (15% relative) is the bound the
  benchmarks assert on the paper-style workloads.  Tightly coupled link
  budgets (many chains contending for one bottleneck link) are the case
  where proportional splitting is *not* close to optimal -- prefer
  larger ``max_chains`` or the monolithic solver there (see
  "Scaling the controller" in README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.columns import ragged_gather
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF

#: Relative objective gap the split-partition farm is expected to stay
#: within on the benchmark workloads (see module docstring).
DEFAULT_GAP_TOLERANCE = 0.15

#: Links keep at least this fraction of their bandwidth in a sub-model so
#: the :class:`~repro.core.model.Link` validation (bandwidth > 0) holds
#: even for a subgroup whose demand share of the link rounds to zero.
_MIN_LINK_SHARE = 1e-9

ResourceKey = tuple  # ("site", s) | ("vnf", f, s) | ("link", name)


class PartitionError(Exception):
    """Raised on malformed partitioning requests."""


@dataclass(frozen=True)
class Partition:
    """One independently solvable slice of the chain set."""

    index: int
    chains: tuple[str, ...]
    #: True when the partition is a full coupling group solved against
    #: unscaled capacities (its slice of the program is exact).
    exact: bool


class PartitionPlan:
    """A partitioning of one model's chains, reusable across demands.

    The plan is purely *structural*: membership and capacity shares are
    fixed when the plan is built, so later demand changes (the
    re-optimization path) leave unchanged partitions bit-identical --
    which is what lets the solution cache serve them without re-solving.
    """

    def __init__(
        self,
        partitions: list[Partition],
        shares: dict[int, dict[ResourceKey, float]],
        structure: dict[str, tuple],
        substrate_digest: str | None = None,
    ):
        self.partitions = partitions
        self._shares = shares
        self._structure = structure
        #: Substrate content hash at build time.  The coupling groups,
        #: the DP pre-route, and the proportional link shares all depend
        #: on the substrate, so a plan must not outlive substrate edits
        #: (``fail_link``/``restore_link`` mutate latencies in place and
        #: only call ``invalidate_substrate()``).
        self.substrate_digest = substrate_digest
        self.chain_partition: dict[str, int] = {}
        for part in partitions:
            for name in part.chains:
                self.chain_partition[name] = part.index

    @property
    def exact(self) -> bool:
        """True when every partition is a full coupling group."""
        return all(p.exact for p in self.partitions)

    def compatible_with(self, model: NetworkModel) -> bool:
        """Whether the plan still describes ``model``'s chain set.

        Demands may differ (that is the point of reuse); names, chain
        structure (ingress/egress/VNF list), and the substrate identity
        captured at build time must match.  A substrate edit (e.g. a
        link failure flipping latencies to ``inf`` mid-round) changes
        the substrate digest and forces a replan -- the stored shares
        were computed against pre-edit link budgets and routing.
        """
        if (
            self.substrate_digest is not None
            and self.substrate_digest != model.substrate_digest()
        ):
            return False
        if set(model.chains) != set(self._structure):
            return False
        return all(
            _chain_structure(model.chains[name]) == struct
            for name, struct in self._structure.items()
        )

    def partitions_for(self, chains: Iterable[str]) -> set[int]:
        """Indices of the partitions containing any of ``chains``."""
        indices = set()
        for name in chains:
            index = self.chain_partition.get(name)
            if index is None:
                raise PartitionError(f"chain {name!r} is not in the plan")
            indices.add(index)
        return indices

    def share(self, index: int, resource: ResourceKey) -> float:
        """Partition ``index``'s budget share of ``resource`` (1.0 when
        the resource is not contended across split subgroups)."""
        return self._shares.get(index, {}).get(resource, 1.0)

    def submodel(self, model: NetworkModel, index: int) -> NetworkModel:
        """Build partition ``index``'s solve model from current demands.

        Exact partitions reuse the full substrate; split partitions get
        capacities and link budgets scaled by their stored shares.
        """
        part = self.partitions[index]
        chains = [model.chains[name] for name in part.chains]
        shares = self._shares.get(index)
        if not shares:
            return model.copy_with_chains(chains)

        vnfs = []
        for vnf in model.vnfs.values():
            scaled = {
                site: cap * shares.get(("vnf", vnf.name, site), 1.0)
                for site, cap in vnf.site_capacity.items()
            }
            vnfs.append(VNF(vnf.name, vnf.load_per_unit, scaled))
        sites = [
            CloudSite(
                s.name, s.node, s.capacity * shares.get(("site", s.name), 1.0)
            )
            for s in model.sites.values()
        ]
        links = []
        for link in model.links.values():
            share = max(
                shares.get(("link", link.name), 1.0), _MIN_LINK_SHARE
            )
            links.append(
                Link(
                    link.name,
                    link.src,
                    link.dst,
                    link.bandwidth * share,
                    link.background * share,
                )
            )
        return model.copy_rescaled(sites, vnfs, links, chains)


def _chain_structure(chain: Chain) -> tuple:
    """The demand-independent identity of a chain."""
    return (chain.ingress, chain.egress, chain.vnfs)


class _ChainFootprint:
    """Demand-independent resource ids of one chain structure.

    ``compute[z - 1]`` holds the VNF-deployment and site resources of
    VNF stage ``z`` (its destinations), ``fwd[z - 1]`` / ``rev[z - 1]``
    the stage's forward and reverse link footprints (sorted link ids).
    """

    __slots__ = ("compute", "vnf_load", "fwd", "rev")

    def __init__(self, model: NetworkModel, sub, tables: "_PartitionTables",
                 chain: Chain):
        keys = sub.stage_keys(chain, model)
        vnfs = [vi for _, vi in keys[1:-1]]
        self.compute = [
            np.concatenate([tables.deploy_ids[vi], tables.site_ids[vi]])
            for vi in vnfs
        ]
        self.vnf_load = [float(sub.vnf_load[vi]) for vi in vnfs]
        self.fwd = [sub.footprint(a, b) for a, b in zip(keys, keys[1:])]
        self.rev = [sub.footprint(b, a) for a, b in zip(keys, keys[1:])]


class _PartitionTables:
    """The partitioner's substrate-keyed tables (on ``SubstrateColumns``).

    Resource ids: links ``[0, L)`` in link order, sites ``[L, L + S)``,
    then every (VNF, site) deployment in catalog order.
    """

    def __init__(self, sub):
        n_links = len(sub.link_names)
        self.keys: list[ResourceKey] = [("link", n) for n in sub.link_names]
        self.keys += [("site", s) for s in sub.site_names]
        self.deploy_ids: list[np.ndarray] = []
        self.site_ids: list[np.ndarray] = []
        for vi, vnf in enumerate(sub.vnf_names):
            sites = sub.vnf_sites[vi]
            start = len(self.keys)
            self.deploy_ids.append(np.arange(start, start + len(sites)))
            self.site_ids.append(n_links + sites)
            self.keys += [("vnf", vnf, sub.site_names[si]) for si in sites]
        self._footprints: dict[tuple, _ChainFootprint] = {}
        self._resource_ids: dict[tuple, np.ndarray] = {}

    def footprint(self, model: NetworkModel, sub, chain: Chain) -> _ChainFootprint:
        key = (chain.ingress, chain.egress, chain.vnfs)
        fp = self._footprints.get(key)
        if fp is None:
            fp = self._footprints[key] = _ChainFootprint(model, sub, self, chain)
        return fp

    def resource_ids(self, model: NetworkModel, sub, chain: Chain) -> np.ndarray:
        """Every resource id the chain's LP variables can touch (may
        repeat an id)."""
        routing = bool(model.routing)
        key = (chain.ingress, chain.egress, chain.vnfs, routing)
        if routing:
            key += (
                tuple(w > 0 for w in chain.forward_traffic),
                tuple(v > 0 for v in chain.reverse_traffic),
            )
        ids = self._resource_ids.get(key)
        if ids is None:
            fp = self.footprint(model, sub, chain)
            parts = list(fp.compute)
            if routing:
                for z in range(chain.num_stages):
                    if chain.forward_traffic[z] > 0:
                        parts.append(fp.fwd[z])
                    if chain.reverse_traffic[z] > 0:
                        parts.append(fp.rev[z])
            ids = np.concatenate(parts) if parts else np.zeros(0, np.int64)
            self._resource_ids[key] = ids
        return ids


def _tables(model: NetworkModel):
    sub = model.substrate_columns()
    return sub, sub.cached(("partition",), lambda: _PartitionTables(sub))


def chain_resources(model: NetworkModel, chain: Chain) -> set[ResourceKey]:
    """Every capacity resource the chain's LP variables can touch."""
    sub, tables = _tables(model)
    return {
        tables.keys[r] for r in tables.resource_ids(model, sub, chain).tolist()
    }


def coupling_groups(model: NetworkModel) -> list[list[str]]:
    """Chains grouped by shared resources, deterministically ordered.

    The groups are the connected components of the bipartite
    chain-resource incidence graph.
    """
    # Imported here: csgraph adds ~0.1 s to ``import repro`` for every
    # caller, and only partitioning needs it.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    sub, tables = _tables(model)
    names = list(model.chains)
    ids = [
        tables.resource_ids(model, sub, chain) for chain in model.chains.values()
    ]
    n_chains = len(names)
    cols = np.concatenate(ids) if ids else np.zeros(0, np.int64)
    rows = np.repeat(
        np.arange(n_chains), np.fromiter(map(len, ids), np.int64, n_chains)
    )
    size = n_chains + len(tables.keys)
    graph = csr_matrix(
        (np.ones(cols.size), (rows, n_chains + cols)), shape=(size, size)
    )
    _, labels = connected_components(graph, directed=False)
    row = {name: i for i, name in enumerate(names)}
    groups: dict[int, list[str]] = {}
    for name in sorted(names):
        groups.setdefault(int(labels[row[name]]), []).append(name)
    # Sorted-name iteration makes every group sorted and orders groups
    # by their first member.
    return list(groups.values())


#: Fraction of a chain's stage traffic spread uniformly over every link
#: it *could* use, on top of the full weight placed on its predicted
#: usage.  Keeps overflow links available to the subgroup without
#: diluting the bottleneck-link shares that matter.
_LINK_OVERFLOW_WEIGHT = 0.1


def _latency_path(model: NetworkModel, chain: Chain) -> list[str]:
    """The chain's minimum-latency site sequence, capacities ignored.

    A tiny Equation 8 DP over propagation delay only; used to predict
    which links a chain will actually load so the partitioner's
    proportional link shares concentrate where the traffic goes (a
    uniform could-touch weighting starves bottleneck links badly).
    """
    prev_cost: dict[str, float] = {chain.ingress: 0.0}
    parents: list[dict[str, str]] = []
    for z in range(1, chain.num_stages + 1):
        cost: dict[str, float] = {}
        parent: dict[str, str] = {}
        for dst in model.stage_destinations(chain, z):
            best, best_src = float("inf"), None
            for src, base in prev_cost.items():
                step = base + model.site_latency(src, dst)
                if step < best:
                    best, best_src = step, src
            if best_src is not None:
                cost[dst] = best
                parent[dst] = best_src
        parents.append(parent)
        prev_cost = cost
    path = [chain.egress]
    current = chain.egress
    for parent in reversed(parents):
        current = parent[current]
        path.append(current)
    path.reverse()
    return path


def _path_link_weights(
    model: NetworkModel, sub, fp: _ChainFootprint, chain: Chain
) -> dict[int, float]:
    """Link weights of a chain the SB-DP pre-route carried nothing for:
    its latency-best path, plus the overflow share of every link it
    could use (stage by stage, as the two interleave)."""
    path = _latency_path(model, chain)
    weights: dict[int, float] = {}
    for z in range(chain.num_stages):
        fwd = chain.forward_traffic[z]
        rev = chain.reverse_traffic[z]
        if fwd <= 0 and rev <= 0:
            continue
        n1 = model.endpoint_node(path[z])
        n2 = model.endpoint_node(path[z + 1])
        for pair, volume in (((n1, n2), fwd), ((n2, n1), rev)):
            if volume > 0:
                for name, f in model.routing.get(pair, {}).items():
                    li = sub.link_index[name]
                    weights[li] = weights.get(li, 0.0) + volume * f
        overflow: set[int] = set()
        if fwd > 0:
            overflow.update(fp.fwd[z].tolist())
        if rev > 0:
            overflow.update(fp.rev[z].tolist())
        for li in overflow:
            if weights.get(li, 0.0) <= 0.0:
                weights[li] = weights.get(li, 0.0) + (
                    _LINK_OVERFLOW_WEIGHT * (fwd + rev)
                )
    return weights


def _dp_flow_entries(model: NetworkModel, sub, rows: dict[str, int]):
    """Per-chain link traffic of a fast SB-DP pre-route, as
    ``(chain row, link id, traffic)`` entries in accumulation order.

    The best proportional link shares are the shares of the *optimal*
    solution's link usage (a partition can then always reproduce its
    slice of the monolithic routing).  The SB-DP heuristic approximates
    that equilibrium at a tiny fraction of the LP's cost, so its
    per-chain link traffic is the default weighting for split link
    budgets.  Every flow's (node pair, volume) is collected first and
    expanded over the routing CSR in one pass.
    """
    from repro.core.dp import DpConfig, route_chains_dp

    solution = route_chains_dp(
        model, DpConfig(max_paths_per_chain=8)
    ).solution
    node_of = sub.endpoint_node
    pair_id = sub.pair_id
    flow_row: list[int] = []
    flow_pair: list[int] = []
    flow_volume: list[float] = []
    for name, row in rows.items():
        chain = model.chains[name]
        for z in range(1, chain.num_stages + 1):
            fwd_demand = chain.forward_traffic[z - 1]
            rev_demand = chain.reverse_traffic[z - 1]
            for (src, dst), frac in solution.stage_flows(name, z).items():
                i = node_of[sub.endpoint_id(src, model)]
                j = node_of[sub.endpoint_id(dst, model)]
                fwd = fwd_demand * frac
                rev = rev_demand * frac
                if fwd > 0:
                    flow_row.append(row)
                    flow_pair.append(pair_id[i, j])
                    flow_volume.append(fwd)
                if rev > 0:
                    flow_row.append(row)
                    flow_pair.append(pair_id[j, i])
                    flow_volume.append(rev)
    pairs = np.array(flow_pair, dtype=np.int64)
    keep = pairs >= 0
    pairs = pairs[keep]
    pool_idx, flow_of = ragged_gather(sub.pair_start[pairs], sub.pair_len[pairs])
    chain_rows = np.array(flow_row, dtype=np.int64)[keep][flow_of]
    volumes = np.array(flow_volume)[keep][flow_of]
    return chain_rows, sub.pool_link[pool_idx], volumes * sub.pool_frac[pool_idx]


class _Weights:
    """Sparse per-chain resource weights (the proportional-split weights).

    Entries are sorted by (chain row, resource id); ``start[row]`` /
    ``length[row]`` slice one chain's entries.  A present entry may
    weigh 0.0 (it still counts as touching the resource).
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, n_res: int,
                 n_rows: int):
        self.resource = keys % n_res
        self.value = values
        chain_of = keys // n_res
        self.start = np.searchsorted(chain_of, np.arange(n_rows))
        self.length = np.searchsorted(chain_of, np.arange(n_rows), "right") - self.start

    def totals(self, rows: list[int], n_res: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-resource weight sums (accumulated chain by chain, in
        ``rows`` order) and toucher counts over the given chains."""
        idx, _ = ragged_gather(self.start[rows], self.length[rows])
        res = self.resource[idx]
        sums = np.zeros(n_res)
        np.add.at(sums, res, self.value[idx])  # sequential, like the scalar sum
        return sums, np.bincount(res, minlength=n_res)


def _resource_weights(
    model: NetworkModel, names: list[str]
) -> tuple[_Weights, dict[str, int], list[ResourceKey]]:
    """Demand each chain can place on a resource.

    Compute weights mirror Equation 4's load accounting, spread over
    every deployment site (the LP is free to use any of them, and a
    uniform per-site ratio keeps each subgroup's total capacity for a
    VNF proportional to its demand).  Link weights come from the SB-DP
    pre-route, falling back to the chain's latency-best path when the
    pre-route carried nothing for it; every other link the chain could
    use gets a small uniform share (:data:`_LINK_OVERFLOW_WEIGHT`) so
    overflow routing stays possible.

    Every (chain, resource) weight is accumulated in the same order as
    the per-chain scalar loop it replaces (``np.add.at`` is sequential),
    so the weights -- and the shares built from them -- are
    bit-identical to it.
    """
    sub, tables = _tables(model)
    n_res = len(tables.keys)
    rows = {name: i for i, name in enumerate(names)}
    chains = [model.chains[name] for name in names]
    fps = [tables.footprint(model, sub, chain) for chain in chains]
    parts_keys: list[np.ndarray] = []
    parts_vals: list[np.ndarray] = []

    if model.routing:
        u_row, u_link, u_val = _dp_flow_entries(model, sub, rows)
        u_keys, inverse = np.unique(u_row * n_res + u_link, return_inverse=True)
        u_sum = np.zeros(u_keys.size)
        np.add.at(u_sum, inverse, u_val)
        parts_keys.append(u_keys)
        parts_vals.append(u_sum)
        with_usage = np.zeros(len(names), dtype=bool)
        with_usage[u_row] = True

        # Overflow: each stage's footprint links the pre-route left at
        # zero get the stage's overflow weight once (the first stage
        # with a positive weight wins, as in the stage-by-stage loop).
        o_keys: list[np.ndarray] = []
        o_vals: list[np.ndarray] = []
        path_weights: list[tuple[int, dict[int, float]]] = []
        for row, (chain, fp) in enumerate(zip(chains, fps)):
            if not with_usage[row]:
                path_weights.append(
                    (row, _path_link_weights(model, sub, fp, chain))
                )
                continue
            base = row * n_res
            for z in range(chain.num_stages):
                fwd = chain.forward_traffic[z]
                rev = chain.reverse_traffic[z]
                if fwd <= 0 and rev <= 0:
                    continue
                weight = _LINK_OVERFLOW_WEIGHT * (fwd + rev)
                for positive, links in ((fwd > 0, fp.fwd[z]), (rev > 0, fp.rev[z])):
                    if positive and links.size:
                        o_keys.append(base + links)
                        o_vals.append(np.full(links.size, weight))
        if o_keys:
            keys = np.concatenate(o_keys)
            vals = np.concatenate(o_vals)
            open_ = ~np.isin(keys, u_keys[u_sum > 0])
            keys, vals = keys[open_], vals[open_]
            ov_keys = np.unique(keys)
            ov_vals = np.zeros(ov_keys.size)
            positive = vals > 0
            first_keys, first = np.unique(keys[positive], return_index=True)
            ov_vals[np.searchsorted(ov_keys, first_keys)] = vals[positive][first]
            parts_keys.append(ov_keys)
            parts_vals.append(ov_vals)
        for row, weights in path_weights:
            parts_keys.append(row * n_res + np.fromiter(weights, np.int64, len(weights)))
            parts_vals.append(np.fromiter(weights.values(), float, len(weights)))

    # Compute: VNF stage z loads its VNF and site at every destination.
    c_keys: list[np.ndarray] = []
    c_vals: list[float] = []
    c_lens: list[int] = []
    for row, (chain, fp) in enumerate(zip(chains, fps)):
        traffic = [
            w + v for w, v in zip(chain.forward_traffic, chain.reverse_traffic)
        ]
        for z, ids in enumerate(fp.compute):
            c_keys.append(row * n_res + ids)
            c_vals.append(fp.vnf_load[z] * (traffic[z] + traffic[z + 1]))
            c_lens.append(ids.size)
    if c_keys:
        parts_keys.append(np.concatenate(c_keys))
        parts_vals.append(np.repeat(np.array(c_vals), c_lens))

    if parts_keys:
        all_keys = np.concatenate(parts_keys)
        all_vals = np.concatenate(parts_vals)
    else:
        all_keys, all_vals = np.zeros(0, np.int64), np.zeros(0)
    keys, inverse = np.unique(all_keys, return_inverse=True)
    values = np.zeros(keys.size)
    np.add.at(values, inverse, all_vals)
    return _Weights(keys, values, n_res, len(names)), rows, tables.keys


def partition_chains(
    model: NetworkModel, max_chains: int | None = 16
) -> PartitionPlan:
    """Partition the model's chains for independent solving.

    ``max_chains`` caps the partition size; ``None`` keeps every
    coupling group whole (always exact, but a fully coupled workload
    then degenerates to the monolithic solve).
    """
    if not model.chains:
        raise PartitionError("model has no chains to partition")
    if max_chains is not None and max_chains < 1:
        raise PartitionError("max_chains must be positive")

    groups = coupling_groups(model)
    split = [
        group for group in groups
        if max_chains is not None and len(group) > max_chains
    ]
    if split:
        # Splitting divides shared budgets, so the quality of the split
        # hinges on predicting where each chain's traffic really lands.
        # Amortize one fast SB-DP pre-route into the plan build and use
        # its per-chain link usage as the proportional-split weights.
        weights, rows, resource_keys = _resource_weights(
            model, [name for group in split for name in group]
        )
        n_res = len(resource_keys)

    partitions: list[Partition] = []
    shares: dict[int, dict[ResourceKey, float]] = {}
    structure = {
        name: _chain_structure(chain) for name, chain in model.chains.items()
    }
    for group in groups:
        if max_chains is None or len(group) <= max_chains:
            partitions.append(
                Partition(len(partitions), tuple(group), exact=True)
            )
            continue
        # Split into balanced, name-ordered subgroups.  Membership is
        # demand-independent so re-optimization rounds keep the same
        # partitioning (and the same cache keys for unchanged slices).
        num_parts = -(-len(group) // max_chains)
        subgroups = [group[i::num_parts] for i in range(num_parts)]
        totals, touched = weights.totals([rows[n] for n in group], n_res)
        for subgroup in subgroups:
            index = len(partitions)
            partitions.append(Partition(index, tuple(subgroup), exact=False))
            sub_weights, sub_touched = weights.totals(
                [rows[n] for n in subgroup], n_res
            )
            res = np.flatnonzero(sub_touched)
            total = totals[res]
            # Zero-demand contention (e.g. all-idle chains): split
            # evenly among the subgroups that touch the resource.
            with np.errstate(divide="ignore", invalid="ignore"):
                part = np.where(
                    total > 0,
                    sub_weights[res] / total,
                    sub_touched[res] / touched[res],
                )
            shares[index] = {
                resource_keys[r]: s for r, s in zip(res.tolist(), part.tolist())
            }
    return PartitionPlan(
        partitions, shares, structure, substrate_digest=model.substrate_digest()
    )


def _node_distance(model: NetworkModel, a: str, b: str) -> float:
    """Latency metric between two nodes; missing pairs are infinitely far."""
    try:
        return model.latency(a, b)
    except Exception:
        return float("inf")


def _shard_seeds(
    model: NetworkModel, nodes: list[str], n_shards: int
) -> list[str]:
    """Farthest-first seed nodes, deterministic under name tie-breaks."""

    def total_distance(node: str) -> float:
        total = 0.0
        for other in nodes:
            d = _node_distance(model, node, other)
            if d != float("inf"):
                total += d
        return total

    # Most peripheral node first (maximum total finite distance), then
    # repeatedly the node farthest from every chosen seed.  All ties go
    # to the lexicographically smallest name, so the seed sequence -- and
    # with it the whole shard map -- is byte-stable across runs.
    seeds = [min(nodes, key=lambda n: (-total_distance(n), n))]
    while len(seeds) < n_shards:
        remaining = [n for n in nodes if n not in seeds]
        seeds.append(
            min(
                remaining,
                key=lambda n: (
                    -min(_node_distance(model, n, s) for s in seeds),
                    n,
                ),
            )
        )
    return seeds


def shard_map(model: NetworkModel, n_shards: int) -> tuple[tuple[str, ...], ...]:
    """Deterministically partition the substrate's nodes into ``n_shards``
    latency-coherent regions.

    This is the federation counterpart of :func:`coupling_groups`: where
    coupling groups cluster *chains* by the capacity resources they
    share, the shard map clusters *nodes* under the same latency metric
    that drives both the DP pre-route and the resource coupling -- so
    chains whose endpoints and candidate sites fall inside one shard
    tend to form intra-shard coupling groups, and the cross-shard
    residue is what :class:`repro.federation.GlobalCoordinator` splits at
    borders.

    The algorithm is farthest-first seeding over pairwise latency
    followed by quota-bounded region growth along physical links (each
    region holds at most ``ceil(n_nodes / n_shards)`` nodes, and a node
    joins a region only through a link to a node already inside it, so
    regions are connected subgraphs whenever the substrate is).  Models
    without links fall back to nearest-seed metric assignment.  Every
    choice is tie-broken on node names and the returned regions are
    ordered by their smallest member, so the output is **byte-stable**
    across runs and replayable under ``repro.chaos`` -- no dict
    iteration order leaks in.

    Returns a tuple of ``n_shards`` disjoint, name-sorted node tuples
    covering every node.
    """
    nodes = sorted(model.nodes)
    if not 1 <= n_shards <= len(nodes):
        raise PartitionError(
            f"n_shards must be in [1, {len(nodes)}], got {n_shards}"
        )
    if n_shards == 1:
        return (tuple(nodes),)

    seeds = _shard_seeds(model, nodes, n_shards)
    quota = -(-len(nodes) // n_shards)
    assignment: dict[str, int] = {seed: i for i, seed in enumerate(seeds)}
    region_sizes = [1] * n_shards

    adjacency: dict[str, set[str]] = {n: set() for n in nodes}
    for link in model.links.values():
        adjacency[link.src].add(link.dst)
        adjacency[link.dst].add(link.src)

    if model.links:
        # Grow regions along links: repeatedly admit the unassigned node
        # closest (to its region's seed) among all frontier candidates.
        unassigned = set(nodes) - assignment.keys()
        while unassigned:
            best: tuple[float, str, int] | None = None
            for node in unassigned:
                for neighbour in adjacency[node]:
                    region = assignment.get(neighbour)
                    if region is None or region_sizes[region] >= quota:
                        continue
                    candidate = (
                        _node_distance(model, seeds[region], node),
                        node,
                        region,
                    )
                    if best is None or candidate < best:
                        best = candidate
            if best is None:
                break  # stranded nodes (disconnected / full neighbours)
            _, node, region = best
            assignment[node] = region
            region_sizes[region] += 1
            unassigned.discard(node)
    else:
        unassigned = set(nodes) - assignment.keys()

    # Metric fallback for whatever region growth could not reach: the
    # nearest seed that still has quota, ties on (distance, seed index).
    for node in sorted(unassigned):
        region = min(
            (r for r in range(n_shards) if region_sizes[r] < quota),
            key=lambda r: (_node_distance(model, seeds[r], node), r),
        )
        assignment[node] = region
        region_sizes[region] += 1

    members: list[list[str]] = [[] for _ in range(n_shards)]
    for node, region in assignment.items():
        members[region].append(node)
    regions = sorted(tuple(sorted(m)) for m in members)
    return tuple(regions)


__all__ = [
    "DEFAULT_GAP_TOLERANCE",
    "Partition",
    "PartitionError",
    "PartitionPlan",
    "chain_resources",
    "coupling_groups",
    "partition_chains",
    "shard_map",
]
