"""Scalar reference for the chain-set partitioner.

This is the per-chain Python implementation of coupling groups,
proportional-split weights and capacity shares that
``repro.scale.partition`` replaced with substrate-keyed footprints and
columnar passes.  The equivalence tests require the two to agree
*exactly*: identical membership and shares compared with ``==``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.core.columns import ragged_gather
from repro.core.model import Chain, NetworkModel
from repro.scale.partition import (
    Partition,
    PartitionError,
    PartitionPlan,
    ResourceKey,
    _chain_structure,
    _latency_path,
)


def _stage_node_ids(
    model: NetworkModel, sub, chain: Chain, z: int, destinations: bool
) -> np.ndarray:
    """Network-node indices of a stage's source or destination endpoints."""
    names = (
        model.stage_destinations(chain, z)
        if destinations
        else model.stage_sources(chain, z)
    )
    return np.fromiter(
        (sub.node_index[model.endpoint_node(name)] for name in names),
        dtype=np.int64,
        count=len(names),
    )


def _pair_link_ids(sub, a_nodes: np.ndarray, b_nodes: np.ndarray) -> np.ndarray:
    """Unique link indices any (a, b) node pair's traffic can cross."""
    pids = sub.pair_id[np.ix_(a_nodes, b_nodes)].ravel()
    p = pids[pids >= 0]
    if p.size == 0:
        return p
    pool_idx, _ = ragged_gather(sub.pair_start[p], sub.pair_len[p])
    return np.unique(sub.pool_link[pool_idx])


def chain_resources_reference(model: NetworkModel, chain: Chain) -> set[ResourceKey]:
    """Every capacity resource the chain's LP variables can touch."""
    sub = model.substrate_columns()
    resources: set[ResourceKey] = set()
    for z in range(1, chain.num_stages + 1):
        if z < chain.num_stages:
            for site in model.stage_destinations(chain, z):
                resources.add(("vnf", chain.vnf_at(z), site))
                resources.add(("site", site))
        if not model.routing:
            continue
        fwd = chain.forward_traffic[z - 1]
        rev = chain.reverse_traffic[z - 1]
        if fwd <= 0 and rev <= 0:
            continue
        srcs = _stage_node_ids(model, sub, chain, z, destinations=False)
        dsts = _stage_node_ids(model, sub, chain, z, destinations=True)
        if fwd > 0:
            for li in _pair_link_ids(sub, srcs, dsts):
                resources.add(("link", sub.link_names[li]))
        if rev > 0:
            for li in _pair_link_ids(sub, dsts, srcs):
                resources.add(("link", sub.link_names[li]))
    return resources


#: Fraction of a chain's stage traffic spread uniformly over every link
#: it *could* use, on top of the full weight placed on its predicted
#: usage.  Keeps overflow links available to the subgroup without
#: diluting the bottleneck-link shares that matter.
_LINK_OVERFLOW_WEIGHT = 0.1


def _dp_link_usage(model: NetworkModel) -> dict[str, dict[ResourceKey, float]]:
    """Per-chain link traffic of a fast SB-DP pre-route.

    The best proportional link shares are the shares of the *optimal*
    solution's link usage (a partition can then always reproduce its
    slice of the monolithic routing).  The SB-DP heuristic approximates
    that equilibrium at a tiny fraction of the LP's cost, so its
    per-chain link traffic is the default weighting for split link
    budgets.  Chains SB-DP leaves (partially) unrouted keep whatever
    usage their routed fraction generates; the latency-path weights in
    :func:`_chain_resource_weights` fill in for fully unrouted chains.
    """
    from repro.core.dp import DpConfig, route_chains_dp

    solution = route_chains_dp(
        model, DpConfig(max_paths_per_chain=8)
    ).solution
    usage: dict[str, dict[ResourceKey, float]] = {}
    for name, chain in model.chains.items():
        per_chain: dict[ResourceKey, float] = {}
        for z in range(1, chain.num_stages + 1):
            for (src, dst), frac in solution.stage_flows(name, z).items():
                n1 = model.endpoint_node(src)
                n2 = model.endpoint_node(dst)
                fwd = chain.forward_traffic[z - 1] * frac
                rev = chain.reverse_traffic[z - 1] * frac
                if fwd > 0:
                    for link, f in model.links_between(n1, n2).items():
                        key = ("link", link)
                        per_chain[key] = per_chain.get(key, 0.0) + fwd * f
                if rev > 0:
                    for link, f in model.links_between(n2, n1).items():
                        key = ("link", link)
                        per_chain[key] = per_chain.get(key, 0.0) + rev * f
        usage[name] = per_chain
    return usage


def _chain_resource_weights(
    model: NetworkModel,
    chain: Chain,
    link_usage: Mapping[ResourceKey, float] | None = None,
) -> dict[ResourceKey, float]:
    """Demand each chain can place on a resource (the proportional-split
    weights).

    Compute weights mirror Equation 4's load accounting, spread over
    every deployment site (the LP is free to use any of them, and a
    uniform per-site ratio keeps each subgroup's total capacity for a
    VNF proportional to its demand).  Link weights come from the SB-DP
    pre-route (``link_usage``), falling back to the chain's latency-best
    path when the pre-route carried nothing for it; every other link
    the chain could use gets a small uniform share
    (:data:`_LINK_OVERFLOW_WEIGHT`) so overflow routing stays possible.
    """
    sub = model.substrate_columns()
    weights: dict[ResourceKey, float] = {}
    if link_usage:
        weights.update(link_usage)
        path = None
    else:
        path = _latency_path(model, chain) if model.routing else None
    for z in range(1, chain.num_stages + 1):
        if z < chain.num_stages:
            vnf_name = chain.vnf_at(z)
            load = model.vnfs[vnf_name].load_per_unit * (
                chain.stage_traffic(z) + chain.stage_traffic(z + 1)
            )
            for site in model.stage_destinations(chain, z):
                key = ("vnf", vnf_name, site)
                weights[key] = weights.get(key, 0.0) + load
                skey = ("site", site)
                weights[skey] = weights.get(skey, 0.0) + load
        if not model.routing:
            continue
        fwd = chain.forward_traffic[z - 1]
        rev = chain.reverse_traffic[z - 1]
        if fwd <= 0 and rev <= 0:
            continue
        if path is not None:
            n1 = model.endpoint_node(path[z - 1])
            n2 = model.endpoint_node(path[z])
            if fwd > 0:
                for name, f in model.links_between(n1, n2).items():
                    key = ("link", name)
                    weights[key] = weights.get(key, 0.0) + fwd * f
            if rev > 0:
                for name, f in model.links_between(n2, n1).items():
                    key = ("link", name)
                    weights[key] = weights.get(key, 0.0) + rev * f
        overflow: set[ResourceKey] = set()
        srcs = _stage_node_ids(model, sub, chain, z, destinations=False)
        dsts = _stage_node_ids(model, sub, chain, z, destinations=True)
        if fwd > 0:
            overflow.update(
                ("link", sub.link_names[li])
                for li in _pair_link_ids(sub, srcs, dsts)
            )
        if rev > 0:
            overflow.update(
                ("link", sub.link_names[li])
                for li in _pair_link_ids(sub, dsts, srcs)
            )
        for key in overflow:
            if weights.get(key, 0.0) <= 0.0:
                weights[key] = weights.get(key, 0.0) + (
                    _LINK_OVERFLOW_WEIGHT * (fwd + rev)
                )
    return weights


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def coupling_groups_reference(model: NetworkModel) -> list[list[str]]:
    """Chains grouped by shared resources, deterministically ordered."""
    uf = _UnionFind(model.chains)
    owner: dict[ResourceKey, str] = {}
    for name, chain in model.chains.items():
        for resource in chain_resources_reference(model, chain):
            first = owner.setdefault(resource, name)
            if first != name:
                uf.union(first, name)
    groups: dict[str, list[str]] = {}
    for name in model.chains:
        groups.setdefault(uf.find(name), []).append(name)
    ordered = [sorted(members) for members in groups.values()]
    ordered.sort(key=lambda members: members[0])
    return ordered


def partition_chains_reference(
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

    groups = coupling_groups_reference(model)
    needs_split = max_chains is not None and any(
        len(group) > max_chains for group in groups
    )
    weights: dict[str, dict[ResourceKey, float]] = {}
    if needs_split:
        # Splitting divides shared budgets, so the quality of the split
        # hinges on predicting where each chain's traffic really lands.
        # Amortize one fast SB-DP pre-route into the plan build and use
        # its per-chain link usage as the proportional-split weights.
        usage = _dp_link_usage(model) if model.routing else {}
        weights = {
            name: _chain_resource_weights(model, chain, usage.get(name))
            for name, chain in model.chains.items()
        }

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
        totals: dict[ResourceKey, float] = {}
        touched: dict[ResourceKey, int] = {}
        for name in group:
            for resource, weight in weights[name].items():
                totals[resource] = totals.get(resource, 0.0) + weight
                touched[resource] = touched.get(resource, 0) + 1
        for subgroup in subgroups:
            index = len(partitions)
            partitions.append(Partition(index, tuple(subgroup), exact=False))
            sub_weights: dict[ResourceKey, float] = {}
            sub_touched: dict[ResourceKey, int] = {}
            for name in subgroup:
                for resource, weight in weights[name].items():
                    sub_weights[resource] = (
                        sub_weights.get(resource, 0.0) + weight
                    )
                    sub_touched[resource] = sub_touched.get(resource, 0) + 1
            part_shares: dict[ResourceKey, float] = {}
            for resource, weight in sub_weights.items():
                total = totals[resource]
                if total > 0:
                    part_shares[resource] = weight / total
                else:
                    # Zero-demand contention (e.g. all-idle chains):
                    # split evenly among the subgroups that touch it.
                    part_shares[resource] = (
                        sub_touched[resource] / touched[resource]
                    )
            shares[index] = part_shares
    return PartitionPlan(
        partitions, shares, structure, substrate_digest=model.substrate_digest()
    )
