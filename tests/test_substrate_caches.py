"""Coherence of the substrate-keyed caches on ``SubstrateColumns``.

Stage link footprints, the partitioner's resource tables and the SB-DP
stage tables live on the model's columnar substrate view, so they are
shared by every plan and router on one substrate.  These tests check
that each cached answer equals the answer of a freshly built model
after the substrate changes underneath it, and that the caches stay
bounded under churn.
"""

from __future__ import annotations

import random

from repro.controller import GlobalSwitchboard, fail_link, restore_link
from repro.core.dp import DpConfig, IncrementalDpRouter, _DpTables, route_chains_dp
from repro.core.model import Chain, CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane
from repro.scale import chain_resources, partition_chains
from repro.scale.partition import _PartitionTables
from repro.topology.pops import PopGridConfig, generate_federation_workload


def federation_model(chains: int = 40) -> NetworkModel:
    model, _ = generate_federation_workload(
        PopGridConfig(num_pops=12, num_metros=2, num_chains=chains, seed=3)
    )
    return model


def rebuilt(model: NetworkModel) -> NetworkModel:
    """An independent model with the same content and no caches."""
    return NetworkModel(
        model.nodes,
        dict(model._latency),
        model.sites.values(),
        model.vnfs.values(),
        model.chains.values(),
        model.links.values(),
        model.routing,
        model.mlu_limit,
    )


def flows(model: NetworkModel) -> dict:
    solution = route_chains_dp(model, DpConfig(max_paths_per_chain=8)).solution
    return {
        (name, z): solution.stage_flows(name, z)
        for name, chain in model.chains.items()
        for z in range(1, chain.num_stages + 1)
    }


def plan_doc(model: NetworkModel) -> tuple:
    plan = partition_chains(model, 6)
    return [(p.chains, p.exact) for p in plan.partitions], plan._shares


def assert_matches_fresh(model: NetworkModel) -> None:
    fresh = rebuilt(model)
    for chain in model.chains.values():
        assert chain_resources(model, chain) == chain_resources(fresh, chain)
    assert plan_doc(model) == plan_doc(fresh)
    assert flows(model) == flows(fresh)
    assert model.digest() == fresh.digest()


def busiest_pair(model: NetworkModel) -> tuple[str, str]:
    """The node pair the most SB-DP stage flows cross."""
    counts: dict[tuple[str, str], int] = {}
    for per_stage in flows(model).values():
        for src, dst in per_stage:
            a, b = model.endpoint_node(src), model.endpoint_node(dst)
            if a != b:
                pair = tuple(sorted((a, b)))
                counts[pair] = counts.get(pair, 0) + 1
    return max(sorted(counts), key=counts.get)


class TestFailLink:
    def test_fail_and_restore_match_a_fresh_model(self):
        model = federation_model()
        gs = GlobalSwitchboard(model, DataPlane(random.Random(0)))
        before = flows(model)
        plan_doc(model)  # warm every cache on the pre-failure view
        a, b = busiest_pair(model)

        fail_link(gs, a, b)
        assert_matches_fresh(model)
        # Not vacuous: the failure really moved routes.
        assert flows(model) != before

        restore_link(gs, a, b)
        assert_matches_fresh(model)
        assert flows(model) == before


class TestCatalogSwap:
    def test_swapped_vnf_entry_refreshes_the_router(self):
        nodes = ["a", "b", "c"]
        latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
        sites = [CloudSite(s.upper(), s, 100.0) for s in nodes]
        model = NetworkModel(nodes, latency, sites, [VNF("fw", 1.0, {"A": 50.0})])
        router = IncrementalDpRouter(model)
        model.add_chain(Chain("c1", "a", "c", ["fw"], 5.0))
        router.route("c1")
        assert set(router.solution.stage_flows("c1", 1)) == {("a", "A")}

        # Redeploy fw at B only; a router serving stale stage tables
        # would still look for it at A.
        model.vnfs["fw"] = VNF("fw", 1.0, {"B": 50.0})
        model.add_chain(Chain("c2", "a", "c", ["fw"], 5.0))
        assert router.route("c2") == 1.0
        assert set(router.solution.stage_flows("c2", 1)) == {("a", "B")}


def structures(model: NetworkModel) -> set[tuple]:
    return {(c.ingress, c.egress, c.vnfs) for c in model.chains.values()}


class TestBoundedUnderChurn:
    def test_incarnation_names_do_not_grow_the_tables(self):
        model = federation_model(chains=30)
        rng = random.Random(11)
        seen = structures(model)
        for op in range(50):
            name = rng.choice(sorted(model.chains))
            chain = model.chains[name]
            model.remove_chain(name)
            base, _, count = name.partition("~")
            model.add_chain(
                Chain(
                    f"{base}~{int(count or 0) + 1}",
                    chain.ingress,
                    chain.egress,
                    chain.vnfs,
                    chain.forward_traffic,
                    chain.reverse_traffic,
                )
            )
            seen |= structures(model)
            route_chains_dp(model)
            if op % 10 == 0:
                partition_chains(model, 6)
        tables = model.substrate_columns()._tables.values()
        dp = [t for t in tables if isinstance(t, _DpTables)]
        assert dp and all(len(t.fronts) <= len(seen) for t in dp)
        part = [t for t in tables if isinstance(t, _PartitionTables)]
        assert part and all(len(t._footprints) <= len(seen) for t in part)

    def test_invalidate_substrate_drops_the_caches(self):
        model = federation_model(chains=10)
        route_chains_dp(model)
        partition_chains(model, 3)
        assert model.substrate_columns()._tables
        model.invalidate_substrate()
        assert not model.substrate_columns()._tables

    def test_copy_with_chains_shares_and_rescaled_copies_do_not(self):
        model = federation_model(chains=20)
        route_chains_dp(model)
        copy = model.copy_with_chains(list(model.chains.values())[:5])
        assert copy.substrate_columns() is model.substrate_columns()
        plan = partition_chains(model, 4)
        split = next(p for p in plan.partitions if not p.exact)
        sub = plan.submodel(model, split.index)
        assert sub.substrate_columns() is not model.substrate_columns()
        assert not sub.substrate_columns()._tables
        # Shared, unscaled arrays; rescaled budgets.
        assert sub.substrate_columns().pair_id is model.substrate_columns().pair_id
        assert sub.substrate_columns().latency is model.substrate_columns().latency
