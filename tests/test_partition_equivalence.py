"""The columnar partitioner against its scalar oracle.

``repro.scale.partition`` builds coupling groups, proportional-split
weights and capacity shares from substrate-keyed link footprints and
columnar passes; ``tests/oracles/partition_reference.py`` keeps the
per-chain scalar loops it replaced.  Membership and shares must agree
*exactly* (``==``, never approx), so a plan -- and every solve keyed on
it -- is unchanged by the rewrite.
"""

from __future__ import annotations

import pytest

from repro.core.model import VNF, Chain, NetworkModel
from repro.scale import chain_resources, coupling_groups, partition_chains
from repro.scale.partition import _dp_flow_entries, _path_link_weights, _tables
from repro.scenarios.library import SCENARIO_KINDS, WorkloadContext, generate
from repro.topology.pops import PopGridConfig, generate_federation_workload
from tests.oracles.partition_reference import (
    chain_resources_reference,
    coupling_groups_reference,
    partition_chains_reference,
)


def federation_model(seed: int, chains: int = 40) -> NetworkModel:
    model, _ = generate_federation_workload(
        PopGridConfig(num_pops=12, num_metros=2, num_chains=chains, seed=seed)
    )
    return model


def without_routing(model: NetworkModel) -> NetworkModel:
    return NetworkModel(
        model.nodes,
        model._latency,
        model.sites.values(),
        model.vnfs.values(),
        model.chains.values(),
        mlu_limit=model.mlu_limit,
    )


def assert_same_plan(model: NetworkModel, max_chains: int | None) -> int:
    """Compare every partitioner output with the oracle; returns the
    number of split partitions (so callers can check the case is not
    vacuous)."""
    plan = partition_chains(model, max_chains)
    reference = partition_chains_reference(model, max_chains)
    assert [(p.index, p.chains, p.exact) for p in plan.partitions] == [
        (p.index, p.chains, p.exact) for p in reference.partitions
    ]
    assert plan._shares == reference._shares
    assert plan.substrate_digest == reference.substrate_digest
    assert coupling_groups(model) == coupling_groups_reference(model)
    for chain in model.chains.values():
        assert chain_resources(model, chain) == chain_resources_reference(
            model, chain
        )
    return sum(not p.exact for p in plan.partitions)


class TestFederationWorkloads:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("max_chains", [3, 8, None])
    def test_routing_on(self, seed, max_chains):
        split = assert_same_plan(federation_model(seed), max_chains)
        if max_chains is not None:
            assert split > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_routing_off(self, seed):
        model = without_routing(federation_model(seed))
        assert not model.routing
        assert assert_same_plan(model, 4) > 0

    def test_repeated_plans_reuse_caches_without_drift(self):
        # A second plan on the same substrate hits every cache; it must
        # still equal the oracle (and the first plan).
        model = federation_model(4)
        first = partition_chains(model, 5)
        assert_same_plan(model, 5)
        second = partition_chains(model, 5)
        assert second._shares == first._shares


def zero_demand_model() -> NetworkModel:
    """Chains with zero-demand stages and fully idle chains, so both
    the overflow rules and the zero-total share split are exercised."""
    model = federation_model(5, chains=30)
    for i, (name, chain) in enumerate(sorted(model.chains.items())):
        stages = chain.num_stages
        if i % 3 == 0:
            fwd = tuple(0.0 if z % 2 else w for z, w in enumerate(chain.forward_traffic))
            rev = tuple(0.0 for _ in range(stages))
        elif i % 3 == 1:
            fwd = rev = (0.0,) * stages
        else:
            continue
        model.remove_chain(name)
        model.add_chain(Chain(name, chain.ingress, chain.egress, chain.vnfs, fwd, rev))
    return model


class TestZeroDemand:
    @pytest.mark.parametrize("max_chains", [2, 4])
    def test_zero_demand_stages(self, max_chains):
        assert assert_same_plan(zero_demand_model(), max_chains) > 0

    def test_all_idle_group_splits_evenly(self):
        model = zero_demand_model()
        for name, chain in list(model.chains.items()):
            model.remove_chain(name)
            model.add_chain(chain.scaled(0.0))
        assert assert_same_plan(model, 3) > 0

    def test_zero_demand_without_routing(self):
        assert assert_same_plan(without_routing(zero_demand_model()), 3) > 0


def starved_model() -> NetworkModel:
    """The most used VNF gets zero capacity at every site, so the SB-DP
    pre-route cannot carry the chains through it."""
    model = federation_model(1)
    uses: dict[str, int] = {}
    for chain in model.chains.values():
        for vnf in chain.vnfs:
            uses[vnf] = uses.get(vnf, 0) + 1
    name = max(sorted(uses), key=uses.get)
    old = model.vnfs[name]
    model.vnfs[name] = VNF(
        name, old.load_per_unit, {site: 0.0 for site in old.site_capacity}
    )
    model.invalidate_substrate()
    return model


class TestChainsWithoutPreRoute:
    """Chains the pre-route carried nothing for take their link weights
    from the latency-best path plus the overflow share, stage by stage."""

    def test_capacity_starved_chains(self):
        model = starved_model()
        sub, tables = _tables(model)
        names = list(model.chains)
        rows, _, _ = _dp_flow_entries(
            model, sub, {name: i for i, name in enumerate(names)}
        )
        carried = {names[r] for r in rows.tolist()}
        path_weighted = []
        for name in names:
            chain = model.chains[name]
            if name in carried or not any(
                w > 0 for w in chain.forward_traffic + chain.reverse_traffic
            ):
                continue
            fp = tables.footprint(model, sub, chain)
            if _path_link_weights(model, sub, fp, chain):
                path_weighted.append(name)
        # The case is not vacuous: chains with positive demand and no
        # pre-route usage get non-empty path link weights, and they sit
        # in split groups, where the weights set the shares.
        assert len(path_weighted) >= 3
        plan = partition_chains(model, 3)
        assert any(
            not plan.partitions[plan.chain_partition[name]].exact
            for name in path_weighted
        )
        assert assert_same_plan(model, 3) > 0


def scenario_models(kind: str, seed: int) -> list[NetworkModel]:
    """Chain sets produced by one library scenario on a routed substrate.

    Logical site indices map onto the substrate's nodes and a create's
    ``stages`` picks that many catalog VNFs; snapshots are taken after
    each third of the schedule.
    """
    base = federation_model(seed, chains=16)
    nodes = sorted(base.nodes)
    vnfs = [v for v in sorted(base.vnfs) if base.vnfs[v].site_capacity]
    schedule = generate(kind, seed, WorkloadContext(num_sites=len(nodes)))
    ops = schedule.ops
    snapshots = []
    for i, op in enumerate(ops, start=1):
        if op.op == "create" and op.chain not in base.chains:
            ingress = nodes[op.ingress % len(nodes)]
            egress = nodes[op.egress % len(nodes)]
            picks = [vnfs[(op.ingress + k) % len(vnfs)] for k in range(op.stages)]
            base.add_chain(
                Chain(op.chain, ingress, egress, picks, op.value, op.value * 0.25)
            )
        elif op.op == "remove" and op.chain in base.chains:
            base.remove_chain(op.chain)
        elif op.op == "redemand" and op.chain in base.chains:
            chain = base.chains[op.chain]
            base.remove_chain(op.chain)
            base.add_chain(chain.scaled(op.value))
        if i % max(1, len(ops) // 3) == 0 and base.chains:
            snapshots.append(base.copy_with_chains(base.chains.values()))
    return snapshots


class TestScenarioGenerators:
    @pytest.mark.parametrize("kind", sorted(SCENARIO_KINDS))
    def test_library_scenarios(self, kind):
        split = 0
        for model in scenario_models(kind, seed=3):
            split += assert_same_plan(model, 6)
        assert split > 0
