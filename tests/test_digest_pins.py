"""``NetworkModel`` digests stay byte-identical to the JSON document.

The model hashes cached, pre-encoded fragments of its digest document
instead of encoding the whole document on every call.  The hex values
are pinned by committed baselines (``model_digest`` in
``benchmarks/baselines``) and by every solution-cache key, so each
digest must equal the one-shot ``json.dumps`` reference kept in
``tests/oracles/digest_reference.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import bench as rb
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.scale import partition_chains
from repro.topology.pops import PopGridConfig, generate_federation_workload
from tests.oracles.digest_reference import (
    capacity_structure_digest_reference,
    digest_reference,
    structure_digest_reference,
    substrate_digest_reference,
)

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


def assert_pinned(model: NetworkModel) -> None:
    assert model.digest() == digest_reference(model)
    assert model.substrate_digest() == substrate_digest_reference(model)
    assert model.structure_digest() == structure_digest_reference(model)
    assert model.capacity_structure_digest() == (
        capacity_structure_digest_reference(model)
    )
    if model.chains:
        subset = sorted(model.chains)[::2]
        assert model.digest(subset) == digest_reference(model, subset)


def random_model(seed: int) -> NetworkModel:
    """Random substrate and chains: integer and float capacities, zero
    demands, links with routing fractions, and an MLU budget."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(3, 7))]
    latency = {
        (a, b): rng.choice([rng.uniform(1, 50), float(rng.randint(1, 9))])
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if rng.random() < 0.8
    }
    sites = [
        CloudSite(f"S{n}", n, rng.choice([100, rng.uniform(0, 500)]))
        for n in nodes
        if rng.random() < 0.7
    ] or [CloudSite("S0", nodes[0], 10.0)]
    site_names = [s.name for s in sites]
    vnfs = [
        VNF(
            f"f{k}",
            rng.choice([1, 0.5, rng.uniform(0.1, 2)]),
            {
                s: rng.uniform(0, 80)
                for s in rng.sample(site_names, rng.randint(1, len(site_names)))
            },
        )
        for k in range(rng.randint(1, 4))
    ]
    links, routing = [], {}
    for i, a in enumerate(nodes[:-1]):
        b = nodes[i + 1]
        for src, dst in ((a, b), (b, a)):
            name = f"{src}-{dst}"
            links.append(Link(name, src, dst, rng.uniform(50, 200), rng.uniform(0, 20)))
            routing[(src, dst)] = {name: rng.choice([1.0, 0.5, rng.random()])}
    chains = []
    for c in range(rng.randint(0, 6)):
        picks = [v.name for v in rng.sample(vnfs, rng.randint(0, len(vnfs)))]
        stages = len(picks) + 1
        chains.append(
            Chain(
                f"c{c}",
                rng.choice(nodes),
                rng.choice(nodes),
                picks,
                [rng.choice([0.0, rng.uniform(0, 10)]) for _ in range(stages)],
                rng.choice([0.0, 2.5]),
            )
        )
    return NetworkModel(
        nodes, latency, sites, vnfs, chains, links, routing,
        mlu_limit=rng.choice([1.0, 0.8]),
    )


class TestDigestReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_models(self, seed):
        assert_pinned(random_model(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_copies_share_fragments(self, seed):
        model = random_model(seed)
        assert_pinned(model)  # fills the fragment cache
        copy = model.copy_with_chains(list(model.chains.values())[:2])
        assert_pinned(copy)
        assert_pinned(model)

    def test_split_submodels_with_scaled_capacities(self):
        model, _ = generate_federation_workload(
            PopGridConfig(num_pops=12, num_metros=2, num_chains=30, seed=2)
        )
        assert_pinned(model)
        plan = partition_chains(model, 4)
        split = [p for p in plan.partitions if not p.exact]
        assert split
        for part in plan.partitions:
            assert_pinned(plan.submodel(model, part.index))

    def test_after_invalidate_substrate(self):
        model = random_model(3)
        assert_pinned(model)
        key = next(iter(model._latency))
        model._latency[key] = float("inf")  # a failed link, in place
        model.invalidate_substrate()
        assert_pinned(model)
        model._latency[key] = 7.0
        model.invalidate_substrate()
        assert_pinned(model)


class TestCommittedBaselines:
    def test_model_digests_unchanged(self):
        pinned = {}
        for path in sorted(BASELINES.glob("*.json")):
            digest = json.loads(path.read_text()).get("model_digest")
            if digest is not None:
                pinned[path.stem] = digest
        assert pinned
        suites = rb.discover(sorted(pinned))
        for name, digest in pinned.items():
            model = suites[name].model_factory()
            assert model.digest() == digest, name
            assert digest_reference(model) == digest, name
