"""The synchronous federated op layer shared by the scripted soak and
the scenario fuzzer's federated stack."""

from repro.federation import GlobalCoordinator
from repro.federation.soak import FederatedOps, install_base
from repro.topology.pops import PopGridConfig, generate_federation_workload


def deployed():
    model, _metro_of = generate_federation_workload(
        PopGridConfig(
            num_pops=12, num_metros=3, num_chains=24, locality=0.5, seed=1
        )
    )
    coordinator = GlobalCoordinator(
        model, n_regions=3, partition_size=8, max_workers=1
    )
    chains = sorted(model.chains.values(), key=lambda c: c.name)
    for chain in chains:
        model.remove_chain(chain.name)
    tally = install_base(coordinator, chains)
    assert tally["installed"] + tally["rejected"] == len(chains)
    return model, coordinator


def test_failed_redemand_leaves_the_model_as_the_coordinator_holds_it():
    model, coordinator = deployed()
    installed = coordinator.installed()
    # resolve re-plans names in sorted order, so the intra chain is
    # re-planned before the cross chain's border refuses its surge.
    intra = min(n for n in installed if not coordinator.is_cross(n))
    cross = min(
        n for n in installed if coordinator.is_cross(n) and n > intra
    )
    before = {name: model.chains[name] for name in (intra, cross)}
    ops = FederatedOps(model, coordinator, "detail")

    assert not ops.redemand({intra: 1.1, cross: 1e6})

    assert ops.last_plan is None
    for name in (intra, cross):
        assert model.chains[name] == coordinator.installed_chain(name)
    assert model.chains[cross] == before[cross]
    assert model.chains[intra] == before[intra].scaled(1.1)
