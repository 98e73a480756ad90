"""A federated plan is a function of its inputs, not of the hash seed.

String hashing is randomized per process (``PYTHONHASHSEED``), so any
iteration over a set of chain names that reaches a regional model
changes chain insertion order -- and with it the SB-DP pre-route, the
partition shares and, through an LP with several optima, the carried
demand.  This test replays one small federated churn in fresh
interpreters under two hash seeds and requires every per-op output to
match exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def churn_fingerprint(ops: int = 6) -> list:
    """Per-op carried demand and every region's partition shares for a
    small churn: re-demands, removals and fresh submits, each followed
    by an incremental ``resolve``."""
    import random

    from repro.core.lp import LpObjective
    from repro.federation import GlobalCoordinator
    from repro.topology.pops import PopGridConfig, generate_federation_workload

    # Per-chain demand of the 176-chain benchmark grid, on fewer PoPs.
    model, _ = generate_federation_workload(
        PopGridConfig(
            num_pops=18,
            num_metros=3,
            num_chains=60,
            total_traffic=PopGridConfig.total_traffic * 60 / 176,
            seed=7,
        )
    )
    catalogue = dict(model.chains)
    held = sorted(catalogue)[::6]
    for name in held:
        model.remove_chain(name)
    coordinator = GlobalCoordinator(
        model, n_regions=3, partition_size=6, max_workers=1
    )
    coordinator.sync_chains()
    coordinator.plan_all(LpObjective.MAX_THROUGHPUT)
    rng = random.Random(3)
    out = []
    for _ in range(ops):
        name = held.pop(rng.randrange(len(held)))
        try:
            coordinator.submit(catalogue[name])
        except Exception as exc:  # recorded, so a rejection must repeat too
            out.append(f"submit {name}: {type(exc).__name__}")
        victim = rng.choice(coordinator.installed())
        coordinator.remove(victim)
        intra = [n for n in coordinator.installed() if not coordinator.is_cross(n)]
        changed = rng.sample(intra, 6)
        for name in changed:
            chain = model.chains[name]
            model.remove_chain(name)
            model.add_chain(chain.scaled(rng.choice((0.8, 1.25))))
        plan = coordinator.resolve(model, changed)
        shares = {
            region: sorted(
                (i, sorted((repr(k), repr(v)) for k, v in s.items()))
                for i, s in regional.farm.plan._shares.items()
            )
            for region, regional in sorted(coordinator.regionals.items())
            if regional.farm.plan is not None
        }
        out.append([repr(plan.carried_demand), shares])
    return out


def _run(hash_seed: str) -> list:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    code = (
        "import json; from tests.test_federation_determinism import "
        "churn_fingerprint; print(json.dumps(churn_fingerprint()))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(result.stdout)


def test_federated_churn_is_independent_of_hash_seed():
    first = _run("0")
    assert len(first) == 6
    assert _run("1") == first
