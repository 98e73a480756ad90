"""The one SB-LP solve path that routing and cloud-capacity planning share.

``repro.core.lp._solve_structure`` runs warm column generation when the
program is feasible at zero flow and ``linprog`` otherwise, or when
column generation fails.  These tests pin which backend each program
takes, check the ``linprog`` fallback against the scalar oracles, and
check that the capacity planner's structure cache stays coherent across
the changes a budget sweep makes.
"""

import pytest

from repro.core import highs
from repro.core import lp as lp_mod
from repro.core.capacity import (
    capacity_cache_stats,
    clear_capacity_cache,
    plan_cloud_capacity,
    plan_cloud_capacity_reference,
)
from repro.core.lp import (
    LpObjective,
    clear_matrix_cache,
    solve_chain_routing_lp,
    solve_chain_routing_lp_reference,
)
from repro.core.model import VNF, CloudSite
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES
from tests.test_vectorized_equivalence import make_model

BUDGET = 50000.0
#: Site capacity and budget at which alpha is compute-bound: it moves
#: with the budget, site capacities and demands, not only with links.
TIGHT_SITE_CAPACITY = 3000.0
TIGHT_BUDGET = 6000.0

pytestmark = pytest.mark.skipif(
    not highs.AVAILABLE, reason="scipy build without the bundled HiGHS module"
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_matrix_cache()
    clear_capacity_cache()
    yield
    clear_matrix_cache()
    clear_capacity_cache()


@pytest.fixture
def backend_calls(monkeypatch):
    """Counts of column-generation solves and ``linprog`` calls."""
    calls = {"cg": 0, "linprog": 0}
    cg_solve = highs.ColumnGenSolver.solve
    linprog = lp_mod.linprog

    def counting_solve(self, *args, **kwargs):
        calls["cg"] += 1
        return cg_solve(self, *args, **kwargs)

    def counting_linprog(*args, **kwargs):
        calls["linprog"] += 1
        return linprog(*args, **kwargs)

    monkeypatch.setattr(highs.ColumnGenSolver, "solve", counting_solve)
    monkeypatch.setattr(lp_mod, "linprog", counting_linprog)
    return calls


@pytest.fixture
def cg_fails(monkeypatch):
    def failing_solve(self, *args, **kwargs):
        raise highs.ColumnGenError("forced by test")

    monkeypatch.setattr(highs.ColumnGenSolver, "solve", failing_solve)


class TestBackendSelection:
    """Column generation runs exactly when x = 0 is feasible."""

    @pytest.mark.parametrize(
        "objective, backend",
        [
            (LpObjective.MAX_THROUGHPUT, "cg"),
            (LpObjective.MIN_LATENCY, "linprog"),
            (LpObjective.MIN_MLU, "linprog"),
        ],
    )
    def test_routing(self, backend_calls, objective, backend):
        assert solve_chain_routing_lp(make_model(), objective).ok
        assert backend_calls == {
            "cg": int(backend == "cg"),
            "linprog": int(backend == "linprog"),
        }

    def test_capacity(self, backend_calls):
        assert plan_cloud_capacity(make_model(), BUDGET).alpha > 0
        assert backend_calls == {"cg": 1, "linprog": 0}


class TestLinprogFallback:
    """A column-generation failure falls back to ``linprog``."""

    def test_max_throughput_matches_reference(self, cg_fails, backend_calls):
        model = make_model()
        fast = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert backend_calls == {"cg": 1, "linprog": 1}
        slow = solve_chain_routing_lp_reference(model, LpObjective.MAX_THROUGHPUT)
        assert fast.ok and slow.ok
        assert fast.objective == pytest.approx(slow.objective, abs=1e-6)
        assert fast.solution.throughput() == pytest.approx(
            slow.solution.throughput(), abs=1e-6
        )
        assert fast.solution.violations() == []

    def test_capacity_matches_reference(self, cg_fails, backend_calls):
        model = make_model()
        fast = plan_cloud_capacity(model, BUDGET)
        assert backend_calls == {"cg": 1, "linprog": 1}
        slow = plan_cloud_capacity_reference(model, BUDGET)
        assert fast.alpha == pytest.approx(slow.alpha, abs=1e-6)
        assert sum(fast.additional.values()) == pytest.approx(
            sum(slow.additional.values()), abs=1e-6
        )


def compute_bound_model():
    """The equivalence-test model with tight site capacities."""
    names = DEFAULT_CITIES[:8]
    config = WorkloadConfig(
        num_chains=24,
        num_vnfs=6,
        coverage=0.6,
        total_traffic=4000.0,
        site_capacity=TIGHT_SITE_CAPACITY,
        cities=names,
        seed=3,
    )
    return generate_workload(config, build_backbone(names))


def grown(model, factor):
    """``model`` with every site and per-site VNF capacity scaled."""
    sites = [
        CloudSite(s.name, s.node, s.capacity * factor) for s in model.sites.values()
    ]
    vnfs = [
        VNF(
            v.name,
            v.load_per_unit,
            {site: cap * factor for site, cap in v.site_capacity.items()},
        )
        for v in model.vnfs.values()
    ]
    return model.copy_with_sites(sites).copy_with_vnfs(vnfs)


def rescaled_demand(model):
    """``model`` with its last chain's demand scaled (same chain order)."""
    name = list(model.chains)[-1]
    chain = model.chains[name]
    model.remove_chain(name)
    model.add_chain(chain.scaled(1.7))
    return model


class TestCapacityCacheCoherence:
    """Changes that keep the capacity structure reuse it, and the reused
    structure answers as the oracle and a cold rebuild do."""

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda m: (m, TIGHT_BUDGET / 2), id="budget"),
            pytest.param(lambda m: (rescaled_demand(m), TIGHT_BUDGET), id="demand"),
            pytest.param(lambda m: (grown(m, 1.5), TIGHT_BUDGET), id="site-capacity"),
        ],
    )
    def test_reuse_matches_reference_and_rebuild(self, change):
        model = compute_bound_model()
        first = plan_cloud_capacity(model, TIGHT_BUDGET)
        before = capacity_cache_stats()
        assert before["matrix_rebuilds"] == 1

        model, budget = change(model)
        warm = plan_cloud_capacity(model, budget)
        # The change moves the optimum, so an answer from stale values
        # fails here or against the oracle below.
        assert warm.alpha != pytest.approx(first.alpha, abs=1e-3)
        after = capacity_cache_stats()
        assert after["matrix_reuse_hits"] == before["matrix_reuse_hits"] + 1
        assert after["matrix_rebuilds"] == before["matrix_rebuilds"]

        reference = plan_cloud_capacity_reference(model, budget)
        clear_capacity_cache()
        cold = plan_cloud_capacity(model, budget)
        assert capacity_cache_stats()["matrix_rebuilds"] == 1
        assert warm.alpha == pytest.approx(reference.alpha, abs=1e-6)
        assert warm.alpha == pytest.approx(cold.alpha, abs=1e-9)
