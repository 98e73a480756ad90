"""Capacity planning: the two planning problems of Sections 4.2-4.3.

**Cloud capacity planning** (Figure 13b): given an additional compute
budget ``A`` to spread across sites, choose per-site additions ``a_s``
maximizing the uniform traffic-scale factor ``alpha`` that the network
can still route.  The paper adapts the chain-routing LP; the bilinear
``alpha * x`` product is linearized by substituting absolute flow
variables ``y = alpha * x``, after which every constraint is linear.

**VNF capacity planning** (Figure 13c): given a number of new sites
``y_f`` for each VNF, choose the placement ``S'_f`` (disjoint from the
existing ``S_f``) minimizing the aggregate weighted latency.  This is the
paper's mixed-integer program with binary placement variables ``w_fs``;
we solve it with ``scipy.optimize.milp`` (HiGHS branch-and-bound).

Baselines used by the Figure 13 benches -- uniform cloud provisioning and
random VNF placement -- live here too so every comparison shares one
implementation of the accounting.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_matrix

from repro.core import lp
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.core.routes import RoutingSolution

_EPS = 1e-9


class CapacityPlanningError(Exception):
    """Raised when a planning program cannot be constructed or solved."""


# ---------------------------------------------------------------------------
# Cloud capacity planning
# ---------------------------------------------------------------------------


@dataclass
class CloudCapacityPlan:
    """Result of :func:`plan_cloud_capacity`."""

    alpha: float
    additional: dict[str, float]
    solution: RoutingSolution | None
    solve_seconds: float

    def planned_sites(self, model: NetworkModel) -> list[CloudSite]:
        """Site list with the planned additions applied."""
        return [
            CloudSite(s.name, s.node, s.capacity + self.additional.get(s.name, 0.0))
            for s in model.sites.values()
        ]


# ---------------------------------------------------------------------------
# Columnar assembly on the SB-LP blocks (repro.core.lp)
# ---------------------------------------------------------------------------


class _CapacityStructure(lp._MatrixStructure):
    """Cloud-capacity LP structure that survives capacity/demand changes.

    Everything numeric that a budget sweep changes -- site capacities,
    per-site VNF capacities, the budget itself, and demand magnitudes --
    is refreshed into the data vector and RHS per call; the sparsity
    pattern and row order are fixed.  Link bandwidths, backgrounds and
    the MLU budget are part of ``capacity_structure_digest``, so the
    link-row bounds are fixed with the structure.
    """

    alpha_index: int
    site_rows: np.ndarray  # per-site rows; bound = capacity of ``sites``
    sites: np.ndarray
    vnf_rows: np.ndarray  # (VNF, site) rows; bound = capacity of the pair
    pair_vnf: np.ndarray
    pair_site: np.ndarray
    # Relief entries -cap/site_cap on the (VNF, site) rows of sites with
    # positive capacity: the last UB entries, rewritten on every call.
    relief: np.ndarray
    relief_entries: slice
    budget_row: int

    def refreshed_ub(
        self, model: NetworkModel, budget: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, data, b_ub) under current capacities/demands."""
        sub = model.substrate_columns()
        caps = lp._pair_caps(sub, self.pair_vnf, self.pair_site)
        data = self.refreshed_ub_data(model.chain_columns())
        data[self.relief_entries] = (
            -caps[self.relief] / sub.site_capacity[self.pair_site[self.relief]]
        )
        b_ub = self.b_ub.copy()
        b_ub[self.site_rows] = sub.site_capacity[self.sites]
        b_ub[self.vnf_rows] = caps
        b_ub[self.budget_row] = budget
        return self.ub_rows, self.ub_cols, data, b_ub


_CAPACITY_CACHE = lp._StructureCache(16, "capacity")


def capacity_cache_stats() -> dict[str, int]:
    return _CAPACITY_CACHE.stats()


def clear_capacity_cache() -> None:
    _CAPACITY_CACHE.clear()


def _build_capacity_structure(model: NetworkModel) -> _CapacityStructure:
    """Vectorized COO assembly of the cloud-capacity LP.

    Row order replicates the scalar reference: the equality block is
    coverage (chain dict order, with the ``-alpha`` coupling) then flow
    conservation; the inequality block is per-site rows sorted by name,
    (VNF, site) rows sorted by name, the budget row, then link rows
    sorted by name.
    """
    flow = lp._FlowRows(model)
    sub = flow.sub
    n_flow = flow.n_flow
    n_chains = len(flow.ch.chain_names)
    n_sites = len(sub.site_names)
    alpha_index = n_flow + n_sites
    ub, eq = lp._Coo(), lp._Coo()

    eq.add(flow.cover_rows, flow.stage1_vars, np.ones(flow.stage1_vars.size))
    eq.add(np.arange(n_chains), np.full(n_chains, alpha_index), -np.ones(n_chains))
    eq.close(np.zeros(n_chains))
    eq.add(flow.cons_rows, flow.cmp_vars, flow.cons_data)
    eq.close(np.zeros(flow.n_cons))

    # Per-site rows first (sorted by site name), relief -1.0 on a_s.
    n_present = len(flow.sites)
    ub.add(flow.site_inverse, *flow.compute)
    ub.add(np.arange(n_present), n_flow + flow.sites, -np.ones(n_present))
    site_rows = ub.n_rows + np.arange(n_present)
    ub.close(sub.site_capacity[flow.sites])
    # (VNF, site) rows sorted by (vnf name, site name); the relief
    # coefficient -cap/site_cap is refreshed per call.
    vnf_rows = ub.n_rows + np.arange(len(flow.pair_vnf))
    ub.add(flow.pair_inverse, *flow.compute)
    ub.close(lp._pair_caps(sub, flow.pair_vnf, flow.pair_site))
    # Budget row; the budget itself is refreshed per call.
    budget_row = ub.n_rows
    ub.add(np.zeros(n_sites), n_flow + np.arange(n_sites), np.ones(n_sites))
    ub.close([0.0])
    links = flow.link_entries()
    if links is not None:
        rows, lnk_vars, frac, kind, present = links
        ub.add(rows, lnk_vars, frac, kind, flow.var_stage[lnk_vars])
        ub.close(sub.headroom()[present])
    # Relief entries go last, so each call rewrites one contiguous tail.
    relief = sub.site_capacity[flow.pair_site] > 0
    n_relief = int(relief.sum())
    ub.add(
        vnf_rows[relief] - ub.n_rows,
        n_flow + flow.pair_site[relief],
        np.zeros(n_relief),
    )

    # Column-generation seeds also hold every site addition and alpha.
    seeds = flow.seed_columns(n_flow + np.arange(n_sites), [alpha_index])
    structure = _CapacityStructure(
        flow, ub, eq, alpha_index + 1, np.full(alpha_index + 1, np.inf), seeds
    )
    structure.alpha_index = alpha_index
    structure.site_rows, structure.sites = site_rows, flow.sites
    structure.vnf_rows = vnf_rows
    structure.pair_vnf, structure.pair_site = flow.pair_vnf, flow.pair_site
    structure.relief = relief
    structure.relief_entries = slice(len(structure.ub_rows) - n_relief, None)
    structure.budget_row = budget_row
    return structure


def _capacity_structure_for(model: NetworkModel) -> _CapacityStructure:
    return _CAPACITY_CACHE.get(
        model.capacity_structure_digest(),
        lambda: _build_capacity_structure(model),
    )


def plan_cloud_capacity(
    model: NetworkModel, budget: float
) -> CloudCapacityPlan:
    """Distribute ``budget`` extra compute across sites to maximize the
    traffic scale factor ``alpha`` (all chains scaled uniformly).

    Variables: ``y_{c z n1 n2}`` (absolute flow fractions scaled by
    alpha), ``a_s`` (per-site additions), and ``alpha``.
    """
    if budget < 0:
        raise CapacityPlanningError(f"negative budget {budget}")
    if not model.chains:
        raise CapacityPlanningError("model has no chains")

    structure = _capacity_structure_for(model)
    cost = np.zeros(structure.n_total)
    cost[structure.alpha_index] = -1.0  # maximize alpha
    solved = lp._solve_structure(
        structure, cost, *structure.refreshed_ub(model, budget)
    )
    if solved.x is None:
        raise CapacityPlanningError(
            f"cloud capacity LP failed: {solved.message}"
        )
    x = solved.x

    alpha = float(x[structure.alpha_index])
    n_flow = structure.n_flow
    additional = {
        s: float(x[n_flow + i])
        for i, s in enumerate(model.sites)
        if x[n_flow + i] > _EPS
    }
    solution = None
    if alpha > _EPS:
        solution = lp._extract_solution(model, np.minimum(x[:n_flow] / alpha, 1.0))
    return CloudCapacityPlan(alpha, additional, solution, solved.seconds)


@dataclass
class _ScalarCloudProgram:
    """The scalar-assembled cloud-capacity LP (for equivalence tests)."""

    cost: np.ndarray
    a_ub: csr_matrix
    b_ub: np.ndarray
    a_eq: csr_matrix
    b_eq: np.ndarray
    vars_list: list[tuple[str, int, str, str]]
    site_index: dict[str, int]
    alpha_index: int
    n_total: int


def _scalar_cloud_program(
    model: NetworkModel, budget: float
) -> _ScalarCloudProgram:
    """The original per-variable Python-loop assembly, kept verbatim."""
    var_index: dict[tuple[str, int, str, str], int] = {}
    vars_list: list[tuple[str, int, str, str]] = []
    for cname, chain in model.chains.items():
        for z in range(1, chain.num_stages + 1):
            for src in model.stage_sources(chain, z):
                for dst in model.stage_destinations(chain, z):
                    var_index[(cname, z, src, dst)] = len(vars_list)
                    vars_list.append((cname, z, src, dst))

    n_flow = len(vars_list)
    sites = list(model.sites)
    site_index = {s: n_flow + i for i, s in enumerate(sites)}
    alpha_index = n_flow + len(sites)
    n = alpha_index + 1

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    b_ub: list[float] = []
    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_data: list[float] = []
    b_eq: list[float] = []

    def add_ub(coeffs: dict[int, float], bound: float) -> None:
        row = len(b_ub)
        for col, val in coeffs.items():
            rows.append(row)
            cols.append(col)
            data.append(val)
        b_ub.append(bound)

    def add_eq(coeffs: dict[int, float], value: float) -> None:
        row = len(b_eq)
        for col, val in coeffs.items():
            eq_rows.append(row)
            eq_cols.append(col)
            eq_data.append(val)
        b_eq.append(value)

    # Coverage: stage-1 flow sums to alpha for every chain.
    for cname, chain in model.chains.items():
        coeffs = {
            var_index[(cname, 1, src, dst)]: 1.0
            for src in model.stage_sources(chain, 1)
            for dst in model.stage_destinations(chain, 1)
        }
        coeffs[alpha_index] = -1.0
        add_eq(coeffs, 0.0)

    # Flow conservation.
    for cname, chain in model.chains.items():
        for z in range(1, chain.num_stages):
            for site in model.stage_destinations(chain, z):
                coeffs: dict[int, float] = {}
                for src in model.stage_sources(chain, z):
                    coeffs[var_index[(cname, z, src, site)]] = 1.0
                for dst in model.stage_destinations(chain, z + 1):
                    idx = var_index[(cname, z + 1, site, dst)]
                    coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                add_eq(coeffs, 0.0)

    # Compute loads per (VNF, site) and per site.
    vnf_site_coeffs: dict[tuple[str, str], dict[int, float]] = {}
    for i, (cname, z, src, dst) in enumerate(vars_list):
        chain = model.chains[cname]
        traffic = chain.stage_traffic(z)
        if z < chain.num_stages:
            vnf = chain.vnf_at(z)
            load = model.vnfs[vnf].load_per_unit * traffic
            coeffs = vnf_site_coeffs.setdefault((vnf, dst), {})
            coeffs[i] = coeffs.get(i, 0.0) + load
        if z > 1:
            vnf = chain.vnf_at(z - 1)
            load = model.vnfs[vnf].load_per_unit * traffic
            coeffs = vnf_site_coeffs.setdefault((vnf, src), {})
            coeffs[i] = coeffs.get(i, 0.0) + load

    # Per-site totals get the a_s relief; per-VNF capacities scale with
    # the site's relative growth (the paper assumes site capacity is
    # divided among its VNF instances, so extra site capacity grows each
    # hosted VNF proportionally).
    site_coeffs: dict[str, dict[int, float]] = {}
    for (_vnf, site), coeffs in vnf_site_coeffs.items():
        merged = site_coeffs.setdefault(site, {})
        for col, val in coeffs.items():
            merged[col] = merged.get(col, 0.0) + val
    for site, coeffs in sorted(site_coeffs.items()):
        coeffs = dict(coeffs)
        coeffs[site_index[site]] = -1.0
        add_ub(coeffs, model.sites[site].capacity)

    for (vnf, site), coeffs in sorted(vnf_site_coeffs.items()):
        cap = model.vnfs[vnf].site_capacity.get(site, 0.0)
        site_cap = model.sites[site].capacity
        coeffs = dict(coeffs)
        if site_cap > 0:
            # VNF share of the site grows in proportion to the addition.
            coeffs[site_index[site]] = -cap / site_cap
        add_ub(coeffs, cap)

    # Budget.
    add_ub({site_index[s]: 1.0 for s in sites}, budget)

    # Link capacity under scaled traffic.
    if model.links and model.routing:
        link_coeffs: dict[str, dict[int, float]] = {}
        for i, (cname, z, src, dst) in enumerate(vars_list):
            chain = model.chains[cname]
            fwd = chain.forward_traffic[z - 1]
            rev = chain.reverse_traffic[z - 1]
            n1, n2 = model.endpoint_node(src), model.endpoint_node(dst)
            if fwd > 0:
                for link_name, frac in model.links_between(n1, n2).items():
                    c = link_coeffs.setdefault(link_name, {})
                    c[i] = c.get(i, 0.0) + fwd * frac
            if rev > 0:
                for link_name, frac in model.links_between(n2, n1).items():
                    c = link_coeffs.setdefault(link_name, {})
                    c[i] = c.get(i, 0.0) + rev * frac
        for link_name, coeffs in sorted(link_coeffs.items()):
            link = model.links[link_name]
            add_ub(
                coeffs,
                max(0.0, model.mlu_limit * link.bandwidth - link.background),
            )

    cost = np.zeros(n)
    cost[alpha_index] = -1.0  # maximize alpha

    return _ScalarCloudProgram(
        cost=cost,
        a_ub=csr_matrix((data, (rows, cols)), shape=(len(b_ub), n)),
        b_ub=np.array(b_ub),
        a_eq=csr_matrix((eq_data, (eq_rows, eq_cols)), shape=(len(b_eq), n)),
        b_eq=np.array(b_eq),
        vars_list=vars_list,
        site_index=site_index,
        alpha_index=alpha_index,
        n_total=n,
    )


def plan_cloud_capacity_reference(
    model: NetworkModel, budget: float
) -> CloudCapacityPlan:
    """The pre-vectorization scalar path (ground truth for tests)."""
    if budget < 0:
        raise CapacityPlanningError(f"negative budget {budget}")
    if not model.chains:
        raise CapacityPlanningError("model has no chains")

    program = _scalar_cloud_program(model, budget)
    vars_list = program.vars_list
    site_index = program.site_index
    alpha_index = program.alpha_index
    sites = list(model.sites)

    start = time.perf_counter()
    result = linprog(
        program.cost,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=[(0.0, None)] * program.n_total,
        method="highs",
    )
    elapsed = time.perf_counter() - start
    if not result.success:
        raise CapacityPlanningError(f"cloud capacity LP failed: {result.message}")

    alpha = float(result.x[alpha_index])
    additional = {
        s: float(result.x[site_index[s]])
        for s in sites
        if result.x[site_index[s]] > _EPS
    }

    solution = None
    if alpha > _EPS:
        solution = RoutingSolution(model)
        for i, (cname, z, src, dst) in enumerate(vars_list):
            frac = float(result.x[i]) / alpha
            if frac > RoutingSolution.EPSILON:
                solution.add_flow(cname, z, src, dst, min(frac, 1.0))
    return CloudCapacityPlan(alpha, additional, solution, elapsed)


def uniform_cloud_plan(model: NetworkModel, budget: float) -> CloudCapacityPlan:
    """Baseline: spread the budget evenly across all sites, then measure
    the achievable alpha with the routing LP substrate."""
    if not model.sites:
        raise CapacityPlanningError("model has no sites")
    share = budget / len(model.sites)
    additional = {s: share for s in model.sites}
    alpha, solution = _max_alpha_fixed_capacity(model, additional)
    return CloudCapacityPlan(alpha, additional, solution, 0.0)


def max_alpha(model: NetworkModel) -> float:
    """The uniform traffic-scale factor the current capacities support."""
    alpha, _ = _max_alpha_fixed_capacity(model, {})
    return alpha


def _max_alpha_fixed_capacity(
    model: NetworkModel, additional: dict[str, float]
) -> tuple[float, RoutingSolution | None]:
    """Solve the alpha-maximization with capacities fixed (budget spent)."""
    sites = [
        CloudSite(s.name, s.node, s.capacity + additional.get(s.name, 0.0))
        for s in model.sites.values()
    ]
    # Scale each VNF's per-site capacity with its site's growth, matching
    # the proportional model used in plan_cloud_capacity.
    vnfs = []
    for vnf in model.vnfs.values():
        caps = {}
        for site, cap in vnf.site_capacity.items():
            base = model.sites[site].capacity
            extra = additional.get(site, 0.0)
            factor = (base + extra) / base if base > 0 else 1.0
            caps[site] = cap * factor
        vnfs.append(VNF(vnf.name, vnf.load_per_unit, caps))
    grown = model.copy_rescaled(
        sites, vnfs, model.links.values(), model.chains.values()
    )
    plan = plan_cloud_capacity(grown, budget=0.0)
    return plan.alpha, plan.solution


# ---------------------------------------------------------------------------
# VNF capacity planning (MIP)
# ---------------------------------------------------------------------------


@dataclass
class VnfPlacementPlan:
    """Result of :func:`plan_vnf_placement`."""

    #: VNF name -> list of newly selected sites.
    new_sites: dict[str, list[str]]
    objective: float
    solution: RoutingSolution | None
    solve_seconds: float
    status: str = "optimal"
    new_site_capacity: dict[tuple[str, str], float] = field(default_factory=dict)

    def apply(self, model: NetworkModel) -> NetworkModel:
        """Return a model with the planned deployments added."""
        vnfs = []
        for vnf in model.vnfs.values():
            extra = {
                site: self.new_site_capacity.get((vnf.name, site), 0.0)
                for site in self.new_sites.get(vnf.name, [])
            }
            vnfs.append(vnf.with_sites(extra) if extra else vnf)
        return model.copy_with_vnfs(vnfs)


def plan_vnf_placement(
    model: NetworkModel,
    new_sites_per_vnf: dict[str, int],
    new_site_capacity: float,
    time_limit: float | None = 60.0,
) -> VnfPlacementPlan:
    """Choose new deployment sites for VNFs minimizing weighted latency.

    Implements the paper's MIP: binary ``w_fs`` decides whether VNF ``f``
    is newly placed at site ``s`` (restricted to sites outside the
    existing ``S_f``), a linking constraint forbids routing load onto an
    unopened site, and at most ``new_sites_per_vnf[f]`` sites open per
    VNF.  Every new deployment receives ``new_site_capacity``.
    """
    for vnf_name in new_sites_per_vnf:
        if vnf_name not in model.vnfs:
            raise CapacityPlanningError(f"unknown VNF {vnf_name!r}")

    # Extended catalog: planned VNFs become available everywhere.
    extended_vnfs = []
    candidate_sites: dict[str, list[str]] = {}
    for vnf in model.vnfs.values():
        quota = new_sites_per_vnf.get(vnf.name, 0)
        if quota <= 0:
            extended_vnfs.append(vnf)
            continue
        extra_sites = [s for s in model.sites if s not in vnf.site_capacity]
        candidate_sites[vnf.name] = extra_sites
        extended_vnfs.append(
            vnf.with_sites({s: new_site_capacity for s in extra_sites})
        )
    extended = model.copy_with_vnfs(extended_vnfs)

    space = lp._VariableSpace(extended)
    var_index, vars_list = space.index, space.vars
    n_flow = len(space)

    w_index: dict[tuple[str, str], int] = {}
    for vnf_name, sites in candidate_sites.items():
        for site in sites:
            w_index[(vnf_name, site)] = n_flow + len(w_index)
    n = n_flow + len(w_index)

    cost = np.zeros(n)
    for i, (cname, z, src, dst) in enumerate(vars_list):
        chain = extended.chains[cname]
        cost[i] = chain.stage_traffic(z) * extended.site_latency(src, dst)

    constraints: list[LinearConstraint] = []
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    lower: list[float] = []
    upper: list[float] = []

    def add_row(coeffs: dict[int, float], lb: float, ub: float) -> None:
        row = len(lower)
        for col, val in coeffs.items():
            rows.append(row)
            cols.append(col)
            data.append(val)
        lower.append(lb)
        upper.append(ub)

    # Coverage (full routing) and flow conservation.
    for cname, chain in extended.chains.items():
        coeffs = {
            var_index[(cname, 1, src, dst)]: 1.0
            for src in extended.stage_sources(chain, 1)
            for dst in extended.stage_destinations(chain, 1)
        }
        add_row(coeffs, 1.0, 1.0)
        for z in range(1, chain.num_stages):
            for site in extended.stage_destinations(chain, z):
                coeffs = {}
                for src in extended.stage_sources(chain, z):
                    coeffs[var_index[(cname, z, src, site)]] = 1.0
                for dst in extended.stage_destinations(chain, z + 1):
                    idx = var_index[(cname, z + 1, site, dst)]
                    coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                add_row(coeffs, 0.0, 0.0)

    # Loads and linking.
    vnf_site_coeffs: dict[tuple[str, str], dict[int, float]] = {}
    for i, (cname, z, src, dst) in enumerate(vars_list):
        chain = extended.chains[cname]
        traffic = chain.stage_traffic(z)
        if z < chain.num_stages:
            vnf = chain.vnf_at(z)
            load = extended.vnfs[vnf].load_per_unit * traffic
            c = vnf_site_coeffs.setdefault((vnf, dst), {})
            c[i] = c.get(i, 0.0) + load
        if z > 1:
            vnf = chain.vnf_at(z - 1)
            load = extended.vnfs[vnf].load_per_unit * traffic
            c = vnf_site_coeffs.setdefault((vnf, src), {})
            c[i] = c.get(i, 0.0) + load

    for (vnf_name, site), coeffs in sorted(vnf_site_coeffs.items()):
        cap = extended.vnfs[vnf_name].site_capacity.get(site, 0.0)
        if (vnf_name, site) in w_index:
            # New site: load <= cap * w (load only when the site opens).
            coeffs = dict(coeffs)
            coeffs[w_index[(vnf_name, site)]] = -cap
            add_row(coeffs, -np.inf, 0.0)
        else:
            add_row(coeffs, -np.inf, cap)

    site_coeffs: dict[str, dict[int, float]] = {}
    for (_vnf_name, site), coeffs in vnf_site_coeffs.items():
        merged = site_coeffs.setdefault(site, {})
        for col, val in coeffs.items():
            merged[col] = merged.get(col, 0.0) + val
    for site, coeffs in sorted(site_coeffs.items()):
        add_row(coeffs, -np.inf, extended.sites[site].capacity)

    # Placement quota per VNF.
    for vnf_name, sites in candidate_sites.items():
        coeffs = {w_index[(vnf_name, s)]: 1.0 for s in sites}
        add_row(coeffs, 0.0, float(new_sites_per_vnf[vnf_name]))

    matrix = csr_matrix((data, (rows, cols)), shape=(len(lower), n))
    constraints.append(
        LinearConstraint(matrix, np.array(lower), np.array(upper))
    )

    integrality = np.zeros(n)
    for idx in w_index.values():
        integrality[idx] = 1
    lb = np.zeros(n)
    ub = np.ones(n)

    options = {"time_limit": time_limit} if time_limit else {}
    start = time.perf_counter()
    result = milp(
        cost,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options,
    )
    elapsed = time.perf_counter() - start

    if result.x is None:
        return VnfPlacementPlan({}, float("inf"), None, elapsed, status="infeasible")

    new_sites: dict[str, list[str]] = {}
    capacities: dict[tuple[str, str], float] = {}
    for (vnf_name, site), idx in w_index.items():
        if result.x[idx] > 0.5:
            new_sites.setdefault(vnf_name, []).append(site)
            capacities[(vnf_name, site)] = new_site_capacity

    solution = RoutingSolution(extended)
    for i, (cname, z, src, dst) in enumerate(vars_list):
        value = float(result.x[i])
        if value > RoutingSolution.EPSILON:
            solution.add_flow(cname, z, src, dst, value)
    status = "optimal" if result.success else "feasible"
    return VnfPlacementPlan(
        new_sites, float(result.fun), solution, elapsed, status, capacities
    )


def random_vnf_placement(
    model: NetworkModel,
    new_sites_per_vnf: dict[str, int],
    new_site_capacity: float,
    rng: random.Random,
) -> VnfPlacementPlan:
    """Baseline for Figure 13c: pick the new sites uniformly at random."""
    new_sites: dict[str, list[str]] = {}
    capacities: dict[tuple[str, str], float] = {}
    for vnf_name, quota in new_sites_per_vnf.items():
        vnf = model.vnfs[vnf_name]
        candidates = [s for s in model.sites if s not in vnf.site_capacity]
        chosen = rng.sample(candidates, min(quota, len(candidates)))
        new_sites[vnf_name] = chosen
        for site in chosen:
            capacities[(vnf_name, site)] = new_site_capacity
    return VnfPlacementPlan(new_sites, float("nan"), None, 0.0, "random", capacities)


__all__ = [
    "CapacityPlanningError",
    "CloudCapacityPlan",
    "VnfPlacementPlan",
    "capacity_cache_stats",
    "clear_capacity_cache",
    "max_alpha",
    "plan_cloud_capacity",
    "plan_cloud_capacity_reference",
    "plan_vnf_placement",
    "random_vnf_placement",
    "uniform_cloud_plan",
]
