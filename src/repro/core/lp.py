"""SB-LP: the linear-programming chain routing of Section 4.3.

The decision variables are the paper's ``x_{c z n1 n2}`` -- the fraction
of chain ``c``'s stage-``z`` demand routed from ``n1`` to ``n2`` -- and
the formulation implements:

- the weighted-latency objective (Equation 3),
- per-site and per-(VNF, site) compute constraints (Equation 4),
- flow conservation at every intermediate site (Equation 5),
- the network-cost / MLU constraint over physical links (Equations 6-7).

Two objectives are provided, matching how the paper uses SB-LP in its
evaluation: ``MIN_LATENCY`` (Figure 12c and the E2E latency comparisons)
requires all demand to be carried and minimizes Equation 3, while
``MAX_THROUGHPUT`` (Figures 11/12a/12b) allows partial routing, maximizes
carried demand, and breaks ties toward lower latency.

The paper solves these programs with CPLEX inside OpenDaylight; we use
the HiGHS solver scipy ships, which solves the identical program.

Assembly and reuse
------------------
Constraint matrices are assembled as COO triplets from the columnar
model views (:mod:`repro.core.columns`) instead of per-variable Python
loops, and the assembled *structure* (sparsity pattern, demand-
independent coefficients, RHS, variable order) is cached keyed on
:meth:`NetworkModel.structure_digest`.  A re-solve after a demand change
-- a ``reoptimize()`` round, the solver farm's incremental ``resolve``
-- only refreshes the demand-scaled entries of the data vector with a
few vectorized multiplies.  Programs feasible at zero flow
(``MAX_THROUGHPUT``) are solved through warm-started column generation
(:mod:`repro.core.highs`); the other objectives, and any column-
generation failure, go through ``scipy.optimize.linprog`` on the cached
matrix.  The cloud-capacity LP (:mod:`repro.core.capacity`) is built
from the same row blocks, cached in the same LRU type and solved by the
same function.

``solve_chain_routing_lp_reference`` keeps the original scalar assembly
and ``linprog`` solve as the ground truth the vectorized path is
property-tested against (equal matrices within 1e-9).
"""

from __future__ import annotations

import enum
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix, csr_matrix

from repro.core import highs as highs_backend
from repro.core.columns import ragged_gather
from repro.core.model import NetworkModel
from repro.core.routes import RoutingSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class LpError(Exception):
    """Raised when the LP cannot be constructed."""


class LpObjective(enum.Enum):
    """Objective selection for :func:`solve_chain_routing_lp`.

    ``MIN_MLU`` minimizes the maximum link utilization -- the network
    operator's cost function of Section 4.1 ("a commonly used cost
    function for traffic engineering") -- while routing all demand; it
    turns the Equation 6 budget ``beta`` into the decision variable.
    """

    MIN_LATENCY = "min_latency"
    MAX_THROUGHPUT = "max_throughput"
    MIN_MLU = "min_mlu"


@dataclass
class LpResult:
    """Outcome of an SB-LP solve."""

    status: str
    objective: float | None
    solution: RoutingSolution | None
    num_variables: int
    num_constraints: int
    solve_seconds: float

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class _VariableSpace:
    """Index map for the sparse ``x_{c z n1 n2}`` variables."""

    def __init__(self, model: NetworkModel):
        self.model = model
        self.index: dict[tuple[str, int, str, str], int] = {}
        self.vars: list[tuple[str, int, str, str]] = []
        for name, chain in model.chains.items():
            for z in range(1, chain.num_stages + 1):
                for src in model.stage_sources(chain, z):
                    for dst in model.stage_destinations(chain, z):
                        key = (name, z, src, dst)
                        self.index[key] = len(self.vars)
                        self.vars.append(key)

    def __len__(self) -> int:
        return len(self.vars)


# ---------------------------------------------------------------------------
# Columnar assembly with structure caching
# ---------------------------------------------------------------------------
#
# SB-LP and the cloud-capacity LP (repro.core.capacity) are one program
# over the same x_{c z n1 n2} flow variables: the capacity LP only adds
# columns (a_s, alpha) and rows (budget) and orders its rows
# differently.  Both assemble from _FlowRows blocks into a
# _MatrixStructure, cache it in a _StructureCache, and solve through
# _solve_structure.

# Data-entry kinds: how a cached base coefficient scales with the current
# demands.  KIND_CONST entries never change on a cache hit.
_KIND_CONST = 0
_KIND_TOTAL = 1  # base * (w_cz + v_cz)
_KIND_FWD = 2  # base * w_cz
_KIND_REV = 3  # base * v_cz


def _inverse_permutation(rank: np.ndarray) -> np.ndarray:
    out = np.empty(len(rank), dtype=np.int64)
    out[rank] = np.arange(len(rank), dtype=np.int64)
    return out


def _pair_caps(sub, vnfs: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Capacities of the (VNF index, site index) pairs."""
    caps = np.array(
        [sub.vnf_site_cap.get((int(v), int(s)), np.nan) for v, s in zip(vnfs, sites)]
    )
    if np.isnan(caps).any():
        bad = int(np.argmax(np.isnan(caps)))
        raise LpError(
            "internal: VNF "
            f"{sub.vnf_names[int(vnfs[bad])]!r} routed at "
            f"non-deployment site {sub.site_names[int(sites[bad])]!r}"
        )
    return caps


class _Coo:
    """A sparse row block list in COO form, assembled in row order.

    :meth:`add` appends entries whose row indices are relative to the
    block being built; :meth:`close` ends that block with one RHS value
    per row.  Entry order is append order, and the builders append in
    the scalar oracles' order, so the arrays match them exactly.
    """

    #: rows, cols, base, kind, stage; then the RHS of each row.
    _DTYPES = (np.int64, np.int64, float, np.int8, np.int64, float)

    def __init__(self) -> None:
        self.n_rows = 0
        self._parts: tuple[list, ...] = tuple([] for _ in self._DTYPES)

    def add(self, rows, cols, base, kind=_KIND_CONST, stage=None) -> None:
        n = len(cols)
        if np.isscalar(kind):
            kind = np.full(n, kind, dtype=np.int8)
        if stage is None:
            stage = np.full(n, -1, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64) + self.n_rows
        for part, values, dtype in zip(
            self._parts, (rows, cols, base, kind, stage), self._DTYPES
        ):
            part.append(np.asarray(values, dtype=dtype))

    def close(self, bounds) -> None:
        bounds = np.asarray(bounds, dtype=float)
        self._parts[-1].append(bounds)
        self.n_rows += len(bounds)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(rows, cols, base, kind, stage, rhs)`` as flat arrays."""
        return tuple(
            np.concatenate(part) if part else np.zeros(0, dtype=dtype)
            for part, dtype in zip(self._parts, self._DTYPES)
        )


class _FlowRows:
    """The row blocks every flow-variable program shares, in columnar form.

    Row indices are local to each block: coverage by chain (dict
    order), conservation by (stage, site), compute by (VNF, site) pair
    sorted by name or by site sorted by name, links by link name.  The
    builders place the blocks in their own row order.
    """

    def __init__(self, model: NetworkModel):
        sub = self.sub = model.substrate_columns()
        ch = self.ch = model.chain_columns()
        vc = self.vc = model.variable_columns()
        self.n_flow = vc.n_vars
        var_stage = self.var_stage = vc.var_stage
        var_dst_vnf = ch.stage_dst_vnf[var_stage]
        var_src_vnf = ch.stage_src_vnf[var_stage]

        # -- demand coverage on stage-1 flows ----------------------------
        self.stage1_vars = np.flatnonzero(ch.stage_z[var_stage] == 1)
        self.cover_rows = ch.stage_chain[var_stage][self.stage1_vars]

        # -- flow conservation (Equation 5) ------------------------------
        stage_has_cons = ch.stage_dst_vnf >= 0  # z < num_stages
        cons_per_stage = np.where(stage_has_cons, ch.dst_len, 0)
        cons_start = np.cumsum(cons_per_stage) - cons_per_stage
        self.n_cons = int(cons_per_stage.sum())
        incoming = np.flatnonzero(var_dst_vnf >= 0)
        outgoing = np.flatnonzero(var_src_vnf >= 0)
        self.cons_rows = np.concatenate(
            [
                cons_start[var_stage[incoming]] + vc.var_dst_pos[incoming],
                cons_start[var_stage[outgoing] - 1] + vc.var_src_pos[outgoing],
            ]
        )
        self.cons_data = np.concatenate(
            [np.ones(incoming.size), -np.ones(outgoing.size)]
        )

        # -- compute constraints (Equation 4) ----------------------------
        # One entry per (flow, VNF endpoint): the same columns as the
        # conservation entries.
        self.cmp_vars = np.concatenate([incoming, outgoing])
        cmp_vnf = np.concatenate([var_dst_vnf[incoming], var_src_vnf[outgoing]])
        cmp_site = (
            np.concatenate([vc.var_dst_ep[incoming], vc.var_src_ep[outgoing]])
            - sub.n_nodes
        )
        if (cmp_site < 0).any():
            raise LpError("internal: VNF stage endpoint is not a site")
        #: (cols, base, kind, stage) of the compute entries; their rows
        #: are ``pair_inverse`` or ``site_inverse``.
        self.compute = (
            self.cmp_vars,
            sub.vnf_load[cmp_vnf],
            _KIND_TOTAL,
            var_stage[self.cmp_vars],
        )
        site_stride = max(len(sub.site_names), 1)
        pair_key = sub.vnf_rank[cmp_vnf] * site_stride + sub.site_rank[cmp_site]
        uniq_pairs, self.pair_inverse = np.unique(pair_key, return_inverse=True)
        site_order = _inverse_permutation(sub.site_rank)
        self.pair_vnf = _inverse_permutation(sub.vnf_rank)[uniq_pairs // site_stride]
        self.pair_site = site_order[uniq_pairs % site_stride]
        # Per-site totals over the same entries.
        uniq_sites, self.site_inverse = np.unique(
            sub.site_rank[cmp_site], return_inverse=True
        )
        self.sites = site_order[uniq_sites]

    def link_entries(self):
        """The network-cost (Equation 6) entries, or None without links.

        Returns ``(rows, vars, frac, kind, links)``: one entry per
        (flow, direction, link on its path) with demand in that
        direction, rows numbering the crossed links in name order, and
        ``links`` the link index of each row.
        """
        sub, ch, vc = self.sub, self.ch, self.vc
        if not (sub.link_names and len(sub.pair_start)):
            return None
        ep_node = sub.endpoint_node
        n1 = ep_node[vc.var_src_ep]
        n2 = ep_node[vc.var_dst_ep]
        entries = []
        for kind, demand, a, b in (
            (_KIND_FWD, ch.stage_fwd, n1, n2),
            (_KIND_REV, ch.stage_rev, n2, n1),
        ):
            mask = demand[self.var_stage] > 0
            pid = sub.pair_id[a, b]
            sel = np.flatnonzero(mask & (pid >= 0))
            pids = pid[sel]
            pool_idx, rows_of = ragged_gather(sub.pair_start[pids], sub.pair_len[pids])
            entries.append(
                (
                    sel[rows_of],
                    sub.pool_link[pool_idx],
                    sub.pool_frac[pool_idx],
                    np.full(pool_idx.size, kind, dtype=np.int8),
                )
            )
        lnk_vars, lnk_link, lnk_frac, lnk_kind = (
            np.concatenate(part) for part in zip(*entries)
        )
        uniq_links, link_inverse = np.unique(
            sub.link_rank[lnk_link], return_inverse=True
        )
        links = _inverse_permutation(sub.link_rank)[uniq_links]
        return link_inverse, lnk_vars, lnk_frac, lnk_kind, links

    def seed_columns(self, *extra) -> np.ndarray:
        """Column-generation seeds: every stage-1 variable, the few
        lowest-latency variables of every other stage, and ``extra``."""
        vc = self.vc
        counts = np.diff(vc.stage_var_start)
        order = np.lexsort((vc.var_latency, self.var_stage))
        pos_in_stage = np.arange(self.n_flow, dtype=np.int64) - np.repeat(
            vc.stage_var_start[:-1], counts
        )
        cheap = order[pos_in_stage < 4]
        return np.unique(np.concatenate([self.stage1_vars, cheap, *extra]))


class _MatrixStructure:
    """Everything about a flow-variable program that survives demand changes.

    UB entries scale with the current demands by kind (see
    :meth:`refreshed_ub_data`); the EQ block is demand-independent.
    Column bounds are ``[0, col_upper]``.
    """

    def __init__(
        self,
        flow: _FlowRows,
        ub: _Coo,
        eq: _Coo,
        n_total: int,
        col_upper: np.ndarray,
        seed_columns: np.ndarray,
        beta_index: int | None = None,
    ):
        self.n_flow = flow.n_flow
        self.n_total = n_total
        self.beta_index = beta_index
        (
            self.ub_rows,
            self.ub_cols,
            self.ub_base,
            self.ub_kind,
            self.ub_stage,
            self.b_ub,
        ) = ub.arrays()
        self.eq_rows, self.eq_cols, self.eq_data, _, _, self.b_eq = eq.arrays()
        self.col_upper = col_upper
        self.seed_columns = seed_columns
        # Per-variable structure for cost/extraction.
        self.var_stage = flow.var_stage
        self.var_latency = flow.vc.var_latency
        self.stage1_vars = flow.stage1_vars
        # Pre-split refresh index arrays (by kind).
        self.idx_total = np.flatnonzero(self.ub_kind == _KIND_TOTAL)
        self.idx_fwd = np.flatnonzero(self.ub_kind == _KIND_FWD)
        self.idx_rev = np.flatnonzero(self.ub_kind == _KIND_REV)
        # Warm-startable solver retained across solves of this structure.
        self.cg_solver: highs_backend.ColumnGenSolver | None = None

    @property
    def n_ub(self) -> int:
        return len(self.b_ub)

    @property
    def n_eq(self) -> int:
        return len(self.b_eq)

    def refreshed_ub_data(self, ch) -> np.ndarray:
        """UB data vector under the chain columns' current demands."""
        data = self.ub_base.copy()
        if self.idx_total.size:
            data[self.idx_total] *= ch.stage_total[self.ub_stage[self.idx_total]]
        if self.idx_fwd.size:
            data[self.idx_fwd] *= ch.stage_fwd[self.ub_stage[self.idx_fwd]]
        if self.idx_rev.size:
            data[self.idx_rev] *= ch.stage_rev[self.ub_stage[self.idx_rev]]
        return data


class _StructureCache:
    """LRU of assembled structures keyed on a model structure digest."""

    def __init__(self, limit: int, metric_prefix: str):
        self.limit = limit
        self.metric_prefix = metric_prefix
        self.entries: OrderedDict = OrderedDict()
        self.rebuilds = 0
        self.reuse_hits = 0

    def get(self, key, build, metrics: "MetricsRegistry | None" = None):
        """The cached structure for ``key``, or ``build()``'s, cached."""
        structure = self.entries.get(key)
        if structure is not None:
            self.entries.move_to_end(key)
            self.reuse_hits += 1
            if metrics is not None:
                metrics.counter(f"{self.metric_prefix}.matrix_reuse_hits").inc()
            return structure
        structure = self.entries[key] = build()
        self.rebuilds += 1
        if metrics is not None:
            metrics.counter(f"{self.metric_prefix}.matrix_rebuilds").inc()
        while len(self.entries) > self.limit:
            self.entries.popitem(last=False)
        return structure

    def stats(self) -> dict[str, int]:
        return {
            "matrix_reuse_hits": self.reuse_hits,
            "matrix_rebuilds": self.rebuilds,
            "cached_structures": len(self.entries),
        }

    def clear(self) -> None:
        self.entries.clear()
        self.rebuilds = 0
        self.reuse_hits = 0


_MATRIX_CACHE = _StructureCache(32, "lp")


def matrix_cache_stats() -> dict[str, int]:
    """Warm-start observability: cache hit/rebuild counters."""
    return _MATRIX_CACHE.stats()


def clear_matrix_cache() -> None:
    """Drop all cached constraint-matrix structures (tests)."""
    _MATRIX_CACHE.clear()


@dataclass
class _Solved:
    """Outcome of :func:`_solve_structure`."""

    x: np.ndarray | None
    fun: float | None
    status: str
    message: str
    seconds: float


def _solve_structure(
    structure: _MatrixStructure,
    cost: np.ndarray,
    ub_rows: np.ndarray,
    ub_cols: np.ndarray,
    ub_data: np.ndarray,
    b_ub: np.ndarray,
) -> _Solved:
    """Solve ``min cost @ x`` over the structure's rows with this call's
    UB entries and bounds.

    Programs feasible at x = 0 (every ``b_eq`` = 0 and every ``b_ub`` >=
    0: ``MAX_THROUGHPUT`` routing and the capacity alpha program) go
    through the warm column-generation solver held on the structure;
    the rest, and any column-generation failure, through ``linprog``.
    """
    n_total = structure.n_total
    n_ub, n_eq = len(b_ub), structure.n_eq
    if (
        highs_backend.AVAILABLE
        and not structure.b_eq.any()
        and (b_ub >= 0).all()
    ):
        matrix = csc_matrix(
            (
                np.concatenate([ub_data, structure.eq_data]),
                (
                    np.concatenate([ub_rows, structure.eq_rows + n_ub]),
                    np.concatenate([ub_cols, structure.eq_cols]),
                ),
            ),
            shape=(n_ub + n_eq, n_total),
        )
        row_lower = np.concatenate([np.full(n_ub, -np.inf), structure.b_eq])
        row_upper = np.concatenate([b_ub, structure.b_eq])
        if structure.cg_solver is None:
            structure.cg_solver = highs_backend.ColumnGenSolver()
        start = time.perf_counter()
        try:
            x, fun = structure.cg_solver.solve(
                cost,
                matrix,
                row_lower,
                row_upper,
                np.zeros(n_total),
                structure.col_upper,
                seed_columns=structure.seed_columns,
            )
            return _Solved(x, fun, "optimal", "", time.perf_counter() - start)
        except highs_backend.ColumnGenError:
            pass  # fall through to linprog

    a_ub = (
        csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(n_ub, n_total))
        if n_ub
        else None
    )
    a_eq = (
        csr_matrix(
            (structure.eq_data, (structure.eq_rows, structure.eq_cols)),
            shape=(n_eq, n_total),
        )
        if n_eq
        else None
    )
    start = time.perf_counter()
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub if n_ub else None,
        A_eq=a_eq,
        b_eq=structure.b_eq if n_eq else None,
        bounds=np.column_stack([np.zeros(n_total), structure.col_upper]),
        method="highs",
    )
    elapsed = time.perf_counter() - start
    if not result.success:
        status = "infeasible" if result.status == 2 else f"failed({result.status})"
        return _Solved(None, None, status, result.message, elapsed)
    return _Solved(np.asarray(result.x), float(result.fun), "optimal", "", elapsed)


def _build_structure(
    model: NetworkModel, objective: LpObjective, enforce_mlu: bool
) -> _MatrixStructure:
    """Vectorized COO assembly of the SB-LP constraint matrix.

    Row and entry order replicate the scalar reference assembly exactly
    (see ``_scalar_program``): coverage rows first (dict order), then --
    in the equality block -- flow conservation; the inequality block
    continues with (VNF, site) rows sorted by name, per-site rows sorted
    by name, and link rows sorted by link name.
    """
    flow = _FlowRows(model)
    sub = flow.sub
    n = flow.n_flow
    beta_index = n if objective is LpObjective.MIN_MLU else None
    n_total = n + (1 if beta_index is not None else 0)
    ub, eq = _Coo(), _Coo()

    # Coverage is an equality unless partial routing is allowed.
    cover = ub if objective is LpObjective.MAX_THROUGHPUT else eq
    cover.add(flow.cover_rows, flow.stage1_vars, np.ones(flow.stage1_vars.size))
    cover.close(np.ones(len(flow.ch.chain_names)))
    eq.add(flow.cons_rows, flow.cmp_vars, flow.cons_data)
    eq.close(np.zeros(flow.n_cons))
    ub.add(flow.pair_inverse, *flow.compute)
    ub.close(_pair_caps(sub, flow.pair_vnf, flow.pair_site))
    ub.add(flow.site_inverse, *flow.compute)
    ub.close(sub.site_capacity[flow.sites])

    # -- network cost (Equations 6-7) ------------------------------------
    links = (
        flow.link_entries() if enforce_mlu or beta_index is not None else None
    )
    if links is not None:
        rows, lnk_vars, frac, kind, present = links
        ub.add(rows, lnk_vars, frac, kind, flow.var_stage[lnk_vars])
        if beta_index is None:
            ub.close(sub.headroom()[present])
        else:
            # beta coefficient on every present-link row.
            n_present = len(present)
            ub.add(
                np.arange(n_present),
                np.full(n_present, beta_index),
                -sub.link_bandwidth[present],
            )
            ub.close(-sub.link_background[present])
            # Links Switchboard never touches still bound beta from below
            # (model dict order, matching the scalar reference).
            absent = np.setdiff1d(np.flatnonzero(sub.link_background > 0), present)
            ub.add(
                np.arange(len(absent)),
                np.full(len(absent), beta_index),
                -sub.link_bandwidth[absent],
            )
            ub.close(-sub.link_background[absent])

    col_upper = np.ones(n_total)
    if beta_index is not None:
        col_upper[beta_index] = np.inf
    return _MatrixStructure(
        flow, ub, eq, n_total, col_upper, flow.seed_columns(), beta_index
    )


def _structure_for(
    model: NetworkModel,
    objective: LpObjective,
    enforce_mlu: bool,
    metrics: "MetricsRegistry | None",
) -> _MatrixStructure:
    key = (model.structure_digest(), objective.value, bool(enforce_mlu))
    return _MATRIX_CACHE.get(
        key, lambda: _build_structure(model, objective, enforce_mlu), metrics
    )


def _cost_vector(
    structure: _MatrixStructure,
    ch,
    objective: LpObjective,
    latency_tiebreak: float,
) -> np.ndarray:
    n = structure.n_flow
    var_traffic = ch.stage_total[structure.var_stage]
    weighted_latency = var_traffic * structure.var_latency
    latency_scale = float(np.max(weighted_latency)) if n else 1.0
    latency_scale = latency_scale or 1.0
    cost = np.zeros(structure.n_total)
    if objective is LpObjective.MIN_LATENCY:
        cost[:n] = weighted_latency
    elif objective is LpObjective.MIN_MLU:
        cost[structure.beta_index] = 1.0
        cost[:n] += (latency_tiebreak / latency_scale) * weighted_latency
    else:
        s1 = structure.stage1_vars
        np.subtract.at(cost, s1, ch.stage_total[structure.var_stage[s1]])
        min_demand = float(ch.stage_total[ch.stage_z == 1].min())
        cost[:n] += (
            latency_tiebreak * min_demand / latency_scale
        ) * weighted_latency
    return cost


def solve_chain_routing_lp(
    model: NetworkModel,
    objective: LpObjective = LpObjective.MIN_LATENCY,
    enforce_mlu: bool = True,
    latency_tiebreak: float = 1e-6,
    metrics: "MetricsRegistry | None" = None,
) -> LpResult:
    """Solve the chain-routing problem optimally.

    Parameters
    ----------
    model:
        The network model.  All chains in ``model.chains`` are routed
        jointly (this whole-network view is what distinguishes SB-LP from
        the distributed baselines).
    objective:
        ``MIN_LATENCY`` or ``MAX_THROUGHPUT`` (see module docstring).
    enforce_mlu:
        Apply the Equation 6 link constraint when the model defines links
        and routing fractions.
    latency_tiebreak:
        Relative weight of the latency term added to the max-throughput
        objective so that, among equal-throughput solutions, the lowest
        latency one is returned.
    """
    if not model.chains:
        raise LpError("model has no chains to route")
    if objective is LpObjective.MIN_MLU and not (model.links and model.routing):
        raise LpError("MIN_MLU requires links and routing fractions")

    structure = _structure_for(model, objective, enforce_mlu, metrics)
    ch = model.chain_columns()
    cost = _cost_vector(structure, ch, objective, latency_tiebreak)
    solved = _solve_structure(
        structure,
        cost,
        structure.ub_rows,
        structure.ub_cols,
        structure.refreshed_ub_data(ch),
        structure.b_ub,
    )
    x = solved.x
    n_total = structure.n_total
    n_constraints = structure.n_ub + structure.n_eq

    if metrics is not None:
        # Wall-clock solver time: here the interesting duration is how
        # long HiGHS takes on the host, not simulated seconds.
        metrics.histogram(
            "solver.lp_solve_s", objective=objective.value
        ).observe(solved.seconds)
        metrics.counter(
            "solver.lp_solves",
            objective=objective.value,
            ok=str(bool(x is not None)).lower(),
        ).inc()

    if x is None:
        return LpResult(
            solved.status, None, None, n_total, n_constraints, solved.seconds
        )

    if structure.beta_index is not None:
        objective_value = float(x[structure.beta_index])
    else:
        objective_value = solved.fun

    solution = _extract_solution(model, x[: structure.n_flow])
    return LpResult(
        "optimal", objective_value, solution, n_total, n_constraints, solved.seconds
    )


def _extract_solution(model: NetworkModel, x: np.ndarray) -> RoutingSolution:
    """Build a :class:`RoutingSolution` from the flow-variable values."""
    sub = model.substrate_columns()
    ch = model.chain_columns()
    vc = model.variable_columns()
    solution = RoutingSolution(model)
    for i in np.flatnonzero(x > RoutingSolution.EPSILON):
        k = int(vc.var_stage[i])
        solution.add_flow(
            ch.chain_names[int(ch.stage_chain[k])],
            int(ch.stage_z[k]),
            sub.endpoint_names[int(vc.var_src_ep[i])],
            sub.endpoint_names[int(vc.var_dst_ep[i])],
            float(x[i]),
        )
    return solution


# ---------------------------------------------------------------------------
# Scalar reference implementation (pre-vectorization)
# ---------------------------------------------------------------------------


@dataclass
class _ScalarProgram:
    """The fully assembled reference program (for equivalence tests)."""

    cost: np.ndarray
    a_ub: csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: csr_matrix | None
    b_eq: np.ndarray | None
    bounds: list[tuple[float, float | None]]
    space: _VariableSpace
    n_total: int


def _scalar_program(
    model: NetworkModel,
    objective: LpObjective,
    enforce_mlu: bool,
    latency_tiebreak: float,
) -> _ScalarProgram:
    """The original per-variable Python-loop assembly, kept verbatim."""
    space = _VariableSpace(model)
    n = len(space)
    # MIN_MLU adds the utilization variable beta after the flow variables.
    beta_index = n if objective is LpObjective.MIN_MLU else None
    n_total = n + (1 if beta_index is not None else 0)

    cost = np.zeros(n_total)
    demand_weight = np.zeros(n)  # (w_cz + v_cz) per variable
    latencies = np.zeros(n)
    for i, (cname, z, src, dst) in enumerate(space.vars):
        chain = model.chains[cname]
        demand_weight[i] = chain.stage_traffic(z)
        latencies[i] = model.site_latency(src, dst)

    weighted_latency = demand_weight * latencies

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_data: list[float] = []
    b_ub: list[float] = []
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

    # Demand-coverage constraints on stage-1 flows.
    for cname, chain in model.chains.items():
        coeffs: dict[int, float] = {}
        for src in model.stage_sources(chain, 1):
            for dst in model.stage_destinations(chain, 1):
                coeffs[space.index[(cname, 1, src, dst)]] = 1.0
        if objective is LpObjective.MAX_THROUGHPUT:
            add_ub(coeffs, 1.0)
        else:
            add_eq(coeffs, 1.0)

    # Flow conservation (Equation 5) at each intermediate site.
    for cname, chain in model.chains.items():
        for z in range(1, chain.num_stages):
            for site in model.stage_destinations(chain, z):
                coeffs = {}
                for src in model.stage_sources(chain, z):
                    coeffs[space.index[(cname, z, src, site)]] = 1.0
                for dst in model.stage_destinations(chain, z + 1):
                    idx = space.index[(cname, z + 1, site, dst)]
                    coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                add_eq(coeffs, 0.0)

    # Compute constraints (Equation 4): per (VNF, site) and per site.
    vnf_site_coeffs: dict[tuple[str, str], dict[int, float]] = {}
    for i, (cname, z, src, dst) in enumerate(space.vars):
        chain = model.chains[cname]
        traffic = chain.stage_traffic(z)
        if z < chain.num_stages:
            vnf_name = chain.vnf_at(z)
            load = model.vnfs[vnf_name].load_per_unit * traffic
            coeffs = vnf_site_coeffs.setdefault((vnf_name, dst), {})
            coeffs[i] = coeffs.get(i, 0.0) + load
        if z > 1:
            vnf_name = chain.vnf_at(z - 1)
            load = model.vnfs[vnf_name].load_per_unit * traffic
            coeffs = vnf_site_coeffs.setdefault((vnf_name, src), {})
            coeffs[i] = coeffs.get(i, 0.0) + load

    for (vnf_name, site), coeffs in sorted(vnf_site_coeffs.items()):
        cap = model.vnfs[vnf_name].site_capacity.get(site)
        if cap is None:
            raise LpError(
                f"internal: VNF {vnf_name!r} routed at non-deployment site {site!r}"
            )
        add_ub(coeffs, cap)

    site_coeffs: dict[str, dict[int, float]] = {}
    for (_vnf_name, site), coeffs in vnf_site_coeffs.items():
        merged = site_coeffs.setdefault(site, {})
        for col, val in coeffs.items():
            merged[col] = merged.get(col, 0.0) + val
    for site, coeffs in sorted(site_coeffs.items()):
        add_ub(coeffs, model.sites[site].capacity)

    # Network cost (Equations 6-7): per-link MLU budget, or -- for
    # MIN_MLU -- the same inequality with beta as a variable.
    if (enforce_mlu or beta_index is not None) and model.links and model.routing:
        link_coeffs: dict[str, dict[int, float]] = {}
        for i, (cname, z, src, dst) in enumerate(space.vars):
            chain = model.chains[cname]
            fwd = chain.forward_traffic[z - 1]
            rev = chain.reverse_traffic[z - 1]
            n1 = model.endpoint_node(src)
            n2 = model.endpoint_node(dst)
            if fwd > 0:
                for link_name, frac in model.links_between(n1, n2).items():
                    coeffs = link_coeffs.setdefault(link_name, {})
                    coeffs[i] = coeffs.get(i, 0.0) + fwd * frac
            if rev > 0:
                for link_name, frac in model.links_between(n2, n1).items():
                    coeffs = link_coeffs.setdefault(link_name, {})
                    coeffs[i] = coeffs.get(i, 0.0) + rev * frac
        for link_name, coeffs in sorted(link_coeffs.items()):
            link = model.links[link_name]
            if beta_index is not None:
                # g_e + traffic_e <= beta * b_e
                coeffs = dict(coeffs)
                coeffs[beta_index] = -link.bandwidth
                add_ub(coeffs, -link.background)
                continue
            # Background traffic may already exceed the MLU budget on a
            # link; Switchboard cannot reduce it, so its own traffic
            # there is simply forced to zero rather than making the
            # whole program infeasible.
            headroom = max(
                0.0, model.mlu_limit * link.bandwidth - link.background
            )
            add_ub(coeffs, headroom)
        if beta_index is not None:
            # Links Switchboard never touches still bound beta from below.
            for link_name, link in model.links.items():
                if link_name not in link_coeffs and link.background > 0:
                    add_ub({beta_index: -link.bandwidth}, -link.background)

    # Objective vector.
    padded_latency = np.zeros(n_total)
    padded_latency[:n] = weighted_latency
    latency_scale = float(np.max(weighted_latency)) or 1.0
    if objective is LpObjective.MIN_LATENCY:
        cost = padded_latency
    elif objective is LpObjective.MIN_MLU:
        cost[beta_index] = 1.0
        cost = cost + (latency_tiebreak / latency_scale) * padded_latency
    else:
        # Maximize carried stage-1 demand; minimize latency as a tiebreak.
        for cname, chain in model.chains.items():
            for src in model.stage_sources(chain, 1):
                for dst in model.stage_destinations(chain, 1):
                    cost[space.index[(cname, 1, src, dst)]] -= chain.stage_traffic(1)
        min_demand = min(c.stage_traffic(1) for c in model.chains.values())
        cost = cost + (latency_tiebreak * min_demand / latency_scale) * padded_latency

    a_ub = csr_matrix(
        (data, (rows, cols)), shape=(len(b_ub), n_total)
    ) if b_ub else None
    a_eq = csr_matrix(
        (eq_data, (eq_rows, eq_cols)), shape=(len(b_eq), n_total)
    ) if b_eq else None

    bounds: list[tuple[float, float | None]] = [(0.0, 1.0)] * n
    if beta_index is not None:
        bounds.append((0.0, None))

    return _ScalarProgram(
        cost=cost,
        a_ub=a_ub,
        b_ub=np.array(b_ub) if b_ub else None,
        a_eq=a_eq,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        space=space,
        n_total=n_total,
    )


def solve_chain_routing_lp_reference(
    model: NetworkModel,
    objective: LpObjective = LpObjective.MIN_LATENCY,
    enforce_mlu: bool = True,
    latency_tiebreak: float = 1e-6,
    metrics: "MetricsRegistry | None" = None,
) -> LpResult:
    """The pre-vectorization scalar path: loop assembly + ``linprog``.

    Kept as the ground truth for equivalence property tests; prefer
    :func:`solve_chain_routing_lp` everywhere else.
    """
    if not model.chains:
        raise LpError("model has no chains to route")
    if objective is LpObjective.MIN_MLU and not (model.links and model.routing):
        raise LpError("MIN_MLU requires links and routing fractions")

    program = _scalar_program(model, objective, enforce_mlu, latency_tiebreak)
    space = program.space
    n = len(space)
    beta_index = n if objective is LpObjective.MIN_MLU else None

    start = time.perf_counter()
    result = linprog(
        program.cost,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=program.bounds,
        method="highs",
    )
    elapsed = time.perf_counter() - start
    n_constraints = (0 if program.b_ub is None else len(program.b_ub)) + (
        0 if program.b_eq is None else len(program.b_eq)
    )
    if metrics is not None:
        metrics.histogram(
            "solver.lp_solve_s", objective=objective.value
        ).observe(elapsed)
        metrics.counter(
            "solver.lp_solves",
            objective=objective.value,
            ok=str(bool(result.success)).lower(),
        ).inc()

    if not result.success:
        status = "infeasible" if result.status == 2 else f"failed({result.status})"
        return LpResult(status, None, None, program.n_total, n_constraints, elapsed)

    solution = RoutingSolution(model)
    for i, (cname, z, src, dst) in enumerate(space.vars):
        value = float(result.x[i])
        if value > RoutingSolution.EPSILON:
            solution.add_flow(cname, z, src, dst, value)
    if beta_index is not None:
        objective_value = float(result.x[beta_index])  # the achieved MLU
    else:
        objective_value = float(result.fun)
    return LpResult(
        "optimal", objective_value, solution, program.n_total, n_constraints, elapsed
    )
