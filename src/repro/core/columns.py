"""Columnar (numpy) views of :class:`~repro.core.model.NetworkModel`.

The dict-of-dataclasses model is convenient for construction and for the
simulation layers, but the LP assembly in :mod:`repro.core.lp` and
:mod:`repro.core.capacity` touches every (chain, stage, src, dst) tuple
and was dominated by per-variable Python loops.  This module flattens the
model into integer index maps and dense/ragged numpy arrays once, so
constraint matrices can be assembled from array slices (COO triplets)
instead.

Three layers, mirroring what changes how often:

- :class:`SubstrateColumns` — nodes, latencies, sites, VNF deployments,
  links and routing fractions.  Invariant under chain changes, so
  ``copy_with_chains`` shares it between model copies.  It also holds the
  substrate-keyed caches (stage link footprints, SB-DP stage tables)
  that the partitioner and the DP router would otherwise rebuild for
  every chain on every plan; ``invalidate_substrate()`` drops them with
  the view.
- :class:`ChainColumns` — the flattened (chain, stage) table with
  per-stage demands and endpoint lists.  Cheap to rebuild; refreshed
  whenever chains are added, removed, or rescaled.
- :func:`build_variable_columns` — the cartesian (src × dst) expansion
  defining the LP variable order.  This is the expensive part and is what
  the constraint-matrix caches in ``lp.py``/``capacity.py`` key on.

Index-map invariants (relied on by the assembly code and documented in
DESIGN.md):

- node/site/vnf/link/chain indices follow the model's dict insertion
  order, matching the scalar code's iteration order exactly;
- endpoint ids are ``node_index`` for nodes and ``n_nodes + site_index``
  for sites (a site and its colocated node are distinct endpoints);
- variable order is chain-major, then stage, then source-major over the
  stage's (sources × destinations) — identical to the historical
  ``_VariableSpace`` enumeration, so cached matrices stay valid for
  solution extraction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.model import ModelError, NetworkModel


def _ranges(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in lengths])`` without the loop."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def ragged_gather(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row (start, length) slices into flat pool indices.

    Returns ``(pool_idx, row_of)`` where ``pool_idx[k]`` indexes the
    pool entry and ``row_of[k]`` the originating row.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    pool_idx = np.repeat(np.asarray(starts, dtype=np.int64), lengths) + _ranges(
        lengths
    )
    return pool_idx, rows


class SubstrateColumns:
    """Numpy view of everything in the model except the chains."""

    def __init__(self, model: NetworkModel):
        self.nodes: list[str] = list(model.nodes)
        self.node_index: dict[str, int] = {
            name: i for i, name in enumerate(self.nodes)
        }
        n = len(self.nodes)

        # Dense one-way delay matrix with the same semantics as
        # ``model.latency``: explicit entry, symmetric fallback, zero
        # diagonal, +inf when genuinely unknown.
        lat = np.full((n, n), np.inf)
        np.fill_diagonal(lat, 0.0)
        for (n1, n2), d in model._latency.items():
            i, j = self.node_index[n1], self.node_index[n2]
            if np.isinf(lat[j, i]) and j != i:
                lat[j, i] = d  # symmetric fallback
            lat[i, j] = d
        for (n1, n2), d in model._latency.items():
            i, j = self.node_index[n1], self.node_index[n2]
            lat[i, j] = d  # explicit entries win over fallbacks
        self.latency = lat

        # Sites / endpoints.  Endpoint id = node id, or n_nodes + site id.
        self.site_names: list[str] = list(model.sites)
        self.site_index: dict[str, int] = {
            s: i for i, s in enumerate(self.site_names)
        }
        self.site_node = np.array(
            [self.node_index[model.sites[s].node] for s in self.site_names],
            dtype=np.int64,
        )
        self.site_capacity = np.array(
            [model.sites[s].capacity for s in self.site_names]
        )
        self.n_nodes = n
        self.endpoint_names: list[str] = self.nodes + self.site_names
        self.endpoint_index: dict[str, int] = {}
        for i, name in enumerate(self.endpoint_names):
            # Later site entries shadow same-named nodes, matching
            # ``NetworkModel.endpoint_node``'s site-first resolution.
            self.endpoint_index[name] = i
        self.endpoint_node = np.concatenate(
            [np.arange(n, dtype=np.int64), self.site_node]
        ) if self.site_names else np.arange(n, dtype=np.int64)

        # VNF catalog and ragged deployment lists.
        self.vnf_names: list[str] = list(model.vnfs)
        self.vnf_index: dict[str, int] = {
            v: i for i, v in enumerate(self.vnf_names)
        }
        self.vnf_load = np.array(
            [model.vnfs[v].load_per_unit for v in self.vnf_names]
        )
        self.vnf_sites: list[np.ndarray] = []
        for v in self.vnf_names:
            sites = model.vnfs[v].sites
            self.vnf_sites.append(
                np.array([self.site_index[s] for s in sites], dtype=np.int64)
            )
        self.vnf_site_cap: dict[tuple[int, int], float] = {}
        for v in self.vnf_names:
            vi = self.vnf_index[v]
            for s, cap in model.vnfs[v].site_capacity.items():
                self.vnf_site_cap[(vi, self.site_index[s])] = cap

        # Name ranks reproduce the scalar code's sorted-by-name row order.
        self.site_rank = _rank(self.site_names)
        self.vnf_rank = _rank(self.vnf_names)

        # Links.
        self.link_names: list[str] = list(model.links)
        self.link_index: dict[str, int] = {
            name: i for i, name in enumerate(self.link_names)
        }
        self.link_bandwidth = np.array(
            [model.links[name].bandwidth for name in self.link_names]
        )
        self.link_background = np.array(
            [model.links[name].background for name in self.link_names]
        )
        self.link_rank = _rank(self.link_names)

        # Routing fractions as a CSR over node pairs: pair_id[n1, n2]
        # selects a slice [pair_start[p] : pair_start[p] + pair_len[p])
        # of (pool_link, pool_frac).
        self.pair_id = np.full((n, n), -1, dtype=np.int64)
        starts: list[int] = []
        lens: list[int] = []
        pool_link: list[int] = []
        pool_frac: list[float] = []
        for p, ((n1, n2), fractions) in enumerate(model.routing.items()):
            self.pair_id[self.node_index[n1], self.node_index[n2]] = p
            starts.append(len(pool_link))
            lens.append(len(fractions))
            for link_name, frac in fractions.items():
                pool_link.append(self.link_index[link_name])
                pool_frac.append(frac)
        self.pair_start = np.array(starts, dtype=np.int64)
        self.pair_len = np.array(lens, dtype=np.int64)
        self.pool_link = np.array(pool_link, dtype=np.int64)
        self.pool_frac = np.array(pool_frac)
        self.mlu_limit = model.mlu_limit
        self._new_caches()

    def _new_caches(self) -> None:
        # (source key, destination key) -> sorted link ids; see footprint().
        self._footprints: dict[tuple, np.ndarray] = {}
        # Free-form substrate-derived tables; see cached().
        self._tables: dict[tuple, object] = {}

    def rescaled(self, model: NetworkModel) -> "SubstrateColumns":
        """This view for ``model``: the same substrate with different
        site capacities, VNF capacities, link bandwidths and backgrounds.

        A split partition's submodel only rescales those budgets, so its
        view shares the node index, latency matrix and routing CSR with
        this one and re-reads just the scaled values.  The caches start
        empty: SB-DP stage tables embed link bandwidths, so a rescaled
        substrate must never inherit them.
        """
        if (
            list(model.sites) != self.site_names
            or list(model.vnfs) != self.vnf_names
            or list(model.links) != self.link_names
        ):
            raise ModelError("rescaled view needs the same substrate names")
        clone = copy.copy(self)
        clone.site_capacity = np.array(
            [model.sites[s].capacity for s in self.site_names]
        )
        clone.vnf_site_cap = {}
        for vi, v in enumerate(self.vnf_names):
            for s, cap in model.vnfs[v].site_capacity.items():
                clone.vnf_site_cap[(vi, self.site_index[s])] = cap
        clone.link_bandwidth = np.array(
            [model.links[name].bandwidth for name in self.link_names]
        )
        clone.link_background = np.array(
            [model.links[name].background for name in self.link_names]
        )
        clone.mlu_limit = model.mlu_limit
        clone._new_caches()
        return clone

    # -- substrate-keyed caches -------------------------------------------
    #
    # A *stage key* names the endpoint set at one end of a chain stage:
    # ``("ep", endpoint_id)`` for a chain's ingress or egress, or
    # ``("vnf", vnf_index)`` for the deployment sites of a VNF.  Every
    # chain with the same structure maps to the same keys, whatever its
    # name or demand.

    def stage_keys(self, chain, model: NetworkModel) -> list[tuple]:
        """The chain's stage keys in order: ingress, each VNF, egress.

        Stage ``z`` (1-based) runs from ``keys[z - 1]`` to ``keys[z]``.
        """
        return (
            [("ep", self.endpoint_id(chain.ingress, model))]
            + [("vnf", self.vnf_index[v]) for v in chain.vnfs]
            + [("ep", self.endpoint_id(chain.egress, model))]
        )

    def stage_nodes(self, key: tuple) -> np.ndarray:
        """Network-node indices of a stage key's endpoints."""
        kind, i = key
        if kind == "ep":
            return self.endpoint_node[i : i + 1]
        return self.site_node[self.vnf_sites[i]]

    def pair_gather(
        self, src_key: tuple, dst_key: tuple
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Routing-CSR entries of every (source node, destination node)
        pair between two stage keys.

        Returns ``(src_pos, dst_pos, pool_idx)``: entry ``k`` is pool
        entry ``pool_idx[k]`` of the pair from position ``src_pos[k]`` of
        ``stage_nodes(src_key)`` to position ``dst_pos[k]`` of
        ``stage_nodes(dst_key)``.  Pairs come source-major and each
        pair's entries in pool order.
        """
        a = self.stage_nodes(src_key)
        b = self.stage_nodes(dst_key)
        pids = self.pair_id[np.ix_(a, b)].ravel()
        valid = np.flatnonzero(pids >= 0)
        p = pids[valid]
        pool_idx, row_of = ragged_gather(self.pair_start[p], self.pair_len[p])
        src_pos, dst_pos = np.divmod(valid[row_of], b.size)
        return src_pos, dst_pos, pool_idx

    def footprint(self, src_key: tuple, dst_key: tuple) -> np.ndarray:
        """Sorted unique ids of every link that traffic from any node of
        ``src_key`` to any node of ``dst_key`` can cross (cached).

        A stage's forward footprint is ``footprint(src, dst)`` and its
        reverse footprint ``footprint(dst, src)``.  The cache is bounded
        by the square of the number of distinct stage keys.
        """
        key = (src_key, dst_key)
        links = self._footprints.get(key)
        if links is None:
            _, _, pool_idx = self.pair_gather(src_key, dst_key)
            links = self._footprints[key] = np.unique(self.pool_link[pool_idx])
        return links

    def cached(self, key: tuple, build: Callable[[], object]) -> object:
        """A substrate-derived table, built once per view by ``build``.

        ``key`` must capture every input besides the substrate itself
        (e.g. the SB-DP utilization weight).
        """
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
        return table

    def headroom(self) -> np.ndarray:
        """Per-link capacity available under the MLU budget."""
        return np.maximum(
            0.0, self.mlu_limit * self.link_bandwidth - self.link_background
        )

    def endpoint_id(self, name: str, model: NetworkModel) -> int:
        """Endpoint id of a site name or node name (site wins)."""
        if name in self.site_index:
            return self.n_nodes + self.site_index[name]
        node = self.node_index.get(name)
        if node is None:
            raise ModelError(f"unknown endpoint {name!r}")
        return node


def _rank(names: list[str]) -> np.ndarray:
    """``rank[i]`` = position of ``names[i]`` in sorted name order."""
    order = sorted(range(len(names)), key=lambda i: names[i])
    rank = np.zeros(len(names), dtype=np.int64)
    for pos, i in enumerate(order):
        rank[i] = pos
    return rank


class ChainColumns:
    """Flattened (chain, stage) table for the model's current chains.

    Rebuilding this is cheap (linear in the number of stages); the
    expensive cartesian variable expansion lives in
    :func:`build_variable_columns` and is cached on matrix structure.
    """

    def __init__(self, model: NetworkModel, sub: SubstrateColumns):
        self.chain_names: list[str] = list(model.chains)
        self.chain_index: dict[str, int] = {
            c: i for i, c in enumerate(self.chain_names)
        }
        st_chain: list[int] = []
        st_z: list[int] = []
        st_fwd: list[float] = []
        st_rev: list[float] = []
        st_src_vnf: list[int] = []
        st_dst_vnf: list[int] = []
        src_pool: list[np.ndarray] = []
        dst_pool: list[np.ndarray] = []
        src_start: list[int] = []
        src_len: list[int] = []
        dst_start: list[int] = []
        dst_len: list[int] = []
        self.chain_stage_start: list[int] = []
        pool_src_n = 0
        pool_dst_n = 0
        for ci, cname in enumerate(self.chain_names):
            chain = model.chains[cname]
            self.chain_stage_start.append(len(st_chain))
            stages = chain.num_stages
            for z in range(1, stages + 1):
                st_chain.append(ci)
                st_z.append(z)
                st_fwd.append(chain.forward_traffic[z - 1])
                st_rev.append(chain.reverse_traffic[z - 1])
                if z == 1:
                    srcs = np.array(
                        [sub.endpoint_id(chain.ingress, model)], dtype=np.int64
                    )
                    st_src_vnf.append(-1)
                else:
                    vi = sub.vnf_index[chain.vnfs[z - 2]]
                    srcs = sub.n_nodes + sub.vnf_sites[vi]
                    st_src_vnf.append(vi)
                if z == stages:
                    dsts = np.array(
                        [sub.endpoint_id(chain.egress, model)], dtype=np.int64
                    )
                    st_dst_vnf.append(-1)
                else:
                    vi = sub.vnf_index[chain.vnfs[z - 1]]
                    dsts = sub.n_nodes + sub.vnf_sites[vi]
                    st_dst_vnf.append(vi)
                src_pool.append(srcs)
                dst_pool.append(dsts)
                src_start.append(pool_src_n)
                src_len.append(len(srcs))
                dst_start.append(pool_dst_n)
                dst_len.append(len(dsts))
                pool_src_n += len(srcs)
                pool_dst_n += len(dsts)
        self.n_stage_rows = len(st_chain)
        self.stage_chain = np.array(st_chain, dtype=np.int64)
        self.stage_z = np.array(st_z, dtype=np.int64)
        self.stage_fwd = np.array(st_fwd)
        self.stage_rev = np.array(st_rev)
        self.stage_total = self.stage_fwd + self.stage_rev
        self.stage_src_vnf = np.array(st_src_vnf, dtype=np.int64)
        self.stage_dst_vnf = np.array(st_dst_vnf, dtype=np.int64)
        self.src_pool = (
            np.concatenate(src_pool) if src_pool else np.zeros(0, np.int64)
        )
        self.dst_pool = (
            np.concatenate(dst_pool) if dst_pool else np.zeros(0, np.int64)
        )
        self.src_start = np.array(src_start, dtype=np.int64)
        self.src_len = np.array(src_len, dtype=np.int64)
        self.dst_start = np.array(dst_start, dtype=np.int64)
        self.dst_len = np.array(dst_len, dtype=np.int64)
        # Number of stages per chain (for conservation row bases).
        self.chain_stage_start.append(self.n_stage_rows)

    def structure_signature(self) -> tuple:
        """Hashable summary of everything except demand magnitudes.

        Demand *positivity* is included: the link-constraint sparsity
        pattern keeps an entry only when the stage's forward (reverse)
        demand is non-zero, so flipping a demand between zero and
        positive changes matrix structure, not just values.
        """
        return (
            tuple(self.chain_names),
            self.stage_chain.tobytes(),
            self.stage_src_vnf.tobytes(),
            self.stage_dst_vnf.tobytes(),
            self.src_pool.tobytes(),
            self.dst_pool.tobytes(),
            (self.stage_fwd > 0).tobytes(),
            (self.stage_rev > 0).tobytes(),
        )


@dataclass
class VariableColumns:
    """The cartesian (src × dst) variable expansion, in scalar order."""

    n_vars: int
    var_stage: np.ndarray  # index into the ChainColumns stage table
    var_src_ep: np.ndarray  # endpoint ids
    var_dst_ep: np.ndarray
    var_src_pos: np.ndarray  # position of src in its stage's source list
    var_dst_pos: np.ndarray  # position of dst in its stage's dest list
    var_latency: np.ndarray  # one-way delay src -> dst
    stage_var_start: np.ndarray  # first variable of each stage row


def build_variable_columns(
    sub: SubstrateColumns, ch: ChainColumns
) -> VariableColumns:
    """Expand the stage table into per-variable arrays.

    The order is exactly the historical scalar enumeration: for each
    stage row, sources vary slowest and destinations fastest.
    """
    counts = ch.src_len * ch.dst_len
    stage_var_start = np.concatenate(
        [[0], np.cumsum(counts)]
    ).astype(np.int64)
    n_vars = int(stage_var_start[-1])
    var_stage = np.repeat(
        np.arange(ch.n_stage_rows, dtype=np.int64), counts
    )

    # src index repeats each destination-count times within its stage row;
    # dst index tiles across sources.
    src_sel, _rows = ragged_gather(ch.src_start, ch.src_len)
    # Expand each source entry by its stage's destination count.
    per_src_repeat = np.repeat(ch.dst_len, ch.src_len)
    var_src_ep = np.repeat(ch.src_pool[src_sel], per_src_repeat)
    var_src_pos = np.repeat(
        _ranges(ch.src_len), per_src_repeat
    )

    # Destinations: for each stage row, tile the dst list src_len times.
    tiled_dst_start = np.repeat(ch.dst_start, ch.src_len)
    tiled_dst_len = np.repeat(ch.dst_len, ch.src_len)
    dst_sel, _ = ragged_gather(tiled_dst_start, tiled_dst_len)
    var_dst_ep = ch.dst_pool[dst_sel]
    var_dst_pos = _ranges(tiled_dst_len)

    lat = sub.latency[
        sub.endpoint_node[var_src_ep], sub.endpoint_node[var_dst_ep]
    ]
    if np.isinf(lat).any():
        bad = int(np.argmax(np.isinf(lat)))
        src = sub.endpoint_names[int(var_src_ep[bad])]
        dst = sub.endpoint_names[int(var_dst_ep[bad])]
        raise ModelError(f"no latency entry for {src!r} -> {dst!r}")
    return VariableColumns(
        n_vars=n_vars,
        var_stage=var_stage,
        var_src_ep=var_src_ep,
        var_dst_ep=var_dst_ep,
        var_src_pos=var_src_pos,
        var_dst_pos=var_dst_pos,
        var_latency=lat,
        stage_var_start=stage_var_start,
    )


class ModelColumns:
    """Bundle of the substrate, chain, and variable columns for a model."""

    def __init__(self, model: NetworkModel):
        self.substrate = model.substrate_columns()
        self.chains = ChainColumns(model, self.substrate)
        self.variables = build_variable_columns(self.substrate, self.chains)


__all__ = [
    "ChainColumns",
    "ModelColumns",
    "SubstrateColumns",
    "VariableColumns",
    "build_variable_columns",
    "ragged_gather",
]
