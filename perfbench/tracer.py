"""Span recording around the public functions of each ``repro`` layer.

The tracer never edits the program: it swaps each traced function for a
wrapper, everywhere the function is bound (module globals of every
loaded ``repro`` module, and class dictionaries for methods), and puts
the originals back on :meth:`Tracer.uninstall`.  Only ``repro`` modules
are patched, so the calibration probe's own ``linprog`` stays untraced.  Callers that bind a
name at import time (``lp.py`` binds ``linprog``, ``farm.py`` binds
``partition_chains``) therefore see the wrapper too.

Spans live in flat in-memory arrays: start, end, parent index and a
layer id.  Self time is a span's duration minus the durations of its
direct children.  Simulator events are wrapped at scheduling time, and
each callback's span is labelled by the module that defined it, so the
dispatch of one simulated install is split between ``simnet``, ``bus``,
``resilience.rpc`` and ``controller.protocol``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

#: Callback module prefix -> layer, for simulator events.
_EVENT_LAYERS = (
    ("repro.simnet", "simnet.network"),
    ("repro.resilience", "resilience.rpc"),
    ("repro.bus", "bus"),
    ("repro.controller.protocol", "controller.protocol"),
    ("repro.controller", "controller.gs"),
    ("perfbench", "workload"),
)


def event_layer(callback) -> str:
    """Layer of a simulator callback, from the module that defined it."""
    module = getattr(callback, "__module__", None) or ""
    for prefix, layer in _EVENT_LAYERS:
        if module.startswith(prefix):
            return layer
    return module or "unknown"


@dataclass(frozen=True)
class Target:
    """One traced name: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attr: str
    layer: str
    #: Name of a Tracer method that counts work from the call's result.
    counter: str | None = None


#: Every traced name.  Module-level functions are patched wherever they
#: are bound; methods are patched on their class.
TARGETS = (
    Target("repro.core.lp", "linprog", "core.highs.linprog", "count_linprog"),
    Target("repro.core.highs:ColumnGenSolver", "solve", "core.highs.cg",
           "count_cg"),
    Target("repro.core.lp", "solve_chain_routing_lp", "core.lp"),
    Target("repro.core.capacity", "plan_cloud_capacity", "core.capacity"),
    Target("repro.core.dp", "route_chains_dp", "core.dp.batch"),
    Target("repro.core.dp:IncrementalDpRouter", "route", "core.dp.incremental"),
    Target("repro.core.model:NetworkModel", "digest", "core.model.digest"),
    Target("repro.core.model:NetworkModel", "substrate_columns",
           "core.model.columns"),
    Target("repro.core.model:NetworkModel", "chain_columns",
           "core.model.columns"),
    Target("repro.core.model:NetworkModel", "variable_columns",
           "core.model.columns"),
    Target("repro.core.routes:RoutingSolution", "violations",
           "core.routes.violations"),
    Target("repro.scale.partition", "partition_chains", "scale.partition",
           "count_partitions"),
    Target("repro.scale.farm:SolverFarm", "solve", "scale.farm", "count_farm"),
    Target("repro.scale.farm:SolverFarm", "resolve", "scale.farm",
           "count_farm"),
    Target("repro.federation.coordinator:GlobalCoordinator", "submit",
           "federation.coordinator", "count_submit"),
    Target("repro.federation.coordinator:GlobalCoordinator", "remove",
           "federation.coordinator"),
    Target("repro.federation.coordinator:GlobalCoordinator", "plan_all",
           "federation.coordinator"),
    Target("repro.federation.coordinator:GlobalCoordinator", "resolve",
           "federation.coordinator", "count_resolve"),
    Target("repro.simnet.events:Simulator", "run", "simnet.events"),
    Target("repro.simnet.events:Simulator", "schedule_at", "simnet.events"),
    Target("repro.simnet.network:SimNetwork", "send", "simnet.network",
           "count_send"),
    Target("repro.bus.bus:GlobalMessageBus", "publish", "bus"),
    Target("repro.resilience.rpc:RpcEndpoint", "send", "resilience.rpc"),
    Target("repro.controller.protocol:BusDrivenInstaller", "install",
           "controller.protocol"),
    Target("repro.controller.global_switchboard:GlobalSwitchboard",
           "remove_chain", "controller.gs"),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.layer_id = array("H")
        self.layers: list[str] = []
        self._layer_index: dict[str, int] = {}
        self.current = -1
        #: While False, wrappers call straight through and record nothing.
        self.recording = True
        self.counts: dict[str, float] = {}
        #: (owner object, attribute, original value) for uninstall.
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def layer(self, name: str) -> int:
        index = self._layer_index.get(name)
        if index is None:
            index = len(self.layers)
            self.layers.append(name)
            self._layer_index[name] = index
        return index

    def wrap(self, fn, layer_name: str, counter=None):
        """A function that records one span per call of ``fn``."""
        lid = self.layer(layer_name)
        start, end, parent, layer_ids = (
            self.start, self.end, self.parent, self.layer_id
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(start)
            parent.append(self.current)
            layer_ids.append(lid)
            end.append(0.0)
            self.current = index
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                self.current = parent[index]
            if counter is not None:
                counter(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- counters fed from call results --------------------------------------

    def count_linprog(self, args, result) -> None:
        self.count("core.highs.linprog_iters", int(getattr(result, "nit", 0)))

    def count_cg(self, args, result) -> None:
        self.count("core.highs.cg_rounds", args[0].last_rounds)

    def count_partitions(self, args, plan) -> None:
        self.count("scale.partition.partitions", len(plan.partitions))

    def count_farm(self, args, farm_result) -> None:
        # resolve() may fall back to solve(): count the outermost call.
        if self._is_outermost("scale.farm"):
            self.count("scale.farm.partition_solves", len(farm_result.solved))

    def count_submit(self, args, outcome) -> None:
        if not isinstance(outcome, int):
            self.count("federation.coordinator.cross_installs")

    def count_resolve(self, args, plan) -> None:
        self.count(
            "federation.coordinator.regions_resolved",
            len(plan.resolved_regions),
        )

    def count_send(self, args, result) -> None:
        self.count("simnet.network.sends")

    def _is_outermost(self, layer_name: str) -> bool:
        """True if the span that just ended has no ancestor in the layer."""
        lid = self._layer_index[layer_name]
        index = self.current
        while index >= 0:
            if self.layer_id[index] == lid:
                return False
            index = self.parent[index]
        return True

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every target and the simulator's callback scheduling."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            owner = _resolve_owner(target.owner)
            original = owner.__dict__[target.attr] if isinstance(
                owner, type
            ) else getattr(owner, target.attr)
            counter = getattr(self, target.counter) if target.counter else None
            if target.attr == "schedule_at":
                wrapped = self._wrap_schedule_at(original, target.layer)
            else:
                wrapped = self.wrap(original, target.layer, counter)
            if isinstance(owner, type):
                self._set(owner, target.attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if name.startswith("repro") and (
                    module.__dict__.get(target.attr) is original
                ):
                    self._set(module, target.attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_schedule_at(self, original, layer_name: str):
        """``schedule_at`` itself is a span, and so is every callback."""
        wrap = self.wrap

        def schedule_at(sim, when, callback, *args):
            return original(sim, when, wrap(callback, event_layer(callback)), *args)

        schedule_at.__wrapped__ = original

        return self.wrap(schedule_at, layer_name)

    def uninstall(self) -> None:
        """Put every original back, in reverse patch order."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # -- analysis ------------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """layer -> (inclusive seconds, self seconds, calls).

        Inclusive time skips spans whose parent is in the same layer
        (``chain_columns`` calling ``substrate_columns``, ``resolve``
        falling back to ``solve``), so that time is not counted twice.
        """
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.asarray(self.layer_id, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - child_time
        same_as_parent = np.zeros(n, dtype=bool)
        same_as_parent[has_parent] = (
            layer[parent[has_parent]] == layer[has_parent]
        )
        outer = ~same_as_parent
        n_layers = len(self.layers)
        inclusive = np.bincount(
            layer[outer], weights=duration[outer], minlength=n_layers
        )
        own = np.bincount(layer, weights=self_time, minlength=n_layers)
        calls = np.bincount(layer, minlength=n_layers)
        return {
            name: (float(inclusive[i]), float(own[i]), int(calls[i]))
            for i, name in enumerate(self.layers)
        }

    def covered_seconds(self) -> float:
        """Total duration of the root spans (those with no parent)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        roots = np.frombuffer(self.parent, dtype=np.int64) < 0
        return float((end - start)[roots].sum())

    def dump(self, path) -> None:
        """Write every span (parent ids included) plus the layer names."""
        np.savez_compressed(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            layer=np.asarray(self.layer_id, dtype=np.int16),
            layers=np.asarray(json.dumps(self.layers)),
        )
