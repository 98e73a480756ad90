"""Measuring loop, traced replay and metric assembly for the workloads.

A workload object is built by its constructor (the set-up) and then
driven one step at a time:

- ``step(index)`` does one timed step, and ``verify()`` checks its
  outputs outside the timed region;
- ``cycle`` is the number of steps a timed run is rounded up to, so a
  run covers whole demand cycles;
- ``rss_steps`` is the step after which peak memory is read: a fixed
  amount of work, so a faster program that gets through more steps is
  not charged for the state those extra steps build up;
- ``ops_completed()`` counts the user operations finished so far;
- ``finish()`` settles what the last step left in flight (untimed);
- ``outcome() -> (attempted, failed)``, ``check() -> problems``,
  ``quality()`` (the end-to-end quality figures), ``counters()`` (the
  per-layer work counters, from the program's public stats) and
  ``fingerprint()`` (every output the traced replay must reproduce).
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import repro.core.capacity as capacity
import repro.core.lp as lp
from perfbench.fed_churn import FedChurn
from perfbench.install_storm import InstallStorm
from perfbench.probe import NOMINAL_S, Probe
from perfbench.te_diurnal import TeDiurnal
from perfbench.tracer import Tracer

WORKLOADS = {cls.name: cls for cls in (TeDiurnal, FedChurn, InstallStorm)}
#: Seconds of steps between two calibration probes.
PROBE_EVERY_S = 0.5

#: name -> unit, in the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "step_p50_ref": "ref",
    "route_latency_ms": "ms",
    "carried_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.highs.linprog_s": "s",
    "core.highs.linprog_calls": "count",
    "core.highs.linprog_iters": "count",
    "core.highs.cg_s": "s",
    "core.highs.cg_solves": "count",
    "core.highs.cg_rounds": "count",
    "core.lp.self_s": "s",
    "core.lp.calls": "count",
    "core.lp.matrix_rebuilds": "count",
    "core.lp.matrix_reuse_ratio": "ratio",
    "core.capacity.self_s": "s",
    "core.capacity.calls": "count",
    "core.capacity.matrix_reuse_ratio": "ratio",
    "core.dp.batch_s": "s",
    "core.dp.batch_calls": "count",
    "core.dp.incremental_s": "s",
    "core.dp.incremental_calls": "count",
    "core.model.digest_s": "s",
    "core.model.digest_calls": "count",
    "core.model.columns_s": "s",
    "core.routes.violations_s": "s",
    "core.routes.violations_calls": "count",
    "scale.partition.self_s": "s",
    "scale.partition.calls": "count",
    "scale.partition.partitions": "count",
    "scale.farm.self_s": "s",
    "scale.farm.partition_solves": "count",
    "scale.cache.hit_ratio": "ratio",
    "federation.coordinator.self_s": "s",
    "federation.coordinator.cross_installs": "count",
    "federation.coordinator.regions_resolved": "count",
    "simnet.events_dispatched": "count",
    "simnet.events.self_s": "s",
    "simnet.network.sends": "count",
    "simnet.network.self_s": "s",
    "simnet.events_per_install": "count",
    "bus.published": "count",
    "bus.wan_messages": "count",
    "bus.self_s": "s",
    "resilience.rpc.sent": "count",
    "resilience.rpc.retries": "count",
    "resilience.rpc.timeouts": "count",
    "resilience.rpc.self_s": "s",
    "resilience.rpc.msgs_per_install": "count",
    "controller.protocol.self_s": "s",
    "controller.gs.self_s": "s",
    "controller.installs_committed": "count",
    "controller.install_p50_ms": "ms",
    "controller.install_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "wall.ops_per_s": "1/s",
    "wall.step_p50_ms": "ms",
    "wall.probe_ms": "ms",
}

#: Per-layer metric -> (span layer, what to take from layer_times()).
_SPAN_METRICS = {
    "core.highs.linprog_s": ("core.highs.linprog", "inclusive"),
    "core.highs.linprog_calls": ("core.highs.linprog", "calls"),
    "core.highs.cg_s": ("core.highs.cg", "inclusive"),
    "core.highs.cg_solves": ("core.highs.cg", "calls"),
    "core.lp.self_s": ("core.lp", "self"),
    "core.lp.calls": ("core.lp", "calls"),
    "core.capacity.self_s": ("core.capacity", "self"),
    "core.capacity.calls": ("core.capacity", "calls"),
    "core.dp.batch_s": ("core.dp.batch", "inclusive"),
    "core.dp.batch_calls": ("core.dp.batch", "calls"),
    "core.dp.incremental_s": ("core.dp.incremental", "inclusive"),
    "core.dp.incremental_calls": ("core.dp.incremental", "calls"),
    "core.model.digest_s": ("core.model.digest", "inclusive"),
    "core.model.digest_calls": ("core.model.digest", "calls"),
    "core.model.columns_s": ("core.model.columns", "inclusive"),
    "core.routes.violations_s": ("core.routes.violations", "inclusive"),
    "core.routes.violations_calls": ("core.routes.violations", "calls"),
    "scale.partition.self_s": ("scale.partition", "self"),
    "scale.partition.calls": ("scale.partition", "calls"),
    "scale.farm.self_s": ("scale.farm", "self"),
    "federation.coordinator.self_s": ("federation.coordinator", "self"),
    "simnet.events.self_s": ("simnet.events", "self"),
    "simnet.network.self_s": ("simnet.network", "self"),
    "bus.self_s": ("bus", "self"),
    "resilience.rpc.self_s": ("resilience.rpc", "self"),
    "controller.protocol.self_s": ("controller.protocol", "self"),
    "controller.gs.self_s": ("controller.gs", "self"),
}
_TIMES_INDEX = {"inclusive": 0, "self": 1, "calls": 2}

#: Layer groups compared for "which layer has the largest self time".
LAYER_GROUPS = (
    "core.highs", "core.lp", "core.capacity", "core.dp", "core.model",
    "core.routes", "scale.partition", "scale.farm", "federation", "simnet",
    "bus", "resilience", "controller", "workload",
)


def make(name: str, seed: int, scale: float = 1.0):
    """Set up a workload from nothing: the module-level LP structure
    caches are emptied first, so every set-up starts equally cold."""
    lp.clear_matrix_cache()
    capacity.clear_capacity_cache()
    return WORKLOADS[name](seed, scale)


@dataclass
class Setup:
    """One process's set-up time, with the probe time measured right
    after it (``probe_s`` is measured when not given)."""

    raw_s: float
    probe_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.probe_s:
            self.probe_s = Probe().median()

    @property
    def scaled_s(self) -> float:
        """Set-up seconds on a host where the probe takes NOMINAL_S."""
        return self.raw_s * NOMINAL_S / self.probe_s


@dataclass
class Run:
    steps: int
    finish_s: float
    step_s: list[float]
    #: Each step's time divided by the probe time measured around it.
    step_ref: list[float]
    probe_s: list[float]
    peak_rss_mb: float
    ops_done: int
    attempted: int
    failed: int
    problems: list[str]
    quality: dict[str, float]
    counters: dict[str, float]
    fingerprint: dict


def measure(workload, seconds: float | None = None, steps: int | None = None,
            untimed=contextlib.nullcontext) -> Run:
    """Step ``workload`` until ``seconds`` have passed and the steps
    fill whole cycles, or exactly ``steps`` times; then settle it and
    check it.  The calibration probe runs before the first step, after
    the last, and between steps every ``PROBE_EVERY_S`` of step time.
    Checks run inside the ``untimed`` context."""
    probe = Probe()
    probe_s = [probe()]
    step_s: list[float] = []
    probe_before: list[int] = []
    raised: list[str] = []
    clock = time.perf_counter
    peak_rss_mb = None
    since_probe = 0.0
    start = clock()
    index = 0
    while True:
        t0 = clock()
        try:
            workload.step(index)
        except Exception as exc:  # a crashed op fails the run, not the process
            raised.append(f"step {index} raised {exc!r}")
            break
        t1 = clock()
        with untimed():
            workload.verify()
        step_s.append(t1 - t0)
        probe_before.append(len(probe_s) - 1)
        index += 1
        if index == workload.rss_steps:
            peak_rss_mb = _peak_rss_mb()
        if steps is not None:
            if index >= steps:
                break
        elif clock() - start >= seconds and index % workload.cycle == 0:
            break
        since_probe += t1 - t0
        if since_probe >= PROBE_EVERY_S:
            probe_s.append(probe())
            since_probe = 0.0
    probe_s.append(probe())
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()
    ops_done = workload.ops_completed()
    t0 = clock()
    workload.finish()
    finish_s = clock() - t0
    attempted, failed = workload.outcome()
    with untimed():
        problems = raised + workload.check()
    step_ref = [
        s / (0.5 * (probe_s[k] + probe_s[k + 1]))
        for s, k in zip(step_s, probe_before)
    ]
    return Run(
        steps=index,
        finish_s=finish_s,
        step_s=step_s,
        step_ref=step_ref,
        probe_s=probe_s,
        peak_rss_mb=peak_rss_mb,
        ops_done=ops_done,
        attempted=attempted + len(raised),
        failed=failed + len(raised),
        problems=problems,
        quality=workload.quality(),
        counters=workload.counters(),
        fingerprint=workload.fingerprint(),
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: list[float]) -> float:
    """Median, or 0 for a run whose first step crashed."""
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run: Run, setup_s: float) -> dict:
    values = {
        "setup_s": setup_s,
        "step_p50_ref": _median(run.step_ref),
        "route_latency_ms": run.quality["route_latency_ms"],
        "carried_ratio": run.quality["carried_ratio"],
        "peak_rss_mb": run.peak_rss_mb,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


@dataclass
class TracedRun:
    run: Run
    metrics: dict
    layer_self_s: dict[str, float]
    problems: list[str] = field(default_factory=list)


def _diff(a: dict, b: dict) -> list[str]:
    return [
        f"{key}: untraced {a.get(key)!r} != traced {b.get(key)!r}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


def traced_replay(name: str, seed: int, scale: float, untraced: Run,
                  out_dir: str | None = None) -> TracedRun:
    """Set the workload up again, replay the untraced run's steps with
    every layer wrapped, unwrap, and derive the per-layer metrics."""
    workload = make(name, seed, scale)
    tracer = Tracer()
    tracer.install()
    try:
        run = measure(workload, steps=untraced.steps, untimed=tracer.paused)
    finally:
        tracer.uninstall()
    problems = [f"traced replay: {p}" for p in run.problems] + [
        f"traced replay diverged: {d}"
        for d in _diff(untraced.fingerprint, run.fingerprint)
    ]
    times = tracer.layer_times()
    values = dict.fromkeys(PER_LAYER, 0.0)
    for metric, (layer, what) in _SPAN_METRICS.items():
        if layer in times:
            values[metric] = times[layer][_TIMES_INDEX[what]]
    for metric, value in tracer.counts.items():
        values[metric] = value
    for metric, value in run.counters.items():
        if metric in values:
            values[metric] = value
    total = sum(run.step_s) + run.finish_s
    values["trace.overhead_frac"] = (
        sum(run.step_ref) / sum(untraced.step_ref) - 1.0 if untraced.step_ref else 0.0
    )
    values["trace.unattributed_s"] = max(0.0, total - tracer.covered_seconds())
    values["wall.ops_per_s"] = untraced.ops_done / (sum(untraced.step_s) or 1.0)
    values["wall.step_p50_ms"] = _median(untraced.step_s) * 1000.0
    values["wall.probe_ms"] = _median(untraced.probe_s) * 1000.0
    metrics = {m: _metric(values[m], unit) for m, unit in PER_LAYER.items()}
    groups = dict.fromkeys(LAYER_GROUPS, 0.0)
    for layer, (_inclusive, own, _calls) in times.items():
        group = next((g for g in LAYER_GROUPS if layer.startswith(g)), layer)
        groups[group] = groups.get(group, 0.0) + own
    groups["unattributed"] = values["trace.unattributed_s"]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{name}.npz"))
    return TracedRun(run, metrics, groups, problems)


def print_layers(traced: TracedRun) -> None:
    total = sum(traced.layer_self_s.values()) or 1.0
    print("layer self time (traced replay):")
    for group, own in sorted(
        traced.layer_self_s.items(), key=lambda item: -item[1]
    ):
        if own > 0:
            print(f"  {group:<18} {own:9.3f} s  {100 * own / total:5.1f}%")


def print_summary(name: str, run: Run, metrics: dict) -> None:
    print(
        f"{name}: {run.steps} steps in {sum(run.step_s):.3f} s "
        f"(median {_median(run.step_s) * 1000:.1f} ms, probe "
        f"median {_median(run.probe_s) * 1000:.1f} ms), "
        f"{run.ops_done} ops done, attempted {run.attempted}, "
        f"failed {run.failed} (op_failed_frac "
        f"{run.failed / max(1, run.attempted):.4f})"
    )
    for metric, entry in metrics.items():
        print(f"  {metric:<40} {entry['value']:.6g} {entry['unit']}")
