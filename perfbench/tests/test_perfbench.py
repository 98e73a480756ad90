"""Tests of the benchmark itself: smoke runs, tracer hygiene, metric names.

    python3 -m pytest perfbench/tests -q

The smoke runs use a reduced workload size and the held-out seed, and
go through every output check the full-size runs make.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import harness, tracer  # noqa: E402

HELD_OUT_SEED = 8191
SMALL = 0.3
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_smoke_run_passes_every_check(name):
    workload = harness.make(name, HELD_OUT_SEED, SMALL)
    run = harness.measure(workload, steps=3)
    assert run.problems == []
    assert run.failed == 0 and run.attempted >= 1
    metrics = harness.end_to_end(run, setup_s=1.0)
    assert set(metrics) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_replay_reproduces_untraced_outputs(name):
    run = harness.measure(harness.make(name, HELD_OUT_SEED, SMALL), steps=2)
    traced = harness.traced_replay(name, HELD_OUT_SEED, SMALL, run)
    assert traced.problems == []
    assert traced.run.fingerprint == run.fingerprint
    assert set(traced.metrics) == set(harness.PER_LAYER)


def _bindings():
    """Every place a traced target is bound, with what is bound there."""
    found = {}
    for target in tracer.TARGETS:
        owner = tracer._resolve_owner(target.owner)
        if isinstance(owner, type):
            found[(owner, target.attr)] = owner.__dict__[target.attr]
            continue
        original = getattr(owner, target.attr)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name.startswith("repro") and (
                module.__dict__.get(target.attr) is original
            ):
                found[(module, target.attr)] = original
    return found


def test_tracer_patches_every_binding_and_restores_it():
    import repro.core.lp as lp
    import repro.scale.farm as farm

    before = _bindings()
    assert (lp, "linprog") in before and (farm, "partition_chains") in before
    t = tracer.Tracer()
    t.install()
    try:
        for (owner, attr), original in before.items():
            now = getattr(owner, attr)
            assert now is not original
            assert inspect.unwrap(now) is original
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
    assert not t.installed
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original


def test_tracer_self_time_subtracts_children():
    t = tracer.Tracer()

    def leaf():
        sum(range(20000))

    wrapped_leaf = t.wrap(leaf, "inner")

    def outer():
        wrapped_leaf()
        wrapped_leaf()

    t.wrap(outer, "outer")()
    times = t.layer_times()
    inclusive, own, calls = times["outer"]
    assert calls == 1 and times["inner"][2] == 2
    assert own == pytest.approx(inclusive - times["inner"][0], abs=1e-9)
    assert t.covered_seconds() == pytest.approx(inclusive)


def test_cli_prints_every_metric_by_name():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "install_storm", "--seed",
         str(HELD_OUT_SEED), "--seconds", "0.5", "--trace", "0",
         "--scale", str(SMALL)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "te_diurnal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
