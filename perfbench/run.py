"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload te_diurnal --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
taken from a traced replay of exactly the steps the untraced run made.
See ``perfbench/NOTES.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os
import time

_STARTED = time.perf_counter()
# One thread per run: OpenBLAS otherwise starts a spinning thread per
# CPU, and on a small shared host those threads fight the measured work
# (and the calibration probe) for the same cores.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where a traced run writes its spans (git-ignored).
TRACE_OUT = os.path.join(ROOT, "perfbench", "out")
#: Fresh processes that repeat the set-up; setup_s is the median of
#: these and the measuring process's own set-up, each scaled by the
#: calibration probe measured right after it.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the workload (tests use a small scale)",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, then print the set-up time (internal)",
    )
    return parser.parse_args(argv)


def _need_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no program to measure: {SRC}/repro is missing",
            file=sys.stderr,
        )
        sys.exit(2)
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup_probe(args) -> list:
    """Set-ups of ``SETUP_PROBES`` fresh processes."""
    from perfbench.harness import Setup

    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", str(args.scale), "--setup-probe",
    ]
    setups = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        setups.append(Setup(**json.loads(done.stdout.strip().splitlines()[-1])))
    return setups


def main(argv=None) -> int:
    args = parse_args(argv)
    _need_program()
    from perfbench import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = harness.make(args.workload, args.seed, args.scale)
    setup = harness.Setup(time.perf_counter() - _STARTED)
    if args.setup_probe:
        print(json.dumps(setup.__dict__))
        return 0

    run = harness.measure(workload, seconds=args.seconds)
    problems, failed = list(run.problems), run.failed
    if args.trace:
        traced = harness.traced_replay(
            args.workload, args.seed, args.scale, run, TRACE_OUT
        )
        metrics = traced.metrics
        problems += traced.problems
        harness.print_layers(traced)
    else:
        setups = [setup] + setup_probe(args)
        metrics = harness.end_to_end(
            run, statistics.median(s.scaled_s for s in setups)
        )
        print("setup samples (raw s / probe ms): " + ", ".join(
            f"{s.raw_s:.3f}/{s.probe_s * 1000:.1f}" for s in setups
        ))
    # A failed output check that no op owns counts as one more failure.
    if problems and failed == 0:
        failed = 1
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    harness.print_summary(args.workload, run, metrics)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
