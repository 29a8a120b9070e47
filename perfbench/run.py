"""orderkit benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload corpus-monoids --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; orderkit is imported from its
``src`` directory.  With ``--trace 0`` the run sets up the workload several
times (reporting the median set-up time), then runs whole rounds of its
operations, each starting when the previous one returns, for about
``--seconds``, and prints the end-to-end metrics.  Their times are scaled to a
reference host speed (see hostspeed.py); the measured times go to standard
error.  With ``--trace 1`` it sets up once and runs exactly one round with
every listed orderkit function wrapped in a span, and prints the per-layer
metrics; its call counts depend on the seed alone.  Every output is checked
after its round.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUPS = 5
# Operations per round that lie beyond the tail percentile.
TAIL_BEYOND = 10


def _purge_orderkit():
    for name in [n for n in sys.modules
                 if n == "orderkit" or n.startswith("orderkit.")]:
        del sys.modules[name]


def _run_round(workload, state, r, progress, host=None):
    """Run and check one round; returns ((key, start, seconds) per
    operation, failure messages).  Only the operations are timed: host-speed
    samples run between them."""
    infos, outputs, timings, failures = [], [], [], []
    clock = time.perf_counter
    for key, info, fn in workload.round_ops(state, r):
        t0 = clock()
        try:
            out = fn()
        except Exception as err:  # an operation failed; count it, go on
            failures.append(f"{type(err).__name__}: {err}")
            out = None
        dt = clock() - t0
        timings.append((key, t0, dt))
        if out is not None:
            infos.append(info)
            outputs.append(out)
        if host is not None:
            host.after_operation(dt)
    progress["attempted"] += len(timings)
    workload.check(state, infos, outputs)
    return timings, failures


def timed_run(workload, seed, seconds, progress):
    """End-to-end metrics; every set-up and every operation is scaled to the
    reference host speed by the kernel samples nearest to it in time."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    raw_setups, setup_at = [], []
    for _ in range(SETUPS):
        _purge_orderkit()
        host.sample(4)
        t0 = time.perf_counter()
        state = workload.setup(seed)
        raw_setups.append(time.perf_counter() - t0)
        setup_at.append(t0 + raw_setups[-1] / 2)
        host.sample(4)
    rounds = []
    failures = []
    start = time.perf_counter()
    # Another round starts while it would end at most half a round past the
    # deadline, so runs end close to ``seconds`` whatever a round costs.
    while not rounds or (time.perf_counter() - start) * (1 + 0.5 / len(rounds)) \
            < seconds:
        timings, fails = _run_round(workload, state, len(rounds), progress,
                                    host)
        host.sample()
        rounds.append(timings)
        failures.extend(fails)
    setups = [s * host.scale_at(t) for s, t in zip(raw_setups, setup_at)]
    scaled = [[(key, dt * host.scale_at(t0 + dt / 2))
               for key, t0, dt in timings] for timings in rounds]
    latencies = sorted(x for lat in scaled for _key, x in lat)
    # For the tail every operation counts at the median time of the same
    # operation over the run: among thousands of like operations, one
    # round's slowest are mostly those that the host interrupted.
    by_key = {}
    for lat in scaled:
        for key, x in lat:
            by_key.setdefault(key, []).append(x)
    typical = sorted(statistics.median(by_key[key])
                     for lat in scaled for key, _x in lat)
    metrics = {
        "wall_s": (statistics.median(sum(x for _k, x in lat)
                                     for lat in scaled), "s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * typical[-TAIL_BEYOND * len(rounds) - 1],
                            "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    per_round = len(latencies) // len(rounds)
    raw_wall = statistics.median(sum(dt for _k, _t, dt in r) for r in rounds)
    print(f"{workload.name}: {len(rounds)} rounds of {per_round} operations, "
          f"tail percentile p{100.0 * (1 - TAIL_BEYOND / per_round):.2f}; "
          f"kernel {1e3 * host.kernel_s():.3f} ms mean over "
          f"{len(host.kernel)} samples; measured wall_s={raw_wall:.6g} "
          f"setup_s={statistics.median(raw_setups):.6g}", file=sys.stderr)
    return failures, metrics


def traced_run(workload, seed, progress):
    from tracing import Tracer

    _purge_orderkit()
    for name in ("orderkit", "orderkit.cli"):   # cli imports every module
        importlib.import_module(name)
    tracer = Tracer()
    tracer.install()
    state = workload.setup(seed)
    timings, failures = _run_round(workload, state, 0, progress)
    wall = sum(dt for _k, _t, dt in timings)
    path = os.path.join(OUT, f"{workload.name}.trace")
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "round_wall_s": wall})
    print(f"{workload.name}: traced round {wall:.3f} s, "
          f"{len(tracer.func)} spans in {path}.bin", file=sys.stderr)
    return failures, tracer.layer_metrics()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orderkit", "__init__.py")):
        print(f"no orderkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    progress = {"attempted": 0}
    try:
        if args.trace:
            failures, metrics = traced_run(workload, args.seed, progress)
        else:
            failures, metrics = timed_run(workload, args.seed, args.seconds,
                                          progress)
    except CheckFailed as err:
        print(f"{workload.name}: CHECK FAILED: {err}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, progress["attempted"]),
                          "failed": 0, "metrics": {}}))
        return 1
    for line in sorted(set(failures)):
        print(f"{workload.name}: failed operation: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": progress["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
