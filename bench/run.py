#!/usr/bin/env python3
"""bjorth benchmark: time to a certified answer, per-call latency, and set-up.

Usage (from the repository root):

    python3 bench/run.py --workload preserver-sweep --seed 1 --seconds 20 --trace 0

Workloads are preserver-sweep, geometry-sweep and point-queries (see
bench/README.md).  The library is imported from ``src/`` of the checkout
that holds this file.  With ``--trace 0`` the run measures rounds for the
given number of seconds and reports the end-to-end metrics; with
``--trace 1`` it runs set-up and one round twice, first with spans only,
then under the interpreter profiler, and reports the per-layer metrics.  Every verdict
the library gives is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# One thread: the figures should measure bjorth, not the BLAS pool or the
# scheduler.  These must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cProfile
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "bjorth"
# Set-up is repeated this many times per timed run; setup_s is the best.
SETUPS = 40


def fresh_import():
    """Import bjorth anew from src/, dropping any loaded copy first."""
    for name in [m for m in sys.modules if m == "bjorth" or m.startswith("bjorth.")]:
        del sys.modules[name]
    bj = importlib.import_module("bjorth")
    importlib.import_module("bjorth.serialize")
    if Path(bj.__file__).resolve().parent != PACKAGE.resolve():
        raise ImportError(f"bjorth was imported from {bj.__file__}, not from {PACKAGE}")
    return bj


def artifact_digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seed: int, seconds: float, out: Path):
    """Rounds until the measured time reaches seconds, with set-ups spread among them.

    Interference from other tenants of a shared host only ever adds time,
    and it arrives in bursts of seconds that a median over a run's rounds
    does not absorb, so each timing is taken from the least-disturbed
    repetition of one unit of work.  Every round makes the same sequence of
    library calls, so the unit is one call of that sequence: sweep_s is the
    sum over the sequence of each call's best time, and the query latencies
    are percentiles over the latency calls' best times.  Set-up is repeated
    SETUPS times, evenly over the measured time so that a burst cannot cover
    all of them, and setup_s is the best; the first set-up's state is used.
    """
    from workloads import Spans, Verdicts

    setups = []

    def set_up():
        gc.collect()
        t0 = time.perf_counter()
        state = workload.build(fresh_import(), Spans())
        setups.append(time.perf_counter() - t0)
        return state

    state = set_up()
    verdicts = Verdicts()
    walls, best_ns, totals = [], {}, {}
    digests = None
    gc.collect()
    while not walls or sum(walls) < seconds:
        spans = Spans()
        res = workload.run_round(state, seed, spans, out)
        if digests is None:
            digests = artifact_digests(out)
        walls.append(res.wall_s)
        verdicts.add(res.verdicts)
        for name, value in res.stats.items():
            totals[name] = totals.get(name, 0) + value
        for name, ds in spans.ns.items():
            for k, d in enumerate(ds):
                best_ns[name, k] = min(d, best_ns.get((name, k), d))
        if len(setups) < SETUPS and sum(walls) >= len(setups) * seconds / SETUPS:
            set_up()
    while len(setups) < SETUPS:
        set_up()

    sweep_s = sum(best_ns.values()) / 1e9
    wanted = workload.latency_spans()
    latencies = [d / 1e3 for (name, _), d in best_ns.items() if wanted is None or name in wanted]
    metrics = {
        "setup_s": (min(setups), "s"),
        "sweep_s": (sweep_s, "s"),
        "items_per_s": (res.items / sweep_s, "1/s"),
        "query_p50_us": (statistics.median(latencies), "us"),
        "query_p99_us": (percentile(latencies, 99), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"setups": SETUPS, "rounds": len(walls), "items_per_round": res.items,
            "latency_calls_per_round": len(latencies), "median_round_s": statistics.median(walls),
            "round_stats_total": totals, "artifact_sha256": digests}
    return metrics, verdicts, info


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traced_run(workload, seed: int, seconds: float, out: Path):
    """Set-up and one round, first with spans only, then under the profiler.

    The work is fixed by the seed, so call counts repeat exactly; the
    seconds budget does not apply.
    """
    from layers import ChildGenerators, Profile, layer_metrics
    from workloads import Spans, Verdicts

    bj = fresh_import()
    verdicts = Verdicts()

    plain = Spans()
    t0 = time.perf_counter()
    state = workload.build(bj, plain)
    build_s = time.perf_counter() - t0
    first = workload.run_round(state, seed, plain, out)
    plain_wall = build_s + first.wall_s
    verdicts.add(first.verdicts)
    digests = artifact_digests(out)
    nbytes = artifact_bytes(out)

    profiler, children = cProfile.Profile(), ChildGenerators()
    profiling = _Profiling(profiler, children)
    t0 = time.perf_counter()
    with profiling:
        state = workload.build(bj, Spans())
    build_s = time.perf_counter() - t0
    second = workload.run_round(state, seed, Spans(), out, profiling)
    profiled_wall = build_s + second.wall_s
    verdicts.add(second.verdicts)
    if artifact_digests(out) != digests:
        verdicts.record(False, lambda: "artifacts of the profiled pass differ from the plain pass")

    profiler.create_stats()
    metrics = layer_metrics(Profile(profiler.stats, PACKAGE), plain, first.stats,
                            children.calls, nbytes, profiled_wall - plain_wall)
    info = {"plain_s": plain_wall, "profiled_s": profiled_wall, "artifact_sha256": digests}
    return metrics, verdicts, info


class _Profiling:
    """Re-enterable context: the profiler and child-generator counting both on."""

    def __init__(self, profiler, children):
        self.profiler, self.children = profiler, children

    def __enter__(self):
        self._count = self.children.active()
        self._count.__enter__()
        self.profiler.enable()
        return self

    def __exit__(self, *exc):
        self.profiler.disable()
        return self._count.__exit__(*exc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no bjorth sources at {PACKAGE}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    out_root = ROOT / ".bench_out"
    out = out_root / f"{workload.name}-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        metrics, verdicts, info = run(workload, args.seed, args.seconds, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass  # another run still has its directory there

    info["failed_frac"] = verdicts.failed / max(verdicts.attempted, 1)
    info["excluded"] = verdicts.excluded
    if verdicts.first_failure is not None:
        info["first_failure"] = verdicts.first_failure
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
