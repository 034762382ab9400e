"""foldspec benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload verdicts-triangle --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the last stdout line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of traced repetitions, alternated with
untraced ones to give the tracing overhead. The line before it is a report
with the medians' sample counts, the tail percentile, raw wall times, cache
hits and misses, and the inputs whose operation failed. The exit code is 1
when an output check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from speed import SpeedProbe, pin_to_one_cpu

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

# fresh interpreters timed per run for setup_s (plus one untimed, which may
# write the bytecode cache)
SETUP_SAMPLES = 7
SETUP_CODE = "import foldspec.cli"

REASONS = (
    "ground_state", "orthogonality_second", "explicit_count", "odd_boundary",
    "subdomain_multiplicity", "multiple_eigenvalue", "reference_set_strict",
    "box_case_analysis",
)


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "foldspec", "__init__.py")):
        print(f"foldspec sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import foldspec

    if os.path.dirname(os.path.dirname(os.path.abspath(foldspec.__file__))) != SRC:
        print(f"foldspec imported from {foldspec.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh-interpreter import times: (reference seconds, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, check=True)
    spans = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True)
            spans.append((t0, time.perf_counter()))
    return [probe.scaled(*s) for s in spans], [b - a for a, b in spans]


class Timed:
    """One repetition with its times in reference seconds."""

    def __init__(self, workload):
        from workloads import reset_cold_state

        reset_cold_state()
        gc.collect()
        with SpeedProbe() as probe:
            self.rep = workload.run()
        rep = self.rep
        self.wall_s = rep.end - rep.start
        self.solve_s = probe.scaled(rep.start, rep.end)
        self.case_s = [probe.scaled(*c) if c else math.inf for c in rep.cases]


def tail(case_s: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten cases beyond it;
    the slowest case when there are fewer than eleven."""
    ordered = sorted(case_s)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_reps(workload, seconds: float, traced: bool):
    """Timed repetitions within `seconds`: none starts that would end after
    them, judged by the mean so far, once three (two pairs when traced) are
    done. Returns (untraced, traced with their tracers)."""
    from spans import Tracer

    plain, traced_reps = [], []
    start = time.perf_counter()
    while True:
        plain.append(Timed(workload))
        if traced:
            tracer = Tracer()
            with tracer.installed():
                traced_reps.append((Timed(workload), tracer))
        elapsed = time.perf_counter() - start
        done = len(plain)
        if done >= (2 if traced else 3) and elapsed * (done + 1) / done > seconds:
            return plain, traced_reps


def end_to_end(plain: list[Timed], setup: tuple[list[float], list[float]]):
    setup_s, setup_wall = setup
    solve = [t.solve_s for t in plain]
    tails = [tail(t.case_s) for t in plain]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_s": (statistics.median(solve), "s"),
        "items_per_s": (statistics.median(t.rep.units / t.solve_s for t in plain), "1/s"),
        "case_p50_ms": (1000 * statistics.median(statistics.median(t.case_s) for t in plain), "ms"),
        "case_tail_ms": (1000 * statistics.median(v for v, _ in tails), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    report = {
        "samples": {"setup_s": len(setup_s), "solve_s": len(solve),
                    "cases_per_rep": len(plain[0].case_s)},
        "tail_percentile": tails[0][1],
        "solve_s_all": solve,
        "wall_solve_s": [t.wall_s for t in plain],
        "setup_s_all": setup_s,
        "wall_setup_s": setup_wall,
    }
    return metrics, report


def per_layer(plain: list[Timed], traced_reps) -> dict:
    rows = []
    for timed, tracer in traced_reps:
        scale = timed.solve_s / timed.wall_s  # the repetition's speed scaling
        m = {k: v * scale if k.endswith("_s") else v for k, v in tracer.metrics().items()}
        m["folding.partition_count.hits"] = (
            m["folding.partition_count.calls"] - m["folding.partition_count.misses"]
        )
        reasons = timed.rep.output.get("reasons", {})
        for reason in REASONS:
            m[f"courant.reason.{reason}"] = reasons.get(reason, 0)
        m["courant.witness_points"] = timed.rep.output.get("witness_points", 0)
        rows.append(m)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        t.solve_s for t, _ in traced_reps
    ) / statistics.median(t.solve_s for t in plain)
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_point")):
        return "ratio"
    return "count"


def measure(workload, seconds: float, trace: bool, setup=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report). `setup` stands in for
    measure_setup()'s result."""
    from foldspec import folding

    plain, traced_reps = run_reps(workload, seconds, traced=trace)
    reps = [t.rep for t in plain] + [t.rep for t, _ in traced_reps]
    attempted = sum(r.attempted for r in reps)
    check_failures = sorted({x for r in reps for x in r.check_failures})
    failed = sum(len(r.failed) + len(r.check_failures) for r in reps)
    info = folding.partition_count.cache_info()
    if trace:
        values = per_layer(plain, traced_reps)
        units = {name: per_layer_unit(name) for name in values}
        report = {"samples": {"traced": len(traced_reps), "untraced": len(plain)}}
    else:
        metrics, report = end_to_end(plain, setup or measure_setup())
        metrics["ok_ratio"] = (1 - failed / attempted, "ratio")
        values = {k: v for k, (v, _) in metrics.items()}
        units = {k: u for k, (_, u) in metrics.items()}
    report.update({
        "workload": workload.name,
        "units": workload.unit_name,
        "fail_ratio": failed / attempted,
        "failed_inputs": sorted({x for r in reps for x in r.failed}),
        "check_failures": check_failures,
        "partition_cache_last_rep": {"hits": info.hits, "misses": info.misses},
    })
    result = {
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed)
    result, report = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
