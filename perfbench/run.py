"""The simulator's benchmark: four workloads, output checks, one metric line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --self-test             # each check must catch a corruption
    python3 perfbench/run.py --seed-sweep            # the checks over eleven seeds
    python3 perfbench/run.py --steadiness --runs 10  # medians, quartiles, bounds

A run repeats whole rounds of its workload's cells until ``--seconds``
have passed, checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted`` and ``failed`` cells, and the metrics
-- the end-to-end ones with ``--trace 0``, the per-layer ones (from a
separate traced round) with ``--trace 1``.  README.md says what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Seeds the seed sweep checks besides the default seed 1.
SWEEP_SEEDS = tuple(range(2, 12))
DEFAULT_SECONDS = 20

if not (SRC / "repro" / "__init__.py").is_file():
    sys.stderr.write(f"perfbench: no simulator sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

Metrics = Dict[str, Tuple[float, str]]


# ----------------------------------------------------------------------
# Checking outputs
# ----------------------------------------------------------------------
def checked(workload, rnd):
    """Check a finished round, then drop its full results, so a run
    holds one round's outputs at a time whatever its length (the rows
    stay for the reference comparisons)."""
    rnd.failures = workload.check(rnd)
    for cell in rnd.cells:
        cell.result = None
        cell.kept = {}
    gc.collect()  # scenarios hold reference cycles; free them before the next round
    return rnd


def play_round(workload):
    return checked(workload, workload.run_round(workloads.plain_run_cell))


def judge_run(workload, rounds) -> Tuple[int, int, List[str]]:
    """(attempted, failed, failure messages) over a run's checked
    rounds; the reference runs attach to the first round's cells."""
    per_round = [[list(failures) for failures in rnd.failures] for rnd in rounds]
    for index, more in workload.reference_failures(rounds[0]).items():
        per_round[0][index] += more
    cells = [failures for per_cell in per_round for failures in per_cell]
    messages = [m for failures in cells for m in failures]
    return len(cells), sum(1 for failures in cells if failures), messages


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (a pool worker on paper-grid; nothing on the in-process workloads)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(name: str, seed: int) -> List[float]:
    """Seconds from spawning a fresh interpreter to the end of the
    workload's set-up (imports, validate(), scenario construction, pool
    start), ``SETUP_REPEATS`` times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            code = child.wait()
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
        samples.append(elapsed)
    return samples


def run_rounds(workload, seconds: float) -> List[Any]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(play_round(workload))
        if time.perf_counter() - start >= seconds:
            return rounds


def end_to_end(rounds, setup: List[float], rss_mb: float) -> Metrics:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "grid_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "flow_s_per_s": (
            statistics.median(r.flow_seconds / r.wall_s for r in rounds),
            "flow-s/s",
        ),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced_run(workload, spool: Path, spans_path: Path) -> Tuple[List[Any], Metrics]:
    """One untraced round, then the same round with every layer wrapped."""
    plain = play_round(workload)
    tracing.import_all_layers()
    tracer = tracing.Tracer(str(spool))
    tracer.cell = "parent"
    tracer.install()
    try:
        traced = workload.run_round(tracer.run_cell)
    finally:
        tracer.uninstall()
    checked(workload, traced)
    tracer.merge_spool()
    tracer.write(str(spans_path))
    metrics = tracing.layer_metrics(tracer)
    if "cold_events" in plain.extras:
        metrics.update(tracing.runner_metrics(
            plain.extras["cold_events"], plain.extras["warm_events"],
            plain.extras["warm_wall_s"],
        ))
    else:
        metrics.update(tracing.empty_runner_metrics())
    metrics.update(tracing.overhead_metrics(plain.wall_s, traced.wall_s))
    return [plain, traced], metrics


def provenance(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_unix": time.time(),
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    tag = f"{name}-seed{seed}-trace{trace}"
    info = provenance(name, seed, seconds, trace)
    try:
        workload = workloads.make_workload(name, seed, str(scratch))
        if trace:
            rounds, metrics = traced_run(workload, scratch, OUT / f"spans-{tag}.jsonl")
            setup: List[float] = []
        else:
            rounds = run_rounds(workload, seconds)
            rss_mb = peak_rss_mb()  # before the set-up probes become children
            setup = measure_setup(name, seed)
            metrics = end_to_end(rounds, setup, rss_mb)
        attempted, failed, messages = judge_run(workload, rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "provenance": info,
        "rounds": [
            {"wall_s": r.wall_s, "cells": len(r.cells),
             "warm_wall_s": r.extras.get("warm_wall_s")}
            for r in rounds
        ],
        "setup_samples_s": setup,
        "failures": messages,
        "result": result,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for message in messages[:20]:
        print(f"FAILED {message}")
    return result


# ----------------------------------------------------------------------
# Other modes
# ----------------------------------------------------------------------
def setup_probe(name: str, seed: int) -> None:
    scratch = OUT / f"tmp-{os.getpid()}"
    workload = workloads.make_workload(name, seed, str(scratch))
    workload.setup()
    print("READY", flush=True)


def run_child(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One benchmark run in a fresh interpreter, as a user would start it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Every workload, each in its own process, as one table."""
    results = {}
    print(f"{'workload':<17} {'metric':<32} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        result = run_child(name, seed, seconds, trace)
        results[name] = result
        for metric, entry in result["metrics"].items():
            print(f"{name:<17} {metric:<32} {entry['value']:>14.6g}  {entry['unit']}")
        print(f"{name:<17} {'cells attempted / failed':<32} "
              f"{result['attempted']:>8} / {result['failed']}  "
              f"correct={result['correct']}")
    return results


def seed_sweep(names: List[str], seeds: List[int]) -> int:
    """One round of each workload per seed, with every output check."""
    OUT.mkdir(exist_ok=True)
    bad = 0
    for name in names:
        for seed in seeds:
            scratch = OUT / f"tmp-{os.getpid()}"
            scratch.mkdir(exist_ok=True)
            try:
                workload = workloads.make_workload(name, seed, str(scratch))
                attempted, failed, messages = judge_run(workload, [play_round(workload)])
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            bad += failed
            print(f"{name:<17} seed {seed:>3}: {attempted} cells, {failed} failed", flush=True)
            for message in messages:
                print(f"    {message}", flush=True)
    print(f"seed sweep: {bad} failed cells")
    return 1 if bad else 0


def quartile_spread(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def steadiness(names: List[str], runs: int, first_seed: int, seconds: float,
               write_bounds: bool) -> int:
    """Repeated runs per workload; median and quartiles per end-to-end
    metric, and the bound each metric needs (three times the widest
    spread seen, at most 0.25; ``setup_s`` always gets the largest)."""
    spreads: Dict[str, float] = {}
    failed_shares = set()
    for name in names:
        values: Dict[str, List[float]] = {}
        for i in range(runs):
            result = run_child(name, first_seed + i, seconds, 0)
            failed_shares.add((name, result["failed"] / result["attempted"]))
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        for metric, series in values.items():
            median, q1, q3, spread = quartile_spread(series)
            spreads[metric] = max(spreads.get(metric, 0.0), spread)
            print(f"{name:<17} {metric:<14} median {median:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}", flush=True)
    bounds = {
        metric: min(0.25, math.ceil(100 * max(3.0 * spread, 0.05)) / 100)
        for metric, spread in spreads.items()
    }
    bounds["setup_s"] = max(bounds.values())
    print(f"failed shares: {sorted(failed_shares)}")
    print(f"bounds: {bounds}")
    if write_bounds:
        path = ROOT / "BENCHMARK.json"
        spec = json.loads(path.read_text())
        for entry in spec["end_to_end"]:
            entry["bound"] = bounds.get(entry["name"], entry["bound"])
        path.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true",
                      help="feed every check corrupted outputs; each must fail")
    mode.add_argument("--seed-sweep", action="store_true",
                      help="run the output checks over the default and ten more seeds")
    mode.add_argument("--steadiness", action="store_true",
                      help="repeat runs per workload; report medians and quartiles")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write-bounds", action="store_true",
                        help="with --steadiness, store the bounds in BENCHMARK.json")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    if args.self_test:
        import selftest

        return selftest.main()
    if args.seed_sweep:
        return seed_sweep(names, [args.seed, *SWEEP_SEEDS])
    if args.steadiness:
        return steadiness(names, args.runs, args.seed, args.seconds, args.write_bounds)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
