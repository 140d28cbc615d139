"""Self-test of the output checks: each must pass on genuine outputs and
fail on a deliberately corrupted copy.

Small real cells (a few clients, a few simulated seconds) supply the
genuine outputs; every corruption below targets one named check, and
the test fails unless that check -- and every check in
``checks.CHECKS`` at least once -- reports the corruption.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

import numpy as np

import checks
import workloads
from repro.experiments import (
    FIGURE2_PROTOCOLS,
    Scenario,
    ScenarioMetrics,
    paper_config,
    run_scenario,
)

SEED = 7


def _row(result) -> ScenarioMetrics:
    return ScenarioMetrics.from_result(result)


def _with_flow(result, **changes):
    """A copy of ``result`` whose first per-flow record is changed."""
    flows = list(result.per_flow)
    flows[0] = dataclasses.replace(flows[0], **changes)
    return dataclasses.replace(result, per_flow=flows)


def _grid(rows, configs, warm_rows=None, warm_events=None) -> List[str]:
    warm_rows = rows if warm_rows is None else warm_rows
    if warm_events is None:
        warm_events = [{"event": "cache_hit"} for _ in configs]
    return [m for failures in checks.judge_grid(rows, configs, warm_rows, warm_events)
            for m in failures]


def cases() -> List[Tuple[str, str, Callable[[], List[str]]]]:
    """(check expected to fire, what was corrupted, thunk -> failures);
    the first entries are genuine outputs that must raise nothing."""
    base = paper_config(n_clients=6, duration=8.0, seed=SEED)
    reno = base.with_(protocol="reno")
    packet = run_scenario(reno)
    row = _row(packet)

    grid_configs = [
        base.with_(protocol=protocol, queue=queue)
        for protocol, queue in list(FIGURE2_PROTOCOLS.values())[:3]
    ]
    grid_rows = [_row(run_scenario(c)) for c in grid_configs]

    batch_config = reno.with_(n_clients=8, engine="batch", scheduler="wheel", forensics=True)
    batch_row = _row(run_scenario(batch_config))
    object_row = _row(run_scenario(batch_config.with_(engine="object")))

    fluid_config = workloads.meanfield_scaled(1000, protocol="reno", queue="fifo",
                                              backend="fluid", duration=8.0, seed=SEED)
    fluid = run_scenario(fluid_config)
    hybrid_config = workloads.meanfield_scaled(
        200, protocol="reno", queue="fifo", backend="hybrid",
        hybrid_foreground_flows=4, duration=8.0, seed=SEED,
    )
    hybrid = run_scenario(hybrid_config)

    rpc_config = base.with_(protocol="reno", workload="rpc", duration=10.0)
    scenario = Scenario(rpc_config)
    rpc = scenario.run()
    rpc_row = _row(rpc)
    latencies = [x for app in scenario.apps for x in app.request_latencies]
    floor = checks.rpc_latency_floor(rpc_config)
    capacity = reno.bottleneck_capacity_pps * reno.duration

    genuine = [
        ("", "genuine packet cell", lambda: checks.check_result(packet, reno)),
        ("", "genuine grid", lambda: _grid(grid_rows, grid_configs)),
        ("", "genuine batch/object pair",
         lambda: checks.check_same_row("batch_equals_object", batch_row, object_row,
                                       batch_config)),
        ("", "genuine fluid cell",
         lambda: checks.check_result(fluid, fluid_config)
         + checks.check_meanfield(_row(fluid), fluid_config)),
        ("", "genuine hybrid cell",
         lambda: checks.check_result(hybrid, hybrid_config)
         + checks.check_meanfield(_row(hybrid), hybrid_config)),
        ("", "genuine rpc cell",
         lambda: checks.check_result(rpc, rpc_config)
         + checks.check_rpc(rpc_row, latencies, rpc_config)),
    ]
    corrupted = [
        ("cell_not_failed", "error-tagged row",
         lambda: checks.check_row(ScenarioMetrics.failure(reno, "boom"), reno)),
        ("cov_recomputed", "c.o.v. perturbed by 1e-6",
         lambda: checks.check_result(
             dataclasses.replace(packet, cov=packet.cov * (1 + 1e-6)), reno)),
        ("cov_recomputed", "fluid c.o.v. without its sampling floor",
         lambda: checks.check_result(
             dataclasses.replace(
                 fluid, cov=float(np.std(fluid.bin_counts) / np.mean(fluid.bin_counts))),
             fluid_config)),
        ("per_flow_sum", "one flow's delivered count raised by one",
         lambda: checks.check_result(
             _with_flow(packet, delivered_unique=packet.per_flow[0].delivered_unique + 1),
             reno)),
        ("flow_delivered_le_generated", "a flow delivers more than it generated",
         lambda: checks.check_result(
             _with_flow(packet, delivered_unique=packet.per_flow[0].app_packets + 1),
             reno)),
        ("delivered_le_admitted", "delivered above arrivals minus drops",
         lambda: checks.check_row(dataclasses.replace(
             row, throughput_packets=row.gateway_arrivals - row.gateway_drops + 1), reno)),
        ("bins_le_arrivals", "one bin inflated past the gateway arrivals",
         lambda: checks.check_result(dataclasses.replace(
             packet, bin_counts=packet.bin_counts
             + np.eye(1, packet.bin_counts.size).ravel() * (packet.gateway_arrivals + 1)),
             reno)),
        ("throughput_le_capacity", "delivered above capacity x duration",
         lambda: checks.check_row(dataclasses.replace(
             row, throughput_packets=int(capacity) + 1,
             gateway_arrivals=int(capacity) + 1, gateway_drops=0), reno)),
        ("loss_in_range", "loss of 101 %",
         lambda: checks.check_row(dataclasses.replace(row, loss_percent=101.0), reno)),
        ("loss_in_range", "negative loss",
         lambda: checks.check_row(dataclasses.replace(row, loss_percent=-0.5), reno)),
        ("offered_cov_same_across_variants", "one variant's offered c.o.v. nudged",
         lambda: _grid([dataclasses.replace(grid_rows[0],
                                            offered_cov=grid_rows[0].offered_cov * 1.001)]
                       + grid_rows[1:], grid_configs)),
        ("offered_cov_band", "offered c.o.v. three times the analytic value",
         lambda: _grid([dataclasses.replace(r, offered_cov=3 * r.analytic_cov)
                        for r in grid_rows], grid_configs)),
        ("warm_all_cache_hits", "a warm pass that ran a cell",
         lambda: _grid(grid_rows, grid_configs,
                       warm_events=[{"event": "cache_hit"}] * (len(grid_configs) - 1)
                       + [{"event": "task_start"}])),
        ("warm_equals_cold", "a warm row that differs from its cold row",
         lambda: _grid(grid_rows, grid_configs,
                       warm_rows=[dataclasses.replace(grid_rows[0],
                                                      cov=grid_rows[0].cov + 1e-9)]
                       + grid_rows[1:])),
        ("pooled_equals_in_process", "pooled row with one more drop",
         lambda: checks.check_same_row(
             "pooled_equals_in_process",
             dataclasses.replace(row, gateway_drops=row.gateway_drops + 1), row, reno)),
        ("batch_equals_object", "batch row with one more timeout",
         lambda: checks.check_same_row(
             "batch_equals_object",
             dataclasses.replace(batch_row, timeouts=batch_row.timeouts + 1),
             object_row, batch_config)),
        ("utilization_in_unit_interval", "utilization above one",
         lambda: checks.check_meanfield(
             dataclasses.replace(_row(fluid), utilization=1.0 + 1e-9), fluid_config)),
        ("utilization_in_unit_interval", "zero utilization",
         lambda: checks.check_meanfield(
             dataclasses.replace(_row(fluid), utilization=0.0), fluid_config)),
        ("mean_queue_le_buffer", "mean queue above the buffer",
         lambda: checks.check_meanfield(
             dataclasses.replace(_row(fluid),
                                 mean_queue_length=fluid_config.buffer_capacity + 1.0),
             fluid_config)),
        ("hybrid_measured_flows", "hybrid row measuring K+1 flows",
         lambda: checks.check_meanfield(
             dataclasses.replace(_row(hybrid), measured_flows=5), hybrid_config)),
        ("rpc_latency_lower_bound", "an RPC latency below the propagation floor",
         lambda: checks.check_rpc(rpc_row, latencies + [floor * 0.99], rpc_config)),
        ("rpc_units_accounted", "completed plus failed above issued",
         lambda: checks.check_rpc(
             dataclasses.replace(rpc_row, app_units_issued=rpc_row.app_units_completed - 1),
             latencies[: rpc_row.app_units_completed - 1], rpc_config)),
        ("rpc_units_accounted", "more latencies than completed units",
         lambda: checks.check_rpc(rpc_row, latencies * 2 + [1.0], rpc_config)),
        ("rpc_no_failed_units", "one failed unit",
         lambda: checks.check_rpc(
             dataclasses.replace(rpc_row, app_units_failed=1,
                                 app_units_issued=rpc_row.app_units_issued + 1),
             latencies, rpc_config)),
    ]
    return genuine + corrupted


def metric_names_problems() -> List[str]:
    """The metric names and units the benchmark prints must be the ones
    ``BENCHMARK.json`` declares."""
    import json
    from pathlib import Path

    import run
    import tracing
    from workloads import Round

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    printed = {
        "end_to_end": run.end_to_end([Round(1.0, [], 1.0)], [1.0], 1.0),
        "per_layer": {
            **tracing.layer_metrics(tracing.Tracer(".")),
            **tracing.empty_runner_metrics(),
            **tracing.overhead_metrics(1.0, 1.0),
        },
    }
    problems = []
    for kind, metrics in printed.items():
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        actual = {name: unit for name, (_, unit) in metrics.items()}
        if declared != actual:
            problems.append(f"{kind} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(declared.items()) ^ set(actual.items()))}")
    return problems


def main() -> int:
    fired: Dict[str, int] = {name: 0 for name in checks.CHECKS}
    problems: List[str] = []
    for expected, what, thunk in cases():
        failures = thunk()
        names = {checks.check_name(f) for f in failures}
        if not expected:
            status = "ok" if not failures else "FALSE ALARM"
            if failures:
                problems.append(f"{what}: {failures}")
        elif expected in names:
            status = "caught"
            fired[expected] += 1
        else:
            status = "MISSED"
            problems.append(f"{what}: expected {expected}, got {sorted(names)}")
        print(f"{status:<12} {expected or '-':<34} {what}")
    problems += metric_names_problems()
    never = [name for name, count in fired.items() if not count]
    if never:
        problems.append(f"checks never exercised: {never}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"self-test: {len(problems)} problems; "
          f"{sum(1 for c in fired.values() if c)}/{len(fired)} checks caught a corruption")
    return 1 if problems else 0
