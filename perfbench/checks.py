"""Output checks shared by every workload.

Every check is a plain function that returns a list of failure strings
(empty when the check holds).  Checks recompute what they can with numpy
from the raw outputs, or test a property the method must have; none of
them compares against stored figures, rests on one seed, or encodes a
paper verdict (such as one protocol being burstier than another).

``CHECKS`` names every check; the self-test (``run.py --self-test``)
feeds each one a deliberately corrupted output and requires it to fail.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

#: Standard scores for the analytic offered-c.o.v. band.  With ~50 bins
#: the sample c.o.v. of iid Poisson counts has a relative standard error
#: near 10 %, so five of them is a ~50 % band that a correct sampler
#: leaves with probability ~6e-7 per cell.
OFFERED_COV_Z = 5.0

#: Float slack for quantities the fluid backend rounds to whole packets.
FLUID_ROUNDING = 1.0

CHECKS = (
    # every cell
    "cell_not_failed",
    "cov_recomputed",
    "per_flow_sum",
    "flow_delivered_le_generated",
    "delivered_le_admitted",
    "bins_le_arrivals",
    "throughput_le_capacity",
    "loss_in_range",
    # paper-grid
    "offered_cov_same_across_variants",
    "offered_cov_band",
    "warm_all_cache_hits",
    "warm_equals_cold",
    "pooled_equals_in_process",
    # largen-batch
    "batch_equals_object",
    # meanfield
    "utilization_in_unit_interval",
    "mean_queue_le_buffer",
    "hybrid_measured_flows",
    # rpc-closed-loop
    "rpc_latency_lower_bound",
    "rpc_units_accounted",
    "rpc_no_failed_units",
)


def _fail(name: str, cell: str, message: str) -> str:
    return f"{name} [{cell}]: {message}"


def cell_label(config) -> str:
    return f"{config.label} N={config.n_clients} seed={config.seed}"


# ----------------------------------------------------------------------
# Every cell
# ----------------------------------------------------------------------
def recompute_cov(counts: np.ndarray, backend: str) -> float:
    """std/mean of the bin counts, by numpy.  The fluid backend adds the
    Poisson sampling floor (variance += mean) to its deterministic rate
    bins, as its docstring states; the packet and hybrid backends report
    the plain sample c.o.v."""
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        return float("nan")
    mean = float(np.mean(counts))
    if mean == 0.0:
        return 0.0
    variance = float(np.var(counts))
    if backend == "fluid":
        variance += mean
    return math.sqrt(variance) / mean


def check_row(row, config) -> List[str]:
    """Checks a flat ``ScenarioMetrics`` row supports on its own."""
    label = cell_label(config)
    if row is None or row.failed:
        error = row.error if row is not None else "no row"
        return [_fail("cell_not_failed", label, error)]
    slack = FLUID_ROUNDING if config.backend == "fluid" else 0.0
    failures = []
    admitted = row.gateway_arrivals - row.gateway_drops
    if row.throughput_packets > admitted + slack:
        failures.append(_fail(
            "delivered_le_admitted", label,
            f"delivered {row.throughput_packets} > arrivals-drops {admitted}",
        ))
    capacity = config.bottleneck_capacity_pps * config.duration
    if row.throughput_packets > capacity + slack:
        failures.append(_fail(
            "throughput_le_capacity", label,
            f"delivered {row.throughput_packets} > capacity {capacity:.1f}",
        ))
    if not 0.0 <= row.loss_percent <= 100.0:
        failures.append(_fail(
            "loss_in_range", label, f"loss {row.loss_percent}% outside [0, 100]",
        ))
    return failures


def check_result(result, config) -> List[str]:
    """Checks on a full ``ScenarioResult`` (bin counts and per-flow
    records), plus every row check."""
    from repro.experiments import ScenarioMetrics

    label = cell_label(config)
    failures = check_row(ScenarioMetrics.from_result(result), config)
    expected = recompute_cov(result.bin_counts, config.backend)
    if not math.isclose(result.cov, expected, rel_tol=1e-9, abs_tol=1e-12):
        failures.append(_fail(
            "cov_recomputed", label,
            f"reported {result.cov!r}, numpy gives {expected!r}",
        ))
    if result.per_flow:
        delivered = sum(f.delivered_unique for f in result.per_flow)
        if delivered != result.throughput_packets:
            failures.append(_fail(
                "per_flow_sum", label,
                f"per-flow sum {delivered} != throughput {result.throughput_packets}",
            ))
        over = [
            f.flow_id for f in result.per_flow if f.delivered_unique > f.app_packets
        ]
        if over:
            failures.append(_fail(
                "flow_delivered_le_generated", label,
                f"flows {over[:5]} delivered more than they generated",
            ))
    slack = FLUID_ROUNDING if config.backend == "fluid" else 0.0
    binned = float(np.sum(result.bin_counts))
    if binned > result.gateway_arrivals + slack:
        failures.append(_fail(
            "bins_le_arrivals", label,
            f"binned {binned} > gateway arrivals {result.gateway_arrivals}",
        ))
    return failures


def check_cell(cell) -> List[str]:
    """Every-cell checks on whatever the cell produced."""
    if cell.error or (cell.row is not None and cell.row.failed):
        error = cell.error or cell.row.error
        return [_fail("cell_not_failed", cell_label(cell.config), error)]
    if cell.result is not None:
        return check_result(cell.result, cell.config)
    return check_row(cell.row, cell.config)


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------
def offered_cov_band(config) -> tuple:
    """The band the offered c.o.v. must fall in.

    Binned counts of N merged Poisson sources are iid Poisson(N T / gap),
    whose c.o.v. is the analytic 1/sqrt(N T lambda).  Over k bins the
    population-std estimate is biased by sqrt((k-1)/k) and has relative
    standard error sqrt(1/(2k) + cov^2/k); the band is that centre plus
    or minus ``OFFERED_COV_Z`` standard errors.  Only k, N, T and lambda
    enter -- nothing fitted to measured values.
    """
    width = config.effective_bin_width
    k = int((config.duration - config.warmup) / width)
    analytic = 1.0 / math.sqrt(config.n_clients * config.per_client_rate * width)
    centre = analytic * math.sqrt((k - 1) / k)
    rel_se = math.sqrt(1.0 / (2 * k) + analytic ** 2 / k)
    half = OFFERED_COV_Z * rel_se * analytic
    return centre - half, centre + half


def judge_grid(rows: Sequence, configs: Sequence, warm_rows: Sequence,
               warm_events: Sequence) -> List[List[str]]:
    """The paper-grid checks, as failures per cell.

    * Open-loop sources never see the transport, so every variant at one
      N offers the identical arrival process (identical offered c.o.v.).
    * The offered c.o.v. lies in :func:`offered_cov_band`.
    * The warm pass is served wholly from the cache (its run log shows a
      hit per cell and no cell started) and returns the cold rows.
    """
    per_cell: List[List[str]] = [[] for _ in rows]
    by_n: Dict[int, List[int]] = {}
    for i, config in enumerate(configs):
        by_n.setdefault(config.n_clients, []).append(i)
    for n, members in sorted(by_n.items()):
        values = sorted({rows[i].offered_cov for i in members})
        if len(values) != 1:
            for i in members:
                per_cell[i].append(_fail(
                    "offered_cov_same_across_variants", f"N={n}",
                    f"{len(values)} distinct offered c.o.v. values: {values}",
                ))
    for i, (row, config) in enumerate(zip(rows, configs)):
        low, high = offered_cov_band(config)
        if not low <= row.offered_cov <= high:
            per_cell[i].append(_fail(
                "offered_cov_band", cell_label(config),
                f"offered c.o.v. {row.offered_cov:.4f} outside [{low:.4f}, {high:.4f}]",
            ))
        if row != warm_rows[i]:
            per_cell[i].append(_fail(
                "warm_equals_cold", cell_label(config),
                f"warm row differs in {differing_fields(warm_rows[i], row)[:6]}",
            ))
    hits = sum(1 for e in warm_events if e.get("event") == "cache_hit")
    started = sum(1 for e in warm_events if e.get("event") == "task_start")
    if hits != len(configs) or started:
        failure = _fail(
            "warm_all_cache_hits", "grid",
            f"{hits} cache hits and {started} cells run, of {len(configs)}",
        )
        for failures in per_cell:
            failures.append(failure)
    return per_cell


def differing_fields(row, other) -> List[str]:
    """The simulated-outcome fields on which two rows differ (the same
    comparison ``ScenarioMetrics.__eq__`` makes, named)."""
    mine, theirs = row.as_dict(), other.as_dict()
    skip = type(row)._WALL_CLOCK_FIELDS
    return [
        name for name, value in mine.items()
        if name not in skip
        and value != theirs.get(name)
        and not (value != value and theirs.get(name) != theirs.get(name))
    ]


def check_same_row(check: str, row, reference, config) -> List[str]:
    """``row`` equals ``reference`` in every simulated outcome: a pooled
    row against the same cell run in-process (``pooled_equals_in_process``)
    or a batch-engine row against the object engine's
    (``batch_equals_object``).  Wall-clock telemetry is not compared."""
    if row != reference:
        return [_fail(
            check, cell_label(config),
            f"rows differ in {differing_fields(row, reference)[:6]}",
        )]
    return []


# ----------------------------------------------------------------------
# meanfield
# ----------------------------------------------------------------------
def check_meanfield(row, config) -> List[str]:
    label = cell_label(config)
    failures = []
    if not 0.0 < row.utilization <= 1.0:
        failures.append(_fail(
            "utilization_in_unit_interval", label,
            f"utilization {row.utilization} outside (0, 1]",
        ))
    if not row.mean_queue_length <= config.buffer_capacity:
        failures.append(_fail(
            "mean_queue_le_buffer", label,
            f"mean queue {row.mean_queue_length} > buffer {config.buffer_capacity}",
        ))
    if config.backend == "hybrid" and row.measured_flows != config.hybrid_foreground_flows:
        failures.append(_fail(
            "hybrid_measured_flows", label,
            f"measured_flows {row.measured_flows} != K {config.hybrid_foreground_flows}",
        ))
    return failures


# ----------------------------------------------------------------------
# rpc-closed-loop
# ----------------------------------------------------------------------
def rpc_latency_floor(config) -> float:
    """No request can complete before its packets cross the forward path
    (access plus bottleneck propagation) and the modeled response comes
    back."""
    forward = config.client_delay + config.bottleneck_delay
    return forward + config.reverse_path_delay(config.rpc_response_packets)


def check_rpc(row, latencies: Sequence[float], config) -> List[str]:
    label = cell_label(config)
    failures = []
    floor = rpc_latency_floor(config)
    fastest = min(latencies) if latencies else float("inf")
    if fastest < floor - 1e-9:
        failures.append(_fail(
            "rpc_latency_lower_bound", label,
            f"a request completed in {fastest:.6f} s < floor {floor:.6f} s",
        ))
    # A unit completed near the end may still await its response, so
    # latencies can only undercount completions.
    if not 0 < len(latencies) <= row.app_units_completed:
        failures.append(_fail(
            "rpc_units_accounted", label,
            f"{len(latencies)} latencies for {row.app_units_completed} completed units",
        ))
    if row.app_units_completed + row.app_units_failed > row.app_units_issued:
        failures.append(_fail(
            "rpc_units_accounted", label,
            f"completed {row.app_units_completed} + failed {row.app_units_failed}"
            f" > issued {row.app_units_issued}",
        ))
    if row.app_units_failed != 0:
        failures.append(_fail(
            "rpc_no_failed_units", label, f"{row.app_units_failed} units failed",
        ))
    return failures


def check_name(failure: str) -> str:
    """The check a failure string came from."""
    return failure.split(" ", 1)[0]
