"""The benchmark's four workloads: inputs made from a seed, and one round.

A *round* is the fixed set of scenario cells a workload runs; every run
of the benchmark repeats whole rounds, so the share of failed cells is
the same however long a run lasts.  Each ``run_round`` returns the
round's wall time (measured around the public entry points only) and
what the output checks need.  Each workload also says which checks of
``checks.py`` its outputs must pass and which untimed reference runs
back them; ``tracing.py`` adds the per-layer spans.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import checks
from repro.experiments import (
    FIGURE2_PROTOCOLS,
    ResultCache,
    RunLog,
    Scenario,
    ScenarioConfig,
    ScenarioMetrics,
    paper_config,
    read_runlog,
    run_many,
    run_scenario,
)

#: Simulated seconds per cell, shortened from Table 1's 200 s so that a
#: run holds several whole rounds and its median round is steady on a
#: shared machine (see README.md, "Workloads").
GRID_DURATION = 10.0
GRID_CLIENTS = (10, 20, 30, 40, 50, 60)
GRID_WORKERS = 2
LARGEN_DURATION = 50.0
LARGEN_CLIENTS = 500
#: The batch-versus-object oracle runs both engines untimed at this
#: shortened duration (the object engine needs ~13 s for 200 s at N=500).
LARGEN_ORACLE_DURATION = 10.0
MEANFIELD_DURATION = 50.0
MEANFIELD_FLUID_CLIENTS = 1_000_000
MEANFIELD_HYBRID_CLIENTS = 100_000
MEANFIELD_FOREGROUND = 10
#: The mean-field scaling reference: every flow sees the paper's N=40
#: share of bottleneck rate, buffer and RED thresholds.
MEANFIELD_REFERENCE_CLIENTS = 40
RPC_DURATION = 100.0
RPC_CLIENTS = 40

WORKLOADS = ("paper-grid", "largen-batch", "meanfield", "rpc-closed-loop")


def make_workload(name: str, seed: int, scratch: str) -> "Workload":
    """The workload ``name`` with inputs generated from ``seed``."""
    classes = {
        "paper-grid": PaperGrid,
        "largen-batch": LargeNBatch,
        "meanfield": MeanField,
        "rpc-closed-loop": RpcClosedLoop,
    }
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return classes[name](seed, scratch)


def meanfield_scaled(n_clients: int, **overrides: Any) -> ScenarioConfig:
    """Table 1 with bottleneck rate, buffer and RED thresholds scaled by
    ``n_clients / 40``, so each flow keeps the paper's N=40 share."""
    base = paper_config()
    factor = n_clients / MEANFIELD_REFERENCE_CLIENTS
    return base.with_(
        n_clients=n_clients,
        bottleneck_rate_bps=base.bottleneck_rate_bps * factor,
        buffer_capacity=int(round(base.buffer_capacity * factor)),
        red_min_th=base.red_min_th * factor,
        red_max_th=base.red_max_th * factor,
        **overrides,
    )


@dataclass
class Cell:
    """One scenario cell's outputs, as the checks see them."""

    config: ScenarioConfig
    result: Any = None  # ScenarioResult (in-process cells only)
    row: Optional[ScenarioMetrics] = None
    #: what the checks read off the scenario object before it is dropped
    kept: Dict[str, Any] = field(default_factory=dict)
    error: str = ""


@dataclass
class Round:
    """What one round measured and produced."""

    wall_s: float
    cells: List[Cell]
    flow_seconds: float
    extras: Dict[str, Any] = field(default_factory=dict)
    #: check failures per cell, filled in as soon as the round ends
    failures: List[List[str]] = field(default_factory=list)


class Workload:
    """Base: a fixed list of cells made from the seed."""

    name = ""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.configs = self.make_configs()
        self.flow_seconds = sum(c.n_clients * c.duration for c in self.configs)

    def make_configs(self) -> List[ScenarioConfig]:  # pragma: no cover
        raise NotImplementedError

    def setup(self) -> None:
        """What a user pays before the first simulated event (the
        ``setup_s`` probe runs this in a fresh process)."""
        for config in self.configs:
            config.validate()

    def run_round(self, run_cell: Callable[..., Any]) -> Round:  # pragma: no cover
        raise NotImplementedError

    def keep(self, scenario: Any) -> Dict[str, Any]:
        """What the checks need from a finished scenario object."""
        return {}

    def check(self, rnd: "Round") -> List[List[str]]:
        """Failures per cell of one round (empty: the cell passed)."""
        per_cell = [checks.check_cell(cell) for cell in rnd.cells]
        for failures, cell in zip(per_cell, rnd.cells):
            if cell.row is not None and not cell.row.failed:
                failures += self.check_row(cell)
        return per_cell

    def check_row(self, cell: Cell) -> List[str]:
        """This workload's own checks on one successful cell."""
        return []

    def reference_failures(self, rnd: "Round") -> Dict[int, List[str]]:
        """Untimed reference runs, once per benchmark run, by cell index."""
        return {}

    def _run_in_process(self, run_cell, build: Callable[[ScenarioConfig], Any]) -> Round:
        """Run every cell in this process; ``build`` makes the object
        whose ``run()`` the timed section calls.  Only the build and the
        run are timed."""
        cells: List[Cell] = []
        wall = 0.0
        for config in self.configs:
            cell = Cell(config)
            scenario = None
            start = time.perf_counter()
            try:
                scenario, cell.result = run_cell(config, build)
            except Exception as exc:  # noqa: BLE001 - a cell that raises fails
                cell.error = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            if cell.result is not None:
                cell.row = ScenarioMetrics.from_result(cell.result)
                cell.kept = self.keep(scenario)
            cells.append(cell)
        return Round(wall_s=wall, cells=cells, flow_seconds=self.flow_seconds)


def plain_run_cell(config: ScenarioConfig, build):
    """Build and run one cell (the untraced path)."""
    scenario = build(config)
    return scenario, scenario.run()


class PaperGrid(Workload):
    name = "paper-grid"

    def make_configs(self) -> List[ScenarioConfig]:
        base = paper_config(duration=GRID_DURATION, seed=self.seed)
        return [
            base.with_(protocol=protocol, queue=queue, n_clients=n)
            for protocol, queue in FIGURE2_PROTOCOLS.values()
            for n in GRID_CLIENTS
        ]

    def setup(self) -> None:
        """Validate the grid, then start the worker pool and run the
        first two cells cut to 1 ms simulated: pool start-up plus one
        dispatch per worker, with no physics to speak of."""
        super().setup()
        first = [c.with_(duration=1e-3) for c in self.configs[:GRID_WORKERS]]
        rows = run_many(first, processes=GRID_WORKERS)
        if any(row.failed for row in rows):
            raise RuntimeError("the pool start-up cells failed")

    def run_round(self, run_cell=None) -> Round:
        """Cold grid on a fresh cache directory and run log, then the
        same grid again on the warm cache."""
        workdir = tempfile.mkdtemp(prefix="grid-", dir=self.scratch)
        try:
            cache_dir = os.path.join(workdir, "cache")
            cold_log = os.path.join(workdir, "cold.jsonl")
            warm_log = os.path.join(workdir, "warm.jsonl")
            start = time.perf_counter()
            with RunLog(cold_log) as log:
                cold = run_many(
                    self.configs,
                    processes=GRID_WORKERS,
                    cache=ResultCache(cache_dir),
                    run_log=log,
                )
            cold_wall = time.perf_counter() - start
            start = time.perf_counter()
            with RunLog(warm_log) as log:
                warm = run_many(
                    self.configs,
                    processes=GRID_WORKERS,
                    cache=ResultCache(cache_dir),
                    run_log=log,
                )
            warm_wall = time.perf_counter() - start
            cold_events = read_runlog(cold_log)
            warm_events = read_runlog(warm_log)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        cells = [
            Cell(config, row=row, error=row.error)
            for config, row in zip(self.configs, cold)
        ]
        return Round(
            wall_s=cold_wall,
            cells=cells,
            flow_seconds=self.flow_seconds,
            extras={
                "warm_rows": warm,
                "warm_wall_s": warm_wall,
                "cold_events": cold_events,
                "warm_events": warm_events,
            },
        )

    def check(self, rnd: Round) -> List[List[str]]:
        per_cell = super().check(rnd)
        rows = [cell.row for cell in rnd.cells]
        if not any(row is None or row.failed for row in rows):
            grid = checks.judge_grid(
                rows, self.configs, rnd.extras["warm_rows"], rnd.extras["warm_events"]
            )
            for failures, more in zip(per_cell, grid):
                failures += more
        return per_cell

    def reference_failures(self, rnd: Round) -> Dict[int, List[str]]:
        """One pooled cell, drawn from the seed so that different seeds
        cover different cells, re-run in this process: the row must be
        identical, and the full result (bin counts, per-flow records)
        passes the every-cell checks the pooled row cannot carry."""
        index = random.Random(self.seed).randrange(len(self.configs))
        config = self.configs[index]
        result = run_scenario(config)
        return {
            index: checks.check_result(result, config) + checks.check_same_row(
                "pooled_equals_in_process",
                rnd.cells[index].row,
                ScenarioMetrics.from_result(result),
                config,
            )
        }


class LargeNBatch(Workload):
    name = "largen-batch"

    def make_configs(self) -> List[ScenarioConfig]:
        base = paper_config(
            protocol="reno",
            n_clients=LARGEN_CLIENTS,
            duration=LARGEN_DURATION,
            seed=self.seed,
            engine="batch",
            scheduler="wheel",
            forensics=True,
        )
        return [base.with_(queue="fifo"), base.with_(queue="red")]

    def setup(self) -> None:
        from repro.engine.batch import BatchScenario

        super().setup()
        for config in self.configs:
            BatchScenario(config)

    def run_round(self, run_cell=plain_run_cell) -> Round:
        from repro.engine.batch import BatchScenario

        return self._run_in_process(run_cell, BatchScenario)

    def reference_failures(self, rnd: Round) -> Dict[int, List[str]]:
        """Each cell, cut short, gives the identical row on the batch and
        on the object engine."""
        found = {}
        for index, config in enumerate(self.configs):
            short = config.with_(duration=LARGEN_ORACLE_DURATION)
            batch = ScenarioMetrics.from_result(run_scenario(short))
            obj = ScenarioMetrics.from_result(run_scenario(short.with_(engine="object")))
            found[index] = checks.check_same_row("batch_equals_object", batch, obj, short)
        return found


class MeanField(Workload):
    name = "meanfield"

    def make_configs(self) -> List[ScenarioConfig]:
        common = dict(duration=MEANFIELD_DURATION, seed=self.seed)
        return [
            meanfield_scaled(
                MEANFIELD_FLUID_CLIENTS,
                protocol="reno", queue="fifo", backend="fluid", **common,
            ),
            meanfield_scaled(
                MEANFIELD_FLUID_CLIENTS,
                protocol="vegas", queue="red", backend="fluid", **common,
            ),
            meanfield_scaled(
                MEANFIELD_HYBRID_CLIENTS,
                protocol="reno", queue="fifo", backend="hybrid",
                hybrid_foreground_flows=MEANFIELD_FOREGROUND, **common,
            ),
        ]

    def setup(self) -> None:
        from repro.core.hybrid_backend import HybridScenario

        super().setup()
        for config in self.configs:
            if config.backend == "hybrid":
                HybridScenario(config)

    def run_round(self, run_cell=plain_run_cell) -> Round:
        return self._run_in_process(run_cell, _FluidOrHybrid)

    def check_row(self, cell: Cell) -> List[str]:
        return checks.check_meanfield(cell.row, cell.config)


class _FluidOrHybrid:
    """Adapts ``run_scenario`` (the fluid backend has no scenario
    object) to the build-then-run shape of the in-process rounds."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config

    def run(self):
        return run_scenario(self.config)


class RpcClosedLoop(Workload):
    name = "rpc-closed-loop"

    def make_configs(self) -> List[ScenarioConfig]:
        return [
            paper_config(
                protocol="reno",
                queue="fifo",
                n_clients=RPC_CLIENTS,
                duration=RPC_DURATION,
                workload="rpc",
                seed=self.seed,
            )
        ]

    def setup(self) -> None:
        super().setup()
        for config in self.configs:
            Scenario(config)

    def keep(self, scenario: Any) -> Dict[str, Any]:
        return {
            "latencies": [
                latency
                for app in scenario.apps
                for latency in app.request_latencies
            ]
        }

    def run_round(self, run_cell=plain_run_cell) -> Round:
        return self._run_in_process(run_cell, Scenario)

    def check_row(self, cell: Cell) -> List[str]:
        return checks.check_rpc(cell.row, cell.kept.get("latencies", []), cell.config)
