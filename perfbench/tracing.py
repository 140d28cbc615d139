"""Per-layer spans for the traced run, recorded from the benchmark's side.

``Tracer.install()`` wraps the public functions at each layer boundary
(class attributes and the module globals the program calls them through)
and ``uninstall()`` puts the originals back; nothing under ``src/`` is
edited.  Each wrapped call is a span named by layer.  A span's parent is
the wrapped call it ran inside, and every span of one scenario cell
shares that cell's id.  Spans are aggregated in memory per (cell, name,
parent) -- calls, total and self nanoseconds -- rather than kept one
record each, because a single N=500 cell makes millions of them; the
aggregates are written out when the run ends.  Self time is a span's
duration minus the time its wrapped children took.

Under the worker pool the wrappers are inherited by the forked workers;
each worker drops what it inherited from the parent at fork time and
rewrites its own aggregates to ``<spool>/worker-<pid>.json`` after every
cell, which the parent merges once the grid is done.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Wrapped boundaries: (span name, module, attribute path).  Subclasses
#: that override the method are wrapped too (see ``_targets``).
BOUNDARIES = (
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("sim.schedule", "repro.sim.engine", "Simulator.schedule"),
    ("sim.schedule", "repro.sim.engine", "Simulator.schedule_at"),
    ("net.queue.enqueue", "repro.net.queues", "PacketQueue.enqueue"),
    ("net.queue.dequeue", "repro.net.queues", "PacketQueue.dequeue"),
    ("net.link.send", "repro.net.link", "Interface.send"),
    ("net.node.receive", "repro.net.node", "Node.receive"),
    ("transport.ack", "repro.transport.tcp_base", "TcpSender.receive"),
    ("transport.send_much", "repro.transport.tcp_base", "TcpSender.send_much"),
    ("transport.sink", "repro.transport.sink", "TcpSink.receive"),
    ("transport.sink", "repro.transport.sink", "UdpSink.receive"),
    ("traffic.app_arrival", "repro.transport.tcp_base", "TcpSender.app_arrival"),
    ("traffic.app_arrival", "repro.transport.udp", "UdpSender.app_arrival"),
    ("engine.batch.transmit", "repro.engine.batch", "BatchScenario.transmit"),
    ("engine.batch.timer_arm", "repro.engine.batch", "BatchScenario.timer_arm"),
    ("engine.batch.mint", "repro.engine.batch", "BatchScenario.mint_data"),
    ("core.fluid.step", "repro.core.fluid_backend", "FluidSolver.step_once"),
    ("core.hybrid.interp", "repro.core.hybrid_backend", "FluidTrajectory.queue_at"),
    ("core.hybrid.interp", "repro.core.hybrid_backend", "FluidTrajectory.drop_prob_at"),
    ("core.cov", "repro.experiments.scenario", "coefficient_of_variation"),
    ("core.cov", "repro.net.monitor", "ArrivalMonitor.counts"),
    ("forensics.hook", "repro.forensics.probe", "ForensicsProbe._on_enqueue"),
    ("forensics.hook", "repro.forensics.probe", "ForensicsProbe._on_dequeue"),
    ("forensics.hook", "repro.forensics.probe", "ForensicsProbe._on_drop"),
    ("forensics.hook", "repro.forensics.probe", "ForensicsProbe.on_flow_state"),
    ("forensics.finalize", "repro.forensics.probe", "ForensicsProbe.finalize"),
    ("experiments.scenario.build", "repro.experiments.scenario", "Scenario.__init__"),
    ("experiments.scenario.build", "repro.engine.batch", "BatchScenario.__init__"),
    ("experiments.cache.get", "repro.experiments.cache", "ResultCache.get"),
    ("experiments.cache.put", "repro.experiments.cache", "ResultCache.put"),
    ("experiments.config.digest", "repro.experiments.config", "ScenarioConfig.config_digest"),
)

#: Hook registrations whose *hook argument* is wrapped: (span name,
#: module, attribute path).  The application layer's delivery hooks are
#: plain callables handed to the sinks.
HOOK_REGISTRATIONS = (
    ("apps.delivery_hook", "repro.transport.sink", "TcpSink.add_delivery_hook"),
    ("apps.delivery_hook", "repro.transport.sink", "UdpSink.add_delivery_hook"),
)

Key = Tuple[str, str]  # (name, parent)


class Tracer:
    """Span aggregates for one traced run; see the module docstring."""

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.cell = "-"
        # cell -> (name, parent) -> [calls, total_ns, self_ns]
        self.spans: Dict[str, Dict[Key, List[int]]] = defaultdict(dict)
        # cell -> counter -> value (outcomes read off each cell's result)
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: List[List[Any]] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._parent_pid = os.getpid()
        self._cells = 0
        #: Wrapper time a span leaks into its parent's self time per
        #: child call (measured by ``calibrate``, subtracted in ``totals``).
        self.leak_ns = 0.0
        self.active = False

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        import importlib

        for name, module_name, path in BOUNDARIES:
            module = importlib.import_module(module_name)
            for owner, attr in _targets(module, path):
                self._patch(owner, attr, self._wrap(name, _original(owner, attr)))
        for name, module_name, path in HOOK_REGISTRATIONS:
            module = importlib.import_module(module_name)
            for owner, attr in _targets(module, path):
                self._patch(
                    owner, attr, self._wrap_registration(name, _original(owner, attr))
                )
        self.calibrate()
        runner = importlib.import_module("repro.experiments.runner")
        self._patch(runner, "run_scenario", self._wrap_worker_cell(runner.run_scenario))
        self.active = True
        os.register_at_fork(after_in_child=self._after_fork)

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure how much of a wrapped child's cost lands in its
        parent's self time: a wrapped loop over wrapped no-ops, against
        the same loop over bare no-ops."""
        import statistics

        def noop():
            return None

        def loop(fn):
            for _ in range(calls):
                fn()

        inner = self._wrap("calibrate.inner", noop)
        outer = self._wrap("calibrate.outer", lambda: loop(inner))
        cell, self.cell = self.cell, "calibrate"
        leaks = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            loop(noop)
            bare = time.perf_counter_ns() - start
            self.spans["calibrate"].clear()
            outer()
            outer_self = self.spans["calibrate"][("calibrate.outer", "")][2]
            leaks.append(max(outer_self - bare, 0) / calls)
        del self.spans["calibrate"]
        self.cell = cell
        self.leak_ns = statistics.median(leaks)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.active = False

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, _original(owner, attr)))
        setattr(owner, attr, replacement)

    def _after_fork(self) -> None:
        if self.active:
            self.spans.clear()
            self.counters.clear()
            self._stack.clear()

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            if parent == name:  # a subclass calling its base: one span
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                table = spans[tracer.cell]
                record = table.get((name, parent))
                if record is None:
                    table[(name, parent)] = [1, elapsed, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[1]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        if name == "sim.run":
            return self._counting_run(traced)
        if name == "net.queue.enqueue":
            return self._counting_enqueue(traced)
        if name == "experiments.cache.put":
            return self._spilling_put(traced)
        return traced

    def _counting_run(self, traced: Callable) -> Callable:
        tracer = self

        def run(sim, *args, **kwargs):
            before = sim.events_executed
            try:
                return traced(sim, *args, **kwargs)
            finally:
                tracer.counters[tracer.cell]["sim.events"] += sim.events_executed - before

        return run

    def _counting_enqueue(self, traced: Callable) -> Callable:
        tracer = self

        def enqueue(*args, **kwargs):
            admitted = traced(*args, **kwargs)
            if not admitted:
                tracer.counters[tracer.cell]["net.queue.drops"] += 1
            return admitted

        return enqueue

    def _spilling_put(self, traced: Callable) -> Callable:
        """A pool worker stores each finished cell itself; right after
        that store its aggregates are complete for the cell, so spill."""
        tracer = self

        def put(*args, **kwargs):
            path = traced(*args, **kwargs)
            if os.getpid() != tracer._parent_pid:
                tracer.spill()
            return path

        return put

    def _wrap_registration(self, name: str, register: Callable) -> Callable:
        tracer = self

        def add_hook(sink, hook):
            return register(sink, tracer._wrap(name, hook))

        return add_hook

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def run_cell(self, config, build):
        """Build and run one in-process cell under its own span id."""
        self.begin_cell(config)
        scenario = build(config)
        result = scenario.run()
        self.note_result(result)
        return scenario, result

    def begin_cell(self, config) -> None:
        self._cells += 1
        self.cell = f"{config.label}/N={config.n_clients}/#{self._cells}"

    def note_result(self, result) -> None:
        """Outcome counters read off a finished cell's result."""
        counters = self.counters[self.cell]
        sent = sum(f.packets_sent for f in result.per_flow)
        delivered = sum(f.delivered_unique for f in result.per_flow)
        counters["transport.packets_sent"] += sent
        counters["transport.delivered_unique"] += delivered
        if result.app is not None:
            counters["apps.units_completed"] += result.app.units_completed
        if result.forensics is not None:
            counters["forensics.bursts"] += result.forensics.n_bursts

    def _wrap_worker_cell(self, run_scenario: Callable) -> Callable:
        tracer = self

        def run_scenario_traced(config):
            tracer.begin_cell(config)
            result = run_scenario(config)
            tracer.note_result(result)
            return result

        return run_scenario_traced

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def spill(self) -> None:
        """Rewrite this worker's aggregates to its spool file."""
        path = os.path.join(self.spool, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self._records(), handle)
        os.replace(path + ".tmp", path)

    def _records(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        for cell, table in self.spans.items():
            for (name, parent), (calls, total, self_ns) in table.items():
                records.append({
                    "cell": cell, "name": name, "parent": parent,
                    "calls": calls, "total_ns": total, "self_ns": self_ns,
                })
        for cell, counters in self.counters.items():
            for name, value in counters.items():
                records.append({"cell": cell, "counter": name, "value": value})
        return records

    def merge_spool(self) -> None:
        """Fold the workers' spool files into this (parent) tracer."""
        for entry in sorted(os.listdir(self.spool)):
            if not (entry.startswith("worker-") and entry.endswith(".json")):
                continue
            with open(os.path.join(self.spool, entry), encoding="utf-8") as handle:
                for record in json.load(handle):
                    self._absorb(record)
            os.unlink(os.path.join(self.spool, entry))

    def _absorb(self, record: Dict[str, Any]) -> None:
        cell = record["cell"]
        if "counter" in record:
            self.counters[cell][record["counter"]] += record["value"]
            return
        key = (record["name"], record["parent"])
        mine = self.spans[cell].setdefault(key, [0, 0, 0])
        mine[0] += record["calls"]
        mine[1] += record["total_ns"]
        mine[2] += record["self_ns"]

    def write(self, path: str) -> None:
        """Write every span aggregate and counter as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self._records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # Layer totals
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name over all cells: calls, total_ns, and self_ns net
        of the wrapper time its children leaked into it."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
        )
        for table in self.spans.values():
            for (name, parent), (calls, total, self_ns) in table.items():
                entry = out[name]
                entry["calls"] += calls
                entry["total_ns"] += total
                entry["self_ns"] += self_ns
                if parent:
                    out[parent]["self_ns"] -= calls * self.leak_ns
        for entry in out.values():
            entry["self_ns"] = max(entry["self_ns"], 0.0)
        return out

    def counter_totals(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for counters in self.counters.values():
            for name, value in counters.items():
                out[name] += value
        return out


def _original(owner: Any, attr: str) -> Any:
    """The attribute as stored on ``owner`` (a class's own ``__dict__``
    entry, so patching a subclass never captures an inherited one)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _targets(module: Any, path: str):
    """(owner, attribute) pairs to patch for ``path`` in ``module``: a
    module-level function, or a method on a class and on every subclass
    that overrides it."""
    parts = path.split(".")
    if len(parts) == 1:
        return [(module, parts[0])]
    cls_name, attr = parts
    root = getattr(module, cls_name)
    found = []
    pending = [root]
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            found.append((cls, attr))
        pending.extend(cls.__subclasses__())
    return found


def import_all_layers() -> None:
    """Import every module that defines a subclass of a wrapped class,
    so ``__subclasses__`` sees them before the wrappers go on."""
    import importlib

    for module in (
        "repro.net.red",
        "repro.net.fq",
        "repro.core.hybrid_backend",
        "repro.core.fluid_backend",
        "repro.engine.batch",
        "repro.transport.reno",
        "repro.transport.newreno",
        "repro.transport.sack",
        "repro.transport.tahoe",
        "repro.transport.vegas",
        "repro.transport.ecn",
        "repro.transport.udp",
    ):
        importlib.import_module(module)


def layer_metrics(tracer: "Tracer") -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics (value, unit) from one traced round."""
    spans = tracer.totals()
    counters = tracer.counter_totals()

    def calls(name: str) -> float:
        return float(spans[name]["calls"]) if name in spans else 0.0

    def self_per_call(name: str, scale: float) -> float:
        if name not in spans or not spans[name]["calls"]:
            return 0.0
        return spans[name]["self_ns"] / spans[name]["calls"] / scale

    events = counters.get("sim.events", 0.0)
    run_self = spans["sim.run"]["self_ns"] if "sim.run" in spans else 0.0
    sent = counters.get("transport.packets_sent", 0.0)
    return {
        "sim.events": (events, "count"),
        "sim.run_self_ns_per_event": (run_self / events if events else 0.0, "ns"),
        "sim.schedule_calls": (calls("sim.schedule"), "count"),
        "sim.schedule_ns": (self_per_call("sim.schedule", 1.0), "ns"),
        "net.queue.enqueue_calls": (calls("net.queue.enqueue"), "count"),
        "net.queue.enqueue_ns": (self_per_call("net.queue.enqueue", 1.0), "ns"),
        "net.queue.dequeue_ns": (self_per_call("net.queue.dequeue", 1.0), "ns"),
        "net.queue.drops": (counters.get("net.queue.drops", 0.0), "count"),
        "net.link.send_calls": (calls("net.link.send"), "count"),
        "net.link.send_ns": (self_per_call("net.link.send", 1.0), "ns"),
        "net.node.receive_calls": (calls("net.node.receive"), "count"),
        "net.node.receive_ns": (self_per_call("net.node.receive", 1.0), "ns"),
        "transport.ack_calls": (calls("transport.ack"), "count"),
        "transport.ack_ns": (self_per_call("transport.ack", 1.0), "ns"),
        "transport.send_much_ns": (self_per_call("transport.send_much", 1.0), "ns"),
        "transport.sink_ns": (self_per_call("transport.sink", 1.0), "ns"),
        "transport.useful_ratio": (
            counters.get("transport.delivered_unique", 0.0) / sent if sent else 0.0,
            "ratio",
        ),
        "traffic.app_arrivals": (calls("traffic.app_arrival"), "count"),
        "traffic.app_arrival_ns": (self_per_call("traffic.app_arrival", 1.0), "ns"),
        "apps.units_completed": (counters.get("apps.units_completed", 0.0), "count"),
        "apps.delivery_hook_ns": (self_per_call("apps.delivery_hook", 1.0), "ns"),
        "engine.batch.transmit_calls": (calls("engine.batch.transmit"), "count"),
        "engine.batch.transmit_ns": (self_per_call("engine.batch.transmit", 1.0), "ns"),
        "engine.batch.timer_arm_calls": (calls("engine.batch.timer_arm"), "count"),
        "engine.batch.timer_arm_ns": (self_per_call("engine.batch.timer_arm", 1.0), "ns"),
        "engine.batch.mint_calls": (calls("engine.batch.mint"), "count"),
        "core.fluid.steps": (calls("core.fluid.step"), "count"),
        "core.fluid.step_us": (self_per_call("core.fluid.step", 1e3), "us"),
        "core.hybrid.interp_calls": (calls("core.hybrid.interp"), "count"),
        "core.hybrid.interp_ns": (self_per_call("core.hybrid.interp", 1.0), "ns"),
        "core.cov.us": (self_per_call("core.cov", 1e3), "us"),
        "forensics.hook_ns": (self_per_call("forensics.hook", 1.0), "ns"),
        "forensics.finalize_ms": (self_per_call("forensics.finalize", 1e6), "ms"),
        "forensics.bursts": (counters.get("forensics.bursts", 0.0), "count"),
        "experiments.scenario.build_ms": (
            self_per_call("experiments.scenario.build", 1e6), "ms",
        ),
        "experiments.cache.get_us": (self_per_call("experiments.cache.get", 1e3), "us"),
        "experiments.cache.put_us": (self_per_call("experiments.cache.put", 1e3), "us"),
        "experiments.config.digest_us": (
            self_per_call("experiments.config.digest", 1e3), "us",
        ),
    }


def runner_metrics(cold_events: List[Dict[str, Any]], warm_events: List[Dict[str, Any]],
                   warm_wall_s: float) -> Dict[str, Tuple[float, str]]:
    """Runner and cache metrics read from a grid's ``RunLog`` events."""
    end = next((e for e in cold_events if e.get("event") == "sweep_end"), {})
    start = next((e for e in cold_events if e.get("event") == "sweep_start"), {})
    busy = float(end.get("busy", 0.0))
    makespan = float(end.get("makespan", 0.0))
    workers = int(start.get("workers", 0) or 0)
    started: Dict[Any, float] = {}
    overheads: List[float] = []
    for event in cold_events:
        kind = event.get("event")
        if kind == "task_start":
            started[(event["index"], event.get("attempt", 0))] = event["t"]
        elif kind == "task_done":
            began = started.get((event["index"], event.get("attempt", 0)))
            if began is not None:
                overheads.append(event["t"] - began - event["elapsed"])
    hits = sum(1 for e in warm_events if e.get("event") == "cache_hit")
    return {
        "experiments.runner.busy_s": (busy, "s"),
        "experiments.runner.idle_s": (max(makespan * workers - busy, 0.0), "s"),
        "experiments.runner.dispatch_ms_per_cell": (
            1e3 * sum(overheads) / len(overheads) if overheads else 0.0, "ms",
        ),
        "experiments.runner.retries": (float(end.get("retried", 0)), "count"),
        "experiments.cache.hits": (float(hits), "count"),
        "experiments.cache.warm_grid_ms": (1e3 * warm_wall_s, "ms"),
    }


def empty_runner_metrics() -> Dict[str, Tuple[float, str]]:
    """The runner metrics of a workload that runs no sweep."""
    return runner_metrics([], [], 0.0)


def overhead_metrics(plain_wall_s: float, traced_wall_s: float) -> Dict[str, Tuple[float, str]]:
    """What tracing cost: traced minus untraced wall time of one round."""
    overhead = traced_wall_s - plain_wall_s
    return {
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_pct": (100.0 * overhead / plain_wall_s, "%"),
    }
