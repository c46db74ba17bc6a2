"""Per-layer metrics of a traced round, computed from its spans.

Only spans inside a timed phase (``phase.*``) count, so set-up and output
checks do not leak into the layer split. Every workload reports every
metric in :data:`PER_LAYER`; a layer the workload does not exercise reads
0 (that is the prediction for it, not a missing value).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import tracer as tracing

APPS = (
    "spmv-csr", "spmv-coo", "spmv-csc", "spadd", "spmspm", "conv",
    "pagerank-pull", "pagerank-edge", "bfs", "sssp", "bicgstab",
)
#: Timed phases of each workload, in order.
PHASES = {
    "sweep-cold": ("sweep", "report", "serial_reference"),
    "dse-search": ("exhaustive", "search", "kilovariant"),
    "serve-warm": ("warm_reads", "cold_misses"),
}

#: Span names whose self time is reported as ``self_s.<name>``; together
#: they split the traced host time of all processes of a round.
SELF_LAYERS = tuple(dict.fromkeys(
    [name for _, _, name in tracing.MAIN_TARGETS + tracing.WORKER_TARGETS + tracing.SERVER_TARGETS]
    + ["benchmark"]
))

#: Paper points behind ``paper_log_err``: Tables 9, 10, 12 and 13.
FIDELITY_POINTS = (
    "table9.ideal", "table9.capstan-hash", "table9.capstan-linear", "table9.weak-hash",
    "table9.weak-linear", "table9.arbitrated-hash", "table9.arbitrated-linear",
    "table10.unordered", "table10.address-ordered", "table10.fully-ordered",
    "table12.capstan-ideal", "table12.capstan-hbm2e", "table12.capstan-hbm2",
    "table12.capstan-ddr4", "table12.plasticine-hbm2e", "table12.gpu-v100",
    "table12.cpu-xeon",
    "table13.eie", "table13.scnn", "table13.graphicionado-pagerank",
    "table13.graphicionado-bfs", "table13.graphicionado-sssp", "table13.matraptor",
)

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("runtime.import_s", "s"),
    ("trace.overhead_frac", "frac"),
    # untraced phase times and request latency percentiles
    *((f"phase.{phase}_s", "s") for phases in PHASES.values() for phase in phases),
    ("runtime.serve.req_p50_ms", "ms"),
    ("runtime.serve.req_p99_ms", "ms"),
    # sweep-cold
    ("runtime.executors.spawns", "count"),
    ("runtime.executors.waves", "count"),
    ("runtime.executors.run_units_s", "s"),
    ("runtime.executors.slot_idle_frac", "frac"),
    ("runtime.jobs.bookkeeping_s", "s"),
    ("apps.compute_s", "s"),
    *((f"apps.{app}.compute_s", "s") for app in APPS),
    ("apps.max_unit_s", "s"),
    ("runtime.cache.profile_entries", "count"),
    ("eval.collect_s", "s"),
    ("eval.report_s", "s"),
    ("apps.timing.report_costing_s", "s"),
    # dse-search
    *((f"core.spmu.{metric}.{phase}", unit) for metric, unit in (
        ("sim_s", "s"), ("sim_calls", "count"), ("cold_configs", "count"), ("s_per_config", "s"))
      for phase in PHASES["dse-search"]),
    ("apps.timing.costing_self_s", "s"),
    ("core.energy.energy_s", "s"),
    ("core.area.area_s", "s"),
    ("runtime.sweep.expand_s", "s"),
    ("runtime.dse.pareto_s", "s"),
    ("runtime.search.rank_s", "s"),
    ("runtime.search.hypervolume_s", "s"),
    ("runtime.search.store_s", "s"),
    ("runtime.search.evaluations", "count"),
    ("runtime.search.eval_fraction", "frac"),
    ("runtime.search.hypervolume_ratio", "ratio"),
    ("runtime.search.kilovariant_evaluations", "count"),
    # serve-warm
    ("runtime.serve.startup_s", "s"),
    ("runtime.serve.handle_p50_ms", "ms"),
    ("runtime.serve.handle_p99_ms", "ms"),
    ("runtime.serve.transport_p50_ms", "ms"),
    ("runtime.cache.load_p50_ms", "ms"),
    ("runtime.jobs.submit_p50_ms", "ms"),
    ("runtime.jobs.submit_p99_ms", "ms"),
    ("runtime.serve.status.200", "count"),
    ("runtime.serve.status.202", "count"),
    ("runtime.serve.status.4xx", "count"),
    ("runtime.serve.status.5xx", "count"),
    ("runtime.serve.status.refused", "count"),
    ("runtime.serve.warm_hit_ratio", "ratio"),
    # every workload
    *((f"self_s.{layer}", "s") for layer in SELF_LAYERS),
    *((f"fidelity.{point}", "ln-ratio") for point in FIDELITY_POINTS),
)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _phase_spans(spans: List[List[Any]]) -> Dict[int, str]:
    """Span index -> enclosing phase name, for spans inside a phase."""
    inside: Dict[int, str] = {}
    for index in range(len(spans)):
        phase = tracing.enclosing(spans, index, "phase.")
        if phase is not None:
            inside[index] = phase[len("phase."):]
    return inside


def _inclusive(spans: List[List[Any]], inside: Dict[int, str], name: str,
               phase: Optional[str] = None) -> Tuple[int, float]:
    """(calls, time) of outermost ``name`` spans in a phase (any if ``None``)."""
    calls, total = 0, 0.0
    for index, span in enumerate(spans):
        if span[0] != name or span[2] is None or index not in inside \
                or phase not in (None, inside[index]):
            continue
        if tracing.enclosing(spans, index, name) != name:
            calls += 1
            total += span[2] - span[1]
    return calls, total


def main_self_times(round_: Any) -> Tuple[List[List[Any]], Dict[int, str], Dict[str, float]]:
    """Spans of the round's own process and self time per layer in phases.

    The phase spans' own self time is the benchmark's code, ``benchmark``.
    """
    spans = round_.tracer.spans
    inside = _phase_spans(spans)
    phases = {i for i, span in enumerate(spans) if span[0].startswith("phase.")}
    self_s: Dict[str, float] = {}
    for name, seconds in tracing.self_times(spans, inside.keys() | phases).items():
        layer = "benchmark" if name.startswith("phase.") else name
        self_s[layer] = self_s.get(layer, 0.0) + seconds
    return spans, inside, self_s


def _add_self(layers: Dict[str, float], self_s: Dict[str, float]) -> None:
    for layer, value in self_s.items():
        key = f"self_s.{layer}"
        layers[key] = layers.get(key, 0.0) + value


def sweep_layers(round_: Any, executor: Any, units: List[Any], entries: int) -> Dict[str, float]:
    spans, inside, self_s = main_self_times(round_)
    layers: Dict[str, float] = {}
    waves, run_units_s = _inclusive(spans, inside, "runtime.executors.run_units")
    _, run_job_s = _inclusive(spans, inside, "runtime.jobs.run_job")
    durations = [u.duration_s or 0.0 for u in units]
    compute = sum(durations)
    layers["runtime.executors.spawns"] = sum(
        int(slot["launched"]) for slot in executor.health_report().values())
    layers["runtime.executors.waves"] = waves
    layers["runtime.executors.run_units_s"] = run_units_s
    layers["runtime.executors.slot_idle_frac"] = (
        1.0 - compute / (executor.workers * run_units_s) if run_units_s else 0.0)
    layers["runtime.jobs.bookkeeping_s"] = run_job_s - run_units_s
    layers["apps.compute_s"] = compute
    for unit, duration in zip(units, durations):
        key = f"apps.{unit.payload['app']}.compute_s"
        layers[key] = layers.get(key, 0.0) + duration
    layers["apps.max_unit_s"] = max(durations, default=0.0)
    layers["runtime.cache.profile_entries"] = entries
    layers["eval.collect_s"] = _inclusive(spans, inside, "eval.collect", "report")[1]
    layers["eval.report_s"] = _inclusive(spans, inside, "eval.report", "report")[1]
    layers["apps.timing.report_costing_s"] = _inclusive(
        spans, inside, "apps.timing.costing", "report")[1]
    _add_self(layers, self_s)
    for path in sorted(Path(round_.trace_dir).glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "profile":
                _add_self(layers, record["self"])
    return layers


def dse_layers(round_: Any, cold: Dict[str, int]) -> Dict[str, float]:
    spans, inside, self_s = main_self_times(round_)
    layers: Dict[str, float] = {}
    for phase in PHASES["dse-search"]:
        calls, sim_s = _inclusive(spans, inside, "core.spmu.sim", phase)
        layers[f"core.spmu.sim_s.{phase}"] = sim_s
        layers[f"core.spmu.sim_calls.{phase}"] = calls
        layers[f"core.spmu.cold_configs.{phase}"] = cold[phase]
        layers[f"core.spmu.s_per_config.{phase}"] = sim_s / cold[phase] if cold[phase] else 0.0
    layers["apps.timing.costing_self_s"] = self_s.get("apps.timing.costing", 0.0)
    for metric, name in (
        ("core.energy.energy_s", "core.energy"),
        ("core.area.area_s", "core.area"),
        ("runtime.sweep.expand_s", "runtime.sweep.expand"),
        ("runtime.dse.pareto_s", "runtime.dse.pareto"),
        ("runtime.search.rank_s", "runtime.search.rank"),
        ("runtime.search.hypervolume_s", "runtime.search.hypervolume"),
        ("runtime.search.store_s", "runtime.search.store"),
    ):
        layers[metric] = _inclusive(spans, inside, name)[1]
    info = round_.info
    layers["runtime.search.evaluations"] = info["evaluations"]
    layers["runtime.search.eval_fraction"] = info["eval_fraction"]
    layers["runtime.search.hypervolume_ratio"] = info["hypervolume_ratio"]
    layers["runtime.search.kilovariant_evaluations"] = info["kilovariant_evaluations"]
    _add_self(layers, self_s)
    return layers


def serve_layers(round_: Any, statuses: Dict[int, int], startup_s: float) -> Dict[str, float]:
    layers: Dict[str, float] = {"runtime.serve.startup_s": startup_s}
    trace = json.loads((Path(round_.trace_dir) / "server.json").read_text())
    durations = trace["durations_s"]
    handle_ms = [1000.0 * d for d in durations.get("runtime.serve.handle", [])]
    load_ms = [1000.0 * d for d in durations.get("runtime.cache.load", [])]
    submit_ms = [1000.0 * d for d in durations.get("runtime.jobs.submit", [])]
    layers["runtime.serve.handle_p50_ms"] = percentile(handle_ms, 0.50)
    layers["runtime.serve.handle_p99_ms"] = percentile(handle_ms, 0.99)
    layers["runtime.serve.transport_p50_ms"] = (
        percentile(round_.latencies_ms, 0.50) - layers["runtime.serve.handle_p50_ms"])
    layers["runtime.cache.load_p50_ms"] = percentile(load_ms, 0.50)
    layers["runtime.jobs.submit_p50_ms"] = percentile(submit_ms, 0.50)
    layers["runtime.jobs.submit_p99_ms"] = percentile(submit_ms, 0.99)
    layers["runtime.serve.status.200"] = statuses.get(200, 0)
    layers["runtime.serve.status.202"] = statuses.get(202, 0)
    layers["runtime.serve.status.4xx"] = sum(n for s, n in statuses.items() if 400 <= s < 500)
    layers["runtime.serve.status.5xx"] = sum(n for s, n in statuses.items() if s >= 500)
    layers["runtime.serve.status.refused"] = statuses.get(0, 0)
    warm, cold = statuses.get(200, 0), statuses.get(202, 0)
    layers["runtime.serve.warm_hit_ratio"] = warm / (warm + cold) if warm + cold else 0.0
    _add_self(layers, trace["self"])
    return layers

