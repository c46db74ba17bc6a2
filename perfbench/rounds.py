"""One benchmark round: set up, run a workload's timed phases, check outputs.

    python3 perfbench/rounds.py --workload NAME --seed N --out FILE
        [--spawned-at T] [--trace] [--smoke] [--requests N] [--first]
        [--setup-only]

``run.py`` starts every round in a fresh interpreter with the ``REPRO_*``
store variables pointing at empty per-round directories, so in-process
memos start empty and nothing outside the round directory is written.
The round writes one JSON document to ``--out``:

* ``setup_s`` -- from ``--spawned-at`` (the parent's monotonic clock just
  before it started this interpreter) to the end of set-up;
* ``walls`` and ``phases`` -- host time of the timed part (one per pass on
  serve-warm, else one) and of each phase;
* ``rates`` -- operations per second (one per round, or one per window
  of requests on serve-warm);
* ``latencies_ms`` -- client latency of each serve-warm request;
* ``attempted``/``failed``/``checks`` -- output checks;
* ``fidelity`` -- measured and paper value of each table point (``--first``);
* ``layers`` -- per-layer measurements (``--trace``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: Worker count of the sweep's subprocess executor (the 2-core target box).
SWEEP_WORKERS = 2
SWEEP_SCALE = 1.0 / 4.0
DSE_SCALE = 1.0 / 16.0
SERVE_SCALE_TEXT = "1/16"
SMOKE_SCALE = 1.0 / 512.0
SMOKE_SCALE_TEXT = "1/512"
SMOKE_APPS = ("spmv-csr", "bfs")

#: Fraction of serve requests that are cold misses at a fresh scale.
MISS_FRACTION = 0.10
#: Warm bodies re-read and compared against the cache after the load.
SAMPLED_BODIES = 8
#: A serve-warm round splits its requests into this many timed passes.
PASSES = 4
#: Requests per throughput window of serve-warm.
RATE_WINDOW = 200


class Round:
    """Timing, counting and checking state of one round."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.seed = args.seed
        self.smoke = args.smoke
        self.tracer = None
        self.setup_s: Optional[float] = None
        self.walls: List[float] = []
        self.phases: Dict[str, float] = {}
        self.rates: List[float] = []
        self.latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.fidelity: Optional[Dict[str, Tuple[float, float]]] = None
        self.layers: Dict[str, float] = {}
        self.info: Dict[str, Any] = {}
        self.trace_dir = Path(os.environ["REPRO_RUN_DB"]).parent / "trace"
        if args.trace:
            import tracer as tracing

            self.trace_dir.mkdir(exist_ok=True)
            self.tracer = tracing.Tracer()

    def setup_done(self) -> None:
        self.setup_s = time.monotonic() - self.args.spawned_at
        if self.args.setup_only:
            self.finish()
            sys.exit(0)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span("phase." + name):
                yield
        else:
            yield
        self.phases[name] = time.perf_counter() - start

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)

    def finish(self) -> None:
        document = {
            "setup_s": self.setup_s,
            "walls": self.walls or [sum(self.phases.values())],
            "phases": self.phases,
            "rates": self.rates,
            "latencies_ms": self.latencies_ms,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "fidelity": self.fidelity,
            "layers": self.layers,
            "info": self.info,
        }
        Path(self.args.out).write_text(json.dumps(document))
        if self.tracer is not None:
            self.tracer.dump(self.trace_dir / "spans.json")


# --------------------------------------------------------------------- helpers


def canonical_digest(value: Any) -> str:
    """sha256 of canonical JSON (sorted keys, numpy arrays as lists)."""

    text = json.dumps(value, sort_keys=True, default=lambda item: item.tolist(),
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def grid_digest(profiles: Dict[Tuple[str, str], Any]) -> str:
    """Digest of an ``(app, dataset) -> profile`` grid."""
    from repro.runtime.cache import profile_to_dict

    return canonical_digest(
        {f"{app}/{dataset}": profile_to_dict(profile) for (app, dataset), profile in profiles.items()}
    )


def load_golden() -> Dict[str, Any]:
    return json.loads((HERE / "golden.json").read_text())


def install_main_tracing(round_: Round) -> None:
    """Import every module that binds a traced function, then wrap them.

    Runs before a workload imports anything, so the names the workload
    binds are already the wrapped ones.
    """
    if round_.tracer is None:
        return
    import tracer as tracing

    import repro.eval  # noqa: F401  (binds collect_profiles, tables)
    import repro.runtime.dse  # noqa: F401
    import repro.runtime.executors.subprocess  # noqa: F401
    import repro.runtime.jobs  # noqa: F401
    import repro.runtime.search  # noqa: F401

    tracing.install(round_.tracer, tracing.MAIN_TARGETS)


def render_report(profiles: Any) -> Dict[str, Any]:
    """Tables 9-13 and Figure 7 over ``profiles``, rendered to JSON text.

    Table 13 needs six specific applications; a grid without them (the
    smoke grid) skips it.
    """
    from repro.eval import (
        figure7_stall_breakdown,
        table9_spmu_sensitivity,
        table10_ordering_modes,
        table11_shuffle_sensitivity,
        table12_performance,
        table13_asic_comparison,
    )

    apps = set(profiles.apps())
    report = {
        "table9": table9_spmu_sensitivity(profiles),
        "table10": table10_ordering_modes(profiles),
        "table11": table11_shuffle_sensitivity(profiles),
        "table12": table12_performance(profiles),
        "figure7": figure7_stall_breakdown(profiles),
    }
    if {"spmv-csc", "conv", "pagerank-edge", "bfs", "sssp", "spmspm"} <= apps:
        report["table13"] = table13_asic_comparison(profiles)
    report["text"] = json.dumps(_string_keys(report), sort_keys=True, default=str)
    return report


def _string_keys(value: Any) -> Any:
    """``value`` with every dict key a string (Table 11 keys are tuples)."""
    if isinstance(value, dict):
        return {str(key): _string_keys(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_string_keys(item) for item in value]
    return value


def paper_points(report: Dict[str, Any]) -> Dict[str, Tuple[float, float]]:
    """``(measured, paper)`` of each point of Tables 9, 10, 12 and 13."""
    points: Dict[str, Tuple[float, float]] = {}
    for table in ("table9", "table10", "table12"):
        result = report[table]
        for name, paper in result["paper_gmean"].items():
            if name in result["gmean"]:
                points[f"{table}.{name}"] = (result["gmean"][name], paper)
    if "table13" in report:
        result = report["table13"]
        for name, paper in result["paper"].items():
            points[f"table13.{name}"] = (result["speedup"][name], paper)
    return points


# ------------------------------------------------------------------ sweep-cold


def sweep_cold(round_: Round) -> None:
    """Cold 2-worker subprocess sweep of the grid, then the paper report."""
    from repro.eval import collect_profiles
    from repro.runtime.cache import ProfileCache
    from repro.runtime.executors.subprocess import SubprocessExecutor
    from repro.runtime.jobs import JobSpec, JobStore
    from repro.runtime.registry import RunContext

    scale = SMOKE_SCALE if round_.smoke else SWEEP_SCALE
    apps = list(SMOKE_APPS) if round_.smoke else None
    store = JobStore()
    command = None
    if round_.tracer is not None:
        command = [sys.executable, str(HERE / "launch.py"), "cli", str(round_.trace_dir)]
    executor = SubprocessExecutor(SWEEP_WORKERS, command=command, seed=round_.seed)
    round_.info.update(executor="subprocess", workers=SWEEP_WORKERS, scale=scale)
    round_.setup_done()

    with round_.phase("sweep"):
        job = store.submit(JobSpec.profile_grid(apps, context=RunContext(scale=scale)))
        summary = store.run_job(job.id, executor)
    # What the workers left in the profile cache, read before the report
    # phase (which would profile and store any missing cell itself).
    units = store.units(job.id)
    cache = ProfileCache()
    entries = len(cache)
    written = {(u.payload["app"], u.payload["dataset"]): cache.load(u.key) for u in units}
    with round_.phase("report"):
        profiles = collect_profiles(apps=apps, scale=scale)
        report = render_report(profiles)
    # The wall time is what the user waits for: the sweep and the report. The same
    # grid profiled serially in-process is the sweep's reference output, and
    # its time is the speed the executor has to beat.
    round_.walls = [sum(round_.phases.values())]
    with round_.phase("serial_reference"):
        reference = collect_profiles(apps=apps, scale=scale, workers=1, cache=False)

    round_.rates = [len(units) / round_.phases["sweep"]]
    round_.attempted += len(units)
    round_.failed += sum(1 for u in units if u.state != "done")
    round_.check("sweep.all_units_done", summary.state == "done"
                 and all(u.state == "done" for u in units))
    round_.check("sweep.cache_entries", entries == len(units))
    complete = all(profile is not None for profile in written.values())
    round_.check("sweep.grid_digest_matches_in_process",
                 complete and grid_digest(written) == grid_digest(reference.profiles))
    round_.check("sweep.report_read_back_matches",
                 grid_digest(profiles.profiles) == grid_digest(reference.profiles))
    round_.fidelity = paper_points(report)

    if round_.tracer is not None:
        import layers

        round_.layers = layers.sweep_layers(round_, executor, units, entries)


# ------------------------------------------------------------------ dse-search

#: The 2048-point grid ``benchmarks/bench_runner.py`` searches.
def dse_axes() -> Dict[str, Tuple[Any, ...]]:
    from repro.config import MemoryTechnology
    from repro.core.ordering import OrderingMode

    return {
        "lanes": (8, 16),
        "banks": (16, 32),
        "queue_depth": (8, 16),
        "crossbar_inputs": (16, 32),
        "compute_units": (64, 100, 144, 196, 256, 324, 400, 484),
        "bank_mapping": ("hash", "linear"),
        "allocator": ("separable", "greedy"),
        "ordering": (OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED),
        "memory": (MemoryTechnology.HBM2E, MemoryTechnology.DDR4),
    }


OBJECTIVES = ("cycles", "area", "energy")
#: Search seed of the frontiers ``golden.json`` pins.
GOLDEN_SEED = 0
#: The search-quality gate ``benchmarks/bench_runner.py`` applies to the
#: 48 x 8 search on the 2048-point grid.
MIN_HYPERVOLUME_RATIO = 0.95
MAX_EVAL_FRACTION = 0.25


def _search(space: Any, profiles: List[Any], population: int, generations: int,
            seed: int, store: Any = None) -> Any:
    """One seeded evolutionary search, persisted to ``store`` when given."""
    from repro.runtime.search import AdaptiveSearch, make_strategy

    return AdaptiveSearch(
        space,
        make_strategy("evolve", population=population, generations=generations),
        profiles,
        objectives=OBJECTIVES,
        seed=seed,
        store=store,
    ).run()


def dse_search(round_: Round) -> None:
    """Exhaustive 2048-point frontier, then two seeded searches."""
    import numpy as np

    from repro.eval import collect_profiles
    from repro.runtime.cache import ThroughputStore
    from repro.runtime.dse import explore
    from repro.runtime.search import DEFAULT_SEARCH_AXES, SearchSpace, SearchStore, hypervolume

    scale = SMOKE_SCALE if round_.smoke else DSE_SCALE
    apps = list(SMOKE_APPS) if round_.smoke else None
    profile_set = collect_profiles(apps=apps, scale=scale)
    profiles = [profile_set.profiles[key] for key in sorted(profile_set.profiles)]
    search_store = SearchStore()
    throughput_store = ThroughputStore()
    axes = dse_axes()
    space = SearchSpace.from_axes(axes)
    kilovariant = SearchSpace.from_axes(dict(DEFAULT_SEARCH_AXES))
    population, generations = (8, 2) if round_.smoke else (48, 8)
    kv_population, kv_generations = (8, 2) if round_.smoke else (64, 8)
    round_.info.update(executor="in-process", workers=1, scale=scale,
                       space=space.size, kilovariant_space=kilovariant.size)
    round_.setup_done()

    cold = {}
    with round_.phase("exhaustive"):
        exhaustive = explore(profiles=profiles, energy=True, **axes)
    cold["exhaustive"] = len(throughput_store)
    with round_.phase("search"):
        result = _search(space, profiles, population, generations, round_.seed, search_store)
    cold["search"] = len(throughput_store) - cold["exhaustive"]
    with round_.phase("kilovariant"):
        kv_result = _search(kilovariant, profiles, kv_population, kv_generations, round_.seed,
                            search_store)
    cold["kilovariant"] = len(throughput_store) - cold["exhaustive"] - cold["search"]

    evaluations = space.size + result.evaluations + kv_result.evaluations
    round_.rates = [evaluations / sum(round_.phases.values())]

    exhaustive_costs = np.column_stack(
        (exhaustive.gmean_cycles, exhaustive.area_mm2, exhaustive.gmean_energy_mj)
    )
    # The bench_runner reference point: strictly dominated by every candidate.
    reference = exhaustive_costs.max(axis=0) * 1.1
    hv_ratio = result.hypervolume(reference) / hypervolume(exhaustive_costs, reference)

    golden = load_golden()["dse"]["smoke" if round_.smoke else "full"]
    frontier = list(exhaustive.frontier(OBJECTIVES))
    digests = {"frontier": canonical_digest(frontier), "costs": canonical_digest(exhaustive_costs)}
    round_.check("dse.exhaustive_frontier", digests["frontier"] == golden["frontier"])
    round_.check("dse.exhaustive_costs", digests["costs"] == golden["costs"])
    by_name = {name: exhaustive_costs[j] for j, name in enumerate(exhaustive.names)}
    round_.check(
        "dse.search_costs_equal_exhaustive",
        all(tuple(by_name[name]) == tuple(result.costs[i]) for i, name in enumerate(result.names)),
    )
    round_.check("dse.search_frontier_nonempty", len(result.frontier()) > 0
                 and len(kv_result.frontier()) > 0)
    if not round_.smoke:
        round_.check("dse.search_hypervolume_ratio", hv_ratio >= MIN_HYPERVOLUME_RATIO)
        round_.check("dse.search_eval_fraction", result.evaluations / space.size <= MAX_EVAL_FRACTION)
    if round_.args.first:
        # Both searches re-run at the golden seed give the recorded payloads
        # (every evaluated point, its costs and the frontier), byte for byte.
        digests["search_payload"] = canonical_digest(
            _search(space, profiles, population, generations, GOLDEN_SEED).to_dict())
        digests["kilovariant_payload"] = canonical_digest(
            _search(kilovariant, profiles, kv_population, kv_generations, GOLDEN_SEED).to_dict())
        for name in ("search_payload", "kilovariant_payload"):
            round_.check(f"dse.{name}", digests[name] == golden[name])
        round_.fidelity = paper_points(render_report(profile_set))
    round_.info.update(
        hypervolume_ratio=hv_ratio,
        evaluations=result.evaluations,
        eval_fraction=result.evaluations / space.size,
        kilovariant_evaluations=kv_result.evaluations,
    )

    if round_.tracer is not None:
        import layers

        round_.layers = layers.dse_layers(round_, cold)


# ------------------------------------------------------------------ serve-warm


def _http_get(port: int, path: str) -> Tuple[int, bytes]:
    """One request on its own connection (the server's protocol)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode())
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def request_plan(seed: int, count: int, warm_keys: List[Tuple[str, str]],
                 miss_keys: List[Tuple[str, str]], scale_text: str) -> List[Tuple[str, str]]:
    """Seeded ``(kind, path)`` list: exactly ``MISS_FRACTION`` cold misses.

    Warm reads pick uniformly among the prefilled keys; each miss asks for
    a miss-eligible key at a scale no other request uses, so it enqueues
    a new job.
    """
    rng = random.Random(seed)
    misses = int(round(count * MISS_FRACTION))
    kinds = ["cold"] * misses + ["warm"] * (count - misses)
    rng.shuffle(kinds)
    plan = []
    miss_index = 0
    for kind in kinds:
        if kind == "warm":
            app, dataset = rng.choice(warm_keys)
            plan.append((kind, f"/profile?app={app}&dataset={dataset}&scale={scale_text}"))
        else:
            app, dataset = rng.choice(miss_keys)
            miss_index += 1
            plan.append((kind, f"/profile?app={app}&dataset={dataset}&scale=1/{1000 + miss_index}"))
    return plan


def _start_server(round_: Round, cache_dir: Path) -> Tuple[subprocess.Popen, int, float]:
    db = Path(os.environ["REPRO_RUN_DB"])
    serve_args = ["--port", "0", "--db", str(db), "--cache-dir", str(cache_dir)]
    if round_.tracer is not None:
        command = [sys.executable, str(HERE / "launch.py"), "serve",
                   str(round_.trace_dir / "server.json")] + serve_args
    else:
        command = [sys.executable, "-m", "repro.runtime.serve"] + serve_args
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    assert proc.stdout is not None
    line = proc.stdout.readline().decode()
    if "listening on http://" not in line:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    port = int(line.rsplit(":", 1)[1])
    deadline = time.monotonic() + 60
    while True:
        try:
            status, _ = _http_get(port, "/healthz")
            if status == 200:
                break
        except OSError:
            pass
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError("server never became healthy")
        time.sleep(0.01)
    return proc, port, time.perf_counter() - started


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def serve_warm(round_: Round) -> None:
    """Closed-loop single client against a warm ``repro.runtime.serve``."""
    from repro.eval import collect_profiles
    from repro.runtime import registry
    from repro.runtime.cache import ProfileCache, profile_to_dict

    scale = SMOKE_SCALE if round_.smoke else DSE_SCALE
    scale_text = SMOKE_SCALE_TEXT if round_.smoke else SERVE_SCALE_TEXT
    apps = list(SMOKE_APPS) if round_.smoke else None
    profile_set = collect_profiles(apps=apps, scale=scale)
    cache_dir = Path(os.environ["REPRO_PROFILE_CACHE"])
    warm_keys = sorted(profile_set.profiles)
    miss_keys = [
        (app, dataset) for app, dataset in warm_keys
        if registry.get_spec(app).context_fields is None
        or "scale" in registry.get_spec(app).context_fields
    ]
    plan = request_plan(round_.seed, round_.args.requests, warm_keys, miss_keys, scale_text)
    proc, port, startup_s = _start_server(round_, cache_dir)
    round_.info.update(executor="none", workers=1, scale=scale)
    try:
        round_.setup_done()
        # Client and server share one core. A closed loop keeps only one of
        # them busy at a time, and a hand-off between two cores waits on a
        # cross-core wake-up, which on a shared VM can stall for minutes at
        # a time (measured: 403-506 against 880-990 requests/s).
        core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(proc.pid, {core})
        os.sched_setaffinity(0, {core})
        statuses: Dict[int, int] = {}
        round_.phases = {"warm_reads": 0.0, "cold_misses": 0.0}
        bad_misses = 0
        per_pass = len(plan) // PASSES
        for first in range(0, per_pass * PASSES, per_pass):
            start = time.perf_counter()
            finished = [start]
            for kind, path in plan[first:first + per_pass]:
                sent = time.perf_counter()
                try:
                    status, body = _http_get(port, path)
                except OSError:
                    status, body = 0, b""
                elapsed = time.perf_counter() - sent
                round_.latencies_ms.append(1000.0 * elapsed)
                statuses[status] = statuses.get(status, 0) + 1
                if kind == "warm":
                    round_.phases["warm_reads"] += elapsed
                    ok = status == 200
                else:
                    round_.phases["cold_misses"] += elapsed
                    ok = status == 202 and isinstance(json.loads(body or b"{}").get("job"), int)
                    bad_misses += not ok
                round_.attempted += 1
                round_.failed += not ok
                finished.append(time.perf_counter())
            # Throughput of each window of RATE_WINDOW consecutive requests;
            # the run reports their median, which a short stall cannot move.
            round_.rates += [
                RATE_WINDOW / (finished[i + RATE_WINDOW] - finished[i])
                for i in range(0, per_pass - RATE_WINDOW + 1, RATE_WINDOW)
            ] or [per_pass / (finished[-1] - start)]
            round_.walls.append(finished[-1] - start)

        cache = ProfileCache(root=cache_dir)
        rng = random.Random(round_.seed + 1)
        same = True
        for app, dataset in rng.sample(warm_keys, min(SAMPLED_BODIES, len(warm_keys))):
            status, body = _http_get(
                port, f"/profile?app={app}&dataset={dataset}&scale={scale_text}")
            payload = json.loads(body)
            same = same and status == 200 and payload["profile"] == profile_to_dict(
                cache.load(payload["key"]))
        round_.check("serve.sampled_bodies_equal_cache", same)
        round_.check("serve.every_miss_enqueued", bad_misses == 0)
    finally:
        _stop_server(proc)
    if round_.args.first:
        round_.fidelity = paper_points(render_report(profile_set))

    if round_.tracer is not None:
        import layers

        round_.layers = layers.serve_layers(round_, statuses, startup_s)


WORKLOADS = {"sweep-cold": sweep_cold, "dse-search": dse_search, "serve-warm": serve_warm}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--first", action="store_true",
                        help="first round of a run: also run the once-per-run checks")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--requests", type=int, default=2000)
    args = parser.parse_args()
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    round_ = Round(args)
    install_main_tracing(round_)
    WORKLOADS[args.workload](round_)
    round_.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
