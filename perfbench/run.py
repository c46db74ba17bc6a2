"""The repository benchmark: one named workload, end to end or per layer.

    python3 perfbench/run.py --workload sweep-cold|dse-search|serve-warm
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Every round runs in a fresh interpreter
(``rounds.py``) against empty per-round stores under ``.perfbench/`` in the
checkout, with ``HOME`` pointed there too, so a run writes nothing else.

``--trace 0`` repeats rounds until ``--seconds`` of timed work is done and
reports medians of the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced round and reports every per-layer metric. The last line of
standard output is the JSON result; earlier lines record the environment,
the output checks and the paper-fidelity points. ``--smoke`` shrinks every
workload to seconds (tiny scale, two apps, 2-generation searches, a few
hundred requests).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("paper_log_err", "ln-ratio"),
    ("paper_side_agree", "ratio"),
)

#: Timed rounds per run: at least this many, more while ``--seconds`` lasts.
MIN_ROUNDS = {"sweep-cold": 1, "dse-search": 2, "serve-warm": 3}
MAX_ROUNDS = 12
#: Set-up samples per run; rounds short of it are topped up by set-up-only
#: launches, so ``setup_s`` is always a median.
SETUP_SAMPLES = 3
#: serve-warm requests per round, per second of ``--seconds``.
REQUESTS_PER_SECOND = 200
SMOKE_REQUESTS = 300
ROUND_TIMEOUT_S = 170.0


class RssSampler(threading.Thread):
    """Peak RSS of a process and all its descendants (``/proc``).

    Each sample sums the high-water mark (``VmHWM``) of every process alive
    at that moment, so a short-lived worker's peak counts even when it falls
    between two samples.
    """

    def __init__(self, pid: int, interval_s: float = 0.05):
        super().__init__(daemon=True)
        self.pid = pid
        self.interval_s = interval_s
        self.peak_kib = 0
        self._done = threading.Event()

    def _tree(self) -> List[int]:
        pids, frontier = [], [self.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*/children"):
                try:
                    frontier.extend(int(child) for child in task.read_text().split())
                except OSError:
                    pass
        return pids

    def sample(self) -> None:
        total = 0
        for pid in self._tree():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
            except OSError:
                pass
        self.peak_kib = max(self.peak_kib, total)

    def run(self) -> None:
        while not self._done.wait(self.interval_s):
            self.sample()

    def stop(self) -> None:
        self._done.set()
        self.join()


def round_env(directory: Path) -> Dict[str, str]:
    env = dict(os.environ)
    for name in list(env):
        if name.startswith("REPRO_"):
            del env[name]
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        HOME=str(directory / "home"),
        REPRO_PROFILE_CACHE=str(directory / "profiles"),
        REPRO_THROUGHPUT_CACHE=str(directory / "throughput"),
        REPRO_SEARCH_STORE=str(directory / "search"),
        REPRO_RUN_DB=str(directory / "runs.sqlite"),
    )
    return env


def run_round(args: argparse.Namespace, work: Path, index: int, *, trace: bool = False,
              first: bool = False, setup_only: bool = False) -> Dict[str, Any]:
    """One round in a fresh interpreter; returns its document plus peak RSS."""
    directory = work / f"round-{index}"
    (directory / "home").mkdir(parents=True)
    out = directory / "round.json"
    requests = SMOKE_REQUESTS if args.smoke else REQUESTS_PER_SECOND * args.seconds
    command = [
        sys.executable, str(HERE / "rounds.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(out),
        "--requests", str(requests),
    ]
    command += ["--trace"] * trace + ["--smoke"] * args.smoke
    command += ["--first"] * first + ["--setup-only"] * setup_only
    spawned_at = time.monotonic()
    # The round leads its own process group, so its workers and server are
    # stopped with it whatever way the round ends.
    proc = subprocess.Popen(command + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            env=round_env(directory), stdout=sys.stderr, start_new_session=True)
    sampler = RssSampler(proc.pid)
    sampler.start()
    try:
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} round {index} timed out")
    finally:
        sampler.stop()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not out.exists():
        raise SystemExit(f"perfbench: {args.workload} round {index} failed (exit {code})")
    document = json.loads(out.read_text())
    document["peak_rss_mb"] = sampler.peak_kib / 1024.0
    if trace:
        kept = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(kept, ignore_errors=True)
        kept.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(directory / "trace"), str(kept))
        document["trace_dir"] = str(kept.relative_to(ROOT))
    shutil.rmtree(directory)
    return document


def import_seconds(samples: int = 3) -> float:
    """Median time of ``import repro.runtime.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import repro.runtime.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    values = []
    for _ in range(samples):
        output = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout
        values.append(float(output))
    return statistics.median(values)


def environment(args: argparse.Namespace, rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    versions = {}
    for module in ("numpy", "scipy", "numba"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    commit = None
    try:
        # Only this checkout's own repository counts, not one around it.
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    info = rounds[0]["info"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "rounds": len(rounds),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "numba_importable": versions["numba"] is not None,
        "executor": info.get("executor"),
        "workers": info.get("workers"),
        "scale": info.get("scale"),
        "commit": commit,
    }


def _side(value: float) -> int:
    """Which side of 1.0 a ratio lies on (the normalization baselines sit on it)."""
    return 0 if abs(value - 1.0) < 1e-12 else (1 if value > 1.0 else -1)


def end_to_end(rounds: List[Dict[str, Any]], setups: List[float]) -> Dict[str, float]:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    points = rounds[0]["fidelity"].values()
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall for r in rounds for wall in r["walls"]),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "ops_per_s": statistics.median(rate for r in rounds for rate in r["rates"]),
        "paper_log_err": statistics.fmean(abs(math.log(m / p)) for m, p in points),
        "paper_side_agree": statistics.fmean(_side(m) == _side(p) for m, p in points),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cold", "dse-search", "serve-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rounds: List[Dict[str, Any]] = []
        if args.trace:
            rounds.append(run_round(args, work, 0, first=True))
            traced = run_round(args, work, 1, trace=True)
        else:
            elapsed = 0.0
            while len(rounds) < MAX_ROUNDS and (
                    len(rounds) < MIN_ROUNDS[args.workload] or elapsed < args.seconds):
                document = run_round(args, work, len(rounds), first=not rounds)
                rounds.append(document)
                elapsed += document["setup_s"] + sum(document["walls"])
            setups = [r["setup_s"] for r in rounds]
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_round(args, work, 100 + len(setups), setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_rounds = rounds + ([traced] if args.trace else [])
    checks: Dict[str, bool] = {}
    for document in all_rounds:
        for name, ok in document["checks"].items():
            checks[name] = checks.get(name, True) and ok
    print("env: " + json.dumps(environment(args, rounds), sort_keys=True))
    print("checks: " + json.dumps(checks, sort_keys=True))
    fidelity = {name: math.log(m / p) for name, (m, p) in rounds[0]["fidelity"].items()}
    for name, log_ratio in sorted(fidelity.items(), key=lambda item: -abs(item[1])):
        measured, paper = rounds[0]["fidelity"][name]
        side = "" if _side(measured) == _side(paper) else "  opposite side of 1.0"
        print(f"fidelity: {name:34s} paper {paper:8.3f} measured {measured:10.3f} "
              f"ln-ratio {log_ratio:+.3f}{side}")

    attempted = sum(r["attempted"] for r in all_rounds)
    failed = sum(r["failed"] for r in all_rounds)
    if args.trace:
        values = {name: 0.0 for name, _ in layers.PER_LAYER}
        values.update(traced["layers"])
        values["runtime.import_s"] = import_seconds()
        values["trace.overhead_frac"] = (
            statistics.median(traced["walls"]) / statistics.median(rounds[0]["walls"]) - 1.0)
        for phase, seconds in rounds[0]["phases"].items():
            values[f"phase.{phase}_s"] = seconds
        latencies = rounds[0]["latencies_ms"]
        if latencies:
            values["runtime.serve.req_p50_ms"] = layers.percentile(latencies, 0.50)
            values["runtime.serve.req_p99_ms"] = layers.percentile(latencies, 0.99)
        for name, log_ratio in fidelity.items():
            values[f"fidelity.{name}"] = log_ratio
        units = dict(layers.PER_LAYER)
        print(f"trace: spans written to {traced['trace_dir']}")
        for name, value in sorted(traced["layers"].items()):
            if name.startswith("self_s.") and value:
                print(f"self: {name[len('self_s.'):]:32s} {value:10.4f} s")
    else:
        values = end_to_end(rounds, setups)
        units = dict(END_TO_END)
        rates = sum(len(r["rates"]) for r in rounds)
        print(f"samples: {len(rounds)} rounds, {len(setups)} set-ups, {rates} throughput samples")
        for phase in rounds[0]["phases"]:
            print(f"phase: {phase:18s} median "
                  f"{statistics.median(r['phases'][phase] for r in rounds):9.4f} s")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    result = {
        "correct": all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
