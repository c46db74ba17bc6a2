"""The benchmark's own tests: every workload in smoke mode, end to end and traced.

    python3 perfbench/selftest.py [WORKLOAD ...]

Each run must exit 0, pass every output check (``correct`` true, nothing
failed) and emit exactly the metrics ``BENCHMARK.json`` names, each with
its declared unit. Takes well under a minute per workload. Also checks
that the benchmark refuses to run, without printing a result, when the
package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, spec: dict) -> None:
    out = run(workload, trace)
    assert out.returncode == 0, f"{workload} trace={trace} exit {out.returncode}:\n{out.stderr[-3000:]}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, out.stdout[-3000:]
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == declared, sorted(set(emitted.items()) ^ set(declared.items()))
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), (name, metric)
        if not trace:
            assert metric["value"] != 0.0, f"{workload}: end-to-end {name} is 0"
    checks = json.loads(next(line for line in out.stdout.splitlines()
                             if line.startswith("checks: "))[len("checks: "):])
    assert checks and all(checks.values()), checks
    print(f"ok  {workload:11s} trace={trace}  {len(emitted)} metrics, checks {sorted(checks)}")


def check_refuses_without_sources() -> None:
    bare = Path(tempfile.mkdtemp(prefix="perfbench-bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run("dse-search", 0, cwd=bare)
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
        print("ok  refuses to run without the package sources")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_refuses_without_sources()
    for workload in workloads:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
