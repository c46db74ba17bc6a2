"""Traced launchers for the processes a traced round starts.

    python3 perfbench/launch.py cli TRACE_DIR worker
        A sweep worker (the subprocess executor appends ``worker``). Wraps
        the worker-side targets, then runs ``repro.runtime.cli``. Workers
        are killed, never shut down, so one JSON line per unit is appended
        to ``TRACE_DIR/worker-<pid>.jsonl`` as soon as the unit ends.

    python3 perfbench/launch.py serve TRACE_FILE [repro-serve args...]
        The cache server. Wraps the server-side targets, runs
        ``repro.runtime.serve`` until SIGINT, then writes its per-request
        timings to TRACE_FILE.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import tracer as tracing


def _worker(trace_dir: Path, argv: list) -> int:
    import repro.runtime.cli as cli
    from repro.runtime import jobs

    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.WORKER_TARGETS)
    traced = jobs.execute_unit
    out = trace_dir / f"worker-{os.getpid()}.jsonl"

    def execute_and_flush(payload):
        tracer.spans.clear()
        try:
            return traced(payload)
        finally:
            record = {
                "kind": payload.get("kind"),
                "app": payload.get("app"),
                "self": tracing.self_times(tracer.spans),
            }
            with out.open("a") as handle:
                handle.write(json.dumps(record) + "\n")

    jobs.execute_unit = execute_and_flush
    return cli.main(argv)


def _serve(trace_file: Path, argv: list) -> int:
    import repro.runtime.serve as serve

    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.SERVER_TARGETS)
    try:
        return serve.main(argv)
    finally:
        by_name: dict = {}
        spans = tracer.spans
        for name, start, end, _parent in spans:
            if end is not None:
                by_name.setdefault(name, []).append(end - start)
        trace_file.write_text(
            json.dumps({"durations_s": by_name, "self": tracing.self_times(spans)})
        )


def main() -> int:
    mode, target, *rest = sys.argv[1:]
    if mode == "cli":
        return _worker(Path(target), rest)
    if mode == "serve":
        return _serve(Path(target), rest)
    raise SystemExit(f"unknown launcher mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
