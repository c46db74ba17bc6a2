"""Subprocess executor: ``repro-eval worker`` children, one set per run.

Each of ``workers`` driver threads owns one worker process for the length
of one :meth:`SubprocessExecutor.run_units` call -- one wave of a job --
and speaks a JSON-lines protocol over its stdin/stdout::

    -> {"id": 1, "ping": true}
    <- {"id": 1, "ok": true}
    -> {"id": 7, "payload": {"kind": "profile", ...}}
    <- {"id": 7, "ok": true, "result": {...}, "duration_s": 0.42}
    <- {"id": 8, "ok": false, "error": "...", "traceback": "...", ...}

A fresh worker is warmed with a ``ping``, answered by the worker loop
itself: it never reaches :func:`~repro.runtime.jobs.execute_unit`, so unit
faults cannot fire on it. A worker that does not answer its ping within
:data:`WARMUP_TIMEOUT_S` counts as a failed spawn.

Workers are retired when ``run_units`` returns, so a job pays one spawn
per slot per wave. Keeping them across waves would skip those spawns, but
a worker's resident high-water mark keeps its heaviest unit: on the 11x3
profile grid at scale 1/4 (2 workers, 2-core VM) that cut the sweep from
~23 s to ~11 s while peak summed RSS rose from ~390 MiB to ~730 MiB.

The worker command is an arbitrary prefix (default: this interpreter
running ``repro.runtime.cli``) with ``worker`` appended -- the SSH-shaped
seam: point ``command`` at ``["ssh", "host", "repro-eval"]`` and the same
executor drives remote workers, because everything a unit needs travels
in its payload and results come back as JSON.

Unlike the pool, a timed-out unit here is *actually* killed (the worker
process is terminated and respawned), so ``timeout_s`` is a hard cap.
Results are deserialized per unit kind, so callers see the same native
objects the in-process executors return.

Worker health is tracked per slot (see :mod:`repro.runtime.health`): a
worker that emits a malformed or truncated protocol line is killed and
respawned immediately -- one corrupted line must not fail every unit
subsequently routed to that worker -- and each slot's rolling
failure/latency window feeds a circuit breaker. An open breaker
quarantines the slot for ``breaker_cooldown_s`` before the next (re)spawn,
so a broken worker command degrades into spaced respawn probes instead of
a tight crash loop.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from ...errors import CapstanError
from ..health import HealthRegistry, WorkerHealth
from ..jobs import deserialize_result
from .base import (
    OUTCOME_CANCELLED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    Executor,
    UnitOutcome,
    WorkerError,
)


def default_worker_command() -> List[str]:
    """The local worker command: this interpreter running the CLI module."""
    return [sys.executable, "-m", "repro.runtime.cli"]


#: Generous cap on worker startup (interpreter + imports, answered by the
#: warmup ping), separate from the per-unit ``timeout_s`` so slow spawns
#: never masquerade as unit timeouts.
WARMUP_TIMEOUT_S = 120.0


def _worker_env() -> Dict[str, str]:
    """Child environment with this package importable.

    Tests (and editable checkouts) run via ``PYTHONPATH=src`` without an
    installed distribution; prepending the package parent keeps
    ``python -m repro.runtime.cli`` resolvable in the child regardless.
    """
    import repro

    env = dict(os.environ)
    package_parent = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    if existing:
        if package_parent not in existing.split(os.pathsep):
            env["PYTHONPATH"] = package_parent + os.pathsep + existing
    else:
        env["PYTHONPATH"] = package_parent
    return env


class _WorkerDied(CapstanError):
    """The worker process exited (or its pipe closed) mid-conversation."""


class _ProtocolError(CapstanError):
    """The worker corrupted the JSON-lines protocol (malformed line).

    A worker that garbles its protocol channel cannot be trusted with the
    next unit either -- the caller kills and respawns it.
    """


class _Worker:
    """One worker process and its line-framed conversation."""

    def __init__(self, command: List[str]):
        self.proc = subprocess.Popen(
            list(command) + ["worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_worker_env(),
        )
        self._buffer = bytearray()
        self._next_id = 0
        stdout = self.proc.stdout
        assert stdout is not None
        os.set_blocking(stdout.fileno(), False)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        # Reap and close pipes; idempotent.
        try:
            self.proc.wait(timeout=5)
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass

    def request(self, payload: Dict[str, Any], timeout_s: Optional[float]) -> Dict[str, Any]:
        """Send one unit, block for its response line.

        Raises :class:`TimeoutError` past ``timeout_s`` (caller kills the
        worker) and :class:`_WorkerDied` if the process goes away.
        """
        return self._exchange({"payload": payload}, timeout_s)

    def ping(self, timeout_s: float) -> None:
        """Block until the worker loop answers a ping (see :meth:`request`)."""
        self._exchange({"ping": True}, timeout_s)

    def _exchange(self, message: Dict[str, Any], timeout_s: Optional[float]) -> Dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        line = json.dumps({"id": request_id, **message}) + "\n"
        stdin = self.proc.stdin
        assert stdin is not None
        try:
            stdin.write(line.encode())
            stdin.flush()
        except (OSError, ValueError) as exc:  # ValueError: kill() closed the pipe
            raise _WorkerDied(f"worker stdin closed: {exc}") from None
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        while True:
            raw = self._read_line(deadline)
            try:
                response = json.loads(raw)
            except ValueError:
                # A corrupted protocol channel means lost responses and
                # misattributed results; surface it so the caller replaces
                # the worker (skipping the line would silently poison
                # every later unit routed here).
                snippet = raw[:80].decode("utf-8", errors="replace")
                raise _ProtocolError(
                    f"worker emitted a malformed protocol line: {snippet!r}"
                ) from None
            if not isinstance(response, dict):
                raise _ProtocolError(
                    f"worker emitted a non-object protocol line: {raw[:80]!r}"
                )
            if response.get("id") == request_id:
                return response

    def _read_line(self, deadline: Optional[float]) -> bytes:
        stdout = self.proc.stdout
        assert stdout is not None
        try:
            fd = stdout.fileno()
        except ValueError:  # kill() closed the pipe
            raise _WorkerDied("worker was killed before responding") from None
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                newline = self._buffer.find(b"\n")
                if newline >= 0:
                    line = bytes(self._buffer[:newline])
                    del self._buffer[: newline + 1]
                    return line
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise TimeoutError("worker response deadline exceeded")
                if not selector.select(remaining):
                    continue  # timed out or spurious wakeup; re-check deadline
                try:
                    chunk = os.read(fd, 65536)
                except BlockingIOError:
                    continue
                except OSError as exc:
                    raise _WorkerDied(f"worker stdout error: {exc}") from None
                if not chunk:
                    raise _WorkerDied(
                        f"worker exited (code {self.proc.poll()}) before responding"
                    )
                self._buffer.extend(chunk)


class SubprocessExecutor(Executor):
    """Executor fanning units out over worker subprocesses.

    Each slot spawns its worker on its first unit of a :meth:`run_units`
    call and retires it when the call returns (and replaces it after a
    timeout, crash or protocol error); the module docstring gives the
    measured reason workers do not outlive a call.

    Args:
        workers: Worker process count (one driver thread each).
        command: Worker command prefix; ``worker`` is appended. Defaults
            to :func:`default_worker_command`.
        breaker_threshold: Consecutive worker-level failures (died, timed
            out, corrupted protocol) that open a slot's circuit breaker.
        breaker_cooldown_s: Quarantine before an open slot may respawn a
            replacement worker. The default 0 replaces immediately; raise
            it to space out respawns of a persistently-broken command.
        health_window: Observations kept in each slot's rolling window.
        (plus the shared ``timeout_s``/``retries``/``backoff_s``/
        ``jitter``/``seed``.)
    """

    name = "subprocess"

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.05,
        jitter: float = 1.0,
        seed: Optional[int] = None,
        command: Optional[List[str]] = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.0,
        health_window: int = 16,
    ):
        super().__init__(
            workers,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            jitter=jitter,
            seed=seed,
        )
        self.command = list(command) if command is not None else default_worker_command()
        self.health = HealthRegistry(
            window=health_window,
            failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
        )
        self._live_workers: List[_Worker] = []
        self._workers_lock = threading.Lock()

    def health_report(self) -> Dict[int, Dict[str, object]]:
        """Per-slot health snapshots (spawns, replacements, windows)."""
        return self.health.report()

    def cancel(self) -> None:
        """Cancel the run and kill live workers (interrupts blocked reads)."""
        super().cancel()
        with self._workers_lock:
            workers = list(self._live_workers)
        for worker in workers:
            worker.kill()

    def run_units(
        self, payloads: List[Dict[str, Any]], *, stop_on_error: bool = False
    ) -> List[UnitOutcome]:
        self._begin_run()
        total = len(payloads)
        outcomes: List[Optional[UnitOutcome]] = [None] * total
        queue = deque(range(total))
        state = {"failed": False}
        lock = threading.Lock()

        def drain(slot: int) -> None:
            holder: Dict[str, Any] = {"worker": None, "slot": slot}
            try:
                while True:
                    with lock:
                        stop = (
                            self.cancelled()
                            or (state["failed"] and stop_on_error)
                            or not queue
                        )
                        index = None if stop else queue.popleft()
                    if index is None:
                        return
                    outcome = self._run_with_retries(
                        lambda: self._attempt(holder, payloads[index])
                    )
                    outcomes[index] = outcome
                    if outcome.status not in (OUTCOME_OK, OUTCOME_CANCELLED):
                        with lock:
                            state["failed"] = True
            finally:
                self._retire(holder)

        threads = [
            threading.Thread(target=drain, args=(i,), daemon=True, name=f"repro-exec-{i}")
            for i in range(min(self.workers, max(1, total)))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(total):
            if outcomes[index] is None:
                outcomes[index] = UnitOutcome(status=OUTCOME_CANCELLED)
        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------ worker mgmt

    def _slot_health(self, holder: Dict[str, Any]) -> WorkerHealth:
        return self.health.slot(int(holder.get("slot", 0)))

    def _obtain(self, holder: Dict[str, Any]) -> _Worker:
        worker = holder.get("worker")
        if worker is None or worker.proc.poll() is not None:
            if worker is not None:
                self._retire(holder)
            self._slot_health(holder).note_spawn()
            worker = _Worker(self.command)
            holder["worker"] = worker
            with self._workers_lock:
                self._live_workers.append(worker)
            # cancel() kills the workers registered when it runs; one that
            # landed while the spawn was still in flight must not be left
            # to wait out its warmup.
            if self.cancelled():
                raise _WorkerDied("run cancelled while the worker was spawning")
            # Warm the fresh worker with a ping so its startup cost
            # (interpreter + imports) is paid here, not inside the first
            # real unit's timeout window. A worker that never answers is a
            # failed spawn, reported to the slot's breaker by the caller.
            try:
                worker.ping(WARMUP_TIMEOUT_S)
            except TimeoutError:
                raise _WorkerDied(
                    f"worker did not start within {WARMUP_TIMEOUT_S:g}s"
                ) from None
        return worker

    def _retire(self, holder: Dict[str, Any]) -> None:
        worker = holder.get("worker")
        holder["worker"] = None
        if worker is None:
            return
        with self._workers_lock:
            if worker in self._live_workers:
                self._live_workers.remove(worker)
        worker.kill()

    def _attempt(self, holder: Dict[str, Any], payload: Dict[str, Any]) -> UnitOutcome:
        health = self._slot_health(holder)
        # An open breaker quarantines the slot: hold (cancellably) until
        # the cooldown admits the next half-open probe spawn.
        while not health.breaker.allow():
            if self.cancelled():
                return UnitOutcome(status=OUTCOME_CANCELLED)
            self._cancel_event.wait(0.01)
        start = time.perf_counter()
        try:
            worker = self._obtain(holder)
            response = worker.request(payload, self.timeout_s)
        except TimeoutError:
            self._retire(holder)  # the overrunning unit dies with its worker
            health.record(False, time.perf_counter() - start)
            return UnitOutcome(
                status=OUTCOME_TIMEOUT,
                error=f"unit exceeded {self.timeout_s:g}s timeout",
                duration_s=time.perf_counter() - start,
            )
        except _ProtocolError as exc:
            # Satellite fix: one corrupted line kills (and replaces) the
            # worker instead of poisoning every unit routed to it next.
            self._retire(holder)
            health.record(False, time.perf_counter() - start)
            if self.cancelled():
                return UnitOutcome(status=OUTCOME_CANCELLED)
            return UnitOutcome(
                status=OUTCOME_ERROR,
                error=str(exc),
                duration_s=time.perf_counter() - start,
            )
        except (_WorkerDied, OSError) as exc:
            self._retire(holder)
            health.record(False, time.perf_counter() - start)
            if self.cancelled():
                return UnitOutcome(status=OUTCOME_CANCELLED)
            return UnitOutcome(
                status=OUTCOME_ERROR,
                error=str(exc),
                duration_s=time.perf_counter() - start,
            )
        duration = float(response.get("duration_s", time.perf_counter() - start))
        # Worker health tracks the worker's ability to hold a conversation
        # (spawn, respond in time, speak JSON) -- a unit-level failure the
        # worker reported correctly is the unit's problem, not the slot's.
        health.record(True, duration)
        if response.get("ok"):
            result = deserialize_result(payload["kind"], response.get("result"))
            return UnitOutcome(status=OUTCOME_OK, result=result, duration_s=duration)
        error = response.get("error") or "worker reported failure"
        traceback_text = response.get("traceback")
        return UnitOutcome(
            status=OUTCOME_ERROR,
            error=error,
            traceback=traceback_text,
            exception=WorkerError(error, traceback_text),
            duration_s=duration,
        )
