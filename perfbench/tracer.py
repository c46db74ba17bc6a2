"""In-memory span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps public functions of the ``repro`` package from the
outside: :func:`install` replaces a function at *every* module attribute
that is bound to it (``from x import f`` copies the binding into the
importing module), and a method on its class. Each call then records a
span ``[name, start, end, parent]``; spans nest per thread, so a layer's
self time is its span time minus the time of its direct child spans.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from pathlib import Path
from typing import (
    Any, Callable, Container, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

#: ``(module, attribute, span name)`` of every function the benchmark
#: traces in its own process. ``Class.method`` attributes patch the class.
MAIN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.spmu", "effective_bank_throughput_batch", "core.spmu.sim"),
    ("repro.apps.timing", "estimate_cycles_batch", "apps.timing.costing"),
    ("repro.apps.timing", "iter_cycles_batches", "apps.timing.costing"),
    ("repro.core.energy", "estimate_energy_batch", "core.energy"),
    ("repro.core.area", "capstan_area", "core.area"),
    ("repro.runtime.sweep", "sweep", "runtime.sweep.expand"),
    ("repro.runtime.dse", "pareto_frontier", "runtime.dse.pareto"),
    ("repro.runtime.search", "pareto_ranks", "runtime.search.rank"),
    ("repro.runtime.search", "hypervolume", "runtime.search.hypervolume"),
    ("repro.runtime.search", "SearchStore.save_state", "runtime.search.store"),
    ("repro.runtime.search", "SearchStore.save_result", "runtime.search.store"),
    ("repro.runtime.executors.subprocess", "SubprocessExecutor.run_units",
     "runtime.executors.run_units"),
    ("repro.runtime.jobs", "JobStore.run_job", "runtime.jobs.run_job"),
    ("repro.runtime.jobs", "JobStore.submit", "runtime.jobs.submit"),
    ("repro.runtime.cache", "ProfileCache.load", "runtime.cache.load"),
    ("repro.runtime.cache", "ProfileCache.store", "runtime.cache.store"),
    ("repro.eval.experiments", "collect_profiles", "eval.collect"),
    ("repro.eval.tables", "table9_spmu_sensitivity", "eval.report"),
    ("repro.eval.tables", "table10_ordering_modes", "eval.report"),
    ("repro.eval.tables", "table11_shuffle_sensitivity", "eval.report"),
    ("repro.eval.tables", "table12_performance", "eval.report"),
    ("repro.eval.tables", "table13_asic_comparison", "eval.report"),
    ("repro.eval.figures", "figure7_stall_breakdown", "eval.report"),
)

#: Traced inside each sweep worker process (through the executor's
#: ``command`` seam, see ``launch.py``).
WORKER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.jobs", "execute_unit", "apps.unit"),
    ("repro.runtime.cache", "ProfileCache.load", "runtime.cache.load"),
    ("repro.runtime.cache", "ProfileCache.store", "runtime.cache.store"),
)

#: Traced inside the ``repro.runtime.serve`` process.
SERVER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.serve", "CacheServer.handle", "runtime.serve.handle"),
    ("repro.runtime.cache", "ProfileCache.load", "runtime.cache.load"),
    ("repro.runtime.jobs", "JobStore.submit", "runtime.jobs.submit"),
)


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` with every call (or generator step) recorded as a span."""
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = function(*args, **kwargs)
                while True:
                    index = self.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        self.end(index)
                        return
                    except BaseException:
                        self.end(index)
                        raise
                    self.end(index)
                    yield item

            generator_wrapper.__traced__ = function  # type: ignore[attr-defined]
            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        wrapper.__traced__ = function  # type: ignore[attr-defined]
        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def install(tracer: Tracer, targets: Iterable[Tuple[str, str, str]]) -> None:
    """Wrap every target at each binding in loaded ``repro`` modules.

    Module-level functions are found by identity, so ``from ..core.spmu
    import f`` copies are caught as long as the importing module is loaded
    first.
    """
    for module_name, attribute, span_name in targets:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method_name = attribute.split(".", 1)
            owner = getattr(module, class_name)
            original = owner.__dict__[method_name]
            if getattr(original, "__traced__", None) is not None:
                continue
            setattr(owner, method_name, tracer.wrap(span_name, original))
            continue
        original = getattr(module, attribute)
        original = getattr(original, "__traced__", original)
        wrapper = tracer.wrap(span_name, original)
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)


def self_times(spans: Sequence[Sequence[Any]],
               keep: Optional[Container[int]] = None) -> Dict[str, float]:
    """Span name -> total self time (span time minus direct child spans).

    Only closed spans count, and only those whose index is in ``keep``
    when it is given.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[2] is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if span[2] is None or (keep is not None and index not in keep):
            continue
        totals[span[0]] = totals.get(span[0], 0.0) + (span[2] - span[1]) - child_time[index]
    return totals


def enclosing(spans: Sequence[Sequence[Any]], index: int, prefix: str) -> Optional[str]:
    """Name of the nearest ancestor span whose name starts with ``prefix``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return spans[parent][0]
        parent = spans[parent][3]
    return None
