"""Experiment runtime: registry, caching, parallel execution, sweeps.

This package is the layer between the applications (:mod:`repro.apps`) and
the evaluation harnesses (:mod:`repro.eval`). It owns four concerns:

* :mod:`repro.runtime.registry` -- a decorator-based :class:`AppSpec`
  registry each application module registers into, replacing hand-written
  dispatch tables;
* :mod:`repro.runtime.cache` -- a content-addressed on-disk cache for
  :class:`~repro.apps.profile.WorkloadProfile` objects keyed by
  (app, dataset, run context, code fingerprint);
* :mod:`repro.runtime.runner` -- an :class:`ExperimentRunner` that fans the
  (app x dataset) grid out over a process pool with structured per-task
  results and deterministic ordering;
* :mod:`repro.runtime.sweep` -- a declarative generator for the
  :class:`~repro.apps.timing.CapstanPlatform` variants the sensitivity
  studies cost profiles under;
* :mod:`repro.runtime.dse` -- design-space exploration: batched costing of
  whole configuration grids (including structural axes) with Pareto-frontier
  extraction over cycles and area;
* :mod:`repro.runtime.budget` -- the memory-budget planner: chunk-shape
  cost models and the ``REPRO_MEMORY_BUDGET`` seam the batch engines
  stream under;
* :mod:`repro.runtime.runstore` -- the SQLite experiment store recording
  every bench run (schema in ``schema.sql``, ``REPRO_RUN_DB`` seam); the
  regression analytics in :mod:`repro.eval.regression` read it.
"""

import importlib
import sys
import types
from typing import Any, Dict, Tuple

#: Submodule -> the public names it defines. Nothing is imported until a
#: name is first read (see :class:`_Package`), so importing one submodule
#: -- e.g. a ``repro-eval worker`` importing only the job layer -- does not
#: pay for the DSE, run-store and budget-planner imports it never uses.
_SUBMODULE_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "budget": (
        "ENV_MEMORY_BUDGET",
        "ChunkPlan",
        "costing_chunk_platforms",
        "iter_chunked",
        "parse_memory_budget",
        "plan_chunks",
        "resolve_memory_budget",
        "variant_state_bytes",
    ),
    "registry": (
        "AppSpec",
        "RegistryError",
        "RunContext",
        "app_datasets",
        "app_order",
        "execute",
        "get_spec",
        "register_app",
        "registered_specs",
    ),
    "cache": (
        "ProfileCache",
        "ThroughputStore",
        "code_fingerprint",
        "profile_from_dict",
        "profile_to_dict",
    ),
    "dse": ("DSEResult", "explore", "pareto_frontier", "prefill_throughputs"),
    "runner": ("ExperimentRunner", "RunReport", "TaskResult"),
    "runstore": ("BaselineRecord", "RunRecord", "RunStore", "default_run_db"),
    # ``sweep`` names both a submodule and its function; see _Package.
    "sweep": ("sweep",),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)


class _Package(types.ModuleType):
    """This package's module type: exports resolve on first read.

    The import system binds each loaded submodule onto its package, which
    would make ``repro.runtime.sweep`` the submodule once anything imports
    it; the export is the function (as the eager re-export had it), so
    that binding is redirected to the submodule's function.
    """

    def __getattr__(self, name: str) -> Any:
        module_name = _EXPORTS.get(name)
        if module_name is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module_name}", __name__), name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "sweep" and isinstance(value, types.ModuleType):
            value = value.sweep
        super().__setattr__(name, value)

    def __dir__(self) -> list:
        return sorted(set(super().__dir__()) | set(_EXPORTS))


sys.modules[__name__].__class__ = _Package
