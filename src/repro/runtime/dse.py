"""Design-space exploration: exhaustive costing over configuration grids.

The paper evaluates one fixed Capstan design point and studies sensitivity
along one axis at a time (Tables 9-12). This module opens the configuration
space as a first-class object: :func:`explore` enumerates a grid of
:func:`~repro.runtime.sweep.sweep` axes -- including the structural axes
``lanes`` / ``banks`` / ``compute_units`` / ``queue_depth`` -- collects
workload profiles through the cached
:class:`~repro.runtime.runner.ExperimentRunner`, and costs every variant
as one :class:`~repro.runtime.search.Grid` generation of the
:class:`~repro.runtime.search.AdaptiveSearch` engine (gmean cycles, area
from :mod:`repro.core.area`, optionally gmean energy), then extracts the
Pareto frontier. ``repro-eval dse`` drives it from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..apps.profile import WorkloadProfile
from ..apps.timing import CapstanPlatform, platform_throughput_variant
from ..core.spmu import effective_bank_throughput_batch
from ..errors import ConfigurationError
from .cache import ProfileCache
from .executors import Executor
from .registry import RunContext
from .runner import ExperimentRunner
from .search import AdaptiveSearch, Combo, Grid, SearchSpace, pareto_frontier


def prefill_throughputs(platforms: Iterable[CapstanPlatform]) -> int:
    """Warm the SpMU throughput caches for a family of platforms.

    Deduplicates the platforms' calibration microbenchmarks, simulates
    every cold one in a single batched lock-step pass, and persists the
    results with one :class:`~repro.runtime.cache.ThroughputStore`
    transaction. Running this before launching parallel sweeps (``repro-eval
    dse --prefill``) means the workers find every microbenchmark warm
    instead of racing to re-simulate the same cold variants.

    Returns:
        The number of distinct SpMU variants resolved (warm or cold).
    """
    variants = {
        platform_throughput_variant(p) for p in platforms if not p.ideal_sram
    }
    if not variants:
        return 0
    effective_bank_throughput_batch(sorted(variants, key=repr))
    return len(variants)


#: Report-row key of each objective's per-variant cost.
_ROW_KEYS = {"cycles": "gmean_cycles", "area": "area_mm2", "energy": "gmean_energy_mj"}


@dataclass
class DSEResult:
    """Per-variant costs of one design-space exploration.

    A view of the archive one :class:`~repro.runtime.search.Grid`
    generation leaves in an :class:`~repro.runtime.search.AdaptiveSearch`:
    the design points in evaluation order and their cost matrix.

    Attributes:
        space: The explored design space.
        combos: The design points, in evaluation order.
        names: Their variant names, in the same order.
        costs: ``(variants x objectives)`` costs, one column per objective.
        objectives: ``("cycles", "area")``, plus ``"energy"`` when the
            exploration costed energy.
        tasks: The ``(app, dataset)`` coordinates of the costed profiles.
        base: The platform the variants derive from (default design point
            when ``None``).
    """

    space: SearchSpace
    combos: List[Combo]
    names: List[str]
    costs: np.ndarray
    objectives: Tuple[str, ...]
    tasks: List[Tuple[str, str]]
    base: Optional[CapstanPlatform] = None
    _frontiers: Dict[Tuple[str, ...], Tuple[str, ...]] = field(
        default_factory=dict, repr=False
    )

    @cached_property
    def variants(self) -> Dict[str, CapstanPlatform]:
        """The explored platforms by variant name (built on first access)."""
        return {
            name: self.space.platform(combo, self.base)
            for name, combo in zip(self.names, self.combos)
        }

    @property
    def gmean_cycles(self) -> np.ndarray:
        """Geometric-mean cycles over all profiles per variant."""
        return self._objective_values("cycles")

    @property
    def area_mm2(self) -> np.ndarray:
        """Modelled chip area per variant."""
        return self._objective_values("area")

    @property
    def gmean_energy_mj(self) -> Optional[np.ndarray]:
        """Geometric-mean energy (mJ) per variant, or ``None`` when the
        exploration did not cost energy."""
        if "energy" not in self.objectives:
            return None
        return self._objective_values("energy")

    def _objective_values(self, objective: str) -> np.ndarray:
        if objective in self.objectives:
            return self.costs[:, self.objectives.index(objective)]
        if objective == "energy":
            raise ConfigurationError(
                "energy was not costed; pass energy=True to explore() "
                "(repro-eval dse --objective ...,energy)"
            )
        raise ConfigurationError(
            f"unknown objective {objective!r}; known: cycles, area, energy"
        )

    def frontier(self, objectives: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
        """Variant names on the Pareto frontier of the given objectives.

        Defaults to the classic (gmean cycles, area) frontier; pass
        ``("cycles", "area", "energy")`` for the energy-aware frontier
        (requires the exploration to have costed energy).
        """
        key = tuple(objectives) if objectives is not None else ("cycles", "area")
        cached = self._frontiers.get(key)
        if cached is None:
            costs = np.column_stack([self._objective_values(o) for o in key])
            cached = tuple(self.names[i] for i in pareto_frontier(costs))
            self._frontiers[key] = cached
        return cached

    def rows(self) -> List[Dict[str, Any]]:
        """One report row per variant: name, its costs, frontier flag."""
        on_frontier = set(self.frontier())
        keys = [_ROW_KEYS[objective] for objective in self.objectives]
        return [
            {"name": name, **dict(zip(keys, costs.tolist())), "pareto": name in on_frontier}
            for name, costs in zip(self.names, self.costs)
        ]

    def top_rows(self, n: int, key: str = "gmean_cycles") -> List[Dict[str, Any]]:
        """The ``n`` best report rows, sorted ascending by ``key``."""
        if key not in _ROW_KEYS.values():
            raise ConfigurationError(
                f"unknown top_rows key {key!r}; known: {', '.join(_ROW_KEYS.values())}"
            )
        if key == "gmean_energy_mj" and self.gmean_energy_mj is None:
            raise ConfigurationError("energy was not costed; pass energy=True to explore()")
        return sorted(self.rows(), key=lambda r: r[key])[: max(0, n)]


def explore(
    *,
    base: Optional[CapstanPlatform] = None,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    apps: Optional[Sequence[str]] = None,
    context: Optional[RunContext] = None,
    workers: Optional[int] = None,
    cache: Union[ProfileCache, bool, None] = True,
    executor: Union[str, Executor, None] = None,
    memory_budget: Optional[int] = None,
    energy: bool = False,
    seed: Optional[int] = None,
    **axes: Iterable[Any],
) -> DSEResult:
    """Cost the evaluation workloads over a configuration grid.

    The grid is one :class:`~repro.runtime.search.Grid` generation of an
    :class:`~repro.runtime.search.AdaptiveSearch`, so exhaustive
    enumeration and adaptive search share one costing fold and one archive.

    Args:
        base: Platform the variants derive from (default design point).
        profiles: Pre-collected profiles to cost; when ``None``, the
            registered applications are collected through the cached
            :class:`ExperimentRunner`.
        apps: Application subset to collect (ignored when ``profiles`` is
            given).
        context: Run parameters for profile collection (scale etc.).
        workers / cache / executor: Forwarded to the
            :class:`ExperimentRunner` (``executor`` picks the execution
            backend for profile collection: a name, an
            :class:`~repro.runtime.executors.base.Executor` instance, or
            ``None`` for the automatic local/pool choice).
        memory_budget: Byte budget for the costing working set; the
            (profile x variant) cross-product streams through it chunk by
            chunk (identical floats -- each chunk carries complete profile
            columns). ``None`` defers to ``REPRO_MEMORY_BUDGET``.
        energy: Also cost per-variant energy through the
            :mod:`repro.core.energy` model (fills ``gmean_energy_mj`` and
            enables the energy-aware frontier).
        seed: Shuffle the variant evaluation order with one
            ``numpy.random.default_rng(seed)`` permutation. The same seed
            yields the same order (and therefore byte-identical reports);
            ``None`` keeps cartesian sweep order.
        **axes: Sweep axes, e.g. ``lanes=(8, 16, 32), banks=(8, 16)``.

    Returns:
        A :class:`DSEResult` with per-variant costs and the Pareto frontier.
    """
    space = SearchSpace.from_axes(axes)
    space.validate(base)
    if profiles is None:
        runner = ExperimentRunner(
            context=context or RunContext(),
            workers=workers,
            cache=cache,
            executor=executor,
        )
        report = runner.run(apps=list(apps) if apps is not None else None)
        profiles = [r.profile for r in report.results if r.profile is not None]
    objectives = ("cycles", "area", "energy") if energy else ("cycles", "area")
    engine = AdaptiveSearch(
        space,
        Grid(shuffle=seed is not None),
        profiles,
        base=base,
        objectives=objectives,
        seed=0 if seed is None else seed,
        memory_budget=memory_budget,
    )
    engine.step()  # a Grid is a single generation
    combos, costs = engine.archive()
    return DSEResult(
        space=space,
        combos=combos,
        names=[space.variant_name(combo) for combo in combos],
        costs=costs,
        objectives=objectives,
        tasks=engine.tasks,
        base=base,
    )
