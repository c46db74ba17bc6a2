"""Design-space exploration: batched costing over configuration grids.

The paper evaluates one fixed Capstan design point and studies sensitivity
along one axis at a time (Tables 9-12). This module opens the configuration
space as a first-class object: :func:`explore` generates a platform grid
from :func:`~repro.runtime.sweep.sweep` axes -- including the structural
axes ``lanes`` / ``banks`` / ``compute_units`` / ``queue_depth`` --
collects workload profiles through the cached
:class:`~repro.runtime.runner.ExperimentRunner`, costs the whole
(profile x variant) matrix in one
:func:`~repro.apps.timing.estimate_cycles_batch` call, attaches the area
model from :mod:`repro.core.area`, and extracts the cycles-vs-area Pareto
frontier. ``repro-eval dse`` drives it from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._budget import resolve_memory_budget
from ..apps.profile import WorkloadProfile
from ..apps.timing import (
    COSTING_BYTES_PER_CELL,
    BatchCostResult,
    CapstanPlatform,
    estimate_cycles_batch,
    iter_cycles_batches,
    platform_throughput_variant,
)
from ..core.area import capstan_area
from ..core.spmu import effective_bank_throughput_batch
from ..errors import ConfigurationError
from ..sim.stats import geometric_mean
from .cache import ProfileCache
from .executors import Executor
from .registry import RunContext
from .runner import ExperimentRunner
from .sweep import sweep


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


#: Boolean cells one block of the dominance test may materialize, so the
#: temporaries stay bounded whatever the number of points.
_DOMINANCE_BLOCK_CELLS = 1 << 22


def _dominated_by(points: np.ndarray, by: np.ndarray) -> np.ndarray:
    """``out[i, j]`` is true when ``by[j]`` dominates ``points[i]``.

    All objectives are minimized: ``by[j]`` is no worse than ``points[i]``
    in every objective and strictly better in at least one.
    """
    no_worse = np.ones((points.shape[0], by.shape[0]), dtype=bool)
    better = np.zeros_like(no_worse)
    for k in range(points.shape[1]):
        theirs, mine = by[:, k], points[:, k, None]
        no_worse &= theirs <= mine
        better |= theirs < mine
    return no_worse & better


def dominator_counts(points: np.ndarray, by: Optional[np.ndarray] = None) -> np.ndarray:
    """Per row of ``points``, how many rows of ``by`` dominate it.

    ``by`` defaults to ``points`` itself. The test runs in blocks of
    ``points`` rows, so no temporary exceeds ``_DOMINANCE_BLOCK_CELLS``
    cells whatever the number of points.
    """
    by = points if by is None else by
    counts = np.empty(points.shape[0], dtype=np.int64)
    step = max(1, _DOMINANCE_BLOCK_CELLS // max(by.shape[0], 1))
    for start in range(0, points.shape[0], step):
        block = points[start : start + step]
        counts[start : start + step] = _dominated_by(block, by).sum(axis=1)
    return counts


def pareto_frontier(costs: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows of a (points x objectives) matrix.

    All objectives are minimized. A point is dominated when some other
    point is no worse in every objective and strictly better in at least
    one; ties (duplicated points) are all kept. Indices come back in input
    order.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ConfigurationError("costs must be a 2-D (points x objectives) array")
    return np.nonzero(dominator_counts(costs) == 0)[0]


@dataclass
class DSEResult:
    """Cost/area grid of one design-space exploration.

    Attributes:
        variants: The swept platforms by variant name, in sweep order.
        tasks: The ``(app, dataset)`` coordinates of each profile row.
        batch: The full per-cell costing (cycles and stall categories), or
            ``None`` when the exploration streamed the grid out under a
            memory budget instead of materializing it.
        area_mm2: Modelled chip area per variant.
        gmean_cycles: Geometric-mean cycles over all profiles per variant.
        gmean_energy_mj: Geometric-mean energy (mJ) over all profiles per
            variant when the exploration costed energy, else ``None``.
    """

    variants: Dict[str, CapstanPlatform]
    tasks: List[Tuple[str, str]]
    batch: Optional[BatchCostResult]
    area_mm2: np.ndarray
    gmean_cycles: np.ndarray
    gmean_energy_mj: Optional[np.ndarray] = None
    _frontiers: Dict[Tuple[str, ...], Tuple[str, ...]] = field(
        default_factory=dict, repr=False
    )

    @property
    def names(self) -> List[str]:
        """Variant names in sweep order."""
        return list(self.variants)

    @property
    def cycles(self) -> np.ndarray:
        """Per-cell cycles, shape ``(len(tasks), len(variants))``."""
        if self.batch is None:
            raise ConfigurationError(
                "per-cell cycles were streamed out under the memory budget; "
                "pass keep_grid=True (or drop the budget) to materialize them"
            )
        return self.batch.cycles

    def _objective_values(self, objective: str) -> np.ndarray:
        if objective == "cycles":
            return self.gmean_cycles
        if objective == "area":
            return self.area_mm2
        if objective == "energy":
            if self.gmean_energy_mj is None:
                raise ConfigurationError(
                    "energy was not costed; pass energy=True to explore() "
                    "(repro-eval dse --objective ...,energy)"
                )
            return self.gmean_energy_mj
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
            names = self.names
            cached = tuple(names[i] for i in pareto_frontier(costs))
            self._frontiers[key] = cached
        return cached

    def rows(self) -> List[Dict[str, Any]]:
        """One report row per variant: name, gmean cycles, area, frontier flag.

        Built from the per-variant aggregate arrays only, so it works even
        when the per-cell grid was streamed out under a memory budget.
        """
        on_frontier = set(self.frontier())
        rows = []
        for j, name in enumerate(self.names):
            row: Dict[str, Any] = {
                "name": name,
                "gmean_cycles": float(self.gmean_cycles[j]),
                "area_mm2": float(self.area_mm2[j]),
            }
            if self.gmean_energy_mj is not None:
                row["gmean_energy_mj"] = float(self.gmean_energy_mj[j])
            row["pareto"] = name in on_frontier
            rows.append(row)
        return rows

    def top_rows(self, n: int, key: str = "gmean_cycles") -> List[Dict[str, Any]]:
        """The ``n`` best report rows, sorted ascending by ``key``.

        Streaming-safe: only the per-variant aggregates are consulted, so
        ``--top`` works under ``--memory-budget`` without materializing
        the per-cell grid.
        """
        rows = self.rows()
        if key not in ("gmean_cycles", "area_mm2", "gmean_energy_mj"):
            raise ConfigurationError(
                f"unknown top_rows key {key!r}; known: gmean_cycles, area_mm2, "
                "gmean_energy_mj"
            )
        if key == "gmean_energy_mj" and self.gmean_energy_mj is None:
            raise ConfigurationError(
                "energy was not costed; pass energy=True to explore()"
            )
        rows.sort(key=lambda r: r[key])
        return rows[: max(0, n)]


def explore(
    *,
    base: Optional[CapstanPlatform] = None,
    name: Optional[Callable[[Dict[str, Any]], str]] = None,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    apps: Optional[Sequence[str]] = None,
    context: Optional[RunContext] = None,
    workers: Optional[int] = None,
    cache: Union[ProfileCache, bool, None] = True,
    executor: Union[str, Executor, None] = None,
    memory_budget: Optional[int] = None,
    keep_grid: Optional[bool] = None,
    energy: bool = False,
    seed: Optional[int] = None,
    **axes: Iterable[Any],
) -> DSEResult:
    """Cost the evaluation workloads over a configuration grid.

    Args:
        base: Platform the variants derive from (default design point).
        name: Optional variant-labelling callable (see :func:`sweep`).
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
            chunk with the geometric-mean / Pareto state folded
            incrementally (identical floats -- each chunk carries complete
            profile columns). ``None`` defers to ``REPRO_MEMORY_BUDGET``.
        keep_grid: Materialize the full :class:`BatchCostResult` grid.
            Defaults to ``True`` without a budget, and under a budget to
            whether the full grid itself fits in it; when ``False`` the
            result's ``batch`` is ``None`` and only the aggregate arrays
            (gmean cycles, area, frontier) are kept.
        energy: Also cost per-variant energy through the
            :mod:`repro.core.energy` model (fills ``gmean_energy_mj`` and
            enables the energy-aware frontier).
        seed: Shuffle the variant evaluation order with one
            ``numpy.random.default_rng(seed)``. The same seed yields the
            same order (and therefore byte-identical reports); ``None``
            keeps cartesian sweep order.
        **axes: Sweep axes, e.g. ``lanes=(8, 16, 32), banks=(8, 16)``.

    Returns:
        A :class:`DSEResult` with the cost grid, areas, and Pareto frontier.
    """
    variants = sweep(base, name=name, **axes)
    for platform in variants.values():
        platform.config.validate()
    if seed is not None:
        rng = np.random.default_rng(seed)
        names = list(variants)
        order = rng.permutation(len(names))
        variants = {names[i]: variants[names[i]] for i in order}
    if profiles is None:
        runner = ExperimentRunner(
            context=context or RunContext(),
            workers=workers,
            cache=cache,
            executor=executor,
        )
        report = runner.run(apps=list(apps) if apps is not None else None)
        succeeded = [r for r in report.results if r.profile is not None]
        tasks = [(r.app, r.dataset) for r in succeeded]
        collected = [r.profile for r in succeeded]
    else:
        collected = list(profiles)
        tasks = [(p.app, p.dataset) for p in collected]
    budget = resolve_memory_budget(memory_budget)
    if keep_grid is None:
        keep_grid = (
            budget is None
            or len(collected) * len(variants) * COSTING_BYTES_PER_CELL <= budget
        )
    platform_list = list(variants.values())
    gmean_energy: Optional[List[float]] = [] if energy else None
    if keep_grid:
        batch: Optional[BatchCostResult] = estimate_cycles_batch(
            collected, platform_list, memory_budget=budget, energy=energy
        )
        gmean_cycles = np.array(
            [
                geometric_mean([float(c) for c in batch.cycles[:, j]])
                for j in range(len(variants))
            ]
        )
        if gmean_energy is not None:
            gmean_energy.extend(
                geometric_mean([float(e) for e in batch.energy_mj[:, j]])
                for j in range(len(variants))
            )
    else:
        # Stream the cross-product: each chunk carries complete profile
        # columns, so per-column gmeans fold in with identical floats and
        # the per-cell grid never has to exist at once.
        batch = None
        gmean_parts: List[float] = []
        for _, chunk_batch in iter_cycles_batches(
            collected, platform_list, memory_budget=budget, energy=energy
        ):
            gmean_parts.extend(
                geometric_mean([float(c) for c in chunk_batch.cycles[:, j]])
                for j in range(chunk_batch.cycles.shape[1])
            )
            if gmean_energy is not None:
                gmean_energy.extend(
                    geometric_mean([float(e) for e in chunk_batch.energy_mj[:, j]])
                    for j in range(chunk_batch.cycles.shape[1])
                )
        gmean_cycles = np.asarray(gmean_parts, dtype=np.float64)
    area_mm2 = np.array([capstan_area(v.config).total_mm2 for v in variants.values()])
    return DSEResult(
        variants=variants,
        tasks=tasks,
        batch=batch,
        area_mm2=area_mm2,
        gmean_cycles=gmean_cycles,
        gmean_energy_mj=(
            np.asarray(gmean_energy, dtype=np.float64) if gmean_energy is not None else None
        ),
    )
