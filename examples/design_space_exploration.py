"""Design-space exploration with the batched costing layer.

The paper's architectural choices -- 16 lanes, 16 banks, a 16-entry reorder
queue, address hashing, the Mrg-1 shuffle network -- each come from a
sensitivity study around one fixed design point. This example opens the
configuration space instead: :func:`repro.runtime.dse.explore` sweeps
structural axes, costs every workload profile under every variant through
the batched costing engine (one exhaustive generation of the adaptive
search engine), and extracts the cycles-vs-area Pareto frontier.

Profiles are collected once (cached on disk) and SpMU microbenchmark
throughputs persist in the content-addressed throughput store, so re-runs
and follow-up sweeps are fast. The same exploration is available from the
command line as ``repro-eval dse --axis lanes=8,16,32 --axis banks=8,16,32``.

Run it with ``python examples/design_space_exploration.py``.
"""

from __future__ import annotations

from repro.config import MemoryTechnology
from repro.runtime.dse import DSEResult, explore
from repro.runtime.registry import RunContext

#: Small scale so the example finishes in seconds.
CONTEXT = RunContext(scale=1 / 256)

#: Applications with contrasting bottlenecks: SRAM-bound SpMV, network- and
#: DRAM-bound BFS.
APPS = ("spmv-csr", "bfs")


def print_result(title: str, result: DSEResult) -> None:
    frontier = set(result.frontier())
    print(f"\n{title}")
    width = max(len(name) for name in result.names)
    print(f"  {'variant':<{width}}  {'gmean cycles':>12}  {'area mm^2':>9}")
    for row in sorted(result.rows(), key=lambda r: r["gmean_cycles"]):
        marker = " *" if row["name"] in frontier else ""
        print(
            f"  {row['name']:<{width}}  {row['gmean_cycles']:>12.4g}  "
            f"{row['area_mm2']:>9.1f}{marker}"
        )
    print(f"  Pareto frontier (*): {', '.join(result.frontier())}")


def structural_sweep() -> None:
    """Lanes x banks: how wide should the machine and its memories be?"""
    result = explore(apps=APPS, context=CONTEXT, lanes=(8, 16, 32), banks=(8, 16, 32))
    print_result("Structural design space (lanes x banks)", result)


def scheduler_sweep() -> None:
    """Queue depth x memory: scheduling window against memory technology."""
    result = explore(
        apps=APPS,
        context=CONTEXT,
        queue_depth=(8, 16, 32),
        memory=(MemoryTechnology.HBM2E, MemoryTechnology.DDR4),
    )
    print_result("Scheduler / memory design space (queue depth x memory)", result)


def policy_sweep() -> None:
    """Bank mapping x allocator: the Table 9 policy space, batched."""
    result = explore(
        apps=APPS,
        context=CONTEXT,
        bank_mapping=("hash", "linear"),
        allocator=("separable", "greedy", "arbitrated"),
    )
    print_result("SpMU policy space (bank mapping x allocator)", result)


def main() -> None:
    structural_sweep()
    scheduler_sweep()
    policy_sweep()


if __name__ == "__main__":
    main()
