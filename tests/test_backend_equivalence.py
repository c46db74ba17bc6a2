"""Vectorized-vs-reference backend equivalence over the registry grid.

The vectorized profiling kernels must be *indistinguishable* from the
per-element reference loops: every registered (application, dataset) cell
is executed under both backends and the resulting profiles are compared
field for field (including floats -- every counter is derived from integer
event counts, so no tolerance is needed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import bfs, sparse_add, spmv_csr, sssp
from repro.errors import WorkloadError
from repro.formats import to_csr
from repro.runtime import registry
from repro.runtime.cache import profile_to_dict
from repro.runtime.cli import main as cli_main
from repro.runtime.registry import RunContext
from repro.workloads import load_dataset

#: Small-scale context shared by every equivalence cell (SpMSpM ignores the
#: dataset scale and always runs its small Table 6 matrices at full size).
SCALE = 1.0 / 256.0
CONV_SCALE = 1.0 / 16.0

GRID = [
    (spec.name, dataset)
    for spec in registry.registered_specs()
    for dataset in spec.datasets
]


def _context(backend: str) -> RunContext:
    return RunContext(scale=SCALE, conv_scale=CONV_SCALE, backend=backend)


@pytest.mark.parametrize("app,dataset", GRID, ids=[f"{a}-{d}" for a, d in GRID])
def test_backends_produce_identical_profiles(app, dataset):
    spec = registry.get_spec(app)
    vectorized = profile_to_dict(spec.execute(dataset, _context("vectorized")))
    reference = profile_to_dict(spec.execute(dataset, _context("reference")))
    mismatched = {
        key: (vectorized[key], reference[key])
        for key in vectorized
        if vectorized[key] != reference[key]
    }
    assert not mismatched, f"{app}/{dataset} backend mismatch: {mismatched}"


def test_unknown_backend_rejected():
    matrix = to_csr(load_dataset("Trefethen_20000", scale=1 / 256).matrix)
    with pytest.raises(WorkloadError):
        spmv_csr(matrix, np.ones(matrix.shape[1]), backend="loops")


@pytest.mark.parametrize("subcommand", [[], ["dse"], ["sweep"]], ids=["eval", "dse", "sweep"])
def test_cli_rejects_numba_backend(subcommand, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main([*subcommand, "--backend", "numba"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'numba'" in capsys.readouterr().err


def test_backend_functional_outputs_agree():
    """Outputs agree numerically (bit-identical is not required)."""
    generated = load_dataset("Trefethen_20000", scale=1 / 128)
    csr = to_csr(generated.matrix)
    vector = np.random.default_rng(5).random(csr.shape[1])
    vec = spmv_csr(csr, vector, backend="vectorized")
    ref = spmv_csr(csr, vector, backend="reference")
    assert np.allclose(vec.output, ref.output)


def test_traversal_outputs_identical():
    """BFS parents and SSSP distances match exactly across backends."""
    graph = load_dataset("web-Stanford", scale=1 / 256).matrix
    bfs_vec = bfs(graph, source=0, backend="vectorized")
    bfs_ref = bfs(graph, source=0, backend="reference")
    assert np.array_equal(bfs_vec.output, bfs_ref.output)
    sssp_vec = sssp(graph, source=0, backend="vectorized")
    sssp_ref = sssp(graph, source=0, backend="reference")
    assert np.array_equal(sssp_vec.output, sssp_ref.output)


def test_spadd_output_bit_identical():
    """M+M accumulates each entry in the same order under both backends."""
    a = to_csr(load_dataset("ckt11752_dc_1", scale=1 / 128).matrix)
    b = to_csr(load_dataset("ckt11752_dc_1", scale=1 / 128, seed=29).matrix)
    vec = sparse_add(a, b, backend="vectorized")
    ref = sparse_add(a, b, backend="reference")
    assert np.array_equal(vec.output.col_indices, ref.output.col_indices)
    assert np.array_equal(vec.output.values, ref.output.values)
    assert np.array_equal(vec.output.row_pointers, ref.output.row_pointers)


def test_scanner_override_applies_to_both_backends():
    """The Figure 6 scanner sweep re-profiles identically per backend."""
    from repro.config import ScannerConfig

    swept = ScannerConfig(bit_width=64, output_vectorization=4)
    spec = registry.get_spec("spadd")
    vec = spec.execute(
        "Trefethen_20000",
        RunContext(scale=SCALE, scanner=swept, backend="vectorized"),
    )
    ref = spec.execute(
        "Trefethen_20000",
        RunContext(scale=SCALE, scanner=swept, backend="reference"),
    )
    assert profile_to_dict(vec) == profile_to_dict(ref)
    plain = spec.execute("Trefethen_20000", RunContext(scale=SCALE))
    assert vec.scan_cycles != plain.scan_cycles
