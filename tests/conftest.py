"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SpMUConfig
from repro.core.ordering import OrderingMode
from repro.core.spmu import RequestTrace, SpMUVariant, random_request_vectors
from repro.formats import COOMatrix, CSCMatrix, CSRMatrix
from repro.workloads import load_dataset


@pytest.fixture
def small_dense():
    """A small dense matrix with a mix of zero and non-zero entries."""
    return np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 4.0, 0.0, 5.0],
            [0.0, 6.0, 0.0, 0.0],
        ]
    )


@pytest.fixture
def small_csr(small_dense):
    """CSR form of the small dense matrix."""
    return CSRMatrix.from_dense(small_dense)


@pytest.fixture
def small_csc(small_dense):
    """CSC form of the small dense matrix."""
    return CSCMatrix.from_dense(small_dense)


@pytest.fixture
def small_coo(small_dense):
    """COO form of the small dense matrix."""
    return COOMatrix.from_dense(small_dense)


@pytest.fixture(scope="session")
def tiny_graph():
    """A small synthetic power-law graph dataset used by app tests."""
    return load_dataset("web-Stanford", scale=1 / 512, seed=3)


@pytest.fixture(scope="session")
def tiny_matrix_dataset():
    """A small synthetic FEM-like matrix dataset used by app tests."""
    return load_dataset("Trefethen_20000", scale=1 / 128, seed=3)


@pytest.fixture(scope="session")
def random_dense_matrix():
    """A reproducible random dense matrix for roundtrip tests."""
    rng = np.random.default_rng(42)
    matrix = rng.random((24, 31))
    matrix[matrix < 0.7] = 0.0
    return matrix


#: Queue-scheduled SpMU shapes of one heterogeneous lock-step batch:
#: (ordering, allocator, lanes, banks, queue depth, crossbar, vectors). The
#: widest, most-banked and deepest variants carry the fewest vectors, so
#: they finish first and compaction can shrink every padded extent.
MIXED_SHAPES = (
    (OrderingMode.UNORDERED, "separable", 32, 64, 32, 64, 2),
    (OrderingMode.ADDRESS_ORDERED, "greedy", 32, 32, 16, 64, 2),
    (OrderingMode.UNORDERED, "greedy", 16, 64, 32, 32, 2),
    (OrderingMode.ADDRESS_ORDERED, "separable", 16, 16, 32, 32, 3),
    (OrderingMode.UNORDERED, "separable", 8, 32, 16, 16, 3),
    (OrderingMode.ADDRESS_ORDERED, "greedy", 8, 64, 4, 32, 2),
    (OrderingMode.UNORDERED, "greedy", 4, 8, 4, 16, 24),
    (OrderingMode.ADDRESS_ORDERED, "separable", 4, 16, 4, 8, 24),
    (OrderingMode.UNORDERED, "separable", 8, 8, 16, 16, 20),
    (OrderingMode.ADDRESS_ORDERED, "greedy", 4, 8, 16, 8, 20),
)


@pytest.fixture
def mixed_shape_batch():
    """Variants and request traces spanning lanes 4-32, banks 8-64 and
    queue depths 4-32, both allocators and both scheduled orderings."""
    variants, traces = [], []
    for seed, (ordering, allocator, lanes, banks, depth, crossbar, count) in enumerate(
        MIXED_SHAPES
    ):
        variants.append(
            SpMUVariant(
                ordering=ordering,
                allocator_kind=allocator,
                config=SpMUConfig(banks=banks, queue_depth=depth, crossbar_inputs=crossbar),
                lanes=lanes,
            )
        )
        traces.append(
            RequestTrace.from_vectors(
                random_request_vectors(count, lanes=lanes, address_space=512, seed=seed)
            )
        )
    return variants, traces
