"""On-disk tier for generated Table 6 datasets.

Generating a stand-in dataset is the costliest part of a cold profile unit
that is not the profiling itself (``flickr`` at scale 1/4 takes ~3 s and
~190 MiB), and one dataset feeds several applications. Within one process
:func:`~repro.workloads.suitesparse.load_dataset` memoizes it; across
processes -- fresh sweep workers, a later run -- a :class:`DatasetStore`
keeps each generated matrix as an uncompressed ``.npz`` of its canonical
COO arrays, so the next process loads it in a fraction of the time.

Entries live in ``<cache-root>/datasets/<key>.npz``. The key hashes the
dataset name, scale, seed, minimum dimension and the caller's code
fingerprint, so any edit to a generator orphans stale entries. The
archive is written deterministically (fixed member timestamps) to a temp
file and renamed into place: concurrent writers of one dataset race to
identical bytes. Loads never unpickle and check every entry in O(nnz)
through :meth:`~repro.formats.coo.COOMatrix.from_canonical`; an unreadable,
truncated or invalid entry is a miss, regenerated and rewritten.

The store is opt-in per call: :func:`load_dataset` consults the store
installed by :func:`use_dataset_store`, and none is installed by default.
The runtime installs one around each profile unit while the profile cache
is on (see :mod:`repro.runtime.cache`), which also clears and prunes it.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import FormatError
from ..formats.coo import COOMatrix

#: Bump when the archive layout changes incompatibly.
DATASET_STORE_VERSION = 1

#: Subdirectory of the cache root holding the entries.
DATASET_SUBDIR = "datasets"

#: Member timestamp of every archive (the zip epoch), so equal content
#: always produces equal bytes.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

#: Failures that make an entry a miss rather than an error.
_UNREADABLE = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, FormatError)


class DatasetStore:
    """Generated datasets persisted under ``<cache_root>/datasets``.

    Args:
        cache_root: The profile-cache root the tier lives under.
        fingerprint: Code fingerprint folded into every key and recorded in
            every entry, so :meth:`prune` can drop other versions' entries.

    Attributes:
        root: The ``datasets`` directory itself.
        hits / misses / stores: Per-instance access statistics.
    """

    def __init__(self, cache_root: Path, fingerprint: str):
        self.root = Path(cache_root) / DATASET_SUBDIR
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, name: str, scale: float, seed: int, min_dim: int) -> str:
        """Content address of one generated dataset."""
        material = {
            "version": DATASET_STORE_VERSION,
            "name": name,
            "scale": round(scale, 6),
            "seed": seed,
            "min_dim": min_dim,
            "code": self.fingerprint,
        }
        return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(self, key: str, shape: Tuple[int, int]) -> Optional[COOMatrix]:
        """The stored matrix for ``key`` if it is a valid ``shape`` entry."""
        try:
            with np.load(self._path(key), allow_pickle=False) as archive:
                if tuple(int(n) for n in archive["shape"]) != tuple(shape):
                    raise FormatError("stored dataset has the wrong shape")
                matrix = COOMatrix.from_canonical(
                    shape, archive["rows"], archive["cols"], archive["values"]
                )
        except _UNREADABLE:
            self.misses += 1
            return None
        self.hits += 1
        return matrix

    def store(self, key: str, matrix: COOMatrix) -> None:
        """Persist ``matrix`` atomically (write to a temp file, then rename)."""
        rows, cols, values = matrix.to_coo_arrays()
        members = {
            "shape": np.asarray(matrix.shape, dtype=np.int64),
            "rows": rows,
            "cols": cols,
            "values": values,
            "code": np.asarray(self.fingerprint),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle, zipfile.ZipFile(handle, "w") as archive:
                for name, array in members.items():
                    info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
                    with archive.open(info, "w", force_zip64=True) as member:
                        np.lib.format.write_array(member, array, allow_pickle=False)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        self.stores += 1

    def _remove(self, paths) -> int:
        removed = 0
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every entry and stray temp file; returns the count."""
        if not self.root.is_dir():
            return 0
        return self._remove(list(self.root.glob("*.npz")) + list(self.root.glob("*.tmp")))

    def prune(self) -> int:
        """Delete entries of other code versions, unreadable ones and temps."""
        if not self.root.is_dir():
            return 0
        stale = list(self.root.glob("*.tmp"))
        for path in self.root.glob("*.npz"):
            try:
                with np.load(path, allow_pickle=False) as archive:
                    current = str(archive["code"]) == self.fingerprint
            except _UNREADABLE:
                current = False
            if not current:
                stale.append(path)
        return self._remove(stale)

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.npz"))


_ACTIVE: contextvars.ContextVar[Optional[DatasetStore]] = contextvars.ContextVar(
    "repro_dataset_store", default=None
)


def active_dataset_store() -> Optional[DatasetStore]:
    """The store :func:`load_dataset` reads and fills, if one is installed."""
    return _ACTIVE.get()


@contextlib.contextmanager
def use_dataset_store(store: Optional[DatasetStore]) -> Iterator[Optional[DatasetStore]]:
    """Install ``store`` (or, with ``None``, no store) for the enclosed block."""
    token = _ACTIVE.set(store)
    try:
        yield store
    finally:
        _ACTIVE.reset(token)
