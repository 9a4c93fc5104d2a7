"""Read-only CSR matrices over arrays a graph already holds.

The kernels need only scipy's compiled CSR routines (`csr_matvec`,
`csr_tocsc`), which live in the extension module
`scipy.sparse._sparsetools`. Importing `scipy.sparse` to reach them also
runs the package's `__init__`, whose array-API layer imports numpy.f2py,
numpy.testing and numpy.ma; that was most of a cold `bipush` command's
import time. This module loads the extension from its file instead, and
imports it through `scipy.sparse` only if that load fails. Both routes run
the same compiled code, so every product is bit-identical to scipy's.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np

_NAME = "scipy.sparse._sparsetools"


def _load_sparsetools():
    """scipy's `_sparsetools` extension, loaded from its file without
    importing `scipy` or `scipy.sparse`; on any failure, the same module
    imported the usual way."""
    try:
        for root in importlib.util.find_spec("scipy").submodule_search_locations:
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = Path(root, "sparse", "_sparsetools" + suffix)
                if path.is_file():
                    loader = importlib.machinery.ExtensionFileLoader(_NAME, str(path))
                    spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
                    module = importlib.util.module_from_spec(spec)
                    loader.exec_module(module)
                    return module
    except Exception:  # any failure of the direct load takes the usual route
        pass
    from scipy.sparse import _sparsetools

    return _sparsetools


_sparsetools = _load_sparsetools()


def row_slots(indptr, rows, deg):
    """Global CSR slot indices of all edges incident to the given rows."""
    counts = deg[rows]
    bounds = np.concatenate(([0], np.cumsum(counts)))
    flat = np.arange(bounds[-1], dtype=np.int64)
    return flat - np.repeat(bounds[:-1], counts) + np.repeat(indptr[rows], counts)


def frozen(a, dtype=None):
    """`a` as a read-only C-contiguous array of `dtype`, copied only when
    its layout or type must change."""
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


class CsrView:
    """A read-only m x n CSR matrix: the `indptr`, `indices`, `data`, `nnz`
    and `shape` a scipy `csr_matrix` would hold, and `@` with a vector.

    As in scipy, the index arrays take int32 when every index and the entry
    count fit in it and int64 otherwise; `indices` and `data` are shared
    with the caller when they already have that type, and `indptr` is
    converted (a copy for a graph's int64 offsets). Every array is marked
    read-only, the caller's shared ones included.
    """

    __slots__ = ("indptr", "indices", "data", "nnz", "shape")

    def __init__(self, data, indices, indptr, shape):
        small = max(int(indptr[-1]), *shape) <= np.iinfo(np.int32).max
        idx = np.int32 if small else np.int64
        self.indptr = frozen(indptr, idx)
        self.indices = frozen(indices, idx)
        self.data = frozen(data, np.float64)
        self.nnz = int(self.indptr[-1])
        self.shape = (int(shape[0]), int(shape[1]))

    def __matmul__(self, x) -> np.ndarray:
        """A @ x for a float64 vector x of length n, as a new float64 vector.

        The compiled routine reads x[indices] unchecked, so any other operand
        is refused here rather than read out of bounds.
        """
        m, n = self.shape
        if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (n,)):
            raise ValueError(
                f"CSR mat-vec needs a float64 vector of length {n}, got "
                f"{getattr(x, 'dtype', type(x).__name__)} of shape {np.shape(x)}"
            )
        out = np.zeros(m)
        _sparsetools.csr_matvec(m, n, self.indptr, self.indices, self.data,
                                np.ascontiguousarray(x), out)
        return out

    def transpose(self) -> "CsrView":
        """The n x m transpose in CSR form (this matrix's CSC), built by a
        counting sort that keeps each new row's entries in ascending order."""
        m, n = self.shape
        indptr = np.empty(n + 1, dtype=self.indptr.dtype)
        indices = np.empty(self.nnz, dtype=self.indptr.dtype)
        data = np.empty(self.nnz)
        _sparsetools.csr_tocsc(m, n, self.indptr, self.indices, self.data, indptr, indices, data)
        return CsrView(data, indices, indptr, (n, m))
