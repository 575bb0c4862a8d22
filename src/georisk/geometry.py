"""Spatial sample, regular grid and bandwidth-matrix types.

Everything here is immutable after construction and stored in double
precision; downstream bias-correction algebra is sensitive to cancellation,
so no single-precision fast path exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DataError, DuplicateLocationError

DUPLICATE_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SpatialSample:
    """n observed values at n distinct planar locations.

    Parameters
    ----------
    locations : (n, d) array of coordinates, d = 2.
    values : (n,) array of responses Y(x_i).
    """

    locations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        locs = np.atleast_2d(np.asarray(self.locations, dtype=np.float64))
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if locs.ndim != 2:
            raise DataError("locations must be an (n, d) array")
        n, d = locs.shape
        if n < 1:
            raise DataError("at least one observation is required")
        if vals.shape[0] != n:
            raise DataError(
                f"got {n} locations but {vals.shape[0]} values"
            )
        if not np.all(np.isfinite(locs)):
            raise DataError("locations contain non-finite coordinates")
        if not np.all(np.isfinite(vals)):
            raise DataError("values contain non-finite entries")
        if n > 1:
            close = _pairwise(locs) <= DUPLICATE_TOL
            np.fill_diagonal(close, False)
            if close.any():
                # the distances are symmetric, so the first close pair in
                # row-major order has i < j: the first pair in input order
                i, j = (int(k) for k in np.unravel_index(np.argmax(close), close.shape))
                raise DuplicateLocationError(
                    f"duplicate locations at indices {i} and {j} "
                    f"(separation <= {DUPLICATE_TOL:g})",
                    indices=(i, j),
                )
        object.__setattr__(self, "locations", _readonly(locs))
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def n(self) -> int:
        return self.locations.shape[0]

    @property
    def d(self) -> int:
        return self.locations.shape[1]

    def reordered(self, order) -> "SpatialSample":
        """The same observations with site ``order[k]`` as site k. ``order``
        is a permutation of range(n), which breaks none of the checks made
        at construction, so they are not repeated."""
        out = object.__new__(SpatialSample)
        for name in ("locations", "values"):
            a = getattr(self, name)[order]
            a.flags.writeable = False
            object.__setattr__(out, name, a)
        return out


@dataclass(frozen=True, eq=False)
class RegularGrid:
    """Axis-aligned grid of node centers.

    Node (i, j) sits at ``origin + (i * spacing[0], j * spacing[1])``.
    Iteration over nodes is C-ordered (last index fastest) and deterministic.
    """

    origin: tuple
    spacing: tuple
    dims: tuple

    def __post_init__(self):
        origin = tuple(float(v) for v in np.atleast_1d(self.origin))
        spacing = tuple(float(v) for v in np.atleast_1d(self.spacing))
        dims = tuple(int(v) for v in np.atleast_1d(self.dims))
        if not (len(origin) == len(spacing) == len(dims)):
            raise DataError("origin, spacing and dims must share one length")
        if any(s <= 0 for s in spacing):
            raise DataError("grid spacing must be positive")
        if any(k < 1 for k in dims):
            raise DataError("grid dims must be >= 1")
        if not all(np.isfinite(origin)) or not all(np.isfinite(spacing)):
            raise DataError("grid origin/spacing must be finite")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "dims", dims)

    @property
    def n_nodes(self) -> int:
        out = 1
        for k in self.dims:
            out *= k
        return out

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def nodes(self) -> np.ndarray:
        """All node centers as an (n_nodes, d) array in iteration order."""
        axes = [self.axis_coordinates(k) for k in range(len(self.dims))]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True, eq=False)
class BandwidthMatrix:
    """Diagonal d x d smoothing matrix diag(h_1, ..., h_d) with every h_k
    positive: one scale per axis, the space every bandwidth search covers.

    Direct construction checks the entries: finite, diagonal, then
    positive. ``diagonal`` builds one from its scales without going
    through those checks (a search grid builds hundreds of these).
    """

    entries: np.ndarray

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.entries, dtype=np.float64))
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DataError("bandwidth matrix must be square")
        if not np.all(np.isfinite(h)):
            raise DataError("bandwidth matrix must be finite")
        if np.any(h != np.diag(np.diagonal(h))):
            raise DataError("bandwidth matrix must be diagonal")
        if not np.all(np.diagonal(h) > 0.0):
            raise DataError("bandwidth matrix must be positive definite")
        object.__setattr__(self, "entries", _readonly(h))

    @classmethod
    def diagonal(cls, *scales: float) -> "BandwidthMatrix":
        """diag(scales), checking only that every scale is finite and
        positive."""
        s = [float(v) for v in scales]
        if not all(math.isfinite(v) for v in s):
            raise DataError("bandwidth matrix must be finite")
        if not all(v > 0.0 for v in s):
            raise DataError("bandwidth matrix must be positive definite")
        entries = np.zeros((len(s), len(s)))
        entries.flat[:: len(s) + 1] = s
        entries.flags.writeable = False
        h = object.__new__(cls)
        object.__setattr__(h, "entries", entries)
        return h

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def det(self) -> float:
        return float(np.linalg.det(self.entries))

    def diagonal_scales(self) -> np.ndarray:
        return self.entries.diagonal().copy()


def make_regular_grid(bounds, dims) -> RegularGrid:
    """Grid covering ``bounds`` with the first node at the lower corner and
    the last at the opposite corner.

    bounds : sequence of (min, max) pairs, one per axis.
    dims : node counts per axis (>= 1). A single-node axis sits at its min.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    dims = tuple(int(k) for k in np.atleast_1d(dims))
    if len(bounds) != len(dims):
        raise DataError("bounds and dims must share one length")
    origin = []
    spacing = []
    for (lo, hi), k in zip(bounds, dims):
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
            raise DataError(f"degenerate bounds ({lo}, {hi}); need min < max")
        if k < 1:
            raise DataError("dims must be >= 1")
        origin.append(lo)
        # a one-node axis keeps a positive (unused) step so the type invariant holds
        spacing.append((hi - lo) / (k - 1) if k > 1 else (hi - lo))
    return RegularGrid(tuple(origin), tuple(spacing), dims)


_DIST_CHUNK = 512


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # distances from coordinate differences: the Gram-matrix shortcut loses
    # absolute accuracy ~eps * scale^2 near coincident points, which would
    # defeat the 1e-12 duplicate tolerance. The squared differences are
    # added one axis at a time, in place, per chunk of rows.
    out = np.empty((a.shape[0], b.shape[0]))
    diff = np.empty((min(_DIST_CHUNK, a.shape[0]), b.shape[0]))
    for start in range(0, a.shape[0], _DIST_CHUNK):
        rows = out[start:start + _DIST_CHUNK]
        tmp = diff[: len(rows)]
        for axis in range(a.shape[1]):
            np.subtract(a[start:start + _DIST_CHUNK, axis, None], b[None, :, axis], out=tmp)
            if axis == 0:
                np.square(tmp, out=rows)
            else:
                rows += np.square(tmp, out=tmp)
        np.sqrt(rows, out=rows)
    return out


def _pairwise(locations: np.ndarray) -> np.ndarray:
    locs = np.asarray(locations, dtype=np.float64)
    d = _distances(locs, locs)
    np.fill_diagonal(d, 0.0)
    return d


def pairwise_distances(sample) -> np.ndarray:
    """Symmetric n x n matrix of Euclidean distances between sample sites.

    Accepts a SpatialSample or a raw (n, d) coordinate array.
    """
    locs = sample.locations if isinstance(sample, SpatialSample) else sample
    return _pairwise(locs)


def _same_dimension(a: np.ndarray, b: np.ndarray) -> None:
    """Raise DataError unless the (m, d) and (n, d) point arrays ``a`` and
    ``b`` share their dimension d."""
    if a.shape[1] != b.shape[1]:
        raise DataError(
            f"point sets differ in dimension: {a.shape[1]}-D against {b.shape[1]}-D"
        )


def cross_distances(points_a, points_b) -> np.ndarray:
    """(m, n) matrix of distances between two point sets of one dimension."""
    a = np.atleast_2d(np.asarray(points_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(points_b, dtype=np.float64))
    _same_dimension(a, b)
    return _distances(a, b)
