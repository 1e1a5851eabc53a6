"""Gaussian kernel density estimation with analytic derivatives.

This is the numerical substrate shared by ridge extraction and the
smoothed bootstrap: density, gradient and Hessian of an isotropic
Gaussian KDE, exact sampling from the fitted estimate, and the normal
reference bandwidth rule used as an upper cap for bandwidth search.

Every evaluation is a kernel sum truncated at a cutoff of
c = 7.4 bandwidths (exp(-c^2/2) ~ 1.3e-12): the data are binned into
sub-cells of side c*h/2, and a query sums only over the box of sub-cells
within two of its own along each split axis (the linked-cell method of
molecular dynamics).  An axis is split when the data occupy at least
five sub-cells on it, the width of the box; along the others every
point is a candidate.  Each leftover term has |u| > c along some axis,
so n points change s0 by at most n e^(-c^2/2), and the gradient and
Hessian sums by at most n c e^(-c^2/2) and n c^2 e^(-c^2/2), plus
round-off.  A query with no data in its box gets exactly zero density.
When no axis is split, the whole call instead runs exactly over all
the data.  That choice depends only on the data and h.  A
:class:`KernelModel` bins its data once, when first evaluated, and
every later sum on that model reuses the same cells.  Binning also
tabulates, for each occupied sub-cell, where the runs of its box lie in
the sorted data, so a query in an occupied sub-cell finds its box with
one binary search and a gather instead of two searches per box row.

Both paths gather blocks of at most about ``_PAIR_BLOCK`` terms and hand
them to one routine for the Gaussian moments.  Every row is reduced on
its own (a pairwise sum over a C-contiguous trailing axis on the dense
path, one ``np.add.reduceat`` segment holding only that row's terms on
the truncated one) and never through BLAS, so a row's value depends
only on the data, h and that query: results are bit-identical across
block sizes, batch make-up and thread settings.  Each moment component
is reduced straight into its row of one stacked (m, queries) buffer,
m = 10 at order 2 in d = 3; a block fills its columns with one
assignment, and a call splits the buffer into s0 to s2 once.  The
buffer only decides where a sum is stored, never which terms it adds
or in what order, so stacking leaves every row independent of the
block it was computed in.

SCMS steps the rows of several fits in one batch, so one call may sum
rows of several models: a :class:`_Stack` lays their data side by side,
each row takes its own model's path, and truncated rows of different
models share blocks, each term divided by its own row's h.  A row gets
the bits it gets in a call on its model alone.

The per-term scratch of the blocks, (3 + d) floats a term and an index
ramp, comes from a grow-only :class:`_Workspace`.  A caller that sums
many times, as SCMS does once per step batch, passes one workspace to
every call, so the scratch is allocated once per group of fits instead
of once per call and lookup chunk; otherwise each call makes its own.
The scratch is written before it is read, so reusing it changes no bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._io import write_csv

__all__ = [
    "PointCloud",
    "KernelModel",
    "density",
    "gradient",
    "hessian",
    "sample_smoothed",
    "normal_reference_bandwidth",
]

# Cutoff in bandwidths, two sub-cell sides.  Only terms from beyond a
# query's box of sub-cells, so more than this many bandwidths away along
# some axis, are dropped: exp(-7.4**2 / 2) ~ 1.3e-12, and exp is slow
# below about 1e-308.
_CUTOFF = 7.4

# Most (query, point) terms evaluated at once, on both paths: the
# truncated path fills a block with whole rows of candidates, the dense
# path takes max(1, _PAIR_BLOCK // n) rows of all n points, and a longer
# row forms a block of its own, so a block holds at most 128 KiB per
# array unless n > 2^14.  Order-2 pair sums timed alike from 2^13 to 2^15
# terms (2 cores); 2^12 paid more per-call overhead, and 2^16 raised the
# peak RSS of a circle-and-helix fit sequence by 6 MiB more than 2^14
# did.  On the dense path, blocks of this budget ran order-2 sums 1.15-3x
# faster than 32-row blocks of (rows, n, d) offsets (d = 2 and 3, n = 300
# and 2000, 1 to 500 rows; 2 cores), and extract_ridge on 2000-point
# circles at h = 0.4, all dense, took 0.67 s against 1.44 s.  It also
# sizes the workspace: (3 + d) floats and one index per term of the
# largest block, 896 KiB in d = 3 unless a single row holds more terms.
_PAIR_BLOCK = 1 << 14

# Queries are looked up this many rows at a time, and the box table is
# built this many occupied sub-cells at a time.  This bounds the
# (rows, 5^(k-1)) arrays of box runs gathered from the table, and the
# int64 binary-search temporaries of the misses and of the table build,
# which for a grid mesh of up to scms._MAX_GRID_POINTS = 10^6 queries in
# d=3 (25 box rows) would otherwise take hundreds of MiB.  On the helix
# (d=3) select run, 256 rows peaked 1 MiB below 1024 rows, with order-2
# sums timed alike; that was measured before the table, with every row
# searched.
_LOOKUP_ROWS = 256

# An axis is split when the data occupy at least this many sub-cells on
# it, the width of a query's box; along a narrower axis every point is a
# candidate.  Waiting for 6 or 7 sub-cells (7 was the earlier rule) left
# 1200-point helices at h = 0.12 and 0.15 split on z alone, with 62-73%
# of all pairs in the boxes instead of 28-43%, and their kernel sums of
# the data at the data, up to third moments, took 1.5-1.8x as long (CPU
# time, 2 cores).  That was timed while the SCMS step still summed third
# moments; it sums to second order now and was not timed again.  A
# smaller value would send more wide-bandwidth fits to the cells path,
# where 750-point spiral halves at h = 0.29-0.38 already run their whole
# SCMS fit 1.09-1.27x slower than dense.
_SPLIT_SUBCELLS = 5


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
    n, d = pts.shape
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    return pts


def _count(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int, refused unless it is a whole number in [lo, hi] (3.0 passes)."""
    bound = f">= {lo}" if hi is None else f">= {lo} and <= {hi}"
    if not (isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer {bound}, got {value}")
    if value < lo or hi is not None and value > hi:
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _real(value, name: str, rule: str, accept) -> float:
    """``value`` as a float, refused with "``name`` must be ``rule``" unless it
    is a real number that ``accept`` takes.  An integer too large for a
    float counts as infinite, and a string is refused."""
    x = math.nan
    if isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf if value > 0 else -math.inf
    if not accept(x):
        raise ValueError(f"{name} must be {rule}, got {value}")
    return x


def _positive(value, name: str) -> float:
    """``value`` as a float, refused unless it is a real number in (0, inf)."""
    return _real(value, name, "positive and finite", lambda x: 0.0 < x < math.inf)


def _nonnegative(value, name: str) -> float:
    """``value`` as a float, refused unless it is a real number in [0, inf)."""
    return _real(value, name, "nonnegative and finite", lambda x: 0.0 <= x < math.inf)


def _fraction(value, name: str) -> float:
    """``value`` as a float, refused unless it is a real number in [0, 1]."""
    return _real(value, name, "in [0, 1]", lambda x: 0.0 <= x <= 1.0)


@dataclass(frozen=True)
class PointCloud:
    """Immutable n x d array of sample points.

    Coordinates are unitless and live in the caller's coordinate system.
    A 1-D input array is treated as n points in d=1.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n

    def save_csv(self, path) -> None:
        """Write the cloud as CSV, one row per point, round-tripping bit-exactly."""
        write_csv(path, [f"x{a}" for a in range(self.d)], self.points.tolist())


@dataclass(frozen=True)
class KernelModel:
    """A point cloud plus bandwidth: the fitted density estimate.

    The kernel is Gaussian; ``bandwidth`` is a single isotropic scale in
    the same units as the coordinates.  A bandwidth is rejected when the
    density, gradient or Hessian scale (``norm``, ``norm/h``,
    ``norm/h**2``) is not a finite float, since no estimate exists there.
    """

    data: PointCloud
    bandwidth: float

    def __post_init__(self):
        h = _positive(self.bandwidth, "bandwidth")
        try:  # h**d can underflow to 0 or overflow
            norm = _norm_const(self.data.n, self.data.d, h)
            finite = all(np.isfinite(s) for s in (norm, norm / h, norm / h**2))
        except ArithmeticError:
            finite = False
        if not finite:
            raise ValueError(
                f"bandwidth {h} gives no finite density scale for n={self.data.n}, "
                f"d={self.data.d}"
            )
        object.__setattr__(self, "bandwidth", h)

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def d(self) -> int:
        return self.data.d

    @functools.cached_property
    def cells(self) -> "_Cells | None":
        """The binned data every kernel sum of this model reuses; built once."""
        return _Cells.build(self.data.points, self.bandwidth)


def _as_queries(model: KernelModel, x):
    """Validate query points; return ((Q, d) array, was_single flag)."""
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.ndim != 2 or q.shape[1] != model.d:
        raise ValueError(
            f"query dimension mismatch: model is d={model.d}, got shape {np.shape(x)}"
        )
    if not np.all(np.isfinite(q)):
        raise ValueError("query contains non-finite coordinates")
    return q, single


def _as_vector(x, d: int) -> np.ndarray:
    """Validate a single query point; return it as a finite (d,) array."""
    q = np.asarray(x, dtype=float)
    if q.ndim != 1 or q.shape[0] != d:
        raise ValueError(f"expected a d={d} vector, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query contains non-finite coordinates")
    return q


# Default of ``_kernel_sums(cells=...)``: bin the data in this call.
_UNBUILT = object()


class _Workspace:
    """Grow-only scratch for the per-term arrays of kernel sums.

    Both paths carve the moment scratch and the offsets dv of every block
    from :meth:`floats`, (3 + d) floats per term, and the truncated path
    offsets its gather indices by :meth:`ramp` instead of a fresh
    ``np.arange``.  Block-sized arrays made afresh for each call let the
    heap shrink and grow again between calls, and every page they touched
    was a page fault: about 205k faults and 0.26-0.55 s of system time in
    one smoothed-bootstrap ``select`` on a 1200-point helix, against 8.5k
    faults with one workspace per fit.  A workspace serves one caller at
    a time; it is not thread-safe.
    """

    __slots__ = ("_floats", "_ramp")

    def __init__(self):
        self._floats = np.empty(0)
        self._ramp = np.arange(0)

    def floats(self, size: int) -> np.ndarray:
        """A 1-D scratch of ``size`` floats, contents undefined."""
        if self._floats.size < size:
            self._floats = np.empty(size)
        return self._floats[:size]

    def ramp(self, size: int) -> np.ndarray:
        """The read-only integers 0, 1, ..., size - 1."""
        if self._ramp.size < size:
            self._ramp = np.arange(size)
            self._ramp.setflags(write=False)
        return self._ramp[:size]


@functools.cache
def _layout(d: int, order: int) -> tuple:
    """Rows of the stacked moment buffer: (m, maps).

    :func:`_moments` reduces its m moment components, up to ``order``, in
    the order s0, then for each a: s1[a] followed by s2[a, b] for each
    b >= a.  Row k of a stacked (m, rows) buffer holds component k.
    ``maps[j - 1]``, of shape (d,) * j, gives the buffer row of every
    entry of s_j, so that both orders of an index pair share one row.
    """
    keys = [()]
    for a in range(d):
        keys.append((a,))
        keys.extend((a, b) for b in range(a, d))
    keys = [key for key in keys if len(key) <= order]
    maps = [np.empty((d,) * j, dtype=np.intp) for j in range(1, order + 1)]
    for row, key in enumerate(keys[1:], start=1):
        for index in itertools.permutations(key):
            maps[len(key) - 1][index] = row
    for m in maps:
        m.setflags(write=False)
    return len(keys), tuple(maps)


def _unstack(buf: np.ndarray, d: int, order: int) -> tuple:
    """The result tuple of :func:`_kernel_sums` from a stacked (m, nq) buffer.

    The ``order + 1`` sums; s1 and up are gathered into fresh
    C-contiguous (nq, d, ...) arrays.
    """
    t = buf.T
    return (buf[0], *[t.take(m, axis=1) for m in _layout(d, order)[1]])


def _kernel_sums(points: np.ndarray, queries: np.ndarray, h, order: int,
                 *, cells=_UNBUILT, work: _Workspace | None = None):
    """Raw Gaussian sums over the data near each query row.

    With u_i = (x - X_i) / h and w_i = exp(-||u_i||^2 / 2), returns

        s0[q]       = sum_i w_i
        s1[q, a]    = sum_i w_i u_i[a]          (order >= 1)
        s2[q, a, b] = sum_i w_i u_i[a] u_i[b]   (order 2)

    The ``order + 1`` sums s0 to s_order come back as a tuple.
    Normalization constants are left to the callers.  The
    data are binned into sub-cells of side ``_CUTOFF * h / 2``, and each row sums
    only over the data in the box of sub-cells within two of its own on
    every split axis (see :class:`_Cells` for the bound on what is left
    out).  ``cells`` holds that binning of ``points`` at ``h``; callers
    with a :class:`KernelModel` pass its ``cells``, built once per
    model, and without it the data are binned here.  Candidates run as flat
    (query, point) pairs in blocks of about ``_PAIR_BLOCK``, through the
    same moment arithmetic as :func:`_dense_sums` (:func:`_moments`) with
    one ``np.add.reduceat`` segment per row; a row without candidates
    gets exact zeros.  A segment's reduction depends only on its contents, so
    each row depends only on the data, h and that row, never on the
    block size or the rest of the batch.

    Every component lands in one row of a single (m, nq) buffer (m = 10
    at order 2 in d = 3, see :func:`_layout`): each block is scattered
    into it with one assignment, and the call splits it into s0 to s2
    once at the end, so a block's fixed cost does not grow with the
    number of components and their permutations.

    The whole call is instead the exact sum over all the data
    (:func:`_dense_sums`) when the data occupy fewer than five sub-cells
    on every axis or the sub-cell indices would not be exact.

    The rows may also belong to several models, as when SCMS steps the
    rows of several fits at once: ``cells`` is then a :class:`_Stack` of
    the models bound to the rows (:meth:`_Stack.rows`), ``points`` the
    stack's data and ``h`` each row's bandwidth.  Each row gets the bits
    it would get summed alone on its own model.

    ``work`` is the :class:`_Workspace` the per-term scratch comes from;
    without it the call makes its own.
    """
    if isinstance(cells, _Rows):
        return _stack_sums(cells.stack, cells.fit, queries, h, order, work)
    if cells is _UNBUILT:
        cells = _Cells.build(points, h)
    return _stack_sums(_Stack.build([(points, cells)]), None, queries, h, order, work)


class _Cells(NamedTuple):
    """The data sorted into a grid of cubic sub-cells of side ``_CUTOFF * h / 2``.

    The grid is anchored at the data minimum, with c = _CUTOFF.  Only axes
    on which the data occupy at least ``_SPLIT_SUBCELLS`` = 5 sub-cells,
    the width of a box, are split; along the others every point is a
    candidate.  On a split axis the occupied sub-cells are rounded up to
    whole cells of side c h, and a ring of three empty sub-cells pads
    each side.  A query's candidates are the data in the box of 5^k sub-cells
    within two of its own on every split axis.  Keys run row-major, with
    stride 1 on the last split axis, so each of the box's 5^(k-1) rows is
    one merged run of keys [key-2, key+2] found by two binary searches.
    A query outside the data is clipped to the innermost sub-cell of the
    ring, so its box stays on the grid.

    The runs of a box are a function of its centre key alone, so ``build``
    tabulates them once for every occupied sub-cell: ``box_first`` and
    ``box_count`` hold the runs of the sub-cell ``occupied[j]`` in row j.
    A query whose key is occupied, as every data point's is, gathers its
    row; any other key (an empty sub-cell, a clipped query, a grid-mesh
    point) is searched as it would be without the table.  The table
    takes 2 * 5^(k-1) int32 entries per occupied sub-cell (int64 beyond
    2^31 points), at most 200 bytes a data point in d = 3.

    A point outside a query's box lies more than two sub-cells, so more
    than c bandwidths, from it on some axis: |u| > c, and what each row
    leaves out is at most

        |ds0| <= n e^(-c^2/2),  |ds1| <= n c e^(-c^2/2),
        |ds2| <= n c^2 e^(-c^2/2)

    (x^k e^(-x^2/2) decreases beyond sqrt k), plus
    round-off in the cell indices.  The box lies within the 3^k cells of
    side c h around the query's cell, so it never holds more candidates
    than they do.  Clipped queries may get far candidates too; their
    terms are computed exactly.
    """

    lo: np.ndarray  # (k,) grid origin on the split axes
    side: float  # sub-cell side, c h / 2
    axes: np.ndarray  # (k,) indices of the split axes
    hi_cell: np.ndarray  # (k,) largest sub-cell index a query is clipped to
    strides: np.ndarray  # (k,) row-major strides of the linear sub-cell key
    offsets: np.ndarray  # (5^(k-1),) key offsets of the box rows, ascending
    keys: np.ndarray  # (n,) sorted sub-cell keys of the data
    sorted_t: np.ndarray  # (d, n) data coordinates in key order, one row per axis
    occupied: np.ndarray  # (u,) the distinct keys, ascending
    box_first: np.ndarray  # (u, 5^(k-1)) first sorted index of each box row
    box_count: np.ndarray  # (u, 5^(k-1)) points in each box row

    @classmethod
    def build(cls, points: np.ndarray, h: float) -> "_Cells | None":
        """Bin the data and tabulate the occupied boxes; None when the
        whole call should go dense."""
        side = 0.5 * _CUTOFF * h
        lo = points.min(axis=0)
        cell = np.floor((points - lo) / side)
        top = cell.max(axis=0)
        axes = np.flatnonzero(top >= _SPLIT_SUBCELLS - 1)
        # The occupied sub-cells rounded up to whole cells of side c h, and
        # the padding ring: a clipped query's box stays in its 3^k cells.
        dims = 2.0 * np.floor(top[axes] / 2.0) + 8.0
        # Sub-cell keys must be exact in float64 and in int64.
        if axes.size == 0 or dims.max() > 2.0**52 or math.prod(dims) > 2.0**62:
            return None
        dims = dims.astype(np.int64)
        strides = np.append(np.cumprod(dims[:0:-1])[::-1], 1)
        rows = np.array(list(itertools.product(range(-2, 3), repeat=axes.size - 1)),
                        dtype=np.int64)
        keys = (cell[:, axes].astype(np.int64) + 3) @ strides
        order = np.argsort(keys, kind="stable")  # data order kept within a sub-cell
        keys = keys[order]
        offsets = rows @ strides[:-1]
        occupied = np.unique(keys)
        index = np.int32 if keys.size < 2**31 else np.int64
        first = np.empty((occupied.size, offsets.size), dtype=index)
        count = np.empty_like(first)
        for start in range(0, occupied.size, _LOOKUP_ROWS):
            sl = slice(start, start + _LOOKUP_ROWS)
            first[sl], count[sl] = _box_runs(keys, offsets, occupied[sl])
        return cls(lo[axes], side, axes, dims - 3, strides, offsets, keys,
                   np.ascontiguousarray(points[order].T), occupied, first, count)

    def neighbours(self, queries: np.ndarray):
        """Per query and box row: first sorted index and point count."""
        cell = np.floor((queries[:, self.axes] - self.lo) / self.side) + 3.0
        cell = np.clip(cell, 2.0, self.hi_cell).astype(np.int64)
        keys = cell @ self.strides
        at = self.occupied.searchsorted(keys)
        first = self.box_first.take(at, axis=0, mode="clip")
        count = self.box_count.take(at, axis=0, mode="clip")
        miss = self.occupied.take(at, mode="clip") != keys
        if miss.any():  # data points always hit; an empty search costs ~12 us a call
            first[miss], count[miss] = _box_runs(self.keys, self.offsets, keys[miss])
        return first, count


def _box_runs(keys: np.ndarray, offsets: np.ndarray, centres: np.ndarray):
    """The box runs of each centre key: per box row, the first index in the
    sorted ``keys`` of the merged run [key - 2, key + 2] and its length."""
    rows = centres[:, None] + offsets
    first = keys.searchsorted(rows - 2, side="left")
    return first, keys.searchsorted(rows + 2, side="right") - first


class _Stack(NamedTuple):
    """The data of several kernel models, for sums whose rows mix models.

    Model j's data fill columns ``base[j]`` to ``base[j + 1]`` of
    ``data_t``, one row per axis: in key order for a truncated model, as
    its :attr:`_Cells.sorted_t`, and in data order where ``cells[j]`` is
    None and its sums run dense.  The truncated rows of a call, whatever
    their model, then gather their candidates from this one array, each
    box run shifted by its model's base, and each term is divided by its
    own row's h.  Division by an array gives each element the bits of
    division by the scalar, so mixing models changes no row's bits.  A
    stack of one model holds that model's own arrays, uncopied.
    """

    data_t: np.ndarray  # (d, N) every model's data, one row per axis
    base: np.ndarray  # (m + 1,) first column of each model, then N
    cells: tuple  # each model's _Cells, or None where its sums run dense
    width: int  # most box rows of any truncated model

    @classmethod
    def build(cls, models) -> "_Stack":
        """The stack of ``models``, pairs (points, cells) of each model's
        (n, d) data and its :meth:`_Cells.build`."""
        parts = [np.ascontiguousarray(points.T) if cells is None else cells.sorted_t
                 for points, cells in models]
        base = np.cumsum([0] + [part.shape[1] for part in parts])
        cells = tuple(cells for _, cells in models)
        width = max([c.offsets.size for c in cells if c is not None], default=0)
        data_t = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return cls(data_t, base, cells, width)

    @property
    def points(self) -> np.ndarray:
        """Every model's data as one (N, d) array, a view of ``data_t``."""
        return self.data_t.T

    def rows(self, fit: np.ndarray) -> "_Rows":
        """The stack bound to a query batch whose row r belongs to model ``fit[r]``."""
        return _Rows(self, fit)


class _Rows(NamedTuple):
    """A :class:`_Stack` and the model of each row of a query batch."""

    stack: _Stack
    fit: np.ndarray


def _stack_sums(stack: _Stack, fit, queries, h, order, work) -> tuple:
    """:func:`_kernel_sums` of rows of several models; row r belongs to model
    ``fit[r]`` (model 0 if ``fit`` is None) and has bandwidth ``h[r]``
    (``h`` itself if it is a scalar).

    Each run of consecutive rows of one model is summed on that model's
    path: dense runs whole, truncated runs through box lookups of at most
    ``_LOOKUP_ROWS`` rows, which go to one :func:`_pair_sums` call per
    ``_LOOKUP_ROWS`` rows of the batch whatever their model.  Rows grouped
    by model, as SCMS keeps them, make one run per model.
    """
    nq, d = queries.shape
    buf = np.zeros((_layout(d, order)[0], nq))
    if work is None:
        work = _Workspace()
    if fit is None:
        runs = [(0, nq, 0)]
    else:
        cut = (np.flatnonzero(fit[1:] != fit[:-1]) + 1).tolist()
        runs = [(a, b, int(fit[a])) for a, b in zip([0, *cut], [*cut, nq]) if b > a]
    truncated = []
    for a, b, j in runs:
        if stack.cells[j] is not None:
            truncated.append((a, b, j))
        else:
            _dense_rows(stack.data_t[:, stack.base[j]:stack.base[j + 1]], queries[a:b],
                        h if np.ndim(h) == 0 else h[a], order, buf[:, a:b], work)
    for start in range(0, nq if truncated else 0, _LOOKUP_ROWS):
        stop = min(start + _LOOKUP_ROWS, nq)
        parts = [(max(a, start), min(b, stop), j) for a, b, j in truncated
                 if a < stop and b > start]
        if parts:
            _truncated_rows(stack, parts, queries, h, order, buf, work)
    return _unstack(buf, d, order)


def _truncated_rows(stack: _Stack, parts, queries, h, order, buf, work) -> None:
    """Look up the boxes of the row runs ``parts``, (first, stop, model)
    triples of truncated models, and sum the rows into ``buf``.

    Box runs are shifted to the model's columns of the stack and padded
    with empty runs to the stack's widest box, which adds no term.
    """
    runs = []
    for a, b, j in parts:
        first, count = stack.cells[j].neighbours(queries[a:b])
        runs.append((first + stack.base[j] if stack.base[j] else first, count))
    if len(parts) == 1:
        (a, b, _), (first, count) = parts[0], runs[0]
        rows = np.arange(a, b)
        if np.ndim(h):
            h = h[a]
    else:
        rows = np.concatenate([np.arange(a, b) for a, b, _ in parts])
        first = np.zeros((rows.size, stack.width), dtype=np.int64)
        count = np.zeros_like(first)
        at = 0
        for f, c in runs:
            first[at:at + len(f), :f.shape[1]] = f
            count[at:at + len(f), :f.shape[1]] = c
            at += len(f)
        if np.ndim(h):
            h = h[rows]
    near = count.any(axis=1)
    if not near.all():  # the other rows keep their zeros
        rows, first, count = rows[near], first[near], count[near]
        if np.ndim(h):
            h = h[near]
    _pair_sums(stack.data_t, queries, h, order, buf, rows, first, count, work)


def _pair_sums(sorted_t, queries, h, order, buf, rows, first, count,
               work: _Workspace) -> None:
    """Sum ``rows`` of ``queries`` over their candidates only, into columns
    ``rows`` of the stacked buffer ``buf``.

    Candidates run through the box rows in key order, and through each
    sub-cell in data order; ``first`` indexes the columns of ``sorted_t``.
    ``h`` is one bandwidth, or one per row of ``rows``.  A block holds
    whole rows.
    """
    total = count.sum(axis=1)
    ptr = np.concatenate(([0], total.cumsum()))
    d = queries.shape[1]
    # the moments' scratch and dv for the largest possible block, so that a
    # workspace shared by the calls of a fit is allocated once; only the
    # pages a block uses are touched
    scratch = work.floats((3 + d) * max(_PAIR_BLOCK, total.max(initial=0)))
    r = 0
    while r < rows.size:
        stop = max(int(ptr.searchsorted(ptr[r] + _PAIR_BLOCK, side="right")) - 1, r + 1)
        sel = rows[r:stop]
        cnt = count[r:stop].ravel()
        # flat index p of run j maps to first_j + (p - start of run j)
        shift = first[r:stop].ravel() - (cnt.cumsum() - cnt)
        idx = shift.repeat(cnt)
        terms = idx.size
        idx += work.ramp(terms)
        seg = ptr[r:stop] - ptr[r]
        dv = scratch[3 * terms:(3 + d) * terms].reshape(d, terms)
        # mode="clip" lets take write into dv unbuffered; every index is in range
        sorted_t.take(idx, axis=1, out=dv, mode="clip")
        np.subtract(queries.T[:, sel].repeat(total[r:stop], axis=1), dv, out=dv)
        local = np.empty((buf.shape[0], sel.size))
        scale = h if np.ndim(h) == 0 else h[r:stop].repeat(total[r:stop])
        _moments(dv, scale, order, functools.partial(np.add.reduceat, indices=seg), local,
                 scratch[:3 * terms].reshape(3, terms))
        buf[:, sel] = local
        r = stop


def _dense_sums(points: np.ndarray, queries: np.ndarray, h: float, order: int,
                work: _Workspace | None = None):
    """Exact :func:`_kernel_sums` over all the data (see :func:`_dense_rows`)."""
    return _kernel_sums(points, queries, h, order, cells=None, work=work)


def _dense_rows(points_t: np.ndarray, queries: np.ndarray, h: float, order: int,
                buf: np.ndarray, work: _Workspace) -> None:
    """Exact sums of ``queries`` over all the data ``points_t`` (d, n), into ``buf``.

    A block holds ``max(1, _PAIR_BLOCK // n)`` whole rows, each reduced
    by a pairwise sum over a contiguous (rows, n) plane per coordinate,
    so the per-row results do not depend on the block layout.  The
    blocks' scratch comes from ``work``.
    """
    nq = queries.shape[0]
    d, n = points_t.shape
    queries_t = np.ascontiguousarray(queries.T)
    step = max(1, _PAIR_BLOCK // n)
    reduce = functools.partial(np.add.reduce, axis=-1)
    shape = (3 + d, min(step, nq), n)  # scratch, then dv
    scratch = work.floats(math.prod(shape)).reshape(shape)
    for start in range(0, nq, step):
        sl = slice(start, min(start + step, nq))
        block = scratch[:, :sl.stop - start]
        dv = np.subtract(queries_t[:, sl, None], points_t[:, None, :], out=block[3:])
        _moments(dv, h, order, reduce, buf[:, sl], block[:3])


def _moments(dv: np.ndarray, h, order: int, reduce, buf: np.ndarray,
             work: np.ndarray) -> None:
    """The Gaussian moments of one block of terms, into the stacked ``buf``.

    ``dv`` holds the offsets x - X_i with the axis first, shape (d, ...),
    and is scaled to u in place by ``h``, one bandwidth or one per term.
    ``reduce(arr, out=row)`` sums each query's terms of a weight or
    product array into ``row``; component k of :func:`_layout` goes to
    ``buf[k]``, so ``buf`` is (m, rows).
    ||u||^2 accumulates coordinate by coordinate, and every product is
    written in place, so a row's value depends only on its terms and on
    ``reduce``; which row of ``buf`` receives it changes no bit.

    ``work`` holds three scratch arrays of the shape of ``dv[0]``.  The
    callers carve it and ``dv`` from one :class:`_Workspace`, reused by
    every block: fresh block-sized arrays for each block let the heap
    shrink and grow again between blocks, and every page of every block
    was a page fault (117k per three dense circle fits at h = 0.4).
    """
    rows = iter(buf)
    w, tmp, pv = work
    d = dv.shape[0]
    dv /= h
    np.multiply(dv[0], dv[0], out=w)
    for a in range(1, d):
        np.multiply(dv[a], dv[a], out=tmp)
        w += tmp
    w *= -0.5
    np.exp(w, out=w)
    reduce(w, out=next(rows))
    if order >= 1:
        for a in range(d):
            np.multiply(w, dv[a], out=pv)
            reduce(pv, out=next(rows))
            if order < 2:
                continue
            for b in range(a, d):
                np.multiply(pv, dv[b], out=tmp)
                reduce(tmp, out=next(rows))


def _norm_const(n: int, d: int, h: float) -> float:
    return (2.0 * np.pi) ** (-0.5 * d) / (n * h**d)


def density(model: KernelModel, x):
    """Evaluate the KDE at ``x``.

    p(x) = (2 pi)^(-d/2) / (n h^d) * sum_i exp(-||x - X_i||^2 / (2 h^2))

    ``x`` may be a single d-vector or a (Q, d) batch; returns a float or
    a (Q,) array accordingly.  Always nonnegative.
    """
    q, single = _as_queries(model, x)
    (s0,) = _kernel_sums(model.data.points, q, model.bandwidth, order=0, cells=model.cells)
    out = s0 * _norm_const(model.n, model.d, model.bandwidth)
    return float(out[0]) if single else out


def gradient(model: KernelModel, x):
    """Analytic gradient of the KDE at ``x``.

    grad p(x) = -(2 pi)^(-d/2) / (n h^(d+1)) * sum_i w_i u_i.
    Accepts a single d-vector or a (Q, d) batch.
    """
    q, single = _as_queries(model, x)
    _, s1 = _kernel_sums(model.data.points, q, model.bandwidth, order=1, cells=model.cells)
    out = s1 * (-_norm_const(model.n, model.d, model.bandwidth) / model.bandwidth)
    return out[0] if single else out


def hessian(model: KernelModel, x):
    """Analytic Hessian of the KDE at ``x``.

    H(x) = (2 pi)^(-d/2) / (n h^(d+2)) * sum_i w_i (u_i u_i^T - I).
    Symmetric by construction.  Accepts a single d-vector or a batch.
    """
    q, single = _as_queries(model, x)
    h = model.bandwidth
    s0, _, s2 = _kernel_sums(model.data.points, q, h, order=2, cells=model.cells)
    eye = np.eye(model.d)
    out = (s2 - s0[:, None, None] * eye) * (_norm_const(model.n, model.d, h) / h**2)
    return out[0] if single else out


def sample_smoothed(model: KernelModel, m: int, rng: np.random.Generator) -> PointCloud:
    """Draw ``m`` exact samples from the fitted Gaussian KDE.

    Each sample is a uniformly resampled data point plus h times a
    standard Gaussian d-vector; this is the exact sampler for a Gaussian
    mixture with equal weights.  Reproducible given a seeded ``rng``.
    """
    m = _count(m, "m", 1)
    idx = rng.integers(0, model.n, size=m)
    noise = rng.standard_normal((m, model.d))
    return PointCloud(model.data.points[idx] + model.bandwidth * noise)


def normal_reference_bandwidth(data: PointCloud) -> float:
    """Normal reference (Silverman) bandwidth for a d-dimensional cloud.

        h = sigma * (4 / ((d + 2) n))^(1 / (d + 4))

    with sigma the mean of the per-coordinate sample standard deviations
    (ddof=1).  Deterministic, strictly positive, and decreasing in n;
    used as an upper cap on bandwidth grids because it oversmooths.  A
    spread too wide for float64 is an error, not an infinite bandwidth.
    """
    if data.n < 2:
        raise ValueError(f"need at least 2 points, got n={data.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.std(data.points, axis=0, ddof=1)
        sigma = float(np.mean(spread))
    if not np.isfinite(sigma):
        raise ValueError("the coordinate spread overflows float64: per-coordinate "
                         f"standard deviations {spread.tolist()}")
    if sigma <= 0.0:
        raise ValueError("all coordinates have zero variance")
    n, d = data.n, data.d
    return sigma * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))
