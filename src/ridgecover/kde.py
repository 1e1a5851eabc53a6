"""Gaussian kernel density estimation with analytic derivatives.

This is the numerical substrate shared by ridge extraction and the
smoothed bootstrap: density, gradient and Hessian of an isotropic
Gaussian KDE, exact sampling from the fitted estimate, and the normal
reference bandwidth rule used as an upper cap for bandwidth search.

Every evaluation is an exact O(n) kernel sum (no tree or FFT
approximation).  All reductions run over the trailing axis of
C-contiguous arrays and never go through BLAS, so results are
bit-identical across chunk sizes and thread settings.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Queries are processed in blocks of this many rows to bound the size of
# the (chunk, n, d) difference tensor and keep it cache resident.
# Chunking does not change results.
_CHUNK = 32


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
        h = float(self.bandwidth)
        if not np.isfinite(h) or h <= 0.0:
            raise ValueError(f"bandwidth must be positive and finite, got {h}")
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


def _kernel_sums(points: np.ndarray, queries: np.ndarray, h: float, order: int):
    """Raw Gaussian sums over the data for each query row.

    With u_i = (x - X_i) / h and w_i = exp(-||u_i||^2 / 2), returns

        s0[q]       = sum_i w_i
        s1[q, a]    = sum_i w_i u_i[a]          (order >= 1)
        s2[q, a, b] = sum_i w_i u_i[a] u_i[b]   (order >= 2)

    Normalization constants are left to the callers.  Each reduction is
    a pairwise sum over the trailing axis of a C-contiguous array, so
    the per-row results do not depend on the chunk layout.
    """
    nq, d = queries.shape
    n = points.shape[0]
    s0 = np.empty(nq)
    s1 = np.empty((nq, d)) if order >= 1 else None
    s2 = np.empty((nq, d, d)) if order >= 2 else None
    # Scratch buffers reused across chunks; all products are written
    # in place, so the values and reduction order match the naive
    # broadcast-and-sum formulation bit for bit.
    c_max = min(_CHUNK, nq)
    diff = np.empty((c_max, n, d))
    w = np.empty((c_max, n))
    tmp = np.empty((c_max, n))
    prod = np.empty((c_max, n)) if order >= 1 else None
    for start in range(0, nq, _CHUNK):
        sl = slice(start, min(start + _CHUNK, nq))
        c = sl.stop - start
        dv, wv, tv = diff[:c], w[:c], tmp[:c]
        np.subtract(queries[sl, None, :], points[None, :, :], out=dv)
        dv /= h
        # ||u||^2 accumulated coordinate by coordinate (d is small, so
        # this matches a trailing-axis pairwise sum exactly)
        np.multiply(dv[:, :, 0], dv[:, :, 0], out=wv)
        for a in range(1, d):
            np.multiply(dv[:, :, a], dv[:, :, a], out=tv)
            wv += tv
        wv *= -0.5
        np.exp(wv, out=wv)
        s0[sl] = np.sum(wv, axis=1)
        if order >= 1:
            pv = prod[:c]
            for a in range(d):
                np.multiply(wv, dv[:, :, a], out=pv)
                s1[sl, a] = np.sum(pv, axis=1)
                if order >= 2:
                    for b in range(a, d):
                        np.multiply(pv, dv[:, :, b], out=tv)
                        v = np.sum(tv, axis=1)
                        s2[sl, a, b] = v
                        if b != a:
                            s2[sl, b, a] = v
    return s0, s1, s2


def _norm_const(n: int, d: int, h: float) -> float:
    return (2.0 * np.pi) ** (-0.5 * d) / (n * h**d)


def density(model: KernelModel, x):
    """Evaluate the KDE at ``x``.

    p(x) = (2 pi)^(-d/2) / (n h^d) * sum_i exp(-||x - X_i||^2 / (2 h^2))

    ``x`` may be a single d-vector or a (Q, d) batch; returns a float or
    a (Q,) array accordingly.  Always nonnegative.
    """
    q, single = _as_queries(model, x)
    s0, _, _ = _kernel_sums(model.data.points, q, model.bandwidth, order=0)
    out = s0 * _norm_const(model.n, model.d, model.bandwidth)
    return float(out[0]) if single else out


def gradient(model: KernelModel, x):
    """Analytic gradient of the KDE at ``x``.

    grad p(x) = -(2 pi)^(-d/2) / (n h^(d+1)) * sum_i w_i u_i.
    Accepts a single d-vector or a (Q, d) batch.
    """
    q, single = _as_queries(model, x)
    _, s1, _ = _kernel_sums(model.data.points, q, model.bandwidth, order=1)
    out = s1 * (-_norm_const(model.n, model.d, model.bandwidth) / model.bandwidth)
    return out[0] if single else out


def hessian(model: KernelModel, x):
    """Analytic Hessian of the KDE at ``x``.

    H(x) = (2 pi)^(-d/2) / (n h^(d+2)) * sum_i w_i (u_i u_i^T - I).
    Symmetric by construction.  Accepts a single d-vector or a batch.
    """
    q, single = _as_queries(model, x)
    h = model.bandwidth
    s0, _, s2 = _kernel_sums(model.data.points, q, h, order=2)
    eye = np.eye(model.d)
    out = (s2 - s0[:, None, None] * eye) * (_norm_const(model.n, model.d, h) / h**2)
    return out[0] if single else out


def sample_smoothed(model: KernelModel, m: int, rng: np.random.Generator) -> PointCloud:
    """Draw ``m`` exact samples from the fitted Gaussian KDE.

    Each sample is a uniformly resampled data point plus h times a
    standard Gaussian d-vector; this is the exact sampler for a Gaussian
    mixture with equal weights.  Reproducible given a seeded ``rng``.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    idx = rng.integers(0, model.n, size=m)
    noise = rng.standard_normal((m, model.d))
    return PointCloud(model.data.points[idx] + model.bandwidth * noise)


def normal_reference_bandwidth(data: PointCloud) -> float:
    """Normal reference (Silverman) bandwidth for a d-dimensional cloud.

        h = sigma * (4 / ((d + 2) n))^(1 / (d + 4))

    with sigma the mean of the per-coordinate sample standard deviations
    (ddof=1).  Deterministic, strictly positive, and decreasing in n;
    used as an upper cap on bandwidth grids because it oversmooths.
    """
    if data.n < 2:
        raise ValueError(f"need at least 2 points, got n={data.n}")
    sigma = float(np.mean(np.std(data.points, axis=0, ddof=1)))
    if sigma <= 0.0:
        raise ValueError("all coordinates have zero variance")
    n, d = data.n, data.d
    return sigma * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))
