"""Set comparison geometry over point-mesh manifolds.

Manifolds are represented by finite meshes of points; the uniform
distribution over a manifold is approximated by the uniform distribution
over its mesh.  On top of nearest-point projection distances this module
builds coverage samples (distance from a random point of one set to the
other), coverage diagrams (the CDFs of those distances in both
directions), symmetric L1/L2 losses, and the Hausdorff distance, which
upper-bounds every coverage distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .kde import _as_points, _as_vector, _count

__all__ = [
    "Manifold",
    "CoverageDiagram",
    "LossPair",
    "distance_to_set",
    "coverage_samples",
    "coverage_cdf",
    "loss_pair",
    "hausdorff",
]

# Slack for the Jensen inequality check, covering float round-off when
# the distance distribution is (near-)degenerate; relative to loss2
# above 1, so that one-ulp differences pass at any scale.
_JENSEN_SLACK = 1e-12


def _check_jensen(loss1: float, loss2: float, name: str = "loss") -> None:
    """Raise unless loss1^2 <= loss2 up to round-off; an infinite loss2 passes."""
    if loss1**2 > loss2 + _JENSEN_SLACK * max(1.0, loss2):
        raise ValueError(
            f"Jensen violation: {name}1^2={loss1**2} > {name}2={loss2}"
        )


@dataclass(frozen=True)
class Manifold:
    """A manifold discretized by a nonempty (m, d) mesh of finite points."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.m


def _check_pair(a: Manifold, b: Manifold) -> None:
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")


def _nearest_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each query row to its nearest point of ``points``.

    A k-d tree locates the nearest neighbour of every query; the
    distance is then recomputed as the square root of the summed squared
    coordinate differences, so it equals a brute-force scan's
    ``sqrt(min(sum((q - p)**2)))`` bit for bit.  Raises ``ValueError``
    when a squared distance overflows, as it does between sets more than
    about 1.3e154 apart.  ``scipy.spatial`` is imported here, on the first
    call, so that importing the package does not load it.
    """
    from scipy.spatial import cKDTree

    _, idx = cKDTree(points).query(queries, k=1, workers=1)
    found = idx < len(points)  # the tree returns index n when every distance overflows
    with np.errstate(over="ignore"):
        dist = np.sqrt(np.sum((queries - points[np.where(found, idx, 0)]) ** 2, axis=1))
    if not (found.all() and np.isfinite(dist).all()):
        raise ValueError("squared distances between the point sets overflow float64; "
                         "the sets lie more than about 1.3e154 apart")
    return dist


def _both_ways(a: Manifold, b: Manifold) -> tuple[np.ndarray, np.ndarray]:
    """Distances from each mesh point of ``a`` to ``b``, and of ``b`` to ``a``."""
    _check_pair(a, b)
    return _nearest_dists(a.points, b.points), _nearest_dists(b.points, a.points)


def distance_to_set(x, s: Manifold) -> float:
    """Euclidean projection distance from a point to the mesh of ``s``."""
    return float(_nearest_dists(_as_vector(x, s.d)[None, :], s.points)[0])


def coverage_samples(
    a: Manifold,
    b: Manifold,
    rng: np.random.Generator,
    n_samples: int | None = None,
) -> np.ndarray:
    """Distances from uniformly drawn mesh points of ``a`` to ``b``.

    Draws ``n_samples`` points (default: one per mesh point of ``a``)
    uniformly with replacement.  Every sample is bounded by the
    Hausdorff distance between the two sets.
    """
    _check_pair(a, b)
    size = a.m if n_samples is None else _count(n_samples, "n_samples", 1)
    idx = rng.integers(0, a.m, size=size)
    return _nearest_dists(a.points[idx], b.points)


def coverage_cdf(a: Manifold, b: Manifold, radii) -> "CoverageDiagram":
    """Empirical coverage CDFs between two meshes on a radius grid.

    cdf_12(r) is the fraction of ``a``'s mesh within distance r of
    ``b``, and cdf_21 the reverse.  Deterministic: every mesh point is
    used, no sampling.
    """
    d_ab, d_ba = _both_ways(a, b)
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("radii must be a nonempty 1-D grid")
    if not np.all(np.isfinite(r)):
        raise ValueError(f"radii must be finite, got {r[~np.isfinite(r)][0]}")
    if np.any(r < 0.0) or np.any(np.diff(r) < 0.0):
        raise ValueError("radii must be nonnegative and nondecreasing")
    # counts, not an (R, m) mask, so memory stays O(R + m)
    cdf_12, cdf_21 = (np.sort(d).searchsorted(r, side="right") / d.size
                      for d in (d_ab, d_ba))
    return CoverageDiagram(radii=r, cdf_12=cdf_12, cdf_21=cdf_21)


def loss_pair(a: Manifold, b: Manifold) -> "LossPair":
    """Symmetric L1/L2 losses between two meshes.

    loss1 = (mean_a d(., b) + mean_b d(., a)) / 2 and loss2 is the same
    with squared distances.  Expectations run over all mesh points, so
    loss_pair(a, b) == loss_pair(b, a).
    """
    d_ab, d_ba = _both_ways(a, b)
    loss1 = 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))
    loss2 = 0.5 * (float(np.mean(d_ab**2)) + float(np.mean(d_ba**2)))
    return LossPair(loss1=loss1, loss2=loss2)


def hausdorff(a: Manifold, b: Manifold) -> float:
    """Hausdorff distance between two meshes.

    The smallest r such that each set lies within the r-dilation of the
    other; exact over the discretizations.
    """
    d_ab, d_ba = _both_ways(a, b)
    return float(max(np.max(d_ab), np.max(d_ba)))


@dataclass(frozen=True)
class CoverageDiagram:
    """Coverage CDFs of two meshes over a shared radius grid."""

    radii: np.ndarray
    cdf_12: np.ndarray
    cdf_21: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        c12 = np.asarray(self.cdf_12, dtype=float)
        c21 = np.asarray(self.cdf_21, dtype=float)
        if not (r.shape == c12.shape == c21.shape) or r.ndim != 1:
            raise ValueError("radii and CDFs must be 1-D arrays of equal length")
        for c in (c12, c21):
            if np.any(c < 0.0) or np.any(c > 1.0) or np.any(np.diff(c) < 0.0):
                raise ValueError("CDF values must be nondecreasing within [0, 1]")
        for arr, name in ((r, "radii"), (c12, "cdf_12"), (c21, "cdf_21")):
            frozen = arr.copy()
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)

    def save_csv(self, path) -> None:
        write_csv(path, ["r", "cdf_12", "cdf_21"],
                  zip(self.radii, self.cdf_12, self.cdf_21))


@dataclass(frozen=True)
class LossPair:
    """Symmetric L1/L2 loss summary; loss1^2 <= loss2 by Jensen."""

    loss1: float
    loss2: float

    def __post_init__(self):
        if self.loss1 < 0.0 or self.loss2 < 0.0:
            raise ValueError("losses must be nonnegative")
        _check_jensen(self.loss1, self.loss2)
