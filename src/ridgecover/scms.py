"""Subspace constrained mean shift (SCMS) ridge extraction.

Mesh points are iterated along the mean-shift displacement projected
onto the local normal subspace until they land on a ridge of the kernel
density estimate.  The step and the endpoint diagnostics both work in
one frame per point, built by ``_normal_frame`` from the raw kernel
sums of :mod:`ridgecover.kde`: the eigenpairs lam_k, v_k of
h^2 grad grad log p (the local inverse covariance), descending and
numbered from 0, and the coefficients m_k = E[u] . v_k of the mean
kernel offset u = (x - X_i) / h.  The mean-shift displacement is
m(x) - x = -h E[u] = h^2 grad log p.  The normal subspace is spanned
by v_1..v_{d-1}, the convention of the original algorithm: it sends
points sitting on the outer slopes of a filament inward instead of
leaving them stranded on spurious transverse crests.  Ridge membership
itself is tested on the plain density Hessian: a retained point has
lambda2 < 0 there, matching the ridge definition.

Plain SCMS, the step -h sum_{j >= 1} m_j v_j, converges only linearly:
each step shrinks the normal coefficient c_j = -h m_j by the factor
1 + kappa_j, where kappa_j is the rate at which c_j changes along v_j,
so it crawls where kappa_j is near 0, as where the density is flat
across the ridge.  Each normal coefficient with kappa_j < 0 is therefore
multiplied by min(1/(-kappa_j), 4), and at least 1: a Newton step on
c_j.  kappa_j is lam_j plus a term from the eigenbasis turning as x
moves, which needs third kernel moments (see ``_newton_scale``); with
lam_j alone the stretched step overshoots and oscillates where the
basis turns fast, at filament ends and clumps.  The factor is never
below 1 and never 0, so the fixed points, V V^T grad p = 0, are those
of plain SCMS; only which point of the ridge a trajectory ends on
changes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._io import write_csv
from .coverage import Manifold
from .kde import KernelModel, PointCloud, _as_vector, _kernel_sums, _norm_const

__all__ = [
    "DivergenceError",
    "ScmsConfig",
    "RidgeSet",
    "scms_step",
    "extract_ridge",
]

# Default stopping tolerance on the displacement norm, as a fraction of h.
DEFAULT_TOLERANCE_FACTOR = 1e-6

# Largest Newton factor on a normal step coefficient; 1/(-kappa) grows
# without bound where the density is flat across the ridge.  Over the 92
# ridge fits of the ridge_narrow, select_split and select_bootstrap
# benchmark workloads at seeds 0 and 1, plain SCMS took 2.98M
# trajectory-steps and left 93 trajectories at max_iterations.  Caps of
# 2, 4, 8 and 20 took 1.43M, 0.77M, 0.62M and 0.60M steps and left 15,
# 3, 5 and 10 there (6, 1, 4 and 9 of them stopped by plain SCMS).
_NEWTON_CAP = 4.0

# Largest grid mesh accepted.  A step sums each mesh point only over the
# data in its box of sub-cells, but once h is wide enough for the sums to
# go dense that box is all n points: a step costs (mesh points) x n
# kernel terms, and a larger grid would not finish in useful time.
# Memory grows with the mesh too, since each step holds the iterates,
# their kernel sums and Hessian eigenvectors for the whole active mesh
# (only the box lookups are bounded, by kde._LOOKUP_ROWS).  The check
# runs before the mesh is allocated.
_MAX_GRID_POINTS = 1_000_000


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the support of the estimate.

    Happens when the kernel sum is zero at the query, so the mean-shift
    target is undefined: no data lie in the query's box of sub-cells
    (see :mod:`ridgecover.kde`), which reaches between 7.4*h and 11.1*h
    from the query along each axis, or every kernel term underflows."""


@dataclass(frozen=True)
class ScmsConfig:
    """Knobs for the SCMS iteration.

    ``tolerance`` is the stopping threshold on the displacement norm per
    step; ``None`` means 1e-6 * h, resolved when the bandwidth is known.
    ``mesh`` selects the initial points: ``"data"`` starts one
    trajectory per data point, ``"grid"`` builds an axis-aligned grid
    over the data bounding box with spacing <= ``grid_resolution`` and
    at most 10**6 points.
    Retained ridge points must have density at least
    ``density_threshold_fraction`` times the maximum fitted density.
    """

    max_iterations: int = 500
    tolerance: float | None = None
    mesh: str = "data"
    grid_resolution: float | None = None
    density_threshold_fraction: float = 0.05

    def __post_init__(self):
        if int(self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        if self.tolerance is not None and not (float(self.tolerance) > 0.0):
            raise ValueError("tolerance must be positive")
        if self.mesh not in ("data", "grid"):
            raise ValueError(f"mesh must be 'data' or 'grid', got {self.mesh!r}")
        if self.mesh == "grid":
            if self.grid_resolution is None or not (float(self.grid_resolution) > 0.0):
                raise ValueError("grid mesh requires a positive grid_resolution")
        if not 0.0 <= float(self.density_threshold_fraction) <= 1.0:
            raise ValueError("density_threshold_fraction must be in [0, 1]")

    def resolved_tolerance(self, h: float) -> float:
        if self.tolerance is not None:
            return float(self.tolerance)
        return DEFAULT_TOLERANCE_FACTOR * h


@dataclass(frozen=True)
class RidgeSet:
    """Retained ridge points: the discretized ridge estimate.

    Row i of ``positions`` (k, d) is a converged SCMS endpoint, in mesh
    order; ``density``, ``projected_gradient_norm``, ``lambda2`` and
    ``iterations`` hold its diagnostics as length-k arrays.  Every
    retained point has a negative second Hessian eigenvalue and density
    >= ``density_threshold`` (an absolute value, already scaled from the
    configured fraction).  An empty set keeps ``positions`` of shape
    (0, d) and flags that every trajectory diverged or was filtered;
    callers treat that as a sentinel, not an error.
    """

    positions: np.ndarray
    density: np.ndarray
    projected_gradient_norm: np.ndarray
    lambda2: np.ndarray
    iterations: np.ndarray
    bandwidth: float
    density_threshold: float
    source_size: int

    def __post_init__(self):
        k = len(self.positions)
        columns = (self.density, self.projected_gradient_norm, self.lambda2, self.iterations)
        if np.ndim(self.positions) != 2 or any(np.shape(c) != (k,) for c in columns):
            raise ValueError("ridge arrays must have one row per retained point")
        if np.any(self.density < self.density_threshold):
            raise ValueError("a retained density lies below density_threshold")

    def __len__(self) -> int:
        return len(self.positions)

    def to_manifold(self) -> Manifold:
        if len(self) == 0:
            raise ValueError("empty ridge set has no manifold representation")
        return Manifold(self.positions)

    def save_csv(self, path) -> None:
        """Write positions plus per-point diagnostics as CSV."""
        cols = [f"x{a}" for a in range(self.positions.shape[1])]
        cols += ["density", "projected_gradient_norm", "lambda2"]
        table = np.column_stack(
            [self.positions, self.density, self.projected_gradient_norm, self.lambda2]
        )
        write_csv(path, cols, table.tolist())

    def metadata(self, cfg: ScmsConfig | None = None) -> dict:
        meta = {
            "bandwidth": self.bandwidth,
            "density_threshold": self.density_threshold,
            "source_size": self.source_size,
            "n_ridge_points": len(self),
        }
        if cfg is not None:
            meta["config"] = asdict(cfg)
        return meta


def _normal_frame(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray):
    """The SCMS frame at each query, from raw kernel sums: (lam, vec, m).

    With u = (x - X_i) / h and E the mean over the kernel weights,
    h^2 grad grad log p = E[u u^T] - I - E[u] E[u]^T, a weighted
    covariance of the bounded kernel offsets minus I, so it stays well
    conditioned even where the density is close to underflow and its
    eigenvalues are >= -1.  ``lam`` (q, d) holds them descending, the
    columns of ``vec`` (q, d, d) the matching eigenvectors, and
    m_k = E[u] . v_k, so the mean-shift step m(x) - x = -h E[u] has
    coefficient -h m_k along v_k.  Eigenvector signs are left as
    ``eigh`` returns them: every use takes an even number of factors
    v_k, so flipping one changes no result, not even by rounding.
    """
    d = s1.shape[1]
    mu = s1 / s0[:, None]
    mat = s2 / s0[:, None, None] - np.eye(d) - mu[:, :, None] * mu[:, None, :]
    lam, vec = np.linalg.eigh(mat)  # ascending
    lam = np.ascontiguousarray(lam[:, ::-1])
    vec = np.ascontiguousarray(vec[:, :, ::-1])
    return lam, vec, np.einsum("qa,qak->qk", mu, vec)


def _newton_scale(s0: np.ndarray, s3: np.ndarray, lam: np.ndarray, vec: np.ndarray,
                  m: np.ndarray) -> np.ndarray:
    """Newton factors, (q, d), for the step coefficients in the frame.

    With lam, vec, m the frame of :func:`_normal_frame`, coefficient
    c_j = v_j . (m(x) - x) = -h m_j changes along v_j at the rate

        kappa_j = lam_j + sum_{k != j} m_k K_kj / (lam_j - lam_k),
        K_kj = E[(u . v_k) (u . v_j)^2] - m_k (1 + lam_j + m_j^2).

    K_kj is the third cumulant of u along v_k, v_j, v_j, from the
    order-3 sums ``s3``; the sum is the turning of the eigenbasis.  The
    factor is min(1/(-kappa_j), _NEWTON_CAP), at least 1, where
    kappa_j < 0, and 1 elsewhere, including where two eigenvalues tie.
    Column 0 (the tangent) is returned but not used.
    """
    d = lam.shape[1]
    e3 = np.einsum("qabc,qak,qbj,qcj->qkj", s3 / s0[:, None, None, None], vec, vec, vec)
    cumulant = e3 - m[:, :, None] * (1.0 + lam + m * m)[:, None, :]  # [q, k, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        turn = np.where(np.eye(d, dtype=bool), 0.0,
                        m[:, :, None] * cumulant / (lam[:, None, :] - lam[:, :, None]))
        kappa = lam + turn.sum(axis=1)
        newton = np.clip(1.0 / np.maximum(-kappa, 1.0 / _NEWTON_CAP), 1.0, _NEWTON_CAP)
    return np.where(kappa < 0.0, newton, 1.0)


def _step_batch(model: KernelModel, x: np.ndarray):
    """One Newton-scaled SCMS step for a batch of points.

    The step is -h sum_{j >= 1} v_j m_j f_j over the normal columns of
    the frame (:func:`_normal_frame`), f the Newton factors; written as
    a trailing-axis sum to stay off BLAS.  Returns (x_next, ok) where ok
    is False for rows whose kernel sum underflowed (density numerically
    zero).  Bad rows are passed through unchanged.
    """
    h = model.bandwidth
    s0, s1, s2, s3 = _kernel_sums(model.data.points, x, h, order=3, cells=model.cells)
    ok = s0 > 0.0
    safe = np.where(ok, s0, 1.0)
    lam, vec, m = _normal_frame(safe, s1, s2)
    coef = -h * (m * _newton_scale(safe, s3, lam, vec, m))[:, 1:]
    delta = np.sum(vec[:, :, 1:] * coef[:, None, :], axis=2)
    x_next = np.where(ok[:, None], x + delta, x)
    return x_next, ok


def scms_step(model: KernelModel, x) -> np.ndarray:
    """Advance one point by a single Newton-scaled SCMS step.

    Returns x - h sum_{j >= 1} v_j m_j f_j in the frame of
    ``_normal_frame`` at x (normal eigenvectors v_j of the log-density
    Hessian, m_j = E[u] . v_j with E[u] = (x - m(x)) / h), with one
    Newton factor f_j in [1, 4] per column (see the module docstring).
    Fixed points satisfy V V^T grad p(x) = 0, as for the plain SCMS step
    x + V V^T (m(x) - x).  In d=1 the normal subspace is empty, so the
    step is always the zero displacement.

    Raises :class:`DivergenceError` when the density underflows at x.
    """
    x_next, ok = _step_batch(model, _as_vector(x, model.d)[None, :])
    if not ok[0]:
        raise DivergenceError("density underflowed to zero at the iterate")
    return x_next[0]


def _build_mesh(data: PointCloud, cfg: ScmsConfig) -> np.ndarray:
    if cfg.mesh == "data":
        return np.array(data.points, dtype=float, copy=True)
    res = float(cfg.grid_resolution)
    lo = data.points.min(axis=0)
    hi = data.points.max(axis=0)
    # Counts stay floats until their product is checked: a tiny
    # resolution makes them huge or infinite.
    counts = [max(float(np.ceil(float(b - a) / res)) + 1.0, 2.0) if b > a else 1.0
              for a, b in zip(lo, hi)]
    size = math.prod(counts)
    if size > _MAX_GRID_POINTS:
        raise ValueError(
            f"grid mesh at resolution {res} would have {size:.3g} points; "
            f"the limit is {_MAX_GRID_POINTS}"
        )
    axes = [np.linspace(a, b, int(c)) for a, b, c in zip(lo, hi, counts)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def extract_ridge(data: PointCloud, h: float, cfg: ScmsConfig = ScmsConfig()) -> RidgeSet:
    """Run SCMS from every mesh point and collect the converged ridge.

    Each trajectory takes Newton-scaled steps (:func:`scms_step`) and
    stops when its displacement norm drops below the tolerance or after
    ``max_iterations`` steps.  The scaled steps converge fast near the
    ridge, so a stopped trajectory ends close to its limit, a point
    where the plain SCMS step vanishes too.  Only converged endpoints
    get diagnostics; ``projected_gradient_norm`` is
    |V V^T grad p| = (p/h) |m_{1:}| in the frame of ``_normal_frame``,
    since grad p = -(p/h) E[u].  A trajectory diverges
    when it reaches a point with no data in its box of sub-cells, which
    reaches between 7.4*h and 11.1*h from it along each axis; there the
    truncated kernel sum is exactly zero.  Diverged and non-converged
    points are discarded, as are points with a nonnegative second
    eigenvalue, points where the two leading eigenvalues tie exactly
    (ridge orientation undefined), and points whose density falls below
    ``density_threshold_fraction`` times the maximum fitted density over
    the converged endpoints and the data points.

    If everything is filtered the result is an empty RidgeSet, not an
    exception.
    """
    model = KernelModel(data, h)
    x = _build_mesh(data, cfg)
    nq = x.shape[0]
    if nq == 0:
        raise ValueError("mesh is empty")
    tol = cfg.resolved_tolerance(h)

    converged = np.zeros(nq, dtype=bool)
    iters = np.zeros(nq, dtype=int)
    active = np.arange(nq)

    for _ in range(cfg.max_iterations):
        if active.size == 0:
            break
        x_next, ok = _step_batch(model, x[active])
        disp = np.sqrt(np.sum((x_next - x[active]) ** 2, axis=1))
        iters[active] += 1
        x[active] = x_next
        done = ok & (disp < tol)
        converged[active[done]] = True
        active = active[ok & ~done]

    # Membership uses the plain Hessian eigenvalues, the residual the frame
    # the steps were taken in.
    x = x[converged]
    iters = iters[converged]
    s0, s1, s2 = _kernel_sums(data.points, x, h, order=2, cells=model.cells)
    norm = _norm_const(data.n, data.d, h)
    dens = s0 * norm
    lam = np.linalg.eigvalsh(s2 - s0[:, None, None] * np.eye(data.d))[:, ::-1] * (norm / h**2)
    _, _, m = _normal_frame(np.where(s0 > 0.0, s0, 1.0), s1, s2)
    pg_norm = dens / h * np.sqrt(np.sum(m[:, 1:] ** 2, axis=1))
    # In d=1 there is no second eigenvalue; the only one plays its role,
    # so a retained point need only have p'' < 0.  The step is zero there,
    # so endpoints are not moved to the modes.
    lam2 = lam[:, 1] if data.d >= 2 else lam[:, 0]

    data_density = _kernel_sums(data.points, data.points, h, order=0, cells=model.cells)[0] * norm
    peak = float(max(dens.max(initial=0.0), data_density.max()))
    threshold = cfg.density_threshold_fraction * peak
    retained = (lam2 < 0.0) & (dens >= threshold)
    if data.d >= 2:
        retained &= lam[:, 0] > lam[:, 1]

    return RidgeSet(
        positions=x[retained],
        density=dens[retained],
        projected_gradient_norm=pg_norm[retained],
        lambda2=lam2[retained],
        iterations=iters[retained],
        bandwidth=h,
        density_threshold=threshold,
        source_size=data.n,
    )
