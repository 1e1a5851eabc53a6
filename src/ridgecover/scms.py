"""Subspace constrained mean shift (SCMS) ridge extraction.

Mesh points are iterated along the mean-shift displacement projected
onto the local normal subspace until they land on a ridge of the kernel
density estimate.  Each step works in one frame per point, built by
``_step_batch`` from the raw kernel sums of :mod:`ridgecover.kde`: the
eigenvectors v_k of h^2 grad grad log p (the local inverse covariance),
numbered from 0 by descending eigenvalue, and the coefficients
m_k = E[u] . v_k of the mean kernel offset u = (x - X_i) / h.  The
mean-shift displacement is m(x) - x = -h E[u] = h^2 grad log p.  The normal subspace is spanned
by v_1..v_{d-1}, the convention of the original algorithm: it sends
points sitting on the outer slopes of a filament inward instead of
leaving them stranded on spurious transverse crests.  Ridge membership
itself is tested on the plain density Hessian: a retained point has
lambda2 < 0 there, matching the ridge definition.

Plain SCMS moves x by g = V V^T (m(x) - x) = -h sum_{j >= 1} m_j v_j
and converges only linearly: each step shrinks the normal coefficient
c_j = -h m_j by the factor 1 + kappa_j, where kappa_j is the rate at
which c_j changes along v_j, so it crawls where kappa_j is near 0, as
where the density is flat across the ridge.  ``extract_ridge`` therefore
moves each trajectory by alpha g, with the two-point step size of
Barzilai and Borwein (IMA J. Numer. Anal. 1988) taken from that
trajectory's own last step dx and the change in g over it:
alpha = |dx|^2 / (dx . (g_old - g)), clipped to [1, _STEP_CAP], and 1 on
the first step and wherever dx . (g_old - g) <= 0.  Along the last step
g changes at the rate kappa, so alpha estimates 1/(-kappa), a secant
Newton step, and the measured change takes in the turning of the
eigenbasis too.  alpha is never below 1 and never 0, so the fixed
points, V V^T grad p = 0, are those of plain SCMS; only which point of
the ridge a trajectory ends on changes.

A trajectory stops at its last evaluated iterate, the first whose scaled
step falls below the tolerance, and takes its diagnostics from the sums
made there: |V V^T grad p| = p |g| / h^2, as g = h^2 V V^T grad p / p.

One loop, ``_extract_ridges``, runs every fit; ``extract_ridge`` is its
one-fit case.  It steps the concatenated meshes of several (data, h)
fits together, as bandwidth selection does with the fits whose ridges
only feed a loss.  Each row carries its fit's h and tolerance, its own
step history and its own stop, and the kernel sums of a batch keep each
model's cells or dense path (see :class:`ridgecover.kde._Stack`), so a
row gets the same bits in any group.  A fit runs one step batch per
iteration of its longest trajectory, and a batch has a fixed cost of
130-270 us however few rows it holds, so fits stepped together share
the batches of their long tails.  Each iteration steps the active rows
in blocks of at most ``_STEP_ROWS``, which bounds the memory of a step
however large the group or the mesh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ._io import write_csv
from .coverage import Manifold
from .kde import (KernelModel, PointCloud, _as_vector, _count, _fraction, _kernel_sums,
                  _norm_const, _positive, _Stack, _Workspace)

__all__ = [
    "DivergenceError",
    "ScmsConfig",
    "RidgeSet",
    "scms_step",
    "extract_ridge",
]

# Default stopping tolerance on the displacement norm, as a fraction of h.
DEFAULT_TOLERANCE_FACTOR = 1e-6

# Largest two-point step size; 1/(-kappa) grows without bound where the
# density is flat across the ridge.  Over the 92 ridge fits of the
# ridge_narrow, select_split and select_bootstrap benchmark workloads at
# seeds 0 and 1, plain SCMS took 2.98M trajectory-steps and left 93
# trajectories at max_iterations.  Caps of 2, 4 and 8 took 1.51M, 0.91M
# and 0.77M steps and left 14, 6 and 3 there.  Every cap chose the same
# h* on each select run, and the ridge losses to the true curve agreed to
# within 1.3%.
_STEP_CAP = 8.0

# Largest grid mesh accepted.  A step sums each mesh point only over the
# data in its box of sub-cells, but once h is wide enough for the sums to
# go dense that box is all n points: a step costs (mesh points) x n
# kernel terms, and a larger grid would not finish in useful time.
# The memory of a step is bounded by the row blocks of _STEP_ROWS; what
# grows with the mesh is the state of each row: its iterate, last step
# and g, and the s0, |g| and d eigenvalues of its last evaluated
# iterate.  Two iterations on a 300-point helix at h = 0.3 peaked 106 MiB
# above their start at 445k grid points, about 250 bytes a point, where
# stepping the whole active mesh at once took 345 MiB.  The check runs
# before the mesh is allocated.
_MAX_GRID_POINTS = 1_000_000

# Most rows in one step batch; every step-sized array (kernel sums,
# frames, steps) is bounded by it, whatever the size of the group or the
# mesh.  On 2 cores, stepping the 24 select_split halves (seed 0)
# together took a median 0.84, 0.78, 0.76 and 0.76 s in blocks of 256,
# 1024 and 4096 rows and in one block (6 interleaved rounds), and the 12
# select_bootstrap draws 1.73, 1.71, 1.53 and 1.49 s (4 rounds, which
# varied by up to 40%).  The whole select, repeated as the benchmark
# does, peaked at 77.2, 77.5, 77.9 and 82.8 MiB (select_split) and 78.1,
# 78.3, 80.2 and 87.4 MiB (select_bootstrap), against 74.8 and 75.0 MiB
# when each fit ran alone.  1024 rows keeps both rises under 4 MiB.
_STEP_ROWS = 1024


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
    step, positive and finite; ``None`` means 1e-6 * h, resolved when
    the bandwidth is known.
    ``max_iterations`` is an integer >= 1.
    ``mesh`` selects the initial points: ``"data"`` starts one
    trajectory per data point, ``"grid"`` builds an axis-aligned grid
    over the data bounding box with spacing <= ``grid_resolution``,
    positive and finite, and at most 10**6 points.
    Retained ridge points must have density at least
    ``density_threshold_fraction`` times the maximum fitted density.
    """

    max_iterations: int = 500
    tolerance: float | None = None
    mesh: str = "data"
    grid_resolution: float | None = None
    density_threshold_fraction: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "max_iterations",
                           _count(self.max_iterations, "max_iterations", 1))
        if self.tolerance is not None:
            object.__setattr__(self, "tolerance", _positive(self.tolerance, "tolerance"))
        if self.mesh not in ("data", "grid"):
            raise ValueError(f"mesh must be 'data' or 'grid', got {self.mesh!r}")
        if self.mesh == "grid":
            object.__setattr__(self, "grid_resolution",
                               _positive(self.grid_resolution, "grid_resolution"))
        object.__setattr__(self, "density_threshold_fraction",
                           _fraction(self.density_threshold_fraction,
                                     "density_threshold_fraction"))

    def resolved_tolerance(self, h: float) -> float:
        return DEFAULT_TOLERANCE_FACTOR * h if self.tolerance is None else self.tolerance


@dataclass(frozen=True)
class RidgeSet:
    """Retained ridge points: the discretized ridge estimate.

    Row i of ``positions`` (k, d) is the last evaluated iterate of a
    converged SCMS trajectory, in mesh order; ``density``,
    ``projected_gradient_norm`` (p |g| / h^2 there), ``lambda2`` and
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


@functools.cache
def _eye(d: int) -> np.ndarray:
    """A read-only d x d identity, built once per d."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


class _Group(NamedTuple):
    """The kernel models of fits stepped together: their :class:`kde._Stack`
    and the bandwidth of each fit."""

    stack: _Stack
    h: np.ndarray  # (m,)


def _step_batch(model, x: np.ndarray, *, work: _Workspace | None = None,
                fit: np.ndarray | None = None):
    """The plain SCMS step g = V V^T (m(x) - x) for a batch of points.

    With u = (x - X_i) / h and E the mean over the kernel weights,
    h^2 grad grad log p = E[u u^T] - I - E[u] E[u]^T, a weighted
    covariance of the bounded kernel offsets minus I, so it stays well
    conditioned even where the density is close to underflow.  With its
    eigenvectors v_k (see the module docstring),
    g = -h sum_{j >= 1} v_j m_j, written as a trailing-axis sum to stay
    off BLAS.  Eigenvector signs are left as ``eigh`` returns them: g
    takes each v_j twice, so flipping one changes no result, not even by
    rounding.  Returns (g, ok, s0, s2): ok is False for rows whose kernel
    sum underflowed (density numerically zero), where g is exactly 0,
    and s0 and s2 are the raw kernel sums at x.  ``work`` is the
    workspace of the kernel sums (see :mod:`ridgecover.kde`).

    ``model`` is one :class:`KernelModel`, or with ``fit`` the
    :class:`_Group` of several, where row r of ``x`` belongs to fit
    ``fit[r]``.  Every operation is row by row, so a row gets the same
    bits whichever batch it is stepped in.
    """
    if fit is None:
        points, h, cells = model.data.points, model.bandwidth, model.cells
    else:
        points, h, cells = model.stack.points, model.h[fit], model.stack.rows(fit)
    s0, s1, s2 = _kernel_sums(points, x, h, order=2, cells=cells, work=work)
    ok = s0 > 0.0
    safe = np.where(ok, s0, 1.0)
    mu = s1 / safe[:, None]
    mat = s2 / safe[:, None, None] - _eye(x.shape[1]) - mu[:, :, None] * mu[:, None, :]
    vec = np.ascontiguousarray(np.linalg.eigh(mat)[1][:, :, ::-1])  # descending
    m = np.einsum("qa,qak->qk", mu, vec)
    g = np.sum(vec[:, :, 1:] * (-np.reshape(h, (-1, 1, 1)) * m[:, None, 1:]), axis=2)
    return g, ok, s0, s2


def _step_size(dx: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """The two-point step size of each row, from its last step and change in g.

    ``dx`` (q, d) is each trajectory's last step and ``dg`` the step g
    before it minus g now.  Returns alpha = |dx|^2 / (dx . dg) clipped to
    [1, _STEP_CAP], and 1 where dx . dg <= 0, as on a first step with
    dx = 0.  Each row uses only its own two vectors, summed over the
    trailing axis.
    """
    curvature = np.sum(dx * dg, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = np.clip(np.sum(dx * dx, axis=1) / curvature, 1.0, _STEP_CAP)
    return np.where(curvature > 0.0, alpha, 1.0)


def scms_step(model: KernelModel, x) -> np.ndarray:
    """Advance one point by a single plain SCMS step.

    Returns x + V V^T (m(x) - x) = x - h sum_{j >= 1} v_j m_j in the
    frame of ``_step_batch`` at x: normal eigenvectors v_j of the
    log-density Hessian, and m_j = E[u] . v_j with E[u] = (x - m(x)) / h.
    Fixed points satisfy V V^T grad p(x) = 0.  ``extract_ridge`` scales
    this step by a two-point step size (see the module docstring).  In
    d=1 the normal subspace is empty, so the step is always the zero
    displacement.

    Raises :class:`DivergenceError` when the density underflows at x.
    """
    x = _as_vector(x, model.d)
    g, ok = _step_batch(model, x[None, :])[:2]
    if not ok[0]:
        raise DivergenceError("density underflowed to zero at the iterate")
    return x + g[0]


def _grid_counts(points: np.ndarray, res: float) -> list[int]:
    """Points along each axis of a grid mesh over the bounding box of
    ``points`` with spacing at most ``res``.  A grid of more than
    ``_MAX_GRID_POINTS`` is refused before anything is allocated."""
    lo, hi = points.min(axis=0), points.max(axis=0)
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
    return [int(c) for c in counts]


def _mesh_size(points: np.ndarray, cfg: ScmsConfig) -> int:
    """Points in the mesh of ``cfg`` over ``points``."""
    if cfg.mesh == "data":
        return len(points)
    return math.prod(_grid_counts(points, cfg.grid_resolution))


def _build_mesh(data: PointCloud, cfg: ScmsConfig) -> np.ndarray:
    if cfg.mesh == "data":
        return np.array(data.points, dtype=float, copy=True)
    counts = _grid_counts(data.points, cfg.grid_resolution)
    lo = data.points.min(axis=0)
    hi = data.points.max(axis=0)
    axes = [np.linspace(a, b, c) for a, b, c in zip(lo, hi, counts)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def extract_ridge(data: PointCloud, h: float, cfg: ScmsConfig = ScmsConfig()) -> RidgeSet:
    """Run SCMS from every mesh point and collect the converged ridge.

    Each trajectory moves by its SCMS step (:func:`scms_step`) scaled by
    a two-point step size from its own last step (see the module
    docstring).  It stops at its last evaluated iterate, the first whose
    scaled step is shorter than the tolerance, without taking that step,
    or gives up after ``max_iterations`` evaluations.  The scaled steps
    converge fast near the ridge, so a stopped trajectory ends close to
    its limit, a point where the plain SCMS step vanishes too.  Only
    converged trajectories get diagnostics, from the sums at their last
    evaluated iterate: density from s0, lambda2 from s2 - s0 I and
    ``projected_gradient_norm`` p |g| / h^2.  A trajectory diverges
    when it reaches a point with no data in its box of sub-cells, which
    reaches between 7.4*h and 11.1*h from it along each axis; there the
    truncated kernel sum is exactly zero.  Diverged and non-converged
    points are discarded, as are points with a nonnegative second
    eigenvalue, points where the two leading eigenvalues tie exactly
    (ridge orientation undefined), and points whose density falls below
    ``density_threshold_fraction`` times the maximum fitted density over
    the converged endpoints and the data points.

    If everything is filtered the result is an empty RidgeSet, not an
    exception.  This is the one-fit case of :func:`_extract_ridges`.
    """
    return _extract_ridges([(data, h)], cfg)[0]


def _extract_ridges(fits, cfg: ScmsConfig = ScmsConfig()) -> list[RidgeSet]:
    """The ridges of several fits, (data, h) pairs of one dimension, stepped
    together in one SCMS loop; each is the ridge :func:`extract_ridge`
    returns for that fit alone, bit for bit.

    The meshes of all fits are concatenated, fit by fit.  Each row takes
    its fit's h and tolerance and keeps its own two-point step history
    and stop rule.  An iteration steps the active rows in blocks of at
    most ``_STEP_ROWS``, each one :func:`_step_batch` over every fit it
    touches.  Every kernel sum takes its scratch from one workspace, so
    its pages are mapped once per group, not once per step.
    """
    models = [KernelModel(data, h) for data, h in fits]
    if len({m.d for m in models}) > 1:
        raise ValueError("fits stepped together must share one dimension")
    group = _Group(_Stack.build([(m.data.points, m.cells) for m in models]),
                   np.array([m.bandwidth for m in models]))
    work = _Workspace()
    sizes = [_mesh_size(m.data.points, cfg) for m in models]
    ends = np.cumsum([0] + sizes)
    nq, d = ends[-1], models[0].d
    x = np.empty((nq, d))
    for model, a, b in zip(models, ends[:-1], ends[1:]):
        x[a:b] = _build_mesh(model.data, cfg)
    fit = np.repeat(np.arange(len(models)), np.diff(ends))
    tol = np.array([cfg.resolved_tolerance(m.bandwidth) for m in models])

    converged = np.zeros(nq, dtype=bool)
    iters = np.zeros(nq, dtype=int)
    # s0 at each mesh point; s0, |g| and the descending eigenvalues of
    # s2 - s0 I at each stopped trajectory's last evaluated iterate
    start_s0 = np.zeros(nq)
    end_s0, end_g, end_lam = np.zeros(nq), np.zeros(nq), np.zeros((nq, d))
    # stopped rows and their s2, until about a block's worth is decomposed at once
    ended, waiting = [], 0
    active = np.arange(nq)
    # each active trajectory's last step and the g it was taken along; none yet
    last_dx = np.zeros_like(x)
    last_g = np.zeros_like(x)

    for step in range(cfg.max_iterations):
        if active.size == 0:
            break
        kept = []
        for start in range(0, active.size, _STEP_ROWS):
            block = slice(start, start + _STEP_ROWS)
            rows = active[block]
            row_fit = fit[rows]
            g, ok, s0, s2 = _step_batch(group, x[rows], work=work, fit=row_fit)
            if step == 0:
                start_s0[rows] = s0
            dx = _step_size(last_dx[block], last_g[block] - g)[:, None] * g
            done = ok & (np.sqrt(np.sum(dx * dx, axis=1)) < tol[row_fit])
            if done.any():
                stopped = rows[done]
                converged[stopped] = True
                end_s0[stopped] = s0[done]
                end_g[stopped] = np.sqrt(np.sum(g[done] * g[done], axis=1))
                ended.append((stopped, s2[done]))
                waiting += stopped.size
            keep = ok & ~done
            kept.append((rows[keep], dx[keep], g[keep]))
        iters[active] += 1
        active, last_dx, last_g = (np.concatenate(part) for part in zip(*kept))
        x[active] += last_dx
        if waiting >= _STEP_ROWS:
            _end_eigenvalues(ended, end_s0, end_lam)
            waiting = 0
    _end_eigenvalues(ended, end_s0, end_lam)

    return [_membership(model, cfg, x[sl], iters[sl], converged[sl], start_s0[sl],
                        end_s0[sl], end_g[sl], end_lam[sl], work)
            for model, sl in zip(models, map(slice, ends[:-1], ends[1:]))]


def _end_eigenvalues(ended, end_s0, end_lam) -> None:
    """Store the descending eigenvalues of s2 - s0 I of the stopped rows in
    ``ended``, (rows, s2) pairs, in ``end_lam``, and empty ``ended``.

    Membership uses these plain Hessian eigenvalues, the residual the
    frame the steps were taken in.  One decomposition serves many step
    batches; each row's eigenvalues do not depend on the batch.
    """
    if ended:
        rows = np.concatenate([r for r, _ in ended])
        s2 = np.concatenate([s for _, s in ended])
        lam = np.linalg.eigvalsh(s2 - end_s0[rows, None, None] * _eye(s2.shape[1]))
        end_lam[rows] = lam[:, ::-1]
        ended.clear()


def _membership(model: KernelModel, cfg: ScmsConfig, x, iters, converged, start_s0,
                end_s0, end_g, end_lam, work: _Workspace) -> RidgeSet:
    """The ridge of one fit from the final state of its mesh rows.

    ``start_s0`` is s0 at each mesh point, and ``end_s0``, ``end_g`` and
    ``end_lam`` are s0, |g| and the descending eigenvalues of s2 - s0 I at
    each converged row's last evaluated iterate.
    """
    data, h = model.data, model.bandwidth
    x = x[converged]
    iters = iters[converged]
    s0 = end_s0[converged]
    norm = _norm_const(data.n, data.d, h)
    dens = s0 * norm
    lam = end_lam[converged] * (norm / h**2)
    pg_norm = dens / h**2 * end_g[converged]
    # In d=1 there is no second eigenvalue; the only one plays its role,
    # so a retained point need only have p'' < 0.  The step is zero there,
    # so endpoints are not moved to the modes.
    lam2 = lam[:, 1] if data.d >= 2 else lam[:, 0]

    # A data mesh starts from every data point, so the first step summed there.
    if cfg.mesh == "data":
        data_s0 = start_s0
    else:
        data_s0 = _kernel_sums(data.points, data.points, h, order=0, cells=model.cells,
                               work=work)[0]
    data_density = data_s0 * norm
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
