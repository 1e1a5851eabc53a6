"""Coverage-risk estimation and bandwidth selection.

Two estimators of the expected (squared) projection distance between
the fitted ridge and the truth are provided: data splitting (fit ridges
on two random halves and measure their mutual coverage) and the
smoothed bootstrap (refit on samples drawn from the KDE itself and
measure coverage against the original ridge).  The bandwidth is then
chosen as the risk minimizer over a grid capped by the normal reference
rule, which is known to oversmooth.

Bandwidths whose ridge comes out empty receive an infinite-risk
sentinel so the minimizer simply avoids them.

The bootstrap's full-data ridge at h is also the ridge a caller wants
once h is chosen, so each bootstrap estimate carries it as ``ridge``.
Data splitting never fits the full data and leaves ``ridge`` as None.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._io import write_csv, write_json
from .coverage import _JENSEN_SLACK, LossPair, loss_pair
from .kde import KernelModel, PointCloud, normal_reference_bandwidth, sample_smoothed
from .scms import RidgeSet, ScmsConfig, extract_ridge

__all__ = [
    "INFINITE_RISK",
    "RiskEstimate",
    "RiskCurve",
    "risk_split",
    "risk_bootstrap",
    "select_bandwidth",
]

INFINITE_RISK = float("inf")

METHODS = ("split", "bootstrap")
OBJECTIVES = ("l1", "l2")


@dataclass(frozen=True)
class RiskEstimate:
    """Estimated L1/L2 coverage risk at one bandwidth.

    ``ridge`` is the ridge fitted on the full data at ``h`` when the
    estimator fitted one (the bootstrap's base ridge, possibly empty),
    and None for data splitting, which fits only the two halves.  It
    takes no part in ``==`` or hashing.
    """

    h: float
    risk1: float
    risk2: float
    method: str
    replicates: int
    ridge: RidgeSet | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.h <= 0.0:
            raise ValueError("h must be positive")
        if math.isfinite(self.risk1) or math.isfinite(self.risk2):
            if self.risk1**2 > self.risk2 + _JENSEN_SLACK:
                raise ValueError(
                    f"Jensen violation: risk1^2={self.risk1**2} > risk2={self.risk2}"
                )

    @property
    def failed(self) -> bool:
        return not (math.isfinite(self.risk1) and math.isfinite(self.risk2))


@dataclass(frozen=True)
class RiskCurve:
    """Per-bandwidth risk estimates with the selected minimizer."""

    entries: tuple[RiskEstimate, ...]
    h_bar: float
    h_star: float
    objective: str

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if not self.entries:
            raise ValueError("risk curve needs at least one entry")
        if any(e.h > self.h_bar for e in self.entries):
            raise ValueError("entry bandwidth exceeds the normal reference cap")
        best = min(self.objective_values())
        chosen = [e.h for e, v in zip(self.entries, self.objective_values()) if v == best]
        if self.h_star not in chosen:
            raise ValueError("h_star does not attain the minimal estimated risk")

    def objective_values(self) -> list[float]:
        if self.objective == "l1":
            return [e.risk1 for e in self.entries]
        return [e.risk2 for e in self.entries]

    def save_csv(self, path) -> None:
        write_csv(path, ["h", "risk1", "risk2", "method"],
                  ((e.h, e.risk1, e.risk2, e.method) for e in self.entries))

    def summary(self) -> dict:
        return {
            "h_star": self.h_star,
            "h_bar": self.h_bar,
            "objective": self.objective,
            "method": self.entries[0].method,
            "replicates": self.entries[0].replicates,
            "n_grid": len(self.entries),
        }

    def save_json(self, path, extra: dict | None = None) -> None:
        write_json(path, {**self.summary(), **(extra or {})})


def _ridge_losses(a: RidgeSet, b: RidgeSet) -> LossPair | None:
    """Loss pair between two ridge meshes, or None if either is empty."""
    if len(a) == 0 or len(b) == 0:
        return None
    return loss_pair(a.to_manifold(), b.to_manifold())


def _map_ordered(fn, tasks, workers: int | None):
    """Run independent tasks, preserving input order in the results.

    Every task is a pure function of its pickled arguments, so farming
    them out to worker processes returns exactly what a sequential loop
    would; ``workers=1`` (or a single task) short-circuits to the loop.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), len(tasks)))
    if workers == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _half_ridge_task(args):
    points, h, cfg = args
    return extract_ridge(PointCloud(points), h, cfg)


def _bootstrap_replicate_task(args):
    data_points, h, cfg, noise_h, count, stream = args
    sampler = KernelModel(PointCloud(data_points), noise_h)
    return extract_ridge(sample_smoothed(sampler, count, stream), h, cfg)


def _grid_entry_task(args):
    points, h, method, cfg, stream, replicates = args
    data = PointCloud(points)
    if method == "split":
        return risk_split(data, h, cfg, stream, workers=1)
    return risk_bootstrap(data, h, replicates, cfg, stream, workers=1)


def _check_split_size(data: PointCloud) -> None:
    if data.n < 4:
        raise ValueError(f"data splitting needs n >= 4, got n={data.n}")


def risk_split(
    data: PointCloud,
    h: float,
    cfg: ScmsConfig = ScmsConfig(),
    rng: np.random.Generator | None = None,
    workers: int | None = None,
) -> RiskEstimate:
    """Data-splitting risk estimate at bandwidth ``h``.

    The data are randomly permuted and halved (odd n puts the extra
    point in the first half), a ridge is fitted on each half with the
    same bandwidth, and the mutual coverage losses of the two ridges are
    returned.  An empty half-ridge yields the infinite-risk sentinel.
    The two halves may be fitted in parallel; results do not depend on
    ``workers``.
    """
    _check_split_size(data)
    if rng is None:
        rng = np.random.default_rng()
    perm = rng.permutation(data.n)
    cut = (data.n + 1) // 2
    halves = _map_ordered(
        _half_ridge_task,
        [(data.points[perm[:cut]], h, cfg), (data.points[perm[cut:]], h, cfg)],
        workers,
    )
    losses = _ridge_losses(*halves)
    if losses is None:
        return RiskEstimate(h=h, risk1=INFINITE_RISK, risk2=INFINITE_RISK,
                            method="split", replicates=1)
    return RiskEstimate(h=h, risk1=losses.loss1, risk2=losses.loss2,
                        method="split", replicates=1)


def risk_bootstrap(
    data: PointCloud,
    h: float,
    replicates: int = 10,
    cfg: ScmsConfig = ScmsConfig(),
    rng: np.random.Generator | None = None,
    noise_bandwidth: float | None = None,
    workers: int | None = None,
) -> RiskEstimate:
    """Smoothed-bootstrap risk estimate at bandwidth ``h``.

    Fits the ridge on the full data, then for each replicate draws n
    points from the fitted KDE, refits, and measures the coverage losses
    between the replicate ridge and the original one.  The full-data
    ridge is returned as the estimate's ``ridge``.  Each replicate
    draws from its own spawned RNG stream and replicate losses are
    averaged with an exact sum, so the result depends on neither the
    evaluation order nor ``workers``.

    ``noise_bandwidth`` overrides the resampling noise scale (the
    refitting bandwidth stays ``h``); intended for diagnostics and
    tests, e.g. forcing a near-zero value degenerates the bootstrap to a
    plain resample.
    """
    if int(replicates) < 1:
        raise ValueError("replicates must be >= 1")
    replicates = int(replicates)
    if rng is None:
        rng = np.random.default_rng()
    base = extract_ridge(data, h, cfg)
    noise_h = noise_bandwidth if noise_bandwidth is not None else h
    streams = rng.spawn(replicates)
    loss1s, loss2s = [], []
    if len(base) == 0:
        loss1s = loss2s = [INFINITE_RISK] * replicates
    else:
        ridges = _map_ordered(
            _bootstrap_replicate_task,
            [(data.points, h, cfg, noise_h, data.n, s) for s in streams],
            workers,
        )
        for ridge in ridges:
            losses = _ridge_losses(base, ridge)
            if losses is None:
                loss1s.append(INFINITE_RISK)
                loss2s.append(INFINITE_RISK)
            else:
                loss1s.append(losses.loss1)
                loss2s.append(losses.loss2)
    return RiskEstimate(
        h=h,
        risk1=math.fsum(loss1s) / replicates,
        risk2=math.fsum(loss2s) / replicates,
        method="bootstrap",
        replicates=replicates,
        ridge=base,
    )


def select_bandwidth(
    data: PointCloud,
    grid,
    method: str = "split",
    objective: str = "l1",
    cfg: ScmsConfig = ScmsConfig(),
    rng: np.random.Generator | None = None,
    replicates: int = 10,
    workers: int | None = None,
) -> RiskCurve:
    """Pick the bandwidth minimizing the estimated coverage risk.

    Grid points above the normal reference bandwidth are dropped before
    evaluation; if nothing is left that is an error reporting the cap.
    Both L1 and L2 estimates are recorded at every surviving grid point;
    ``objective`` decides the argmin and ties go to the smallest h; if
    the risk is infinite at every grid point that is an error too.
    Each grid point gets its own spawned RNG stream and may be evaluated
    in parallel; the curve does not depend on ``workers``.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if method == "split":
        _check_split_size(data)
    grid = [float(h) for h in np.atleast_1d(np.asarray(grid, dtype=float))]
    if not grid:
        raise ValueError("bandwidth grid is empty")
    if any(h <= 0.0 for h in grid):
        raise ValueError("grid bandwidths must be positive")
    h_bar = normal_reference_bandwidth(data)
    kept = [h for h in grid if h <= h_bar]
    if not kept:
        raise ValueError(
            f"every grid bandwidth exceeds the normal reference cap h_bar={h_bar}"
        )
    if rng is None:
        rng = np.random.default_rng()
    streams = rng.spawn(len(kept))
    entries = _map_ordered(
        _grid_entry_task,
        [(data.points, h, method, cfg, s, replicates)
         for h, s in zip(kept, streams)],
        workers,
    )
    values = [e.risk1 if objective == "l1" else e.risk2 for e in entries]
    best = min(values)
    if not math.isfinite(best):
        raise ValueError(
            "estimated risk is infinite at every grid bandwidth "
            "(the ridge came out empty at each h)"
        )
    h_star = min(e.h for e, v in zip(entries, values) if v == best)
    return RiskCurve(entries=tuple(entries), h_bar=h_bar, h_star=h_star,
                     objective=objective)
