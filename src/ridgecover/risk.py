"""Coverage-risk estimation and bandwidth selection.

Two estimators of the expected (squared) projection distance between
the fitted ridge and the truth are provided.  Each builds a fit list
per bandwidth h; one scorer fits the lists of every h in one map and
averages, per h, the coverage losses of each later ridge against the first:

- data splitting lists two random halves of the data, so the risk is
  the mutual coverage loss of their ridges;
- the smoothed bootstrap lists the full data, then one sample drawn
  from its KDE per replicate, so the risk is the mean loss of each
  refitted ridge against the full-data ridge.

A loss that involves an empty ridge is the infinite-risk sentinel, so
the minimizer simply avoids that bandwidth.  The bandwidth is chosen as
the risk minimizer (``RiskCurve.h_star``) over a grid capped by the
normal reference rule h_bar, which is known to oversmooth; the default
grid is 12 geometric points from h_bar / 20 to h_bar.

The bootstrap's full-data ridge at h is also the ridge a caller wants
once h is chosen, so each bootstrap estimate carries it as ``ridge``.
Data splitting never fits the full data and leaves ``ridge`` as None.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field

import numpy as np

from ._io import write_csv, write_json
from .coverage import _check_jensen, loss_pair
from .kde import (KernelModel, PointCloud, _count, _positive, normal_reference_bandwidth,
                  sample_smoothed)
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

# Most bootstrap replicates accepted.  The streams of every fit of the
# grid are spawned before the first fit starts, at about 1 KiB and 25 us
# each (2 cores): at this cap the default 12-point grid holds 120k
# streams, about 120 MiB, ahead of 120k ridge fits.  A far larger count
# would overflow ``Generator.spawn``.
_MAX_REPLICATES = 10_000


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
        object.__setattr__(self, "h", _positive(self.h, "h"))
        _check_jensen(self.risk1, self.risk2, "risk")

    @property
    def failed(self) -> bool:
        return not (math.isfinite(self.risk1) and math.isfinite(self.risk2))


@dataclass(frozen=True)
class RiskCurve:
    """Per-bandwidth risk estimates and the bandwidth derived from them.

    ``h_star`` is the smallest h of minimal risk under ``objective``; a
    risk that is infinite at every h is an error.
    """

    entries: tuple[RiskEstimate, ...]
    h_bar: float
    objective: str
    h_star: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if not self.entries:
            raise ValueError("risk curve needs at least one entry")
        if any(e.h > self.h_bar for e in self.entries):
            raise ValueError("entry bandwidth exceeds the normal reference cap")
        best, h_star = min(zip(self.objective_values(), (e.h for e in self.entries)))
        if not math.isfinite(best):
            raise ValueError("estimated risk is infinite at every grid bandwidth "
                             "(the ridge came out empty at each h)")
        object.__setattr__(self, "h_star", h_star)

    def objective_values(self) -> list[float]:
        """The risk each entry scores under ``objective``: risk1 for l1, else risk2."""
        return [e.risk1 if self.objective == "l1" else e.risk2 for e in self.entries]

    @property
    def h_star_at_grid_edge(self) -> str | None:
        """Which end of the grid h_star is: "smallest", "largest" or None.

        None also for a grid of one bandwidth.  At either end the risk
        minimum may lie outside the grid.
        """
        lo, hi = min(e.h for e in self.entries), max(e.h for e in self.entries)
        if lo < hi and self.h_star in (lo, hi):
            return "smallest" if self.h_star == lo else "largest"
        return None

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
            "h_star_at_grid_edge": self.h_star_at_grid_edge,
        }

    def save_json(self, path, extra: dict | None = None) -> None:
        write_json(path, {**self.summary(), **(extra or {})})


def _map_ordered(fn, tasks, workers: int | None):
    """Run independent tasks, preserving input order in the results.

    Every task is a pure function of its pickled arguments, so farming
    them out to ``workers`` processes (None: every core), capped at the
    core and task counts, returns exactly what the sequential loop would.
    """
    cores = os.cpu_count() or 1
    workers = min(cores if workers is None else _count(workers, "workers", 1), cores,
                  len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _fit_task(args):
    """Ridge at ``h`` of the points, or of a smoothed-bootstrap draw from them.

    With ``stream`` None the points are fitted as given; otherwise n
    points are drawn from their KDE at ``h`` with that stream and fitted.
    """
    points, h, cfg, stream = args
    data = PointCloud(points)
    if stream is not None:
        data = sample_smoothed(KernelModel(data, h), data.n, stream)
    return extract_ridge(data, h, cfg)


def _estimates(data: PointCloud, grid, method: str, cfg: ScmsConfig, rngs,
               replicates: int, workers: int | None) -> list[RiskEstimate]:
    """Risk estimates at each bandwidth of ``grid``, the k-th from stream ``rngs[k]``.

    The fit lists are those ``risk_split`` and ``risk_bootstrap`` describe,
    all fitted in one map.  A loss pair that involves an empty ridge is
    infinite.  The means are exact sums divided by the number of pairs,
    so they depend on neither the evaluation order nor ``workers``.
    The inputs are checked here, before any fit or pool starts.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "split" and data.n < 4:
        raise ValueError(f"data splitting needs n >= 4, got n={data.n}")
    if method == "bootstrap":
        replicates = _count(replicates, "replicates", 1, _MAX_REPLICATES)
    fit_lists = []
    for h, rng in zip(grid, rngs):
        if method == "split":
            perm, cut = rng.permutation(data.n), (data.n + 1) // 2
            fit_lists.append([(data.points[idx], h, cfg, None)
                              for idx in (perm[:cut], perm[cut:])])
        else:
            fit_lists.append([(data.points, h, cfg, s)
                              for s in [None, *rng.spawn(replicates)]])
    ridges = iter(_map_ordered(_fit_task, [f for fits in fit_lists for f in fits],
                               workers))
    entries = []
    for h, fits in zip(grid, fit_lists):
        first, *others = [next(ridges) for _ in fits]
        losses = [
            (INFINITE_RISK, INFINITE_RISK) if len(first) == 0 or len(other) == 0
            else astuple(loss_pair(first.to_manifold(), other.to_manifold()))
            for other in others
        ]
        risk1, risk2 = (math.fsum(column) / len(others) for column in zip(*losses))
        entries.append(RiskEstimate(h=h, risk1=risk1, risk2=risk2, method=method,
                                    replicates=len(others),
                                    ridge=first if method == "bootstrap" else None))
    return entries


def risk_split(
    data: PointCloud,
    h: float,
    cfg: ScmsConfig = ScmsConfig(),
    rng: np.random.Generator | None = None,
    workers: int | None = None,
) -> RiskEstimate:
    """Data-splitting risk estimate at bandwidth ``h``.

    The data are permuted with ``rng`` and halved (odd n puts the extra
    point in the first half), a ridge is fitted on each half with the
    same bandwidth, and the mutual coverage losses of the two ridges are
    returned.  An empty half-ridge yields the infinite-risk sentinel.
    This is the one-bandwidth case of ``select_bandwidth``; the halves
    may be fitted in parallel, and ``workers`` does not change the result.
    """
    if rng is None:
        rng = np.random.default_rng()
    return _estimates(data, [h], "split", cfg, [rng], 0, workers)[0]


def risk_bootstrap(
    data: PointCloud,
    h: float,
    replicates: int = 10,
    cfg: ScmsConfig = ScmsConfig(),
    rng: np.random.Generator | None = None,
    workers: int | None = None,
) -> RiskEstimate:
    """Smoothed-bootstrap risk estimate at bandwidth ``h``.

    The fit list is the full data followed by one smoothed-bootstrap
    draw per replicate: n points from the KDE at ``h``, each draw from
    its own stream of ``rng.spawn(replicates)``, with 1 to 10,000
    replicates.  The risk is the mean coverage loss of each replicate
    ridge against the full-data ridge, which is returned as the
    estimate's ``ridge`` (possibly empty, in which case the risk is
    infinite).  This is the one-bandwidth case of
    ``select_bandwidth``; all fits may run in parallel, and ``workers``
    does not change the result.
    """
    if rng is None:
        rng = np.random.default_rng()
    return _estimates(data, [h], "bootstrap", cfg, [rng], replicates, workers)[0]


def select_bandwidth(
    data: PointCloud,
    grid=None,
    method: str = "split",
    objective: str = "l1",
    cfg: ScmsConfig = ScmsConfig(),
    rng: np.random.Generator | None = None,
    replicates: int = 10,
    workers: int | None = None,
) -> RiskCurve:
    """Pick the bandwidth minimizing the estimated coverage risk.

    ``grid`` None means 12 geometric points from h_bar / 20 to h_bar,
    with h_bar the normal reference bandwidth.  A grid is 1-D, and each
    bandwidth positive and finite.  Grid points above h_bar are dropped before
    evaluation; if nothing is left that is an error reporting the cap.
    Both L1 and L2 estimates are recorded at every surviving grid point,
    and the curve picks ``h_star`` under ``objective`` (see ``RiskCurve``).
    Grid point k builds its fit list from stream k of ``rng.spawn``, as
    the estimator would; the fits of all grid points share one pool of
    up to ``workers`` processes, and the curve does not depend on it.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    h_bar = normal_reference_bandwidth(data)
    if grid is None:
        grid = np.geomspace(h_bar / 20.0, h_bar, 12)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or not grid.size:
        raise ValueError(f"bandwidth grid must be nonempty and 1-D, got shape {grid.shape}")
    grid = [_positive(h, "grid bandwidths") for h in grid]
    kept = [h for h in grid if h <= h_bar]
    if not kept:
        raise ValueError(
            f"every grid bandwidth exceeds the normal reference cap h_bar={h_bar}"
        )
    if rng is None:
        rng = np.random.default_rng()
    entries = _estimates(data, kept, method, cfg, rng.spawn(len(kept)), replicates,
                         workers)
    return RiskCurve(entries=entries, h_bar=h_bar, objective=objective)
