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

The fits whose ridges only feed a loss, the split halves and the
bootstrap draws of every h, are stepped together in one SCMS loop per
worker (``scms._extract_ridges``): a fit runs one step batch per
iteration of its slowest trajectory, so separate fits pay for their
long tails many times over, and together they share them.  Each
bootstrap reference ridge is fitted alone by ``extract_ridge``, as the
ridge the estimate returns; the benchmark's per-layer trace reads SCMS
through those calls.  Every fit gets the same ridge either way.
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
from .scms import RidgeSet, ScmsConfig, _extract_ridges, _mesh_size, extract_ridge

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

# Most mesh rows, about, in one group of fits stepped together.  A
# group holds its fits' data, cells and per-row SCMS state at once, about
# 250 bytes a mesh row in d = 3, so a selection with many replicates or
# large meshes runs several groups of about 16 MiB each instead of one
# that grows with the replicate count.  Both benchmark selections (18,000
# and 14,400 rows) fit in one group.
_GROUP_ROWS = 1 << 16


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


def _worker_count(workers: int | None) -> int:
    """Processes to run fits in: ``workers`` (None: every core), capped at the
    core count."""
    cores = os.cpu_count() or 1
    return min(cores if workers is None else _count(workers, "workers", 1), cores)


def _map_ordered(fn, tasks, workers: int | None):
    """Run independent tasks, preserving input order in the results.

    Every task is a pure function of its pickled arguments, so farming
    them out to ``workers`` processes (None: every core), capped at the
    core and task counts, returns exactly what the sequential loop would.
    """
    workers = min(_worker_count(workers), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _fit_task(args):
    """The ridges of one task's fits, in order.

    A task is a list of fits and the SCMS config.  A fit (points, h,
    stream) is the ridge at ``h`` of the points, or with a ``stream`` of
    n points drawn from their KDE at ``h`` with that stream.  A lone fit
    runs through ``extract_ridge``; several are stepped together in one
    SCMS loop, which gives each the same ridge.
    """
    fits, cfg = args
    clouds = []
    for points, h, stream in fits:
        data = PointCloud(points)
        if stream is not None:
            data = sample_smoothed(KernelModel(data, h), data.n, stream)
        clouds.append((data, h))
    if len(clouds) == 1:
        return [extract_ridge(*clouds[0], cfg)]
    return _extract_ridges(clouds, cfg)


def _tasks(fits, alone, cfg: ScmsConfig, workers: int | None) -> list[list[int]]:
    """The fits of each task, as indices into ``fits``; each fit is in one task.

    Fits in ``alone`` get a task each.  The others are dealt round-robin,
    so that every task gets a share of each bandwidth, into one group per
    worker, or more when their meshes would exceed about ``_GROUP_ROWS``
    rows a group.  The groups come first, as the longest tasks.
    """
    grouped = [i for i in range(len(fits)) if i not in alone]
    rows = sum(_mesh_size(fits[i][0], cfg) for i in grouped)
    count = min(max(_worker_count(workers), math.ceil(rows / _GROUP_ROWS)), len(grouped))
    return [grouped[k::count] for k in range(count)] + [[i] for i in sorted(alone)]


def _estimates(data: PointCloud, grid, method: str, cfg: ScmsConfig, rngs,
               replicates: int, workers: int | None) -> list[RiskEstimate]:
    """Risk estimates at each bandwidth of ``grid``, the k-th from stream ``rngs[k]``.

    The fit lists are those ``risk_split`` and ``risk_bootstrap`` describe,
    all fitted in one map over the tasks of :func:`_tasks`.  A loss pair
    that involves an empty ridge is infinite.  The means are exact sums
    divided by the number of pairs, so they depend on neither the
    evaluation order nor ``workers``.
    The inputs are checked here, before any fit or pool starts.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "split" and data.n < 4:
        raise ValueError(f"data splitting needs n >= 4, got n={data.n}")
    if method == "bootstrap":
        replicates = _count(replicates, "replicates", 1, _MAX_REPLICATES)
    per_h = 2 if method == "split" else replicates + 1
    fits = []
    for h, rng in zip(grid, rngs):
        if method == "split":
            perm, cut = rng.permutation(data.n), (data.n + 1) // 2
            fits += [(data.points[idx], h, None) for idx in (perm[:cut], perm[cut:])]
        else:
            fits += [(data.points, h, s) for s in [None, *rng.spawn(replicates)]]
    # the bootstrap's references, the first fit of each h, are fitted alone
    alone = set(range(0, len(fits), per_h)) if method == "bootstrap" else set()
    tasks = _tasks(fits, alone, cfg, workers)
    ridges = [None] * len(fits)
    for task, out in zip(tasks, _map_ordered(_fit_task, [([fits[i] for i in task], cfg)
                                                         for task in tasks], workers)):
        for i, ridge in zip(task, out):
            ridges[i] = ridge
    entries = []
    for k, h in enumerate(grid):
        first, *others = ridges[k * per_h:(k + 1) * per_h]
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
