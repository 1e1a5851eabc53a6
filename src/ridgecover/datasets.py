"""Synthetic curve datasets with known ground truth, plus CSV ingestion.

Each generator returns both a noisy sample cloud and a dense noise-free
mesh of the underlying curve, so downstream code can compute oracle
losses against the truth.  Samples are drawn uniformly in arc length
along the curve and perturbed with isotropic Gaussian noise.

`load_csv` ingests survey-style numeric CSV files (e.g. 2-D sky
coordinates), auto-detecting a header row and skipping malformed rows
with a counted warning.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .coverage import Manifold
from .kde import PointCloud, _count, _nonnegative

__all__ = ["SyntheticSpec", "generate", "load_csv", "KINDS"]

KINDS = ("spiral", "three_spirals", "helix", "noisy_circle")

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "spiral": {"pitch": 0.2},
    "three_spirals": {"pitch": 0.2},
    "helix": {"radius": 1.0, "pitch": 0.15},
    "noisy_circle": {"radius": 2.0},
}

# Mesh sizes per connected curve component; spacing stays well below the
# required length/500.
_MESH_POINTS = {"spiral": 1000, "three_spirals": 700, "helix": 1000,
                "noisy_circle": 720}

_DENSE = 4096  # parameter samples used to invert arc length


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset.

    ``noise_sigma=None`` resolves to 5% of the largest coordinate range
    of the ground-truth curve.  ``params`` overrides the per-kind curve
    parameters (spiral ``pitch``, circle ``radius``, helix ``radius`` and
    ``pitch``).  ``seed`` must be a nonnegative integer.
    """

    kind: str
    n: int = 1000
    noise_sigma: float | None = None
    params: Mapping[str, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; valid kinds: {KINDS}")
        object.__setattr__(self, "n", _count(self.n, "n", 1))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        if self.noise_sigma is not None:
            object.__setattr__(self, "noise_sigma",
                               _nonnegative(self.noise_sigma, "noise_sigma"))
        merged = dict(_DEFAULT_PARAMS[self.kind])
        if self.params:
            unknown = set(self.params) - set(merged)
            if unknown:
                raise ValueError(
                    f"unknown params for {self.kind}: {sorted(unknown)}; "
                    f"valid: {sorted(merged)}"
                )
            merged.update({k: float(v) for k, v in self.params.items()})
        bad = {k: v for k, v in merged.items() if not math.isfinite(v)}
        if bad:
            raise ValueError(f"params must be finite, got {bad}")
        object.__setattr__(self, "params", merged)


def _spiral_points(t: np.ndarray, pitch: float) -> np.ndarray:
    r = pitch * t
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def _helix_points(t: np.ndarray, radius: float, pitch: float) -> np.ndarray:
    return np.stack([radius * np.cos(t), radius * np.sin(t), pitch * t], axis=1)


def _circle_points(t: np.ndarray, radius: float) -> np.ndarray:
    return np.stack([radius * np.cos(t), radius * np.sin(t)], axis=1)


def _rotate_2d(points: np.ndarray, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return points @ rot.T


class _Curve:
    """A parametric curve with an arc-length lookup table."""

    def __init__(self, fn, t0: float, t1: float):
        self.fn = fn
        self.ts = np.linspace(t0, t1, _DENSE)
        # a curve too large for float64 gets a non-finite length, silently
        with np.errstate(over="ignore", invalid="ignore"):
            pts = fn(self.ts)
            seg = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
            self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.length = float(self.cum[-1])

    def at_arclength(self, s: np.ndarray) -> np.ndarray:
        t = np.interp(s, self.cum, self.ts)
        return self.fn(t)

    def mesh(self, count: int) -> np.ndarray:
        s = np.linspace(0.0, self.length, count)
        return self.at_arclength(s)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        s = rng.uniform(0.0, self.length, size=n)
        return self.at_arclength(s)


def _curves_for(spec: SyntheticSpec) -> list[_Curve]:
    p = spec.params
    if spec.kind == "spiral":
        return [_Curve(lambda t: _spiral_points(t, p["pitch"]), np.pi / 2, 4 * np.pi)]
    if spec.kind == "three_spirals":
        base = lambda t: _spiral_points(t, p["pitch"])
        return [
            _Curve(lambda t, k=k: _rotate_2d(base(t), 2.0 * np.pi * k / 3.0),
                   np.pi / 2, 4 * np.pi)
            for k in range(3)
        ]
    if spec.kind == "helix":
        return [_Curve(lambda t: _helix_points(t, p["radius"], p["pitch"]),
                       0.0, 6 * np.pi)]
    return [_Curve(lambda t: _circle_points(t, p["radius"]), 0.0, 2 * np.pi)]


def generate(spec: SyntheticSpec) -> tuple[PointCloud, Manifold]:
    """Generate a noisy sample cloud and its ground-truth curve mesh.

    Pure in ``spec``: the same spec always produces the same pair.  The
    mesh concatenates the connected components in order (three_spirals
    uses three equal blocks of 700 points each).
    """
    curves = _curves_for(spec)
    if not all(math.isfinite(c.length) for c in curves):
        raise ValueError(f"the {spec.kind} curve with params {spec.params} is too "
                         "large: its arc length overflows float64")
    mesh_count = _MESH_POINTS[spec.kind]
    mesh = np.concatenate([c.mesh(mesh_count) for c in curves])

    sigma = spec.noise_sigma
    if sigma is None:
        extent = float(np.max(mesh.max(axis=0) - mesh.min(axis=0)))
        sigma = 0.05 * extent

    rng = np.random.default_rng(spec.seed)
    counts = [spec.n // len(curves)] * len(curves)
    for k in range(spec.n - sum(counts)):
        counts[k] += 1
    clean = np.concatenate([
        c.sample(cnt, rng) for c, cnt in zip(curves, counts) if cnt > 0
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = clean + sigma * rng.standard_normal(clean.shape)
    if not np.isfinite(noisy).all():
        raise ValueError(f"noise_sigma={sigma} is too large: the noisy sample "
                         "overflows float64")
    return PointCloud(noisy), Manifold(mesh)


def _parse_row(row: list[str]) -> list[float] | None:
    if not row:
        return None
    try:
        vals = [float(v) for v in row]
    except ValueError:
        return None
    if not all(np.isfinite(v) for v in vals):
        return None
    return vals


def load_csv(path, columns: tuple[str, str] | list[str] | None = None) -> PointCloud:
    """Read a point cloud from CSV.

    The file is UTF-8, with or without a byte-order mark.  A non-numeric
    first row is treated as a header.  ``columns`` selects
    named columns, each at most once (requires a header); by default all
    columns are used.
    Rows with missing or non-finite values are skipped; one warning
    reports how many were dropped.  Zero valid rows is an error.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: file contains no data")

    header = None
    if _parse_row(rows[0]) is None:
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]

    if columns is not None:
        names = list(columns)
        repeated = sorted({c for c in names if names.count(c) > 1})
        if repeated:
            raise ValueError(f"{path}: columns named more than once: {repeated}")
        if header is None:
            raise ValueError(f"{path}: no header row, cannot select columns {names}")
        missing = [c for c in names if c not in header]
        if missing:
            raise ValueError(f"{path}: columns not found: {missing} (header: {header})")
        picks = [header.index(c) for c in names]
    else:
        picks = None

    points, skipped = [], 0
    for row in rows:
        if picks is not None:
            if max(picks) >= len(row):
                skipped += 1
                continue
            row = [row[i] for i in picks]
        vals = _parse_row(row)
        if vals is None or (points and len(vals) != len(points[0])):
            skipped += 1
            continue
        points.append(vals)
    if skipped:
        warnings.warn(f"{path}: skipped {skipped} malformed row(s)", stacklevel=2)
    if not points:
        raise ValueError(f"{path}: no valid data rows")
    return PointCloud(np.array(points, dtype=float))
