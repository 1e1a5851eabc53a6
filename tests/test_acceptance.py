"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Quantitative paper-scale results are not reproducible at
this scale; these are property checks with oracles on synthetic ground
truth.  Grid spans and noise levels below are fixed, documented choices;
seeds are fixed so every number here is deterministic.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ridgecover import (
    KernelModel,
    LossPair,
    Manifold,
    PointCloud,
    RiskEstimate,
    ScmsConfig,
    SyntheticSpec,
    coverage_cdf,
    coverage_samples,
    density,
    extract_ridge,
    generate,
    gradient,
    hausdorff,
    hessian,
    loss_pair,
    risk_bootstrap,
    risk_split,
)
from ridgecover.risk import _map_ordered


def report(number, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)


def median3(values):
    """3-point median smoothing; endpoints kept as-is."""
    out = list(values)
    for i in range(1, len(values) - 1):
        out[i] = float(np.median(values[i - 1:i + 2]))
    return out


def interior_minima(values):
    """Count interior valleys after collapsing equal-value plateaus."""
    runs = []
    for v in values:
        if not runs or runs[-1] != v:
            runs.append(v)
    return sum(
        1 for i in range(1, len(runs) - 1)
        if runs[i] < runs[i - 1] and runs[i] < runs[i + 1]
    )


def u_shape_checks(risks):
    smoothed = median3(risks)
    low = min(smoothed)
    return (
        interior_minima(smoothed) == 1
        and smoothed[0] >= 2.0 * low
        and smoothed[-1] >= 2.0 * low
    ), smoothed


def _criterion7_task(args):
    n, seed = args
    cloud, truth = generate(
        SyntheticSpec("noisy_circle", n=n, noise_sigma=0.2, seed=seed)
    )
    ridge = extract_ridge(cloud, 0.15)
    return loss_pair(ridge.to_manifold(), truth).loss1


def test_criterion_1_derivative_correctness():
    # 200 random (cloud, query) pairs across d in {1, 2, 3}: analytic
    # gradient and Hessian vs central finite differences, rel 1e-6/1e-5.
    start = time.time()
    rng = np.random.default_rng(314159)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(5, 60))
        h = float(rng.uniform(0.3, 1.5))
        model = KernelModel(PointCloud(rng.standard_normal((n, d))), h)
        x = 1.5 * rng.standard_normal(d)
        eps = h * 1e-4
        basis = np.eye(d)
        fd_g = np.array([
            (density(model, x + eps * e) - density(model, x - eps * e)) / (2 * eps)
            for e in basis
        ])
        g = gradient(model, x)
        worst_g = max(worst_g,
                      np.abs(g - fd_g).max() / max(np.abs(fd_g).max(), 1e-12))
        fd_h = np.stack([
            (gradient(model, x + eps * e) - gradient(model, x - eps * e)) / (2 * eps)
            for e in basis
        ])
        hess = hessian(model, x)
        worst_h = max(worst_h,
                      np.abs(hess - fd_h).max() / max(np.abs(fd_h).max(), 1e-12))
    elapsed = time.time() - start
    ok = worst_g <= 1e-6 and worst_h <= 1e-5 and elapsed < 10.0
    report(1, "derivative-correctness", ok, elapsed, 10,
           f"grad rel {worst_g:.2e}, hess rel {worst_h:.2e}")
    assert worst_g <= 1e-6
    assert worst_h <= 1e-5
    assert elapsed < 10.0


def test_criterion_2_coverage_bounds():
    # 50 random manifold pairs: every coverage sample bounded by the
    # Hausdorff distance exactly; CDFs nondecreasing; cdf(r>=Haus)=1.
    start = time.time()
    rng = np.random.default_rng(271828)
    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 4))
        a = Manifold(2.0 * rng.standard_normal((int(rng.integers(2, 120)), d)))
        b = Manifold(2.0 * rng.standard_normal((int(rng.integers(2, 120)), d)))
        haus = hausdorff(a, b)
        samples = coverage_samples(a, b, rng, n_samples=200)
        ok &= bool(samples.max() <= haus)
        radii = np.concatenate([np.linspace(0.0, haus, 9), [haus, 1.5 * haus]])
        diag = coverage_cdf(a, b, radii)
        ok &= bool(np.all(np.diff(diag.cdf_12) >= 0.0))
        ok &= bool(np.all(np.diff(diag.cdf_21) >= 0.0))
        ok &= bool(np.all(diag.cdf_12[radii >= haus] == 1.0))
        ok &= bool(np.all(diag.cdf_21[radii >= haus] == 1.0))
    elapsed = time.time() - start
    report(2, "coverage-bounded-by-hausdorff", ok and elapsed < 10, elapsed, 10)
    assert ok
    assert elapsed < 10.0


def test_criterion_3_jensen_suite():
    # risk1^2 <= risk2 and loss1^2 <= loss2 for every estimate produced.
    # The LossPair and RiskEstimate constructors enforce the inequality
    # (1e-12 slack) on construction, so every estimate produced anywhere
    # in this run is covered; here a fresh batch is checked explicitly
    # and the enforcement itself is exercised.
    start = time.time()
    rng = np.random.default_rng(16180)
    ok = True
    for _ in range(25):
        a = Manifold(rng.standard_normal((int(rng.integers(2, 80)), 2)))
        b = Manifold(rng.standard_normal((int(rng.integers(2, 80)), 2)))
        pair = loss_pair(a, b)
        ok &= pair.loss1**2 <= pair.loss2 + 1e-12
    cloud, _ = generate(SyntheticSpec("noisy_circle", n=300, noise_sigma=0.2, seed=1))
    for h in (0.2, 0.35):
        est = risk_split(cloud, h, rng=np.random.default_rng(0))
        ok &= est.risk1**2 <= est.risk2 + 1e-12
    est = risk_bootstrap(cloud, 0.3, replicates=2, rng=np.random.default_rng(0))
    ok &= est.risk1**2 <= est.risk2 + 1e-12
    with pytest.raises(ValueError):
        LossPair(loss1=1.0, loss2=0.9)
    with pytest.raises(ValueError):
        RiskEstimate(h=0.1, risk1=1.0, risk2=0.9, method="split", replicates=1)
    elapsed = time.time() - start
    report(3, "jensen-suite", ok, elapsed, 60)
    assert ok


def test_criterion_4_circle_ridge_accuracy():
    # noisy_circle(R=2, sigma=0.2, n=2000, seed=3), h=0.25:
    # Hausdorff(ridge, true circle mesh) < 0.15.
    start = time.time()
    cloud, truth = generate(
        SyntheticSpec("noisy_circle", n=2000, noise_sigma=0.2, seed=3)
    )
    ridge = extract_ridge(cloud, 0.25)
    haus = hausdorff(ridge.to_manifold(), truth)
    elapsed = time.time() - start
    ok = haus < 0.15 and elapsed < 60.0
    report(4, "circle-ridge-accuracy", ok, elapsed, 60, f"hausdorff {haus:.4f}")
    assert haus < 0.15
    assert elapsed < 60.0


def test_criterion_5_split_risk_u_shape():
    # Split-risk curves over 12-point geometric grids are U-shaped:
    # exactly one interior local minimum after 3-point median smoothing
    # and both endpoint risks at least twice the minimum.  Spans chosen
    # to bracket the under- and over-smoothing regimes of each dataset;
    # the spiral uses a thin noise band and a grid mesh so its ridges
    # are sampled densely.
    start = time.time()

    circle, _ = generate(SyntheticSpec("noisy_circle", n=2000, noise_sigma=0.2, seed=3))
    rng = np.random.default_rng(0)
    circle_risks = [
        risk_split(circle, h, rng=stream).risk1
        for h, stream in zip(np.geomspace(0.05, 1.5, 12), rng.spawn(12))
    ]
    circle_ok, circle_smoothed = u_shape_checks(circle_risks)

    spiral, _ = generate(SyntheticSpec("spiral", n=1000, noise_sigma=0.02, seed=5))
    cfg = ScmsConfig(mesh="grid", grid_resolution=0.1)
    rng = np.random.default_rng(0)
    spiral_risks = [
        risk_split(spiral, h, cfg, rng=stream).risk1
        for h, stream in zip(np.geomspace(0.015, 0.7, 12), rng.spawn(12))
    ]
    spiral_ok, spiral_smoothed = u_shape_checks(spiral_risks)

    elapsed = time.time() - start
    ok = circle_ok and spiral_ok and elapsed < 300.0
    lo_c, lo_s = min(circle_smoothed), min(spiral_smoothed)
    report(5, "split-risk-u-shape", ok, elapsed, 300,
           f"circle ends/min ({circle_smoothed[0] / lo_c:.2f},"
           f"{circle_smoothed[-1] / lo_c:.2f}); spiral ends/min "
           f"({spiral_smoothed[0] / lo_s:.2f},{spiral_smoothed[-1] / lo_s:.2f})")
    assert circle_ok, f"circle curve not U-shaped: {circle_smoothed}"
    assert spiral_ok, f"spiral curve not U-shaped: {spiral_smoothed}"
    assert elapsed < 300.0


def test_criterion_6_bootstrap_tracks_oracle():
    # Bootstrap risk (B=10) against the oracle loss to the true circle
    # over a 10-point grid: Pearson correlation >= 0.9 and argmins
    # within one grid step.
    start = time.time()
    cloud, truth = generate(
        SyntheticSpec("noisy_circle", n=2000, noise_sigma=0.2, seed=3)
    )
    grid = np.geomspace(0.1, 0.5, 10)
    streams = np.random.default_rng(1).spawn(len(grid))
    boot, oracle = [], []
    for h, stream in zip(grid, streams):
        est = risk_bootstrap(cloud, h, replicates=10, rng=stream)
        boot.append(est.risk1)
        # the bootstrap's full-data ridge is the ridge at h
        oracle.append(loss_pair(est.ridge.to_manifold(), truth).loss1)
    corr = float(np.corrcoef(boot, oracle)[0, 1])
    gap = abs(int(np.argmin(boot)) - int(np.argmin(oracle)))
    elapsed = time.time() - start
    ok = corr >= 0.9 and gap <= 1 and elapsed < 600.0
    report(6, "bootstrap-tracks-oracle", ok, elapsed, 600,
           f"corr {corr:.4f}, argmin gap {gap}")
    assert corr >= 0.9
    assert gap <= 1
    assert elapsed < 600.0


def test_criterion_7_variance_regime():
    # At fixed h=0.15 the mean oracle loss over 20 seeds strictly
    # decreases when n grows from 1000 to 4000.
    start = time.time()
    mean_small = float(np.mean(_map_ordered(
        _criterion7_task, [(1000, s) for s in range(20)], None
    )))
    mean_large = float(np.mean(_map_ordered(
        _criterion7_task, [(4000, s) for s in range(20)], None
    )))
    elapsed = time.time() - start
    ok = mean_large < mean_small and elapsed < 600.0
    report(7, "variance-regime", ok, elapsed, 600,
           f"n=1000: {mean_small:.5f}, n=4000: {mean_large:.5f}")
    assert mean_large < mean_small
    assert elapsed < 600.0


def test_criterion_8_helix_coverage_dominance():
    # Helix cloud represented by the generating spiral curve versus a
    # straight axis line: the curve's coverage CDF dominates everywhere,
    # strictly at half the radii or more.
    start = time.time()
    cloud, curve = generate(SyntheticSpec("helix", n=1000, noise_sigma=0.1, seed=2))
    z_top = 0.15 * 6.0 * np.pi
    line = Manifold(np.stack([
        np.zeros(500), np.zeros(500), np.linspace(0.0, z_top, 500)
    ], axis=1))
    hull = Manifold(cloud.points)
    radii = np.linspace(0.0, 1.5, 40)
    curve_cdf = coverage_cdf(hull, curve, radii).cdf_12
    line_cdf = coverage_cdf(hull, line, radii).cdf_12
    dominance = bool(np.all(curve_cdf >= line_cdf))
    strict = float(np.mean(curve_cdf > line_cdf))
    elapsed = time.time() - start
    ok = dominance and strict >= 0.5 and elapsed < 10.0
    report(8, "helix-coverage-dominance", ok, elapsed, 10,
           f"strict at {strict:.0%} of radii")
    assert dominance
    assert strict >= 0.5
    assert elapsed < 10.0


def test_criterion_9_cli_determinism(tmp_path):
    # Every CLI command, run twice with the same seed and under
    # different thread/worker settings, produces byte-identical outputs.
    start = time.time()

    def run(args, out_dir, threads):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ridgecover", *[str(a) for a in args],
             "--output-dir", str(out_dir)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    base = tmp_path / "data"
    run(["gen", "--kind", "noisy_circle", "--n", "200", "--seed", "3",
         "--noise-sigma", "0.2"], base, 1)
    sample = base / "sample.csv"

    commands = {
        "gen": ["gen", "--kind", "spiral", "--n", "150", "--seed", "5"],
        "ridge": ["ridge", "--input", sample, "--h", "0.3"],
        "select": ["select", "--input", sample, "--grid", "0.2:0.35:3:geom",
                   "--seed", "1", "--emit-ridge"],
        "compare": ["compare", base / "sample.csv", base / "truth.csv",
                    "--radii", "0:0.6:25:lin"],
    }
    workers = {"select": [["--workers", "1"], ["--workers", "2"]]}

    ok = True
    for name, args in commands.items():
        outputs = []
        variants = workers.get(name, [[]])
        runs = [(args + v, threads) for v in variants for threads in (1, 4)]
        runs += [(args + variants[0], 1)]  # plain repeat
        for i, (full_args, threads) in enumerate(runs):
            out = tmp_path / f"{name}-{i}"
            outputs.append(run(full_args, out, threads))
        first = outputs[0]
        for other in outputs[1:]:
            ok &= other == first
        assert all(other == first for other in outputs[1:]), f"{name} not deterministic"

    elapsed = time.time() - start
    report(9, "cli-determinism", ok, elapsed, 120)
    assert ok
