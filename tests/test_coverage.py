"""Tests for projection distances, coverage diagrams, losses, Hausdorff.

Brute-force double loops serve as independent oracles for the distance
machinery; the bound of every coverage sample by the Hausdorff distance
is checked exactly, with no tolerance.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ridgecover
from ridgecover import (
    CoverageDiagram,
    LossPair,
    Manifold,
    coverage_cdf,
    coverage_samples,
    distance_to_set,
    hausdorff,
    loss_pair,
)
from ridgecover.coverage import _nearest_dists


def brute_min_dist(x, pts):
    best = math.inf
    for row in pts:
        s = 0.0
        for a in range(len(x)):
            s += (x[a] - row[a]) ** 2
        best = min(best, math.sqrt(s))
    return best


def brute_hausdorff(a, b):
    d_ab = max(brute_min_dist(x, b) for x in a)
    d_ba = max(brute_min_dist(x, a) for x in b)
    return max(d_ab, d_ba)


def brute_loss_pair(a, b):
    d_ab = [brute_min_dist(x, b) for x in a]
    d_ba = [brute_min_dist(x, a) for x in b]
    loss1 = 0.5 * (sum(d_ab) / len(d_ab) + sum(d_ba) / len(d_ba))
    loss2 = 0.5 * (
        sum(v * v for v in d_ab) / len(d_ab) + sum(v * v for v in d_ba) / len(d_ba)
    )
    return loss1, loss2


def circle_mesh(radius, m=720, center=(0.0, 0.0)):
    ang = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return Manifold(np.stack([
        center[0] + radius * np.cos(ang),
        center[1] + radius * np.sin(ang),
    ], axis=1))


def random_manifold(rng, m, d=2, scale=1.0):
    return Manifold(scale * rng.standard_normal((m, d)))


class TestDistanceToSet:
    def test_membership_gives_zero(self):
        rng = np.random.default_rng(0)
        s = random_manifold(rng, 30)
        assert distance_to_set(s.points[7], s) == 0.0

    def test_pythagorean(self):
        s = Manifold(np.array([[0.0, 0.0]]))
        assert distance_to_set(np.array([3.0, 4.0]), s) == pytest.approx(5.0, abs=1e-15)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        s = random_manifold(rng, 200, d=3)
        for _ in range(25):
            x = rng.standard_normal(3) * 2
            assert distance_to_set(x, s) == pytest.approx(
                brute_min_dist(x, s.points), rel=1e-12
            )

    def test_dimension_mismatch(self):
        s = random_manifold(np.random.default_rng(2), 5, d=2)
        with pytest.raises(ValueError):
            distance_to_set(np.zeros(3), s)

    def test_rejects_batch_and_non_finite(self):
        s = random_manifold(np.random.default_rng(2), 5, d=2)
        for x in (np.zeros((1, 2)), np.array([0.0, np.nan]), np.array([np.inf, 0.0])):
            with pytest.raises(ValueError):
                distance_to_set(x, s)


class TestSpatialIndexAgreement:
    def test_tree_path_bit_identical_to_linear_scan(self):
        # The k-d tree only picks the neighbour; the distance is
        # recomputed with the scan's formula, so the two match exactly
        # for every set size and dimension.
        rng = np.random.default_rng(3)
        for m, d in ((2000, 2), (1, 1), (40, 1), (1024, 1), (1, 3), (40, 3), (1024, 3)):
            pts = rng.standard_normal((m, d))
            queries = rng.standard_normal((300, d)) * 1.5
            via_tree = _nearest_dists(queries, pts)
            sq = np.sum((queries[:, None, :] - pts[None, :, :]) ** 2, axis=2)
            via_scan = np.sqrt(np.min(sq, axis=1))
            np.testing.assert_array_equal(via_tree, via_scan)

    def test_large_sets_against_brute_force(self):
        rng = np.random.default_rng(4)
        a = random_manifold(rng, 1500)
        b = random_manifold(rng, 40)
        got = hausdorff(a, b)
        assert got == pytest.approx(brute_hausdorff(a.points, b.points), rel=1e-12)


class TestCoverageSamples:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(5)
        a = random_manifold(rng, 50)
        samples = coverage_samples(a, a, np.random.default_rng(0))
        assert np.all(samples == 0.0)

    def test_concentric_circles(self):
        a = circle_mesh(1.0, m=720)
        b = circle_mesh(1.1, m=720)
        samples = coverage_samples(a, b, np.random.default_rng(1))
        assert np.all(np.abs(samples - 0.1) < 0.01)

    def test_bounded_by_hausdorff_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_manifold(rng, int(rng.integers(2, 60)))
            b = random_manifold(rng, int(rng.integers(2, 60)))
            samples = coverage_samples(a, b, rng, n_samples=100)
            assert samples.max() <= hausdorff(a, b)

    def test_default_sample_count(self):
        rng = np.random.default_rng(7)
        a = random_manifold(rng, 33)
        b = random_manifold(rng, 20)
        assert coverage_samples(a, b, np.random.default_rng(2)).shape == (33,)


class TestCoverageCdf:
    def test_identical_sets_cdf_is_one_everywhere(self):
        rng = np.random.default_rng(8)
        a = random_manifold(rng, 40)
        diag = coverage_cdf(a, a, np.array([0.0, 0.5, 1.0]))
        assert np.all(diag.cdf_12 == 1.0)
        assert np.all(diag.cdf_21 == 1.0)

    def test_concentric_step_at_delta(self):
        a = circle_mesh(1.0)
        b = circle_mesh(1.1)
        radii = np.linspace(0.0, 0.2, 41)
        diag = coverage_cdf(a, b, radii)
        assert np.all(diag.cdf_12[radii < 0.09] == 0.0)
        assert np.all(diag.cdf_12[radii > 0.11] == 1.0)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(9)
        a = random_manifold(rng, 80)
        b = random_manifold(rng, 60)
        haus = hausdorff(a, b)
        radii = np.linspace(0.0, haus, 32)
        diag = coverage_cdf(a, b, radii)
        assert np.all(np.diff(diag.cdf_12) >= 0.0)
        assert np.all(np.diff(diag.cdf_21) >= 0.0)
        assert diag.cdf_12[-1] == 1.0
        assert diag.cdf_21[-1] == 1.0
        # cdf at zero counts exact overlap.
        overlap = np.mean([brute_min_dist(x, b.points) == 0.0 for x in a.points])
        assert diag.cdf_12[0] == pytest.approx(overlap)

    def test_enlarging_target_increases_coverage(self):
        rng = np.random.default_rng(10)
        a = random_manifold(rng, 60)
        b = random_manifold(rng, 30)
        b_plus = Manifold(np.concatenate([b.points, rng.standard_normal((30, 2))]))
        radii = np.linspace(0.0, 3.0, 16)
        small = coverage_cdf(a, b, radii)
        large = coverage_cdf(a, b_plus, radii)
        assert np.all(large.cdf_12 >= small.cdf_12)

    def test_counts_match_the_broadcast_mean(self):
        # the CDFs count sorted distances; the mean of an (R, m) mask gives the same bits
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_manifold(rng, int(rng.integers(1, 40)), d=int(rng.integers(1, 4)))
            b = random_manifold(rng, int(rng.integers(1, 40)), d=a.d)
            d_ab, d_ba = _nearest_dists(a.points, b.points), _nearest_dists(b.points, a.points)
            # radii on a grid and at the distances themselves
            radii = np.sort(np.concatenate([
                np.linspace(0.0, 3.0, int(rng.integers(1, 20))),
                rng.choice(np.concatenate([d_ab, d_ba]), 5)]))
            diag = coverage_cdf(a, b, radii)
            np.testing.assert_array_equal(
                diag.cdf_12, np.mean(d_ab[None, :] <= radii[:, None], axis=1))
            np.testing.assert_array_equal(
                diag.cdf_21, np.mean(d_ba[None, :] <= radii[:, None], axis=1))

    def test_rejects_bad_radii(self):
        a = circle_mesh(1.0, m=8)
        with pytest.raises(ValueError):
            coverage_cdf(a, a, np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            coverage_cdf(a, a, np.array([-0.1, 0.2]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"radii must be finite, got {bad}"):
                coverage_cdf(a, a, np.array([0.0, bad]))


class TestLossPair:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(11)
        a = random_manifold(rng, 25)
        pair = loss_pair(a, a)
        assert pair.loss1 == 0.0 and pair.loss2 == 0.0

    def test_concentric_circles_unit_gap(self):
        a = circle_mesh(1.0, m=2000)
        b = circle_mesh(2.0, m=2000)
        pair = loss_pair(a, b)
        assert pair.loss1 == pytest.approx(1.0, abs=5e-3)
        assert pair.loss2 == pytest.approx(1.0, abs=5e-3)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_manifold(rng, int(rng.integers(2, 100)))
            b = random_manifold(rng, int(rng.integers(2, 100)))
            pair = loss_pair(a, b)
            l1, l2 = brute_loss_pair(a.points, b.points)
            assert pair.loss1 == pytest.approx(l1, rel=1e-12)
            assert pair.loss2 == pytest.approx(l2, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = random_manifold(rng, 37)
        b = random_manifold(rng, 53)
        ab, ba = loss_pair(a, b), loss_pair(b, a)
        assert ab.loss1 == ba.loss1 and ab.loss2 == ba.loss2

    def test_jensen_inequality_random(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            a = random_manifold(rng, int(rng.integers(2, 50)))
            b = random_manifold(rng, int(rng.integers(2, 50)))
            pair = loss_pair(a, b)
            assert pair.loss1**2 <= pair.loss2 + 1e-12

    def test_jensen_violation_rejected(self):
        with pytest.raises(ValueError):
            LossPair(loss1=1.0, loss2=0.5)


class TestHausdorff:
    def test_identity(self):
        a = circle_mesh(1.0, m=64)
        assert hausdorff(a, a) == 0.0

    def test_two_singletons(self):
        a = Manifold(np.array([[0.0]]))
        b = Manifold(np.array([[1.0]]))
        assert hausdorff(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            a = random_manifold(rng, int(rng.integers(2, 40)), d=3)
            b = random_manifold(rng, int(rng.integers(2, 40)), d=3)
            assert hausdorff(a, b) == pytest.approx(
                brute_hausdorff(a.points, b.points), rel=1e-12
            )

    def test_overflowing_distances_rejected(self):
        # Squared distances overflow between sets about 1.3e154 apart;
        # below that the distance is exact.
        a = Manifold(np.array([[0.0, 0.0]]))
        assert hausdorff(a, Manifold(np.array([[0.0, 1e153]]))) == 1e153
        for far in ([[0.0, 1e155]], [[1e154, 1e154]], [[0.0, 1.0], [0.0, 1e155]]):
            b = Manifold(np.array(far))
            for fn in (hausdorff, loss_pair):
                with pytest.raises(ValueError, match="overflow"):
                    fn(b, a)
            with pytest.raises(ValueError, match="overflow"):
                distance_to_set(b.points[-1], a)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            a = random_manifold(rng, 20)
            b = random_manifold(rng, 25)
            c = random_manifold(rng, 30)
            hab, hba = hausdorff(a, b), hausdorff(b, a)
            assert abs(hab - hba) <= 1e-12
            assert hab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12


class TestCoverageDiagramType:
    def test_serialization(self, tmp_path):
        a = circle_mesh(1.0, m=100)
        b = circle_mesh(1.3, m=100)
        diag = coverage_cdf(a, b, np.linspace(0.0, 0.5, 11))
        path = tmp_path / "coverage.csv"
        diag.save_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "r,cdf_12,cdf_21"
        assert len(rows) == 12
        r, c12, c21 = zip(*(map(float, row.split(",")) for row in rows[1:]))
        np.testing.assert_array_equal(np.array(r), diag.radii)
        np.testing.assert_array_equal(np.array(c12), diag.cdf_12)
        np.testing.assert_array_equal(np.array(c21), diag.cdf_21)

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(ValueError):
            CoverageDiagram(
                radii=np.array([0.0, 1.0]),
                cdf_12=np.array([0.8, 0.4]),
                cdf_21=np.array([0.5, 1.0]),
            )


class TestManifold:
    def test_validation(self):
        with pytest.raises(ValueError):
            Manifold(np.empty((0, 2)))
        with pytest.raises(ValueError):
            Manifold(np.array([[np.nan, 0.0]]))


def test_import_leaves_the_k_d_tree_unloaded():
    # scipy.spatial loads on the first nearest-distance query, not on import
    code = (
        "import sys, ridgecover\n"
        "assert 'scipy.spatial' not in sys.modules, 'loaded by import'\n"
        "a, b = ridgecover.Manifold([[0.0, 0.0]]), ridgecover.Manifold([[3.0, 4.0]])\n"
        "assert ridgecover.loss_pair(a, b) == ridgecover.LossPair(5.0, 25.0)\n"
        "assert 'scipy.spatial' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ridgecover.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
