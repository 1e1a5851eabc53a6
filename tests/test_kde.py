"""Tests for the Gaussian KDE substrate.

Analytic derivatives are checked against central finite differences and
against an independent pure-python kernel-sum oracle (plain loops over
math.exp, no shared code with the implementation).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ridgecover import (
    DivergenceError,
    KernelModel,
    Manifold,
    PointCloud,
    RiskEstimate,
    ScmsConfig,
    SyntheticSpec,
    coverage_samples,
    density,
    generate,
    gradient,
    hessian,
    normal_reference_bandwidth,
    risk_bootstrap,
    risk_split,
    sample_smoothed,
    scms_step,
    select_bandwidth,
)
from ridgecover.kde import (
    _CUTOFF,
    _PAIR_BLOCK,
    _Cells,
    _Workspace,
    _dense_sums,
    _kernel_sums,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def kernel_sum_oracle(points, h, x):
    """Direct summation KDE oracle: independent of the numpy path."""
    n = len(points)
    d = len(x)
    total = 0.0
    for row in points:
        sq = 0.0
        for a in range(d):
            u = (x[a] - row[a]) / h
            sq += u * u
        total += math.exp(-0.5 * sq)
    return total / (n * h**d * (2.0 * math.pi) ** (d / 2.0))


def make_model(seed, n=50, d=2, h=0.7):
    rng = np.random.default_rng(seed)
    return KernelModel(PointCloud(rng.standard_normal((n, d))), h)


class TestDensity:
    def test_single_kernel_at_center(self):
        model = KernelModel(PointCloud(np.array([[0.0]])), 1.0)
        assert density(model, np.array([0.0])) == pytest.approx(1.0 / SQRT_2PI, abs=1e-12)

    def test_two_point_symmetry(self):
        model = KernelModel(PointCloud(np.array([[-1.0], [1.0]])), 1.0)
        expected = math.exp(-0.5) / SQRT_2PI  # phi(1)
        assert density(model, np.array([0.0])) == pytest.approx(expected, abs=1e-12)

    def test_against_direct_summation_oracle(self):
        # n=3, d=1, h=0.5, X={-1,0,1}, x=0.2; oracle evaluates to ~0.334415.
        pts = np.array([[-1.0], [0.0], [1.0]])
        model = KernelModel(PointCloud(pts), 0.5)
        got = density(model, np.array([0.2]))
        assert got == pytest.approx(kernel_sum_oracle(pts, 0.5, [0.2]), rel=1e-13)
        assert got == pytest.approx(0.3343903368517479, abs=1e-12)

    def test_oracle_random_clouds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.integers(1, 4)
            pts = rng.standard_normal((int(rng.integers(2, 30)), d))
            h = float(rng.uniform(0.3, 2.0))
            x = rng.standard_normal(d)
            model = KernelModel(PointCloud(pts), h)
            assert density(model, x) == pytest.approx(
                kernel_sum_oracle(pts, h, x), rel=1e-12
            )

    def test_nonnegative_and_batch_shape(self):
        model = make_model(1)
        xs = np.random.default_rng(2).standard_normal((40, 2)) * 3
        vals = density(model, xs)
        assert vals.shape == (40,)
        assert np.all(vals >= 0.0)

    def test_dimension_mismatch_rejected(self):
        model = make_model(1)
        with pytest.raises(ValueError):
            density(model, np.zeros(3))

    def test_non_finite_query_rejected(self):
        model = make_model(1)
        with pytest.raises(ValueError):
            density(model, np.array([np.nan, 0.0]))


class TestGradient:
    def test_zero_by_symmetry(self):
        model = KernelModel(PointCloud(np.array([[-1.0], [1.0]])), 1.0)
        assert gradient(model, np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_at_kernel_center(self):
        model = KernelModel(PointCloud(np.array([[0.3, -0.2]])), 0.8)
        g = gradient(model, np.array([0.3, -0.2]))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = KernelModel(PointCloud(rng.standard_normal((50, 2))), 0.6)
        x = rng.standard_normal(2)
        eps = model.bandwidth * 1e-4
        fd = np.array([
            (density(model, x + eps * e) - density(model, x - eps * e)) / (2 * eps)
            for e in np.eye(2)
        ])
        g = gradient(model, x)
        assert np.abs(g - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-12)


class TestHessian:
    def test_single_gaussian_second_derivative(self):
        model = KernelModel(PointCloud(np.array([[0.0]])), 1.0)
        H = hessian(model, np.array([0.0]))
        assert H[0, 0] == pytest.approx(-1.0 / SQRT_2PI, abs=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        model = make_model(3, d=3, h=0.5)
        for _ in range(5):
            H = hessian(model, rng.standard_normal(3))
            assert np.abs(H - H.T).max() <= 1e-12

    def test_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(11)
        model = KernelModel(PointCloud(rng.standard_normal((50, 2))), 0.6)
        x = rng.standard_normal(2)
        eps = model.bandwidth * 1e-4
        fd = np.stack([
            (gradient(model, x + eps * e) - gradient(model, x - eps * e)) / (2 * eps)
            for e in np.eye(2)
        ])
        H = hessian(model, x)
        assert np.abs(H - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-12)


class TestDerivativeProperties:
    def test_derivatives_match_finite_differences_many(self):
        # 100 random (cloud, query) pairs across d in {1, 2, 3}.
        rng = np.random.default_rng(2024)
        for trial in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(5, 40))
            h = float(rng.uniform(0.3, 1.5))
            model = KernelModel(PointCloud(rng.standard_normal((n, d))), h)
            x = rng.standard_normal(d) * 1.5
            eps = h * 1e-4
            basis = np.eye(d)
            fd_g = np.array([
                (density(model, x + eps * e) - density(model, x - eps * e)) / (2 * eps)
                for e in basis
            ])
            g = gradient(model, x)
            scale_g = max(np.abs(fd_g).max(), 1e-12)
            assert np.abs(g - fd_g).max() <= 1e-6 * scale_g, f"trial {trial}"
            fd_h = np.stack([
                (gradient(model, x + eps * e) - gradient(model, x - eps * e)) / (2 * eps)
                for e in basis
            ])
            H = hessian(model, x)
            scale_h = max(np.abs(fd_h).max(), 1e-12)
            assert np.abs(H - fd_h).max() <= 1e-5 * scale_h, f"trial {trial}"

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((30, 2))
        x = rng.standard_normal(2)
        shift = np.array([3.5, -1.25])
        m0 = KernelModel(PointCloud(pts), 0.6)
        m1 = KernelModel(PointCloud(pts + shift), 0.6)
        assert density(m0, x) == pytest.approx(density(m1, x + shift), abs=1e-12)
        assert np.abs(gradient(m0, x) - gradient(m1, x + shift)).max() <= 1e-12
        assert np.abs(hessian(m0, x) - hessian(m1, x + shift)).max() <= 1e-12

    def test_normalization_monte_carlo(self):
        # MC integral of the density over a box containing data +- 6h.
        rng = np.random.default_rng(17)
        model = KernelModel(PointCloud(rng.standard_normal((25, 2))), 0.5)
        h = model.bandwidth
        lo = model.data.points.min(axis=0) - 6 * h
        hi = model.data.points.max(axis=0) + 6 * h
        mc = np.random.default_rng(99)
        n_mc = 1_000_000
        queries = mc.uniform(lo, hi, size=(n_mc, 2))
        vol = float(np.prod(hi - lo))
        integral = vol * float(np.mean(density(model, queries)))
        assert integral == pytest.approx(1.0, rel=0.01)


class TestSampleSmoothed:
    def test_zero_bandwidth_limit_resamples_data(self):
        rng = np.random.default_rng(0)
        pts = np.random.default_rng(8).standard_normal((20, 2))
        model = KernelModel(PointCloud(pts), 1e-12)
        out = sample_smoothed(model, 200, rng)
        from ridgecover import distance_to_set, Manifold

        data = Manifold(pts)
        dists = [distance_to_set(p, data) for p in out.points]
        assert max(dists) <= 1e-8

    def test_deterministic_given_seed(self):
        model = make_model(4)
        a = sample_smoothed(model, 64, np.random.default_rng(123))
        b = sample_smoothed(model, 64, np.random.default_rng(123))
        np.testing.assert_array_equal(a.points, b.points)

    def test_single_point_moments(self):
        # X={0}, h=1: samples are N(0, 1); Monte Carlo check of moments.
        model = KernelModel(PointCloud(np.array([[0.0]])), 1.0)
        out = sample_smoothed(model, 100_000, np.random.default_rng(77))
        vals = out.points[:, 0]
        assert abs(float(np.mean(vals))) < 0.02
        assert abs(float(np.var(vals)) - 1.0) < 0.05

    def test_empirical_cdf_converges_to_kde_cdf(self):
        # sup-discrepancy between the sample ECDF and the mixture CDF.
        from scipy.special import ndtr

        rng = np.random.default_rng(21)
        pts = np.random.default_rng(13).standard_normal((10, 1))
        model = KernelModel(PointCloud(pts), 0.4)
        out = sample_smoothed(model, 100_000, rng).points[:, 0]
        grid = np.linspace(out.min(), out.max(), 512)
        mixture_cdf = ndtr((grid[:, None] - pts[:, 0][None, :]) / 0.4).mean(axis=1)
        ecdf = np.searchsorted(np.sort(out), grid, side="right") / out.size
        assert np.abs(ecdf - mixture_cdf).max() < 0.02

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_smoothed(make_model(1), 0, np.random.default_rng(0))


class TestNormalReferenceBandwidth:
    def test_formula_value(self):
        # d=2, n=100 with unit sigma-hat: h = (4/(4*100))^(1/6) ~ 0.46416.
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((100, 2))
        cloud = PointCloud(pts)
        sigma = float(np.mean(np.std(pts, axis=0, ddof=1)))
        h = normal_reference_bandwidth(cloud)
        assert h == pytest.approx(sigma * 0.46415888336127786, rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(32)
        pts = rng.standard_normal((50, 3))
        h1 = normal_reference_bandwidth(PointCloud(pts))
        h2 = normal_reference_bandwidth(PointCloud(2.5 * pts))
        assert h2 == pytest.approx(2.5 * h1, rel=1e-12)

    def test_shrinks_with_sample_size(self):
        # quadrupling n at fixed sigma shrinks h by 4^(-1/6) in d=2.
        rng = np.random.default_rng(33)
        base = rng.standard_normal((200, 2))
        big = np.concatenate([base, base, base, base])  # same per-coord std (ddof bias tiny)
        h1 = normal_reference_bandwidth(PointCloud(base))
        h2 = normal_reference_bandwidth(PointCloud(big))
        sig1 = np.mean(np.std(base, axis=0, ddof=1))
        sig2 = np.mean(np.std(big, axis=0, ddof=1))
        assert h2 / h1 == pytest.approx((sig2 / sig1) * 4.0 ** (-1 / 6), rel=1e-12)

    def test_rejects_tiny_or_degenerate_input(self):
        with pytest.raises(ValueError):
            normal_reference_bandwidth(PointCloud(np.array([[1.0, 2.0]])))
        with pytest.raises(ValueError):
            normal_reference_bandwidth(PointCloud(np.ones((10, 2))))

    def test_overflowing_spread_rejected_without_warning(self):
        # the squared deviations of column 0 overflow: an error naming the
        # spread, not inf (tier-1 turns the overflow warning into an error)
        pts = [[0.0, 0.0], [1e308, 1.0], [-1e308, 2.0], [3.0, 3.0], [4.0, 4.0]]
        with pytest.raises(ValueError, match=r"spread overflows.*\[inf, 1\.58"):
            normal_reference_bandwidth(PointCloud(pts))


class TestPointCloud:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.empty((0, 2)))
        with pytest.raises(ValueError):
            PointCloud(np.array([[1.0, np.inf]]))

    def test_one_dimensional_input_promoted(self):
        cloud = PointCloud(np.array([1.0, 2.0, 3.0]))
        assert (cloud.n, cloud.d) == (3, 1)

    def test_immutable(self):
        cloud = PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0

    def test_csv_round_trip_bit_exact(self, tmp_path):
        from ridgecover import load_csv

        rng = np.random.default_rng(55)
        cloud = PointCloud(rng.standard_normal((40, 3)) * 1e3)
        path = tmp_path / "cloud.csv"
        cloud.save_csv(path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.points, cloud.points)


class TestKernelModel:
    def test_rejects_bad_bandwidth(self):
        for cloud in (PointCloud(np.zeros((2, 1))), PointCloud(np.eye(3)[:, :2])):
            # 1e-300 underflows h**2 to 0; at 1e-160 the scales overflow
            for h in (0.0, -1.0, np.inf, np.nan, 1e-300, 1e-160):
                with pytest.raises(ValueError):
                    KernelModel(cloud, h)
            assert KernelModel(cloud, 1e-50).bandwidth == 1e-50


def truncation_bounds(n):
    """Largest |truncated - dense| allowed for s0 to s2 at n points.

    Leftover terms have |u| > c on some axis; every term is at most 1
    in magnitude, so both sums also carry up to about log2(n) eps n of
    round-off each.
    """
    tail = n * math.exp(-0.5 * _CUTOFF**2)
    roundoff = 64 * np.finfo(float).eps * n
    return [tail * _CUTOFF**k + roundoff for k in range(3)]


def assert_within_truncation_bound(points, queries, h):
    got = _kernel_sums(points, queries, h, order=2)
    ref = _dense_sums(points, queries, h, order=2)
    for k, (a, b, bound) in enumerate(zip(got, ref, truncation_bounds(len(points)))):
        assert np.abs(a - b).max() <= bound, f"s{k}"


def clustered_cloud(rng, d, n=300):
    """80% of the points in a clump, the rest spread with a gap in x0.

    At h = 0.1 the clump is about one cell wide, and no data lie within
    four cells of x0 = 11.
    """
    clump = rng.uniform(0.0, 1.0, (int(0.8 * n), d))
    spread = rng.uniform(0.0, 20.0, (n - len(clump), d))
    spread[:, 0] = np.where(spread[:, 0] < 8.0, spread[:, 0], spread[:, 0] + 6.0)
    return np.concatenate([clump, spread])


class TestTruncatedSums:
    def test_within_bound_of_dense(self):
        rng = np.random.default_rng(101)
        for d in (1, 2, 3):
            pts = rng.uniform(0.0, 4.0, (300, d))
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            # from one cell per axis (all dense) to about 70 per axis
            for h in (1.0, 0.15, 0.05, 0.0077):
                side = _CUTOFF * h
                assert (_Cells.build(pts, h) is None) == (h == 1.0)
                inside = rng.uniform(lo, hi, (200, d))
                outside = np.concatenate([
                    lo - side * rng.uniform(0.1, 5.0, (30, d)),
                    hi + side * rng.uniform(0.1, 5.0, (30, d)),
                    rng.uniform(lo - 3 * side, hi + 3 * side, (60, d)),
                ])
                edges = lo + side * rng.integers(-2, int((hi - lo).max() / side) + 3, (60, d))
                # on sub-cell boundaries, out to clipped queries beyond the ring
                sub_edges = lo + 0.5 * side * rng.integers(
                    -6, int(2 * (hi - lo).max() / side) + 7, (60, d))
                queries = np.concatenate([inside, outside, edges, sub_edges])
                assert_within_truncation_bound(pts, queries, h)
            # The s0 bound is tight: 300 points just over one cell side
            # from a query at the top of its cell are all left out.
            side = _CUTOFF * 0.1
            pts = np.zeros((302, d))
            pts[1:-1, 0] = 2 * side * (1 + 1e-9)
            pts[-1, 0] = 10 * side
            x = np.zeros((1, d))
            x[0, 0] = side * (1 - 1e-9)
            left_out = (_dense_sums(pts, x, 0.1, 0)[0] - _kernel_sums(pts, x, 0.1, 0)[0])[0]
            tail = 300 * math.exp(-0.5 * _CUTOFF**2)
            assert 0.99 * tail <= left_out <= truncation_bounds(302)[0]

    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(102)
        h = 0.1
        cases = []
        for d in (1, 2, 3):
            pts = clustered_cloud(rng, d)
            queries = np.concatenate([
                rng.uniform(0.0, 1.0, (500, d)),  # most of the data near
                rng.uniform(0.0, 20.0, (700, d)),  # few candidates
                rng.uniform(10.7, 11.3, (20, d)),  # no candidates
            ])
            _, count = _Cells.build(pts, h).neighbours(queries)
            total = count.sum(axis=1)
            assert (total > 0.75 * len(pts)).any() and (total == 0).any()
            assert ((total > 0) & (total < 0.1 * len(pts))).any()
            cases.append((pts, queries))
            # Whole-call dense clouds (fewer than 5 sub-cells on every
            # axis); at _PAIR_BLOCK + 1 points each dense block holds a
            # single row.
            for n in (200, _PAIR_BLOCK + 1):
                pts = rng.uniform(0.0, 1.4, (n, d))
                assert _Cells.build(pts, h) is None
                cases.append((pts, rng.uniform(-1.0, 3.0, (200, d))))
        for pts, queries in cases:
            ref = _kernel_sums(pts, queries, h, order=2)
            perm = rng.permutation(len(queries))
            shuffled = _kernel_sums(pts, queries[perm], h, order=2)
            for a, b in zip(ref, shuffled):
                np.testing.assert_array_equal(a[perm], b)
            cuts = np.sort(rng.choice(np.arange(1, len(queries)), 12, replace=False))
            for part in np.split(np.arange(len(queries)), cuts):
                got = _kernel_sums(pts, queries[part], h, order=2)
                for a, b in zip(ref, got):
                    np.testing.assert_array_equal(a[part], b)
            for i in rng.choice(len(queries), 25, replace=False):
                got = _kernel_sums(pts, queries[i:i + 1], h, order=2)
                for a, b in zip(ref, got):
                    np.testing.assert_array_equal(a[i:i + 1], b)

    def test_dense_sums_equal_naive_broadcast(self):
        # ||u||^2 summed coordinate by coordinate, then np.sum over the
        # trailing axis of the full (Q, n) arrays: blocking changes no bit.
        rng = np.random.default_rng(105)
        h = 0.3
        for d in (1, 2, 3):
            for n in (7, 300, _PAIR_BLOCK + 1):
                pts = rng.standard_normal((n, d))
                queries = rng.uniform(-3.0, 3.0, (40, d))
                u = (queries[:, None, :] - pts[None, :, :]) / h
                sq = u[..., 0] * u[..., 0]
                for a in range(1, d):
                    sq = sq + u[..., a] * u[..., a]
                w = np.exp(-0.5 * sq)
                s0, s1, s2 = _dense_sums(pts, queries, h, order=2)
                np.testing.assert_array_equal(s0, np.sum(w, axis=-1))
                for a in range(d):
                    np.testing.assert_array_equal(s1[:, a], np.sum(w * u[..., a], axis=-1))
                    for b in range(a, d):
                        v = np.sum(w * u[..., a] * u[..., b], axis=-1)
                        np.testing.assert_array_equal(s2[:, a, b], v)
                        np.testing.assert_array_equal(s2[:, b, a], v)

    def test_whole_call_dense_bit_identical(self):
        rng = np.random.default_rng(103)
        for d in (1, 2, 3):
            # fewer than 5 sub-cells on every axis: no cells at all
            pts = rng.uniform(0.0, 1.4, (200, d))
            queries = rng.uniform(-3.0, 5.0, (150, d))
            assert _Cells.build(pts, 0.1) is None
            for order in (0, 1, 2):
                got = _kernel_sums(pts, queries, 0.1, order)
                for a, b in zip(got, _dense_sums(pts, queries, 0.1, order)):
                    np.testing.assert_array_equal(a, b)

    def test_rows_longer_than_a_pair_block(self):
        # 17,000 points in one cell: each query near them is a block of
        # its own, and the rows still do not depend on the batch.
        rng = np.random.default_rng(104)
        pts = np.concatenate([rng.uniform(0.0, 0.5, 17000), rng.uniform(0.0, 10.0, 100)])[:, None]
        queries = np.concatenate([rng.uniform(0.0, 0.5, 5), rng.uniform(0.0, 10.0, 5)])[:, None]
        _, count = _Cells.build(pts, 0.1).neighbours(queries)
        assert (count.sum(axis=1) > _PAIR_BLOCK).sum() >= 5
        assert_within_truncation_bound(pts, queries, 0.1)
        ref = _kernel_sums(pts, queries, 0.1, order=2)
        for i in range(len(queries)):
            row = _kernel_sums(pts, queries[i:i + 1], 0.1, order=2)
            for a, b in zip(ref, row):
                np.testing.assert_array_equal(a[i:i + 1], b)

    def test_scattered_rows_match_row_calls(self):
        # One batch scatters its rows into the stacked buffer: rows without
        # candidates (in the gap at x0 = 11) sit between rows with some,
        # and one row near the 17,000-point clump is a block of its own.
        rng = np.random.default_rng(106)
        h = 0.1
        for d in (1, 2, 3):
            spread = clustered_cloud(rng, d, n=200)
            pts = np.concatenate([rng.uniform(0.0, 0.05, (17000, d)), spread])
            assert _Cells.build(pts, h) is not None
            near = np.concatenate([np.full((1, d), 0.02), spread[-5:] + 0.01])
            empty = rng.uniform(10.7, 11.3, (6, d))
            queries = np.stack([near, empty], axis=1).reshape(12, d)  # alternating
            _, count = _Cells.build(pts, h).neighbours(queries)
            total = count.sum(axis=1)
            assert total[0] > _PAIR_BLOCK and (total[2::2] > 0).all()
            assert not total[1::2].any()
            for order in (0, 1, 2):
                got = _kernel_sums(pts, queries, h, order)
                for i in range(len(queries)):
                    row = _kernel_sums(pts, queries[i:i + 1], h, order)
                    assert len(got) == len(row) == order + 1
                    for a, b in zip(got, row):
                        np.testing.assert_array_equal(a[i:i + 1], b)
                for s in got[1:]:
                    assert not s[1::2].any()
                    for perm in itertools.permutations(range(1, s.ndim)):
                        np.testing.assert_array_equal(s, s.transpose(0, *perm))
                assert not got[0][1::2].any() and got[0][::2].all()

    def test_inexact_cell_index_falls_back_to_dense(self):
        for pts, h in (
            (np.array([[0.0], [1.0]]), 1e-60),  # 1e59 cells on the axis
            (np.array([[0.0, 0.0], [1.0, 1.0]]), 1e-13),  # 2^40 per axis, 2^80 keys
        ):
            assert _Cells.build(pts, h) is None
            queries = np.concatenate([pts, pts + 0.25])
            got = _kernel_sums(pts, queries, h, order=2)
            for a, b in zip(got, _dense_sums(pts, queries, h, order=2)):
                assert np.all(np.isfinite(a))
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(got[0], [1.0, 1.0, 0.0, 0.0])

    def test_query_without_nearby_data_has_zero_density(self):
        h = 0.1
        pts = np.array([[0.0, 0.0], [100 * h, 0.0]])
        x = np.array([30 * h, 0.0])  # exp(-450) ~ 3.5e-196 from the first point
        s0, s1, s2 = _kernel_sums(pts, x[None, :], h, order=2)
        assert s0[0] == 0.0 and not s1.any() and not s2.any()
        model = KernelModel(PointCloud(pts), h)
        assert density(model, x) == 0.0
        with pytest.raises(DivergenceError):
            scms_step(model, x)


def candidate_mask(cells, queries):
    """(Q, n) mask over the key-sorted data: the candidates of each query."""
    first, count = cells.neighbours(queries)
    mask = np.zeros((len(queries), cells.keys.size), dtype=bool)
    for row, (starts, counts) in enumerate(zip(first, count)):
        for start, c in zip(starts, counts):
            mask[row, start:start + c] = True
    # the merged runs of a row never overlap, so no pair is summed twice
    np.testing.assert_array_equal(mask.sum(axis=1), count.sum(axis=1))
    return mask


def full_cell_mask(cells, queries, h):
    """The candidates of the 3^k cells of side c h around each query's cell."""
    side = _CUTOFF * h
    data = np.floor((cells.sorted_t[cells.axes].T - cells.lo) / side)
    spans = data.max(axis=0) + 1.0
    query = np.clip(np.floor((queries[:, cells.axes] - cells.lo) / side), -1.0, spans)
    return np.all(np.abs(data[None] - query[:, None]) <= 1.0, axis=2)


class TestSubCells:
    """The sub-cell box of every query against brute force."""

    @staticmethod
    def cases(rng):
        for d in (1, 2, 3):
            for pts in (rng.uniform(0.0, 4.0, (300, d)), clustered_cloud(rng, d)):
                for h in (0.15, 0.05):
                    side = 0.5 * _CUTOFF * h
                    lo, hi = pts.min(axis=0), pts.max(axis=0)
                    top = int((hi - lo).max() / side)
                    # data and queries on sub-cell boundaries, queries about
                    # the cutoff from a data point, queries clipped from far
                    # outside the ring, and queries anywhere near
                    on_grid = lo + side * rng.integers(0, top + 1, (40, d))
                    queries = np.concatenate([
                        lo + side * rng.integers(-8, top + 9, (150, d)),
                        pts[:60] + side * rng.uniform(-2.2, 2.2, (60, d)),
                        lo - side * rng.uniform(3.0, 40.0, (30, d)),
                        hi + side * rng.uniform(3.0, 40.0, (30, d)),
                        rng.uniform(lo - 4 * side, hi + 4 * side, (150, d)),
                    ])
                    yield np.concatenate([pts, on_grid]), queries, h

    def test_box_holds_every_point_within_the_cutoff(self):
        rng = np.random.default_rng(105)
        for pts, queries, h in self.cases(rng):
            cells = _Cells.build(pts, h)
            assert cells is not None
            mask = candidate_mask(cells, queries)
            # within c h on every split axis, short of round-off in the indices
            gap = np.abs(queries[:, None, cells.axes] - cells.sorted_t[cells.axes].T[None])
            near = np.all(gap <= _CUTOFF * h * (1.0 - 1e-9), axis=2)
            assert near.any()
            assert not (near & ~mask).any()

    def test_box_within_the_full_cell_neighbours(self):
        rng = np.random.default_rng(106)
        for pts, queries, h in self.cases(rng):
            cells = _Cells.build(pts, h)
            mask = candidate_mask(cells, queries)
            old = full_cell_mask(cells, queries, h)
            assert not (mask & ~old).any()
            assert mask.sum() < old.sum()

    def test_lookups_per_query(self):
        rng = np.random.default_rng(107)
        for d in (1, 2, 3):
            pts = rng.uniform(0.0, 4.0, (300, d))
            first, count = _Cells.build(pts, 0.05).neighbours(pts[:10])
            assert first.shape == count.shape == (10, 5 ** (d - 1))

    def test_model_cells_built_once_and_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(108)
        builds = []
        build = _Cells.build

        def counting(points, h):
            builds.append(h)
            return build(points, h)

        monkeypatch.setattr(_Cells, "build", counting)
        for d in (1, 2, 3):
            for h in (0.05, 2.0):  # truncated, and whole-call dense
                pts = clustered_cloud(rng, d)
                queries = rng.uniform(-1.0, 21.0, (80, d))
                model = KernelModel(PointCloud(pts), h)
                del builds[:]
                density(model, queries)
                gradient(model, queries)
                hessian(model, queries)
                assert builds == [h]
                assert model.cells is model.cells
                assert (model.cells is None) == (h == 2.0)
                for order in (0, 1, 2):
                    cached = _kernel_sums(pts, queries, h, order, cells=model.cells)
                    fresh = _kernel_sums(pts, queries, h, order)
                    for a, b in zip(cached, fresh):
                        np.testing.assert_array_equal(a, b)


def box_pairs_brute_force(points, h):
    """(split axes, data pairs within two sub-cells on every split axis),
    counted over all n^2 ordered pairs."""
    cell = np.floor((points - points.min(axis=0)) / (0.5 * _CUTOFF * h))
    axes = np.flatnonzero(cell.max(axis=0) >= 4)  # at least 5 sub-cells
    near = np.all(np.abs(cell[:, None, axes] - cell[None, :, axes]) <= 2, axis=2)
    return axes, int(near.sum())


class TestRouting:
    """Which axes are split, and when the whole call goes dense."""

    def test_dense_exactly_when_no_axis_has_five_sub_cells(self):
        rng = np.random.default_rng(109)
        h = 0.1
        side = 0.5 * _CUTOFF * h
        for d in (1, 2, 3):
            # about 3 to 7 occupied sub-cells on each axis, drawn per axis
            split = set()
            for _ in range(40):
                width = rng.uniform(2.5, 6.5, d) * side
                pts = rng.uniform(0.0, 1.0, (200, d)) * width
                axes, _ = box_pairs_brute_force(pts, h)
                cells = _Cells.build(pts, h)
                assert (cells is None) == (axes.size == 0)
                if cells is not None:
                    np.testing.assert_array_equal(cells.axes, axes)
                split.add(axes.size)
            assert split == set(range(d + 1))

    def test_every_axis_with_five_sub_cells_is_split(self):
        h = 0.1
        side = 0.5 * _CUTOFF * h
        # sub-cell centres spanning 1, 4, 5 and 8 sub-cells on the four axes
        spans = np.array([1, 4, 5, 8])
        pts = (np.stack([np.arange(40) % s for s in spans], axis=1) + 0.5) * side
        np.testing.assert_array_equal(_Cells.build(pts, h).axes, [2, 3])
        for a in range(4):
            assert (_Cells.build(pts[:, [a]], h) is None) == (spans[a] < 5)

    def test_helix_at_the_widest_benchmark_bandwidth_takes_the_cells(self):
        # The select_bootstrap input at seed 0 and its widest grid point:
        # every axis is split and the boxes hold under half of the pairs.
        cloud, _ = generate(SyntheticSpec("helix", n=1200, noise_sigma=0.1, seed=2))
        cells = _Cells.build(cloud.points, 0.15)
        assert cells is not None
        np.testing.assert_array_equal(cells.axes, [0, 1, 2])
        axes, pairs = box_pairs_brute_force(cloud.points, 0.15)
        np.testing.assert_array_equal(axes, [0, 1, 2])
        assert 0.3 < pairs / cloud.n**2 < 0.5


# Property tests draw a fixed, small set of examples so the suite stays
# fast and deterministic.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def clouds_and_queries(draw):
    d = draw(st.integers(1, 3))
    pts = draw(hnp.arrays(float, (draw(st.integers(1, 120)), d),
                          elements=st.floats(-10.0, 10.0)))
    queries = draw(hnp.arrays(float, (draw(st.integers(1, 40)), d),
                              elements=st.floats(-15.0, 15.0)))
    h = draw(st.floats(0.01, 5.0))
    # queries on sub-cell boundaries, from clipped ones below the grid to
    # clipped ones above it
    side = 0.5 * _CUTOFF * h
    lo = pts.min(axis=0)
    top = int((pts.max(axis=0) - lo).max() / side)
    steps = draw(hnp.arrays(np.int64, (draw(st.integers(0, 10)), d),
                            elements=st.integers(-8, top + 8)))
    return pts, np.concatenate([queries, lo + side * steps]), h


class TestTruncatedSumProperties:
    @PROPERTY
    @given(clouds_and_queries())
    def test_within_bound_of_dense(self, case):
        assert_within_truncation_bound(*case)

    @PROPERTY
    @given(clouds_and_queries())
    def test_rows_independent_of_batch(self, case):
        pts, queries, h = case
        ref = _kernel_sums(pts, queries, h, order=2)
        rev = _kernel_sums(pts, queries[::-1], h, order=2)
        for a, b in zip(ref, rev):
            np.testing.assert_array_equal(a[::-1], b)
        for i in range(len(queries)):
            row = _kernel_sums(pts, queries[i:i + 1], h, order=2)
            for a, b in zip(ref, row):
                np.testing.assert_array_equal(a[i:i + 1], b)


def direct_lookup(cells, queries):
    """Each query's box runs from two binary searches per box row, without
    the table of occupied sub-cells."""
    cell = np.floor((queries[:, cells.axes] - cells.lo) / cells.side) + 3.0
    cell = np.clip(cell, 2.0, cells.hi_cell).astype(np.int64)
    rows = (cell @ cells.strides)[:, None] + cells.offsets
    first = cells.keys.searchsorted(rows - 2, side="left")
    return first, cells.keys.searchsorted(rows + 2, side="right") - first


def assert_lookup_is_direct(cells, queries):
    first, count = cells.neighbours(queries)
    ref_first, ref_count = direct_lookup(cells, queries)
    assert first.shape == ref_first.shape == (len(queries), 5 ** (cells.axes.size - 1))
    np.testing.assert_array_equal(first, ref_first)
    np.testing.assert_array_equal(count, ref_count)


@st.composite
def split_clouds(draw):
    """Data in d = 1-4 at h = 1 that split 1-4 of the axes, and queries at
    the data, anywhere on and around the grid, and far outside it."""
    side = 0.5 * _CUTOFF
    d = draw(st.integers(1, 4))
    split = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    # occupied sub-cells per axis: at least 5 on a split axis, at most 4 on the others
    spans = np.array([draw(st.integers(5, 12)) if a in split else draw(st.integers(1, 4))
                      for a in range(d)])
    n = draw(st.integers(0, 50))
    cell = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(0, 11))) % spans
    frac = draw(hnp.arrays(float, (n, d), elements=st.floats(0.0, 0.99)))
    # the lowest and highest sub-cell on every axis hold a point
    corners = np.stack([np.zeros(d), spans - 1.0])
    pts = np.concatenate([corners + 0.5, cell + frac]) * side
    around = draw(hnp.arrays(np.int64, (draw(st.integers(1, 40)), d),
                             elements=st.integers(-4, 16))) + 0.5
    far = draw(hnp.arrays(float, (draw(st.integers(1, 10)), d),
                          elements=st.floats(1e3, 1e6) | st.floats(-1e6, -1e3)))
    return pts, np.concatenate([pts, around * side, far]), np.sort(split)


class TestBoxTable:
    """The table of occupied boxes against the direct binary searches."""

    @PROPERTY
    @given(split_clouds())
    def test_lookup_equals_direct_search(self, case):
        pts, queries, split = case
        cells = _Cells.build(pts, 1.0)
        np.testing.assert_array_equal(cells.axes, split)
        assert_lookup_is_direct(cells, queries)
        # every data point's sub-cell is in the table
        first, count = cells.neighbours(pts)
        np.testing.assert_array_equal(first, direct_lookup(cells, pts)[0])

    def test_hits_and_misses_in_one_lookup(self):
        rng = np.random.default_rng(111)
        h = 0.1
        for d in (1, 2, 3):
            pts = clustered_cloud(rng, d)
            cells = _Cells.build(pts, h)
            assert cells.occupied.size == np.unique(cells.keys).size
            assert cells.box_first.shape == cells.box_count.shape == (
                cells.occupied.size, 5 ** (cells.axes.size - 1))
            assert cells.box_first.dtype == cells.box_count.dtype == np.int32
            # queries in the gap at x0 = 11 sit in empty sub-cells, far ones
            # are clipped, and those up to two sub-cells from the spread
            # points sit in occupied and empty sub-cells alike
            queries = np.concatenate([pts[:50], rng.uniform(10.7, 11.3, (30, d)),
                                      rng.uniform(-1e4, 1e4, (30, d)),
                                      pts[-60:] + rng.uniform(-2.0, 2.0, (60, d)) * cells.side])
            cell = np.clip(np.floor((queries[:, cells.axes] - cells.lo) / cells.side) + 3.0,
                           2.0, cells.hi_cell).astype(np.int64)
            hit = np.isin(cell @ cells.strides, cells.occupied)
            assert hit[:50].all() and not hit[50:80].any()
            assert hit[110:].any() and not hit[110:].all()
            assert_lookup_is_direct(cells, queries)
            assert_lookup_is_direct(cells, queries[:50])  # all hits: gathered only
            assert_lookup_is_direct(cells, queries[50:80])  # all misses: searched only

    def test_grid_mesh_lookups(self):
        # the queries of a grid mesh, mostly between the data
        cloud, _ = generate(SyntheticSpec("helix", n=300, noise_sigma=0.1, seed=2))
        cells = _Cells.build(cloud.points, 0.05)
        axes = [np.linspace(a, b, 12) for a, b in zip(cloud.points.min(axis=0),
                                                     cloud.points.max(axis=0))]
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert_lookup_is_direct(cells, mesh)


class TestWorkspace:
    """One workspace reused across kernel sums changes no bit."""

    def test_reused_workspace_matches_fresh_calls(self):
        rng = np.random.default_rng(112)
        h = 0.1
        for d in (1, 2, 3):
            clump = rng.uniform(0.0, 0.05, (_PAIR_BLOCK + 500, d))
            spread = clustered_cloud(rng, d, n=200)
            dense = rng.uniform(0.0, 1.4, (300, d))  # fewer than 5 sub-cells per axis
            for pts in (np.concatenate([clump, spread]), dense):
                cells = _Cells.build(pts, h)
                assert (cells is None) == (pts is dense)
                pool = np.concatenate([
                    spread + rng.uniform(-0.2, 0.2, spread.shape),
                    rng.uniform(-1.0, 21.0, (1300, d)),
                ])
                work = _Workspace()
                sizes = []
                # rows grow and shrink; the second call has a row near the
                # clump with more than _PAIR_BLOCK candidates
                for rows in (3, 700, 1, 1500, 40, 2):
                    queries = pool[rng.choice(len(pool), rows, replace=False)]
                    if rows == 700:
                        queries[0] = 0.02
                    for order in (0, 1, 2):
                        work._floats.fill(np.nan)  # stale scratch must never be read
                        got = _kernel_sums(pts, queries, h, order, cells=cells, work=work)
                        fresh = _kernel_sums(pts, queries, h, order)
                        assert len(got) == len(fresh) == order + 1
                        for a, b in zip(got, fresh):
                            np.testing.assert_array_equal(a, b)
                        sizes.append(work._floats.size)
                assert sizes == sorted(sizes)  # grow-only
                if cells is not None:
                    assert sizes[-1] > (3 + d) * _PAIR_BLOCK

    def test_ramp_is_read_only(self):
        work = _Workspace()
        np.testing.assert_array_equal(work.ramp(5), np.arange(5))
        np.testing.assert_array_equal(work.ramp(3), np.arange(3))
        with pytest.raises(ValueError):
            work.ramp(4)[0] = 7


def _ring(n=20):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return PointCloud(np.stack([np.cos(t), np.sin(t)], axis=1))


def _estimate(h):
    return RiskEstimate(h=h, risk1=0.1, risk2=0.1, method="split", replicates=1)


class TestInputRules:
    """Every count and positive scalar is checked by one rule of each kind."""

    # Each of these used to be truncated, accepted, or refused with a TypeError.
    @pytest.mark.parametrize("call,match", [
        (lambda: risk_bootstrap(_ring(), 0.3, replicates=2.5),
         "replicates must be an integer >= 1 and <= 10000, got 2.5"),
        (lambda: risk_split(_ring(), 0.3, workers=1.5),
         "workers must be an integer >= 1, got 1.5"),
        (lambda: SyntheticSpec("spiral", n=2.5), "n must be an integer >= 1, got 2.5"),
        (lambda: SyntheticSpec("spiral", n="7"), "n must be an integer >= 1, got 7"),
        (lambda: SyntheticSpec("spiral", seed=1.5), "seed must be an integer >= 0, got 1.5"),
        (lambda: sample_smoothed(KernelModel(_ring(), 0.3), 2.5, np.random.default_rng(0)),
         "m must be an integer >= 1, got 2.5"),
        (lambda: coverage_samples(Manifold(_ring().points), Manifold(_ring().points),
                                  np.random.default_rng(0), n_samples=2.7),
         "n_samples must be an integer >= 1, got 2.7"),
        (lambda: select_bandwidth(_ring(), [[0.1, 0.2]]), r"grid must be .*1-D"),
        (lambda: _estimate(np.nan), "h must be positive and finite, got nan"),
        (lambda: _estimate(np.inf), "h must be positive and finite, got inf"),
        (lambda: ScmsConfig(tolerance="0.1"), "tolerance must be positive and finite"),
        (lambda: ScmsConfig(mesh="grid", grid_resolution="0.5"),
         "grid_resolution must be positive and finite"),
    ], ids=["replicates", "workers", "n-fraction", "n-string", "seed-fraction", "m",
            "n_samples", "grid-2d", "h-nan", "h-inf", "tolerance-string",
            "grid_resolution-string"])
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("three", [3, 3.0, np.int64(3), np.uint8(3), np.float32(3.0)])
    def test_integral_counts_accepted(self, three):
        spec = SyntheticSpec("spiral", n=three, seed=three)
        assert (spec.n, spec.seed) == (3, 3) and type(spec.n) is type(spec.seed) is int
        model = KernelModel(_ring(), np.float32(0.25))
        assert model.bandwidth == 0.25 and type(model.bandwidth) is float
        assert sample_smoothed(model, three, np.random.default_rng(0)).n == 3
        ring = Manifold(_ring().points)
        assert coverage_samples(ring, ring, np.random.default_rng(0), three).shape == (3,)
