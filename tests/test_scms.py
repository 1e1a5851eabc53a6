"""Tests for the subspace constrained mean shift machinery."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgecover import (
    DivergenceError,
    KernelModel,
    Manifold,
    PointCloud,
    RidgeSet,
    ScmsConfig,
    SyntheticSpec,
    density,
    extract_ridge,
    generate,
    gradient,
    hausdorff,
    hessian,
    scms_step,
)
import ridgecover.scms as scms_module
from ridgecover.kde import _CUTOFF, _Cells, _kernel_sums, _Workspace
from ridgecover.scms import _STEP_CAP, _extract_ridges, _step_batch, _step_size


def ring_cloud(seed=7, n=2000, radius=2.0, sigma=0.2):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return PointCloud(pts + sigma * rng.standard_normal((n, 2)))


def scms_trajectories(model, mesh, tol, max_iterations=ScmsConfig().max_iterations):
    """SCMS from every row of ``mesh``, each row carrying its own last step
    and the g it was taken along, as in extract_ridge; returns (last
    evaluated iterates, iterates evaluated, converged).  A row stops where
    its step falls below ``tol`` without taking it.  A mesh of one row
    runs a trajectory alone."""
    x = np.array(mesh, dtype=float)
    steps = np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    last_dx, last_g = np.zeros_like(x), np.zeros_like(x)
    active = np.arange(len(x))
    for _ in range(max_iterations):
        if active.size == 0:
            break
        g, ok, _, _ = _step_batch(model, x[active])
        dx = _step_size(last_dx, last_g - g)[:, None] * g
        steps[active] += 1
        done = ok & (np.sqrt(np.sum(dx * dx, axis=1)) < tol)
        converged[active[done]] = True
        keep = ok & ~done
        active, last_dx, last_g = active[keep], dx[keep], g[keep]
        x[active] += last_dx
    return x, steps, converged


def circle_mesh(radius=2.0, m=720):
    ang = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return Manifold(np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1))


class TestScmsStep:
    def test_on_major_axis_of_anisotropic_gaussian(self):
        # Dense grid rendering of N(0, diag(4, 1)) via node multiplicities:
        # the cloud is exactly symmetric about both axes, so on the major
        # axis the gradient lies along the leading eigenvector and the
        # projected step vanishes (below the default tolerance).
        g1 = np.linspace(-6.0, 6.0, 61)
        g2 = np.linspace(-3.0, 3.0, 31)
        xx, yy = np.meshgrid(g1, g2, indexing="ij")
        w = np.exp(-0.5 * (xx**2 / 4.0 + yy**2))
        mult = np.round(20.0 * w).astype(int).ravel()
        nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)
        pts = np.repeat(nodes, mult, axis=0)
        model = KernelModel(PointCloud(pts), 0.5)
        tol = ScmsConfig().resolved_tolerance(model.bandwidth)
        for x1 in (0.5, 1.0, 2.0):
            x = np.array([x1, 0.0])
            step = scms_step(model, x)
            assert np.linalg.norm(step - x) < tol

    def test_single_point_mode_is_fixed(self):
        model = KernelModel(PointCloud(np.array([[0.4, -1.2]])), 0.7)
        out = scms_step(model, np.array([0.4, -1.2]))
        np.testing.assert_allclose(out, [0.4, -1.2], atol=1e-15)

    def test_one_dimensional_step_is_zero(self):
        rng = np.random.default_rng(1)
        model = KernelModel(PointCloud(rng.standard_normal((20, 1))), 0.5)
        for _ in range(5):
            x = rng.standard_normal(1)
            np.testing.assert_array_equal(scms_step(model, x), x)

    def test_divergence_on_underflowed_density(self):
        model = KernelModel(PointCloud(np.array([[0.0, 0.0]])), 0.01)
        with pytest.raises(DivergenceError):
            scms_step(model, np.array([100.0, 100.0]))

    def test_rejects_anything_but_one_finite_vector(self):
        model = KernelModel(PointCloud(np.zeros((3, 2))), 0.5)
        for x in (np.zeros((1, 2)), np.zeros((4, 2)), np.zeros(3), 0.0,
                  np.array([0.0, np.nan]), np.array([np.inf, 0.0])):
            with pytest.raises(ValueError):
                scms_step(model, x)

    def test_matches_batched_iteration_bitwise(self):
        # scms_step is the batch kernel at Q=1; rows of a larger batch
        # must match it exactly, so chunked extraction is reproducible.
        rng = np.random.default_rng(2)
        model = KernelModel(PointCloud(rng.standard_normal((40, 2))), 0.5)
        xs = rng.standard_normal((30, 2))
        batch, ok, _, _ = _step_batch(model, xs)
        assert ok.all()
        for i in range(30):
            np.testing.assert_array_equal(_step_batch(model, xs[i:i + 1])[0][0], batch[i])
            np.testing.assert_array_equal(scms_step(model, xs[i]), xs[i] + batch[i])

    def test_step_size_is_the_two_point_rule(self):
        # rows: a first step (no last step), a secant inside [1, cap], a
        # negative and a zero curvature, and secants below 1 and above the cap
        dx = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                       [1.0, 1.0]])
        dg = np.array([[0.0, 0.0], [0.5, 3.0], [-0.5, 0.0], [1.0, 0.0], [2.0, 0.0],
                       [0.1, 0.1]])
        alpha = _step_size(dx, dg)
        np.testing.assert_array_equal(alpha, [1.0, 2.0, 1.0, 1.0, 1.0, _STEP_CAP])
        for i in range(len(dx)):
            np.testing.assert_array_equal(_step_size(dx[i:i + 1], dg[i:i + 1]), alpha[i:i + 1])


class TestExtractRidge:
    def test_ring_recovers_circle(self):
        cloud = ring_cloud()
        ridge = extract_ridge(cloud, 0.25)
        assert len(ridge) > 0
        dists = np.abs(np.sqrt((ridge.positions**2).sum(axis=1)) - 2.0)
        assert dists.max() < 0.15

    def test_density_threshold_filter(self):
        cloud = ring_cloud(n=500)
        ridge = extract_ridge(cloud, 0.25, ScmsConfig(density_threshold_fraction=0.05))
        assert ridge.density_threshold > 0.0
        assert np.all(ridge.density >= ridge.density_threshold)
        # a higher fraction retains a subset
        strict = extract_ridge(cloud, 0.25, ScmsConfig(density_threshold_fraction=0.5))
        assert strict.density_threshold == pytest.approx(
            10 * ridge.density_threshold, rel=1e-9
        )
        assert len(strict) <= len(ridge)

    def test_degenerate_repeated_point(self):
        cloud = PointCloud(np.tile([[1.0, -2.0]], (5, 1)))
        ridge = extract_ridge(cloud, 0.3)
        # equal leading eigenvalues: orientation undefined, point dropped
        assert len(ridge) == 0

    def test_degenerate_repeated_point_1d(self):
        # one trajectory per mesh point, so coincident inputs yield
        # coincident ridge points; the location itself is the mode
        cloud = PointCloud(np.tile([[1.5]], (5, 1)))
        ridge = extract_ridge(cloud, 0.3)
        assert len(ridge) >= 1
        np.testing.assert_allclose(ridge.positions[:, 0], 1.5, rtol=0, atol=1e-9)
        assert np.all(ridge.lambda2 < 0.0)

    def test_fixed_point_residual(self):
        # after convergence the projected gradient norm is bounded by the
        # displacement tolerance scaled back to gradient units p/h^2.
        cloud = ring_cloud(n=600)
        h = 0.25
        cfg = ScmsConfig()
        ridge = extract_ridge(cloud, h, cfg)
        tol = cfg.resolved_tolerance(h)
        assert len(ridge) > 0
        assert np.all(ridge.projected_gradient_norm <= 10.0 * tol * ridge.density / h**2)

    def test_trajectories_stay_in_padded_bounding_box(self):
        cloud = ring_cloud(n=400)
        h = 0.3
        ridge = extract_ridge(cloud, h)
        lo = cloud.points.min(axis=0) - 3 * h
        hi = cloud.points.max(axis=0) + 3 * h
        pos = ridge.positions
        assert np.all(pos >= lo) and np.all(pos <= hi)

    def test_deterministic_bit_for_bit(self):
        cloud = ring_cloud(n=300)
        a = extract_ridge(cloud, 0.3)
        b = extract_ridge(cloud, 0.3)
        assert len(a) == len(b)
        for name in ("positions", "density", "projected_gradient_norm", "lambda2",
                     "iterations"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_eigenvector_signs_change_nothing(self, monkeypatch):
        # Each use of the frame takes every eigenvector an even number of
        # times and negating a double is exact, so whatever signs eigh
        # returns, not one output bit may change.
        helix, _ = generate(SyntheticSpec("helix", n=400, noise_sigma=0.1, seed=2))
        fits = [(ring_cloud(n=400), 0.1), (ring_cloud(n=400), 0.4), (helix, 0.1)]
        expected = [extract_ridge(cloud, h) for cloud, h in fits]
        eigh, rng, calls = np.linalg.eigh, np.random.default_rng(0), []

        def flipped(a):
            lam, vec = eigh(a)
            calls.append(len(vec))
            return lam, vec * rng.choice([-1.0, 1.0], size=vec.shape[:-2] + (1, vec.shape[-1]))

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        for (cloud, h), a in zip(fits, expected):
            b = extract_ridge(cloud, h)
            assert len(a) > 0 and b.density_threshold == a.density_threshold
            for name in ("positions", "density", "projected_gradient_norm", "lambda2",
                         "iterations"):
                np.testing.assert_array_equal(getattr(b, name), getattr(a, name))
        assert sum(calls) > 0

    def test_translation_equivariance(self):
        cloud = ring_cloud(n=300)
        shift = np.array([12.0, -7.5])
        a = extract_ridge(cloud, 0.3)
        b = extract_ridge(PointCloud(cloud.points + shift), 0.3)
        assert len(a) == len(b)
        assert np.abs(b.positions - shift - a.positions).max() <= 1e-8

    def test_grid_mesh(self):
        cloud = ring_cloud(n=500)
        cfg = ScmsConfig(mesh="grid", grid_resolution=0.5)
        ridge = extract_ridge(cloud, 0.3, cfg)
        assert len(ridge) > 0
        dists = np.abs(np.sqrt((ridge.positions**2).sum(axis=1)) - 2.0)
        assert dists.max() < 0.2

    def test_retained_points_converged_with_negative_lambda2(self):
        cloud = ring_cloud(n=400)
        cfg = ScmsConfig()
        ridge = extract_ridge(cloud, 0.25, cfg)
        assert len(ridge) > 0
        assert np.all(ridge.lambda2 < 0.0)
        # a trajectory is retained only if it stopped before the cap
        assert np.all((ridge.iterations >= 1) & (ridge.iterations <= cfg.max_iterations))

    def test_mesh_order_preserved(self):
        # retained positions appear in mesh (= data) order
        cloud = ring_cloud(n=200)
        ridge = extract_ridge(cloud, 0.3)
        model = KernelModel(cloud, 0.3)
        # run a trajectory on its own from each data point until
        # convergence, collecting final positions in mesh order
        tol = ScmsConfig().resolved_tolerance(0.3)
        finals = np.array([scms_trajectories(model, cloud.points[i:i + 1], tol)[0][0]
                           for i in range(cloud.n)])
        # every retained ridge position must be one of the sequentially
        # computed endpoints, in order
        idx = 0
        for position in ridge.positions:
            while idx < len(finals) and not np.array_equal(finals[idx], position):
                idx += 1
            assert idx < len(finals), "ridge positions out of mesh order"
            idx += 1


class TestExtractRidgeConsistency:
    def test_cells_built_once_per_fit(self, monkeypatch):
        builds = []
        build = _Cells.build

        def counting(points, h):
            builds.append(build(points, h))
            return builds[-1]

        monkeypatch.setattr(_Cells, "build", counting)
        cloud = ring_cloud(n=300)
        for h, cfg in ((0.1, ScmsConfig()), (0.4, ScmsConfig()),
                       (0.1, ScmsConfig(mesh="grid", grid_resolution=0.5))):
            del builds[:]
            assert len(extract_ridge(cloud, h, cfg)) > 0
            assert len(builds) == 1
            assert (builds[0] is None) == (h == 0.4)  # at h = 0.4 every call is dense

    def test_data_mesh_takes_the_data_density_from_the_first_step(self, monkeypatch):
        # A data mesh starts from every data point, so the first step's
        # s0 is, bit for bit, the data density the threshold peak needs
        # and no order-0 pass runs; a grid mesh still makes that pass.
        orders = []
        sums = scms_module._kernel_sums

        def recording(points, queries, h, order, **kwargs):
            orders.append(order)
            return sums(points, queries, h, order, **kwargs)

        monkeypatch.setattr(scms_module, "_kernel_sums", recording)
        cloud = ring_cloud(n=300)
        for h, cfg in ((0.1, ScmsConfig()), (0.4, ScmsConfig()),
                       (0.1, ScmsConfig(mesh="grid", grid_resolution=0.5))):
            del orders[:]
            ridge = extract_ridge(cloud, h, cfg)
            assert orders.count(0) == (cfg.mesh == "grid")
            assert set(orders) - {0} == {2}
            model = KernelModel(cloud, h)
            peak = density(model, cloud.points).max()
            assert ridge.density_threshold >= cfg.density_threshold_fraction * peak
            np.testing.assert_array_equal(
                _step_batch(model, cloud.points)[2],
                sums(cloud.points, cloud.points, h, 0, cells=model.cells)[0])

    def test_one_order_two_sum_per_step_batch(self, monkeypatch):
        # A stopped trajectory's diagnostics come from the sums of its last
        # evaluated iterate, so past the loop the only kernel sum left is the grid
        # mesh's order-0 pass over the data.
        orders, batches = [], []
        sums, step_batch = scms_module._kernel_sums, scms_module._step_batch

        def recording(points, queries, h, order, **kwargs):
            orders.append(order)
            return sums(points, queries, h, order, **kwargs)

        def counting(model, x, **kwargs):
            batches.append(len(x))
            return step_batch(model, x, **kwargs)

        monkeypatch.setattr(scms_module, "_kernel_sums", recording)
        monkeypatch.setattr(scms_module, "_step_batch", counting)
        cloud = ring_cloud(n=300)
        for cfg in (ScmsConfig(), ScmsConfig(mesh="grid", grid_resolution=0.5)):
            for h in (0.1, 0.4):  # truncated and dense sums
                del orders[:], batches[:]
                ridge = extract_ridge(cloud, h, cfg)
                assert len(ridge) > 0 and len(batches) > 1
                assert orders.count(2) == len(batches)
                assert orders.count(0) == (cfg.mesh == "grid")
                assert len(orders) == orders.count(2) + orders.count(0)

    def test_one_order_two_sum_per_step_batch_of_a_group(self, monkeypatch):
        # fits stepped together share each step's order-2 sum
        orders, batches = [], []
        sums, step_batch = scms_module._kernel_sums, scms_module._step_batch

        def recording(points, queries, h, order, **kwargs):
            orders.append(order)
            return sums(points, queries, h, order, **kwargs)

        def counting(model, x, **kwargs):
            batches.append(len(x))
            return step_batch(model, x, **kwargs)

        monkeypatch.setattr(scms_module, "_kernel_sums", recording)
        monkeypatch.setattr(scms_module, "_step_batch", counting)
        monkeypatch.setattr(scms_module, "_STEP_ROWS", 256)
        cloud = ring_cloud(n=300)
        ridges = _extract_ridges([(cloud, 0.1), (cloud, 0.4), (cloud, 0.2)], ScmsConfig())
        assert all(len(ridge) > 0 for ridge in ridges)
        assert max(batches) == 256 and orders == [2] * len(batches)

    def test_diagnostics_are_those_of_the_last_evaluated_iterate(self):
        # The density and p |g| / h^2 are, bit for bit, what the kernel
        # sums give at the retained positions themselves.
        ring, (helix, _) = ring_cloud(n=400), generate(SyntheticSpec("helix", n=400, seed=2))
        fits = [(ring, 0.1, ScmsConfig()), (ring, 0.4, ScmsConfig()),
                (ring, 0.2, ScmsConfig(mesh="grid", grid_resolution=0.5)),
                (helix, 0.15, ScmsConfig())]
        for cloud, h, cfg in fits:
            ridge = extract_ridge(cloud, h, cfg)
            model = KernelModel(cloud, h)
            assert len(ridge) > 0
            np.testing.assert_array_equal(ridge.density, density(model, ridge.positions))
            g = _step_batch(model, ridge.positions)[0]
            np.testing.assert_array_equal(ridge.projected_gradient_norm,
                                          ridge.density / h**2 * np.sqrt(np.sum(g * g, axis=1)))
            lam = np.linalg.eigvalsh(hessian(model, ridge.positions))
            np.testing.assert_allclose(ridge.lambda2, lam[:, -2], rtol=1e-9)

    def test_endpoints_match_scms_step_loop_bitwise(self):
        # Each trajectory run on its own, with its own step-size state,
        # ends bit for bit where its row of the batched extract_ridge
        # does (criterion 9).  With no density threshold every converged
        # trajectory on this ring is retained, so the whole batch output
        # can be compared.
        cloud = ring_cloud(seed=11, n=60)
        cfg = ScmsConfig(density_threshold_fraction=0.0)
        for h in (0.1, 0.3):
            ridge = extract_ridge(cloud, h, cfg)
            model = KernelModel(cloud, h)
            tol = cfg.resolved_tolerance(h)
            lone = [scms_trajectories(model, cloud.points[i:i + 1], tol, cfg.max_iterations)
                    for i in range(cloud.n)]
            finals, iters, converged = (np.concatenate(col) for col in zip(*lone))
            assert (iters > 2).any()  # so steps after the first had a step size
            assert converged.sum() == len(ridge) > 0
            np.testing.assert_array_equal(ridge.positions, finals[converged])
            np.testing.assert_array_equal(ridge.iterations, iters[converged])

    def test_endpoints_are_fixed_points_of_the_step(self):
        # A step size of at least 1 only stretches the plain SCMS step,
        # so both vanish at the same points: from a tightly converged
        # endpoint, the plain SCMS step, also h^2 |V V^T grad p| / p,
        # moves less than the default tolerance.
        cloud = ring_cloud(n=600)
        for h in (0.1, 0.25):
            model = KernelModel(cloud, h)
            ridge = extract_ridge(cloud, h, ScmsConfig(tolerance=1e-10 * h))
            tol = ScmsConfig().resolved_tolerance(h)
            assert len(ridge) > 0
            for x in ridge.positions:
                assert np.linalg.norm(scms_step(model, x) - x) < tol
            plain = h**2 * ridge.projected_gradient_norm / ridge.density
            assert plain.max() < tol

    def test_default_stop_lies_near_the_limit(self):
        # disp < 1e-6 h is an honest stopping test when the steps converge
        # fast: every trajectory that stops at the default tolerance ends
        # within 2e-5 h of where the same trajectory goes at 1e-10 h.
        cloud = ring_cloud(n=2000)
        h = 0.1
        model = KernelModel(cloud, h)

        loose, _, loose_done = scms_trajectories(model, cloud.points,
                                                 ScmsConfig().resolved_tolerance(h))
        tight, _, tight_done = scms_trajectories(model, cloud.points, 1e-10 * h)
        # the loop is extract_ridge's: with no density threshold its
        # retained points are among these converged endpoints
        ridge = extract_ridge(cloud, h, ScmsConfig(density_threshold_fraction=0.0))
        stopped = {tuple(p) for p in loose[loose_done]}
        assert len(ridge) > 0 and all(tuple(p) in stopped for p in ridge.positions)
        both = loose_done & tight_done
        assert both.sum() > 0.95 * cloud.n
        gaps = np.sqrt(np.sum((loose[both] - tight[both]) ** 2, axis=1))
        assert gaps.max() < 2e-5 * h

    def test_one_dimensional_members_are_concave(self):
        """In d=1 the normal space is empty: every step is zero, and a
        retained point need only have p'' < 0 (and pass the density
        threshold).  Unlike the mode condition, p' need not vanish there."""
        rng = np.random.default_rng(12)
        pts = np.concatenate([rng.normal(-2.0, 0.5, 150), rng.normal(2.0, 0.5, 150)])
        cloud = PointCloud(pts)
        for h in (0.1, 0.3):
            ridge = extract_ridge(cloud, h)
            model = KernelModel(cloud, h)
            assert len(ridge) > 0
            assert np.all(ridge.iterations == 1)
            assert np.all(hessian(model, ridge.positions)[:, 0, 0] < 0.0)
            members = np.isin(pts, ridge.positions[:, 0])
            assert members.sum() == len(ridge)


def in_two_threads(task, args, timeout=120.0):
    """Run ``task(args[0])`` and ``task(args[1])`` in two threads released
    together, switching between them often; return both results."""
    barrier = threading.Barrier(2)
    results, errors = [None, None], []

    def run(i):
        try:
            barrier.wait(timeout)
            results[i] = task(args[i])
        except Exception as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


def _ridge_arrays(ridge):
    return (ridge.positions, ridge.density, ridge.projected_gradient_norm, ridge.lambda2,
            ridge.iterations, ridge.density_threshold, ridge.bandwidth, ridge.source_size)


class TestGroupedFits:
    """Fits stepped together in one loop get the ridges they get alone."""

    @staticmethod
    def groups():
        ring = ring_cloud(n=300)
        other = ring_cloud(seed=8, n=250, radius=1.5)
        helix, _ = generate(SyntheticSpec("helix", n=200, noise_sigma=0.1, seed=2))
        point2, point3 = (PointCloud(np.zeros((5, d))) for d in (2, 3))
        # truncated and dense models, d = 2 and 3, data and grid meshes, a
        # shared bandwidth, and a fit whose ridge comes out empty
        yield ([(ring, 0.1), (other, 0.15), (point2, 0.5), (other, 0.4), (ring, 0.15)],
               ScmsConfig())
        yield ([(helix, 0.08), (point3, 0.3), (helix, 2.0)],
               ScmsConfig(mesh="grid", grid_resolution=0.4))

    def test_group_matches_single_fits_bitwise(self):
        for fits, cfg in self.groups():
            paths = {KernelModel(data, h).cells is None for data, h in fits}
            assert paths == {True, False}
            grouped = _extract_ridges(fits, cfg)
            assert len(grouped) == len(fits)
            assert any(len(ridge) == 0 for ridge in grouped)
            assert sum(len(ridge) > 0 for ridge in grouped) >= 2
            for (data, h), ridge in zip(fits, grouped):
                for a, b in zip(_ridge_arrays(ridge), _ridge_arrays(extract_ridge(data, h, cfg))):
                    np.testing.assert_array_equal(a, b)

    def test_row_block_size_changes_no_bit(self, monkeypatch):
        for fits, cfg in self.groups():
            default = _extract_ridges(fits, cfg)
            monkeypatch.setattr(scms_module, "_STEP_ROWS", 7)
            for a, b in zip(default, _extract_ridges(fits, cfg)):
                for x, y in zip(_ridge_arrays(a), _ridge_arrays(b)):
                    np.testing.assert_array_equal(x, y)
            monkeypatch.undo()

    def test_mixed_dimensions_refused(self):
        helix, _ = generate(SyntheticSpec("helix", n=50, seed=2))
        with pytest.raises(ValueError, match="one dimension"):
            _extract_ridges([(ring_cloud(n=50), 0.3), (helix, 0.3)])


class TestThreads:
    """Kernel sums share the model's cells and table, never a workspace."""

    def test_two_threads_on_one_model_match_serial(self):
        cloud, _ = generate(SyntheticSpec("helix", n=600, noise_sigma=0.1, seed=2))
        rng = np.random.default_rng(31)
        starts = [cloud.points[::2] + 0.01 * rng.standard_normal((300, 3)),
                  rng.uniform(cloud.points.min(axis=0), cloud.points.max(axis=0), (300, 3))]

        for h in (0.08, 2.0):  # cells and table, and whole-call dense
            def fit(model):
                def steps(x):
                    out = [density(model, x), gradient(model, x), hessian(model, x)]
                    work = _Workspace()
                    for _ in range(8):
                        g, ok, s0, s2 = _step_batch(model, x, work=work)
                        out += [g, ok, s0, s2]
                        x = x + g
                    return out
                return steps

            serial = [fit(KernelModel(cloud, h))(x) for x in starts]
            # a fresh model: both threads may bin the data at once
            shared = fit(KernelModel(cloud, h))
            for got, ref in zip(in_two_threads(shared, starts), serial):
                assert len(got) == len(ref)
                for a, b in zip(got, ref):
                    np.testing.assert_array_equal(a, b)

    def test_two_threads_extracting_one_ridge_match_serial(self):
        cloud, _ = generate(SyntheticSpec("helix", n=400, noise_sigma=0.1, seed=3))
        ref = extract_ridge(cloud, 0.1)
        for ridge in in_two_threads(lambda h: extract_ridge(cloud, h), [0.1, 0.1]):
            np.testing.assert_array_equal(ridge.positions, ref.positions)
            np.testing.assert_array_equal(ridge.density, ref.density)
            np.testing.assert_array_equal(ridge.lambda2, ref.lambda2)


class TestScmsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScmsConfig(max_iterations=0)
        with pytest.raises(ValueError):
            ScmsConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            ScmsConfig(mesh="hexes")
        with pytest.raises(ValueError):
            ScmsConfig(mesh="grid")
        for res in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="grid_resolution"):
                ScmsConfig(mesh="grid", grid_resolution=res)
        with pytest.raises(ValueError):
            ScmsConfig(density_threshold_fraction=1.5)

    @pytest.mark.parametrize("iters", [2.5, np.float64(0.5), float("inf"), float("nan"),
                                       "3", None, 0, -4])
    def test_max_iterations_must_be_a_positive_integer(self, iters):
        # 2.5 used to run 2 iterations; 0 and -4 are integers below the bound
        match = (f"max_iterations must be >= 1, got {iters}" if isinstance(iters, int)
                 else "max_iterations must be an integer >= 1")
        with pytest.raises(ValueError, match=match):
            ScmsConfig(max_iterations=iters)

    @pytest.mark.parametrize("iters", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_max_iterations_accepted(self, iters):
        cfg = ScmsConfig(max_iterations=iters)
        assert cfg.max_iterations == 3 and type(cfg.max_iterations) is int

    @pytest.mark.parametrize("res", [float("inf"), -float("inf"), float("nan"), 0.0, -0.5, None])
    def test_grid_resolution_must_be_positive_and_finite(self, res):
        # an infinite spacing used to mesh the bounding box by its corners alone
        with pytest.raises(ValueError, match="grid_resolution must be positive and finite"):
            ScmsConfig(mesh="grid", grid_resolution=res)

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), 0.0, -1e-6])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            ScmsConfig(tolerance=tolerance)

    def test_default_tolerance_scales_with_bandwidth(self):
        cfg = ScmsConfig()
        assert cfg.resolved_tolerance(0.25) == pytest.approx(2.5e-7)
        assert ScmsConfig(tolerance=1e-4).resolved_tolerance(0.25) == 1e-4


class TestRidgeSetType:
    @staticmethod
    def arrays(density=0.5):
        return dict(
            positions=np.zeros((2, 2)), density=np.full(2, density),
            projected_gradient_norm=np.zeros(2), lambda2=np.full(2, -1.0),
            iterations=np.full(2, 3),
        )

    def test_contract_enforced(self):
        meta = dict(bandwidth=0.2, density_threshold=0.1, source_size=5)
        assert len(RidgeSet(**self.arrays(), **meta)) == 2
        # a retained density below the threshold
        with pytest.raises(ValueError):
            RidgeSet(**self.arrays(density=0.05), **meta)
        # diagnostics whose length differs from the number of positions
        for name in ("density", "projected_gradient_norm", "lambda2", "iterations"):
            arrays = self.arrays()
            arrays[name] = arrays[name][:1]
            with pytest.raises(ValueError):
                RidgeSet(**arrays, **meta)

    def test_csv_serialization(self, tmp_path):
        cloud = ring_cloud(n=200)
        ridge = extract_ridge(cloud, 0.3)
        path = tmp_path / "ridge.csv"
        ridge.save_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x0,x1,density,projected_gradient_norm,lambda2"
        assert len(rows) == len(ridge) + 1
        first = [float(v) for v in rows[1].split(",")]
        np.testing.assert_array_equal(first[:2], ridge.positions[0])
        assert first[2:] == [ridge.density[0], ridge.projected_gradient_norm[0],
                             ridge.lambda2[0]]

    def test_json_metadata(self):
        cloud = ring_cloud(n=150)
        cfg = ScmsConfig()
        ridge = extract_ridge(cloud, 0.3, cfg)
        meta = ridge.metadata(cfg)
        assert meta["source_size"] == 150
        assert meta["bandwidth"] == 0.3
        assert meta["n_ridge_points"] == len(ridge)
        assert meta["config"]["mesh"] == "data"

    def test_empty_ridge_flagged_not_raised(self):
        cloud = PointCloud(np.tile([[0.0, 0.0]], (5, 1)))
        ridge = extract_ridge(cloud, 0.5)
        assert len(ridge) == 0
        assert ridge.positions.shape == (0, 2)
        with pytest.raises(ValueError):
            ridge.to_manifold()


# Fixed, small example sets keep the suite fast and deterministic.
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)


class TestExtractRidgeProperties:
    """Equivariance of the ridge on 80-point rings of radius 2.

    Below about h = 0.2 the kernel sums are truncated.  Endpoints must
    agree to 10 times the default stopping tolerance of 1e-6 * h.
    """

    @PROPERTY
    @given(seed=st.integers(0, 2**16), h=st.floats(0.05, 0.4),
           shift=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
    def test_translation(self, seed, h, shift):
        cloud = ring_cloud(seed=seed, n=80)
        a = extract_ridge(cloud, h)
        b = extract_ridge(PointCloud(cloud.points + np.array(shift)), h)
        assert len(a) == len(b)
        assert np.abs(b.positions - np.array(shift) - a.positions).max(initial=0.0) <= 1e-5 * h

    @PROPERTY
    @given(seed=st.integers(0, 2**16), h=st.floats(0.05, 0.4),
           angle=st.floats(0.0, 2.0 * np.pi))
    def test_rotation(self, seed, h, angle):
        """Endpoints agree after un-rotating, and so do retained counts,
        apart from lone data points.

        The cells are axis-aligned, so a rotated cloud keeps other far
        terms: endpoints agree only up to the truncation bound and
        round-off, far inside the 1e-5 * h allowed.  A data point with
        no other within 7.4 h is the exception.  Its leading Hessian
        eigenvalues tie exactly in a frame whose box holds no other data
        and differ by about 1e-13 in a frame whose box does, so whether
        its trajectory (which stays on it) is kept depends on the frame.
        """
        cloud = ring_cloud(seed=seed, n=80)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        a = extract_ridge(cloud, h)
        b = extract_ridge(PointCloud(cloud.points @ rot.T), h)
        gaps = np.sqrt(((cloud.points[:, None] - cloud.points[None]) ** 2).sum(axis=2))
        np.fill_diagonal(gaps, np.inf)
        lone = cloud.points[gaps.min(axis=1) > _CUTOFF * h]

        def off_lone(positions):
            return np.all(np.abs(positions[:, None] - lone[None]).max(axis=2) > 1e-6 * h, axis=1)

        pa, pb = a.positions, b.positions @ rot
        keep_a, keep_b = off_lone(pa), off_lone(pb)
        assert keep_a.sum() == keep_b.sum()
        assert np.abs(pb[keep_b] - pa[keep_a]).max(initial=0.0) <= 1e-5 * h

    @PROPERTY
    @given(seed=st.integers(0, 2**16), h=st.floats(0.05, 0.4), scale=st.floats(0.2, 5.0))
    def test_scaling_data_and_bandwidth(self, seed, h, scale):
        cloud = ring_cloud(seed=seed, n=80)
        a = extract_ridge(cloud, h)
        b = extract_ridge(PointCloud(cloud.points * scale), h * scale)
        assert len(a) == len(b)
        assert np.abs(b.positions / scale - a.positions).max(initial=0.0) <= 1e-5 * h
