"""Tests for the subspace constrained mean shift machinery."""

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
from ridgecover.kde import _CUTOFF, _Cells, _kernel_sums
from ridgecover.scms import _newton_scale, _normal_frame, _step_batch


def ring_cloud(seed=7, n=2000, radius=2.0, sigma=0.2):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return PointCloud(pts + sigma * rng.standard_normal((n, 2)))


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
        batch, ok = _step_batch(model, xs)
        assert ok.all()
        for i in range(30):
            np.testing.assert_array_equal(scms_step(model, xs[i]), batch[i])


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
        x0, ok = cloud.points.copy(), []
        model = KernelModel(cloud, 0.3)
        # re-run the published single-step op from each data point until
        # convergence, collecting final positions in mesh order
        cfg = ScmsConfig()
        tol = cfg.resolved_tolerance(0.3)
        finals = []
        for i in range(cloud.n):
            x = x0[i]
            for _ in range(cfg.max_iterations):
                x_new = scms_step(model, x)
                done = np.linalg.norm(x_new - x) < tol
                x = x_new
                if done:
                    break
            finals.append(x)
        finals = np.array(finals)
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

    def test_endpoints_match_scms_step_loop_bitwise(self):
        # With no density threshold every converged trajectory on this
        # ring is retained, so the whole batch output can be compared.
        cloud = ring_cloud(seed=11, n=60)
        cfg = ScmsConfig(density_threshold_fraction=0.0)
        for h in (0.1, 0.3):
            ridge = extract_ridge(cloud, h, cfg)
            model = KernelModel(cloud, h)
            tol = cfg.resolved_tolerance(h)
            finals, iters, converged = [], [], []
            for x in cloud.points:
                done = False
                for it in range(1, cfg.max_iterations + 1):
                    x_new = scms_step(model, x)
                    done = np.sqrt(np.sum((x_new - x) ** 2)) < tol
                    x = x_new
                    if done:
                        break
                finals.append(x)
                iters.append(it)
                converged.append(done)
            converged = np.array(converged)
            assert converged.sum() == len(ridge) > 0
            np.testing.assert_array_equal(ridge.positions, np.array(finals)[converged])
            np.testing.assert_array_equal(ridge.iterations, np.array(iters)[converged])

    def test_newton_factor_inverts_the_normal_slope(self):
        # Where the factor is not clipped it is -1/kappa, kappa the rate
        # at which the normal coefficient v . (m(x) - x) changes along v,
        # turning of the eigenbasis included: check against differences.
        cloud = ring_cloud(n=600)
        for h in (0.1, 0.25):
            model = KernelModel(cloud, h)

            def parts(x):
                s0, s1, s2, s3 = _kernel_sums(cloud.points, x, h, 3, cells=model.cells)
                lam, vec, m = _normal_frame(s0, s1, s2)
                return -h * s1 / s0[:, None], lam, vec, _newton_scale(s0, s3, lam, vec, m)

            shift, _, vec, scale = parts(cloud.points)
            v = vec[:, :, 1]
            inside = (scale[:, 1] > 1.01) & (scale[:, 1] < 3.99)
            assert inside.sum() > 50
            eps = 1e-5 * h
            coefs = []
            for x in (cloud.points + eps * v, cloud.points - eps * v):
                shift_x, _, vec_x, _ = parts(x)
                normal = vec_x[:, :, 1] * np.sign(np.sum(vec_x[:, :, 1] * v, axis=1))[:, None]
                coefs.append(np.sum(shift_x * normal, axis=1))
            slope = (coefs[0] - coefs[1]) / (2 * eps)
            np.testing.assert_allclose(slope[inside], -1.0 / scale[inside, 1], atol=1e-4)

    def test_endpoints_are_fixed_points_of_the_step(self):
        # A scaled step only stretches the normal coefficients of the
        # SCMS step, so both vanish at the same points: from a tightly
        # converged endpoint, neither the step nor the plain SCMS step
        # h^2 |V V^T grad p| / p moves further than the default tolerance.
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

        def endpoints(tol):
            x = cloud.points.copy()
            converged = np.zeros(cloud.n, dtype=bool)
            active = np.arange(cloud.n)
            for _ in range(ScmsConfig().max_iterations):
                x_next, ok = _step_batch(model, x[active])
                done = ok & (np.sqrt(np.sum((x_next - x[active]) ** 2, axis=1)) < tol)
                x[active] = x_next
                converged[active[done]] = True
                active = active[ok & ~done]
            return x, converged

        loose, loose_done = endpoints(ScmsConfig().resolved_tolerance(h))
        tight, tight_done = endpoints(1e-10 * h)
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
