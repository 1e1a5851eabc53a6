"""Tests for risk estimation and bandwidth selection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ridgecover import (
    INFINITE_RISK,
    Manifold,
    PointCloud,
    RiskCurve,
    RiskEstimate,
    ScmsConfig,
    SyntheticSpec,
    extract_ridge,
    generate,
    loss_pair,
    normal_reference_bandwidth,
    risk_bootstrap,
    risk_split,
    select_bandwidth,
)
from ridgecover import risk


def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def no_fit(*args, **kwargs):
    raise AssertionError("a ridge was fitted")


class IdentityRng:
    """Test double: identity permutation, zero noise, self-spawning."""

    def permutation(self, n):
        return np.arange(n)

    def integers(self, low, high=None, size=None):
        stop = low if high is None else high
        return np.arange(size) % stop

    def standard_normal(self, size):
        return np.zeros(size)

    def spawn(self, k):
        return [self] * k


def ring_cloud(seed=3, n=400, sigma=0.2):
    cloud, _ = generate(
        SyntheticSpec(kind="noisy_circle", n=n, noise_sigma=sigma, seed=seed)
    )
    return cloud


class TestRiskSplit:
    def test_identical_halves_zero_risk(self):
        # two interleaved copies of one cloud: under the identity
        # permutation both halves are the same point set, so the two
        # ridges coincide and the risk vanishes exactly.
        rng = np.random.default_rng(1)
        half = rng.standard_normal((60, 2))
        data = PointCloud(np.concatenate([half, half]))
        est = risk_split(data, 0.4, rng=IdentityRng())
        assert est.risk1 == 0.0
        assert est.risk2 == 0.0
        assert est.method == "split"

    def test_jensen(self):
        est = risk_split(ring_cloud(), 0.3, rng=np.random.default_rng(0))
        assert est.risk1**2 <= est.risk2 + 1e-12

    def test_odd_n_extra_point_in_first_half(self):
        data = PointCloud(np.random.default_rng(2).standard_normal((9, 2)))
        # returns without error; halves are 5 and 4 under the hood
        est = risk_split(data, 0.8, rng=IdentityRng())
        assert math.isfinite(est.risk1)

    def test_small_n_rejected(self):
        data = PointCloud(np.zeros((3, 2)) + np.arange(3)[:, None])
        with pytest.raises(ValueError):
            risk_split(data, 0.5, rng=np.random.default_rng(0))

    def test_reproducible(self):
        cloud = ring_cloud()
        a = risk_split(cloud, 0.3, rng=np.random.default_rng(5))
        b = risk_split(cloud, 0.3, rng=np.random.default_rng(5))
        assert a == b


class TestRiskBootstrap:
    def test_degenerate_bootstrap_zero_risk(self):
        # rigged rng resamples every point once and its standard_normal
        # returns zeros, so the noise is zero whatever its scale: the
        # replicate is the data and its ridge equals the base ridge.
        cloud = ring_cloud(n=200)
        est = risk_bootstrap(cloud, 0.3, replicates=1, rng=IdentityRng())
        assert est.risk1 == 0.0
        assert est.risk2 == 0.0

    def test_jensen(self):
        est = risk_bootstrap(
            ring_cloud(n=300), 0.3, replicates=2, rng=np.random.default_rng(0)
        )
        assert est.risk1**2 <= est.risk2 + 1e-12

    def test_replicate_order_invariance(self):
        # averages computed with exact summation: any permutation of the
        # replicate losses yields the identical mean.
        losses = [0.1, 0.37, 0.022, 1.5e-3, 0.81]
        perm = [losses[i] for i in (3, 0, 4, 2, 1)]
        assert math.fsum(losses) / 5 == math.fsum(perm) / 5

    def test_workers_do_not_change_result(self):
        cloud = ring_cloud(n=250)
        a = risk_bootstrap(cloud, 0.35, replicates=3,
                           rng=np.random.default_rng(7), workers=1)
        b = risk_bootstrap(cloud, 0.35, replicates=3,
                           rng=np.random.default_rng(7), workers=2)
        assert a == b

    def test_reproducible(self):
        cloud = ring_cloud(n=250)
        a = risk_bootstrap(cloud, 0.3, replicates=2, rng=np.random.default_rng(11))
        b = risk_bootstrap(cloud, 0.3, replicates=2, rng=np.random.default_rng(11))
        assert a == b

    def test_carries_full_data_ridge(self):
        cloud = ring_cloud(n=250)
        est = risk_bootstrap(cloud, 0.3, replicates=1, rng=np.random.default_rng(5))
        ridge = extract_ridge(cloud, 0.3)
        for name in ("positions", "density", "projected_gradient_norm", "lambda2"):
            np.testing.assert_array_equal(getattr(est.ridge, name), getattr(ridge, name))
        # the ridge takes no part in equality; splitting fits no full ridge
        assert est == dataclasses.replace(est, ridge=None)
        assert risk_split(cloud, 0.3, rng=np.random.default_rng(5)).ridge is None

    def test_bad_replicates_rejected(self):
        with pytest.raises(ValueError):
            risk_bootstrap(ring_cloud(n=50), 0.3, replicates=0)


class TestSentinel:
    def test_empty_ridge_gives_infinite_risk(self):
        # five coincident points: the ridge is empty in 2-D (tied
        # leading eigenvalues), so the estimate is the sentinel, not an
        # exception.
        data = PointCloud(np.tile([[0.0, 0.0]], (8, 1)))
        est = risk_split(data, 0.5, rng=IdentityRng())
        assert est.risk1 == INFINITE_RISK
        assert est.risk2 == INFINITE_RISK
        boot = risk_bootstrap(data, 0.5, replicates=2, rng=IdentityRng())
        assert boot.risk1 == INFINITE_RISK

    def test_selection_avoids_sentinel(self):
        # a sentinel entry never wins the argmin when a finite entry exists
        entries = (
            RiskEstimate(h=0.1, risk1=INFINITE_RISK, risk2=INFINITE_RISK,
                         method="split", replicates=1),
            RiskEstimate(h=0.2, risk1=0.5, risk2=0.3, method="split", replicates=1),
        )
        curve = RiskCurve(entries=entries, h_bar=1.0, objective="l1")
        assert curve.h_star == 0.2


class TestSelectBandwidth:
    def test_default_grid_is_twelve_geometric_points_up_to_h_bar(self):
        cloud = ring_cloud(n=60)
        h_bar = normal_reference_bandwidth(cloud)
        curve = select_bandwidth(cloud, rng=np.random.default_rng(4), workers=1)
        explicit = select_bandwidth(cloud, np.geomspace(h_bar / 20, h_bar, 12),
                                    rng=np.random.default_rng(4), workers=1)
        assert curve == explicit
        assert len(curve.entries) == 12 and curve.entries[-1].h == h_bar

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 0.0])
    def test_non_finite_or_nonpositive_grid_rejected(self, monkeypatch, bad):
        monkeypatch.setattr(risk, "extract_ridge", no_fit)
        with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
            select_bandwidth(ring_cloud(n=50), [0.3, bad], rng=np.random.default_rng(0))

    def test_singleton_grid(self):
        cloud = ring_cloud()
        h_bar = normal_reference_bandwidth(cloud)
        curve = select_bandwidth(cloud, [0.5 * h_bar], rng=np.random.default_rng(0))
        assert curve.h_star == 0.5 * h_bar
        assert len(curve.entries) == 1

    def test_argmin_contract_by_rescan(self):
        cloud = ring_cloud()
        grid = np.geomspace(0.08, normal_reference_bandwidth(cloud), 5)
        curve = select_bandwidth(cloud, grid, rng=np.random.default_rng(1))
        values = [e.risk1 for e in curve.entries]
        best = min(values)
        assert curve.h_star == min(
            e.h for e, v in zip(curve.entries, values) if v == best
        )
        assert curve.h_star <= curve.h_bar

    def test_grid_above_cap_rejected(self):
        cloud = ring_cloud()
        h_bar = normal_reference_bandwidth(cloud)
        with pytest.raises(ValueError) as err:
            select_bandwidth(cloud, [2 * h_bar, 3 * h_bar],
                             rng=np.random.default_rng(0))
        assert f"{h_bar}" in str(err.value)

    def test_grid_points_above_cap_dropped(self):
        cloud = ring_cloud()
        h_bar = normal_reference_bandwidth(cloud)
        curve = select_bandwidth(cloud, [0.3 * h_bar, 0.6 * h_bar, 2 * h_bar],
                                 rng=np.random.default_rng(2))
        assert len(curve.entries) == 2
        assert all(e.h <= h_bar for e in curve.entries)

    def test_objective_l2_uses_risk2(self):
        cloud = ring_cloud()
        grid = np.geomspace(0.1, normal_reference_bandwidth(cloud), 4)
        curve = select_bandwidth(cloud, grid, objective="l2",
                                 rng=np.random.default_rng(3))
        values = [e.risk2 for e in curve.entries]
        assert curve.h_star == curve.entries[int(np.argmin(values))].h

    def test_bit_identical_reproducibility(self):
        cloud = ring_cloud()
        grid = np.geomspace(0.1, 0.3, 3)
        a = select_bandwidth(cloud, grid, rng=np.random.default_rng(42))
        b = select_bandwidth(cloud, grid, rng=np.random.default_rng(42))
        assert a == b

    @pytest.mark.parametrize("c", [4.0, 1 / 8, 3.0])
    def test_scaling_the_data_scales_the_selection(self, c):
        """Scaling the data by c scales h_bar and the default grid by c,
        risk1 by c and risk2 by c^2, and keeps the argmin grid index.

        ``np.geomspace`` does not scale exactly, so the grids differ in
        their last bits: values are compared relative, not bit for bit.
        """
        cloud, _ = generate(SyntheticSpec("spiral", n=300, seed=5))
        a = select_bandwidth(cloud, rng=np.random.default_rng(6), workers=1)
        b = select_bandwidth(PointCloud(cloud.points * c), rng=np.random.default_rng(6),
                             workers=1)
        index = [e.h for e in a.entries].index(a.h_star)
        assert [e.h for e in b.entries].index(b.h_star) == index
        for name, power in (("h", 1), ("risk1", 1), ("risk2", 2)):
            va = np.array([getattr(e, name) for e in a.entries])
            vb = np.array([getattr(e, name) for e in b.entries])
            assert np.isfinite(va).sum() >= 6
            np.testing.assert_array_equal(np.isfinite(vb), np.isfinite(va))
            np.testing.assert_allclose(vb, va * c**power, rtol=1e-9)

    def test_all_infinite_risk_rejected(self):
        # two far clusters of coincident points: at every grid h each
        # half-sample ridge is empty (tied eigenvalues at both modes)
        data = PointCloud(np.repeat([[0.0, 0.0], [100.0, 100.0]], 4, axis=0))
        with pytest.raises(ValueError, match="infinite at every grid bandwidth"):
            select_bandwidth(data, [0.5, 1.0], rng=np.random.default_rng(0))

    def test_bad_method_or_objective(self):
        cloud = ring_cloud(n=50)
        with pytest.raises(ValueError):
            select_bandwidth(cloud, [0.1], method="jackknife")
        with pytest.raises(ValueError):
            select_bandwidth(cloud, [0.1], objective="l3")

    def test_split_on_three_points_rejected_before_any_pool(self, monkeypatch):
        monkeypatch.setattr(risk, "ProcessPoolExecutor", no_pool)
        data = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert normal_reference_bandwidth(data) > 0.2
        with pytest.raises(ValueError, match="n >= 4"):
            select_bandwidth(data, [0.1, 0.2], method="split", workers=2,
                             rng=np.random.default_rng(0))

    def test_zero_replicates_rejected_before_any_pool(self, monkeypatch):
        monkeypatch.setattr(risk, "ProcessPoolExecutor", no_pool)
        data = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert normal_reference_bandwidth(data) > 0.2
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            select_bandwidth(data, [0.1, 0.2], method="bootstrap", replicates=0,
                             workers=2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_rejected_before_any_fit(self, monkeypatch, workers):
        monkeypatch.setattr(risk, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(risk, "extract_ridge", no_fit)
        cloud = ring_cloud(n=50)
        rng = np.random.default_rng(0)
        calls = [
            lambda: select_bandwidth(cloud, [0.2], workers=workers, rng=rng),
            lambda: select_bandwidth(cloud, [0.2], method="bootstrap", replicates=2,
                                     workers=workers, rng=rng),
            lambda: risk_split(cloud, 0.2, rng=rng, workers=workers),
            lambda: risk_bootstrap(cloud, 0.2, replicates=2, rng=rng, workers=workers),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="workers must be >= 1"):
                call()

    @pytest.mark.parametrize("method, fits_per_h", [("split", 2), ("bootstrap", 3)])
    def test_one_map_over_every_fit_of_the_grid(self, monkeypatch, method, fits_per_h):
        # one map; every fit in exactly one task; the loss-only fits in one
        # group per worker, and each bootstrap reference alone
        mapped = []
        map_ordered = risk._map_ordered

        def recording(fn, tasks, workers):
            mapped.append((fn, [fits for fits, _ in tasks]))
            return map_ordered(fn, tasks, 1)

        monkeypatch.setattr(risk, "_map_ordered", recording)
        monkeypatch.setattr(risk.os, "cpu_count", lambda: 2)
        grid = [0.2, 0.25, 0.3]
        for workers in (1, 2):
            del mapped[:]
            select_bandwidth(ring_cloud(n=120), grid, method=method, replicates=2,
                             workers=workers, rng=np.random.default_rng(0))
            [(fn, tasks)] = mapped
            assert fn is risk._fit_task
            fits = [fit for task in tasks for fit in task]
            assert len({id(fit) for fit in fits}) == len(fits) == fits_per_h * len(grid)
            alone = [task for task in tasks if method == "bootstrap" and task[0][2] is None]
            assert all(len(task) == 1 for task in alone)
            assert len(alone) == (len(grid) if method == "bootstrap" else 0)
            assert len(tasks) == len(alone) + workers

    @pytest.mark.parametrize("method", ["split", "bootstrap"])
    def test_only_bootstrap_references_go_through_extract_ridge(self, monkeypatch, method):
        # the full-data ridge of each grid h is one extract_ridge call; the
        # fits that only feed losses are stepped together
        calls = []
        fit = risk.extract_ridge

        def recording(data, h, cfg):
            calls.append((data.points, h))
            return fit(data, h, cfg)

        monkeypatch.setattr(risk, "extract_ridge", recording)
        cloud = ring_cloud(n=120)
        grid = [0.2, 0.25, 0.3]
        curve = select_bandwidth(cloud, grid, method=method, replicates=2, workers=1,
                                 rng=np.random.default_rng(0))
        assert [h for _, h in calls] == (grid if method == "bootstrap" else [])
        assert all(np.array_equal(points, cloud.points) for points, _ in calls)
        assert len(curve.entries) == len(grid)

    @pytest.mark.parametrize("method, rows", [("split", 360), ("bootstrap", 720)])
    def test_groups_bounded_by_mesh_rows(self, monkeypatch, method, rows):
        # more mesh rows than _GROUP_ROWS: more groups, the same curve
        cloud, grid = ring_cloud(n=120), [0.2, 0.25, 0.3]
        kwargs = dict(method=method, replicates=2, workers=1)
        expected = select_bandwidth(cloud, grid, rng=np.random.default_rng(0), **kwargs)
        tasks = []
        fit_task = risk._fit_task

        def recording(args):
            tasks.append(len(args[0]))
            return fit_task(args)

        monkeypatch.setattr(risk, "_fit_task", recording)
        monkeypatch.setattr(risk, "_GROUP_ROWS", rows // 3)
        curve = select_bandwidth(cloud, grid, rng=np.random.default_rng(0), **kwargs)
        assert curve.entries == expected.entries
        # six loss-only fits of rows / 6 mesh rows each: three groups of
        # two, then the references
        assert tasks == [2, 2, 2] + ([1, 1, 1] if method == "bootstrap" else [])

    def test_pool_capped_at_core_count(self, monkeypatch):
        # nine fits (three bandwidths, 1 + 2 each) in five tasks (three
        # references, two groups of draws) on two cores: 64 workers asked
        # for, a pool of two started
        sizes = []

        class InlinePool:
            """Records its size and runs the tasks here, starting no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(risk, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(risk.os, "cpu_count", lambda: 2)
        curve = select_bandwidth(ring_cloud(n=120), [0.2, 0.25, 0.3], method="bootstrap",
                                 replicates=2, workers=64, rng=np.random.default_rng(0))
        assert sizes == [2]
        assert len(curve.entries) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["split", "bootstrap"])
    def test_entries_use_one_spawned_stream_per_bandwidth(self, method, workers):
        # entry k is the estimator at grid[k] run on stream k of
        # rng.spawn(len(grid)), bit for bit, whatever the worker count.
        cloud = ring_cloud(n=120)
        grid = [0.2, 0.3]
        curve = select_bandwidth(cloud, grid, method=method, replicates=2,
                                 workers=workers, rng=np.random.default_rng(9))
        assert [e.h for e in curve.entries] == grid
        streams = np.random.default_rng(9).spawn(len(grid))
        for entry, h, stream in zip(curve.entries, grid, streams):
            if method == "split":
                expected = risk_split(cloud, h, rng=stream, workers=1)
            else:
                expected = risk_bootstrap(cloud, h, replicates=2, rng=stream, workers=1)
            assert entry == expected
            if method == "bootstrap":
                for name in ("positions", "density", "projected_gradient_norm",
                             "lambda2", "iterations"):
                    np.testing.assert_array_equal(getattr(entry.ridge, name),
                                                  getattr(expected.ridge, name))


@st.composite
def mesh_pairs(draw):
    """Two planar meshes of 1-6 points at one scale from 1e-3 to 1e6."""
    scale = draw(st.floats(1e-3, 1e6))
    unit = st.integers(1, 6).flatmap(
        lambda m: hnp.arrays(np.float64, (m, 2), elements=st.floats(-1.0, 1.0)))
    return draw(unit) * scale, draw(unit) * scale


class TestRiskTypes:
    def test_jensen_enforced(self):
        with pytest.raises(ValueError):
            RiskEstimate(h=0.1, risk1=2.0, risk2=1.0, method="split", replicates=1)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pair=mesh_pairs(), more=st.lists(mesh_pairs(), max_size=4))
    @example(pair=(np.array([[0.0, -2.2497561371436747]]),
                   np.array([[0.0, 3721.906732675493]])), more=[])
    def test_jensen_holds_at_every_scale(self, pair, more):
        # rounding makes loss1^2 exceed loss2 by an ulp at large scale
        # (the example); neither the pair nor a replicate mean may raise.
        losses = [loss_pair(Manifold(a), Manifold(b)) for a, b in [pair, *more]]
        a, b = Manifold(pair[0]), Manifold(pair[1])
        assert loss_pair(b, a) == losses[0]
        RiskEstimate(h=0.1, method="bootstrap", replicates=len(losses),
                     risk1=math.fsum(p.loss1 for p in losses) / len(losses),
                     risk2=math.fsum(p.loss2 for p in losses) / len(losses))

    def test_curve_invariants_enforced(self):
        e = RiskEstimate(h=0.5, risk1=0.1, risk2=0.05, method="split", replicates=1)
        with pytest.raises(ValueError):
            RiskCurve(entries=(e,), h_bar=0.4, objective="l1")

    @pytest.mark.parametrize("objective, h_star", [("l1", 0.2), ("l2", 0.3)])
    def test_curve_derives_h_star(self, objective, h_star):
        # ties go to the smallest h, in whatever order the entries come,
        # and the infinite sentinel at the smallest h never wins
        def est(h, risk1, risk2):
            return RiskEstimate(h=h, risk1=risk1, risk2=risk2, method="split",
                                replicates=1)

        entries = [est(0.1, INFINITE_RISK, INFINITE_RISK), est(0.4, 0.5, 0.3),
                   est(0.3, 0.5, 0.3), est(0.2, 0.5, 0.4)]
        for order in (entries, entries[::-1]):
            curve = RiskCurve(entries=order, h_bar=1.0, objective=objective)
            assert curve.h_star == h_star
        with pytest.raises(TypeError):
            RiskCurve(entries=entries, h_bar=1.0, h_star=0.4, objective=objective)

    def test_curve_with_infinite_risk_everywhere_rejected(self):
        entries = [RiskEstimate(h=h, risk1=INFINITE_RISK, risk2=INFINITE_RISK,
                                method="bootstrap", replicates=2) for h in (0.1, 0.2)]
        with pytest.raises(ValueError, match="infinite at every grid bandwidth"):
            RiskCurve(entries=entries, h_bar=1.0, objective="l1")

    def test_curve_serialization(self, tmp_path):
        import json

        entries = (
            RiskEstimate(h=0.1, risk1=0.2, risk2=0.06, method="split", replicates=1),
            # a numpy bandwidth, as from a np.geomspace grid, reads as a float
            RiskEstimate(h=np.float64(0.2), risk1=0.1, risk2=0.02, method="split",
                         replicates=1),
        )
        curve = RiskCurve(entries=entries, h_bar=0.5, objective="l1")
        csv_path = tmp_path / "curve.csv"
        curve.save_csv(csv_path)
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "h,risk1,risk2,method"
        assert rows[2] == "0.2,0.1,0.02,split"
        json_path = tmp_path / "curve.json"
        curve.save_json(json_path, extra={"seed": 7})
        meta = json.loads(json_path.read_text())
        assert meta["h_star"] == 0.2
        assert meta["h_bar"] == 0.5
        assert meta["seed"] == 7
        assert meta["h_star_at_grid_edge"] == "largest"
