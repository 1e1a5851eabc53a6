"""Tests for synthetic generators and CSV ingestion."""

import warnings

import numpy as np
import pytest

from ridgecover import (
    KINDS,
    Manifold,
    PointCloud,
    SyntheticSpec,
    distance_to_set,
    generate,
    load_csv,
)


class TestSyntheticSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="spiral"):
            SyntheticSpec(kind="moons")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="spiral", n=0)
        with pytest.raises(ValueError):
            SyntheticSpec(kind="spiral", noise_sigma=-0.1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            SyntheticSpec(kind="spiral", seed=-5)

    def test_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="radius"):
            SyntheticSpec(kind="spiral", params={"radius": 1.0})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_params_and_noise(self, value):
        with pytest.raises(ValueError, match="params must be finite"):
            SyntheticSpec(kind="noisy_circle", params={"radius": value})
        with pytest.raises(ValueError, match="noise_sigma must be nonnegative and finite"):
            SyntheticSpec(kind="spiral", noise_sigma=value)

    def test_param_defaults_merged(self):
        spec = SyntheticSpec(kind="helix", params={"pitch": 0.3})
        assert spec.params == {"radius": 1.0, "pitch": 0.3}


class TestGenerate:
    @pytest.mark.parametrize("kind, params", [
        ("noisy_circle", {"radius": 1e308}),
        ("spiral", {"pitch": 1e300}),
        ("helix", {"pitch": 1e308}),
    ])
    def test_overflowing_curve_rejected_without_warning(self, kind, params):
        with pytest.raises(ValueError, match="arc length overflows"):
            generate(SyntheticSpec(kind=kind, n=10, params=params))

    def test_overflowing_noise_rejected_without_warning(self):
        with pytest.raises(ValueError, match="noisy sample overflows"):
            generate(SyntheticSpec(kind="noisy_circle", n=10, noise_sigma=1e308))

    @pytest.mark.parametrize("kind", KINDS)
    def test_shapes_and_dimensions(self, kind):
        cloud, truth = generate(SyntheticSpec(kind=kind, n=50, seed=1))
        d = 3 if kind == "helix" else 2
        assert cloud.n == 50 and cloud.d == d
        assert truth.m >= 500 and truth.d == d

    @pytest.mark.parametrize("kind", KINDS)
    def test_pure_in_spec(self, kind):
        spec = SyntheticSpec(kind=kind, n=40, seed=9)
        a_cloud, a_truth = generate(spec)
        b_cloud, b_truth = generate(spec)
        np.testing.assert_array_equal(a_cloud.points, b_cloud.points)
        np.testing.assert_array_equal(a_truth.points, b_truth.points)

    def test_seed_changes_sample_not_truth(self):
        a_cloud, a_truth = generate(SyntheticSpec(kind="spiral", n=40, seed=1))
        b_cloud, b_truth = generate(SyntheticSpec(kind="spiral", n=40, seed=2))
        assert not np.array_equal(a_cloud.points, b_cloud.points)
        np.testing.assert_array_equal(a_truth.points, b_truth.points)

    @pytest.mark.parametrize("kind", KINDS)
    def test_noiseless_points_lie_on_curve(self, kind):
        cloud, truth = generate(SyntheticSpec(kind=kind, n=200, noise_sigma=0.0, seed=4))
        seg = np.sqrt(np.sum(np.diff(truth.points[:5], axis=0) ** 2, axis=1))
        resolution = float(seg.max())
        for p in cloud.points:
            assert distance_to_set(p, truth) <= resolution

    @pytest.mark.parametrize("kind,block", [
        ("spiral", 1000), ("helix", 1000), ("noisy_circle", 720),
    ])
    def test_mesh_arc_spacing(self, kind, block):
        _, truth = generate(SyntheticSpec(kind=kind, n=10, seed=0))
        pts = truth.points
        assert pts.shape[0] == block
        seg = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
        length = float(seg.sum())
        assert seg.max() <= length / 500.0

    def test_three_spirals_mesh_blocks(self):
        _, truth = generate(SyntheticSpec(kind="three_spirals", n=10, seed=0))
        assert truth.m == 3 * 700
        for k in range(3):
            arm = truth.points[k * 700:(k + 1) * 700]
            seg = np.sqrt(np.sum(np.diff(arm, axis=0) ** 2, axis=1))
            length = float(seg.sum())
            assert seg.max() <= length / 500.0
        # arms are rotated copies: identical radius profiles
        r0 = np.sqrt((truth.points[:700] ** 2).sum(axis=1))
        r1 = np.sqrt((truth.points[700:1400] ** 2).sum(axis=1))
        np.testing.assert_allclose(r0, r1, atol=1e-9)

    def test_circle_mean_norm_against_monte_carlo_oracle(self):
        # E||R*u + eps|| with R=2, sigma=0.2 via an independent MC oracle
        cloud, _ = generate(
            SyntheticSpec(kind="noisy_circle", n=2000, noise_sigma=0.2, seed=12)
        )
        got = float(np.mean(np.sqrt((cloud.points**2).sum(axis=1))))
        mc = np.random.default_rng(999)
        ang = mc.uniform(0.0, 2.0 * np.pi, 200_000)
        pts = np.stack([2.0 * np.cos(ang), 2.0 * np.sin(ang)], axis=1)
        pts += 0.2 * mc.standard_normal(pts.shape)
        expected = float(np.mean(np.sqrt((pts**2).sum(axis=1))))
        assert abs(got - expected) < 0.05

    def test_auto_noise_is_five_percent_of_extent(self):
        spec = SyntheticSpec(kind="noisy_circle", n=4000, seed=3)
        cloud, truth = generate(spec)
        extent = float(np.max(truth.points.max(axis=0) - truth.points.min(axis=0)))
        # radial residual std should be close to 0.05 * extent
        residual = np.sqrt((cloud.points**2).sum(axis=1)) - 2.0
        assert np.std(residual) == pytest.approx(0.05 * extent, rel=0.1)

    def test_helix_geometry(self):
        _, truth = generate(SyntheticSpec(kind="helix", n=10, seed=0))
        radii = np.sqrt((truth.points[:, :2] ** 2).sum(axis=1))
        np.testing.assert_allclose(radii, 1.0, atol=1e-9)
        z = truth.points[:, 2]
        assert z.min() == pytest.approx(0.0, abs=1e-12)
        assert z.max() == pytest.approx(0.15 * 6 * np.pi, rel=1e-9)


class TestLoadCsv:
    def test_minimal_two_rows(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,2\n3,4\n")
        cloud = load_csv(path)
        assert (cloud.n, cloud.d) == (2, 2)
        np.testing.assert_array_equal(cloud.points, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_and_named_columns(self, tmp_path):
        path = tmp_path / "radec.csv"
        path.write_text("ra,dec,z\n210.5,12.25,0.05\n211.0,13.5,0.051\n")
        cloud = load_csv(path, columns=("ra", "dec"))
        np.testing.assert_array_equal(
            cloud.points, [[210.5, 12.25], [211.0, 13.5]]
        )

    def test_malformed_row_skipped_with_counted_warning(self, tmp_path):
        rows = [f"{i},{i * 2}" for i in range(100)]
        rows[57] = "oops,data"
        path = tmp_path / "dirty.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="skipped 1 malformed"):
            cloud = load_csv(path)
        assert cloud.n == 99

    def test_non_finite_rows_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1,2\ninf,4\n5,6\n")
        with pytest.warns(UserWarning, match="skipped 1"):
            cloud = load_csv(path)
        assert cloud.n == 2

    def test_missing_column_is_error(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not found"):
            load_csv(path, columns=("a", "zz"))

    def test_repeated_column_is_error(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match=r"named more than once: \['a'\]"):
            load_csv(path, columns=("a", "b", "a"))

    def test_columns_without_header_is_error(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="no header"):
            load_csv(path, columns=("a", "b"))

    def test_byte_order_mark_before_data(self, tmp_path):
        # the mark used to spoil the first value, so the first row was taken as a header
        path = tmp_path / "bom.csv"
        path.write_bytes("1.0,2.0\n3.0,4.0\n5.0,6.0\n".encode("utf-8-sig"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = load_csv(path)
        np.testing.assert_array_equal(cloud.points, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom_header.csv"
        path.write_bytes("x0,x1\n1.0,2.0\n3.0,4.0\n".encode("utf-8-sig"))
        cloud = load_csv(path, columns=["x0"])
        np.testing.assert_array_equal(cloud.points, [[1.0], [3.0]])

    def test_no_valid_rows_is_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        cloud = PointCloud(rng.standard_normal((25, 2)) * 123.456)
        path = tmp_path / "rt.csv"
        cloud.save_csv(path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        # and once more through a second cycle
        path2 = tmp_path / "rt2.csv"
        back.save_csv(path2)
        assert path.read_text() == path2.read_text()
