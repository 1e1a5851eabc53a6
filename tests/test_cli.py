"""End-to-end tests of the command-line interface.

Commands run in-process through cli.main for speed; the determinism
acceptance criterion re-runs them as subprocesses with different thread
settings.
"""

import json

import numpy as np
import pytest

from ridgecover import cli, load_csv
from ridgecover.cli import main


def run(args):
    return main([str(a) for a in args])


def read(path):
    return path.read_text()


@pytest.fixture()
def three_point_csv(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("x0,x1\n0.0,0.0\n1.0,0.0\n0.0,1.0\n")
    return path


@pytest.fixture()
def ring_csv(tmp_path):
    out = tmp_path / "ring"
    code = run(["gen", "--kind", "noisy_circle", "--n", "400", "--seed", "3",
                "--noise-sigma", "0.2", "--output-dir", out])
    assert code == 0
    return out / "sample.csv"


class TestGen:
    def test_writes_sample_truth_and_metadata(self, tmp_path):
        out = tmp_path / "gen"
        code = run(["gen", "--kind", "noisy_circle", "--n", "100", "--seed", "7",
                    "--output-dir", out])
        assert code == 0
        sample = load_csv(out / "sample.csv")
        truth = load_csv(out / "truth.csv")
        assert sample.n == 100
        assert truth.n >= 500
        meta = json.loads(read(out / "gen.json"))
        assert meta["spec"]["kind"] == "noisy_circle"
        assert meta["spec"]["seed"] == 7

    def test_identical_files_on_repeat(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gen", "--kind", "spiral", "--n", "60", "--seed", "5",
                        "--output-dir", out]) == 0
        for name in ("sample.csv", "truth.csv", "gen.json"):
            assert read(a / name) == read(b / name)

    def test_invalid_kind_nonzero_exit_names_kinds(self, tmp_path, capsys):
        code = run(["gen", "--kind", "blobs", "--output-dir", tmp_path])
        assert code != 0
        err = capsys.readouterr().err
        assert "spiral" in err and "helix" in err

    def test_param_override(self, tmp_path):
        out = tmp_path / "p"
        assert run(["gen", "--kind", "noisy_circle", "--n", "50", "--seed", "1",
                    "--param", "radius=3.0", "--noise-sigma", "0",
                    "--output-dir", out]) == 0
        cloud = load_csv(out / "sample.csv")
        radii = np.sqrt((cloud.points**2).sum(axis=1))
        assert np.allclose(radii, 3.0, atol=1e-6)


class TestRidge:
    def test_ring_ridge_near_circle(self, ring_csv, tmp_path):
        out = tmp_path / "ridge"
        assert run(["ridge", "--input", ring_csv, "--h", "0.25",
                    "--output-dir", out]) == 0
        rows = read(out / "ridge.csv").strip().splitlines()
        assert rows[0].startswith("x0,x1,density")
        pts = np.array([[float(v) for v in r.split(",")[:2]] for r in rows[1:]])
        assert len(pts) > 0
        assert np.abs(np.sqrt((pts**2).sum(axis=1)) - 2.0).max() < 0.15
        meta = json.loads(read(out / "ridge.json"))
        assert meta["h"] == 0.25
        assert meta["n_ridge_points"] == len(pts)

    def test_nonpositive_h_usage_error(self, ring_csv, tmp_path):
        assert run(["ridge", "--input", ring_csv, "--h", "0",
                    "--output-dir", tmp_path]) != 0

    def test_missing_input_usage_error(self, tmp_path):
        assert run(["ridge", "--h", "0.2", "--output-dir", tmp_path]) != 0

    def test_repeat_identical(self, ring_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["ridge", "--input", ring_csv, "--h", "0.3",
                        "--output-dir", out]) == 0
        assert read(a / "ridge.csv") == read(b / "ridge.csv")
        assert read(a / "ridge.json") == read(b / "ridge.json")

    def test_empty_ridge_exit_zero_with_warning(self, tmp_path, capsys):
        # coincident points yield an empty ridge; scriptable: exit 0
        src = tmp_path / "dup.csv"
        src.write_text("x0,x1\n" + "1.0,2.0\n" * 5)
        out = tmp_path / "ridge"
        assert run(["ridge", "--input", src, "--h", "0.5",
                    "--output-dir", out]) == 0
        assert "empty" in capsys.readouterr().err
        rows = read(out / "ridge.csv").strip().splitlines()
        # header only, still naming both coordinates
        assert rows == ["x0,x1,density,projected_gradient_norm,lambda2"]

    def test_tiny_h_on_three_points_gives_empty_ridge(self, three_point_csv, tmp_path,
                                                      capsys):
        out = tmp_path / "ridge"
        assert run(["ridge", "--input", three_point_csv, "--h", "0.001",
                    "--output-dir", out]) == 0
        assert "warning: ridge is empty" in capsys.readouterr().err
        rows = read(out / "ridge.csv").strip().splitlines()
        assert rows == ["x0,x1,density,projected_gradient_norm,lambda2"]
        assert json.loads(read(out / "ridge.json"))["n_ridge_points"] == 0

    def test_grid_mesh_flag(self, ring_csv, tmp_path):
        out = tmp_path / "gridmesh"
        assert run(["ridge", "--input", ring_csv, "--h", "0.3",
                    "--mesh", "grid:0.5", "--output-dir", out]) == 0
        assert len(read(out / "ridge.csv").strip().splitlines()) > 1

    @pytest.mark.parametrize("flags", [
        ["--h", "1e-300"],  # h**2 underflows to 0
        ["--h", "1e-160"],  # the density scale overflows
        # 1e18 and infinitely many grid points: refused before allocation
        ["--h", "0.5", "--mesh", "grid:1e-9"],
        ["--h", "0.5", "--mesh", "grid:1e-320"],
        ["--h", "0.5", "--mesh", "grid:nan"],
    ], ids=["h-underflow", "h-overflow", "grid-1e-9", "grid-1e-320", "grid-nan"])
    def test_unusable_bandwidth_or_mesh_exits_2(self, three_point_csv, tmp_path,
                                                capsys, flags):
        out = tmp_path / "ridge"
        assert run(["ridge", "--input", three_point_csv, *flags,
                    "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        if "grid:nan" in flags:
            assert "grid_resolution" in err
        assert not out.exists()


class TestSelect:
    def test_selects_and_reports(self, ring_csv, tmp_path):
        out = tmp_path / "sel"
        assert run(["select", "--input", ring_csv,
                    "--grid", "0.15:0.3:3:geom", "--seed", "1",
                    "--output-dir", out]) == 0
        meta = json.loads(read(out / "select.json"))
        assert meta["method"] == "split"
        rows = read(out / "risk_curve.csv").strip().splitlines()
        assert rows[0] == "h,risk1,risk2,method"
        assert len(rows) == 4
        hs = [float(r.split(",")[0]) for r in rows[1:]]
        risks = [float(r.split(",")[1]) for r in rows[1:]]
        assert meta["h_star"] == hs[int(np.argmin(risks))]
        assert meta["h_star"] <= meta["h_bar"]

    def test_singleton_grid(self, ring_csv, tmp_path):
        out = tmp_path / "sel1"
        assert run(["select", "--input", ring_csv, "--grid", "0.2:0.2:1",
                    "--seed", "1", "--output-dir", out]) == 0
        assert json.loads(read(out / "select.json"))["h_star"] == 0.2

    def test_grid_above_cap_reports_hbar(self, ring_csv, tmp_path, capsys):
        code = run(["select", "--input", ring_csv, "--grid", "5:9:3",
                    "--seed", "1", "--output-dir", tmp_path])
        assert code != 0
        assert "h_bar" in capsys.readouterr().err

    def test_warns_when_h_star_is_a_grid_edge(self, ring_csv, tmp_path, capsys):
        # at seed 1 these grids pick their smallest, largest and a middle h
        for grid in ("0.05:0.1:2:geom", "0.15:0.3:3:geom", "0.25:0.5:5:lin"):
            out = tmp_path / grid
            assert run(["select", "--input", ring_csv, "--grid", grid, "--seed", "1",
                        "--output-dir", out]) == 0
            h_star = json.loads(read(out / "select.json"))["h_star"]
            rows = read(out / "risk_curve.csv").strip().splitlines()[1:]
            hs = [float(r.split(",")[0]) for r in rows]
            edge = {min(hs): "smallest", max(hs): "largest"}.get(h_star)
            warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("warning:")]
            assert warnings == ([f"warning: h_star={h_star} is the {edge} bandwidth left "
                                 "in the grid; the risk minimum may lie outside it"]
                                if edge else [])

    def test_no_edge_warning_on_a_singleton_grid(self, ring_csv, tmp_path, capsys):
        assert run(["select", "--input", ring_csv, "--grid", "0.2:0.2:1",
                    "--seed", "1", "--output-dir", tmp_path]) == 0
        assert "warning:" not in capsys.readouterr().err

    def test_constant_column_selects_h_bar_with_edge_warning(self, ring_csv, tmp_path,
                                                             capsys):
        # the ring with a constant third coordinate: the estimated risk
        # falls all the way to h_bar, the top of the default grid
        ring = load_csv(ring_csv).points
        src = tmp_path / "flat.csv"
        np.savetxt(src, np.column_stack([ring, np.full(len(ring), 1.5)]),
                   delimiter=",", header="x0,x1,x2", comments="")
        out = tmp_path / "sel"
        assert run(["select", "--input", src, "--seed", "0", "--workers", "1",
                    "--output-dir", out]) == 0
        meta = json.loads(read(out / "select.json"))
        assert meta["h_star"] == meta["h_bar"]
        err = capsys.readouterr().err
        assert f"warning: h_star={meta['h_star']} is the largest bandwidth" in err

    def test_split_on_three_rows_exits_2(self, three_point_csv, tmp_path, capsys):
        out = tmp_path / "sel"
        assert run(["select", "--input", three_point_csv, "--method", "split",
                    "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "n >= 4" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_all_infinite_risk_exits_2(self, tmp_path, capsys):
        # two far clusters of coincident points: every ridge is empty
        src = tmp_path / "clusters.csv"
        src.write_text("x0,x1\n" + "0.0,0.0\n" * 4 + "100.0,100.0\n" * 4)
        assert run(["select", "--input", src, "--grid", "0.5:1:2",
                    "--output-dir", tmp_path / "sel"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_emit_ridge(self, ring_csv, tmp_path):
        out = tmp_path / "emit"
        assert run(["select", "--input", ring_csv, "--grid", "0.2:0.3:2",
                    "--seed", "1", "--emit-ridge", "--output-dir", out]) == 0
        assert (out / "ridge.csv").exists()
        assert (out / "ridge.json").exists()

    def test_bootstrap_emit_ridge_reuses_risk_ridge(self, ring_csv, tmp_path,
                                                    monkeypatch):
        ref = tmp_path / "ref"
        assert run(["ridge", "--input", ring_csv, "--h", "0.25",
                    "--output-dir", ref]) == 0

        def refit(*args, **kwargs):
            raise AssertionError("select refitted the bootstrap's ridge")

        monkeypatch.setattr(cli, "extract_ridge", refit)
        out = tmp_path / "boot"
        assert run(["select", "--input", ring_csv, "--method", "bootstrap",
                    "--replicates", "1", "--grid", "0.25:0.25:1", "--seed", "1",
                    "--emit-ridge", "--output-dir", out]) == 0
        assert read(out / "ridge.csv") == read(ref / "ridge.csv")
        assert json.loads(read(out / "ridge.json"))["h"] == 0.25

    def test_bootstrap_method(self, ring_csv, tmp_path):
        out = tmp_path / "boot"
        assert run(["select", "--input", ring_csv, "--method", "bootstrap",
                    "--replicates", "2", "--grid", "0.2:0.3:2", "--seed", "1",
                    "--output-dir", out]) == 0
        meta = json.loads(read(out / "select.json"))
        assert meta["method"] == "bootstrap"
        assert meta["replicates"] == 2

    def test_config_file_and_flag_precedence(self, ring_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid=0.2:0.3:2\nseed=9\nmethod=split\n")
        a = tmp_path / "a"
        assert run(["select", "--input", ring_csv, "--config", cfg,
                    "--output-dir", a]) == 0
        meta_a = json.loads(read(a / "select.json"))
        assert meta_a["seed"] == 9
        # explicit flag beats the config file
        b = tmp_path / "b"
        assert run(["select", "--input", ring_csv, "--config", cfg,
                    "--seed", "4", "--output-dir", b]) == 0
        assert json.loads(read(b / "select.json"))["seed"] == 4


class TestConfigFile:
    """Config keys stand for flags, so argparse types and checks them."""

    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_ridge_bandwidth_is_a_float(self, ring_csv, tmp_path):
        cfg = self.write(tmp_path, "h=0.3\n")
        out = tmp_path / "ridge"
        assert run(["ridge", "--input", ring_csv, "--config", cfg,
                    "--output-dir", out]) == 0
        assert json.loads(read(out / "ridge.json"))["h"] == 0.3

    def test_gen_noise_sigma_is_a_float(self, tmp_path):
        cfg = self.write(tmp_path, "kind=noisy_circle\nn=50\nnoise_sigma=0.1\n")
        out = tmp_path / "gen"
        assert run(["gen", "--config", cfg, "--output-dir", out]) == 0
        spec = json.loads(read(out / "gen.json"))["spec"]
        assert spec["noise_sigma"] == 0.1
        assert spec["n"] == 50

    def test_select_tolerance_is_a_float(self, ring_csv, tmp_path):
        cfg = self.write(tmp_path, "grid=0.2:0.3:2\ntolerance=1e-5\n")
        out = tmp_path / "sel"
        assert run(["select", "--input", ring_csv, "--config", cfg,
                    "--output-dir", out]) == 0
        tolerance = json.loads(read(out / "select.json"))["config"]["tolerance"]
        assert tolerance == 1e-5 and isinstance(tolerance, float)

    def test_emit_ridge_true_and_false(self, ring_csv, tmp_path):
        for value in ("true", "false"):
            cfg = self.write(tmp_path, f"grid=0.2:0.2:1\nemit-ridge={value}\n")
            out = tmp_path / value
            assert run(["select", "--input", ring_csv, "--config", cfg,
                        "--output-dir", out]) == 0
            assert (out / "ridge.csv").exists() == (value == "true")

    def test_unknown_key_exits_2(self, ring_csv, tmp_path, capsys):
        cfg = self.write(tmp_path, "h=0.3\nbandwidth=0.3\n")
        assert run(["ridge", "--input", ring_csv, "--config", cfg,
                    "--output-dir", tmp_path]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "ridge.csv").exists()

    def test_bad_value_exits_2(self, ring_csv, tmp_path):
        cfg = self.write(tmp_path, "h=wide\n")
        with pytest.raises(SystemExit) as exc:
            run(["ridge", "--input", ring_csv, "--config", cfg, "--output-dir", tmp_path])
        assert exc.value.code == 2


class TestCompare:
    def circles(self, tmp_path, r1=1.0, r2=1.1):
        ang = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        paths = []
        for i, r in enumerate((r1, r2)):
            pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
            path = tmp_path / f"circle{i}.csv"
            np.savetxt(path, pts, delimiter=",", header="x0,x1", comments="")
            paths.append(path)
        return paths

    def test_identical_files(self, tmp_path):
        a, _ = self.circles(tmp_path)
        out = tmp_path / "cmp"
        assert run(["compare", a, a, "--output-dir", out]) == 0
        meta = json.loads(read(out / "compare.json"))
        assert meta["loss1"] == 0.0
        assert meta["hausdorff"] == 0.0
        rows = read(out / "coverage.csv").strip().splitlines()
        vals = [r.split(",") for r in rows[1:]]
        assert all(float(v[1]) == 1.0 and float(v[2]) == 1.0 for v in vals)

    def test_concentric_hausdorff(self, tmp_path):
        a, b = self.circles(tmp_path, 1.0, 1.1)
        out = tmp_path / "cmp2"
        assert run(["compare", a, b, "--radii", "0:0.2:21:lin",
                    "--output-dir", out]) == 0
        meta = json.loads(read(out / "compare.json"))
        assert meta["hausdorff"] == pytest.approx(0.1, abs=0.01)
        assert meta["loss1"] == pytest.approx(0.1, abs=0.01)

    def test_repeat_identical(self, tmp_path):
        a, b = self.circles(tmp_path)
        outs = [tmp_path / "x", tmp_path / "y"]
        for out in outs:
            assert run(["compare", a, b, "--output-dir", out]) == 0
        assert read(outs[0] / "coverage.csv") == read(outs[1] / "coverage.csv")
        assert read(outs[0] / "compare.json") == read(outs[1] / "compare.json")


class TestParsing:
    def test_grid_spec_forms(self):
        from ridgecover.cli import _parse_span

        np.testing.assert_allclose(
            _parse_span("1:4:3:lin", "g"), [1.0, 2.5, 4.0]
        )
        np.testing.assert_allclose(
            _parse_span("1:4:3:geom", "g"), [1.0, 2.0, 4.0]
        )
        np.testing.assert_allclose(_parse_span("1:4:3", "g"), [1.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            _parse_span("1:4", "g")
        with pytest.raises(ValueError):
            _parse_span("0:4:3:geom", "g")
        with pytest.raises(ValueError):
            _parse_span("1:4:3:cubic", "g")

    def test_mesh_spec(self):
        from ridgecover.cli import _parse_mesh

        assert _parse_mesh("data") == ("data", None)
        assert _parse_mesh("grid:0.25") == ("grid", 0.25)
        with pytest.raises(ValueError):
            _parse_mesh("voronoi")
