"""Command-line front end: gen | ridge | select | compare.

Each subcommand reads/writes plot-ready CSV files plus one JSON metadata
file echoing the fully resolved configuration, so a run can be
reproduced exactly from its outputs.  Diagnostics go to stderr; the exit
code is 0 iff the outputs were written.

Options may also be supplied through a ``key=value`` config file via
``--config``.  Each key names a flag of the subcommand, spelt with ``-``
or ``_`` (``noise-sigma`` or ``noise_sigma``), and each line stands for
that flag with its value, so values are converted and checked exactly as
on the command line.  Flags given on the command line win over the file,
an unknown key is an error, and the switch ``emit_ridge`` takes ``true``
or ``false``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from ._io import write_json
from .coverage import Manifold, coverage_cdf, hausdorff, loss_pair
from .datasets import KINDS, SyntheticSpec, generate, load_csv
from .kde import PointCloud, _count
from .risk import select_bandwidth
from .scms import RidgeSet, ScmsConfig, extract_ridge

try:
    _VERSION = version("ridgecover")
except PackageNotFoundError:  # running from a source tree
    _VERSION = "0.1.0"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_span(text: str, what: str):
    """Parse 'min:max:count[:geom|lin]' into a numpy grid."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"{what} must look like min:max:count[:geom|lin], got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    scale = parts[3] if len(parts) == 4 else "geom"
    if not math.isfinite(hi - lo):  # also a nan or infinite end
        raise ValueError(f"{what}: min and max must be finite and so must max - min, "
                         f"got {text!r}")
    if count < 1:
        raise ValueError(f"{what}: count must be >= 1")
    if hi < lo:
        raise ValueError(f"{what}: max must be >= min")
    if scale == "geom":
        if lo <= 0.0:
            raise ValueError(f"{what}: geometric spacing needs min > 0")
        return np.geomspace(lo, hi, count)
    if scale == "lin":
        return np.linspace(lo, hi, count)
    raise ValueError(f"{what}: spacing must be 'geom' or 'lin', got {scale!r}")


def _parse_mesh(text: str):
    if text == "data":
        return "data", None
    if text.startswith("grid:"):
        try:
            return "grid", float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--mesh grid:<res> needs a number, got {text!r}") from None
    raise ValueError(f"--mesh must be 'data' or 'grid:<res>', got {text!r}")


def _parse_columns(text: str | None):
    if text is None:
        return None
    cols = [c.strip() for c in text.split(",") if c.strip()]
    if not cols:
        raise ValueError("--columns must name at least one column")
    return cols


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        key, val = item.split("=", 1)
        params[key.strip()] = float(val)
    return params or None


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The flags of ``parser`` that a ``key=value`` config file stands for."""
    flags = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        # argparse has no public lookup from an option string to its action
        action = parser._option_string_actions.get(flag)
        if action is None or flag in ("--config", "--help"):
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if action.nargs != 0:
            flags.append(f"{flag}={val}")
        elif val.lower() == "true":
            flags.append(flag)
        elif val.lower() != "false":
            raise ValueError(f"{path}:{lineno}: {key} takes true or false, got {val!r}")
    return flags


def _scms_config(args: argparse.Namespace) -> ScmsConfig:
    mesh, res = _parse_mesh(args.mesh)
    return ScmsConfig(
        max_iterations=args.max_iters,
        tolerance=args.tolerance,
        mesh=mesh,
        grid_resolution=res,
        density_threshold_fraction=args.threshold_frac,
    )


def _write_json(path: Path, payload: dict) -> None:
    write_json(path, {**payload, "version": _VERSION})


def _write_ridge(out: Path, ridge: RidgeSet, cfg: ScmsConfig, fields: dict) -> None:
    """Write ``ridge.csv`` and ``ridge.json``, the latter with ``fields`` added."""
    ridge.save_csv(out / "ridge.csv")
    _write_json(out / "ridge.json", {**fields, **ridge.metadata(cfg)})
    if len(ridge) == 0:
        _log("warning: ridge is empty (all trajectories diverged or were filtered)")
    _log(f"wrote {out / 'ridge.csv'} ({len(ridge)} points)")


def _load_cloud(path: str, columns) -> PointCloud:
    return load_csv(path, columns=_parse_columns(columns))


def _add_scms_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=float, default=ScmsConfig.tolerance,
                   help="SCMS stop tolerance (default 1e-6*h)")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   default=ScmsConfig.max_iterations, help="SCMS iteration cap")
    p.add_argument("--mesh", default=ScmsConfig.mesh, help="SCMS mesh: data | grid:<res>")
    p.add_argument("--threshold-frac", dest="threshold_frac", type=float,
                   default=ScmsConfig.density_threshold_fraction,
                   help="density filter as a fraction of the peak")


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind is None:
        raise ValueError(f"gen requires --kind; valid kinds: {', '.join(KINDS)}")
    spec = SyntheticSpec(
        kind=args.kind,
        n=args.n,
        noise_sigma=args.noise_sigma,
        params=_parse_params(args.param),
        seed=args.seed,
    )
    cloud, truth = generate(spec)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud.save_csv(out / "sample.csv")
    PointCloud(truth.points).save_csv(out / "truth.csv")
    _write_json(out / "gen.json", {"command": "gen", "spec": asdict(spec)})
    _log(f"wrote {out / 'sample.csv'} ({cloud.n} rows), "
         f"{out / 'truth.csv'} ({truth.m} rows)")
    return 0


def cmd_ridge(args: argparse.Namespace) -> int:
    if args.input is None:
        raise ValueError("ridge requires --input")
    if args.h is None:
        raise ValueError("ridge requires --h")
    cloud = _load_cloud(args.input, args.columns)
    cfg = _scms_config(args)
    ridge = extract_ridge(cloud, args.h, cfg)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_ridge(out, ridge, cfg,
                 {"command": "ridge", "input": str(args.input), "h": args.h})
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    if args.input is None:
        raise ValueError("select requires --input")
    seed = _count(args.seed, "--seed", 0)
    cloud = _load_cloud(args.input, args.columns)
    grid = None if args.grid is None else _parse_span(args.grid, "--grid")
    cfg = _scms_config(args)
    rng = np.random.default_rng(seed)
    curve = select_bandwidth(cloud, grid, method=args.method,
                             objective=args.objective, cfg=cfg, rng=rng,
                             replicates=args.replicates, workers=args.workers)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve.save_csv(out / "risk_curve.csv")
    curve.save_json(out / "select.json", extra={
        "command": "select",
        "input": str(args.input),
        "seed": seed,
        "config": asdict(cfg),
        "version": _VERSION,
    })
    _log(f"selected h_star={curve.h_star} (cap h_bar={curve.h_bar})")
    edge = curve.h_star_at_grid_edge
    if edge is not None:
        _log(f"warning: h_star={curve.h_star} is the {edge} bandwidth left in the grid; "
             "the risk minimum may lie outside it")
    if args.emit_ridge:
        ridge = next(e.ridge for e in curve.entries if e.h == curve.h_star)
        if ridge is None:  # data splitting fitted only the halves
            ridge = extract_ridge(cloud, curve.h_star, cfg)
        _write_ridge(out, ridge, cfg,
                     {"command": "select --emit-ridge", "h": curve.h_star})
    _log(f"wrote {out / 'risk_curve.csv'} ({len(curve.entries)} bandwidths)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cols = _parse_columns(args.columns)
    a = Manifold(load_csv(args.manifold_a, columns=cols).points)
    b = Manifold(load_csv(args.manifold_b, columns=cols).points)
    haus = hausdorff(a, b)
    if args.radii is None:
        radii = np.linspace(0.0, haus, 64)
    else:
        radii = _parse_span(args.radii, "--radii")
    diagram = coverage_cdf(a, b, radii)
    losses = loss_pair(a, b)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    diagram.save_csv(out / "coverage.csv")
    _write_json(out / "compare.json", {
        "command": "compare",
        "manifold_a": str(args.manifold_a),
        "manifold_b": str(args.manifold_b),
        "loss1": losses.loss1,
        "loss2": losses.loss2,
        "hausdorff": haus,
    })
    _log(f"wrote {out / 'coverage.csv'} ({len(radii)} radii)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgecover",
        description="Density ridge extraction with coverage-risk bandwidth selection",
    )
    parser.add_argument("--version", action="version", version=_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset with ground truth")
    p.add_argument("--kind", help=f"dataset kind: {' | '.join(KINDS)}")
    p.add_argument("--n", type=int, default=1000, help="sample size")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                   help="noise standard deviation (default: 5%% of curve extent)")
    p.add_argument("--param", action="append",
                   help="curve parameter override, name=value (repeatable)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--output-dir", dest="output_dir", default=".", help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ridge", help="extract the density ridge at a fixed bandwidth")
    p.add_argument("--input", help="point cloud CSV")
    p.add_argument("--h", type=float, help="bandwidth")
    p.add_argument("--columns", help="comma-separated column names to use")
    _add_scms_flags(p)
    p.add_argument("--output-dir", dest="output_dir", default=".", help="output directory")
    p.set_defaults(func=cmd_ridge)

    p = sub.add_parser("select", help="select the bandwidth by estimated coverage risk")
    p.add_argument("--input", help="point cloud CSV")
    p.add_argument("--grid", help="bandwidth grid min:max:count[:geom|lin]; points "
                                  "above the normal reference cap h_bar are dropped "
                                  "(default: 12 geometric points from h_bar/20 to h_bar)")
    p.add_argument("--method", choices=["split", "bootstrap"], default="split",
                   help="risk estimator")
    p.add_argument("--replicates", type=int, default=10, help="bootstrap replicates")
    p.add_argument("--objective", choices=["l1", "l2"], default="l1", help="risk objective")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--workers", type=int,
                   help="worker processes for all ridge fits of the grid, capped at the "
                        "core count (default: all cores); results do not depend on it")
    p.add_argument("--columns", help="comma-separated column names to use")
    p.add_argument("--emit-ridge", dest="emit_ridge", action="store_true",
                   help="also extract and write the ridge at the selected bandwidth")
    _add_scms_flags(p)
    p.add_argument("--output-dir", dest="output_dir", default=".", help="output directory")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("compare", help="coverage diagram and losses for two manifolds")
    p.add_argument("manifold_a", help="first point mesh CSV")
    p.add_argument("manifold_b", help="second point mesh CSV")
    p.add_argument("--radii", help="radius grid min:max:count[:geom|lin] "
                                   "(default: 64 linear points up to the Hausdorff "
                                   "distance)")
    p.add_argument("--columns", help="comma-separated column names to use")
    p.add_argument("--output-dir", dest="output_dir", default=".", help="output directory")
    p.set_defaults(func=cmd_compare)

    for p in sub.choices.values():
        p.add_argument("--config", help="key=value config file; keys are this command's "
                                        "flag names (- or _), unknown keys are an error, "
                                        "flags given here win over the file, and "
                                        "switches (select's emit_ridge) take true or false")
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # The file's flags go right after the subcommand, so flags
            # given on the command line come later and win.
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.config, args.parser)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
