"""Workloads, output checks and end-to-end metrics of the ridgecover benchmark.

Each workload is a closed loop of one caller in this process: the next
operation starts when the previous one returns, until ``--seconds`` have
passed (the last operation runs to its end).  Risk estimation runs with
one worker and BLAS with one thread.  The workload seed fixes every
input: seed 0 gives the dataset seeds named below (for the first input
of a workload) and CLI seed 0, and any other value shifts all of them
together.  The program only sees the generated inputs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of
``layers.py``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import layers
import ridgecover.cli
import ridgecover.scms
from ridgecover.coverage import Manifold, loss_pair
from ridgecover.datasets import SyntheticSpec, generate
from run import BLAS_VARS, ROOT

OUT = ROOT / ".bench_out"
DEFAULT_SECONDS = 15.0
SETUP_REPEATS = 7
TINY_N = 150
TINY_LOSS_CEILING = 0.5
PROBE_SIZE = 2000
# Input j of a run with seed s uses dataset seed base_seed + SEED_STRIDE*s + j.
# The stride exceeds every workload's input count, so consecutive seeds
# never share a sample and both ridge workloads start from the same clouds.
SEED_STRIDE = 16
SELECT_OUTPUTS = ("select.json", "risk_curve.csv", "ridge.csv", "ridge.json")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ridge_loss1", "coord"),
)


@dataclass(frozen=True)
class Workload:
    """The seeded inputs of one workload and the operation run on them.

    ``h`` set: the operation is ``extract_ridge`` at that bandwidth.
    Otherwise it is ``ridgecover select ... --emit-ridge`` on the sample
    written as CSV, with ``select_args`` added and ``grid_size``
    bandwidths expected in the risk curve.

    A run cycles over ``inputs`` samples with consecutive dataset seeds.
    SCMS work and ridge loss vary by 5-10% from sample to sample; several
    inputs per run keep a run's figures close to those of the next seed.
    """

    name: str
    kind: str
    base_seed: int
    n: int
    noise_sigma: float | None
    # Ceiling on the L1 coverage loss to the generating curve, about 1.4-1.5x
    # the largest value seen when the benchmark was defined (48 circle
    # samples; seeds 0-9 of each select workload).
    loss_ceiling: float
    inputs: int = 1
    h: float | None = None
    select_args: tuple[str, ...] = ()
    grid_size: int = 0
    # SCMS iteration profile measured at seed 0 when the benchmark was
    # defined; the traced run reports how its own counts compare.
    reference_profile: tuple[tuple[str, int], ...] = ()


WORKLOADS = {w.name: w for w in (
    # h = 0.1 is about h_bar/4: kernel sums dominate, SCMS has a long tail
    # (480 step batches) and ~8% of pairs lie within a 7.4*h cutoff, so
    # truncated kernel sums would show their gain here.
    Workload("ridge_narrow", "noisy_circle", 3, 2000, 0.2, 0.10, inputs=6, h=0.1,
             reference_profile=(("scms.step_batches", 480),
                                ("scms.trajectory_steps", 88395),
                                ("scms.active_after_30", 1379),
                                ("scms.active_after_100", 88))),
    # The same clouds at h ~ h_bar: 12 step batches and over half of all
    # pairs inside the cutoff, so truncation should buy nothing; any
    # set-up time or memory it adds shows here.
    Workload("ridge_wide", "noisy_circle", 3, 2000, 0.2, 0.09, inputs=12, h=0.4),
    # The default user path: CLI, CSV load, 24 half-ridge fits over the
    # default 12-point grid, writers.  Ridges stay under 1024 points, the
    # linear-scan branch of coverage.
    Workload("select_split", "three_spirals", 4, 1500, None, 0.14,
             select_args=("--method", "split"), grid_size=12),
    # The only workload with the smoothed bootstrap, d=3 kernel sums and
    # ridges over 1024 points (the k-d tree branch of coverage).
    Workload("select_bootstrap", "helix", 2, 1200, 0.1, 0.14,
             select_args=("--method", "bootstrap", "--replicates", "4",
                          "--grid", "0.05:0.15:3:geom"), grid_size=3),
)}


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass(frozen=True)
class Inputs:
    cloud: ridgecover.PointCloud
    truth: Manifold
    csv_path: Path | None


def build_inputs(w: Workload, seed: int, tiny: bool, workdir: Path) -> list[Inputs]:
    out = []
    for index in range(w.inputs):
        spec = SyntheticSpec(w.kind, n=TINY_N if tiny else w.n, noise_sigma=w.noise_sigma,
                             seed=w.base_seed + SEED_STRIDE * seed + index)
        cloud, truth = generate(spec)
        csv_path = None
        if w.h is None:
            workdir.mkdir(parents=True, exist_ok=True)
            csv_path = workdir / f"input{index}.csv"
            cloud.save_csv(csv_path)
        out.append(Inputs(cloud, truth, csv_path))
    return out


def operate(w: Workload, inputs: Inputs, seed: int, out_dir: Path):
    """The timed operation; returns what ``check`` inspects."""
    if w.h is not None:
        return ridgecover.scms.extract_ridge(inputs.cloud, w.h)
    argv = ["select", "--input", str(inputs.csv_path), "--output-dir", str(out_dir),
            "--workers", "1", "--seed", str(seed), "--emit-ridge", *w.select_args]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = ridgecover.cli.main(argv)
    return code, err.getvalue()


def _read_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows:
        raise CheckFailed("empty CSV file")
    return rows[0], rows[1:]


def _select_outputs(w: Workload, d: int, result, out_dir: Path):
    """Check the files ``select`` wrote; return their digest and the ridge."""
    code, err = result
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.strip()}")
    try:
        files = {name: (out_dir / name).read_bytes() for name in SELECT_OUTPUTS}
    except OSError as exc:
        raise CheckFailed(f"missing output: {exc}") from exc
    try:
        summary = json.loads(files["select.json"])
        ridge_meta = json.loads(files["ridge.json"])
        header, rows = _read_csv(files["risk_curve.csv"])
        grid = [float(row[header.index("h")]) for row in rows]
        h_star, h_bar = summary["h_star"], summary["h_bar"]
        if len(grid) != w.grid_size or summary["n_grid"] != w.grid_size:
            raise CheckFailed(f"risk curve has {len(grid)} bandwidths, expected {w.grid_size}")
        if h_star not in grid or not h_star <= h_bar:
            raise CheckFailed(f"h_star={h_star} not in the grid or above h_bar={h_bar}")
        header, rows = _read_csv(files["ridge.csv"])
        if header[:d] != [f"x{a}" for a in range(d)]:
            raise CheckFailed(f"unexpected ridge.csv header {header}")
        positions = np.array([[float(v) for v in row[:d]] for row in rows]).reshape(-1, d)
        if positions.shape[0] != ridge_meta["n_ridge_points"]:
            raise CheckFailed("ridge.csv and ridge.json disagree on the ridge size")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
    digest = hashlib.sha256()
    for name in SELECT_OUTPUTS:
        digest.update(name.encode() + b"\0" + files[name])
    return digest, positions


def check(w: Workload, inputs: Inputs, result, out_dir: Path) -> tuple[str, np.ndarray]:
    """Check one operation's output; return its digest and ridge positions."""
    if w.h is not None:
        positions = result.positions
        digest = hashlib.sha256(repr(positions.shape).encode() + positions.tobytes())
    else:
        digest, positions = _select_outputs(w, inputs.cloud.d, result, out_dir)
    if positions.shape[0] == 0:
        raise CheckFailed("empty ridge")
    if not np.all(np.isfinite(positions)):
        raise CheckFailed("non-finite ridge positions")
    return digest.hexdigest(), positions


def setup_probe(w: Workload, seed: int, tiny: bool) -> int:
    """Child side of the set-up timing: build the input, report ready."""
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        build_inputs(w, seed, tiny, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_setup(w: Workload, seed: int, tiny: bool, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its input being ready."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--setup-probe",
           "--workload", w.name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
    return times


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": git_commit(),
    }


def _warm_up(w: Workload, seed: int, workdir: Path) -> None:
    """Run the operation once on a tiny input so lazy imports are done."""
    inputs = build_inputs(w, seed, True, workdir / "warmup")[0]
    operate(w, inputs, seed, workdir / "warmup" / "out")


@dataclass
class Tally:
    """What the operations of one run did, per input and tracing mode."""

    times: dict = field(default_factory=dict)  # traced -> input -> seconds
    digests: dict = field(default_factory=dict)  # input -> digest of first output
    losses: dict = field(default_factory=dict)  # input -> ridge_loss1
    layers: list = field(default_factory=list)  # layer metrics per traced op
    spans: list = field(default_factory=list)  # spans of the last traced op
    notes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def wall(self, traced: bool) -> float | None:
        """Mean over inputs of each input's median operation time."""
        per_input = self.times.get(traced, {})
        if not per_input:
            return None
        return statistics.fmean(statistics.median(t) for t in per_input.values())


def _run_once(w: Workload, inputs: Inputs, index: int, seed: int, ceiling: float,
              out_dir: Path, tracer, tally: Tally) -> None:
    """Run, time and check one operation on input ``index``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    traced = tracer is not None and tracer.recording
    start = time.perf_counter()
    try:
        result = operate(w, inputs, seed, out_dir)
    except Exception:
        result, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if traced:
        tally.layers.append(tracer.end_op())
        tally.spans = tracer.spans
    tally.attempted += 1
    try:
        if result is None:
            raise CheckFailed(f"operation raised\n{error}")
        digest, positions = check(w, inputs, result, out_dir)
        if index not in tally.digests:
            tally.digests[index] = digest
            tally.losses[index] = loss_pair(Manifold(positions), inputs.truth).loss1
        if digest != tally.digests[index]:
            raise CheckFailed("outputs differ from the first operation on this input")
        if tally.losses[index] > ceiling:
            raise CheckFailed(f"ridge_loss1={tally.losses[index]} above {ceiling}")
        tally.times.setdefault(traced, {}).setdefault(index, []).append(elapsed)
    except CheckFailed as exc:
        tally.failed += 1
        tally.notes.append(f"operation {tally.attempted - 1} (input {index}) failed: {exc}")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> tuple[list[str], dict]:
    """Run one workload; return report lines and the result object.

    Untraced runs cycle over the workload's inputs.  Traced runs use the
    first input only and alternate untraced and traced operations.
    Either way every step of the cycle runs at least once.
    """
    setup = [] if trace else time_setup(w, seed, tiny, setup_repeats)
    workdir = OUT / f"work-{w.name}-{os.getpid()}"
    tracer = layers.Tracer() if trace else None
    tally = Tally()
    ceiling = TINY_LOSS_CEILING if tiny else w.loss_ceiling
    try:
        inputs = build_inputs(w, seed, tiny, workdir)
        _warm_up(w, seed, workdir)
        if trace:
            inputs = inputs[:1]
            probe_spec = SyntheticSpec("noisy_circle", n=PROBE_SIZE, noise_sigma=0.2,
                                       seed=3 + SEED_STRIDE * seed)
            probe_points = generate(probe_spec)[0].points
            probe = layers.probes(probe_points, TINY_N if tiny else PROBE_SIZE)
            tracer.install()
            cycle = [(0, False), (0, True)]
        else:
            cycle = [(index, False) for index in range(len(inputs))]
        started = time.perf_counter()
        for step, (index, traced) in enumerate(itertools.cycle(cycle)):
            if traced:
                tracer.begin_op()
            _run_once(w, inputs[index], index, seed, ceiling, workdir / "out", tracer, tally)
            if step + 1 >= len(cycle) and time.perf_counter() - started >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    lines = list(tally.notes)
    if trace:
        units = dict(layers.METRICS)
        metrics = {name: statistics.median(op[name] for op in tally.layers)
                   for name in tally.layers[0]} if tally.layers else {}
        metrics.update(probe)
        untraced, traced = tally.wall(False), tally.wall(True)
        if untraced and traced:
            metrics["trace.overhead_frac"] = traced / untraced - 1.0
        if w.reference_profile and seed == 0 and not tiny and tally.layers:
            diffs = [f"{name} {tally.layers[0][name]} (reference {ref})"
                     for name, ref in w.reference_profile if tally.layers[0][name] != ref]
            lines.append("scms profile: " + ("; ".join(diffs) if diffs else
                         "matches the reference counts"))
        _write_spans(w, seed, tally.spans)
    else:
        units = dict(END_TO_END)
        metrics = {
            "wall_s": tally.wall(False),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ridge_loss1": (statistics.fmean(tally.losses.values())
                            if tally.losses else None),
        }
        counts = [len(t) for t in tally.times.get(False, {}).values()]
        lines.append(f"wall_s: mean over {len(inputs)} inputs of the median of "
                     f"{counts} operations; ridge_loss1: mean over the inputs; "
                     f"setup_s: median of {len(setup)} fresh interpreters")
    lines.append(f"failed_frac = {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / tally.attempted:.4g}")
    correct = tally.failed == 0 and all(metrics.get(name) is not None for name in units)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    return lines, result


def _write_spans(w: Workload, seed: int, spans) -> None:
    """Write the spans of the run's last traced operation as JSON lines."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{w.name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")


def _report(name: str, seed: int, lines: list[str], result: dict) -> None:
    print(f"workload {name}, seed {seed}")
    print("provenance " + json.dumps(provenance(seed), sort_keys=True))
    for line in lines:
        print(line)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:42s} {entry['value']!s:>24} {entry['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=False)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        rows[name] = json.loads(out[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print("\n" + " ".join([f"{'workload':18s}"] + [f"{m:>14s}" for m in names]
                          + [f"{'failed_frac':>12s}"]))
    for name, row in rows.items():
        values = [row["metrics"][m]["value"] for m in names]
        cells = [f"{v:14.6g}" if v is not None else f"{'-':>14s}" for v in values]
        print(" ".join([f"{name:18s}"] + cells
                       + [f"{row['failed'] / row['attempted']:12.4g}"]))
    units = {m: entry["unit"] for m, entry in next(iter(rows.values()))["metrics"].items()}
    print("units: " + ", ".join(f"{m} [{u}]" for m, u in units.items()) + ", failed_frac [1]")
    print("correct: " + str(all(row["correct"] for row in rows.values())).lower())
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    w = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(w, args.seed, args.tiny)
    lines, result = run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny)
    _report(w.name, args.seed, lines, result)
    print(json.dumps(result))
    return 0
