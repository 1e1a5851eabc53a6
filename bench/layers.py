"""Per-layer tracing for the benchmark's traced run.

The program is not edited.  Each layer boundary is wrapped from here by
replacing the name in the module that calls it (``ridgecover.scms._kernel_sums``
wraps the kernel sums SCMS runs, ``ridgecover.cli.load_csv`` the CSV load
the CLI runs, and so on).  A wrapper records a span (name, start, end,
parent) and the counts of work it can see in its arguments and result.
Spans stay in memory and are written out when the run ends.  Everything
runs in one process with one worker, so no layer waits on another and
wait time is not recorded.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

import ridgecover.cli
import ridgecover.coverage
import ridgecover.kde
import ridgecover.risk
import ridgecover.scms

# Reference sets of at most this many points took the linear-scan branch
# of coverage._nearest_dists when the benchmark was defined.
SMALL_SET = 1024

PROBE_REPEATS = 7

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("kde.kernel_sums.calls", "count"),
    ("kde.kernel_sums.pairs", "count"),
    ("kde.kernel_sums.s", "s"),
    ("kde.kernel_sums.ns_per_pair", "ns"),
    ("kde.sample_smoothed.calls", "count"),
    ("kde.sample_smoothed.s", "s"),
    ("kde.probe.o0_s", "s"),
    ("kde.probe.o1_s", "s"),
    ("kde.probe.o2_s", "s"),
    ("scms.extract_ridge.calls", "count"),
    ("scms.extract_ridge.s", "s"),
    ("scms.self_s", "s"),
    ("scms.step_batches", "count"),
    ("scms.trajectory_steps", "count"),
    ("scms.active_after_30", "count"),
    ("scms.active_after_100", "count"),
    ("scms.retained_frac", "fraction"),
    ("risk.estimate.calls", "count"),
    ("risk.estimate.s", "s"),
    ("risk.self_s", "s"),
    ("risk.ridge_fits", "count"),
    ("risk.infinite_entries", "count"),
    ("coverage.nearest_dists.calls", "count"),
    ("coverage.nearest_dists.queries", "count"),
    ("coverage.nearest_dists.small_set_calls", "count"),
    ("coverage.nearest_dists.s", "s"),
    ("coverage.loss_pair.s", "s"),
    ("coverage.probe.nearest_small_s", "s"),
    ("coverage.probe.nearest_large_s", "s"),
    ("datasets.load_csv.s", "s"),
    ("datasets.load_csv.rows", "count"),
    ("cli.self_s", "s"),
    ("cli.write_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


class Tracer:
    """Spans and counts recorded at the wrapped layer boundaries.

    Wrappers pass straight through unless ``recording`` is set, so only
    the traced operations are measured.
    """

    def __init__(self):
        self.recording = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._batches: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent)
                self._stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def install(self) -> None:
        scms, risk, cli = ridgecover.scms, ridgecover.risk, ridgecover.cli

        def kernel_sums(args, _):
            self.counts["kde.kernel_sums.pairs"] += args[1].shape[0] * args[0].shape[0]

        def step_batch(args, _):
            self._batches.append(args[1].shape[0])

        def extract_ridge(_, ridge):
            batches, self._batches = self._batches, []
            self.counts["scms.trajectory_steps"] += sum(batches)
            self.counts["scms.active_after_30"] += batches[30] if len(batches) > 30 else 0
            self.counts["scms.active_after_100"] += batches[100] if len(batches) > 100 else 0
            self.counts["scms.mesh_points"] += batches[0] if batches else 0
            self.counts["scms.retained_points"] += len(ridge)

        def ridge_fit(args, ridge):
            self.counts["risk.ridge_fits"] += 1
            extract_ridge(args, ridge)

        def estimate(_, est):
            self.counts["risk.infinite_entries"] += int(est.failed)

        def nearest(args, _):
            self.counts["coverage.nearest_dists.queries"] += args[0].shape[0]
            small = args[1].shape[0] <= SMALL_SET
            self.counts["coverage.nearest_dists.small_set_calls"] += int(small)

        def load_csv(_, cloud):
            self.counts["datasets.load_csv.rows"] += cloud.n

        self.wrap(scms, "_kernel_sums", "kde.kernel_sums", kernel_sums)
        self.wrap(scms, "_step_batch", "scms.step_batch", step_batch)
        # The benchmark's own call (ridge_*), then the program's callers.
        self.wrap(scms, "extract_ridge", "scms.extract_ridge", extract_ridge)
        self.wrap(risk, "extract_ridge", "scms.extract_ridge", ridge_fit)
        self.wrap(cli, "extract_ridge", "scms.extract_ridge", ridge_fit)
        self.wrap(risk, "risk_split", "risk.estimate", estimate)
        self.wrap(risk, "risk_bootstrap", "risk.estimate", estimate)
        self.wrap(risk, "sample_smoothed", "kde.sample_smoothed")
        self.wrap(risk, "loss_pair", "coverage.loss_pair")
        self.wrap(ridgecover.coverage, "_nearest_dists", "coverage.nearest_dists", nearest)
        self.wrap(cli, "load_csv", "datasets.load_csv", load_csv)
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "_write_json", "cli.write")
        self.wrap(risk.RiskCurve, "save_csv", "cli.write")
        self.wrap(risk.RiskCurve, "save_json", "cli.write")
        self.wrap(scms.RidgeSet, "save_csv", "cli.write")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def begin_op(self) -> None:
        self.spans, self.counts = [], Counter()
        self._stack, self._batches = [], []
        self.recording = True

    def end_op(self) -> dict:
        """Stop recording; return this operation's layer metrics."""
        self.recording = False
        return op_metrics(self.spans, self.counts)


def op_metrics(spans, counts) -> dict:
    """Layer metrics of one operation from its spans and counts."""
    total, calls, self_s = defaultdict(float), Counter(), defaultdict(float)
    child = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for index, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_s[name] += end - start - child[index]
    pairs = counts["kde.kernel_sums.pairs"]
    mesh = counts["scms.mesh_points"]
    return {
        "kde.kernel_sums.calls": calls["kde.kernel_sums"],
        "kde.kernel_sums.pairs": pairs,
        "kde.kernel_sums.s": total["kde.kernel_sums"],
        "kde.kernel_sums.ns_per_pair": total["kde.kernel_sums"] / pairs * 1e9 if pairs else 0.0,
        "kde.sample_smoothed.calls": calls["kde.sample_smoothed"],
        "kde.sample_smoothed.s": total["kde.sample_smoothed"],
        "scms.extract_ridge.calls": calls["scms.extract_ridge"],
        "scms.extract_ridge.s": total["scms.extract_ridge"],
        # Kernel sums are only wrapped where SCMS calls them, so all of
        # them lie inside extract_ridge.
        "scms.self_s": total["scms.extract_ridge"] - total["kde.kernel_sums"],
        "scms.step_batches": calls["scms.step_batch"],
        "scms.trajectory_steps": counts["scms.trajectory_steps"],
        "scms.active_after_30": counts["scms.active_after_30"],
        "scms.active_after_100": counts["scms.active_after_100"],
        "scms.retained_frac": counts["scms.retained_points"] / mesh if mesh else 0.0,
        "risk.estimate.calls": calls["risk.estimate"],
        "risk.estimate.s": total["risk.estimate"],
        "risk.self_s": self_s["risk.estimate"],
        "risk.ridge_fits": counts["risk.ridge_fits"],
        "risk.infinite_entries": counts["risk.infinite_entries"],
        "coverage.nearest_dists.calls": calls["coverage.nearest_dists"],
        "coverage.nearest_dists.queries": counts["coverage.nearest_dists.queries"],
        "coverage.nearest_dists.small_set_calls":
            counts["coverage.nearest_dists.small_set_calls"],
        "coverage.nearest_dists.s": total["coverage.nearest_dists"],
        "coverage.loss_pair.s": total["coverage.loss_pair"],
        "datasets.load_csv.s": total["datasets.load_csv"],
        "datasets.load_csv.rows": counts["datasets.load_csv.rows"],
        "cli.self_s": self_s["cli.main"],
        "cli.write_s": total["cli.write"],
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes(points: np.ndarray, size: int, repeats: int = PROBE_REPEATS) -> dict:
    """Fixed-size timings of the two hot kernels, outside any workload.

    ``points`` supplies at least ``size`` rows; the kernel sums run
    ``size`` x ``size`` at h=0.1, the nearest-distance probes on a
    reference set of ``size // 2`` (linear scan) and ``size`` (k-d tree)
    points.
    """
    kernel_sums = ridgecover.kde._kernel_sums
    nearest = ridgecover.coverage._nearest_dists
    pts = np.ascontiguousarray(points[:size])
    half = size // 2
    moved = pts[::-1] + 0.01
    out = {
        f"kde.probe.o{order}_s": _median_time(
            lambda order=order: kernel_sums(pts, pts, 0.1, order), repeats)
        for order in (0, 1, 2)
    }
    out["coverage.probe.nearest_small_s"] = _median_time(
        lambda: nearest(pts[:half], pts[half:]), repeats)
    out["coverage.probe.nearest_large_s"] = _median_time(
        lambda: nearest(moved, pts), 3 * repeats)
    return out
