"""Smoke test of the benchmark harness.

Runs every workload at tiny sizes, untraced and traced, in one process
and checks that each run is correct and reports every metric named in
BENCHMARK.json with its unit.  Takes a few seconds:

    python3 bench/smoke.py
"""

import json
import sys

import run


def main() -> int:
    if not run.prepare():
        print("error: no ridgecover sources found", file=sys.stderr)
        return 2
    import harness

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(harness.WORKLOADS):
        print("error: BENCHMARK.json and the harness list different workloads")
        return 1
    problems = []
    for name, w in harness.WORKLOADS.items():
        for trace in (0, 1):
            lines, result = harness.run_workload(w, seed=1, seconds=0.0, trace=bool(trace),
                                                 tiny=True, setup_repeats=1)
            got = {m: entry["unit"] for m, entry in result["metrics"].items()}
            label = f"{name} --trace {trace}"
            if got != expected[trace]:
                problems.append(f"{label}: metrics {got} != {expected[trace]}")
            missing = [m for m, entry in result["metrics"].items()
                       if not isinstance(entry["value"], (int, float))]
            # Every workload runs SCMS, so a traced run that saw no work is broken.
            idle = [m for m in ("kde.kernel_sums.pairs", "scms.trajectory_steps")
                    if trace and not result["metrics"][m]["value"]]
            if idle:
                problems.append(f"{label}: no work recorded in {idle}")
            if missing or not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']}, "
                                f"no value for {missing}\n" + "\n".join(lines))
            print(f"{label}: {result['attempted']} operations, "
                  f"{len(got)} metrics, correct={result['correct']}")
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
