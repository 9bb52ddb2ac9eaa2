"""The qf2 benchmark.

    python3 bench/run.py --workload {kernel,engine,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh interpreters
(bench/worker.py), so `set_degree_cap` and the field tower's cached tables
never carry over from one workload to the next.

--trace 0 prints the end-to-end metrics: the workload is measured for S
seconds of item time, and set-up is timed in six more interpreters that stop
after set-up; setup_s is the median of the seven.  Every time is calibrated
against a fixed probe loop (bench/calib.py), because the speed of the shared
machines this runs on swings by up to 2x for seconds at a time; the
uncalibrated wall-time figures go to standard error.
--trace 1 prints the per-layer metrics of a traced pass over a fixed set of
items, and checks that a second traced run repeats every deterministic count.

The last line of standard output is the result as one JSON object.  The exit
code is nonzero, and no result is printed, when the benchmark cannot run.
See bench/RATIONALE.md for what each workload and metric is for.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("kernel", "engine", "cli")
SETUP_REPEATS = 7
RUN_TIMEOUT_S = 170


def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child(args, mode, deadline):
    """Run one worker interpreter; its last stdout line is its result.  The
    worker leads its own process group, so an overrun kills it together with
    any CLI process and pool workers it started."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--spawned", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"bench: {args.workload} {mode} run passed "
                 f"{RUN_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: {args.workload} {mode} run failed "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "qf2" / "__init__.py").is_file():
        sys.exit("bench: no src/qf2 in this checkout")

    if args.trace:
        units = metric_units("per_layer")
        main_run = child(args, "trace", deadline)
        correct = main_run["correct"]
        if args.workload != "cli":
            correct = child(args, "recount", deadline)["correct"] and correct
        values = main_run["metrics"]
    else:
        units = metric_units("end_to_end")
        setups = [child(args, "setup", deadline)
                  for _ in range(SETUP_REPEATS - 1)]
        main_run = child(args, "measure", deadline)
        correct = main_run["correct"] and all(s["correct"] for s in setups)
        values = main_run["metrics"]
        values["setup_s"] = statistics.median(
            [s["setup_s"] for s in setups] + [values["setup_s"]])
    missing = set(units) - set(values)
    if missing:
        sys.exit(f"bench: metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": correct, "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))


if __name__ == "__main__":
    main()
