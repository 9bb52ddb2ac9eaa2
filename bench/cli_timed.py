"""`python -m qf2.cli` with each batch job's time calibrated (calib.py).

Usage: cli_timed.py OUT_DIR [qf2 CLI arguments...]

The batch pool forks its workers from this process, so they inherit the
wrapped job function.  Each worker calibrates its jobs with a
`calib.Calibrator`, whose probe is read when a job starts and ends and in
a thread while it runs, and after each job writes its list of [wall
seconds, calibrated seconds] per job to OUT_DIR/<pid>.json.  The
calibrator starts in the worker, after the fork, so the CLI process itself
forks its pool with no thread of this file running.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qf2 import cli  # noqa: E402

import calib  # noqa: E402

out_dir = Path(sys.argv[1])
evaluate_job_text = cli._evaluate_job_text
calibrator = None
walls, ref_times = [], []


def timed_job(args_tuple):
    global calibrator
    if calibrator is None:
        calibrator = calib.Calibrator()
    calibrator.flush()
    t0 = time.perf_counter()
    try:
        return evaluate_job_text(args_tuple)
    finally:
        walls.append(time.perf_counter() - t0)
        calibrator.add(ref_times, walls[-1])
        calibrator.flush()
        (out_dir / f"{os.getpid()}.json").write_text(
            json.dumps(list(zip(walls, ref_times))))


def main():
    cli._evaluate_job_text = timed_job
    try:
        return cli.main(sys.argv[2:])
    finally:
        cli._evaluate_job_text = evaluate_job_text


if __name__ == "__main__":
    sys.exit(main())
