"""`python -m qf2.cli` with the benchmark's tracer installed.

Usage: cli_traced.py OUT_DIR [qf2 CLI arguments...]

The batch pool forks its workers from this process, so they inherit the
wrapped functions.  Each worker traces the jobs it runs and, after each job,
writes its running totals to OUT_DIR/<pid>.json; this process adds the time
spent rendering the JSON document as the counter `cli.render_ns`.
"""

import json
import os
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qf2 import cli  # noqa: E402

from tracer import Tracer  # noqa: E402

tracer = Tracer()
out_dir = Path(sys.argv[1])
evaluate_job_text = cli._evaluate_job_text


def traced_job(args_tuple):
    tracer.active = True
    try:
        return evaluate_job_text(args_tuple)
    finally:
        tracer.active = False
        (out_dir / f"{os.getpid()}.json").write_text(
            json.dumps(tracer.snapshot()))


def timed_dumps(*args, **kwargs):
    t0 = time.perf_counter_ns()
    text = json.dumps(*args, **kwargs)
    tracer.counts["cli.render_ns"] = tracer.counts.get("cli.render_ns", 0) + \
        time.perf_counter_ns() - t0
    return text


def main():
    tracer.install()
    saved_json = cli.json
    cli._evaluate_job_text = traced_job
    cli.json = types.SimpleNamespace(dumps=timed_dumps)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        cli._evaluate_job_text = evaluate_job_text
        cli.json = saved_json
        tracer.uninstall()
    (out_dir / "main.json").write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
