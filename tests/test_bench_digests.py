"""The benchmark's in-process workloads reproduce their recorded outputs.

For `kernel` and `engine`, the cycles of a traced run (`fixed_cycles`) are
run in this process: the digest of their summaries must equal the one in
bench/digests.json, no item may fail, and the self-test's planted wrong
answer must be flagged.  For `cli`, the batch jobs run serially through
`run_report`, and the digest of that JSON document must equal the recorded
one.  A qf2 name that the benchmark imports going missing, or an exception
in its set-up, self-test, summaries or verdicts, fails here rather than only
as a failed benchmark run.  bench/worker.py is imported from its file, with
bench/ on the path and without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("bench_worker",
                                                  BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return module


@pytest.mark.parametrize("workload", ["kernel", "engine", "cli"])
def test_fixed_cycles_match_recorded_digest(worker, workload):
    if workload == "cli":
        output = worker.reference_output(worker.corpus.cli_jobs(1))
        assert worker.digest([output]) == worker.expected_digest("cli", 1)
        return
    acc = worker.fixed_cycles(workload, 1)
    assert worker.digest(acc.summaries) == worker.expected_digest(workload, 1)
    assert acc.failed == 0, acc.bad
    assert worker.planted_answer_flagged(workload, 1)
