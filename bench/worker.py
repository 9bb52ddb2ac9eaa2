"""One workload in a fresh interpreter; `run.py` starts this file.

Modes:
  setup    import, build the first cycle and warm up, then report the time
           since the process was started (`--spawned`, CLOCK_MONOTONIC ns),
           in calibrated seconds (calib.py);
  measure  the same set-up, then whole cycles until `--seconds` of item wall
           time have passed; reports the end-to-end figures, with every
           time in calibrated seconds;
  trace    the first `TRACE_CYCLES` cycles untraced, then again traced;
           reports the per-layer figures and writes the traced totals;
  recount  the traced cycles only, in another fresh interpreter; compares
           its deterministic counts with the totals `trace` wrote.

The last line of standard output is one JSON object for `run.py`.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(ROOT / "src"))

import qf2  # noqa: E402

if Path(qf2.__file__).resolve().parent != ROOT / "src" / "qf2":
    sys.exit(f"qf2 imported from {qf2.__file__}, not from this checkout")

from qf2 import cli  # noqa: E402
from qf2.errors import DegreeOverflow  # noqa: E402

import calib  # noqa: E402
import corpus  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, count_mismatches, layer_metrics, merge  # noqa: E402

# Cycles in a traced run and in the output digest; at least this many cycles
# are run in every measured run too, so the digest covers the same items.
TRACE_CYCLES = {"kernel": 30, "engine": 2}
MIN_ITEMS = 100
CLI_WORKERS = 2
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1


class InProcess(NamedTuple):
    cycle: Callable      # (seed, k) -> the items of cycle k
    warmup: Callable     # seed -> a few small items
    run: Callable        # item -> output record
    check: Callable      # (output, item) -> failed checks
    summary: Callable    # output -> canonical text for the digest
    verdicts: Callable   # output -> (verdicts, undecided)


IN_PROCESS = {
    "kernel": InProcess(corpus.kernel_cycle, corpus.kernel_warmup,
                        workloads.run_kernel,
                        lambda out, item: workloads.check_kernel(out),
                        workloads.summary_kernel, workloads.verdicts_kernel),
    "engine": InProcess(corpus.engine_cycle, corpus.engine_warmup,
                        workloads.run_engine,
                        lambda out, item: workloads.check_engine(out, item[3]),
                        workloads.summary_engine, workloads.verdicts_engine),
}


def now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def quantile(values, q):
    """The q-quantile of values (inclusive method, interpolated)."""
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def expected_digest(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# kernel and engine

class Pass:
    """Items run so far, their times and what their checks found."""

    def __init__(self):
        self.times = []          # wall seconds per attempted item
        self.ref_times = []      # calibrated seconds per attempted item
        self.failed = 0          # wrong answers and unexpected errors
        self.overflowed = 0      # refused by the degree cap
        self.bad = {}            # failed check -> count
        self.verdicts = 0
        self.undecided = 0
        self.summaries = []      # per item, in order, for the digest

    def ok(self):
        """Items completed: neither failed nor overflowed."""
        return len(self.times) - self.failed - self.overflowed


def run_items(workload, items, acc, tracer=None, calibrator=None):
    """Time each item; check its output with tracing off.  With a
    calibrator, each item's wall time is also rescaled to calibrated time."""
    spec = IN_PROCESS[workload]
    for item in items:
        if calibrator is not None:
            calibrator.tick()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = spec.run(item)
        except workloads.ItemOverflowed as exc:
            out = None
            acc.overflowed += 1
            acc.summaries.append(f"{item[0]}:failed:{exc}")
        except workloads.ItemFailed as exc:
            out = None
            acc.failed += 1
            acc.summaries.append(f"{item[0]}:failed:{exc}")
            print(f"{workload} {item[0]}: {exc}", file=sys.stderr)
        except Exception as exc:  # an unexpected error fails the item
            out = None
            acc.failed += 1
            acc.summaries.append(f"{item[0]}:error:{type(exc).__name__}")
            print(f"{workload} {item[0]}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        wall = time.perf_counter() - t0
        acc.times.append(wall)
        if calibrator is not None:
            calibrator.add(acc.ref_times, wall)
        if tracer is not None:
            tracer.active = False
            tracer.end_scope()
        if out is None:
            continue
        try:
            bad = spec.check(out, item)
        except DegreeOverflow:
            # the answer cannot be verified within the degree cap
            acc.overflowed += 1
            acc.summaries.append(f"{item[0]}:check overflowed")
            continue
        except Exception as exc:
            bad = [f"check raised {type(exc).__name__}"]
        for name in bad:
            acc.bad[name] = acc.bad.get(name, 0) + 1
        if bad:
            acc.failed += 1
        n, u = spec.verdicts(out)
        acc.verdicts += n
        acc.undecided += u
        acc.summaries.append(f"{item[0]}:{spec.summary(out)}")
    if calibrator is not None:
        calibrator.flush()


def planted_answer_flagged(workload, seed):
    """Self-test: a planted wrong answer must fail the output check."""
    spec = IN_PROCESS[workload]
    for item in reversed(spec.warmup(seed)):
        try:
            out = spec.run(item)
            break
        except workloads.ItemFailed:
            continue
    else:
        return False
    if workload == "kernel":
        out["x"] = out["x"] + out["x"].field.one()
    else:
        out["witt"] = dataclasses.replace(
            out["witt"], witt_index=out["witt"].witt_index + 1)
    return bool(spec.check(out, item))


def setup_in_process(args):
    """Import (already done), first cycle, warm-up and self-test."""
    spec = IN_PROCESS[args.workload]
    first = spec.cycle(args.seed, 0)
    run_items(args.workload, spec.warmup(args.seed), Pass())
    selftest = planted_answer_flagged(args.workload, args.seed)
    return first, selftest


def setup_seconds(args):
    """Calibrated seconds since the process was started."""
    wall = (now_ns() - args.spawned) / 1e9
    return wall * calib.settled_scale()


def measure_in_process(args):
    first, selftest = setup_in_process(args)
    setup_s = setup_seconds(args)
    acc = Pass()
    cycle, items = 0, first
    digest_at = None
    with calib.Calibrator() as calibrator:
        while True:
            run_items(args.workload, items, acc, calibrator=calibrator)
            cycle += 1
            if cycle == TRACE_CYCLES[args.workload]:
                digest_at = digest(acc.summaries)
            if (cycle >= TRACE_CYCLES[args.workload]
                    and len(acc.times) >= MIN_ITEMS
                    and sum(acc.times) >= args.seconds):
                break
            items = IN_PROCESS[args.workload].cycle(args.seed, cycle)
    return finish(args, acc, selftest, digest_at, {
        "throughput_per_s": acc.ok() / sum(acc.ref_times),
        "latency_p50_ms": quantile(acc.ref_times, 0.5) * 1e3,
        "latency_p90_ms": quantile(acc.ref_times, 0.9) * 1e3,
        "setup_s": setup_s,
    }, wall={"throughput_per_s": acc.ok() / sum(acc.times),
             "latency_p50_ms": quantile(acc.times, 0.5) * 1e3,
             "latency_p90_ms": quantile(acc.times, 0.9) * 1e3})


def finish(args, acc, selftest, digest_got, metrics, wall=None):
    """Common tail: correctness, fractions and memory.  `wall` holds the
    uncalibrated timings, which go to standard error for a reader."""
    want = expected_digest(args.workload, args.seed)
    problems = [f"{n} failed {c}x" for n, c in sorted(acc.bad.items())]
    if not selftest:
        problems.append("planted wrong answer not flagged")
    if want is not None and digest_got != want:
        problems.append(f"output digest {digest_got} != recorded {want}")
    for p in problems:
        print(f"{args.workload}: {p}", file=sys.stderr)
    if wall:
        print(f"{args.workload}: uncalibrated wall time: " + ", ".join(
            f"{k} {v:.6g}" for k, v in wall.items()), file=sys.stderr)
    attempted = len(acc.times)
    metrics.update({
        "ok_frac": 1 - (acc.failed + acc.overflowed) / attempted,
        "decided_frac": 1 - acc.undecided / acc.verdicts if acc.verdicts
        else 1.0,
        "peak_rss_mb": metrics.get("peak_rss_mb", peak_rss_mb()),
    })
    return {"correct": not problems, "attempted": attempted,
            "failed": acc.failed, "metrics": metrics, "digest": digest_got}


def fixed_cycles(workload, seed, tracer=None):
    """The first TRACE_CYCLES cycles, the item set of a traced run."""
    acc = Pass()
    for cycle in range(TRACE_CYCLES[workload]):
        run_items(workload, IN_PROCESS[workload].cycle(seed, cycle), acc,
                  tracer)
    return acc


def trace_in_process(args):
    _first, selftest = setup_in_process(args)
    untraced = fixed_cycles(args.workload, args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = fixed_cycles(args.workload, args.seed, tracer)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"counts-{args.workload}-{args.seed}.json").write_text(
        json.dumps(snap))
    tracer.dump_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = layer_metrics(snap)
    metrics.update({"cli.render_ms": 0.0, "cli.pool_efficiency": 0.0})
    metrics["trace.overhead_frac"] = sum(traced.times) / sum(
        untraced.times) - 1
    result = finish(args, untraced, selftest, digest(untraced.summaries), {})
    if digest(traced.summaries) != digest(untraced.summaries):
        print(f"{args.workload}: traced outputs differ from untraced ones",
              file=sys.stderr)
        result["correct"] = False
    result["metrics"] = metrics
    return result


def recount_in_process(args):
    setup_in_process(args)
    tracer = Tracer()
    tracer.install()
    try:
        fixed_cycles(args.workload, args.seed, tracer)
    finally:
        tracer.uninstall()
    first = json.loads((OUT_DIR / f"counts-{args.workload}-{args.seed}.json")
                       .read_text())
    bad = count_mismatches(first, tracer.snapshot())
    for name in bad:
        print(f"{args.workload}: count {name} differs between two traced runs",
              file=sys.stderr)
    return {"correct": not bad}


# ---------------------------------------------------------------------------
# cli

def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_batch(job_file, wrapper=None, out_dir=None):
    """One `qf2 --batch FILE --json --workers 2` process; (stdout, exit
    code, wall seconds).  With a wrapper (cli_timed.py or cli_traced.py)
    the same CLI runs through that file, which writes per-process files
    into out_dir."""
    if wrapper is None:
        cmd = [sys.executable, "-m", "qf2.cli"]
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        for stale in out_dir.glob("*.json"):
            stale.unlink()
        cmd = [sys.executable, str(Path(__file__).with_name(wrapper)),
               str(out_dir)]
    cmd += ["--batch", str(job_file), "--json", "--workers", str(CLI_WORKERS)]
    # The CLI and its pool stay in this process group, which run.py kills
    # as a whole if the run overruns.
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), text=True,
                          stdout=subprocess.PIPE, check=False)
    return proc.stdout, proc.returncode, time.perf_counter() - t0


def timed_batch(job_file, out_dir):
    """run_batch through cli_timed.py, plus the batch's calibration scale:
    the calibrated over the wall time of all its jobs."""
    stdout, code, wall = run_batch(job_file, "cli_timed.py", out_dir)
    jobs = [job for path in sorted(out_dir.glob("*.json"))
            for job in json.loads(path.read_text())]
    scale = sum(j[1] for j in jobs) / sum(j[0] for j in jobs) if jobs else 1
    return stdout, code, wall, scale


def reference_output(jobs, tracer=None):
    """The same jobs run serially in this process through run_report."""
    results = []
    for text in jobs:
        if tracer is not None:
            tracer.active = True
        try:
            results.append(cli.run_report(
                cli.parse_job(text, cli.Job(json_output=True))))
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.end_scope()
    doc = {"schema_version": cli.SCHEMA_VERSION, "jobs": results}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def cli_verdicts(entry):
    """(verdicts, undecided, failed) for one form entry of a report."""
    total = undecided = 0
    failed = False
    for comp, value in entry.items():
        if comp in ("input", "form", "invariants") or not isinstance(
                value, dict):
            continue
        if "error" in value:
            failed |= value["error"] == "DegreeOverflow"
            if value["error"] in workloads.REFUSALS:
                total += 1
            elif value["error"] == "Undecided":
                total += 1
                undecided += 1
            continue
        if comp == "pfister" and value.get("neighbor") is None:
            continue
        total += 1
        if comp == "witt":
            undecided += (value["isotropy"]["kind"] == "unknown"
                          or value.get("witt_index", 0) is None)
        elif comp == "clifford":
            undecided += value["splitting_index"]["s"] is None
        elif comp == "pfister":
            undecided += value["neighbor"]["status"] == "unknown"
        elif comp in ("chow2", "chow3"):
            undecided += value["torsion"]["kind"] == "AtMost"
    return total, undecided, failed


def check_batch(stdout, code, expected, jobs, acc):
    """Count a batch's jobs into acc; a job fails on a nonzero exit or
    unreadable output, or output that differs from the serial run, and
    counts as overflowed when an entry's error is DegreeOverflow."""
    try:
        got = json.loads(stdout)["jobs"] if code == 0 else None
    except ValueError:
        got = None
    if got is None:
        acc.failed += len(jobs)
        acc.bad["no JSON report"] = acc.bad.get("no JSON report", 0) + 1
        return
    if stdout != expected:
        acc.bad["stdout differs from serial run_report"] = \
            acc.bad.get("stdout differs from serial run_report", 0) + 1
    want = json.loads(expected)["jobs"]
    for i, job in enumerate(got):
        bad = i >= len(want) or job != want[i]
        overflowed = False
        for entry in job["forms"]:
            n, u, overflow = cli_verdicts(entry)
            acc.verdicts += n
            acc.undecided += u
            overflowed |= overflow
        acc.failed += bad
        acc.overflowed += overflowed and not bad
    acc.failed += max(0, len(jobs) - len(got))


def setup_cli(args):
    jobs = corpus.cli_jobs(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    job_file = OUT_DIR / f"cli-{args.seed}.jobs"
    job_file.write_text("\n".join(jobs) + "\n")
    # self-test: a changed answer must fail the comparison
    sample = reference_output(corpus.ACCEPTANCE_JOBS[:1])
    planted = Pass()
    check_batch(sample.replace('"schema_version": "1"',
                               '"schema_version": "0"', 1),
                0, sample, corpus.ACCEPTANCE_JOBS[:1], planted)
    return jobs, job_file, bool(planted.bad)


def measure_cli(args):
    jobs, job_file, selftest = setup_cli(args)
    setup_s = setup_seconds(args)
    batches = []
    t_start = time.perf_counter()
    while True:
        batches.append(timed_batch(job_file,
                                   OUT_DIR / f"cli-time-{args.seed}"))
        elapsed = time.perf_counter() - t_start
        if elapsed + batches[-1][2] > args.seconds:
            break
    expected = reference_output(jobs)
    acc = Pass()
    for stdout, code, wall, scale in batches:
        check_batch(stdout, code, expected, jobs, acc)
        acc.times.extend([wall] * len(jobs))
        acc.ref_times.extend([wall * scale] * len(jobs))
    walls = [b[2] for b in batches]
    ref_walls = [b[2] * b[3] for b in batches]
    ok = acc.ok()
    # --batch prints every result when the batch ends, so each job's
    # latency is its batch's wall time.
    return finish(args, acc, selftest, digest([expected]), {
        "throughput_per_s": ok / sum(ref_walls),
        "latency_p50_ms": quantile(acc.ref_times, 0.5) * 1e3,
        "latency_p90_ms": quantile(acc.ref_times, 0.9) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }, wall={"throughput_per_s": ok / sum(walls),
             "latency_p50_ms": quantile(acc.times, 0.5) * 1e3})


def trace_cli(args):
    jobs, job_file, selftest = setup_cli(args)
    stdout_u, code_u, wall_u = run_batch(job_file)
    traced_dir = OUT_DIR / f"cli-trace-{args.seed}"
    stdout_t, code_t, wall_t = run_batch(job_file, "cli_traced.py",
                                         traced_dir)
    batch = merge(json.loads(p.read_text())
                  for p in sorted(traced_dir.glob("*.json")))
    tracer = Tracer()
    tracer.install()
    try:
        expected = reference_output(jobs, tracer)
    finally:
        tracer.uninstall()
    serial = tracer.snapshot()
    acc = Pass()
    check_batch(stdout_u, code_u, expected, jobs, acc)
    check_batch(stdout_t, code_t, expected, jobs, acc)
    acc.times.extend([wall_u] * len(jobs) + [wall_t] * len(jobs))
    result = finish(args, acc, selftest, digest([expected]), {})
    mismatches = count_mismatches(batch, serial)
    for name in mismatches:
        print(f"cli: count {name} differs between the traced batch and the "
              "traced serial run", file=sys.stderr)
    result["correct"] = result["correct"] and not mismatches
    metrics = layer_metrics(batch)
    job_ns = batch["outer_ns"].get("cli.parse_job", 0) + \
        batch["outer_ns"].get("cli.run_report", 0)
    metrics["cli.render_ms"] = batch["counts"].get("cli.render_ns", 0) / 1e6
    metrics["cli.pool_efficiency"] = job_ns / 1e9 / (CLI_WORKERS * wall_t)
    metrics["trace.overhead_frac"] = wall_t / wall_u - 1
    result["metrics"] = metrics
    return result


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("kernel", "engine", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "recount"))
    ap.add_argument("--spawned", type=int, required=True)
    args = ap.parse_args()
    in_process = args.workload != "cli"
    if args.mode == "setup":
        if in_process:
            _first, selftest = setup_in_process(args)
        else:
            _jobs, _file, selftest = setup_cli(args)
        result = {"correct": selftest, "setup_s": setup_seconds(args)}
    elif args.mode == "measure":
        result = (measure_in_process if in_process else measure_cli)(args)
    elif args.mode == "trace":
        result = (trace_in_process if in_process else trace_cli)(args)
    else:
        result = recount_in_process(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
