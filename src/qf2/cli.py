"""Command-line front end: parse field/form declarations, run invariant and
oracle computations, emit text or JSON reports, drive batch corpora.

Job syntax (also accepted line by line in --batch files):

    field F2((s))((t)); form pf(s,t;1); form [1,1]+s*[1,1]+<t>; run chow2,witt

Without --batch, the texts of --field, each --form and --run are parsed one
by one, as given: an error is positioned in its own argument, and a `;`
there is a parse error (but the one of a pf).  Flags override the config
file; identical jobs and limits produce byte-identical JSON, whatever the
worker count.

With --batch and --workers N > 1, main forks min(N, jobs) children before
any job runs; child k runs jobs k, k+N, k+2N, ... and sends its reports back
on its own pipe.  The error reported is that of the first failing line in
file order, as with one worker.  Where os.fork is missing, the batch runs
serially.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from dataclasses import dataclass, field as dc_field

from .errors import BudgetExceeded, ParseError, QF2Error, Undecided
from .fieldtower import _linecol, parse_field, render_json
from .forms import arf, parse_form
from .witt import (_search_plan, brute_force_search, decide_isotropy,
                   witt_decompose)
from .clifford import (build_clifford, center_and_idempotents,
                       even_clifford_class, splitting_index)
from .pfister import neighbor
from .chow import chow2_torsion, chow3_torsion

SCHEMA_VERSION = "1"


@dataclass
class Job:
    field_text: str = ""
    form_texts: list = dc_field(default_factory=list)
    runs: list = dc_field(default_factory=list)
    json_output: bool = False
    strict: bool = False
    degree_bound: int = 6
    budget: int = 200_000
    seed: int = 2

    def to_json(self):
        return {"field": self.field_text, "forms": list(self.form_texts),
                "run": list(self.runs),
                "limits": {"degree_bound": self.degree_bound,
                           "budget": self.budget, "seed": self.seed}}


_PF_OPEN = re.compile(r"\bpf\s*$")  # a pf whose "(" comes next


def _split_statements(text):
    """Split on semicolons, except the one inside each pf(a1,..;b); returns
    (offset, statement) pairs.

    A bracket closes within its own statement: a semicolon ends the
    statement whatever is still open, unless the innermost open bracket is
    the parenthesis of a pf that has not had its semicolon yet.  An unclosed
    bracket is then reported at the end of its own statement, not at a
    later one."""
    parts, stack, start = [], [], 0
    for i, ch in enumerate(text):
        if ch in "([":
            pf = ch == "(" and _PF_OPEN.search(text, start, i)
            stack.append("pf" if pf else ch)
        elif ch in ")]":
            if stack:
                stack.pop()
        elif ch == ";":
            if stack and stack[-1] == "pf":
                stack[-1] = "pf;"
            else:
                parts.append((start, text[start:i]))
                start = i + 1
                stack = []
    parts.append((start, text[start:]))
    return parts


def _moved(exc: ParseError, text: str, start: int) -> ParseError:
    """exc, raised on a part of text that starts at offset start, with its
    position moved into text."""
    line, col = _linecol(text, start)
    if exc.line == 1:
        col += exc.col - 1
    else:
        line, col = line + exc.line - 1, exc.col
    return ParseError(line, col, exc.expected, exc.found)


def _parse_runs(text, rest, at):
    """The comma-separated computation names of rest, which starts at offset
    at of text; an unknown name is reported where it is in text."""
    runs = []
    for item in rest.split(","):
        name = item.strip()
        if name not in COMPUTATIONS:
            item_at = at + len(item) - len(item.lstrip())
            raise ParseError(*_linecol(text, item_at),
                             f"one of {COMPUTATIONS}", name)
        runs.append(name)
        at += len(item) + 1
    return runs


def parse_job(text: str, defaults: Job = None) -> Job:
    """`field ...; form ...; run a,b` -> Job.  Statements are
    semicolon-separated; `run` takes a comma-separated computation list.

    A ParseError is positioned in text: an unknown statement at the
    statement, an unknown computation at its name, an error in the field or
    a form where it is inside that declaration, and a missing declaration
    at the end of text."""
    job = Job() if defaults is None else dataclasses.replace(
        defaults, field_text="", form_texts=[], runs=[])
    field_at, form_ats = 0, []
    for start, raw in _split_statements(text):
        stmt = raw.strip()
        if not stmt:
            continue
        at = start + len(raw) - len(raw.lstrip())
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        rest_at = at + len(stmt) - len(rest)
        if head == "field":
            job.field_text, field_at = rest, rest_at
        elif head == "form":
            job.form_texts.append(rest)
            form_ats.append(rest_at)
        elif head == "run":
            job.runs += _parse_runs(text, rest, rest_at)
        else:
            raise ParseError(*_linecol(text, at), "field / form / run", head)
    if not job.field_text:
        raise ParseError(*_linecol(text, len(text)), "a field declaration")
    if not job.form_texts:
        raise ParseError(*_linecol(text, len(text)), "at least one form")
    if not job.runs:
        job.runs = ["all"]
    # validate by parsing now, so errors surface with positions
    try:
        K = parse_field(job.field_text)
    except ParseError as exc:
        raise _moved(exc, text, field_at) from None
    for ft, at in zip(job.form_texts, form_ats):
        try:
            parse_form(K, ft)
        except ParseError as exc:
            raise _moved(exc, text, at) from None
    return job


# Each runner(phi, job) returns (entry, undecided).  The entry holds exact
# values (verdicts, reports, forms, classes, witness vectors); a later runner
# reads each fact off the form's memo (forms.form_fact), and run_report
# renders the entry once, after the form's last runner.
def _run_invariants(phi, job):
    out = {"dim": phi.dim, "nonsingular": phi.is_nonsingular,
           "nondegenerate": phi.is_nondegenerate}
    if phi.is_nonsingular:
        cls = arf(phi)
        out["arf_zero"] = cls.is_zero()
        out["arf_tame"] = cls.is_tame()
        out["arf_class"] = cls
        out["discriminant_algebra"] = cls.extension_kind()
    return out, False


def _run_witt(phi, job):
    verdict = decide_isotropy(phi)
    out = {"isotropy": verdict}
    undecided = verdict.is_unknown
    if not undecided:
        try:
            dec = witt_decompose(phi)
            out["witt_index"] = dec.witt_index
            out["kernel_dim"] = dec.kernel.dim
            out["kernel"] = dec.kernel
            out["exact"] = True
        except Undecided as exc:
            out["witt_index"] = None
            out["reason"] = str(exc)
            undecided = True
    # An anisotropic form has no nonzero zero, so its search would find
    # nothing: only its budget test runs, and the entry reads as the
    # search's would.  The skip lives here because the search itself must
    # never consult the engine that it audits.
    try:
        if verdict.is_anisotropic:
            _search_plan(phi, job.degree_bound, job.budget)
            out["search_witness"] = None
        else:
            out["search_witness"] = brute_force_search(
                phi, job.degree_bound, budget=job.budget)
    except BudgetExceeded as exc:
        out["search_witness"] = None
        out["search_budget_exhausted"] = str(exc)
    return out, undecided


def _run_clifford(phi, job):
    res = splitting_index(phi)
    out = {"splitting_index": res}
    try:
        out["even_clifford_class"] = even_clifford_class(phi)
    except QF2Error as exc:
        out["even_clifford_class"] = {"error": str(exc)}
    algebra = build_clifford(phi, even_only=phi.is_nonsingular)
    out["algebra_dim"] = algebra.dim
    centre = center_and_idempotents(algebra)
    out["center"] = {"dimension": centre.dimension,
                     "classification": centre.classification,
                     "has_idempotent": centre.idempotent is not None}
    return out, not res.resolved


def _run_pfister(phi, job):
    nv = neighbor(phi)
    if nv is None:
        return {"neighbor": None,
                "note": f"no neighbor test at dimension {phi.dim}"}, False
    return {"neighbor": nv}, nv.status == "unknown"


def _run_chow2(phi, job):
    report = chow2_torsion(phi)
    return report, report.kind == "AtMost"


def _run_chow3(phi, job):
    report = chow3_torsion(phi)
    return report, report.kind == "AtMost"


# in report order
_RUNNERS = {"invariants": _run_invariants, "witt": _run_witt,
            "clifford": _run_clifford, "pfister": _run_pfister,
            "chow2": _run_chow2, "chow3": _run_chow3}
COMPUTATIONS = (*_RUNNERS, "all")


def run_report(job: Job) -> dict:
    """Evaluate every requested computation on every form; deterministic.
    Each form's entry is rendered once, after its last runner."""
    K = parse_field(job.field_text)
    runs = list(_RUNNERS) if "all" in job.runs else job.runs
    undecided = False
    forms_out = []
    for ft in job.form_texts:
        phi = parse_form(K, ft)
        entry = {"input": ft, "form": phi}
        for comp in runs:
            try:
                entry[comp], bit = _RUNNERS[comp](phi, job)
            except QF2Error as exc:
                entry[comp] = {"error": type(exc).__name__,
                               "detail": str(exc)}
                bit = True
            undecided = undecided or bit
        forms_out.append(render_json(entry))
    return {"schema_version": SCHEMA_VERSION, "job": job.to_json(),
            "field": K.render(), "forms": forms_out,
            "any_undecided": undecided}


def render_text(result: dict) -> str:
    lines = [f"field {result['field']}"]
    for entry in result["forms"]:
        lines.append(f"form {entry['input']}")
        for comp in _RUNNERS:
            if comp in entry:
                lines.append(f"  {comp}: " +
                             json.dumps(entry[comp], sort_keys=True))
    return "\n".join(lines)


def _evaluate_job_text(args_tuple):
    """(text, defaults, line) -> report; text is line `line` of a batch
    file, and a ParseError names that line."""
    text, defaults, line = args_tuple
    try:
        job = parse_job(text, defaults)
    except ParseError as exc:
        raise ParseError(line, exc.col, exc.expected, exc.found) from None
    return run_report(job)


def _run_stripe(jobs, r, w):
    """Run jobs in order in this forked child, up to the first that raises,
    and write (reports, error) to the pipe (r, w) as one pickle; error is
    None or (that exception, its formatted traceback).  Leaves through
    os._exit, so that the child never returns into its parent's code or
    flushes its parent's buffers."""
    code = 1
    try:
        import pickle
        os.close(r)
        reports, error = [], None
        for p in jobs:
            try:
                # the module global, so that a wrapper installed before the
                # fork runs here
                reports.append(_evaluate_job_text(p))
            except Exception as exc:
                import traceback
                error = (exc, "".join(traceback.format_exception(exc)))
                break
        with os.fdopen(w, "wb") as fh:
            pickle.dump((reports, error), fh)
        code = 0
    except Exception:
        # e.g. an exception that does not pickle; the parent then reports
        # the exit status, and this says why
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _striped(payload, workers):
    """[_evaluate_job_text(p) for p in payload], run in n = min(workers,
    jobs) forked children: child k runs jobs k, k+n, k+2n, ... and sends its
    reports back on its own pipe.  The exception raised is the one of the
    first failing job in file order, as in a serial run, with the child's
    traceback as its __cause__.  A child that exits without sending its
    reports raises ChildProcessError, with its exit status."""
    import pickle
    n = min(workers, len(payload))
    children = []  # (pid, reader of its pipe) until the child is reaped
    try:
        # all children are forked before any job runs, so that none of them
        # inherits a thread or a job's state
        for k in range(n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_stripe(payload[k::n], r, w)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        stripes = []
        while children:
            pid, fh = children[0]
            with fh:
                data = fh.read()
            del children[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise ChildProcessError(
                    f"batch worker {pid} exited with status {status} "
                    f"before sending its reports")
            stripes.append(pickle.loads(data))
    finally:
        for pid, fh in children:
            import signal
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for i in range(len(payload)):
        reports, error = stripes[i % n]
        if i // n == len(reports):
            # that child stopped here, and every earlier job has a report
            exc, tb = error
            exc.__cause__ = Exception(f'\n"""\n{tb}"""')
            raise exc
        results.append(reports[i // n])
    return results


_CONFIG_KEYS = ("field", "form", "run", "json", "strict", "degree_bound",
               "budget", "seed")
# the least value of an integer setting; seed takes any integer
_LEAST = {"degree_bound": 0, "budget": 0, "workers": 1}


def _read_config(path):
    """Flat `key = value` config (TOML-style subset), as texts; _setting
    reads the integer and true/false values.  A key outside _CONFIG_KEYS is
    an error."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip().strip('"').strip("'")
            if key not in _CONFIG_KEYS:
                raise argparse.ArgumentError(
                    None, f"config {key} = {val!r}: unknown key, expected "
                          f"one of {', '.join(_CONFIG_KEYS)}")
            out[key] = val
    return out


def _at_least(name, key, value):
    """value, when it is at least _LEAST[key] (if any); name says where it
    came from."""
    if value < _LEAST.get(key, value):
        raise argparse.ArgumentError(
            None, f"{name}: expected an integer >= {_LEAST[key]}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # main reports it in one line and returns 1, not 2 (--strict's code)
        raise argparse.ArgumentError(None, message)


def build_parser():
    ap = _ArgumentParser(
        prog="qf2",
        description="Quadratic forms in characteristic 2: Witt/isotropy "
                    "engine, Clifford invariants, Chow-torsion oracle.")
    ap.add_argument("--field", help="field declaration, e.g. F2((s))((t))")
    ap.add_argument("--form", action="append", default=[],
                    help="form expression (repeatable)")
    ap.add_argument("--run", default=None,
                    help="comma-separated: " + ",".join(COMPUTATIONS))
    ap.add_argument("--json", action="store_true", default=None,
                    help="emit JSON")
    ap.add_argument("--strict", action="store_true", default=None,
                    help="exit 2 when any verdict is undecided")
    ap.add_argument("--degree-bound", type=int, default=None, metavar="N")
    ap.add_argument("--budget", type=int, default=None, metavar="N")
    ap.add_argument("--seed", type=int, default=None, metavar="N")
    ap.add_argument("--config", default=None, metavar="PATH",
                    help="key = value config file; flags override it")
    ap.add_argument("--batch", default=None, metavar="FILE",
                    help="file with one job per line")
    ap.add_argument("--workers", type=int, default=1, metavar="N",
                    help="parallel workers for batch jobs (output order "
                         "is input order regardless)")
    return ap


def _setting(args, cfg, key, default):
    """The flag's value, else the config file's read as the default's type
    (int or bool), else default; an integer below its _LEAST is an error."""
    flag = getattr(args, key)
    if flag is not None:
        return _at_least(f"--{key.replace('_', '-')} {flag}", key, flag)
    if key not in cfg:
        return default
    text = cfg[key].lower()
    if type(default) is bool and text in ("true", "false"):
        return text == "true"
    where = f"config {key} = {cfg[key]!r}"
    if type(default) is int and re.fullmatch(r"[-+]?\d+", text):
        return _at_least(where, key, int(text))
    kind = "true or false" if type(default) is bool else "an integer"
    raise argparse.ArgumentError(None, f"{where}: expected {kind}")


def _argument_job(args, cfg, defaults: Job) -> Job:
    """The job of --field, --form and --run (or their config values), each
    parsed as given, so that a ParseError is positioned in its own text."""
    field_text = args.field or cfg.get("field")
    forms = args.form or ([cfg["form"]] if "form" in cfg else [])
    run_text = args.run or cfg.get("run", "all")
    if not field_text or not forms:
        raise argparse.ArgumentError(None, "need --field and --form "
                                     "(or --batch)")
    runs = _parse_runs(run_text, run_text, 0)
    K = parse_field(field_text)
    for ft in forms:
        parse_form(K, ft)
    return dataclasses.replace(defaults, field_text=field_text.strip(),
                               form_texts=[ft.strip() for ft in forms],
                               runs=runs)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _at_least(f"--workers {args.workers}", "workers", args.workers)
        cfg = _read_config(args.config) if args.config else {}
        defaults = Job(
            json_output=_setting(args, cfg, "json", False),
            strict=_setting(args, cfg, "strict", False),
            **{key: _setting(args, cfg, key, getattr(Job, key))
               for key in ("degree_bound", "budget", "seed")})
        if args.batch:
            with open(args.batch, "r", encoding="utf-8") as fh:
                payload = [(ln.rstrip("\n"), defaults, line)
                           for line, ln in enumerate(fh, 1)
                           if ln.strip() and not ln.strip().startswith("#")]
            if args.workers > 1 and hasattr(os, "fork"):
                results = _striped(payload, args.workers)
            else:
                results = [_evaluate_job_text(p) for p in payload]
            doc = {"schema_version": SCHEMA_VERSION, "jobs": results}
        else:
            doc = run_report(_argument_job(args, cfg, defaults))
            results = [doc]
        if defaults.json_output:
            print(json.dumps(doc, sort_keys=True, indent=1))
        else:
            for r in results:
                print(render_text(r))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except QF2Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (argparse.ArgumentError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if defaults.strict and any(r["any_undecided"] for r in results):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
