"""Command-line front end: parse field/form declarations, run invariant and
oracle computations, emit text or JSON reports, drive batch corpora.

Job syntax (also accepted line by line in --batch files):

    field F2((s))((t)); form pf(s,t;1); form [1,1]+s*[1,1]+<t>; run chow2,witt

Flags override the config file; identical jobs and limits produce
byte-identical JSON, whatever the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from dataclasses import dataclass, field as dc_field

from .errors import BudgetExceeded, ParseError, QF2Error, Undecided
from .fieldtower import _linecol, parse_field, render_element
from .forms import arf, discriminant_algebra, parse_form
from .witt import brute_force_search, decide_isotropy, witt_decompose
from .clifford import (DEFAULT_DIMENSION_CAP, build_clifford,
                       center_and_idempotents, even_clifford_class,
                       splitting_index)
from .pfister import neighbor
from .chow import chow2_torsion, chow3_torsion

SCHEMA_VERSION = "1"
COMPUTATIONS = ("invariants", "witt", "clifford", "pfister", "chow2",
                "chow3", "all")


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
            for item in rest.split(","):
                name = item.strip()
                if name not in COMPUTATIONS:
                    item_at = rest_at + len(item) - len(item.lstrip())
                    raise ParseError(*_linecol(text, item_at),
                                     f"one of {COMPUTATIONS}", name)
                job.runs.append(name)
                rest_at += len(item) + 1
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


def _parse_arguments(statements, defaults: Job) -> Job:
    """parse_job on the statements (`form [1,t]`, ...) joined by "; ", with
    a ParseError positioned in the argument of the statement it falls in,
    as the user typed that argument."""
    text = "; ".join(statements)
    try:
        return parse_job(text, defaults)
    except ParseError as exc:
        lines = text.split("\n")
        at = sum(len(ln) + 1 for ln in lines[:exc.line - 1]) + exc.col - 1
        start = 0
        for stmt in statements[:-1]:
            if at <= start + len(stmt):
                break
            start += len(stmt) + 2
        else:
            stmt = statements[-1]
        arg = start + len(stmt.partition(" ")[0]) + 1
        raise ParseError(*_linecol(text[arg:], max(at - arg, 0)),
                         exc.expected, exc.found) from None


def _run_invariants(phi, job, flags):
    out = {"dim": phi.dim, "nonsingular": phi.is_nonsingular,
           "nondegenerate": phi.is_nondegenerate}
    if phi.is_nonsingular:
        cls = arf(phi)
        out["arf_zero"] = cls.is_zero()
        out["arf_tame"] = cls.is_tame()
        out["arf_class"] = cls.to_json()
        disc = discriminant_algebra(phi)
        out["discriminant_algebra"] = disc.kind
    return out


def _run_witt(phi, job, flags):
    verdict = decide_isotropy(phi)
    out = {"isotropy": verdict.to_json()}
    if verdict.is_unknown:
        flags["undecided"] = True
    else:
        try:
            dec = witt_decompose(phi)
            out["witt_index"] = dec.witt_index
            out["kernel_dim"] = dec.kernel.dim
            out["kernel"] = dec.kernel.to_json()
            out["exact"] = dec.exact
        except Undecided as exc:
            out["witt_index"] = None
            out["reason"] = str(exc)
            flags["undecided"] = True
    try:
        wit = brute_force_search(phi, job.degree_bound, budget=job.budget)
        out["search_witness"] = ([render_element(x) for x in wit]
                                 if wit else None)
    except BudgetExceeded as exc:
        out["search_witness"] = None
        out["search_budget_exhausted"] = str(exc)
    return out


def _run_clifford(phi, job, flags):
    out = {}
    res = splitting_index(phi)
    out["splitting_index"] = res.to_json()
    if not res.resolved:
        flags["undecided"] = True
    try:
        desc = even_clifford_class(phi)
        out["even_clifford_class"] = desc.to_json()
    except QF2Error as exc:
        out["even_clifford_class"] = {"error": str(exc)}
    if phi.dim <= DEFAULT_DIMENSION_CAP:
        algebra = build_clifford(phi, even_only=phi.is_nonsingular)
        out["algebra_dim"] = algebra.dim
        centre = center_and_idempotents(algebra)
        out["center"] = {"dimension": centre.dimension,
                         "classification": centre.classification,
                         "has_idempotent": centre.idempotent is not None}
    return out


def _run_pfister(phi, job, flags):
    nv = neighbor(phi)
    if nv is None:
        return {"neighbor": None,
                "note": f"no neighbor test at dimension {phi.dim}"}
    if nv.status == "unknown":
        flags["undecided"] = True
    return {"neighbor": nv.to_json()}


def _chow_json(report, flags):
    if report.kind == "AtMost":
        flags["undecided"] = True
    return report.to_json()


# runner(phi, job, flags) of each computation in COMPUTATIONS but "all"
_RUNNERS = {
    "invariants": _run_invariants, "witt": _run_witt,
    "clifford": _run_clifford, "pfister": _run_pfister,
    "chow2": lambda phi, job, flags: _chow_json(chow2_torsion(phi), flags),
    "chow3": lambda phi, job, flags: _chow_json(chow3_torsion(phi), flags),
}


def run_report(job: Job) -> dict:
    """Evaluate every requested computation on every form; deterministic."""
    K = parse_field(job.field_text)
    runs = list(job.runs)
    if "all" in runs:
        runs = [c for c in COMPUTATIONS if c != "all"]
    flags = {"undecided": False}
    forms_out = []
    for ft in job.form_texts:
        phi = parse_form(K, ft)
        entry = {"input": ft, "form": phi.to_json()}
        for comp in runs:
            try:
                entry[comp] = _RUNNERS[comp](phi, job, flags)
            except QF2Error as exc:
                entry[comp] = {"error": type(exc).__name__,
                               "detail": str(exc)}
                flags["undecided"] = True
        forms_out.append(entry)
    return {"schema_version": SCHEMA_VERSION, "job": job.to_json(),
            "field": K.render(), "forms": forms_out,
            "any_undecided": flags["undecided"]}


def render_text(result: dict) -> str:
    lines = [f"field {result['field']}"]
    for entry in result["forms"]:
        lines.append(f"form {entry['input']}")
        for comp in COMPUTATIONS:
            if comp in entry and comp != "all":
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


def _read_config(path):
    """Flat `key = value` config (TOML-style subset: str/int/bool)."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip().strip('"').strip("'")
            if val.lower() in ("true", "false"):
                out[key] = val.lower() == "true"
            elif val.lstrip("-").isdigit():
                out[key] = int(val)
            else:
                out[key] = val
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qf2",
        description="Quadratic forms in characteristic 2: Witt/isotropy "
                    "engine, Clifford invariants, Chow-torsion oracle.")
    ap.add_argument("--field", help="field declaration, e.g. F2((s))((t))")
    ap.add_argument("--form", action="append", default=[],
                    help="form expression (repeatable)")
    ap.add_argument("--run", default=None,
                    help="comma-separated: invariants,witt,clifford,"
                         "pfister,chow2,chow3,all")
    ap.add_argument("--json", action="store_true", help="emit JSON")
    ap.add_argument("--strict", action="store_true",
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


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = {}
    if args.config:
        try:
            cfg = _read_config(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
    defaults = Job(
        json_output=args.json or bool(cfg.get("json", False)),
        strict=args.strict or bool(cfg.get("strict", False)),
        degree_bound=(args.degree_bound if args.degree_bound is not None
                      else int(cfg.get("degree_bound", 6))),
        budget=(args.budget if args.budget is not None
                else int(cfg.get("budget", 200_000))),
        seed=(args.seed if args.seed is not None
              else int(cfg.get("seed", 2))),
    )
    try:
        if args.batch:
            with open(args.batch, "r", encoding="utf-8") as fh:
                payload = [(ln.rstrip("\n"), defaults, line)
                           for line, ln in enumerate(fh, 1)
                           if ln.strip() and not ln.strip().startswith("#")]
            if args.workers > 1:
                # imported here: serial runs never load multiprocessing
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(max_workers=args.workers) as pool:
                    results = list(pool.map(_evaluate_job_text, payload))
            else:
                results = [_evaluate_job_text(p) for p in payload]
            doc = {"schema_version": SCHEMA_VERSION, "jobs": results}
            undecided = any(r["any_undecided"] for r in results)
            if defaults.json_output:
                print(json.dumps(doc, sort_keys=True, indent=1))
            else:
                for r in results:
                    print(render_text(r))
        else:
            field_text = args.field or cfg.get("field")
            forms = list(args.form) or ([cfg["form"]] if "form" in cfg else [])
            run_text = args.run or cfg.get("run", "all")
            if not field_text or not forms:
                ap.error("need --field and --form (or --batch)")
            stmts = [f"field {field_text}"]
            stmts += [f"form {f}" for f in forms]
            stmts.append(f"run {run_text}")
            job = _parse_arguments(stmts, defaults)
            result = run_report(job)
            undecided = result["any_undecided"]
            if defaults.json_output:
                print(json.dumps(result, sort_keys=True, indent=1))
            else:
                print(render_text(result))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except QF2Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if defaults.strict and undecided:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
