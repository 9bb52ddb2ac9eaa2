"""CLI: job parsing, reports, exit codes, batch determinism."""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qf2.cli import (COMPUTATIONS, Job, build_parser, main, parse_job,
                     render_text, run_report)
from qf2 import cli, clifford, fieldtower, forms, pfister, witt
from qf2.errors import Degenerate, ParseError
from qf2.fieldtower import parse_field
from qf2.forms import arf_representative, parse_form

from helpers import checkout_env


def test_parse_job_roundtrip():
    job = parse_job("field F2((s))((t)); form pf(s,t;1); run chow2")
    assert job.field_text == "F2((s))((t))"
    assert job.form_texts == ["pf(s,t;1)"]
    assert job.runs == ["chow2"]


def test_parse_job_multiple_forms_default_run():
    job = parse_job("field F2((t)); form [1,1]; form [1,t]")
    assert len(job.form_texts) == 2
    assert job.runs == ["all"]


def test_parse_job_rejects_bad_statement():
    with pytest.raises(ParseError):
        parse_job("field F2((t)); blorp [1,1]")
    with pytest.raises(ParseError):
        parse_job("field F2((t)); form [1,1]; run fly")
    with pytest.raises(ParseError):
        parse_job("field F2((t)); form [1,1,1]; run witt")


def test_run_report_deterministic():
    job = parse_job("field F2((t)); form [1,1]+t*[1,1]; form [1,t]; "
                    "run witt,invariants,chow2")
    r1 = json.dumps(run_report(job), sort_keys=True)
    r2 = json.dumps(run_report(job), sort_keys=True)
    assert r1 == r2


def test_degree_bound_drives_only_the_search():
    def report(bound):
        rep = run_report(parse_job(
            "field F2((s))((t)); form [1,1]+s*[1,1]+<t>; run all",
            Job(degree_bound=bound)))
        del rep["job"]["limits"]["degree_bound"]
        witt = rep["forms"][0]["witt"]
        del witt["search_witness"]
        witt.pop("search_budget_exhausted", None)
        return rep

    assert report(6) == report(20)


def test_witt_report_content():
    job = parse_job("field F2((t)); form [0,0]+[0,0]+[0,0]; run witt")
    rep = run_report(job)
    w = rep["forms"][0]["witt"]
    assert w["witt_index"] == 3 and w["kernel_dim"] == 0


GOLDEN = Path(__file__).parent / "data" / "batch_golden.json"


def _spy_search(monkeypatch):
    """Record each form that the CLI hands to the brute-force search."""
    searched = []
    search = cli.brute_force_search

    def spy(phi, *args, **kwargs):
        searched.append(phi)
        return search(phi, *args, **kwargs)
    monkeypatch.setattr(cli, "brute_force_search", spy)
    return searched


def test_no_anisotropic_form_is_searched(monkeypatch):
    # an anisotropic verdict leaves nothing to find; its entry still reads
    # search_witness null, and every report stays the golden one
    searched = _spy_search(monkeypatch)
    anisotropic = 0
    for doc in json.loads(GOLDEN.read_text())["jobs"]:
        spec = doc["job"]
        job = Job(field_text=spec["field"], form_texts=spec["forms"],
                  runs=spec["run"], **spec["limits"])
        assert json.loads(json.dumps(run_report(job))) == doc
        for entry in doc["forms"]:
            verdict = entry.get("witt", {}).get("isotropy", {})
            anisotropic += verdict.get("kind") == "anisotropic"
    assert anisotropic >= 1
    assert searched
    assert not any(witt.decide_isotropy(phi).is_anisotropic
                   for phi in searched)


def test_unsearched_form_still_reports_an_exhausted_budget(monkeypatch,
                                                           capsys):
    # the budget test of the search runs on its own: [1,1]+t*[1,1] is
    # anisotropic, and its two blocks cost 25 + 25 nodes at degree 6
    searched = _spy_search(monkeypatch)
    assert main(["--field", "F2((t))", "--form", "[1,1]+t*[1,1]", "--run",
                 "witt", "--json", "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert '"search_budget_exhausted": "50 nodes"' in out
    entry = json.loads(out)["forms"][0]["witt"]
    assert entry["isotropy"]["kind"] == "anisotropic"
    assert entry["search_witness"] is None
    assert searched == []


@pytest.mark.parametrize("text, kind", [("[1,t]", "split"),
                                        ("[1,1]", "field"),
                                        ("[1,s*t^-2]", "unsupported")])
def test_invariants_reduce_delta_once(monkeypatch, text, kind):
    # the Arf class and the discriminant algebra's kind come from one
    # reduction of delta
    delta = arf_representative(parse_form(parse_field("F2((s))((t))"), text))
    reduced = []

    def counting(a, reduce=fieldtower.wp_reduce):
        reduced.append(a)
        return reduce(a)

    monkeypatch.setattr(fieldtower, "wp_reduce", counting)
    monkeypatch.setattr(forms, "wp_reduce", counting)
    rep = run_report(parse_job(f"field F2((s))((t)); form {text}; "
                               "run invariants"))
    assert rep["forms"][0]["invariants"]["discriminant_algebra"] == kind
    assert reduced.count(delta) == 1


@pytest.mark.parametrize("text, most", [
    ("form pf(s,t;1); run all",
     {"_search_witness": 1, "arf_representative": 4, "witt_decompose": 1}),
    ("form [1,1]+s*[1,1]+<t>; run chow2,pfister",
     {"_search_witness": 1, "_splitting_index_anisotropic": 1,
      "arf_representative": 2}),
    ("form [0,0]+[1,1]+s*[1,1]; run witt,chow3", {"witt_decompose": 1}),
    ("form [0,0]+[1,1]+s*[1,1]; run clifford,chow3", {"witt_decompose": 1}),
    ("form [1,1]+[1,1]+[s,t]; run clifford,chow2,chow3",
     {"witt_decompose": 1})])
def test_a_job_decides_each_fact_once(monkeypatch, text, most):
    # the neighbor verdict, the splitting index, the Arf class and the Witt
    # decomposition are read off the form's memo after their first
    # computation
    calls = dict.fromkeys(("_search_witness", "_splitting_index_anisotropic",
                           "arf_representative", "witt_decompose"), 0)

    def spy(module, name):
        work = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return work(*args)
        monkeypatch.setattr(module, name, counted)

    spy(pfister, "_search_witness")
    spy(clifford, "_splitting_index_anisotropic")
    spy(forms, "arf_representative")
    spy(clifford, "arf_representative")
    # each decomposition of phi, not a memo hit, starts by deciding phi
    # through the binding in qf2.witt; no other caller decides phi there
    job = parse_job(f"field F2((s))((t)); {text}")
    phi = parse_form(parse_field(job.field_text), job.form_texts[0])
    decide = witt.decide_isotropy

    def deciding(psi):
        calls["witt_decompose"] += psi == phi
        return decide(psi)
    monkeypatch.setattr(witt, "decide_isotropy", deciding)
    run_report(job)
    assert all(calls[name] <= n for name, n in most.items()), calls
    assert calls["witt_decompose"] >= 1


@pytest.mark.parametrize("text", [
    "[0,0]+[1,1]+s*[1,1]", "[1,1]+[1,1]+[s,t]",
    "[s^2*t+s,1/s] + [(s^2+s)*t,(t+1/s)/t] + [s,1/s]"])
def test_runners_leave_the_held_decomposition_as_it_was(text):
    # the runners share one decomposition through the memo, and its plane
    # records are dicts: reading them must not change them
    job = parse_job(f"field F2((s))((t)); form {text}; run all")
    phi = parse_form(parse_field(job.field_text), text)
    dec = witt.witt_decompose(phi)
    before = dec.to_json()
    assert dec.planes
    for comp in ("clifford", "pfister", "chow2", "chow3"):
        cli._RUNNERS[comp](phi, job)
    assert witt.witt_decompose(phi) is dec
    assert dec.to_json() == before


def test_clifford_runner_uses_the_module_bindings(monkeypatch):
    # bench/tracer.py times the CLI's Clifford layer by wrapping
    # cli.build_clifford and cli.center_and_idempotents by name
    seen = []

    def spy(name):
        work = getattr(cli, name)

        def counted(*args, **kw):
            seen.append(name)
            return work(*args, **kw)
        monkeypatch.setattr(cli, name, counted)

    spy("build_clifford")
    spy("center_and_idempotents")
    rep = run_report(parse_job("field F2((t)); form [1,1]+t*[1,1]; "
                               "run clifford"))
    assert seen == ["build_clifford", "center_and_idempotents"]
    out = rep["forms"][0]["clifford"]
    assert out["algebra_dim"] == 8
    assert out["center"] == {"dimension": 2, "classification": "split",
                             "has_idempotent": True}


def test_clifford_entry_has_the_centre_at_dimension_10():
    # three hyperbolic planes change neither delta nor the centre; C_0 of
    # the dimension-10 form has dimension 512
    rep = run_report(parse_job("field F2((t)); form [1,1]+t*[1,1]; "
                               "form [1,1]+t*[1,1]+[0,0]+[0,0]+[0,0]; "
                               "run clifford"))
    small, big = (entry["clifford"] for entry in rep["forms"])
    assert (small["algebra_dim"], big["algebra_dim"]) == (8, 512)
    assert big["center"] == small["center"]
    assert big["splitting_index"]["index_interval"] == [2, 2]


def test_chow2_json_shape():
    job = parse_job("field F2((s))((t)); form pf(s,t;1); run chow2")
    rep = run_report(job)
    tor = rep["forms"][0]["chow2"]["torsion"]
    assert tor == {"kind": "Exactly", "order": 2, "group": "Z/2"}
    assert rep["forms"][0]["chow2"]["schema_version"] == "1"


def _cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "qf2.cli"] + args,
                          env=checkout_env(), capture_output=True, text=True,
                          **kw)


def test_exit_codes(tmp_path):
    ok = _cli(["--field", "F2((t))", "--form", "[1,t]", "--run", "witt"])
    assert ok.returncode == 0
    bad = _cli(["--field", "F2((t))", "--form", "[1,1,1]", "--run", "witt"])
    assert bad.returncode == 1
    undec = _cli(["--field", "F2((s))((t))",
                  "--form", "[1,s*t^-2]+[1,1]+s*[1,1]",
                  "--run", "witt", "--strict"])
    assert undec.returncode == 2


@pytest.mark.parametrize("field, text", [
    ("F2((t))", "[1,5]"),        # integer outside F_2
    ("F4((t))", "[1,4]"),        # integer outside F_4
    ("F2((t))", "[1,g]"),        # F_2 has no generator g
    ("F4((g))", "[1,g]"),        # g names the base generator
    ("F2((g))", "[1,1]"),
    ("F2((t))((t))", "[1,t]"),   # repeated variable
    ("F0((t))", "[1,t]"),
    ("F2^0((t))", "[1,t]"),
    ("F2((t))", "[1/0,1]"),      # division by zero
    ("F2((t))", "[(t+t)^-1,1]"), # negative power of zero
    ("F2((t))", "1/0*[1,1]"),    # zero divisor in a scalar prefix
    ("F2((t))", "t*[1,1"),       # unclosed bracket in the form
    ("F2((t)", "[1,1]"),         # unclosed bracket in the field
])
def test_bad_input_is_a_positioned_parse_error(capsys, field, text):
    assert main(["--field", field, "--form", text, "--run", "invariants"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 1, col ")
    # the arguments are joined by "; ": an error that names a semicolon or
    # a missing declaration has run past the argument it is in
    assert "';'" not in err and "at least one form" not in err, err


@pytest.mark.parametrize("text, col", [
    ("[1/0,1]", 4), ("[(t+t)^-1,1]", 2), ("1/0*[1,1]", 3),
    ("(1/0)*[1,1]", 4), ("[1,1]+t/(t+t)*[1,1]", 9),
])
def test_zero_divisor_is_reported_at_the_divisor(text, col):
    # the scalar route gets further than the bare-primary route
    with pytest.raises(ParseError) as info:
        parse_form(parse_field("F2((t))"), text)
    assert (info.value.col, info.value.expected) == (col, "a nonzero divisor")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_zero_divisor_in_batch_is_a_parse_error(tmp_path, workers):
    # with 2 workers the error crosses a process boundary and must arrive
    # whole, not as a broken pool
    batch = tmp_path / "jobs.txt"
    batch.write_text("field F2((t)); form [1,t]; run witt\n"
                     "field F2((t)); form [1/0,1]; run witt\n")
    out = _cli(["--batch", str(batch), "--json", "--workers", workers])
    assert out.returncode == 1
    assert out.stderr == ("parse error: line 2, col 24: expected a nonzero "
                          "divisor, found '0'\n")


@pytest.mark.parametrize("field, text, col, expected", [
    ("F2((t))", "t*[1,1", 7, "']'"),             # error after the '*'
    ("F2((s))((t))", "t*x*[1,1]", 3, None),       # unknown name in the scalar
    ("F2((t))", "[1,1]+t*<t,1", 13, "'>'"),
    ("F2((t))", "(t)*[1,t+]", 10, None),
    ("F2((t))", "x", 1, None),                    # both routes fail at once
])
def test_scaled_item_error_is_reported_where_it_is(field, text, col, expected):
    with pytest.raises(ParseError) as info:
        parse_form(parse_field(field), text)
    assert info.value.col == col
    if expected is not None:
        assert info.value.expected == expected


@pytest.mark.parametrize("text, col, found", [
    ("field F2((t)); blorp [1,1]", 16, "blorp"),   # at the statement
    (" field F2((t));  run witt, fly; form [1,1]", 28, "fly"),
    ("field F2((t)); form [1,1,1]; run witt", 25, ","),
    ("field F2(t); form [1,1]", 9, "("),           # inside the field
    ("field F2((t))", 14, ""),                      # at the end of the text
    # an unclosed bracket ends with its statement
    ("field F2((t)); form [1,t; run witt", 25, "<eof>"),
    ("field F2((t); form [1,1]", 12, ")"),
    ("field F2((t)); form pf(t;1;run witt", 27, "<eof>"),  # one ';' per pf
    # the pf left open in the form does not take the run's ')' and ';'
    ("field F2((t)); form pf(t,(1; run witt); run fly", 34, "witt)"),
])
def test_parse_job_positions_errors_in_the_job_text(text, col, found):
    with pytest.raises(ParseError) as info:
        parse_job(text)
    assert (info.value.line, info.value.col, info.value.found) == \
        (1, col, found)


def test_parse_job_keeps_the_pf_semicolon():
    job = parse_job("field F2((t)); form pf(t;1) + pf (t ; t); run witt")
    assert (job.form_texts, job.runs) == (["pf(t;1) + pf (t ; t)"], ["witt"])


def test_parse_job_positions_errors_on_later_lines():
    with pytest.raises(ParseError) as info:
        parse_job("field F2((t));\nform [1,1];\n  form [1,1,1]")
    assert (info.value.line, info.value.col) == (3, 12)


@pytest.mark.parametrize("args, where", [
    (["--form", "t*[1,1"], "line 1, col 7: expected ']'"),
    (["--form", "[1,t]", "--form", "[1/0,1]"], "line 1, col 4: expected a "
     "nonzero divisor"),
    (["--form", "[1,\n1+]"], "line 2, col 3: expected a variable"),
    (["--form", "[1,t]", "--run", "witt, fly"], "line 1, col 7: expected one "
     "of"),
    (["--form", "\n [1,1,1]"], "line 2, col 6: expected ']'"),
    # each argument is parsed on its own: a ';' cannot add a statement
    (["--form", "[1,t]", "--run", "witt; form [1,t]"], "line 1, col 1: "
     "expected one of"),
    (["--field", "F2((t)); form [1,t]", "--form", "[1,t]"], "line 1, col 8: "
     "expected end of field declaration, found ';'"),
    (["--form", "[1,1]; run invariants", "--run", "witt"], "line 1, col 6: "
     "expected end of form expression, found ';'"),
])
def test_argument_errors_are_positioned_in_the_argument(capsys, args, where):
    assert main(["--field", "F2((t))"] + args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"parse error: {where}")
    assert captured.out == ""


def test_arguments_are_stripped_as_in_a_job_line(capsys):
    # the job keeps the stripped texts, as a batch line does; the pf
    # semicolon belongs to the form
    assert main(["--field", " F2((t)) ", "--form", "  pf(t;1) + pf (t ; t) ",
                 "--run", " witt,invariants ", "--json"]) == 0
    rep = run_report(parse_job("field F2((t)); form pf(t;1) + pf (t ; t); "
                               "run witt,invariants"))
    assert capsys.readouterr().out == \
        json.dumps(rep, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("comp", ["witt", "clifford", "pfister", "chow2",
                                  "chow3"])
def test_each_runner_reports_its_own_undecided_bit(comp):
    def undecided(text, runs):
        return run_report(parse_job(f"field F2((s))((t)); form {text}; "
                                    f"run {runs}"))["any_undecided"]

    wild = "[1,s*t^-2]+[1,1]+s*[1,1]"
    assert undecided(wild, "invariants") is False
    assert undecided(wild, f"invariants,{comp}") is True
    assert undecided("[1,1]+s*[1,1]+t*[1,s]+<s*t>", comp) is False


@pytest.mark.parametrize("args, message", [
    (["--workers", "abc", "--batch", "jobs.txt"],
     "argument --workers: invalid int value: 'abc'"),
    (["--form", "[1,t]"], "need --field and --form"),
    (["--field", "F2((t))"], "need --field and --form"),
    (["--batch", "missing.jobs"], "No such file or directory"),
    (["--config", "bad.cfg", "--field", "F2((t))", "--form", "[1,t]"],
     "config degree_bound = 'abc': expected an integer"),
    (["--config", "strict.cfg", "--field", "F2((s))((t))", "--form",
      "[1,s*t^-2]+[1,1]"], "config strict = 'off': expected true or false"),
    (["--config", "missing.cfg", "--field", "F2((t))", "--form", "[1,t]"],
     "No such file or directory"),
    (["--config", "dash.cfg", "--field", "F2((t))", "--form", "[1,t]"],
     "config degree-bound = '3': unknown key, expected one of field, form, "
     "run, json, strict, degree_bound, budget, seed"),
    (["--workers", "0", "--field", "F2((t))", "--form", "[1,t]"],
     "--workers 0: expected an integer >= 1"),
    (["--workers", "-2", "--batch", "jobs.txt"],
     "--workers -2: expected an integer >= 1"),
    (["--degree-bound", "-1", "--field", "F2((t))", "--form", "[1,t]"],
     "--degree-bound -1: expected an integer >= 0"),
    (["--budget", "-5", "--field", "F2((t))", "--form", "[1,t]"],
     "--budget -5: expected an integer >= 0"),
    (["--config", "negative.cfg", "--field", "F2((t))", "--form", "[1,t]"],
     "config budget = '-5': expected an integer >= 0"),
])
def test_input_failures_are_one_error_line(tmp_path, monkeypatch, capsys,
                                           args, message):
    # neither a traceback nor exit 2, which --strict keeps for undecided
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("degree_bound = abc\n")
    (tmp_path / "strict.cfg").write_text("strict = off\n")
    (tmp_path / "dash.cfg").write_text("# dash for underscore\n"
                                       "degree-bound = 3\n")
    (tmp_path / "negative.cfg").write_text("degree_bound = 2\nbudget = -5\n")
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_least_settings_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "qf2.cfg"
    cfg.write_text("degree_bound = 0\nbudget = 0\nseed = -3\n")
    assert main(["--config", str(cfg), "--field", "F2((t))", "--form",
                 "[1,1]", "--run", "witt", "--json", "--workers", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["job"]["limits"] == {"degree_bound": 0, "budget": 0,
                                    "seed": -3}
    # degree 0 leaves the pool {0, 1}, and a block costs 2^2 nodes
    assert doc["forms"][0]["witt"]["search_budget_exhausted"] == "5 nodes"


def test_config_values_are_parsed_as_text(tmp_path, capsys):
    cfg = tmp_path / "qf2.cfg"
    cfg.write_text("field = F2((t))\nform = 1\n")
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("parse error: line 1, col 1:")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qf2")


def test_computations_are_listed_once():
    assert build_parser().format_help().count(
        ",".join(COMPUTATIONS)) == 1
    rep = run_report(parse_job("field F2((t)); form [1,t]; run all"))
    assert tuple(rep["forms"][0])[2:] == COMPUTATIONS[:-1]
    lines = render_text(rep).splitlines()[2:]
    assert [ln.split(":")[0].strip() for ln in lines] == \
        list(COMPUTATIONS[:-1])


def test_batch_errors_name_the_file_line(tmp_path):
    # blank and comment lines count; the column is the file's column
    batch = tmp_path / "jobs.txt"
    batch.write_text("# a comment\n\nfield F2((t)); form [1,t]; run witt\n"
                     "  field F2((t)); form [1,1]+t*[1,1; run witt\n")
    out = _cli(["--batch", str(batch), "--json"])
    assert out.returncode == 1
    assert out.stderr.startswith("parse error: line 4, col 35: expected ']'")


def test_serial_cli_does_not_load_the_process_pool():
    code = ("import sys, qf2.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_errors_cross_process_boundaries_whole():
    # batch workers send errors back pickled
    for exc in (ParseError(1, 4, "a nonzero divisor", "0"), Degenerate(2)):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert vars(back) == vars(exc)


def test_config_file(tmp_path):
    cfg = tmp_path / "qf2.cfg"
    cfg.write_text("degree_bound = 3\nstrict = false\njson = true\n")
    out = _cli(["--config", str(cfg), "--field", "F2((t))",
                "--form", "[1,t]", "--run", "invariants"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["job"]["limits"]["degree_bound"] == 3


def test_batch_order_and_workers(tmp_path):
    batch = tmp_path / "jobs.txt"
    lines = [
        "field F2((t)); form [1,t]; run witt",
        "field F2((t)); form [1,1]+t*[1,1]; run witt",
        "field F2((s))((t)); form [1,1]+s*[1,1]+<t>; run chow2",
    ]
    batch.write_text("\n".join(lines) + "\n")
    r1 = _cli(["--batch", str(batch), "--json"])
    r2 = _cli(["--batch", str(batch), "--json", "--workers", "2"])
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    doc = json.loads(r1.stdout)
    assert [j["forms"][0]["input"] for j in doc["jobs"]] == \
        ["[1,t]", "[1,1]+t*[1,1]", "[1,1]+s*[1,1]+<t>"]


def test_text_mode_renders(tmp_path):
    out = _cli(["--field", "F2((t))", "--form", "[1,t]", "--run", "witt"])
    assert out.stdout.startswith("field F2((t))")
    assert "witt" in out.stdout
