"""Every name that bench/tracer.py wraps, and every CLI hook that the
benchmark's CLI drivers call or patch, still exists in the package.

The tracer patches functions by name (`FUNCTIONS`), `FieldElem`'s operators
(`OPS`) and `GramInput.polar`; a renamed or deleted target would otherwise
surface only when the benchmark runs with `--trace 1`.  The module is
imported from its file without writing bytecode next to it.
"""

import importlib.util
import json
import sys
import types
from pathlib import Path

from qf2 import cli, fieldtower, forms

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    missing = [f"{mod.__name__}.{attr}"
               for mod, attr, _, _ in tracer.FUNCTIONS
               if not callable(getattr(mod, attr, None))]
    missing += [f"FieldElem.{attr}" for attr, _ in tracer.OPS
                if not callable(getattr(fieldtower.FieldElem, attr, None))]
    if not callable(getattr(forms.GramInput, "polar", None)):
        missing.append("GramInput.polar")
    assert missing == []
    assert tracer.FUNCTIONS


def test_bench_cli_hooks(capsys, monkeypatch):
    # bench/cli_timed.py and bench/cli_traced.py wrap _evaluate_job_text
    # and swap out the module-global json; bench/worker.py calls parse_job
    # and run_report directly
    line = "field F2((t)); form [1,1]+t*[1,1]; run witt,chow2"
    defaults = cli.Job(json_output=True)
    assert cli._evaluate_job_text((line, defaults, 1)) == \
        cli.run_report(cli.parse_job(line, defaults))
    dumped = []

    def dumps(obj, **kwargs):
        dumped.append(obj)
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=dumps))
    assert cli.main(["--field", "F2((t))", "--form", "[1,t]", "--run",
                     "invariants", "--json"]) == 0
    assert [doc["schema_version"] for doc in dumped] == [cli.SCHEMA_VERSION]
    assert json.loads(capsys.readouterr().out) == dumped[0]
