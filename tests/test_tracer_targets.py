"""Every name that bench/tracer.py wraps still exists in the package.

The tracer patches functions by name (`FUNCTIONS`), `FieldElem`'s operators
(`OPS`) and `GramInput.polar`; a renamed or deleted target would otherwise
surface only when the benchmark runs with `--trace 1`.  The module is
imported from its file without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

from qf2 import fieldtower, forms

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
