"""Regenerate tests/data/center_pinned.json.

    PYTHONPATH=src python tests/data/make_center_pinned.py

Each entry records the centre of one Clifford algebra, found by the linear
solve on the structure constants in tests/clifford_oracle.py: its
dimension, delta, classification and idempotent (mask -> rendered
coefficient).  The corpus mixes full and even
algebras over F2, F2((t)), F2((s))((t)) and F4((t)); it includes
hyperbolic(F2, 2), where no basis vector is anisotropic, and a singular form
of dimension 7.  Rerunning this script must reproduce the file, and
tests/test_clifford.py::test_center_pinned holds the centre read off the
form to it.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))

from clifford_oracle import solve_center, structure_constants  # noqa: E402
from helpers import K1, K2, random_tame_form  # noqa: E402
from qf2.fieldtower import parse_field, render_element  # noqa: E402
from qf2.forms import hyperbolic, parse_form, render_form  # noqa: E402

FIXED = (
    ("F2", "[1,1]", True), ("F2", "[0,0]", True), ("F2", "[1,1]+[1,1]", True),
    ("F2", "[1,1]+<1>", False), ("F2", "[1,1]+<1>", True),
    ("F2((t))", "[1,t]", True), ("F2((t))", "[1,1]+t*[1,1]", True),
    ("F2((t))", "[1,t]+<t>", True), ("F2((t))", "[t,1/t]+[1,1]", True),
    ("F2((t))", "<1,t>", False), ("F2((t))", "<t>", False),
    ("F2((t))", "[1,t]+[1,1]+<1,t,t+1>", False),
    ("F2((s))((t))", "[1,s]+t*[1,1]", True),
    ("F2((s))((t))", "[1,1]+s*[1,1]+<t>", True),
    ("F2((s))((t))", "[0,0]+[1,1]+s*[1,1]", True),
    ("F2((s))((t))", "pf(s,t;1)", True),
    ("F4((t))", "[1,1]", True), ("F4((t))", "[1,t]+<t+1>", True),
    ("F4((t))", "[t,1/t]+[1,t^2]", True),
)


def corpus():
    """(field text, form text, even_only) triples."""
    out = list(FIXED)
    out.append(("F2", render_form(hyperbolic(parse_field("F2"), 2)), True))
    rng = random.Random(31)
    for K, blocks, ql in ((K1, 1, 0), (K1, 2, 0), (K1, 1, 1), (K1, 2, 1),
                          (K2, 1, 0), (K2, 2, 0), (K2, 1, 1), (K2, 2, 1)):
        phi = random_tame_form(K, rng, blocks, quasilinear=ql)
        out.append((K.render(), render_form(phi), True))
        out.append((K.render(), render_form(phi), False))
    return out


def record(field, text, even_only):
    phi = parse_form(parse_field(field), text)
    c = solve_center(structure_constants(phi, even_only=even_only))
    idem = None
    if c.idempotent is not None:
        idem = {str(m): render_element(x)
                for m, x in sorted(c.idempotent.items())}
    return {"field": field, "form": text, "even_only": even_only,
            "dimension": c.dimension,
            "delta": render_element(c.delta) if c.delta is not None else None,
            "classification": c.classification, "idempotent": idem}


def main():
    entries = [record(*item) for item in corpus()]
    path = Path(__file__).with_name("center_pinned.json")
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} algebras -> {path}")


if __name__ == "__main__":
    main()
