"""Regenerate tests/data/kernel_pinned.json.

    PYTHONPATH=src python tests/data/make_kernel_pinned.py

Each entry records the field kernel on one pair a = na/da, b = nb/db of
seeded random fractions: the rendered a*b + a/b and a**2 + b, whether a is
a square, the JSON of wp_reduce(a) and the valuation of a.  An item whose
arithmetic raises DegreeOverflow is recorded with the overflow message
instead, so the file also pins where the degree cap fires.  The corpus has
25 items for each of F2((t)), F4((t)), F2((s))((t)) and F2((s))((t))((u))
at numerator and denominator degrees 1, 2 and 3.  The four polynomials are
stored rendered; they carry no division, so parsing them back cannot
overflow.  Rerunning this script after a change to the field kernel must
reproduce the file.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))

from helpers import _random_poly  # noqa: E402
from qf2.errors import DegreeOverflow  # noqa: E402
from qf2.fieldtower import (  # noqa: E402
    is_square, parse_element, parse_field, render_element, valuation_split,
    wp_reduce)

FIELDS = ("F2((t))", "F4((t))", "F2((s))((t))", "F2((s))((t))((u))")
DEGREES = (1, 2, 3)
PER_STRATUM = 25


def _nonzero_poly(K, rng, deg):
    while True:
        p = _random_poly(K, rng, deg)
        if not p.is_zero():
            return p


def corpus():
    """(field text, degree, [na, da, nb, db] rendered) triples."""
    out = []
    for field in FIELDS:
        K = parse_field(field)
        for deg in DEGREES:
            rng = random.Random(f"kernel_pinned:{field}:{deg}")
            for _ in range(PER_STRATUM):
                polys = [render_element(_nonzero_poly(K, rng, deg))
                         for _ in range(4)]
                out.append((field, deg, polys))
    return out


def compute(K, polys):
    """The recorded outputs of one item, or its overflow message."""
    na, da, nb, db = (parse_element(K, p) for p in polys)
    try:
        a = na / da
        b = nb / db
        return {"x": render_element(a * b + a / b),
                "y": render_element(a ** 2 + b),
                "square": is_square(a)[0],
                "wp": wp_reduce(a).to_json(),
                "val": valuation_split(a)[0]}
    except DegreeOverflow as exc:
        return {"overflow": str(exc)}


def main():
    entries = []
    for field, deg, polys in corpus():
        entry = {"field": field, "degree": deg, "polys": polys}
        entry.update(compute(parse_field(field), polys))
        entries.append(entry)
    path = Path(__file__).with_name("kernel_pinned.json")
    path.write_text(json.dumps(entries, indent=1) + "\n")
    overflows = sum("overflow" in e for e in entries)
    print(f"{len(entries)} items, {overflows} overflow -> {path}")


if __name__ == "__main__":
    main()
