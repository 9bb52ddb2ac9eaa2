"""Regenerate tests/data/chow_pinned.json.

    PYTHONPATH=src python tests/data/make_chow_pinned.py

Each entry records, for one form of dimension 5..8, the JSON of
`chow2_torsion`, `chow3_torsion` and `pfister.neighbor`.  The corpus is
seeded random tame forms over F2((t)) and F2((s))((t)) plus fixed forms for
the branches those do not reach: neighbors of dimension 7 and 8, undecided
anisotropy and neighbor status unknown in dimensions 5 and 6 (wild entries
over F2((s))((t))), and the not-neighbor and Albert rules, which need
F2((s))((t))((u)): over F2((s))((t)) every tame block is c*[1,0] or
c*[1,1], so a tame anisotropic form there is a sum of c*[1,1] (and lines),
which is a neighbor.  The dimension-7/8 unknown branch (the witness search
exhausting its pool) is left out: one such form takes 6 s or more.  The
script fails unless every chow2 rule of dimensions 5..8 is reached.
Rerunning it after a change to chow, pfister or the engine below them must
reproduce the file.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))

from helpers import K1, K2, random_tame_form  # noqa: E402
from qf2.chow import chow2_torsion, chow3_torsion  # noqa: E402
from qf2.fieldtower import parse_field  # noqa: E402
from qf2.forms import parse_form, render_form  # noqa: E402
from qf2.pfister import neighbor  # noqa: E402

SEEDS = range(24)
SHAPES = {5: (2, 1), 6: (3, 0), 7: (3, 1), 8: (4, 0)}   # (blocks, lines)
FIXED = (
    ("F2((s))((t))", "[1,1] + s*[1,1] + t*[1,1] + <s*t>"),
    ("F2((s))((t))", "pf(s,t;1)"),
    ("F2((s))((t))", "[1,s*t^-2] + [1,1] + s*[1,1]"),
    ("F2((s))((t))", "[1,1/s] + t*[1,1] + <s*t>"),
    ("F2((s))((t))", "[1,1] + s*[1,1] + t*[1,1+1/s]"),
    ("F2((s))((t))((u))", "[1,1]+t*[1,1+s^-1]+<u>"),
    ("F2((s))((t))((u))", "[1,1] + t*[1,1+s^-1] + u*[1,s^-1]"),
    ("F2((s))((t))((u))", "[1,1] + t*[1,1+s^-1] + u*[1,1+s^-1]"),
    ("F2((s))((t))((u))", "[1,1] + t*[1,1+1/s] + u*[1,1/s] + t*u*[1,1]"),
)
RULES = {"isotropic-torsion-free", "order-bound",
         "dim5-pfister-neighbor", "dim5-not-neighbor",
         "dim6-albert-torsion-free", "dim6-pfister-neighbor",
         "dim6-not-neighbor", "dim78-pfister-neighbor", "dim78-not-neighbor"}


def corpus():
    """(field text, form text) pairs."""
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        K = K1 if seed % 3 == 0 else K2
        blocks, lines = SHAPES[5 + seed % 4]
        out.append((K.render(),
                    render_form(random_tame_form(K, rng, blocks, lines))))
    return out + list(FIXED)


def record(field, text):
    phi = parse_form(parse_field(field), text)
    nv = neighbor(phi)
    return {"field": field, "form": text,
            "chow2": chow2_torsion(phi).to_json(),
            "chow3": chow3_torsion(phi).to_json(),
            "neighbor": nv.to_json() if nv is not None else None}


def main():
    entries = [record(*item) for item in corpus()]
    missing = RULES - {r for e in entries for r in e["chow2"]["rules"]}
    if missing:
        sys.exit(f"corpus misses the chow2 rules {sorted(missing)}")
    path = Path(__file__).with_name("chow_pinned.json")
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} forms -> {path}")


if __name__ == "__main__":
    main()
