"""Regenerate tests/data/witt_pinned.json.

    PYTHONPATH=src python tests/data/make_witt_pinned.py

Each entry records `witt_decompose` on one form: the form's JSON, then
either the decomposition's `to_json()` or the error class and message it
raised.  The corpus is seeded and has five parts:

* tame forms of dims 2-12, with one quasilinear entry in odd dimensions,
  over F2, F4, F2((t)), F4((t)), F2((s))((t)) and F2((s))((t))((u));
* the same kind of forms with hyperbolic blocks [0,0] put in among the
  blocks;
* orthogonal doubles q + q, which split completely;
* the normal forms of changed-basis Gram matrices of tame forms (phi(Mx)
  for a seeded invertible 0/1 matrix M), whose entries are no longer tame;
* forms with random fraction entries, and fixed forms that split through
  isotropic planes.

Rerunning this script after a change to the Witt engine or the normal form
must reproduce the file byte for byte.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))

from helpers import (K1, K2, K3, random_elem,  # noqa: E402
                     random_tame_form)
from make_normal_form_pinned import changed_gram  # noqa: E402
from qf2.errors import QF2Error  # noqa: E402
from qf2.fieldtower import parse_field  # noqa: E402
from qf2.forms import (QuadraticForm, normal_form, orthogonal_sum,  # noqa: E402
                       parse_form)
from qf2.witt import witt_decompose  # noqa: E402

F2 = parse_field("F2")
F4 = parse_field("F4")
F4T = parse_field("F4((t))")

# (field, dims of the tame forms, dims of q in the doubles q + q)
TAME = ((F2, range(2, 13, 2), (2, 4, 6)),
        (F4, range(2, 13, 2), (2, 4, 6)),
        (K1, range(2, 13), (2, 4, 6)),
        (F4T, range(2, 13), (2, 4, 6)),
        (K2, range(2, 13), (2, 4, 6)),
        (K3, range(2, 11), (2, 4)))
HYPERBOLIC = ((K1, range(2, 11)), (F4T, range(2, 11)), (K2, range(2, 11)),
              (K3, range(2, 9, 2)))
CHANGED = ((K1, range(3, 11)), (F4T, range(3, 11)), (K2, range(3, 11)),
           (K3, range(4, 8)))
RANDOM = ((K1, range(2, 9)), (F4T, range(2, 9)), (K2, range(2, 9)))
FIXED = (
    ("F2((t))", "[1,1]+<t+1>"),
    ("F2((t))", "[1,1]+t*[1,1]+<t+1>"),
    ("F2((t))", "[1,1]+[t,1/t]+<t+1>"),
    ("F2((t))", "[1,1]+t*[1,1]+[1,t]"),
    ("F2((t))", "[0,0]+[1,1]+t*[1,1]"),
    ("F2((s))((t))", "[1,1]+s*[1,1]+<s*t+1>"),
    ("F2((s))((t))", "[1,s*t^-2]+[1,1]+s*[1,1]"),
    ("F2((s))((t))", "pf(s,t;1)+<1>"),
    ("F2((s))((t))", "pf(s,t;1)+[1,1]+s*[1,1]"),
    ("F4((t))", "[1,g]+t*[1,g]+<t+g>"),
)


def corpus():
    """Forms in a fixed order."""
    rng = random.Random(6151)
    forms = []
    for K, dims, doubled in TAME:
        for n in dims:
            forms.append(random_tame_form(K, rng, n // 2, quasilinear=n % 2))
        for n in doubled:
            q = random_tame_form(K, rng, n // 2)
            forms.append(orthogonal_sum(q, q))
    z = None
    for K, dims in HYPERBOLIC:
        z = K.zero()
        for n in dims:
            phi = random_tame_form(K, rng, n // 2, quasilinear=n % 2)
            blocks = list(phi.blocks)
            for _ in range(1 + rng.randrange(2)):
                blocks.insert(rng.randrange(len(blocks) + 1), (z, z))
            forms.append(QuadraticForm(K, tuple(blocks), phi.quasilinear))
    for K, dims in CHANGED:
        for n in dims:
            phi = random_tame_form(K, rng, n // 2, quasilinear=n % 2)
            forms.append(normal_form(changed_gram(phi, rng)))
    for K, dims in RANDOM:
        for n in dims:
            blocks = tuple((random_elem(K, rng, 1, nonzero=True),
                            random_elem(K, rng, 1, nonzero=True))
                           for _ in range(n // 2))
            ql = tuple(random_elem(K, rng, 1, nonzero=True)
                       for _ in range(n % 2))
            forms.append(QuadraticForm(K, blocks, ql))
    for field, text in FIXED:
        forms.append(parse_form(parse_field(field), text))
    return forms


def outcome(phi):
    """{"decomposition"} or {"error", "message"} for one form."""
    try:
        dec = witt_decompose(phi)
    except QF2Error as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"decomposition": dec.to_json()}


def main():
    entries = [dict(form=phi.to_json(), **outcome(phi)) for phi in corpus()]
    path = Path(__file__).with_name("witt_pinned.json")
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} forms -> {path}")


if __name__ == "__main__":
    main()
