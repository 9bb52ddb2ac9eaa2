"""Regenerate tests/data/normal_form_pinned.json.

    PYTHONPATH=src python tests/data/make_normal_form_pinned.py

Each entry records `normal_form_trace` on one Gram matrix: the rendered
matrix, then either the rendered form and basis or the name of the error
class it raised.  The corpus has three parts:

* changed-basis Gram matrices (phi(Mx) for a seeded invertible 0/1 matrix M)
  of tame forms of dims 2-12, two per dimension, over F2((t)), F4((t)),
  F2((s))((t)) and F2((s))((t))((u)), and of orthogonal doubles q + q of
  dims 4-12;
* degenerate Gram matrices: radicals of dimension >= 2, a radical vector on
  which the form vanishes, the zero matrix;
* dense random Gram matrices of dims 2-10, two per dimension, whose entries
  are random fractions; some of them raise DegreeOverflow.

Rerunning this script after a change to the normal form must reproduce the
file byte for byte.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))

from helpers import K1, K2, K3, random_elem, random_tame_form  # noqa: E402
from qf2.errors import QF2Error  # noqa: E402
from qf2.fieldtower import parse_field, render_element  # noqa: E402
from qf2.forms import (GramInput, QuadraticForm, normal_form_trace,  # noqa: E402
                       orthogonal_sum, render_form)

F4 = parse_field("F4((t))")

# (field, dims of the tame forms, dims of q in the doubles q + q)
TAME = ((K1, range(2, 13), (2, 4, 6)),
        (F4, range(2, 13), (2, 4, 6)),
        (K2, range(2, 13), (2, 4, 6)),
        (K3, range(2, 13), (2, 4)))
DENSE = ((K1, range(2, 11)), (F4, range(2, 11)), (K2, range(2, 11)))
REPS = 2  # grams per (field, dim) in each part


def changed_gram(phi, rng):
    """Gram matrix of phi(Mx) for a seeded invertible 0/1 matrix M (a unit
    upper-triangular matrix with its columns permuted)."""
    K, n = phi.field, phi.dim
    one, zero = K.one(), K.zero()
    upper = [[one if i == j or (j > i and rng.random() < 0.3) else zero
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    cols = [[upper[r][perm[c]] for r in range(n)] for c in range(n)]
    rows = [[zero] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = phi.evaluate(cols[k])
        for j in range(k + 1, n):
            rows[k][j] = phi.polar(cols[k], cols[j])
    return GramInput(K, tuple(tuple(r) for r in rows))


def dense_gram(K, rng, n):
    """Upper-triangular entries, each a random fraction with probability
    0.7, as in test_forms.test_normal_form_isometry_via_basis_trace."""
    entries = [[K.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.7:
                entries[i][j] = random_elem(K, rng, deg=1)
    return GramInput(K, tuple(tuple(r) for r in entries))


def degenerate_grams(rng):
    out = []
    for K in (K1, F4, K2):
        z = K.zero()
        # quasilinear part of dimension 2 and 3
        out.append(changed_gram(random_tame_form(K, rng, 1, quasilinear=2),
                                rng))
        out.append(changed_gram(random_tame_form(K, rng, 2, quasilinear=3),
                                rng))
        # radical vector with phi = 0: [a,b] + <0> written as a Gram matrix
        a, b = random_tame_form(K, rng, 1).blocks[0]
        out.append(GramInput(K, ((a, K.one(), z), (z, b, z), (z, z, z))))
        out.append(GramInput(K, tuple(tuple(z for _ in range(3))
                                      for _ in range(3))))
        # a hyperbolic pair plus a radical of dimension 2
        psi = QuadraticForm(K, ((z, z),), (K.one(), K.one()))
        out.append(changed_gram(psi, rng))
    return out


def corpus():
    """Gram matrices in a fixed order."""
    rng = random.Random(4107)
    grams = []
    for K, dims, doubled in TAME:
        for n in dims:
            for _ in range(REPS):
                grams.append(changed_gram(
                    random_tame_form(K, rng, n // 2, quasilinear=n % 2), rng))
        for n in doubled:
            q = random_tame_form(K, rng, n // 2)
            grams.append(changed_gram(orthogonal_sum(q, q), rng))
    grams.extend(degenerate_grams(rng))
    for K, dims in DENSE:
        for n in dims:
            for _ in range(REPS):
                grams.append(dense_gram(K, rng, n))
    return grams


def render_gram(g):
    return [[render_element(x) for x in row] for row in g.entries]


def outcome(g):
    """{"form", "basis"} or {"error"} for one Gram matrix."""
    try:
        phi, basis = normal_form_trace(g)
    except QF2Error as exc:
        return {"error": type(exc).__name__}
    return {"form": render_form(phi),
            "basis": [[render_element(x) for x in v] for v in basis]}


def main():
    entries = [dict(field=g.field.render(), gram=render_gram(g), **outcome(g))
               for g in corpus()]
    path = Path(__file__).with_name("normal_form_pinned.json")
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} Gram matrices -> {path}")


if __name__ == "__main__":
    main()
