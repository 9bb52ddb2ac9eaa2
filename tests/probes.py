"""Seeded probes that count what the engine does on fixed corpora.

    PYTHONPATH=src python tests/probes.py [NAME ...]

prints one JSON object, {probe name: counts}, for the named probes (all of
them by default).  Every probe is built on tests/helpers.py with fixed
seeds and reports counts only, never timings, so two runs print identical
bytes.  Pytest does not collect this file.

Probes:
  kernel_swell  a*b + a/b over 100 pairs of nonzero degree-3 elements
                (helpers.random_elem, Random(3)) per tower of depth 1-3:
                how many raise DegreeOverflow, and how many operand pairs
                already overflow while they are built; and whether z*z + z
                overflows for the six-term z of SIX_TERM_Z over F2((s))((t)).
  nontame       decide_isotropy on 120 forms of each shape (blocks,
                quasilinear entries) in NONTAME_SHAPES over F2((t)) and
                F2((s))((t)), each field with its own Random(5); every entry
                is random_elem(K, rng, 2, nonzero=True), block entries
                first: the count of each verdict kind, and of DegreeOverflow,
                per shape and in total.
  clifford_index
                the index interval of C'_0(phi) as the symbols certify it
                alone (clifford._symbol_class) against splitting_index's,
                over helpers.index_corpus(20) ("tame") and over random
                nondegenerate forms of dims 2-8 over F2((t)) and
                F2((s))((t)), 30 per dim, entries random_elem(K, rng, 2,
                nonzero=True) with Random(5) per field ("nontame"): how
                many intervals are equal, tighter on one side, or not
                nested ("disagreeing"); how many public intervals
                (even_clifford_class) are tighter than the symbols'; and
                how many forms raise DegreeOverflow.
"""

import json
import random
import sys

from qf2 import clifford
from qf2.errors import DegreeOverflow
from qf2.fieldtower import parse_element
from qf2.forms import QuadraticForm
from qf2.witt import decide_isotropy

from helpers import K1, K2, K3, index_corpus, nested, random_elem

SIX_TERM_Z = "t^-3/s+(1+s)*t^-2+t^-1+1/s+1+t^2"


def _overflows(compute) -> bool:
    try:
        compute()
    except DegreeOverflow:
        return True
    return False


def kernel_swell():
    out = {}
    for K in (K1, K2, K3):
        rng = random.Random(3)
        overflow = operand_overflow = 0
        for _ in range(100):
            try:
                a = random_elem(K, rng, deg=3, nonzero=True)
                b = random_elem(K, rng, deg=3, nonzero=True)
            except DegreeOverflow:
                operand_overflow += 1
                continue
            overflow += _overflows(lambda: a * b + a / b)
        out[K.render()] = {"pairs": 100, "overflow": overflow,
                           "operand_overflow": operand_overflow}
    z = parse_element(K2, SIX_TERM_Z)
    out["six_term_z_squared_plus_z_overflows"] = _overflows(
        lambda: z * z + z)
    return out


NONTAME_SHAPES = ((1, 1), (2, 0), (2, 1), (3, 0), (3, 1))
NONTAME_KINDS = ("isotropic", "anisotropic", "unknown", "DegreeOverflow")


def _random_form(K, rng, blocks, ql):
    """A form whose entries are random_elem(K, rng, 2, nonzero=True), block
    entries first; raises DegreeOverflow if an entry overflows."""
    entries = [random_elem(K, rng, 2, nonzero=True)
               for _ in range(2 * blocks + ql)]
    return QuadraticForm(K, tuple(zip(entries[:2 * blocks:2],
                                      entries[1:2 * blocks:2])),
                         tuple(entries[2 * blocks:]))


def _nontame_outcome(K, rng, blocks, ql):
    try:
        return decide_isotropy(_random_form(K, rng, blocks, ql)).kind
    except DegreeOverflow:
        return "DegreeOverflow"


def nontame():
    out = {}
    for K in (K1, K2):
        rng = random.Random(5)
        total = dict.fromkeys(NONTAME_KINDS, 0)
        counts = {"total": total}
        for blocks, ql in NONTAME_SHAPES:
            shape = counts[f"({blocks},{ql})"] = dict.fromkeys(total, 0)
            for _ in range(120):
                kind = _nontame_outcome(K, rng, blocks, ql)
                shape[kind] += 1
                total[kind] += 1
        out[K.render()] = counts
    return out


def _index_counts(forms):
    counts = dict.fromkeys(("forms", "equal", "splitting_tighter",
                            "symbols_tighter", "disagreeing",
                            "public_tighter", "DegreeOverflow"), 0)
    for phi in forms:
        counts["forms"] += 1
        try:
            symbols = clifford._symbol_class(phi).index_interval
            res = clifford.splitting_index(phi)
            public = clifford.even_clifford_class(phi).index_interval
        except DegreeOverflow:
            counts["DegreeOverflow"] += 1
            continue
        split = (res.ind_low, res.ind_high)
        key = "equal" if split == symbols else \
            "splitting_tighter" if nested(split, symbols) else \
            "symbols_tighter" if nested(symbols, split) else "disagreeing"
        counts[key] += 1
        counts["public_tighter"] += public != symbols
    return counts


def _nontame_forms():
    for K in (K1, K2):
        rng = random.Random(5)
        for dim in range(2, 9):
            for _ in range(30):
                yield _random_form(K, rng, dim // 2, dim % 2)


def clifford_index():
    return {"tame": _index_counts(index_corpus(20)),
            "nontame": _index_counts(_nontame_forms())}


PROBES = {"kernel_swell": kernel_swell, "nontame": nontame,
          "clifford_index": clifford_index}


def main(names):
    unknown = [n for n in names if n not in PROBES]
    if unknown:
        sys.exit(f"unknown probe(s): {', '.join(unknown)}; "
                 f"known: {', '.join(PROBES)}")
    print(json.dumps({n: PROBES[n]() for n in names or PROBES},
                     sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
