"""Acceptance criteria, one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is exact (the underlying theory is classification, not numerics);
corpora are seeded and deterministic.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qf2.cli import parse_job
from qf2.errors import BudgetExceeded, QF2Error, Undecided
from qf2.fieldtower import parse_field
from qf2.forms import (QuadraticForm, arf, hyperbolic, hyperbolic_plane,
                       orthogonal_sum, parse_form)
from qf2.witt import (brute_force_search, decide_isotropy, replay_verdict,
                      springer_residues, witt_decompose)
from qf2.clifford import albert_index, splitting_index
from qf2.chow import chow2_torsion, chow3_torsion, split_chow_structure
from qf2.pfister import neighbor_dim5

from helpers import K1, K2, K3, checkout_env, random_tame_form

F2 = parse_field("F2")


def _corpus(rng, count, blocks_choices=(1, 2, 3), ql_choices=(0, 1), K=K2):
    out = []
    for _ in range(count):
        out.append(random_tame_form(K, rng, rng.choice(blocks_choices),
                                    quasilinear=rng.choice(ql_choices)))
    return out


def test_criterion_1_residue_dimension_law():
    """dim phi = dim phi0 + dim phi1 for >= 200 tame anisotropic
    nonsingular forms over F2((s))((t)), in under 60 seconds."""
    start = time.time()
    rng = random.Random(20240801)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 2000:
        attempts += 1
        phi = random_tame_form(K2, rng, rng.choice([1, 2, 3]))
        if not decide_isotropy(phi).is_anisotropic:
            continue
        pair = springer_residues(phi)
        assert pair.first.dim + pair.second.dim == phi.dim
        checked += 1
    elapsed = time.time() - start
    assert checked >= 200
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: residue dimension law on {checked} "
          f"anisotropic forms in {elapsed:.1f}s")


def test_criterion_2_oracle_agreement():
    """On a 500-form corpus (degree bound 6): the searcher never finds a
    witness for a form the engine declared anisotropic; engine witnesses
    evaluate to zero exactly; certificate verdicts replay.  The 500 draws
    hold 385 distinct forms ([1,1] occurs 19 times over F2((t)) and 9 times
    over F2((s))((t))), so the agreement covers 385 forms."""
    rng = random.Random(20240802)
    corpus = _corpus(rng, 300, (1, 2), (0, 1), K2) + \
        _corpus(rng, 120, (1, 2), (0, 1), K1) + \
        _corpus(rng, 80, (2, 3), (0,), K2)
    assert len(corpus) == 500
    distinct = len(set(corpus))
    assert distinct == 385
    contradictions = 0
    for phi in corpus:
        verdict = decide_isotropy(phi)
        assert not verdict.is_unknown, "tame corpus must be decidable"
        if verdict.witness is not None:
            assert phi.evaluate(verdict.witness).is_zero()
        assert replay_verdict(verdict)
        try:
            wit = brute_force_search(phi, 6, budget=40_000)
        except BudgetExceeded:
            wit = None
        if wit is not None:
            assert phi.evaluate(wit).is_zero()
            if verdict.is_anisotropic:
                contradictions += 1
    assert contradictions == 0
    print(f"\nPASS criterion 2: oracle agreement on {len(corpus)} draws, "
          f"{distinct} distinct forms, 0 contradictions")


def test_criterion_3_qq_hyperbolic_and_cancellation():
    """q _|_ q is hyperbolic and Witt cancellation holds, >= 500 random
    nonsingular forms in total."""
    rng = random.Random(20240803)
    count_qq = 0
    for _ in range(400):
        q = random_tame_form(K2, rng, rng.choice([1, 2, 3]))
        dec = witt_decompose(orthogonal_sum(q, q))
        assert dec.witt_index == q.dim and dec.kernel.dim == 0
        count_qq += 1
    from test_clifford import _tame_isometric_copy
    from qf2.forms import isometric
    count_cancel = 0
    for _ in range(120):
        phi = random_tame_form(K2, rng, rng.choice([1, 2]))
        psi = _tame_isometric_copy(phi, rng)
        big_phi = orthogonal_sum(phi, hyperbolic_plane(K2))
        big_psi = orthogonal_sum(psi, hyperbolic_plane(K2))
        assert isometric(big_phi, big_psi)
        assert isometric(phi, psi)
        count_cancel += 1
    assert count_qq + count_cancel >= 500
    print(f"\nPASS criterion 3: q+q hyperbolic on {count_qq}, cancellation "
          f"on {count_cancel} instances")


def test_criterion_4_splitting_index_identity():
    """s + log2(ind) = [(dim-1)/2] on every resolved result; hyperbolic
    forms give s = i_W - 1."""
    rng = random.Random(20240804)
    resolved = 0
    for _ in range(120):
        phi = random_tame_form(K2, rng, rng.choice([1, 2, 3]),
                               quasilinear=rng.choice([0, 1]))
        res = splitting_index(phi)
        if not res.resolved:
            continue
        resolved += 1
        m = (phi.dim - 1) // 2
        assert res.ind_low == res.ind_high
        assert res.s + (res.ind_low.bit_length() - 1) == m
    for n in (1, 2, 3, 4):
        h = hyperbolic(K2, n)
        res = splitting_index(h)
        dec = witt_decompose(h)
        assert res.s == dec.witt_index - 1
        assert res.ind_low == res.ind_high == 1
    assert resolved >= 80
    print(f"\nPASS criterion 4: splitting-index identity on {resolved} "
          f"resolved results + 4 hyperbolic rows")


def test_criterion_5_albert_table():
    """Albert forms with i_W = 0, 1, 3 produce index 4, 2, 1, one
    engine-certified instance per row."""
    rows = []
    q3 = hyperbolic(F2, 3)
    assert witt_decompose(q3).witt_index == 3
    assert albert_index(q3) == 1
    rows.append((3, 1))
    q1 = parse_form(K1, "[0,0]+[1,1]+t*[1,1]")
    assert witt_decompose(q1).witt_index == 1
    assert albert_index(q1) == 2
    rows.append((1, 2))
    q0 = parse_form(K3, "[1,1] + t*[1,1+s^-1] + u*[1,s^-1]")
    assert arf(q0).is_zero()
    assert decide_isotropy(q0).is_anisotropic
    assert witt_decompose(q0).witt_index == 0
    assert albert_index(q0) == 4
    rows.append((0, 4))
    assert sorted(rows) == [(0, 4), (1, 2), (3, 1)]
    print("\nPASS criterion 5: Albert index table rows "
          "(i_W, ind) = (3,1), (1,2), (0,4) certified")


def test_criterion_6_ch2_classification():
    """pf(s,t;1) and its 5-dim neighbor give CH^2 torsion exactly Z/2;
    isotropic and dim >= 9 instances give exactly 0."""
    pf8 = parse_form(K2, "pf(s,t;1)")
    r8 = chow2_torsion(pf8)
    assert (r8.kind, r8.group) == ("Exactly", "Z/2")
    phi5 = parse_form(K2, "[1,1]+s*[1,1]+<t>")
    r5 = chow2_torsion(phi5)
    assert (r5.kind, r5.group) == ("Exactly", "Z/2")
    s5 = splitting_index(phi5)
    assert s5.s == 1
    assert neighbor_dim5(phi5).is_yes
    rng = random.Random(20240806)
    zeros = 0
    for _ in range(25):
        iso = orthogonal_sum(hyperbolic_plane(K2),
                             random_tame_form(K2, rng, rng.choice([1, 2]),
                                              quasilinear=rng.choice([0, 1])))
        r = chow2_torsion(iso)
        assert (r.kind, r.group) == ("Exactly", "0")
        zeros += 1
    for blocks in (4, 5):
        for ql in (0, 1):
            big = random_tame_form(K2, rng, blocks, quasilinear=ql)
            if big.dim < 9:
                continue
            r = chow2_torsion(big)
            assert (r.kind, r.group) == ("Exactly", "0")
            zeros += 1
    print(f"\nPASS criterion 6: CH^2 = Z/2 on the Pfister form and its "
          f"5-dim neighbor; {zeros} isotropic/high-dim instances all 0")


def test_criterion_7_ch3_order_bound():
    """No input, decided or not, produces a CH^3 torsion order above 2."""
    rng = random.Random(20240807)
    checked = 0
    corpus = _corpus(rng, 40, (2, 3, 4), (0, 1), K2)
    corpus.append(parse_form(K2, "[1,s*t^-2] + [1,1] + s*[1,1]"))  # unknown
    corpus.append(orthogonal_sum(hyperbolic(K2, 2),
                                 parse_form(K2, "[1,1]+s*[1,1]")))
    for phi in corpus:
        if phi.dim < 3:
            continue
        r = chow3_torsion(phi)
        assert r.order <= 2
        checked += 1
    print(f"\nPASS criterion 7: CH^3 order bound held on {checked} reports "
          f"(including undecided ones)")


def test_criterion_8_high_dim_vanishing():
    """Anisotropic corpus forms of dim >= 13 report CH^3 exactly 0; the
    constructed dim-11 instance with certified ind >= 2 reports exactly 0
    by the dim-11 index rule."""
    rng = random.Random(20240808)
    high = 0
    while high < 8:
        phi = random_tame_form(K2, rng, rng.choice([7, 8]),
                               quasilinear=rng.choice([0, 1]))
        if phi.dim < 13:
            continue
        r = chow3_torsion(phi)
        assert (r.kind, r.group) == ("Exactly", "0")
        assert "dim13-elementary" in r.rules
        high += 1
    phi11 = parse_form(K3, "pf(s,t;1) + u*[1,1] + <u*t>")
    assert phi11.dim == 11
    assert decide_isotropy(phi11).is_anisotropic
    res = splitting_index(phi11)
    assert res.ind_low >= 2
    r11 = chow3_torsion(phi11)
    assert (r11.kind, r11.group) == ("Exactly", "0")
    assert "ind-vanishing-dim11" in r11.rules
    print(f"\nPASS criterion 8: {high} forms of dim >= 13 vanish; dim-11 "
          f"instance with ind = {res.ind_low} cites the dim-11 index rule")


def test_criterion_9_split_tables():
    """Split Chow rows for all d <= 12, p <= d, including the middle row
    and the relation h^p = 2 l_(d-p)."""
    rows = 0
    for d in range(1, 13):
        for p in range(0, d + 1):
            row = split_chow_structure(d, p)
            rows += 1
            if 2 * p < d:
                assert row.generators == (f"h^{p}",) and row.relation is None
            elif 2 * p > d:
                assert row.generators == (f"l_{d - p}",)
                assert row.relation == f"h^{p} = 2*l_{d - p}"
            else:
                assert row.middle
                assert row.generators == (f"h^{p}", f"l_{p}")
                assert row.relation == f"l_{p} + l'_{p} = h^{p}"
    print(f"\nPASS criterion 9: {rows} split-table rows match the split "
          f"structure exactly")


BATCH_JOBS = [
    "field F2((t)); form [1,t]; run witt,invariants",
    "field F2((t)); form [1,1]+t*[1,1]; run witt,clifford",
    "field F2((s))((t)); form [1,1]+s*[1,1]+<t>; run chow2,pfister",
    "field F2((s))((t)); form pf(s,t;1); run chow2",
    "field F2((s))((t)); form <1,s,t,s*t>; run witt",
    "field F2((s))((t)); form [0,0]+[1,1]+s*[1,1]; run witt,chow3",
    "field F4((t)); form [1,1]; run witt",
    "field F2((s))((t)); form [1,1]+s*[1,1]+t*[1,1]; run chow2,chow3",
]


def test_criterion_10_cli_determinism(tmp_path):
    """Byte-identical JSON across two runs and across worker counts 1/8,
    equal to the committed golden output (tests/data/batch_golden.json)."""
    batch = tmp_path / "corpus.jobs"
    batch.write_text("\n".join(BATCH_JOBS) + "\n")

    def run(workers):
        proc = subprocess.run(
            [sys.executable, "-m", "qf2.cli", "--batch", str(batch),
             "--json", "--workers", str(workers)],
            env=checkout_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    a = run(1)
    b = run(1)
    c = run(8)
    assert a == b
    assert a == c
    assert a == (Path(__file__).parent / "data" / "batch_golden.json").read_text()
    doc = json.loads(a)
    assert len(doc["jobs"]) == len(BATCH_JOBS)
    print(f"\nPASS criterion 10: {len(BATCH_JOBS)}-job corpus byte-identical "
          f"across reruns, worker counts 1/8 and the golden output")


def test_search_audits_the_anisotropic_verdicts_the_cli_skips():
    """The CLI runs no search on an anisotropic verdict; this keeps the audit
    it gave up: on a freshly parsed copy of each form of the batch corpus
    that the engine calls anisotropic, the search finds no zero."""
    golden = json.loads((Path(__file__).parent / "data" /
                         "batch_golden.json").read_text())
    jobs = {(j["job"]["field"], ft) for j in golden["jobs"]
            for ft in j["job"]["forms"]}
    jobs |= {(job.field_text, ft) for job in map(parse_job, BATCH_JOBS)
             for ft in job.form_texts}
    audited = []
    for field, text in sorted(jobs):
        K = parse_field(field)
        try:
            verdict = decide_isotropy(parse_form(K, text))
        except QF2Error:
            continue
        if verdict.is_anisotropic:
            assert brute_force_search(parse_form(K, text), 6) is None, text
            audited.append(text)
    assert len(audited) == 5, audited
    print(f"\nPASS: the search finds no zero of the {len(audited)} "
          f"anisotropic batch forms")
