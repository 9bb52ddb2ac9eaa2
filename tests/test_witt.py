"""Witt engine: isotropy decisions, decomposition, residues, search oracle."""

import dataclasses
import gc
import json
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qf2 import clifford, forms, pfister, witt
from qf2.clifford import splitting_index
from qf2.errors import (BudgetExceeded, DegreeOverflow, NotNormalizable,
                        QF2Error, SoundnessError, Undecided)
from qf2.fieldtower import (FieldElem, parse_field, quad_extend,
                            render_element, render_json, wp_member)
from qf2.forms import (QuadraticForm, arf, form_fact, hyperbolic,
                       hyperbolic_plane, isometric, orthogonal_sum,
                       parse_form, render_form, scale)
from qf2.witt import (brute_force_search, decide_isotropy, replay_verdict,
                      springer_residues, witt_decompose, witt_index_over_ext)

import witt_oracle
from helpers import (K1, K2, K3, checkout_env, random_elem,
                     random_retamed_form, random_tame_form, run_optimized)

F2 = parse_field("F2")
F4 = parse_field("F4")
F4T = parse_field("F4((t))")


def form(K, text):
    return parse_form(K, text)


# --- decide_isotropy ---------------------------------------------------------

def test_two_scaled_norm_blocks_anisotropic():
    phi = form(K1, "[1,1]+t*[1,1]")
    v = decide_isotropy(phi)
    assert v.is_anisotropic
    # both residues are [1,1] over F2
    cert = v.certificate
    assert cert["kind"] == "residue-split"
    # brute force agrees up to degree 6
    assert brute_force_search(phi, 6, budget=500_000) is None


def test_wp_block_isotropy():
    v = decide_isotropy(form(K1, "[1,t]"))
    assert v.is_isotropic
    assert v.certificate["kind"] == "isotropic-block"
    assert replay_verdict(v)


def test_isotropic_plane_carries_exact_plane():
    phi = form(K1, "[1,1]+<t+1>")
    v = decide_isotropy(phi)
    cert = v.certificate
    assert cert["kind"] == "isotropic-plane"
    x0, y0, w = cert["x"], cert["y"], cert["plane_product"]
    assert all(isinstance(c, FieldElem) for c in x0 + y0 + (w,))
    assert w == witt._plane_product(phi, x0, y0)
    assert not any(k.startswith("_") for k in cert)
    rendered = json.loads(json.dumps(v.to_json()))["certificate"]
    assert rendered == render_json(cert)
    assert rendered["x"] == [render_element(c) for c in x0]
    assert rendered["y"] == [render_element(c) for c in y0]
    assert replay_verdict(v)
    # b(x0, x0) = 0 in characteristic 2: a degenerate plane must not replay
    assert not replay_verdict(
        dataclasses.replace(v, certificate={**cert, "y": x0}))
    assert witt_decompose(phi).witt_index == 1


def test_isotropic_first_residue_is_lifted_past_an_unknown_second():
    # the first residue form [1,1]+[1,1] is isotropic; the second one has a
    # block whose class is wild at s, so it is undecided
    phi = form(K2, "[1,1] + [1,1+t] + t*[1,1/s] + <t>")
    assert decide_isotropy(springer_residues(phi).second).is_unknown
    v = decide_isotropy(phi)
    assert v.is_isotropic and v.certificate["kind"] == "lifted-witness"
    assert phi.evaluate(v.witness).is_zero()
    assert any(not x.is_zero() for x in v.witness)
    assert replay_verdict(v)


def test_replay_decides_a_tampered_verdict_again():
    # the memo of decide_isotropy(v.form) is v itself, so the replay must
    # run the engine, which finds the form isotropic
    v = decide_isotropy(form(K2, "[1,1]+t*[1,1]+<t>"))
    assert v.certificate["kind"] == "lifted-witness"
    for name, value in (("kind", "anisotropic"), ("witness", None),
                        ("certificate", {"kind": "residue-split"})):
        object.__setattr__(v, name, value)
    assert not replay_verdict(v)


# --- the verdict memo ----------------------------------------------------------

def test_verdict_is_reused_while_held():
    phi = form(K1, "[1,1]+t*[1,1]")
    v = decide_isotropy(phi)
    assert decide_isotropy(phi) is v
    twin = form(K1, "[1,1]+t*[1,1]")
    assert twin == phi and twin is not phi
    w = decide_isotropy(twin)
    assert w is not v and w.to_json() == v.to_json()


def test_dropped_verdict_is_freed_and_decided_again(monkeypatch):
    # the verdict lives as long as its form: dropped with the form, it is
    # freed, and an equal form built afresh is decided again
    layouts = []
    residue_layout = witt._residue_layout

    def spy(psi):
        layouts.append(str(psi))    # not psi: the spy must not hold phi
        return residue_layout(psi)
    monkeypatch.setattr(witt, "_residue_layout", spy)
    phi = form(K1, "[1,1]+t*[1,1]")
    v = decide_isotropy(phi)
    ref = weakref.ref(v)
    del v
    assert decide_isotropy(phi) is ref() and layouts == [str(phi)]
    del phi
    gc.collect()
    assert ref() is None
    twin = form(K1, "[1,1]+t*[1,1]")
    assert decide_isotropy(twin).is_anisotropic
    assert layouts == [str(twin)] * 2


def test_memo_keeps_neither_none_nor_errors():
    phi = form(K1, "[1,1]")
    calls = []

    @form_fact
    def nothing(psi):
        calls.append(psi)

    @form_fact
    def failing(psi):
        calls.append(psi)
        raise DegreeOverflow("degree 65 > 64")
    for _ in range(2):
        assert nothing(phi) is None
        with pytest.raises(DegreeOverflow):
            failing(phi)
    assert len(calls) == 4 and phi._facts == {}


@pytest.mark.parametrize("fact, module, worker", [
    (arf, forms, "wp_reduce"),
    (splitting_index, clifford, "witt_decompose"),
    (pfister.neighbor, pfister, "neighbor_dim6"),
    (witt_decompose, witt, "decide_isotropy")])
def test_form_facts_live_as_long_as_their_form(monkeypatch, fact, module,
                                               worker):
    # computed once per form object, even after the value is dropped; form
    # and facts are freed together; an error is raised again on every call
    calls = []
    work = getattr(module, worker)

    def spy(*args):
        calls.append(None)    # not args: the spy must not hold phi
        return work(*args)
    monkeypatch.setattr(module, worker, spy)
    phi = form(K1, "[0,0]+[1,1]+[1,t]")
    value = fact(phi)
    once = len(calls)
    assert once >= 1 and fact(phi) is value and len(calls) == once
    value_ref, form_ref = weakref.ref(value), weakref.ref(phi)
    del value
    assert fact(phi) is value_ref() and len(calls) == once
    del phi
    gc.collect()
    assert form_ref() is None and value_ref() is None
    degenerate = form(K1, "[0,0]+[1,1]+<1,t>")
    for _ in range(2):
        with pytest.raises(QF2Error):
            fact(degenerate)
    assert degenerate._facts == {}


def test_quasilinear_four_independent():
    v = decide_isotropy(form(K2, "<1,s,t,s*t>"))
    assert v.is_anisotropic
    assert v.certificate["kind"] == "ql-independent"


def test_quasilinear_dependent_witness():
    # 1, s, 1+s are F2((s))^2-dependent: 1 + s + (1+s) = 0
    v = decide_isotropy(form(K2, "<1,s,1+s>"))
    assert v.is_isotropic
    assert v.witness is not None
    assert v.form.evaluate(v.witness).is_zero()


def test_finite_solve_value_takes_x_zero():
    for K in (F2, F4, parse_field("F2^3")):
        elems = [FieldElem(K, i) for i in range(1 << K.base_exponent)]
        for a in elems:
            for b in elems[1:]:
                for c in elems:
                    x, y = witt._finite_solve_value(K, a, b, c)
                    assert x.is_zero() and a * x * x + x * y + b * y * y == c


def test_finite_base_rules():
    assert decide_isotropy(form(F2, "[1,1]")).is_anisotropic
    assert decide_isotropy(form(F2, "[1,1]+[1,1]")).is_isotropic
    assert decide_isotropy(form(F2, "<1>")).is_anisotropic
    assert decide_isotropy(form(F2, "<1,1>")).is_isotropic
    assert decide_isotropy(form(F2, "[1,1]+<1>")).is_isotropic  # dim 3
    assert decide_isotropy(form(F4, "[1,1]")).is_isotropic      # Tr_F4(1)=0


def test_soundness_explicit_witnesses():
    rng = random.Random(101)
    for _ in range(60):
        phi = random_tame_form(K2, rng, rng.choice([1, 2, 3]),
                               quasilinear=rng.choice([0, 1]))
        v = decide_isotropy(phi)
        assert not v.is_unknown
        assert replay_verdict(v)
        if v.witness is not None:
            assert phi.evaluate(v.witness).is_zero()
            assert any(not x.is_zero() for x in v.witness)


def test_wild_dim2_summand_decided():
    # wild entries confined to dim <= 2 leaves stay decidable
    phi = form(K3, "[1,1] + t*[1,1+s^-1] + u*[1,s^-1]")
    v = decide_isotropy(phi)
    assert v.is_anisotropic


def test_wild_dim4_unknown():
    # s*t^-2 has a wild class at t: dim-4 forms containing it are out of
    # the complete theory
    phi = form(K2, "[1,s*t^-2] + [1,1]")
    v = decide_isotropy(phi)
    assert v.is_unknown


# --- witt_decompose ----------------------------------------------------------

def test_hyperbolic_stack():
    dec = witt_decompose(hyperbolic(K2, 4))
    assert dec.witt_index == 4 and dec.kernel.dim == 0


def test_f2_dim4_split():
    phi = form(F2, "[1,1]+[1,1]")
    dec = witt_decompose(phi)
    assert dec.witt_index == 2 and dec.kernel.dim == 0
    # cross-check: Arf vanishes and dim-4 nonsingular over F2 must split
    assert arf(phi).is_zero()


def test_albert_with_index_one():
    phi = form(K1, "[0,0]+[1,1]+t*[1,1]")
    dec = witt_decompose(phi)
    assert dec.witt_index == 1
    assert dec.kernel.dim == 4
    assert decide_isotropy(dec.kernel).is_anisotropic


def test_witt_kernel_anisotropic_and_dims():
    rng = random.Random(103)
    for _ in range(40):
        phi = random_tame_form(K2, rng, rng.choice([2, 3]),
                               quasilinear=rng.choice([0, 1]))
        dec = witt_decompose(phi)
        assert dec.kernel.dim + 2 * dec.witt_index == phi.dim
        assert decide_isotropy(dec.kernel).is_anisotropic


def test_q_plus_q_hyperbolic_property():
    rng = random.Random(107)
    for _ in range(50):
        q = random_tame_form(K2, rng, rng.choice([1, 2, 3]))
        dec = witt_decompose(orthogonal_sum(q, q))
        assert dec.witt_index == q.dim
        assert dec.kernel.dim == 0


def test_witt_cancellation():
    rng = random.Random(109)
    hits = 0
    for _ in range(30):
        phi = random_tame_form(K2, rng, 2)
        # build an isometric copy: permute blocks and square-scale
        blocks = list(phi.blocks)
        rng.shuffle(blocks)
        psi = QuadraticForm(K2, tuple(blocks))
        from qf2.forms import square_scale_block
        for i in range(len(psi.blocks)):
            if rng.random() < 0.5:
                psi = square_scale_block(psi, i, K2.var("t"))
        big_phi = orthogonal_sum(phi, hyperbolic_plane(K2))
        big_psi = orthogonal_sum(psi, hyperbolic_plane(K2))
        if isometric(big_phi, big_psi):
            hits += 1
            assert isometric(phi, psi)
    assert hits >= 25  # the construction makes them isometric


# --- retamed blocks -------------------------------------------------------------
# [1, t^-2+t^-1+1] has product class [1] (z = t^-1 leaves the unit 1), so
# normalization retames it by a rational shear and its vectors map back.

def _assert_exact_isotropy(phi, v):
    # an explicit witness, a rational plane or an isotropic block of phi
    assert v.is_isotropic
    if v.witness is not None:
        assert phi.evaluate(v.witness).is_zero()
        assert any(not x.is_zero() for x in v.witness)
    elif v.certificate["kind"] == "isotropic-plane":
        x0, y0 = v.certificate["x"], v.certificate["y"]
        assert wp_member(witt._plane_product(phi, x0, y0))
    else:
        a, b = phi.blocks[v.certificate["block"]]
        assert wp_member(a * b)
    assert replay_verdict(v)


@pytest.mark.parametrize("text, index", [
    ("[1,t^-2+t^-1+1]+[1,1]", 2),
    ("[1,t^-2+t^-1+1]+[1,t^-4+t^-2+1]", 2),
    ("[1,t^-2+t^-1+1]+<1>", 1),
])
def test_retamed_block_splits_rationally(text, index):
    phi = form(K1, text)
    _assert_exact_isotropy(phi, decide_isotropy(phi))
    assert witt_decompose(phi).witt_index == index
    assert splitting_index(phi).resolved


def test_retamed_block_with_anisotropic_partner():
    phi = form(K1, "[1,t^-2+t^-1+1]+[t,t^-1+1]")
    v = decide_isotropy(phi)
    assert v.is_anisotropic
    assert v.certificate["tamed"] is True
    assert witt_decompose(phi).witt_index == 0


def test_retamed_corpus(monkeypatch):
    # the evidence of every isotropic verdict is in the form's own
    # coordinates, so every decomposition splits rationally
    rng = random.Random(14)
    verdicts = []
    for K in (K1, K2):
        for _ in range(40):
            phi = random_retamed_form(K, rng)
            v = decide_isotropy(phi)
            assert "residue-isotropy" not in json.dumps(v.to_json())
            verdicts.append(v)
            if brute_force_search(phi, 4) is not None:
                assert v.is_isotropic, render_form(phi)
            # no Undecided at all, so none that holds only over the completion
            index = witt_decompose(phi).witt_index
            assert v.is_isotropic == (index >= 1), render_form(phi)
    assert sum(v.is_isotropic for v in verdicts) >= 40

    def no_engine(phi):
        raise AssertionError("replay re-ran decide_isotropy")

    monkeypatch.setattr(witt, "decide_isotropy", no_engine)
    for v in verdicts:
        if v.is_isotropic:
            _assert_exact_isotropy(v.form, v)


# --- springer residues --------------------------------------------------------

def test_residues_already_split():
    pair = springer_residues(form(K2, "[1,1]+t*[s,1]"))
    assert render_form(pair.first) == "[1,1]"
    assert render_form(pair.second) == "[s,1]"


def test_residue_dimension_law():
    rng = random.Random(113)
    for _ in range(60):
        phi = random_tame_form(K2, rng, rng.choice([1, 2, 3]))
        if not decide_isotropy(phi).is_anisotropic:
            continue
        pair = springer_residues(phi)
        assert pair.first.dim + pair.second.dim == phi.dim


def test_straddling_block_residues():
    pair = springer_residues(form(K2, "[t,s]"))
    assert pair.first.dim + pair.second.dim == 2
    assert len(pair.first.quasilinear) == 1
    assert len(pair.second.quasilinear) == 1
    assert any(tr.get("shape") == "straddle" for tr in pair.trace)


def test_hyperbolic_block_residues():
    pair = springer_residues(form(K2, "[0,0]+[1,1]+t*[s,1]"))
    assert render_form(pair.first) == "[0,0] + [1,1]"
    assert render_form(pair.second) == "[s,1]"
    assert pair.trace == (
        {"block": 0, "shape": "hyperbolic"},
        {"block": 1, "side": 0, "m": 0, "tamed": False, "a": "1", "b": "1"},
        {"block": 2, "side": 1, "m": 0, "tamed": False, "a": "s*t",
         "b": "1/t"})


def test_wild_block_not_normalizable():
    phi = form(K2, "[1, s*t^-2]")
    with pytest.raises(NotNormalizable):
        springer_residues(phi)
    # but the dim-2 decision is still exact: s*t^-2 has nonzero wp class
    assert decide_isotropy(phi).is_anisotropic


def test_residues_of_anisotropic_are_anisotropic():
    rng = random.Random(127)
    for _ in range(30):
        phi = random_tame_form(K2, rng, 2)
        v = decide_isotropy(phi)
        if not v.is_anisotropic:
            continue
        pair = springer_residues(phi)
        assert decide_isotropy(pair.first).is_anisotropic
        assert decide_isotropy(pair.second).is_anisotropic


# --- the split step -------------------------------------------------------------

def _random_vector(K, rng, n):
    """Entries zero, one, the top variable or a random fraction."""
    pool = [K.zero(), K.one()] + ([K.var(K.top_variable)] if K.level else [])
    return [rng.choice(pool + [random_elem(K, rng, deg=1)]) for _ in range(n)]


def _plane_vectors(phi, rng):
    """(v, u) with B(v, u) = 1 and u random, mostly not a unit vector.  Some
    block columns (u[p^1], v[p^1]) are made multiples of the last one, so
    that pivots lie between the complement's two free columns."""
    n = phi.dim
    nb2 = 2 * len(phi.blocks)
    while True:
        v, u = _random_vector(phi.field, rng, n), _random_vector(phi.field,
                                                                 rng, n)
        last = nb2 - 1 - rng.randrange(2)
        for p in range(last):
            if rng.random() < 0.3:
                lam = random_elem(phi.field, rng, deg=1)
                u[p ^ 1], v[p ^ 1] = lam * u[last ^ 1], lam * v[last ^ 1]
        b = phi.polar(v, u)
        if not b.is_zero():
            return v, [x / b for x in u]


def _split_cases():
    """(phi, v, u): explicit splits of engine witnesses (u = e_j / v[j^1]),
    then planes with u not a unit vector, over odd dimensions and
    hyperbolic blocks too."""
    rng = random.Random(149)
    cases = []
    for K in (F2, F4, K1, parse_field("F4((t))"), K2):
        for n in range(3, 11):
            phi = random_tame_form(K, rng, n // 2, quasilinear=n % 2)
            if rng.random() < 0.4:
                z = K.zero()
                phi = orthogonal_sum(QuadraticForm(K, ((z, z),)), phi)
            for _ in range(2):
                cases.append((phi, *_plane_vectors(phi, rng)))
            witness = decide_isotropy(phi).witness
            if witness is not None:
                j = next(j for j in range(2 * len(phi.blocks))
                         if not witness[j ^ 1].is_zero())
                u = [K.zero()] * phi.dim
                u[j] = witness[j ^ 1].inverse()
                cases.append((phi, list(witness), u))
    return cases


def test_complement_matches_elimination_oracle():
    kinds = set()
    compared = 0
    for phi, v, u in _split_cases():
        try:
            want = witt_oracle._complement(phi, v, u)
        except DegreeOverflow:
            continue
        compared += 1
        # where elimination returns, the closed form returns the same
        assert witt._complement(phi, v, u).to_json() == want.to_json(), \
            (phi, v, u)
        # the rows are the unique RREF basis of the complement: n - 2 rows
        # orthogonal to u and v, each leading with 1 at its own pivot, with
        # zeros at the other pivots
        rows = witt._complement_rows(phi, v, u)
        n, zero = phi.dim, phi.field.zero()
        dense = [[r.get(m, zero) for m in range(n)] for r in rows]
        pivots = [min(r) for r in rows]
        assert len(rows) == n - 2 and pivots == sorted(set(pivots))
        for r, row in zip(rows, dense):
            assert all(not x.is_zero() for x in r.values())
            assert r[min(r)] == phi.field.one()
            assert all(p == min(r) or row[p].is_zero() for p in pivots)
            assert phi.polar(row, u).is_zero() and phi.polar(row, v).is_zero()
        free = sorted(set(range(n)) - set(pivots))
        kinds.add((phi.dim % 2, any(free[0] < p < free[1] for p in pivots),
                   sum(not x.is_zero() for x in u) > 1))
    # 104 of the 110 cases do not overflow; odd and even dimensions, pivots
    # between the free columns, and u inside and outside the unit vectors
    # all occur
    assert compared == 104
    assert kinds >= {(0, True, True), (1, True, True), (0, False, False),
                     (1, False, False)}


def test_split_plane_off_a_unit_polar_value():
    # b(x0, y0) = t: the split is the oracle's complement for u = y0 / t
    # (the complement depends on span(x0, y0) only, so no scaling of u
    # shows in it)
    phi = form(K1, "[1,1]+t*[1,1]+[0,0]+<t>")
    t, z, one = K1.var("t"), K1.zero(), K1.one()
    x0, y0 = (t, z, z, z, one, z, one), (z, one, z, one, t, z, z)
    b = phi.polar(list(x0), list(y0))
    assert b == t
    planes = []
    got = witt._split_plane(phi, x0, y0, planes)
    want = witt_oracle._complement(phi, list(x0), [y / b for y in y0])
    assert got.to_json() == want.to_json()
    assert planes == [{"kind": "plane", "x": x0, "y": y0}]
    assert render_json(planes) == [{"kind": "plane",
                                    "x": [render_element(c) for c in x0],
                                    "y": [render_element(c) for c in y0]}]


def test_complement_of_a_degenerate_span_raises():
    phi = form(K1, "[1,1]+t*[1,1]+<t>")
    v = [K1.one(), K1.var("t"), K1.zero(), K1.one(), K1.one()]
    for u in (v, [K1.zero()] * 5):
        with pytest.raises(SoundnessError):
            witt._complement(phi, v, u)
        with pytest.raises(SoundnessError):
            witt_oracle._complement(phi, v, u)


FORGED_COMPLEMENT = """
import sys
from qf2 import witt
from qf2.errors import SoundnessError
from qf2.fieldtower import parse_field
from qf2.forms import parse_form
if not sys.flags.optimize:
    sys.exit(2)
K = parse_field("F2((t))")
phi = parse_form(K, "[1,1]+t*[1,1]+<t>")
v = [K.one(), K.var("t"), K.zero(), K.one(), K.one()]
try:
    witt._complement(phi, v, v)
except SoundnessError:
    sys.exit(3)
sys.exit(1)
"""


def test_forged_complement_raises_under_O():
    # span(v, v) is a line: its columns have rank 1, and no RREF basis of
    # dimension n - 2 exists
    proc = run_optimized(FORGED_COMPLEMENT)
    assert proc.returncode == 3, proc.stderr


def _count_field_ops(monkeypatch):
    """Count FieldElem operator calls from here on; returns the counter."""
    calls = [0]
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "inverse",
                 "__pow__"):
        op = getattr(FieldElem, name)

        def counted(*args, _op=op):
            calls[0] += 1
            return _op(*args)
        monkeypatch.setattr(FieldElem, name, counted)
    return calls


def test_split_step_op_count(monkeypatch):
    # a dim-12 level-2 double q + q splits into six planes; with the
    # complement taken by dense elimination, witt_decompose made 9141
    # FieldElem operator calls on it
    q = random_tame_form(K2, random.Random(151), 3)
    phi = orthogonal_sum(q, q)
    calls = _count_field_ops(monkeypatch)
    dec = witt_decompose(phi)
    assert (dec.witt_index, phi.dim) == (6, 12)
    assert calls[0] <= 9141 // 2, calls[0]


# --- brute force oracle ---------------------------------------------------------

def test_search_hyperbolic():
    wit = brute_force_search(hyperbolic_plane(K1), 2)
    assert wit is not None
    assert hyperbolic_plane(K1).evaluate(wit).is_zero()


def test_search_one_sided_on_wp_block():
    # [1,t]: isotropic, but the Hensel root is not a polynomial; the search
    # legitimately returns nothing
    assert brute_force_search(form(K1, "[1,t]"), 4) is None


def test_search_budget():
    phi = form(K2, "[1,1]+s*[1,1]+t*[1,1]")
    with pytest.raises(BudgetExceeded):
        brute_force_search(phi, 6, budget=100)


def test_search_budget_is_checked_before_the_pool_is_built():
    # over F2^24((t)) the pool would hold p = 1 + 4 * (2^24 - 1) entries and
    # the block costs p^2 nodes; the budget test must come before the pool,
    # here under a 1 GB address-space limit
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from qf2.cli import main; "
            "sys.exit(main(['--field', 'F2^24((t))', '--form', '[1,1]', "
            "'--run', 'witt', '--json']))")
    proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    witt = json.loads(proc.stdout)["forms"][0]["witt"]
    p = 1 + 4 * ((1 << 24) - 1)
    assert witt["search_budget_exhausted"] == f"{p * p + 1} nodes"
    assert witt["search_witness"] is None


def test_search_agrees_with_engine():
    rng = random.Random(131)
    for _ in range(40):
        phi = random_tame_form(K1, rng, rng.choice([1, 2]),
                               quasilinear=rng.choice([0, 1]))
        v = decide_isotropy(phi)
        try:
            wit = brute_force_search(phi, 4, budget=300_000)
        except BudgetExceeded:
            continue
        if wit is not None:
            assert v.is_isotropic
            assert phi.evaluate(wit).is_zero()


def test_search_deterministic():
    phi = form(K2, "[0,0]+[1,1]")
    w1 = brute_force_search(phi, 3)
    w2 = brute_force_search(phi, 3)
    assert w1 == w2


def test_search_matches_golden_witnesses():
    # tests/data/oracle_witnesses.json was recorded with the search that did
    # fraction arithmetic on every node; the packed search must return the
    # same witness, None or budget message on every form
    doc = json.loads((Path(__file__).parent / "data" /
                      "oracle_witnesses.json").read_text())
    for entry in doc["entries"]:
        phi = form(parse_field(entry["field"]), entry["form"])
        try:
            wit = brute_force_search(phi, doc["degree_bound"],
                                     budget=entry["budget"])
        except BudgetExceeded as exc:
            got = {"budget_exceeded": str(exc)}
        else:
            got = [render_element(x) for x in wit] if wit else None
        assert got == entry["result"], entry["form"]
    # the corpus exercises all three outcomes
    kinds = [type(e["result"]).__name__ for e in doc["entries"]]
    assert (kinds.count("list"), kinds.count("dict"), len(kinds)) == \
        (131, 36, 420)


def test_least_match_agrees_with_the_full_enumeration():
    # small value ranges force repeats, zeros past key 0 and misses; the
    # left side comes in runs of random lengths, as the search walks it
    rng = random.Random(1729)
    hits = 0
    for _ in range(3000):
        left = [0] + [rng.randrange(5) for _ in range(rng.randrange(12))]
        right = [0] + [rng.randrange(5) for _ in range(rng.randrange(12))]
        cuts = sorted(rng.sample(range(1, len(left)),
                                 rng.randrange(len(left))))
        runs = [left[a:b] for a, b in zip([0] + cuts, cuts + [len(left)])]
        want = witt_oracle.first_dict_match(left, right)
        assert witt._least_match(iter(runs), right) == want, (left, right)
        hits += want is not None
    assert 0 < hits < 3000


def test_search_agrees_with_the_full_enumeration_match(monkeypatch):
    # every match the search makes on forms of 1-4 blocks with quasilinear
    # entries, over F2((t)), F2((s))((t)) and F4((t)), is checked against
    # the reference; small budgets give BudgetExceeded cases
    least_match = witt._least_match
    checked = []

    def both(runs, right):
        runs = [list(run) for run in runs]
        want = witt_oracle.first_dict_match(
            [v for run in runs for v in run], right)
        assert least_match(iter(runs), right) == want
        checked.append(want)
        return want
    monkeypatch.setattr(witt, "_least_match", both)
    rng = random.Random(311)
    outcomes = dict.fromkeys(("found", "none", "budget"), 0)
    nested = 0
    for _ in range(200):
        phi = random_tame_form(rng.choice([K1, K2, F4T]), rng,
                               rng.choice([1, 2, 3, 4]),
                               quasilinear=rng.choice([0, 1, 2]))
        bound = rng.choice([2, 3, 4])
        budget = rng.choice([2_000, 50_000])
        try:
            sides = witt._search_plan(phi, bound, budget)[2]
            wit = brute_force_search(phi, bound, budget=budget)
        except BudgetExceeded:
            outcomes["budget"] += 1
            continue
        nested += max(map(len, sides)) > 1
        outcomes["found" if wit else "none"] += 1
    assert len(checked) == outcomes["found"] + outcomes["none"]
    assert min(outcomes.values()) >= 10 and nested >= 100, (outcomes, nested)


class _NoFacts(dict):
    """A form memo that refuses every read and write."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the search touched the form's memo")

    get = setdefault = __getitem__ = __setitem__ = __contains__ = _refuse


def test_search_is_engine_free(monkeypatch):
    # the CLI decides a form before it searches it, and the acceptance audit
    # compares the two, so the search must read neither the engine nor the
    # form's memo
    def refuse(*args, **kwargs):
        raise AssertionError("the search called the engine")
    phi = form(K2, "[0,0]+[1,1]+s*[1,1]")
    object.__setattr__(phi, "_facts", _NoFacts())
    for name in ("decide_isotropy", "witt_decompose"):
        monkeypatch.setattr(witt, name, refuse)
    monkeypatch.setattr(forms, "form_fact", refuse)
    wit = brute_force_search(phi, 6)
    assert [render_element(x) for x in wit] == ["0", "1", "0", "0", "0", "0"]


FORGED_SEARCH = """
import sys
from qf2 import witt
from qf2.errors import SoundnessError
from qf2.fieldtower import parse_field
from qf2.forms import parse_form
if not sys.flags.optimize:
    sys.exit(2)
witt._pack = lambda *args: 0
try:
    witt.brute_force_search(parse_form(parse_field("F2((t))"),
                                       "[1,1]+t*[1,1]"), 4)
except SoundnessError:
    sys.exit(3)
sys.exit(1)
"""


def test_search_forged_collision_raises(monkeypatch):
    # every packed value equal: the search "finds" a witness of an
    # anisotropic form, and its own check must refuse it
    monkeypatch.setattr(witt, "_pack", lambda *args: 0)
    with pytest.raises(SoundnessError):
        brute_force_search(form(K1, "[1,1]+t*[1,1]"), 4)


def test_search_forged_collision_raises_under_O():
    proc = run_optimized(FORGED_SEARCH)
    assert proc.returncode == 3, proc.stderr


FORGED_WITNESS = """
import sys
from qf2 import witt
from qf2.errors import SoundnessError
from qf2.fieldtower import parse_field
from qf2.forms import parse_form
if not sys.flags.optimize:
    sys.exit(2)
K = parse_field("F2((t))")
phi = parse_form(K, "[1,1]+t*[1,1]")
try:
    witt._isotropic_explicit(phi, (K.one(), K.zero(), K.zero(), K.zero()),
                             {"kind": "forged"})
except SoundnessError:
    sys.exit(3)
sys.exit(1)
"""


def test_explicit_witness_forged_raises():
    # (1, 0, 0, 0) is nonzero and phi takes the value 1 on it
    phi = form(K1, "[1,1]+t*[1,1]")
    z, one = K1.zero(), K1.one()
    with pytest.raises(SoundnessError):
        witt._isotropic_explicit(phi, (one, z, z, z), {"kind": "forged"})
    with pytest.raises(SoundnessError):
        witt._isotropic_explicit(phi, (z, z, z, z), {"kind": "forged"})


def test_explicit_witness_forged_raises_under_O():
    proc = run_optimized(FORGED_WITNESS)
    assert proc.returncode == 3, proc.stderr


# --- witt index over extensions --------------------------------------------------

def test_ext_split_identity():
    phi = hyperbolic(K1, 2)
    ext = quad_extend(K1, K1.var("t"))
    assert ext.kind == "split"
    assert witt_index_over_ext(phi, ext) == 2


def test_ext_kills_unit_norm_form():
    # [1,1] becomes isotropic over the F4-extended tower: T^2+T+1 has roots
    phi = form(K1, "[1,1]")
    ext = quad_extend(K1, K1.one())
    assert ext.kind == "field"
    assert witt_index_over_ext(phi, ext) == 1
    # independent check: x^2 + x + 1 splits over F4
    gf4 = parse_field("F4")
    roots = [x for x in range(4)
             if (gf4.from_base(x) * gf4.from_base(x) + gf4.from_base(x)
                 + gf4.one()).is_zero()]
    assert len(roots) == 2


def test_ext_pfister_splits_fully():
    phi = form(K1, "[1,1]+t*[1,1]")
    ext = quad_extend(K1, K1.one())
    assert witt_index_over_ext(phi, ext) == 2


def test_ext_ramified_undecided():
    phi = form(K1, "[1,1]")
    ext = quad_extend(K1, K1.var("t") ** -1)
    with pytest.raises(Undecided):
        witt_index_over_ext(phi, ext)


# --- global property: i_W <= s bound is exercised in test_clifford ------------


@given(st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_isotropy_verdicts_replay(seed):
    rng = random.Random(seed)
    phi = random_tame_form(K2, rng, rng.choice([1, 2]),
                           quasilinear=rng.choice([0, 1]))
    v = decide_isotropy(phi)
    assert replay_verdict(v)


def test_no_anisotropic_dim10_kernel_in_i3():
    # sums of two 3-fold Pfister forms lie in I^3; their anisotropic
    # kernels can never have dimension 10
    rng = random.Random(137)
    from qf2.pfister import PfisterSpec, make_pfister
    from helpers import random_unit
    for _ in range(8):
        p1 = make_pfister(PfisterSpec(
            K2, (K2.var("s"), K2.var("t")), random_unit(K2, rng)))
        p2 = make_pfister(PfisterSpec(
            K2, (K2.var("s"), K2.var("t")), random_unit(K2, rng)))
        big = orthogonal_sum(p1, p2)
        dec = witt_decompose(big)
        assert arf(big).is_zero()
        assert dec.kernel.dim != 10


# --- pinned decompositions -----------------------------------------------------

def _pinned_form(doc):
    K = parse_field(doc["field"])
    return QuadraticForm(K, tuple((K.element(a), K.element(b))
                                  for a, b in doc["blocks"]),
                         tuple(K.element(c) for c in doc["quasilinear"]))


def test_witt_pinned():
    # tests/data/witt_pinned.json (make_witt_pinned.py) was recorded with
    # the complement taken by dense elimination; every decomposition, plane
    # and error message must repeat
    entries = json.loads((Path(__file__).parent / "data" /
                          "witt_pinned.json").read_text())
    outcomes = {"ok": 0, "Undecided": 0}
    kinds = {"block": 0, "explicit": 0, "plane": 0}
    for e in entries:
        phi = _pinned_form(e["form"])
        assert phi.to_json() == e["form"]
        try:
            dec = witt_decompose(phi)
        except Undecided as exc:
            assert (e.get("error"), e.get("message")) == \
                ("Undecided", str(exc)), e["form"]
            outcomes["Undecided"] += 1
            continue
        assert dec.to_json() == e.get("decomposition"), e["form"]
        outcomes["ok"] += 1
        for plane in dec.planes:
            kinds[plane["kind"]] += 1
    assert outcomes == {"ok": 135, "Undecided": 26}
    assert kinds == {"block": 63, "explicit": 239, "plane": 42}
