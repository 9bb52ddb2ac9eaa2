"""Chow oracle: split tables, CH^2/CH^3 torsion reports, reduction."""

import json
import random
from pathlib import Path

import pytest

from qf2 import chow, forms, pfister
from qf2.errors import RangeViolation
from qf2.fieldtower import parse_field
from qf2.forms import (QuadraticForm, hyperbolic, hyperbolic_plane,
                       orthogonal_sum, parse_form)
from qf2.chow import (anisotropic_image_row, chow2_torsion, chow3_torsion,
                      isotropic_reduce, split_chow_structure)
from qf2.clifford import SplittingIndexResult
from qf2.witt import IsotropyVerdict, decide_isotropy

from helpers import K1, K2, K3, random_tame_form, run_optimized

F2 = parse_field("F2")


def form(K, text):
    return parse_form(K, text)


# --- split tables -----------------------------------------------------------

def test_split_rows_d3():
    row = split_chow_structure(3, 2)
    assert row.generators == ("l_1",)
    assert row.relation == "h^2 = 2*l_1"
    assert not row.middle


def test_split_rows_middle():
    row = split_chow_structure(4, 2)
    assert row.generators == ("h^2", "l_2")
    assert row.middle
    assert row.relation == "l_2 + l'_2 = h^2"


def test_split_rows_below_middle():
    row = split_chow_structure(6, 2)
    assert row.generators == ("h^2",) and row.relation is None


def test_split_full_range():
    for d in range(1, 13):
        for p in range(0, d + 1):
            row = split_chow_structure(d, p)
            if 2 * p < d:
                assert row.generators == (f"h^{p}",)
            elif 2 * p > d:
                assert row.generators == (f"l_{d.__sub__(p)}",)
                assert row.relation == f"h^{p} = 2*l_{d - p}"
            else:
                assert row.middle and len(row.generators) == 2
    with pytest.raises(RangeViolation):
        split_chow_structure(4, 5)


def test_albert_image_row():
    img = anisotropic_image_row(4, 2, arf_zero=True)
    assert img["r"] == 2
    assert img["image"] == "Z.h^2 + Z.2^r*l_2"
    img8 = anisotropic_image_row(8, 4, arf_zero=True)
    assert img8["r"] is None


# --- chow2 --------------------------------------------------------------------

def test_chow2_pfister_form():
    r = chow2_torsion(form(K2, "pf(s,t;1)"))
    assert (r.kind, r.group) == ("Exactly", "Z/2")


def test_chow2_dim5_neighbor():
    r = chow2_torsion(form(K2, "[1,1]+s*[1,1]+<t>"))
    assert (r.kind, r.group) == ("Exactly", "Z/2")
    assert "anisotropy" in r.certificates


def test_chow2_isotropic_always_zero():
    rng = random.Random(31)
    for _ in range(10):
        phi = orthogonal_sum(hyperbolic_plane(K2),
                             random_tame_form(K2, rng, rng.choice([1, 2])))
        r = chow2_torsion(phi)
        assert (r.kind, r.group) == ("Exactly", "0")


def test_chow2_dim_bound():
    rng = random.Random(37)
    phi = random_tame_form(K2, rng, 4, quasilinear=1)   # dim 9
    r = chow2_torsion(phi)
    assert (r.kind, r.group) == ("Exactly", "0")
    assert "pn-dimension-bound" in r.rules


def test_chow2_albert_dim6():
    qa = form(K3, "[1,1] + t*[1,1+s^-1] + u*[1,s^-1]")
    r = chow2_torsion(qa)
    assert (r.kind, r.group) == ("Exactly", "0")
    assert r.elementary is False
    assert r.image is not None and r.image.get("r") == 2


def test_chow2_dim5_division_zero():
    r = chow2_torsion(form(K3, "[1,1]+t*[1,1+s^-1]+<u>"))
    assert (r.kind, r.group) == ("Exactly", "0")


def test_chow2_low_dims():
    assert chow2_torsion(form(K1, "[1,1]+<t>")).group == "0"
    assert chow2_torsion(form(K1, "[1,1]+t*[1,1]")).group == "0"


def test_chow2_unknown_degrades_to_bound():
    phi = form(K2, "[1,s*t^-2] + [1,1] + s*[1,1]")  # dim 6 with a wild block
    assert decide_isotropy(phi).is_unknown
    r = chow2_torsion(phi)
    assert r.kind == "AtMost" and r.order == 2
    assert r.assumptions


# --- chow3 --------------------------------------------------------------------

def test_chow3_very_low_dims():
    assert chow3_torsion(form(K1, "[1,1]+<t>")).rules == \
        ("codim-exceeds-dim",)
    assert chow3_torsion(form(K2, "[1,1]+s*[1,1]+<t>")).rules == \
        ("top-codim-torsion-free",)


def test_chow3_dim13_and_up():
    rng = random.Random(41)
    phi = random_tame_form(K2, rng, 7)     # dim 14
    r = chow3_torsion(phi)
    assert (r.kind, r.group) == ("Exactly", "0")
    assert r.elementary is True
    assert "dim13-elementary" in r.rules


def test_chow3_dim6_cases():
    # s = 2 (Pfister neighbor): torsion Z/2
    r = chow3_torsion(form(K2, "[1,1]+s*[1,1]+t*[1,1]"))
    assert (r.kind, r.group) == ("Exactly", "Z/2")
    assert "dim6-s2" in r.rules
    # Albert: torsion free
    qa = form(K3, "[1,1] + t*[1,1+s^-1] + u*[1,s^-1]")
    r2 = chow3_torsion(qa)
    assert (r2.kind, r2.group) == ("Exactly", "0")


def test_chow3_isotropic_reduces_to_chow2():
    psi = form(K2, "[1,1]+s*[1,1]+t*[1,1]")
    phi = orthogonal_sum(hyperbolic_plane(K2), psi)
    r3 = chow3_torsion(phi)
    r2 = chow2_torsion(psi)
    assert (r3.kind, r3.group, r3.order) == (r2.kind, r2.group, r2.order)
    assert "isotropic-reduction" in r3.rules


def test_chow3_dim11_index_rule():
    phi = form(K3, "pf(s,t;1) + u*[1,1] + <u*t>")
    r = chow3_torsion(phi)
    assert (r.kind, r.group) == ("Exactly", "0")
    assert "ind-vanishing-dim11" in r.rules


# chow3 rules at dimensions 9-12 that no pinned file reaches, one form
# each over F2((s))((t))((u)) with its whole report as compact JSON, so the
# rendering of its certificates is pinned too.  No form in a 30-s seeded
# search fired ind-vanishing-dim9 or dim10-norm-decomposition.
CHOW3_DIM9_12 = [
    ("pf(s,t;1) + u*[1,1]", "hyperbolic-over-disc",
     '{"schema_version": "1", "codim": 3, "dim": 10, "torsion": {"kind": '
     '"Exactly", "order": 1, "group": "0"}, "elementary": true, "image": '
     'null, "rules": ["hyperbolic-over-disc"], "assumptions": [], '
     '"certificates": {"anisotropy": {"kind": "anisotropic", "form": '
     '{"field": "F2((s))((t))((u))", "blocks": [["1", "1"], ["t", "1/t"], '
     '["s", "1/s"], ["s*t", "(1/s)/t"], ["u", "1/u"]], "quasilinear": '
     '[]}, "certificate": {"kind": "residue-split", "variable": "u", '
     '"tamed": false, "first": {"kind": "anisotropic", "form": {"field": '
     '"F2((s))((t))", "blocks": [["1", "1"], ["t", "1/t"], ["s", "1/s"], '
     '["s*t", "(1/s)/t"]], "quasilinear": []}, "certificate": {"kind": '
     '"residue-split", "variable": "t", "tamed": false, "first": {"kind": '
     '"anisotropic", "form": {"field": "F2((s))", "blocks": [["1", "1"], '
     '["s", "1/s"]], "quasilinear": []}, "certificate": {"kind": '
     '"residue-split", "variable": "s", "tamed": false, "first": {"kind": '
     '"anisotropic", "form": {"field": "F2", "blocks": [["1", "1"]], '
     '"quasilinear": []}, "certificate": {"kind": "finite", "dim": 2, '
     '"detail": "trace criterion"}}, "second": {"kind": "anisotropic", '
     '"form": {"field": "F2", "blocks": [["1", "1"]], "quasilinear": []}, '
     '"certificate": {"kind": "finite", "dim": 2, "detail": "trace '
     'criterion"}}}}, "second": {"kind": "anisotropic", "form": {"field": '
     '"F2((s))", "blocks": [["1", "1"], ["s", "1/s"]], "quasilinear": '
     '[]}, "certificate": {"kind": "residue-split", "variable": "s", '
     '"tamed": false, "first": {"kind": "anisotropic", "form": {"field": '
     '"F2", "blocks": [["1", "1"]], "quasilinear": []}, "certificate": '
     '{"kind": "finite", "dim": 2, "detail": "trace criterion"}}, '
     '"second": {"kind": "anisotropic", "form": {"field": "F2", "blocks": '
     '[["1", "1"]], "quasilinear": []}, "certificate": {"kind": "finite", '
     '"dim": 2, "detail": "trace criterion"}}}}}}, "second": {"kind": '
     '"anisotropic", "form": {"field": "F2((s))((t))", "blocks": [["1", '
     '"1"]], "quasilinear": []}, "certificate": {"kind": "binary-wp", '
     '"class": {"wild": [], "constant": {"wild": [], "constant": {"bit": '
     '1}}}}}}}, "splitting_index": {"dim": 10, "s": 4, "index_interval": '
     '[1, 1], "rule": "symbols"}}}'),
    ("[1,1]+s*[1,1]+t*[1,1]+u*[1,1]+<s*t*u>", "dim9-even-part-i2q",
     '{"schema_version": "1", "codim": 3, "dim": 9, "torsion": {"kind": '
     '"Exactly", "order": 1, "group": "0"}, "elementary": true, "image": '
     'null, "rules": ["dim9-even-part-i2q"], "assumptions": [], '
     '"certificates": {"anisotropy": {"kind": "anisotropic", "form": '
     '{"field": "F2((s))((t))((u))", "blocks": [["1", "1"], ["s", "1/s"], '
     '["t", "1/t"], ["u", "1/u"]], "quasilinear": ["s*t*u"]}, '
     '"certificate": {"kind": "residue-split", "variable": "u", "tamed": '
     'false, "first": {"kind": "anisotropic", "form": {"field": '
     '"F2((s))((t))", "blocks": [["1", "1"], ["s", "1/s"], ["t", "1/t"]], '
     '"quasilinear": []}, "certificate": {"kind": "residue-split", '
     '"variable": "t", "tamed": false, "first": {"kind": "anisotropic", '
     '"form": {"field": "F2((s))", "blocks": [["1", "1"], ["s", "1/s"]], '
     '"quasilinear": []}, "certificate": {"kind": "residue-split", '
     '"variable": "s", "tamed": false, "first": {"kind": "anisotropic", '
     '"form": {"field": "F2", "blocks": [["1", "1"]], "quasilinear": []}, '
     '"certificate": {"kind": "finite", "dim": 2, "detail": "trace '
     'criterion"}}, "second": {"kind": "anisotropic", "form": {"field": '
     '"F2", "blocks": [["1", "1"]], "quasilinear": []}, "certificate": '
     '{"kind": "finite", "dim": 2, "detail": "trace criterion"}}}}, '
     '"second": {"kind": "anisotropic", "form": {"field": "F2((s))", '
     '"blocks": [["1", "1"]], "quasilinear": []}, "certificate": {"kind": '
     '"binary-wp", "class": {"wild": [], "constant": {"bit": 1}}}}}}, '
     '"second": {"kind": "anisotropic", "form": {"field": "F2((s))((t))", '
     '"blocks": [["1", "1"]], "quasilinear": ["s*t"]}, "certificate": '
     '{"kind": "residue-split", "variable": "t", "tamed": false, "first": '
     '{"kind": "anisotropic", "form": {"field": "F2((s))", "blocks": '
     '[["1", "1"]], "quasilinear": []}, "certificate": {"kind": '
     '"binary-wp", "class": {"wild": [], "constant": {"bit": 1}}}}, '
     '"second": {"kind": "anisotropic", "form": {"field": "F2((s))", '
     '"blocks": [], "quasilinear": ["s"]}, "certificate": {"kind": '
     '"ql-independent", "dim": 1}}}}}}, "splitting_index": {"dim": 9, '
     '"s": 3, "index_interval": [2, 2], "rule": "symbols"}}}'),
    ("[1,1] + s*u*[1,1/s] + s*t*u*[1,1] + s*[1,1] + s*t*[1,1+1/s] "
     "+ t*u*[1,1]", "ind-vanishing-dim12",
     '{"schema_version": "1", "codim": 3, "dim": 12, "torsion": {"kind": '
     '"Exactly", "order": 1, "group": "0"}, "elementary": true, "image": '
     'null, "rules": ["ind-vanishing-dim12"], "assumptions": [], '
     '"certificates": {"anisotropy": {"kind": "anisotropic", "form": '
     '{"field": "F2((s))((t))((u))", "blocks": [["1", "1"], ["s*u", '
     '"(1/s^2)/u"], ["s*t*u", "((1/s)/t)/u"], ["s", "1/s"], ["s*t", '
     '"((s+1)/s^2)/t"], ["t*u", "(1/t)/u"]], "quasilinear": []}, '
     '"certificate": {"kind": "residue-split", "variable": "u", "tamed": '
     'false, "first": {"kind": "anisotropic", "form": {"field": '
     '"F2((s))((t))", "blocks": [["1", "1"], ["s", "1/s"], ["s*t", '
     '"((s+1)/s^2)/t"]], "quasilinear": []}, "certificate": {"kind": '
     '"residue-split", "variable": "t", "tamed": false, "first": {"kind": '
     '"anisotropic", "form": {"field": "F2((s))", "blocks": [["1", "1"], '
     '["s", "1/s"]], "quasilinear": []}, "certificate": {"kind": '
     '"residue-split", "variable": "s", "tamed": false, "first": {"kind": '
     '"anisotropic", "form": {"field": "F2", "blocks": [["1", "1"]], '
     '"quasilinear": []}, "certificate": {"kind": "finite", "dim": 2, '
     '"detail": "trace criterion"}}, "second": {"kind": "anisotropic", '
     '"form": {"field": "F2", "blocks": [["1", "1"]], "quasilinear": []}, '
     '"certificate": {"kind": "finite", "dim": 2, "detail": "trace '
     'criterion"}}}}, "second": {"kind": "anisotropic", "form": {"field": '
     '"F2((s))", "blocks": [["s", "(s+1)/s^2"]], "quasilinear": []}, '
     '"certificate": {"kind": "binary-wp", "class": {"wild": [[-1, "1"]], '
     '"constant": {"bit": 1}}}}}}, "second": {"kind": "anisotropic", '
     '"form": {"field": "F2((s))((t))", "blocks": [["s", "1/s^2"], '
     '["s*t", "(1/s)/t"], ["t", "1/t"]], "quasilinear": []}, '
     '"certificate": {"kind": "residue-split", "variable": "t", "tamed": '
     'false, "first": {"kind": "anisotropic", "form": {"field": '
     '"F2((s))", "blocks": [["s", "1/s^2"]], "quasilinear": []}, '
     '"certificate": {"kind": "binary-wp", "class": {"wild": [[-1, "1"]], '
     '"constant": {"bit": 0}}}}, "second": {"kind": "anisotropic", '
     '"form": {"field": "F2((s))", "blocks": [["s", "1/s"], ["1", "1"]], '
     '"quasilinear": []}, "certificate": {"kind": "residue-split", '
     '"variable": "s", "tamed": false, "first": {"kind": "anisotropic", '
     '"form": {"field": "F2", "blocks": [["1", "1"]], "quasilinear": []}, '
     '"certificate": {"kind": "finite", "dim": 2, "detail": "trace '
     'criterion"}}, "second": {"kind": "anisotropic", "form": {"field": '
     '"F2", "blocks": [["1", "1"]], "quasilinear": []}, "certificate": '
     '{"kind": "finite", "dim": 2, "detail": "trace criterion"}}}}}}}}, '
     '"splitting_index": {"dim": 12, "s": 4, "index_interval": [2, 2], '
     '"rule": "symbols"}}}'),
    ("t*u*[1,1/s] + t*[1,1] + [1,1] + s*[1,1] + s*u*[1,1/s]",
     "ind-vanishing-dim10",
     '{"schema_version": "1", "codim": 3, "dim": 10, "torsion": {"kind": '
     '"Exactly", "order": 1, "group": "0"}, "elementary": true, "image": '
     'null, "rules": ["ind-vanishing-dim10"], "assumptions": [], '
     '"certificates": {"anisotropy": {"kind": "anisotropic", "form": '
     '{"field": "F2((s))((t))((u))", "blocks": [["t*u", "((1/s)/t)/u"], '
     '["t", "1/t"], ["1", "1"], ["s", "1/s"], ["s*u", "(1/s^2)/u"]], '
     '"quasilinear": []}, "certificate": {"kind": "residue-split", '
     '"variable": "u", "tamed": false, "first": {"kind": "anisotropic", '
     '"form": {"field": "F2((s))((t))", "blocks": [["t", "1/t"], ["1", '
     '"1"], ["s", "1/s"]], "quasilinear": []}, "certificate": {"kind": '
     '"residue-split", "variable": "t", "tamed": false, "first": {"kind": '
     '"anisotropic", "form": {"field": "F2((s))", "blocks": [["1", "1"], '
     '["s", "1/s"]], "quasilinear": []}, "certificate": {"kind": '
     '"residue-split", "variable": "s", "tamed": false, "first": {"kind": '
     '"anisotropic", "form": {"field": "F2", "blocks": [["1", "1"]], '
     '"quasilinear": []}, "certificate": {"kind": "finite", "dim": 2, '
     '"detail": "trace criterion"}}, "second": {"kind": "anisotropic", '
     '"form": {"field": "F2", "blocks": [["1", "1"]], "quasilinear": []}, '
     '"certificate": {"kind": "finite", "dim": 2, "detail": "trace '
     'criterion"}}}}, "second": {"kind": "anisotropic", "form": {"field": '
     '"F2((s))", "blocks": [["1", "1"]], "quasilinear": []}, '
     '"certificate": {"kind": "binary-wp", "class": {"wild": [], '
     '"constant": {"bit": 1}}}}}}, "second": {"kind": "anisotropic", '
     '"form": {"field": "F2((s))((t))", "blocks": [["t", "(1/s)/t"], '
     '["s", "1/s^2"]], "quasilinear": []}, "certificate": {"kind": '
     '"residue-split", "variable": "t", "tamed": false, "first": {"kind": '
     '"anisotropic", "form": {"field": "F2((s))", "blocks": [["s", '
     '"1/s^2"]], "quasilinear": []}, "certificate": {"kind": "binary-wp", '
     '"class": {"wild": [[-1, "1"]], "constant": {"bit": 0}}}}, "second": '
     '{"kind": "anisotropic", "form": {"field": "F2((s))", "blocks": '
     '[["1", "1/s"]], "quasilinear": []}, "certificate": {"kind": '
     '"binary-wp", "class": {"wild": [[-1, "1"]], "constant": {"bit": '
     '0}}}}}}}}, "splitting_index": {"dim": 10, "s": 3, "index_interval": '
     '[2, 2], "rule": "symbols"}}}'),
]


@pytest.mark.parametrize("text, rule, report", CHOW3_DIM9_12)
def test_chow3_rules_at_dims_9_to_12(text, rule, report):
    r = chow3_torsion(form(K3, text))
    assert r.rules == (rule,)
    assert json.dumps(r.to_json()) == report


def test_chow3_reduces_delta_once(monkeypatch):
    # arf_zero, the splitting index and the hyperbolic-over-disc rule all
    # read the one discriminant algebra on phi's memo
    text, _rule, report = CHOW3_DIM9_12[0]
    phi = form(K3, text)
    calls = []
    arf_representative = forms.arf_representative

    def spy(psi):
        if psi == phi:
            calls.append(psi)
        return arf_representative(psi)
    monkeypatch.setattr(forms, "arf_representative", spy)
    r = chow3_torsion(phi)
    assert len(calls) == 1
    assert json.dumps(r.to_json()) == report


@pytest.mark.parametrize("iw, kind, rules", [
    (1, "Exactly", ("dim10-norm-decomposition",)),
    (0, "AtMost", ("order-bound",))])
def test_chow3_dim10_norm_rule_reads_the_index_over_disc(monkeypatch, iw,
                                                         kind, rules):
    # phi contains some c N_L iff phi is isotropic over L; the stubs stand
    # for an anisotropic form with index interval [2, 4], which no pinned
    # form reaches
    phi = form(K1, "[1,1]+[t,1]+[t,1]+[t,1]+[t,1]")
    monkeypatch.setattr(chow, "decide_isotropy",
                        lambda psi: IsotropyVerdict("anisotropic", psi))
    monkeypatch.setattr(chow, "splitting_index", lambda psi:
                        SplittingIndexResult(10, None, 2, 4, "symbols"))
    monkeypatch.setattr(chow, "witt_index_over_ext", lambda psi, ext: iw)
    r = chow3_torsion(phi)
    assert (r.kind, r.rules) == (kind, rules)
    assert list(r.certificates) == ["anisotropy", "splitting_index"]


def test_chow3_order_bound_universal():
    rng = random.Random(43)
    for _ in range(15):
        phi = random_tame_form(K2, rng, rng.choice([3, 4, 5]),
                               quasilinear=rng.choice([0, 1]))
        if phi.dim < 3:
            continue
        r = chow3_torsion(phi)
        assert r.order <= 2


def test_chow2_exact_z2_implies_dim_window():
    # monotone consistency: Exactly Z/2 only happens in dims 5..8 with an
    # anisotropy certificate attached
    for text, K in [("pf(s,t;1)", K2), ("[1,1]+s*[1,1]+<t>", K2)]:
        r = chow2_torsion(form(K, text))
        if r.group == "Z/2":
            assert 5 <= r.dim <= 8
            assert "anisotropy" in r.certificates


# --- isotropic_reduce -------------------------------------------------------------

def test_reduce_strips_planes():
    psi = form(K2, "[1,1]+s*[1,1]")
    phi = orthogonal_sum(hyperbolic_plane(K2), psi)
    red, p = isotropic_reduce(phi, 3)
    assert red == psi and p == 2


def test_reduce_identity_on_anisotropic():
    psi = form(K2, "[1,1]+s*[1,1]")
    red, p = isotropic_reduce(psi, 3)
    assert red == psi and p == 3


def test_reduce_two_planes():
    psi = form(K2, "[1,1]+s*[1,1]")
    phi = orthogonal_sum(hyperbolic(K2, 2), psi)
    red, p = isotropic_reduce(phi, 3)
    assert red == psi and p == 1


def test_reduce_window_violation():
    # p = 3 with a quadric of dimension 3 (dim form 5) sits outside the
    # window 1 <= p <= d-1
    phi = orthogonal_sum(hyperbolic_plane(K1), form(K1, "[1,1]+<t>"))
    with pytest.raises(RangeViolation):
        isotropic_reduce(phi, 3)


def test_dim5_torsion_order_matches_splitting_index():
    from qf2.clifford import splitting_index
    for text, K in (("[1,1]+s*[1,1]+<t>", K2),
                    ("[1,1]+t*[1,1]+<s>", K2)):
        phi = form(K, text)
        if not decide_isotropy(phi).is_anisotropic:
            continue
        r = chow2_torsion(phi)
        s = splitting_index(phi)
        if r.kind == "Exactly" and s.resolved:
            assert s.s in (0, 1)
            assert r.order == 2 ** s.s


def test_exact_reports_replay():
    # re-running the oracle reproduces every Exactly verdict (rule-tag
    # completeness: the cited hypotheses are decidable and deterministic)
    for text, K, fn in (("pf(s,t;1)", K2, chow2_torsion),
                        ("[1,1]+s*[1,1]+<t>", K2, chow2_torsion),
                        ("[1,1]+s*[1,1]+t*[1,1]", K2, chow3_torsion)):
        first = fn(form(K, text))
        again = fn(form(K, text))
        assert (first.kind, first.order, first.rules) == \
            (again.kind, again.order, again.rules)


# --- pinned reports ----------------------------------------------------------

def test_chow_pinned():
    # tests/data/chow_pinned.json (make_chow_pinned.py) was recorded with
    # the neighbor dispatch written out in chow2_torsion and the CLI; every
    # chow2 rule of dimensions 5..8 occurs in it
    entries = json.loads((Path(__file__).parent / "data" /
                          "chow_pinned.json").read_text())
    rules = {r for e in entries for r in e["chow2"]["rules"]}
    assert {"dim5-not-neighbor", "dim6-albert-torsion-free",
            "dim6-not-neighbor", "dim78-not-neighbor"} <= rules
    for e in entries:
        phi = form(parse_field(e["field"]), e["form"])
        assert chow2_torsion(phi).to_json() == e["chow2"], e["form"]
        assert chow3_torsion(phi).to_json() == e["chow3"], e["form"]
        assert pfister.neighbor(phi).to_json() == e["neighbor"], e["form"]


def test_dim8_not_neighbor_reads_the_arf_class_once(monkeypatch):
    # at dim 8 an anisotropic form is "no" only by its Arf obstruction, so
    # the report's elementary bit is True without a second Arf reduction
    text = "[1,1] + t*[1,1+1/s] + u*[1,1/s] + t*u*[1,1]"
    field = "F2((s))((t))((u))"
    pinned = next(e for e in json.loads(
        (Path(__file__).parent / "data" / "chow_pinned.json").read_text())
        if (e["field"], e["form"]) == (field, text))
    calls = []
    work = forms.arf_representative

    def counted(phi):
        calls.append(phi)
        return work(phi)
    monkeypatch.setattr(forms, "arf_representative", counted)
    report = chow2_torsion(form(parse_field(field), text))
    assert report.rules == ("dim78-not-neighbor",)
    assert report.to_json() == pinned["chow2"]
    assert len(calls) == 1


def test_chow2_unknown_neighbor_wording_dims_7_8(monkeypatch):
    # the pinned corpus leaves out the exhausted witness search (seconds
    # per form); its wording is checked on a stubbed verdict
    unknown = pfister.NeighborVerdict("unknown", "witness-search-exhausted",
                                      reason="no witness")
    monkeypatch.setattr(pfister, "neighbor_high", lambda phi: unknown)
    for text, dim in (("[1,1] + s*[1,1] + t*[1,1] + <s*t>", 7),
                      ("pf(s,t;1)", 8)):
        r = chow2_torsion(form(K2, text))
        assert (r.kind, r.rules) == ("AtMost", ("order-bound",))
        assert r.assumptions == (
            f"dim-{dim} Pfister-neighbor status unknown: no witness",)
        assert r.certificates["neighbor"] is unknown
        assert r.to_json()["certificates"]["neighbor"] == unknown.to_json()


ORDER_THREE = """
import sys
from qf2.chow import ChowReport
from qf2.errors import SoundnessError
if not sys.flags.optimize:
    sys.exit(2)
try:
    ChowReport(2, 5, "Exactly", 3, "Z/2", True)
except SoundnessError:
    sys.exit(3)
sys.exit(1)
"""


def test_report_order_bound_survives_O():
    proc = run_optimized(ORDER_THREE)
    assert proc.returncode == 3, proc.stderr
