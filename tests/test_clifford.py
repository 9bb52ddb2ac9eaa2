"""Clifford algebras, symbols, and the splitting index."""

import json
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from qf2 import clifford
from qf2.errors import NotAlbert, SoundnessError, Undecided
from qf2.fieldtower import parse_field, render_element
from qf2.forms import (GramInput, QuadraticForm, arf, block, hyperbolic,
                       hyperbolic_plane, normal_form, orthogonal_sum,
                       parse_form, scale)
from qf2.clifford import (CenterResult, albert_index, build_clifford,
                          center_and_idempotents, even_clifford_class,
                          quaternion_splits, splitting_index)
from qf2.witt import witt_decompose

from clifford_oracle import (_generators, check_center_identities,
                             solve_center, structure_constants)
from helpers import (K1, K2, K3, random_elem, random_tame_form, random_unit,
                     run_optimized)

F2 = parse_field("F2")


def form(K, text):
    return parse_form(K, text)


# --- algebra construction ------------------------------------------------------

def test_full_algebra_dimensions():
    A = build_clifford(form(F2, "[1,1]"))
    assert A.dim == 4
    A0 = build_clifford(form(F2, "[1,1]"), even_only=True)
    assert A0.dim == 2


def test_one_dimensional_form_algebra():
    phi = form(K1, "<t>")
    A = structure_constants(phi)
    assert A.dim == 2
    # e^2 = t
    sq = A.mul_masks(1, 1)
    assert sq == {0: K1.var("t")}


def test_dimension_cap():
    # only the oracle's table has a cap; the package describes C_0 of a
    # form of any dimension
    phi = hyperbolic(F2, 5)
    with pytest.raises(ValueError):
        structure_constants(phi)
    A0 = build_clifford(phi, even_only=True)
    assert (A0.n, A0.dim) == (10, 512)


def test_tensor_decomposition_small():
    # C(phi + psi) = C(phi) (x) C(psi): in characteristic 2 the generators
    # of the two factors commute, so products of basis monomials match
    # component-wise
    rng = random.Random(7)
    for _ in range(5):
        phi = random_tame_form(K1, rng, 1)
        psi = random_tame_form(K1, rng, rng.choice([1, 2]))
        big = structure_constants(orthogonal_sum(phi, psi))
        a = structure_constants(phi)
        b = structure_constants(psi)
        na = phi.dim
        for m1a in range(1 << na):
            for m1b in range(0, 1 << psi.dim, 3):
                for m2a in range(0, 1 << na, 2):
                    pa = a.mul_masks(m1a, m2a)
                    m2b = (m1b * 5) % (1 << psi.dim)
                    pb = b.mul_masks(m1b, m2b)
                    lhs = big.mul(big.mul_masks(m1a | (m1b << na), 0),
                                  {m2a | (m2b << na): K1.one()})
                    rhs = {}
                    for xa, ca in pa.items():
                        for xb, cb in pb.items():
                            rhs[xa | (xb << na)] = ca * cb
                    assert {m: c for m, c in lhs.items()
                            if not c.is_zero()} == \
                           {m: c for m, c in rhs.items() if not c.is_zero()}


# Associativity on sampled triples (every triple for a full algebra with
# n <= 4) and closure of the even part, in the tests' structure constants.
ALGEBRAS = (
    ("F2", "[1,1]", False), ("F2", "[1,1]", True),
    ("F2", "[0,0]+[1,1]", False), ("F2", "[1,1]+<1>", False),
    ("F2", "[1,1]+<1>", True),
    ("F2((t))", "[1,t]", False), ("F2((t))", "[1,t]+<t>", False),
    ("F2((t))", "<1,t>", False), ("F2((t))", "[1,1]+t*[1,1]", True),
    ("F2((t))", "[t,1/t]+[1,1]+<t+1>", True),
    ("F2((t))", "[1,t]+[1,1]+<1,t,t+1>", False),
    ("F2((s))((t))", "[1,s]+<t>", False), ("F2((s))((t))", "<1,s,t>", False),
    ("F2((s))((t))", "[1,1]+s*[1,1]+<t>", True),
    ("F2((s))((t))", "pf(s,t;1)", True),
    ("F4((t))", "[1,1]", False), ("F4((t))", "[1,t]+<t+1>", False),
    ("F4((t))", "[t,1/t]+[1,t^2]", True),
)


@pytest.mark.parametrize("field,text,even_only", ALGEBRAS)
def test_algebra_associative_and_graded(field, text, even_only):
    A = structure_constants(form(parse_field(field), text),
                            even_only=even_only)
    one = A.K.one()
    rng = random.Random(2)
    masks = A.basis_masks
    if A.n <= 4 and not A.even_only:
        triples = [(a, b, c) for a in masks for b in masks for c in masks]
    else:
        triples = [(rng.choice(masks), rng.choice(masks), rng.choice(masks))
                   for _ in range(25)]
    for ma, mb, mc in triples:
        left = A.mul(A.mul_masks(ma, mb), {mc: one})
        right = A.mul({ma: one}, A.mul_masks(mb, mc))
        assert A.equal(left, right), (ma, mb, mc)
        if A.even_only:
            assert all(bin(m).count("1") % 2 == 0
                       for m in A.mul_masks(ma, mb)), (ma, mb)


# --- center ----------------------------------------------------------------------

def _center_pinned():
    return json.loads((Path(__file__).parent / "data" /
                       "center_pinned.json").read_text())


def test_center_pinned():
    # tests/data/center_pinned.json was recorded with a linear solve for the
    # centralizer (tests/data/make_center_pinned.py runs the one kept in
    # tests/clifford_oracle.py); the centre read off the form must repeat
    # every field exactly
    entries = _center_pinned()
    forms = {(e["field"], e["form"]) for e in entries}
    assert ("F2", "[0,0] + [0,0]") in forms
    assert ("F2((t))", "[1,t]+[1,1]+<1,t,t+1>") in forms
    for e in entries:
        phi = form(parse_field(e["field"]), e["form"])
        c = center_and_idempotents(build_clifford(phi,
                                                  even_only=e["even_only"]))
        assert c.dimension == e["dimension"], e
        assert (render_element(c.delta) if c.delta is not None
                else None) == e["delta"], e
        assert c.classification == e["classification"], e
        idem = (None if c.idempotent is None else
                {str(m): render_element(x)
                 for m, x in sorted(c.idempotent.items())})
        assert idem == e["idempotent"], e


def test_even_part_generators():
    # the oracle's n - 1 generators of C_0, with w = e_0 + e_1 when no e_k
    # is anisotropic
    for K, phi in ((F2, hyperbolic(F2, 2)), (K1, form(K1, "[1,t]+<t>")),
                   (K2, form(K2, "[0,0]+[1,1]+s*[1,1]"))):
        A0 = structure_constants(phi, even_only=True)
        gens = _generators(A0)
        assert len(gens) == phi.dim - 1
    one = F2.one()
    assert _generators(structure_constants(hyperbolic(F2, 2),
                                           even_only=True)) == \
        [{0b011: one}, {0b101: one, 0b110: one}, {0b1001: one, 0b1010: one}]


def _center_corpus():
    """(form, even_only) pairs: each field, r = 0..3 quasilinear entries and
    both algebras, tame and non-tame entries in turn; then even algebras of
    nonsingular forms, where the centre is etale: a tame and a ramified
    one, psi + psi (delta = 0) and [1, x^2 + x] + psi (the root x)."""
    rng = random.Random(5)
    out = []
    fields = (F2, K1, parse_field("F4((t))"), K2)
    for i, (K, r, even_only) in enumerate(
            (K, r, e) for K in fields for r in range(4) for e in (False, True)):
        blocks = rng.randint(0 if r else 1, 2 if r < 2 else 1)
        if K is F2 or i % 2:
            phi = random_tame_form(K, rng, blocks, quasilinear=r)
        else:
            phi = QuadraticForm(
                K, tuple((random_elem(K, rng, nonzero=True),
                          random_elem(K, rng, nonzero=True))
                         for _ in range(blocks)),
                tuple(random_elem(K, rng, nonzero=True) for _ in range(r)))
        out.append((phi, even_only))
    for K in fields[1:]:
        psi = random_tame_form(K, rng, 1)
        x = random_unit(K, rng)
        # delta with a simple pole: a ramified centre
        wild = block(K.one(), random_unit(K, rng) / K.var(K.top_variable))
        out += [(random_tame_form(K, rng, 2), True), (wild, True),
                (orthogonal_sum(psi, psi), True),
                (orthogonal_sum(block(K.one(), x * x + x), psi), True)]
    return out


def test_center_matches_solve_oracle():
    # the closed form against the centralizer solve, field by field
    corpus = _center_corpus()
    seen = set()
    for phi, even_only in corpus:
        c = center_and_idempotents(build_clifford(phi, even_only=even_only))
        assert c == solve_center(structure_constants(phi, even_only)), \
            (str(phi), even_only)
        seen.add((c.classification, c.idempotent is not None))
    assert len(corpus) >= 40
    assert {(None, False), ("inseparable", False), ("field", False),
            ("unsupported", False), ("split", True)} <= seen


def test_center_identities_in_structure_constants():
    # u^2 + u = delta and (u + z_0)^2 = u + z_0, which center_and_idempotents
    # reads off the form, multiplied out on every pinned centre and on the
    # seeded corpus; the description's dimension is the table's
    pinned = [(form(parse_field(e["field"]), e["form"]), e["even_only"])
              for e in _center_pinned()]
    checked = []
    for phi, even_only in pinned + _center_corpus():
        A = structure_constants(phi, even_only)
        B = build_clifford(phi, even_only)
        assert B.dim == len(A.basis_masks), (str(phi), even_only)
        checked.append(check_center_identities(A, center_and_idempotents(B)))
    assert checked.count(1) >= 10 and checked.count(2) >= 10, checked


def test_center_identity_check_catches_a_wrong_centre():
    # the test-side check raises, also under python -O, on a delta that is
    # not u^2 + u and on an idempotent u + z with z^2 + z != delta
    phi = form(K1, "[0,0]+[0,0]")
    A = structure_constants(phi, even_only=True)
    c = center_and_idempotents(build_clifford(phi, even_only=True))
    assert check_center_identities(A, c) == 2
    t = K1.var("t")
    for wrong, message in (
            (CenterResult(2, t, "split", None), "u^2 + u is not delta"),
            (CenterResult(2, c.delta, "split", {**c.idempotent, 0: t}),
             "idempotent check failed")):
        with pytest.raises(SoundnessError, match=re.escape(message)):
            check_center_identities(A, wrong)


FORGED_CENTRE = """
import sys
from qf2 import clifford
from qf2.errors import SoundnessError
from qf2.fieldtower import parse_field
from qf2.forms import parse_form
if not sys.flags.optimize:
    sys.exit(2)
K = parse_field("F2((t))")
t = K.var("t")
forged = {"root": ("wp_root", lambda delta: t)}
name, fake = forged[FORGED]
setattr(clifford, name, fake)
A = clifford.build_clifford(parse_form(K, "[0,0]+[0,0]"), even_only=True)
try:
    clifford.center_and_idempotents(A)
except SoundnessError as exc:
    print(exc)
    sys.exit(3)
sys.exit(1)
"""


@pytest.mark.parametrize("forged, message", [
    ("root", "idempotent check failed"),
])
def test_forged_centre_raises_under_O(forged, message):
    # a z_0 with z_0^2 + z_0 != delta is caught in K, also under python -O
    proc = run_optimized(f"FORGED = {forged!r}\n" + FORGED_CENTRE)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.strip() == message


def test_center_of_even_part_nontrivial_arf():
    A0 = build_clifford(form(F2, "[1,1]"), even_only=True)
    c = center_and_idempotents(A0)
    assert c.dimension == 2
    assert c.classification == "field"
    assert c.idempotent is None


def test_center_of_even_part_hyperbolic():
    A0 = build_clifford(hyperbolic_plane(F2), even_only=True)
    c = center_and_idempotents(A0)
    assert c.classification == "split"
    assert c.idempotent is not None


def test_center_odd_dim():
    # the full algebra of an odd-dimensional form has an inseparable
    # 2-dimensional center (the radical generator); the central simple
    # algebra is the even part, whose center is the base field
    A = build_clifford(form(F2, "[1,1]+<1>"))
    c = center_and_idempotents(A)
    assert c.dimension == 2 and c.classification == "inseparable"
    A0 = build_clifford(form(F2, "[1,1]+<1>"), even_only=True)
    c0 = center_and_idempotents(A0)
    assert c0.dimension == 1


def test_center_matches_discriminant():
    rng = random.Random(11)
    from qf2.forms import discriminant_algebra
    for _ in range(6):
        phi = random_tame_form(K1, rng, rng.choice([1, 2]))
        A0 = build_clifford(phi, even_only=True)
        c = center_and_idempotents(A0)
        d = discriminant_algebra(phi)
        assert c.classification == {"split": "split", "field": "field",
                                    "unsupported": "unsupported"}[d.kind]


def test_center_of_2h_split_with_idempotent():
    A0 = build_clifford(hyperbolic(F2, 2), even_only=True)
    c = center_and_idempotents(A0)
    assert c.classification == "split" and c.idempotent is not None


# --- quaternion symbols -----------------------------------------------------------

def test_symbol_splits_when_alpha_in_wp():
    t = K1.var("t")
    assert quaternion_splits(t, K1.one() + t) is True


def test_symbol_division():
    Ks = parse_field("F2((s))")
    assert quaternion_splits(Ks.one(), Ks.var("s")) is False


def test_symbol_square_beta():
    Ks = parse_field("F2((s))")
    assert quaternion_splits(Ks.one(), Ks.var("s") ** 2) is True


# --- albert index ------------------------------------------------------------------

def test_albert_rows():
    assert albert_index(hyperbolic(F2, 3)) == 1
    assert albert_index(form(K1, "[0,0]+[1,1]+t*[1,1]")) == 2
    qa = form(K3, "[1,1] + t*[1,1+s^-1] + u*[1,s^-1]")
    assert arf(qa).is_zero()
    assert albert_index(qa) == 4


def test_albert_requires_trivial_arf():
    with pytest.raises(NotAlbert):
        albert_index(form(K2, "[1,1]+s*[1,1]+t*[1,1]"))


IMPOSSIBLE_ALBERT = """
import sys
from types import SimpleNamespace
from qf2 import clifford
from qf2.errors import SoundnessError
from qf2.fieldtower import parse_field
from qf2.forms import hyperbolic
if not sys.flags.optimize:
    sys.exit(2)
clifford.witt_decompose = lambda phi: SimpleNamespace(witt_index=2)
try:
    clifford.albert_index(hyperbolic(parse_field("F2"), 3))
except SoundnessError:
    sys.exit(3)
sys.exit(1)
"""


def test_albert_impossible_witt_index_raises(monkeypatch):
    # an Albert form has i_W in {0, 1, 3}; a reported 2 must be refused
    monkeypatch.setattr(clifford, "witt_decompose",
                        lambda phi: SimpleNamespace(witt_index=2))
    with pytest.raises(SoundnessError):
        albert_index(hyperbolic(F2, 3))


def test_albert_impossible_witt_index_raises_under_O():
    proc = run_optimized(IMPOSSIBLE_ALBERT)
    assert proc.returncode == 3, proc.stderr


def _tame_isometric_copy(phi, rng):
    """Apply shape-preserving isometries: block permutation, a<->b swap
    (coordinate exchange), square scalings, and in-block substitutions
    b -> b + a c^2 + c with c of large valuation (keeps residue shapes)."""
    from qf2.fieldtower import valuation_split
    from qf2.forms import square_scale_block
    K = phi.field
    t = K.var(K.top_variable)
    blocks = list(phi.blocks)
    rng.shuffle(blocks)
    out = []
    for a, b in blocks:
        if rng.random() < 0.5:
            a, b = b, a
        if not a.is_zero() and not b.is_zero() and rng.random() < 0.7:
            vb, _ = valuation_split(b)
            va, _ = valuation_split(a)
            m = max(vb + 1, vb - va + 1, 1)
            c = t ** m
            b = b + a * c * c + c
        out.append((a, b))
    psi = QuadraticForm(K, tuple(out), phi.quasilinear)
    for i in range(len(psi.blocks)):
        if rng.random() < 0.5:
            psi = square_scale_block(psi, i, t)
    return psi


def test_albert_isometry_invariance():
    rng = random.Random(13)
    qa = form(K1, "[0,0]+[1,1]+t*[1,1]")
    for _ in range(6):
        moved = _tame_isometric_copy(qa, rng)
        assert albert_index(moved) == 2
    qa0 = form(K3, "[1,1] + t*[1,1+s^-1] + u*[1,s^-1]")
    for _ in range(3):
        moved = _tame_isometric_copy(qa0, rng)
        assert albert_index(moved) == 4


# --- splitting index ----------------------------------------------------------------

def test_hyperbolic_splitting_index():
    for m in (1, 2, 3):
        res = splitting_index(hyperbolic(K1, m))
        assert res.s == m - 1 and res.ind == 1
        assert res.rule == "hyperbolic"


def test_dim5_neighbor_has_s_one():
    res = splitting_index(form(K2, "[1,1]+s*[1,1]+<t>"))
    assert res.s == 1 and res.ind == 2


def test_dim5_division_even_clifford():
    res = splitting_index(form(K3, "[1,1]+t*[1,1+s^-1]+<u>"))
    assert res.s == 0 and res.ind == 4


def test_dim3_conic():
    # no anisotropic conic exists over F2 (three variables always have a
    # zero); [1,1]+<t> over F2((t)) is genuinely anisotropic
    res = splitting_index(form(K1, "[1,1]+<t>"))
    assert res.s == 0 and res.ind == 2
    res = splitting_index(form(F2, "[1,1]+<1>"))
    assert res.s == 1 and res.ind == 1
    res = splitting_index(form(F2, "[0,0]+<1>"))
    assert res.s == 1 and res.ind == 1


def test_dim8_pfister_resolves_to_split():
    res = splitting_index(form(K2, "pf(s,t;1)"))
    assert res.s == 3 and res.ind == 1


def test_identity_s_plus_log_ind():
    rng = random.Random(17)
    checked = 0
    for _ in range(25):
        phi = random_tame_form(K2, rng, rng.choice([1, 2, 3]),
                               quasilinear=rng.choice([0, 1]))
        if phi.dim < 1:
            continue
        res = splitting_index(phi)
        if res.resolved:
            checked += 1
            m = (phi.dim - 1) // 2
            assert res.s + (res.ind.bit_length() - 1) == m
    assert checked >= 15


def test_scaling_invariance():
    rng = random.Random(19)
    for _ in range(8):
        phi = random_tame_form(K2, rng, 2, quasilinear=rng.choice([0, 1]))
        lam = random_unit(K2, rng)
        r1 = splitting_index(phi)
        r2 = splitting_index(scale(lam, phi))
        assert (r1.s, r1.ind_low, r1.ind_high) == (r2.s, r2.ind_low,
                                                   r2.ind_high)


def test_witt_index_bounds_splitting_index():
    # i_W <= s <= [(dim-1)/2] for non-hyperbolic forms
    rng = random.Random(23)
    for _ in range(20):
        phi = random_tame_form(K2, rng, rng.choice([2, 3]),
                               quasilinear=rng.choice([0, 1]))
        res = splitting_index(phi)
        if not res.resolved:
            continue
        dec = witt_decompose(phi)
        if dec.kernel.dim == 0:
            continue
        m = (phi.dim - 1) // 2
        assert dec.witt_index <= res.s <= m


def test_index_interval_descriptor():
    desc = even_clifford_class(form(K2, "pf(s,t;1)"))
    assert desc.index_interval == (1, 1)
    desc2 = even_clifford_class(form(K1, "[1,1]+t*[1,1]"))
    assert desc2.index_interval == (2, 2)


@pytest.mark.parametrize("text, rule, s, interval", [
    # centre a field Z: i_W over Z is 0, so ind 2
    ("[t,1/(s*t)]+[1/s,s+1]", "dim4-over-Z", 0, (2, 2)),
    # ramified centre: no extension to decide over
    ("[1,1]+[t,1/(s*t)]", "dim4-ramified", None, (1, 2))])
def test_dim4_index_over_the_centre(text, rule, s, interval):
    # the dim-4 rules decide over the centre's field; the symbol calculus of
    # even_clifford_class works the interval out separately
    phi = form(K2, text)
    res = splitting_index(phi)
    assert (res.rule, res.s, (res.ind_low, res.ind_high)) == (rule, s,
                                                              interval)
    assert even_clifford_class(phi).index_interval == interval


def test_two_division_symbols_go_to_the_albert_form(monkeypatch):
    # [s^2, x] has a square slot, so its symbol splits; (1, t] and
    # (1/s, s*t] are division symbols that share no slot, so their product
    # is read off the biquaternion Albert form, which is undecided here
    # (the class 1/s is wild)
    seen = []
    albert_form = clifford._biquaternion_albert_form

    def spy(s1, s2):
        seen.append(albert_form(s1, s2))
        return seen[-1]
    monkeypatch.setattr(clifford, "_biquaternion_albert_form", spy)
    phi = form(K2, "[s^2,(1+1/s)/s^2]+[t,1/t]+[s*t,1/(s^2*t)]")
    desc = even_clifford_class(phi)
    assert desc.rules == ("even-trivial-arf-symbols",)
    assert desc.index_interval == (1, 4)
    [q] = seen
    assert q.dim == 6 and arf(q).is_zero()
    assert q == form(K2, "[1,1+1/s]+t*[1,1]+(s*t)*[1,1/s]")
    with pytest.raises(Undecided):
        albert_index(q)


def test_full_algebra_of_binary_is_central_simple():
    # C([1,a]) is central simple: centralizer has dimension 1
    for text, K in (("[1,1]", F2), ("[1,t]", K1), ("[1,1]", K1)):
        A = build_clifford(form(K, text))
        c = center_and_idempotents(A)
        assert c.dimension == 1
