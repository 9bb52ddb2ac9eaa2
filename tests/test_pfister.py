"""Pfister forms and neighbor verdicts."""

import random

import pytest

from qf2 import pfister
from qf2.errors import Undecided
from qf2.fieldtower import parse_field
from qf2.forms import (QuadraticForm, arf, isometric, parse_form, scale,
                       subform_test)
from qf2.pfister import (NeighborVerdict, PfisterSpec, make_pfister,
                         neighbor_dim5, neighbor_dim6, neighbor_high,
                         pfister_hyperbolicity)
from qf2.witt import decide_isotropy, witt_decompose

from helpers import K1, K2, K3, random_tame_form, random_unit
import pfister_oracle

F2 = parse_field("F2")


def form(K, text):
    return parse_form(K, text)


def spec(K, slots, quad):
    return PfisterSpec(K, tuple(K.element(s) for s in slots), K.element(quad))


# --- construction ---------------------------------------------------------------

def test_one_fold():
    pi = make_pfister(spec(K1, [], "t"))
    assert pi == form(K1, "[1,t]")


def test_two_fold_expansion():
    pi = make_pfister(spec(K2, ["s"], "1"))
    assert pi == form(K2, "[1,1]+s*[1,1]")


def test_three_fold_anisotropic():
    pi = make_pfister(spec(K2, ["s", "t"], "1"))
    assert pi.dim == 8
    assert decide_isotropy(pi).is_anisotropic


def test_arf_trivial_for_two_fold_and_up():
    rng = random.Random(3)
    for _ in range(10):
        slots = [random_unit(K2, rng) for _ in range(rng.choice([1, 2]))]
        quad = random_unit(K2, rng)
        pi = make_pfister(PfisterSpec(K2, tuple(slots), quad))
        assert arf(pi).is_zero()


# --- hyperbolicity ----------------------------------------------------------------

def test_hyperbolic_over_f4():
    K4 = parse_field("F4((s))")
    pi = make_pfister(spec(K4, ["s"], "1"))
    assert pfister_hyperbolicity(pi) is True
    dec = witt_decompose(pi)
    assert dec.witt_index == 2


def test_quadratic_slot_in_wp_gives_hyperbolic():
    pi = make_pfister(spec(K2, ["s"], "t"))   # [1,t] is split
    assert pfister_hyperbolicity(pi) is True


def test_not_hyperbolic():
    pi = make_pfister(spec(K2, ["s"], "1"))
    assert pfister_hyperbolicity(pi) is False


def test_isotropic_iff_hyperbolic_property():
    rng = random.Random(5)
    for _ in range(12):
        slots = [random_unit(K2, rng)]
        quad = random_unit(K2, rng)
        pi = make_pfister(PfisterSpec(K2, tuple(slots), quad))
        v = decide_isotropy(pi)
        if v.is_unknown:
            continue
        if v.is_isotropic:
            assert witt_decompose(pi).witt_index == pi.dim // 2
        else:
            assert witt_decompose(pi).witt_index == 0


# --- dimension 5 ---------------------------------------------------------------------

def test_neighbor5_yes_with_witness():
    phi = form(K2, "[1,1]+s*[1,1]+<t>")
    nv = neighbor_dim5(phi)
    assert nv.is_yes
    assert nv.spec is not None
    # witness replays through the independent subform criterion
    pi = make_pfister(nv.spec)
    assert decide_isotropy(pi).is_anisotropic
    big = witt_decompose(
        QuadraticForm(K2, scale(nv.lam, pi).blocks + phi.blocks,
                      phi.quasilinear))
    assert big.witt_index >= phi.dim


def test_neighbor5_no_for_division_c0():
    phi = form(K3, "[1,1]+t*[1,1+s^-1]+<u>")
    nv = neighbor_dim5(phi)
    assert nv.status == "no"
    assert nv.rule == "splitting-index-zero"


def test_neighbor5_isotropic_short_circuit():
    phi = form(F2, "[1,1]+[1,1]+<1>")
    nv = neighbor_dim5(phi)
    assert nv.status == "no" and nv.rule == "not-anisotropic"


def test_neighbor5_scaling_stability():
    rng = random.Random(7)
    phi = form(K2, "[1,1]+s*[1,1]+<t>")
    for _ in range(4):
        lam = random_unit(K2, rng)
        assert neighbor_dim5(scale(lam, phi)).status == "yes"


# --- dimension 6 ---------------------------------------------------------------------

def test_neighbor6_albert_is_no():
    qa = form(K3, "[1,1] + t*[1,1+s^-1] + u*[1,s^-1]")
    nv = neighbor_dim6(qa)
    assert nv.status == "no" and nv.rule == "albert-form"


def test_neighbor6_yes_over_discriminant():
    phi = form(K2, "[1,1]+s*[1,1]+t*[1,1]")
    nv = neighbor_dim6(phi)
    assert nv.status == "yes"
    assert nv.rule == "hyperbolic-over-Z"


def test_neighbor6_wild_arf_unknown():
    phi = form(K3, "[1,1] + t*[1,1+s^-1] + u*[1,1]")
    assert decide_isotropy(phi).is_anisotropic
    assert not arf(phi).is_zero()
    nv = neighbor_dim6(phi)
    assert nv.status == "unknown"
    assert nv.rule == "discriminant-unsupported"


# --- dimensions 7 and 8 -----------------------------------------------------------------

def test_neighbor_high_self_candidate():
    pi = form(K2, "pf(s,t;1)")
    sp = spec(K2, ["s", "t"], "1")
    nv = neighbor_high(pi, candidate=(K2.one(), sp))
    assert nv.is_yes and nv.rule == "candidate-verified"


def test_neighbor_high_arf_obstruction():
    phi = form(K2, "[1,1]+s*[1,1]+t*[1,1]+[1,s]")
    if decide_isotropy(phi).is_anisotropic and not arf(phi).is_zero():
        nv = neighbor_high(phi)
        assert nv.status == "no" and nv.rule == "arf-obstruction"


def test_neighbor_high_dim7_subform():
    # drop one coordinate line from pf(s,t;1): a 7-dimensional neighbor
    pi = form(K2, "pf(s,t;1)")
    # restriction to the span missing the last y-coordinate: blocks of pi
    # except the last, plus the <a> line of the last block
    blocks = pi.blocks[:-1]
    a_last = pi.blocks[-1][0]
    phi7 = QuadraticForm(K2, blocks, (a_last,))
    assert phi7.dim == 7
    sp = spec(K2, ["s", "t"], "1")
    nv = neighbor_high(phi7, candidate=(K2.one(), sp))
    assert nv.is_yes


def test_neighbor_high_candidate_rejection_stays_unknown():
    phi = form(K2, "pf(s,t;1)")
    bad = spec(K2, ["s", "s"], "1")   # hyperbolic candidate: never verifies
    nv = neighbor_high(phi, candidate=(K2.one(), bad))
    assert nv.status == "unknown"


def test_neighbor_consistency_with_splitting_index():
    # Every decided dim-5 verdict matches s(phi) in {0,1}
    from qf2.clifford import splitting_index
    for text, K in [("[1,1]+s*[1,1]+<t>", K2),
                    ("[1,1]+t*[1,1]+<s>", K2)]:
        phi = form(K, text)
        if not decide_isotropy(phi).is_anisotropic:
            continue
        nv = neighbor_dim5(phi)
        res = splitting_index(phi)
        if nv.status in ("yes", "no") and res.resolved:
            assert (nv.status == "yes") == (res.s == 1)


# --- witness search -----------------------------------------------------------------

def _search_corpus():
    """(name, phi): the acceptance forms of dims 5-8, seeded tame forms of
    dims 5-8 over F2((t)) and F2((s))((t)), a dim-5 form over F4((t)), and a
    scaled neighbour over F2((s))((t))((u)) whose witness is the 11th lam
    tried against an anisotropic Pfister form."""
    pf8 = form(K2, "pf(s,t;1)")
    out = [("dim5-neighbour", form(K2, "[1,1]+s*[1,1]+<t>")),
           ("dim6-neighbour", form(K2, "[1,1]+s*[1,1]+t*[1,1]")),
           ("dim7-neighbour",
            QuadraticForm(K2, pf8.blocks[:-1], (pf8.blocks[-1][0],))),
           ("dim8-pfister", pf8)]
    rng = random.Random(18)
    for K in (K1, K2):
        for blocks, ql in ((2, 1), (3, 0), (3, 1), (4, 0)):
            out.append((f"tame-L{K.level}-dim{2 * blocks + ql}",
                        random_tame_form(K, rng, blocks, quasilinear=ql)))
    out.append(("F4-dim5", random_tame_form(parse_field("F4((t))"), rng, 2,
                                            quasilinear=1)))
    out.append(("L3-scaled-neighbour", form(K3, "t*[1,1]+t*s*[1,1]+<t*u>")))
    return out


def _search_built(search, phi):
    """search(phi) and the specs it passed to pfister.make_pfister."""
    built = []
    real = pfister.make_pfister

    def spy(sp):
        built.append(sp)
        return real(sp)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pfister, "make_pfister", spy)
        return search(phi), built


def _compare_searches(corpus):
    """(name, pruned, full) per form: each a (result, built specs) pair."""
    return [(name, _search_built(pfister._search_witness, phi),
             _search_built(pfister_oracle.search_witness, phi))
            for name, phi in corpus]


@pytest.fixture(scope="module")
def default_budget_searches():
    return _compare_searches(_search_corpus())


@pytest.mark.parametrize("text", ["[1,1]+s*[1,1]+<t>",
                                  "[1,1]+s*[1,1]+t*[1,1]", "pf(s,t;1)"])
def test_search_builds_only_the_witness(text):
    # the full enumeration builds 25, 36 and 64 forms before <<s,t;1]]
    found, built = _search_built(pfister._search_witness, form(K2, text))
    assert found == (K2.one(), spec(K2, ["s", "t"], "1"))
    assert built == [found[1]]


def _assert_same_search(searches):
    for name, (found, built), (ref, ref_built) in searches:
        assert found == ref, name
        # same order: the pruned search builds a subsequence of the grid
        rest = iter(ref_built)
        assert all(sp in rest for sp in built), name
    assert {found is None for _, (found, _), _ in searches} == {True, False}


def test_search_matches_full_enumeration(default_budget_searches):
    _assert_same_search(default_budget_searches)


@pytest.mark.parametrize("budget", [8, 40])
def test_search_matches_full_enumeration_on_a_small_budget(monkeypatch,
                                                           budget):
    monkeypatch.setattr(pfister, "_SEARCH_BUDGET", budget)
    _assert_same_search(_compare_searches(_search_corpus()))


def test_search_budget_counts_lam_tries_only(monkeypatch):
    # 88 specs skipped or isotropic and 10 lam rejected before the witness
    phi = form(K3, "t*[1,1]+t*s*[1,1]+<t*u>")
    witness = (K3.element("t"), spec(K3, ["s", "u"], "1"))
    for search in (pfister._search_witness, pfister_oracle.search_witness):
        monkeypatch.setattr(pfister, "_SEARCH_BUDGET", 10)
        assert search(phi) is None
        monkeypatch.setattr(pfister, "_SEARCH_BUDGET", 11)
        assert search(phi) == witness


def test_skipped_candidates_are_hyperbolic(default_budget_searches):
    skipped = set()
    for _, (_, built), (_, ref_built) in default_budget_searches:
        skipped.update(set(ref_built) - set(built))
    assert skipped
    for sp in skipped:
        pi = make_pfister(sp)
        assert not decide_isotropy(pi).is_anisotropic, sp
        try:
            index = witt_decompose(pi).witt_index
        except Undecided:
            continue
        assert index == 4, sp
