"""Field-tower arithmetic: exactness, valuations, squares, wp classes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qf2.errors import ZeroElement
from qf2.fieldtower import (FieldDescriptor, frobenius_components, is_square,
                            parse_element, parse_field, quad_extend,
                            render_element, unit_residue, valuation_split,
                            wp_member, wp_reduce, wp_root)

from helpers import K1, K2, random_elem, run_optimized


def elem(K, text):
    return parse_element(K, text)


# --- independent oracles ----------------------------------------------------

def series_by_long_division(K, num, den, upto):
    """Laurent coefficients of num/den up to t^upto, by naive long division.

    Independent of the library's _series_prefix: repeatedly subtract the
    smallest term.  num, den are FieldElems that are polynomials in the top
    variable (denominator with nonzero constant term).
    """
    t = K.var(K.top_variable)
    coeffs = []
    rem = num
    for i in range(upto + 1):
        # constant coefficient of rem / den at order i
        if rem.is_zero():
            coeffs.append(K.zero())
            continue
        v, u = valuation_split(rem)
        if v > i:
            coeffs.append(K.zero())
            continue
        assert v == i, "remainder lost exactness"
        c = unit_residue(u) / unit_residue(valuation_split(den)[1])
        cl = c.lift_to(K)
        coeffs.append(cl)
        rem = rem + cl * t ** i * den
    return coeffs


def hensel_wp_root_truncation(K, a, n):
    """z_n = a + a^2 + a^4 + ... (n doublings); solves wp(z) = a up to order 2^n
    when v(a) >= 1."""
    z = K.zero()
    p = a
    for _ in range(n):
        z = z + p
        p = p * p
    return z


# --- valuation_split --------------------------------------------------------

def test_valuation_monomial():
    t = K1.var("t")
    v, u = valuation_split(t)
    assert v == 1 and u == K1.one()


def test_valuation_reduced_fraction():
    s, t = K2.var("s"), K2.var("t")
    x = (s + t) / t ** 2
    v, u = valuation_split(x)
    assert v == -2
    assert u == s + t
    assert unit_residue(u) == K2.lower().var("s")


def test_valuation_unit_residue_by_division_oracle():
    t = K1.var("t")
    x = K1.one() / (K1.one() + t)
    v, u = valuation_split(x)
    assert v == 0
    # oracle: long division of 1 by (1+t) gives 1 + t + t^2 + ...
    coeffs = series_by_long_division(K1, K1.one(), K1.one() + t, 3)
    assert coeffs == [K1.one(), K1.one(), K1.one(), K1.one()]
    assert unit_residue(u).lift_to(K1) == coeffs[0]


def test_valuation_of_zero_raises():
    with pytest.raises(ZeroElement):
        valuation_split(K1.zero())


def test_valuation_is_a_valuation():
    rng = random.Random(7)
    for _ in range(60):
        x = random_elem(K2, rng, nonzero=True)
        y = random_elem(K2, rng, nonzero=True)
        vx, _ = valuation_split(x)
        vy, _ = valuation_split(y)
        vxy, _ = valuation_split(x * y)
        assert vxy == vx + vy
        if not (x + y).is_zero():
            vsum, _ = valuation_split(x + y)
            assert vsum >= min(vx, vy)
            if vx != vy:
                assert vsum == min(vx, vy)


# --- is_square ---------------------------------------------------------------

def test_square_monomial():
    t = K1.var("t")
    ok, root = is_square(t * t)
    assert ok and root == t


def test_nonsquare_odd_valuation():
    ok, root = is_square(K1.var("t"))
    assert not ok and root is None


def test_square_root_verified_by_multiplication():
    t = K1.var("t")
    x = (K1.one() + t * t) / t ** 4
    ok, root = is_square(x)
    assert ok
    assert root * root == x
    assert root == (K1.one() + t) / t ** 2


def test_frobenius_additivity():
    rng = random.Random(3)
    for _ in range(50):
        x = random_elem(K2, rng)
        y = random_elem(K2, rng)
        assert (x + y) * (x + y) == x * x + y * y
        ok, root = is_square(x * x)
        assert ok and root == x


@given(st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_square_roundtrip_property(seed):
    rng = random.Random(seed)
    x = random_elem(K2, rng)
    ok, root = is_square(x.square())
    assert ok and root == x


# --- wp_reduce / wp_member ----------------------------------------------------

def test_wp_of_uniformizer_is_zero():
    t = K1.var("t")
    assert wp_member(t)
    # oracle: truncated Hensel root z_n has wp(z_n) = t + t^(2^n)
    for n in (2, 3, 4):
        z = hensel_wp_root_truncation(K1, t, n)
        err = z * z + z + t
        v, _ = valuation_split(err)
        assert v == 2 ** n


def test_wp_pole_of_odd_order_is_wild():
    t = K1.var("t")
    cls = wp_reduce(t ** -1)
    assert not cls.is_zero()
    assert [e for e, _ in cls.wild] == [-1]
    # oracle: no z = p/t^k with deg p <= 6, k <= 3 satisfies z^2+z = 1/t
    target = t ** -1
    found = False
    for k in range(0, 4):
        for bits in range(1 << 7):
            p = K1.zero()
            for i in range(7):
                if (bits >> i) & 1:
                    p = p + t ** i
            z = p * t ** -k
            if z * z + z == target:
                found = True
    assert not found


def test_wp_even_pole_nonsquare_coefficient():
    s, t = K2.var("s"), K2.var("t")
    cls = wp_reduce(s * t ** -2)
    assert [e for e, _ in cls.wild] == [-2]
    assert cls.wild[0][1] == K2.lower().var("s")
    # cross-check small search finds no root
    rng = random.Random(11)
    for _ in range(200):
        z = random_elem(K2, rng, deg=2)
        assert z * z + z != s * t ** -2


def test_wp_even_pole_square_coefficient_cascades():
    t = K1.var("t")
    # 1/t^2 = wp(1/t) + 1/t: class has only the odd pole left
    cls = wp_reduce(t ** -2)
    assert [e for e, _ in cls.wild] == [-1]
    assert wp_member(t ** -2 + t ** -1)


PATCHED_PREFIX = """
import sys
from qf2 import fieldtower
from qf2.errors import SoundnessError
if not sys.flags.optimize:
    sys.exit(2)
K = fieldtower.parse_field("F2((t))")
prefix = fieldtower._series_prefix
# keep only the leading coefficient: the discarded tail is the constant 1
fieldtower._series_prefix = lambda x, upto: (prefix(x, upto)[0],
                                             prefix(x, upto)[1][:1])
try:
    fieldtower.wp_reduce(K.element("t^-1 + 1"))
except SoundnessError:
    sys.exit(3)
sys.exit(1)
"""


def test_wp_reduce_principal_part_check_survives_O():
    proc = run_optimized(PATCHED_PREFIX)
    assert proc.returncode == 3, proc.stderr


def test_wp_member_trivia():
    assert wp_member(K1.zero())
    assert not wp_member(K1.one())  # Tr_F2(1) = 1
    t = K1.var("t")
    assert wp_member(t ** 2 + t ** 4)


def test_wp_root():
    # wp_root finds the roots that are Laurent polynomials in t (here with
    # coefficients in F2[s]; negative powers of s too make z*z overflow)
    rng = random.Random(23)
    s, t = K2.var("s"), K2.var("t")
    for _ in range(20):
        z = K2.zero()
        for k in range(-4, 3):
            for j in range(2):
                if rng.random() < 0.3:
                    z = z + s ** j * t ** k
        a = z * z + z
        r = wp_root(a)
        assert r is not None and r * r + r == a
    assert wp_root(t ** -1) is None               # odd pole: wild class
    assert wp_root(K2.var("s") * t ** -2) is None  # non-square even pole


def test_wp_additivity_of_classes():
    rng = random.Random(19)
    for _ in range(40):
        a = random_elem(K2, rng)
        b = random_elem(K2, rng)
        lhs = wp_reduce(a).plus(wp_reduce(b))
        assert lhs.same_class(wp_reduce(a + b))


@given(st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_wp_kills_image_property(seed):
    rng = random.Random(seed)
    K = rng.choice([K1, K2])
    g = random_elem(K, rng)
    assert wp_member(g * g + g)


def test_wp_reduce_invariant_under_wp_shift():
    rng = random.Random(23)
    for _ in range(30):
        a = random_elem(K2, rng)
        g = random_elem(K2, rng)
        c1 = wp_reduce(a)
        c2 = wp_reduce(a + g * g + g)
        assert c1.same_class(c2)
        assert c1.is_zero() == c2.is_zero()
        assert c1.is_tame() == c2.is_tame()


# --- quad_extend ---------------------------------------------------------------

def test_quad_extend_split():
    t = K1.var("t")
    assert quad_extend(K1, t).kind == "split"


def test_quad_extend_unramified():
    r = quad_extend(K1, K1.one())
    assert r.kind == "unramified"
    assert r.new_field.base_exponent == 2
    # theta solves T^2 + T = 1 in F_4
    th = r.theta
    assert th * th + th == r.new_field.one()


def test_quad_extend_field_equals_parsed_field():
    # the extended field is the same descriptor as the one the parser
    # builds, so its elements mix with parsed ones
    ext = quad_extend(K1, K1.one())
    K4 = parse_field("F4((t))")
    assert ext.new_field == K4
    g = elem(K4, "g")
    assert ext.embed(K1.var("t")) + g == elem(K4, "t+g")


def test_quad_extend_ramified():
    t = K1.var("t")
    r = quad_extend(K1, t ** -1)
    assert r.kind == "ramified"
    assert not r.is_supported


def test_quad_extend_stable_mod_wp():
    rng = random.Random(29)
    for _ in range(25):
        d = random_elem(K2, rng)
        g = random_elem(K2, rng)
        r1 = quad_extend(K2, d)
        r2 = quad_extend(K2, d + g * g + g)
        assert r1.kind == r2.kind


# --- frobenius components -------------------------------------------------------

def test_frobenius_decomposition_reconstructs():
    rng = random.Random(31)
    for _ in range(30):
        x = random_elem(K2, rng)
        comps = frobenius_components(x)
        acc = K2.zero()
        for mono, y in comps.items():
            m = K2.one()
            for name, eexp in zip(K2.variables, mono):
                if eexp:
                    m = m * K2.var(name)
            acc = acc + y * y * m
        assert acc == x
        for mono in comps:
            assert all(b in (0, 1) for b in mono)


# --- parsing / rendering ---------------------------------------------------------

def test_parse_field_variants():
    assert parse_field("F2((s))((t))").render() == "F2((s))((t))"
    assert parse_field("F4((t))").base_exponent == 2
    assert parse_field("F2^3").base_exponent == 3


def test_element_roundtrip():
    rng = random.Random(37)
    for _ in range(40):
        x = random_elem(K2, rng)
        assert parse_element(K2, render_element(x)) == x


def test_parse_negative_power():
    t = K1.var("t")
    assert elem(K1, "t^-2") == t ** -2
    assert elem(K1, "(1+t)/t^3") == (K1.one() + t) / t ** 3


def test_embedding_is_homomorphism():
    K4 = parse_field("F4((t))")
    rng = random.Random(41)
    for _ in range(25):
        x = random_elem(K1, rng)
        y = random_elem(K1, rng)
        assert (x + y).lift_to(K4) == x.lift_to(K4) + y.lift_to(K4)
        assert (x * y).lift_to(K4) == x.lift_to(K4) * y.lift_to(K4)


def test_wp_membership_of_images_bulk():
    # invariant suite: wp_member(wp(g)) across 1000 samples per tower
    for K, seed in ((K1, 811), (K2, 812)):
        rng = random.Random(seed)
        for _ in range(1000):
            g = random_elem(K, rng, deg=1)
            assert wp_member(g * g + g)
