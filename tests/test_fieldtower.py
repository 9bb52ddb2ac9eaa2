"""Field-tower arithmetic: exactness, valuations, squares, wp classes."""

import copy
import json
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qf2 import _kernel
from qf2.errors import DegreeOverflow, FieldMismatch, ZeroElement
from qf2.fieldtower import (FieldDescriptor, frobenius_components, is_square,
                            parse_element, parse_field, quad_extend,
                            render_element, unit_residue, valuation_split,
                            wp_member, wp_reduce, wp_root)
from qf2.forms import parse_form
from qf2.witt import decide_isotropy

from helpers import K1, K2, K3, checkout_env, random_elem, run_optimized


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
from qf2 import _kernel, fieldtower
from qf2.errors import SoundnessError
if not sys.flags.optimize:
    sys.exit(2)
K = fieldtower.parse_field("F2((t))")
prefix = _kernel._series_prefix
# keep only the leading coefficient: the discarded tail is the constant 1
_kernel._series_prefix = lambda x, upto: (prefix(x, upto)[0],
                                          prefix(x, upto)[1][:1])
try:
    fieldtower.wp_reduce(fieldtower.parse_element(K, "t^-1 + 1"))
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
    assert r.kind == "field" and r.delta == K1.one()
    assert r.new_field.base_exponent == 2
    # T^2 + T = 1 has a root in F_4
    th = wp_root(r.embed(r.delta))
    assert th is not None and th * th + th == r.new_field.one()


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
    assert r.kind == "unsupported" and r.new_field is None
    with pytest.raises(FieldMismatch, match="ramified"):
        r.embed(t)


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


# --- pinned kernel outputs --------------------------------------------------------

def test_kernel_pinned():
    # tests/data/kernel_pinned.json (make_kernel_pinned.py) was recorded
    # with the generic _FracOps at every level, before level 1 over F2 was
    # computed on packed ints; 45 of its 300 items overflow
    entries = json.loads((Path(__file__).parent / "data" /
                          "kernel_pinned.json").read_text())
    assert len(entries) == 300
    assert sum("overflow" in e for e in entries) == 45
    for e in entries:
        K = parse_field(e["field"])
        na, da, nb, db = (parse_element(K, p) for p in e["polys"])
        try:
            a = na / da
            b = nb / db
            got = {"x": render_element(a * b + a / b),
                   "y": render_element(a ** 2 + b),
                   "square": is_square(a)[0],
                   "wp": wp_reduce(a).to_json(),
                   "val": valuation_split(a)[0]}
        except DegreeOverflow as exc:
            got = {"overflow": str(exc)}
        want = {k: v for k, v in e.items()
                if k not in ("field", "degree", "polys")}
        assert got == want, (e["field"], e["polys"])


# --- packed level 1 over F2 against the generic level ----------------------------

PACKED_METHODS = ("pmul", "canon", "add", "mul")   # inv is the generic one


def _outcome(ops, name, args):
    try:
        return "ok", getattr(ops, name)(*args)
    except (DegreeOverflow, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def packed_level_mismatches(seed, rounds):
    """(method, args) on which the packed level-1 ops over F2 and a directly
    built generic _FracOps(_gf(1)) disagree; each call must return an equal
    value, or raise the same exception with the same message on both.

    Polynomials are trimmed 0/1 tuples of degree 0..40, or (); products of
    such polynomials cross the degree cap, so the overflow points are
    compared too.  Returns [] when the two agree.
    """
    generic = _kernel._FracOps(_kernel._gf(1))
    packed = _kernel._ops_key(1, 1)
    rng = random.Random(seed)

    def poly(nonzero=False):
        if not nonzero and rng.random() < 0.05:
            return ()
        return tuple(rng.randrange(2) for _ in range(rng.randrange(41))) + (1,)

    def frac():
        return generic.canon(poly(), poly(nonzero=True))

    bad = []
    seen = dict.fromkeys(PACKED_METHODS + ("inv",), 0)
    for _ in range(rounds):
        p, q, r = poly(), poly(), poly(nonzero=True)
        x, y = frac(), frac()
        calls = (("pmul", (p, q)), ("pmul", ((1,), p)),
                 ("canon", (p, r)), ("canon", (p, ())),
                 ("add", (x, y)), ("add", (x, (p, x[1]))), ("mul", (x, y)),
                 ("inv", (x,)),
                 ("add", (x, generic.zero)), ("add", (generic.zero, x)),
                 ("mul", (x, generic.zero)), ("mul", (generic.zero, x)),
                 ("mul", (x, generic.one)), ("mul", (generic.one, x)))
        for name, args in calls:
            seen[name] += 1
            if _outcome(generic, name, args) != _outcome(packed, name, args):
                bad.append((name, args))
    overridden = {n for n in vars(type(packed)) if not n.startswith("_")}
    if overridden != set(PACKED_METHODS) or not all(seen.values()):
        bad.append(("setup", ()))
    return bad


def test_packed_level_matches_generic():
    assert packed_level_mismatches(8, 400) == []


def test_packed_level_cap_boundary():
    generic = _kernel._FracOps(_kernel._gf(1))
    packed = _kernel._ops_key(1, 1)
    ones32, ones33 = (1,) * 33, (1,) * 34   # degree 32: 33 pairs at t^32
    assert packed.pmul(ones32, ones32) == generic.pmul(ones32, ones32)
    assert len(packed.pmul(ones32, ones32)) == 65       # degree 64
    for ops in (generic, packed):
        with pytest.raises(DegreeOverflow) as exc:
            ops.pmul(ones32, ones33)
        assert str(exc.value) == "degree 65 exceeds cap 64"
        with pytest.raises(DegreeOverflow) as exc:
            ops.mul((ones32, (1,)), (ones33, (1,)))
        assert str(exc.value) == "degree 65 exceeds cap 64"
    rng = random.Random(70)
    p70 = tuple(rng.randrange(2) for _ in range(70)) + (1,)
    for ops in (generic, packed):
        assert ops.pmul((1,), p70) == p70 and ops.pmul(p70, (1,)) == p70
        assert ops.mul(((1,), (1,)), (p70, (1,))) == (p70, (1,))


PACKED_UNDER_O = """
import sys
sys.path.insert(0, {tests!r})
from test_fieldtower import packed_level_mismatches
if not sys.flags.optimize:
    sys.exit(2)
sys.exit(3 if packed_level_mismatches(9, 100) else 0)
"""


def test_packed_level_matches_generic_under_O():
    proc = run_optimized(PACKED_UNDER_O.format(
        tests=str(Path(__file__).resolve().parent)))
    assert proc.returncode == 0, proc.stderr


CARRY_GUARD = """
import sys
import types
from pathlib import Path
import qf2._kernel as ft
from qf2.errors import SoundnessError
if not sys.flags.optimize:
    sys.exit(2)
source = Path(ft.__file__).read_text()
if "DEFAULT_DEGREE_CAP = 64\\n" not in source:
    sys.exit(4)

def load(cap):
    mod = types.ModuleType("qf2._kernel_probe")
    mod.__package__ = "qf2"
    sys.modules[mod.__name__] = mod
    code = source.replace("DEFAULT_DEGREE_CAP = 64\\n",
                          f"DEFAULT_DEGREE_CAP = {cap}\\n")
    exec(compile(code, ft.__file__, "exec"), mod.__dict__)

load(508)            # at most 255 pairs per byte: no carry
try:
    load(510)        # 256 pairs would carry into the next byte
except SoundnessError:
    sys.exit(3)
sys.exit(1)
"""


def test_packed_carry_guard_raises_under_O():
    proc = run_optimized(CARRY_GUARD)
    assert proc.returncode == 3, proc.stderr


# --- free identities and the descriptor's ops handle -------------------------------

@pytest.mark.parametrize("text", ["F8", "F2((t))", "F4((t))", "F2((s))((t))",
                                  "F2((s))((t))((u))"])
def test_identities_return_an_operand(text):
    """x+0, 0+x, x*1 and 1*x are x, and x*0, 0*x are 0: the operand itself
    above level 0, and what canon's re-reduction of x gives wherever that
    succeeds (at level >= 2 its gcd may overflow the degree cap)."""
    K = parse_field(text)
    zero, one = K.zero(), K.one()
    rng = random.Random(31)
    rereduced = 0
    for _ in range(40):
        x = random_elem(K, rng, deg=2, nonzero=True)
        cases = ((x + zero, x), (zero + x, x), (x * one, x), (one * x, x),
                 (x * zero, zero), (zero * x, zero), (zero + zero, zero),
                 (one * one, one))
        for got, want in cases:
            assert got == want
            assert K.level == 0 or any(got is c for c in (x, zero, one))
        if K.level:
            try:
                again = K._ops.canon(*x.data)
            except DegreeOverflow:
                continue
            assert again == x.data
            rereduced += 1
    assert rereduced >= 30 or K.level == 0


@pytest.mark.parametrize("K", [parse_field("F2"), K1, parse_field("F4((t))"),
                               K2, K3])
def test_descriptor_pickles_without_its_ops(K):
    data = pickle.dumps(K)
    assert b"Ops" not in data and b"GF2e" not in data
    back = pickle.loads(data)
    assert back == K and hash(back) == hash(K) and repr(back) == repr(K)
    assert back._ops is _kernel._ops_key(K.base_exponent, K.level)
    assert back.one() + back.one() == K.zero()


def test_form_pickles_without_its_facts():
    phi = parse_form(K2, "[1,1]+t*[1,1]+<t>")
    v = decide_isotropy(phi)     # kept in phi's memo
    data = pickle.dumps(phi)
    assert b"_facts" not in data
    back = pickle.loads(data)
    assert back == phi and hash(back) == hash(phi) and repr(back) == repr(phi)
    assert not getattr(back, "_facts", {})
    assert decide_isotropy(back).to_json() == v.to_json()


def test_equal_descriptors_built_apart_still_meet():
    A, B = FieldDescriptor(1, ("s", "t")), parse_field("F2((s))((t))")
    assert A is not B and A == B and A._ops is B._ops
    s, t = A.var("s"), B.var("t")
    assert s + t == elem(A, "s+t") and s * t == elem(B, "s*t")
    assert t / s == elem(A, "t/s")
    for x, y in ((K1.one(), K2.one()), (K1.var("t"), elem(K2, "t")),
                 (elem(parse_field("F4((t))"), "g"), K1.one())):
        for op in (lambda a, b: a + b, lambda a, b: a * b,
                   lambda a, b: a / b):
            with pytest.raises(FieldMismatch):
                op(x, y)



# --- the element handle and interned descriptors ------------------------------------

ELEMENT_IMMUTABLE = """
import sys
from qf2.fieldtower import parse_element, parse_field
if not sys.flags.optimize:
    sys.exit(2)
K = parse_field("F2((s))((t))")
x = parse_element(K, "s/t+1")
for attr, value in (("data", K.one().data), ("field", parse_field("F2"))):
    try:
        setattr(x, attr, value)
    except AttributeError:
        pass
    else:
        sys.exit(3)
    try:
        delattr(x, attr)
    except AttributeError:
        pass
    else:
        sys.exit(4)
sys.exit(0 if x == parse_element(K, "s/t+1") and x.field is K else 5)
"""


def test_element_refuses_assignment_and_deletion():
    x = elem(K2, "s/t+1")
    for attr, value in (("data", K2.one().data), ("field", K1)):
        with pytest.raises(AttributeError):
            setattr(x, attr, value)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    with pytest.raises(AttributeError):
        x.other = 1
    assert x == elem(K2, "s/t+1") and x.field is K2
    assert not hasattr(x, "__dict__")


def test_element_refuses_assignment_under_O():
    proc = run_optimized(ELEMENT_IMMUTABLE)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("text", ["F8", "F2((t))", "F4((t))", "F2((s))((t))",
                                  "F2((s))((t))((u))"])
def test_element_round_trips_to_the_interned_descriptor(text):
    K = parse_field(text)
    x = random_elem(K, random.Random(5), deg=2, nonzero=True)
    for back in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                 copy.deepcopy(x)):
        assert back == x and hash(back) == hash(x)
        assert back.field is K and back.field is _kernel.intern_field(
            K.base_exponent, K.variables)
    # an element of a descriptor built apart comes back on the interned one
    apart = FieldDescriptor(K.base_exponent, K.variables)
    y = pickle.loads(pickle.dumps(apart.one()))
    assert y.field is K and y == apart.one() == K.one()


def test_descriptors_are_interned():
    for text in ("F2", "F4((t))", "F2((s))((t))", "F2((s))((t))((u))"):
        K = parse_field(text)
        assert parse_field(text) is K
        assert K.zero() is K.zero() and K.one() is K.one()
        for v in K.variables:
            assert K.var(v) is K.var(v)
        if K.level:
            assert K.lower() is K.lower()
            assert K.lower() is parse_field(K.lower().render())
    with pytest.raises(ValueError):
        K2.var("u")


def test_quad_extend_field_is_interned():
    ext = quad_extend(K1, K1.one())
    assert ext.kind == "field"
    assert ext.new_field is parse_field("F4((t))")
    assert quad_extend(K1, K1.one()).new_field is ext.new_field


# --- embedding root ---------------------------------------------------------------

def scan_embedding_table(e, e2):
    """The embedding table by scanning F_{2^e2} for the least root of
    modulus(e), element by element."""
    big = _kernel._gf(e2)
    mod = _kernel._modulus(e)
    for rho in range(big.q):
        acc, val = 1, 0
        for i in range(e + 1):
            if (mod >> i) & 1:
                val ^= acc
            acc = big.mul(acc, rho)
        if val == 0:
            break
    table, acc = [], 1
    for _ in range(e):
        table.append(acc)
        acc = big.mul(acc, rho)
    return tuple(table)


def trial_division_modulus(e):
    """The least irreducible of degree e: the first candidate that no
    polynomial of degree 1..e//2 divides."""
    for f in range(1 << e, 1 << (e + 1)):
        if all(_kernel._poly2_rem(f, d)
               for d in range(2, 1 << (e // 2 + 1))):
            return f


def test_modulus_matches_trial_division():
    for e in range(1, 21):
        assert _kernel._modulus.__wrapped__(e) == \
            trial_division_modulus(e), e


def test_parse_field_F2_64_is_fast():
    # trial division never finished the degree-64 modulus
    code = ("import time; t0 = time.perf_counter(); "
            "from qf2.fieldtower import parse_field; "
            "K = parse_field('F2^64((t))'); "
            "print(time.perf_counter() - t0, K.one() + K.generator())")
    proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    seconds, element = proc.stdout.split()
    assert float(seconds) < 1.0 and element == "g+1"


def test_embedding_table_matches_scan():
    pairs = [(e, e2) for e2 in range(1, 11) for e in range(1, e2 + 1)
             if e2 % e == 0]
    assert len(pairs) == 27
    for e, e2 in pairs:
        assert _kernel._embedding_table(e, e2) == \
            scan_embedding_table(e, e2), (e, e2)


def test_discriminant_algebra_over_F2_12_is_fast():
    # the scan took about 45 s here: F_2^24 has 2^24 elements
    from time import perf_counter
    from qf2.forms import discriminant_algebra, parse_form
    K = parse_field("F2^12((t))")
    x = _kernel._canonical_trace_one(12)
    t0 = perf_counter()
    disc = discriminant_algebra(parse_form(K, f"[1,{x}]"))
    assert perf_counter() - t0 < 2.0
    assert disc.kind == "field"
    assert disc.new_field == FieldDescriptor(24, ("t",))
    alpha = disc.embed(disc.delta)
    theta = wp_root(alpha)
    assert theta is not None and theta * theta + theta == alpha


# --- finite-field closed forms ----------------------------------------------

def test_canonical_trace_one_matches_scan():
    for e in range(1, 17):
        gf = _kernel._gf(e)
        scan = next(x for x in range(1, gf.q) if gf.trace(x) == 1)
        assert _kernel._canonical_trace_one(e) == scan, e
    assert _kernel._canonical_trace_one(20) == 1 << 17
    assert _kernel._canonical_trace_one(24) == 1 << 21


def test_wp_solve_exhaustive():
    # the root with bit 0 clear, the one the bit elimination's free column
    # picked; None exactly on trace 1
    for e in range(1, 11):
        gf = _kernel._gf(e)
        for c in range(gf.q):
            z = gf.wp_solve(c)
            if gf.trace(c):
                assert z is None, (e, c)
            else:
                assert gf.wp_image(z) == c and z & 1 == 0, (e, c)


def test_wp_class_representative_over_F2_20_is_fast():
    # the representative of a tame wp class is the trace-one element
    from time import perf_counter
    from qf2.forms import parse_form
    from qf2.witt import decide_isotropy
    K = parse_field("F2^20((t))")
    _kernel._canonical_trace_one.cache_clear()
    t0 = perf_counter()
    v = decide_isotropy(parse_form(K, f"[1,t^-2+t^-1+{1 << 17}]+<t>"))
    assert perf_counter() - t0 < 2.0
    assert not v.is_unknown
