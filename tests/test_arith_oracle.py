"""Field arithmetic against an independent implementation: sympy's rational
function field F_2(s, t).

Operands are drawn by hypothesis as nested coefficient lists and built on
both sides from those lists; the library's results are converted to sympy
from their raw (num, den) tuples and compared with sympy's own results.
F2((t)) is mapped into F_2(t) and F2((s))((t)) into F_2(s, t).
"""

from collections import Counter

import sympy
from hypothesis import given, settings, strategies as st

from qf2.errors import DegreeOverflow

from helpers import K1, K2

QF, S, T = sympy.field("s,t", sympy.GF(2))
SYM_VARS = {1: (T,), 2: (S, T)}


def coeff_lists(level, deg, nonzero=True):
    """A polynomial in the top variable of degree <= deg: a list of
    lower-level coefficients, 0/1 at level 1 and lists of 0/1 (a polynomial
    in s) at level 2.  A nonzero one ends in a nonzero coefficient."""
    bits = st.lists(st.integers(0, 1), max_size=3)
    inner = st.integers(0, 1) if level == 1 else bits
    lead = st.just(1) if level == 1 else bits.map(lambda b: b + [1])
    if not nonzero:
        return st.lists(inner, max_size=deg + 1)
    return st.tuples(st.lists(inner, max_size=deg), lead).map(
        lambda p: p[0] + [p[1]])


def build(K, coeffs):
    """The library element sum_i c_i t^i, by FieldElem arithmetic."""
    t = K.var(K.top_variable)
    acc = K.zero()
    for i, c in enumerate(coeffs):
        term = K.from_base(c) if K.level == 1 else \
            build(K.lower(), c).lift_to(K)
        acc = acc + term * t ** i
    return acc


def build_sympy(syms, coeffs):
    """The same element in sympy, from the same lists."""
    acc = QF.zero
    for i, c in enumerate(coeffs):
        term = QF(c) if len(syms) == 1 else build_sympy(syms[:-1], c)
        acc = acc + term * syms[-1] ** i
    return acc


def raw_to_sympy(data, syms):
    """A raw (num, den) tuple of the library over the tower with variables
    syms (innermost first), converted coefficient by coefficient."""
    if not syms:
        return QF(data)
    num, den = data

    def poly(p):
        return sum((raw_to_sympy(c, syms[:-1]) * syms[-1] ** i
                    for i, c in enumerate(p)), QF.zero)
    return poly(num) / poly(den)


def run_against_sympy(level, deg, examples):
    """Check a*b + a/b, a**2 + b and (a + b) * b.inverse() on hypothesis
    operands a = na/da, b = nb/db (polynomials of degree <= deg, only na
    may be zero); returns the tally of checked and overflowing cases."""
    K = {1: K1, 2: K2}[level]
    syms = SYM_VARS[level]
    tally = Counter(checked=0, overflow=0)
    nonzero = coeff_lists(level, deg)

    @given(coeff_lists(level, deg, nonzero=False), nonzero, nonzero, nonzero)
    @settings(derandomize=True, deadline=None, database=None,
              max_examples=examples)
    def check(na, da, nb, db):
        sa = build_sympy(syms, na) / build_sympy(syms, da)
        sb = build_sympy(syms, nb) / build_sympy(syms, db)
        try:
            a = build(K, na) / build(K, da)
            b = build(K, nb) / build(K, db)
            got = (a * b + a / b, a ** 2 + b, (a + b) * b.inverse())
        except DegreeOverflow:
            tally["overflow"] += 1
            return
        assert raw_to_sympy(a.data, syms) == sa
        assert raw_to_sympy(b.data, syms) == sb
        want = (sa * sb + sa / sb, sa ** 2 + sb, (sa + sb) / sb)
        for x, y in zip(got, want):
            assert raw_to_sympy(x.data, syms) == y
        tally["checked"] += 1

    check()
    print(f"level {level}: {dict(sorted(tally.items()))}")
    return tally


def test_level1_matches_sympy():
    # F2((t)): the packed level; products stay far below the degree cap
    tally = run_against_sympy(1, 10, 100)
    assert tally == Counter(checked=100, overflow=0)


def test_level2_matches_sympy():
    # F2((s))((t)): level-1 coefficients; overflows are counted, not hidden,
    # and the derandomized sample's tally is pinned so that a new one shows
    tally = run_against_sympy(2, 2, 60)
    assert tally == Counter(checked=60, overflow=0)
