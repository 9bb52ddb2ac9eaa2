"""Exact arithmetic in iterated Laurent-series towers over GF(2^e).

The supported fields are F_{2^e}((t1))...((tn)).  Computable elements are
iterated rational fractions: at level n an element is a reduced fraction of
polynomials in t_n whose coefficients are level n-1 elements; at level 0 an
element of F_{2^e} in a fixed polynomial basis (stored as an int bitmask).
Every decision procedure here (valuation, squareness, Artin-Schreier class)
is exact on this representation and answers the question for the full
Laurent field, not just for the fraction subfield.

Conventions:
  * fractions are gcd-reduced with monic denominator (in the top variable,
    with recursively canonical coefficients), so equality is structural;
  * addition is its own inverse (characteristic 2);
  * the degree of any intermediate polynomial is capped (DegreeOverflow)
    so that fraction blow-up stays observable.

Level 1 over F_2, where every coefficient is 0 or 1, is computed on packed
ints (_F2tOps): one coefficient per byte, so that a product is one integer
multiplication masked to the low bit of each byte.  Its raw data is the same
(num, den) tuples of 0/1 ints as at every other level, and its products
test the degree cap exactly where the generic code does.  The cap also
bounds how many coefficient pairs meet in one byte of a product, so that no
byte carries into the next; an import-time check keeps that bound true.

The field identities cost nothing.  At every level add with a zero operand
returns the other operand, mul with a zero operand returns the zero, and mul
with an operand equal to the one returns the other operand; FieldElem's
operators then hand back the operand itself.  This changes no output:
canonical data is unique, so an operand is, tuple for tuple, what canon
would return for it.  The only work skipped is re-reducing a fraction that
is already reduced, and at level >= 2 the coefficient gcd of that
re-reduction could raise DegreeOverflow.  So a DegreeOverflow can disappear,
but none can appear where the old code had none.  Each FieldDescriptor
resolves its level ops once, when it is built; the handle takes no part in
equality, hashing, repr or pickling, and an unpickled descriptor resolves
to the shared ops again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Optional, Union

from .errors import (DegreeOverflow, FieldMismatch, ParseError, SoundnessError,
                     TowerDepthExceeded, ZeroElement)

__all__ = [
    "FieldDescriptor", "FieldElem", "WpClass", "ExtensionResult",
    "valuation_split", "unit_residue", "is_square", "frobenius_components",
    "wp_reduce", "wp_member", "quad_extend",
    "parse_field", "parse_element", "render_element", "render_json",
    "DEFAULT_DEGREE_CAP", "DEFAULT_TOWER_CAP",
]

DEFAULT_DEGREE_CAP = 64
DEFAULT_TOWER_CAP = 4

# ---------------------------------------------------------------------------
# GF(2^e) arithmetic on int bitmasks.
#
# An element of F_{2^e} is an int < 2^e: bit i is the coefficient of x^i in
# the polynomial basis modulo a fixed irreducible polynomial (the smallest
# one of degree e in lexicographic order, computed once per exponent).

def _poly2_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly2_divmod(a: int, b: int):
    if b == 0:
        raise ZeroDivisionError
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        sh = a.bit_length() - 1 - db
        q ^= 1 << sh
        a ^= b << sh
    return q, a


def _poly2_rem(a: int, b: int) -> int:
    """a mod b, by shift-and-XOR; with no quotient built it is the cheaper
    step of a gcd."""
    if b == 0:
        raise ZeroDivisionError
    db = b.bit_length()
    sh = a.bit_length() - db
    while sh >= 0:
        a ^= b << sh
        sh = a.bit_length() - db
    return a


@lru_cache(maxsize=None)
def _modulus(e: int) -> int:
    """Smallest irreducible polynomial of degree e over F_2, as a bitmask.

    Ben-Or's test: f of degree e is irreducible iff gcd(f, x^(2^k) + x) = 1
    for k = 1..e//2, since x^(2^k) + x is the product of the irreducibles
    of degree dividing k.  For e = 1 no k is tested and the result is x
    itself (F_2[x]/(x) = F_2); from e = 2 on, k = 1 rejects x and with it
    every even candidate.
    """
    for f in range(1 << e, 1 << (e + 1)):
        x_pow = 2                       # x^(2^k) mod f
        for _ in range(e // 2):
            x_pow = _poly2_rem(_poly2_mul(x_pow, x_pow), f)
            g, h = f, x_pow ^ 2
            while h:
                g, h = h, _poly2_rem(g, h)
            if g != 1:
                break
        else:
            return f


class _GF2e:
    """Arithmetic in F_{2^e}; also the level-0 ops of every tower over it."""

    level = 0
    zero = 0
    one = 1

    def __init__(self, e: int):
        self.e = e
        self.q = 1 << e
        self.mod = _modulus(e)

    def is_zero(self, a: int) -> bool:
        return a == 0

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def is_square(self, a: int) -> bool:
        return True

    def lift_const(self, bits: int) -> int:
        return bits

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a & b
        return _poly2_rem(_poly2_mul(a, b), self.mod)

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def sqrt_exact(self, a: int) -> int:
        # Frobenius is bijective: sqrt(a) = a^(2^(e-1)).
        return self.pow(a, 1 << (self.e - 1))

    def trace(self, a: int) -> int:
        t, x = 0, a
        for _ in range(self.e):
            t ^= x
            x = self.mul(x, x)
        return t & 1 if self.e > 1 else a & 1

    def wp_image(self, a: int) -> int:
        return self.mul(a, a) ^ a

    def wp_solve(self, c: int) -> Optional[int]:
        """The root of z^2 + z = c with bit 0 clear, or None (a root exists
        iff trace 0).

        With theta of trace 1, z = sum_{i<e-1} c^(2^i) sum_{i<j<e} theta^(2^j)
        is a root (Lidl-Niederreiter); the other root is z + 1."""
        if self.trace(c):
            return None
        theta = _canonical_trace_one(self.e)
        # step i: ci = c^(2^i), conj = theta^(2^i) and tail the inner sum,
        # at i = 0 trace(theta) + theta = 1 + theta
        z, ci, conj, tail = 0, c, theta, theta ^ 1
        for _ in range(self.e - 1):
            z ^= self.mul(ci, tail)
            ci, conj = self.square(ci), self.square(conj)
            tail ^= conj
        z &= ~1
        if self.wp_image(z) != c:
            raise SoundnessError("wp_solve root check failed")
        return z


@lru_cache(maxsize=None)
def _gf(e: int) -> _GF2e:
    return _GF2e(e)


def _modulus_root(e: int, e2: int) -> int:
    """One root of modulus(e) in F_{2^e2} (e | e2), by equal-degree splitting.

    modulus(e) is a product of distinct linear factors over F_{2^e2}.  For a
    factor f of degree >= 2 and alpha in F_{2^e2}, the gcd of f and
    T(x) = Tr(alpha*x) = sum_i alpha^(2^i) x^(2^i) (i < e2) mod f is the
    product of the x - r with Tr(alpha*r) = 0.  Two distinct roots r, r'
    fall on different sides for any alpha with Tr(alpha*(r + r')) = 1, and
    the basis 1, g, ..., g^(e2-1) holds such an alpha because the trace
    form is nondegenerate; so trying the basis in order always splits f.
    Each split keeps the factor of smaller degree (the gcd on a tie), until
    a monic x + c is left, whose root is c.  The products stay inside the
    degree cap for e <= 33.
    """
    big = _gf(e2)
    ops = _FracOps(big)
    mod = _modulus(e)
    f = tuple((mod >> i) & 1 for i in range(e + 1))
    while len(f) > 2:
        x_powers = [(0, 1)]                 # x^(2^i) mod f, i < e2
        for _ in range(e2 - 1):
            p = x_powers[-1]
            x_powers.append(ops.pdivmod(ops.pmul(p, p), f)[1])
        for k in range(e2):
            alpha, trace = 1 << k, ()
            for p in x_powers:
                trace = ops.padd(trace, ops.pscale(p, alpha))
                alpha = big.mul(alpha, alpha)
            g = ops.pgcd(f, trace)
            if 1 < len(g) < len(f):
                break
        else:
            raise SoundnessError("no splitting element for the modulus")
        h = ops.pdivmod(f, g)[0]
        f = g if len(g) <= len(h) else h
    return f[0]


@lru_cache(maxsize=None)
def _embedding_table(e: int, e2: int):
    """Powers rho^i (i < e) of a root rho of modulus(e) inside F_{2^e2}.

    rho is the least root as an int.  The roots are the e Frobenius
    conjugates of the one _modulus_root finds, so rho is the least of those.
    """
    if e2 % e != 0:
        raise FieldMismatch(f"F_2^{e} does not embed in F_2^{e2}")
    if e == 1:
        return (1,)
    big = _gf(e2)
    conjugates = [_modulus_root(e, e2)]
    for _ in range(e - 1):
        conjugates.append(big.square(conjugates[-1]))
    rho = min(conjugates)
    mod = _modulus(e)
    acc, val = 1, 0
    for i in range(e + 1):
        if (mod >> i) & 1:
            val ^= acc
        acc = big.mul(acc, rho)
    if val != 0:
        raise SoundnessError("embedding root is not a root of the modulus")
    table, acc = [], 1
    for _ in range(e):
        table.append(acc)
        acc = big.mul(acc, rho)
    return tuple(table)


def _embed_base(x: int, e: int, e2: int) -> int:
    table = _embedding_table(e, e2)
    r = 0
    i = 0
    while x:
        if x & 1:
            r ^= table[i]
        x >>= 1
        i += 1
    return r


# ---------------------------------------------------------------------------
# Field descriptors.

@dataclass(frozen=True)
class FieldDescriptor:
    """A tower F_{2^e}((t1))...((tn))."""

    base_exponent: int = 1
    variables: tuple = ()
    # the shared level ops, _ops_key(base_exponent, level)
    _ops: object = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base_exponent < 1:
            raise ValueError("base exponent must be >= 1")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        if len(self.variables) > DEFAULT_TOWER_CAP:
            raise TowerDepthExceeded(f"{len(self.variables)} > {DEFAULT_TOWER_CAP}")
        object.__setattr__(self, "_ops", _ops_key(self.base_exponent,
                                                  len(self.variables)))

    def __reduce__(self):
        # rebuilt from its fields, so that it resolves the shared ops again
        return type(self), (self.base_exponent, self.variables)

    @property
    def level(self) -> int:
        return len(self.variables)

    def lower(self) -> "FieldDescriptor":
        if not self.variables:
            raise ValueError("already at the base")
        return FieldDescriptor(self.base_exponent, self.variables[:-1])

    @property
    def top_variable(self) -> str:
        return self.variables[-1]

    def embeds_in(self, other: "FieldDescriptor") -> bool:
        return (other.base_exponent % self.base_exponent == 0
                and other.variables[:self.level] == self.variables)

    def render(self) -> str:
        base = "F2" if self.base_exponent == 1 else f"F2^{self.base_exponent}"
        return base + "".join(f"(({v}))" for v in self.variables)

    def __repr__(self):
        return f"FieldDescriptor<{self.render()}>"

    # element constructors -------------------------------------------------
    def zero(self) -> "FieldElem":
        return FieldElem(self, self._ops.zero)

    def one(self) -> "FieldElem":
        return FieldElem(self, self._ops.one)

    def from_base(self, bits: int) -> "FieldElem":
        if not 0 <= bits < (1 << self.base_exponent):
            raise ValueError(f"{bits} out of range for F_2^{self.base_exponent}")
        return FieldElem(self, self._ops.lift_const(bits))

    def generator(self) -> "FieldElem":
        if self.base_exponent == 1:
            raise ValueError("F_2 has no generator beyond 1")
        return self.from_base(2)

    def var(self, name: str) -> "FieldElem":
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        idx = self.variables.index(name)
        data = _ops_key(self.base_exponent, idx + 1).var_data()
        for lvl in range(idx + 2, self.level + 1):
            data = _ops_key(self.base_exponent, lvl).lift_data(data)
        return FieldElem(self, data)

    def element(self, text: str) -> "FieldElem":
        return parse_element(self, text)


# ---------------------------------------------------------------------------
# Level operations on raw data.
#
# Raw data: level 0 -> int; level n -> (num, den) with num/den tuples of
# lower-level raw data (coefficient of degree i at index i, last entry
# nonzero, () the zero polynomial).


class _FracOps:
    def __init__(self, lower):
        self.lower = lower
        self.level = lower.level + 1
        self.zero = ((), (lower.one,))
        self.one = ((lower.one,), (lower.one,))

    # --- polynomial layer -------------------------------------------------
    def ptrim(self, p):
        n = len(p)
        while n and self.lower.is_zero(p[n - 1]):
            n -= 1
        return tuple(p[:n])

    def padd(self, p, q):
        if len(p) < len(q):
            p, q = q, p
        out = list(p)
        for i, c in enumerate(q):
            out[i] = self.lower.add(out[i], c)
        return self.ptrim(out)

    def pmul(self, p, q):
        if not p or not q:
            return ()
        if p == (self.lower.one,):
            return q
        if q == (self.lower.one,):
            return p
        deg = len(p) + len(q) - 2
        if deg > DEFAULT_DEGREE_CAP:
            raise DegreeOverflow(
                f"degree {deg} exceeds cap {DEFAULT_DEGREE_CAP}")
        out = [self.lower.zero] * (deg + 1)
        for i, a in enumerate(p):
            if self.lower.is_zero(a):
                continue
            for j, b in enumerate(q):
                if self.lower.is_zero(b):
                    continue
                out[i + j] = self.lower.add(out[i + j], self.lower.mul(a, b))
        return self.ptrim(out)

    def pscale(self, p, c):
        if self.lower.is_zero(c):
            return ()
        return self.ptrim([self.lower.mul(a, c) for a in p])

    def pdivmod(self, p, q):
        if not q:
            raise ZeroDivisionError
        inv_lc = self.lower.inv(q[-1])
        rem = list(p)
        quo = [self.lower.zero] * max(0, len(p) - len(q) + 1)
        while len(rem) >= len(q):
            if self.lower.is_zero(rem[-1]):
                rem.pop()
                continue
            sh = len(rem) - len(q)
            c = self.lower.mul(rem[-1], inv_lc)
            quo[sh] = c
            for i, b in enumerate(q):
                rem[sh + i] = self.lower.add(rem[sh + i], self.lower.mul(b, c))
            rem.pop()
        return self.ptrim(quo), self.ptrim(rem)

    def pgcd(self, p, q):
        while q:
            p, q = q, self.pdivmod(p, q)[1]
        if p:
            p = self.pscale(p, self.lower.inv(p[-1]))
        return p

    def pval(self, p):
        """Index of the lowest nonzero coefficient (p nonzero)."""
        for i, c in enumerate(p):
            if not self.lower.is_zero(c):
                return i
        raise ZeroElement

    # --- fraction layer ---------------------------------------------------
    def canon(self, num, den):
        num, den = self.ptrim(num), self.ptrim(den)
        if not den:
            raise ZeroDivisionError
        if not num:
            return self.zero
        if den == (self.lower.one,):
            return (num, den)
        g = self.pgcd(num, den)
        if len(g) > 1:
            num = self.pdivmod(num, g)[0]
            den = self.pdivmod(den, g)[0]
        lc = den[-1]
        if lc != self.lower.one:
            ilc = self.lower.inv(lc)
            num = self.pscale(num, ilc)
            den = self.pscale(den, ilc)
        return (num, den)

    def is_zero(self, x):
        return not x[0]

    def add(self, x, y):
        if not x[0]:
            return y
        if not y[0]:
            return x
        (n1, d1), (n2, d2) = x, y
        if d1 == d2:
            return self.canon(self.padd(n1, n2), d1)
        return self.canon(self.padd(self.pmul(n1, d2), self.pmul(n2, d1)),
                          self.pmul(d1, d2))

    def mul(self, x, y):
        if not x[0] or not y[0]:
            return self.zero
        if x == self.one:
            return y
        if y == self.one:
            return x
        (n1, d1), (n2, d2) = x, y
        return self.canon(self.pmul(n1, n2), self.pmul(d1, d2))

    def inv(self, x):
        n, d = x
        if not n:
            raise ZeroDivisionError
        return self.canon(d, n)

    def is_square(self, x):
        n, d = x
        if not n:
            return True
        f = self.pmul(n, d)
        for i, c in enumerate(f):
            if i % 2 == 1 and not self.lower.is_zero(c):
                return False
            if i % 2 == 0 and not self.lower.is_square(c):
                return False
        return True

    def sqrt_exact(self, x):
        """Square root of a known square (is_square(x) must hold)."""
        n, d = x
        if not n:
            return self.zero
        f = self.pmul(n, d)
        root = [self.lower.zero] * ((len(f) + 1) // 2)
        for i in range(0, len(f), 2):
            root[i // 2] = self.lower.sqrt_exact(f[i])
        return self.canon(self.ptrim(root), d)

    def lift_const(self, bits):
        return self.lift_data(self.lower.lift_const(bits))

    def lift_data(self, lower_data):
        if self.lower.is_zero(lower_data):
            return self.zero
        return ((lower_data,), (self.lower.one,))

    def var_data(self):
        return ((self.lower.zero, self.lower.one), (self.lower.one,))

    def shift(self, x, k):
        """Multiply by t^k (k may be negative)."""
        n, d = x
        if not n:
            return self.zero
        if k >= 0:
            return self.canon((self.lower.zero,) * k + n, d)
        return self.canon(n, (self.lower.zero,) * (-k) + d)


# ---------------------------------------------------------------------------
# Level 1 over F_2 on packed ints.
#
# A polynomial over F_2 is packed one coefficient per byte, coefficient i in
# byte i.  Byte k of the integer product of two packed polynomials counts the
# pairs i + j = k with p_i = q_j = 1, so the F_2 product is that product
# masked with 0x0101...01, as long as no count carries into the next byte.
# A product is formed only once pmul's cap test has passed, so the factors
# have len(p) + len(q) <= DEFAULT_DEGREE_CAP + 2 coefficients and a count is
# at most DEFAULT_DEGREE_CAP // 2 + 1.

if DEFAULT_DEGREE_CAP // 2 + 1 >= 256:
    raise SoundnessError(
        f"degree cap {DEFAULT_DEGREE_CAP} lets a packed F_2[t] product "
        f"carry between bytes")

_LOW_BITS = int.from_bytes(b"\x01" * (DEFAULT_DEGREE_CAP + 1), "little")


def _pack(p) -> int:
    return int.from_bytes(bytes(p), "little")


def _unpack(x: int) -> tuple:
    return tuple(x.to_bytes((x.bit_length() + 7) >> 3, "little"))


class _F2tOps(_FracOps):
    """The level-1 ops over F_2, computed on packed ints.

    Takes and returns the same raw data as _FracOps(_gf(1)): (num, den)
    tuples of 0/1 ints.  _times keeps the generic pmul's early-outs and cap
    test; add and mul take the generic identity shortcuts, and pmul, add and
    mul call _times on the same products in the same order, so every
    DegreeOverflow fires where the generic code raises it.  The
    other polynomial methods are the generic ones: at this level they are
    reached only from the generic add, mul and canon, which are overridden.
    """

    def _times(self, p, q) -> int:
        """The packed product p*q, with the generic pmul's early-outs and
        cap test."""
        if not p or not q:
            return 0
        if p == (1,):
            return _pack(q)
        if q == (1,):
            return _pack(p)
        deg = len(p) + len(q) - 2
        if deg > DEFAULT_DEGREE_CAP:
            raise DegreeOverflow(
                f"degree {deg} exceeds cap {DEFAULT_DEGREE_CAP}")
        return _pack(p) * _pack(q) & _LOW_BITS

    def _canon_packed(self, num: int, den: int):
        if not den:
            raise ZeroDivisionError
        if not num:
            return self.zero
        if den == 1:
            return (_unpack(num), (1,))
        g, b = num, den
        while b:
            g, b = b, _poly2_rem(g, b)
        if g != 1:
            num = _poly2_divmod(num, g)[0]
            den = _poly2_divmod(den, g)[0]
        return (_unpack(num), _unpack(den))

    def pmul(self, p, q):
        return _unpack(self._times(p, q))

    def canon(self, num, den):
        return self._canon_packed(_pack(num), _pack(den))

    def add(self, x, y):
        if not x[0]:
            return y
        if not y[0]:
            return x
        (n1, d1), (n2, d2) = x, y
        if d1 == d2:
            return self._canon_packed(_pack(n1) ^ _pack(n2), _pack(d1))
        return self._canon_packed(
            self._times(n1, d2) ^ self._times(n2, d1), self._times(d1, d2))

    def mul(self, x, y):
        if not x[0] or not y[0]:
            return self.zero
        if x == self.one:
            return y
        if y == self.one:
            return x
        (n1, d1), (n2, d2) = x, y
        return self._canon_packed(self._times(n1, n2), self._times(d1, d2))

    def inv(self, x):
        n, d = x
        if not n:
            raise ZeroDivisionError
        return self._canon_packed(_pack(d), _pack(n))


@lru_cache(maxsize=None)
def _ops_key(e: int, level: int):
    if level == 0:
        return _gf(e)
    if e == 1 and level == 1:
        return _F2tOps(_gf(1))
    return _FracOps(_ops_key(e, level - 1))


# ---------------------------------------------------------------------------
# Elements.

@dataclass(frozen=True)
class FieldElem:
    """An exact element of a Laurent tower; immutable, structural equality."""

    field: FieldDescriptor
    data: Union[int, tuple]

    def _ops(self):
        return self.field._ops

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field.render()} vs {other.field.render()}")

    def _result(self, other, data) -> "FieldElem":
        """The element with this data: an operand itself when the ops
        returned that operand's data."""
        if data is self.data:
            return self
        if data is other.data:
            return other
        return FieldElem(self.field, data)

    def is_zero(self) -> bool:
        return self._ops().is_zero(self.data)

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return self._result(other, self._ops().add(self.data, other.data))

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return self._result(other, self._ops().mul(self.data, other.data))

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.field, self._ops().mul(self.data,
                                                     self._ops().inv(other.data)))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self._ops().inv(self.data))

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        r = self.field.one()
        b = self
        while n:
            if n & 1:
                r = r * b
            n >>= 1
            if n:
                b = b * b
        return r

    def square(self) -> "FieldElem":
        return self * self

    def __str__(self):
        return render_element(self)

    def __repr__(self):
        return f"<{render_element(self)} over {self.field.render()}>"

    def lift_to(self, K: FieldDescriptor) -> "FieldElem":
        """Embed into a larger tower (base divides, variables extend)."""
        if not self.field.embeds_in(K):
            raise FieldMismatch(f"{self.field.render()} does not embed in {K.render()}")
        data = self.data
        if K.base_exponent != self.field.base_exponent:
            data = _embed_raw(data, self.field.level,
                              self.field.base_exponent, K.base_exponent)
        for lvl in range(self.field.level, K.level):
            data = _ops_key(K.base_exponent, lvl + 1).lift_data(data)
        return FieldElem(K, data)


def _embed_raw(data, level, e, e2):
    if level == 0:
        return _embed_base(data, e, e2)
    n, d = data
    return (tuple(_embed_raw(c, level - 1, e, e2) for c in n),
            tuple(_embed_raw(c, level - 1, e, e2) for c in d))


# ---------------------------------------------------------------------------
# Valuation and squares.

def valuation_split(x: FieldElem):
    """Write x = t^v * u with u a unit at the top variable; returns (v, u).

    The t-adic valuation at the top Laurent level.  Raises ZeroElement on 0
    (valuation +infinity is signalled by the exception, never by a number).
    """
    if x.field.level == 0:
        raise ValueError("base-field elements have no Laurent valuation")
    if x.is_zero():
        raise ZeroElement("valuation of zero")
    ops = x._ops()
    n, d = x.data
    v = ops.pval(n) - ops.pval(d)
    u = FieldElem(x.field, ops.shift(x.data, -v))
    return v, u


def unit_residue(u: FieldElem) -> FieldElem:
    """Constant term of a valuation-0 element, as a lower-level element."""
    ops = u._ops()
    n, d = u.data
    if not n or ops.pval(n) != 0 or ops.pval(d) != 0:
        raise ZeroElement("not a unit at the top variable")
    return FieldElem(u.field.lower(), ops.lower.mul(n[0], ops.lower.inv(d[0])))


def is_square(x: FieldElem):
    """Decide x in K^2; on success also return the exact root.

    At a Laurent level x = p/q is a square iff p*q has zero odd-degree
    coefficients and square even-degree coefficients (squares in K are
    K^2 = k^2((t^2))); at the finite base everything is a square.
    """
    ops = x._ops()
    if ops.is_square(x.data):
        return True, FieldElem(x.field, ops.sqrt_exact(x.data))
    return False, None


def _series_prefix(x: FieldElem, upto: int):
    """Coefficients (c_v, ..., c_upto) of the expansion of x, plus v.

    Exact: from the reduced fraction, by power-series division of the unit
    part.  Only finitely many terms are requested.
    """
    ops = x._ops()
    lo = ops.lower
    n, d = x.data
    pv_n, pv_d = ops.pval(n), ops.pval(d)
    v = pv_n - pv_d
    n1 = n[pv_n:]
    d1 = d[pv_d:]
    count = upto - v + 1
    if count <= 0:
        return v, []
    inv0 = lo.inv(d1[0])
    coeffs = []
    for i in range(count):
        acc = n1[i] if i < len(n1) else lo.zero
        for j in range(1, min(i, len(d1) - 1) + 1):
            acc = lo.add(acc, lo.mul(d1[j], coeffs[i - j]))
        coeffs.append(lo.mul(acc, inv0))
    return v, coeffs


# ---------------------------------------------------------------------------
# Artin-Schreier classes.

@dataclass(frozen=True)
class WpClass:
    """Reduced representative of an element of K/wp(K), wp(x) = x^2 - x.

    wild holds (negative exponent, coefficient) pairs at the top variable:
    odd exponents carry arbitrary nonzero coefficients, even exponents carry
    non-square coefficients.  constant recurses one level down; at the finite
    base only the trace bit remains.  A class is zero iff it is structurally
    zero; equality of classes is semantic (same_class), not structural.
    """

    field: FieldDescriptor
    wild: tuple = ()            # ((exp, FieldElem at lower level), ...)
    constant: Optional["WpClass"] = None
    bit: Optional[int] = None   # only at level 0

    def is_zero(self) -> bool:
        if self.wild:
            return False
        if self.bit is not None:
            return self.bit == 0
        return self.constant.is_zero()

    def is_tame(self) -> bool:
        """No wild part at any level (class comes from the base constants)."""
        if self.wild:
            return False
        if self.bit is not None:
            return True
        return self.constant.is_tame()

    def representative(self) -> FieldElem:
        """An exact element of the tower representing this class."""
        K = self.field
        if self.bit is not None:
            return K.from_base(_canonical_trace_one(K.base_exponent)) \
                if self.bit else K.zero()
        acc = self.constant.representative().lift_to(K)
        t = K.var(K.top_variable)
        for exp, coeff in self.wild:
            term = coeff.lift_to(K) * t ** exp
            acc = acc + term
        return acc

    def plus(self, other: "WpClass") -> "WpClass":
        if self.field != other.field:
            raise FieldMismatch("classes over different fields")
        return wp_reduce(self.representative() + other.representative())

    def same_class(self, other: "WpClass") -> bool:
        return self.plus(other).is_zero()

    def extension_kind(self) -> str:
        """How K[T]/(T^2 + T + delta) splits for delta in this class: zero is
        "split", tame is "field", wild is "unsupported"."""
        if self.is_zero():
            return "split"
        return "field" if self.is_tame() else "unsupported"

    def to_json(self):
        if self.bit is not None:
            return {"bit": self.bit}
        return render_json({"wild": self.wild, "constant": self.constant})


@lru_cache(maxsize=None)
def _canonical_trace_one(e: int) -> int:
    """The least element of trace 1 in F_{2^e}, as a bitmask.

    The trace is F_2-linear in the bits, so every integer below 1 << k has
    trace 0 when the basis bits below k do; the least one is 1 << k for the
    first basis bit k of trace 1."""
    gf = _gf(e)
    for k in range(e):
        if gf.trace(1 << k) == 1:
            return 1 << k
    raise SoundnessError("no trace-one element")


def _principal_walk(lo, v, coeffs):
    """Reduce the principal part (v, coeffs) of _series_prefix(a, 0).

    From the most negative exponent upward: odd poles and even poles with a
    non-square coefficient are wild; an even pole c*t^(2k) with c = d^2 is
    replaced by d*t^k (additivity of wp).  Returns (wild, const, root): the
    wild (exp, coeff) terms in increasing exponent, the constant coefficient
    after all replacements, and the (k, d) terms, whose sum z satisfies
    a + z^2 + z = (wild terms) + const + (terms of positive valuation).
    """
    pending = {v + i: c for i, c in enumerate(coeffs) if not lo.is_zero(c)}
    wild, root = [], []
    # Square corrections inject new terms at strictly larger (half)
    # exponents, so the worklist must be dynamic.
    processed = set()
    while True:
        todo = [k for k in pending
                if k < 0 and k not in processed and not lo.is_zero(pending[k])]
        if not todo:
            break
        exp = min(todo)
        processed.add(exp)
        c = pending[exp]
        if (-exp) % 2 == 1 or not lo.is_square(c):
            wild.append((exp, c))
            continue
        d = lo.sqrt_exact(c)
        half = exp // 2
        pending[half] = lo.add(pending.get(half, lo.zero), d)
        root.append((half, d))
    return wild, pending.get(0, lo.zero), root


def _principal_root(a: FieldElem):
    """_principal_walk of a at a Laurent level, with the root terms summed.

    Returns (wild, const, z): the wild (exp, coeff) terms, the constant
    coefficient as a lower-level element, and the Laurent polynomial z of
    the (k, d) terms, so a + z^2 + z = (wild terms) + const + (terms of
    positive valuation)."""
    K = a.field
    lower = K.lower()
    t = K.var(K.top_variable)
    wild, const, root = _principal_walk(a._ops().lower, *_series_prefix(a, 0))
    z = K.zero()
    for half, d in root:
        z = z + FieldElem(lower, d).lift_to(K) * t ** half
    return wild, FieldElem(lower, const), z


def wp_reduce(a: FieldElem) -> WpClass:
    """Canonical reduction of a modulo wp(K) = {x^2 + x}.

    At a Laurent level: expand the principal part exactly; from the most
    negative exponent upward, odd poles are recorded, even poles with square
    coefficient c = d^2 are replaced by d at half the exponent (additivity of
    wp), even poles with non-square coefficient are recorded; the positive
    part is discarded (wp is onto the maximal ideal by Hensel); the constant
    term recurses.  At the base the class is the trace over F_2.
    """
    K = a.field
    if K.level == 0:
        return WpClass(K, bit=_gf(K.base_exponent).trace(a.data))
    lower = K.lower()
    if a.is_zero():
        return WpClass(K, wild=(), constant=wp_reduce(lower.zero()))
    ops = a._ops()
    lo = ops.lower
    v, coeffs = _series_prefix(a, 0)
    # Invariant check: the discarded part a - (principal + constant) must
    # have positive valuation.
    tail = a.data
    for i, c in enumerate(coeffs):
        if lo.is_zero(c):
            continue
        exp = v + i
        term = ops.shift(((c,), (lo.one,)), exp) if exp >= 0 else \
            ops.canon((c,), (lo.zero,) * (-exp) + (lo.one,))
        tail = ops.add(tail, term)
    if not ops.is_zero(tail):
        tn, td = tail
        if ops.pval(tn) - ops.pval(td) < 1:
            raise SoundnessError("principal-part extraction broken")
    wild, const, _ = _principal_walk(lo, v, coeffs)
    return WpClass(K, wild=tuple((e, FieldElem(lower, c)) for e, c in wild),
                   constant=wp_reduce(FieldElem(lower, const)))


def wp_member(a: FieldElem) -> bool:
    """True iff a = z^2 + z for some z in the Laurent field."""
    return wp_reduce(a).is_zero()


def wp_root(a: FieldElem) -> Optional[FieldElem]:
    """A rational z with z^2 + z = a, or None.

    A returned z is a root.  None does not prove that no rational root
    exists: the root of the positive-valuation part is sought by the rewrite
    r -> r + (c t^k + c^2 t^{2k}), which adds one monomial per step and so
    finds only Laurent-polynomial roots; it gives up when 2k passes the
    degree cap.  A rational root that is an infinite series, such as
    z = 1/(1+s) over F2((s)), is missed.  Membership in wp(K-hat) is decided
    by wp_member, not here.
    """
    K = a.field
    if K.level == 0:
        bits = _gf(K.base_exponent).wp_solve(a.data)
        return None if bits is None else FieldElem(K, bits)
    if a.is_zero():
        return K.zero()
    t = K.var(K.top_variable)
    wild, const, z = _principal_root(a)
    if wild:
        return None
    z0 = wp_root(const)
    if z0 is None:
        return None
    z = z + z0.lift_to(K)
    try:
        r = a + z * z + z
        # each step raises the valuation of r, so the cap ends the loop
        while not r.is_zero():
            rv, ru = valuation_split(r)
            if rv < 1 or 2 * rv > DEFAULT_DEGREE_CAP:
                # an infinite-series root; not rational within the cap
                return None
            term = unit_residue(ru).lift_to(K) * t ** rv
            z = z + term
            r = r + term + term * term
        if z * z + z != a:
            raise SoundnessError("wp_root result is not a root")
        return z
    except DegreeOverflow:
        return None


# ---------------------------------------------------------------------------
# Quadratic Artin-Schreier extensions.

@dataclass(frozen=True)
class ExtensionResult:
    """The algebra L = K[T]/(T^2 + T + delta), classified by quad_extend.

    kind is one of "split" (L = K x K; new_field is K itself), "field" (a
    tame class: L is the constant extension, base F_{2^e} -> F_{2^{2e}}),
    "unsupported" (a wild class, ramified: new_field is None, and consumers
    degrade to Unknown verdicts).
    """

    kind: str
    delta: FieldElem
    new_field: Optional[FieldDescriptor]

    def embed(self, x: FieldElem) -> FieldElem:
        """x in new_field (a factor of L when split)."""
        if self.new_field is None:
            raise FieldMismatch("no embedding for a ramified extension")
        return x.lift_to(self.new_field)


def quad_extend(K: FieldDescriptor, delta: FieldElem) -> ExtensionResult:
    """Classify K[T]/(T^2 + T + delta) by the wp-class of delta
    (WpClass.extension_kind)."""
    if delta.field != K:
        raise FieldMismatch("delta not over K")
    kind = wp_reduce(delta).extension_kind()
    new_field = K if kind == "split" else None
    if kind == "field":
        new_field = FieldDescriptor(2 * K.base_exponent, K.variables)
    return ExtensionResult(kind, delta, new_field)


# ---------------------------------------------------------------------------
# Frobenius (K^2-linear) component decomposition.

def frobenius_components(x: FieldElem) -> dict:
    """Write x = sum_m y_m^2 * m over square-free monomials m in the tower
    variables; returns {exponent-bitvector: y_m} with zero components absent.

    The keys are tuples of 0/1 per variable (innermost first); [K : K^2] is
    2^n since the base field is perfect.
    """
    K = x.field
    if K.level == 0:
        return {(): FieldElem(K, _gf(K.base_exponent).sqrt_exact(x.data))} \
            if x.data else {}
    if x.is_zero():
        return {}
    ops = x._ops()
    lo = ops.lower
    n, d = x.data
    f = ops.pmul(n, d)  # x = f / d^2
    lower = K.lower()
    halves = {}  # parity -> list of (half-degree, lower coeff)
    for i, c in enumerate(f):
        if lo.is_zero(c):
            continue
        halves.setdefault(i % 2, []).append((i // 2, c))
    out = {}
    for parity, terms in halves.items():
        # sum c_i t^(2q+parity) = t^parity * (sum over m' (y'_m')^2 m')^...
        # decompose each lower coefficient and regroup per lower monomial.
        per_m = {}
        for q, c in terms:
            for m, y in frobenius_components(FieldElem(lower, c)).items():
                per_m.setdefault(m, []).append((q, y))
        for m, pairs in per_m.items():
            poly = [lo.zero] * (max(q for q, _ in pairs) + 1)
            for q, y in pairs:
                poly[q] = lo.add(poly[q], y.data)
            num = ops.ptrim(poly)
            if not num:
                continue
            comp = FieldElem(K, ops.canon(num, d))
            out[m + (parity,)] = comp
    return out


# ---------------------------------------------------------------------------
# Parsing and rendering.

_TOKEN_RE = re.compile(r"\s*(\(\(|\)\)|[()+\-*/^;,\[\]<>=]|[A-Za-z_][A-Za-z_0-9]*|\d+)")


def _linecol(text: str, pos: int):
    """The 1-based line and column of offset pos in text."""
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


class _Tok:
    def __init__(self, text: str, doubles: bool = False):
        # doubles=True keeps "((" / "))" as single tokens (field syntax);
        # element and form expressions want plain parentheses.
        self.text = text
        self.toks = []
        self._scan(doubles)
        self.i = 0

    def _scan(self, doubles):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if not m:
                if self.text[pos:].strip():
                    raise ParseError(*_linecol(self.text, pos), "a token",
                                     self.text[pos])
                break
            tok, start = m.group(1), m.start(1)
            if not doubles and tok in ("((", "))"):
                half = tok[0]
                self.toks.append((half, start))
                self.toks.append((half, start + 1))
            else:
                self.toks.append((tok, start))
            pos = m.end()

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, tok):
        if self.peek() != tok:
            self.fail(repr(tok))
        return self.next()

    def fail(self, expected):
        if self.i < len(self.toks):
            t, pos = self.toks[self.i]
        else:
            t, pos = "<eof>", len(self.text)
        raise ParseError(*_linecol(self.text, pos), expected, t)

    def done(self):
        return self.i >= len(self.toks)


def parse_field(text: str) -> FieldDescriptor:
    """Parse `F2^e((t1))((t2))...`; F4/F16-style shorthands are accepted."""
    tk = _Tok(text, doubles=True)
    name = tk.peek()
    if not name or name[0] != "F" or not name[1:].isdigit():
        tk.fail("a field name like F2 or F2^3")
    q = int(name[1:])
    e = q.bit_length() - 1
    if q < 2 or q != 1 << e:
        tk.fail("a power of two")
    tk.next()
    if tk.peek() == "^":
        if q != 2:
            tk.fail("only F2^e supports an explicit exponent")
        tk.next()
        exp_tok = tk.peek()
        if exp_tok is None or not exp_tok.isdigit() or int(exp_tok) < 1:
            tk.fail("a positive integer exponent")
        e = int(tk.next())
    varnames = []
    while tk.peek() == "((":
        tk.next()
        v = tk.peek()
        if not v or not v[0].isalpha() or v == "g" or v in varnames:
            # g names the base generator in element syntax
            tk.fail("a new variable name other than 'g'")
        varnames.append(tk.next())
        tk.expect("))")
    if not tk.done():
        tk.fail("end of field declaration")
    return FieldDescriptor(e, tuple(varnames))


def _parse_expr(tk: _Tok, K: FieldDescriptor) -> FieldElem:
    x = _parse_term(tk, K)
    while tk.peek() in ("+", "-"):
        tk.next()
        x = x + _parse_term(tk, K)
    return x


NONZERO_DIVISOR = "a nonzero divisor"


def _check_divisor(tk: _Tok, at: int, y: FieldElem) -> None:
    """Fail at token `at`, where the divisor y starts, when y is zero."""
    if y.is_zero():
        tk.i = at
        tk.fail(NONZERO_DIVISOR)


def _parse_term(tk: _Tok, K: FieldDescriptor) -> FieldElem:
    x = _parse_factor(tk, K)
    while tk.peek() in ("*", "/"):
        op = tk.next()
        at = tk.i
        y = _parse_factor(tk, K)
        if op == "/":
            _check_divisor(tk, at, y)
        x = x * y if op == "*" else x / y
    return x


def _parse_factor(tk: _Tok, K: FieldDescriptor) -> FieldElem:
    at = tk.i
    x = _parse_atom(tk, K)
    if tk.peek() == "^":
        tk.next()
        sign = 1
        if tk.peek() == "-":
            tk.next()
            sign = -1
        n = tk.next()
        if n is None or not n.isdigit():
            tk.fail("an integer exponent")
        if sign * int(n) < 0:
            _check_divisor(tk, at, x)
        x = x ** (sign * int(n))
    return x


def _parse_atom(tk: _Tok, K: FieldDescriptor) -> FieldElem:
    t = tk.peek()
    if t == "(":
        tk.next()
        x = _parse_expr(tk, K)
        tk.expect(")")
        return x
    if t is not None and t.isdigit() and int(t) < 1 << K.base_exponent:
        tk.next()
        return K.from_base(int(t))
    if t == "g" and K.base_exponent > 1:
        tk.next()
        return K.generator()
    if t in K.variables:
        tk.next()
        return K.var(t)
    gen = "'g', " if K.base_exponent > 1 else ""
    tk.fail(f"a variable of {K.render()}, {gen}or an integer below "
            f"{1 << K.base_exponent}")


def parse_element(K: FieldDescriptor, text: str) -> FieldElem:
    tk = _Tok(text)
    x = _parse_expr(tk, K)
    if not tk.done():
        tk.fail("end of element expression")
    return x


def _render_base(bits: int, e: int) -> str:
    if e == 1 or bits < 2:
        return str(bits)
    terms = []
    for i in range(e - 1, -1, -1):
        if (bits >> i) & 1:
            if i == 0:
                terms.append("1")
            elif i == 1:
                terms.append("g")
            else:
                terms.append(f"g^{i}")
    return "+".join(terms)


def _render_poly(p: tuple, level: int, e: int, varnames: tuple) -> str:
    if not p:
        return "0"
    var = varnames[level - 1]
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if _ops_key(e, level - 1).is_zero(c):
            continue
        cs = _render_raw(c, level - 1, e, varnames)
        need_paren = ("+" in cs or "/" in cs) and i > 0
        if i == 0:
            terms.append(cs)
        else:
            tpart = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                terms.append(tpart)
            elif need_paren:
                terms.append(f"({cs})*{tpart}")
            else:
                terms.append(f"{cs}*{tpart}")
    return "+".join(terms) if terms else "0"


def _render_raw(data, level: int, e: int, varnames: tuple) -> str:
    if level == 0:
        return _render_base(data, e)
    n, d = data
    ns = _render_poly(n, level, e, varnames)
    if d == (_ops_key(e, level - 1).one,):
        return ns
    ds = _render_poly(d, level, e, varnames)
    ns_p = f"({ns})" if "+" in ns or "/" in ns or "*" in ns else ns
    ds_p = f"({ds})" if "+" in ds or "/" in ds or "*" in ds else ds
    return f"{ns_p}/{ds_p}"


def render_element(x: FieldElem) -> str:
    return _render_raw(x.data, x.field.level, x.field.base_exponent,
                       x.field.variables)


def render_json(value):
    """The JSON value of exact evidence: elements are rendered, dicts keep
    their keys in order, lists and tuples become lists, objects give their
    to_json(), and anything else is returned as is."""
    if isinstance(value, FieldElem):
        return render_element(value)
    if isinstance(value, dict):
        return {k: render_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [render_json(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value
