"""The field kernel: elements of F_{2^e}((t1))...((tn)) and their raw data.

An element is an iterated rational fraction: at level n a reduced fraction
of polynomials in t_n whose coefficients are level n-1 elements, at level 0
an element of F_{2^e} in a fixed polynomial basis (an int bitmask).  This
module is the only reader of that representation; other modules reach an
element through FieldElem's arithmetic and the primitives here, each exact
for the full Laurent field: valuation_split, unit_residue, is_square, the
principal part of the expansion, frobenius_components, the level-0 escapes
(base_*), the brute-force search's polynomial views, and render_element.

Fractions are gcd-reduced with monic denominator (in the top variable, with
recursively canonical coefficients), so equality is structural; addition is
its own inverse; the degree of any intermediate polynomial is capped
(DegreeOverflow) so that fraction blow-up stays observable.  Level 1 over
F_2 is computed on packed ints (_F2tOps), with the same raw data and the
same overflow points as the generic levels.

The field identities cost nothing: adding zero and multiplying by zero or
one return an operand itself, never a re-reduced copy (canonical data is
unique, so no output changes; a re-reduction's DegreeOverflow can only
disappear).  Each FieldDescriptor resolves its level ops and builds its
zero, one and variables once, when built; none of these takes part in
equality, hashing, repr or pickling.  intern_field keeps one descriptor per
field, so the operators of FieldElem (a slotted, immutable handle on a
descriptor and raw data) meet the same descriptor and skip the equality
test.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Optional, Union

from .errors import (DegreeOverflow, FieldMismatch, SoundnessError,
                     TowerDepthExceeded, ZeroElement)

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
    powers = [1]                            # rho^i for i <= e
    for _ in range(e):
        powers.append(big.mul(powers[-1], rho))
    mod, val = _modulus(e), 0
    for i, power in enumerate(powers):
        if (mod >> i) & 1:
            val ^= power
    if val != 0:
        raise SoundnessError("embedding root is not a root of the modulus")
    return tuple(powers[:e])


# ---------------------------------------------------------------------------
# Field descriptors.

@dataclass(frozen=True)
class FieldDescriptor:
    """A tower F_{2^e}((t1))...((tn))."""

    base_exponent: int = 1
    variables: tuple = ()
    # the shared level ops, _ops_key(base_exponent, level)
    _ops: object = dc_field(init=False, repr=False, compare=False)
    # zero(), one() and var(name), built once
    _zero: object = dc_field(init=False, repr=False, compare=False)
    _one: object = dc_field(init=False, repr=False, compare=False)
    _vars: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base_exponent < 1:
            raise ValueError("base exponent must be >= 1")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        if len(self.variables) > DEFAULT_TOWER_CAP:
            raise TowerDepthExceeded(f"{len(self.variables)} > {DEFAULT_TOWER_CAP}")
        ops = _ops_key(self.base_exponent, len(self.variables))
        variables = {}
        for idx, name in enumerate(self.variables):
            data = _ops_key(self.base_exponent, idx + 1).var_data()
            for lvl in range(idx + 2, len(self.variables) + 1):
                data = _ops_key(self.base_exponent, lvl).lift_data(data)
            variables[name] = FieldElem(self, data)
        object.__setattr__(self, "_ops", ops)
        object.__setattr__(self, "_zero", FieldElem(self, ops.zero))
        object.__setattr__(self, "_one", FieldElem(self, ops.one))
        object.__setattr__(self, "_vars", variables)

    def __reduce__(self):
        # rebuilt from its fields, as the interned descriptor
        return intern_field, (self.base_exponent, self.variables)

    @property
    def level(self) -> int:
        return len(self.variables)

    def lower(self) -> "FieldDescriptor":
        if not self.variables:
            raise ValueError("already at the base")
        return intern_field(self.base_exponent, self.variables[:-1])

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
        return self._zero

    def one(self) -> "FieldElem":
        return self._one

    def from_base(self, bits: int) -> "FieldElem":
        if not 0 <= bits < (1 << self.base_exponent):
            raise ValueError(f"{bits} out of range for F_2^{self.base_exponent}")
        return FieldElem(self, self._ops.lift_const(bits))

    def generator(self) -> "FieldElem":
        if self.base_exponent == 1:
            raise ValueError("F_2 has no generator beyond 1")
        return self.from_base(2)

    def var(self, name: str) -> "FieldElem":
        try:
            return self._vars[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None


@lru_cache(maxsize=None)
def intern_field(base_exponent: int, variables: tuple) -> FieldDescriptor:
    """The one shared descriptor of F_{2^e}((v_1))...((v_n)).

    Every descriptor the package builds comes from here (both arguments
    positional, so that each field has one cache key), and FieldElem's
    operators test the fields of their operands by identity first.  A
    descriptor built directly is a separate object that compares equal, and
    its elements still meet the interned ones on the slower equality path.
    """
    return FieldDescriptor(base_exponent, variables)


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
    """The level-1 ops over F_2 on packed ints, taking and returning the
    same (num, den) tuples of 0/1 ints as _FracOps(_gf(1)).

    pmul, add and mul call _times, which keeps the generic pmul's early-outs
    and cap test, on the same products in the same order, so every
    DegreeOverflow fires where the generic code raises it.  The generic
    inv reaches the packed canon.  The other polynomial methods are the
    generic ones, reached only from the overridden add, mul and canon."""

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


@lru_cache(maxsize=None)
def _ops_key(e: int, level: int):
    if level == 0:
        return _gf(e)
    if e == 1 and level == 1:
        return _F2tOps(_gf(1))
    return _FracOps(_ops_key(e, level - 1))


# ---------------------------------------------------------------------------
# Elements.

class FieldElem:
    """An exact element of a Laurent tower; immutable, structural equality.

    A slotted handle on (field, data): assignment and deletion raise
    AttributeError, pickling and copying rebuild it from the two slots, and
    equality and hashing are by value, hash((field, data)).  The operators
    call the field's level ops directly once the operands' fields are the
    same object (one interned descriptor per field); _check is the path for
    distinct descriptors.  The field identities return an operand itself.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: FieldDescriptor, data: Union[int, tuple]):
        _set_field(self, field)
        _set_data(self, data)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldElem is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FieldElem is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return FieldElem, (self.field, self.data)

    def __eq__(self, other):
        if other.__class__ is not FieldElem:
            return NotImplemented
        return self.data == other.data and (
            self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field, self.data))

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field.render()} vs {other.field.render()}")

    def is_zero(self) -> bool:
        data = self.data
        return not data[0] if data.__class__ is tuple else data == 0

    def __add__(self, other: "FieldElem") -> "FieldElem":
        field = self.field
        if other.field is not field:
            self._check(other)
        x, y = self.data, other.data
        data = field._ops.add(x, y)
        if data is x:
            return self
        if data is y:
            return other
        return FieldElem(field, data)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        field = self.field
        if other.field is not field:
            self._check(other)
        x, y = self.data, other.data
        data = field._ops.mul(x, y)
        if data is x:
            return self
        if data is y:
            return other
        return FieldElem(field, data)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        field = self.field
        if other.field is not field:
            self._check(other)
        ops = field._ops
        return FieldElem(field, ops.mul(self.data, ops.inv(other.data)))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self.field._ops.inv(self.data))

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


_set_field = FieldElem.field.__set__
_set_data = FieldElem.data.__set__


def _embed_raw(data, level, e, e2):
    if level == 0:
        r = 0
        for i, power in enumerate(_embedding_table(e, e2)):
            if (data >> i) & 1:
                r ^= power
        return r
    n, d = data
    return (tuple(_embed_raw(c, level - 1, e, e2) for c in n),
            tuple(_embed_raw(c, level - 1, e, e2) for c in d))


# ---------------------------------------------------------------------------
# Valuation, squares and the principal part.

def valuation_split(x: FieldElem):
    """Write x = t^v * u with u a unit at the top variable; returns (v, u).

    The t-adic valuation at the top Laurent level.  Raises ZeroElement on 0
    (valuation +infinity is signalled by the exception, never by a number).
    """
    if x.field.level == 0:
        raise ValueError("base-field elements have no Laurent valuation")
    if x.is_zero():
        raise ZeroElement("valuation of zero")
    ops = x.field._ops
    n, d = x.data
    v = ops.pval(n) - ops.pval(d)
    u = FieldElem(x.field, ops.shift(x.data, -v))
    return v, u


def unit_residue(u: FieldElem) -> FieldElem:
    """Constant term of a valuation-0 element, as a lower-level element."""
    ops = u.field._ops
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
    ops = x.field._ops
    if ops.is_square(x.data):
        return True, FieldElem(x.field, ops.sqrt_exact(x.data))
    return False, None


def _series_prefix(x: FieldElem, upto: int):
    """Coefficients (c_v, ..., c_upto) of the expansion of x, plus v.

    Exact: from the reduced fraction, by power-series division of the unit
    part.  Only finitely many terms are requested.
    """
    ops = x.field._ops
    lo = ops.lower
    n, d = x.data
    pv_n, pv_d = ops.pval(n), ops.pval(d)
    v = pv_n - pv_d
    n1, d1 = n[pv_n:], d[pv_d:]
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


def _principal_walk(a: FieldElem, v: int, coeffs):
    """Reduce the principal part (v, coeffs) of _series_prefix(a, 0).

    From the most negative exponent upward: odd poles and even poles with a
    non-square coefficient are wild; an even pole c*t^(2k) with c = d^2 is
    replaced by d*t^k (additivity of wp).  Returns (wild, const, root): the
    wild (exp, coeff) terms in increasing exponent, the constant coefficient
    after all replacements, and the (k, d) terms, whose sum z satisfies
    a + z^2 + z = (wild terms) + const + (terms of positive valuation).
    Every coefficient is an element of the level below; root is an iterator.
    """
    lo = a.field._ops.lower
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
    lower = a.field.lower()
    wild = tuple((k, FieldElem(lower, c)) for k, c in wild)
    return wild, FieldElem(lower, pending.get(0, lo.zero)), \
        ((k, FieldElem(lower, d)) for k, d in root)


def principal_part(a: FieldElem):
    """(wild, const) of _principal_walk over the expansion of a up to t^0,
    for a nonzero a at a Laurent level, once a minus that expansion is seen
    to have positive valuation; SoundnessError otherwise."""
    ops = a.field._ops
    lo = ops.lower
    v, coeffs = _series_prefix(a, 0)
    tail = a.data
    for exp, c in enumerate(coeffs, v):
        if lo.is_zero(c):
            continue
        term = ops.shift(((c,), (lo.one,)), exp) if exp >= 0 else \
            ops.canon((c,), (lo.zero,) * (-exp) + (lo.one,))
        tail = ops.add(tail, term)
    if not ops.is_zero(tail) and ops.pval(tail[0]) - ops.pval(tail[1]) < 1:
        raise SoundnessError("principal-part extraction broken")
    return _principal_walk(a, v, coeffs)[:2]


def principal_root(a: FieldElem):
    """_principal_walk over the expansion of a (nonzero, at a Laurent level)
    with its root terms summed: (wild, const, z) with a + z^2 + z =
    (wild terms) + const + (terms of positive valuation)."""
    K = a.field
    t = K.var(K.top_variable)
    wild, const, root = _principal_walk(a, *_series_prefix(a, 0))
    z = K.zero()
    for half, d in root:
        z = z + d.lift_to(K) * t ** half
    return wild, const, z


# ---------------------------------------------------------------------------
# Level-0 escapes: base-field operations on the bitmasks.

def base_trace(x: FieldElem) -> int:
    """The trace of a level-0 x over F_2, as 0 or 1."""
    return _gf(x.field.base_exponent).trace(x.data)


def base_wp_solve(a: FieldElem, b: FieldElem) -> Optional[FieldElem]:
    """The root z of z^2 + z = a*b at level 0 with bit 0 clear, or None when
    trace(a*b) = 1; a*b is formed on the bitmasks, not by FieldElem."""
    gf = _gf(a.field.base_exponent)
    z = gf.wp_solve(gf.mul(a.data, b.data))
    return None if z is None else FieldElem(a.field, z)


def base_sqrt(x: FieldElem) -> FieldElem:
    """The square root of a level-0 x (Frobenius is bijective on F_{2^e})."""
    return FieldElem(x.field, _gf(x.field.base_exponent).sqrt_exact(x.data))


def base_field_mul(e: int):
    """The product of F_{2^e} on the bitmasks that from_base takes."""
    return _gf(e).mul


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
        return {(): base_sqrt(x)} if x.data else {}
    if x.is_zero():
        return {}
    ops = x.field._ops
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
            out[m + (parity,)] = FieldElem(K, ops.canon(num, d))
    return out


# ---------------------------------------------------------------------------
# Polynomial views for the brute-force search.

def polynomial_denominator(x: FieldElem) -> FieldElem:
    """A nonzero polynomial d in the tower variables with d*x a polynomial."""
    K = x.field
    if K.level == 0:
        return K.one()
    lower = K.lower()
    num, den = x.data
    clear = lower.one()
    for c in num + den:
        clear = clear * polynomial_denominator(clear * FieldElem(lower, c))
    # clear * den(t_n): every coefficient clear*c is a polynomial
    return clear.lift_to(K) * FieldElem(K, (den, (lower.one().data,)))


def polynomial_terms(x: FieldElem) -> dict:
    """{exponents (t1 first): constant bits} of a polynomial element."""
    def rec(data, level):
        if level == 0:
            return {(): data} if data else {}
        out = {}
        for i, c in enumerate(data[0]):
            for m, bits in rec(c, level - 1).items():
                out[m + (i,)] = bits
        return out
    return rec(x.data, x.field.level)


# ---------------------------------------------------------------------------
# Rendering.

def _render_base(bits: int, e: int) -> str:
    if e == 1 or bits < 2:
        return str(bits)
    return "+".join("1" if i == 0 else "g" if i == 1 else f"g^{i}"
                    for i in range(e - 1, -1, -1) if (bits >> i) & 1)


def _render_poly(p: tuple, level: int, e: int, varnames: tuple) -> str:
    var = varnames[level - 1]
    terms = []
    for i in range(len(p) - 1, -1, -1):
        if _ops_key(e, level - 1).is_zero(p[i]):
            continue
        cs = _render_raw(p[i], level - 1, e, varnames)
        if i == 0:
            terms.append(cs)
            continue
        tpart = var if i == 1 else f"{var}^{i}"
        if cs != "1":
            cs = f"({cs})" if "+" in cs or "/" in cs else cs
            tpart = f"{cs}*{tpart}"
        terms.append(tpart)
    return "+".join(terms) if terms else "0"


def _render_raw(data, level: int, e: int, varnames: tuple) -> str:
    if level == 0:
        return _render_base(data, e)
    n, d = data
    ns = _render_poly(n, level, e, varnames)
    if d == (_ops_key(e, level - 1).one,):
        return ns
    ns, ds = (f"({x})" if "+" in x or "/" in x or "*" in x else x
              for x in (ns, _render_poly(d, level, e, varnames)))
    return f"{ns}/{ds}"


def render_element(x: FieldElem) -> str:
    return _render_raw(x.data, x.field.level, x.field.base_exponent,
                       x.field.variables)
