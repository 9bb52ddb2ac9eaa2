"""Artin-Schreier classes, quadratic extensions, parsing and JSON rendering.

Built only on the primitives of the field kernel (_kernel), whose public
names it re-exports: wp_reduce and wp_root work from the principal part of
an element, quad_extend classifies K[T]/(T^2 + T + delta).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ._kernel import (DEFAULT_DEGREE_CAP, DEFAULT_TOWER_CAP, FieldDescriptor,
                      FieldElem, _canonical_trace_one, base_trace,
                      base_wp_solve, frobenius_components, intern_field,
                      is_square, principal_part, principal_root,
                      render_element, unit_residue, valuation_split)
from .errors import DegreeOverflow, FieldMismatch, ParseError, SoundnessError

__all__ = [
    "FieldDescriptor", "FieldElem", "WpClass", "ExtensionResult",
    "valuation_split", "unit_residue", "is_square", "frobenius_components",
    "wp_reduce", "wp_member", "quad_extend",
    "parse_field", "parse_element", "render_element", "render_json",
    "DEFAULT_DEGREE_CAP", "DEFAULT_TOWER_CAP",
]

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
            acc = acc + coeff.lift_to(K) * t ** exp
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


def wp_reduce(a: FieldElem) -> WpClass:
    """Canonical reduction of a modulo wp(K) = {x^2 + x}.

    At a Laurent level the wild terms of the checked principal part are
    recorded, the positive part is discarded (wp is onto the maximal ideal
    by Hensel) and the constant term recurses.  At the base the class is
    the trace over F_2.
    """
    K = a.field
    if K.level == 0:
        return WpClass(K, bit=base_trace(a))
    if a.is_zero():
        return WpClass(K, wild=(), constant=wp_reduce(K.lower().zero()))
    wild, const = principal_part(a)
    return WpClass(K, wild=wild, constant=wp_reduce(const))


def wp_member(a: FieldElem) -> bool:
    """True iff a = z^2 + z for some z in the Laurent field."""
    return wp_reduce(a).is_zero()


def wp_root(a: FieldElem) -> Optional[FieldElem]:
    """A rational z with z^2 + z = a, or None.

    A returned z is a root.  None does not prove that no rational root
    exists: the root of the positive-valuation part is sought by the rewrite
    r -> r + (c t^k + c^2 t^{2k}), which adds one monomial per step and so
    finds only Laurent-polynomial roots; it gives up when 2k passes the
    degree cap, and a DegreeOverflow on the way is turned into None too.  A
    rational root that is an infinite series is missed, and the overflow is
    what usually ends the walk: for a = s/(s^2+1) over F2((s)), whose root
    is 1/(1+s), the step at k = 32 raises "degree 66 exceeds cap 64" before
    2k passes the cap; t^3 + s/(s^2+1) over F2((s))((t)) fails the same way.
    Membership in wp(K-hat) is decided by wp_member, not here.
    """
    K = a.field
    if K.level == 0:
        return base_wp_solve(a, K.one())
    if a.is_zero():
        return K.zero()
    t = K.var(K.top_variable)
    wild, const, z = principal_root(a)
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
        new_field = intern_field(2 * K.base_exponent, K.variables)
    return ExtensionResult(kind, delta, new_field)


# ---------------------------------------------------------------------------
# Parsing.

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
    return intern_field(e, tuple(varnames))


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
