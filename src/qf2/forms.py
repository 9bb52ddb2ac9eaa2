"""Quadratic forms in characteristic 2: normal form, Arf invariant,
discriminant algebra (K[T]/(T^2 + T + delta) for delta the Arf
representative, classified once by quad_extend as "split", "field" or
"unsupported"), sums/scaling, subform and representation tests.

A form is an orthogonal sum of binary blocks [a,b] = ax^2 + xy + by^2 plus a
quasilinear diagonal <c_1,...,c_r> (each c_j nonzero).  Nonsingular means no
quasilinear part; nondegenerate allows at most one quasilinear entry.  Blocks
with a zero entry are hyperbolic and get normalized to [0,0] eagerly.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field as dc_field

from .errors import (Degenerate, FieldMismatch, OddDimension, ParseError,
                     Undecided, ZeroScalar)
from .fieldtower import (ExtensionResult, FieldDescriptor, FieldElem,
                         WpClass, _check_divisor, _parse_expr, _parse_factor,
                         _Tok, is_square, quad_extend, render_element,
                         render_json, wp_reduce)

__all__ = [
    "QuadraticForm", "GramInput",
    "hyperbolic_plane", "hyperbolic", "block",
    "normal_form", "normal_form_trace", "arf", "arf_representative",
    "discriminant_algebra", "orthogonal_sum", "scale",
    "square_scale_block", "subform_test", "represents", "isometric",
    "parse_form", "render_form",
]


@dataclass(frozen=True)
class QuadraticForm:
    """Immutable block normal presentation of a quadratic form."""

    field: FieldDescriptor
    blocks: tuple = ()       # ((a, b), ...) FieldElem pairs
    quasilinear: tuple = ()  # (c, ...) nonzero FieldElems
    # form_fact's weak references, keyed by the fact's function; never
    # pickled
    _facts: dict = dc_field(init=False, repr=False, compare=False,
                            default_factory=dict)

    def __post_init__(self):
        zero = self.field.zero()
        fixed = []
        for a, b in self.blocks:
            if a.field != self.field or b.field != self.field:
                raise FieldMismatch("block entry over the wrong field")
            # [a,0] and [0,b] are hyperbolic planes.
            if a.is_zero() or b.is_zero():
                a = b = zero
            fixed.append((a, b))
        object.__setattr__(self, "blocks", tuple(fixed))
        for c in self.quasilinear:
            if c.field != self.field:
                raise FieldMismatch("quasilinear entry over the wrong field")
            if c.is_zero():
                raise Degenerate(1)

    def __reduce__(self):
        return type(self), (self.field, self.blocks, self.quasilinear)

    @property
    def dim(self) -> int:
        return 2 * len(self.blocks) + len(self.quasilinear)

    @property
    def is_nonsingular(self) -> bool:
        return not self.quasilinear

    @property
    def is_nondegenerate(self) -> bool:
        return len(self.quasilinear) <= 1

    def evaluate(self, vec) -> FieldElem:
        """phi(vec); coordinates ordered block pairs then quasilinear."""
        if len(vec) != self.dim:
            raise ValueError("wrong vector length")
        acc = self.field.zero()
        i = 0
        for a, b in self.blocks:
            x, y = vec[i], vec[i + 1]
            acc = acc + a * x * x + x * y + b * y * y
            i += 2
        for c in self.quasilinear:
            z = vec[i]
            acc = acc + c * z * z
            i += 1
        return acc

    def polar(self, v, w) -> FieldElem:
        """Polar form b(v, w) = phi(v+w) + phi(v) + phi(w)."""
        acc = self.field.zero()
        i = 0
        for _ in self.blocks:
            acc = acc + v[i] * w[i + 1] + v[i + 1] * w[i]
            i += 2
        return acc

    def __str__(self):
        return render_form(self)

    def __repr__(self):
        return f"<form {render_form(self)} over {self.field.render()}>"

    def to_json(self):
        return render_json({"field": self.field.render(),
                            "blocks": self.blocks,
                            "quasilinear": self.quasilinear})


def form_fact(fn):
    """Memoize fn(phi) on phi by a weak reference: a value that holds phi
    makes no cycle and is kept while held.  None and errors are not kept.
    The key is fn itself, so two facts of the same name never meet."""
    @functools.wraps(fn)
    def memo(phi):
        value = phi._facts.get(fn, lambda: None)()
        if value is None:
            value = fn(phi)
            if value is not None:
                phi._facts[fn] = weakref.ref(value)
        return value
    return memo


@dataclass(frozen=True)
class GramInput:
    """Upper-triangular coefficient matrix: diagonal = x_i^2 coefficients,
    entry (i,j), i<j, the x_i x_j coefficient."""

    field: FieldDescriptor
    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        if n < 1 or any(len(r) != n for r in self.entries):
            raise ValueError("need a square matrix of dimension >= 1")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def evaluate(self, vec) -> FieldElem:
        """The sum of entries[i][j] * vec[i] * vec[j] over i <= j, taken
        over the support of vec and the nonzero entries only, in row order
        and with each term associated as (entry * vec[i]) * vec[j]."""
        acc = self.field.zero()
        support = [i for i, x in enumerate(vec) if not x.is_zero()]
        for k, i in enumerate(support):
            row, xi = self.entries[i], vec[i]
            for j in support[k:]:
                if not row[j].is_zero():
                    acc = _plus(acc, row[j] * xi * vec[j])
        return acc

    def polar(self, v, w) -> FieldElem:
        # B = G + G^T has zero diagonal in characteristic 2.
        acc = self.field.zero()
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                acc = acc + self.entries[i][j] * (v[i] * w[j] + v[j] * w[i])
        return acc


def hyperbolic_plane(K: FieldDescriptor) -> QuadraticForm:
    z = K.zero()
    return QuadraticForm(K, ((z, z),))


def hyperbolic(K: FieldDescriptor, n: int) -> QuadraticForm:
    z = K.zero()
    return QuadraticForm(K, tuple((z, z) for _ in range(n)))


def block(a: FieldElem, b: FieldElem) -> QuadraticForm:
    return QuadraticForm(a.field, ((a, b),))


# ---------------------------------------------------------------------------
# Normal form via symplectic reduction of the polar form.

def _plus(acc: FieldElem, t: FieldElem) -> FieldElem:
    """acc + t, with no call when acc is zero (the sum is then t)."""
    return t if acc.is_zero() else acc + t


def _axpy(acc: FieldElem, a: FieldElem, x: FieldElem) -> FieldElem:
    """acc + a*x, with no arithmetic when a or x is zero."""
    if a.is_zero() or x.is_zero():
        return acc
    return _plus(acc, a * x)


def normal_form_trace(g: GramInput):
    """Block normal form plus the change of basis that realizes it.

    Returns (form, basis) where basis is a list of coordinate vectors (rows,
    in the original coordinates) ordered block pair by block pair, then the
    radical vector if present.  Raises Degenerate(r) when the radical of the
    polar form has dimension >= 2, or when a radical vector has phi = 0
    (zero quasilinear entries are not allowed on nondegenerate forms).

    The polar values of the working vectors are kept in a matrix, read once
    from the Gram entries and updated after each split; phi-values come
    from g.evaluate.  Only nonzero arithmetic is done.  A working vector v_k
    with b(v_k, x) = b(v_k, y) = 0 is kept as it is, and so is a polar entry
    unless both of its vectors change; every other update adds its nonzero
    terms only, each associated as in the full expression.  Adding or
    multiplying by zero costs nothing in the field kernel, so the form and
    the basis are the same.  A skipped product, such as b(v_k, y) * x[m]
    with x[m] = 0, can no longer raise DegreeOverflow, so an overflow can
    disappear, but none can appear.
    """
    K = g.field
    n = g.dim
    zero, one = K.zero(), K.one()
    vectors = [[one if j == i else zero for j in range(n)] for i in range(n)]
    # polar[k][l] = b(vectors[k], vectors[l]); b = G + G^T has zero diagonal
    entries = g.entries
    polar = [[entries[min(k, l)][max(k, l)] if k != l else zero
              for l in range(n)] for k in range(n)]
    blocks = []
    basis = []
    while True:
        pair = next(((i, j) for i in range(len(vectors))
                     for j in range(i + 1, len(vectors))
                     if not polar[i][j].is_zero()), None)
        if pair is None:
            break
        i, j = pair
        x = vectors[i]
        binv = polar[i][j].inverse()
        y = [c if c.is_zero() else binv * c for c in vectors[j]]
        keep = [k for k in range(len(vectors)) if k not in (i, j)]
        cx = [_axpy(zero, binv, polar[k][j]) for k in keep]  # b(v_k, y)
        cy = [polar[k][i] for k in keep]                     # b(v_k, x)
        va, vb = g.evaluate(x), g.evaluate(y)
        # keep the basis in sync with the eager [a,0]/[0,b] -> H rewrite
        if va.is_zero() and not vb.is_zero():
            y = [_axpy(y[m], vb, x[m]) for m in range(n)]
            cx = [_axpy(u, vb, w) for u, w in zip(cx, cy)]
            vb = g.evaluate(y)
        elif vb.is_zero() and not va.is_zero():
            x = [_axpy(x[m], va, y[m]) for m in range(n)]
            cy = [_axpy(w, va, u) for u, w in zip(cx, cy)]
            va = g.evaluate(x)
        blocks.append((va, vb))
        basis.append(x)
        basis.append(y)
        # v_k -> v_k + b(v_k,y) x + b(v_k,x) y is orthogonal to x and y; as
        # b(x,y) = 1 and b is alternating, b(w_k, w_l) = b(v_k, v_l)
        # + cx_l cy_k + cx_k cy_l in characteristic 2
        moved = [not (u.is_zero() and w.is_zero()) for u, w in zip(cx, cy)]
        vectors = [[_axpy(_axpy(vectors[k][m], cx[r], x[m]), cy[r], y[m])
                    for m in range(n)] if moved[r] else vectors[k]
                   for r, k in enumerate(keep)]
        new = [[zero] * len(keep) for _ in keep]
        for r, k in enumerate(keep):
            for s in range(r + 1, len(keep)):
                p = polar[k][keep[s]]
                if moved[r] and moved[s]:
                    p = _axpy(_axpy(p, cx[s], cy[r]), cx[r], cy[s])
                new[r][s] = new[s][r] = p
        polar = new
    if len(vectors) >= 2:
        raise Degenerate(len(vectors))
    quasilinear = []
    if vectors:
        v = vectors[0]
        c = g.evaluate(v)
        if c.is_zero():
            raise Degenerate(1)
        quasilinear.append(c)
        basis.append(v)
    return QuadraticForm(K, tuple(blocks), tuple(quasilinear)), basis


def normal_form(g: GramInput) -> QuadraticForm:
    return normal_form_trace(g)[0]


# ---------------------------------------------------------------------------
# Arf invariant and the discriminant algebra.

def arf_representative(phi: QuadraticForm) -> FieldElem:
    """The element sum a_i b_i whose wp-class is the Arf invariant."""
    if not phi.is_nonsingular:
        raise OddDimension("Arf invariant needs a nonsingular form")
    acc = phi.field.zero()
    for a, b in phi.blocks:
        acc = acc + a * b
    return acc


@form_fact
def arf(phi: QuadraticForm) -> WpClass:
    return wp_reduce(arf_representative(phi))


@form_fact
def discriminant_algebra(phi: QuadraticForm) -> ExtensionResult:
    """K[T]/(T^2 + T + delta) for delta the Arf representative."""
    return quad_extend(phi.field, arf_representative(phi))


# ---------------------------------------------------------------------------
# Sums and scaling.

def orthogonal_sum(phi: QuadraticForm, psi: QuadraticForm) -> QuadraticForm:
    if phi.field != psi.field:
        raise FieldMismatch("orthogonal sum over different fields")
    return QuadraticForm(phi.field, phi.blocks + psi.blocks,
                         phi.quasilinear + psi.quasilinear)


def scale(lam: FieldElem, phi: QuadraticForm) -> QuadraticForm:
    """lam * phi, using lam[a,b] = [lam*a, b/lam] and lam<c> = <lam*c>."""
    if lam.field != phi.field:
        raise FieldMismatch("scalar over the wrong field")
    if lam.is_zero():
        raise ZeroScalar("cannot scale by zero")
    inv = lam.inverse()
    return QuadraticForm(phi.field,
                         tuple((lam * a, inv * b) for a, b in phi.blocks),
                         tuple(lam * c for c in phi.quasilinear))


def square_scale_block(phi: QuadraticForm, i: int, c: FieldElem) -> QuadraticForm:
    """Isometry [a,b] -> [a c^2, b c^-2] on block i (basis rescaling)."""
    if c.is_zero():
        raise ZeroScalar("square-scaling by zero")
    a, b = phi.blocks[i]
    c2 = c * c
    newblocks = list(phi.blocks)
    newblocks[i] = (a * c2, b / c2)
    return QuadraticForm(phi.field, tuple(newblocks), phi.quasilinear)


# ---------------------------------------------------------------------------
# Subform / representation / isometry tests (decided by the Witt engine).

def subform_test(sigma: QuadraticForm, phi: QuadraticForm) -> bool:
    """sigma embeds in phi, for nonsingular sigma and phi.

    Criterion: i_W(phi _|_ sigma) >= dim sigma (sigma _|_ sigma is hyperbolic
    in characteristic 2, so Witt cancellation gives the equivalence).
    Raises Undecided when the engine cannot settle the Witt index.
    """
    from .witt import witt_decompose  # deferred: forms <-> witt layering
    if not (sigma.is_nonsingular and phi.is_nonsingular):
        raise OddDimension("subform test handles nonsingular forms")
    if sigma.field != phi.field:
        raise FieldMismatch("subform test over different fields")
    if sigma.dim > phi.dim:
        return False
    dec = witt_decompose(orthogonal_sum(phi, sigma))
    return dec.witt_index >= sigma.dim


def represents(phi: QuadraticForm, c: FieldElem) -> bool:
    """Does phi take the value c (c nonzero)?"""
    from .witt import decide_isotropy
    if c.is_zero():
        raise ZeroScalar("representation of zero is isotropy")
    if not phi.is_nondegenerate:
        raise Degenerate(len(phi.quasilinear))
    verdict = decide_isotropy(phi)
    if verdict.kind == "isotropic" and phi.blocks:
        # A nondegenerate isotropic form with a nonsingular part contains a
        # hyperbolic plane, hence is universal.
        return True
    ql = QuadraticForm(phi.field, (), (c,))
    v2 = decide_isotropy(orthogonal_sum(phi, ql))
    if v2.kind == "unknown" or verdict.kind == "unknown":
        raise Undecided("representation undecided: "
                        + (v2.reason or verdict.reason))
    return v2.kind == "isotropic"


def isometric(phi: QuadraticForm, psi: QuadraticForm) -> bool:
    """Semantic isometry test.

    Nonsingular: equal dimension and phi _|_ psi hyperbolic.  Odd-dimensional
    nondegenerate: the quasilinear square class must match (it is an isometry
    invariant); then isometry of the nonsingular parts is sufficient, and
    anything subtler raises Undecided.
    """
    from .witt import witt_decompose
    if phi.field != psi.field:
        raise FieldMismatch("isometry over different fields")
    if phi.dim != psi.dim:
        return False
    if phi.is_nonsingular and psi.is_nonsingular:
        dec = witt_decompose(orthogonal_sum(phi, psi))
        return dec.witt_index == phi.dim
    if len(phi.quasilinear) == 1 and len(psi.quasilinear) == 1:
        ratio_sq, _ = is_square(phi.quasilinear[0] / psi.quasilinear[0])
        if not ratio_sq:
            return False
        a = QuadraticForm(phi.field, phi.blocks)
        b = QuadraticForm(psi.field, psi.blocks)
        if isometric(a, b):
            return True
        raise Undecided("odd-dimensional isometry beyond square-class + "
                        "nonsingular-part comparison")
    raise Undecided("isometry of singular forms")


# ---------------------------------------------------------------------------
# Form DSL: [a,b] blocks, <c> quasilinear, +, scalar '*', pf(a1,..;b).

def parse_form(K: FieldDescriptor, text: str) -> QuadraticForm:
    tk = _Tok(text)
    phi = _parse_form_sum(tk, K)
    if not tk.done():
        tk.fail("end of form expression")
    return phi


def _parse_form_sum(tk, K) -> QuadraticForm:
    phi = _parse_form_item(tk, K)
    while tk.peek() == "+":
        tk.next()
        phi = orthogonal_sum(phi, _parse_form_item(tk, K))
    return phi


def _parse_form_item(tk, K) -> QuadraticForm:
    """[scalar '*'] primary.  Once a scalar and its '*' are read, an error in
    the primary propagates.  When the scalar route and the bare-primary
    route both fail, the error further into the text is raised, so that a
    zero divisor or an unknown name inside the scalar is reported where it
    is."""
    if tk.peek() in ("[", "<", "pf"):
        return _parse_form_primary(tk, K)
    save = tk.i
    try:
        lam = _parse_scalar(tk, K)
    except ParseError as exc:
        scalar_error = exc
    else:
        if tk.peek() == "*":
            tk.next()
            return scale(lam, _parse_form_primary(tk, K))
        scalar_error = None
    tk.i = save
    try:
        return _parse_form_primary(tk, K)
    except ParseError as exc:
        if scalar_error is not None and \
                (scalar_error.line, scalar_error.col) > (exc.line, exc.col):
            raise scalar_error from None
        raise


def _parse_scalar(tk, K) -> FieldElem:
    """An element expression that stops before '*' followed by a form opener."""
    x = _parse_factor(tk, K)
    while tk.peek() in ("*", "/"):
        op = tk.peek()
        nxt = tk.toks[tk.i + 1][0] if tk.i + 1 < len(tk.toks) else None
        if op == "*" and (nxt in ("[", "<", "pf", "(") or nxt is None):
            break
        tk.next()
        at = tk.i
        y = _parse_factor(tk, K)
        if op == "/":
            _check_divisor(tk, at, y)
        x = x * y if op == "*" else x / y
    return x


def _parse_form_primary(tk, K) -> QuadraticForm:
    t = tk.peek()
    if t == "[":
        tk.next()
        a = _parse_expr(tk, K)
        tk.expect(",")
        b = _parse_expr(tk, K)
        tk.expect("]")
        return QuadraticForm(K, ((a, b),))
    if t == "<":
        tk.next()
        entries = [_parse_expr(tk, K)]
        while tk.peek() == ",":
            tk.next()
            entries.append(_parse_expr(tk, K))
        tk.expect(">")
        return QuadraticForm(K, (), tuple(entries))
    if t == "pf":
        tk.next()
        tk.expect("(")
        slots = [_parse_expr(tk, K)]
        while tk.peek() == ",":
            tk.next()
            slots.append(_parse_expr(tk, K))
        tk.expect(";")
        quad = _parse_expr(tk, K)
        tk.expect(")")
        from .pfister import PfisterSpec, make_pfister
        return make_pfister(PfisterSpec(K, tuple(slots), quad))
    if t == "(":
        tk.next()
        phi = _parse_form_sum(tk, K)
        tk.expect(")")
        return phi
    tk.fail("a block [a,b], <c>, pf(...), or (form)")


def render_form(phi: QuadraticForm) -> str:
    parts = []
    for a, b in phi.blocks:
        parts.append(f"[{render_element(a)},{render_element(b)}]")
    if phi.quasilinear:
        parts.append("<" + ",".join(render_element(c)
                                    for c in phi.quasilinear) + ">")
    return " + ".join(parts) if parts else "0"
