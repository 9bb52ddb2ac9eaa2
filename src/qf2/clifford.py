"""Clifford algebras and their centres, and the splitting-index machinery
that reduces index computations to Witt indices.

The centre of C(phi) or C_0(phi) is read off the form: its quasilinear rank,
and the Arf representative delta with centre K[T]/(T^2 + T + delta).  No
multiplication table is built and no linear system is solved; the structure
constants, and the linear solve for the centre on them, are the tests'
reference (tests/clifford_oracle.py).

Index computation never does generic central-simple-algebra arithmetic: a
nonsingular block [a,b] has Clifford algebra the quaternion symbol (ab, a]
(generators u, v with u^2 + u = ab, v^2 = a, vu = (u+1)v), an even form is a
tensor product of its block symbols, and every index question is routed
through symbol simplification plus isotropy decisions on norm forms and
biquaternion Albert forms.  Anything beyond that returns an honest interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (NotAlbert, OddDimension, QF2Error, SoundnessError,
                     Undecided)
from .fieldtower import (ExtensionResult, FieldElem, is_square, quad_extend,
                         render_json, wp_member, wp_root)
from .forms import (PfisterSpec, QuadraticForm, arf, arf_representative,
                    discriminant_algebra, form_fact, make_pfister,
                    orthogonal_sum, scale)
from .witt import decide_isotropy, witt_decompose, witt_index_over_ext

__all__ = [
    "CliffordAlgebra", "AlgebraClassDescriptor", "SplittingIndexResult",
    "CenterResult", "build_clifford", "center_and_idempotents",
    "quaternion_splits", "albert_index", "splitting_index",
    "even_clifford_class",
]


# ---------------------------------------------------------------------------
# Clifford algebras.

class CliffordAlgebra:
    """C(phi), or its even part C_0(phi), described and not multiplied out:
    the form, which part, and the dimension 2^n (2^(n-1) for the even part
    when n >= 1)."""

    def __init__(self, form: QuadraticForm, even_only: bool = False):
        self.form = form
        self.even_only = even_only
        self.n = form.dim
        self.K = form.field
        self.dim = 1 << (self.n - 1) if even_only and self.n else 1 << self.n


def build_clifford(phi: QuadraticForm,
                   even_only: bool = False) -> CliffordAlgebra:
    """C(phi) (or C_0(phi)), described at any dimension."""
    return CliffordAlgebra(phi, even_only=even_only)


# ---------------------------------------------------------------------------
# Center and splitting idempotents.

@dataclass(frozen=True)
class CenterResult:
    dimension: int
    delta: Optional[FieldElem]          # center = K[T]/(T^2+T+delta) if etale
    classification: Optional[str]       # "split"|"field"|"unsupported"|
                                        # "inseparable"
    idempotent: Optional[dict]          # algebra element, when rational


def center_and_idempotents(A: CliffordAlgebra) -> CenterResult:
    """The centre of A, read off the form; for an etale 2-dimensional
    centre, the class of its Artin-Schreier polynomial and, when it splits
    rationally, the idempotent realizing C_0 = A x A.

    Write phi = psi + <c_1..c_r> with psi = [a_1,b_1] + ... + [a_m,b_m].
    C(psi) is central simple, and the quasilinear generators z_j commute
    with every generator (their polar values are 0), so the centre of C(phi)
    is the commutative C(<c_1..c_r>), of dimension 2^r.  For r >= 1 the
    products e_i z_1 (e_i not z_1) generate C_0(phi) under the relations of
    c_1 (psi + <c_2..c_r>), so its centre has dimension 2^(r-1).  A
    2-dimensional centre of this kind is K[z] with z^2 in K: "inseparable".

    For r = 0 the full algebra is central simple, and C_0(psi) has centre
    K + Ku, u = sum_i e_(2i) e_(2i+1).  Since e_1 e_0 = e_0 e_1 + 1,
    (e_0 e_1)^2 = e_0 (e_0 e_1 + 1) e_1 = ab + e_0 e_1; the block terms
    commute, so u^2 + u = sum a_i b_i, the Arf representative delta, and the
    centre is the discriminant algebra K[T]/(T^2 + T + delta) (EKM 2008,
    ch. II), which a caller may already hold.  A linear solve for
    the centralizer finds this same u: mask 0 is a free column of its own,
    so the kernel vector besides 1 is the multiple of u with a 1 at its
    free column, and every coefficient of u is 1.  When wp_root gives z_0,
    u + z_0 is the idempotent: z_0 is central, so (u + z_0)^2 =
    u + delta + z_0^2, which is u + z_0 exactly when z_0^2 + z_0 = delta,
    and that is checked here in K.  The tests multiply out both identities
    in the structure constants (tests/clifford_oracle.py)."""
    r = len(A.form.quasilinear)
    if r:
        dim = 2 ** (r - 1) if A.even_only else 2 ** r
        return CenterResult(dim, None,
                            "inseparable" if dim == 2 else None, None)
    if not A.even_only or A.n == 0:
        return CenterResult(1, None, None, None)
    centre = discriminant_algebra(A.form)
    delta = centre.delta
    if centre.kind != "split":
        return CenterResult(2, delta, centre.kind, None)
    z = wp_root(delta)
    if z is None:
        return CenterResult(2, delta, "split", None)
    if not (z * z + z + delta).is_zero():
        raise SoundnessError("idempotent check failed")
    one = A.K.one()
    idem = {3 << (2 * i): one for i in range(len(A.form.blocks))}
    if not z.is_zero():
        idem[0] = z
    return CenterResult(2, delta, "split", idem)


# ---------------------------------------------------------------------------
# Quaternion symbols.

def quaternion_splits(alpha: FieldElem, beta: FieldElem) -> Optional[bool]:
    """Does the symbol (alpha, beta] split?  None = Unknown.

    The norm form is the 2-fold Pfister <<beta; alpha]]; the
    symbol splits iff that form is isotropic.  A square beta degenerates the
    bilinear slot and splits outright."""
    if beta.is_zero():
        raise ZeroDivisionError("beta must be nonzero")
    sq, _ = is_square(beta)
    if sq:
        return True
    if wp_member(alpha):
        return True
    v = decide_isotropy(make_pfister(PfisterSpec(alpha.field, (beta,),
                                                  alpha)))
    if v.is_unknown:
        return None
    return v.is_isotropic


def _biquaternion_albert_form(s1, s2) -> QuadraticForm:
    """Albert form of (a1,b1] (x) (a2,b2]: [1, a1+a2] + b1[1,a1] + b2[1,a2]."""
    (a1, b1), (a2, b2) = s1, s2
    K = a1.field
    one = K.one()
    return orthogonal_sum(
        orthogonal_sum(QuadraticForm(K, ((one, a1 + a2),)),
                       scale(b1, QuadraticForm(K, ((one, a1),)))),
        scale(b2, QuadraticForm(K, ((one, a2),))))


def albert_index(psi: QuadraticForm):
    """Index of C(psi) for an Albert form psi (dim 6, trivial Arf):
    4 / 2 / 1 according to i_W(psi) = 0 / 1 / 3."""
    if psi.dim != 6 or not psi.is_nonsingular:
        raise NotAlbert("need a nonsingular form of dimension 6")
    if not arf(psi).is_zero():
        raise NotAlbert("nonzero Arf invariant")
    dec = witt_decompose(psi)
    iw = dec.witt_index
    if iw == 0:
        return 4
    if iw == 1:
        return 2
    if iw == 3:
        return 1
    raise SoundnessError(f"Albert form with impossible Witt index {iw}")


# ---------------------------------------------------------------------------
# Symbol lists and index intervals.

def _symbols_of_even_form(phi: QuadraticForm):
    """[C(phi)] as a list of quaternion symbols (one per non-hyperbolic
    block); valid since C of an orthogonal sum of blocks is the tensor
    product of the block algebras and C([a,b]) = (ab, a]."""
    syms = []
    for a, b in phi.blocks:
        if a.is_zero() or b.is_zero():
            continue
        syms.append((a * b, a))
    return syms


def _simplify_symbols(symbols):
    """Merge symbols sharing a slot: (x,b](y,b] = (x+y,b] and
    (x,b](x,c] = (x,bc]; drop split slots (b square or x in wp)."""
    syms = list(symbols)
    changed = True
    while changed:
        changed = False
        out = []
        for alpha, beta in syms:
            if is_square(beta)[0] or wp_member(alpha):
                changed = True
                continue
            merged = False
            for i, (a2, b2) in enumerate(out):
                if wp_member(alpha + a2):
                    out[i] = (a2, beta * b2)
                    merged = True
                    break
                if is_square(beta / b2)[0]:
                    out[i] = (alpha + a2, b2)
                    merged = True
                    break
            if merged:
                changed = True
            else:
                out.append((alpha, beta))
        syms = out
    return syms


def _index_interval_of_symbols(symbols):
    """(low, high) for the index of the tensor product of the symbols."""
    syms = _simplify_symbols(symbols)
    status = []
    for alpha, beta in syms:
        status.append(quaternion_splits(alpha, beta))
    division = [s for s, st in zip(syms, status) if st is False]
    unknown = [s for s, st in zip(syms, status) if st is None]
    if unknown:
        return 1, 2 ** (len(division) + len(unknown))
    if not division:
        return 1, 1
    if len(division) == 1:
        return 2, 2
    if len(division) == 2:
        q = _biquaternion_albert_form(division[0], division[1])
        try:
            ind = albert_index(q)
        except Undecided:
            return 1, 4
        return ind, ind
    return 1, 2 ** len(division)


@dataclass(frozen=True)
class AlgebraClassDescriptor:
    """Brauer-class surrogate for C'_0(phi): center, quaternion symbols over
    the center, an optional small companion form in I^2_q, and the certified
    index interval (powers of 2)."""

    center: ExtensionResult
    symbols: tuple
    companion_form: Optional[QuadraticForm]
    index_interval: tuple
    rules: tuple = ()

    def to_json(self):
        return render_json({"center": self.center.kind,
                            "symbols": self.symbols,
                            "companion_form": self.companion_form,
                            "index_interval": self.index_interval,
                            "rules": self.rules})


def even_clifford_class(phi: QuadraticForm) -> AlgebraClassDescriptor:
    """Descriptor of [C'_0(phi)] over its center.

    Odd dim: phi = psi + <c> gives C_0(phi) = C(c psi) over K.
    Even dim: [C'_0] is [C(phi)] over the centre's field (K itself when the
    Arf invariant is trivial), so the block symbols are embedded there; a
    ramified centre leaves the interval wide open.

    The index interval is splitting_index(phi)'s (its memo) wherever that
    is resolved and not itself read off the symbols: the index of C'_0(phi)
    is ind(phi).  Elsewhere, and whenever splitting_index raises, the
    symbols certify the interval alone (_symbol_class).
    """
    interval = _splitting_interval(phi)
    if interval is None:
        return _symbol_class(phi)
    center, syms, comp, rule = _class_symbols(phi)
    return AlgebraClassDescriptor(center, syms, comp, interval, (rule,))


def _splitting_interval(phi: QuadraticForm) -> Optional[tuple]:
    """splitting_index(phi)'s index interval; None over a ramified centre,
    and wherever splitting_index raises, is unresolved or read its interval
    off the symbols (an anisotropic kernel of dim >= 7)."""
    if phi.is_nonsingular and \
            discriminant_algebra(phi).kind == "unsupported":
        return None
    try:
        res = splitting_index(phi)
    except QF2Error:
        return None
    if not res.resolved or res.rule.startswith("symbols"):
        return None
    return res.ind_low, res.ind_high


def _symbol_class(phi: QuadraticForm) -> AlgebraClassDescriptor:
    """even_clifford_class(phi) with the interval that the symbols certify
    alone.  _splitting_index_anisotropic reads this, not even_clifford_class,
    so the two never recurse into each other."""
    center, syms, comp, rule = _class_symbols(phi)
    if syms is None:
        return AlgebraClassDescriptor(center, (), None,
                                      (1, 2 ** ((phi.dim - 1) // 2)),
                                      (rule,))
    return AlgebraClassDescriptor(center, syms, comp,
                                  _index_interval_of_symbols(syms), (rule,))


def _class_symbols(phi: QuadraticForm):
    """(center, symbols, companion form, rule) of [C'_0(phi)], the symbols
    embedded over the centre; the symbols are None over a ramified
    centre."""
    K = phi.field
    if phi.is_nonsingular:
        center = discriminant_algebra(phi)
        if center.kind == "unsupported":
            return center, None, None, "ramified-center"
        syms = tuple((center.embed(a), center.embed(b))
                     for a, b in _symbols_of_even_form(phi))
        rule = "even-trivial-arf-symbols" if center.kind == "split" \
            else "even-arf-symbols-over-Z"
        return center, syms, None, rule
    if len(phi.quasilinear) == 1:
        # C_0(psi + <c>) = C(c psi), central simple over K itself
        comp = scale(phi.quasilinear[0], QuadraticForm(K, phi.blocks))
        return (quad_extend(K, K.zero()), tuple(_symbols_of_even_form(comp)),
                comp, "odd-scaled-symbols")
    raise OddDimension("need a nondegenerate form")


# ---------------------------------------------------------------------------
# Splitting index.

@dataclass(frozen=True)
class SplittingIndexResult:
    """s(phi) and ind(phi) with s + log2(ind) = [(dim-1)/2] when resolved."""

    dim: int
    s: Optional[int]
    ind_low: int
    ind_high: int
    rule: str

    @property
    def resolved(self) -> bool:
        return self.s is not None

    @property
    def ind(self) -> int:
        if self.ind_low != self.ind_high:
            raise Undecided("index interval not collapsed")
        return self.ind_low

    def to_json(self):
        return {"dim": self.dim, "s": self.s,
                "index_interval": [self.ind_low, self.ind_high],
                "rule": self.rule}


def _resolved(dim, ind, rule):
    m = (dim - 1) // 2
    s = m - ind.bit_length() + 1
    return SplittingIndexResult(dim, s, ind, ind, rule)


def _interval(dim, low, high, rule):
    return SplittingIndexResult(dim, None, low, high, rule)


@form_fact
def splitting_index(phi: QuadraticForm) -> SplittingIndexResult:
    """s(phi) and ind(phi) via the Witt-index reductions.

    Hyperbolic forms: s = i_W - 1, ind = 1.  Otherwise s(phi) =
    i_W + s(kernel) and ind(phi) = ind(kernel), so everything reduces to the
    anisotropic kernel, where the dimension-wise rules apply (conic isotropy
    in dim 3, discriminant-extension Witt indices in dims 4 and 6, the
    companion Albert form in dim 5, block-symbol intervals beyond).
    Unresolved cases return honest index intervals.
    """
    if not phi.is_nondegenerate:
        raise OddDimension("splitting index needs a nondegenerate form")
    if phi.dim < 1:
        raise Undecided("dimension out of range")
    dim = phi.dim
    m = (dim - 1) // 2
    try:
        dec = witt_decompose(phi)
    except Undecided:
        return _interval(dim, 1, 2 ** m, "witt-undecided")
    iw = dec.witt_index
    if iw == 0:
        # the kernel is a bare copy of phi; phi itself holds its facts
        return _splitting_index_anisotropic(phi)
    kernel = dec.kernel
    if kernel.dim == 0:
        return SplittingIndexResult(dim, iw - 1, 1, 1, "hyperbolic")
    kres = _splitting_index_anisotropic(kernel)
    return SplittingIndexResult(dim, kres.s + iw if kres.resolved else None,
                                kres.ind_low, kres.ind_high,
                                f"{kres.rule}+strip{iw}")


def _splitting_index_anisotropic(phi: QuadraticForm) -> SplittingIndexResult:
    K = phi.field
    dim = phi.dim
    m = (dim - 1) // 2
    if dim == 1:
        return _resolved(1, 1, "point")
    if dim == 2:
        return _resolved(2, 1, "binary")
    if dim == 3:
        # anisotropic conic: C_0 is a division quaternion algebra
        return _resolved(3, 2, "conic-anisotropic")
    if dim == 4:
        disc = discriminant_algebra(phi)
        if disc.kind == "split":
            return _resolved(4, 2, "pfister4-anisotropic")
        if disc.kind == "field":
            try:
                iw = witt_index_over_ext(phi, disc)
            except Undecided:
                return _interval(4, 1, 2, "dim4-ext-undecided")
            return _resolved(4, 2 if iw == 0 else 1, "dim4-over-Z")
        return _interval(4, 1, 2, "dim4-ramified")
    if dim == 5:
        psi = QuadraticForm(K, phi.blocks)
        c = phi.quasilinear[0]
        delta = arf_representative(psi)
        companion = orthogonal_sum(
            scale(c, QuadraticForm(K, ((K.one(), delta),))), psi)
        try:
            ind = albert_index(companion)
        except Undecided:
            return _interval(5, 1, 4, "dim5-companion-undecided")
        return _resolved(5, ind, "dim5-companion-albert")
    if dim == 6:
        disc = discriminant_algebra(phi)
        if disc.kind == "split":
            try:
                return _resolved(6, albert_index(phi), "dim6-albert")
            except Undecided:
                return _interval(6, 1, 4, "dim6-albert-undecided")
        if disc.kind != "field":
            return _interval(6, 1, 4, "dim6-ramified")
        try:
            iw = witt_index_over_ext(phi, disc)
        except Undecided:
            return _interval(6, 1, 4, "dim6-ext-undecided")
        ind = {0: 4, 1: 2, 3: 1}.get(iw)
        if ind is None:
            raise SoundnessError(f"dim-6 over Z with i_W = {iw}")
        return _resolved(6, ind, "dim6-over-Z")
    # dim >= 7: the symbol-calculus descriptor carries whatever is certified
    desc = _symbol_class(phi)
    low, high = desc.index_interval
    if low == high:
        return _resolved(dim, low, "symbols")
    return _interval(dim, low, high, "symbols")
