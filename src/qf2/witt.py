"""Isotropy decisions and Witt decompositions over the tower family.

Decision strategy: the finite base is solved exactly (trace criterion per
block, universality of anisotropic binaries); at a Laurent level a form is
settled block-locally (wp-membership of a*b decides any binary block, wild
or not), through quasilinear Frobenius-dependence (exact at every level), or
through the first/second residue forms after per-block normalization,
recursing on the residue field.  Blocks whose product class is wild at the
current level resist normalization; inside a form of dimension >= 3 they
produce the first-class Unknown verdict.

Soundness contract: "isotropic"/"anisotropic" refer to the full Laurent
field.  Every isotropic verdict carries an explicit witness, which evaluates
to zero exactly, or, since roots of z^2 + z = w are usually not rational
fractions, an isotropic block (wp-membership of its product) or an isotropic
plane: a rational 2-plane whose binary form has wp-trivial product class.
Normalization retames a block only by a rational shear, so all certificate
vectors are in the coordinates of the verdict's own form and certificates
compose through the residue recursion.  Certificates and plane records hold
exact elements, vectors and sub-verdicts; to_json renders them (render_json).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._kernel import (base_field_mul, base_sqrt, base_wp_solve,
                      polynomial_denominator, polynomial_terms, principal_root)
from ._linalg import row_dependency
from .errors import (BudgetExceeded, Degenerate, NotNormalizable,
                     SoundnessError, Undecided)
from .fieldtower import (ExtensionResult, FieldDescriptor, FieldElem,
                         frobenius_components, render_json, unit_residue,
                         valuation_split, wp_member, wp_reduce)
from .forms import (GramInput, QuadraticForm, _axpy, _plus, form_fact,
                    normal_form)

__all__ = [
    "IsotropyVerdict", "WittDecomposition", "ResiduePair",
    "decide_isotropy", "witt_decompose", "springer_residues",
    "brute_force_search", "witt_index_over_ext", "replay_verdict",
]


@dataclass(frozen=True)
class IsotropyVerdict:
    """Outcome of an isotropy decision.

    kind: "isotropic" | "anisotropic" | "unknown".  witness: explicit zero
    vector when one exists in the fraction field.  certificate: replayable
    evidence as exact values (the vectors "x", "y" of an "isotropic-plane"
    among them), rendered only by to_json.
    """

    kind: str
    form: QuadraticForm
    witness: Optional[tuple] = None
    certificate: Optional[dict] = None
    reason: str = ""

    @property
    def is_isotropic(self):
        return self.kind == "isotropic"

    @property
    def is_anisotropic(self):
        return self.kind == "anisotropic"

    @property
    def is_unknown(self):
        return self.kind == "unknown"

    def to_json(self):
        out = {"kind": self.kind, "form": self.form}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.reason:
            out["reason"] = self.reason
        return render_json(out)


@dataclass(frozen=True)
class WittDecomposition:
    witt_index: int
    kernel: QuadraticForm
    planes: tuple = ()          # replayable description per split

    def to_json(self):
        # "exact" is always true: every split is a rational change of basis
        return render_json({"witt_index": self.witt_index,
                            "kernel": self.kernel, "exact": True,
                            "planes": self.planes})


@dataclass(frozen=True)
class ResiduePair:
    first: QuadraticForm
    second: QuadraticForm
    trace: tuple = ()

    def to_json(self):
        return render_json({"first": self.first, "second": self.second,
                            "trace": self.trace})


# ---------------------------------------------------------------------------
# Finite-field base case.

def _finite_witness_binary(K, a, b):
    """Nonzero zero of [a,b] over F_q, or None (exists iff trace(a*b) = 0)."""
    if a.is_zero():
        return (K.one(), K.zero())
    z = base_wp_solve(a, b)
    if z is None:
        return None
    # multiply a*x^2 + x*y + b*y^2 = 0 (y=1) by a: (ax)^2 + ax + ab = 0
    r = z / a
    return (r, K.one())


def _finite_solve_value(K, a, b, c):
    """(0, y) with [a,b](0, y) = b*y^2 = c over F_q, for b != 0 (as in every
    anisotropic block): squaring is bijective on a finite field of
    characteristic 2, so y = sqrt(c/b) is the only choice with x = 0."""
    return K.zero(), base_sqrt(c / b)


def _finite_decide(phi: QuadraticForm) -> IsotropyVerdict:
    K = phi.field
    zero, one = K.zero(), K.one()
    n = phi.dim
    for i, (a, b) in enumerate(phi.blocks):
        w = _finite_witness_binary(K, a, b)
        if w is not None:
            vec = [zero] * n
            vec[2 * i], vec[2 * i + 1] = w
            return _isotropic_explicit(phi, tuple(vec),
                                       {"kind": "finite-block", "block": i})
    if len(phi.quasilinear) >= 2:
        c1, c2 = phi.quasilinear[0], phi.quasilinear[1]
        r = base_sqrt(c2 / c1)
        vec = [zero] * n
        base = 2 * len(phi.blocks)
        vec[base], vec[base + 1] = r, one
        return _isotropic_explicit(phi, tuple(vec), {"kind": "finite-ql"})
    # all blocks anisotropic from here on
    if len(phi.blocks) >= 2:
        s1 = _finite_solve_value(K, *phi.blocks[0], one)
        s2 = _finite_solve_value(K, *phi.blocks[1], one)
        vec = [zero] * n
        vec[0], vec[1] = s1
        vec[2], vec[3] = s2
        return _isotropic_explicit(phi, tuple(vec),
                                   {"kind": "finite-universal"})
    if len(phi.blocks) == 1 and len(phi.quasilinear) == 1:
        s = _finite_solve_value(K, *phi.blocks[0], phi.quasilinear[0])
        vec = [zero] * n
        vec[0], vec[1] = s
        vec[2] = one
        return _isotropic_explicit(phi, tuple(vec),
                                   {"kind": "finite-universal"})
    return IsotropyVerdict("anisotropic", phi,
                           certificate={"kind": "finite", "dim": n,
                                        "detail": "trace criterion"})


def _witness_fault(phi, vec) -> Optional[str]:
    """Why vec is not a zero of phi, or None when it is one."""
    if not phi.evaluate(vec).is_zero():
        return "witness does not evaluate to zero"
    if all(x.is_zero() for x in vec):
        return "zero vector is not a witness"
    return None


def _isotropic_explicit(phi, vec, cert):
    fault = _witness_fault(phi, vec)
    if fault:
        raise SoundnessError(fault)
    return IsotropyVerdict("isotropic", phi, witness=tuple(vec),
                           certificate={**cert, "witness": tuple(vec)})


# ---------------------------------------------------------------------------
# Quasilinear (Frobenius) dependence, exact at every level.

def _ql_dependency(phi: QuadraticForm):
    """Coefficients lam with sum lam_i^2 c_i = 0, or None if independent."""
    K = phi.field
    entries = phi.quasilinear
    monos = set()
    comps = []
    for c in entries:
        fc = frobenius_components(c)
        comps.append(fc)
        monos.update(fc.keys())
    monos = sorted(monos)
    rows = [[fc.get(m, K.zero()) for m in monos] for fc in comps]
    lam = row_dependency(K, rows)
    if lam is None:
        return None
    acc = K.zero()
    for li, ci in zip(lam, entries):
        acc = acc + li * li * ci
    if not acc.is_zero():
        raise SoundnessError("Frobenius dependency does not cancel")
    return lam


# ---------------------------------------------------------------------------
# Residue normalization at the top variable.

@dataclass
class _BlockShape:
    side: int               # 0: unit block; 1: t-scaled block
    a: FieldElem            # normalized entries
    b: FieldElem
    m: int                  # square-scaling exponent used
    shear: Optional[FieldElem]  # s of a retamed block, else None


def _normalize_block(K, t, i, a, b):
    """Square-scale (and retame if needed) a block into residue shape.

    Requires class(a*b) != 0.  Raises NotNormalizable when the product class
    is wild at this level (or zero, which only happens on isotropic blocks
    fed in from outside the decision loop).  A tame product with a pole is
    retamed by the rational shear e_y -> e_y + s*e_x, s = z/a, which gives
    [a,b] = [a, b + s*(z+1)] (EKM 2008, ch. I): with z the root terms of
    a*b's principal part, the new product a*b + z^2 + z is a unit.  The new
    entry is taken as that product over a, which keeps the level-2
    fractions inside the degree cap where b + s*(z+1) does not."""
    w = a * b
    vw, _ = valuation_split(w)
    s = None
    if vw != 0:
        cls = wp_reduce(w)
        if cls.is_zero():
            raise NotNormalizable(f"block {i}: isotropic (product in wp)")
        if cls.wild:
            raise NotNormalizable(f"block {i}: wild class at {K.top_variable}")
        _, _, z = principal_root(w)
        s = z / a
        b = (w + z * z + z) / a
    va, _ = valuation_split(a)
    m = -((va - (va % 2)) // 2)
    if m:
        tm = t ** (2 * m)
        a = a * tm
        b = b / tm
    return _BlockShape(va % 2, a, b, m, s)


def _normalize_ql(t, c):
    """Valuation-normalize a quasilinear entry; returns (side, unit, m)."""
    vc, _ = valuation_split(c)
    m = -((vc - (vc % 2)) // 2)
    c = c * t ** (2 * m)
    side = vc % 2
    unit = c if side == 0 else c / t
    return side, unit, m


def _residue_of_unit(x: FieldElem) -> FieldElem:
    v, u = valuation_split(x)
    if v != 0:
        raise SoundnessError("entry is not a unit after normalization")
    return unit_residue(u)


@dataclass
class _ResidueLayout:
    residue0: QuadraticForm
    residue1: QuadraticForm
    coord0: list             # residue coordinate -> input coordinate
    coord1: list
    to_input: list           # per input coordinate: scale factor, or None
    shears: list             # (x, y, s) per retamed block
    trace: list              # per block, then per line; elements unrendered


def _residue_layout(phi: QuadraticForm) -> _ResidueLayout:
    """Residue forms of phi at the top variable, with the coordinate maps.

    The residue coordinates scale (to_input) into the coordinates of the
    normalized form, phi with every retamed block sheared; x += s*y per
    entry of shears carries those to phi's own.  Hyperbolic blocks go to the
    first residue form as [0,0].  Straddling blocks [unit, t*unit] send a
    quasilinear line to each side, the lattice picture, and have no scale
    factor: they are isotropic, so decide_isotropy answers isotropic-block
    before it lays out a form with one."""
    K = phi.field
    t = K.var(K.top_variable)
    lower = K.lower()
    blocks = ([], [])        # per side: ((a, b) residues, (x, y) coordinates)
    ql = ([], [])            # per side: (residue, coordinate)
    to_input = [None] * phi.dim
    shears = []
    trace = []
    for i, (a, b) in enumerate(phi.blocks):
        xi, yi = 2 * i, 2 * i + 1
        if a.is_zero() or b.is_zero():
            to_input[xi] = to_input[yi] = K.one()
            blocks[0].append(((lower.zero(), lower.zero()), (xi, yi)))
            trace.append({"block": i, "shape": "hyperbolic"})
            continue
        try:
            sh = _normalize_block(K, t, i, a, b)
        except NotNormalizable:
            vw, _ = valuation_split(a * b)
            if vw <= 0:
                raise
            # scale a to valuation 0 and send the two lines to the two sides
            va, _ = valuation_split(a)
            a2 = a * t ** (-va)
            b2 = b * t ** va
            vb2, _ = valuation_split(b2)
            if vb2 != 1:
                raise
            ql[0].append((_residue_of_unit(a2), xi))
            ql[1].append((_residue_of_unit(b2 / t), yi))
            trace.append({"block": i, "shape": "straddle", "lambda": -va})
            continue
        if sh.shear is not None:
            shears.append((xi, yi, sh.shear))
        to_input[xi] = t ** sh.m
        if sh.side == 0:
            to_input[yi] = t ** (-sh.m)
            entry = (_residue_of_unit(sh.a), _residue_of_unit(sh.b))
        else:
            # the second residue form is (1/t) * (t-side), and the scaling
            # identity (t^-1 q)(x, y) = t^-1 q(x, t y) twists the y slot
            to_input[yi] = t ** (1 - sh.m)
            entry = (_residue_of_unit(sh.a / t), _residue_of_unit(sh.b * t))
        blocks[sh.side].append((entry, (xi, yi)))
        trace.append({"block": i, "side": sh.side, "m": sh.m,
                      "tamed": sh.shear is not None,
                      "a": sh.a, "b": sh.b})
    base = 2 * len(phi.blocks)
    for j, c in enumerate(phi.quasilinear):
        side, unit, m = _normalize_ql(t, c)
        to_input[base + j] = t ** m
        ql[side].append((_residue_of_unit(unit), base + j))
        trace.append({"ql": j, "side": side, "m": m})
    residues = [QuadraticForm(lower, tuple(e for e, _ in blocks[s]),
                              tuple(e for e, _ in ql[s])) for s in (0, 1)]
    coords = [[c for _, xy in blocks[s] for c in xy] + [c for _, c in ql[s]]
              for s in (0, 1)]
    return _ResidueLayout(residues[0], residues[1], coords[0], coords[1],
                          to_input, shears, trace)


def springer_residues(phi: QuadraticForm) -> ResiduePair:
    """First and second residue forms at the top variable.

    Blocks must normalize (square-scaling, after a rational shear for tame
    non-unit product classes); wild product classes raise
    NotNormalizable.  Straddling blocks [unit, t*unit] (possible only on
    isotropic input) contribute a quasilinear line to each side, matching
    the lattice picture; the trace records every scaling."""
    if phi.field.level == 0:
        raise ValueError("no residues at the finite base")
    layout = _residue_layout(phi)
    return ResiduePair(layout.residue0, layout.residue1,
                       tuple(render_json(layout.trace)))


# ---------------------------------------------------------------------------
# The decision procedure.

@form_fact
def decide_isotropy(phi: QuadraticForm) -> IsotropyVerdict:
    """Decide whether phi has a nontrivial zero over its Laurent tower.  The
    verdict is kept on phi for as long as phi lives (form_fact)."""
    K = phi.field
    n = phi.dim
    zero, one = K.zero(), K.one()
    if n == 0:
        return IsotropyVerdict("anisotropic", phi,
                               certificate={"kind": "empty"})
    for i, (a, b) in enumerate(phi.blocks):
        if a.is_zero() and b.is_zero():
            vec = [zero] * n
            vec[2 * i] = one
            return _isotropic_explicit(phi, tuple(vec),
                                       {"kind": "hyperbolic-block",
                                        "block": i})
    seen = {}
    for i, bl in enumerate(phi.blocks):
        if bl in seen:
            vec = [zero] * n
            vec[2 * seen[bl]] = vec[2 * i] = one
            return _isotropic_explicit(phi, tuple(vec),
                                       {"kind": "duplicate-blocks",
                                        "blocks": [seen[bl], i]})
        seen[bl] = i
    if K.level == 0:
        return _finite_decide(phi)
    # block-local rule: [a,b] ~ a[1, ab] is isotropic iff ab in wp(K)
    classes = []
    for i, (a, b) in enumerate(phi.blocks):
        cls = wp_reduce(a * b)
        if cls.is_zero():
            return IsotropyVerdict(
                "isotropic", phi,
                certificate={"kind": "isotropic-block", "block": i,
                             "product": a * b})
        classes.append(cls)
    if len(phi.quasilinear) >= 2:
        lam = _ql_dependency(phi)
        if lam is not None:
            vec = [zero] * n
            base = 2 * len(phi.blocks)
            for j, lj in enumerate(lam):
                vec[base + j] = lj
            return _isotropic_explicit(phi, tuple(vec),
                                       {"kind": "ql-dependence"})
    if not phi.blocks:
        return IsotropyVerdict("anisotropic", phi,
                               certificate={"kind": "ql-independent",
                                            "dim": n})
    if len(phi.blocks) == 1 and not phi.quasilinear:
        return IsotropyVerdict("anisotropic", phi,
                               certificate={"kind": "binary-wp",
                                            "class": classes[0]})
    try:
        layout = _residue_layout(phi)
    except NotNormalizable as exc:
        return IsotropyVerdict("unknown", phi, reason=str(exc))
    # the first isotropic residue form is lifted, whatever the other one is
    v0 = decide_isotropy(layout.residue0)
    if v0.is_isotropic:
        return _lift_isotropy(phi, layout, 0, v0)
    v1 = decide_isotropy(layout.residue1)
    if v1.is_isotropic:
        return _lift_isotropy(phi, layout, 1, v1)
    if v0.is_unknown or v1.is_unknown:
        return IsotropyVerdict("unknown", phi,
                               reason="residue recursion undecided: "
                               + (v0.reason or v1.reason))
    cert = {"kind": "residue-split", "variable": K.top_variable,
            "tamed": bool(layout.shears), "first": v0, "second": v1}
    return IsotropyVerdict("anisotropic", phi, certificate=cert)


# for replays: the engine without the memo, bound before any rebinding
_decide_afresh = decide_isotropy.__wrapped__


def _lift_isotropy(phi, layout, side, vres) -> IsotropyVerdict:
    """Lift an isotropy verdict of a residue form up one Laurent level.

    Certificates of the residue verdict are expressed in the residue form's
    own coordinates, which map 1-1 (then scale) into the normalized form's
    coordinates; the plane partner is picked there, and the shears of the
    retamed blocks then carry every vector into phi's coordinates."""
    K = phi.field
    zero = K.zero()
    coords = layout.coord0 if side == 0 else layout.coord1
    n = phi.dim
    nb2 = 2 * len(phi.blocks)

    def lift_vec(res_vec):
        """Residue vector -> normalized-form coordinates."""
        out = [zero] * n
        for rc, x in enumerate(res_vec):
            if not x.is_zero():
                ic = coords[rc]
                out[ic] = x.lift_to(K) * layout.to_input[ic]
        return out

    def unshear(vec):
        """Normalized-form coordinates -> phi's: x += s*y per retamed block."""
        for x, y, s in layout.shears:
            if not vec[y].is_zero():
                vec[x] = vec[x] + s * vec[y]
        return vec

    extra = {"variable": K.top_variable, "side": side}
    if vres.witness is not None:
        x0 = lift_vec(vres.witness)
        partner = next((j ^ 1 for j in range(nb2) if not x0[j].is_zero()),
                       None)
        x0 = unshear(x0)
        c = phi.evaluate(x0)
        if c.is_zero():
            return _isotropic_explicit(phi, tuple(x0),
                                       {"kind": "lifted-witness", **extra})
        vc, _ = valuation_split(c)
        if vc < 1:
            raise SoundnessError("residue witness did not gain valuation")
        if partner is None:
            return IsotropyVerdict(
                "unknown", phi,
                reason="residue isotropy supported only on the quasilinear "
                       "part; not liftable")
        y0 = [zero] * n
        y0[partner] = K.one()
        return _plane_verdict(phi, x0, unshear(y0), extra)
    cert = vres.certificate or {}
    if cert.get("kind") == "isotropic-plane":
        x0, y0 = (unshear(lift_vec(cert[k])) for k in ("x", "y"))
        return _plane_verdict(phi, x0, y0, extra)
    return IsotropyVerdict("unknown", phi, reason="unliftable residue "
                           f"certificate ({cert.get('kind')})")


def _plane_product(phi, x0, y0) -> Optional[FieldElem]:
    """phi(y0) phi(x0) / b(x0, y0)^2, whose wp-class decides whether
    span(x0, y0) is hyperbolic; None when b(x0, y0) = 0."""
    b = phi.polar(x0, y0)
    if b.is_zero():
        return None
    return phi.evaluate(y0) * phi.evaluate(x0) / (b * b)


def _plane_verdict(phi, x0, y0, extra) -> IsotropyVerdict:
    """span(x0, y0) is a rational plane that is hyperbolic over the Laurent
    field: its binary form has wp-trivial product class."""
    w = _plane_product(phi, x0, y0)
    if w is None:
        raise SoundnessError("plane is polar-degenerate")
    if not wp_member(w):
        raise SoundnessError("plane certificate failed its wp replay")
    cert = {"kind": "isotropic-plane", "x": tuple(x0), "y": tuple(y0),
            "plane_product": w, **extra}
    return IsotropyVerdict("isotropic", phi, certificate=cert)


def replay_verdict(v: IsotropyVerdict) -> bool:
    """Re-check the evidence carried by a verdict."""
    if v.is_unknown:
        return True
    if v.witness is not None:
        return _witness_fault(v.form, v.witness) is None
    cert = v.certificate or {}
    kind = cert.get("kind")
    if kind == "isotropic-block":
        a, b = v.form.blocks[cert["block"]]
        return wp_member(a * b)
    if kind == "isotropic-plane":
        w = _plane_product(v.form, cert["x"], cert["y"])
        return w is not None and wp_member(w)
    if v.is_anisotropic:
        return _decide_afresh(v.form).is_anisotropic
    return False


# ---------------------------------------------------------------------------
# Witt decomposition.

@form_fact
def witt_decompose(phi: QuadraticForm) -> WittDecomposition:
    """Split hyperbolic planes off until the rest is anisotropic.

    Raises Undecided when a stage returns Unknown.  Every isotropic verdict
    carries an isotropic block, an explicit witness or a rational plane, so
    each split is an exact change of basis; a verdict with none of them
    raises SoundnessError.  The decomposition, kernel included, is kept on
    phi for as long as phi lives (form_fact), so readers must not change its
    plane records; Undecided and Degenerate are raised again on every call."""
    if not phi.is_nondegenerate:
        raise Degenerate(len(phi.quasilinear))
    current = phi
    index = 0
    planes = []
    while True:
        verdict = decide_isotropy(current)
        if verdict.is_unknown:
            raise Undecided(f"witt decomposition stuck: {verdict.reason}")
        if verdict.is_anisotropic:
            return WittDecomposition(index, current, tuple(planes))
        cert = verdict.certificate or {}
        if cert.get("kind") == "isotropic-block":
            i = cert["block"]
            blocks = list(current.blocks)
            removed = blocks.pop(i)
            planes.append({"kind": "block", "a": removed[0], "b": removed[1]})
            current = QuadraticForm(current.field, tuple(blocks),
                                    current.quasilinear)
            index += 1
            continue
        if verdict.witness is not None:
            current = _split_explicit(current, verdict.witness, planes)
            index += 1
            continue
        if cert.get("kind") == "isotropic-plane":
            current = _split_plane(current, cert["x"], cert["y"], planes)
            index += 1
            continue
        raise SoundnessError("isotropic verdict with no rational split")


def _split_explicit(phi, witness, planes):
    """Remove the hyperbolic plane spanned by an explicit witness.

    phi is in block normal form, so b(v, e_j) = v[j^1] on the blocks and 0
    on the quasilinear line: the partner e_j is the first block coordinate
    whose twin entry of v is nonzero, and u = e_j / v[j^1]."""
    K = phi.field
    v = list(witness)
    j = next((j for j in range(2 * len(phi.blocks))
              if not v[j ^ 1].is_zero()), None)
    if j is None:
        raise Undecided("witness lies in the polar radical; no plane to split")
    u = [K.zero()] * phi.dim
    u[j] = v[j ^ 1].inverse()
    planes.append({"kind": "explicit", "v": tuple(v), "u": tuple(u)})
    return _complement(phi, v, u)


def _split_plane(phi, x0, y0, planes):
    planes.append({"kind": "plane", "x": x0, "y": y0})
    binv = phi.polar(list(x0), list(y0)).inverse()
    u = [y if y.is_zero() else y * binv for y in y0]
    return _complement(phi, list(x0), u)


def _complement(phi, v, u):
    """phi restricted to the orthogonal complement W of span(v,u), B(v,u)=1.

    phi is in block normal form, so B(e_p, x) = x[p^1] on the blocks and 0
    on the quasilinear line: W is the kernel of the 2 x n matrix M whose
    column c_p is (u[p^1], v[p^1]), zero past the blocks.  M has rank 2, as
    M v = (1, 0) and M u = (0, 1).  W's basis is its reduced row echelon
    form, which is unique, so it is written down instead of eliminated.
    Column p of the RREF is a pivot unless it raises the rank of M's columns
    p..n-1, so the two non-pivot columns are q2, the last nonzero column,
    and q1, the last column before q2 with det(c_q1, c_q2) != 0; the
    columns between them are multiples of c_q2.  The row of every other
    column p is r_p = e_p + alpha_p e_q1 + beta_p e_q2 with c_p = alpha_p
    c_q1 + beta_p c_q2, so by Cramer's rule alpha_p = det(c_p, c_q2) / d and
    beta_p = det(c_q1, c_p) / d, d = det(c_q1, c_q2).  Past q1, alpha_p = 0,
    and past q2, c_p = 0, so every row leads at its own column.  Without q1,
    M has rank < 2 and the span is not a plane with B(v,u) = 1.

    The Gram matrix of the rows is taken on their <= 3-entry support, with
    the nonzero terms of phi.evaluate and phi.polar in their order."""
    K = phi.field
    n = phi.dim
    if n == 2:
        return QuadraticForm(K)
    rows = _complement_rows(phi, v, u)
    zero = K.zero()
    entries = [[zero] * (n - 2) for _ in range(n - 2)]
    for i, r in enumerate(rows):
        entries[i][i] = _row_value(phi, r)
        for j in range(i + 1, n - 2):
            entries[i][j] = _row_polar(phi, r, rows[j])
    return normal_form(GramInput(K, tuple(tuple(r) for r in entries)))


def _complement_rows(phi, v, u):
    """The RREF basis of the complement of span(v, u) (see _complement), as
    sparse rows {coordinate: nonzero entry} in pivot order."""
    zero, one = phi.field.zero(), phi.field.one()
    cols = [(u[p ^ 1], v[p ^ 1]) for p in range(2 * len(phi.blocks))]

    def det(c, d):
        return _axpy(_axpy(zero, c[0], d[1]), c[1], d[0])

    q2 = next((p for p in reversed(range(len(cols)))
               if not (cols[p][0].is_zero() and cols[p][1].is_zero())), None)
    dets2 = [] if q2 is None else [det(c, cols[q2]) for c in cols[:q2]]
    q1 = next((p for p in reversed(range(len(dets2)))
               if not dets2[p].is_zero()), None)
    if q1 is None:
        raise SoundnessError("complement has wrong dimension")
    dinv = dets2[q1].inverse()
    rows = []
    for p in range(phi.dim):
        if p in (q1, q2):
            continue
        row = {p: one}
        if p < q2:
            if not dets2[p].is_zero():
                row[q1] = dets2[p] * dinv
            beta = det(cols[q1], cols[p])
            if not beta.is_zero():
                row[q2] = beta * dinv
        rows.append(row)
    return rows


def _row_value(phi, row):
    """phi(row) for a sparse row {coordinate: nonzero entry}: the nonzero
    terms of phi.evaluate, in its order and association."""
    acc = phi.field.zero()
    nb2 = 2 * len(phi.blocks)
    for i in sorted({c >> 1 for c in row if c < nb2}):
        a, b = phi.blocks[i]
        x, y = row.get(2 * i), row.get(2 * i + 1)
        if x is not None and not a.is_zero():
            acc = _plus(acc, a * x * x)
        if x is not None and y is not None:
            acc = _plus(acc, x * y)
        if y is not None and not b.is_zero():
            acc = _plus(acc, b * y * y)
    for c in sorted(c for c in row if c >= nb2):
        acc = _plus(acc, phi.quasilinear[c - nb2] * row[c] * row[c])
    return acc


def _row_polar(phi, r, s):
    """b(r, s) for sparse rows: the nonzero terms of phi.polar, in its
    order and association."""
    acc = zero = phi.field.zero()
    for i in sorted({c >> 1 for c in r if c < 2 * len(phi.blocks)}):
        acc = _axpy(_axpy(acc, r.get(2 * i, zero), s.get(2 * i + 1, zero)),
                    r.get(2 * i + 1, zero), s.get(2 * i, zero))
    return acc


# ---------------------------------------------------------------------------
# Brute-force search (independent one-sided oracle).

def _monomials(K: FieldDescriptor, degree_bound: int):
    """The exponent tuples of the candidate entries, ordered by (total
    degree, exponents).  Per-variable degree is capped at ceil(bound/2) as
    the valuation-pruning heuristic."""
    nvars = K.level
    per_var = max(1, (degree_bound + 1) // 2)
    monos = []

    def rec(prefix, remaining):
        if len(prefix) == nvars:
            monos.append(tuple(prefix))
            return
        for d in range(0, min(per_var, remaining) + 1):
            rec(prefix + [d], remaining - d)

    rec([], degree_bound)
    monos.sort(key=lambda m: (sum(m), m))
    return monos


def _pool_element(K: FieldDescriptor, entry) -> FieldElem:
    cbits, mono = entry
    if not cbits:
        return K.zero()
    x = K.from_base(cbits)
    for name, d in zip(K.variables, mono):
        if d:
            x = x * K.var(name) ** d
    return x


def _pack(terms: dict, e: int, steps) -> int:
    """Kronecker packing: the e bits of the coefficient of t^m sit at bit
    e * sum(m_i * steps_i).  Addition of packed ints is XOR, and shifting
    by e * sum(m_i * steps_i) multiplies by t^m while no exponent leaves
    its slot."""
    out = 0
    for m, bits in terms.items():
        out ^= bits << (e * sum(k * s for k, s in zip(m, steps)))
    return out


def _search_plan(phi: QuadraticForm, degree_bound: int, budget: int):
    """The meet-in-the-middle split of brute_force_search: (monomials, pool
    size p, the two sides), or None when phi has no coordinates.  Raises
    BudgetExceeded when the two sides together cost more than budget nodes;
    the pool is counted, never built, so the test is cheap at any e."""
    K = phi.field
    # the pool (0, then c * monomial for each constant c != 0) has p
    # entries, p growing as 2^e
    monos = _monomials(K, degree_bound)
    p = 1 + len(monos) * ((1 << K.base_exponent) - 1)
    nb = len(phi.blocks)
    groups = [("b", i, (2 * i, 2 * i + 1), p * p) for i in range(nb)] + \
             [("q", j, (2 * nb + j,), p)
              for j in range(len(phi.quasilinear))]
    if not groups:
        return None
    # greedy balance: a side costs the product of its group sizes
    sides = ([], [])
    cost = [1, 1]
    for g in sorted(groups, key=lambda g: -g[3]):
        side = 0 if cost[0] <= cost[1] else 1
        sides[side].append(g)
        cost[side] *= g[3]
    if cost[0] + cost[1] > budget:
        raise BudgetExceeded(f"{cost[0] + cost[1]} nodes")
    return monos, p, sides


def _least_match(left, right):
    """The least key pair (i, j) != (0, 0) with left[i] == right[j], or None.
    left gives the left side's values in key order, as consecutive lists,
    and is read only up to the first list that holds a hit; right is a list.
    Key 0 of each side has value 0, so i = 0 pairs only with a later zero on
    the right, and any later i takes the least j of its value."""
    if right.count(0) > 1:
        return 0, right.index(0, 1)
    values = set(right)
    start = 0
    for run in left:
        if not values.isdisjoint(run):
            for i, v in enumerate(run, start):
                if i and v in values:
                    return i, right.index(v)
        start += len(run)
    return None


def brute_force_search(phi: QuadraticForm, degree_bound: int,
                       budget: int = 200_000):
    """Search for an exact isotropy witness with small polynomial entries.

    One-sided: a returned vector is a verified zero of phi; returning None
    proves nothing.  Meet-in-the-middle over a coordinate split respecting
    block boundaries; the witness minimal in pool-index order is returned,
    independent of evaluation order, and the walk over the left side stops
    there.  Raises BudgetExceeded past the node budget (_search_plan).

    The search does no field arithmetic and reads nothing but phi itself:
    the form's coefficients are multiplied by one common polynomial
    denominator D (phi(v) = 0 iff D*phi(v) = 0), the resulting polynomials
    are packed into ints, and every pool entry c*t^m multiplies them by a
    constant and a shift.  The witness found is checked through
    phi.evaluate; a failed check raises SoundnessError."""
    plan = _search_plan(phi, degree_bound, budget)
    if plan is None:
        return None
    monos, p, sides = plan
    K = phi.field
    e = K.base_exponent
    base = 2 * len(phi.blocks)
    # (constant bits, exponents): 0 as (0, None), then c * monomial in
    # (monomial, constant) order
    pool = [(0, None)] + [(c, m) for m in monos for c in range(1, 1 << e)]
    # clear denominators once; D*a, D*b, D*c_j and D are polynomials
    coeffs = [x for blk in phi.blocks for x in blk] + list(phi.quasilinear)
    D = K.one()
    for x in coeffs:
        D = D * polynomial_denominator(D * x)
    mul = base_field_mul(e)
    consts = range(1 << e)
    polys = [polynomial_terms(y) for y in [D * x for x in coeffs] + [D]]
    # slot widths: a product term has degree <= deg(poly) + 2 * per_var
    per_var = max(1, (degree_bound + 1) // 2)
    steps, step = [], 1
    for k in range(K.level):
        steps.append(step)
        step *= 2 * per_var + 1 + max((m[k] for poly in polys for m in poly),
                                      default=0)
    # packed[i][c]: the i-th polynomial times the constant c
    packed = [[_pack({m: mul(c, bits) for m, bits in poly.items()},
                     e, steps) for c in consts] for poly in polys]
    shifts = [e * sum(k * s for k, s in zip(mono, steps)) if c else 0
              for c, mono in pool]
    sq = [mul(c, c) for c, _mono in pool]
    D_packed = packed[-1]

    def group_values(group):
        """Packed D * (group's part of phi), in pool-index key order."""
        kind, idx, _coords, _sz = group
        if kind == "b":
            pa, pb = packed[2 * idx], packed[2 * idx + 1]
            ax2 = [pa[q] << 2 * s for q, s in zip(sq, shifts)]
            by2 = [pb[q] << 2 * s for q, s in zip(sq, shifts)]
            return [ax2[ix] ^ by2[iy] ^
                    (D_packed[mul(cx, cy)] << (shifts[ix] + shifts[iy]))
                    for ix, (cx, _mx) in enumerate(pool)
                    for iy, (cy, _my) in enumerate(pool)]
        pc = packed[base + idx]
        return [pc[q] << 2 * s for q, s in zip(sq, shifts)]

    def side_runs(side):
        """The side's packed values in key order, one list per key of all
        its groups but the last: the key of a value is its position, keys
        concatenating in nested order."""
        acc = [0]
        for g in side[:-1]:
            gv = group_values(g)
            acc = [v0 ^ v1 for v0 in acc for v1 in gv]
        tail = group_values(side[-1]) if side else [0]
        return ([v0 ^ v1 for v1 in tail] for v0 in acc)

    right = [v for run in side_runs(sides[1]) for v in run]
    best = _least_match(side_runs(sides[0]), right)
    if best is None:
        return None
    # decode the keys and reassemble the witness in form coordinates
    vec = [K.zero()] * phi.dim
    for side, key in zip(sides, best):
        for kind, _idx, coords, size in reversed(side):
            key, k = divmod(key, size)
            picks = divmod(k, p) if kind == "b" else (k,)
            for c, i in zip(coords, picks):
                vec[c] = _pool_element(K, pool[i])
    vec = tuple(vec)
    if not phi.evaluate(vec).is_zero():
        raise SoundnessError("search witness does not evaluate to zero")
    if all(x.is_zero() for x in vec):
        raise SoundnessError("search witness is the zero vector")
    return vec


# ---------------------------------------------------------------------------
# Witt index over a quadratic extension.

def witt_index_over_ext(phi: QuadraticForm, ext: ExtensionResult) -> int:
    """i_W of phi over the etale algebra classified by ext: phi with its
    entries embedded in ext.new_field (K itself when split, each factor
    being K).  A ramified extension is unsupported (Undecided)."""
    if ext.kind == "unsupported":
        raise Undecided("ramified discriminant extension")
    blocks = tuple((ext.embed(a), ext.embed(b)) for a, b in phi.blocks)
    ql = tuple(ext.embed(c) for c in phi.quasilinear)
    return witt_decompose(QuadraticForm(ext.new_field, blocks,
                                        ql)).witt_index
