"""Chow-group structure of quadrics: the split tables and the torsion
oracle for codimensions 2 and 3.

Every report entry is justified by a named rule whose hypotheses were
machine-checked; when a hypothesis cannot be decided the verdict degrades
to an AtMost(2) interval (the universal order bound for both codimensions)
with the unproven assumption recorded, never to silence.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import RangeViolation, SoundnessError, Undecided
from .fieldtower import render_json
from .forms import (QuadraticForm, arf, discriminant_algebra, hyperbolic,
                    orthogonal_sum)
from .witt import decide_isotropy, witt_decompose, witt_index_over_ext
from .clifford import splitting_index
from .pfister import neighbor

__all__ = [
    "SplitChowRow", "ChowReport", "split_chow_structure",
    "anisotropic_image_row", "chow2_torsion", "chow3_torsion",
    "isotropic_reduce",
]

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Split Chow structure.

@dataclass(frozen=True)
class SplitChowRow:
    """CH^p of a completely split quadric of dimension d."""

    d: int
    p: int
    generators: tuple          # symbolic generator names
    relation: Optional[str]    # h^p = 2 l_{d-p} where applicable
    middle: bool               # two-generator middle row (d = 2p)

    def to_json(self):
        return {"d": self.d, "p": self.p,
                "generators": list(self.generators),
                "relation": self.relation, "middle": self.middle}


def split_chow_structure(d: int, p: int) -> SplitChowRow:
    """Generators and relations of CH^p on a split quadric of dimension d:
    Z.h^p below the middle, Z.l_{d-p} above it (with h^p = 2 l_{d-p}),
    and the two-generator middle row l_p + l'_p = h^p when d = 2p."""
    if not 0 <= p <= d:
        raise RangeViolation(f"p = {p} outside 0..{d}")
    if 2 * p < d:
        return SplitChowRow(d, p, (f"h^{p}",), None, False)
    if 2 * p > d:
        return SplitChowRow(d, p, (f"l_{d - p}",),
                            f"h^{p} = 2*l_{d - p}", False)
    return SplitChowRow(d, p, (f"h^{p}", f"l_{p}"),
                        f"l_{p} + l'_{p} = h^{p}", True)


def anisotropic_image_row(d: int, p: int, arf_zero: Optional[bool] = None):
    """Image of CH^p(X) in CH^p(X-bar) for anisotropic X, as a description.

    Below the middle the image is everything; above it is Z.2l_{d-p}; on the
    middle row it depends on the Arf invariant, with an integer r that this
    oracle reports only at d = 4 (where r = 2 by the dimension-6 Albert
    theorem)."""
    if not 0 <= p <= d:
        raise RangeViolation(f"p = {p} outside 0..{d}")
    if 2 * p < d:
        return {"image": f"Z.h^{p}", "full": True}
    if 2 * p > d:
        return {"image": f"Z.2l_{d - p}", "inside": f"Z.l_{d - p}"}
    if arf_zero is False:
        return {"image": f"Z.h^{p}", "inside": f"Z.h^{p} + Z.l_{p}"}
    if arf_zero is True:
        r = 2 if d == 4 else None
        return {"image": f"Z.h^{p} + Z.2^r*l_{p}",
                "r": r, "inside": f"Z.h^{p} + Z.l_{p}"}
    return {"image": "depends on Arf", "inside": f"Z.h^{p} + Z.l_{p}"}


# ---------------------------------------------------------------------------
# Reports.

@dataclass(frozen=True)
class ChowReport:
    codim: int
    dim: int                     # dimension of the form (quadric has dim-2)
    kind: str                    # "Exactly" | "AtMost"
    order: int                   # torsion order (exact or bound)
    group: str                   # "0" | "Z/2" | "Z/2?"(bound)
    elementary: Optional[bool]
    image: Optional[dict] = None
    rules: tuple = ()
    assumptions: tuple = ()
    # exact evidence: verdicts, splitting indices, reports
    certificates: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.order not in (1, 2):
            raise SoundnessError(f"torsion order {self.order} exceeds the "
                                 "bound 2")
        if self.kind == "Exactly" and self.group not in ("0", "Z/2"):
            raise SoundnessError(f"exact torsion group {self.group!r}")

    def to_json(self):
        torsion = {"kind": self.kind, "order": self.order, "group": self.group}
        return render_json({"schema_version": SCHEMA_VERSION,
                            "codim": self.codim, "dim": self.dim,
                            "torsion": torsion, "elementary": self.elementary,
                            "image": self.image, "rules": self.rules,
                            "assumptions": self.assumptions,
                            "certificates": self.certificates})


def _exact(codim, phi, order, elementary, rules, assumptions=(), image=None,
           certificates=None):
    return ChowReport(codim, phi.dim, "Exactly", order,
                      "0" if order == 1 else "Z/2", elementary, image,
                      tuple(rules), tuple(assumptions), certificates or {})


def _atmost(codim, phi, rules, assumptions, certificates=None):
    return ChowReport(codim, phi.dim, "AtMost", 2, "Z/2?", None, None,
                      tuple(rules), tuple(assumptions), certificates or {})


# ---------------------------------------------------------------------------
# Codimension 2.

# dimension -> (rule prefix, assumption when the neighbor status is unknown)
_NEIGHBOR_RULES = {5: ("dim5", "dim-5 neighbor status unknown: "),
                   6: ("dim6", "dim-6 neighbor status unknown: "),
                   7: ("dim78", "dim-7 Pfister-neighbor status unknown: "),
                   8: ("dim78", "dim-8 Pfister-neighbor status unknown: ")}


def chow2_torsion(phi: QuadraticForm) -> ChowReport:
    """CH^2 torsion of the projective quadric of phi.

    Exactly Z/2 iff phi is an anisotropic 3-fold Pfister neighbor; the
    dimension-wise neighbor tests implement that criterion, so everything
    above dimension 8 and every isotropic form is torsion-free."""
    _require(phi)
    dim = phi.dim
    if dim >= 9:
        # a 3-fold Pfister neighbor has dimension 5..8
        verdict = decide_isotropy(phi)
        elementary = True if verdict.is_anisotropic else None
        return _exact(2, phi, 1, elementary, ["pn-dimension-bound"],
                      () if not verdict.is_unknown
                      else ("anisotropy undecided (irrelevant to this rule)",))
    if dim in (3, 4):
        # CH^2 is the top codimension here, always torsion-free
        return _exact(2, phi, 1, True, ["top-codim-torsion-free"])
    verdict = decide_isotropy(phi)
    if verdict.is_unknown:
        return _atmost(2, phi, ["order-bound"],
                       ["anisotropy undecided: " + verdict.reason])
    if verdict.is_isotropic:
        return _exact(2, phi, 1, None, ["isotropic-torsion-free"],
                      certificates={"isotropy": verdict})
    cert = {"anisotropy": verdict}
    if dim == 6 and arf(phi).is_zero():
        return _exact(2, phi, 1, False, ["dim6-albert-torsion-free"],
                      image=anisotropic_image_row(4, 2, arf_zero=True),
                      certificates=cert)
    # held first, so that neighbor_dim5 reads the index off the memo
    sres = splitting_index(phi) if dim == 5 else None
    nv = neighbor(phi)
    cert["neighbor"] = nv
    if sres is not None:
        cert["splitting_index"] = sres
    prefix, unknown = _NEIGHBOR_RULES[dim]
    if nv.status == "yes":
        return _exact(2, phi, 2, False, [f"{prefix}-pfister-neighbor"],
                      certificates=cert)
    if nv.status == "no":
        # phi is anisotropic: at dim 8, "no" only by Arf != 0 (elementary)
        image = anisotropic_image_row(4, 2, arf_zero=False) if dim == 6 \
            else None
        return _exact(2, phi, 1, True, [f"{prefix}-not-neighbor"],
                      image=image, certificates=cert)
    return _atmost(2, phi, ["order-bound"], [unknown + nv.reason], cert)


# ---------------------------------------------------------------------------
# Codimension 3.

def chow3_torsion(phi: QuadraticForm) -> ChowReport:
    """CH^3 torsion of the projective quadric of phi.

    Order at most 2 always.  Isotropic forms reduce to codimension 2 of the
    stripped form; dimension >= 13 is elementary; dimension 6 follows the
    splitting index; dimensions 9..12 fire the index-based vanishing rules
    when the Clifford data is certified."""
    _require(phi)
    dim = phi.dim
    if dim <= 4:
        # the quadric has dimension <= 2, so CH^3 vanishes entirely
        return _exact(3, phi, 1, True, ["codim-exceeds-dim"])
    if dim == 5:
        return _exact(3, phi, 1, True, ["top-codim-torsion-free"])
    if dim >= 13:
        return _exact(3, phi, 1, True, ["dim13-elementary"])
    verdict = decide_isotropy(phi)
    if verdict.is_unknown:
        return _atmost(3, phi, ["order-bound"],
                       ["anisotropy undecided: " + verdict.reason])
    if verdict.is_isotropic:
        # CH^3(X) = CH^2(Y) for phi = psi _|_ H (window 1 <= 3 <= d-1 holds
        # since dim >= 6 here)
        try:
            psi, _p = isotropic_reduce(phi, 3, strips=1)
        except (Undecided, RangeViolation) as exc:
            return _atmost(3, phi, ["order-bound"],
                           [f"isotropic but not reducible: {exc}"])
        sub = chow2_torsion(psi)
        rules = ("isotropic-reduction",) + sub.rules
        if sub.kind == "Exactly":
            return ChowReport(3, dim, "Exactly", sub.order, sub.group, None,
                              None, rules, sub.assumptions,
                              {"reduced_to": sub})
        return _atmost(3, phi, rules, sub.assumptions,
                       {"reduced_to": sub})
    cert = {"anisotropy": verdict}
    # held for the whole report, so splitting_index reads it off the memo
    disc = discriminant_algebra(phi) if phi.is_nonsingular else None
    arf_zero = disc is not None and disc.kind == "split"
    if dim == 6:
        if arf_zero:
            return _exact(3, phi, 1, True, ["dim6-albert-torsion-free"],
                          certificates=cert)
        sres = splitting_index(phi)
        cert["splitting_index"] = sres
        if sres.resolved:
            if sres.s in (1, 2):
                return _exact(3, phi, 2, False, [f"dim6-s{sres.s}"],
                              certificates=cert)
            return _exact(3, phi, 1, True, ["dim6-s0-torsion-free"],
                          certificates=cert)
        return _atmost(3, phi, ["order-bound"],
                       ["dim-6 splitting index unresolved"], cert)
    if dim in (9, 10, 11, 12):
        report = _index_vanishing_rules(phi, dim, disc, cert)
        if report is not None:
            return report
    assumptions = ["no vanishing rule certified at this dimension"]
    return _atmost(3, phi, ["order-bound"], assumptions, cert)


def _index_vanishing_rules(phi, dim, disc, cert):
    """Prop-7.13-style index rules and hyperbolicity over disc (phi's
    discriminant algebra, None if singular); None unless a rule fires."""
    arf_zero = disc is not None and disc.kind == "split"
    sres = splitting_index(phi)
    cert["splitting_index"] = sres
    lo, hi = sres.ind_low, sres.ind_high
    if dim == 12 and not arf_zero and hi <= 2:
        return _exact(3, phi, 1, True, ["ind-vanishing-dim12"],
                      certificates=cert)
    if dim == 11 and lo >= 2:
        return _exact(3, phi, 1, True, ["ind-vanishing-dim11"],
                      certificates=cert)
    if dim == 10 and not arf_zero and lo == 2 and hi == 2:
        return _exact(3, phi, 1, True, ["ind-vanishing-dim10"],
                      certificates=cert)
    if dim == 9 and lo >= 4:
        return _exact(3, phi, 1, True, ["ind-vanishing-dim9"],
                      certificates=cert)
    # hyperbolic over the discriminant field (even dim > 8, Arf != 0)
    iw = None
    if dim in (10, 12) and disc is not None and disc.kind == "field":
        try:
            iw = witt_index_over_ext(phi, disc)
        except Undecided:
            pass
        if iw == dim // 2:
            return _exact(3, phi, 1, True, ["hyperbolic-over-disc"],
                          certificates=cert)
    # dim 9 with tau in I^2_q: phi = tau _|_ <d>, Arf(tau) = 0, ind > 1
    if dim == 9 and len(phi.quasilinear) == 1:
        tau = QuadraticForm(phi.field, phi.blocks)
        if arf(tau).is_zero() and lo > 1:
            return _exact(3, phi, 1, True, ["dim9-even-part-i2q"],
                          certificates=cert)
    # dim 10 with a norm-form splitting phi = tau _|_ c N_L (Arf != 0),
    # claimed only on the certified branch ind >= 2.  An anisotropic phi is
    # isotropic over a separable quadratic extension L iff it contains c N_L
    # for some c in K* (Elman, Karpenko, Merkurjev, "The Algebraic and
    # Geometric Theory of Quadratic Forms", AMS Colloq. Publ. 56, 2008), so
    # with L the discriminant field the splitting exists iff i_W(phi_L) >= 1
    if dim == 10 and iw is not None and iw >= 1 and lo >= 2:
        return _exact(3, phi, 1, True, ["dim10-norm-decomposition"],
                      certificates=cert)
    return None


# ---------------------------------------------------------------------------
# Isotropic reduction.

def isotropic_reduce(phi: QuadraticForm, p: int, strips: Optional[int] = None):
    """Strip hyperbolic planes inside the CH^p(X) = CH^{p-1}(Y) window.

    Returns (psi, p') after stripping min(i_W, allowed) planes; each strip
    needs 1 <= p <= d-1 for the current quadric dimension d.  Raises
    RangeViolation when a requested strip leaves the window, and Undecided
    when the Witt decomposition is unsettled."""
    dec = witt_decompose(phi)
    iw = dec.witt_index
    if iw == 0:
        return phi, p
    todo = iw if strips is None else min(strips, iw)
    current_dim = phi.dim
    done = 0
    while done < todo and p >= 1:
        d = current_dim - 2
        if not (1 <= p <= d - 1):
            if done == 0:
                raise RangeViolation(
                    f"p = {p} outside 1..{d - 1}; no reduction applies")
            break
        current_dim -= 2
        p -= 1
        done += 1
        if p == 0:
            break
    kernel = dec.kernel
    left = iw - done
    psi = orthogonal_sum(hyperbolic(phi.field, left), kernel) if left \
        else kernel
    return psi, p


def _require(phi):
    if not phi.is_nondegenerate:
        raise Undecided("nondegenerate form required")
    if phi.dim < 3:
        raise RangeViolation("the oracle needs dim >= 3")
