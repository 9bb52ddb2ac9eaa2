"""Pfister-neighbor decisions.

An n-fold Pfister neighbor is a subform of dimension > 2^(n-1) of a scalar
multiple of an n-fold Pfister form <<a_1,...,a_{n-1}; b]] (PfisterSpec and
make_pfister live in forms and are re-exported here).  Dimension 5 and 6
neighbors are decided completely (splitting index / discriminant-extension
Witt index); dimensions 7 and 8 are decided by verified witnesses over a
finite generator pool, or return Unknown - never an unverified No.

The witness search never builds a candidate <<a_1,a_2; b]] that is
hyperbolic by construction: one whose slot is a square or whose two slots
are equal.  Such a form is isotropic, so it could never be a witness, and
skipping it changes no verdict, witness or search budget (_search_witness
gives the proof).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import DegreeOverflow, SoundnessError, Undecided
from .fieldtower import FieldElem, is_square, render_json
from .forms import (PfisterSpec, QuadraticForm, arf, discriminant_algebra,
                    form_fact, make_pfister, scale)
from .witt import decide_isotropy, subform_test, witt_index_over_ext
from .clifford import splitting_index

__all__ = [
    "PfisterSpec", "NeighborVerdict", "make_pfister",
    "pfister_hyperbolicity", "neighbor", "neighbor_dim5", "neighbor_dim6",
    "neighbor_high", "default_slot_pool",
]

# lam tries against anisotropic Pfister forms that _search_witness makes
# before giving up
_SEARCH_BUDGET = 400


def pfister_hyperbolicity(pi: QuadraticForm) -> Optional[bool]:
    """Isotropic Pfister forms are hyperbolic; None when undecided."""
    v = decide_isotropy(pi)
    if v.is_unknown:
        return None
    return v.is_isotropic


@dataclass(frozen=True)
class NeighborVerdict:
    status: str                        # "yes" | "no" | "unknown"
    rule: str
    lam: Optional[FieldElem] = None    # witness scalar
    spec: Optional[PfisterSpec] = None
    reason: str = ""

    @property
    def is_yes(self):
        return self.status == "yes"

    def to_json(self):
        out = {"status": self.status, "rule": self.rule}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.spec is not None:
            out["pfister"] = self.spec
        if self.reason:
            out["reason"] = self.reason
        return render_json(out)


def _verify_witness(phi, lam, spec) -> Optional[bool]:
    pi = make_pfister(spec)
    v = decide_isotropy(pi)
    if v.is_unknown:
        return None
    if v.is_isotropic:
        # hyperbolic Pfister form: not a witness for an anisotropic phi
        return False
    try:
        return subform_test(phi, scale(lam, pi))
    except Undecided:
        return None


def default_slot_pool(phi: QuadraticForm):
    """Deterministic candidate slots: 1, the tower variables, and the
    (nonzero) block entries of phi."""
    K = phi.field
    pool = [K.one()]
    for v in K.variables:
        pool.append(K.var(v))
    for a, b in phi.blocks:
        for x in (a, b):
            if not x.is_zero() and x not in pool:
                pool.append(x)
    for c in phi.quasilinear:
        if c not in pool:
            pool.append(c)
    return pool


def _search_witness(phi):
    """First verified (lam, spec) with phi inside lam * pi for a 3-fold
    Pfister form pi, or None; the slots, the quadratic slot and lam range
    over default_slot_pool(phi), in that nesting order.

    A pi that decide_isotropy does not call anisotropic is passed over, and
    only a lam tried against an anisotropic pi counts against
    _SEARCH_BUDGET.  A slot pair (a_1, a_2) with a square slot, or with two
    equal slots (the pool has no repeats, so they share an index), is
    skipped before any of its forms is built, because every
    pi = <<a_1,a_2; b]] it gives is hyperbolic:
      * <1,c^2>_bil (x) psi = psi + c^2 psi ~ psi + psi;
      * <<a,a; b]] = rho + a rho with rho = [1,b] + a[1,b], so it contains
        a[1,b] + a[1,b];
      * rho + rho is hyperbolic for a nonsingular rho in characteristic 2:
        its diagonal {(v, v)} is totally isotropic (q(v) + q(v) = 0 and
        b(v,w) + b(v,w) = 0) and of half the dimension.
    So pi is isotropic, and an isotropic Pfister form is hyperbolic
    (Elman-Karpenko-Merkurjev, "The Algebraic and Geometric Theory of
    Quadratic Forms", 2008, section 9; Hoffmann-Laghribi, "Quadratic forms
    and Pfister neighbors in characteristic 2", Trans. AMS 356 (2004), for
    neighbours).  Such a pi was passed over uncounted, so the skip returns
    the same (lam, spec) or None as building all of pool^2 x pool; only a
    DegreeOverflow that building or deciding a skipped pi would have raised
    is gone.  A slot whose squareness test overflows is not skipped."""
    pool = default_slot_pool(phi)
    square = []
    for a in pool:
        try:
            square.append(is_square(a)[0])
        except DegreeOverflow:
            square.append(False)
    tried = 0
    for (i, a1), (j, a2) in itertools.product(enumerate(pool), repeat=2):
        if i == j or square[i] or square[j]:
            continue
        for quad in pool:
            spec = PfisterSpec(phi.field, (a1, a2), quad)
            pi = make_pfister(spec)
            vpi = decide_isotropy(pi)
            if not vpi.is_anisotropic:
                continue
            for lam in pool:
                tried += 1
                if tried > _SEARCH_BUDGET:
                    return None
                try:
                    if subform_test(phi, scale(lam, pi)):
                        return lam, spec
                except Undecided:
                    pass
    return None


def _certified_yes(phi, rule):
    """Yes by a complete criterion, with a witness when the search finds
    one."""
    found = _search_witness(phi)
    if found:
        return NeighborVerdict("yes", rule, *found)
    return NeighborVerdict("yes", rule, reason="criterion certified; witness "
                                               "search exhausted its pool")


@form_fact
def neighbor(phi: QuadraticForm) -> Optional[NeighborVerdict]:
    """The Pfister-neighbor test for phi's dimension; None outside 5..8."""
    # module-global lookups at call time, so a wrapper installed on the
    # per-dimension functions sees this dispatch too
    if phi.dim == 5:
        return neighbor_dim5(phi)
    if phi.dim == 6:
        return neighbor_dim6(phi)
    if phi.dim in (7, 8):
        return neighbor_high(phi)
    return None


def neighbor_dim5(phi: QuadraticForm) -> NeighborVerdict:
    """Dimension-5 Pfister-neighbor status: complete via s(phi).

    Anisotropic phi is a neighbor iff s(phi) = 1 (equivalently phi is
    similar to psi + <c> with psi a 2-fold Pfister form); s(phi) = 0 means
    division even Clifford algebra and No."""
    _require(phi, 5)
    iso = decide_isotropy(phi)
    if iso.is_unknown:
        return NeighborVerdict("unknown", "anisotropy-undecided",
                               reason=iso.reason)
    if iso.is_isotropic:
        return NeighborVerdict("no", "not-anisotropic")
    res = splitting_index(phi)
    if not res.resolved:
        return NeighborVerdict("unknown", "splitting-index-undecided",
                               reason=res.rule)
    if res.s not in (0, 1):
        raise SoundnessError(f"anisotropic dim-5 with s = {res.s}")
    if res.s == 0:
        return NeighborVerdict("no", "splitting-index-zero")
    return _certified_yes(phi, "splitting-index-one")


def neighbor_dim6(phi: QuadraticForm) -> NeighborVerdict:
    """Dimension-6 neighbors: hyperbolic over the discriminant field.

    Albert forms (trivial Arf) are never neighbors; otherwise phi is a
    neighbor iff i_W over the discriminant extension is 3 (full split)."""
    _require(phi, 6)
    iso = decide_isotropy(phi)
    if iso.is_unknown:
        return NeighborVerdict("unknown", "anisotropy-undecided",
                               reason=iso.reason)
    if iso.is_isotropic:
        return NeighborVerdict("no", "not-anisotropic")
    disc = discriminant_algebra(phi)
    if disc.kind == "split":
        return NeighborVerdict("no", "albert-form")
    if disc.kind != "field":
        return NeighborVerdict("unknown", "discriminant-unsupported",
                               reason="ramified discriminant class")
    try:
        iw = witt_index_over_ext(phi, disc)
    except Undecided as exc:
        return NeighborVerdict("unknown", "extension-witt-undecided",
                               reason=str(exc))
    if iw == 3:
        return _certified_yes(phi, "hyperbolic-over-Z")
    return NeighborVerdict("no", "not-hyperbolic-over-Z")


def neighbor_high(phi: QuadraticForm, candidate=None) -> NeighborVerdict:
    """Dimensions 7 and 8.

    With a candidate (lam, PfisterSpec): verify it; rejection of one
    candidate says nothing globally, so the verdict stays Unknown then.
    Without: Arf != 0 in dimension 8 is a complete No; otherwise a bounded
    witness search, returning Unknown when it finds nothing (never an
    unverified No)."""
    if phi.dim not in (7, 8):
        raise Undecided(f"neighbor_high needs dim 7 or 8, got {phi.dim}")
    iso = decide_isotropy(phi)
    if iso.is_unknown:
        return NeighborVerdict("unknown", "anisotropy-undecided",
                               reason=iso.reason)
    if iso.is_isotropic:
        return NeighborVerdict("no", "not-anisotropic")
    if phi.dim == 8 and phi.is_nonsingular and not arf(phi).is_zero():
        return NeighborVerdict("no", "arf-obstruction")
    if candidate is not None:
        lam, spec = candidate
        ok = _verify_witness(phi, lam, spec)
        if ok is True:
            return NeighborVerdict("yes", "candidate-verified", lam, spec)
        if ok is False:
            return NeighborVerdict("unknown", "candidate-rejected",
                                   reason="this candidate fails; no global "
                                          "conclusion")
        return NeighborVerdict("unknown", "candidate-undecided")
    found = _search_witness(phi)
    if found:
        return NeighborVerdict("yes", "witness-found", *found)
    return NeighborVerdict("unknown", "witness-search-exhausted",
                           reason="no verified witness in the generator pool")


def _require(phi, d):
    if phi.dim != d:
        raise Undecided(f"expected dimension {d}, got {phi.dim}")
    if not phi.is_nondegenerate:
        raise Undecided("nondegenerate form required")
