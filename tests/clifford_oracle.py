"""The centre of a Clifford algebra by linear algebra on its structure
constants: the reference that `qf2.clifford.center_and_idempotents`, which
reads the centre off the form, is compared against.

`solve_center` assembles the commutator constraints x*g + g*x = 0 for a
generating set of A (`_generators`), one row per basis mask, and takes the
kernel by row reduction (`kernel_basis`).  It costs a 2^(n-1)-column system
per algebra, which is why it lives here and not in the package.
"""

from qf2._linalg import rref
from qf2.clifford import CenterResult, CliffordAlgebra
from qf2.errors import SoundnessError
from qf2.fieldtower import FieldDescriptor, wp_reduce, wp_root


def kernel_basis(K: FieldDescriptor, rows, ncols=None):
    """Basis of the right kernel {x : rows . x = 0}.

    ncols must be given when rows may be empty (no constraints: full space).
    """
    if not rows:
        if ncols is None:
            return []
        one, zero = K.one(), K.zero()
        return [[one if j == i else zero for j in range(ncols)]
                for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero, one = K.zero(), K.one()
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = red[r][f]
        basis.append(vec)
    return basis


def _generators(A: CliffordAlgebra):
    """A generating set of A as an algebra.

    Full algebra: the single generators e_j.  Even part: with w the first
    anisotropic vector among e_0..e_{n-1}, e_0+e_1, the n-1 products w*e_j,
    j not the first index of w, since e_i e_j = phi(w)^-1 (e_i w)(w e_j),
    e_i w = b(e_i, w) + w e_i, and the omitted w*e_j is phi(w) plus the
    other products of w's support.  Such a w exists whenever n >= 1:
    quasilinear entries are nonzero, and if every phi(e_k) is 0 the form is
    a sum of blocks [0,0], where phi(e_0 + e_1) = 1."""
    one = A.K.one()
    if not A.even_only:
        return [{1 << j: one} for j in range(A.n)]
    if A.n == 0:
        return []
    support = next(((k,) for k in range(A.n) if not A._diag[k].is_zero()),
                   (0, 1))
    w = {1 << k: one for k in support}
    return [A.mul(w, {1 << j: one}) for j in range(A.n) if j != support[0]]


def solve_center(A: CliffordAlgebra) -> CenterResult:
    """Centralizer by linear solve; for an etale 2-dimensional center,
    classify the Artin-Schreier polynomial and, when it splits rationally,
    return the idempotent realizing C_0 = A x A.

    The full Clifford algebra of an odd-dimensional form has in
    characteristic 2 an inseparable 2-dimensional center (the radical
    generator is central, with square in K); that case is reported as
    "inseparable".  The central simple statement for odd dimensions is about
    C_0, whose center here comes out 1-dimensional."""
    K = A.K
    zero, one = K.zero(), K.one()
    masks = A.basis_masks
    rows = []
    for g in _generators(A):
        # constraint x*g + g*x = 0, one row block per basis mask
        cols = []
        for m in masks:
            x = {m: one}
            comm = A.add(A.mul(x, g), A.mul(g, x))
            cols.append(comm)
        support = sorted({mm for c in cols for mm in c})
        for mm in support:
            rows.append([c.get(mm, zero) for c in cols])
    kb = kernel_basis(K, rows, ncols=len(masks))
    dim = len(kb)
    if dim == 1:
        return CenterResult(1, None, None, None)
    if dim != 2:
        return CenterResult(dim, None, None, None)
    # find g independent of 1
    g_vec = None
    for vec in kb:
        elem = {m: c for m, c in zip(masks, vec) if not c.is_zero()}
        if set(elem) != {0}:
            g_vec = elem
            break
    g2 = A.mul(g_vec, g_vec)
    # g^2 = alpha + beta*g; beta = 0 means an inseparable center (odd-dim
    # full algebras: the radical generator squares into K)
    beta = None
    for m, c in g_vec.items():
        if m != 0:
            beta = g2.get(m, K.zero()) / c
            break
    if beta is None or beta.is_zero():
        return CenterResult(2, None, "inseparable", None)
    u = {m: c / beta for m, c in g_vec.items()}
    shifted = A.add(A.mul(u, u), u)
    if not set(shifted) <= {0}:
        raise SoundnessError("u^2 + u is not scalar")
    delta = shifted.get(0, K.zero())
    cls = wp_reduce(delta)
    if cls.is_zero():
        classification = "split"
        z = wp_root(delta)
        idem = A.add(u, {0: z}) if z is not None else None
        if idem is not None and not A.equal(A.mul(idem, idem), idem):
            raise SoundnessError("idempotent check failed")
        return CenterResult(2, delta, classification, idem)
    classification = "field" if cls.is_tame() else "unsupported"
    return CenterResult(2, delta, classification, None)
