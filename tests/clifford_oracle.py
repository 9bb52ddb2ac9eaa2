"""The structure constants of a Clifford algebra, and its centre by linear
algebra on them: the reference that `qf2.clifford.center_and_idempotents`,
which reads the centre off the form, is compared against.

`StructureConstants` is the multiplication table of C(phi) or C_0(phi) on the
2^n monomial basis (`structure_constants` builds it up to dimension
DIMENSION_CAP; the package describes the algebra at every dimension and
builds no table).  `check_center_identities` multiplies out, in that table,
the two identities the package's centre rests on.  `solve_center` assembles
the commutator constraints x*g + g*x = 0 for a generating set of A
(`_generators`), one row per basis mask, and takes the kernel by row
reduction (`kernel_basis`).  It costs a 2^(n-1)-column system
per algebra, which is why it lives here and not in the package.
"""

from qf2._linalg import rref
from qf2.clifford import CenterResult, CliffordAlgebra
from qf2.errors import SoundnessError
from qf2.fieldtower import FieldDescriptor, FieldElem, wp_reduce, wp_root
from qf2.forms import QuadraticForm

# the table has 2^n x 2^n entries: refused beyond this form dimension
DIMENSION_CAP = 8


class StructureConstants(CliffordAlgebra):
    """C(phi) (or its even part) on the 2^n monomial basis.

    Elements are dicts {mask: coefficient}; mask bit i means generator e_i,
    letters ordered ascending.  Relations: e_i^2 = phi(e_i), and
    e_i e_j + e_j e_i = b_phi(e_i, e_j) for i != j.
    """

    def __init__(self, form: QuadraticForm, even_only: bool = False):
        super().__init__(form, even_only)
        self._diag = []
        for a, b in form.blocks:
            self._diag.extend([a, b])
        self._diag.extend(form.quasilinear)
        self._pairs = {}
        for i in range(len(form.blocks)):
            self._pairs[2 * i] = 2 * i + 1
            self._pairs[2 * i + 1] = 2 * i
        self._gen_cache = {}
        self.basis_masks = [m for m in range(1 << self.n)
                            if not even_only or bin(m).count("1") % 2 == 0]

    # b_phi(e_i, e_j): 1 inside a block pair, 0 otherwise
    def _polar_gen(self, i, j):
        return self.K.one() if self._pairs.get(i) == j else self.K.zero()

    def _mul_gen(self, mask, j):
        """e_mask * e_j as a dict."""
        key = (mask, j)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        one = self.K.one()
        if mask == 0:
            out = {1 << j: one}
        else:
            top = mask.bit_length() - 1
            rest = mask ^ (1 << top)
            if top < j:
                out = {mask | (1 << j): one}
            elif top == j:
                q = self._diag[j]
                out = {rest: q} if not q.is_zero() else {}
            else:
                out = {}
                for m2, c2 in self._mul_gen(rest, j).items():
                    if (m2 >> top) & 1:
                        raise SoundnessError("e_rest * e_j contains e_top")
                    out[m2 | (1 << top)] = c2
                bij = self._polar_gen(top, j)
                if not bij.is_zero():
                    _accumulate(out, rest, bij, self.K.zero())
        self._gen_cache[key] = out
        return out

    def mul_masks(self, m1, m2):
        acc = {m1: self.K.one()}
        zero = self.K.zero()
        j = 0
        while m2:
            if m2 & 1:
                nxt = {}
                for m, c in acc.items():
                    for m3, c3 in self._mul_gen(m, j).items():
                        _accumulate(nxt, m3, c * c3, zero)
                acc = nxt
            m2 >>= 1
            j += 1
        return acc

    def mul(self, x: dict, y: dict) -> dict:
        out = {}
        zero = self.K.zero()
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                for m3, c3 in self.mul_masks(m1, m2).items():
                    _accumulate(out, m3, c1 * c2 * c3, zero)
        return out

    def add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        zero = self.K.zero()
        for m, c in y.items():
            _accumulate(out, m, c, zero)
        return out

    def one(self):
        return {0: self.K.one()}

    def equal(self, x, y):
        return self.add(x, y) == {}


def _accumulate(out: dict, mask, c: FieldElem, zero: FieldElem) -> None:
    """out[mask] += c, dropping the entry when the sum is zero."""
    cur = out.get(mask, zero) + c
    if cur.is_zero():
        out.pop(mask, None)
    else:
        out[mask] = cur


def structure_constants(phi: QuadraticForm,
                        even_only: bool = False) -> StructureConstants:
    """Multiplication table of C(phi) (or C_0(phi) on the even masks), for
    forms of dimension at most DIMENSION_CAP."""
    if phi.dim > DIMENSION_CAP:
        raise ValueError(f"dim {phi.dim} > cap {DIMENSION_CAP}")
    return StructureConstants(phi, even_only=even_only)


def check_center_identities(A: StructureConstants, centre: CenterResult):
    """Multiply out, in A's structure constants, the identities behind an
    etale centre K + Ku, u = sum_i e_(2i) e_(2i+1), read off the form:
    u^2 + u = delta and, for the idempotent e = u + z_0, e^2 = e.  Raises
    SoundnessError on a failure (never `assert`: this module is not
    rewritten under python -O); returns how many identities were checked."""
    if centre.delta is None:
        return 0
    one = A.K.one()
    u = {3 << (2 * i): one for i in range(len(A.form.blocks))}
    if not A.equal(A.mul(u, u), A.add(u, {0: centre.delta})):
        raise SoundnessError("u^2 + u is not delta")
    e = centre.idempotent
    if e is None:
        return 1
    if not set(A.add(e, u)) <= {0}:
        raise SoundnessError("idempotent is not u + z_0")
    if not A.equal(A.mul(e, e), e):
        raise SoundnessError("idempotent check failed")
    return 2


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


def _generators(A: StructureConstants):
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


def solve_center(A: StructureConstants) -> CenterResult:
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
