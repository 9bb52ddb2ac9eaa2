"""References for two steps of the Witt engine and its search oracle.

The orthogonal complement of a hyperbolic plane by dense elimination: the
reference that `qf2.witt._complement`, which writes the complement's basis
down from the block structure, is compared against.

`_complement` projects every unit vector onto the complement of span(v, u),
row-reduces the n projected rows (`rref`), and takes the Gram matrix of the
n - 2 reduced rows with the form's own dense `evaluate` and `polar`.  It
costs n^2 polar terms and an n x n elimination per split, which is why it
lives here and not in the package.

The brute-force search's match step by full enumeration (`first_dict_match`):
the reference that `qf2.witt._least_match`, which walks the left side only
up to its first hit, is compared against.
"""

from qf2._linalg import rref
from qf2.errors import SoundnessError
from qf2.forms import GramInput, QuadraticForm, normal_form


def _complement(phi, v, u):
    """phi restricted to the orthogonal complement of span(v,u), B(v,u)=1."""
    K = phi.field
    n = phi.dim
    if n == 2:
        return QuadraticForm(K)
    zero, one = K.zero(), K.one()
    rest = []
    for j in range(n):
        w = [zero] * n
        w[j] = one
        cu = phi.polar(w, u)
        cv = phi.polar(w, v)
        rest.append([w[m] + cu * v[m] + cv * u[m] for m in range(n)])
    red, pivots = rref(rest)
    basis = [red[i] for i in range(len(pivots))]
    if len(basis) != n - 2:
        raise SoundnessError("complement has wrong dimension")
    entries = [[zero] * (n - 2) for _ in range(n - 2)]
    for i in range(n - 2):
        entries[i][i] = phi.evaluate(basis[i])
        for j in range(i + 1, n - 2):
            entries[i][j] = phi.polar(basis[i], basis[j])
    return normal_form(GramInput(K, tuple(tuple(r) for r in entries)))



def first_dict_match(left, right):
    """The least key pair (i, j) != (0, 0) with left[i] == right[j], or None,
    from the whole of both sides: a dict maps each left value to its least
    key, and every nonzero right key is looked up in it."""
    first = dict(zip(reversed(left), range(len(left) - 1, -1, -1)))
    best = None
    try:
        best = (left.index(0, 1), 0)
    except ValueError:
        pass
    for j in range(1, len(right)):
        i = first.get(right[j])
        if i is not None and (best is None or i < best[0]):
            best = (i, j)
    return best
