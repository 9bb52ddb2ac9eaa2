"""Exact linear algebra: rref, row dependencies, and the kernels of the
Clifford-centre oracle."""

import random

from qf2._linalg import rref, row_dependency
from qf2.fieldtower import parse_element

from clifford_oracle import kernel_basis
from helpers import K1, K2, random_elem


def matrix(K, texts):
    return [[parse_element(K, x) for x in row] for row in texts]


def combination(K, lam, rows):
    out = [K.zero()] * len(rows[0])
    for li, row in zip(lam, rows):
        out = [o + li * x for o, x in zip(out, row)]
    return out


def test_row_dependency_fixed_example():
    rows = matrix(K1, [["1", "t"], ["t", "1"], ["1", "1"]])
    lam = row_dependency(K1, rows)
    assert lam == [parse_element(K1, "1/(t+1)"), parse_element(K1, "1/(t+1)"),
                   K1.one()]


def test_row_dependency_cancels():
    rng = random.Random(31)
    for _ in range(25):
        m = rng.randint(1, 4)
        rows = [[random_elem(K1, rng) for _ in range(m)]
                for _ in range(rng.randint(2, 4))]
        rows.append(combination(K1, [random_elem(K1, rng) for _ in rows],
                                rows))
        lam = row_dependency(K1, rows)
        assert lam is not None and any(not x.is_zero() for x in lam)
        assert all(x.is_zero() for x in combination(K1, lam, rows))


def test_row_dependency_independent_rows():
    assert row_dependency(K1, []) is None
    rows = matrix(K1, [["1", "t", "0"], ["0", "1", "t"], ["t", "0", "1"]])
    assert row_dependency(K1, rows) is None


def test_kernel_basis():
    rows = matrix(K2, [["1", "s", "0"], ["0", "t", "1"]])
    basis = kernel_basis(K2, rows)
    assert basis == [matrix(K2, [["s/t", "1/t", "1"]])[0]]
    for vec in basis:
        assert all(sum((a * x for a, x in zip(row, vec)), K2.zero()).is_zero()
                   for row in rows)
    full = kernel_basis(K2, [], ncols=2)
    assert full == [[K2.one(), K2.zero()], [K2.zero(), K2.one()]]
    assert kernel_basis(K2, []) == []


def dense_rref(rows):
    """Reference elimination that updates every column of every row."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()),
                  None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x + f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def test_rref_sparse_rows_match_dense_elimination():
    # rref skips the pivot row's zero columns; the result must not change
    rng = random.Random(47)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        rows = [[random_elem(K2, rng, deg=1) if rng.random() < 0.4
                 else K2.zero() for _ in range(ncols)]
                for _ in range(rng.randint(1, 5))]
        assert rref(rows) == dense_rref(rows)
