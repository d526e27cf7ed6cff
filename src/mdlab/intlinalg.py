"""Exact integer linear algebra: Smith/Hermite forms, kernels, images, cokernels.

Matrices are numpy arrays with dtype=object holding Python ints, so nothing
ever overflows.  A map Z^n -> Z^m is an m x n matrix acting on column vectors.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

import numpy as np

__all__ = [
    "as_zmatrix",
    "snf",
    "invariant_factors",
    "minor_gcd_invariant_factors",
    "hnf_columns",
    "kernel_basis",
    "image_basis",
    "cokernel",
    "subgroup_equal",
    "zeros",
    "identity",
]


def as_zmatrix(m) -> np.ndarray:
    """Copy input to an exact integer (dtype=object) matrix."""
    a = np.array(m)
    if a.ndim != 2:
        a = np.atleast_2d(a)
    out = np.empty(a.shape, dtype=object)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            v = a[i, j]
            iv = int(v)
            if iv != v:
                raise ValueError(f"entry {v!r} is not an integer")
            out[i, j] = iv
    return out


def zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[:] = 0
    return out


def identity(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def _swap_rows(a, i, j):
    a[[i, j], :] = a[[j, i], :]


def _swap_cols(a, i, j):
    a[:, [i, j]] = a[:, [j, i]]


def snf(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form: returns (U, D, V) with U @ M @ V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    d1 | d2 | ... down the diagonal.  Each pivot t goes round one loop: move a
    minimal-magnitude nonzero entry of d[t:, t:] to (t, t) and reduce row and
    column t against it.  A nonzero remainder goes round again; so does an
    entry d[i, j] (i, j > t) the pivot fails to divide, after row i is added
    to row t.  Either way the next round leaves a nonzero remainder smaller
    than |pivot| in row or column t, so |pivot| strictly shrinks and the loop
    ends, with the pivot dividing all of d[t + 1:, t + 1:]: the divisibility
    chain.
    """
    d = as_zmatrix(m).copy()
    rows, cols = d.shape
    u = identity(rows)
    v = identity(cols)
    for t in range(min(rows, cols)):
        while True:
            nonzero = [(abs(d[i, j]), i, j) for i in range(t, rows)
                       for j in range(t, cols) if d[i, j] != 0]
            if not nonzero:
                return u, d, v
            _, i, j = min(nonzero)
            if i != t:
                _swap_rows(d, t, i)
                _swap_rows(u, t, i)
            if j != t:
                _swap_cols(d, t, j)
                _swap_cols(v, t, j)
            p = d[t, t]
            for i in range(t + 1, rows):
                if d[i, t] != 0:
                    q = d[i, t] // p
                    d[i, :] -= q * d[t, :]
                    u[i, :] -= q * u[t, :]
            for j in range(t + 1, cols):
                if d[t, j] != 0:
                    q = d[t, j] // p
                    d[:, j] -= q * d[:, t]
                    v[:, j] -= q * v[:, t]
            if any(d[i, t] != 0 for i in range(t + 1, rows)) or \
               any(d[t, j] != 0 for j in range(t + 1, cols)):
                continue
            i = next((i for i in range(t + 1, rows)
                      for j in range(t + 1, cols) if d[i, j] % p != 0), None)
            if i is None:
                break
            d[t, :] += d[i, :]
            u[t, :] += u[i, :]
        if d[t, t] < 0:
            d[t, :] = -d[t, :]
            u[t, :] = -u[t, :]
    return u, d, v


def invariant_factors(m) -> list[int]:
    """Nonzero diagonal of the Smith normal form, in divisibility order."""
    _, d, _ = snf(m)
    return [int(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0]


def minor_gcd_invariant_factors(m) -> list[int]:
    """Brute-force oracle: d_k = gcd(k-minors) / gcd((k-1)-minors).

    Exponential in the matrix size; intended for small matrices in tests.
    """
    a = as_zmatrix(m)
    rows, cols = a.shape

    def det(sub_r, sub_c):
        k = len(sub_r)
        if k == 1:
            return a[sub_r[0], sub_c[0]]
        total = 0
        sign = 1
        for idx, r in enumerate(sub_r):
            minor = det(sub_r[:idx] + sub_r[idx + 1:], sub_c[1:])
            total += sign * a[r, sub_c[0]] * minor
            sign = -sign
        return total

    gcds = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for sr in combinations(range(rows), k):
            for sc in combinations(range(cols), k):
                g = gcd(g, int(det(list(sr), list(sc))))
        if g == 0:
            break
        gcds.append(g)
    factors = []
    prev = 1
    for g in gcds:
        factors.append(g // prev)
        prev = g
    return factors


def hnf_columns(m) -> np.ndarray:
    """Column-style Hermite normal form of the column lattice of M.

    Returns a matrix whose columns are the canonical generators: zero columns
    dropped, pivots positive, entries right of a pivot reduced mod the pivot.
    Two integer matrices generate the same subgroup of Z^m iff their forms
    are equal.
    """
    a = as_zmatrix(m).copy()
    rows, cols = a.shape
    # Column echelon via unimodular column operations, pivoting down the rows.
    c = 0
    for r in range(rows):
        if c >= cols:
            break
        # gcd-out the row r among columns c..end.
        while True:
            nz = [j for j in range(c, cols) if a[r, j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(a[r, j]))
            if jmin != c:
                _swap_cols(a, c, jmin)
            done = True
            for j in range(c + 1, cols):
                if a[r, j] != 0:
                    q = a[r, j] // a[r, c]
                    a[:, j] -= q * a[:, c]
                    if a[r, j] != 0:
                        done = False
            if done:
                break
        if a[r, c] != 0:
            if a[r, c] < 0:
                a[:, c] = -a[:, c]
            # Reduce earlier columns above this pivot.
            for j in range(c):
                q = a[r, j] // a[r, c]
                a[:, j] -= q * a[:, c]
            c += 1
    keep = [j for j in range(cols) if any(a[i, j] != 0 for i in range(rows))]
    return a[:, keep] if keep else zeros(rows, 0)


def kernel_basis(m) -> np.ndarray:
    """Columns form a primitive basis of ker(M) in the source Z^n."""
    a = as_zmatrix(m)
    _, d, v = snf(a)
    n = a.shape[1]
    rank = sum(1 for i in range(min(d.shape)) if d[i, i] != 0)
    return hnf_columns(v[:, rank:]) if rank < n else zeros(n, 0)


def image_basis(m) -> np.ndarray:
    """Columns generate im(M) in the target Z^m (canonical HNF generators)."""
    return hnf_columns(as_zmatrix(m))


def cokernel(m) -> tuple[int, list[int]]:
    """(free rank, torsion factors > 1) of Z^m / im(M)."""
    a = as_zmatrix(m)
    facs = invariant_factors(a)
    free = a.shape[0] - len(facs)
    torsion = [f for f in facs if f > 1]
    return free, torsion


def subgroup_equal(a, b) -> bool:
    """Whether two generator matrices span the same subgroup of the same Z^m."""
    ha, hb = hnf_columns(a), hnf_columns(b)
    return ha.shape == hb.shape and np.array_equal(ha, hb)
