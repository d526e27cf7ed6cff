"""Exact integer linear algebra: Smith/Hermite forms, kernels, images, cokernels.

A map Z^n -> Z^m is an m x n matrix acting on column vectors.  Matrices come
in as anything numpy reads as a 2D array of integers and go out as numpy
arrays with dtype=object holding Python ints, so nothing ever overflows.
Inside, each function converts its input once, by `_rows`, to a list of rows
of Python ints (refusing any entry that is not an integer), runs its
elimination on lists, and builds object arrays only for the matrices it
returns.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import gcd

import numpy as np

__all__ = [
    "as_zmatrix",
    "snf",
    "invariant_factors",
    "minor_gcd_invariant_factors",
    "kernel_basis",
    "image_basis",
    "cokernel",
    "zeros",
]


def _int(v) -> int:
    if type(v) is int:
        return v
    try:
        iv = int(v)
    except (OverflowError, ValueError):  # inf, nan
        iv = None
    if iv is None or iv != v:
        raise ValueError(f"entry {v!r} is not an integer")
    return iv


def _rows(m) -> tuple[list[list[int]], int]:
    """The rows of the matrix m as new lists of Python ints, and its column count."""
    a = np.asarray(m)
    if a.ndim != 2:
        if a.ndim > 2:
            raise ValueError(f"expected a matrix, got an array of shape {a.shape}")
        a = np.atleast_2d(a)
    if a.dtype.kind in "iu":
        return a.tolist(), a.shape[1]
    return [[_int(v) for v in row] for row in a.tolist()], a.shape[1]


def _matrix(rows: list[list[int]], cols: int) -> np.ndarray:
    """An exact (dtype=object) matrix with the given rows of `cols` entries."""
    return np.array(rows, dtype=object).reshape(len(rows), cols)


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _diagonal(d: list[list[int]], cols: int) -> list[int]:
    """The nonzero diagonal entries of the rows d."""
    return [d[i][i] for i in range(min(len(d), cols)) if d[i][i]]


def as_zmatrix(m) -> np.ndarray:
    """Copy input to an exact integer (dtype=object) matrix."""
    return _matrix(*_rows(m))


def zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[:] = 0
    return out


def _pivot(d: list[list[int]], t: int, cols: int) -> tuple[int, int] | None:
    """Where the pivot of round t lies: the first entry of least |x| in d[t:, t:].

    The block is scanned row by row, so among the entries of least |x| the
    one found first has the least row and then the least column, as the
    minimum of the triples (|x|, i, j) would.  A unit ends the scan, since
    no nonzero integer is smaller.  None when the block is zero.
    """
    best = 0
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, cols):
            x = row[j]
            if x:
                if x < 0:
                    x = -x
                if x == 1:
                    return i, j
                if not best or x < best:
                    best, at = x, (i, j)
    return at if best else None


def _snf(d: list[list[int]], cols: int, left: bool = False,
         right: bool = False) -> tuple[list[list[int]] | None, list[list[int]] | None]:
    """Bring the rows d to Smith normal form in place; return the rows of U and of V^T.

    The algorithm is the one `snf` documents.  Each transform is carried only
    when asked for, U with `left` and V^T with `right`; one not asked for is
    returned as None, and the diagonal is the same either way.  Column
    operations on V are row operations on V^T, so both transforms stay lists
    of rows.  The reductions note each nonzero remainder as they leave it, so
    no second pass looks for one; a unit pivot divides everything, so it
    skips the divisibility search.
    """
    rows = len(d)
    u = _eye(rows) if left else None
    vt = _eye(cols) if right else None
    for t in range(min(rows, cols)):
        while True:
            at = _pivot(d, t, cols)
            if at is None:
                return u, vt
            i, j = at
            if i != t:
                d[t], d[i] = d[i], d[t]
                if left:
                    u[t], u[i] = u[i], u[t]
            if j != t:
                for row in d:
                    row[t], row[j] = row[j], row[t]
                if right:
                    vt[t], vt[j] = vt[j], vt[t]
            dt = d[t]
            p = dt[t]
            remainder = False
            for i in range(t + 1, rows):
                di = d[i]
                q = di[t] // p
                if q:
                    d[i] = di = [x - q * y for x, y in zip(di, dt)]
                    if left:
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if di[t]:
                    remainder = True
            for j in range(t + 1, cols):
                q = dt[j] // p
                if q:
                    for row in d:
                        row[j] -= q * row[t]
                    if right:
                        vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                if dt[j]:
                    remainder = True
            if remainder:
                continue
            if p == 1 or p == -1:
                break
            # The first row with an entry right of t that p does not divide.
            for i in range(t + 1, rows):
                di = d[i]
                if any(di[j] % p for j in range(t + 1, cols)):
                    break
            else:
                break
            d[t] = [x + y for x, y in zip(dt, di)]
            if left:
                u[t] = [x + y for x, y in zip(u[t], u[i])]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            if left:
                u[t] = [-x for x in u[t]]
    return u, vt


def snf(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form: returns (U, D, V) with U @ M @ V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    d1 | d2 | ... down the diagonal.  Each pivot t goes round one loop: move
    the first nonzero entry of least magnitude in d[t:, t:], row by row
    (`_pivot`), to (t, t) and reduce row and column t against it.  A nonzero
    remainder goes round again; so does an entry d[i, j] (i, j > t) the pivot
    fails to divide, after row i is added to row t.  Either way the next round
    leaves a nonzero remainder smaller than |pivot| in row or column t, so
    |pivot| strictly shrinks and the loop ends, with the pivot dividing all of
    d[t + 1:, t + 1:]: the divisibility chain.  This is the only caller that
    carries both transforms; the kernel carries V alone, and
    `invariant_factors` and `cokernel` neither, all through the same
    elimination, so all four read the same diagonal.
    """
    d, cols = _rows(m)
    u, vt = _snf(d, cols, left=True, right=True)
    return _matrix(u, len(d)), _matrix(d, cols), _matrix(vt, cols).T


def invariant_factors(m) -> list[int]:
    """Nonzero diagonal of the Smith normal form, in divisibility order."""
    d, cols = _rows(m)
    _snf(d, cols)
    return _diagonal(d, cols)


@cache
def _expansion_plan(rows: int, cols: int, k: int) -> tuple:
    """Where each k-minor of a rows x cols matrix reads its Laplace expansion.

    The k-minors are listed column tuple by column tuple, and within each by
    row tuple, both in `combinations` order; the (k-1)-minors likewise.  For
    each k-minor the plan holds its first column c and, for each row r of its
    row tuple in turn, the triple (r, position of the complementary
    (k-1)-minor, whether r's place in the tuple is odd).  Indices only: it
    depends on the shape alone.
    """
    row_sets = {sr: i for i, sr in enumerate(combinations(range(rows), k - 1))}
    col_sets = {sc: i for i, sc in enumerate(combinations(range(cols), k - 1))}
    plan = []
    for sc in combinations(range(cols), k):
        base = col_sets[sc[1:]] * len(row_sets)
        for sr in combinations(range(rows), k):
            plan.append((sc[0], tuple((r, base + row_sets[sr[:i] + sr[i + 1:]], i & 1)
                                      for i, r in enumerate(sr))))
    return tuple(plan)


def minor_gcd_invariant_factors(m) -> list[int]:
    """Determinantal-divisor oracle: d_k = gcd(k-minors) / gcd((k-1)-minors).

    It shares nothing with the elimination of `_snf`.  The k-minors are built
    from a table of the (k-1)-minors, each by Laplace expansion along its
    first column, so every minor is computed once; the table for k holds
    C(rows, k) * C(cols, k) of them.  Which entries each expansion reads comes
    from `_expansion_plan`, built once per shape (rows, cols, k).  It stops at
    the first k whose minors all vanish, since every larger minor vanishes with
    them.  The tables grow combinatorially with the matrix size; it is meant
    for small matrices.
    """
    a, cols = _rows(m)
    rows = len(a)
    columns = list(zip(*a))
    minors = [1]  # the one 0-minor
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        table = []
        for c, terms in _expansion_plan(rows, cols, k):
            column = columns[c]
            det = 0
            for r, pos, odd in terms:
                x = column[r]
                if x:
                    term = x * minors[pos]
                    det = det - term if odd else det + term
            table.append(det)
        g = gcd(*table)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
        minors = table
    return factors


def _hnf(a: list[list[int]], rows: int) -> list[list[int]]:
    """Column Hermite form of the columns a (lists of `rows` entries), in place.

    Returns the nonzero columns: the canonical generators `image_basis`
    documents.
    """
    cols = len(a)
    # Column echelon via unimodular column operations, pivoting down the rows.
    c = 0
    for r in range(rows):
        if c >= cols:
            break
        # gcd-out the row r among columns c..end.
        while True:
            nz = [j for j in range(c, cols) if a[j][r]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(a[j][r]))
            if jmin != c:
                a[c], a[jmin] = a[jmin], a[c]
            ac = a[c]
            done = True
            for j in range(c + 1, cols):
                if a[j][r]:
                    q = a[j][r] // ac[r]
                    a[j] = [x - q * y for x, y in zip(a[j], ac)]
                    if a[j][r]:
                        done = False
            if done:
                break
        if a[c][r]:
            if a[c][r] < 0:
                a[c] = [-x for x in a[c]]
            ac = a[c]
            # Reduce earlier columns above this pivot.
            for j in range(c):
                q = a[j][r] // ac[r]
                if q:
                    a[j] = [x - q * y for x, y in zip(a[j], ac)]
            c += 1
    return [col for col in a if any(col)]


def _column_hnf(m) -> tuple[list[list[int]], int]:
    """The column Hermite form of m as a list of columns, and its row count."""
    rows, cols = _rows(m)
    return _hnf([[row[j] for row in rows] for j in range(cols)], len(rows)), len(rows)


def _from_columns(columns: list[list[int]], rows: int) -> np.ndarray:
    return _matrix(columns, rows).T


def _kernel_columns(m) -> tuple[list[list[int]], int]:
    """The columns of `kernel_basis(m)` as lists, and the source rank n."""
    d, n = _rows(m)
    _, vt = _snf(d, n, right=True)
    rank = len(_diagonal(d, n))
    # The last n - rank columns of V span the kernel.
    return _hnf(vt[rank:], n), n


def kernel_basis(m) -> np.ndarray:
    """Columns form a primitive basis of ker(M) in the source Z^n."""
    return _from_columns(*_kernel_columns(m))


def image_basis(m) -> np.ndarray:
    """Columns generate im(M) in the target Z^m: the column Hermite normal form of M.

    The columns are the canonical generators: zero columns dropped, pivots
    positive, entries right of a pivot reduced mod the pivot.  Two integer
    matrices generate the same subgroup of Z^m iff their forms are equal.
    """
    return _from_columns(*_column_hnf(m))


def cokernel(m) -> tuple[int, list[int]]:
    """(free rank, torsion factors > 1) of Z^m / im(M)."""
    d, cols = _rows(m)
    _snf(d, cols)
    facs = _diagonal(d, cols)
    return len(d) - len(facs), [f for f in facs if f > 1]
