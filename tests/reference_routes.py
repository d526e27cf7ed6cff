"""Reference routes that only the tests use: the finite-difference check of a
field's exact derivative at given points, and the equality of the subgroups
of Z^m that two integer matrices generate."""

import numpy as np

from mdlab.intlinalg import _column_hnf
from mdlab.topology import MatrixField, _fd_gap, _fd_points, _smooth


def derivative_check(field: MatrixField, pts) -> float:
    """Max deviation between exact and finite-difference derivatives (NaN if any is NaN).

    One derivative call gives the partials at the smooth points and the
    values at those moved by ±FD_STEP.
    """
    pts = _smooth(field, np.atleast_2d(np.asarray(pts, dtype=float)))
    values, partials = field.derivative(np.concatenate([pts, _fd_points(pts)]))
    return _fd_gap(partials[:, :len(pts)], values[len(pts):])


def subgroup_equal(a, b) -> bool:
    """Whether two generator matrices span the same subgroup of the same Z^m."""
    return _column_hnf(a) == _column_hnf(b)
