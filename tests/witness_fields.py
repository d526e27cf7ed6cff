"""Witness fields that only the tests use: the phase u_- on the negative
half-line and the constant projection q = diag(1, 0) on the plane."""

import numpy as np

from mdlab.topology import MatrixField
from mdlab.witnesses import _phase_field


def uminus() -> MatrixField:
    """u_-(z) = e^{2 pi i (+z/sqrt(1+z^2))} on the negative half-line."""
    return _phase_field("uminus", 1.0)


def q_const() -> MatrixField:
    """The constant rank-1 projection diag(1, 0) on the plane."""
    return MatrixField.constant(np.diag([1.0, 0.0]), 2, "q")
