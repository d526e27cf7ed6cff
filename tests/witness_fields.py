"""Witness fields that only the tests use: the phase u_- on the negative
half-line, the constant projection q = diag(1, 0) on the plane, and the
values of the self-adjoint lift ptilde, whose exponential is a second route
to exp_ptilde."""

import numpy as np

from mdlab.topology import MatrixField
from mdlab.witnesses import _phase_field, _phat_jet


def uminus() -> MatrixField:
    """u_-(z) = e^{2 pi i (+z/sqrt(1+z^2))} on the negative half-line."""
    return _phase_field("uminus", 1.0)


def q_const() -> MatrixField:
    """The constant rank-1 projection diag(1, 0) on the plane."""
    return MatrixField.constant(np.diag([1.0, 0.0]), 2, "q")


def ptilde(pts) -> np.ndarray:
    """Self-adjoint lift phat(x, y)/sqrt(1 + z^2) of the hedgehog projection at
    (N, 3) points (x, y, z), as (N, 2, 2) values."""
    base = _phat_jet(pts[:, 0], pts[:, 1])[0]
    return np.moveaxis(base / np.sqrt(1.0 + pts[:, 2] ** 2), -1, 0)
