"""Single-point probes that only the tests use: the orbit dimension at one
covector and the strata that contain one point."""

import numpy as np

from mdlab.foliation import STRATA, _check_in_V, _in_stratum
from mdlab.liealg import LieAlgebra
from mdlab.orbits import _batched_ranks


def orbit_dimension(alg: LieAlgebra, f) -> int:
    """Numeric rank of the Kirillov form at F: 0, 2 or 4, or -1 if F or the form is not finite."""
    f = np.asarray(f, dtype=float)
    return int(_batched_ranks(alg, f[:, None])[0])


def stratum_of(p) -> frozenset[str]:
    """All strata containing p, by the table of vanishing and nonzero coordinates."""
    p = _check_in_V(np.asarray(p, dtype=float))
    return frozenset(tag for tag in STRATA if _in_stratum(tag, p))
