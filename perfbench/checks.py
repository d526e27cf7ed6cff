"""Computations the benchmark makes apart from mdlab, to check its outputs.

Nothing here calls into mdlab except the witness evaluators handed in by the
caller, so every check is a second route to the number mdlab reports.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# The paper's integers (signs relative to the declared calibration
# winding(u+) = +1, chern(phat) = +1).
PAPER = {
    "gamma1": [[0, 1], [0, 1]],
    "gamma2": [[1], [1]],
    "gamma3": [0, 1],
    "k_groups": {"K0(C*(F2))": 1, "K1(C*(F2))": 1},
}


def _lattice(axis, n: int) -> np.ndarray:
    """Vertices of a coarse lattice: n per period, or n + 1 with both ends."""
    if axis.tag == "periodic":
        return axis.lo + (axis.hi - axis.lo) * np.arange(n) / n
    return np.linspace(axis.lo, axis.hi, n + 1)


def fhs_chern(field, n: int) -> int:
    """Fukui-Hatsugai-Suzuki lattice Chern number of a rank-1 projection field.

    J. Phys. Soc. Jpn. 74 (2005) 1674.  The field is sampled on the vertices
    of a coarse lattice over its default 2D domain; a unit vector of the
    range of P at each vertex gives U(1) link variables, and the principal
    arguments of the plaquette products sum to 2*pi times an integer.  No
    quadrature error enters: on a closed surface (periodic axes, or axes on
    whose end faces P is constant, so the boundary links are 1) the sum is an
    integer up to round-off, for any lattice fine enough that no plaquette
    flux reaches pi.  The sign convention is the lattice's own; callers
    calibrate it on a reference field.
    """
    ax0, ax1 = field.default_domain.axes
    xs, ys = _lattice(ax0, n), _lattice(ax1, n)
    mesh = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    p = np.asarray(field.evaluator(mesh)).reshape(len(xs), len(ys), 2, 2)
    # Range of a rank-1 projection: its column of largest norm, normalized.
    cols = np.swapaxes(p, -1, -2)  # cols[..., j, :] is column j
    norms = np.linalg.norm(cols, axis=-1)
    pick = np.argmax(norms, axis=-1)
    u = np.take_along_axis(cols, pick[..., None, None], axis=-2)[..., 0, :]
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)

    def link(a, b):
        z = np.sum(np.conj(a) * b, axis=-1)
        return z / np.abs(z)

    if ax0.tag == "periodic":
        u = np.concatenate([u, u[:1]], axis=0)
    if ax1.tag == "periodic":
        u = np.concatenate([u, u[:, :1]], axis=1)
    u00, u10, u01, u11 = u[:-1, :-1], u[1:, :-1], u[:-1, 1:], u[1:, 1:]
    plaquette = link(u00, u10) * link(u10, u11) * np.conj(link(u01, u11)) * np.conj(link(u00, u01))
    total = float(np.angle(plaquette).sum()) / (2.0 * math.pi)
    charge = round(total)
    if abs(total - charge) > 1e-6:
        raise ArithmeticError(f"lattice Chern sum {total!r} is not an integer")
    return charge


def exact_det(m) -> int:
    """Determinant of a square integer matrix by exact rational elimination."""
    a = [[Fraction(int(x)) for x in row] for row in np.asarray(m)]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)


def smith_problems(m, factors: list[int], oracle: list[int]) -> list[str]:
    """Check invariant factors against the oracle, the gcd and the determinant."""
    problems = []
    if factors != oracle:
        problems.append(f"Smith {factors} != minor-gcd oracle {oracle}")
    if any(f <= 0 for f in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        problems.append(f"invariant factors {factors} are not a positive divisor chain")
    g = math.gcd(*(int(x) for x in np.asarray(m).reshape(-1)))
    if (factors[0] if factors else 0) != g:
        problems.append(f"first invariant factor of {factors} != gcd {g} of the entries")
    rows, cols = np.shape(m)
    if rows == cols:
        det = exact_det(m)
        if det != 0 and math.prod(factors) != abs(det):
            problems.append(f"product of {factors} != |det| = {abs(det)}")
        if (det == 0) != (len(factors) < rows):
            problems.append(f"rank from {factors} disagrees with det = {det}")
    return problems


def group_law_deviation(act, action: str, g, h, p) -> float:
    """Relative deviation of act(g, act(h, p)) from act(g + h, p)."""
    two_steps = act(action, g, act(action, h, p))
    one_step = act(action, np.asarray(g) + np.asarray(h), p)
    scale = max(1.0, float(np.abs(one_step).max()))
    identity = float(np.abs(act(action, (0.0, 0.0), p) - p).max())
    return max(float(np.abs(two_steps - one_step).max()) / scale, identity)
