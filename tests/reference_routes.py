"""Reference routes that only the tests use: the finite-difference check of a
field's exact derivative at given points, the equality of the subgroups of
Z^m that two integer matrices generate, and plain numpy formulas of the
action, the Smith elimination, the family blocks, the closed-form orbits and
the matrix exponential, whose bits the faster routes of mdlab must keep."""

import math

import numpy as np

from mdlab.intlinalg import _column_hnf
from mdlab.liealg import FAMILIES
from mdlab.orbits import _PADE13, _THETA13
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


def act(action: str, g, p) -> np.ndarray:
    """The R^2-action of `foliation.act` on numpy values throughout: one point
    unpacks into numpy scalars, a stack into arrays."""
    if action not in ("lambda12", "lambda14"):
        raise ValueError(f"unknown action {action!r}")
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (5,):
        raise ValueError("points of V have 5 coordinates (x, y, z, t, s)")
    if not p[..., 1:].any(axis=-1).all():
        raise ValueError("point outside V: (y, z, t, s) = 0")
    g = np.asarray(g, dtype=float)
    if g.shape[-1:] != (2,):
        raise ValueError(f"group elements g = (r, a) have 2 coordinates, got shape {g.shape}")
    x, y, z, t, s = p.transpose(-1, *range(p.ndim - 1))
    r, a = g.transpose(-1, *range(g.ndim - 1))
    ca, sa = np.cos(a), np.sin(a)
    shifted = x + r
    out = np.empty(np.shape(shifted) + (5,))
    out[..., 0] = shifted
    out[..., 1] = y * ca + z * sa
    out[..., 2] = -y * sa + z * ca
    if action == "lambda12":
        ea = np.exp(a)
        out[..., 3] = t * ea
        out[..., 4] = s * ea
    else:
        out[..., 3] = t * ca + s * sa
        out[..., 4] = -t * sa + s * ca
    return out


def snf(m) -> tuple[list, list, list]:
    """Rows of U, D and V^T of the Smith form, each pivot the minimum of the
    triples (|x|, i, j) over the remaining block, every test its own pass."""
    d = np.asarray(m).tolist()
    rows, cols = len(d), len(d[0])
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]
    for t in range(min(rows, cols)):
        while True:
            nonzero = [(abs(x), i, j) for i in range(t, rows)
                       for j, x in enumerate(d[i][t:], t) if x]
            if not nonzero:
                return u, d, vt
            _, i, j = min(nonzero)
            d[t], d[i], u[t], u[i] = d[i], d[t], u[i], u[t]
            for row in d:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
            p = d[t][t]
            for i in range(t + 1, rows):
                q = d[i][t] // p
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, cols):
                q = d[t][j] // p
                for row in d:
                    row[j] -= q * row[t]
                vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
            if any(d[i][t] for i in range(t + 1, rows)) or any(d[t][t + 1:]):
                continue
            i = next((i for i in range(t + 1, rows)
                      if any(x % p for x in d[i][t + 1:])), None)
            if i is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return u, d, vt


def ad_block(family) -> np.ndarray:
    """The family's 4x4 block from numpy's eye, diag and block arrays."""
    mats = []
    for b in FAMILIES[family.family_id].blocks(family.params):
        if b[0] == "jordan":
            mats.append(b[1] * np.eye(b[2]) + np.diag(np.ones(b[2] - 1), 1))
        elif b[0] == "rot":
            c, s = math.cos(b[1]), math.sin(b[1])
            mats.append(np.array([[c, -s], [s, c]]))
        else:
            mats.append(np.array([[b[1], -b[2]], [b[2], b[1]]]))
    out = np.zeros((4, 4))
    k = 0
    for m in mats:
        out[k:k + len(m), k:k + len(m)] = m
        k += len(m)
    return out


def expm(stack: np.ndarray) -> np.ndarray:
    """`orbits._expm` of a finite stack (N, n, n): the 1-norms from numpy's
    reduction and the scaling by np.ldexp."""
    norm = np.abs(stack).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = np.ldexp(stack, -s[:, None, None])
    eye = np.eye(stack.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        rows = np.flatnonzero(s > k)
        r[rows] = r[rows] @ r[rows]
    return r


def _rot(u, v, z):
    w = (u + 1j * v) * np.exp(z)
    return w.real, w.imag


E = np.exp
# Every exponential of each closed-form orbit evaluated where it appears.
ORBITS = {
    "5_4_1": lambda p, b, g, d, s, a: (
        b * E(a * p["lambda1"]), g * E(a * p["lambda2"]), d * E(a * p["lambda3"]), s * E(a)),
    "5_4_2": lambda p, b, g, d, s, a: (
        b * E(a * p["lambda1"]), g * E(a * p["lambda2"]), d * E(a), s * E(a)),
    "5_4_3": lambda p, b, g, d, s, a: (
        b * E(a * p["lambda"]), g * E(a * p["lambda"]), d * E(a), s * E(a)),
    "5_4_4": lambda p, b, g, d, s, a: (b * E(a * p["lambda"]), g * E(a), d * E(a), s * E(a)),
    "5_4_5": lambda p, b, g, d, s, a: (b * E(a), g * E(a), d * E(a), s * E(a)),
    "5_4_6": lambda p, b, g, d, s, a: (
        b * E(a * p["lambda1"]), g * E(a * p["lambda2"]), d * E(a), d * a * E(a) + s * E(a)),
    "5_4_7": lambda p, b, g, d, s, a: (
        b * E(a * p["lambda"]), g * E(a * p["lambda"]), d * E(a), d * a * E(a) + s * E(a)),
    "5_4_8": lambda p, b, g, d, s, a: (
        b * E(a * p["lambda"]), b * a * E(a * p["lambda"]) + g * E(a * p["lambda"]),
        d * E(a), d * a * E(a) + s * E(a)),
    "5_4_9": lambda p, b, g, d, s, a: (
        b * E(a * p["lambda"]), g * E(a), g * a * E(a) + d * E(a),
        g * a * a * E(a) / 2 + d * a * E(a) + s * E(a)),
    "5_4_10": lambda p, b, g, d, s, a: (
        b * E(a), b * a * E(a) + g * E(a), b * a * a * E(a) / 2 + g * a * E(a) + d * E(a),
        b * a ** 3 * E(a) / 6 + g * a * a * E(a) / 2 + d * a * E(a) + s * E(a)),
    "5_4_11": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * E(-1j * p["phi"])), d * E(a * p["lambda1"]), s * E(a * p["lambda2"])),
    "5_4_12": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * E(-1j * p["phi"])), d * E(a * p["lambda"]), s * E(a * p["lambda"])),
    "5_4_13": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * E(-1j * p["phi"])), d * E(a * p["lambda"]),
        d * a * E(a * p["lambda"]) + s * E(a * p["lambda"])),
    "5_4_14": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * E(-1j * p["phi"])), *_rot(d, s, a * (p["lambda"] - 1j * p["mu"]))),
}


def flow_vs_closed_form(family, f, avals) -> float:
    """`orbits.flow_vs_closed_form` of a finite covector f off the zero stratum."""
    xs = 0.7 * avals + 0.1
    e = expm(avals[:, None, None] * ad_block(family).T)
    flow = np.empty((len(avals), 5))
    flow[:, 0] = xs
    flow[:, 1:] = e @ f[1:]
    closed = np.empty((len(avals), 5))
    closed[:, 0] = xs
    for i, coord in enumerate(ORBITS[family.family_id](family.params, *f[1:], avals), 1):
        closed[:, i] = coord
    return float(np.max(np.abs(flow - closed)))
