"""Coadjoint machinery: Kirillov forms, orbit dimensions, flows and closed-form orbits.

Covectors are length-5 arrays (alpha, beta, gamma, delta, sigma) in the dual
basis.  The one-parameter coadjoint flow on the last four coordinates is
exp(a * M^T) where M is the ad_{X1} block; the first coordinate is the free
orbit parameter.  The flow exponentiates the whole stack of a * M^T at once by
scaling and squaring a Pade approximant (`_expm`).  The closed forms are a
second route that shares nothing with it: one table, `_ORBITS`, holds each
family's four hand-written coordinate formulas, and `closed_form_orbit`
evaluates them.  The flow's sign and transpose convention is not assumed: it
is validated against the closed forms by `flow_vs_closed_form`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy  # scipy.linalg loads on first use: only `orbit_tangent_residual` needs it

from .liealg import LieAlgebra, MD5Family, build_md5

__all__ = [
    "covector",
    "kirillov_form",
    "orbit_dimension",
    "in_zero_stratum",
    "md_verify",
    "MDReport",
    "coadjoint_flow",
    "closed_form_orbit",
    "flow_vs_closed_form",
    "orbit_tangent_residual",
]

RANK_TOL = 1e-8
RANK_BLOCK = 2048  # covectors per rank block, so that memory does not grow with the sample count
# Largest deviation of the matrix-exponential flow from a closed-form orbit.
FLOW_TOL = 1e-9
# `mdlab orbit` judges the flow to FLOW_TOL * scale, relative to the orbit's
# size.  That tolerance grows with the scale until it swallows errors in the
# coordinates of size about 1: with no limit, a flow with one coordinate's
# sign flipped passed on an orbit of size 4e12.  So the command refuses an
# orbit past this size, where the tolerance is FLOW_TOL**2 / eps, about 4.5e-3.
FLOW_SCALE_LIMIT = FLOW_TOL / np.finfo(float).eps

# Higham's degree-13 Pade approximant to exp (SIAM J. Matrix Anal. Appl. 26
# (2005) 1179): its coefficients b_k divided by b_0, so that exp(0) = I
# exactly, and the 1-norm up to which it is accurate to double precision.
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1], dtype=float) / 64764752532480000
_THETA13 = 5.371920351148152

# Fixed probes of the dimension-0 stratum, appended to every verification run.
_BOUNDARY_ALPHAS = (0.0, 7.0, -3.0, 0.5, 1000.0, -0.001)


def covector(alpha=0.0, beta=0.0, gamma=0.0, delta=0.0, sigma=0.0) -> np.ndarray:
    return np.array([alpha, beta, gamma, delta, sigma], dtype=float)


def kirillov_form(alg: LieAlgebra, f) -> np.ndarray:
    """Skew matrix B[i, j] = <F, [X_{i+1}, X_{j+1}]>; covectors (..., 5) give (..., 5, 5)."""
    f = np.asarray(f, dtype=float)
    return np.einsum("ijk,...k->...ij", alg.sc, f)


# The upper entries B[k, l], k < l, of a skew 5x5 form, and for each of its five
# 4x4 principal minors (a, b, c, d) the positions among them of the Pfaffian's
# factors: Pf = B_ab B_cd - B_ac B_bd + B_ad B_bc.
_UPPER = np.triu_indices(5, 1)
_POS = {(k, l): i for i, (k, l) in enumerate(zip(*_UPPER))}
_AB, _CD, _AC, _BD, _AD, _BC = np.array(
    [[_POS[a, b], _POS[c, d], _POS[a, c], _POS[b, d], _POS[a, d], _POS[b, c]]
     for a, b, c, d in combinations(range(5), 4)]).T


def _singular_values(upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two distinct singular values s1 >= s2 of skew 5x5 forms given by their upper entries.

    For a real skew 5x5 form, det(tI - B^T B) = t (t^2 - p t + q)^2, with p the
    sum of the squared upper entries and q the sum of the squared Pfaffians of
    the five 4x4 principal minors; so s1^2 = (p + sqrt(p^2 - 4q)) / 2 and
    s2 = sqrt(q) / s1.  Each row is divided by its largest |entry| first and
    the values multiplied back, so no form overflows or underflows in the
    squares.  A form with a non-finite entry gets NaN for both.
    """
    m = np.abs(upper).max(axis=1)
    finite = np.isfinite(m)
    scale = np.where(finite & (m > 0), m, 1.0)
    u = np.where(finite[:, None], upper / scale[:, None], 0.0)
    p = (u * u).sum(axis=1)
    pf = u[:, _AB] * u[:, _CD] - u[:, _AC] * u[:, _BD] + u[:, _AD] * u[:, _BC]
    q = (pf * pf).sum(axis=1)
    s1 = np.sqrt((p + np.sqrt(np.maximum(p * p - 4.0 * q, 0.0))) / 2.0)
    s2 = np.sqrt(q) / np.where(s1 > 0, s1, 1.0)
    scale[~finite] = np.nan
    with np.errstate(over="ignore"):  # entries past about 5e307 can give s1 = inf
        return s1 * scale, s2 * scale


def _batched_ranks(alg: LieAlgebra, fs: np.ndarray) -> np.ndarray:
    """Numeric ranks of the Kirillov forms at the covectors fs (N, 5).

    s1 counts twice when it is above 0, and s2 twice when it exceeds
    RANK_TOL * s1: the cut is relative at every scale, so a form from 1e-300 to
    1e300 gets the rank of its unit multiple.  A form with a non-finite entry,
    or whose s1 is past the float range, has rank -1.
    """
    sc_upper = alg.sc[_UPPER]
    ranks = np.empty(len(fs), dtype=int)
    for lo in range(0, len(fs), RANK_BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):
            upper = fs[lo:lo + RANK_BLOCK] @ sc_upper.T
        s1, s2 = _singular_values(upper)
        ranks[lo:lo + RANK_BLOCK] = np.where(np.isfinite(s1),
                                             2 * (s1 > 0.0) + 2 * (s2 > RANK_TOL * s1), -1)
    return ranks


def orbit_dimension(alg: LieAlgebra, f) -> int:
    """Numeric rank of the Kirillov form at F: 0, 2 or 4, or -1 if the form is not finite."""
    f = np.asarray(f, dtype=float)
    return int(_batched_ranks(alg, f[None, :])[0])


def in_zero_stratum(f):
    """True iff the orbit through F is the point {F}; covectors (..., 5) give a (...) mask.

    For every catalogue family the predicate reduces to
    (beta, gamma, delta, sigma) = 0: the complex identifications
    beta + i*gamma = delta = sigma = 0 and beta + i*gamma = delta + i*sigma = 0
    say the same thing in real coordinates.
    """
    return np.all(np.asarray(f, dtype=float)[..., 1:] == 0.0, axis=-1)


@dataclass
class MDReport:
    family_id: str | None
    n_samples: int
    seed: int
    rank_counts: dict[int, int]
    counterexamples: list = field(default_factory=list)

    @property
    def dichotomy_holds(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "family": self.family_id,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "rank_counts": {str(k): v for k, v in sorted(self.rank_counts.items())},
            "counterexamples": [
                {"covector": list(map(float, c)), "rank": int(r), "predicted_dim": int(p)}
                for c, r, p in self.counterexamples
            ],
        }


def md_verify(alg: LieAlgebra, n_samples: int, seed: int) -> MDReport:
    """Sample covectors and check the orbit-dimension dichotomy.

    The n_samples covectors come from default_rng(seed): uniform directions
    with log-uniform radii in [1e-3, 1e3], which probe the scale robustness
    of the rank cut.  The dimension-0 probes _BOUNDARY_ALPHAS are appended.
    Each rank counts the closed-form singular values of the Kirillov form
    above the cut (see _singular_values), in blocks of RANK_BLOCK covectors.
    Violations are report content, not exceptions.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_samples, 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= 10.0 ** rng.uniform(-3.0, 3.0, size=(n_samples, 1))
    boundary = np.zeros((len(_BOUNDARY_ALPHAS), 5))
    boundary[:, 0] = _BOUNDARY_ALPHAS
    fs = np.vstack([v, boundary])

    ranks = _batched_ranks(alg, fs)
    values, counts = np.unique(ranks, return_counts=True)
    predicted = np.where(in_zero_stratum(fs), 0, 2)
    counterexamples = [(fs[i], int(ranks[i]), int(predicted[i]))
                       for i in np.flatnonzero(ranks != predicted)]
    fam = alg.family.family_id if alg.family is not None else None
    return MDReport(fam, len(fs), seed, dict(zip(values.tolist(), counts.tolist())),
                    counterexamples)


# ---------------------------------------------------------------------------
# Flows and closed-form orbits

def _expm(m: np.ndarray) -> np.ndarray:
    """exp of every matrix of the stack m (..., n, n), by scaling and squaring.

    Each matrix is scaled by 2^-s, with s the least power that brings its
    1-norm within _THETA13; then one batched solve gives the degree-13 Pade
    approximant of every matrix, and s masked rounds square it back.  Every
    matrix takes the same steps whatever the stack around it.  A matrix with
    a non-finite entry, or whose 1-norm overflows, comes back NaN, and LAPACK
    never sees it.
    """
    m = np.asarray(m, dtype=float)
    stack = m.reshape((-1,) + m.shape[-2:])
    with np.errstate(over="ignore"):
        norm = np.abs(stack).sum(axis=1).max(axis=1)
    finite = np.isfinite(norm)
    stack = np.where(finite[:, None, None], stack, 0.0)
    norm[~finite] = 0.0
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = np.ldexp(stack, -s[:, None, None])
    eye = np.eye(m.shape[-1])
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
    r[~finite] = np.nan
    return r.reshape(m.shape)


def coadjoint_flow(alg: LieAlgebra, f, a, x) -> np.ndarray:
    """Point(s) of the orbit through F at flow time(s) a, first coordinate set to x.

    a and x broadcast; the result has shape broadcast(a, x) + (5,), from one
    `_expm` of the stack of a * M^T.  A non-finite flow time gives NaN in its
    point only.
    """
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    # sc[0, j, 1:] is [X1, X_{j+1}], column j - 1 of M, so sc[0, 1:, 1:] is M^T.
    with np.errstate(invalid="ignore"):  # inf * 0 at an infinite flow time
        e = _expm(a[..., None, None] * alg.sc[0, 1:, 1:])
    out = np.empty(np.broadcast_shapes(a.shape, np.shape(x)) + (5,))
    out[..., 0] = x
    out[..., 1:] = e @ f[1:]
    return out


_E = np.exp


def _rot(u, v, z):
    # (u + i v) * e^z as its (re, im) pair: two coordinates that turn together.
    w = (u + 1j * v) * _E(z)
    return w.real, w.imag


# The orbit of each family through F = (x, b, g, d, s): its last four
# coordinates at flow time a, written out by hand from the family's blocks.
# An entry reads only the parameters p, never the matrix M that the flow
# exponentiates.
_ORBITS = {
    "5_4_1": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda1"]), g * _E(a * p["lambda2"]), d * _E(a * p["lambda3"]), s * _E(a)),
    "5_4_2": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda1"]), g * _E(a * p["lambda2"]), d * _E(a), s * _E(a)),
    "5_4_3": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda"]), g * _E(a * p["lambda"]), d * _E(a), s * _E(a)),
    "5_4_4": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda"]), g * _E(a), d * _E(a), s * _E(a)),
    "5_4_5": lambda p, b, g, d, s, a: (
        b * _E(a), g * _E(a), d * _E(a), s * _E(a)),
    "5_4_6": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda1"]), g * _E(a * p["lambda2"]), d * _E(a), d * a * _E(a) + s * _E(a)),
    "5_4_7": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda"]), g * _E(a * p["lambda"]), d * _E(a), d * a * _E(a) + s * _E(a)),
    "5_4_8": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda"]), b * a * _E(a * p["lambda"]) + g * _E(a * p["lambda"]),
        d * _E(a), d * a * _E(a) + s * _E(a)),
    "5_4_9": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda"]), g * _E(a), g * a * _E(a) + d * _E(a),
        g * a * a * _E(a) / 2 + d * a * _E(a) + s * _E(a)),
    "5_4_10": lambda p, b, g, d, s, a: (
        b * _E(a), b * a * _E(a) + g * _E(a), b * a * a * _E(a) / 2 + g * a * _E(a) + d * _E(a),
        b * a ** 3 * _E(a) / 6 + g * a * a * _E(a) / 2 + d * a * _E(a) + s * _E(a)),
    "5_4_11": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * _E(-1j * p["phi"])), d * _E(a * p["lambda1"]), s * _E(a * p["lambda2"])),
    "5_4_12": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * _E(-1j * p["phi"])), d * _E(a * p["lambda"]), s * _E(a * p["lambda"])),
    "5_4_13": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * _E(-1j * p["phi"])), d * _E(a * p["lambda"]),
        d * a * _E(a * p["lambda"]) + s * _E(a * p["lambda"])),
    "5_4_14": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * _E(-1j * p["phi"])), *_rot(d, s, a * (p["lambda"] - 1j * p["mu"]))),
}


def closed_form_orbit(family: MD5Family, f, x, a) -> np.ndarray:
    """Point(s) of the orbit through F at flow time(s) a, first coordinate set to x.

    F may be a stack (..., 5) of covectors; its leading shape, x and a
    broadcast, and the result has that shape + (5,).  The last four
    coordinates come from the family's entry of `_ORBITS`.  On the zero
    stratum the orbit is the point {F}, which every (x, a) gives.
    """
    f = np.asarray(f, dtype=float)
    zero = in_zero_stratum(f)[..., None]
    if zero.all():
        shape = np.broadcast_shapes(f.shape[:-1], np.shape(x), np.shape(a))
        return np.broadcast_to(f, shape + (5,)).copy()
    # a goes in as given: numpy's a ** 3 on a 0-d array rounds apart from
    # Python's on a float.
    coords = _ORBITS[family.family_id](family.params, *np.moveaxis(f, -1, 0)[1:], a)
    return np.where(zero, f, np.stack(np.broadcast_arrays(x, *coords), axis=-1))


def flow_vs_closed_form(family: MD5Family, f, avals=None) -> float:
    """Max deviation between the matrix-exponential flow and the closed form.

    Defaults to 100 flow times in [-3, 3]; the free coordinate varies as
    x = 0.7 a + 0.1, or stays at F's own on the zero stratum, where the orbit
    is {F}.  The two routes are independent: the Pade scaling and squaring of
    `_expm` against hand-written formulas.  NaN if any deviation is NaN, so a
    non-finite orbit never passes a bound.
    """
    f = np.asarray(f, dtype=float)
    if avals is None:
        avals = np.linspace(-3.0, 3.0, 100)
    avals = np.atleast_1d(np.asarray(avals, dtype=float))
    xs = f[0] if in_zero_stratum(f) else 0.7 * avals + 0.1
    flow = coadjoint_flow(build_md5(family), f, avals, xs)
    return float(np.max(np.abs(flow - closed_form_orbit(family, f, xs, avals))))


def orbit_tangent_residual(alg: LieAlgebra, f) -> float:
    """Largest principal angle between the orbit tangent plane and im(B_F).

    The tangent plane at a=0 is spanned by the free direction e1 and
    d/da of the flow, i.e. (0, M^T f'); the Kirillov form's column space
    is the coadjoint tangent space.  Requires the 2-dimensional stratum.
    """
    f = np.asarray(f, dtype=float)
    if in_zero_stratum(f):
        raise ValueError("tangent comparison requires a 2-dimensional orbit")
    t = np.zeros((5, 2))
    t[0, 0] = 1.0
    t[1:, 1] = alg.sc[0, 1:, 1:] @ f[1:]  # M^T f', as in `coadjoint_flow`
    b = kirillov_form(alg, f)
    u, s, _ = np.linalg.svd(b)
    img = u[:, :2]
    angles = scipy.linalg.subspace_angles(t, img)
    return float(np.max(angles)) if angles.size else 0.0
