"""Coadjoint machinery: Kirillov forms, orbit dimensions, flows and closed-form orbits.

Covectors are length-5 arrays (alpha, beta, gamma, delta, sigma) in the dual
basis.  The one-parameter coadjoint flow on the last four coordinates is
exp(a * M^T) where M is the ad_{X1} block; the first coordinate is the free
orbit parameter.  That sign and transpose convention is not assumed: it is
validated against the per-family closed forms by `flow_vs_closed_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .liealg import FAMILIES, LieAlgebra, MD5Family, build_md5

__all__ = [
    "covector",
    "kirillov_form",
    "orbit_dimension",
    "in_zero_stratum",
    "md_verify",
    "MDReport",
    "exp_ad_transpose",
    "coadjoint_flow",
    "closed_form_orbit",
    "OrbitDescriptor",
    "flow_vs_closed_form",
    "orbit_tangent_residual",
]

RANK_TOL = 1e-8

# Fixed probes of the dimension-0 stratum, appended to every verification run.
_BOUNDARY_ALPHAS = (0.0, 7.0, -3.0, 0.5, 1000.0, -0.001)


def covector(alpha=0.0, beta=0.0, gamma=0.0, delta=0.0, sigma=0.0) -> np.ndarray:
    return np.array([alpha, beta, gamma, delta, sigma], dtype=float)


def kirillov_form(alg: LieAlgebra, f) -> np.ndarray:
    """Skew matrix B[i, j] = <F, [X_{i+1}, X_{j+1}]>; covectors (..., 5) give (..., 5, 5)."""
    f = np.asarray(f, dtype=float)
    return np.einsum("ijk,...k->...ij", alg.sc, f)


def _batched_ranks(alg: LieAlgebra, fs: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(kirillov_form(alg, fs), compute_uv=False)
    cut = RANK_TOL * np.maximum(1.0, sv[:, 0])
    return (sv > cut[:, None]).sum(axis=1)


def orbit_dimension(alg: LieAlgebra, f) -> int:
    """Numeric rank of the Kirillov form at F (always even)."""
    f = np.asarray(f, dtype=float)
    return int(_batched_ranks(alg, f[None, :])[0])


def in_zero_stratum(f) -> bool:
    """True iff the orbit through F is the point {F}.

    For every catalogue family the predicate reduces to
    (beta, gamma, delta, sigma) = 0: the complex identifications
    beta + i*gamma = delta = sigma = 0 and beta + i*gamma = delta + i*sigma = 0
    say the same thing in real coordinates.
    """
    f = np.asarray(f, dtype=float)
    return bool(np.all(f[1:] == 0.0))


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
    of the rank cut.  The dimension-0 probes _BOUNDARY_ALPHAS are appended,
    and one batched SVD gives every rank.  Violations are report content,
    not exceptions.
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
    predicted = np.where(np.all(fs[:, 1:] == 0.0, axis=1), 0, 2)
    counterexamples = [(fs[i], int(ranks[i]), int(predicted[i]))
                       for i in np.flatnonzero(ranks != predicted)]
    fam = alg.family.family_id if alg.family is not None else None
    return MDReport(fam, len(fs), seed, dict(zip(values.tolist(), counts.tolist())),
                    counterexamples)


# ---------------------------------------------------------------------------
# Flows and closed-form orbits

def _ad_block(alg_or_family) -> np.ndarray:
    if isinstance(alg_or_family, MD5Family):
        return alg_or_family.ad_block()
    alg = alg_or_family
    if alg.family is not None:
        return alg.family.ad_block()
    # Read the block off the structure constants: column j is [X1, X_{j+2}].
    return np.array([[alg.sc[0, j + 1, i + 1] for j in range(4)] for i in range(4)])


def exp_ad_transpose(family: MD5Family, a: float) -> np.ndarray:
    """Closed-form block evaluation of exp(a * M^T), M the ad_{X1} block.

    Per block: exp(a*J_k(l)^T) is e^{al} times the lower-triangular Toeplitz
    matrix of a^m/m!; a rotation block R(phi) gives e^{a cos(phi)} R(-a sin(phi));
    the block [[l,-mu],[mu,l]] gives e^{al} R(-a mu).
    """
    blocks = FAMILIES[family.family_id].blocks(family.params)
    out = np.zeros((4, 4))
    k = 0
    for b in blocks:
        if b[0] == "jordan":
            lam, n = b[1], b[2]
            blk = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1):
                    blk[i, j] = a ** (i - j) / math.factorial(i - j)
            blk *= math.exp(a * lam)
        elif b[0] == "rot":
            c, s = math.cos(-a * math.sin(b[1])), math.sin(-a * math.sin(b[1]))
            blk = math.exp(a * math.cos(b[1])) * np.array([[c, -s], [s, c]])
            n = 2
        else:  # srot
            lam, mu = b[1], b[2]
            c, s = math.cos(-a * mu), math.sin(-a * mu)
            blk = math.exp(a * lam) * np.array([[c, -s], [s, c]])
            n = 2
        out[k:k + n, k:k + n] = blk
        k += n
    return out


def coadjoint_flow(alg: LieAlgebra, f, a, x) -> np.ndarray:
    """Point(s) of the orbit through F at flow time(s) a, first coordinate set to x.

    a and x broadcast; the result has shape broadcast(a, x) + (5,), from one
    expm call on the stack of a * M^T.
    """
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    e = scipy.linalg.expm(a[..., None, None] * _ad_block(alg).T)
    out = np.empty(np.broadcast_shapes(a.shape, np.shape(x)) + (5,))
    out[..., 0] = x
    out[..., 1:] = e @ f[1:]
    return out


def _w_rot(beta, gamma, phi, a):
    # (beta + i gamma) * exp(a e^{-i phi}), returned as (re, im).
    w = (beta + 1j * gamma) * np.exp(a * np.exp(-1j * phi))
    return w.real, w.imag


_E = np.exp


def _cf_5_4_1(p, F):
    l1, l2, l3 = p["lambda1"], p["lambda2"], p["lambda3"]
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a * l1), g * _E(a * l2), d * _E(a * l3), s * _E(a)), axis=-1)


def _cf_5_4_2(p, F):
    l1, l2 = p["lambda1"], p["lambda2"]
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a * l1), g * _E(a * l2), d * _E(a), s * _E(a)), axis=-1)


def _cf_5_4_3(p, F):
    l = p["lambda"]
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a * l), g * _E(a * l), d * _E(a), s * _E(a)), axis=-1)


def _cf_5_4_4(p, F):
    l = p["lambda"]
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a * l), g * _E(a), d * _E(a), s * _E(a)), axis=-1)


def _cf_5_4_5(p, F):
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a), g * _E(a), d * _E(a), s * _E(a)), axis=-1)


def _cf_5_4_6(p, F):
    l1, l2 = p["lambda1"], p["lambda2"]
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a * l1), g * _E(a * l2), d * _E(a), d * a * _E(a) + s * _E(a)), axis=-1)


def _cf_5_4_7(p, F):
    l = p["lambda"]
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a * l), g * _E(a * l), d * _E(a), d * a * _E(a) + s * _E(a)), axis=-1)


def _cf_5_4_8(p, F):
    l = p["lambda"]
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a * l), b * a * _E(a * l) + g * _E(a * l),
        d * _E(a), d * a * _E(a) + s * _E(a)), axis=-1)


def _cf_5_4_9(p, F):
    l = p["lambda"]
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a * l), g * _E(a), g * a * _E(a) + d * _E(a),
        g * a * a * _E(a) / 2 + d * a * _E(a) + s * _E(a)), axis=-1)


def _cf_5_4_10(p, F):
    _, b, g, d, s = F
    return lambda x, a: np.stack(np.broadcast_arrays(
        x, b * _E(a), b * a * _E(a) + g * _E(a),
        b * a * a * _E(a) / 2 + g * a * _E(a) + d * _E(a),
        b * a ** 3 * _E(a) / 6 + g * a * a * _E(a) / 2 + d * a * _E(a) + s * _E(a)), axis=-1)


def _cf_5_4_11(p, F):
    l1, l2, phi = p["lambda1"], p["lambda2"], p["phi"]
    _, b, g, d, s = F

    def cf(x, a):
        re, im = _w_rot(b, g, phi, np.asarray(a, dtype=float))
        return np.stack(np.broadcast_arrays(x, re, im, d * _E(a * l1), s * _E(a * l2)), axis=-1)
    return cf


def _cf_5_4_12(p, F):
    l, phi = p["lambda"], p["phi"]
    _, b, g, d, s = F

    def cf(x, a):
        re, im = _w_rot(b, g, phi, np.asarray(a, dtype=float))
        return np.stack(np.broadcast_arrays(x, re, im, d * _E(a * l), s * _E(a * l)), axis=-1)
    return cf


def _cf_5_4_13(p, F):
    l, phi = p["lambda"], p["phi"]
    _, b, g, d, s = F

    def cf(x, a):
        re, im = _w_rot(b, g, phi, np.asarray(a, dtype=float))
        return np.stack(np.broadcast_arrays(
            x, re, im, d * _E(a * l), d * a * _E(a * l) + s * _E(a * l)), axis=-1)
    return cf


def _cf_5_4_14(p, F):
    l, mu, phi = p["lambda"], p["mu"], p["phi"]
    _, b, g, d, s = F

    def cf(x, a):
        a = np.asarray(a, dtype=float)
        re, im = _w_rot(b, g, phi, a)
        v = (d + 1j * s) * np.exp(a * (l - 1j * mu))
        return np.stack(np.broadcast_arrays(x, re, im, v.real, v.imag), axis=-1)
    return cf


_CLOSED_FORMS = {
    "5_4_1": _cf_5_4_1, "5_4_2": _cf_5_4_2, "5_4_3": _cf_5_4_3, "5_4_4": _cf_5_4_4,
    "5_4_5": _cf_5_4_5, "5_4_6": _cf_5_4_6, "5_4_7": _cf_5_4_7, "5_4_8": _cf_5_4_8,
    "5_4_9": _cf_5_4_9, "5_4_10": _cf_5_4_10, "5_4_11": _cf_5_4_11, "5_4_12": _cf_5_4_12,
    "5_4_13": _cf_5_4_13, "5_4_14": _cf_5_4_14,
}


@dataclass(frozen=True)
class OrbitDescriptor:
    stratum: str  # "zero_dim" | "two_dim"
    family: MD5Family
    base_point: np.ndarray
    closed_form: callable  # (x, a) -> point(s) of R^5

    @property
    def is_point(self) -> bool:
        return self.stratum == "zero_dim"


def closed_form_orbit(family: MD5Family, f) -> OrbitDescriptor:
    """Explicit per-family orbit parametrization through the covector F."""
    f = np.asarray(f, dtype=float).copy()
    if in_zero_stratum(f):
        fro = f.copy()
        fro.setflags(write=False)

        def const(x, a):
            shape = np.broadcast_shapes(np.shape(x), np.shape(a))
            return np.broadcast_to(fro, shape + (5,)).copy()
        return OrbitDescriptor("zero_dim", family, f, const)
    cf = _CLOSED_FORMS[family.family_id](family.params, f)
    return OrbitDescriptor("two_dim", family, f, cf)


def flow_vs_closed_form(family: MD5Family, f, avals=None) -> float:
    """Max deviation between the matrix-exponential flow and the closed form.

    Defaults to 100 flow times in [-3, 3]; the free coordinate varies as
    x = 0.7 a + 0.1.  The two routes are independent (scipy expm vs
    hand-written formulas).  NaN if any deviation is NaN, so a non-finite
    orbit never passes a bound.
    """
    if avals is None:
        avals = np.linspace(-3.0, 3.0, 100)
    avals = np.atleast_1d(np.asarray(avals, dtype=float))
    xs = 0.7 * avals + 0.1
    flow = coadjoint_flow(build_md5(family), f, avals, xs)
    return float(np.max(np.abs(flow - closed_form_orbit(family, f).closed_form(xs, avals))))


def orbit_tangent_residual(alg: LieAlgebra, f) -> float:
    """Largest principal angle between the orbit tangent plane and im(B_F).

    The tangent plane at a=0 is spanned by the free direction e1 and
    d/da of the flow, i.e. (0, M^T f'); the Kirillov form's column space
    is the coadjoint tangent space.  Requires the 2-dimensional stratum.
    """
    f = np.asarray(f, dtype=float)
    if in_zero_stratum(f):
        raise ValueError("tangent comparison requires a 2-dimensional orbit")
    m = _ad_block(alg)
    t = np.zeros((5, 2))
    t[0, 0] = 1.0
    t[1:, 1] = m.T @ f[1:]
    b = kirillov_form(alg, f)
    u, s, _ = np.linalg.svd(b)
    img = u[:, :2]
    angles = scipy.linalg.subspace_angles(t, img)
    return float(np.max(angles)) if angles.size else 0.0
