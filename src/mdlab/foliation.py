"""Two commuting R^2-actions on V = R x (R^4 \\ {0}) and their leaf spaces.

Points are arrays (x, y, z, t, s).  The action "lambda12" is
(r, a): (x, y+iz, t, s) -> (x + r, (y+iz) e^{-ia}, t e^a, s e^a)
and "lambda14" is
(r, a): (x, y+iz, t+is) -> (x + r, (y+iz) e^{-ia}, (t+is) e^{-ia}),
with complex multiplication expanded to real rotation matrices.

The strata V1, W1, V2, W2, V3, W3 are cut out by sign conditions on t and s;
each maximal stratum carries an explicit complete invariant of the orbit
partition, mapping onto its model leaf space.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .liealg import MD5Family, build_md5
from .orbits import closed_form_orbit, kirillov_form

__all__ = [
    "ACTIONS",
    "STRATA",
    "act",
    "stratum_of",
    "sample_stratum",
    "preservation_check",
    "action_generators",
    "leafspace_report",
    "integrability_check",
    "f1_fibration_check",
    "p1_submersion_audit",
]

ACTIONS = ("lambda12", "lambda14")
STRATA = ("V1", "W1", "V2", "W2", "V3", "W3")

# Which strata each action preserves (W3 = W2 as sets).
ACTION_STRATA = {
    "lambda12": ("V1", "W1", "V2", "W2"),
    "lambda14": ("V3", "W3"),
}

# Each maximal stratum's model leaf space, its dimension, and the leaf-space
# algebra the stratum realizes in the extension towers.
STRATUM_MODELS = {
    "V1": ("R^3 ⊔ R^3", 3, "J1"),
    "V2": ("R^2 ⊔ R^2", 2, "J2"),
    "W2": ("R_+", 1, "B2"),
    "V3": ("C × R_+", 3, "J3"),
    "W3": ("R_+", 1, "B3"),
}

# A map is orbit-constant when it moves by less than this along sampled orbits.
CONSTANCY_TOL = 1e-9


def _check_in_V(p):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 5:
        raise ValueError("points of V have 5 coordinates (x, y, z, t, s)")
    if not np.all(np.any(p[..., 1:] != 0.0, axis=-1)):
        raise ValueError("point outside V: (y, z, t, s) = 0")
    return p


def _coords(p):
    """The coordinates x, y, z, t, s of points p (..., 5), each of shape (...)."""
    p = np.asarray(p, dtype=float)
    return (p[..., i] for i in range(5))


def act(action: str, g, p) -> np.ndarray:
    """Apply the R^2-action element(s) g = (r, a) to point(s) p.

    g of shape (..., 2) broadcasts against p of shape (..., 5).
    """
    p = _check_in_V(p)
    g = np.asarray(g, dtype=float)
    r, a = g[..., 0], g[..., 1]
    ca, sa = np.cos(a), np.sin(a)
    out = np.empty(np.broadcast_shapes(p.shape[:-1], g.shape[:-1]) + (5,))
    x, y, z, t, s = _coords(p)
    out[..., 0] = x + r
    # (y + iz) e^{-ia}
    out[..., 1] = y * ca + z * sa
    out[..., 2] = -y * sa + z * ca
    if action == "lambda12":
        ea = np.exp(a)
        out[..., 3] = t * ea
        out[..., 4] = s * ea
    elif action == "lambda14":
        # (t + is) e^{-ia}
        out[..., 3] = t * ca + s * sa
        out[..., 4] = -t * sa + s * ca
    else:
        raise ValueError(f"unknown action {action!r}")
    return out


# Elementwise over the points p[..., :].
_PREDICATES = {
    "V1": lambda p: p[..., 4] != 0.0,
    "W1": lambda p: p[..., 4] == 0.0,
    "V2": lambda p: (p[..., 4] == 0.0) & (p[..., 3] != 0.0),
    "W2": lambda p: (p[..., 4] == 0.0) & (p[..., 3] == 0.0),
    "V3": lambda p: (p[..., 3] != 0.0) | (p[..., 4] != 0.0),
    "W3": lambda p: (p[..., 4] == 0.0) & (p[..., 3] == 0.0),
}


def stratum_of(p) -> frozenset[str]:
    """All strata containing p, by the literal sign predicates."""
    p = _check_in_V(np.asarray(p, dtype=float))
    return frozenset(tag for tag, pred in _PREDICATES.items() if pred(p))


# The coordinates each stratum's samples fix at zero; the predicates do the rest.
_ZEROED = {"V1": [], "W1": [4], "V2": [4], "W2": [3, 4], "V3": [], "W3": [3, 4]}


def sample_stratum(tag: str, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw points of the given stratum (standard normal coordinates)."""
    if tag not in _ZEROED:
        raise ValueError(f"unknown stratum {tag!r}")
    zeroed = _ZEROED[tag]
    pts = rng.standard_normal((n, 5))
    pts[:, zeroed] = 0.0

    def valid(q):
        return _PREDICATES[tag](q) & np.any(q[..., 1:] != 0.0, axis=-1)

    # Regenerate the rare degenerate draws rather than shifting them.
    for i in np.flatnonzero(~valid(pts)):
        while not valid(pts[i]):
            pts[i] = rng.standard_normal(5)
            pts[i, zeroed] = 0.0
    return pts


@dataclass
class PreservationReport:
    action: str
    stratum: str
    n_samples: int
    seed: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**asdict(self), "violations": [list(map(float, v)) for v in self.violations]}


def preservation_check(action: str, stratum: str, n_samples: int, seed: int) -> PreservationReport:
    """Sampled check that the action maps the stratum into itself."""
    if stratum not in ACTION_STRATA[action]:
        raise ValueError(f"stratum {stratum} is not associated with action {action}")
    rng = np.random.default_rng(seed)
    pts = sample_stratum(stratum, rng, n_samples)
    report = PreservationReport(action, stratum, n_samples, seed)
    gs = rng.uniform(-3.0, 3.0, size=(n_samples, 2))
    qs = act(action, gs, pts)
    report.violations.extend(qs[~_PREDICATES[stratum](qs)])
    return report


def action_generators(action: str, p) -> np.ndarray:
    """The two infinitesimal generators at p: d/dr and d/da of the action at (0,0).

    Rows: the translation field (1,0,0,0,0) and the rotation/scaling field,
    (0, z, -y, t, s) for lambda12 and (0, z, -y, s, -t) for lambda14.
    Points p of shape (..., 5) give shape (..., 2, 5).
    """
    x, y, z, t, s = _coords(p)
    out = np.zeros(np.shape(x) + (2, 5))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = z
    out[..., 1, 2] = -y
    if action == "lambda12":
        out[..., 1, 3] = t
        out[..., 1, 4] = s
    elif action == "lambda14":
        out[..., 1, 3] = s
        out[..., 1, 4] = -t
    else:
        raise ValueError(f"unknown action {action!r}")
    return out


def _inv_V1(p):
    x, y, z, t, s = _coords(p)
    w = (y + 1j * z) * np.exp(1j * np.log(np.abs(s)))
    return np.stack([w.real, w.imag, t / s], axis=-1), (np.sign(s),)


def _inv_V2(p):
    x, y, z, t, s = _coords(p)
    w = (y + 1j * z) * np.exp(1j * np.log(np.abs(t)))
    return np.stack([w.real, w.imag], axis=-1), (np.sign(t),)


def _inv_W2(p):
    x, y, z, t, s = _coords(p)
    return np.hypot(y, z)[..., None], ()


def _inv_V3(p):
    x, y, z, t, s = _coords(p)
    u = (y + 1j * z) / (t + 1j * s)
    return np.stack([u.real, u.imag, np.abs(t + 1j * s)], axis=-1), ()


# The complete invariant of the orbit partition on each maximal stratum.  It
# sends points (..., 5) to (continuous part, discrete part): the continuous
# part, of shape (..., dim), lands in a Euclidean model of the dimension that
# `STRATUM_MODELS` gives, and the discrete part, a tuple of arrays of shape
# (...), picks the connected component of the model leaf space.
_INVARIANTS = {"V1": _inv_V1, "V2": _inv_V2, "W2": _inv_W2, "V3": _inv_V3, "W3": _inv_W2}


def _jacobian(fn, p, h):
    """Central finite-difference Jacobians of fn: (..., 5) -> (..., k) at points p (..., 5).

    The step h is a scalar or one step per point, shape (...).  fn is called
    once, on the ten shifted copies of every point; the result is (..., k, 5).
    """
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)[..., None, None]
    dp = h * np.eye(5)
    vals = fn(np.concatenate([p[..., None, :] + dp, p[..., None, :] - dp], axis=-2))
    diff = vals[..., :5, :] - vals[..., 5:, :]
    diff /= 2 * h
    return np.swapaxes(diff, -1, -2)


def _diff_rank(fn, p) -> np.ndarray:
    """Numeric rank of the differential of the continuous invariant part, per point.

    A point whose Jacobian is not finite has no rank; it gets -1, which no
    model dimension matches.
    """
    p = np.asarray(p, dtype=float)
    jac = _jacobian(lambda q: fn(q)[0], p, 1e-5 * (1.0 + np.linalg.norm(p, axis=-1)))
    return _on_finite(lambda j: (np.linalg.svd(j, compute_uv=False) > 1e-6).sum(axis=-1),
                      -1, jac)


def _on_finite(fn, fill, *stacks) -> np.ndarray:
    """fn on the points whose matrices are finite in every stack (..., m, n), fill elsewhere.

    numpy's SVD raises on a non-finite matrix, so LAPACK sees only finite ones.
    """
    finite = np.logical_and.reduce([np.isfinite(x).all(axis=(-2, -1)) for x in stacks])
    res = np.asarray(fn(*(x[finite] for x in stacks)))
    out = np.full(finite.shape + res.shape[1:], fill, dtype=res.dtype)
    out[finite] = res
    return out


def _principal_angles(a, b) -> np.ndarray:
    """Principal angles between the column spans of a and b, point by point.

    a and b are stacks (..., n, k) of bases of k-planes, each of full rank.
    This is scipy.linalg.subspace_angles's algorithm (Bjorck and Golub, Math.
    Comp. 27 (1973) 579) on whole stacks, with scipy's order of the k angles
    and its choice of branch: with P and Q orthonormal bases of the two spans
    from their SVDs, the cosines are the singular values of P^T Q, and where
    a cosine squared reaches 0.5 the angle comes from the sines, the singular
    values of Q - P P^T Q, which resolve the small angles that arccos loses.
    A point with a non-finite entry gets NaN angles.
    """
    def angles(a, b):
        p = np.linalg.svd(a, full_matrices=False)[0]
        q = np.linalg.svd(b, full_matrices=False)[0]
        ptq = np.swapaxes(p, -1, -2) @ q
        cos = np.linalg.svd(ptq, compute_uv=False)
        sin = np.linalg.svd(q - p @ ptq, compute_uv=False)
        return np.where(cos ** 2 >= 0.5, np.arcsin(np.clip(sin, -1.0, 1.0)),
                        np.arccos(np.clip(cos[..., ::-1], -1.0, 1.0)))
    return _on_finite(angles, math.nan, a, b)


def _rank_counts(ranks) -> dict[int, int]:
    values, counts = np.unique(ranks, return_counts=True)
    return {int(r): int(c) for r, c in zip(values, counts)}


def _max(values) -> float:
    """Largest value, 0.0 if there are none, NaN if any is NaN."""
    return float(np.max(values, initial=0.0))


def _fields_json(report) -> dict:
    """A report's fields, its rank histogram keyed by the ranks as strings, in order."""
    out = asdict(report)
    out["rank_counts"] = {str(k): v for k, v in sorted(report.rank_counts.items())}
    return out


@dataclass
class StratumReport:
    stratum: str
    model: str
    algebra: str
    constancy_residual: float
    rank_counts: dict[int, int]
    full_rank: bool

    @property
    def ok(self) -> bool:
        """Full rank everywhere, and orbit-constant (a NaN residual is not)."""
        return self.full_rank and self.constancy_residual < CONSTANCY_TOL

    def to_json(self) -> dict:
        return {**_fields_json(self), "ok": self.ok}


def stratum_invariant_report(stratum: str, n_samples: int, seed: int) -> StratumReport:
    """Orbit-constancy residual and differential-rank histogram on one stratum."""
    inv = _INVARIANTS[stratum]
    model, dim, algebra = STRATUM_MODELS[stratum]
    action = next(a for a in ACTIONS if stratum in ACTION_STRATA[a])
    rng = np.random.default_rng(seed)
    pts = sample_stratum(stratum, rng, n_samples)
    gs = rng.uniform(-3.0, 3.0, size=(n_samples, 2))
    c0, d0 = inv(pts)
    c1, d1 = inv(act(action, gs, pts))
    same = np.all([u == v for u, v in zip(d0, d1)], axis=0)
    resid = np.where(same, np.abs(c1 - c0).max(axis=-1), math.inf)
    ranks = _rank_counts(_diff_rank(inv, pts))
    return StratumReport(stratum, model, algebra, _max(resid), ranks, set(ranks) == {dim})


def leafspace_report(action: str, n_samples: int, seed: int) -> dict:
    """Per-stratum invariant diagnostics plus the leaf-space model table."""
    strata = [s for s in ACTION_STRATA[action] if s in _INVARIANTS]
    entries = [stratum_invariant_report(s, n_samples, seed + i) for i, s in enumerate(strata)]
    return {
        "action": action,
        "strata": [e.to_json() for e in entries],
        "models": {e.stratum: e.model for e in entries},
        "identifications": {e.algebra: f"C0({e.model}) ⊗ K" for e in entries},
        "ok": all(e.ok for e in entries),
    }


_ENVOYS = {
    "lambda12": MD5Family("5_4_12", {"lambda": 1.0, "phi": math.pi / 2}),
    "lambda14": MD5Family("5_4_14", {"lambda": 0.0, "mu": 1.0, "phi": math.pi / 2}),
}


@dataclass
class IntegrabilityReport:
    action: str
    n_samples: int
    seed: int
    bracket_residual: float
    rank_counts: dict[int, int]
    tangent_residual: float

    @property
    def ok(self) -> bool:
        return (self.bracket_residual < 1e-8 and set(self.rank_counts) == {2}
                and self.tangent_residual < 1e-6)

    def to_json(self) -> dict:
        return _fields_json(self)


def integrability_check(action: str, n_samples: int, seed: int) -> IntegrabilityReport:
    """Generators commute, span rank 2, and match the coadjoint orbit tangents.

    The two generator fields come from an abelian R^2-action, so their Lie
    bracket vanishes identically; the finite-difference residual certifies the
    implementation.  Their span is compared (principal angles) with the image
    of the Kirillov form of the envoy family at the same point.
    """
    rng = np.random.default_rng(seed)
    alg = build_md5(_ENVOYS[action])
    pts = rng.standard_normal((n_samples, 5))
    gen = action_generators(action, pts)
    # Both fields at once: rows 0-4 of the Jacobian are du, rows 5-9 are dv.
    jac = _jacobian(lambda q: action_generators(action, q).reshape(q.shape[:-1] + (10,)),
                    pts, 1e-6)
    lie = jac[..., 5:, :] @ gen[..., 0, :, None] - jac[..., :5, :] @ gen[..., 1, :, None]

    def rank(g):
        sv = np.linalg.svd(g, compute_uv=False)
        return (sv > 1e-10 * np.fmax(1.0, sv[..., :1])).sum(axis=-1)

    ranks = _on_finite(rank, -1, gen)
    ub = np.linalg.svd(kirillov_form(alg, pts))[0]
    # The generators' span against the Kirillov image, all points at once; a
    # generator with a non-finite entry gives a NaN angle, and rank -1 above.
    angles = _principal_angles(np.swapaxes(gen, -1, -2), ub[..., :2])
    return IntegrabilityReport(action, n_samples, seed, _max(np.abs(lie)),
                               _rank_counts(ranks), _max(angles))


@dataclass
class FibrationReport:
    n_samples: int
    seed: int
    constancy_residual: float
    rank_counts: dict[int, int]

    @property
    def ok(self) -> bool:
        return self.constancy_residual < CONSTANCY_TOL and set(self.rank_counts) == {3}

    def to_json(self) -> dict:
        return _fields_json(self)


def _sphere_map(p):
    v = np.asarray(p, dtype=float)[..., 1:]
    return v / np.linalg.norm(v, axis=-1, keepdims=True), ()


def f1_fibration_check(n_samples: int, seed: int) -> FibrationReport:
    """The simplest family fibers over the unit 3-sphere of directions.

    For the identity-block family the orbit through (x, v) is
    {(x', e^a v)}, so v/|v| is orbit-constant; its differential has rank 3.
    """
    rng = np.random.default_rng(seed)
    fam = MD5Family("5_4_5")
    avals = np.linspace(-3.0, 3.0, 13)
    pts = rng.standard_normal((n_samples, 5))
    pts = np.vstack([pts, [0.0, 1.0, 0.0, 0.0, 0.0]])
    ranks = _rank_counts(_diff_rank(_sphere_map, pts))
    orbit = closed_form_orbit(fam, pts[:, None, :], 0.0, avals)  # (points, a, 5)
    base, _ = _sphere_map(pts)
    d, _ = _sphere_map(orbit)
    d -= base[:, None, :]
    return FibrationReport(n_samples, seed, _max(np.abs(d, out=d)), ranks)


@dataclass
class SubmersionAudit:
    literal_max_deviation: float
    sign_component_constant: bool
    invariant_residual: float
    example_orbit: dict

    @property
    def literal_is_constant(self) -> bool:
        return self.literal_max_deviation < CONSTANCY_TOL

    @property
    def ok(self) -> bool:
        """The literal map moves along orbits; its sign part and the invariant do not."""
        return (self.literal_max_deviation >= CONSTANCY_TOL and self.sign_component_constant
                and self.invariant_residual < CONSTANCY_TOL)

    def to_json(self) -> dict:
        return {
            "literal_map": "(y, z, t, sign s)",
            "literal_max_deviation": self.literal_max_deviation,
            "literal_is_orbit_constant": self.literal_is_constant,
            "sign_component_constant": self.sign_component_constant,
            "invariant_map_residual": self.invariant_residual,
            "example_orbit": self.example_orbit,
        }


def p1_submersion_audit(n_samples: int, seed: int) -> SubmersionAudit:
    """Compare the literal projection (y, z, t, sign s) with the working invariant on V1.

    The literal map is not constant along orbits: the action rotates (y, z)
    and scales t.  Its sign-s component is orbit-constant, and the working
    invariant ((y+iz)e^{i ln|s|}, t/s, sign s) is constant to round-off.
    The audit records both behaviours instead of silently replacing one map
    by the other.
    """
    rng = np.random.default_rng(seed)
    pts = sample_stratum("V1", rng, n_samples)
    gs = rng.uniform(-3.0, 3.0, size=(n_samples, 2))
    inv = _INVARIANTS["V1"]
    qs = act("lambda12", gs, pts)
    # The literal map is (y, z, t) with the component sign s.
    lit_dev = _max(np.abs(qs[:, 1:4] - pts[:, 1:4]))
    sign_const = bool(np.all(np.sign(qs[:, 4]) == np.sign(pts[:, 4])))
    inv_resid = _max(np.abs(inv(qs)[0] - inv(pts)[0]))

    p0 = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    q0 = act("lambda12", (0.0, 1.0), p0)
    example = {
        "point": list(p0),
        "after_a_1": [float(v) for v in q0],
        "literal_changed": bool(np.abs(q0[1:4] - p0[1:4]).max() > 1e-3),
    }
    return SubmersionAudit(lit_dev, sign_const, inv_resid, example)
