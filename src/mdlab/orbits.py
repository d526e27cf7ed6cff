"""Coadjoint machinery: Kirillov forms, orbit dimensions, flows and closed-form orbits.

Covectors are length-5 arrays (alpha, beta, gamma, delta, sigma) in the dual
basis.  The orbit dimension is the numeric rank of the Kirillov form, from
closed-form singular values.  The rank kernel holds covectors as the columns
of a (5, N) array and forms only the live upper entries of the forms, those
not zero for every covector, as rows of an (L, N) array (`_live_forms`).  A
catalogue form is e1 ^ w with w = M^T (F2, ..., F5), with no Pfaffian term,
so its rank 2 [w != 0] is read from the largest |entry| alone; only
non-finite covectors and forms large enough for s1 to overflow go through
the singular values (`_batched_ranks`), and a form past the largest float is
ranked on an exact power-of-two scaling of it.  The
one-parameter coadjoint flow on the last four coordinates is
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

from .liealg import LieAlgebra, MD5Family

__all__ = [
    "covector",
    "kirillov_form",
    "in_zero_stratum",
    "md_verify",
    "MDReport",
    "coadjoint_flow",
    "closed_form_orbit",
    "flow_vs_closed_form",
]

RANK_TOL = 1e-8
_RANKS = (-1, 0, 2, 4)  # every rank `_batched_ranks` gives
# Covectors per rank block: memory does not grow with the sample count, and
# the default 10 006 covectors of `md_verify` take one block.
RANK_BLOCK = 16384
KEPT_COUNTEREXAMPLES = 10  # counterexamples an MDReport lists; it counts all of them
# Below this largest |entry| m, s1 = sqrt(p) * m with p <= 10 cannot overflow.
_M_SAFE = 2.0 ** 1021
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


# The upper entries B[k, l], k < l, of a skew 5x5 form, in row order.  The
# Pfaffian of each of its five 4x4 principal minors (a, b, c, d) is
# B_ab B_cd - B_ac B_bd + B_ad B_bc, summed left to right; each term here is its
# sign and the positions of its two factors among the upper entries.
_UPPER = np.triu_indices(5, 1)
_POS = {(k, l): i for i, (k, l) in enumerate(zip(*_UPPER))}
_PFAFFIANS = [[(1, _POS[a, b], _POS[c, d]), (-1, _POS[a, c], _POS[b, d]),
               (1, _POS[a, d], _POS[b, c])] for a, b, c, d in combinations(range(5), 4)]


def _live_forms(alg: LieAlgebra):
    """The Kirillov forms of alg, reduced to their live upper entries.

    An upper entry B[k, l] is live when its row of sc[_UPPER] is not
    identically zero; at a finite covector a dead entry is an exact 0.  So the
    sum for p, taken in row order, drops it and each Pfaffian drops every term
    with a dead factor, and both keep their bits: x + 0 = x and x * 0 = 0.
    Returns the live rows (L, 5) of sc[_UPPER] and the live terms
    (sign, row, row) of each Pfaffian that has any.  Every catalogue family
    has the four live entries B[0, 1..4] and no Pfaffian term.
    """
    sc_upper = alg.sc[_UPPER]
    live = np.flatnonzero(np.any(sc_upper != 0.0, axis=1)).tolist()
    row = {e: r for r, e in enumerate(live)}
    pfaffians = [[(s, row[i], row[j]) for s, i, j in terms if i in row and j in row]
                 for terms in _PFAFFIANS]
    return sc_upper[live], [t for t in pfaffians if t]


def _singular_values(live, fs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two distinct singular values s1 >= s2 of the forms `live` at the covectors fs (5, n).

    For a real skew 5x5 form, det(tI - B^T B) = t (t^2 - p t + q)^2, with p the
    sum of the squared upper entries, left to right, and q the sum of the
    squared Pfaffians of the five 4x4 principal minors; so
    s1^2 = (p + sqrt(p^2 - 4q)) / 2 and s2 = sqrt(q) / s1.  Each form is divided by its largest |entry| first and
    the values multiplied back, so no form overflows or underflows in the
    squares.  s1 is NaN for a form with a non-finite entry, and inf for a form
    past about 5e307.
    """
    sc, pfaffians = live
    with np.errstate(over="ignore", invalid="ignore"):
        b = sc @ fs
    return _form_singular_values(b, np.abs(b).max(axis=0, initial=0.0), pfaffians)


def _form_singular_values(b: np.ndarray, m: np.ndarray, pfaffians):
    """`_singular_values` of the live upper entries b (L, n), whose largest |entry| is m (n)."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.where(m > 0.0, m, 1.0)  # an inf or NaN entry leaves a NaN in u, and so in p
        u = b / scale
        p = np.zeros(len(m))
        for row in u:
            p += row * row
        q = 0.0
        for (sign, i, j), *rest in pfaffians:
            pf = sign * (u[i] * u[j])
            for sign, i, j in rest:
                pf = pf + u[i] * u[j] if sign > 0 else pf - u[i] * u[j]
            q = q + pf * pf
        s1 = np.sqrt((p + np.sqrt(np.maximum(p * p - 4.0 * q, 0.0))) / 2.0)
        s2 = np.sqrt(q) / np.where(s1 > 0, s1, 1.0)
        return s1 * scale, s2 * scale


def _batched_ranks(alg: LieAlgebra, fs: np.ndarray) -> np.ndarray:
    """Numeric ranks of the Kirillov forms at the covectors fs (5, N), RANK_BLOCK columns at a time.

    s1 counts twice when it is above 0, and s2 twice when it exceeds
    RANK_TOL * s1: the cut is relative at every scale, so a form from 1e-300 to
    1e300 gets the rank of its unit multiple.  A non-finite covector has rank
    -1, and only it: every rank is one of _RANKS.

    A form with no Pfaffian term, as every catalogue form e1 ^ w is, has
    q = 0 and so s2 = 0, and s1 = sqrt(p) * m > 0 exactly when the largest
    |entry| m is: its rank is 2 [m > 0], read from m alone.  Only the columns
    where that reading could differ from the singular values go through them
    (`_slow_ranks`): a covector with a non-finite coordinate, and a form whose
    m is not below _M_SAFE, where s1 may overflow.
    """
    sc, pfaffians = _live_forms(alg)
    ranks = np.empty(fs.shape[1], dtype=int)
    for lo in range(0, fs.shape[1], RANK_BLOCK):
        f = fs[:, lo:lo + RANK_BLOCK]
        r = ranks[lo:lo + RANK_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):  # NaN and inf covectors
            b = sc @ f
            m = np.abs(b).max(axis=0, initial=0.0)
            if pfaffians:
                slow = slice(None)
            else:
                r[:] = 2 * (m > 0.0)
                # A column sum past the largest float only sends its column the long way.
                slow = np.flatnonzero(~(np.isfinite(f.sum(axis=0)) & (m < _M_SAFE)))
                if not slow.size:
                    continue
        r[slow] = _slow_ranks(sc, pfaffians, f[:, slow], b[:, slow], m[slow])
    return ranks


def _slow_ranks(sc: np.ndarray, pfaffians, f: np.ndarray, b: np.ndarray,
                m: np.ndarray) -> np.ndarray:
    """Ranks from both singular values of the forms b = sc @ f, whose largest |entries| are m.

    A finite covector whose form is past the largest float (an entry, or s1,
    overflows) is taken again on sc and the covector scaled by powers of two to
    entries below 1, where no entry or s1 overflows.  The scaling is exact
    down to the normal range, and a rank depends only on s2 / s1 and on
    s1 > 0, so the scaled form has the rank of the form itself.
    """
    finite = np.isfinite(f).all(axis=0)
    s1, s2 = _form_singular_values(b, m, pfaffians)
    over = np.flatnonzero(finite & ~np.isfinite(s1))
    if over.size:
        fo = f[:, over]
        fo = np.ldexp(fo, -np.frexp(np.abs(fo).max(axis=0))[1])
        bo = np.ldexp(sc, -np.frexp(np.abs(sc).max(initial=0.0))[1]) @ fo
        s1[over], s2[over] = _form_singular_values(bo, np.abs(bo).max(axis=0, initial=0.0),
                                                   pfaffians)
    return np.where(finite & np.isfinite(s1), 2 * (s1 > 0.0) + 2 * (s2 > RANK_TOL * s1), -1)


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
    n_counterexamples: int
    counterexamples: list = field(default_factory=list)  # the first KEPT_COUNTEREXAMPLES

    @property
    def dichotomy_holds(self) -> bool:
        return not self.n_counterexamples

    def to_json(self) -> dict:
        return {
            "family": self.family_id,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "rank_counts": {str(k): v for k, v in sorted(self.rank_counts.items())},
            "n_counterexamples": self.n_counterexamples,
            "counterexamples": [
                {"covector": list(map(float, c)), "rank": int(r), "predicted_dim": int(p)}
                for c, r, p in self.counterexamples
            ],
        }


def md_verify(alg: LieAlgebra, n_samples: int, seed: int) -> MDReport:
    """Sample covectors and check the orbit-dimension dichotomy.

    The n_samples covectors come from default_rng(seed): uniform directions
    with log-uniform radii in [1e-3, 1e3], which probe the scale robustness
    of the rank cut.  Row i of standard_normal((n_samples, 5)), divided by
    its Euclidean norm (the square root of its five squares summed in turn)
    and multiplied by 10 ** uniform(-3, 3, n_samples)[i], is covector i.  The
    dimension-0 probes _BOUNDARY_ALPHAS are appended.  The covectors are held
    as the columns of a (5, N) array, and each rank counts the closed-form
    singular values of the Kirillov form above the cut (see _singular_values),
    in blocks of RANK_BLOCK covectors, so the default 10 006 take one block; a
    form with no Pfaffian term, as every catalogue form is, has rank 2 exactly
    when its largest |entry| is above 0, and only its non-finite and
    near-overflow columns need the singular values (see _batched_ranks).  The
    predicted dimension is 0 where rows 1-4 of the array are all 0, else 2.
    Violations are report content, not exceptions: the report counts them and
    lists the first KEPT_COUNTEREXAMPLES, in sample order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    fs = np.zeros((5, n_samples + len(_BOUNDARY_ALPHAS)))
    v = fs[:, :n_samples]
    v[:] = rng.standard_normal((n_samples, 5)).T
    norm2 = v[0] * v[0]
    for x in v[1:]:
        norm2 += x * x
    v /= np.sqrt(norm2)
    v *= 10.0 ** rng.uniform(-3.0, 3.0, size=n_samples)
    fs[0, n_samples:] = _BOUNDARY_ALPHAS

    ranks = _batched_ranks(alg, fs)
    counts = {r: np.count_nonzero(ranks == r) for r in _RANKS}
    predicted = 2 * fs[1:].any(axis=0)  # a NaN entry is nonzero, as in_zero_stratum has it
    bad = np.flatnonzero(ranks != predicted)
    kept = bad[:KEPT_COUNTEREXAMPLES]
    counterexamples = list(zip(fs[:, kept].T, ranks[kept].tolist(), predicted[kept].tolist()))
    fam = alg.family.family_id if alg.family is not None else None
    return MDReport(fam, fs.shape[1], seed, {r: int(c) for r, c in counts.items() if c},
                    len(bad), counterexamples)


# ---------------------------------------------------------------------------
# Flows and closed-form orbits

def _one_norms(stack: np.ndarray) -> np.ndarray:
    """The 1-norm of every matrix of the stack (N, n, n): its largest absolute column sum.

    Each column sum adds the rows in turn, the order in which
    np.abs(stack).sum(axis=1) adds them, so every norm has that expression's
    bits.  The absolute values are laid out as (n, n, N), so row i of every
    matrix is one contiguous (n, N) slice, and the rows are added in place
    into the first as whole slices, instead of through numpy's reduction
    machinery.  A sum past the largest float is inf, and a NaN entry gives a
    NaN norm.
    """
    rows = np.abs(stack.transpose(1, 2, 0), order="C")
    sums = rows[0]
    with np.errstate(over="ignore"):
        for row in rows[1:]:
            sums += row
    return sums.max(axis=0)


def _expm(m: np.ndarray) -> np.ndarray:
    """exp of every matrix of the stack m (..., n, n), by scaling and squaring.

    Each matrix is scaled by 2^-s, with s the least power that brings its
    1-norm within _THETA13 (a product with a power of two, exact); then one
    batched solve gives the degree-13 Pade approximant of every matrix, and s
    masked rounds square it back.  Every
    matrix takes the same steps whatever the stack around it.  A matrix with
    a non-finite entry, or whose 1-norm overflows, comes back NaN, and LAPACK
    never sees it.
    """
    m = np.asarray(m, dtype=float)
    stack = m.reshape((-1,) + m.shape[-2:])
    norm = _one_norms(stack)
    finite = np.isfinite(norm)
    all_finite = finite.all()
    if not all_finite:
        stack = np.where(finite[:, None, None], stack, 0.0)
        norm[~finite] = 0.0
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = stack * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(m.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE13
    # u = a (a6 (b13 a6 + b11 a4 + b9 a2) + b7 a6 + b5 a4 + b3 a2 + b1 I) and
    # v = a6 (b12 a6 + b10 a4 + b8 a2) + b6 a6 + b4 a4 + b2 a2 + I, each sum
    # taken left to right in place.
    t = b[13] * a6
    t += b[11] * a4
    t += b[9] * a2
    w = a6 @ t
    w += b[7] * a6
    w += b[5] * a4
    w += b[3] * a2
    w += b[1] * eye
    u = a @ w
    t = b[12] * a6
    t += b[10] * a4
    t += b[8] * a2
    v = a6 @ t
    v += b[6] * a6
    v += b[4] * a4
    v += b[2] * a2
    v += eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        rows = np.flatnonzero(s > k)
        square = r[rows]
        r[rows] = square @ square
    if not all_finite:
        r[~finite] = np.nan
    return r.reshape(m.shape)


def coadjoint_flow(alg: LieAlgebra, f, a, x) -> np.ndarray:
    """Point(s) of the orbit through F at flow time(s) a, first coordinate set to x.

    a and x broadcast; the result has shape broadcast(a, x) + (5,), from one
    `_expm` of the stack of a * M^T.  A non-finite flow time gives NaN in its
    point only.
    """
    # sc[0, j, 1:] is [X1, X_{j+1}], column j - 1 of M, so sc[0, 1:, 1:] is M^T.
    return _flow(alg.sc[0, 1:, 1:], f, a, x)


def _flow(mt: np.ndarray, f, a, x) -> np.ndarray:
    """`coadjoint_flow` for the 4x4 matrix M^T itself, with no LieAlgebra built around it."""
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    with np.errstate(invalid="ignore"):  # inf * 0 at an infinite flow time
        e = _expm(a[..., None, None] * mt)
    out = np.empty(np.broadcast(a, x).shape + (5,))
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
# exponentiates.  Each distinct exponential is evaluated once, where it first
# appears (:=), and read from its name after that.
_ORBITS = {
    "5_4_1": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda1"]), g * _E(a * p["lambda2"]), d * _E(a * p["lambda3"]), s * _E(a)),
    "5_4_2": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda1"]), g * _E(a * p["lambda2"]), d * (e := _E(a)), s * e),
    "5_4_3": lambda p, b, g, d, s, a: (
        b * (el := _E(a * p["lambda"])), g * el, d * (e := _E(a)), s * e),
    "5_4_4": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda"]), g * (e := _E(a)), d * e, s * e),
    "5_4_5": lambda p, b, g, d, s, a: (
        b * (e := _E(a)), g * e, d * e, s * e),
    "5_4_6": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda1"]), g * _E(a * p["lambda2"]), d * (e := _E(a)), d * a * e + s * e),
    "5_4_7": lambda p, b, g, d, s, a: (
        b * (el := _E(a * p["lambda"])), g * el, d * (e := _E(a)), d * a * e + s * e),
    "5_4_8": lambda p, b, g, d, s, a: (
        b * (el := _E(a * p["lambda"])), b * a * el + g * el, d * (e := _E(a)), d * a * e + s * e),
    "5_4_9": lambda p, b, g, d, s, a: (
        b * _E(a * p["lambda"]), g * (e := _E(a)), g * a * e + d * e,
        g * a * a * e / 2 + d * a * e + s * e),
    "5_4_10": lambda p, b, g, d, s, a: (
        b * (e := _E(a)), b * a * e + g * e, b * a * a * e / 2 + g * a * e + d * e,
        b * a ** 3 * e / 6 + g * a * a * e / 2 + d * a * e + s * e),
    "5_4_11": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * _E(-1j * p["phi"])), d * _E(a * p["lambda1"]), s * _E(a * p["lambda2"])),
    "5_4_12": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * _E(-1j * p["phi"])), d * (el := _E(a * p["lambda"])), s * el),
    "5_4_13": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * _E(-1j * p["phi"])), d * (el := _E(a * p["lambda"])),
        d * a * el + s * el),
    "5_4_14": lambda p, b, g, d, s, a: (
        *_rot(b, g, a * _E(-1j * p["phi"])), *_rot(d, s, a * (p["lambda"] - 1j * p["mu"]))),
}


def closed_form_orbit(family: MD5Family, f, x, a) -> np.ndarray:
    """Point(s) of the orbit through F at flow time(s) a, first coordinate set to x.

    F may be a stack (..., 5) of covectors; its leading shape, x and a
    broadcast, and the result has that shape + (5,).  The last four
    coordinates come from the family's entry of `_ORBITS`; at a non-finite
    flow time they are NaN, as the flow's are, without a warning.  On the
    zero stratum the orbit is the point {F}, which every (x, a) gives.
    """
    f = np.asarray(f, dtype=float)
    return _closed_form(family, f, x, a, in_zero_stratum(f))


def _closed_form(family: MD5Family, f: np.ndarray, x, a, zero) -> np.ndarray:
    """`closed_form_orbit` of float covectors f, given zero = in_zero_stratum(f)."""
    out = np.empty(np.broadcast(f[..., 0], x, a).shape + (5,))
    # a goes in as given: numpy's a ** 3 on a 0-d array rounds apart from
    # Python's on a float.
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, and e^a past overflow
        coords = _ORBITS[family.family_id](family.params, *(f[..., i] for i in range(1, 5)), a)
    out[..., 0] = x
    for i, coord in enumerate(coords, 1):
        out[..., i] = coord
    np.copyto(out[..., 1:], np.nan, where=~np.isfinite(a)[..., None])
    np.copyto(out, f, where=zero[..., None])  # the orbit of a zero-stratum F is {F}
    return out


def flow_vs_closed_form(family: MD5Family, f, avals=None) -> float:
    """Max deviation between the matrix-exponential flow and the closed form.

    Defaults to 100 flow times in [-3, 3]; the free coordinate varies as
    x = 0.7 a + 0.1, or stays at F's own on the zero stratum, where the orbit
    is {F}.  The two routes are independent: the Pade scaling and squaring of
    `_expm` against hand-written formulas.  The flow reads M^T from the
    family's block, as `build_md5` lays it into the structure constants.
    NaN if any deviation is NaN, so a non-finite orbit never passes a bound.
    """
    f = np.asarray(f, dtype=float)
    if avals is None:
        avals = np.linspace(-3.0, 3.0, 100)
    avals = np.atleast_1d(np.asarray(avals, dtype=float))
    if avals.size == 0:
        raise ValueError("avals is empty: the deviation needs at least one flow time")
    zero = in_zero_stratum(f)
    xs = f[0] if zero else 0.7 * avals + 0.1
    flow = _flow(family.ad_block().T, f, avals, xs)
    with np.errstate(invalid="ignore"):  # inf - inf where an orbit is not finite
        return float(np.max(np.abs(flow - _closed_form(family, f, xs, avals, zero))))


def __getattr__(name):
    # perfbench's tracer counts the calls made through `orbits.scipy.linalg.expm`;
    # scipy is imported only when something asks for that name.
    if name == "scipy":
        import scipy
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
