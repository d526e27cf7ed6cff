"""Quadrature of topological integrals of matrix-valued fields.

Three detectors:
  winding_1d  - (1/2πi) ∫ Tr(f' f^{-1}) dz over a half-line, with the sign
                convention that makes the reference phases on both half-lines
                wind +1 (minus sign on R_+, plus sign on R_-);
  chern_2d    - (1/2πi) ∫ Tr(P [∂₁P, ∂₂P]) over a 2D grid domain;
  winding_3d  - -(1/24π²) ∫ Tr((g^{-1}dg)^3) over a 3D grid domain,
                orientation given by the coordinate order.

Grids are midpoint rules.  A grid integral's raw value is the correctly
rounded sum of all its integrand values, the bits of math.fsum over them;
integer outputs are always reported with the raw value and the pre-rounding
residual.

Both grid integrals run one loop, `_grid_sum`, over blocks of at most
BLOCK_POINTS points: some leading points (all coordinates but the last)
times every midpoint of the last axis, which the field's per-axis jet
evaluates, computing what depends only on the leading coordinates, or only
on the last, once per side.
Every block writes its jet and its integrand's largest temporaries into the
same arrays, one allocation per integral (`_Scratch`), so that a warm
integral faults in no memory, and its integrand values into a buffer of
SUM_POINTS points, whose exact level sums are split off whenever it is
full.  Neither the block nor the buffer moves a value.  A field may declare
a support, which reads the leading coordinates only, outside which the
integrand is exactly 0; the loop skips the grid points there, which leaves
the sum unchanged, and the promise is checked at seeded points outside it.

The integrals read a field through its jets only, never its evaluator.  Off
the grid, each integral checks the field at guard points: the boundary
faces, a seeded sample where the exact derivative must match central
differences, and the support-leak points.  `_Guards` evaluates all of them
in one derivative call, whatever their number, since each call has a fixed
cost; the checks read slices of the result.  They refuse in a fixed order:
the boundary before the grid, a support leak at the end of the grid, then
the σ_min floor (or the projection residual) and the finite-difference gap.

The grid integrals take k×k fields with k <= 2 (every witness is 1×1 or 2×2)
and refuse larger ones.  Their kernels are closed forms for those sizes:
products written out entry by entry, Tr(P [A, B]) from the traceless
commutator, the inverse by the adjugate, and the smallest singular value as
|det| / σ_max.  They take entry-major stacks, a[i, j] being the (i, j) entry
of every matrix, shaped (k, k, ...), so that each entry they read is one
contiguous array when the field fills entry-major buffers; on (N, k, k)
values they get `np.moveaxis` views, and give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

__all__ = [
    "Axis",
    "GridDomain",
    "MatrixField",
    "IntegralResult",
    "BoundaryConditionError",
    "NonInvertibleFieldError",
    "ResidualError",
    "projection_residual",
    "expi_hermitian",
    "winding_1d",
    "chern_2d",
    "winding_3d",
]


def expi_hermitian(mats: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """e^{i * scale * H} for batched Hermitian H, via eigendecomposition."""
    mats = np.asarray(mats, dtype=complex)
    w, v = np.linalg.eigh(mats)
    phases = np.exp(1j * scale * w)
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)

RESIDUAL_LIMIT = 0.05
BOUNDARY_TOL_2D = 1e-3
BOUNDARY_TOL_3D = 1e-2
# Smallest singular value an invertible field may take at a guard or grid point.
SIGMA_FLOOR = 1e-6
# Step of the central differences that cross-check the exact derivatives.
FD_STEP = 1e-6
# Grid points per summation buffer: each full buffer's integrand values are
# split into exact level sums, which math.fsum rounds once per integral, so it
# moves no value.  A 512^2 grid fills 8 buffers and a 32^3 grid 1.
SUM_POINTS = 32768
# Grid points per evaluation block: the memory unit, which moves no value.  One
# complex entry of a block is 64 KB.  The block's jet and the integrand's
# largest temporaries live in one `_Scratch` allocation per integral, so a
# warm 512^2 Chern integral takes about 1 minor page fault (2 336 when each
# block made and freed its own) and a warm index_ladder pass 2 to 14 (about
# 4 900).
BLOCK_POINTS = 4096


class BoundaryConditionError(ValueError):
    """Field does not satisfy the boundary behaviour the integral needs."""


class NonInvertibleFieldError(ValueError):
    """An invertible-kind field has a nearly singular sample."""


class ResidualError(ValueError):
    """Pre-rounding residual too large; refinement requested."""


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    n: int
    tag: str = "constant"  # "constant" | "periodic"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("axis range must be finite with lo < hi")
        if self.n < 16:
            raise ValueError("axis sample count must be >= 16")
        if self.tag not in ("constant", "periodic"):
            raise ValueError(f"unknown axis tag {self.tag!r}")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.n

    def midpoints(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 0.5) * self.step


@dataclass(frozen=True)
class GridDomain:
    axes: tuple[Axis, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod([ax.step for ax in self.axes]))

    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)


@dataclass(frozen=True)
class MatrixField:
    """A named matrix-valued function with its exact 1-jet, built by `from_jet`.

    evaluator maps an (N, dim) array of points to (N, size, size) complex
    values.  derivative(pts) returns the 1-jet (values, partials) in one
    call: the values exactly as the evaluator gives them, and the exact
    partials along every coordinate stacked as (dim, N, size, size).  The
    integrals read the field through it, and never through the evaluator.
    `default_domain` is the grid of the 2D and 3D integrals.  `nonsmooth`
    marks points to skip in finite-difference cross-checks (e.g. chart seams
    of a frozen extension).  `support(pts)`, which reads the leading
    coordinates only, marks the points where the grid integrals need the
    field; outside it their integrands are exactly 0, a promise they check
    at seeded points.

    `axis_jet(lead, last, out=None)`, which the grid integrals read, is the
    jet on a product of points: the (m, dim - 1) leading coordinates times
    the (n,) last coordinates, point i·n + j being (lead[i], last[j]).  It
    returns entry-major values (size, size, m·n) and partials
    (size, size, dim, m·n), equal to the derivative's bit for bit.  `out`,
    if given, is a pair of C-contiguous arrays of those shapes, which it
    fills and returns (as views), so that the grid integrals reuse one pair
    for every block.
    """

    evaluator: Callable
    dim: int
    name: str
    derivative: Callable
    axis_jet: Callable
    default_domain: GridDomain | None = None
    nonsmooth: Callable | None = None
    support: Callable | None = None

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.evaluator(pts)

    @classmethod
    def constant(cls, value, dim: int, name: str,
                 default_domain: GridDomain | None = None) -> "MatrixField":
        """The field equal to the matrix `value` everywhere, with zero partials.

        Every integrand of the grid integrals is a product of partials, so it
        is exactly 0 everywhere: the support is empty, the grid integrals
        evaluate no grid point, and their support check runs the integrand,
        with its σ_min floor or projection residual, at its seeded points.
        """
        value = np.asarray(value, dtype=complex)

        def jet(*coords, out=None):
            shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
            if out is None:
                out = (np.empty(value.shape + shape, dtype=complex),
                       np.empty(value.shape + (dim,) + shape, dtype=complex))
            out[0][...] = value.reshape(value.shape + (1,) * len(shape))
            out[1][...] = 0.0
            return out

        return cls.from_jet(jet, dim, name, default_domain=default_domain,
                            support=lambda pts: np.zeros(len(pts), dtype=bool))

    @classmethod
    def from_jet(cls, jet: Callable, dim: int, name: str, **fields) -> "MatrixField":
        """The field of an entry-major jet whose coordinates broadcast.

        jet(*coords, out=None), given dim coordinate arrays of a common
        broadcast shape s, returns values (size, size, *s) and partials
        (size, size, dim, *s): written into `out`, a pair of C-contiguous
        arrays of those shapes, which it returns, or else into fresh
        C-contiguous arrays.  It writes every entry, so what `out` held
        before moves no bit.  Called with the columns of N points it is the
        derivative (as (N, ...) views) and the evaluator; called with the
        leading coordinates as (m, 1) columns and the last as (n,), it is
        the per-axis jet, which computes whatever depends on one side once
        per side.
        """
        def derivative(pts):
            return tuple(np.moveaxis(a, (0, 1), (-2, -1)) for a in jet(*pts.T))

        def axis_jet(lead, last, out=None):
            if out is not None:  # C-contiguous, so these reshapes are views
                out = tuple(a.reshape(a.shape[:-1] + (len(lead), len(last))) for a in out)
            values, partials = jet(*lead.T[:, :, None], last, out=out)
            return (values.reshape(values.shape[:2] + (-1,)),
                    partials.reshape(partials.shape[:3] + (-1,)))

        return cls(evaluator=lambda pts: derivative(pts)[0], dim=dim, name=name,
                   derivative=derivative, axis_jet=axis_jet, **fields)


def _smooth(field: MatrixField, pts: np.ndarray) -> np.ndarray:
    """pts less the field's nonsmooth ones, which no finite difference checks."""
    return pts if field.nonsmooth is None else pts[~field.nonsmooth(pts)]


def _fd_points(pts: np.ndarray) -> np.ndarray:
    """pts moved by +FD_STEP and then by -FD_STEP along each axis in turn: (2 dim n, dim)."""
    dim = pts.shape[1]
    moved = np.repeat(pts[None], 2 * dim, axis=0)
    for axis in range(dim):
        moved[2 * axis, :, axis] += FD_STEP
        moved[2 * axis + 1, :, axis] -= FD_STEP
    return moved.reshape(-1, dim)


def _fd_gap(partials: np.ndarray, moved: np.ndarray) -> float:
    """Max |partial - central difference| over every axis (NaN if any is NaN, 0 at no point).

    partials are the exact (dim, n, k, k) partials at n points, and moved the
    values at their `_fd_points`.
    """
    moved = moved.reshape((len(partials), 2, partials.shape[1]) + moved.shape[1:])
    return float(np.max([np.abs(exact - (up - dn) / (2 * FD_STEP)).max(initial=0.0)
                         for exact, (up, dn) in zip(partials, moved)]))


def projection_residual(field: MatrixField, pts) -> float:
    p = field(pts)
    idem = np.abs(p @ p - p).max()
    herm = np.abs(p - p.conj().transpose(0, 2, 1)).max()
    return float(max(idem, herm))


@dataclass
class IntegralResult:
    raw: float
    rounded: int
    residual: float
    boundary_residual: float
    grid: tuple[int, ...]
    name: str = ""
    extra: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "witness": self.name,
            "raw_integral": self.raw,
            "rounded": self.rounded,
            "residual": self.residual,
            "boundary_residual": self.boundary_residual,
            "grid": list(self.grid),
            **self.extra,
        }


def _finish(raw_complex, boundary_residual, grid, name, extra=None) -> IntegralResult:
    raw = float(raw_complex.real)
    if not (math.isfinite(raw) and math.isfinite(raw_complex.imag)):
        raise ResidualError(f"{name}: raw integral {raw_complex} is not finite on grid {grid}")
    rounded = int(round(raw))
    residual = abs(raw - rounded) + abs(float(raw_complex.imag))
    res = IntegralResult(raw, rounded, residual, boundary_residual, grid, name, extra or {})
    if residual >= RESIDUAL_LIMIT:
        raise ResidualError(
            f"{name}: pre-rounding residual {residual:.3g} >= {RESIDUAL_LIMIT}; "
            f"refine the grid (current {grid}) or enlarge the domain")
    return res


# ---------------------------------------------------------------------------
# 1D winding

def _adaptive_simpson(g, a, b, tol):
    """Adaptive Simpson on [a, b], one level of the recursion at a time.

    g maps an array of nodes to the array of their values, and is called once
    per level, on every node that level adds.  An interval is split while its
    two halves differ from it by more than 15 tol (halved at each level) and
    depth remains, down to 40 levels; a NaN difference stops it.  The sums are
    added up the same tree, the left half before the right, as the recursive
    form adds them.
    """
    depth = 40
    m = 0.5 * (a + b)
    fa, fm, fb = g(np.array([a, m, b]))
    level = [(a, fa, b, fb, m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol)]
    levels = []  # per level, each interval's sum, or None where it was split
    while level:
        halves = [(0.5 * (a + m), 0.5 * (m + b)) for a, _, b, _, m, *_ in level]
        values = g(np.array(halves).ravel())
        sums, level_below = [], []
        for (a, fa, b, fb, m, fm, whole, tol), (lm, rm), flm, frm in zip(
                level, halves, values[0::2], values[1::2]):
            left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
            right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
            delta = left + right - whole
            if depth <= 0 or not abs(delta) > 15.0 * tol:  # a NaN delta stops here
                sums.append(left + right + delta / 15.0)
            else:
                sums.append(None)
                level_below += [(a, fa, m, fm, lm, flm, left, 0.5 * tol),
                                (m, fm, b, fb, rm, frm, right, 0.5 * tol)]
        levels.append(sums)
        level = level_below
        depth -= 1
    below = []
    for sums in reversed(levels):
        children = iter(below)
        below = [s if s is not None else next(children) + next(children) for s in sums]
    return below[0]


def winding_1d(f: MatrixField, side: str = "+", tol: float = 1e-8) -> IntegralResult:
    """Winding number of an invertible field on a half-line.

    Computes -(1/2πi) ∫ Tr(f'(z) f(z)^{-1}) dz along the path running outward
    from 0 to infinity; this realizes the sign convention that is -(1/2πi) of
    the increasing-z integral on R_+ and +(1/2πi) of it on R_-, making the
    reference phase on either side wind +1.  The field must be safely
    invertible with a common limit at 0 and at infinity.  The half-line is
    compactified with z = sgn * w/(1-w) and integrated by adaptive Simpson,
    which takes the values at all the new nodes of a level from one derivative
    call.  One more derivative call gives the values at the 97 guard points
    and the two limit points.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    sgn = 1.0 if side == "+" else -1.0

    zs = sgn * np.geomspace(1e-6, 1e6, 97)
    values = f.derivative(np.append(zs, [0.0, sgn * 1e9])[:, None])[0]
    guard = np.moveaxis(values[:-2], 0, -1)
    _check_size(f, guard)
    sv_min = float(np.min(_sigma_min2(guard)))
    if not sv_min > SIGMA_FLOOR:  # a NaN σ_min fails too
        raise NonInvertibleFieldError(
            f"{f.name}: min singular value {sv_min:.3g} is not above {SIGMA_FLOOR}")
    limit_gap = float(np.abs(values[-2] - values[-1]).max())
    if not limit_gap <= 1e-6:
        raise BoundaryConditionError(
            f"{f.name}: limits at 0 and infinity differ by {limit_gap:.3g}")

    def integrand(w):
        z = sgn * w / (1.0 - w)
        dz = sgn / (1.0 - w) ** 2  # dz/dw of the outward path
        val, df = f.derivative(z[:, None])
        return np.trace(df[0] @ np.linalg.inv(val), axis1=-2, axis2=-1) * dz

    total = _adaptive_simpson(integrand, 0.0, 1.0 - 1e-12, tol)
    raw = -total / (2.0j * math.pi)
    return _finish(raw, limit_gap, (0,), f.name, {"side": side})


# ---------------------------------------------------------------------------
# Shared helpers for grid integrals

def _check_size(field: MatrixField, vals: np.ndarray) -> None:
    """The closed-form kernels below take k×k values with k <= 2 only."""
    k = vals.shape[0]
    if k > 2:
        raise ValueError(f"{field.name}: {k}x{k} values; the grid integrals "
                         "and the winding_1d guard take 1x1 and 2x2 fields only")


def _mul2(a, b, out=None):
    """a @ b for entry-major k×k stacks (k <= 2), entry by entry; trailing axes broadcast.

    `out`, if given, is the array the product is written to.
    """
    k = a.shape[0]
    if out is None:
        out = np.empty((k, k) + np.broadcast_shapes(a.shape[2:], b.shape[2:]),
                       dtype=np.result_type(a, b))
    if k == 1:
        np.multiply(a[0, 0], b[0, 0], out=out[0, 0])
        return out
    for i in range(2):
        for j in range(2):
            np.add(a[i, 0] * b[0, j], a[i, 1] * b[1, j], out=out[i, j])
    return out


def _trace_commutator2(p, a, b):
    """Tr(p [a, b]) for entry-major k×k stacks (k <= 2), without forming a b or b a.

    c = [a, b] is traceless, so Tr(p c) = (p11 - p22) c11 + p12 c21 + p21 c12
    with c11 = a12 b21 - b12 a21, c12 = b12 (a11 - a22) - a12 (b11 - b22) and
    c21 = a21 (b11 - b22) - b21 (a11 - a22): 9 complex products.  A NaN
    entry gives NaN.  A 1×1 commutator is 0: a finite 1×1 stack gives exactly
    0, and a NaN or inf entry NaN.  (a b - b a would not do: numpy's complex
    product may round a b and b a apart.)
    """
    if p.shape[0] == 1:
        return 0.0 * (p[0, 0] + a[0, 0] + b[0, 0])
    a12, a21, b12, b21 = a[0, 1], a[1, 0], b[0, 1], b[1, 0]
    da = a[0, 0] - a[1, 1]
    db = b[0, 0] - b[1, 1]
    c11 = a12 * b21 - b12 * a21
    c12 = b12 * da - a12 * db
    c21 = a21 * db - b21 * da
    return (p[0, 0] - p[1, 1]) * c11 + p[0, 1] * c21 + p[1, 0] * c12


def _inv2(m, out=None):
    """Inverse of entry-major k×k stacks (k <= 2) by the adjugate.

    A singular or NaN entry gives inf or NaN without a warning: the callers'
    σ_min floor is what refuses such a field.  A determinant below 2^-900
    may have underflowed, so such a matrix is inverted again scaled by
    2^600, which is exact.  `out`, if given, is the array (shaped as m, not
    m itself) the inverse is written to.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if m.shape[0] == 1:
            return np.divide(1.0, m, out=out)
        out, det = _inv2_unscaled(m, out)
        small = np.hypot(det.real, det.imag, out=det.real) < 2.0 ** -900  # |det|, in place
        if small.any():
            out[..., small] = _inv2_unscaled(m[..., small] * 2.0 ** 600)[0] * 2.0 ** 600
        return out


def _inv2_unscaled(m, out=None):
    """(inverse, determinant) of entry-major 2×2 stacks, by the adjugate, into out if given."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if out is None:
        out = np.empty_like(m)
    out[0, 0] = m[1, 1]
    out[1, 1] = m[0, 0]
    np.negative(m[0, 1], out=out[0, 1])
    np.negative(m[1, 0], out=out[1, 0])
    return np.divide(out, det, out=out), det


def _sigma_min2(m):
    """Smallest singular value of entry-major k×k stacks (k <= 2): |det| / σ_max.

    σ_max² = (‖m‖_F² + √(‖m‖_F⁴ − 4|det|²)) / 2 is the larger eigenvalue of
    h = m mᴴ.  The root is taken as hypot(h11 − h22, 2|h12|), which is the
    same number without the cancellation that costs √eps (1e-8) at the
    unitary witnesses, where σ1 = σ2.  A zero matrix gives 0 and a NaN entry
    gives NaN.  Squares of entries below about 1e-154 underflow, so a matrix
    with ‖m‖_F² < 2^-800 is solved again scaled by 2^600, which is exact.
    """
    if m.shape[0] == 1:
        return np.abs(m[0, 0])
    out, norm2 = _sigma_min2_unscaled(m)
    small = norm2 < 2.0 ** -800
    if small.any():
        out[small] = _sigma_min2_unscaled(m[..., small] * 2.0 ** 600)[0] * 2.0 ** -600
    return out


def _sigma_min2_unscaled(m):
    """(σ_min, ‖m‖_F²) of entry-major 2×2 stacks, as `_sigma_min2` documents."""
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    h11 = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
    h22 = c.real ** 2 + c.imag ** 2 + d.real ** 2 + d.imag ** 2
    h12 = np.abs(a * np.conj(c) + b * np.conj(d))
    root = np.hypot(h11 - h22, 2.0 * h12)
    norm2 = np.add(h11, h22, out=h11)
    smax = np.sqrt(0.5 * (norm2 + root))
    adet = np.abs(a * d - b * c)
    return np.divide(adet, smax, out=np.zeros_like(adet), where=smax != 0.0), norm2


def _exact_levels(part: np.ndarray) -> list[float]:
    """Floats whose exact sum is the sum of the real values, for math.fsum to round once.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31 (2008) 189, ExtractVector)
    on one copy of the values.  With 2^M >= n and max|x| <= 2^-M σ for a
    power of 2 σ, q = (σ + x) − σ and x − q are exact, every q is a multiple
    of ulp(σ)/2, or of the least subnormal when σ is below 2^-1021, and
    Σ|q| <= σ, so numpy sums the q of a level exactly in any order.  The
    first σ is 2^(E+M) with max|x| < 2^E, from the one max pass; the
    remainders x − q are at most ulp(σ)/2 = 2^-53 σ, so each later level
    takes σ' = 2^(M-53) σ from that bound, and 53 − M bits off.  When the
    remainders are all 0, the level sums, each exact, are returned: math.fsum
    of them, beside the levels of any other values, rounds the exact total
    once.  Values that are all ±0 give none.  A NaN or inf, or a first σ
    past 2^1022, where math.fsum may overflow on the way, gives the values
    themselves, on which math.fsum returns the NaN or inf, or raises.
    """
    top = float(np.max(np.abs(part), initial=0.0))
    if top == 0.0:
        return []
    headroom = (len(part) - 1).bit_length()
    exponent = math.frexp(top)[1] + headroom  # σ = 2^exponent
    if not (math.isfinite(top) and exponent <= 1022):
        return part.tolist()
    x = np.array(part)
    q = np.empty_like(x)
    levels = []
    while True:
        sigma = math.ldexp(1.0, exponent)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        levels.append(float(q.sum()))
        if not x.any():
            return levels
        exponent -= 53 - headroom


def _face_points(domain: GridDomain, axes) -> np.ndarray:
    """The lo and then the hi face of each given axis, 17 points per edge, face after face.

    One array of shape (faces, 2, 17, ..., 17, dim) is filled by
    broadcasting, coordinate by coordinate: the face's axis takes lo or hi,
    and each other axis in turn its 17 edge points.
    """
    dim = domain.dim
    edges = [np.linspace(ax.lo, ax.hi, 17) for ax in domain.axes]
    faces = np.empty((len(axes), 2) + (17,) * (dim - 1) + (dim,))
    for face, axis in zip(faces, axes):
        face[..., axis] = np.reshape([domain.axes[axis].lo, domain.axes[axis].hi],
                                     (2,) + (1,) * (dim - 1))
        for slot, other in enumerate(b for b in range(dim) if b != axis):
            face[..., other] = edges[other].reshape((17,) + (1,) * (dim - 2 - slot))
    return faces.reshape(-1, dim)


def _edge_constancy(vals: np.ndarray, domain: GridDomain) -> float:
    """Max in-edge variation over non-periodic edges; periodic axes checked for wraparound.

    vals are the field's values at `_face_points(domain, range(domain.dim))`.
    Each face's mean is taken over a C-contiguous copy, so that it sums in
    one order whatever the layout of the evaluator's result.
    """
    vals = np.ascontiguousarray(vals)
    faces = vals.reshape((2 * domain.dim, -1) + vals.shape[1:])
    worst = [0.0]
    for axis, ax in enumerate(domain.axes):
        lo, hi = faces[2 * axis], faces[2 * axis + 1]
        if ax.tag == "periodic":
            worst.append(np.abs(lo - hi).max())
        else:
            worst += [np.abs(face - face.mean(axis=0)).max() for face in (lo, hi)]
    return float(np.max(worst))


def _interior_points(domain: GridDomain, n: int, seed: int) -> np.ndarray:
    """n seeded points, uniform in the domain shrunk by one grid step per side."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(a.lo + a.step, a.hi - a.step, n) for a in domain.axes], axis=1)


class _Guards:
    """What a grid integral checks off its grid, from one derivative call.

    The call covers, in this order, the faces of `face_axes`
    (`_face_points`), the smooth ones among the derivative check's n seeded
    interior points (`_interior_points(domain, n, 0)`), those moved by
    ±FD_STEP along each axis (`_fd_points`), and the support-leak points:
    those of 512 seeded interior points (`_interior_points(domain, 512, 1)`)
    outside the field's support.  Each check reads its slice of the result;
    fields are evaluated point by point, so these are the values separate
    calls would give, and the grid reads the same jet through the per-axis
    jet, so what is checked is what is integrated.
    """

    def __init__(self, field: MatrixField, domain: GridDomain, face_axes, n: int):
        self.name = field.name
        sample = _smooth(field, _interior_points(domain, n, 0))
        leak = np.empty((0, domain.dim))
        if field.support is not None:
            leak = _interior_points(domain, 512, 1)
            leak = leak[~field.support(leak)]
        parts = [_face_points(domain, face_axes), sample, _fd_points(sample), leak]
        faces_end, sample_end, moved_end, _ = np.cumsum([len(part) for part in parts])
        values, partials = field.derivative(np.concatenate(parts))
        self.size = values.shape[-1]  # k of the field's k×k values
        self.faces = values[:faces_end]
        self.gap = _fd_gap(partials[:, faces_end:sample_end], values[sample_end:moved_end])
        # The jet at the leak points, for `_grid_sum`, or None if there are none.
        self.leak = (values[moved_end:], partials[:, moved_end:]) if len(leak) else None

    def derivative_check(self) -> float:
        """The finite-difference gap at the sample; a gap above 1e-6 is refused."""
        if not self.gap <= 1e-6:
            raise ValueError(f"{self.name}: analytic/FD derivative gap {self.gap:.3g} > 1e-6")
        return self.gap


class _Scratch:
    """The arrays that every block of one grid integral reuses, in one allocation.

    `shapes` maps each key to the shape and dtype of its array, whose last
    axis holds points; `take(key, n)` is the array's first n points, a
    C-contiguous view whose entries are whatever the last block left there.

    Arrays made and freed by each block go back to the system and are
    faulted in again by the next.  They are one allocation, not one per
    key, because glibc's malloc gives back the free top of its heap once
    that exceeds twice the largest chunk it has mmapped and freed: separate
    arrays, each smaller than their sum, went back at the end of every
    integral (170 to 510 faults per warm 512^2 Chern integral or 32^3
    winding), while one allocation is itself that largest chunk, so a warm
    integral takes it from the heap and leaves it there.
    """

    def __init__(self, shapes: dict[str, tuple[tuple[int, ...], type]]):
        # Each array starts at a multiple of 64 bytes of the one allocation.
        sizes = {key: -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
                 for key, (shape, dtype) in shapes.items()}
        memory = np.empty(sum(sizes.values()), dtype=np.uint8)
        self.arrays: dict[str, np.ndarray] = {}
        for key, (shape, dtype) in shapes.items():
            self.arrays[key] = memory[:sizes[key]].view(dtype)[:math.prod(shape)].reshape(shape)
            memory = memory[sizes[key]:]

    def take(self, key: str, n: int) -> np.ndarray:
        array = self.arrays[key]
        head = array.shape[:-1]
        return array.reshape(-1)[:math.prod(head) * n].reshape(head + (n,))


def _entry_major(values, partials):
    """(N, k, k) values and (dim, N, k, k) partials as (k, k, N) and (k, k, dim, N) views."""
    return np.moveaxis(values, 0, -1), np.moveaxis(partials, (2, 3), (0, 1))


def _grid_sum(field: MatrixField, domain: GridDomain, integrand: Callable,
              guards: _Guards, temporaries: dict) -> complex:
    """Correctly rounded sum of integrand(values, partials, scratch) over the midpoint grid.

    The integrand takes entry-major values (k, k, N) and partials
    (k, k, dim, N), and a `_Scratch` that holds its `temporaries` (key:
    (head shape, dtype)) for N points.  The grid is evaluated in blocks of
    at most BLOCK_POINTS points (one row of the last axis, if that is
    longer), which the jet writes into the scratch's "values" and
    "partials", k×k as the guards' values.  Their integrand values fill a
    buffer of SUM_POINTS points (or one block, if that is more); when the
    next block does not fit, and at the end, each part of the buffer gives
    its exact level sums (`_exact_levels`), and math.fsum rounds each
    part's levels once: the bits of math.fsum over every integrand value.

    The field's per-axis jet gets the leading points inside its support.
    Outside the support the integrand must be exactly 0, so skipping those
    points leaves the sum as it was.  The guards' jet at seeded points
    outside the support (`guards.leak`) checks the promise after the grid:
    any of them whose integrand is not exactly 0 is refused.
    """
    *lead_axes, last = (ax.midpoints() for ax in domain.axes)
    lead = np.stack(np.meshgrid(*lead_axes, indexing="ij"), axis=-1).reshape(-1, domain.dim - 1)
    if field.support is not None:
        lead = lead[field.support(np.column_stack((lead, np.full(len(lead), last[0]))))]
    rows = max(1, BLOCK_POINTS // len(last))  # leading points per block
    points = max(rows * len(last), 0 if guards.leak is None else len(guards.leak[0]))
    k = guards.size
    shapes = {"sum": ((max(SUM_POINTS, rows * len(last)),), complex),
              "values": ((k, k, points), complex),
              "partials": ((k, k, domain.dim, points), complex)}
    shapes.update((key, (head + (points,), dtype)) for key, (head, dtype) in temporaries.items())
    scratch = _Scratch(shapes)
    buffer = scratch.arrays["sum"]
    real, imag = [], []

    def extract(values):
        real.extend(_exact_levels(values.real))
        imag.extend(_exact_levels(values.imag))

    filled = 0
    for start in range(0, len(lead), rows):
        block = lead[start:start + rows]
        n = len(block) * len(last)
        if filled + n > len(buffer):
            extract(buffer[:filled])
            filled = 0
        out = scratch.take("values", n), scratch.take("partials", n)
        buffer[filled:filled + n] = integrand(*field.axis_jet(block, last, out), scratch)
        filled += n
    extract(buffer[:filled])
    if guards.leak is not None:
        leak = np.abs(integrand(*_entry_major(*guards.leak), scratch))
        if not np.all(leak == 0.0):  # NaN fails too
            raise ValueError(f"{field.name}: integrand up to {leak.max():.3g} "
                             "outside the declared support")
    return complex(math.fsum(real), math.fsum(imag))


def _boundary_identity_residual(vals: np.ndarray) -> float:
    """Max deviation from the identity of the values on the non-periodic faces."""
    if not len(vals):
        return 0.0
    return float(np.abs(vals - np.eye(vals.shape[-1])).max())


# ---------------------------------------------------------------------------
# 2D Chern number

def chern_2d(p: MatrixField) -> IntegralResult:
    """First Chern number (1/2πi) ∫ Tr(P [∂₁P, ∂₂P]) of a projection field over its domain."""
    domain = p.default_domain
    if domain is None or domain.dim != 2 or p.dim != 2:
        raise ValueError("chern_2d needs a 2D field with a 2D domain")

    guards = _Guards(p, domain, range(domain.dim), 64)
    edge_var = _edge_constancy(guards.faces, domain)
    if not edge_var <= BOUNDARY_TOL_2D:
        raise BoundaryConditionError(
            f"{p.name}: boundary variation {edge_var:.3g} > {BOUNDARY_TOL_2D} "
            "(field must be constant on each boundary component)")
    proj_res = [0.0]

    def integrand(pv, partials, scratch):
        _check_size(p, pv)
        n = pv.shape[-1]
        defect = _mul2(pv, pv, out=scratch.take("P·P − P", n))
        np.subtract(defect, pv, out=defect)
        proj_res.append(np.abs(defect, out=scratch.take("|P·P − P|", n)).max())
        return _trace_commutator2(pv, partials[:, :, 0], partials[:, :, 1])

    k = guards.size
    total = _grid_sum(p, domain, integrand, guards,
                      {"P·P − P": ((k, k), complex), "|P·P − P|": ((k, k), float)})
    total = total * domain.cell_volume / (2.0j * math.pi)
    proj_res = float(np.max(proj_res))
    if not proj_res <= 1e-10:
        raise ValueError(f"{p.name}: projection residual {proj_res:.3g} > 1e-10")
    extra = {"projection_residual": proj_res, "derivative_check": guards.derivative_check()}
    return _finish(total, edge_var, domain.shape(), p.name, extra)


# ---------------------------------------------------------------------------
# 3D odd winding

def winding_3d(g: MatrixField) -> IntegralResult:
    """Odd topological charge -(1/24π²) ∫ Tr((g^{-1}dg)^3) of an invertible field.

    Midpoint rule on the grid of the field's domain; the field must be the
    identity on every non-periodic boundary face (within 1e-2).  Orientation
    is the coordinate order of the domain axes.
    """
    domain = g.default_domain
    if domain is None or domain.dim != 3 or g.dim != 3:
        raise ValueError("winding_3d needs a 3D field with a 3D domain")

    guards = _Guards(g, domain, [axis for axis, ax in enumerate(domain.axes)
                                 if ax.tag != "periodic"], 48)
    brv = _boundary_identity_residual(guards.faces)
    if not brv <= BOUNDARY_TOL_3D:
        raise BoundaryConditionError(
            f"{g.name}: boundary-identity residual {brv:.3g} > {BOUNDARY_TOL_3D}; "
            "enlarge the truncated domain")
    sv_min = [1.0]

    def integrand(gv, partials, scratch):
        _check_size(g, gv)
        sv_min.append(_sigma_min2(gv).min())
        n = gv.shape[-1]
        a = _mul2(_inv2(gv, out=scratch.take("g^-1", n)), partials, out=scratch.take("g^-1 dg", n))
        return _trace_commutator2(a[:, :, 0], a[:, :, 1], a[:, :, 2])

    k = guards.size
    total = _grid_sum(g, domain, integrand, guards,
                      {"g^-1": ((k, k), complex), "g^-1 dg": ((k, k, 3), complex)})
    sv_floor = float(np.min(sv_min))
    if not sv_floor > SIGMA_FLOOR:
        raise NonInvertibleFieldError(
            f"{g.name}: min singular value {sv_floor:.3g} on the grid")
    # epsilon-contraction = 3 Tr(A0 [A1, A2]); normalization -(1/24π²).
    total = total * 3.0 * domain.cell_volume * (-1.0 / (24.0 * math.pi ** 2))
    extra = {"derivative_check": guards.derivative_check()}
    return _finish(total, brv, domain.shape(), g.name, extra)
