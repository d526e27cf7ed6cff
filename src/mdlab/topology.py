"""Quadrature of topological integrals of matrix-valued fields.

Three detectors:
  winding_1d  - (1/2πi) ∫ Tr(f' f^{-1}) dz over a half-line, with the sign
                convention that makes the reference phases on both half-lines
                wind +1 (minus sign on R_+, plus sign on R_-);
  chern_2d    - (1/2πi) ∫ Tr(P [∂₁P, ∂₂P]) over a 2D grid domain;
  winding_3d  - -(1/24π²) ∫ Tr((g^{-1}dg)^3) over a 3D grid domain,
                orientation given by the coordinate order.

Grids are midpoint rules; each chunk of a grid is summed exactly and rounded
once, so the result is independent of the chunking to round-off.  Integer
outputs are always reported together with the raw value and the pre-rounding
residual.

Both grid integrals run one loop, `_grid_sum`, with two units:
  * the chunk, CHUNK_SLABS slabs along the first axis, is the rounding unit:
    each chunk's integrand values are summed exactly and rounded once, which
    gives the bits of math.fsum over them, so the raw values depend on it, to
    round-off only (one exact sum over the whole 28^3 grid moves its raw value
    by 1 ulp);
  * the block, at most BLOCK_POINTS points, is the memory unit: each chunk is
    evaluated block by block, so that temporaries stay in cache and are not
    faulted in from the system on every chunk.  It moves no value.
A block is some leading points (all coordinates but the last) times every
midpoint of the last axis.  A separable field has a per-axis jet for it,
which computes what depends only on the leading coordinates, or only on the
last, once per side; other fields are evaluated through their derivative at
the block's points.  A field may declare a support outside which the
integrand is exactly 0; the loop skips the grid points there, which leaves
each chunk's correctly rounded sum unchanged, and the promise is checked at
seeded points outside the support.  A field with a per-axis jet promises
that its support reads the leading coordinates only.

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
    "derivative_check",
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
# Grid slabs along the first axis per chunk, by domain dimension: the rounding
# unit of the grid integrals, whose raw values depend on it to round-off (one
# exact, correctly rounded sum over the whole 28^3 grid moves its raw value by
# 1 ulp).
CHUNK_SLABS = {2: 64, 3: 8}
# Grid points per evaluation block: the memory unit, which moves no value.  One
# complex entry of a block is 64 KB, so a block's temporaries stay in cache
# and are reused from the heap; a whole chunk's came fresh from the system,
# and page-faulted, on every chunk.
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
    """A matrix-valued function sampled pointwise.

    evaluator maps an (N, dim) array of points to (N, size, size) complex
    values.  derivative(pts) returns the 1-jet (values, partials) in one
    call: the values exactly as the evaluator gives them, and the exact
    partials along every coordinate stacked as (dim, N, size, size).  The
    integrals need it, and fields without one can only be evaluated.
    `nonsmooth` marks points to skip in finite-difference cross-checks (e.g.
    chart seams of a frozen extension).  `support(pts)` marks the points
    where the grid integrals need the field; outside it their integrands are
    exactly 0, a promise they check at seeded points.

    `axis_jet(lead, last)`, optional, is the jet on a product of points: the
    (m, dim - 1) leading coordinates times the (n,) last coordinates, point
    i·n + j being (lead[i], last[j]).  It returns entry-major values
    (size, size, m·n) and partials (size, size, dim, m·n), equal to the
    derivative's bit for bit.  A field that has one promises that its
    support reads the leading coordinates only.  `from_jet` builds it, and
    the evaluator and derivative, from one function.
    """

    evaluator: Callable
    dim: int
    name: str = ""
    derivative: Callable | None = None
    default_domain: GridDomain | None = None
    nonsmooth: Callable | None = None
    support: Callable | None = None
    axis_jet: Callable | None = None

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.evaluator(pts)

    @classmethod
    def constant(cls, value, dim: int, name: str,
                 default_domain: GridDomain | None = None) -> "MatrixField":
        """The field equal to the matrix `value` everywhere, with zero partials."""
        value = np.asarray(value, dtype=complex)

        def ev(pts):
            return np.broadcast_to(value, (len(pts),) + value.shape).copy()

        return cls(evaluator=ev, dim=dim, name=name, default_domain=default_domain,
                   derivative=lambda pts: (ev(pts), np.zeros((dim, len(pts)) + value.shape,
                                                             dtype=complex)))

    @classmethod
    def from_jet(cls, jet: Callable, dim: int, name: str, **fields) -> "MatrixField":
        """The field of an entry-major jet whose coordinates broadcast.

        jet(*coords), given dim coordinate arrays of a common broadcast shape
        s, returns values (size, size, *s) and partials (size, size, dim, *s)
        in fresh C-contiguous arrays.  Called with the columns of N points it
        is the derivative (as (N, ...) views) and the evaluator; called with
        the leading coordinates as (m, 1) columns and the last as (n,), it is
        the per-axis jet, which computes whatever depends on one side once
        per side.
        """
        def derivative(pts):
            return tuple(np.moveaxis(a, (0, 1), (-2, -1)) for a in jet(*pts.T))

        def axis_jet(lead, last):
            values, partials = jet(*lead.T[:, :, None], last)
            return (values.reshape(values.shape[:2] + (-1,)),
                    partials.reshape(partials.shape[:3] + (-1,)))

        return cls(evaluator=lambda pts: derivative(pts)[0], dim=dim, name=name,
                   derivative=derivative, axis_jet=axis_jet, **fields)


def _derivative(field: MatrixField) -> Callable:
    if field.derivative is None:
        raise ValueError(f"{field.name or 'field'}: no exact derivative to integrate or check")
    return field.derivative


def _central_difference(evaluator, pts, axis: int, h: float) -> np.ndarray:
    """(f(x + h e_axis) - f(x - h e_axis)) / 2h."""
    up = pts.copy()
    dn = pts.copy()
    up[:, axis] += h
    dn[:, axis] -= h
    return (evaluator(up) - evaluator(dn)) / (2 * h)


def projection_residual(field: MatrixField, pts) -> float:
    p = field(pts)
    idem = np.abs(p @ p - p).max()
    herm = np.abs(p - p.conj().transpose(0, 2, 1)).max()
    return float(max(idem, herm))


def derivative_check(field: MatrixField, pts, partials=None) -> float:
    """Max deviation between exact and finite-difference derivatives (NaN if any is NaN).

    partials, the jet's partials (dim, n, k, k) at pts if the caller has them,
    spare the jet call.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if field.nonsmooth is not None:
        smooth = ~field.nonsmooth(pts)
        pts = pts[smooth]
        if partials is not None:
            partials = partials[:, smooth]
    if len(pts) == 0:
        return 0.0
    exact = _derivative(field)(pts)[1] if partials is None else partials
    return float(np.max([np.abs(exact[axis]
                                - _central_difference(field.evaluator, pts, axis, FD_STEP)).max()
                         for axis in range(field.dim)]))


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
        raise ResidualError(f"{name or 'integral'}: raw integral {raw_complex} is not finite "
                            f"on grid {grid}")
    rounded = int(round(raw))
    residual = abs(raw - rounded) + abs(float(raw_complex.imag))
    res = IntegralResult(raw, rounded, residual, boundary_residual, grid, name, extra or {})
    if residual >= RESIDUAL_LIMIT:
        raise ResidualError(
            f"{name or 'integral'}: pre-rounding residual {residual:.3g} >= {RESIDUAL_LIMIT}; "
            f"refine the grid (current {grid}) or enlarge the domain")
    return res


# ---------------------------------------------------------------------------
# 1D winding

def _adaptive_simpson(g, a, b, tol):
    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth <= 0 or not abs(delta) > 15.0 * tol:  # a NaN delta stops here
            return left + right + delta / 15.0
        return (rec(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
                + rec(m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1))

    return rec(a, fa, b, fb, m, fm, whole, tol, 40)


def winding_1d(f: MatrixField, side: str = "+", tol: float = 1e-8) -> IntegralResult:
    """Winding number of an invertible field on a half-line.

    Computes -(1/2πi) ∫ Tr(f'(z) f(z)^{-1}) dz along the path running outward
    from 0 to infinity; this realizes the sign convention that is -(1/2πi) of
    the increasing-z integral on R_+ and +(1/2πi) of it on R_-, making the
    reference phase on either side wind +1.  The field must be safely
    invertible with a common limit at 0 and at infinity.  The half-line is
    compactified with z = sgn * w/(1-w) and integrated by adaptive Simpson.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    sgn = 1.0 if side == "+" else -1.0

    zs = sgn * np.geomspace(1e-6, 1e6, 97)
    guard = np.moveaxis(f(zs[:, None]), 0, -1)
    _check_size(f, guard)
    sv_min = float(np.min(_sigma_min2(guard)))
    if not sv_min > SIGMA_FLOOR:  # a NaN σ_min fails too
        raise NonInvertibleFieldError(
            f"{f.name or 'field'}: min singular value {sv_min:.3g} is not above {SIGMA_FLOOR}")
    v0 = f(np.array([[0.0]]))[0]
    vinf = f(np.array([[sgn * 1e9]]))[0]
    limit_gap = float(np.abs(v0 - vinf).max())
    if not limit_gap <= 1e-6:
        raise BoundaryConditionError(
            f"{f.name or 'field'}: limits at 0 and infinity differ by {limit_gap:.3g}")
    derivative = _derivative(f)

    def integrand(w):
        if w >= 1.0:
            return 0.0 + 0.0j
        z = sgn * w / (1.0 - w)
        dz = sgn / (1.0 - w) ** 2  # dz/dw of the outward path
        val, df = derivative(np.array([[z]]))
        tr = np.trace(df[0, 0] @ np.linalg.inv(val[0]))
        return tr * dz

    total = _adaptive_simpson(integrand, 0.0, 1.0 - 1e-12, tol)
    raw = -total / (2.0j * math.pi)
    return _finish(raw, limit_gap, (0,), f.name or f"winding_1d[{side}]",
                   {"side": side})


# ---------------------------------------------------------------------------
# Shared helpers for grid integrals

def _check_size(field: MatrixField, vals: np.ndarray) -> None:
    """The closed-form kernels below take k×k values with k <= 2 only."""
    k = vals.shape[0]
    if k > 2:
        raise ValueError(f"{field.name or 'field'}: {k}x{k} values; the grid integrals "
                         "and the winding_1d guard take 1x1 and 2x2 fields only")


def _mul2(a, b):
    """a @ b for entry-major k×k stacks (k <= 2), entry by entry; trailing axes broadcast."""
    if a.shape[0] == 1:
        return (a[0, 0] * b[0, 0])[None, None]
    out = np.empty((2, 2) + np.broadcast_shapes(a.shape[2:], b.shape[2:]),
                   dtype=np.result_type(a, b))
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


def _inv2(m):
    """Inverse of entry-major k×k stacks (k <= 2) by the adjugate.

    A singular or NaN entry gives inf or NaN without a warning: the callers'
    σ_min floor is what refuses such a field.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if m.shape[0] == 1:
            return 1.0 / m
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        out = np.empty_like(m)
        out[0, 0] = m[1, 1]
        out[1, 1] = m[0, 0]
        np.negative(m[0, 1], out=out[0, 1])
        np.negative(m[1, 0], out=out[1, 0])
        return np.divide(out, det, out=out)


def _sigma_min2(m):
    """Smallest singular value of entry-major k×k stacks (k <= 2): |det| / σ_max.

    σ_max² = (‖m‖_F² + √(‖m‖_F⁴ − 4|det|²)) / 2 is the larger eigenvalue of
    h = m mᴴ.  The root is taken as hypot(h11 − h22, 2|h12|), which is the
    same number without the cancellation that costs √eps (1e-8) at the
    unitary witnesses, where σ1 = σ2.  A zero matrix gives 0 and a NaN entry
    gives NaN.
    """
    if m.shape[0] == 1:
        return np.abs(m[0, 0])
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    h11 = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
    h22 = c.real ** 2 + c.imag ** 2 + d.real ** 2 + d.imag ** 2
    h12 = np.abs(a * np.conj(c) + b * np.conj(d))
    smax = np.sqrt(0.5 * (h11 + h22 + np.hypot(h11 - h22, 2.0 * h12)))
    adet = np.abs(a * d - b * c)
    return np.divide(adet, smax, out=np.zeros_like(adet), where=smax != 0.0)


def _exact_sum_complex(values) -> complex:
    """The correctly rounded sum of complex values, each part summed exactly.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31 (2008) 189, ExtractVector)
    on one (2, n) copy of the real and imaginary parts.  With 2^M >= n and
    max|x| < 2^E, let σ = 2^(E+M) per part: q = (σ + x) − σ and x − q are
    exact, every q is a multiple of ulp(σ)/2, or of the least subnormal when
    σ is below 2^-1021, and Σ|q| <= σ, so numpy sums the q of a level
    exactly in any order.  Each level takes about 53 − M bits off the
    remainders; when they are all 0, math.fsum of the few exact level sums
    rounds the exact total once, which gives the bits of math.fsum over the
    values.  A NaN or inf, or a σ past 2^1022, where math.fsum may overflow
    on the way, sends the values to math.fsum itself, which gives the value
    or raises as it does on them.
    """
    values = np.asarray(values)
    x = np.empty((2, len(values)))
    x[0] = values.real
    x[1] = values.imag
    q = np.empty_like(x)
    sigma = np.empty((2, 1))
    headroom = (len(values) - 1).bit_length()
    levels = []
    while True:
        top = np.abs(x, out=q).max(axis=1, initial=0.0).tolist()
        if not (top[0] or top[1]):
            return complex(math.fsum(levels[0::2]), math.fsum(levels[1::2]))
        # A part that is all 0 gets σ = 2^M, which leaves it as it is.
        exponents = [math.frexp(t)[1] + headroom for t in top]
        if not (math.isfinite(top[0] + top[1]) and max(exponents) <= 1022):
            return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))
        sigma[:, 0] = [math.ldexp(1.0, e) for e in exponents]
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        levels += q.sum(axis=1).tolist()


def _face_points(domain: GridDomain, axes) -> np.ndarray:
    """The lo and then the hi face of each given axis, 17 points per edge, face after face."""
    faces = []
    for axis in axes:
        for end in ("lo", "hi"):
            grids = [np.array([getattr(ax, end)]) if i == axis else np.linspace(ax.lo, ax.hi, 17)
                     for i, ax in enumerate(domain.axes)]
            mesh = np.meshgrid(*grids, indexing="ij")
            faces.append(np.stack([m.reshape(-1) for m in mesh], axis=1))
    return np.concatenate(faces)


def _edge_constancy(field: MatrixField, domain: GridDomain) -> float:
    """Max in-edge variation over non-periodic edges; periodic axes checked for wraparound.

    One evaluator call covers every face.  Each face's mean is taken over a
    C-contiguous copy, so that it sums in one order whatever the layout of
    the evaluator's result.
    """
    vals = np.ascontiguousarray(field(_face_points(domain, range(domain.dim))))
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


def _sampled_derivative_check(field: MatrixField, domain: GridDomain, n: int) -> float:
    """derivative_check at n seeded interior points; a gap above 1e-6 is refused.

    The jet's values must also equal the evaluator's exactly (NaN never does),
    since the grid integrals take their values from the jet.
    """
    sample = _interior_points(domain, n, 0)
    values, partials = _derivative(field)(sample)
    if not np.array_equal(values, field.evaluator(sample)):
        raise ValueError(f"{field.name or 'field'}: derivative values differ from the evaluator")
    dev = derivative_check(field, sample, partials)
    if not dev <= 1e-6:
        raise ValueError(f"{field.name or 'field'}: analytic/FD derivative gap {dev:.3g} > 1e-6")
    return dev


def _entry_major(values, partials):
    """(N, k, k) values and (dim, N, k, k) partials as (k, k, N) and (k, k, dim, N) views."""
    return np.moveaxis(values, 0, -1), np.moveaxis(partials, (2, 3), (0, 1))


def _grid_sum(field: MatrixField, domain: GridDomain, integrand: Callable) -> complex:
    """Sum of integrand(values, partials) over the midpoint grid of the domain.

    The integrand takes entry-major values (k, k, N) and partials (k, k, dim, N).
    Each chunk of CHUNK_SLABS slabs along the first axis is summed by one
    exact, correctly rounded sum (`_exact_sum_complex`), and the chunk sums
    by another.  A chunk is evaluated in blocks of at most BLOCK_POINTS
    points (one row of the last axis, if that is longer), whose integrand
    values fill one buffer that serves every chunk.

    A field with a per-axis jet gets a block's leading points inside its
    support; any other field gets the block's points, less those outside its
    support, through its derivative.  Outside the support the integrand must
    be exactly 0, so skipping those points leaves each chunk's sum as it was.
    The promise is checked at 512 seeded points: any point outside the
    support whose integrand is not exactly 0 is refused.
    """
    jet = _derivative(field)
    *lead_axes, last = (ax.midpoints() for ax in domain.axes)
    chunks = np.array_split(lead_axes[0], max(1, len(lead_axes[0]) // CHUNK_SLABS[domain.dim]))
    rest = math.prod(len(ax) for ax in lead_axes[1:]) * len(last)
    buffer = np.empty(len(chunks[0]) * rest, dtype=complex)
    rows = max(1, BLOCK_POINTS // len(last))  # leading points per block
    sums = []
    for chunk in chunks:
        lead = np.stack(np.meshgrid(chunk, *lead_axes[1:], indexing="ij"),
                        axis=-1).reshape(-1, domain.dim - 1)
        if field.axis_jet is not None and field.support is not None:
            lead = lead[field.support(np.column_stack((lead, np.full(len(lead), last[0]))))]
        filled = 0
        for start in range(0, len(lead), rows):
            block = lead[start:start + rows]
            if field.axis_jet is not None:
                values, partials = field.axis_jet(block, last)
            else:
                pts = np.column_stack((np.repeat(block, len(last), axis=0),
                                       np.tile(last, len(block))))
                if field.support is not None:
                    pts = pts[field.support(pts)]
                if not len(pts):
                    continue
                values, partials = _entry_major(*jet(pts))
            part = integrand(values, partials)
            buffer[filled:filled + len(part)] = part
            filled += len(part)
        sums.append(_exact_sum_complex(buffer[:filled]))
    if field.support is not None:
        outside = _interior_points(domain, 512, 1)
        outside = outside[~field.support(outside)]
        if len(outside):
            leak = np.abs(integrand(*_entry_major(*jet(outside))))
            if not np.all(leak == 0.0):  # NaN fails too
                raise ValueError(f"{field.name or 'field'}: integrand up to {leak.max():.3g} "
                                 "outside the declared support")
    return _exact_sum_complex(sums)


def _boundary_identity_residual(field: MatrixField, domain: GridDomain) -> float:
    """Max deviation from the identity on the non-periodic faces, from one evaluator call."""
    axes = [axis for axis, ax in enumerate(domain.axes) if ax.tag != "periodic"]
    if not axes:
        return 0.0
    vals = field(_face_points(domain, axes))
    return float(np.abs(vals - np.eye(vals.shape[-1])).max())


# ---------------------------------------------------------------------------
# 2D Chern number

def chern_2d(p: MatrixField, domain: GridDomain | None = None) -> IntegralResult:
    """First Chern number (1/2πi) ∫ Tr(P [∂₁P, ∂₂P]) of a projection field."""
    if domain is None:
        domain = p.default_domain
    if domain is None or domain.dim != 2 or p.dim != 2:
        raise ValueError("chern_2d needs a 2D field with a 2D domain")

    edge_var = _edge_constancy(p, domain)
    if not edge_var <= BOUNDARY_TOL_2D:
        raise BoundaryConditionError(
            f"{p.name or 'field'}: boundary variation {edge_var:.3g} > {BOUNDARY_TOL_2D} "
            "(field must be constant on each boundary component)")
    proj_res = [0.0]

    def integrand(pv, partials):
        _check_size(p, pv)
        proj_res.append(np.abs(_mul2(pv, pv) - pv).max())
        return _trace_commutator2(pv, partials[:, :, 0], partials[:, :, 1])

    total = _grid_sum(p, domain, integrand) * domain.cell_volume / (2.0j * math.pi)
    proj_res = float(np.max(proj_res))
    if not proj_res <= 1e-10:
        raise ValueError(f"{p.name or 'field'}: projection residual {proj_res:.3g} > 1e-10")
    extra = {"projection_residual": proj_res,
             "derivative_check": _sampled_derivative_check(p, domain, 64)}
    return _finish(total, edge_var, domain.shape(), p.name or "chern_2d", extra)


# ---------------------------------------------------------------------------
# 3D odd winding

def winding_3d(g: MatrixField, domain: GridDomain | None = None) -> IntegralResult:
    """Odd topological charge -(1/24π²) ∫ Tr((g^{-1}dg)^3) of an invertible field.

    Midpoint rule on the domain grid; the field must be the identity on every
    non-periodic boundary face (within 1e-2).  Orientation is the coordinate
    order of the domain axes.
    """
    if domain is None:
        domain = g.default_domain
    if domain is None or domain.dim != 3 or g.dim != 3:
        raise ValueError("winding_3d needs a 3D field with a 3D domain")

    brv = _boundary_identity_residual(g, domain)
    if not brv <= BOUNDARY_TOL_3D:
        raise BoundaryConditionError(
            f"{g.name or 'field'}: boundary-identity residual {brv:.3g} > {BOUNDARY_TOL_3D}; "
            "enlarge the truncated domain")
    sv_min = [1.0]

    def integrand(gv, partials):
        _check_size(g, gv)
        sv_min.append(_sigma_min2(gv).min())
        a = _mul2(_inv2(gv), partials)
        return _trace_commutator2(a[:, :, 0], a[:, :, 1], a[:, :, 2])

    total = _grid_sum(g, domain, integrand)
    sv_floor = float(np.min(sv_min))
    if not sv_floor > SIGMA_FLOOR:
        raise NonInvertibleFieldError(
            f"{g.name or 'field'}: min singular value {sv_floor:.3g} on the grid")
    # epsilon-contraction = 3 Tr(A0 [A1, A2]); normalization -(1/24π²).
    total = total * 3.0 * domain.cell_volume * (-1.0 / (24.0 * math.pi ** 2))
    extra = {"derivative_check": _sampled_derivative_check(g, domain, 48)}
    return _finish(total, brv, domain.shape(), g.name or "winding_3d", extra)
