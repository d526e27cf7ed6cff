"""Quadrature of topological integrals of matrix-valued fields.

Three detectors:
  winding_1d  - (1/2πi) ∫ Tr(f' f^{-1}) dz over a half-line, with the sign
                convention that makes the reference phases on both half-lines
                wind +1 (minus sign on R_+, plus sign on R_-);
  chern_2d    - (1/2πi) ∫ Tr(P [∂₁P, ∂₂P]) over a 2D grid domain;
  winding_3d  - -(1/24π²) ∫ Tr((g^{-1}dg)^3) over a 3D grid domain,
                orientation given by the coordinate order.

Grids are midpoint rules; sums are chunked and compensated (math.fsum), so
the result is independent of the chunking to round-off.  Integer outputs are
always reported together with the raw value and the pre-rounding residual.

The grid integrals take k×k fields with k <= 2 (every witness is 1×1 or 2×2)
and refuse larger ones.  Their kernels are closed forms for those sizes:
products and traces written out entry by entry, the inverse by the adjugate,
and the smallest singular value as |det| / σ_max.
"""

from __future__ import annotations

import itertools
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
# Grid slabs along the first axis per chunk, by domain dimension; results are
# independent of it to round-off, it bounds only the memory of one chunk.
CHUNK_SLABS = {2: 64, 3: 8}


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
    tag: str = "constant"  # "constant" | "periodic" | "decay"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("axis range must be finite with lo < hi")
        if self.n < 16:
            raise ValueError("axis sample count must be >= 16")
        if self.tag not in ("constant", "periodic", "decay"):
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
    values.  derivative(pts) returns the exact partials along every
    coordinate in one call, stacked as (dim, N, size, size); the integrals
    need it, and fields without one can only be evaluated.  `nonsmooth`
    marks points to skip in finite-difference cross-checks (e.g. chart seams
    of a frozen extension).
    """

    evaluator: Callable
    dim: int
    name: str = ""
    derivative: Callable | None = None
    default_domain: GridDomain | None = None
    nonsmooth: Callable | None = None

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.evaluator(pts)


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


def derivative_check(field: MatrixField, pts) -> float:
    """Max deviation between exact and finite-difference derivatives (NaN if any is NaN)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if field.nonsmooth is not None:
        pts = pts[~field.nonsmooth(pts)]
    if len(pts) == 0:
        return 0.0
    exact = _derivative(field)(pts)
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
    guard = f(zs[:, None])
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
        pt = np.array([[z]])
        df = derivative(pt)[0, 0]
        val = f(pt)[0]
        tr = np.trace(df @ np.linalg.inv(val))
        return tr * dz

    total = _adaptive_simpson(integrand, 0.0, 1.0 - 1e-12, tol)
    raw = -total / (2.0j * math.pi)
    return _finish(raw, limit_gap, (0,), f.name or f"winding_1d[{side}]",
                   {"side": side})


# ---------------------------------------------------------------------------
# Shared helpers for grid integrals

def _check_size(field: MatrixField, vals: np.ndarray) -> None:
    """The closed-form kernels below take k×k values with k <= 2 only."""
    k = vals.shape[-1]
    if k > 2:
        raise ValueError(f"{field.name or 'field'}: {k}x{k} values; the grid integrals "
                         "and the winding_1d guard take 1x1 and 2x2 fields only")


def _mul2(a, b):
    """a @ b for k×k stacks (k <= 2), entry by entry; leading axes broadcast."""
    if a.shape[-1] == 1:
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in range(2):
        for j in range(2):
            np.add(a[..., i, 0] * b[..., 0, j], a[..., i, 1] * b[..., 1, j], out=out[..., i, j])
    return out


def _trace_mul2(a, b):
    """Tr(a b) for k×k stacks (k <= 2), without forming a b."""
    if a.shape[-1] == 1:
        return a[..., 0, 0] * b[..., 0, 0]
    return ((a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0])
            + (a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]))


def _inv2(m):
    """Inverse of k×k stacks (k <= 2) by the adjugate.

    A singular or NaN entry gives inf or NaN without a warning: the callers'
    σ_min floor is what refuses such a field.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if m.shape[-1] == 1:
            return 1.0 / m
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        out = np.empty_like(m)
        out[..., 0, 0] = m[..., 1, 1]
        out[..., 1, 1] = m[..., 0, 0]
        out[..., 0, 1] = -m[..., 0, 1]
        out[..., 1, 0] = -m[..., 1, 0]
        return out / det[..., None, None]


def _sigma_min2(m):
    """Smallest singular value of k×k stacks (k <= 2): |det| / σ_max.

    σ_max² = (‖m‖_F² + √(‖m‖_F⁴ − 4|det|²)) / 2 is the larger eigenvalue of
    h = m mᴴ.  The root is taken as hypot(h11 − h22, 2|h12|), which is the
    same number without the cancellation that costs √eps (1e-8) at the
    unitary witnesses, where σ1 = σ2.  A zero matrix gives 0 and a NaN entry
    gives NaN.
    """
    if m.shape[-1] == 1:
        return np.abs(m[..., 0, 0])
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    h11 = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
    h22 = c.real ** 2 + c.imag ** 2 + d.real ** 2 + d.imag ** 2
    h12 = np.abs(a * np.conj(c) + b * np.conj(d))
    smax = np.sqrt(0.5 * (h11 + h22 + np.hypot(h11 - h22, 2.0 * h12)))
    adet = np.abs(a * d - b * c)
    return np.divide(adet, smax, out=np.zeros_like(adet), where=smax != 0.0)


def _fsum_complex(values) -> complex:
    """Compensated sum of complex values.

    math.fsum is fed Python floats from .tolist() 4096 at a time, which gives
    the same sum as iterating numpy scalars, faster, and never holds a list as
    long as a grid chunk.
    """
    values = np.asarray(values)

    def floats(part):
        return itertools.chain.from_iterable(part[i:i + 4096].tolist()
                                             for i in range(0, len(part), 4096))

    return complex(math.fsum(floats(values.real)), math.fsum(floats(values.imag)))


def _face_points(domain: GridDomain, axis: int, where: str):
    grids = []
    for i, ax in enumerate(domain.axes):
        if i == axis:
            grids.append(np.array([ax.lo if where == "lo" else ax.hi]))
        else:
            grids.append(np.linspace(ax.lo, ax.hi, 17))
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _edge_constancy(field: MatrixField, domain: GridDomain) -> float:
    """Max in-edge variation over non-periodic edges; periodic axes checked for wraparound."""
    worst = [0.0]
    for axis, ax in enumerate(domain.axes):
        if ax.tag == "periodic":
            lo = field(_face_points(domain, axis, "lo"))
            hi = field(_face_points(domain, axis, "hi"))
            worst.append(np.abs(lo - hi).max())
        else:
            for where in ("lo", "hi"):
                vals = field(_face_points(domain, axis, where))
                worst.append(np.abs(vals - vals.mean(axis=0)).max())
    return float(np.max(worst))


def _sampled_derivative_check(field: MatrixField, domain: GridDomain, n: int) -> float:
    """derivative_check at n seeded interior points; a gap above 1e-6 is refused."""
    rng = np.random.default_rng(0)
    sample = np.stack([rng.uniform(a.lo + a.step, a.hi - a.step, n)
                       for a in domain.axes], axis=1)
    dev = derivative_check(field, sample)
    if not dev <= 1e-6:
        raise ValueError(f"{field.name or 'field'}: analytic/FD derivative gap {dev:.3g} > 1e-6")
    return dev


def _boundary_identity_residual(field: MatrixField, domain: GridDomain) -> float:
    worst = [0.0]
    for axis in range(domain.dim):
        if domain.axes[axis].tag == "periodic":
            continue
        for where in ("lo", "hi"):
            vals = field(_face_points(domain, axis, where))
            worst.append(np.abs(vals - np.eye(vals.shape[-1])).max())
    return float(np.max(worst))


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
    derivative = _derivative(p)

    xs = domain.axes[0].midpoints()
    ys = domain.axes[1].midpoints()
    proj_res = [0.0]
    chunks = []
    for x_block in np.array_split(xs, max(1, len(xs) // CHUNK_SLABS[2])):
        mesh = np.stack(np.meshgrid(x_block, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        pv = p(mesh)
        _check_size(p, pv)
        proj_res.append(np.abs(_mul2(pv, pv) - pv).max())
        d1, d2 = derivative(mesh)
        comm = _mul2(d1, d2) - _mul2(d2, d1)
        integrand = _trace_mul2(pv, comm)
        del pv, d1, d2, comm  # free before the sum's lists and the next chunk's arrays
        chunks.append(_fsum_complex(integrand))
    total = _fsum_complex(chunks) * domain.cell_volume / (2.0j * math.pi)

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
    derivative = _derivative(g)

    xs, ys, zs = (ax.midpoints() for ax in domain.axes)
    chunks = []
    sv_min = [1.0]
    for x_block in np.array_split(xs, max(1, len(xs) // CHUNK_SLABS[3])):
        mesh = np.stack(np.meshgrid(x_block, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
        gv = g(mesh)
        _check_size(g, gv)
        sv_min.append(_sigma_min2(gv).min())
        a0, a1, a2 = _mul2(_inv2(gv), derivative(mesh))
        comm = _mul2(a1, a2) - _mul2(a2, a1)
        integrand = _trace_mul2(a0, comm)
        del gv, a0, a1, a2, comm  # as in chern_2d
        chunks.append(_fsum_complex(integrand))
    sv_floor = float(np.min(sv_min))
    if not sv_floor > SIGMA_FLOOR:
        raise NonInvertibleFieldError(
            f"{g.name or 'field'}: min singular value {sv_floor:.3g} on the grid")
    # epsilon-contraction = 3 Tr(A0 [A1, A2]); normalization -(1/24π²).
    total = _fsum_complex(chunks) * 3.0 * domain.cell_volume * (-1.0 / (24.0 * math.pi ** 2))
    extra = {"derivative_check": _sampled_derivative_check(g, domain, 48)}
    return _finish(total, brv, domain.shape(), g.name or "winding_3d", extra)
