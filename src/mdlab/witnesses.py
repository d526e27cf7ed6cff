"""The concrete matrix-valued fields fed to the topological detectors.

The hedgehog projection on the closed unit disk (constant on the boundary
circle, so it factors through the disk-with-collapsed-boundary ~ 2-sphere):

    phat(x, y) = 1/2 [[1 - cos(pi r),  (x+iy)/r sin(pi r)],
                      [(x-iy)/r sin(pi r),  1 + cos(pi r)]],   r = |(x, y)|,

frozen at diag(1, 0) for r >= 1.  Its self-adjoint lift is
ptilde(x, y, z) = phat(x, y) / sqrt(1 + z^2), and the exponentials
exp(2 pi i ptilde) restricted to the half-spaces z >= 0 / z <= 0 are the 3D
winding witnesses.  The lift is not a field of its own: at height 0 it is
phat, and that is where the witness-identity check reads it.  Two
normalizations are built in:

  * the half-line coordinate is compactified, z = tan(pi v / 2) with
    v in [0, 1] (or [-1, 0]), under which the degree form is invariant and
    the slow 1/z tail disappears;
  * the value at (x, y)-infinity, diag(e^{2 pi i f(z)}, 1), is divided out,
    which is the standard unitization normalization for classes over
    C0(R^2 x R_pm) and makes the field exactly the identity on every
    boundary face.

The remaining witnesses are the scalar phase u_+ on the positive half-line,
the unitary u over the 3-sphere chart (theta1, theta2, phi), and, for the
constant projection q = diag(1, 0), the transverse disk slice of
p = u q u^{-1} used for the 2D Chern pairing.

Every witness's jet fills entry-major buffers, (k, k, ...) arrays as the
kernels of `mdlab.topology` read them, given ones (`out`) or fresh, and
takes coordinates that broadcast, so `MatrixField.from_jet` makes one
function both the derivative and the per-axis jet of the field.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import Axis, GridDomain, MatrixField

__all__ = [
    "phat",
    "phat_disk",
    "exp_ptilde",
    "uplus",
    "u_gamma3",
    "gamma3_disk",
    "trivial_lift_unit",
    "trivial_lift_eps1",
]

TAU = 2.0 * math.pi


def _outputs(out, shape: tuple[int, ...], dim: int, size: int = 2):
    """A size×size jet's (values, partials) arrays: out as given, or fresh
    (size, size, *shape) and (size, size, dim, *shape) ones."""
    if out is not None:
        return out
    return (np.empty((size, size) + shape, dtype=complex),
            np.empty((size, size, dim) + shape, dtype=complex))


def _phat_jet(x, y, out=None):
    """phat entries, frozen at diag(1,0) outside the unit disk, and their exact
    partials along x and y, entry-major: (2, 2, *s) and (2, 2, 2, *s) for x and
    y of broadcast shape s, in `out` if given.  The partials are zero outside
    the disk."""
    r = np.hypot(x, y)
    inside = r < 1.0
    c = np.cos(math.pi * r)
    sinc = np.sinc(r)  # sin(pi r)/(pi r)
    half_sinc = 0.5 * math.pi * sinc  # sin(pi r) / (2 r), finite at r = 0
    # The jets fill every entry of their output blocks, and write conjugates
    # in place, so that no entry costs a second temporary.
    p, d = _outputs(out, r.shape, 2)
    p[0, 0] = np.where(inside, 0.5 * (1.0 - c), 1.0)
    p[1, 1] = np.where(inside, 0.5 * (1.0 + c), 0.0)
    off = (x + 1j * y) * half_sinc
    p[0, 1] = np.where(inside, off, 0.0)
    np.conjugate(p[0, 1], out=p[1, 0])
    # (pi c r - sin(pi r)) / r^3 = pi (c - sinc) / r^2, with its r -> 0 limit.
    small = r < 1e-3
    rs = np.where(small, 1.0, r)
    w3 = np.where(small,
                  -math.pi ** 3 / 3.0 + math.pi ** 5 * r * r / 30.0,
                  math.pi * (c - sinc) / (rs * rs))
    t = np.stack(np.broadcast_arrays(x, y))
    unit = np.array([1.0, 1.0j]).reshape((2,) + (1,) * r.ndim)
    d11 = 0.5 * math.pi ** 2 * t * sinc
    d[0, 0] = np.where(inside, d11, 0.0)
    np.negative(d[0, 0], out=d[1, 1])
    doff = 0.5 * (math.pi * sinc * unit + (x + 1j * y) * t * w3)
    d[0, 1] = np.where(inside, doff, 0.0)
    np.conjugate(d[0, 1], out=d[1, 0])
    return p, d


def _phat_nonsmooth(pts):
    r = np.hypot(pts[:, 0], pts[:, 1])
    return (np.abs(r - 1.0) < 2e-2) | (r < 2e-2)


def phat() -> MatrixField:
    """The hedgehog projection on the plane (Cartesian chart)."""
    return MatrixField.from_jet(_phat_jet, 2, "phat", nonsmooth=_phat_nonsmooth)


def _phat_polar_jet(r, th, out=None):
    """phat in the polar chart and its exact partials along r and theta, entry-major."""
    c = np.cos(math.pi * r)
    s = np.sin(math.pi * r)
    e = np.exp(1j * th)
    p, d = _outputs(out, np.broadcast_shapes(r.shape, th.shape), 2)
    p[0, 0] = 0.5 * (1.0 - c)
    p[1, 1] = 0.5 * (1.0 + c)
    np.multiply(0.5 * e, s, out=p[0, 1])
    np.conjugate(p[0, 1], out=p[1, 0])
    d[0, 0, 0] = 0.5 * math.pi * s
    d[1, 1, 0] = -0.5 * math.pi * s
    np.multiply(0.5 * math.pi * c, e, out=d[0, 1, 0])
    d[0, 0, 1] = d[1, 1, 1] = 0.0
    np.multiply(0.5j * s, e, out=d[0, 1, 1])
    np.conjugate(d[0, 1], out=d[1, 0])
    return p, d


def phat_disk(n: int = 512) -> MatrixField:
    """phat in the polar chart (r, theta) on [0,1] x [0,2pi].

    All boundary components are exactly constant (diag(0,1) at r=0,
    diag(1,0) at r=1) and the angle is periodic; the Chern integral over
    this domain is the orientation calibration reference +1.
    """
    dom = GridDomain((Axis(0.0, 1.0, n, "constant"), Axis(0.0, TAU, n, "periodic")))
    return MatrixField.from_jet(_phat_polar_jet, 2, "phat_disk", default_domain=dom)


def _exp_ptilde_jet(x, y, v, out=None):
    """The jet of e^{2 pi i ptilde}, normalized, at (x, y, v), entry-major."""
    p, dp = _phat_jet(x, y)
    chi = TAU * np.cos(0.5 * math.pi * v)  # 2 pi / sqrt(1 + z^2), z = +-tan(pi v/2)
    e = np.exp(1j * chi)
    # g = 1 + (e - 1) phat, times k = diag(conj(e), 1), which divides out the
    # value at (x, y)-infinity: k scales the first column by conj(e) and
    # leaves the second as it is.  The products are grouped as in
    # (e - 1) (dphat conj(e)) and (de phat) conj(e) + g dconj(e); another
    # grouping would round differently.
    ce = np.conj(e)
    em1 = e - 1.0
    dchi = -math.pi ** 2 * np.sin(0.5 * math.pi * v)
    de = 1j * dchi * e
    dce = -1j * dchi * ce
    g, d = _outputs(out, np.broadcast_shapes(p.shape[2:], v.shape), 3)
    for i in range(2):
        for j in range(2):
            np.multiply(em1, p[i, j], out=g[i, j])
        g[i, i] += 1.0
        for axis in range(2):
            np.multiply(dp[i, 0, axis], ce, out=d[i, 0, axis])
            np.multiply(em1, d[i, 0, axis], out=d[i, 0, axis])
            np.multiply(em1, dp[i, 1, axis], out=d[i, 1, axis])
        np.multiply(de, p[i, 0], out=d[i, 0, 2])
        d[i, 0, 2] *= ce
        d[i, 0, 2] += g[i, 0] * dce
        np.multiply(de, p[i, 1], out=d[i, 1, 2])
        g[i, 0] *= ce
    return g, d


def _inside_disk(pts):
    # phat is frozen outside the unit disk: there the x and y partials are
    # exactly 0, and so is the winding integrand Tr(A0 [A1, A2]).
    return np.hypot(pts[:, 0], pts[:, 1]) < 1.0


def exp_ptilde(side: str, n: int = 128) -> MatrixField:
    """Normalized exponential e^{2 pi i ptilde} over one half-space.

    Coordinates are (x, y, v) with v in [0, 1] the compactified *outward*
    half-line coordinate, z = tan(pi v/2) on the plus side and
    z = -tan(pi v/2) on the minus side (the same outward orientation the 1D
    winding uses).  The lift's phase 2 pi / sqrt(1 + z^2) = 2 pi cos(pi v/2)
    is even in z, so both sides are one field of (x, y, v), the same bits on
    the same domain, and `side` only names it.  The field is exactly the
    identity on all six boundary faces of the box [-1.5, 1.5]^2 x [0, 1].
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    name = "exp_ptilde_plus" if side == "+" else "exp_ptilde_minus"
    dom = GridDomain((Axis(-1.5, 1.5, n, "constant"), Axis(-1.5, 1.5, n, "constant"),
                      Axis(0.0, 1.0, n, "constant")))
    return MatrixField.from_jet(_exp_ptilde_jet, 3, name, default_domain=dom,
                                nonsmooth=_phat_nonsmooth, support=_inside_disk)


def _phase_field(name: str, sign: float) -> MatrixField:
    # u(z) = exp(2 pi i (sign * z / sqrt(1+z^2))); derivative in closed form.
    def jet(z, out=None):
        u, du = _outputs(out, z.shape, 1, size=1)
        np.exp(1j * (TAU * sign * z / np.sqrt(1.0 + z * z)), out=u[0, 0])
        dtheta = TAU * sign * (1.0 + z * z) ** -1.5
        np.multiply(1j * dtheta, u[0, 0], out=du[0, 0, 0])
        return u, du

    return MatrixField.from_jet(jet, 1, name)


def uplus() -> MatrixField:
    """u_+(z) = e^{2 pi i (-z/sqrt(1+z^2))} on the positive half-line."""
    return _phase_field("uplus", -1.0)


def u_gamma3() -> MatrixField:
    """The unitary [[e^{i(phi+t1)} cos t2, -sin t2], [sin t2, e^{-i(phi+t1)} cos t2]].

    Chart coordinates (theta1, theta2, phi); det = 1 identically.
    """
    def jet(t1, t2, ph, out=None):
        e = np.exp(1j * (ph + t1))
        ce = np.conj(e)
        c, s = np.cos(t2), np.sin(t2)
        u, d = _outputs(out, np.broadcast_shapes(t1.shape, t2.shape, ph.shape), 3)
        np.multiply(e, c, out=u[0, 0])
        u[0, 1] = -s
        u[1, 0] = s
        np.multiply(ce, c, out=u[1, 1])
        d[0, 0, 0] = 1j * e * c
        d[1, 1, 0] = -1j * ce * c
        d[0, 1, 0] = d[1, 0, 0] = 0.0
        d[:, :, 2] = d[:, :, 0]  # theta1 and phi enter only through phi + theta1
        d[0, 0, 1] = -e * s
        d[0, 1, 1] = -c
        d[1, 0, 1] = c
        d[1, 1, 1] = -ce * s
        return u, d

    return MatrixField.from_jet(jet, 3, "u_gamma3")


def _uqu(t2, phase, p=None):
    """u q u^{-1} (entry-major, in p if given) for the unitary of `u_gamma3` with
    phi + theta1 = phase, and the e^{i phase}, cos t2 and sin t2 it is built from."""
    e = np.exp(1j * phase)
    c, s = np.cos(t2), np.sin(t2)
    if p is None:
        p = np.empty((2, 2) + np.broadcast_shapes(t2.shape, phase.shape), dtype=complex)
    p[0, 0] = c ** 2
    p[1, 1] = s ** 2
    np.multiply(e * c, s, out=p[0, 1])
    np.conjugate(p[0, 1], out=p[1, 0])
    return p, e, c, s


def gamma3_disk(n: int = 512) -> MatrixField:
    """p restricted to the transverse disk, chart (theta2, phi) at theta1 = 0.

    theta2 in [0, pi/2] runs from the quotient circle (p = q there) to the
    complementary circle (p = diag(0,1)); phi is the angle around the disk.
    Both theta2 edges are exactly constant, so the Chern integral is the
    integer pairing against the plane factor; expected magnitude 1.
    """
    dom = GridDomain((Axis(0.0, 0.5 * math.pi, n, "constant"), Axis(0.0, TAU, n, "periodic")))

    def jet(t2, phi, out=None):
        p, d = _outputs(out, np.broadcast_shapes(t2.shape, phi.shape), 2)
        p, e, c, s = _uqu(t2, phi, p)
        d[1, 1, 0] = np.sin(2 * t2)
        np.negative(d[1, 1, 0], out=d[0, 0, 0])
        np.multiply(e, np.cos(2 * t2), out=d[0, 1, 0])
        d[0, 0, 1] = d[1, 1, 1] = 0.0
        np.multiply(1j * e * c, s, out=d[0, 1, 1])
        np.conjugate(d[0, 1], out=d[1, 0])
        return p, d

    return MatrixField.from_jet(jet, 2, "p_gamma3_disk", default_domain=dom)


def _constant_identity(size: int, name: str) -> MatrixField:
    dom = GridDomain((Axis(-1.0, 1.0, 16, "constant"), Axis(-1.0, 1.0, 16, "constant"),
                      Axis(0.0, 1.0, 16, "constant")))
    return MatrixField.constant(np.eye(size), 3, name, dom)


def trivial_lift_unit() -> MatrixField:
    """Normalized exponential of the lift of the unit class: identically 1."""
    return _constant_identity(1, "exp_lift_unit")


def trivial_lift_eps1() -> MatrixField:
    """Normalized exponential of the lift of the constant projection: identity."""
    return _constant_identity(2, "exp_lift_eps1")

