"""The concrete matrix-valued fields fed to the topological detectors.

The hedgehog projection on the closed unit disk (constant on the boundary
circle, so it factors through the disk-with-collapsed-boundary ~ 2-sphere):

    phat(x, y) = 1/2 [[1 - cos(pi r),  (x+iy)/r sin(pi r)],
                      [(x-iy)/r sin(pi r),  1 + cos(pi r)]],   r = |(x, y)|,

frozen at diag(1, 0) for r >= 1.  Its self-adjoint lift is
ptilde(x, y, z) = phat(x, y) / sqrt(1 + z^2), and the exponentials
exp(2 pi i ptilde) restricted to the half-spaces z >= 0 / z <= 0 are the 3D
winding witnesses.  Two normalizations are built in:

  * the half-line coordinate is compactified, z = tan(pi v / 2) with
    v in [0, 1] (or [-1, 0]), under which the degree form is invariant and
    the slow 1/z tail disappears;
  * the value at (x, y)-infinity, diag(e^{2 pi i f(z)}, 1), is divided out,
    which is the standard unitization normalization for classes over
    C0(R^2 x R_pm) and makes the field exactly the identity on every
    boundary face.

The remaining witnesses are the scalar phases u_pm on the half-lines, the
unitary u over the 3-sphere chart (theta1, theta2, phi), the constant
projection q = diag(1, 0), and p = u q u^{-1} together with its transverse
disk slice used for the 2D Chern pairing.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import Axis, GridDomain, MatrixField

__all__ = [
    "phat",
    "phat_disk",
    "ptilde",
    "exp_ptilde",
    "uplus",
    "uminus",
    "u_gamma3",
    "q_const",
    "p_gamma3",
    "gamma3_disk",
    "trivial_lift_unit",
    "trivial_lift_eps1",
]

TAU = 2.0 * math.pi


def _phat_jet(x, y):
    """phat entries, frozen at diag(1,0) outside the unit disk, and their exact
    partials along x and y, stacked; the partials are zero outside the disk."""
    r = np.hypot(x, y)
    inside = r < 1.0
    c = np.cos(math.pi * r)
    sinc = np.sinc(r)  # sin(pi r)/(pi r)
    half_sinc = 0.5 * math.pi * sinc  # sin(pi r) / (2 r), finite at r = 0
    # The jets fill every entry of np.empty blocks, and write conjugates in
    # place: a large np.zeros block, or a temporary, comes fresh from the
    # system on every grid chunk and page-faults as it is first written.
    p = np.empty(x.shape + (2, 2), dtype=complex)
    p[..., 0, 0] = np.where(inside, 0.5 * (1.0 - c), 1.0)
    p[..., 1, 1] = np.where(inside, 0.5 * (1.0 + c), 0.0)
    off = (x + 1j * y) * half_sinc
    p[..., 0, 1] = np.where(inside, off, 0.0)
    np.conjugate(p[..., 0, 1], out=p[..., 1, 0])
    # (pi c r - sin(pi r)) / r^3 = pi (c - sinc) / r^2, with its r -> 0 limit.
    small = r < 1e-3
    rs = np.where(small, 1.0, r)
    w3 = np.where(small,
                  -math.pi ** 3 / 3.0 + math.pi ** 5 * r * r / 30.0,
                  math.pi * (c - sinc) / (rs * rs))
    t = np.stack((x, y))
    unit = np.array([[1.0], [1.0j]])
    d = np.empty(t.shape + (2, 2), dtype=complex)
    d11 = 0.5 * math.pi ** 2 * t * sinc
    d[..., 0, 0] = np.where(inside, d11, 0.0)
    np.negative(d[..., 0, 0], out=d[..., 1, 1])
    doff = 0.5 * (math.pi * sinc * unit + (x + 1j * y) * t * w3)
    d[..., 0, 1] = np.where(inside, doff, 0.0)
    np.conjugate(d[..., 0, 1], out=d[..., 1, 0])
    return p, d


def _phat_nonsmooth(pts):
    r = np.hypot(pts[:, 0], pts[:, 1])
    return (np.abs(r - 1.0) < 2e-2) | (r < 2e-2)


def phat() -> MatrixField:
    """The hedgehog projection on the plane (Cartesian chart)."""
    return MatrixField(
        evaluator=lambda pts: _phat_jet(pts[:, 0], pts[:, 1])[0],
        dim=2, name="phat",
        derivative=lambda pts: _phat_jet(pts[:, 0], pts[:, 1]),
        nonsmooth=_phat_nonsmooth,
    )


def _phat_polar_jet(r, th):
    """phat in the polar chart and its exact partials along r and theta."""
    c = np.cos(math.pi * r)
    s = np.sin(math.pi * r)
    e = np.exp(1j * th)
    p = np.empty(r.shape + (2, 2), dtype=complex)
    p[..., 0, 0] = 0.5 * (1.0 - c)
    p[..., 1, 1] = 0.5 * (1.0 + c)
    p[..., 0, 1] = 0.5 * e * s
    np.conjugate(p[..., 0, 1], out=p[..., 1, 0])
    d = np.empty((2,) + r.shape + (2, 2), dtype=complex)
    d[0, ..., 0, 0] = 0.5 * math.pi * s
    d[0, ..., 1, 1] = -0.5 * math.pi * s
    d[0, ..., 0, 1] = 0.5 * math.pi * c * e
    d[1, ..., 0, 0] = d[1, ..., 1, 1] = 0.0
    d[1, ..., 0, 1] = 0.5j * s * e
    np.conjugate(d[..., 0, 1], out=d[..., 1, 0])
    return p, d


def phat_disk(n: int = 512) -> MatrixField:
    """phat in the polar chart (r, theta) on [0,1] x [0,2pi].

    All boundary components are exactly constant (diag(0,1) at r=0,
    diag(1,0) at r=1) and the angle is periodic; the Chern integral over
    this domain is the orientation calibration reference +1.
    """
    dom = GridDomain((Axis(0.0, 1.0, n, "constant"), Axis(0.0, TAU, n, "periodic")))
    return MatrixField(
        evaluator=lambda pts: _phat_polar_jet(pts[:, 0], pts[:, 1])[0],
        dim=2, name="phat_disk",
        derivative=lambda pts: _phat_polar_jet(pts[:, 0], pts[:, 1]),
        default_domain=dom,
    )


def ptilde() -> MatrixField:
    """Self-adjoint lift phat(x, y)/sqrt(1 + z^2) of the hedgehog projection."""
    def ev(pts):
        base = _phat_jet(pts[:, 0], pts[:, 1])[0]
        return base / np.sqrt(1.0 + pts[:, 2] ** 2)[:, None, None]
    return MatrixField(evaluator=ev, dim=3, name="ptilde")


def exp_ptilde(side: str, n: int = 128) -> MatrixField:
    """Normalized exponential e^{2 pi i ptilde} over one half-space.

    Coordinates are (x, y, v) with v in [0, 1] the compactified *outward*
    half-line coordinate, z = tan(pi v/2) on the plus side and
    z = -tan(pi v/2) on the minus side (the same outward orientation the 1D
    winding uses; the lift 1/sqrt(1+z^2) is even in z).  The field is exactly
    the identity on all six boundary faces of the box [-1.5, 1.5]^2 x [0, 1].
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    name = "exp_ptilde_plus" if side == "+" else "exp_ptilde_minus"
    dom = GridDomain((Axis(-1.5, 1.5, n, "constant"), Axis(-1.5, 1.5, n, "constant"),
                      Axis(0.0, 1.0, n, "constant")))

    def jet(pts):
        p, dp = _phat_jet(pts[:, 0], pts[:, 1])
        # chi = 2 pi / sqrt(1 + z^2) with z = -+tan(pi v/2): even in z.
        chi = TAU * np.cos(0.5 * math.pi * pts[:, 2])
        e = np.exp(1j * chi)
        # k = diag(conj(e), 1) divides out the value at (x, y)-infinity; a
        # diagonal right factor scales columns, so it is kept as its diagonal.
        kdiag = np.stack((np.conj(e), np.ones_like(e)), axis=-1)[:, None, :]
        gmat = np.eye(2)[None, :, :] + (e - 1.0)[:, None, None] * p
        d = np.empty((3,) + p.shape, dtype=complex)
        d[:2] = (e - 1.0)[:, None, None] * (dp * kdiag)
        dchi = -math.pi ** 2 * np.sin(0.5 * math.pi * pts[:, 2])
        dg = (1j * dchi * e)[:, None, None] * p
        dkdiag = np.stack((-1j * dchi * np.conj(e), np.zeros_like(e)), axis=-1)[:, None, :]
        d[2] = dg * kdiag + gmat * dkdiag
        return gmat * kdiag, d

    # phat is frozen outside the unit disk: there the x and y partials are
    # exactly 0, and so is the winding integrand Tr(A0 [A1, A2]).
    return MatrixField(evaluator=lambda pts: jet(pts)[0], dim=3, name=name, derivative=jet,
                       default_domain=dom, nonsmooth=_phat_nonsmooth,
                       support=lambda pts: np.hypot(pts[:, 0], pts[:, 1]) < 1.0)


def _phase_field(name: str, sign: float) -> MatrixField:
    # u(z) = exp(2 pi i (sign * z / sqrt(1+z^2))); derivative in closed form.
    def jet(pts):
        z = pts[:, 0]
        u = np.exp(1j * (TAU * sign * z / np.sqrt(1.0 + z * z)))
        dtheta = TAU * sign * (1.0 + z * z) ** -1.5
        return u[:, None, None], (1j * dtheta * u)[None, :, None, None]

    return MatrixField(evaluator=lambda pts: jet(pts)[0], dim=1, name=name, derivative=jet)


def uplus() -> MatrixField:
    """u_+(z) = e^{2 pi i (-z/sqrt(1+z^2))} on the positive half-line."""
    return _phase_field("uplus", -1.0)


def uminus() -> MatrixField:
    """u_-(z) = e^{2 pi i (+z/sqrt(1+z^2))} on the negative half-line."""
    return _phase_field("uminus", 1.0)


def u_gamma3() -> MatrixField:
    """The unitary [[e^{i(phi+t1)} cos t2, -sin t2], [sin t2, e^{-i(phi+t1)} cos t2]].

    Chart coordinates (theta1, theta2, phi); det = 1 identically.
    """
    def jet(pts):
        t1, t2, ph = pts[:, 0], pts[:, 1], pts[:, 2]
        e = np.exp(1j * (ph + t1))
        c, s = np.cos(t2), np.sin(t2)
        u = np.empty((len(pts), 2, 2), dtype=complex)
        u[:, 0, 0] = e * c
        u[:, 0, 1] = -s
        u[:, 1, 0] = s
        u[:, 1, 1] = np.conj(e) * c
        d = np.zeros((3, len(pts), 2, 2), dtype=complex)
        d[0, :, 0, 0] = 1j * e * c
        d[0, :, 1, 1] = -1j * np.conj(e) * c
        d[2] = d[0]  # theta1 and phi enter only through phi + theta1
        d[1, :, 0, 0] = -e * s
        d[1, :, 0, 1] = -c
        d[1, :, 1, 0] = c
        d[1, :, 1, 1] = -np.conj(e) * s
        return u, d

    return MatrixField(evaluator=lambda pts: jet(pts)[0], dim=3, name="u_gamma3",
                       derivative=jet)


def q_const() -> MatrixField:
    """The constant rank-1 projection diag(1, 0) on the plane."""
    def ev(pts):
        q = np.zeros((len(pts), 2, 2), dtype=complex)
        q[:, 0, 0] = 1.0
        return q
    return MatrixField(evaluator=ev, dim=2, name="q",
                       derivative=lambda pts: (ev(pts),
                                               np.zeros((2, len(pts), 2, 2), dtype=complex)))


def _uqu(t2, phase):
    """u q u^{-1} for the unitary of `u_gamma3` with phi + theta1 = phase, and
    the e^{i phase}, cos t2 and sin t2 it is built from."""
    e = np.exp(1j * phase)
    c, s = np.cos(t2), np.sin(t2)
    p = np.empty((len(t2), 2, 2), dtype=complex)
    p[:, 0, 0] = c ** 2
    p[:, 1, 1] = s ** 2
    p[:, 0, 1] = e * c * s
    np.conjugate(p[:, 0, 1], out=p[:, 1, 0])
    return p, e, c, s


def p_gamma3() -> MatrixField:
    """p = u q u^{-1}: the rank-1 projection onto the first column of u."""
    return MatrixField(evaluator=lambda pts: _uqu(pts[:, 1], pts[:, 2] + pts[:, 0])[0],
                       dim=3, name="p_gamma3")


def gamma3_disk(n: int = 512) -> MatrixField:
    """p restricted to the transverse disk, chart (theta2, phi) at theta1 = 0.

    theta2 in [0, pi/2] runs from the quotient circle (p = q there) to the
    complementary circle (p = diag(0,1)); phi is the angle around the disk.
    Both theta2 edges are exactly constant, so the Chern integral is the
    integer pairing against the plane factor; expected magnitude 1.
    """
    dom = GridDomain((Axis(0.0, 0.5 * math.pi, n, "constant"), Axis(0.0, TAU, n, "periodic")))

    def jet(pts):
        t2 = pts[:, 0]
        p, e, c, s = _uqu(t2, pts[:, 1])
        d = np.empty((2, len(pts), 2, 2), dtype=complex)
        np.sin(2 * t2, out=d[0, :, 1, 1])
        np.negative(d[0, :, 1, 1], out=d[0, :, 0, 0])
        d[0, :, 0, 1] = e * np.cos(2 * t2)
        d[1, :, 0, 0] = d[1, :, 1, 1] = 0.0
        d[1, :, 0, 1] = 1j * e * c * s
        np.conjugate(d[..., 0, 1], out=d[..., 1, 0])
        return p, d

    return MatrixField(evaluator=lambda pts: _uqu(pts[:, 0], pts[:, 1])[0], dim=2,
                       name="p_gamma3_disk", derivative=jet,
                       default_domain=dom)


def _constant_identity(size: int, name: str) -> MatrixField:
    dom = GridDomain((Axis(-1.0, 1.0, 16, "constant"), Axis(-1.0, 1.0, 16, "constant"),
                      Axis(0.0, 1.0, 16, "constant")))

    def ev(pts):
        return np.broadcast_to(np.eye(size, dtype=complex), (len(pts), size, size)).copy()

    return MatrixField(evaluator=ev, dim=3, name=name,
                       derivative=lambda pts: (ev(pts), np.zeros((3, len(pts), size, size),
                                                                 dtype=complex)),
                       default_domain=dom)


def trivial_lift_unit() -> MatrixField:
    """Normalized exponential of the lift of the unit class: identically 1."""
    return _constant_identity(1, "exp_lift_unit")


def trivial_lift_eps1() -> MatrixField:
    """Normalized exponential of the lift of the constant projection: identity."""
    return _constant_identity(2, "exp_lift_eps1")

