"""Tests for the witness fields' defining identities."""

import math

import numpy as np
import pytest

from mdlab.topology import Axis, GridDomain, expi_hermitian, projection_residual
from mdlab.witnesses import (
    exp_ptilde,
    gamma3_disk,
    phat,
    phat_disk,
    trivial_lift_eps1,
    trivial_lift_unit,
    u_gamma3,
    uplus,
)
from witness_fields import ptilde


def test_phat_boundary_values():
    f = phat()
    at_r1 = f(np.array([[1.0, 0.0], [0.0, -1.0], [math.sqrt(0.5), math.sqrt(0.5)]]))
    assert np.abs(at_r1 - np.diag([1.0, 0.0])).max() < 1e-12
    near0 = f(np.array([[1e-9, 0.0]]))[0]
    assert np.abs(near0 - np.diag([0.0, 1.0])).max() < 1e-8
    frozen = f(np.array([[2.0, 3.0]]))[0]
    assert np.array_equal(frozen, np.diag([1.0, 0.0]).astype(complex))


def test_phat_is_rank_one_projection():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (10_000, 2))
    assert projection_residual(phat(), pts) < 1e-10
    vals = phat()(pts)
    assert np.abs(np.trace(vals, axis1=1, axis2=2) - 1.0).max() < 1e-12


def test_u_gamma3_at_origin_is_diagonal_phase_pair():
    f = u_gamma3()
    phi = 0.77
    val = f(np.array([[0.0, 0.0, phi]]))[0]
    expected = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    assert np.abs(val - expected).max() < 1e-14


def test_u_gamma3_unitary_with_unit_determinant():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-math.pi / 2, math.pi / 2, (10_000, 3))
    u = u_gamma3()(pts)
    uu = u @ u.conj().transpose(0, 2, 1)
    assert np.abs(uu - np.eye(2)).max() < 1e-10
    assert np.abs(np.linalg.det(u) - 1.0).max() < 1e-10


def test_exp_of_lift_at_zero_height_is_identity():
    rng = np.random.default_rng(5)
    xy = rng.uniform(-2, 2, (5_000, 2))
    pts = np.concatenate([xy, np.zeros((len(xy), 1))], axis=1)
    vals = ptilde(pts)
    assert np.abs(expi_hermitian(vals, 2 * math.pi) - np.eye(2)).max() < 1e-10


def test_ptilde_decays_with_height():
    high = ptilde(np.array([[0.3, 0.1, 1e6]]))[0]
    assert np.abs(high).max() < 2e-6


def test_gamma3_disk_edges():
    f = gamma3_disk(64)
    phis = np.linspace(0.0, 2 * math.pi, 13)
    inner = f(np.stack([np.zeros(13), phis], axis=1))
    assert np.abs(inner - np.diag([1.0, 0.0])).max() < 1e-12
    outer = f(np.stack([np.full(13, math.pi / 2), phis], axis=1))
    assert np.abs(outer - np.diag([0.0, 1.0])).max() < 1e-12


@pytest.mark.parametrize("side", ["+", "-"])
def test_exp_ptilde_identity_on_faces(side):
    f = exp_ptilde(side, 32)
    dom = f.default_domain
    line = np.linspace(-1.4, 1.4, 7)
    for v_edge in (0.0, 1.0):
        pts = np.stack([line, line[::-1], np.full(7, v_edge)], axis=1)
        assert np.abs(f(pts) - np.eye(2)).max() < 1e-12
    for x_edge in (dom.axes[0].lo, dom.axes[0].hi):
        pts = np.stack([np.full(7, x_edge), line, np.linspace(0, 1, 7)], axis=1)
        assert np.abs(f(pts) - np.eye(2)).max() < 1e-12


def test_exp_ptilde_is_unitary():
    rng = np.random.default_rng(8)
    pts = np.stack([rng.uniform(-1.4, 1.4, 2000), rng.uniform(-1.4, 1.4, 2000),
                    rng.uniform(0, 1, 2000)], axis=1)
    g = exp_ptilde("+", 32)(pts)
    assert np.abs(g @ g.conj().transpose(0, 2, 1) - np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("side", ["+", "-"])
def test_exp_ptilde_is_special_unitary(side):
    # exp_ptilde applies its normalizing factor diag(conj(e), 1) as a column
    # scaling; a wrong factor would show as a det or unitarity defect.
    rng = np.random.default_rng(9)
    pts = np.stack([rng.uniform(-1.5, 1.5, 20_000), rng.uniform(-1.5, 1.5, 20_000),
                    rng.uniform(0, 1, 20_000)], axis=1)
    g = exp_ptilde(side, 32)(pts)
    assert np.abs(np.linalg.det(g) - 1.0).max() <= 1e-14
    assert np.abs(g.conj().transpose(0, 2, 1) @ g - np.eye(2)).max() <= 1e-14


@pytest.mark.parametrize("side, sign", [("+", 1.0), ("-", -1.0)])
def test_exp_ptilde_is_the_normalized_exponential_of_the_lift(side, sign):
    # A second route: e^{2 pi i ptilde} by eigendecomposition at
    # z = +-tan(pi v/2), times diag(conj(e^{2 pi i / sqrt(1 + z^2)}), 1).
    rng = np.random.default_rng(10)
    x, y = rng.uniform(-1.5, 1.5, (2, 2000))
    v = rng.uniform(0.0, 0.99, 2000)
    z = sign * np.tan(0.5 * math.pi * v)
    g = expi_hermitian(ptilde(np.stack([x, y, z], axis=1)), 2 * math.pi)
    g[:, :, 0] *= np.exp(-2j * math.pi / np.sqrt(1.0 + z * z))[:, None]
    assert np.abs(exp_ptilde(side, 16)(np.stack([x, y, v], axis=1)) - g).max() <= 1e-12


def test_the_two_half_space_fields_are_the_same_bits():
    # The lift is even in z, so the minus-side winding may reuse the plus side's.
    plus, minus = exp_ptilde("+", 16), exp_ptilde("-", 16)
    *lead_axes, last = (ax.midpoints() for ax in plus.default_domain.axes)
    lead = np.stack(np.meshgrid(*lead_axes, indexing="ij"), axis=-1).reshape(-1, 2)
    assert plus.default_domain == minus.default_domain
    for a, b in zip(plus.axis_jet(lead, last), minus.axis_jet(lead, last)):
        assert _bits(a) == _bits(b)


def test_uplus_values():
    f = uplus()
    z = np.array([[0.0], [1.0]])
    vals = f(z)[:, 0, 0]
    assert vals[0] == pytest.approx(1.0)
    expected = np.exp(2j * math.pi * (-1.0 / math.sqrt(2.0)))
    assert vals[1] == pytest.approx(expected, abs=1e-14)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("field", [
    phat(), phat_disk(64), exp_ptilde("+", 16), uplus(), u_gamma3(), gamma3_disk(64),
    trivial_lift_unit(), trivial_lift_eps1(),
], ids=lambda field: field.name)
def test_the_evaluator_gives_the_bits_of_the_derivative_values(field):
    # One witness of each factory in `mdlab.witnesses`.
    pts = np.random.default_rng(11).uniform(-2.0, 2.0, (500, field.dim))
    assert _bits(field(pts)) == _bits(field.derivative(pts)[0])


# Boxes in the charts of the witnesses that carry no domain.
_CHART_BOXES = {
    "phat": GridDomain((Axis(-1.5, 1.5, 24), Axis(-1.5, 1.5, 20))),
    "u_gamma3": GridDomain((Axis(0.0, 2 * math.pi, 16), Axis(0.0, 0.5 * math.pi, 20),
                            Axis(0.0, 2 * math.pi, 24))),
}


@pytest.mark.parametrize("field", [
    phat_disk(64), gamma3_disk(64), exp_ptilde("+", 16), exp_ptilde("-", 16), phat(),
    u_gamma3(),
], ids=lambda field: field.name)
def test_the_per_axis_jet_is_the_derivative_bit_for_bit(field):
    domain = field.default_domain or _CHART_BOXES[field.name]
    *lead_axes, last = (ax.midpoints() for ax in domain.axes)
    lead = np.stack(np.meshgrid(*lead_axes, indexing="ij"), axis=-1).reshape(-1, field.dim - 1)
    leads = [lead]
    if field.support is not None:
        # The per-axis contract: the support reads the leading coordinates only.
        inside = field.support(np.array([[*point, z] for point in lead for z in last]))
        inside = inside.reshape(len(lead), len(last))
        assert np.all(inside == inside[:, :1]) and 0 < inside.sum() < inside.size
        leads.append(lead[inside[:, 0]])
    for lead in leads:
        values, partials = field.axis_jet(lead, last)
        pts = np.array([[*point, z] for point in lead for z in last])
        want_values, want_partials = field.derivative(pts)
        size = want_values.shape[-1]
        assert values.shape == (size, size, len(pts))
        assert partials.shape == (size, size, field.dim, len(pts))
        assert _bits(np.moveaxis(values, -1, 0)) == _bits(want_values)
        assert _bits(np.moveaxis(partials, (0, 1), (-2, -1))) == _bits(want_partials)
        # Given buffers, NaN before the call, the jet fills every entry with
        # the bytes it returns fresh, and returns views of them.
        out = np.full(values.shape, np.nan + 0j), np.full(partials.shape, np.nan + 0j)
        filled = field.axis_jet(lead, last, out)
        assert all(np.shares_memory(a, b) for a, b in zip(filled, out))
        assert _bits(filled[0]) == _bits(values) and _bits(filled[1]) == _bits(partials)
