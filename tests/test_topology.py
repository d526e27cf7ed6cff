"""Tests for the quadrature detectors."""

import dataclasses
import math
import platform

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdlab import invariants, topology
from mdlab.topology import (
    Axis,
    BoundaryConditionError,
    GridDomain,
    MatrixField,
    NonInvertibleFieldError,
    ResidualError,
    _finish,
    _sigma_min2,
    chern_2d,
    expi_hermitian,
    projection_residual,
    winding_1d,
    winding_3d,
)
from mdlab.invariants import _const_one_line
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
from reference_routes import derivative_check
from witness_fields import q_const, uminus


def test_axis_validation():
    with pytest.raises(ValueError, match=">= 16"):
        Axis(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="lo < hi"):
        Axis(1.0, 0.0, 32)
    for tag in ("weird", "decay"):
        with pytest.raises(ValueError, match="tag"):
            Axis(0.0, 1.0, 32, tag)
    ax = Axis(0.0, 1.0, 32)
    assert ax.step == pytest.approx(1 / 32)
    assert len(ax.midpoints()) == 32


def test_winding_reference_phases():
    r = winding_1d(uplus(), "+")
    assert r.rounded == 1 and r.residual < 1e-6
    r = winding_1d(uminus(), "-")
    assert r.rounded == 1 and r.residual < 1e-6


def _line_field(name: str, jet) -> MatrixField:
    """The 1x1 field on a line whose value and derivative at the points z are jet(z)."""
    def entry_major(z, out=None):
        u, du = jet(z)
        return u[None, None], du[None, None, None]

    return MatrixField.from_jet(entry_major, 1, name)


def test_winding_constant_is_zero():
    const = _line_field("const", lambda z: (np.full(z.shape, 2.0 + 0j),
                                            np.zeros(z.shape, complex)))
    assert winding_1d(const, "+").rounded == 0


def _phase_jet(base: MatrixField):
    """The value and derivative of the 1x1 field base at the points z."""
    def jet(z):
        u, du = base.derivative(z[:, None])
        return u[:, 0, 0], du[0, :, 0, 0]

    return jet


def _phase_power(base: MatrixField, k: int) -> MatrixField:
    def jet(z):
        u, du = _phase_jet(base)(z)
        return u ** k, k * u ** (k - 1) * du

    return _line_field(f"{base.name}^{k}", jet)


def test_winding_additivity_under_products():
    up = uplus()
    assert winding_1d(_phase_power(up, 2), "+").rounded == 2

    def jet(z):
        u, du = _phase_jet(up)(z)
        return u ** 2 * u, 3 * u ** 2 * du

    assert winding_1d(_line_field("u3", jet), "+").rounded == 3


def test_winding_rejects_singular_field():
    # z vanishes at z = 0.
    f = _line_field("z", lambda z: (z.astype(complex), np.ones(z.shape, complex)))
    with pytest.raises(NonInvertibleFieldError):
        winding_1d(f, "+")


def test_winding_rejects_mismatched_limits():
    # -1 at 0, +1 at infinity.
    f = _line_field("moebius", lambda z: ((z - 1j) / (z + 1j), 2j / (z + 1j) ** 2))
    with pytest.raises(BoundaryConditionError, match="limits"):
        winding_1d(f, "+")


def test_winding_1d_nan_derivative_stops_the_recursion():
    # Without the NaN stop every branch through (0.3, 0.31) recursed to depth
    # 40: over 1e6 derivative calls in 60 s.
    up = uplus()

    def derivative(pts):
        vals, out = up.derivative(pts)
        out[:, (pts[:, 0] > 0.3) & (pts[:, 0] < 0.31)] = np.nan
        return vals, out

    with pytest.raises(ResidualError, match="not finite"):
        winding_1d(dataclasses.replace(up, derivative=derivative), "+")


def test_chern_calibration_charge():
    r = chern_2d(phat_disk(128))
    assert r.rounded == 1
    assert r.residual < 1e-3


def test_chern_cartesian_chart_agrees():
    dom = GridDomain((Axis(-1.5, 1.5, 384, "constant"), Axis(-1.5, 1.5, 384, "constant")))
    r = chern_2d(dataclasses.replace(phat(), default_domain=dom))
    assert r.rounded == 1


def test_chern_constant_projection_is_zero():
    dom = GridDomain((Axis(-1.0, 1.0, 64, "constant"), Axis(-1.0, 1.0, 64, "constant")))
    r = chern_2d(dataclasses.replace(q_const(), default_domain=dom))
    assert r.rounded == 0 and abs(r.raw) < 1e-12


def test_chern_gamma3_disk_charge():
    r = chern_2d(gamma3_disk(128))
    assert abs(r.rounded) == 1
    assert r.residual < 1e-3


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_both_disks_read_their_closed_form_with_its_sign(n):
    # Both integrands are +-(pi/2) sin(pi r) in the radial coordinate alone, and
    # the midpoint sum of sin(pi (i + 1/2) / n) is 1 / sin(pi / (2n)), so the raw
    # values are +-x / sin x with x = pi / (2n): the calibration disk +, the
    # F3 disk -.
    x = math.pi / (2 * n)
    closed = x / math.sin(x)
    for field, sign in ((phat_disk(n), 1.0), (gamma3_disk(n), -1.0)):
        assert abs(chern_2d(field).raw - sign * closed) <= 4 * math.ulp(closed)


def test_chern_refinement_stability():
    coarse = chern_2d(phat_disk(64)).raw
    fine = chern_2d(phat_disk(128)).raw
    assert abs(fine - coarse) < 1e-2


def test_chern_rejects_nonconstant_boundary():
    dom = GridDomain((Axis(-0.8, 0.8, 64, "constant"), Axis(-0.8, 0.8, 64, "constant")))
    with pytest.raises(BoundaryConditionError, match="boundary variation"):
        chern_2d(dataclasses.replace(phat(), default_domain=dom))


def test_chern_rejects_non_projection():
    base = gamma3_disk(64)

    def jet(pts):
        vals, partials = base.derivative(pts)
        return 0.5 * vals, 0.5 * partials

    def axis_jet(lead, last, out=None):
        vals, partials = base.axis_jet(lead, last, out)
        return 0.5 * vals, 0.5 * partials

    bad = dataclasses.replace(base, name="half", evaluator=lambda pts: 0.5 * base.evaluator(pts),
                              derivative=jet, axis_jet=axis_jet)
    with pytest.raises(ValueError, match="projection residual|boundary"):
        chern_2d(bad)


def test_half_disk_residual_is_flagged():
    # Integrating over half the theta2 range leaves charge 1/2: not an integer.
    field = gamma3_disk(64)
    dom = GridDomain((Axis(0.0, math.pi / 4, 64, "constant"), Axis(0.0, 2 * math.pi, 64,
                                                                   "periodic")))
    with pytest.raises((ResidualError, BoundaryConditionError)):
        chern_2d(dataclasses.replace(field, default_domain=dom))


def test_winding3d_identity_field_is_zero():
    assert winding_3d(trivial_lift_unit()).raw == 0.0
    assert winding_3d(trivial_lift_eps1()).raw == 0.0


@pytest.mark.parametrize("side", ["+", "-"])
def test_winding3d_half_space_witnesses(side):
    r = winding_3d(exp_ptilde(side, 32))
    assert r.rounded == 1
    assert r.residual < 5e-3


def test_winding3d_refinement_stability():
    coarse = winding_3d(exp_ptilde("+", 24)).raw
    fine = winding_3d(exp_ptilde("+", 48)).raw
    assert abs(fine - coarse) < 1e-2


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), sum_points=st.integers(1, 5000),
       block=st.integers(1, 5000))
def test_grid_integrals_are_independent_of_the_chunking(dim, sum_points, block):
    # By default the 64^2 and 16^3 grids fill one buffer of SUM_POINTS points;
    # however the blocks and buffers split the grid, the sum keeps its bits.
    integral, field = {2: (chern_2d, phat_disk(64)), 3: (winding_3d, exp_ptilde("+", 16))}[dim]
    default = repr(integral(field).raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "SUM_POINTS", sum_points)
        mp.setattr(topology, "BLOCK_POINTS", block)
        assert repr(integral(field).raw) == default


def test_winding3d_rejects_bad_boundary():
    dom = GridDomain((Axis(-1.0, 1.0, 16),) * 3)
    bad = dataclasses.replace(u_gamma3(), name="u_box", default_domain=dom)
    with pytest.raises(BoundaryConditionError, match="enlarge"):
        winding_3d(bad)


def _product(lead, last):
    """The points of a per-axis jet call: (lead[i], last[j]) at i * len(last) + j."""
    return np.array([[*point, z] for point in lead for z in last]).reshape(-1, lead.shape[1] + 1)


def _nan_at(field, point, part="value", value=np.nan):
    """field, except that its value (or its partials) at one point is NaN (or value).

    A value is changed in the evaluator, the jet and the per-axis jet alike,
    as the field's own value; partials are changed in both jets.
    """
    def mark(pts, out):
        out[..., np.all(pts == point, axis=1), :, :] = value
        return out

    def jet(pts):
        vals, partials = field.derivative(pts)
        if part == "value":
            return mark(pts, vals), partials
        return vals, mark(pts, partials)

    def axis_jet(lead, last, out=None):
        vals, partials = field.axis_jet(lead, last, out)
        (vals if part == "value" else partials)[..., np.all(_product(lead, last) == point,
                                                            axis=1)] = value
        return vals, partials

    changes = {"derivative": jet, "axis_jet": axis_jet}
    if part == "value":
        changes["evaluator"] = lambda pts: mark(pts, field.evaluator(pts))
    return dataclasses.replace(field, **changes)


_DISK_MIDPOINT = [ax.midpoints()[0] for ax in phat_disk(64).default_domain.axes]
_BOX_MIDPOINT = [ax.midpoints()[7] for ax in exp_ptilde("+", 16).default_domain.axes]
_GUARD_POINT = [np.geomspace(1e-6, 1e6, 97)[40]]  # one of winding_1d's invertibility guard points


@pytest.mark.parametrize("integral, field, error, match", [
    (chern_2d, _nan_at(phat_disk(64), [0.0, 0.0]), BoundaryConditionError,
     "boundary variation"),
    (chern_2d, _nan_at(phat_disk(64), _DISK_MIDPOINT), ValueError, "projection residual"),
    (winding_3d, _nan_at(trivial_lift_eps1(), [-1.0, -1.0, 0.0]), BoundaryConditionError,
     "boundary-identity"),
    (chern_2d, _nan_at(phat_disk(64), _DISK_MIDPOINT, "partials"), ResidualError,
     "not finite"),
    (winding_3d, _nan_at(exp_ptilde("+", 16), _BOX_MIDPOINT, "partials"), ResidualError,
     "not finite"),
    (lambda raw: _finish(raw, 0.0, (16,), "inf"), complex(math.inf, 0.0), ResidualError,
     "not finite"),
    (winding_3d, _nan_at(exp_ptilde("+", 16), _BOX_MIDPOINT), NonInvertibleFieldError,
     "min singular value nan"),
    (winding_1d, _nan_at(uplus(), _GUARD_POINT), NonInvertibleFieldError,
     "min singular value nan"),
], ids=["edge_constancy", "projection", "boundary_identity", "chern_derivative",
        "winding_3d_derivative", "finish_inf", "winding_3d_value", "winding_1d"])
def test_nan_at_one_point_fails_the_guard(integral, field, error, match):
    with pytest.raises(error, match=match):
        integral(field)


def test_zero_matrix_at_one_point_fails_the_singular_value_floor():
    zero_at = _nan_at(exp_ptilde("+", 16), _BOX_MIDPOINT, value=0.0)
    with pytest.raises(NonInvertibleFieldError, match="min singular value 0 on the grid"):
        winding_3d(zero_at)


def _block_3x3(field, corner):
    """field's 2x2 values (and partials) in a 3x3 block matrix, corner entry fixed."""
    def pad(vals):
        out = np.zeros(vals.shape[:-2] + (3, 3), complex)
        out[..., :2, :2] = vals
        return out

    def with_corner(vals):
        out = pad(vals)
        out[..., 2, 2] = corner
        return out

    def jet(pts):
        vals, partials = field.derivative(pts)
        return with_corner(vals), pad(partials)

    def entry_major(fn, stack):
        return np.moveaxis(fn(np.moveaxis(stack, (0, 1), (-2, -1))), (-2, -1), (0, 1))

    def axis_jet(lead, last, out=None):
        # The 2x2 jet fills no 3x3 buffers; the padded blocks are fresh.
        vals, partials = field.axis_jet(lead, last)
        return entry_major(with_corner, vals), entry_major(pad, partials)

    return dataclasses.replace(field, name=f"{field.name}_3x3", derivative=jet, axis_jet=axis_jet,
                               evaluator=lambda pts: with_corner(field.evaluator(pts)))


def test_grid_integrals_refuse_fields_larger_than_2x2():
    # A 3x3 identity and a 3x3 projection pass every boundary guard; the
    # closed-form kernels would integrate garbage, so the size is refused.
    with pytest.raises(ValueError, match="exp_lift_eps1_3x3: 3x3 values"):
        winding_3d(_block_3x3(trivial_lift_eps1(), 1.0))
    with pytest.raises(ValueError, match="phat_disk_3x3: 3x3 values"):
        chern_2d(_block_3x3(phat_disk(64), 0.0))
    # So does the σ_min guard of winding_1d, which uses the same kernel.
    eye3 = MatrixField.constant(np.eye(3), 1, "eye3")
    with pytest.raises(ValueError, match="eye3: 3x3 values"):
        winding_1d(eye3)


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    for field, box in [
        (phat(), [(-2, 2), (-2, 2)]),
        (phat_disk(64), [(0.05, 0.95), (0, 6.2)]),
        (exp_ptilde("+", 24), [(-1.4, 1.4), (-1.4, 1.4), (0.05, 0.95)]),
        (exp_ptilde("-", 24), [(-1.4, 1.4), (-1.4, 1.4), (0.05, 0.95)]),
        (gamma3_disk(64), [(0.05, 1.5), (0, 6.2)]),
        (uplus(), [(0.1, 5.0)]),
        (uminus(), [(-5.0, -0.1)]),
        (u_gamma3(), [(-1.5, 1.5)] * 3),
        (q_const(), [(-1, 1)] * 2),
        (trivial_lift_unit(), [(-1, 1), (-1, 1), (0, 1)]),
        (trivial_lift_eps1(), [(-1, 1), (-1, 1), (0, 1)]),
        (_const_one_line(), [(-5, 5)]),
    ]:
        pts = np.stack([rng.uniform(lo, hi, 200) for lo, hi in box], axis=1)
        size = field(pts).shape[-1]
        values, partials = field.derivative(pts)
        assert np.array_equal(values, field(pts)), field.name
        assert partials.shape == (field.dim, len(pts), size, size), field.name
        assert derivative_check(field, pts) < 1e-6, field.name


def _counting(field):
    """field with its evaluator, derivative and per-axis jet counting the points they give."""
    seen = [0]

    def count(fn):
        def counted(pts):
            seen[0] += len(pts)
            return fn(pts)
        return counted

    def axis_jet(lead, last, out=None):
        seen[0] += len(lead) * len(last)
        return field.axis_jet(lead, last, out)

    return dataclasses.replace(field, evaluator=count(field.evaluator),
                               derivative=count(field.derivative), axis_jet=axis_jet), seen


def _grid(domain):
    axes = np.meshgrid(*(ax.midpoints() for ax in domain.axes), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, domain.dim)


@pytest.mark.parametrize("integral, field, fixed", [
    # 4 boundary faces of 17 points; 64 derivative-check samples at 1 + 2 * 2 points each.
    (chern_2d, phat_disk(64), 4 * 17 + 64 * 5),
    # 6 boundary faces of 17**2 points; at most 48 derivative-check samples at
    # 1 + 2 * 3 points each and 512 support-check samples.
    (winding_3d, exp_ptilde("+", 16), 6 * 17 ** 2 + 48 * 7 + 512),
], ids=["chern_2d", "winding_3d"])
def test_integrals_evaluate_each_grid_point_in_the_support_once(integral, field, fixed):
    counted, seen = _counting(field)
    mesh = _grid(field.default_domain)
    needed = len(mesh) if field.support is None else int(field.support(mesh).sum())
    integral(counted)
    assert seen[0] <= needed + fixed


def test_a_constant_field_is_integrated_without_a_grid_point():
    # A constant field's support is empty.  6 boundary faces of 17**2 points;
    # 48 derivative-check samples at 1 + 2 * 3 points each and 512 support-check
    # samples, and none of the 16**3 grid points.
    counted, seen = _counting(trivial_lift_eps1())
    assert winding_3d(counted).raw == 0.0
    assert seen[0] == 6 * 17 ** 2 + 48 * 7 + 512


def test_a_constant_field_with_nonzero_partials_is_refused():
    # Pauli partials at g = 1: Tr(A0 [A1, A2]) = Tr(sx [sy, sz]) = 4i at every
    # point, which the empty support declares to be 0.
    field = trivial_lift_eps1()
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

    def jet(pts):
        values, partials = field.derivative(pts)
        partials[...] = pauli[:, None]
        return values, partials

    with pytest.raises(ValueError, match="exp_lift_eps1: integrand up to 4 outside the "
                                         "declared support"):
        winding_3d(dataclasses.replace(field, derivative=jet))


def test_one_f2_index_call_winds_over_the_half_spaces_once(monkeypatch):
    # exp_ptilde("-") is exp_ptilde("+") under another name, so the plus-side
    # winding is reported for both half-spaces.
    fields, wound = [], []

    def counted_exp_ptilde(side, n=128):
        fields.append(_counting(exp_ptilde(side, n)))
        return fields[-1][0]

    def named_winding_3d(field):
        wound.append(field.name)
        return winding_3d(field)

    monkeypatch.setattr(invariants, "exp_ptilde", counted_exp_ptilde)
    monkeypatch.setattr(invariants, "winding_3d", named_winding_3d)
    res = invariants.index_invariant("F2", 64, 16)
    assert wound == ["exp_lift_unit", "exp_lift_eps1", "exp_ptilde_plus"]
    once, seen_once = _counting(exp_ptilde("+", 16))
    winding_3d(once)
    assert sum(seen[0] for _, seen in fields) == seen_once[0]
    plus, minus = res.integrals["exp_ptilde_plus"], res.integrals["exp_ptilde_minus"]
    assert minus == {**plus, "witness": "exp_ptilde_minus"}
    assert res.gamma2 == [[1], [1]]


def _radius_below(limit):
    return lambda pts: np.hypot(pts[:, 0], pts[:, 1]) < limit


def test_a_support_that_cuts_off_a_nonzero_integrand_is_refused():
    # phat varies up to r = 1, so for 0.9 <= r < 1 the integrand is not 0.
    narrow = dataclasses.replace(exp_ptilde("+", 16), support=_radius_below(0.9))
    with pytest.raises(ValueError, match="exp_ptilde_plus: integrand up to .* outside the "
                                         "declared support"):
        winding_3d(narrow)


@pytest.mark.parametrize("n, slabs", [(16, 8), (16, 1), (24, 8)])
def test_the_support_skip_leaves_the_raw_integral_unchanged(n, slabs):
    # Buffers of `slabs` n x n slabs; with one slab per buffer at 16^3, the
    # slabs with |x| > 1 put no point into any buffer.
    field = exp_ptilde("+", n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "SUM_POINTS", slabs * n * n)
        skipped = winding_3d(field).raw
        full = winding_3d(dataclasses.replace(field, support=None)).raw
    assert repr(skipped) == repr(full)


_ROUTE_CASES = ([(winding_3d, exp_ptilde(side, n)) for n in (16, 24) for side in "+-"]
                + [(chern_2d, disk(n)) for n in (64, 128) for disk in (phat_disk, gamma3_disk)])


@pytest.mark.parametrize("integral, field", _ROUTE_CASES,
                         ids=[f"{f.name}_{f.default_domain.axes[0].n}" for _, f in _ROUTE_CASES])
def test_the_per_axis_jet_and_the_blocks_leave_the_raw_integral_unchanged(integral, field):
    # The grid is summed by one exact sum, so the block size may not move the
    # raw value by an ulp.
    default = repr(integral(field).raw)
    one_slab = math.prod(field.default_domain.shape()[1:])
    for block in (one_slab, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "BLOCK_POINTS", block)
            assert repr(integral(field).raw) == default


def test_each_chunk_is_summed_by_one_exact_sum_whatever_the_block_size():
    # On the 16 x 16 grid each row is 1e20, with a sign that alternates from
    # row to row, at its first point and 1 at its 15 others.  One exact sum
    # over the grid cancels the 1e20s and keeps the 240 ones; a sum rounded
    # per row, or per block or buffer of rows, would lose them.
    domain = GridDomain((Axis(0.0, 1.0, 16), Axis(0.0, 1.0, 16)))
    first = domain.axes[1].midpoints()[0]

    def jet(x, y, out=None):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        if out is None:
            out = np.empty((1, 1) + shape, complex), np.empty((1, 1, 2) + shape, complex)
        big = np.where(np.floor(16 * x) % 2 == 0, 1e20, -1e20)
        out[0][0, 0] = np.where(y == first, big, 1.0)
        out[1][...] = 0.0
        return out

    field = MatrixField.from_jet(jet, 2, "rows")
    guards = topology._Guards(field, domain, [], 0)
    for block in (topology.BLOCK_POINTS, 48, 16, 1):
        for sum_points in (topology.SUM_POINTS, 64, 16, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(topology, "BLOCK_POINTS", block)
                mp.setattr(topology, "SUM_POINTS", sum_points)
                assert topology._grid_sum(field, domain, lambda v, p, scratch: v[0, 0],
                                          guards, {}) == 240


def _fsum_complex(values) -> complex:
    """math.fsum of each part: the correctly rounded sum the exact levels must give."""
    values = np.asarray(values)
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def _levels_sum_complex(values, split=None) -> complex:
    """math.fsum of each part's `_exact_levels`, those of values[:split] beside values[split:]."""
    pieces = [values] if split is None else [values[:split], values[split:]]
    real = [level for piece in pieces for level in topology._exact_levels(piece.real)]
    imag = [level for piece in pieces for level in topology._exact_levels(piece.imag)]
    return complex(math.fsum(real), math.fsum(imag))


def _outcome(summed, values):
    """repr of the sum, or the type of the exception it raises."""
    try:
        return repr(summed(values))
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _complex_view(real, imag, stride):
    """real + i imag as every stride-th entry of a NaN-filled buffer."""
    n = max(len(real), len(imag))
    buffer = np.full(n * stride, complex(math.nan, math.nan))
    view = buffer[::stride]
    view.real = np.pad(real, (0, n - len(real)))
    view.imag = np.pad(imag, (0, n - len(imag)))
    return view


# Magnitudes from 1e-300 to 1e300, subnormals and signed zeros, and multiples of
# 1/8 next to 2^53, whose sums fall half-way between two floats.
_finite = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.floats(-2.3e-308, 2.3e-308),
    st.builds(lambda k, e: k / 8 * 2.0 ** e, st.integers(-2 ** 20, 2 ** 20), st.integers(-8, 56)),
    st.sampled_from([0.0, -0.0, 2.0 ** 53, 1.0, 0.5, -2.0 ** 53]))


@settings(max_examples=400, deadline=None)
@given(real=st.lists(_finite, max_size=40), imag=st.lists(_finite, max_size=40),
       cancel=st.integers(0, 40), stride=st.sampled_from([1, 2, 3]), split=st.integers(0, 80))
# 2^53 + 1 is half-way between two floats and only the third level's 2^-60
# breaks the tie upwards, so the total must be rounded once, not level by level.
@example(real=[2.0 ** 53, 1.0, 2.0 ** -60], imag=[], cancel=0, stride=1, split=0)
# The same tie split across two pieces: 2^53 alone, then 1 and 2^-60.
@example(real=[2.0 ** 53, 1.0, 2.0 ** -60], imag=[], cancel=0, stride=1, split=1)
# A part of only +-0 is skipped beside one that takes every level from 2^1000
# down to the least subnormal.
@example(real=[0.0, -0.0, -0.0, 0.0], imag=[2.0 ** -1074, 2.0 ** 1000, -3 * 2.0 ** -1074, 1.0],
         cancel=0, stride=2, split=0)
# With sigma = 4, 4 + (1 + 2^-51) is a tie, so both remainders are 2^-51, the
# first level's bound ulp(sigma)/2 itself; the second level starts there.
@example(real=[1 + 2.0 ** -51, 1 + 2.0 ** -51], imag=[], cancel=0, stride=1, split=0)
# One value: headroom 0, and sigma = 1 just above |1 - 2^-53|.
@example(real=[-(1 - 2.0 ** -53)], imag=[2.0 ** -1074], cancel=0, stride=1, split=0)
def test_the_exact_chunk_sum_has_the_bits_of_fsum(real, imag, cancel, stride, split):
    # Appending the negatives of a prefix makes exact cancellations.  The
    # levels of the values, or of two pieces of them side by side, give the
    # bits of math.fsum over all of them.
    real = real + [-v for v in real[:cancel]]
    imag = imag + [-v for v in imag[:cancel]]
    values = _complex_view(real, imag, stride)
    for piece in (None, split):
        assert repr(_levels_sum_complex(values, piece)) == repr(_fsum_complex(values))


@settings(max_examples=200, deadline=None)
@given(real=st.lists(st.one_of(_finite, st.sampled_from([math.nan, math.inf, -math.inf,
                                                          1e308, -1e308, 1.7e308])),
                     max_size=8),
       imag=st.lists(_finite, max_size=8))
def test_the_exact_chunk_sum_fails_as_fsum_on_non_finite_and_overflowing_values(real, imag):
    # NaN gives NaN, inf + (-inf) raises ValueError and a finite overflow OverflowError.
    for values in (_complex_view(real, imag, 1), _complex_view(imag, real, 2)):
        assert _outcome(_levels_sum_complex, values) == _outcome(_fsum_complex, values)


def test_warm_grid_integrals_fault_in_no_block_memory():
    # Each integral reuses one scratch allocation for every block.  Two calls
    # warm it: glibc's malloc mmaps the first one's scratch and, freeing it,
    # raises its mmap threshold; the second grows the heap once, and later
    # calls take the scratch from there.  Blocks that freed their
    # temporaries took about 2 300 and 770 minor faults per warm call.
    resource = pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the fault counts are those of glibc's malloc")
    for integral, field in [(chern_2d, phat_disk(512)), (winding_3d, exp_ptilde("+", 32))]:
        integral(field)
        integral(field)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        integral(field)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 200, (field.name, faults)


# The plus-side windings at 20^3, 28^3 and 32^3 too: at 28^3, one sum rounded
# per 8 slabs read 2 ulp above the sum over the whole grid.
_SUM_CASES = (_ROUTE_CASES + [(chern_2d, phat_disk(512))]
              + [(winding_3d, exp_ptilde("+", n)) for n in (20, 28, 32)])


@pytest.mark.parametrize("integral, field", _SUM_CASES,
                         ids=[f"{f.name}_{f.default_domain.axes[0].n}" for _, f in _SUM_CASES])
def test_the_exact_chunk_sum_leaves_the_raw_integral_as_fsum_gave_it(integral, field):
    # With `_exact_levels` handing on the values themselves, math.fsum sums
    # every integrand value of the grid; the field loses its support, so that
    # every grid point is there.
    exact = repr(integral(field).raw)
    seen = []

    def values(part):
        seen.append(len(part))
        return part.tolist()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_exact_levels", values)
        assert repr(integral(dataclasses.replace(field, support=None)).raw) == exact
    assert sum(seen) == 2 * math.prod(field.default_domain.shape())  # real and imaginary


def test_the_singular_value_floor_covers_the_support_check_points():
    # Outside the disk the x and y partials vanish, so a value scaled to
    # sigma_min = 1e-8 leaves the integrand 0 and only the floor refuses it.
    field = exp_ptilde("+", 16)
    sample = topology._interior_points(field.default_domain, 512, 1)
    point = sample[~field.support(sample)][0]

    def jet(pts):
        vals, partials = field.derivative(pts)
        vals[np.all(pts == point, axis=1)] *= 1e-8
        return vals, partials

    with pytest.raises(NonInvertibleFieldError, match="min singular value 1e-08"):
        winding_3d(dataclasses.replace(field, derivative=jet))


def test_projection_and_singular_value_helpers():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (500, 2))
    assert projection_residual(phat(), pts) < 1e-12
    zpts = rng.uniform(0.1, 5.0, (100, 1))
    assert _sigma_min2(np.moveaxis(uplus()(zpts), 0, -1)).min() == pytest.approx(1.0, abs=1e-12)


def test_expi_hermitian_matches_projection_identity():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, (200, 2))
    p = phat()(pts)
    assert np.abs(expi_hermitian(p, 2 * math.pi) - np.eye(2)).max() < 1e-12


def _box_domain(n):
    return GridDomain((Axis(-1.0, 1.0, n), Axis(-1.0, 1.0, n), Axis(0.0, 1.0, n)))


# Every witness of the grid integrals at two grids each: (integral, field,
# derivative-check sample size).
_GUARD_CASES = ([(chern_2d, disk(n), 64) for disk in (phat_disk, gamma3_disk) for n in (64, 128)]
                + [(winding_3d, exp_ptilde(side, n), 48) for side in "+-" for n in (16, 24)]
                + [(winding_3d, dataclasses.replace(lift(), default_domain=_box_domain(n)), 48)
                   for lift in (trivial_lift_unit, trivial_lift_eps1) for n in (16, 24)])


def _winding_integrand(values, partials):
    """Tr(A0 [A1, A2]) with A = g^-1 dg, from separate (N, k, k) and (dim, N, k, k) jets."""
    g, dg = topology._entry_major(values, partials)
    a = topology._mul2(topology._inv2(g), dg)
    return topology._trace_commutator2(a[:, :, 0], a[:, :, 1], a[:, :, 2])


@pytest.mark.parametrize("integral, field, n", _GUARD_CASES,
                         ids=[f"{f.name}_{f.default_domain.axes[0].n}" for _, f, _ in _GUARD_CASES])
def test_the_guards_read_the_values_of_separate_calls(integral, field, n):
    # One derivative call gives every guard its points; each guard must read
    # what separate public calls on its own points give.
    domain = field.default_domain
    res = integral(field)
    if integral is chern_2d:
        faces = field(topology._face_points(domain, range(2)))
        assert res.boundary_residual == topology._edge_constancy(faces, domain)
    else:
        faces = field(topology._face_points(domain, range(3)))
        assert res.boundary_residual == float(np.abs(faces - np.eye(faces.shape[-1])).max())
    sample = topology._interior_points(domain, n, 0)
    assert res.extra["derivative_check"] == derivative_check(field, sample)
    if field.support is not None:
        outside = topology._interior_points(domain, 512, 1)
        outside = outside[~field.support(outside)]
        assert len(outside)
        # The integral passed the leak check, so separate calls must see no leak.
        assert np.all(_winding_integrand(*field.derivative(outside)) == 0.0)


def _counting_calls(field):
    """field whose evaluator and derivative record the number of points of each call."""
    calls = {"evaluator": [], "derivative": []}

    def count(name, fn):
        def counted(pts):
            calls[name].append(len(pts))
            return fn(pts)
        return counted

    return dataclasses.replace(field, evaluator=count("evaluator", field.evaluator),
                               derivative=count("derivative", field.derivative)), calls


@pytest.mark.parametrize("integral, field", [
    (chern_2d, phat_disk(64)), (chern_2d, gamma3_disk(64)),
    (winding_3d, exp_ptilde("+", 16)), (winding_3d, exp_ptilde("-", 24)),
    (winding_3d, trivial_lift_unit()), (winding_3d, trivial_lift_eps1()),
], ids=["phat_disk", "gamma3_disk", "exp_ptilde_plus", "exp_ptilde_minus", "exp_lift_unit",
        "exp_lift_eps1"])
def test_the_guards_take_one_jet_call_and_no_evaluator_call(integral, field):
    # The grid runs on the per-axis jet, so the one derivative call is the guards'.
    counted, calls = _counting_calls(field)
    integral(counted)
    assert len(calls["evaluator"]) == 0 and len(calls["derivative"]) == 1


def test_winding_1d_and_derivative_check_take_their_points_from_one_jet_call():
    # winding_1d: its 97 guard points and 2 limit points, then the three nodes
    # of the whole interval, then one call per Simpson level for the nodes that
    # level adds, two per split interval: the 253 nodes of the depth-first
    # recursion in 9 calls, where it took one call per node.
    # derivative_check: the points and their ±FD_STEP shifts.
    counted, calls = _counting_calls(uplus())
    assert winding_1d(counted).rounded == 1
    assert calls["evaluator"] == [] and calls["derivative"][:2] == [97 + 2, 3]
    levels = calls["derivative"][2:]
    assert len(levels) == 8 and levels[0] == 2 and all(n % 2 == 0 for n in levels)
    assert 3 + sum(levels) == 253
    counted, calls = _counting_calls(phat_disk(64))
    pts = topology._interior_points(counted.default_domain, 10, 0)
    assert derivative_check(counted, pts) == derivative_check(phat_disk(64), pts)
    assert calls == {"evaluator": [], "derivative": [10 * (1 + 2 * 2)]}


def _recursive_simpson(g, a, b, tol):
    """Depth-first adaptive Simpson, one scalar g call per node: the reference
    whose sums `topology._adaptive_simpson` must add in the same tree."""
    def rec(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth <= 0 or not abs(delta) > 15.0 * tol:
            return left + right + delta / 15.0
        return (rec(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
                + rec(m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1))

    fa, fb, m = g(a), g(b), 0.5 * (a + b)
    fm = g(m)
    return rec(a, fa, b, fb, m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 40)


@pytest.mark.parametrize("g, b, tol", [
    (lambda w: np.exp(12j * w) / (1.0 + w), 1.0, 1e-10),
    (lambda w: np.sqrt(w) + 0j, 1.0, 1e-12),  # splits deep near 0 only
    (lambda w: 1.0 / (1.0 - w + 1e-3) + 1j * w, 1.0 - 1e-12, 1e-8),
    (lambda w: np.cos(w) + 0j, 2.0, 1.0),  # one level
])
def test_level_by_level_simpson_keeps_every_bit_of_the_recursion(g, b, tol):
    got = topology._adaptive_simpson(g, 0.0, b, tol)
    want = _recursive_simpson(lambda w: g(np.array([w]))[0], 0.0, b, tol)
    assert repr(got) == repr(want)


def test_winding_1d_keeps_every_bit_of_one_jet_call_per_node():
    # The integrand of the one-point-per-node form, through the recursion.
    field = uplus()

    def integrand(w):
        val, df = field.derivative(np.array([[1.0 * w / (1.0 - w)]]))
        return np.trace(df[0, 0] @ np.linalg.inv(val[0])) * (1.0 / (1.0 - w) ** 2)

    total = _recursive_simpson(integrand, 0.0, 1.0 - 1e-12, 1e-8)
    assert repr(winding_1d(field).raw) == repr(float((-total / (2.0j * math.pi)).real))


def test_a_constant_field_has_the_jets_of_its_value():
    field = MatrixField.constant([[1.0, 2j], [3.0, 4.0]], 3, "c")
    pts = _grid(_box_domain(16))[::97]
    values, partials = field.derivative(pts)
    assert np.array_equal(values, np.broadcast_to([[1.0, 2j], [3.0, 4.0]], (len(pts), 2, 2)))
    assert np.array_equal(field(pts), values)
    assert partials.shape == (3, len(pts), 2, 2) and not partials.any()
    lead, last = pts[:5, :2], pts[:7, 2]
    jet_values, jet_partials = field.axis_jet(lead, last)
    want_values, want_partials = field.derivative(_product(lead, last))
    assert np.array_equal(np.moveaxis(jet_values, -1, 0), want_values)
    assert np.array_equal(np.moveaxis(jet_partials, (0, 1), (-2, -1)), want_partials)
    out = np.full(jet_values.shape, np.nan + 0j), np.full(jet_partials.shape, np.nan + 0j)
    filled = field.axis_jet(lead, last, out)
    assert all(np.shares_memory(a, b) for a, b in zip(filled, out))
    assert np.array_equal(filled[0], jet_values) and np.array_equal(filled[1], jet_partials)
    assert not field.support(pts).any()


def _partials_off_at(field, point, delta):
    """field, except that its jet's partials at one point are off by delta."""
    def jet(pts):
        vals, partials = field.derivative(pts)
        partials[:, np.all(pts == point, axis=1)] += delta
        return vals, partials

    return dataclasses.replace(field, derivative=jet)


def _sample_point(field, n):
    """The first of the derivative check's seeded points."""
    return topology._interior_points(field.default_domain, n, 0)[0]


def _value_scaled_outside(field, scale):
    """field, except that its jet's value at one support-check point outside the
    support is scaled: with the x and y partials 0 there the integrand stays 0."""
    sample = topology._interior_points(field.default_domain, 512, 1)
    point = sample[~field.support(sample)][0]

    def jet(pts):
        vals, partials = field.derivative(pts)
        vals[np.all(pts == point, axis=1)] *= scale
        return vals, partials

    return dataclasses.replace(field, derivative=jet)


_W = exp_ptilde("+", 16)
_C = phat_disk(64)


@pytest.mark.parametrize("integral, field, error, match", [
    (chern_2d, _partials_off_at(_C, _sample_point(_C, 64), 1e-3), ValueError,
     "analytic/FD derivative gap"),
    (winding_3d, _partials_off_at(_W, _sample_point(_W, 48), 1e-3), ValueError,
     "analytic/FD derivative gap"),
    # The sigma floor comes before the FD gap.
    (winding_3d, _partials_off_at(_value_scaled_outside(_W, 1e-8), _sample_point(_W, 48), 1e-3),
     NonInvertibleFieldError, "min singular value 1e-08"),
    # The boundary comes before everything, and the leak inside the grid before
    # the sigma floor and the FD gap.
    (winding_3d, dataclasses.replace(
        _partials_off_at(_value_scaled_outside(_W, 1e-8), _sample_point(_W, 48), 1e-3),
        default_domain=GridDomain((Axis(-0.5, 0.5, 16),) + _W.default_domain.axes[1:])),
     BoundaryConditionError, "boundary-identity"),
    (winding_3d, dataclasses.replace(_partials_off_at(_value_scaled_outside(_W, 1e-8),
                                                      _sample_point(_W, 48), 1e-3),
                                     support=lambda pts: np.hypot(pts[:, 0], pts[:, 1]) < 0.9),
     ValueError, "outside the declared support"),
], ids=["chern_fd_gap", "winding_fd_gap", "sigma_floor_before_fd_gap",
        "boundary_before_all", "leak_before_sigma_floor"])
def test_each_guard_refuses_in_its_order(integral, field, error, match):
    with pytest.raises(error, match=match):
        integral(field)
