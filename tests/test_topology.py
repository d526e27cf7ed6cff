"""Tests for the quadrature detectors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdlab import topology
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
    derivative_check,
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
    q_const,
    trivial_lift_eps1,
    trivial_lift_unit,
    u_gamma3,
    uminus,
    uplus,
)


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


def test_winding_constant_is_zero():
    def ev(pts):
        return np.full((len(pts), 1, 1), 2.0 + 0j)

    const = MatrixField(ev, 1, "const", lambda pts: (ev(pts), np.zeros((1, len(pts), 1, 1),
                                                                       complex)))
    assert winding_1d(const, "+").rounded == 0


def _phase_power(base: MatrixField, k: int) -> MatrixField:
    def jet(pts):
        u, du = base.derivative(pts)
        return u ** k, k * u ** (k - 1) * du

    return MatrixField(lambda pts: base.evaluator(pts) ** k, 1, f"{base.name}^{k}", jet)


def test_winding_additivity_under_products():
    up = uplus()
    assert winding_1d(_phase_power(up, 2), "+").rounded == 2

    def jet(pts):
        u, du = up.derivative(pts)
        return u ** 2 * u, 3 * u ** 2 * du

    prod = MatrixField(lambda pts: up.evaluator(pts) ** 2 * up.evaluator(pts), 1, "u3", jet)
    assert winding_1d(prod, "+").rounded == 3


def test_winding_rejects_singular_field():
    def ev(pts):
        return pts[:, 0][:, None, None].astype(complex)  # vanishes at z = 0
    f = MatrixField(ev, 1, "z")
    with pytest.raises(NonInvertibleFieldError):
        winding_1d(f, "+")


def test_winding_rejects_mismatched_limits():
    def ev(pts):
        z = pts[:, 0]
        return ((z - 1j) / (z + 1j))[:, None, None]  # -1 at 0, +1 at infinity
    f = MatrixField(ev, 1, "moebius")
    with pytest.raises(BoundaryConditionError, match="limits"):
        winding_1d(f, "+")


def test_fields_without_a_derivative_are_refused():
    with pytest.raises(ValueError, match="const: no exact derivative"):
        winding_1d(MatrixField(lambda pts: np.ones((len(pts), 1, 1), complex), 1, "const"))
    bare = dataclasses.replace(phat_disk(64), name="bare", derivative=None)
    with pytest.raises(ValueError, match="bare: no exact derivative"):
        chern_2d(bare)
    with pytest.raises(ValueError, match="bare: no exact derivative"):
        derivative_check(bare, [[0.5, 1.0]])


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
    r = chern_2d(phat(), dom)
    assert r.rounded == 1


def test_chern_constant_projection_is_zero():
    dom = GridDomain((Axis(-1.0, 1.0, 64, "constant"), Axis(-1.0, 1.0, 64, "constant")))
    r = chern_2d(q_const(), dom)
    assert r.rounded == 0 and abs(r.raw) < 1e-12


def test_chern_gamma3_disk_charge():
    r = chern_2d(gamma3_disk(128))
    assert abs(r.rounded) == 1
    assert r.residual < 1e-3


def test_chern_refinement_stability():
    coarse = chern_2d(phat_disk(64)).raw
    fine = chern_2d(phat_disk(128)).raw
    assert abs(fine - coarse) < 1e-2


def test_chern_rejects_nonconstant_boundary():
    dom = GridDomain((Axis(-0.8, 0.8, 64, "constant"), Axis(-0.8, 0.8, 64, "constant")))
    with pytest.raises(BoundaryConditionError, match="boundary variation"):
        chern_2d(phat(), dom)


def test_chern_rejects_non_projection():
    base = gamma3_disk(64)

    def jet(pts):
        vals, partials = base.derivative(pts)
        return 0.5 * vals, 0.5 * partials

    bad = MatrixField(lambda pts: 0.5 * base.evaluator(pts), 2, "half", jet,
                      base.default_domain)
    with pytest.raises(ValueError, match="projection residual|boundary"):
        chern_2d(bad)


def test_half_disk_residual_is_flagged():
    # Integrating over half the theta2 range leaves charge 1/2: not an integer.
    field = gamma3_disk(64)
    dom = GridDomain((Axis(0.0, math.pi / 4, 64, "constant"), Axis(0.0, 2 * math.pi, 64,
                                                                   "periodic")))
    with pytest.raises((ResidualError, BoundaryConditionError)):
        chern_2d(field, dom)


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
@given(dim=st.sampled_from([2, 3]), slabs=st.integers(1, 20))
def test_grid_integrals_are_independent_of_the_chunking(dim, slabs):
    # The default chunking is one chunk of the 64^2 grid and two of the 16^3 grid.
    integral, field = {2: (chern_2d, phat_disk(64)), 3: (winding_3d, exp_ptilde("+", 16))}[dim]
    default = integral(field).raw
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(topology.CHUNK_SLABS, dim, slabs)
        raw = integral(field).raw
    assert abs(raw - default) <= 1e-10 * abs(default)


def test_winding3d_rejects_bad_boundary():
    u = u_gamma3()
    dom = GridDomain((Axis(-1.0, 1.0, 16),) * 3)
    bad = MatrixField(u.evaluator, 3, "u_box", u.derivative, dom)
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

    def axis_jet(lead, last):
        vals, partials = field.axis_jet(lead, last)
        (vals if part == "value" else partials)[..., np.all(_product(lead, last) == point,
                                                            axis=1)] = value
        return vals, partials

    changes = {"derivative": jet}
    if field.axis_jet is not None:
        changes["axis_jet"] = axis_jet
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

    def axis_jet(lead, last):
        vals, partials = field.axis_jet(lead, last)
        return entry_major(with_corner, vals), entry_major(pad, partials)

    changes = {"derivative": jet, "evaluator": lambda pts: with_corner(field.evaluator(pts))}
    if field.axis_jet is not None:
        changes["axis_jet"] = axis_jet
    return dataclasses.replace(field, name=f"{field.name}_3x3", **changes)


def test_grid_integrals_refuse_fields_larger_than_2x2():
    # A 3x3 identity and a 3x3 projection pass every boundary guard; the
    # closed-form kernels would integrate garbage, so the size is refused.
    with pytest.raises(ValueError, match="exp_lift_eps1_3x3: 3x3 values"):
        winding_3d(_block_3x3(trivial_lift_eps1(), 1.0))
    with pytest.raises(ValueError, match="phat_disk_3x3: 3x3 values"):
        chern_2d(_block_3x3(phat_disk(64), 0.0))
    # So does the σ_min guard of winding_1d, which uses the same kernel.
    eye3 = MatrixField(lambda pts: np.repeat(np.eye(3, dtype=complex)[None], len(pts), axis=0),
                       1, "eye3")
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

    def axis_jet(lead, last):
        seen[0] += len(lead) * len(last)
        return field.axis_jet(lead, last)

    changes = {"evaluator": count(field.evaluator), "derivative": count(field.derivative)}
    if field.axis_jet is not None:
        changes["axis_jet"] = axis_jet
    return dataclasses.replace(field, **changes), seen


def _grid(domain):
    axes = np.meshgrid(*(ax.midpoints() for ax in domain.axes), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, domain.dim)


@pytest.mark.parametrize("integral, field, fixed", [
    # 4 boundary faces of 17 points; 64 derivative-check samples at 2 + 2 * 2 calls.
    (chern_2d, phat_disk(64), 4 * 17 + 64 * 6),
    # 6 boundary faces of 17**2 points; at most 48 derivative-check samples at
    # 2 + 2 * 3 calls and 512 support-check samples.
    (winding_3d, exp_ptilde("+", 16), 6 * 17 ** 2 + 48 * 8 + 512),
], ids=["chern_2d", "winding_3d"])
def test_integrals_evaluate_each_grid_point_in_the_support_once(integral, field, fixed):
    counted, seen = _counting(field)
    mesh = _grid(field.default_domain)
    needed = len(mesh) if field.support is None else int(field.support(mesh).sum())
    integral(counted)
    assert seen[0] <= needed + fixed


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
    # One slab per chunk at 16^3 makes the chunks with |x| > 1 empty.
    field = exp_ptilde("+", n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(topology.CHUNK_SLABS, 3, slabs)
        skipped = winding_3d(field).raw
        full = winding_3d(dataclasses.replace(field, support=None)).raw
    assert repr(skipped) == repr(full)


_ROUTE_CASES = ([(winding_3d, exp_ptilde(side, n)) for n in (16, 24) for side in "+-"]
                + [(chern_2d, disk(n)) for n in (64, 128) for disk in (phat_disk, gamma3_disk)])


@pytest.mark.parametrize("integral, field", _ROUTE_CASES,
                         ids=[f"{f.name}_{f.default_domain.axes[0].n}" for _, f in _ROUTE_CASES])
def test_the_per_axis_jet_and_the_blocks_leave_the_raw_integral_unchanged(integral, field):
    # The values are the same bits on every route and each chunk of
    # CHUNK_SLABS slabs is summed by one exact sum, so neither the route nor
    # the block size may move the raw value by an ulp.
    default = repr(integral(field).raw)
    mesh_route = dataclasses.replace(field, axis_jet=None)
    assert repr(integral(mesh_route).raw) == default
    one_slab = math.prod(field.default_domain.shape()[1:])
    for block in (one_slab, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "BLOCK_POINTS", block)
            assert repr(integral(field).raw) == default
            assert repr(integral(mesh_route).raw) == default


def test_each_chunk_is_summed_by_one_exact_sum_whatever_the_block_size():
    # On the 16 x 16 grid (one chunk) each row is 1e20, with a sign that
    # alternates from row to row, at its first point and 1 at its 15 others.
    # One exact sum per chunk cancels the 1e20s and keeps the 240 ones; a sum
    # rounded per row, or per block of rows, would lose them.
    domain = GridDomain((Axis(0.0, 1.0, 16), Axis(0.0, 1.0, 16)))
    first = domain.axes[1].midpoints()[0]

    def jet(x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        big = np.where(np.floor(16 * x) % 2 == 0, 1e20, -1e20)
        values = np.broadcast_to(np.where(y == first, big, 1.0), shape).astype(complex)
        return values.reshape((1, 1) + shape), np.zeros((1, 1, 2) + shape, complex)

    field = MatrixField.from_jet(jet, 2, "rows")
    for routed in (field, dataclasses.replace(field, axis_jet=None)):
        for block in (topology.BLOCK_POINTS, 16, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(topology, "BLOCK_POINTS", block)
                assert topology._grid_sum(routed, domain, lambda v, p: v[0, 0]) == 240


def _fsum_complex(values) -> complex:
    """math.fsum of each part: the correctly rounded sum the exact chunk sum must equal."""
    values = np.asarray(values)
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


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
       cancel=st.integers(0, 40), stride=st.sampled_from([1, 2, 3]))
# 2^53 + 1 is half-way between two floats and only the third level's 2^-60
# breaks the tie upwards, so the total must be rounded once, not level by level.
@example(real=[2.0 ** 53, 1.0, 2.0 ** -60], imag=[], cancel=0, stride=1)
def test_the_exact_chunk_sum_has_the_bits_of_fsum(real, imag, cancel, stride):
    # Appending the negatives of a prefix makes exact cancellations.
    real = real + [-v for v in real[:cancel]]
    imag = imag + [-v for v in imag[:cancel]]
    values = _complex_view(real, imag, stride)
    assert repr(topology._exact_sum_complex(values)) == repr(_fsum_complex(values))


@settings(max_examples=200, deadline=None)
@given(real=st.lists(st.one_of(_finite, st.sampled_from([math.nan, math.inf, -math.inf,
                                                          1e308, -1e308, 1.7e308])),
                     max_size=8),
       imag=st.lists(_finite, max_size=8))
def test_the_exact_chunk_sum_fails_as_fsum_on_non_finite_and_overflowing_values(real, imag):
    # NaN gives NaN, inf + (-inf) raises ValueError and a finite overflow OverflowError.
    for values in (_complex_view(real, imag, 1), _complex_view(imag, real, 2)):
        assert _outcome(topology._exact_sum_complex, values) == _outcome(_fsum_complex, values)


_SUM_CASES = _ROUTE_CASES + [(chern_2d, phat_disk(512))]


@pytest.mark.parametrize("integral, field", _SUM_CASES,
                         ids=[f"{f.name}_{f.default_domain.axes[0].n}" for _, f in _SUM_CASES])
def test_the_exact_chunk_sum_leaves_the_raw_integral_as_fsum_gave_it(integral, field):
    exact = repr(integral(field).raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_exact_sum_complex", _fsum_complex)
        assert repr(integral(field).raw) == exact


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


@pytest.mark.parametrize("integral, field, n", [
    (chern_2d, phat_disk(64), 64),
    (winding_3d, exp_ptilde("+", 16), 48),
], ids=["chern_2d", "winding_3d"])
@pytest.mark.parametrize("shift", [1e-12, np.nan])
def test_a_jet_whose_values_differ_from_the_evaluator_is_refused(integral, field, n, shift):
    # The first of the derivative check's seeded points.
    point = topology._interior_points(field.default_domain, n, 0)[0]

    def jet(pts):
        vals, partials = field.derivative(pts)
        vals[np.all(pts == point, axis=1)] += shift
        return vals, partials

    with pytest.raises(ValueError, match="derivative values differ from the evaluator"):
        integral(dataclasses.replace(field, derivative=jet))


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
