"""Tests for the R^2-actions, strata and leaf-space invariants."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mdlab import foliation
from mdlab.foliation import (
    ACTIONS,
    StratumReport,
    SubmersionAudit,
    _diff_rank,
    _sphere_map,
    act,
    action_generators,
    f1_fibration_check,
    integrability_check,
    leafspace_report,
    p1_submersion_audit,
    preservation_check,
    sample_stratum,
    stratum_invariant_report,
)
from point_probes import stratum_of
import reference_routes


def test_act_pure_translation():
    out = act("lambda12", (1.0, 0.0), [0, 1, 0, 1, 1])
    assert np.allclose(out, [1, 1, 0, 1, 1])


def test_act_lambda12_rotation_and_scaling():
    out = act("lambda12", (0.0, np.log(2.0)), [0, 1, 0, 1, 1])
    expected = [0.0, np.cos(np.log(2)), -np.sin(np.log(2)), 2.0, 2.0]
    assert np.allclose(out, expected, atol=1e-14)


def test_act_lambda14_quarter_turn():
    out = act("lambda14", (0.0, np.pi / 2), [0, 1, 0, 1, 0])
    assert np.allclose(out, [0, 0, -1, 0, -1], atol=1e-15)


def test_act_group_law_and_identity():
    rng = np.random.default_rng(1)
    for spec in ("lambda12", "lambda14"):
        for _ in range(50):
            p = rng.standard_normal(5)
            g = rng.uniform(-2, 2, 2)
            h = rng.uniform(-2, 2, 2)
            lhs = act(spec, g, act(spec, h, p))
            rhs = act(spec, g + h, p)
            assert np.abs(lhs - rhs).max() < 1e-12
            assert np.array_equal(act(spec, (0.0, 0.0), p), p)


@pytest.mark.parametrize("action", ACTIONS)
def test_act_on_a_batch_matches_single_points(action):
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((500, 5))
    gs = rng.uniform(-3, 3, (500, 2))
    single = np.stack([act(action, g, p) for g, p in zip(gs, pts)])
    one_g = np.stack([act(action, gs[0], p) for p in pts])
    one_p = np.stack([act(action, g, pts[0]) for g in gs])
    for batched, expected in ((act(action, gs, pts), single),
                              (act(action, gs[0], pts), one_g),
                              (act(action, gs, pts[0]), one_p)):
        assert batched.shape == (500, 5)
        if action == "lambda14":
            assert np.array_equal(batched, expected)
        else:  # e^a may take another code path on a vector: 1 ulp at most
            np.testing.assert_array_max_ulp(batched, expected, maxulp=1)


_coordinate = st.floats(-10.0, 10.0, allow_nan=False)
_element = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(action=st.sampled_from(ACTIONS),
       p=st.lists(_coordinate, min_size=5, max_size=5).filter(lambda q: any(q[1:])),
       g=_element, h=_element)
def test_act_group_law_property(action, p, g, h):
    p, g, h = np.array(p), np.array(g), np.array(h)
    once = act(action, g + h, p)
    twice = act(action, g, act(action, h, p))
    scale = max(1.0, np.abs(p).max(), np.abs(once).max())
    assert np.abs(twice - once).max() <= 1e-12 * scale
    assert np.array_equal(act(action, (0.0, 0.0), p), p)


def test_act_rejects_point_outside_V():
    with pytest.raises(ValueError, match="outside V"):
        act("lambda12", (0.0, 0.0), [1.0, 0, 0, 0, 0])


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("g", [(0, 0, 1), (0.0,), 0.5, [[0.0, 1.0, 2.0]]])
def test_act_refuses_a_group_element_that_is_not_a_pair(action, g):
    with pytest.raises(ValueError, match="2 coordinates"):
        act(action, g, [0.0, 1.0, 0.0, 1.0, 1.0])


def _outcome(fn, *args):
    """What fn(*args) gives: its value's bytes and shape, or its error, and the
    warnings it raises, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
            got = ("value", out.tobytes(), out.shape)
        except ValueError as exc:
            got = ("error", str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-320, 1e308, -1e308,
            1e150, 299.0, 301.0, -710.0, 710.0]


@pytest.mark.parametrize("action", ACTIONS)
def test_act_keeps_every_bit_and_warning_of_the_numpy_route(action):
    # One point is moved on Python floats where nothing can overflow, and on
    # numpy scalars elsewhere: both give the values, warnings and errors of
    # the route that moves every point on numpy values.
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(400):
        p = rng.standard_normal(5) * 10.0 ** rng.uniform(-300, 300)
        g = rng.uniform(-3.0, 3.0, 2) * 10.0 ** rng.uniform(-3, 3)
        p[rng.random(5) < 0.2] = rng.choice(_SPECIAL)
        g[rng.random(2) < 0.2] = rng.choice(_SPECIAL)
        cases += [(g, p), (tuple(g.tolist()), list(p.tolist())), (list(g.tolist()), tuple(p))]
    for x, y in itertools.product(_SPECIAL, repeat=2):
        cases += [((x, y), [y, 1.0, x, x, y]), ((1.0, y), [x] * 5),
                  ((y, 0.5), [x, 0.0, 0.0, 0.0, y])]
    cases += [(rng.uniform(-3, 3, (6, 2)), rng.standard_normal((6, 5))),
              (rng.uniform(-3, 3, 2), rng.standard_normal((3, 4, 5))),
              (rng.uniform(-3, 3, (3, 1, 2)), rng.standard_normal(5)),
              (rng.uniform(-3, 3, (3, 1, 2)), rng.standard_normal((4, 5))),
              ([[710.0, 1e308], [0.0, np.nan]], [[1e308, 1, 0, 0, 0], [0, 0, 0, 0, -0.0]]),
              ((0.0, 0.0), [1.0, 0.0, -0.0, 0.0, -0.0]), ((0.0, 0.0), [1.0, 2.0, 0.0, 0.0]),
              ((0.0,), [1.0, 2.0, 0.0, 0.0, 0.0]), ((0.0, 0.0, 1.0), [[1.0, 2.0, 0.0, 0.0, 0.0]]),
              ((0.0, 0.0), [[1.0, 2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]]),
              ((0.0, 0.0), 3.0), ([[0.0, 0.0]] * 2, [[1.0, 1.0, 0.0, 0.0, 0.0]] * 3)]
    for g, p in cases:
        assert _outcome(act, action, g, p) == _outcome(reference_routes.act, action, g, p), (g, p)


def test_stratum_of_examples():
    assert stratum_of([0, 1, 0, 0, 0]) == {"W1", "W2", "W3"}
    assert stratum_of([0, 0, 0, 0, 1]) == {"V1", "V3"}
    assert stratum_of([0, 0, 0, 1, 0]) == {"W1", "V2", "V3"}


def test_stratum_partitions():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((2000, 5))
    for p in pts:
        tags = stratum_of(p)
        assert ("V1" in tags) != ("W1" in tags)
        if "W1" in tags:
            assert ("V2" in tags) != ("W2" in tags)
        assert ("V3" in tags) != ("W3" in tags)
        assert ("W3" in tags) == ("W2" in tags)


def test_the_stratum_table_is_the_six_sign_conditions():
    # Every point with coordinates in {-1, 0, -0.0, 2, NaN}: a NaN is nonzero,
    # and a point outside V (y = z = t = s = 0) lies in no stratum.
    pts = np.array(list(itertools.product([-1.0, 0.0, -0.0, 2.0, math.nan], repeat=5)))
    t, s = pts[:, 3], pts[:, 4]
    in_v = np.any(pts[:, 1:] != 0.0, axis=1)
    literal = {"V1": s != 0.0, "W1": s == 0.0, "V2": (s == 0.0) & (t != 0.0),
               "W2": (s == 0.0) & (t == 0.0), "V3": (t != 0.0) | (s != 0.0),
               "W3": (s == 0.0) & (t == 0.0)}
    assert tuple(literal) == foliation.STRATA
    for tag, want in literal.items():
        assert np.array_equal(foliation._in_stratum(tag, pts), want & in_v), tag


class _ScriptedRng:
    """Hands out the given draws in turn, each of the shape asked for."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        draw = np.array(self.draws.pop(0), dtype=float)
        assert draw.shape == (shape if isinstance(shape, tuple) else (shape,))
        return draw


@pytest.mark.parametrize("tag,first,redraws,expected", [
    # s = 0 is outside V1: row 1 is drawn again until s != 0.
    ("V1", [[1, 2, 3, 4, 5], [1, 1, 1, 1, 0]], [[2, 2, 2, 2, 0], [3, 3, 3, 3, 3]],
     [[1, 2, 3, 4, 5], [3, 3, 3, 3, 3]]),
    # V2 zeroes s, and t = 0 is outside it.
    ("V2", [[1, 2, 3, 0, 5]], [[6, 7, 8, 9, 1]], [[6, 7, 8, 9, 0]]),
    # W2 zeroes t and s, and (y, z) = 0 is then outside V.
    ("W2", [[1, 2, 3, 4, 5], [1, 0, 0, 7, 8]], [[9, 0, 0, 1, 1], [9, 1, 2, 3, 4]],
     [[1, 2, 3, 0, 0], [9, 1, 2, 0, 0]]),
])
def test_sample_stratum_redraws_degenerate_points(tag, first, redraws, expected):
    rng = _ScriptedRng(first, *redraws)
    assert sample_stratum(tag, rng, len(first)).tolist() == expected
    assert rng.draws == []


@pytest.mark.parametrize("spec,stratum", [
    ("lambda12", "V1"), ("lambda12", "W1"), ("lambda12", "V2"), ("lambda12", "W2"),
    ("lambda14", "V3"), ("lambda14", "W3"),
])
def test_preservation(spec, stratum):
    report = preservation_check(spec, stratum, 2000, seed=3)
    assert report.ok


def test_preservation_rejects_mismatched_pair():
    with pytest.raises(ValueError, match="not associated"):
        preservation_check("lambda14", "V1", 10, seed=0)


def test_generators_at_reference_point():
    gen12 = action_generators("lambda12", [0, 1, 0, 1, 1])
    assert np.array_equal(gen12[0], [1, 0, 0, 0, 0])
    assert np.array_equal(gen12[1], [0, 0, -1, 1, 1])
    gen14 = action_generators("lambda14", [0, 1, 0, 1, 0])
    assert np.array_equal(gen14[1], [0, 0, -1, 0, -1])


def test_generators_are_action_derivatives():
    rng = np.random.default_rng(4)
    h = 1e-6
    for spec in ("lambda12", "lambda14"):
        for _ in range(10):
            p = rng.standard_normal(5)
            gen = action_generators(spec, p)
            d_r = (act(spec, (h, 0.0), p) - act(spec, (-h, 0.0), p)) / (2 * h)
            d_a = (act(spec, (0.0, h), p) - act(spec, (0.0, -h), p)) / (2 * h)
            assert np.abs(d_r - gen[0]).max() < 1e-8
            assert np.abs(d_a - gen[1]).max() < 1e-8


@pytest.mark.parametrize("stratum,dim", [("V1", 3), ("V2", 2), ("W2", 1), ("V3", 3), ("W3", 1)])
def test_leaf_invariant_constancy_and_rank(stratum, dim):
    report = stratum_invariant_report(stratum, 300, seed=8)
    assert report.constancy_residual < 1e-9
    assert set(report.rank_counts) == {dim}
    assert report.full_rank


def _per_point_rank(fn, p, cutoff=1e-6):
    """The differential rank at one point, one central difference per coordinate."""
    h = 1e-5 * (1.0 + np.linalg.norm(p))
    cols = []
    for i in range(5):
        dp = np.zeros(5)
        dp[i] = h
        cols.append((fn(p + dp)[0] - fn(p - dp)[0]) / (2 * h))
    sv = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    return int((sv > cutoff).sum())


@pytest.mark.parametrize("stratum", foliation.STRATA)
def test_batched_diff_rank_matches_the_per_point_formula(stratum):
    pts = sample_stratum(stratum, np.random.default_rng(19), 200)
    # W1 carries no leaf invariant of its own.
    maps = [_sphere_map] + ([] if stratum == "W1" else [foliation._INVARIANTS[stratum]])
    for fn in maps:
        ranks = _diff_rank(fn, pts)
        assert ranks.shape == (200,)
        assert ranks.tolist() == [_per_point_rank(fn, p) for p in pts]


def test_w2_invariant_is_modulus():
    inv = foliation._INVARIANTS["W2"]
    c, d = inv(np.array([0.3, 3.0, 4.0, 0.0, 0.0]))
    assert np.isclose(c[0], 5.0)
    assert d == ()


def test_v3_invariant_at_reference_point():
    inv = foliation._INVARIANTS["V3"]
    c, _ = inv(np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
    assert np.allclose(c, [1.0, 0.0, 1.0])


def test_v1_sign_separates_components():
    # Orbits never cross s = 0: the sign slot of the invariant is constant.
    rng = np.random.default_rng(12)
    inv = foliation._INVARIANTS["V1"]
    for _ in range(200):
        p = sample_stratum("V1", rng, 1)[0]
        g = rng.uniform(-3, 3, 2)
        _, d0 = inv(p)
        _, d1 = inv(act("lambda12", g, p))
        assert d0 == d1
        assert np.sign(act("lambda12", g, p)[4]) == np.sign(p[4])


def test_stratum_report_needs_full_rank_and_a_finite_residual_below_the_tolerance():
    assert StratumReport("V1", "R^3 ⊔ R^3", "J1", 1e-12, {3: 10}, True).ok
    assert not StratumReport("V1", "R^3 ⊔ R^3", "J1", math.nan, {3: 10}, True).ok
    assert not StratumReport("V1", "R^3 ⊔ R^3", "J1", foliation.CONSTANCY_TOL, {3: 10}, True).ok
    assert not StratumReport("V1", "R^3 ⊔ R^3", "J1", 0.0, {2: 1, 3: 9}, False).ok


def test_leafspace_report_models():
    rep12 = leafspace_report("lambda12", n_samples=60, seed=1)
    assert rep12["models"] == {"V1": "R^3 ⊔ R^3", "V2": "R^2 ⊔ R^2", "W2": "R_+"}
    assert rep12["identifications"]["J1"] == "C0(R^3 ⊔ R^3) ⊗ K"
    assert rep12["identifications"]["B2"] == "C0(R_+) ⊗ K"
    assert rep12["ok"]

    rep14 = leafspace_report("lambda14", n_samples=60, seed=1)
    assert rep14["models"] == {"V3": "C × R_+", "W3": "R_+"}
    assert rep14["identifications"]["J3"] == "C0(C × R_+) ⊗ K"
    assert rep14["identifications"]["B3"] == "C0(R_+) ⊗ K"
    assert rep14["ok"]


@pytest.mark.parametrize("spec", ["lambda12", "lambda14"])
def test_integrability(spec):
    report = integrability_check(spec, 300, seed=21)
    assert report.bracket_residual < 1e-8
    assert set(report.rank_counts) == {2}
    assert report.tangent_residual < 1e-6
    assert report.ok


def test_f1_fibration():
    report = f1_fibration_check(300, seed=6)
    assert report.constancy_residual < 1e-9
    assert set(report.rank_counts) == {3}
    assert report.ok


def test_p1_submersion_audit():
    audit = p1_submersion_audit(n_samples=200, seed=14)
    # The literal projection moves along orbits; the invariant map does not.
    assert not audit.literal_is_constant
    assert audit.literal_max_deviation > 1e-2
    assert audit.sign_component_constant
    assert audit.invariant_residual < 1e-9
    assert audit.example_orbit["literal_changed"]
    # A NaN deviation does not show that the literal map moves.
    assert not SubmersionAudit(math.nan, True, 0.0, {}).ok


def _nan_on_call(fn, k, rows=slice(None)):
    """fn, except that `rows` (default: all) of the array it returns on its k-th call are NaN.

    A check makes one call for all its samples, so rows=i NaNs sample i alone.
    """
    count = itertools.count(1)

    def wrapped(*args):
        out = fn(*args)
        if next(count) != k:
            return out
        arr = np.array(out[0] if isinstance(out, tuple) else out, dtype=float)
        arr[rows] = np.nan
        return (arr,) + out[1:] if isinstance(out, tuple) else arr

    return wrapped


@pytest.mark.parametrize("owner, name, call, rows, run, metric", [
    (foliation._INVARIANTS, "V1", 2, slice(None), lambda: stratum_invariant_report("V1", 10, 0),
     "constancy_residual"),
    (foliation, "_jacobian", 1, slice(None), lambda: integrability_check("lambda12", 10, 0),
     "bracket_residual"),
    (foliation, "_principal_angles", 1, slice(None),
     lambda: integrability_check("lambda12", 10, 0), "tangent_residual"),
    (foliation, "_sphere_map", 2, slice(None), lambda: f1_fibration_check(10, 0),
     "constancy_residual"),
    (foliation._INVARIANTS, "V1", 2, slice(None), lambda: p1_submersion_audit(10, 0),
     "invariant_residual"),
    (foliation._INVARIANTS, "V1", 2, 3, lambda: stratum_invariant_report("V1", 10, 0),
     "constancy_residual"),
    (foliation, "_jacobian", 1, 3, lambda: integrability_check("lambda12", 10, 0),
     "bracket_residual"),
    (foliation, "_principal_angles", 1, 3, lambda: integrability_check("lambda12", 10, 0),
     "tangent_residual"),
    (foliation, "_sphere_map", 2, 3, lambda: f1_fibration_check(10, 0), "constancy_residual"),
    (foliation._INVARIANTS, "V1", 2, 3, lambda: p1_submersion_audit(10, 0),
     "invariant_residual"),
], ids=["strata", "bracket", "tangent", "fibration", "p1_audit",
        "strata_one_row", "bracket_one_row", "tangent_one_row", "fibration_one_row",
        "p1_audit_one_row"])
def test_nan_at_one_sample_fails_the_check(monkeypatch, owner, name, call, rows, run, metric):
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, _nan_on_call(owner[name], call, rows))
    else:
        monkeypatch.setattr(owner, name, _nan_on_call(getattr(owner, name), call, rows))
    report = run()
    assert math.isnan(getattr(report, metric))
    assert not getattr(report, "ok", False)


@pytest.mark.parametrize("action", ACTIONS)
def test_nan_in_the_generators_at_one_point_fails_the_integrability_check(monkeypatch, action):
    # Every check on the generators sees the NaN point: no LAPACK error, NaN
    # residuals, rank -1 there, and a failed check.
    monkeypatch.setattr(foliation, "action_generators",
                        _nan_on_call(foliation.action_generators, 1, 3))
    report = integrability_check(action, 10, 0)
    assert math.isnan(report.tangent_residual)
    assert math.isnan(report.bracket_residual)
    assert report.rank_counts == {-1: 1, 2: 9}
    assert not report.ok


def _plane_pairs(rng, n):
    """Random pairs of 2-plane bases in R^5: general, nearly aligned and nearly orthogonal."""
    a = rng.standard_normal((n, 5, 2))
    complement = np.linalg.qr(a, mode="complete")[0][..., 2:4]
    return {
        "random": (a, rng.standard_normal((n, 5, 2))),
        "aligned": (a, a + 1e-9 * rng.standard_normal((n, 5, 2))),
        "orthogonal": (a, complement + 1e-9 * a),
    }


@pytest.mark.parametrize("kind", ["random", "aligned", "orthogonal"])
def test_principal_angles_match_scipy_point_by_point(kind):
    a, b = _plane_pairs(np.random.default_rng(41), 200)[kind]
    angles = foliation._principal_angles(a, b)
    expected = np.array([scipy.linalg.subspace_angles(x, y) for x, y in zip(a, b)])
    assert angles.shape == expected.shape == (200, 2)
    # scipy picks each angle's branch from the other angle's cosine, so it is the
    # reference only where both cosines squared lie on one side of 0.5; where
    # they straddle it, the known-angle test below is.
    side = np.cos(expected) ** 2 >= 0.5
    same = side[:, 0] == side[:, 1]
    assert same.sum() >= 50
    assert np.abs(angles[same] - expected[same]).max() <= 1e-14
    assert np.abs(angles - expected).max() <= 1e-7
    # The aligned pairs take the sine branch and the orthogonal ones the cosine branch.
    if kind == "aligned":
        assert expected.max() < 1e-7
    if kind == "orthogonal":
        assert expected.min() > np.pi / 2 - 1e-7


@pytest.mark.parametrize("small, large", [
    (0.1, np.pi / 2 - 1e-7), (1e-8, 1.2), (0.3, 0.7), (0.9, 1.4),
    (np.pi / 2 - 1e-7, np.pi / 2 - 1e-9), (1e-9, 2e-9), (0.0, np.pi / 2)])
def test_principal_angles_of_planes_at_known_angles(small, large):
    # span(u1, u2) against span(cos(s) u1 + sin(s) u3, cos(l) u2 + sin(l) u4)
    # for orthonormal u1..u4, each plane in a random basis: the angles are s and l.
    # Each angle takes the branch of its own cosine, so one near pi/2 keeps its
    # digits beside a small one (at (0.1, pi/2 - 1e-7) scipy's branch choice is
    # 2.3e-9 off in the larger angle).
    rng = np.random.default_rng(53)
    u = np.linalg.qr(rng.standard_normal((5, 5)))[0].T
    a = np.stack([u[0], u[1]], axis=-1) @ rng.standard_normal((2, 2))
    b = np.stack([np.cos(small) * u[0] + np.sin(small) * u[2],
                  np.cos(large) * u[1] + np.sin(large) * u[3]], axis=-1)
    b = b @ rng.standard_normal((2, 2))
    angles = foliation._principal_angles(a[None], b[None])[0]
    assert np.abs(angles - [large, small]).max() <= 1e-14, angles - [large, small]


def test_principal_angles_of_a_non_finite_point_are_nan_in_that_point_only():
    a, b = _plane_pairs(np.random.default_rng(43), 6)["random"]
    a[1, 0, 0], b[4, 2, 1] = np.nan, np.inf
    angles = foliation._principal_angles(a, b)
    assert np.isnan(angles[[1, 4]]).all()
    keep = [0, 2, 3, 5]
    assert np.array_equal(angles[keep], foliation._principal_angles(a[keep], b[keep]))


@pytest.mark.parametrize("rows", [slice(None), 3], ids=["all", "one_row"])
@pytest.mark.parametrize("owner, name, call, run", [
    (foliation._INVARIANTS, "V1", 3, lambda: stratum_invariant_report("V1", 10, 0)),
    (foliation, "_sphere_map", 1, lambda: f1_fibration_check(10, 0)),
], ids=["strata", "fibration"])
def test_non_finite_jacobian_has_no_rank(monkeypatch, owner, name, call, run, rows):
    # The rank call's points get NaN Jacobians: rank -1 there, and the check fails.
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, _nan_on_call(owner[name], call, rows))
    else:
        monkeypatch.setattr(owner, name, _nan_on_call(getattr(owner, name), call, rows))
    report = run()
    points = sum(report.rank_counts.values())
    assert report.rank_counts[-1] == (points if rows == slice(None) else 1)
    assert math.isfinite(report.constancy_residual)
    assert not report.ok
