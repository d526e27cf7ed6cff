"""Tests for the R^2-actions, strata and leaf-space invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdlab import foliation
from mdlab.foliation import (
    ACTIONS,
    SubmersionAudit,
    _diff_rank,
    _sphere_map,
    act,
    action_generators,
    f1_fibration_check,
    integrability_check,
    leaf_invariants,
    leafspace_report,
    p1_submersion_audit,
    preservation_check,
    sample_stratum,
    stratum_invariant_report,
    stratum_of,
)


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
    maps = [_sphere_map] + ([] if stratum == "W1" else [leaf_invariants(stratum).mapping])
    for fn in maps:
        ranks = _diff_rank(fn, pts)
        assert ranks.shape == (200,)
        assert ranks.tolist() == [_per_point_rank(fn, p) for p in pts]


def test_w2_invariant_is_modulus():
    inv = leaf_invariants("W2")
    c, d = inv.mapping(np.array([0.3, 3.0, 4.0, 0.0, 0.0]))
    assert np.isclose(c[0], 5.0)
    assert d == ()


def test_v3_invariant_at_reference_point():
    inv = leaf_invariants("V3")
    c, _ = inv.mapping(np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
    assert np.allclose(c, [1.0, 0.0, 1.0])


def test_v1_sign_separates_components():
    # Orbits never cross s = 0: the sign slot of the invariant is constant.
    rng = np.random.default_rng(12)
    inv = leaf_invariants("V1")
    for _ in range(200):
        p = sample_stratum("V1", rng, 1)[0]
        g = rng.uniform(-3, 3, 2)
        _, d0 = inv.mapping(p)
        _, d1 = inv.mapping(act("lambda12", g, p))
        assert d0 == d1
        assert np.sign(act("lambda12", g, p)[4]) == np.sign(p[4])


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
    (foliation.scipy.linalg, "subspace_angles", 1, slice(None),
     lambda: integrability_check("lambda12", 10, 0), "tangent_residual"),
    (foliation, "_sphere_map", 2, slice(None), lambda: f1_fibration_check(10, 0),
     "constancy_residual"),
    (foliation._INVARIANTS, "V1", 2, slice(None), lambda: p1_submersion_audit(10, 0),
     "invariant_residual"),
    (foliation._INVARIANTS, "V1", 2, 3, lambda: stratum_invariant_report("V1", 10, 0),
     "constancy_residual"),
    (foliation, "_jacobian", 1, 3, lambda: integrability_check("lambda12", 10, 0),
     "bracket_residual"),
    (foliation, "_sphere_map", 2, 3, lambda: f1_fibration_check(10, 0), "constancy_residual"),
    (foliation._INVARIANTS, "V1", 2, 3, lambda: p1_submersion_audit(10, 0),
     "invariant_residual"),
], ids=["strata", "bracket", "tangent", "fibration", "p1_audit",
        "strata_one_row", "bracket_one_row", "fibration_one_row", "p1_audit_one_row"])
def test_nan_at_one_sample_fails_the_check(monkeypatch, owner, name, call, rows, run, metric):
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, _nan_on_call(owner[name], call, rows))
    else:
        monkeypatch.setattr(owner, name, _nan_on_call(getattr(owner, name), call, rows))
    report = run()
    assert math.isnan(getattr(report, metric))
    assert not getattr(report, "ok", False)
