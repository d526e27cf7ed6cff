"""Tests for the index-invariant assembly."""

import dataclasses

import pytest

from mdlab import criteria, invariants, witnesses
from mdlab.invariants import index_invariant, index_invariants_f2_f3


@pytest.fixture(scope="module")
def f2():
    return index_invariant("F2", resolution_2d=256, resolution_3d=32)


@pytest.fixture(scope="module")
def f3():
    return index_invariant("F3", resolution_2d=256)


def test_f2_gamma_matrices(f2):
    assert f2.gamma1 == [[0, 1], [0, 1]]
    assert f2.gamma2 == [[1], [1]]


def test_f2_k_groups_forced(f2):
    assert f2.k_groups == {"K0(C*(F2))": 1, "K1(C*(F2))": 1}


def test_f2_cross_checks(f2):
    assert f2.ok
    assert f2.cross_checks["calibration_charge_is_one"]
    assert f2.cross_checks["eps1_column_vanishes"]
    assert f2.cross_checks["gamma1_hexagon_unique"]
    assert f2.cross_checks["gamma2_hexagon_unique"]


def test_f2_integral_residuals(f2):
    for name, entry in f2.integrals.items():
        assert entry["residual"] < 0.05, name


def test_f2_hexagons_are_exact(f2):
    assert all(f2.hexagons["gamma1"]["exact"])
    assert all(f2.hexagons["gamma2"]["exact"])


def test_f3_gamma(f3):
    assert f3.gamma3 == [0, 1]
    assert f3.ok
    assert f3.cross_checks["gamma3_pattern_alternating"]
    assert f3.cross_checks["delta0_vanishes"]


def test_f3_residuals(f3):
    for name, entry in f3.integrals.items():
        assert entry["residual"] < 0.05, name


def test_unknown_type_rejected():
    with pytest.raises(ValueError, match="F2"):
        index_invariant("F4")


def test_json_round_trip(f2, f3):
    import json
    assert json.loads(json.dumps(f2.to_json()))["gamma1"] == [[0, 1], [0, 1]]
    assert json.loads(json.dumps(f3.to_json()))["gamma3"] == [0, 1]


def test_f2_and_f3_share_one_calibration_integral(monkeypatch, f2, f3):
    # reproduce reads both types from index_invariants_f2_f3: one integral of
    # the calibration disk, and the reports of the two separate calls.
    names = []
    chern_2d = invariants.chern_2d

    def chern(field):
        names.append(field.name)
        return chern_2d(field)

    monkeypatch.setattr(invariants, "chern_2d", chern)
    both = index_invariants_f2_f3(resolution_2d=256, resolution_3d=32)
    assert names == ["phat_disk", "p_gamma3_disk"]
    assert [r.to_json() for r in both] == [f2.to_json(), f3.to_json()]


def test_f3_cross_checks_the_disk_orientation_against_the_calibration(f3):
    assert f3.integrals["p_gamma3_disk"]["rounded"] == -1
    assert f3.integrals["phat_disk"]["rounded"] == 1
    assert f3.cross_checks["disk_charge_opposes_calibration"]


def test_a_disk_of_the_other_orientation_fails_f3(monkeypatch):
    # The conjugate of u q u^{-1} is the disk with e^{i phi} turned to
    # e^{-i phi}: charge +1.  gamma3 reads |charge| and cannot see it; the
    # orientation cross-check does.
    def flipped(n=512):
        base = witnesses.gamma3_disk(n)

        def derivative(pts):
            values, partials = base.derivative(pts)
            return values.conj(), partials.conj()

        def axis_jet(lead, last, out=None):
            values, partials = base.axis_jet(lead, last, out)
            return values.conj(), partials.conj()

        return dataclasses.replace(base, evaluator=lambda pts: base.evaluator(pts).conj(),
                                   derivative=derivative, axis_jet=axis_jet)

    monkeypatch.setattr(invariants, "gamma3_disk", flipped)
    res = index_invariant("F3", resolution_2d=64)
    assert res.integrals["p_gamma3_disk"]["rounded"] == 1
    assert res.gamma3 == [0, 1]
    assert not res.cross_checks["disk_charge_opposes_calibration"]
    assert not res.ok and not criteria.index_holds(res)
