"""Tests for Kirillov forms, the dimension dichotomy, flows and closed forms."""

import numpy as np
import pytest
import scipy.linalg

from mdlab.liealg import FAMILIES, MD5Family, build_md5, sample_family
from mdlab.orbits import (
    closed_form_orbit,
    coadjoint_flow,
    covector,
    exp_ad_transpose,
    flow_vs_closed_form,
    in_zero_stratum,
    kirillov_form,
    md_verify,
    orbit_dimension,
    orbit_tangent_residual,
)

ALL_FAMILIES = list(FAMILIES)


def test_kirillov_zero_on_zero_stratum():
    alg = build_md5("5_4_5")
    b = kirillov_form(alg, covector(alpha=3.3))
    assert np.array_equal(b, np.zeros((5, 5)))


def test_kirillov_hand_evaluation():
    # <F,[X1,X2]> = <F, X2> = 1 for F = (0,1,0,0,0) in the identity-block family.
    alg = build_md5("5_4_5")
    b = kirillov_form(alg, covector(beta=1.0))
    expected = np.zeros((5, 5))
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    assert np.array_equal(b, expected)


def test_kirillov_zero_covector():
    alg = build_md5("5_4_12", **{"lambda": 1.0, "phi": np.pi / 2})
    assert np.array_equal(kirillov_form(alg, np.zeros(5)), np.zeros((5, 5)))


def test_kirillov_antisymmetric_random():
    rng = np.random.default_rng(3)
    for fid in ALL_FAMILIES:
        alg = build_md5(sample_family(fid, rng))
        f = rng.standard_normal(5)
        b = kirillov_form(alg, f)
        assert np.allclose(b, -b.T)


def test_orbit_dimension_examples():
    alg1 = build_md5("5_4_1", lambda1=2.0, lambda2=3.0, lambda3=5.0)
    assert orbit_dimension(alg1, covector(beta=1.0)) == 2
    for fid in ALL_FAMILIES:
        alg = build_md5(sample_family(fid, np.random.default_rng(1)))
        assert orbit_dimension(alg, covector(alpha=7.0)) == 0
    alg14 = build_md5("5_4_14", **{"lambda": 0.0, "mu": 1.0, "phi": np.pi / 2})
    assert orbit_dimension(alg14, covector(0.0, 1.0, 1.0, 1.0, 1.0)) == 2


def test_md_verify_examples():
    alg = build_md5("5_4_3", **{"lambda": -1.0})
    report = md_verify(alg, 10_000, seed=11)
    assert report.rank_counts == {0: 6, 2: 10_000}
    assert report.n_samples == 10_006
    assert report.counterexamples == []

    alg12 = build_md5("5_4_12", **{"lambda": 1.0, "phi": np.pi / 2})
    report12 = md_verify(alg12, 10_000, seed=5)
    assert report12.dichotomy_holds

    from mdlab.liealg import LieAlgebra
    zero = LieAlgebra(np.zeros((5, 5, 5)))
    rz = md_verify(zero, 500, seed=2)
    assert rz.rank_counts == {0: 506}
    assert rz.n_samples == 506
    # Every nonzero sample contradicts the two_dim prediction on the abelian algebra.
    assert len(rz.counterexamples) == 500


def test_md_verify_is_deterministic_for_any_sample_count():
    alg = build_md5("5_4_4", **{"lambda": 0.5})
    assert md_verify(alg, 3000, seed=7).to_json() == md_verify(alg, 3000, seed=7).to_json()
    one = md_verify(alg, 1, seed=7)
    assert one.n_samples == 7
    assert one.rank_counts == {0: 6, 2: 1}
    with pytest.raises(ValueError, match="n_samples"):
        md_verify(alg, 0, seed=7)


def test_flow_identity_at_zero():
    alg = build_md5("5_4_7", **{"lambda": 2.0})
    f = covector(0.4, 1.0, -2.0, 0.3, 0.9)
    out = coadjoint_flow(alg, f, 0.0, 0.4)
    assert np.allclose(out, f, atol=1e-14)


def test_flow_family_1_exponentials():
    l1, l2, l3 = 2.0, 3.0, 5.0
    alg = build_md5("5_4_1", lambda1=l1, lambda2=l2, lambda3=l3)
    b, g, d, s = 1.1, -0.4, 0.8, 2.2
    a = 0.6
    out = coadjoint_flow(alg, covector(0, b, g, d, s), a, 9.0)
    expected = [9.0, b * np.exp(a * l1), g * np.exp(a * l2), d * np.exp(a * l3), s * np.exp(a)]
    assert np.allclose(out, expected, atol=1e-12)


def test_flow_family_10_cubic_terms():
    alg = build_md5("5_4_10")
    b, g, d, s = 1.0, 0.5, -0.25, 2.0
    a = 1.3
    ea = np.exp(a)
    out = coadjoint_flow(alg, covector(0, b, g, d, s), a, 0.0)
    expected = [0.0, b * ea, (b * a + g) * ea, (b * a * a / 2 + g * a + d) * ea,
                (b * a ** 3 / 6 + g * a * a / 2 + d * a + s) * ea]
    assert np.allclose(out, expected, atol=1e-11)


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_closed_form_exponential_matches_pade(fid):
    # Route A (scipy Padé scaling-and-squaring) vs route B (block closed forms).
    rng = np.random.default_rng(17)
    for _ in range(5):
        fam = sample_family(fid, rng)
        m = fam.ad_block()
        for a in (-3.0, -0.9, 0.0, 0.4, 3.0):
            e1 = scipy.linalg.expm(a * m.T)
            e2 = exp_ad_transpose(fam, a)
            scale = max(1.0, np.abs(e2).max())
            assert np.abs(e1 - e2).max() <= 1e-12 * scale


def test_closed_form_orbit_family_9_quadratic_term():
    fam = MD5Family("5_4_9", {"lambda": 2.0})
    f = covector(0, 0.0, 1.0, 0.0, 0.0)  # gamma = 1 isolates the a^2 e^a / 2 term
    desc = closed_form_orbit(fam, f)
    assert desc.stratum == "two_dim"
    a = 0.9
    pt = desc.closed_form(0.0, a)
    assert np.isclose(pt[4], a * a * np.exp(a) / 2)


def test_closed_form_orbit_zero_stratum_is_constant():
    fam = MD5Family("5_4_13", {"lambda": 1.5, "phi": 0.7})
    f = covector(alpha=2.0)
    desc = closed_form_orbit(fam, f)
    assert desc.is_point
    assert np.array_equal(desc.closed_form(3.0, -1.0), f)
    grid = desc.closed_form(np.zeros(4), np.linspace(-1, 1, 4))
    assert grid.shape == (4, 5)
    assert np.all(grid == f)


def test_closed_form_orbit_family_13_slots():
    lam, phi = 1.5, 0.7
    fam = MD5Family("5_4_13", {"lambda": lam, "phi": phi})
    d, s = 0.8, -0.3
    desc = closed_form_orbit(fam, covector(0, 0.1, 0.2, d, s))
    a = 1.2
    pt = desc.closed_form(0.0, a)
    assert np.isclose(pt[3], d * np.exp(a * lam))
    assert np.isclose(pt[4], d * a * np.exp(a * lam) + s * np.exp(a * lam))


def test_flow_vs_closed_form_examples():
    fam7 = MD5Family("5_4_7", {"lambda": 2.0})
    dev = flow_vs_closed_form(fam7, covector(0, 1, 1, 1, 1))
    assert dev < 1e-9

    fam14 = MD5Family("5_4_14", {"lambda": 0.0, "mu": 1.0, "phi": np.pi / 2})
    dev14 = flow_vs_closed_form(fam14, covector(0, 1, 0, 1, 0))
    assert dev14 < 1e-9

    # a = 0 grid only: exact agreement.
    assert flow_vs_closed_form(fam7, covector(0, 1, 1, 1, 1), avals=[0.0]) == 0.0

    # A non-finite covector deviates by NaN, which meets no bound.
    with np.errstate(invalid="ignore"):
        for bad in (np.nan, np.inf):
            assert np.isnan(flow_vs_closed_form(fam7, covector(0, bad, 1, 1, 1)))


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_flow_vs_closed_form_random(fid):
    rng = np.random.default_rng(23)
    for _ in range(3):
        fam = sample_family(fid, rng)
        f = rng.standard_normal(5)
        assert flow_vs_closed_form(fam, f, avals=np.linspace(-3, 3, 25)) < 1e-9


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_coadjoint_flow_on_a_time_vector_matches_scalar_calls(fid):
    rng = np.random.default_rng(31)
    fam = sample_family(fid, rng)
    alg = build_md5(fam)
    f = rng.standard_normal(5)
    avals, xs = rng.uniform(-3, 3, 40), rng.standard_normal(40)
    batched = coadjoint_flow(alg, f, avals, xs)
    assert batched.shape == (40, 5)
    assert np.array_equal(batched, np.stack([coadjoint_flow(alg, f, a, x)
                                             for a, x in zip(avals, xs)]))
    assert np.array_equal(coadjoint_flow(alg, f, avals, 0.5)[:, 0], np.full(40, 0.5))


def test_flow_group_law():
    rng = np.random.default_rng(5)
    for fid in ("5_4_8", "5_4_11", "5_4_14"):
        fam = sample_family(fid, rng)
        alg = build_md5(fam)
        f = rng.standard_normal(5)
        a, b = rng.uniform(-1.5, 1.5, 2)
        once = coadjoint_flow(alg, coadjoint_flow(alg, f, a, 0.0), b, 0.0)
        direct = coadjoint_flow(alg, f, a + b, 0.0)
        assert np.abs(once - direct).max() < 1e-9


def test_zero_stratum_predicate():
    assert in_zero_stratum(covector(alpha=5.0))
    assert not in_zero_stratum(covector(sigma=1e-300))


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_orbit_tangent_matches_kirillov_image(fid):
    rng = np.random.default_rng(31)
    for _ in range(5):
        fam = sample_family(fid, rng)
        alg = build_md5(fam)
        f = rng.standard_normal(5)
        assert orbit_tangent_residual(alg, f) < 1e-6


def test_orbit_tangent_rejects_point_orbit():
    alg = build_md5("5_4_5")
    with pytest.raises(ValueError):
        orbit_tangent_residual(alg, covector(alpha=1.0))
