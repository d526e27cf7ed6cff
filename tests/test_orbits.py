"""Tests for Kirillov forms, the dimension dichotomy, flows and closed forms."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from mdlab import orbits
from mdlab.cli import RunConfig
from mdlab.criteria import REGISTRY
from mdlab.liealg import FAMILIES, LieAlgebra, MD5Family, build_md5, sample_family
from mdlab.orbits import (
    closed_form_orbit,
    coadjoint_flow,
    covector,
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


def test_batched_ranks_do_not_depend_on_the_svd_blocks(monkeypatch):
    alg = build_md5("5_4_4", **{"lambda": 0.5})
    block = orbits.RANK_BLOCK
    rng = np.random.default_rng(4)
    fs = rng.standard_normal((3 * block + 5, 5)) * 10.0 ** rng.uniform(-3, 3, (3 * block + 5, 1))
    # Zero-stratum covectors on both sides of each block boundary.
    zero = [0, block - 1, block, 2 * block - 1, 2 * block, 3 * block, len(fs) - 1]
    fs[zero, 1:] = 0.0
    ranks = orbits._batched_ranks(alg, fs)
    assert np.flatnonzero(ranks == 0).tolist() == zero
    assert set(ranks.tolist()) == {0, 2}
    for size in (1, 7, len(fs)):  # one covector per SVD ... one SVD for all
        monkeypatch.setattr(orbits, "RANK_BLOCK", size)
        assert np.array_equal(orbits._batched_ranks(alg, fs), ranks), size


def test_md_verify_memory_stays_below_the_kirillov_forms_of_all_samples():
    # The Kirillov forms of 100 006 covectors alone take 20 MB; the blocked
    # SVD never holds more than RANK_BLOCK of them.
    alg = build_md5("5_4_4", **{"lambda": 0.5})
    tracemalloc.start()
    try:
        report = md_verify(alg, 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rank_counts == {0: 6, 2: 100_000}
    assert peak < 16e6, peak


@pytest.mark.parametrize("f, rank", [
    ((np.nan, 0, 0, 0, 0), -1),
    ((0, np.nan, 0, 0, 0), -1),
    ((0, np.inf, 1, 1, 1), -1),
    ((0, 1e200, 1, 1, 1), 2),
    ((0, 1e-200, 0, 0, 0), 2),
    ((1e-200, 0, 0, 0, 0), 0),
])
def test_orbit_dimension_of_non_finite_and_extreme_covectors(f, rank):
    # -1 never equals a predicted 0 or 2, so a non-finite form never passes the dichotomy.
    rng = np.random.default_rng(8)
    for fid in ALL_FAMILIES:
        assert orbit_dimension(build_md5(sample_family(fid, rng)), f) == rank, fid


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_small_covectors_get_the_dimension_of_their_stratum(fid):
    # The cut is relative, so a covector of any scale off the zero stratum has
    # a 2-dimensional orbit, and one on it a point.
    alg = build_md5(sample_family(fid, np.random.default_rng(9)))
    for k in range(1, 301):
        off, on = covector(beta=10.0 ** -k), covector(alpha=10.0 ** -k)
        assert not in_zero_stratum(off) and in_zero_stratum(on)
        assert orbit_dimension(alg, off) == 2, k
        assert orbit_dimension(alg, on) == 0, k


# Where s1 and s2 meet, the double root of t^2 - p t + q loses half the digits:
# the closed form then agrees with the SVD only to about sqrt(eps) * s1.
VALUE_TOL = 1e-7


def _assert_matches_the_svd(b):
    """The closed form's values and rank of the skew form b (5, 5) against LAPACK's SVD."""
    sv = np.linalg.svd(b, compute_uv=False)
    cut = orbits.RANK_TOL * sv[0]
    # Round-off of either route moves a value at the cut by up to about 1e-7 of
    # the cut, so a value within 1e-6 of it has no stable numeric rank.  The
    # zero form (cut 0) has rank 0 on both routes.
    assume(cut == 0.0 or np.all(np.abs(sv - cut) > 1e-6 * cut))
    s1, s2 = orbits._singular_values(b[orbits._UPPER][None, :])
    assert abs(s1[0] - sv[0]) <= VALUE_TOL * sv[0]
    assert abs(s2[0] - sv[2]) <= VALUE_TOL * sv[0]
    # The algebra with [X_i, X_j] = b_ij X_1 has Kirillov form b at F = e1.
    sc = np.zeros((5, 5, 5))
    sc[:, :, 0] = b
    assert orbit_dimension(LieAlgebra(sc), covector(alpha=1.0)) == (sv > cut).sum()


_exponents = st.floats(-300.0, 300.0)


@settings(max_examples=300, deadline=None)
@given(upper=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10), exponent=_exponents)
@example(upper=[0.0] * 10, exponent=0.0)
@example(upper=[1.0] * 10, exponent=300.0)
@example(upper=[1.0] * 10, exponent=-300.0)
def test_closed_form_singular_values_match_the_svd_on_random_forms(upper, exponent):
    b = np.zeros((5, 5))
    b[orbits._UPPER] = np.asarray(upper) * 10.0 ** exponent
    _assert_matches_the_svd(b - b.T)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=_exponents,
       ratio=st.sampled_from([1.0, 1.0 - 1e-12, 1e-4, 1e-12, 0.0]))
@example(seed=0, exponent=0.0, ratio=1e-4)
@example(seed=0, exponent=6.0, ratio=1e-12)  # s2 = 1e-6: above 1e-8, below the relative cut
def test_closed_form_singular_values_match_the_svd_on_known_spectra(seed, exponent, ratio):
    # Q J Q^T with J = diag(s1 R, s2 R, 0), R the quarter turn: singular values s1, s1, s2, s2, 0.
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))
    s1 = 10.0 ** exponent
    j = np.zeros((5, 5))
    j[0, 1], j[2, 3] = s1, ratio * s1
    b = q @ (j - j.T) @ q.T
    _assert_matches_the_svd((b - b.T) / 2)


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_closed_form_singular_values_on_the_catalogue(fid):
    # The derived ideal is abelian: every Pfaffian is exactly 0, hence s2 too.
    rng = np.random.default_rng(41)
    alg = build_md5(sample_family(fid, rng))
    fs = rng.standard_normal((200, 5)) * 10.0 ** rng.uniform(-300, 300, (200, 1))
    forms = kirillov_form(alg, fs)
    sv = np.linalg.svd(forms, compute_uv=False)
    s1, s2 = orbits._singular_values(forms[:, orbits._UPPER[0], orbits._UPPER[1]])
    assert np.all(s2 == 0.0)
    assert np.all(np.abs(s1 - sv[:, 0]) <= 1e-14 * sv[:, 0])
    cut = orbits.RANK_TOL * sv[:, :1]
    assert np.array_equal(orbits._batched_ranks(alg, fs), (sv > cut).sum(axis=1))


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
    # Route A (scipy Padé scaling-and-squaring) vs route B (the hand-written
    # closed forms, whose orbits through the four unit covectors are the
    # columns of exp(a * M^T)).
    rng = np.random.default_rng(17)
    units = np.eye(5)[1:]
    for _ in range(5):
        fam = sample_family(fid, rng)
        m = fam.ad_block()
        for a in (-3.0, -0.9, 0.0, 0.4, 3.0):
            e1 = scipy.linalg.expm(a * m.T)
            e2 = np.stack([closed_form_orbit(fam, u, 0.0, a)[1:] for u in units], axis=1)
            scale = max(1.0, np.abs(e2).max())
            assert np.abs(e1 - e2).max() <= 1e-12 * scale


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_batched_expm_matches_scipy(fid):
    # The flow's own Pade route against scipy's, one matrix at a time and as a stack.
    rng = np.random.default_rng(19)
    for _ in range(5):
        m = sample_family(fid, rng).ad_block().T
        for a in (-3.0, -0.9, 0.0, 0.4, 3.0):
            e = scipy.linalg.expm(a * m)
            assert np.abs(orbits._expm(a * m) - e).max() <= 1e-12 * max(1.0, np.abs(e).max())
        stack = np.linspace(-3.0, 3.0, 100)[:, None, None] * m
        e = scipy.linalg.expm(stack)
        scale = np.maximum(1.0, np.abs(e).max(axis=(1, 2)))
        assert np.all(np.abs(orbits._expm(stack) - e).max(axis=(1, 2)) <= 1e-12 * scale)


def test_a_non_finite_flow_time_gives_nan_in_its_point_only():
    alg = build_md5(MD5Family("5_4_9", {"lambda": 2.0}))
    f = covector(0, 1, 1, 1, 1)
    avals = np.array([-1.0, np.nan, 0.5, np.inf, -np.inf, 2.0])
    out = coadjoint_flow(alg, f, avals, 0.0)
    bad = ~np.isfinite(avals)
    assert np.isnan(out[bad, 1:]).all()
    assert np.array_equal(out[~bad], coadjoint_flow(alg, f, avals[~bad], 0.0))


def test_closed_form_orbit_family_9_quadratic_term():
    fam = MD5Family("5_4_9", {"lambda": 2.0})
    f = covector(0, 0.0, 1.0, 0.0, 0.0)  # gamma = 1 isolates the a^2 e^a / 2 term
    assert not in_zero_stratum(f)
    a = 0.9
    pt = closed_form_orbit(fam, f, 0.0, a)
    assert np.isclose(pt[4], a * a * np.exp(a) / 2)


def test_closed_form_orbit_zero_stratum_is_constant():
    fam = MD5Family("5_4_13", {"lambda": 1.5, "phi": 0.7})
    f = covector(alpha=2.0)
    assert in_zero_stratum(f)
    assert np.array_equal(closed_form_orbit(fam, f, 3.0, -1.0), f)
    grid = closed_form_orbit(fam, f, np.zeros(4), np.linspace(-1, 1, 4))
    assert grid.shape == (4, 5)
    assert np.all(grid == f)


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_closed_form_orbit_of_a_stack_is_the_orbit_of_each_covector(fid):
    rng = np.random.default_rng(12)
    fam = sample_family(fid, rng)
    fs = rng.standard_normal((6, 5))
    fs[[1, 4], 1:] = 0.0  # zero-stratum rows keep F itself
    avals = np.linspace(-3.0, 3.0, 13)
    stacked = closed_form_orbit(fam, fs[:, None, :], 0.5, avals)
    assert stacked.shape == (6, 13, 5)
    for f, orbit in zip(fs, stacked):
        assert np.array_equal(orbit, closed_form_orbit(fam, f, 0.5, avals))
    assert np.all(stacked[[1, 4]] == fs[[1, 4], None, :])
    assert np.array_equal(closed_form_orbit(fam, fs[[1, 4]], 0.5, 0.0), fs[[1, 4]])


def test_closed_form_orbit_family_13_slots():
    lam, phi = 1.5, 0.7
    fam = MD5Family("5_4_13", {"lambda": lam, "phi": phi})
    d, s = 0.8, -0.3
    a = 1.2
    pt = closed_form_orbit(fam, covector(0, 0.1, 0.2, d, s), 0.0, a)
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
        # The orbit through a zero-stratum covector is the point itself.
        assert flow_vs_closed_form(fam, covector(alpha=2.0), avals=np.linspace(-3, 3, 25)) == 0.0


def test_criterion_02_fails_when_one_closed_form_term_is_dropped(monkeypatch):
    # 5_4_9 without the g a e^a term of its third coordinate.
    monkeypatch.setitem(orbits._ORBITS, "5_4_9", lambda p, b, g, d, s, a: (
        b * np.exp(a * p["lambda"]), g * np.exp(a), d * np.exp(a),
        g * a * a * np.exp(a) / 2 + d * a * np.exp(a) + s * np.exp(a)))
    (entry,) = [e for e in REGISTRY if e.name == "orbit_closed_forms"]
    (check,) = entry.run(RunConfig(seed=202))
    assert check["status"] == "fail"


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
    # Elementwise on a stack of covectors.
    fs = np.array([[[5.0, 0, 0, 0, 0], [0, 0, 0, 0, 1e-300]], [[0, 0, 0, 0, 0], [0, 1, 0, 0, 0]]])
    assert np.array_equal(in_zero_stratum(fs), [[True, False], [True, False]])


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
