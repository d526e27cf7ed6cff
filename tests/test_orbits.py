"""Tests for Kirillov forms, the dimension dichotomy, flows and closed forms."""

import tracemalloc
import warnings
from itertools import combinations

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
)
from point_probes import orbit_dimension
import reference_routes

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
    assert rz.n_counterexamples == 500
    assert not rz.dichotomy_holds


def test_md_verify_draws_the_documented_covectors():
    # The abelian algebra contradicts every sample, so the counterexamples it
    # keeps are the first covectors of the draw.
    rz = md_verify(LieAlgebra(np.zeros((5, 5, 5))), 500, seed=2)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((500, 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= 10.0 ** rng.uniform(-3.0, 3.0, size=(500, 1))
    assert rz.n_counterexamples == 500
    assert len(rz.counterexamples) == orbits.KEPT_COUNTEREXAMPLES
    kept = np.array([c for c, _, _ in rz.counterexamples])
    assert kept.tobytes() == v[:orbits.KEPT_COUNTEREXAMPLES].tobytes()
    assert {(r, p) for _, r, p in rz.counterexamples} == {(0, 2)}
    report = rz.to_json()
    assert report["n_counterexamples"] == 500
    assert len(report["counterexamples"]) == orbits.KEPT_COUNTEREXAMPLES


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
    fs = rng.standard_normal((5, 3 * block + 5)) * 10.0 ** rng.uniform(-3, 3, 3 * block + 5)
    # Zero-stratum covectors on both sides of each block boundary.
    zero = [0, block - 1, block, 2 * block - 1, 2 * block, 3 * block, fs.shape[1] - 1]
    fs[1:, zero] = 0.0
    ranks = orbits._batched_ranks(alg, fs)
    assert np.flatnonzero(ranks == 0).tolist() == zero
    assert set(ranks.tolist()) == {0, 2}
    for size in (1, 7, fs.shape[1]):  # one covector per block ... one block for all
        monkeypatch.setattr(orbits, "RANK_BLOCK", size)
        assert np.array_equal(orbits._batched_ranks(alg, fs), ranks), size


def test_md_verify_memory_stays_below_the_kirillov_forms_of_all_samples():
    # The Kirillov forms of 100 006 covectors alone take 20 MB; the rank
    # kernel never holds more than RANK_BLOCK of them.
    alg = build_md5("5_4_4", **{"lambda": 0.5})
    tracemalloc.start()
    try:
        report = md_verify(alg, 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rank_counts == {0: 6, 2: 100_000}
    assert peak < 16e6, peak


def test_md_verify_report_does_not_grow_with_its_counterexamples():
    # On the abelian algebra all 100 000 samples are counterexamples; the
    # report counts them and keeps only the first few.
    rz = md_verify(LieAlgebra(np.zeros((5, 5, 5))), 100_000, seed=1)
    assert rz.n_counterexamples == 100_000
    assert len(rz.to_json()["counterexamples"]) == orbits.KEPT_COUNTEREXAMPLES


@pytest.mark.parametrize("f, rank", [
    ((np.nan, 0, 0, 0, 0), -1),
    ((0, np.nan, 0, 0, 0), -1),
    ((0, np.inf, 1, 1, 1), -1),
    ((0, 1e200, 1, 1, 1), 2),
    ((0, 1e-200, 0, 0, 0), 2),
    ((1e-200, 0, 0, 0, 0), 0),
    ((np.inf, 1, 0, 0, 0), -1),
    ((np.nan, 1, 0, 0, 0), -1),
])
def test_orbit_dimension_of_non_finite_and_extreme_covectors(f, rank):
    # -1 never equals a predicted 0 or 2, so a non-finite covector or form never
    # passes the dichotomy.
    rng = np.random.default_rng(8)
    block = np.random.default_rng(9).standard_normal((5, 9))
    for fid in ALL_FAMILIES:
        alg = build_md5(sample_family(fid, rng))
        assert orbit_dimension(alg, f) == rank, fid
        # Inside a block of finite covectors it changes no neighbour's rank.
        alone = orbits._batched_ranks(alg, block)
        fs = block.copy()
        fs[:, 4] = f
        alone[4] = rank
        assert np.array_equal(orbits._batched_ranks(alg, fs), alone), fid
    if rank == -1:
        # No Kirillov form entry is formed on the abelian algebra: the covector alone gives -1.
        assert orbit_dimension(LieAlgebra(np.zeros((5, 5, 5))), f) == -1


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
    # The algebra with [X_i, X_j] = b_ij X_1 has Kirillov form b at F = e1, and
    # its live entries are the nonzero entries of b.
    sc = np.zeros((5, 5, 5))
    sc[:, :, 0] = b
    alg = LieAlgebra(sc)
    s1, s2 = orbits._singular_values(orbits._live_forms(alg), covector(alpha=1.0)[:, None])
    assert abs(s1[0] - sv[0]) <= VALUE_TOL * sv[0]
    assert abs(s2[0] - sv[2]) <= VALUE_TOL * sv[0]
    assert orbit_dimension(alg, covector(alpha=1.0)) == (sv > cut).sum()


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


# The factors of the three Pfaffian terms of the minor (0, 1, 2, 3), and of its first term alone.
_ONE_MINOR = [orbits._POS[k] for k in [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]]
_ONE_TERM = _ONE_MINOR[:2]


@settings(max_examples=300, deadline=None)
@given(live=st.sets(st.integers(0, 9)),
       upper=st.lists(st.floats(0.5, 1.0) | st.floats(-1.0, -0.5), min_size=10, max_size=10),
       exponent=_exponents)
@example(live=set(), upper=[1.0] * 10, exponent=0.0)
@example(live=set(_ONE_TERM), upper=[1.0] * 10, exponent=0.0)
@example(live=set(_ONE_MINOR), upper=[1.0] * 10, exponent=200.0)
@example(live=set(_ONE_MINOR), upper=[1.0, 0.5] + [1.0] * 8, exponent=-200.0)
@example(live=set(range(10)), upper=[1.0] * 10, exponent=300.0)
def test_ranks_on_any_pattern_of_dead_entries_match_the_svd(live, upper, exponent):
    # A dead entry is left out of p and out of every Pfaffian term it is a factor of.
    b = np.zeros((5, 5))
    b[orbits._UPPER] = np.where(np.isin(np.arange(10), list(live)), upper, 0.0) * 10.0 ** exponent
    _assert_matches_the_svd(b - b.T)


def _dense_singular_values(upper):
    """The closed form on all ten upper entries (N, 10), dead ones included; p left to right."""
    m = np.abs(upper).max(axis=1)
    scale = np.where(m > 0, m, 1.0)
    u = upper / scale[:, None]
    p = u[:, 0] * u[:, 0]
    for column in u.T[1:]:
        p = p + column * column
    pos = orbits._POS
    ab, cd, ac, bd, ad, bc = np.array(
        [[pos[a, b], pos[c, d], pos[a, c], pos[b, d], pos[a, d], pos[b, c]]
         for a, b, c, d in combinations(range(5), 4)]).T
    pf = u[:, ab] * u[:, cd] - u[:, ac] * u[:, bd] + u[:, ad] * u[:, bc]
    q = (pf * pf).sum(axis=1)
    s1 = np.sqrt((p + np.sqrt(np.maximum(p * p - 4.0 * q, 0.0))) / 2.0)
    s2 = np.sqrt(q) / np.where(s1 > 0, s1, 1.0)
    return s1 * scale, s2 * scale


@pytest.mark.parametrize("seed", range(40))
def test_dropping_dead_entries_keeps_every_bit_of_the_dense_closed_form(seed):
    # x + 0 = x and x * 0 = 0, so leaving the dead entries out changes no bit of s1 or s2.
    rng = np.random.default_rng(seed)
    sc = rng.standard_normal((5, 5, 5)) * (rng.random((5, 5, 5)) < rng.uniform(0.05, 0.6))
    sc -= sc.transpose(1, 0, 2)
    live = orbits._live_forms(LieAlgebra(sc))
    fs = rng.standard_normal((5, 300)) * 10.0 ** rng.uniform(-300, 300, 300)
    upper = np.zeros((300, 10))
    upper[:, np.any(sc[orbits._UPPER] != 0, axis=1)] = (live[0] @ fs).T
    s1, s2 = orbits._singular_values(live, fs)
    d1, d2 = _dense_singular_values(upper)
    assert s1.tobytes() == d1.tobytes()
    assert s2.tobytes() == d2.tobytes()


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
    sv = np.linalg.svd(kirillov_form(alg, fs), compute_uv=False)
    s1, s2 = orbits._singular_values(orbits._live_forms(alg), fs.T)
    assert np.all(s2 == 0.0)
    assert np.all(np.abs(s1 - sv[:, 0]) <= 1e-14 * sv[:, 0])
    cut = orbits.RANK_TOL * sv[:, :1]
    assert np.array_equal(orbits._batched_ranks(alg, fs.T), (sv > cut).sum(axis=1))


def _ranks_by_singular_values(alg, fs):
    """Every catalogue rank from both closed-form singular values: -1 at a
    non-finite covector, and 2 at a finite one whose s1 is past the largest
    float, since the largest entry of its e1 ^ w, so w, is not 0."""
    s1, s2 = orbits._singular_values(orbits._live_forms(alg), fs)
    return np.where(np.isfinite(fs).all(axis=0),
                    np.where(np.isfinite(s1), 2 * (s1 > 0.0) + 2 * (s2 > orbits.RANK_TOL * s1), 2),
                    -1)


def _extreme_columns(rng):
    """Covectors at scales 1e-320 .. 1e307, two on the zero stratum, and covectors with
    NaN, +-inf, subnormal or +-1e308 coordinates: one such coordinate, all five, or a
    random subset."""
    fs = rng.standard_normal((5, 300)) * 10.0 ** rng.uniform(-320, 307, 300)
    columns = [covector(), covector(alpha=7.0)]
    for x in (np.nan, np.inf, -np.inf, 5e-324, -2.5e-320, 1e308, -1e308):
        for i in range(5):
            c = rng.standard_normal(5)
            c[i] = x
            columns.append(c)
        columns += [np.full(5, x), np.where(rng.random(5) < 0.5, x, 0.0),
                    np.where(rng.random(5) < 0.5, x, rng.standard_normal(5))]
    return np.hstack([fs, np.array(columns).T])


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_ranks_read_from_the_largest_entry_equal_the_singular_value_route(fid):
    # A catalogue form e1 ^ w has no Pfaffian term, so _batched_ranks reads its
    # rank from max |w| alone and sends only the non-finite and huge columns
    # through the singular values.  The ranks are those of the singular values
    # at every parameter scale.
    rng = np.random.default_rng(47)
    fs = _extreme_columns(rng)
    base = sample_family(fid, rng)
    kinds = FAMILIES[fid].params
    for scale in (1e-320, 1e-300, 1e-200, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e200, 1e307):
        params = {k: v if kinds[k] == "angle" else v * scale for k, v in base.params.items()}
        alg = build_md5(MD5Family(fid, params))
        assert orbits._live_forms(alg)[1] == []
        expected = _ranks_by_singular_values(alg, fs)
        assert np.array_equal(orbits._batched_ranks(alg, fs), expected), scale
        assert set(expected.tolist()) == {-1, 0, 2}, scale


def test_a_form_whose_largest_singular_value_overflows_has_the_rank_of_its_scaled_form():
    # The largest |entry| 1.5e308 is finite, and so is the coordinate sum, but
    # s1 = sqrt(2) * 1.5e308 is not: the rank is not read from the largest entry
    # there, and the form is ranked on its power-of-two scaling instead.
    alg = build_md5("5_4_5")
    assert orbit_dimension(alg, covector(beta=1.5e308, gamma=-1.5e308)) == 2
    assert orbit_dimension(alg, covector(beta=1.5e308, gamma=-1e307)) == 2
    assert orbit_dimension(alg, covector(beta=2.0 ** 1021, gamma=2.0 ** 1021)) == 2
    assert orbit_dimension(alg, covector(beta=1.5e308, gamma=np.inf)) == -1


@pytest.mark.parametrize("ratio, rank", [(1e-4, 4), (1e-12, 2), (0.0, 2)])
def test_a_form_with_pfaffian_terms_past_the_largest_float_keeps_its_rank(ratio, rank):
    # Q J Q^T with J = diag(R, ratio R, 0), R the quarter turn, as the Kirillov
    # form at F = 1e300 e1 of the algebra [X_i, X_j] = 1e10 b_ij X_1: its entries
    # reach about 1e310.
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    j = np.zeros((5, 5))
    j[0, 1], j[2, 3] = 1.0, ratio
    b = q @ (j - j.T) @ q.T
    sc = np.zeros((5, 5, 5))
    sc[:, :, 0] = 1e10 * (b - b.T) / 2
    alg = LieAlgebra(sc)
    assert orbits._live_forms(alg)[1] != []
    with np.errstate(over="ignore"):
        assert not np.isfinite(kirillov_form(alg, covector(alpha=1e300))).all()
    assert orbit_dimension(alg, covector(alpha=1e300)) == rank
    assert orbit_dimension(alg, covector(alpha=1.0)) == rank


def test_mdcheck_parameters_past_the_largest_float_pass_the_dichotomy():
    # lambda1 * beta overflows for |beta| above about 180: those covectors read
    # rank -1, a false counterexample, before the scaled route.
    alg = build_md5(MD5Family("5_4_1", {"lambda1": 1e306, "lambda2": 2.0, "lambda3": 3.0}))
    fs = _extreme_columns(np.random.default_rng(47))
    expected = _ranks_by_singular_values(alg, fs)
    assert np.array_equal(orbits._batched_ranks(alg, fs), expected)
    assert set(expected.tolist()) == {-1, 0, 2}
    report = md_verify(alg, 2000, seed=42)
    assert report.dichotomy_holds and report.rank_counts == {0: 6, 2: 2000}


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_catalogue_forms_live_on_the_first_row_alone(fid):
    # Only [X1, .] brackets are nonzero and ad_X1 is invertible on the derived
    # ideal, so the live entries are B[0, 1..4], and no Pfaffian term has two
    # live factors.
    rng = np.random.default_rng(43)
    for _ in range(20):
        alg = build_md5(sample_family(fid, rng))
        sc, pfaffians = orbits._live_forms(alg)
        assert np.array_equal(sc, alg.sc[0, 1:])
        assert pfaffians == []


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


def test_the_one_norms_have_the_bits_of_the_reduction():
    # `_expm` picks its scaling from these norms, so they must be the bits of
    # np.abs(stack).sum(axis=1).max(axis=1) everywhere, the non-finite and
    # overflowing stacks included.
    rng = np.random.default_rng(41)
    big = np.finfo(float).max
    for n in (1, 2, 4, 5):
        stack = rng.standard_normal((400, n, n)) * 10.0 ** rng.uniform(-300, 300, (400, n, n))
        stack[:40] = rng.uniform(-1.0, 1.0, (40, n, n)) * big  # near overflow
        stack[40:60, 0, -1] = big
        stack[60:80, -1, -1] = -big / 2  # sums that round over the largest float
        stack[80:100] = np.ldexp(rng.standard_normal((20, n, n)), -1074)  # subnormal
        stack[100:120, rng.integers(n), rng.integers(n)] = np.inf
        stack[120:140, rng.integers(n), rng.integers(n)] = -np.inf
        stack[140:160, rng.integers(n), rng.integers(n)] = np.nan
        stack[160:170, 0, 0], stack[160:170, -1, 0] = np.inf, np.nan
        with np.errstate(over="ignore"):
            expected = np.abs(stack).sum(axis=1).max(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = orbits._one_norms(stack)
        assert got.dtype == expected.dtype
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist(), n
        assert np.isnan(got[140:170]).all() and (n == 1 or np.isinf(got[:80]).any())


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


def test_flow_vs_closed_form_refuses_no_flow_times_and_is_quiet_on_infinite_ones():
    fam = MD5Family("5_4_7", {"lambda": 2.0})
    with pytest.raises(ValueError, match="avals"):
        flow_vs_closed_form(fam, covector(0, 1, 1, 1, 1), avals=[])
    # An infinite flow time deviates by NaN, documented and without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for avals in ([np.inf], [-np.inf], [0.5, np.inf]):
            assert np.isnan(flow_vs_closed_form(fam, covector(0, 1, 1, 1, 1), avals=avals))


def test_closed_form_orbit_is_nan_and_quiet_at_infinite_flow_times():
    # At a = -inf, d a e^a is -inf * 0; the point is NaN, without a warning.
    fam = MD5Family("5_4_7", {"lambda": 2.0})
    f = covector(0, 1, 1, 1, 1)
    point = closed_form_orbit(fam, f, 0.0, -np.inf)
    assert point[0] == 0.0 and np.all(np.isnan(point[1:]))
    orbit = closed_form_orbit(fam, f, 0.0, np.array([-np.inf, 0.5, np.inf]))
    assert np.all(np.isnan(orbit[[0, 2], 1:]))
    assert np.array_equal(orbit[1], closed_form_orbit(fam, f, 0.0, 0.5))
    # The orbit of a zero-stratum covector is the point itself at every flow time.
    assert np.array_equal(closed_form_orbit(fam, covector(alpha=2.0), 0.0, -np.inf),
                          covector(alpha=2.0))


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


def orbit_tangent_residual(alg: LieAlgebra, f) -> float:
    """Largest principal angle between the orbit tangent plane and im(B_F).

    The tangent plane at a=0 is spanned by the free direction e1 and
    d/da of the flow, i.e. (0, M^T f'); the Kirillov form's column space
    is the coadjoint tangent space.  Requires the 2-dimensional stratum.
    The angles come from scipy, apart from the package.
    """
    f = np.asarray(f, dtype=float)
    if in_zero_stratum(f):
        raise ValueError("tangent comparison requires a 2-dimensional orbit")
    t = np.zeros((5, 2))
    t[0, 0] = 1.0
    t[1:, 1] = alg.sc[0, 1:, 1:] @ f[1:]  # M^T f', as in `coadjoint_flow`
    b = kirillov_form(alg, f)
    u, s, _ = np.linalg.svd(b)
    img = u[:, :2]
    angles = scipy.linalg.subspace_angles(t, img)
    return float(np.max(angles)) if angles.size else 0.0


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


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_flow_vs_closed_form_keeps_the_bits_of_the_numpy_formulas(fid):
    # The block written entry by entry, the power-of-two scaling, the 1-norms
    # added in place and each exponential of a closed form evaluated once keep
    # every bit of the deviation, and of the block and structure constants.
    rng = np.random.default_rng(53)
    for k in range(20):
        fam = sample_family(fid, rng)
        f = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 3)
        avals = np.linspace(-3.0, 3.0, 100) if k % 2 else rng.uniform(-4.0, 4.0, 37)
        assert repr(flow_vs_closed_form(fam, f, avals=avals)) == repr(
            reference_routes.flow_vs_closed_form(fam, f, avals)), (fam, f)
        block = reference_routes.ad_block(fam)
        assert fam.ad_block().tobytes() == block.tobytes()
        sc = np.zeros((5, 5, 5))
        for j in range(4):
            sc[0, j + 1, 1:] = block[:, j]
            sc[j + 1, 0, 1:] = -block[:, j]
        assert build_md5(fam).sc.tobytes() == sc.tobytes()


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_md_verify_keeps_the_counts_of_the_bincount_route(fid, monkeypatch):
    # Ranks -1, 0, 2 and 4 planted among the real ones, and covectors put on
    # the zero stratum or given a zero, -0.0 or NaN entry: the histogram, the
    # counterexamples and their predictions are those of np.bincount over all
    # ranks and of in_zero_stratum on the covectors.
    rng = np.random.default_rng(59)
    alg = build_md5(sample_family(fid, rng))
    batched = orbits._batched_ranks
    seen = []

    def plant(alg, fs):
        fs[1:, rng.random(fs.shape[1]) < 0.05] = 0.0
        for x in (0.0, -0.0, np.nan):
            fs[rng.integers(1, 5), rng.random(fs.shape[1]) < 0.05] = x
        ranks = batched(alg, fs)
        planted = rng.random(ranks.size) < 0.1
        ranks[planted] = rng.choice([-1, 0, 2, 4], planted.sum())
        seen.append((fs, ranks))
        return ranks

    monkeypatch.setattr(orbits, "_batched_ranks", plant)
    report = md_verify(alg, 3000, seed=int(rng.integers(2 ** 31)))
    ((fs, ranks),) = seen
    predicted = np.where(in_zero_stratum(fs.T), 0, 2)
    bad = np.flatnonzero(ranks != predicted)
    assert report.rank_counts == {
        r - 1: c for r, c in enumerate(np.bincount(ranks + 1).tolist()) if c}
    assert report.n_counterexamples == len(bad) > orbits.KEPT_COUNTEREXAMPLES
    assert [(c.tobytes(), r, p) for c, r, p in report.counterexamples] == [
        (fs[:, i].tobytes(), ranks[i], predicted[i]) for i in bad[:orbits.KEPT_COUNTEREXAMPLES]]
