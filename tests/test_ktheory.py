"""Tests for six-term sequences and the completion search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab import ktheory
from mdlab.foliation import STRATUM_MODELS
from mdlab.intlinalg import as_zmatrix, image_basis, invariant_factors, kernel_basis, snf
from mdlab.ktheory import (
    SearchSpaceError,
    SixTerm,
    exact_at,
    hexagon_preset,
    is_exact,
    solve_six_term,
    zmap,
)


def hexagon_of_scalars(values):
    """Six Z's with scalar maps."""
    maps = tuple(zmap(1, 1, [[v]]) for v in values)
    return SixTerm((1,) * 6, maps)


def test_alternating_patterns_are_exact():
    assert is_exact(hexagon_of_scalars([0, 1, 0, 1, 0, 1]))
    assert is_exact(hexagon_of_scalars([1, 0, 1, 0, 1, 0]))


def test_non_exact_patterns():
    seq = hexagon_of_scalars([1, 1, 0, 0, 0, 0])
    assert not exact_at(seq, 1)
    zero = hexagon_of_scalars([0, 0, 0, 0, 0, 0])
    assert all(not exact_at(zero, i) for i in range(6))


def _in_lattice(vec, basis):
    """Brute-force membership of an integer vector in a column lattice."""
    b = as_zmatrix(basis)
    if b.shape[1] == 0:
        return all(x == 0 for x in vec)
    u, d, v = snf(b)
    y = u @ as_zmatrix([[x] for x in vec])
    for i in range(b.shape[0]):
        di = d[i, i] if i < min(d.shape) else 0
        yi = int(y[i, 0])
        if di == 0:
            if yi != 0:
                return False
        elif yi % di != 0:
            return False
    return True


def _oracle_exact_at(seq, node):
    img = image_basis(seq.maps[(node - 1) % 6])
    ker = kernel_basis(seq.maps[node % 6])
    for j in range(img.shape[1]):
        if not _in_lattice([int(x) for x in img[:, j]], ker):
            return False
    for j in range(ker.shape[1]):
        if not _in_lattice([int(x) for x in ker[:, j]], img):
            return False
    return True


def test_exact_at_agrees_with_membership_oracle():
    rng = np.random.default_rng(6)
    for _ in range(60):
        ranks = tuple(int(r) for r in rng.integers(0, 4, 6))
        maps = tuple(
            as_zmatrix(rng.integers(-2, 3, (ranks[(i + 1) % 6], ranks[i])))
            if ranks[(i + 1) % 6] and ranks[i] else zmap(ranks[(i + 1) % 6], ranks[i])
            for i in range(6)
        )
        seq = SixTerm(ranks, maps)
        for node in range(6):
            assert exact_at(seq, node) == _oracle_exact_at(seq, node)


def test_negative_bound_is_refused():
    with pytest.raises(ValueError, match="bound must be >= 0"):
        solve_six_term(*hexagon_preset("gamma2"), bound=-1)
    assert solve_six_term(*hexagon_preset("gamma2"), bound=0) == []


def test_all_z_completions_are_the_two_alternating_patterns():
    groups, known = hexagon_preset("allZ")
    sols = solve_six_term(groups, known, bound=3)
    assert len(sols) == 2
    patterns = set()
    for s in sols:
        patterns.add(tuple(abs(int(m[0, 0])) for m in s.maps))
    assert patterns == {(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)}
    for s in sols:
        assert is_exact(s)


def test_gamma1_hexagon_forces_middle_groups():
    groups, known = hexagon_preset("gamma1")
    sols = solve_six_term(groups, known, bound=2)
    assert len(sols) == 1
    seq = sols[0]
    # K0 and K1 of the extension algebra are forced to be Z.
    assert seq.groups == (0, 1, 2, 2, 1, 0)
    assert [[int(x) for x in row] for row in seq.delta0] == [[0, 1], [0, 1]]
    assert seq.delta1.shape == (0, 0)


def test_gamma2_hexagon_unique_completion():
    groups, known = hexagon_preset("gamma2")
    sols = solve_six_term(groups, known, bound=2)
    assert len(sols) == 1
    seq = sols[0]
    assert seq.groups == (2, 2, 1, 0, 0, 1)
    assert [int(x) for x in seq.delta1.reshape(-1)] == [1, 1]


def test_j_nodes_follow_from_bott_on_the_leaf_space_model():
    # K_*(C0(R^n ⊔ R^n)) is Z^2 in degree n mod 2, n the model's dimension.
    for preset, stratum, algebra, ranks in [("gamma1", "V1", "J1", (0, 2)),
                                            ("gamma2", "V2", "J2", (2, 0))]:
        groups, _ = hexagon_preset(preset)
        _, n, name = STRATUM_MODELS[stratum]
        assert name == algebra
        assert (groups[0], groups[3]) == ranks
        assert ranks == ((2, 0) if n % 2 == 0 else (0, 2))


def test_gamma3_forced_to_alternating_pattern():
    groups, known = hexagon_preset("gamma3")
    sols = solve_six_term(groups, known, bound=3)
    assert len(sols) == 1
    seq = sols[0]
    vals = tuple(abs(int(m[0, 0])) for m in seq.maps)
    assert vals == (0, 1, 0, 1, 0, 1)
    assert int(seq.delta0[0, 0]) == 0 and int(seq.delta1[0, 0]) == 1


def _reference_completions(groups, known, bound):
    """solve_six_term without pruning: filter the whole box with is_exact, then group."""
    known = {i: as_zmatrix(m) for i, m in known.items()}
    ranks = ktheory._infer_ranks(groups, known)
    choices = []
    for i in range(6):
        rows, cols = ranks[(i + 1) % 6], ranks[i]
        if i in known:
            choices.append([known[i]])
        else:
            choices.append([zmap(rows, cols, np.reshape(e, (rows, cols)))
                            for e in itertools.product(range(-bound, bound + 1),
                                                       repeat=rows * cols)])
    classes = {}
    for maps in itertools.product(*choices):
        seq = SixTerm(tuple(ranks), maps)
        if not is_exact(seq):
            continue
        key = tuple((m.shape, tuple(invariant_factors(m))) for m in maps)
        flat = tuple(int(x) for m in maps for x in m.reshape(-1))
        if key not in classes or flat < classes[key][0]:
            classes[key] = (flat, seq)
    return [classes[k][1].to_json() for k in sorted(classes)]


def _completions(groups, known, bound):
    return [seq.to_json() for seq in solve_six_term(groups, known, bound=bound)]


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("preset", ["gamma1", "gamma2", "gamma3", "allZ"])
def test_search_matches_full_enumeration_on_presets(preset, bound):
    groups, known = hexagon_preset(preset)
    assert _completions(groups, known, bound) == _reference_completions(groups, known, bound)


@pytest.mark.parametrize("preset, deltas, n_solutions", [
    ("gamma1", {"delta0": [[1, 0], [0, 1]]}, 1),
    ("gamma2", {"delta1": [[2], [0]]}, 0),
    ("gamma3", {"delta1": [[2]]}, 0),
])
def test_search_matches_full_enumeration_on_other_deltas(preset, deltas, n_solutions):
    groups, known = hexagon_preset(preset, **deltas)
    got = _completions(groups, known, 2)
    assert len(got) == n_solutions
    assert got == _reference_completions(groups, known, 2)


_small = st.integers(-2, 2)


@st.composite
def _partial_hexagons(draw):
    preset = draw(st.sampled_from(["gamma1", "gamma2", "gamma3", "Z6"]))
    if preset == "gamma1":
        return hexagon_preset("gamma1", delta0=draw(st.lists(
            st.lists(_small, min_size=2, max_size=2), min_size=2, max_size=2)))
    if preset == "gamma2":
        return hexagon_preset("gamma2", delta1=[[draw(_small)], [draw(_small)]])
    if preset == "gamma3":
        return hexagon_preset("gamma3", delta1=[[draw(_small)]])
    positions = draw(st.sets(st.integers(0, 5), max_size=3))
    return [1] * 6, {i: [[draw(_small)]] for i in positions}


@settings(max_examples=40, deadline=None)
@given(_partial_hexagons())
def test_search_matches_full_enumeration_on_random_known_maps(hexagon):
    groups, known = hexagon
    try:
        expected = _reference_completions(groups, known, 1)
    except ValueError:  # ranks not inferable, or a cokernel with torsion
        with pytest.raises(ValueError):
            solve_six_term(groups, known, bound=1)
        return
    assert _completions(groups, known, 1) == expected


def _counting(monkeypatch, name):
    """Count the calls `ktheory` makes to one of its `intlinalg` imports."""
    calls = [0]
    fn = getattr(ktheory, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(ktheory, name, counted)
    return calls


def test_composition_rule_prunes_the_gamma2_search(monkeypatch):
    factor_calls = _counting(monkeypatch, "invariant_factors")
    exactness_calls = _counting(monkeypatch, "subgroup_equal")
    sols = solve_six_term(*hexagon_preset("gamma2"), bound=3)
    assert len(sols) == 1
    # One Smith form per fixed map (4) and per candidate that survives the
    # b a = 0 filter: 49 of the 2 401 for map 0, all 49 for map 1.
    assert factor_calls[0] == 102
    # The HNF image = kernel route runs only in the re-check: 6 nodes per completion.
    assert exactness_calls[0] == 6 * len(sols)


def test_node_test_that_accepts_everything_makes_the_search_raise(monkeypatch):
    monkeypatch.setattr(ktheory, "_node_test", lambda n, fa, fb: True)
    with pytest.raises(RuntimeError, match="non-exact completion"):
        solve_six_term(*hexagon_preset("gamma2"), bound=1)


@pytest.mark.parametrize("known", [
    {0: [[1]], 1: [[1]]},  # 1 * 1 != 0 at node 1
    # 0 * 2 = 0 and the ranks sum to 1, but im 2 = 2Z; the other five nodes
    # of the maps (2, 0, 1, 0, 1, 0) are exact, so only node 1 rules them out.
    {0: [[2]], 1: [[0]]},
])
def test_non_exact_node_between_fixed_maps_has_no_completion(known):
    groups = [1] * 6
    assert _completions(groups, known, 1) == [] == _reference_completions(groups, known, 1)


def _node_exact_by_factors(a, b):
    n = a.shape[0]
    return ktheory._node_test(n, invariant_factors(a), invariant_factors(b))


def _node_exact_by_hnf(a, b):
    """exact_at at node 1 of the hexagon Z^p -a-> Z^n -b-> Z^q -> 0 -> 0 -> 0."""
    p, n, q = a.shape[1], a.shape[0], b.shape[0]
    seq = SixTerm((p, n, q, 0, 0, 0), (a, b, zmap(0, q), zmap(0, 0), zmap(0, 0), zmap(p, 0)))
    return exact_at(seq, 1)


@st.composite
def _composable_pairs(draw):
    """Integer a (n x p) and b (q x n) with b a = 0; any of n, p, q may be 0."""
    n, p, q = (draw(st.integers(0, 3)) for _ in range(3))
    b = zmap(q, n, draw(st.lists(st.lists(_small, min_size=n, max_size=n),
                                 min_size=q, max_size=q)))
    ker = kernel_basis(b)
    # Every a with b a = 0 is ker-basis @ c for an integer c, since ker b is saturated.
    c = zmap(ker.shape[1], p, draw(st.lists(st.lists(_small, min_size=p, max_size=p),
                                            min_size=ker.shape[1], max_size=ker.shape[1])))
    return ker @ c if ker.shape[1] else zmap(n, p), b


@settings(max_examples=200, deadline=None)
@given(_composable_pairs())
def test_node_test_agrees_with_exact_at(pair):
    a, b = pair
    assert not (b @ a).any()
    assert _node_exact_by_factors(a, b) == _node_exact_by_hnf(a, b)


def test_node_test_needs_unit_factors_of_the_incoming_map():
    # rank a + rank b = 1 = n, but im a = 2Z is not ker b = Z.
    a, b = zmap(1, 1, [[2]]), zmap(1, 1, [[0]])
    assert not _node_exact_by_factors(a, b)
    assert not _node_exact_by_hnf(a, b)


def test_search_space_overflow():
    with pytest.raises(SearchSpaceError, match="candidates"):
        solve_six_term([4, 4, 4, 4, 4, 4], {}, bound=3, max_candidates=1000)


def test_rank_inference_failure_is_reported():
    with pytest.raises(ValueError, match="cannot infer"):
        solve_six_term([1, None, 1, 1, 1, 1], {}, bound=1)


def test_sixterm_serialization():
    seq = hexagon_of_scalars([0, 1, 0, 1, 0, 1])
    obj = seq.to_json()
    assert obj["groups"] == [1] * 6
    assert obj["maps"] == [[0], [1], [0], [1], [0], [1]]
    assert obj["exact"] == [True] * 6

