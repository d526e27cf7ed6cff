"""Tests for six-term sequences and the completion search."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdlab import ktheory
from mdlab.foliation import STRATUM_MODELS
from mdlab.intlinalg import (
    as_zmatrix,
    image_basis,
    invariant_factors,
    kernel_basis,
    snf,
)
from mdlab.ktheory import (
    SearchSpaceError,
    SixTerm,
    exact_at,
    hexagon_preset,
    solve_six_term,
    zmap,
)
from reference_routes import subgroup_equal


def hexagon_of_scalars(values):
    """Six Z's with scalar maps."""
    maps = tuple(zmap(1, 1, [[v]]) for v in values)
    return SixTerm((1,) * 6, maps)


def test_alternating_patterns_are_exact():
    assert all(hexagon_of_scalars([0, 1, 0, 1, 0, 1]).exact)
    assert all(hexagon_of_scalars([1, 0, 1, 0, 1, 0]).exact)


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


def test_exact_at_compares_the_hermite_forms_as_subgroup_equal_does():
    # exact_at compares the image and kernel bases as they are; subgroup_equal
    # puts both into Hermite form again.  Half of the nodes are made exact.
    rng = np.random.default_rng(22)
    outcomes = set()
    for trial in range(200):
        n, p, q = (int(r) for r in rng.integers(0, 4, 3))
        b = zmap(q, n, rng.integers(-2, 3, (q, n)))
        if trial % 2:
            ker = kernel_basis(b)  # a = ker b times a unimodular map is exact at the node
            a = ker @ as_zmatrix(np.eye(ker.shape[1], dtype=int) + np.triu(
                rng.integers(-2, 3, (ker.shape[1],) * 2), 1)) if ker.shape[1] else zmap(n, 0)
        else:
            a = zmap(n, p, rng.integers(-2, 3, (n, p)))
        seq = SixTerm((a.shape[1], n, q, 0, 0, 0),
                      (a, b, zmap(0, q), zmap(0, 0), zmap(0, 0), zmap(a.shape[1], 0)))
        want = subgroup_equal(image_basis(a), kernel_basis(b))
        assert exact_at(seq, 1) == want
        outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("groups, known", [
    ([1] * 6, {6: [[1]]}),
    ([1] * 6, {-1: [[1]]}),
    ([1] * 5, {}),
    ([1] * 7, {}),
    ([1, 1, 1, -1, 1, 1], {}),
    ([1, 1, 1.5, 1, 1, 1], {}),
], ids=["key6", "key-1", "five-groups", "seven-groups", "rank-1", "rank1.5"])
def test_malformed_hexagon_is_refused_before_the_search(monkeypatch, groups, known):
    calls = _counting(monkeypatch, "_box_factors")
    with pytest.raises(ValueError, match="a hexagon has six groups"):
        solve_six_term(groups, known, bound=1)
    assert calls[0] == 0


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
        assert all(s.exact)


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


def _composes_to_zero(b, a):
    return not any(x for x in (b @ a).flat)


def _reference_completions(groups, known, bound):
    """solve_six_term without its node test or factors: every choice of maps,
    in lexicographic order, whose consecutive maps compose to zero (which
    exactness implies), filtered by exactness at every node and then grouped."""
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
    partial = [()]
    for i in range(6):
        partial = [maps + (m,) for maps in partial for m in choices[i]
                   if not maps or _composes_to_zero(m, maps[-1])]
    classes = {}
    for maps in partial:
        seq = SixTerm(tuple(ranks), maps)
        if not _composes_to_zero(maps[0], maps[5]) or not all(seq.exact):
            continue
        key = tuple((m.shape, tuple(invariant_factors(m))) for m in maps)
        flat = tuple(int(x) for m in maps for x in m.reshape(-1))
        if key not in classes or flat < classes[key][0]:
            classes[key] = (flat, seq)
    return [classes[k][1].to_json() for k in sorted(classes)]


def _completions(groups, known, bound):
    return [seq.to_json() for seq in solve_six_term(groups, known, bound=bound)]


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
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


@st.composite
def _random_hexagons(draw):
    """Six ranks in 0..2 and random known maps with entries in [-2, 2], whose
    unpruned box at bound 1 stays small enough to enumerate."""
    ranks = [draw(st.integers(0, 2)) for _ in range(6)]
    known = {}
    for i in draw(st.sets(st.integers(0, 5), max_size=4)):
        rows, cols = ranks[(i + 1) % 6], ranks[i]
        known[i] = zmap(rows, cols, [[draw(_small) for _ in range(cols)] for _ in range(rows)])
    entries = sum(ranks[(i + 1) % 6] * ranks[i] for i in range(6) if i not in known)
    assume(entries <= 10)
    return ranks, known


@settings(max_examples=60, deadline=None)
@given(_random_hexagons())
def test_search_matches_full_enumeration_on_random_hexagons(hexagon):
    groups, known = hexagon
    assert _completions(groups, known, 1) == _reference_completions(groups, known, 1)


def test_the_search_holds_a_few_boxes_in_memory():
    # One open map Z^3 -> Z^2 at bound 3: a box of 7^6 candidates, 5.6 MB of
    # int64 entries.  The box, its factors and a level's temporaries stay
    # within 3 boxes; the recursive search held 6.
    box_bytes = 7 ** 6 * 6 * 8
    tracemalloc.start()
    try:
        solve_six_term([3, 2, 0, 0, 0, 0], {}, bound=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * box_bytes


def _counting(monkeypatch, name):
    """Count the calls `ktheory` makes to one of its functions or `intlinalg` imports."""
    calls = [0]
    fn = getattr(ktheory, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(ktheory, name, counted)
    return calls


def test_composition_rule_prunes_the_gamma2_search(monkeypatch):
    factor_calls = _counting(monkeypatch, "invariant_factors")
    exactness_calls = _counting(monkeypatch, "_kernel_columns")
    sols = solve_six_term(*hexagon_preset("gamma2"), bound=3)
    assert len(sols) == 1
    # One Smith form per fixed map: the known delta1 and the three maps from
    # or to 0.  The candidates of the two open boxes get their factors from
    # one batched minor-gcd pass per box.
    assert factor_calls[0] == 4
    # The HNF image = kernel route (one kernel per node) runs only in
    # the re-check: 6 nodes per completion.
    assert exactness_calls[0] == 6 * len(sols)


@pytest.mark.parametrize("preset", ["gamma1", "gamma2", "gamma3", "allZ"])
def test_to_json_reports_the_exactness_the_search_checked(monkeypatch, preset):
    sols = solve_six_term(*hexagon_preset(preset), bound=3)
    exactness_calls = _counting(monkeypatch, "_kernel_columns")
    assert [s.to_json()["exact"] for s in sols] == [[True] * 6] * len(sols)
    assert exactness_calls[0] == 0


def test_a_hexagon_cannot_be_edited_after_its_exactness_is_reported():
    # `exact` is computed once, so a map changed in place would leave it stale.
    s = solve_six_term(*hexagon_preset("gamma3"), bound=1)[0]
    assert all(s.to_json()["exact"])
    with pytest.raises(ValueError, match="read-only"):
        s.maps[0][0, 0] = 5
    assert all(s.to_json()["exact"]) and all(exact_at(s, i) for i in range(6))
    # The arrays a caller passes in are copied and stay writable.
    maps = tuple(zmap(1, 1, [[v]]) for v in [0, 1, 0, 1, 0, 1])
    seq = SixTerm((1,) * 6, maps)
    maps[0][0, 0] = 5
    assert maps[0].flags.writeable and seq.maps[0][0, 0] == 0
    assert all(seq.exact)


def _row_codes(stack, bound):
    """One code per matrix of a (count, rows, cols) stack of entries in
    [-bound, bound], equal for two matrices whose rows agree up to sign and order."""
    k = 2 * bound + 1
    top = k ** stack.shape[2] - 1  # the codes of a row and of its negative sum to top
    keys = []
    for row in np.moveaxis(stack, 0, -1):
        key = np.zeros(len(stack), dtype=np.int64)
        for entry in row:
            key = key * k + entry + bound
        keys.append(np.minimum(key, top - key))
    code = np.zeros(len(stack), dtype=np.int64)
    for key in np.sort(np.stack(keys, axis=1), axis=1).T:
        code = code * (top + 1) + key
    return code


def _equivalent_candidates(box, bound):
    """(reps, cls): candidate j equals candidate reps[cls[j]] up to the signs
    and order of its rows and then of its columns, so both have the same
    invariant factors."""
    _, by_rows, row_cls = np.unique(_row_codes(box, bound), return_index=True,
                                    return_inverse=True)
    _, by_cols, col_cls = np.unique(_row_codes(box[by_rows].swapaxes(1, 2), bound),
                                    return_index=True, return_inverse=True)
    return by_rows[by_cols], col_cls[row_cls]


# Every box shape up to 4 x 4 that MAX_CANDIDATES admits at bounds 0-3: a
# rank-3 3 x 3 box at bound 2 and a 3 x 4 box at bound 1 are the largest.
# Wider boxes at bound >= 1 have min(rows, cols) <= 2 and no new minor order.
_BOX_SHAPES = [(bound, (rows, cols)) for bound in range(4)
               for rows in range(1, 5) for cols in range(1, 5)
               if (2 * bound + 1) ** (rows * cols) <= ktheory.MAX_CANDIDATES]


@pytest.mark.parametrize("bound, shape", _BOX_SHAPES,
                         ids=[f"bound{b}-{r}x{c}" for b, (r, c) in _BOX_SHAPES])
def test_box_factors_are_the_invariant_factors_of_every_candidate(bound, shape):
    box = ktheory._box(shape, bound)
    assert box.dtype == np.int64 and box.shape == ((2 * bound + 1) ** (shape[0] * shape[1]),
                                                    *shape)
    got = ktheory._box_factors(box, bound)
    reps, cls = _equivalent_candidates(box, bound)
    want = np.zeros((len(reps), min(shape)), dtype=np.int64)
    for row, j in zip(want, reps.tolist()):
        factors = invariant_factors(box[j])
        row[:len(factors)] = factors
    assert np.array_equal(got, want[cls])


def test_box_factors_refuse_minors_that_could_overflow():
    with pytest.raises(SearchSpaceError, match="overflow"):
        ktheory._box_factors(np.zeros((1, 2, 2), dtype=np.int64), 2 ** 31)


@pytest.mark.parametrize("preset, shapes", [("gamma1", 2), ("gamma2", 2), ("gamma3", 1),
                                            ("allZ", 1)])
def test_one_box_per_open_shape(monkeypatch, preset, shapes):
    # gamma3's five open maps and allZ's six are all 1 x 1.
    calls = _counting(monkeypatch, "_box_factors")
    solve_six_term(*hexagon_preset(preset), bound=3)
    assert calls[0] == shapes


@pytest.mark.parametrize("preset", ["gamma1", "gamma2", "gamma3", "allZ"])
def test_a_corrupted_box_factor_breaks_the_search(monkeypatch, preset):
    # Give the first representative's candidate in one open box a factor 2,
    # for one box shape at a time: the search must raise in its exactness
    # re-check or disagree with the unpruned enumeration.
    groups, known = hexagon_preset(preset)
    expected = _reference_completions(groups, known, 1)
    first = solve_six_term(groups, known, bound=1)[0]
    picks = {}  # open shape -> the candidate of its first open map, in order of position
    for i, m in enumerate(first.maps):
        if i not in known and 0 not in m.shape and m.shape not in picks:
            in_box = (ktheory._box(m.shape, 1) == m).all(axis=(1, 2))
            picks[m.shape] = int(np.flatnonzero(in_box)[0])
    box_factors = ktheory._box_factors
    for n, j in enumerate(picks.values()):
        calls = []

        def corrupted(box, bound, n=n, j=j):
            factors = box_factors(box, bound)
            calls.append(box.shape)
            if len(calls) == n + 1:  # one box per shape, built in order of position
                factors[j, 0] = 2
            return factors

        monkeypatch.setattr(ktheory, "_box_factors", corrupted)
        try:
            got = _completions(groups, known, 1)
        except RuntimeError:
            got = None
        assert len(calls) == len(picks)
        assert got != expected, (preset, n, j)


def test_node_test_that_accepts_everything_makes_the_search_raise(monkeypatch):
    monkeypatch.setattr(ktheory, "_node_test", lambda n, rank_a, unit_a, rank_b: True)
    with pytest.raises(RuntimeError, match="non-exact completion"):
        solve_six_term(*hexagon_preset("gamma2"), bound=1)


@pytest.mark.parametrize("known", [
    {0: [[1]], 1: [[1]]},  # 1 * 1 != 0 at node 1
    # 0 * 2 = 0 and the ranks sum to 1, but im 2 = 2Z; the other five nodes
    # of the maps (2, 0, 1, 0, 1, 0) are exact, so only node 1 rules them out.
    {0: [[2]], 1: [[0]]},
])
def test_non_exact_node_between_fixed_maps_has_no_completion(monkeypatch, known):
    groups = [1] * 6
    box_calls = _counting(monkeypatch, "_box_factors")
    assert _completions(groups, known, 1) == [] == _reference_completions(groups, known, 1)
    assert box_calls[0] == 0  # the fixed levels run first and end the search


def _node_exact_by_factors(a, b):
    fa, fb = invariant_factors(a), invariant_factors(b)
    return ktheory._node_test(a.shape[0], len(fa), all(f == 1 for f in fa), len(fb))


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


@pytest.mark.parametrize("preset, deltas", [
    ("gamma2", {"delta1": [[2 ** 70], [1]]}),
    ("gamma3", {"delta1": [[2 ** 70]]}),
])
def test_known_maps_beyond_int64_are_searched_exactly(preset, deltas):
    groups, known = hexagon_preset(preset, **deltas)
    assert _completions(groups, known, 1) == _reference_completions(groups, known, 1)


def test_search_space_overflow(monkeypatch):
    monkeypatch.setattr(ktheory, "MAX_CANDIDATES", 1000)
    with pytest.raises(SearchSpaceError, match="candidates"):
        solve_six_term([4, 4, 4, 4, 4, 4], {}, bound=3)


def test_rank_inference_failure_is_reported():
    with pytest.raises(ValueError, match="cannot infer"):
        solve_six_term([1, None, 1, 1, 1, 1], {}, bound=1)


@pytest.mark.parametrize("groups, known, ranks", [
    # coker delta1 = Z / Z is 0 and ker delta0 = Z give K0(A) = Z; coker
    # delta0 = Z and ker delta1 = 0 give K1(A) = Z.
    ([1, None, 1, 1, None, 1], {2: [[0]], 5: [[1]]}, [1, 1, 1, 1, 1, 1]),
    (*hexagon_preset("gamma1"), [0, 1, 2, 2, 1, 0]),
])
def test_ranks_are_the_free_cokernel_plus_the_kernel(groups, known, ranks):
    assert ktheory._infer_ranks(groups, {i: as_zmatrix(m) for i, m in known.items()}) == ranks
    assert [s.groups for s in solve_six_term(groups, known, bound=1)] == [tuple(ranks)]


def test_rank_inference_refuses_a_cokernel_with_torsion():
    with pytest.raises(ValueError, match="torsion"):
        solve_six_term([1, None, 1, 1, None, 1], {2: [[2]], 5: [[0]]}, bound=1)


@pytest.mark.parametrize("name, deltas", [
    ("gamma1", {"delta1": [[7]]}),
    ("gamma2", {"delta0": [[5]]}),
    ("gamma3", {"delta0": [[0]]}),
    ("allZ", {"delta0": [[0]]}),
    ("allZ", {"delta1": [[1]]}),
])
def test_preset_refuses_a_delta_its_hexagon_does_not_take(name, deltas):
    with pytest.raises(ValueError, match="takes no delta"):
        hexagon_preset(name, **deltas)


def test_sixterm_serialization():
    seq = hexagon_of_scalars([0, 1, 0, 1, 0, 1])
    obj = seq.to_json()
    assert obj["groups"] == [1] * 6
    assert obj["maps"] == [[0], [1], [0], [1], [0], [1]]
    assert obj["exact"] == [True] * 6

