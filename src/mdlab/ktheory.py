"""Cyclic six-term sequences of free abelian groups.

Hexagon positions follow the fixed convention
    G0 = K0(J) -> G1 = K0(A) -> G2 = K0(B)
      -> G3 = K1(J) -> G4 = K1(A) -> G5 = K1(B) -> G0,
so maps[2] is the exponential connecting map (delta0) and maps[5] the index
connecting map (delta1).  All groups are free (Z^r); torsion never occurs
and is rejected where it would arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import factorial

import numpy as np

from .intlinalg import (
    _column_hnf,
    _kernel_columns,
    as_zmatrix,
    cokernel,
    invariant_factors,
    zeros,
)

__all__ = [
    "NODES",
    "SixTerm",
    "zmap",
    "exact_at",
    "SearchSpaceError",
    "MAX_CANDIDATES",
    "solve_six_term",
    "hexagon_preset",
    "COMPLETIONS",
    "completions_hold",
]

NODES = ("K0(J)", "K0(A)", "K0(B)", "K1(J)", "K1(A)", "K1(B)")


def zmap(target_rank: int, source_rank: int, entries=None) -> np.ndarray:
    """An exact integer matrix Z^source -> Z^target (rows x cols)."""
    if entries is None or target_rank == 0 or source_rank == 0:
        return zeros(target_rank, source_rank)
    m = as_zmatrix(entries)
    if m.shape != (target_rank, source_rank):
        raise ValueError(f"map shape {m.shape} does not match Z^{source_rank} -> Z^{target_rank}")
    return m


@dataclass(frozen=True)
class SixTerm:
    groups: tuple[int, ...]
    maps: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.groups) != 6 or len(self.maps) != 6:
            raise ValueError("a six-term sequence has 6 groups and 6 maps")
        # Read-only copies, so that `exact`, computed once, cannot go stale;
        # the caller's arrays stay writable.
        maps = tuple(np.array(m) for m in self.maps)
        for m in maps:
            m.flags.writeable = False
        object.__setattr__(self, "maps", maps)
        for i, m in enumerate(self.maps):
            want = (self.groups[(i + 1) % 6], self.groups[i])
            if m.shape != want:
                raise ValueError(f"map {i} has shape {m.shape}, expected {want}")

    @property
    def delta0(self) -> np.ndarray:
        return self.maps[2]

    @property
    def delta1(self) -> np.ndarray:
        return self.maps[5]

    @cached_property
    def exact(self) -> tuple[bool, ...]:
        """`exact_at` at each of the six nodes, computed once per hexagon."""
        return tuple(exact_at(self, i) for i in range(6))

    def to_json(self) -> dict:
        return {
            "nodes": list(NODES),
            "groups": [int(g) for g in self.groups],
            "maps": [[int(x) for x in m.reshape(-1)] for m in self.maps],
            "exact": list(self.exact),
        }


def exact_at(seq: SixTerm, node: int) -> bool:
    """Exactness at one node: image of the incoming map equals kernel of the outgoing.

    Both bases are canonical column Hermite forms (`image_basis`,
    `kernel_basis`), and two subgroups are equal iff their forms are, so the
    bases are compared as they are: as the (columns, row count) pairs of
    Python-int lists that `intlinalg` computes, with no object array built.
    """
    return _column_hnf(seq.maps[(node - 1) % 6]) == _kernel_columns(seq.maps[node % 6])


class SearchSpaceError(ValueError):
    """The bounded completion search would be too large."""


# The largest unpruned candidate box `solve_six_term` will search.
MAX_CANDIDATES = 5_000_000


def _infer_ranks(groups, known) -> list[int]:
    """The six ranks, with each `None` filled in where exactness forces it.

    Take G_{i-2} --f--> G_{i-1} -> G_i -> G_{i+1} --h--> G_{i+2}.  Exactness
    gives 0 -> coker f -> G_i -> ker h -> 0, so rank G_i is the free rank of
    coker f plus the nullity of h.  Each part is 0 when its neighbour group
    (G_{i-1}, resp. G_{i+1}) is 0, and otherwise needs its map known.  A
    cokernel with torsion is refused: the groups must be free.
    """
    g = list(groups)
    progress = True
    while progress and None in g:
        progress = False
        for i in range(6):
            if g[i] is not None:
                continue
            f, h = known.get((i - 2) % 6), known.get((i + 1) % 6)
            coker_zero, ker_zero = g[(i - 1) % 6] == 0, g[(i + 1) % 6] == 0
            if (f is None and not coker_zero) or (h is None and not ker_zero):
                continue
            free, torsion = (0, []) if coker_zero else cokernel(f)
            if torsion:
                raise ValueError(
                    f"cokernel at node {i} has torsion {torsion}; groups must be free")
            g[i] = free + (0 if ker_zero else h.shape[1] - len(invariant_factors(h)))
            progress = True
    missing = [i for i in range(6) if g[i] is None]
    if missing:
        raise ValueError(f"cannot infer ranks of groups at positions {missing}")
    return g


def _box(shape: tuple[int, int], bound: int) -> np.ndarray:
    """Every matrix of `shape` with entries in [-bound, bound], as an int64
    (count, rows, cols) stack in lexicographic order of the row-major entries.

    The stack is a view of a (rows, cols, count) array, so entry (i, j) of
    all candidates is one contiguous row for `_box_factors`.
    """
    k, e = len(range(-bound, bound + 1)), shape[0] * shape[1]
    entries = np.arange(k ** e) // k ** np.arange(e - 1, -1, -1)[:, None]
    entries %= k
    entries -= bound
    return np.moveaxis(entries.reshape(*shape, -1), -1, 0)


def _minor(e: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """The minor on `rows` and `cols` of every candidate, by Laplace expansion
    along its first row; e[i, j] holds entry (i, j) of every candidate."""
    if len(rows) == 1:
        return e[rows[0], cols[0]]
    total = e[rows[0], cols[0]] * _minor(e, rows[1:], cols[1:])
    for t in range(1, len(cols)):
        term = e[rows[0], cols[t]] * _minor(e, rows[1:], cols[:t] + cols[t + 1:])
        if t % 2:
            total -= term
        else:
            total += term
    return total


def _box_factors(box: np.ndarray, bound: int) -> np.ndarray:
    """The invariant factors of every candidate of an int64 box, in one pass.

    Row j holds candidate j's nonzero factors d1 | d2 | ..., padded with
    zeros to min(rows, cols).  By the minor-gcd theorem d1 ... dk is the gcd
    g_k of the k x k minors, so dk = g_k / g_(k-1); g_k is 0 above the rank,
    and k goes up only while some candidate has g_k != 0.  Entries lie in
    [-bound, bound] and a k-minor sums k! products of k entries, so
    |k-minor| <= k! bound^k.  `MAX_CANDIDATES` keeps (2 bound + 1) **
    (rows cols) <= 5e6, so min(rows, cols) <= 2 at bound 3 and <= 3 at
    bounds 1-2, and k! bound^k stays at most 2.5e6, far below 2^62: no minor
    or gcd overflows.  A box beyond that bound is refused.
    """
    count, rows, cols = box.shape
    m = min(rows, cols)
    if factorial(m) * bound ** m >= 2 ** 62:
        raise SearchSpaceError(f"{m} x {m} minors of entries up to {bound} may overflow int64")
    e = np.ascontiguousarray(np.moveaxis(box, 0, -1))  # e[i, j]: entry (i, j) of all
    g = np.zeros((m + 1, count), dtype=np.int64)  # g[k] = g_k of every candidate
    g[0] = 1
    for k in range(1, m + 1):
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                np.gcd(g[k], _minor(e, r, c), out=g[k])
        if not g[k].any():
            break
    return (g[1:] // np.maximum(g[:-1], 1)).T


def _node_test(n: int, rank_a, unit_a, rank_b):
    """Exactness at a node Z^n whose maps a (in) and b (out) satisfy b a = 0.

    A map's rank is its count of nonzero invariant factors, and `unit_a` says
    whether every nonzero factor of a is 1.  The arguments may be arrays that
    broadcast, one entry per candidate.  The node is exact iff
    rank a + rank b = n and every factor of a is 1.  Proof: b a = 0 puts
    im a inside ker b, which is saturated (Z^n / ker b embeds in the free
    target of b) and has rank n - rank b.  Unit factors say that Z^n / im a
    is free, i.e. im a is saturated; a saturated sublattice of the same rank
    inside ker b is all of it, since ker b / im a is then torsion inside the
    free Z^n / im a.  Conversely, im a = ker b is saturated and has rank
    n - rank b.
    """
    return (rank_a + rank_b == n) & unit_a


def solve_six_term(groups, known_maps=None, bound: int = 3) -> list[SixTerm]:
    """All exact completions of a partially known hexagon, up to automorphism.

    `groups` lists the six ranks (None = inferred where exactness forces it);
    `known_maps` maps positions 0..5 to fixed integer matrices.  Unknown maps
    are searched with entries in [-bound, bound].  Completions are grouped by
    the tuple of per-map invariant factors (unimodular base changes preserve
    them) and one lexicographically minimal representative per class is kept.
    `MAX_CANDIDATES` bounds the unpruned box, the product over the open maps
    of (2 bound + 1) ** entries, and the search refuses to start beyond it.
    Other than six groups, each None or an int >= 0, a known map at another
    position, or a negative bound (an empty box) is refused with ValueError.

    Each map's candidates form one (count, rows, cols) box.  A known map and a
    map from or to 0 are fixed: boxes of one candidate, with factors from its
    Smith form.  Every other map is open: its box, shared by the open maps of
    its shape and built at the first level that needs it, holds every matrix
    of that shape, and one batched pass, `_box_factors`, gives all their
    invariant factors by the minor-gcd theorem.  The search runs level by
    level, one map per level, on whole boxes: the fixed maps, then the open
    ones, each in position order.  The partial completions are the rows of an
    index array, one column per map assigned so far, in lexicographic order; a
    level pairs every row with every candidate of the next box and keeps the
    pairs that pass, in that order.  Consecutive maps of an exact sequence
    compose to zero (im a = ker b implies b a = 0), so a pair is kept only if
    the candidate composes to zero with each neighbour already assigned (one
    batched product per neighbour), which prunes no completion, and if every
    node between the two passes `_node_test` on each candidate's rank and unit
    flag.  Rows are paired in slabs of at most max(L, T / L) pairs, L the
    largest box and T the unpruned box: one big box is searched in slabs of
    its own size, so that a level's temporaries stay within a few times that
    box, and a search of small boxes, where T / L is the larger and still
    small, takes each level in one slab.

    A completion's class key is the row of its open maps' invariant factors.
    The rows are in lexicographic order of the completions' entries, and a
    stable sort of the keys keeps that order within a key, so the first row
    of each key is the class's minimal representative, and the keys come out
    in order (zero-padded factor rows sort as the factor tuples do).  A
    representative with a node that is not `exact` (HNF image = kernel)
    raises RuntimeError, so a node test that accepted a non-exact completion
    would either raise or change nothing.
    """
    groups, known_maps = list(groups), known_maps or {}
    if len(groups) != 6 or not all(g is None or isinstance(g, (int, np.integer)) and g >= 0
                                   for g in groups) or not all(i in range(6) for i in known_maps):
        raise ValueError("a hexagon has six groups, each None or an int >= 0, and known maps "
                         f"at positions 0..5 (got {groups} and maps at {list(known_maps)})")
    if bound < 0:
        raise ValueError(f"bound must be >= 0 (got {bound})")
    known = {i: as_zmatrix(m) for i, m in known_maps.items()}
    ranks = _infer_ranks(groups, known)

    # The composition filter multiplies in int64 when no sum of rank-many
    # products of entries can reach 2^62, and exactly otherwise.
    largest = max([bound] + [abs(x) for m in known.values() for x in m.flat])
    dtype = np.int64 if max(ranks) * largest ** 2 < 2 ** 62 else object
    # Per map, its box and a row of invariant factors per candidate (an open
    # box's rows are padded with zeros to min(rows, cols)).
    boxes, factors, rank, unit = {}, {}, {}, {}
    shapes = [(ranks[(i + 1) % 6], ranks[i]) for i in range(6)]
    open_idx, total, largest_box = [], 1, 1
    for i, shape in enumerate(shapes):
        if i in known and known[i].shape != shape:
            raise ValueError(f"known map {i} has shape {known[i].shape}, expected {shape}")
        if i in known or 0 in shape:
            m = known[i] if i in known else zeros(*shape)
            boxes[i], factors[i] = m.astype(dtype)[None], np.array([invariant_factors(m)])
        else:
            open_idx.append(i)
            size = (2 * bound + 1) ** (shape[0] * shape[1])
            total, largest_box = total * size, max(largest_box, size)
    if total > MAX_CANDIDATES:
        raise SearchSpaceError(
            f"completion search needs about {total:.3g} candidates (> {MAX_CANDIDATES})")
    limit = max(largest_box, total // largest_box)  # pairs per slab

    rows = np.zeros((1, 0), dtype=np.intp)  # the partial completions
    column: dict[int, int] = {}  # assigned map -> its column of rows
    by_shape = {}  # open shape -> its box and factor rows, built at its first level
    for i in sorted(range(6), key=lambda i: i in open_idx):  # the fixed maps first
        if i in open_idx:
            if shapes[i] not in by_shape:
                box = _box(shapes[i], bound)
                by_shape[shapes[i]] = box.astype(dtype, copy=False), _box_factors(box, bound)
            boxes[i], factors[i] = by_shape[shapes[i]]
        # Each candidate's rank (count of nonzero factors) and unit flag (every factor 1).
        rank[i], unit[i] = (factors[i] != 0).sum(axis=1), (factors[i] <= 1).all(axis=1)
        box, prev, nxt = boxes[i], (i - 1) % 6, (i + 1) % 6
        step = max(1, limit // len(box))
        extended = []
        for start in range(0, len(rows), step):
            slab = rows[start:start + step]
            keep = np.ones((len(slab), len(box)), dtype=bool)
            for other, node in ((prev, i), (nxt, nxt)):
                if other not in column:
                    continue
                # The other map's candidate in each row of the slab, as a
                # column against the box's row.
                j = slab[:, column[other]]
                mine = box[None], rank[i][None], unit[i][None]
                theirs = boxes[other][j][:, None], rank[other][j][:, None], unit[other][j][:, None]
                a, b = (theirs, mine) if other == prev else (mine, theirs)  # into, out of the node
                keep &= ~np.matmul(b[0], a[0]).any(axis=(2, 3))
                keep &= _node_test(ranks[node], a[1], a[2], b[1])
            r, c = np.nonzero(keep)
            extended.append(np.concatenate((slab[r], c[:, None]), axis=1))
        rows = np.concatenate(extended)
        if not len(rows):
            return []
        column[i] = rows.shape[1] - 1

    # The key of each row, after a constant column that lets `np.lexsort` take
    # a search without open maps; the stable sort keeps the rows of one key
    # in order, so the first of them is the class's minimal representative.
    keys = np.concatenate([np.zeros((len(rows), 1), dtype=np.int64)]
                          + [factors[i][rows[:, column[i]]] for i in open_idx], axis=1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    solutions = []
    for row in rows[order[first]]:
        seq = SixTerm(tuple(ranks), tuple(boxes[i][row[column[i]]].astype(object)
                                          for i in range(6)))
        if not all(seq.exact):
            raise RuntimeError("the node test accepted a non-exact completion "
                               f"{[[int(x) for x in m.reshape(-1)] for m in seq.maps]}")
        solutions.append(seq)
    return solutions


# The J and B nodes (positions 0, 3 and 2, 5) are K_* of the extension-tower
# algebras J1/B1 (gamma1), J2/B2 (gamma2) and J3/B3 (gamma3), whose leaf-space
# models `foliation.STRATUM_MODELS` names (all but B1's).  Their ranks are input,
# taken from Vu-Hoa's tower construction (VU-HO10).  Only the J nodes of gamma1
# and gamma2 follow from Bott periodicity, on the models R^3 ⊔ R^3 and R^2 ⊔ R^2:
# K_*(C0(R^n ⊔ R^n)) is Z^2 in degree n mod 2.
def hexagon_preset(name: str, delta0=None, delta1=None) -> tuple[list, dict]:
    """(groups, known_maps) for the paper's hexagons gamma1-gamma3, and allZ.

    gamma1: the V1-tower hexagon, delta0 defaults to [[0,1],[0,1]];
    gamma2: the W1-tower hexagon, delta1 defaults to (1,1)^T;
    gamma3: the all-Z hexagon with delta1 = 1;
    allZ:   six copies of Z, nothing known.

    A delta the preset's hexagon does not take is refused with ValueError.
    """
    takes = {"gamma1": "delta0", "gamma2": "delta1", "gamma3": "delta1", "allZ": None}
    if name not in takes:
        raise ValueError(f"unknown preset {name!r}")
    for arg, value in (("delta0", delta0), ("delta1", delta1)):
        if value is not None and arg != takes[name]:
            raise ValueError(f"preset {name!r} takes no {arg}")
    if name == "gamma1":
        d0 = zmap(2, 2, delta0 if delta0 is not None else [[0, 1], [0, 1]])
        return [0, None, 2, 2, None, 0], {2: d0}
    if name == "gamma2":
        d1 = zmap(2, 1, delta1 if delta1 is not None else [[1], [1]])
        return [2, 2, 1, 0, 0, 1], {5: d1}
    if name == "gamma3":
        d1 = zmap(1, 1, delta1 if delta1 is not None else [[1]])
        return [1, 1, 1, 1, 1, 1], {5: d1}
    return [1, 1, 1, 1, 1, 1], {}


# The number of exact completions of each `hexagon_preset` hexagon.
COMPLETIONS = {"gamma1": 1, "gamma2": 1, "gamma3": 1, "allZ": 2}

# The patterns of the two exact hexagons of six copies of Z; delta1 = 1 picks the first.
_ALTERNATING = ((0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0))


def _pattern(seq: SixTerm) -> tuple[int, ...]:
    """|m[0, 0]| of each map of a hexagon of six copies of Z."""
    return tuple(abs(int(m[0, 0])) for m in seq.maps)


def completions_hold(preset: str, sols) -> bool:
    """The preset's verdict on its completions.

    There are `COMPLETIONS[preset]` of them: allZ's are the two alternating
    patterns, gamma3's (delta1 = 1) is the first of them, and gamma1's has
    K0 = K1 = Z, the ranks of groups 1 and 4.
    """
    if len(sols) != COMPLETIONS[preset]:
        return False
    if preset == "allZ":
        return {_pattern(s) for s in sols} == set(_ALTERNATING)
    if preset == "gamma3":
        return _pattern(sols[0]) == _ALTERNATING[0]
    if preset == "gamma1":
        return sols[0].groups == (0, 1, 2, 2, 1, 0)
    return True
