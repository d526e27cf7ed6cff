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

import numpy as np

from .intlinalg import (
    as_zmatrix,
    cokernel,
    image_basis,
    invariant_factors,
    kernel_basis,
    subgroup_equal,
    zeros,
)

__all__ = [
    "NODES",
    "SixTerm",
    "zmap",
    "exact_at",
    "is_exact",
    "SearchSpaceError",
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

    def to_json(self) -> dict:
        return {
            "nodes": list(NODES),
            "groups": [int(g) for g in self.groups],
            "maps": [[int(x) for x in m.reshape(-1)] for m in self.maps],
            "exact": [bool(exact_at(self, i)) for i in range(6)],
        }


def exact_at(seq: SixTerm, node: int) -> bool:
    """Exactness at one node: image of the incoming map equals kernel of the outgoing."""
    img = image_basis(seq.maps[(node - 1) % 6])
    ker = kernel_basis(seq.maps[node % 6])
    return subgroup_equal(img, ker)


def is_exact(seq: SixTerm) -> bool:
    return all(exact_at(seq, i) for i in range(6))


class SearchSpaceError(ValueError):
    """The bounded completion search would be too large."""


def _infer_ranks(groups, known) -> list[int]:
    g = list(groups)
    progress = True
    while progress and any(x is None for x in g):
        progress = False
        for i in range(6):
            if g[i] is not None:
                continue
            # 0 -> G_i -> G_{i+1} --f--> G_{i+2} forces G_i = ker f.
            j1 = (i + 1) % 6
            if g[(i - 1) % 6] == 0 and known.get(j1) is not None:
                g[i] = kernel_basis(known[j1]).shape[1]
                progress = True
                continue
            # G_{i-2} --f--> G_{i-1} -> G_i -> 0 forces G_i = coker f (must be free).
            j2 = (i - 2) % 6
            if g[(i + 1) % 6] == 0 and known.get(j2) is not None:
                free, torsion = cokernel(known[j2])
                if torsion:
                    raise ValueError(
                        f"cokernel at node {i} has torsion {torsion}; groups must be free")
                g[i] = free
                progress = True
    missing = [i for i in range(6) if g[i] is None]
    if missing:
        raise ValueError(f"cannot infer ranks of groups at positions {missing}")
    return g


def _box(shape: tuple[int, int], bound: int) -> np.ndarray:
    """Every matrix of `shape` with entries in [-bound, bound], as an exact
    (count, rows, cols) stack in lexicographic order of the row-major entries."""
    k, e = len(range(-bound, bound + 1)), shape[0] * shape[1]
    digits = np.arange(k ** e)[:, None] // k ** np.arange(e - 1, -1, -1) % k
    return (digits - bound).astype(object).reshape(-1, *shape)


def _node_test(n: int, fa: list[int], fb: list[int]) -> bool:
    """Exactness at a node Z^n whose maps a (in) and b (out) satisfy b a = 0.

    `fa` and `fb` are the nonzero invariant factors of a and b.  The node is
    exact iff rank a + rank b = n and every factor in `fa` is 1.  Proof:
    b a = 0 puts im a inside ker b, which is saturated (Z^n / ker b embeds in
    the free target of b) and has rank n - rank b.  Unit factors say that
    Z^n / im a is free, i.e. im a is saturated; a saturated sublattice of the
    same rank inside ker b is all of it, since ker b / im a is then torsion
    inside the free Z^n / im a.  Conversely, im a = ker b is saturated and
    has rank n - rank b.
    """
    return len(fa) + len(fb) == n and all(f == 1 for f in fa)


def solve_six_term(groups, known_maps=None, bound: int = 3,
                   max_candidates: int = 5_000_000) -> list[SixTerm]:
    """All exact completions of a partially known hexagon, up to automorphism.

    `groups` lists the six ranks (None = inferred where exactness forces it);
    `known_maps` maps positions 0..5 to fixed integer matrices.  Unknown maps
    are searched with entries in [-bound, bound].  Completions are grouped by
    the tuple of per-map invariant factors (unimodular base changes preserve
    them) and one lexicographically minimal representative per class is kept.
    `max_candidates` bounds the unpruned box, the product over the unknown
    maps of (2 bound + 1) ** entries, and the search refuses to start beyond it.

    Each unknown map's candidates form one exact (count, rows, cols) box.  The
    search assigns the unknown maps one at a time.  Consecutive maps of an
    exact sequence compose to zero (im a = ker b implies b a = 0), so each
    level first keeps the candidates of its whole box that compose to zero
    with the neighbours already assigned, one batched product per neighbour;
    this prunes no completion.  A node is then tested as soon as both of its
    maps are assigned, by `_node_test` on the invariant factors of its maps:
    rank a + rank b = n and unit factors of a.  Nodes between two fixed maps
    are tested once, before the search.  Each candidate's factors are
    computed at most once per call and also give its class key.

    Every class is returned through its representative, and every
    representative is re-checked with `is_exact` (HNF image = kernel); a
    failure raises RuntimeError.  So a node test that accepted a non-exact
    completion would either raise or change nothing.  A negative bound is
    refused with ValueError: its box is empty, which is not a search.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0 (got {bound})")
    known = {i: as_zmatrix(m) for i, m in (known_maps or {}).items()}
    ranks = _infer_ranks(groups, known)

    shapes = [(ranks[(i + 1) % 6], ranks[i]) for i in range(6)]
    # A fixed map is a box of one candidate, assigned from the start.
    boxes: dict[int, np.ndarray] = {}  # position -> (count, rows, cols) candidates
    chosen: dict[int, int] = {}  # position -> index of its assigned candidate
    open_idx: list[int] = []
    total = 1
    for i, shape in enumerate(shapes):
        if i in known:
            if known[i].shape != shape:
                raise ValueError(f"known map {i} has shape {known[i].shape}, expected {shape}")
            boxes[i], chosen[i] = known[i][None], 0
        elif shape[0] == 0 or shape[1] == 0:
            boxes[i], chosen[i] = zeros(*shape)[None], 0
        else:
            open_idx.append(i)
            total *= (2 * bound + 1) ** (shape[0] * shape[1])
    if total > max_candidates:
        raise SearchSpaceError(
            f"completion search needs about {total:.3g} candidates (> {max_candidates})")
    for i in open_idx:
        boxes[i] = _box(shapes[i], bound)

    factors: dict[tuple[int, int], list[int]] = {}

    def facs(i, j):
        if (i, j) not in factors:
            factors[i, j] = invariant_factors(boxes[i][j])
        return factors[i, j]

    def exact_node(node, ja, jb):
        # Node `node` with candidate ja of its incoming map, jb of its outgoing one.
        return _node_test(ranks[node], facs((node - 1) % 6, ja), facs(node, jb))

    for node in range(6):
        a, b = (node - 1) % 6, node
        if a in chosen and b in chosen and (
                (boxes[b][0] @ boxes[a][0]).any() or not exact_node(node, 0, 0)):
            return []

    # The search visits completions in lexicographic order of their entries,
    # so the first completion of each class is its minimal representative.
    classes: dict[tuple, tuple[int, ...]] = {}

    def dfs(k):
        if k == len(open_idx):
            key = tuple((shapes[i], tuple(facs(i, chosen[i]))) for i in range(6))
            classes.setdefault(key, tuple(chosen[i] for i in range(6)))
            return
        i = open_idx[k]
        box = boxes[i]
        prev, nxt = (i - 1) % 6, (i + 1) % 6
        keep = np.ones(len(box), dtype=bool)
        if prev in chosen:
            keep &= ~((box @ boxes[prev][chosen[prev]]) != 0).any(axis=(1, 2))
        if nxt in chosen:
            keep &= ~((boxes[nxt][chosen[nxt]] @ box) != 0).any(axis=(1, 2))
        for j in np.flatnonzero(keep).tolist():
            if prev in chosen and not exact_node(i, chosen[prev], j):
                continue
            if nxt in chosen and not exact_node(nxt, j, chosen[nxt]):
                continue
            chosen[i] = j
            dfs(k + 1)
            del chosen[i]

    dfs(0)

    solutions = []
    for key in sorted(classes):
        seq = SixTerm(tuple(ranks),
                      tuple(boxes[i][j].copy() for i, j in enumerate(classes[key])))
        if not is_exact(seq):
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
    """
    if name == "gamma1":
        d0 = zmap(2, 2, delta0 if delta0 is not None else [[0, 1], [0, 1]])
        return [0, None, 2, 2, None, 0], {2: d0}
    if name == "gamma2":
        d1 = zmap(2, 1, delta1 if delta1 is not None else [[1], [1]])
        return [2, 2, 1, 0, 0, 1], {5: d1}
    if name == "gamma3":
        d1 = zmap(1, 1, delta1 if delta1 is not None else [[1]])
        return [1, 1, 1, 1, 1, 1], {5: d1}
    if name == "allZ":
        return [1, 1, 1, 1, 1, 1], {}
    raise ValueError(f"unknown preset {name!r}")


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
