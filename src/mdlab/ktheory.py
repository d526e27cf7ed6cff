"""Cyclic six-term sequences of free abelian groups, and the K-group catalogue.

Hexagon positions follow the fixed convention
    G0 = K0(J) -> G1 = K0(A) -> G2 = K0(B)
      -> G3 = K1(J) -> G4 = K1(A) -> G5 = K1(B) -> G0,
so maps[2] is the exponential connecting map (delta0) and maps[5] the index
connecting map (delta1).  All groups are free (Z^r); torsion never occurs in
the catalogue and is rejected where it would arise.
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
    "KDescriptor",
    "KGroups",
    "CatalogueError",
    "point",
    "euclidean",
    "sphere",
    "half_line",
    "leaf_half_line",
    "named",
    "tensor_K",
    "crossed_R2",
    "times_euclidean",
    "times_circle",
    "disjoint_union",
    "ktable",
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


def hexagon_preset(name: str, delta0=None, delta1=None) -> tuple[list, dict]:
    """(groups, known_maps) for the catalogue hexagons.

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


# ---------------------------------------------------------------------------
# K-group catalogue

class CatalogueError(ValueError):
    """Descriptor falls outside the encoded catalogue."""


@dataclass(frozen=True)
class KDescriptor:
    op: str
    args: tuple = ()

    def __str__(self):
        if self.op == "atom":
            return self.args[0]
        if self.op == "euclidean":
            return f"C0(R^{self.args[0]})"
        if self.op == "sphere":
            return f"C(S^{self.args[0]})"
        if self.op == "half_line":
            return f"C0(R{self.args[0]})"
        if self.op == "named":
            return self.args[0]
        if self.op == "tensor_K":
            return f"{self.args[0]} ⊗ K"
        if self.op == "crossed_R2":
            return f"{self.args[0]} ⋊ R^2"
        if self.op == "times_euclidean":
            return f"{self.args[0]} ⊗ C0(R^{self.args[1]})"
        if self.op == "times_circle":
            return f"{self.args[0]} ⊗ C(S^1)"
        if self.op == "union":
            return " ⊕ ".join(str(a) for a in self.args)
        return repr(self)  # pragma: no cover


def point() -> KDescriptor:
    return KDescriptor("atom", ("point",))


def euclidean(n: int) -> KDescriptor:
    return KDescriptor("euclidean", (int(n),))


def sphere(n: int) -> KDescriptor:
    return KDescriptor("sphere", (int(n),))


def half_line(sign: str) -> KDescriptor:
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return KDescriptor("half_line", (sign,))


def leaf_half_line() -> KDescriptor:
    """The leaf-space half-line R_+ carrying the B2/B3 presentation."""
    return KDescriptor("atom", ("R+",))


def named(name: str) -> KDescriptor:
    return KDescriptor("named", (name,))


def tensor_K(d: KDescriptor) -> KDescriptor:
    return KDescriptor("tensor_K", (d,))


def crossed_R2(d: KDescriptor) -> KDescriptor:
    return KDescriptor("crossed_R2", (d,))


def times_euclidean(d: KDescriptor, k: int) -> KDescriptor:
    return KDescriptor("times_euclidean", (d, int(k)))


def times_circle(d: KDescriptor) -> KDescriptor:
    return KDescriptor("times_circle", (d,))


def disjoint_union(*ds: KDescriptor) -> KDescriptor:
    return KDescriptor("union", tuple(ds))


@dataclass(frozen=True)
class KGroups:
    k0: int
    k1: int
    gens0: tuple[str, ...] = ()
    gens1: tuple[str, ...] = ()

    def ranks(self) -> tuple[int, int]:
        return (self.k0, self.k1)


def _euclidean_groups(n: int) -> KGroups:
    if n < 0:
        raise CatalogueError("negative-dimensional Euclidean space")
    if n == 0:
        return KGroups(1, 0, ("[1]",), ())
    if n % 2 == 0:
        return KGroups(1, 0, ("⊠".join(["[b]"] * (n // 2)),), ())
    return KGroups(0, 1, (), ("[b]⊠" * (n // 2) + "[u]",))


_SPHERES = {
    0: KGroups(2, 0, ("[1]+", "[1]-"), ()),
    1: KGroups(1, 1, ("[1]",), ("[Id]",)),
    2: KGroups(2, 0, ("[1hat]", "[phat]-[eps1]"), ()),
    3: KGroups(1, 1, ("[1]",), ("[g3]",)),
}

# Seeded catalogue entries: the extension-tower algebras with their tabulated
# K-groups and generator labels.  The R+ atom carries the B2/B3 presentation
# (the crossed-product route), not the contractible-half-line value; the
# signed fiber half-lines R± keep the true value K1 = Z generated by [u±].
_ATOMS = {
    "point": KGroups(1, 0, ("[1]",), ()),
    "R+": KGroups(1, 1, ("[1]⊠[u+]",), ("[p]-[eps1]",)),
}

_NAMED: dict[str, KGroups] = {
    "J1": KGroups(0, 2, (), ("[b]⊠[u+]", "[b]⊠[u-]")),
    "J2": KGroups(2, 0, ("[b]⊠[u+]", "[b]⊠[u-]"), ()),
    "B1": KGroups(2, 0, ("[1hat]", "[phat]-[eps1]"), ()),
    "B2": KGroups(1, 1, ("[1]⊠[u+]",), ("[p]-[eps1]",)),
    "J3": KGroups(1, 1, ("[1]",), ("[Id]",)),
    "B3": KGroups(1, 1, ("[1]",), ("[Id]",)),
    "CF2": KGroups(1, 1, ("[k0]",), ("[k1]",)),
    "CF3": KGroups(1, 1, ("[k0]",), ("[k1]",)),
}

# Model descriptors of the named algebras (rank cross-checks; labels differ
# because the named entries carry the tower presentation of their generators).
NAMED_MODELS: dict[str, KDescriptor] = {
    "J1": tensor_K(disjoint_union(times_euclidean(half_line("+"), 2),
                                  times_euclidean(half_line("-"), 2))),
    "J2": tensor_K(disjoint_union(euclidean(2), euclidean(2))),
    "B2": tensor_K(leaf_half_line()),
    "B3": tensor_K(leaf_half_line()),
    "J3": tensor_K(times_euclidean(times_circle(euclidean(2)), 2)),
    "CF3": tensor_K(times_euclidean(sphere(3), 2)),
}


def ktable(d: KDescriptor) -> KGroups:
    """K0/K1 ranks and generator labels of a catalogue descriptor.

    Rules: ⊗K and ⋊R^2 (Thom–Connes) are identities; ×R^2 is the Bott
    degree-preserving shift (labels gain a [b]⊠ factor); ×R swaps degrees;
    ×S^1 mixes both degrees; disjoint unions add.
    """
    if d.op == "atom":
        try:
            return _ATOMS[d.args[0]]
        except KeyError:
            raise CatalogueError(f"no atom rule for {d.args[0]!r}") from None
    if d.op == "euclidean":
        return _euclidean_groups(d.args[0])
    if d.op == "sphere":
        try:
            return _SPHERES[d.args[0]]
        except KeyError:
            raise CatalogueError(f"no sphere rule for S^{d.args[0]}") from None
    if d.op == "half_line":
        sign = d.args[0]
        return KGroups(0, 1, (), (f"[u{sign}]",))
    if d.op == "named":
        try:
            return _NAMED[d.args[0]]
        except KeyError:
            raise CatalogueError(f"no named entry {d.args[0]!r}") from None
    if d.op in ("tensor_K", "crossed_R2"):
        return ktable(d.args[0])
    if d.op == "times_euclidean":
        g = ktable(d.args[0])
        k = d.args[1]
        if k % 2 == 1:
            g = KGroups(g.k1, g.k0, g.gens1, g.gens0)
            k -= 1
        pre = "[b]⊠" * (k // 2)
        if not pre:
            return g
        return KGroups(g.k0, g.k1,
                       tuple(pre + s for s in g.gens0),
                       tuple(pre + s for s in g.gens1))
    if d.op == "times_circle":
        g = ktable(d.args[0])
        gens0 = tuple(s + "⊠[1]" for s in g.gens0) + tuple(s + "⊠[Id]" for s in g.gens1)
        gens1 = tuple(s + "⊠[1]" for s in g.gens1) + tuple(s + "⊠[Id]" for s in g.gens0)
        return KGroups(g.k0 + g.k1, g.k0 + g.k1, gens0, gens1)
    if d.op == "union":
        parts = [ktable(a) for a in d.args]
        return KGroups(sum(p.k0 for p in parts), sum(p.k1 for p in parts),
                       tuple(s for p in parts for s in p.gens0),
                       tuple(s for p in parts for s in p.gens1))
    raise CatalogueError(f"no rule for descriptor op {d.op!r}")
