"""Five-dimensional solvable Lie algebras with a 4-dimensional abelian derived ideal.

The catalogue holds 14 parametric families, named 5_4_1 .. 5_4_14.  Each is
determined by the matrix of ad_{X1} restricted to span(X2..X5) in a fixed
basis (X1..X5); all brackets not involving X1 vanish.  Structure constants
are stored exactly as the closed-form entries with parameters substituted.
`FAMILIES` declares each family's parameters and their domains once: the
validation of `MD5Family`, `sample_family` and the CLI's family flags read it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "FAMILIES",
    "MD5Family",
    "LieAlgebra",
    "ParameterDomainError",
    "build_md5",
    "bracket",
    "jacobi_residual",
    "derived_ideal",
    "exact_det",
    "sample_family",
]

DIM = 5


class ParameterDomainError(ValueError):
    """A family parameter violates its domain constraint."""


@dataclass(frozen=True)
class _Domain:
    """An open interval minus finitely many points, and the range `sample_family` draws from."""

    text: str
    lo: float
    hi: float
    holes: tuple[float, ...] = ()
    draw: tuple[float, float] = (-2.0, 2.0)

    def __contains__(self, x) -> bool:
        # Strict comparisons, no tolerance: degenerate parameters are caller errors.
        # The bounds are open, so NaN and +-inf never belong.
        try:
            return self.lo < x < self.hi and x not in self.holes
        except TypeError:  # not a real number
            return False

    def sample(self, rng: np.random.Generator) -> float:
        """Uniform on `draw`, redrawn until 1e-2 away from every hole."""
        while True:
            x = float(rng.uniform(*self.draw))
            if all(abs(x - h) > 1e-2 for h in self.holes):
                return x


# Eigenvalue-like parameters are drawn from (-2, 2): flow values grow like
# e^{|a lambda|}, and the absolute 1e-9 flow-vs-closed-form contract on
# a in [-3, 3] needs desk-scale magnitudes at double precision.
_DOMAINS = {
    "real": _Domain("R", -math.inf, math.inf),
    "nonzero": _Domain("R \\ {0}", -math.inf, math.inf, (0.0,)),
    "not01": _Domain("R \\ {0, 1}", -math.inf, math.inf, (0.0, 1.0)),
    "positive": _Domain("(0, inf)", 0.0, math.inf, draw=(0.05, 3.0)),
    "angle": _Domain("(0, pi)", 0.0, math.pi, draw=(0.1, math.pi - 0.1)),
}


@dataclass(frozen=True)
class _FamilySpec:
    params: dict[str, str]  # parameter -> key into _DOMAINS, in order
    distinct: tuple[str, ...]  # parameters that must be pairwise distinct
    blocks: Callable  # params dict -> list of ("jordan", lam, k) | ("rot", phi) | ("srot", lam, mu)


def _blockdiag(blocks) -> np.ndarray:
    """The 4x4 block-diagonal matrix of the blocks, each written into its place.

    A Jordan block puts lam on its diagonal and 1 above it, a rotation
    [[cos, -sin], [sin, cos]] of phi and a scaled rotation [[lam, -mu],
    [mu, lam]]; every other entry is +0.0.
    """
    rows = [[0.0] * 4 for _ in range(4)]
    k = 0
    for b in blocks:
        if b[0] == "jordan":
            lam, n = b[1], b[2]
            for i in range(k, k + n):
                rows[i][i] = lam
                if i + 1 < k + n:
                    rows[i][i + 1] = 1.0
        elif b[0] == "rot":
            c, s = math.cos(b[1]), math.sin(b[1])
            rows[k][k:k + 2], rows[k + 1][k:k + 2] = [c, -s], [s, c]
            n = 2
        elif b[0] == "srot":
            lam, mu = b[1], b[2]
            rows[k][k:k + 2], rows[k + 1][k:k + 2] = [lam, -mu], [mu, lam]
            n = 2
        else:  # pragma: no cover
            raise ValueError(f"unknown block kind {b[0]}")
        k += n
    if k != 4:  # pragma: no cover
        raise ValueError("blocks do not fill a 4x4 matrix")
    return np.array(rows, dtype=float)


_L123 = ("lambda1", "lambda2", "lambda3")
_L12 = ("lambda1", "lambda2")

FAMILIES: dict[str, _FamilySpec] = {
    "5_4_1": _FamilySpec(dict.fromkeys(_L123, "not01"), _L123,
                         lambda p: [("jordan", p["lambda1"], 1), ("jordan", p["lambda2"], 1),
                                    ("jordan", p["lambda3"], 1), ("jordan", 1.0, 1)]),
    "5_4_2": _FamilySpec(dict.fromkeys(_L12, "not01"), _L12,
                         lambda p: [("jordan", p["lambda1"], 1), ("jordan", p["lambda2"], 1),
                                    ("jordan", 1.0, 1), ("jordan", 1.0, 1)]),
    "5_4_3": _FamilySpec({"lambda": "not01"}, (),
                         lambda p: [("jordan", p["lambda"], 1), ("jordan", p["lambda"], 1),
                                    ("jordan", 1.0, 1), ("jordan", 1.0, 1)]),
    "5_4_4": _FamilySpec({"lambda": "not01"}, (),
                         lambda p: [("jordan", p["lambda"], 1), ("jordan", 1.0, 1),
                                    ("jordan", 1.0, 1), ("jordan", 1.0, 1)]),
    "5_4_5": _FamilySpec({}, (),
                         lambda p: [("jordan", 1.0, 1)] * 4),
    "5_4_6": _FamilySpec(dict.fromkeys(_L12, "not01"), _L12,
                         lambda p: [("jordan", p["lambda1"], 1), ("jordan", p["lambda2"], 1),
                                    ("jordan", 1.0, 2)]),
    "5_4_7": _FamilySpec({"lambda": "not01"}, (),
                         lambda p: [("jordan", p["lambda"], 1), ("jordan", p["lambda"], 1),
                                    ("jordan", 1.0, 2)]),
    "5_4_8": _FamilySpec({"lambda": "not01"}, (),
                         lambda p: [("jordan", p["lambda"], 2), ("jordan", 1.0, 2)]),
    "5_4_9": _FamilySpec({"lambda": "not01"}, (),
                         lambda p: [("jordan", p["lambda"], 1), ("jordan", 1.0, 3)]),
    "5_4_10": _FamilySpec({}, (),
                          lambda p: [("jordan", 1.0, 4)]),
    "5_4_11": _FamilySpec({"lambda1": "nonzero", "lambda2": "nonzero", "phi": "angle"}, _L12,
                          lambda p: [("rot", p["phi"]), ("jordan", p["lambda1"], 1),
                                     ("jordan", p["lambda2"], 1)]),
    "5_4_12": _FamilySpec({"lambda": "nonzero", "phi": "angle"}, (),
                          lambda p: [("rot", p["phi"]), ("jordan", p["lambda"], 1),
                                     ("jordan", p["lambda"], 1)]),
    "5_4_13": _FamilySpec({"lambda": "nonzero", "phi": "angle"}, (),
                          lambda p: [("rot", p["phi"]), ("jordan", p["lambda"], 2)]),
    "5_4_14": _FamilySpec({"lambda": "real", "mu": "positive", "phi": "angle"}, (),
                          lambda p: [("rot", p["phi"]), ("srot", p["lambda"], p["mu"])]),
}


@dataclass(frozen=True)
class MD5Family:
    """A family tag plus its parameter values.

    `params` holds exactly the parameters `FAMILIES[family_id].params` lists,
    each a finite value in its domain, as a read-only mapping.
    """

    family_id: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # A read-only copy: neither the caller's dict nor the family's own
        # mapping can change a validated family.
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.family_id not in FAMILIES:
            raise ParameterDomainError(f"unknown family {self.family_id!r}")
        spec = FAMILIES[self.family_id]
        missing = [k for k in spec.params if k not in self.params]
        if missing:
            raise ParameterDomainError(f"{self.family_id}: missing parameters {missing}")
        extra = [k for k in self.params if k not in spec.params]
        if extra:
            raise ParameterDomainError(f"{self.family_id}: unexpected parameters {extra}")
        for name, key in spec.params.items():
            x = self.params[name]
            if x not in _DOMAINS[key]:
                raise ParameterDomainError(f"{self.family_id}: {name} must lie in "
                                           f"{_DOMAINS[key].text} (got {x!r})")
        if len({self.params[k] for k in spec.distinct}) < len(spec.distinct):
            raise ParameterDomainError(f"{self.family_id}: {', '.join(spec.distinct)} "
                                       "must be pairwise distinct")

    def ad_block(self) -> np.ndarray:
        """The 4x4 matrix of ad_{X1} on span(X2..X5), columns = images."""
        m = _blockdiag(FAMILIES[self.family_id].blocks(self.params))
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class LieAlgebra:
    """A 5-dimensional Lie algebra given by its structure-constant tensor.

    sc[i, j, k] is the coefficient of X_{k+1} in [X_{i+1}, X_{j+1}]
    (0-based indices into the fixed basis X1..X5).
    """

    sc: np.ndarray
    family: MD5Family | None = None

    def __post_init__(self):
        sc = np.asarray(self.sc, dtype=float)
        if sc.shape != (DIM, DIM, DIM):
            raise ValueError(f"structure constants must be {DIM}x{DIM}x{DIM}")
        if not np.array_equal(sc, -sc.transpose(1, 0, 2)):
            raise ValueError("structure constants must be antisymmetric in the first two indices")
        sc = sc.copy()
        sc.setflags(write=False)
        object.__setattr__(self, "sc", sc)

    @property
    def dim(self) -> int:
        return DIM


def build_md5(family: MD5Family | str, /, **params) -> LieAlgebra:
    """Instantiate a catalogue family as a LieAlgebra.

    Accepts either an MD5Family or a family id plus keyword parameters
    (keyword names as in MD5Family.params).
    """
    if isinstance(family, str):
        family = MD5Family(family, params)
    elif params:
        raise TypeError("pass parameters either inside MD5Family or as keywords, not both")
    mt = family.ad_block().T
    sc = np.zeros((DIM, DIM, DIM))
    # [X1, X_{j+2}] = sum_i m[i, j] X_{i+2}; the derived ideal is abelian.
    sc[0, 1:, 1:] = mt
    sc[1:, 0, 1:] = -mt
    return LieAlgebra(sc, family)


def bracket(alg: LieAlgebra, x, y) -> np.ndarray:
    """Lie bracket of two vectors in basis coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("i,j,ijk->k", x, y, alg.sc)


def jacobi_residual(alg: LieAlgebra) -> float:
    """Max-norm of the cyclic Jacobi sum over all basis triples.

    The sum is quadratic, so it is taken on the structure constants scaled
    by 2^-e to a largest |entry| below 1, where no product overflows (to
    inf - inf = NaN at entries near 1e300), and scaled back by 2^2e: exactly.
    """
    top = float(np.abs(alg.sc).max())
    e = math.frexp(top)[1] if math.isfinite(top) else 0
    c = np.ldexp(alg.sc, -e)
    with np.errstate(over="ignore", invalid="ignore"):
        # [[Xi,Xj],Xk] has coordinates sum_m c[i,j,m] c[m,k,:].
        t = np.einsum("ijm,mkl->ijkl", c, c)
        cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
        return float(np.ldexp(np.abs(cyc).max(), 2 * e))


@dataclass(frozen=True)
class DerivedIdeal:
    basis: np.ndarray  # orthonormal rows spanning [G, G]
    commutative: bool

    @property
    def rank(self) -> int:
        return self.basis.shape[0]


def derived_ideal(alg: LieAlgebra) -> DerivedIdeal:
    """Orthonormal basis of the span of all brackets, with a commutativity flag."""
    tol = 1e-12  # relative rank cut, and the bound on brackets of basis vectors
    vecs = alg.sc.reshape(DIM * DIM, DIM)
    u, s, vt = np.linalg.svd(vecs, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    basis = vt[:rank]
    commutative = True
    for i in range(rank):
        for j in range(i + 1, rank):
            if np.abs(bracket(alg, basis[i], basis[j])).max() > tol:
                commutative = False
    basis = basis.copy()
    basis.setflags(write=False)
    return DerivedIdeal(basis, commutative)


def exact_det(family: MD5Family) -> Fraction:
    """det M of the family's block, with no rounding: each float entry is its exact
    Fraction, and Gaussian elimination on Fractions is exact.

    The only brackets are [X1, X_j] = sum_i M_ij X_i, so the derived ideal is
    M(span(X2..X5)): it has rank 4 exactly when det M != 0.
    """
    # Imported here: fractions imports decimal, about 2 ms that every other
    # command would pay at start-up for this one rare path.
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in family.ad_block().tolist()]
    det = Fraction(1)
    for t in range(4):
        pivot = next((i for i in range(t, 4) if m[i][t]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != t:
            m[t], m[pivot] = m[pivot], m[t]
            det = -det
        det *= m[t][t]
        for i in range(t + 1, 4):
            q = m[i][t] / m[t][t]
            m[i] = [x - q * y for x, y in zip(m[i], m[t])]
    return det


# Sampling of valid parameters, used by randomized checks and the CLI.

def sample_family(family_id: str, rng: np.random.Generator) -> MD5Family:
    """Draw a parameter set from the family's domains, away from their excluded points.

    The pairwise-distinct parameters are drawn first, together, until they
    differ; then the others, in order.
    """
    if family_id not in FAMILIES:
        raise ParameterDomainError(f"unknown family {family_id!r}")
    spec = FAMILIES[family_id]
    while True:
        values = {k: _DOMAINS[spec.params[k]].sample(rng) for k in spec.distinct}
        if len(set(values.values())) == len(values):
            break
    for name, key in spec.params.items():
        if name not in values:
            values[name] = _DOMAINS[key].sample(rng)
    return MD5Family(family_id, {k: values[k] for k in spec.params})
