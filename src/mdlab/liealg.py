"""Five-dimensional solvable Lie algebras with a 4-dimensional abelian derived ideal.

The catalogue holds 14 parametric families, named 5_4_1 .. 5_4_14.  Each is
determined by the matrix of ad_{X1} restricted to span(X2..X5) in a fixed
basis (X1..X5); all brackets not involving X1 vanish.  Structure constants
are stored exactly as the closed-form entries with parameters substituted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FAMILIES",
    "MD5Family",
    "LieAlgebra",
    "ParameterDomainError",
    "build_md5",
    "bracket",
    "jacobi_residual",
    "derived_ideal",
    "ad_matrix",
    "sample_family",
]

DIM = 5


class ParameterDomainError(ValueError):
    """A family parameter violates its domain constraint."""


def _require(cond: bool, family: str, constraint: str) -> None:
    if not cond:
        raise ParameterDomainError(f"{family}: {constraint}")


def _rot(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _jordan(lam: float, k: int) -> np.ndarray:
    return lam * np.eye(k) + np.diag(np.ones(k - 1), 1)


def _scaled_rot(lam: float, mu: float) -> np.ndarray:
    return np.array([[lam, -mu], [mu, lam]])


def _not01(x: float) -> bool:
    # Strict comparison, no tolerance: degenerate parameters are caller errors.
    return x != 0.0 and x != 1.0


@dataclass(frozen=True)
class _FamilySpec:
    params: tuple[str, ...]
    validate: callable
    blocks: callable  # params dict -> list of ("jordan", lam, k) | ("rot", phi) | ("srot", lam, mu)


def _blockdiag(blocks) -> np.ndarray:
    mats = []
    for b in blocks:
        if b[0] == "jordan":
            mats.append(_jordan(b[1], b[2]))
        elif b[0] == "rot":
            mats.append(_rot(b[1]))
        elif b[0] == "srot":
            mats.append(_scaled_rot(b[1], b[2]))
        else:  # pragma: no cover
            raise ValueError(f"unknown block kind {b[0]}")
    out = np.zeros((4, 4))
    k = 0
    for m in mats:
        n = m.shape[0]
        out[k:k + n, k:k + n] = m
        k += n
    if k != 4:  # pragma: no cover
        raise ValueError("blocks do not fill a 4x4 matrix")
    return out


def _v_541(p):
    l1, l2, l3 = p["lambda1"], p["lambda2"], p["lambda3"]
    _require(_not01(l1) and _not01(l2) and _not01(l3), "5_4_1",
             "lambda1, lambda2, lambda3 must lie in R \\ {0, 1}")
    _require(l1 != l2 and l2 != l3 and l3 != l1, "5_4_1",
             "lambda1, lambda2, lambda3 must be pairwise distinct")


def _v_542(p):
    l1, l2 = p["lambda1"], p["lambda2"]
    _require(_not01(l1) and _not01(l2), "5_4_2", "lambda1, lambda2 must lie in R \\ {0, 1}")
    _require(l1 != l2, "5_4_2", "lambda1 must differ from lambda2")


def _v_lam01(fam):
    def v(p):
        _require(_not01(p["lambda"]), fam, "lambda must lie in R \\ {0, 1}")
    return v


def _v_546(p):
    l1, l2 = p["lambda1"], p["lambda2"]
    _require(_not01(l1) and _not01(l2), "5_4_6", "lambda1, lambda2 must lie in R \\ {0, 1}")
    _require(l1 != l2, "5_4_6", "lambda1 must differ from lambda2")


def _v_5411(p):
    l1, l2, phi = p["lambda1"], p["lambda2"], p["phi"]
    _require(l1 != 0.0 and l2 != 0.0, "5_4_11", "lambda1, lambda2 must be nonzero")
    _require(l1 != l2, "5_4_11", "lambda1 must differ from lambda2")
    _require(0.0 < phi < math.pi, "5_4_11", "phi must lie in (0, pi)")


def _v_lam0phi(fam):
    def v(p):
        _require(p["lambda"] != 0.0, fam, "lambda must be nonzero")
        _require(0.0 < p["phi"] < math.pi, fam, "phi must lie in (0, pi)")
    return v


def _v_5414(p):
    _require(p["mu"] > 0.0, "5_4_14", "mu must be positive")
    _require(0.0 < p["phi"] < math.pi, "5_4_14", "phi must lie in (0, pi)")


FAMILIES: dict[str, _FamilySpec] = {
    "5_4_1": _FamilySpec(("lambda1", "lambda2", "lambda3"), _v_541,
                         lambda p: [("jordan", p["lambda1"], 1), ("jordan", p["lambda2"], 1),
                                    ("jordan", p["lambda3"], 1), ("jordan", 1.0, 1)]),
    "5_4_2": _FamilySpec(("lambda1", "lambda2"), _v_542,
                         lambda p: [("jordan", p["lambda1"], 1), ("jordan", p["lambda2"], 1),
                                    ("jordan", 1.0, 1), ("jordan", 1.0, 1)]),
    "5_4_3": _FamilySpec(("lambda",), _v_lam01("5_4_3"),
                         lambda p: [("jordan", p["lambda"], 1), ("jordan", p["lambda"], 1),
                                    ("jordan", 1.0, 1), ("jordan", 1.0, 1)]),
    "5_4_4": _FamilySpec(("lambda",), _v_lam01("5_4_4"),
                         lambda p: [("jordan", p["lambda"], 1), ("jordan", 1.0, 1),
                                    ("jordan", 1.0, 1), ("jordan", 1.0, 1)]),
    "5_4_5": _FamilySpec((), lambda p: None,
                         lambda p: [("jordan", 1.0, 1)] * 4),
    "5_4_6": _FamilySpec(("lambda1", "lambda2"), _v_546,
                         lambda p: [("jordan", p["lambda1"], 1), ("jordan", p["lambda2"], 1),
                                    ("jordan", 1.0, 2)]),
    "5_4_7": _FamilySpec(("lambda",), _v_lam01("5_4_7"),
                         lambda p: [("jordan", p["lambda"], 1), ("jordan", p["lambda"], 1),
                                    ("jordan", 1.0, 2)]),
    "5_4_8": _FamilySpec(("lambda",), _v_lam01("5_4_8"),
                         lambda p: [("jordan", p["lambda"], 2), ("jordan", 1.0, 2)]),
    "5_4_9": _FamilySpec(("lambda",), _v_lam01("5_4_9"),
                         lambda p: [("jordan", p["lambda"], 1), ("jordan", 1.0, 3)]),
    "5_4_10": _FamilySpec((), lambda p: None,
                          lambda p: [("jordan", 1.0, 4)]),
    "5_4_11": _FamilySpec(("lambda1", "lambda2", "phi"), _v_5411,
                          lambda p: [("rot", p["phi"]), ("jordan", p["lambda1"], 1),
                                     ("jordan", p["lambda2"], 1)]),
    "5_4_12": _FamilySpec(("lambda", "phi"), _v_lam0phi("5_4_12"),
                          lambda p: [("rot", p["phi"]), ("jordan", p["lambda"], 1),
                                     ("jordan", p["lambda"], 1)]),
    "5_4_13": _FamilySpec(("lambda", "phi"), _v_lam0phi("5_4_13"),
                          lambda p: [("rot", p["phi"]), ("jordan", p["lambda"], 2)]),
    "5_4_14": _FamilySpec(("lambda", "mu", "phi"), _v_5414,
                          lambda p: [("rot", p["phi"]), ("srot", p["lambda"], p["mu"])]),
}


@dataclass(frozen=True)
class MD5Family:
    """A family tag plus its parameter values.

    `params` uses the keys "lambda", "lambda1", "lambda2", "lambda3", "mu",
    "phi" as required by the family.
    """

    family_id: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.family_id not in FAMILIES:
            raise ParameterDomainError(f"unknown family {self.family_id!r}")
        spec = FAMILIES[self.family_id]
        missing = [k for k in spec.params if k not in self.params]
        if missing:
            raise ParameterDomainError(f"{self.family_id}: missing parameters {missing}")
        extra = [k for k in self.params if k not in spec.params]
        if extra:
            raise ParameterDomainError(f"{self.family_id}: unexpected parameters {extra}")
        spec.validate(self.params)

    def ad_block(self) -> np.ndarray:
        """The 4x4 matrix of ad_{X1} on span(X2..X5), columns = images."""
        m = _blockdiag(FAMILIES[self.family_id].blocks(self.params))
        m.setflags(write=False)
        return m

    def to_json(self) -> dict:
        return {"family": self.family_id, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "MD5Family":
        return cls(obj["family"], dict(obj.get("params", {})))


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
    m = family.ad_block()
    sc = np.zeros((DIM, DIM, DIM))
    # [X1, X_{j+2}] = sum_i m[i, j] X_{i+2}; the derived ideal is abelian.
    for j in range(4):
        sc[0, j + 1, 1:] = m[:, j]
        sc[j + 1, 0, 1:] = -m[:, j]
    return LieAlgebra(sc, family)


def bracket(alg: LieAlgebra, x, y) -> np.ndarray:
    """Lie bracket of two vectors in basis coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("i,j,ijk->k", x, y, alg.sc)


def jacobi_residual(alg: LieAlgebra) -> float:
    """Max-norm of the cyclic Jacobi sum over all basis triples."""
    c = alg.sc
    # [[Xi,Xj],Xk] has coordinates sum_m c[i,j,m] c[m,k,:].
    t = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.abs(cyc).max())


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


def ad_matrix(alg: LieAlgebra, x) -> np.ndarray:
    """Matrix of ad_x in the fixed basis; column j is [x, X_{j+1}]."""
    x = np.asarray(x, dtype=float)
    return np.einsum("i,ijk->kj", x, alg.sc)


# Sampling of valid parameters, used by randomized checks and the CLI.

def sample_family(family_id: str, rng: np.random.Generator) -> MD5Family:
    """Draw a uniformly sensible parameter set from the family's domain.

    Eigenvalue-like parameters are sampled in (-2, 2): flow values grow like
    e^{|a lambda|}, and the absolute 1e-9 flow-vs-closed-form contract on
    a in [-3, 3] needs desk-scale magnitudes at double precision.
    """
    def pick_not01():
        while True:
            v = float(rng.uniform(-2.0, 2.0))
            if abs(v) > 1e-2 and abs(v - 1.0) > 1e-2:
                return v

    def pick_nonzero():
        while True:
            v = float(rng.uniform(-2.0, 2.0))
            if abs(v) > 1e-2:
                return v

    fid = family_id
    if fid == "5_4_1":
        while True:
            l1, l2, l3 = pick_not01(), pick_not01(), pick_not01()
            if l1 != l2 and l2 != l3 and l3 != l1:
                return MD5Family(fid, {"lambda1": l1, "lambda2": l2, "lambda3": l3})
    if fid in ("5_4_2", "5_4_6"):
        while True:
            l1, l2 = pick_not01(), pick_not01()
            if l1 != l2:
                return MD5Family(fid, {"lambda1": l1, "lambda2": l2})
    if fid in ("5_4_3", "5_4_4", "5_4_7", "5_4_8", "5_4_9"):
        return MD5Family(fid, {"lambda": pick_not01()})
    if fid in ("5_4_5", "5_4_10"):
        return MD5Family(fid, {})
    if fid == "5_4_11":
        while True:
            l1, l2 = pick_nonzero(), pick_nonzero()
            if l1 != l2:
                phi = float(rng.uniform(0.1, math.pi - 0.1))
                return MD5Family(fid, {"lambda1": l1, "lambda2": l2, "phi": phi})
    if fid in ("5_4_12", "5_4_13"):
        return MD5Family(fid, {"lambda": pick_nonzero(),
                               "phi": float(rng.uniform(0.1, math.pi - 0.1))})
    if fid == "5_4_14":
        return MD5Family(fid, {"lambda": float(rng.uniform(-2.0, 2.0)),
                               "mu": float(rng.uniform(0.05, 3.0)),
                               "phi": float(rng.uniform(0.1, math.pi - 0.1))})
    raise ParameterDomainError(f"unknown family {family_id!r}")
