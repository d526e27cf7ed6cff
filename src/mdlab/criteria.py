"""The verification suite, defined once.

`REGISTRY` lists every check `mdlab reproduce` emits, in report order.  Each
entry runs from the run parameters it reads (`seed`, `samples`, `grid2d`,
`grid3d`, `quad_tol`; a `cli.RunConfig` carries them all) and returns check
dicts.  Entries with a number are the acceptance criteria 1-10: the
acceptance tests run those same entries at their own seeds and hold them to
`budget_s`.  The other subcommands judge each claim by the same report `ok`,
predicate or constant.  Every tolerance, sample count, expected integer and
budget of the suite and the subcommands is written here, or beside the code
it bounds: the flow and orbit-constancy tolerances (`orbits.FLOW_TOL`,
`foliation.CONSTANCY_TOL`) and the completions of each hexagon preset
(`ktheory.COMPLETIONS`, `ktheory.completions_hold`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import foliation, intlinalg, ktheory, liealg, orbits
from .invariants import index_invariants_f2_f3
from .topology import RESIDUAL_LIMIT, expi_hermitian, projection_residual, winding_1d
from .witnesses import phat, u_gamma3, uplus

__all__ = ["Criterion", "REGISTRY", "check"]

POINT_SAMPLES = 1000  # points per leaf-invariant, integrability and fibration check
AUDIT_SAMPLES = 200  # points of the p1 submersion audit


def check(name: str, ok: bool, claim: str, **metrics) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "claim": claim,
            "metrics": metrics}


def _max(values) -> float:
    """Largest value, NaN if any is NaN, so that a NaN never meets a bound."""
    return float(np.max(values))


def jacobi_holds(residual: float) -> bool:
    return residual == 0.0


def ideal_holds(ideal: liealg.DerivedIdeal) -> bool:
    return ideal.rank == 4 and ideal.commutative


def index_holds(res) -> bool:
    """The paper's gamma matrices, and every cross-check of the report passes."""
    paper = {"F2": ([[0, 1], [0, 1]], [[1], [1]], None), "F3": (None, None, [0, 1])}
    return (res.gamma1, res.gamma2, res.gamma3) == paper[res.kind] and res.ok


def _families(cfg) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    algs = [liealg.build_md5(liealg.sample_family(fid, rng)) for fid in liealg.FAMILIES]
    jacobi = _max([liealg.jacobi_residual(alg) for alg in algs])
    ideals = [liealg.derived_ideal(alg) for alg in algs]
    return [check("families", jacobi_holds(jacobi) and all(map(ideal_holds, ideals)),
                  "all 14 families build with Jacobi residual 0 and "
                  "commutative 4-dimensional derived ideal",
                  jacobi_residual_max=jacobi)]


def _md_dichotomy(cfg) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    reports = [orbits.md_verify(liealg.build_md5(liealg.sample_family(fid, rng)),
                                cfg.samples, cfg.seed + k)
               for fid in liealg.FAMILIES for k in range(5)]
    return [check("md_dichotomy", all(rep.dichotomy_holds for rep in reports),
                  "orbit dimensions in {0, 2}, zero exactly on the predicted stratum",
                  counterexamples=sum(rep.n_counterexamples for rep in reports),
                  samples=sum(rep.n_samples for rep in reports),
                  ranks=sorted(set().union(*(rep.rank_counts for rep in reports))))]


def _orbit_closed_forms(cfg) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    worst = _max([orbits.flow_vs_closed_form(liealg.sample_family(fid, rng),
                                             rng.standard_normal(5))
                  for fid in liealg.FAMILIES for _ in range(20)])
    return [check("orbit_closed_forms", worst < orbits.FLOW_TOL,
                  "flow matches closed forms to 1e-9 on [-3, 3]", deviation_max=worst)]


def _group_law_deviation(action: str, rng) -> float:
    p = rng.standard_normal(5)
    g, h = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
    act = foliation.act
    return float(np.abs(act(action, g, act(action, h, p)) - act(action, g + h, p)).max())


def _action_and_strata(cfg) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    law = _max([_group_law_deviation(action, rng)
                for action in foliation.ACTIONS for _ in range(300)])
    violations = sum(len(foliation.preservation_check(action, stratum, cfg.samples,
                                                      cfg.seed).violations)
                     for action in foliation.ACTIONS
                     for stratum in foliation.ACTION_STRATA[action])
    return [check("action_group_law", law < 1e-12, "action law holds to 1e-12",
                  deviation_max=law),
            check("strata_preservation", violations == 0,
                  "both actions preserve their strata", violations=violations)]


def _leaf_space_models(cfg) -> list[dict]:
    reports = [foliation.leafspace_report(action, n_samples=POINT_SAMPLES, seed=cfg.seed)
               for action in foliation.ACTIONS]
    audit = foliation.p1_submersion_audit(n_samples=AUDIT_SAMPLES, seed=cfg.seed)
    return [check("leaf_invariants", all(rep["ok"] for rep in reports),
                  "invariants orbit-constant to 1e-9 with full rank "
                  "(V1:3 V2:2 W2:1 V3:3 W3:1)",
                  residual_max=_max([e["constancy_residual"]
                                     for rep in reports for e in rep["strata"]])),
            check("p1_audit", audit.ok,
                  "documented discrepancy: literal projection moves along "
                  "orbits, invariant map does not",
                  literal_max_deviation=audit.literal_max_deviation,
                  invariant_residual=audit.invariant_residual)]


def _integrability(cfg) -> list[dict]:
    reports = [foliation.integrability_check(action, POINT_SAMPLES, cfg.seed)
               for action in foliation.ACTIONS]
    return [check("integrability", all(rep.ok for rep in reports),
                  "generator fields commute and span the orbit tangents",
                  bracket_residual=_max([rep.bracket_residual for rep in reports]),
                  tangent_residual=_max([rep.tangent_residual for rep in reports]))]


def _f1_fibration(cfg) -> list[dict]:
    fib = foliation.f1_fibration_check(POINT_SAMPLES, cfg.seed)
    return [check("f1_fibration", fib.ok, "direction map is orbit-constant of rank 3",
                  residual=fib.constancy_residual)]


def _integer_algebra_oracle(cfg) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    mismatches = 0
    for _ in range(1000):
        m = rng.integers(-5, 6, rng.integers(1, 5, 2))
        mismatches += intlinalg.invariant_factors(m) != intlinalg.minor_gcd_invariant_factors(m)
    return [check("snf_oracle", mismatches == 0,
                  "Smith invariant factors equal the minor-gcd oracle", mismatches=mismatches)]


def _six_term_dichotomy(cfg) -> list[dict]:
    sols = ktheory.solve_six_term(*ktheory.hexagon_preset("allZ"), bound=3)
    return [check("sixterm_allZ", ktheory.completions_hold("allZ", sols),
                  "exactly the two alternating completions", completions=len(sols))]


def _k_group_derivation(cfg) -> list[dict]:
    groups, known = ktheory.hexagon_preset("gamma1")
    sols = ktheory.solve_six_term(groups, known, bound=3)
    # K0 = ker(delta0) and K1 = coker(delta0), computed apart from the search.
    kernel_rank = int(intlinalg.kernel_basis(known[2]).shape[1])
    cokernel_rank, torsion = intlinalg.cokernel(known[2])
    return [check("gamma1_k_groups",
                  ktheory.completions_hold("gamma1", sols)
                  and kernel_rank == 1 and cokernel_rank == 1 and not torsion,
                  "the gamma1 hexagon forces K0 = K1 = Z",
                  groups=list(sols[0].groups) if sols else [],
                  kernel_rank=kernel_rank, cokernel_rank=cokernel_rank,
                  cokernel_torsion=torsion)]


def _witness_identities(cfg) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(-2, 2, (10_000, 2))
    upts = rng.uniform(-np.pi / 2, np.pi / 2, (10_000, 3))
    pres = projection_residual(phat(), pts)
    uv = u_gamma3()(upts)
    unit_res = float(np.abs(uv @ uv.conj().transpose(0, 2, 1) - np.eye(2)).max())
    det_res = float(np.abs(np.linalg.det(uv) - 1.0).max())
    # e^{2 pi i P} = I for a projection P; the lift ptilde at height 0 is phat.
    exp_res = float(np.abs(expi_hermitian(phat()(pts), 2.0 * np.pi) - np.eye(2)).max())
    w1 = winding_1d(uplus(), "+", tol=cfg.quad_tol)
    return [check("witness_identities",
                  _max([pres, unit_res, det_res, exp_res]) < 1e-10
                  and w1.rounded == 1 and w1.residual < 1e-6,
                  "projection/unitary identities hold to 1e-10; "
                  "reference winding is +1",
                  projection_residual=pres, unitarity_residual=unit_res,
                  det_residual=det_res, exp_identity_residual=exp_res,
                  uplus_winding=w1.raw)]


def _index_invariants(cfg) -> list[dict]:
    res2, res3 = index_invariants_f2_f3(resolution_2d=cfg.grid2d, resolution_3d=cfg.grid3d)
    worst = _max([v["residual"] for r in (res2, res3) for v in r.integrals.values()])
    return [check("index_F2", index_holds(res2), "gamma1 = [[0,1],[0,1]], gamma2 = (1,1)",
                  gamma1=res2.gamma1, gamma2=res2.gamma2, k_groups=res2.k_groups),
            check("index_F3", index_holds(res3), "gamma3 = (0, 1)", gamma3=res3.gamma3),
            check("integral_residuals", worst < RESIDUAL_LIMIT,
                  "every topological integral is within the residual budget",
                  residual_max=worst)]


@dataclass(frozen=True)
class Criterion:
    name: str
    checks: tuple[str, ...]  # names of the checks `run` returns, in order
    run: Callable[[object], list[dict]]
    number: int | None = None  # acceptance criterion number
    budget_s: float | None = None  # wall-time budget at the default samples and grids


REGISTRY: tuple[Criterion, ...] = (
    Criterion("families", ("families",), _families),
    Criterion("md_dichotomy", ("md_dichotomy",), _md_dichotomy, 1, 30.0),
    Criterion("orbit_closed_forms", ("orbit_closed_forms",), _orbit_closed_forms, 2, 10.0),
    Criterion("action_and_strata", ("action_group_law", "strata_preservation"),
              _action_and_strata, 3),
    Criterion("leaf_space_models", ("leaf_invariants", "p1_audit"), _leaf_space_models, 4),
    Criterion("integrability", ("integrability",), _integrability, 5),
    Criterion("f1_fibration", ("f1_fibration",), _f1_fibration),
    Criterion("integer_algebra_oracle", ("snf_oracle",), _integer_algebra_oracle, 10),
    Criterion("six_term_dichotomy", ("sixterm_allZ",), _six_term_dichotomy, 6),
    Criterion("k_group_derivation", ("gamma1_k_groups",), _k_group_derivation, 7),
    Criterion("witness_identities", ("witness_identities",), _witness_identities, 9),
    Criterion("index_invariants", ("index_F2", "index_F3", "integral_residuals"),
              _index_invariants, 8, 300.0),
)
