"""Command-line interface: per-module checks and the full reproduction suite.

Structured output is a single JSON report (schema "mdlab/1"); the human
summary goes to stdout unless --json replaces it with the report itself.
Exit codes: 0 all pass, 1 any fail, 2 inconclusive (quadrature residuals),
64 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import foliation, ktheory, liealg, orbits
from .criteria import REGISTRY, check as _check
from .invariants import index_invariant
from .topology import ResidualError

SCHEMA = "mdlab/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


@dataclass
class RunConfig:
    seed: int = 42
    samples: int = 10_000
    quad_tol: float = 1e-8
    grid2d: int = 512
    grid3d: int = 128
    output: str | None = None

    def validate(self) -> "RunConfig":
        """Check every field's type and range; a config file can hold any JSON value."""
        for name, least in (("seed", 0), ("samples", 1), ("grid2d", 16), ("grid3d", 16)):
            val = getattr(self, name)
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{name} must be an integer (got {val!r})")
            if val < least:
                raise ConfigError(f"{name} must be >= {least} (got {val})")
        tol = self.quad_tol
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
                or not (math.isfinite(tol) and tol > 0):
            raise ConfigError(f"quad_tol must be a finite positive number (got {tol!r})")
        if not (self.output is None or isinstance(self.output, str)):
            raise ConfigError(f"output must be a path (got {self.output!r})")
        return self


class ConfigError(ValueError):
    pass


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Config file (JSON) with flag overrides; flags win."""
    values: dict = {}
    if path:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        for key, val in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = val
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def _report(command: str, config: RunConfig, checks: list[dict]) -> dict:
    statuses = {c["status"] for c in checks}
    overall = "fail" if "fail" in statuses else (
        "inconclusive" if "inconclusive" in statuses else "pass")
    return {
        "schema": SCHEMA,
        "command": command,
        "config": asdict(config),
        "checks": checks,
        "status": overall,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------------------
# Family parameter handling

_PARAM_FLAGS = ("lam", "lambda1", "lambda2", "lambda3", "mu", "phi")


def _family_from_args(args) -> liealg.MD5Family:
    params = {}
    for flag in _PARAM_FLAGS:
        val = getattr(args, flag, None)
        if val is not None:
            params["lambda" if flag == "lam" else flag] = val
    if not all(math.isfinite(v) for v in params.values()):
        raise ConfigError(f"family parameters must be finite (got {params})")
    return liealg.MD5Family(args.family, params)


# ---------------------------------------------------------------------------
# Subcommand bodies

def cmd_algebra(args, config: RunConfig) -> list[dict]:
    fam = _family_from_args(args)
    alg = liealg.build_md5(fam)
    ideal = liealg.derived_ideal(alg)
    jres = liealg.jacobi_residual(alg)
    return [
        _check("jacobi", jres == 0.0, "structure constants satisfy the Jacobi identity",
               residual=jres),
        _check("derived_ideal", ideal.rank == 4 and ideal.commutative,
               "derived ideal is 4-dimensional and commutative",
               rank=ideal.rank, commutative=ideal.commutative,
               ad_block=[[float(v) for v in row] for row in fam.ad_block()]),
    ]


def cmd_mdcheck(args, config: RunConfig) -> list[dict]:
    fam = _family_from_args(args)
    alg = liealg.build_md5(fam)
    rep = orbits.md_verify(alg, config.samples, config.seed)
    return [_check("md_dichotomy", rep.dichotomy_holds,
                   "orbit dimensions lie in {0, 2} exactly on the predicted strata",
                   **rep.to_json())]


ORBIT_TOL = 1e-9
# Rounding a coordinate of size v errs by up to v * eps, so on an orbit that
# grows past this size round-off alone exceeds the absolute ORBIT_TOL.
ORBIT_SCALE_LIMIT = ORBIT_TOL / np.finfo(float).eps


def cmd_orbit(args, config: RunConfig) -> list[dict]:
    fam = _family_from_args(args)
    f = np.array([float(v) for v in args.F.split(",")])
    if f.shape != (5,) or not np.isfinite(f).all():
        raise ConfigError("--F needs 5 finite comma-separated coordinates")
    desc = orbits.closed_form_orbit(fam, f)
    avals = np.linspace(-3.0, 3.0, 41)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.array([desc.closed_form(0.0, a) for a in avals])
    scale = float(np.abs(samples).max())
    if not scale <= ORBIT_SCALE_LIMIT:
        raise ConfigError(
            f"--F {args.F} is out of range: its orbit on [-3, 3] reaches {scale:.3g}, past "
            f"{ORBIT_SCALE_LIMIT:.3g} where round-off exceeds the {ORBIT_TOL} tolerance")
    dev = orbits.flow_vs_closed_form(fam, f, avals=avals)
    return [_check("orbit", dev < ORBIT_TOL,
                   "matrix-exponential flow matches the closed-form orbit",
                   stratum=desc.stratum, flow_deviation=dev,
                   closed_form_samples=[[float(x) for x in s] for s in samples[:5]])]


def cmd_foliation(args, config: RunConfig) -> list[dict]:
    which = args.check
    action = args.action
    checks = []
    seed = config.seed
    if which in ("strata", "all"):
        for stratum in foliation.ACTION_STRATA[action]:
            rep = foliation.preservation_check(action, stratum, config.samples, seed)
            checks.append(_check(f"preservation_{stratum}", rep.ok,
                                 f"action preserves {stratum}",
                                 check="strata", stratum=stratum,
                                 residual_max=0.0, rank_histogram={},
                                 violations=rep.to_json()["violations"]))
    if which in ("invariants", "all"):
        rep = foliation.leafspace_report(action, n_samples=min(config.samples, 1000), seed=seed)
        for entry in rep["strata"]:
            checks.append(_check(f"leaf_invariant_{entry['stratum']}",
                                 entry["full_rank"] and entry["constancy_residual"] < 1e-9,
                                 f"complete invariant onto {entry['model']}",
                                 check="invariants", stratum=entry["stratum"],
                                 residual_max=entry["constancy_residual"],
                                 rank_histogram=entry["rank_counts"],
                                 violations=[]))
        if action == "lambda12":
            audit = foliation.p1_submersion_audit(seed=seed)
            checks.append(_check("p1_audit", audit.ok,
                                 "literal projection is not orbit-constant; "
                                 "working invariant is", **audit.to_json()))
    if which in ("integrability", "all"):
        rep = foliation.integrability_check(action, min(config.samples, 1000), seed)
        checks.append(_check("integrability", rep.ok,
                             "generators commute, span rank 2, and match orbit tangents",
                             check="integrability", stratum="open",
                             residual_max=rep.bracket_residual,
                             rank_histogram=rep.to_json()["rank_counts"],
                             tangent_residual=rep.tangent_residual, violations=[]))
    return checks


def cmd_sixterm(args, config: RunConfig) -> list[dict]:
    groups, known = ktheory.hexagon_preset(args.preset)
    sols = ktheory.solve_six_term(groups, known, bound=args.bound)
    expected = 2 if args.preset == "allZ" else 1
    return [_check(f"sixterm_{args.preset}", len(sols) == expected,
                   f"{expected} exact completion(s) up to automorphism",
                   completions=[s.to_json() for s in sols])]


def cmd_invariants(args, config: RunConfig) -> list[dict]:
    res = index_invariant(args.type, resolution_2d=config.grid2d,
                          resolution_3d=config.grid3d)
    checks = []
    if args.type == "F2":
        ok = res.gamma1 == [[0, 1], [0, 1]] and res.gamma2 == [[1], [1]] and res.ok
        checks.append(_check("index_F2", ok,
                             "gamma1 = [[0,1],[0,1]] and gamma2 = (1,1)",
                             gamma_matrix=res.gamma1, gamma2=res.gamma2,
                             k_groups=res.k_groups, **res.to_json()["integrals"]))
    else:
        ok = res.gamma3 == [0, 1] and res.ok
        checks.append(_check("index_F3", ok, "gamma3 = (0, 1)",
                             gamma_matrix=res.gamma3, **res.to_json()["integrals"]))
    return checks


def cmd_reproduce(args, config: RunConfig) -> list[dict]:
    return [check for entry in REGISTRY for check in entry.run(config)]


# ---------------------------------------------------------------------------
# Parser and entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--output", help="write the JSON report to this path")
    sp.add_argument("--json", action="store_true", help="print the JSON report to stdout")


def _add_family(sp):
    sp.add_argument("--family", required=True, choices=sorted(liealg.FAMILIES))
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--lambda1", type=float)
    sp.add_argument("--lambda2", type=float)
    sp.add_argument("--lambda3", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--phi", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="mdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("algebra", help="build a family and check its algebra identities")
    _add_family(sp)
    _add_common(sp)

    sp = sub.add_parser("mdcheck", help="sampled orbit-dimension dichotomy")
    _add_family(sp)
    _add_common(sp)

    sp = sub.add_parser("orbit", help="closed-form orbit through a covector")
    _add_family(sp)
    sp.add_argument("--F", required=True, help="covector, 5 comma-separated reals")
    _add_common(sp)

    sp = sub.add_parser("foliation", help="action, strata and leaf-space checks")
    sp.add_argument("--action", required=True, choices=["lambda12", "lambda14"])
    sp.add_argument("--check", default="all",
                    choices=["strata", "invariants", "integrability", "all"])
    _add_common(sp)

    sp = sub.add_parser("sixterm", help="exact completions of a hexagon preset")
    sp.add_argument("--preset", required=True,
                    choices=["gamma1", "gamma2", "gamma3", "allZ"])
    sp.add_argument("--bound", type=int, default=3)
    _add_common(sp)

    sp = sub.add_parser("invariants", help="numerical index invariants")
    sp.add_argument("--type", required=True, choices=["F2", "F3"])
    sp.add_argument("--resolution", type=int, help="3D grid resolution")
    sp.add_argument("--resolution2d", type=int, help="2D grid resolution")
    _add_common(sp)

    sp = sub.add_parser("reproduce", help="run the full verification suite")
    sp.add_argument("--grid3d", type=int)
    sp.add_argument("--grid2d", type=int)
    _add_common(sp)
    return parser


_COMMANDS = {
    "algebra": cmd_algebra,
    "mdcheck": cmd_mdcheck,
    "orbit": cmd_orbit,
    "foliation": cmd_foliation,
    "sixterm": cmd_sixterm,
    "invariants": cmd_invariants,
    "reproduce": cmd_reproduce,
}


def run(command: str, config: RunConfig, args=None) -> dict:
    """Dispatch a subcommand and wrap its checks in a report."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    checks = _COMMANDS[command](args, config)
    return _report(command, config, checks)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    overrides = {
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None),
        "output": getattr(args, "output", None),
        "grid3d": getattr(args, "resolution", None) or getattr(args, "grid3d", None),
        "grid2d": getattr(args, "resolution2d", None) or getattr(args, "grid2d", None),
    }
    try:
        config = parse_config(getattr(args, "config", None), overrides)
    except (ConfigError, ValueError) as exc:
        print(f"mdlab: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = run(args.command, config, args)
    except ResidualError as exc:
        print(f"mdlab: inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (liealg.ParameterDomainError, ConfigError, ValueError) as exc:
        print(f"mdlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    text = json.dumps(report, sort_keys=True, indent=2, default=float)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        for c in report["checks"]:
            print(f"[{c['status'].upper():4s}] {c['name']}: {c['claim']}")
        print(f"overall: {report['status']}")

    if report["status"] == "pass":
        return EXIT_PASS
    if report["status"] == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
