"""Command-line interface: per-module checks and the full reproduction suite.

Structured output is a single JSON report (schema "mdlab/1"); the human
summary goes to stdout unless --json replaces it with the report itself.
Exit codes: 0 all pass, 1 any fail, 2 inconclusive (quadrature residuals, or
a float rank that the exact det M contradicts), 64 usage or configuration
errors.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import criteria, foliation, ktheory, liealg, orbits
from .criteria import check as _check
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

# One flag per parameter that some family of the catalogue takes.
_FAMILY_FLAGS = sorted({name for spec in liealg.FAMILIES.values() for name in spec.params})


def _family_from_args(args) -> liealg.MD5Family:
    """The family and every parameter flag given; `MD5Family` checks their domains."""
    params = {name: val for name in _FAMILY_FLAGS if (val := getattr(args, name)) is not None}
    return liealg.MD5Family(args.family, params)


# ---------------------------------------------------------------------------
# Subcommand bodies

def cmd_algebra(args, config: RunConfig) -> list[dict]:
    fam = _family_from_args(args)
    alg = liealg.build_md5(fam)
    ideal = liealg.derived_ideal(alg)
    jres = liealg.jacobi_residual(alg)
    ideal_check = _check("derived_ideal", criteria.ideal_holds(ideal),
                         "derived ideal is 4-dimensional and commutative",
                         rank=ideal.rank, commutative=ideal.commutative,
                         ad_block=[[float(v) for v in row] for row in fam.ad_block()])
    if ideal.rank < 4:
        # The float rank cut loses a block with entries far apart in scale; the
        # exact det M says whether the rank is 4 all the same.
        nonzero = liealg.exact_det(fam) != 0
        ideal_check["metrics"]["exact_det_nonzero"] = nonzero
        if nonzero:
            ideal_check["status"] = "inconclusive"
    return [_check("jacobi", criteria.jacobi_holds(jres),
                   "structure constants satisfy the Jacobi identity", residual=jres),
            ideal_check]


def cmd_mdcheck(args, config: RunConfig) -> list[dict]:
    fam = _family_from_args(args)
    alg = liealg.build_md5(fam)
    rep = orbits.md_verify(alg, config.samples, config.seed)
    return [_check("md_dichotomy", rep.dichotomy_holds,
                   "orbit dimensions lie in {0, 2} exactly on the predicted strata",
                   **rep.to_json())]


def cmd_orbit(args, config: RunConfig) -> list[dict]:
    fam = _family_from_args(args)
    f = np.array([float(v) for v in args.F.split(",")])
    if f.shape != (5,) or not np.isfinite(f).all():
        raise ConfigError("--F needs 5 finite comma-separated coordinates")
    avals = np.linspace(-3.0, 3.0, 41)
    samples = orbits.closed_form_orbit(fam, f, 0.0, avals)
    # The free first coordinate is set, not flowed, so it carries no round-off.
    scale = float(np.abs(samples[:, 1:]).max())
    if not scale <= orbits.FLOW_SCALE_LIMIT:
        raise ConfigError(f"--F {args.F} is out of range: its orbit on [-3, 3] reaches "
                          f"{scale:.3g}, past {orbits.FLOW_SCALE_LIMIT:.3g}, where the tolerance "
                          f"{orbits.FLOW_TOL} * scale would pass errors in its coordinates "
                          f"of size about 1")
    # Round-off grows with the coordinates, so the claim is relative to the
    # orbit's size; criterion 02 keeps the absolute FLOW_TOL.
    dev = orbits.flow_vs_closed_form(fam, f, avals=avals)
    return [_check("orbit", dev < orbits.FLOW_TOL * max(1.0, scale),
                   "matrix-exponential flow matches the closed-form orbit, "
                   "relative to the orbit's size",
                   stratum="zero_dim" if orbits.in_zero_stratum(f) else "two_dim",
                   flow_deviation=dev,
                   closed_form_samples=[[float(x) for x in s] for s in samples[:5]])]


def cmd_foliation(args, config: RunConfig) -> list[dict]:
    which = args.check
    action = args.action
    checks = []
    seed = config.seed
    points = min(config.samples, criteria.POINT_SAMPLES)
    if which in ("strata", "all"):
        for stratum in foliation.ACTION_STRATA[action]:
            rep = foliation.preservation_check(action, stratum, config.samples, seed)
            checks.append(_check(f"preservation_{stratum}", rep.ok,
                                 f"action preserves {stratum}",
                                 check="strata", stratum=stratum,
                                 residual_max=0.0, rank_histogram={},
                                 violations=rep.to_json()["violations"]))
    if which in ("invariants", "all"):
        rep = foliation.leafspace_report(action, n_samples=points, seed=seed)
        for entry in rep["strata"]:
            checks.append(_check(f"leaf_invariant_{entry['stratum']}", entry["ok"],
                                 f"complete invariant onto {entry['model']}",
                                 check="invariants", stratum=entry["stratum"],
                                 residual_max=entry["constancy_residual"],
                                 rank_histogram=entry["rank_counts"],
                                 violations=[]))
        if action == "lambda12":
            audit = foliation.p1_submersion_audit(criteria.AUDIT_SAMPLES, seed)
            checks.append(_check("p1_audit", audit.ok,
                                 "literal projection is not orbit-constant; "
                                 "working invariant is", **audit.to_json()))
    if which in ("integrability", "all"):
        rep = foliation.integrability_check(action, points, seed)
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
    return [_check(f"sixterm_{args.preset}", ktheory.completions_hold(args.preset, sols),
                   f"{ktheory.COMPLETIONS[args.preset]} exact completion(s) up to automorphism",
                   completions=[s.to_json() for s in sols])]


def cmd_invariants(args, config: RunConfig) -> list[dict]:
    res = index_invariant(args.type, resolution_2d=config.grid2d,
                          resolution_3d=config.grid3d)
    ok = criteria.index_holds(res)
    if args.type == "F2":
        return [_check("index_F2", ok, "gamma1 = [[0,1],[0,1]] and gamma2 = (1,1)",
                       gamma_matrix=res.gamma1, gamma2=res.gamma2,
                       k_groups=res.k_groups, **res.to_json()["integrals"])]
    return [_check("index_F3", ok, "gamma3 = (0, 1)",
                   gamma_matrix=res.gamma3, **res.to_json()["integrals"])]


def cmd_reproduce(args, config: RunConfig) -> list[dict]:
    """Every criterion's checks; a criterion whose integrals refuse their residual
    budget reports each of its checks inconclusive, with the refusal, and the
    others still run."""
    checks = []
    for entry in criteria.REGISTRY:
        try:
            checks += entry.run(config)
        except ResidualError as exc:
            checks += [{"name": name, "status": "inconclusive",
                        "claim": f"criterion {entry.name} refused its integrals",
                        "metrics": {"refusal": str(exc)}} for name in entry.checks]
    return checks


# ---------------------------------------------------------------------------
# Parser and entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"mdlab: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each value that follows a flag and starts with '-' and a digit,
    '.', 'inf' or 'nan' joined to it, as `--flag=value`: argparse reads -1e-3,
    -1,0,0,0,1 or -inf as an option, since its negative-number pattern has no
    exponent, list or infinity."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] \
                and re.match(r"-([\d.]|inf|nan)", token, re.IGNORECASE):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--output", help="write the JSON report to this path")
    sp.add_argument("--json", action="store_true", help="print the JSON report to stdout")


def _add_family(sp):
    sp.add_argument("--family", required=True, choices=sorted(liealg.FAMILIES))
    for name in _FAMILY_FLAGS:
        sp.add_argument(f"--{name}", type=float)


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
    sp.add_argument("--preset", required=True, choices=list(ktheory.COMPLETIONS))
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
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    overrides = {
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None),
        "output": getattr(args, "output", None),
        # Each subcommand has one of the two flags of a grid, or neither.
        "grid3d": getattr(args, "resolution", getattr(args, "grid3d", None)),
        "grid2d": getattr(args, "resolution2d", getattr(args, "grid2d", None)),
    }
    try:
        config = parse_config(getattr(args, "config", None), overrides)
    except (ConfigError, ValueError) as exc:
        print(f"mdlab: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # A report whose directory is missing or read-only is refused before the run.
    if config.output and not os.access(os.path.dirname(os.path.abspath(config.output)), os.W_OK):
        print(f"mdlab: error: cannot write the report to {config.output}", file=sys.stderr)
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
        try:
            with open(config.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"mdlab: error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_USAGE
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
