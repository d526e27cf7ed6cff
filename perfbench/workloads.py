"""The benchmark's workloads.

`make(name, seed, workdir)` generates a workload's inputs from the seed and
returns its list of operations.  A pass calls every operation once, in
order; only the calls are timed.  Each operation's output is then judged
against the benchmark's own computations or the properties the method must
have, and `across` checks what only the whole pass shows (convergence
orders).  Every pass repeats the same operations on the same inputs.

An operation that raises, or a probe that mdlab does not refuse, counts as
failed; an output that a judge finds wrong makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from mdlab import cli, foliation, intlinalg, invariants, ktheory, liealg, orbits, witnesses

import checks

# Sample counts of the acceptance criteria (tests/test_acceptance.py).
DICHOTOMY_DRAWS, DICHOTOMY_SAMPLES = 5, 10_000
ORBIT_DRAWS, ORBIT_AVALS = 20, 100
LAW_DRAWS, PRESERVATION_SAMPLES = 300, 10_000
LEAF_SAMPLES, INTEGRABILITY_SAMPLES, FIBRATION_SAMPLES, AUDIT_SAMPLES = 1000, 1000, 1000, 200
SNF_MATRICES = 1000
LEAF_RANK = {"V1": 3, "V2": 2, "W2": 1, "V3": 3, "W3": 1}
ALTERNATING = {(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)}

# index_ladder grids: F2 at each 3D grid, F3 at each 2D grid.
LADDER_3D = (16, 20, 24, 28, 32)
LADDER_2D = (64, 128, 256, 512)
F2_GRID_2D = 64
MIN_CHERN_ORDER = 1.8


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    judge: Callable[[object], str | None]  # what is wrong with the output, or None
    probe: bool = False  # a rejection probe: a wrong output means the operation failed


@dataclass
class Outcome:
    value: object = None
    error: str | None = None
    wall: float = 0.0
    cpu: float = 0.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # operations that failed
    problems: list[str] = field(default_factory=list)  # outputs that are wrong


@dataclass
class Workload:
    ops: list[Op]
    across: Callable[[list[Outcome]], list[str]] = lambda outcomes: []

    def run(self) -> list[Outcome]:
        outcomes = []
        for op in self.ops:
            out = Outcome()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out.value = op.call()
            except Exception as exc:  # a raised operation is a failed one; keep going
                out.error = f"{type(exc).__name__}: {exc}"
            out.wall, out.cpu = time.perf_counter() - t0, time.process_time() - c0
            outcomes.append(out)
        return outcomes

    def check(self, outcomes: list[Outcome]) -> Tally:
        tally = Tally(attempted=len(outcomes))
        for op, out in zip(self.ops, outcomes):
            try:
                problem = out.error or op.judge(out.value)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem and (out.error or op.probe):
                tally.failed += 1
                tally.failures.append(f"{op.label}: {problem}")
            elif problem:
                tally.problems.append(f"{op.label}: {problem}")
        tally.problems += self.across(outcomes)
        return tally


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the mdlab entry point in this process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _seeds(rng, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, n)]


# ---------------------------------------------------------------------------
# reproduce

def _judge_report(result) -> str | None:
    code, text = result
    report = json.loads(text)
    failing = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    if code != 0 or failing or len(report["checks"]) != 16:
        return f"exit {code}, {len(report['checks'])} checks, not passing: {failing}"
    m = {c["name"]: c["metrics"] for c in report["checks"]}
    got = {"gamma1": m["index_F2"]["gamma1"], "gamma2": m["index_F2"]["gamma2"],
           "k_groups": m["index_F2"]["k_groups"], "gamma3": m["index_F3"]["gamma3"]}
    if got != checks.PAPER:
        return f"invariants {got}, paper {checks.PAPER}"
    # 5 draws per family, each with 6 fixed probes of the zero stratum.
    samples = len(liealg.FAMILIES) * 5 * (report["config"]["samples"] + 6)
    if m["md_dichotomy"]["samples"] != samples:
        return f"dichotomy sampled {m['md_dichotomy']['samples']} covectors, not {samples}"
    return None


def _reproduce(seed: int, workdir: str) -> Workload:
    argv = ["reproduce", "--seed", str(seed), "--json"]
    return Workload([Op("mdlab " + " ".join(argv), lambda: _cli(argv), _judge_report)])


# ---------------------------------------------------------------------------
# index_ladder

def _index_ladder(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    calls = [("F2", F2_GRID_2D, n) for n in LADDER_3D] + [("F3", n, None) for n in LADDER_2D]
    calls = [calls[i] for i in rng.permutation(len(calls))]
    # Lattice Chern numbers on a seeded coarse lattice; the sign is calibrated
    # on phat_disk, whose charge is the declared +1 reference.
    cells = int(rng.integers(4, 13))
    orientation = checks.fhs_chern(witnesses.phat_disk(), cells)
    disk_charge = orientation * checks.fhs_chern(witnesses.gamma3_disk(), cells)

    def judge(res) -> str | None:
        ints = res.integrals
        wrong = []
        if not res.ok:
            wrong.append(f"cross checks {res.cross_checks}")
        if ints["phat_disk"]["rounded"] != 1:  # the calibration reference
            wrong.append(f"phat_disk charge {ints['phat_disk']['rounded']}")
        if res.kind == "F2":
            wrong += [f"{side} winding {ints[side]['rounded']}" for side in
                      ("exp_ptilde_plus", "exp_ptilde_minus") if ints[side]["rounded"] != 1]
            got = {"gamma1": res.gamma1, "gamma2": res.gamma2, "k_groups": res.k_groups}
        else:
            if ints["p_gamma3_disk"]["rounded"] != disk_charge:
                wrong.append(f"p_gamma3_disk charge {ints['p_gamma3_disk']['rounded']}, "
                             f"lattice {disk_charge}")
            got = {"gamma3": res.gamma3}
        if any(checks.PAPER[k] != v for k, v in got.items()):
            wrong.append(f"invariants {got}")
        return "; ".join(wrong) or None

    def across(outcomes) -> list[str]:
        wrong = []
        if abs(orientation) != 1 or disk_charge != -1:
            wrong.append(f"lattice charges {orientation}, {disk_charge} on {cells} cells")
        chern, wind = {}, {}
        for (kind, n2, n3), out in zip(calls, outcomes):
            if out.error:
                continue
            if kind == "F2":
                wind[n3] = abs(out.value.integrals["exp_ptilde_plus"]["raw_integral"] - 1.0)
            else:
                chern[n2] = abs(out.value.integrals["phat_disk"]["raw_integral"] - 1.0)
        for n in LADDER_2D[:-1]:
            if n in chern and 2 * n in chern:
                order = math.log2(chern[n] / chern[2 * n])
                if not order >= MIN_CHERN_ORDER:
                    wrong.append(f"Chern order {order:.3f} from {n}^2 to {2 * n}^2")
        lo, hi = LADDER_3D[0], LADDER_3D[-1]
        if lo in wind and hi in wind and not wind[hi] < wind[lo]:
            wrong.append(f"|winding - 1| = {wind[hi]:.3g} at {hi}^3, {wind[lo]:.3g} at {lo}^3")
        return wrong

    ops = [Op(f"index_invariant({kind}, {n2}, {n3})",
              lambda kind=kind, n2=n2, n3=n3: invariants.index_invariant(
                  kind, resolution_2d=n2, **({"resolution_3d": n3} if n3 else {})),
              judge) for kind, n2, n3 in calls]
    return Workload(ops, across)


# ---------------------------------------------------------------------------
# sampled_checks

def _below(limit: float, what: str):
    return lambda x: None if x < limit else f"{what} {x!r} >= {limit}"


def _dichotomy(rep) -> str | None:
    if rep.dichotomy_holds and set(rep.rank_counts) <= {0, 2} \
            and rep.n_samples == DICHOTOMY_SAMPLES + 6:
        return None
    return f"ranks {rep.rank_counts}, {len(rep.counterexamples)} counterexamples"


def _leaf(rank: int):
    def judge(rep):
        if rep.constancy_residual < 1e-9 and set(rep.rank_counts) == {rank}:
            return None
        return f"residual {rep.constancy_residual!r}, ranks {rep.rank_counts}"
    return judge


def _integrable(rep) -> str | None:
    if rep.ok and rep.bracket_residual < 1e-8 and set(rep.rank_counts) == {2}:
        return None
    return f"bracket {rep.bracket_residual!r}, ranks {rep.rank_counts}"


def _audit(a) -> str | None:
    if not a.literal_is_constant and a.sign_component_constant and a.invariant_residual < 1e-9:
        return None
    return f"audit {a.to_json()}"


def _alternating(sols) -> str | None:
    patterns = {tuple(abs(int(m[0, 0])) for m in s.maps) for s in sols}
    return None if len(sols) == 2 and patterns == ALTERNATING else f"patterns {patterns}"


def _k_groups(sols) -> str | None:
    k = checks.PAPER["k_groups"]
    if len(sols) == 1 and (sols[0].groups[1], sols[0].groups[4]) == (
            k["K0(C*(F2))"], k["K1(C*(F2))"]):
        return None
    return f"completions {[s.groups for s in sols]}"


def _probes(workdir: str) -> list[Op]:
    """CLI invocations mdlab should refuse, each with the exit code that refuses it."""
    cfg = os.path.join(workdir, "residual_tol.json")
    with open(cfg, "w") as fh:
        json.dump({"residual_tol": 1e-12}, fh)
    orbit = ["orbit", "--family", "5_4_9", "--lambda", "2", "--F"]
    cases = [(orbit + ["0,nan,1,1,1"], lambda code: code == cli.EXIT_USAGE, "exit 64"),
             (orbit + ["0,inf,1,1,1"], lambda code: code == cli.EXIT_USAGE, "exit 64"),
             (["invariants", "--type", "F3", "--resolution2d", "64", "--config", cfg],
              lambda code: code != 0, "a non-zero exit")]
    return [Op("mdlab " + " ".join(argv), lambda argv=argv: _cli(argv),
               lambda res, refused=refused, want=want:
                   None if refused(res[0]) else f"exit {res[0]}, expected {want}",
               probe=True)
            for argv, refused, want in cases]


def _sampled_checks(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for fid in liealg.FAMILIES:
        for s in _seeds(rng, DICHOTOMY_DRAWS):
            fam = liealg.sample_family(fid, rng)
            ops.append(Op(f"md_verify {fam.family_id} {fam.params} seed {s}",
                          lambda fam=fam, s=s: orbits.md_verify(
                              liealg.build_md5(fam), DICHOTOMY_SAMPLES, s), _dichotomy))
    avals = np.linspace(-3.0, 3.0, ORBIT_AVALS)
    for fid in liealg.FAMILIES:
        for _ in range(ORBIT_DRAWS):
            fam, f = liealg.sample_family(fid, rng), rng.standard_normal(5)
            ops.append(Op(f"flow_vs_closed_form {fam.family_id} {fam.params} F={f.tolist()}",
                          lambda fam=fam, f=f: orbits.flow_vs_closed_form(fam, f, avals=avals),
                          _below(1e-9, "flow deviation")))
    for action in foliation.ACTIONS:
        for _ in range(LAW_DRAWS):
            g, h, p = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2), rng.standard_normal(5)
            ops.append(Op(f"group law {action} g={g.tolist()} h={h.tolist()} p={p.tolist()}",
                          lambda a=action, g=g, h=h, p=p: checks.group_law_deviation(
                              foliation.act, a, g, h, p),
                          _below(1e-12, "relative group law deviation")))
    for action in foliation.ACTIONS:
        for stratum in foliation.ACTION_STRATA[action]:
            (s,) = _seeds(rng, 1)
            ops.append(Op(f"preservation {action} {stratum} seed {s}",
                          lambda a=action, st=stratum, s=s: foliation.preservation_check(
                              a, st, PRESERVATION_SAMPLES, s),
                          lambda rep: None if rep.ok else f"{len(rep.violations)} violations"))
    for stratum, rank in LEAF_RANK.items():
        (s,) = _seeds(rng, 1)
        ops.append(Op(f"leaf invariants {stratum} seed {s}",
                      lambda st=stratum, s=s: foliation.stratum_invariant_report(
                          st, LEAF_SAMPLES, s), _leaf(rank)))
    for action in foliation.ACTIONS:
        (s,) = _seeds(rng, 1)
        ops.append(Op(f"integrability {action} seed {s}",
                      lambda a=action, s=s: foliation.integrability_check(
                          a, INTEGRABILITY_SAMPLES, s), _integrable))
    fib_seed, audit_seed = _seeds(rng, 2)
    ops.append(Op(f"f1 fibration seed {fib_seed}",
                  lambda: foliation.f1_fibration_check(FIBRATION_SAMPLES, fib_seed),
                  lambda rep: None if rep.ok else f"residual {rep.constancy_residual!r}"))
    ops.append(Op(f"p1 audit seed {audit_seed}",
                  lambda: foliation.p1_submersion_audit(AUDIT_SAMPLES, audit_seed), _audit))
    for _ in range(SNF_MATRICES):
        m = rng.integers(-5, 6, rng.integers(1, 5, 2))
        ops.append(Op(f"smith {m.tolist()}",
                      lambda m=m: (intlinalg.invariant_factors(m),
                                   intlinalg.minor_gcd_invariant_factors(m)),
                      lambda res, m=m: "; ".join(checks.smith_problems(m, *res)) or None))
    ops.append(Op("six-term allZ", lambda: ktheory.solve_six_term(
        *ktheory.hexagon_preset("allZ"), bound=3), _alternating))
    ops.append(Op("six-term gamma1", lambda: ktheory.solve_six_term(
        *ktheory.hexagon_preset("gamma1"), bound=3), _k_groups))
    return Workload(ops + _probes(workdir))


WORKLOADS = {"reproduce": _reproduce, "index_ladder": _index_ladder,
             "sampled_checks": _sampled_checks}


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
