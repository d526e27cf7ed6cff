"""Tests for configuration handling and the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdlab import cli, criteria, foliation, ktheory, orbits
from mdlab.cli import ConfigError, RunConfig, main, parse_config
from mdlab.topology import ResidualError


def test_defaults():
    cfg = parse_config()
    assert cfg.seed == 42
    assert cfg.grid2d == 512 and cfg.grid3d == 128


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "grid3d": 64}))
    cfg = parse_config(str(path), {"seed": 9})
    assert cfg.seed == 9
    assert cfg.grid3d == 64


def test_config_rejections(tmp_path, capsys):
    with pytest.raises(ConfigError, match="grid3d"):
        parse_config(None, {"grid3d": 8})
    with pytest.raises(ConfigError, match="samples"):
        parse_config(None, {"samples": 0})
    with pytest.raises(ConfigError, match="quad_tol"):
        parse_config(None, {"quad_tol": -1.0})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(bad))
    unk = tmp_path / "unk.json"
    for key in ("bogus", "truncation", "threads", "rank_tol", "residual_tol"):
        unk.write_text(json.dumps({key: 1}))
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(str(unk))
    # Values of the wrong type or outside their range, each paired with a command
    # that would otherwise read the field.
    typed = tmp_path / "typed.json"
    mdcheck = ["mdcheck", "--family", "5_4_4", "--lambda", "0.5"]
    for key, val, argv in [("samples", 2.5, mdcheck), ("samples", True, mdcheck),
                           ("seed", "x", mdcheck), ("seed", -1, mdcheck),
                           ("grid2d", "big", ["invariants", "--type", "F3"]),
                           ("grid3d", 64.0, ["invariants", "--type", "F2"]),
                           ("quad_tol", "1e-8", ["reproduce"]),
                           ("quad_tol", math.nan, ["reproduce"]),
                           ("quad_tol", math.inf, ["reproduce"]),
                           ("quad_tol", False, ["reproduce"]),
                           ("output", 5, mdcheck)]:
        typed.write_text(json.dumps({key: val}))
        with pytest.raises(ConfigError, match=key):
            parse_config(str(typed))
        assert main(argv + ["--config", str(typed)]) == 64, (key, val)
        assert "mdlab: configuration error" in capsys.readouterr().err


def test_usage_errors_exit_64(capsys):
    # Each says why on an `mdlab: error:` line, after the usage text.
    for argv, why in [(["bogus-command"], "invalid choice: 'bogus-command'"),
                      (["mdcheck"], "the following arguments are required: --family"),
                      (["mdcheck", "--family", "5_4_1", "--no-such-flag"],
                       "unrecognized arguments: --no-such-flag")]:
        assert main(argv) == 64
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("mdlab: error: ") and why in last, last


@pytest.mark.parametrize("command, flag, value, code", [
    (["algebra", "--family", "5_4_1", "--lambda2=2", "--lambda3=3"], "--lambda1", "-1e-3", 0),
    (["mdcheck", "--family", "5_4_12", "--phi=1", "--samples=100"], "--lambda", "-2.5E+2", 0),
    (["orbit", "--family", "5_4_4", "--lambda", "0.5"], "--F", "-1,0,0,0,1", 0),
    # Refused by the parameter's domain, not by the parser.
    (["algebra", "--family", "5_4_14", "--lambda=1", "--phi=1"], "--mu", "-.5e1", 64),
    (["algebra", "--family", "5_4_14", "--lambda=1", "--phi=1"], "--mu", "-Infinity", 64),
], ids=["exponent", "upper_case_exponent", "list", "out_of_domain", "infinity"])
def test_negative_values_read_as_in_the_equals_form(command, flag, value, code, capsys):
    # argparse's negative-number pattern has no exponent and no list, so it
    # took these values for options.
    codes, outputs = [], []
    for given in ([flag, value], [f"{flag}={value}"]):
        codes.append(main(command + given + ["--json"]))
        captured = capsys.readouterr()
        outputs.append([line for line in (captured.out + captured.err).splitlines()
                        if '"generated_at"' not in line])
    assert codes == [code, code] and outputs[0] == outputs[1]
    assert code == 0 or outputs[0][-1].startswith("mdlab: error: 5_4_14: mu must lie in (0, inf)")


def test_invalid_parameters_exit_64(capsys):
    # Family parameter outside its domain is a configuration error.
    assert main(["mdcheck", "--family", "5_4_4", "--lambda", "1.0",
                 "--samples", "100"]) == 64
    assert main(["mdcheck", "--family", "5_4_4", "--samples", "0"]) == 64


def test_family_flags_the_family_does_not_take_exit_64(capsys):
    # 5_4_5 takes no parameter, so each family flag is refused by the family, not the parser.
    for flag in ("lambda", "lambda1", "lambda2", "lambda3", "mu", "phi"):
        assert main(["algebra", "--family", "5_4_5", f"--{flag}", "2"]) == 64
        assert f"unexpected parameters ['{flag}']" in capsys.readouterr().err
    assert main(["algebra", "--family", "5_4_4", "--lambda", "2", "--mu", "1"]) == 64
    assert "5_4_4: unexpected parameters ['mu']" in capsys.readouterr().err


def test_non_finite_family_parameters_exit_64(capsys):
    assert main(["algebra", "--family", "5_4_14", "--lambda", "inf", "--mu", "1",
                 "--phi", "1"]) == 64
    assert "mdlab: error: 5_4_14: lambda must lie in R (got inf)" in capsys.readouterr().err


@pytest.mark.parametrize("params, float_rank", [
    (["--family", "5_4_12", "--lambda", "1e-200", "--phi", "1.5707963267948966"], 2),
    (["--family", "5_4_1", "--lambda1", "1e-320", "--lambda2", "2", "--lambda3", "3"], 3),
    (["--family", "5_4_14", "--lambda", "1e200", "--mu", "1e200", "--phi", "1"], 2),
])
def test_algebra_is_inconclusive_where_the_float_rank_contradicts_the_exact_det(
        capsys, params, float_rank):
    # The singular-value cut reads rank 2 or 3 for a block whose entries lie far
    # apart in scale, but det M is exactly nonzero: the derived ideal has rank 4,
    # and the float route cannot show it.  Inconclusive, never a failed check.
    assert main(["algebra", *params, "--json"]) == 2
    jacobi, ideal = json.loads(capsys.readouterr().out)["checks"]
    assert jacobi["status"] == "pass"
    assert ideal["status"] == "inconclusive"
    assert ideal["metrics"]["rank"] == float_rank
    assert ideal["metrics"]["exact_det_nonzero"] is True


def test_algebra_report_adds_the_exact_det_only_where_the_float_rank_is_short(capsys):
    assert main(["algebra", "--family", "5_4_12", "--lambda", "1e-3", "--phi", "1", "--json"]) == 0
    ideal = json.loads(capsys.readouterr().out)["checks"][1]
    assert ideal["status"] == "pass" and "exact_det_nonzero" not in ideal["metrics"]


def test_mdcheck_passes(capsys):
    code = main(["mdcheck", "--family", "5_4_4", "--lambda", "0.5",
                 "--samples", "2000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "md_dichotomy" in out and "overall: pass" in out


def test_sixterm_json_and_determinism(capsys):
    argv = ["sixterm", "--preset", "allZ", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out

    def strip_ts(text):
        return [ln for ln in text.splitlines() if '"generated_at"' not in ln]

    assert strip_ts(first) == strip_ts(second)
    report = json.loads(first)
    assert report["schema"] == "mdlab/1"
    assert report["checks"][0]["metrics"]["completions"][0]["groups"] == [1] * 6


def test_sixterm_negative_bound_is_a_usage_error(capsys):
    assert main(["sixterm", "--preset", "gamma2", "--bound=-1", "--json"]) == 64
    out = capsys.readouterr()
    assert out.out == "" and "bound must be >= 0 (got -1)" in out.err
    # Bound 0 searches the zero maps only: a report, whose gamma2 check fails.
    assert main(["sixterm", "--preset", "gamma2", "--bound", "0", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["metrics"]["completions"] == []


def test_sixterm_judges_completions_as_the_registry_does(monkeypatch, capsys):
    solve = ktheory.solve_six_term
    alternating = solve(*ktheory.hexagon_preset("allZ"), bound=3)
    other = solve(*ktheory.hexagon_preset("gamma2"), bound=3)
    wrong_gamma3 = [s for s in alternating if int(s.delta1[0, 0]) == 0]
    assert len(alternating) == 2 and len(other) == 1 and len(wrong_gamma3) == 1
    # Each time the count of completions is right, but not the completions: allZ's
    # one completion twice, a gamma1 completion with gamma2's groups, and a gamma3
    # completion with the alternating pattern that delta1 = 1 rules out.
    for preset, sols in (("allZ", [alternating[0], alternating[0]]), ("gamma1", other),
                         ("gamma3", wrong_gamma3)):
        monkeypatch.setattr(ktheory, "solve_six_term", lambda *a, sols=sols, **k: sols)
        assert main(["sixterm", "--preset", preset]) == 1
        assert f"[FAIL] sixterm_{preset}" in capsys.readouterr().out


def test_foliation_audits_p1_on_the_registry_sample_count(capsys):
    # The subcommand and `reproduce` audit the same points at one seed.
    assert main(["foliation", "--action", "lambda12", "--check", "invariants",
                 "--samples", "20", "--seed", "5", "--json"]) == 0
    checks = {c["name"]: c["metrics"] for c in json.loads(capsys.readouterr().out)["checks"]}
    (entry,) = [e for e in criteria.REGISTRY if e.name == "leaf_space_models"]
    registry = {c["name"]: c["metrics"] for c in entry.run(RunConfig(seed=5))}
    assert checks["p1_audit"]["literal_max_deviation"] == \
        registry["p1_audit"]["literal_max_deviation"]
    assert checks["p1_audit"]["invariant_map_residual"] == \
        registry["p1_audit"]["invariant_residual"]


def test_foliation_leaf_invariant_verdict_is_the_stratum_report(monkeypatch, capsys):
    v1, calls = foliation._INVARIANTS["V1"], []

    def moved_to_nan(p):  # NaN at the moved points: the second call of the check
        calls.append(p)
        cont, disc = v1(p)
        return (cont * math.nan if len(calls) == 2 else cont), disc

    monkeypatch.setitem(foliation._INVARIANTS, "V1", moved_to_nan)
    assert main(["foliation", "--action", "lambda12", "--check", "invariants",
                 "--samples", "20", "--json"]) == 1
    status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert status["leaf_invariant_V1"] == "fail"
    assert status["leaf_invariant_V2"] == "pass"


def test_foliation_non_finite_leaf_invariant_fails_the_check(monkeypatch, capsys):
    v1 = foliation._INVARIANTS["V1"]

    def nan_everywhere(p):
        cont, disc = v1(p)
        return cont * math.nan, disc

    # No finite Jacobian: the V1 check fails (exit 1) instead of the SVD refusing (exit 64).
    monkeypatch.setitem(foliation._INVARIANTS, "V1", nan_everywhere)
    assert main(["foliation", "--action", "lambda12", "--check", "invariants",
                 "--samples", "20", "--json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["leaf_invariant_V1"]["status"] == "fail"
    assert checks["leaf_invariant_V1"]["metrics"]["rank_histogram"] == {"-1": 20}
    assert checks["p1_audit"]["status"] == "fail"
    assert checks["leaf_invariant_V2"]["status"] == "pass"


def test_orbit_command(capsys):
    code = main(["orbit", "--family", "5_4_9", "--lambda", "2",
                 "--F", "0,1,1,1,1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    m = rep["checks"][0]["metrics"]
    assert m["stratum"] == "two_dim"
    assert m["flow_deviation"] < 1e-9


def test_orbit_command_on_the_zero_stratum(capsys):
    # The orbit through (alpha, 0, 0, 0, 0) is the point itself, so the flow
    # stays there, and a large alpha, which nothing flows, is no reason to refuse.
    for covector in ("1,0,0,0,0", "1e7,0,0,0,0"):
        assert main(["orbit", "--family", "5_4_5", "--F", covector, "--json"]) == 0
        m = json.loads(capsys.readouterr().out)["checks"][0]["metrics"]
        assert m["stratum"] == "zero_dim"
        assert m["flow_deviation"] == 0.0


def test_orbit_command_judges_a_large_orbit_relative_to_its_size(capsys):
    # The orbit reaches about 4e6, where round-off can exceed the absolute 1e-9.
    orbit = ["orbit", "--family", "5_4_9", "--lambda", "2", "--F", "0,1e4,1,1,1", "--json"]
    assert main(orbit) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["status"] == "pass"


def test_orbit_command_fails_a_flow_with_one_sign_flipped(monkeypatch, capsys):
    flow = orbits._flow

    def flipped(*args):
        out = flow(*args)
        out[..., 4] *= -1.0
        return out

    monkeypatch.setattr(orbits, "_flow", flipped)
    for covector in ("0,1,1,1,1", "0,1e4,1,1,1"):
        assert main(["orbit", "--family", "5_4_9", "--lambda", "2", "--F", covector]) == 1


def test_orbit_rejects_malformed_covector():
    orbit = ["orbit", "--family", "5_4_9", "--lambda", "2", "--F"]
    for covector in ("1,2", "0,nan,1,1,1", "0,inf,1,1,1", "0,1e300,1,1,1", "0,1e306,1,1,1"):
        assert main(orbit + [covector]) == 64
    assert main(["orbit", "--family", "5_4_9", "--lambda", "nan", "--F", "0,1,1,1,1"]) == 64


def test_foliation_command(capsys):
    code = main(["foliation", "--action", "lambda14", "--check", "strata",
                 "--samples", "500", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    names = {c["name"] for c in rep["checks"]}
    assert names == {"preservation_V3", "preservation_W3"}


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["sixterm", "--preset", "gamma3", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["command"] == "sixterm"
    assert rep["status"] == "pass"


def test_an_unwritable_output_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # A path that cannot be written is bad input, refused before the run and
    # reported on one line, not a traceback with the failed-check code.
    def reached(args, config):
        raise AssertionError("the run started")

    monkeypatch.setitem(cli._COMMANDS, "sixterm", reached)
    out_path = tmp_path / "missing" / "r.json"
    assert main(["sixterm", "--preset", "gamma3", "--output", str(out_path)]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mdlab: error:"), err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["invariants", "--type", "F3", "--resolution2d", "0"],
                                  ["invariants", "--type", "F2", "--resolution", "0"]],
                         ids=["resolution2d", "resolution"])
def test_a_zero_resolution_is_a_usage_error(argv, capsys):
    # 0 is a value given, not a flag left out: it must not fall through to
    # the default grid.
    assert main(argv) == 64
    assert "must be >= 16 (got 0)" in capsys.readouterr().err


def test_invariants_f3_small_grid(capsys):
    code = main(["invariants", "--type", "F3", "--resolution2d", "128", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0]["metrics"]["gamma_matrix"] == [0, 1]


def test_inconclusive_maps_to_exit_2(monkeypatch, capsys):
    def boom(*a, **k):
        raise ResidualError("residual 0.2 >= 0.05")
    monkeypatch.setattr(cli, "index_invariant", boom)
    assert main(["invariants", "--type", "F3"]) == 2


def test_run_requires_known_command():
    with pytest.raises(ConfigError):
        cli.run("nope", RunConfig(), None)


def test_failing_check_maps_to_exit_1(monkeypatch, capsys):
    def failing(args, config):
        return [cli._check("forced", False, "forced failure")]
    monkeypatch.setitem(cli._COMMANDS, "sixterm", failing)
    assert main(["sixterm", "--preset", "allZ"]) == 1
    assert "overall: fail" in capsys.readouterr().out


def test_mdlab_runs_without_importing_scipy():
    # numpy is the only runtime dependency: neither importing the command
    # line nor a whole reproduce run may load scipy.
    code = """
import contextlib, io, sys
import mdlab.cli
assert "scipy" not in sys.modules, "import mdlab.cli"
with contextlib.redirect_stdout(io.StringIO()):
    assert mdlab.cli.main(["reproduce", "--seed", "3", "--json"]) == 0
assert "scipy" not in sys.modules, "reproduce"
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
