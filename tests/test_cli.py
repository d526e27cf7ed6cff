"""Tests for configuration handling and the command-line interface."""

import json
import math

import pytest

from mdlab import cli
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
    assert main(["bogus-command"]) == 64
    assert main(["mdcheck"]) == 64  # missing --family
    assert main(["mdcheck", "--family", "5_4_1", "--no-such-flag"]) == 64


def test_invalid_parameters_exit_64(capsys):
    # Family parameter outside its domain is a configuration error.
    assert main(["mdcheck", "--family", "5_4_4", "--lambda", "1.0",
                 "--samples", "100"]) == 64
    assert main(["mdcheck", "--family", "5_4_4", "--samples", "0"]) == 64


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


def test_orbit_command(capsys):
    code = main(["orbit", "--family", "5_4_9", "--lambda", "2",
                 "--F", "0,1,1,1,1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    m = rep["checks"][0]["metrics"]
    assert m["stratum"] == "two_dim"
    assert m["flow_deviation"] < 1e-9


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
