"""Tests for the python -m repro command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main, scenario_from_args


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.scheme == "adaptive"
    assert args.load == 5.0
    assert not args.all_schemes


def test_scenario_from_args_roundtrip():
    args = build_parser().parse_args(
        ["--scheme", "fixed", "--load", "3", "--rows", "7", "--seed", "9"]
    )
    s = scenario_from_args(args, args.scheme)
    assert s.scheme == "fixed"
    assert s.offered_load == 3.0
    assert s.seed == 9
    assert s.pattern is None


def test_scenario_with_hotspot_builds_pattern():
    args = build_parser().parse_args(
        ["--hotspot", "3", "4", "--hot-load", "15", "--load", "2"]
    )
    s = scenario_from_args(args, "adaptive")
    assert s.pattern is not None
    assert s.pattern.rate(3, 0) == pytest.approx(15 / 180)
    assert s.pattern.rate(0, 0) == pytest.approx(2 / 180)


def test_main_single_scheme_text(capsys):
    rc = main(
        ["--scheme", "fixed", "--load", "2", "--duration", "500",
         "--warmup", "100", "--seed", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme=fixed" in out
    assert "drop rate" in out


def test_main_json_output(capsys):
    rc = main(
        ["--scheme", "fixed", "--load", "2", "--duration", "500",
         "--warmup", "100", "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["scheme"] == "fixed"
    assert payload[0]["violations"] == 0
    assert 0 <= payload[0]["drop_rate"] <= 1


def test_main_all_schemes_table(capsys):
    rc = main(
        ["--all-schemes", "--load", "1.5", "--duration", "400",
         "--warmup", "100"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for scheme in ["fixed", "adaptive", "basic_search", "prakash"]:
        assert scheme in out


def test_invalid_scheme_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--scheme", "bogus"])
    # A retired flag is a usage error, not silently ignored.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--fastlane"])
    assert exc.value.code == 2


def test_config_keeps_file_scheme_without_scheme_flag(tmp_path, capsys):
    from repro.harness import Scenario

    config = tmp_path / "scenario.json"
    config.write_text(
        Scenario(scheme="basic_update", offered_load=2.0, duration=300.0,
                 warmup=100.0, seed=3).to_json()
    )
    rc = main(["--config", str(config), "--json", "--no-cache"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["scheme"] for row in payload] == ["basic_update"]

    # An explicit --scheme still overrides the file.
    rc = main(["--config", str(config), "--scheme", "fixed", "--json",
               "--no-cache"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["scheme"] for row in payload] == ["fixed"]

