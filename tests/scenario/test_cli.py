"""CLI tests: soda-scenarios list / describe / compile / replay."""

import json

import pytest

from repro.scenario.cli import main
from repro.scenario.library import LIBRARY
from repro.scenario.spec import ScenarioSpec


def test_list_names_every_library_scenario(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in LIBRARY:
        assert name in out


def test_describe_emits_a_loadable_spec(capsys):
    assert main(["describe", "heavy-tail"]) == 0
    doc = json.loads(capsys.readouterr().out)
    spec = ScenarioSpec.from_dict(doc)
    assert spec.name == "heavy-tail"
    assert len(spec.loads) == 2


def test_compile_prints_per_tenant_rows_and_digest(capsys):
    assert main(["compile", "flash-crowd", "--seed", "3", "--duration", "20"]) == 0
    out = capsys.readouterr().out
    assert "frontpage" in out and "bystander" in out
    assert "digest:" in out and "seed=3" in out


def test_compile_shows_burst_windows(capsys):
    assert main(["compile", "correlated-bursts", "--duration", "40"]) == 0
    assert "burst windows:" in capsys.readouterr().out


def test_replay_reports_conservation(capsys):
    assert main(
        ["replay", "diurnal", "--seed", "1", "--policy", "sla", "--duration", "10"]
    ) == 0
    out = capsys.readouterr().out
    assert "conservation (served+failed+shed == issued): holds" in out


def test_replay_market_prints_spot_rate(capsys):
    assert main(
        ["replay", "flash-crowd", "--policy", "market", "--duration", "12"]
    ) == 0
    assert "spot rate:" in capsys.readouterr().out


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        main(["describe", "black-friday"])


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["replay", "diurnal", "--policy", "lifo"])


def test_negative_background_hosts_exit_nonzero():
    with pytest.raises(SystemExit) as exit_info:
        main([
            "replay", "flash-crowd", "--duration", "5", "--background-hosts", "-7",
        ])
    assert exit_info.value.code != 0
