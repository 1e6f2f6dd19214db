import json

import numpy as np
import pytest

from qmeter.cli import CAMPAIGN_KEYS, main, parse_theta_grid
from qmeter.errors import ConfigError


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_command(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, text, _ = run_cli(["verify", "--out", str(out)], capsys)
    assert code == 0
    assert "[PASS]" in text
    assert "[FAIL]" not in text
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["format"] == "qmeter.verify/1"
    assert len(doc["checks"]) >= 30
    assert all(c["passed"] for c in doc["checks"])


def test_simulate_writes_campaign_json(capsys, tmp_path):
    out = tmp_path / "campaign.json"
    code, _, _ = run_cli([
        "simulate", "--scenario", "unlabeled", "--trials", "4000",
        "--seed", "12", "--workers", "2", "--out", str(out),
    ], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "qmeter.campaign/1"
    assert doc["seed"] == 12
    assert doc["results"]["equal"]["false_positives"] == 0
    assert "workers" not in doc


def test_simulate_stdout_and_report_round_trip(capsys, tmp_path):
    code, text, _ = run_cli([
        "simulate", "--scenario", "labeled", "--dim", "3", "--trials", "2000",
        "--seed", "4", "--ground-truth", "different",
    ], capsys)
    assert code == 0
    doc = json.loads(text)
    assert doc["scenario"] == {"kind": "labeled", "dim": 3}
    path = tmp_path / "c.json"
    path.write_text(text)
    code, rendered, _ = run_cli(["report", str(path)], capsys)
    assert code == 0
    assert "labeled comparison, d=3" in rendered
    assert "success" in rendered


def test_simulate_requires_seed(capsys, monkeypatch):
    monkeypatch.delenv("QMETER_SEED", raising=False)
    code, _, err = run_cli(["simulate", "--scenario", "labeled", "--trials", "10"], capsys)
    assert code == 2
    assert "seed" in err


def test_simulate_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("QMETER_SEED", "77")
    code, text, _ = run_cli(
        ["simulate", "--scenario", "labeled", "--trials", "100"], capsys)
    assert code == 0
    assert json.loads(text)["seed"] == 77
    monkeypatch.setenv("QMETER_SEED", "not-a-number")
    code, _, err = run_cli(
        ["simulate", "--scenario", "labeled", "--trials", "100"], capsys)
    assert code == 2
    assert "QMETER_SEED" in err


def test_simulate_rejects_unlabeled_qutrits(capsys):
    code, _, err = run_cli([
        "simulate", "--scenario", "unlabeled", "--dim", "3",
        "--trials", "10", "--seed", "1",
    ], capsys)
    assert code == 2
    assert "qubits" in err


def test_simulate_rejects_bad_state_file(capsys, tmp_path):
    bad = tmp_path / "nope.npy"
    code, _, err = run_cli([
        "simulate", "--scenario", "labeled", "--trials", "10",
        "--seed", "1", "--test-state", str(bad),
    ], capsys)
    assert code == 2
    assert "test state" in err or "nope.npy" in err


def test_sweep_and_report(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli([
        "sweep", "--theta-grid", "0:1.5707:5", "--trials", "3000",
        "--seed", "2", "--out", str(out),
    ], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,trials,empirical,stderr,analytic"
    assert len(lines) == 6
    code, rendered, _ = run_cli(["report", str(out)], capsys)
    assert code == 0
    assert "max |empirical - analytic|" in rendered


def test_sweep_comma_grid(capsys):
    code, text, _ = run_cli(
        ["sweep", "--theta-grid", "0.3,0.7", "--trials", "1000", "--seed", "5"], capsys)
    assert code == 0
    assert text.count("\n") == 3


def test_report_rejects_garbage(capsys, tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello world\n")
    code, _, err = run_cli(["report", str(path)], capsys)
    assert code == 2
    assert "junk.txt" in err


@pytest.mark.parametrize("content", [
    '{"format": "qmeter.campaign/1", "scenario": {"ki',  # truncated
    '{"format": "qmeter.campaign/1"}',                   # required keys missing
])
def test_report_rejects_broken_campaign_json(capsys, tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_text(content)
    code, _, err = run_cli(["report", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "broken.json" in err


def test_report_checks_the_schema_required_keys():
    with open("docs/campaign_result.schema.json", encoding="utf-8") as fh:
        assert list(CAMPAIGN_KEYS) == json.load(fh)["required"]


def test_parse_theta_grid():
    grid = parse_theta_grid("0:1:5")
    np.testing.assert_allclose(grid, np.linspace(0, 1, 5))
    np.testing.assert_allclose(parse_theta_grid("0.5, 0.75"), [0.5, 0.75])
    for bad in ("0:1", "a:b:5", "0:1:1", "", "x,y"):
        with pytest.raises(ConfigError):
            parse_theta_grid(bad)


def test_main_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
