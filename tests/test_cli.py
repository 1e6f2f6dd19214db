import json

import numpy as np
import pytest

from qmeter import cli
from qmeter.cli import CAMPAIGN_KEYS, REPORT_FORMATS, main, parse_theta_grid
from qmeter.simulate import CAMPAIGN_FORMAT, sweep_theta
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
    assert doc["format"] == "qmeter.campaign/16"
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


def test_simulate_requires_seed(capsys):
    code, _, err = run_cli(["simulate", "--scenario", "labeled", "--trials", "10"], capsys)
    assert code == 2
    assert "seed" in err


def test_simulate_rejects_unlabeled_qutrits(capsys):
    code, _, err = run_cli([
        "simulate", "--scenario", "unlabeled", "--dim", "3",
        "--trials", "10", "--seed", "1",
    ], capsys)
    assert code == 2
    assert "qubits" in err


@pytest.mark.parametrize("kind", ["missing", "archive", "strings"])
def test_simulate_rejects_bad_state_file(capsys, tmp_path, kind):
    bad = tmp_path / ("nope.npz" if kind == "archive" else "nope.npy")
    if kind == "archive":
        np.savez(bad, state=np.eye(4)[0])
    elif kind == "strings":
        np.save(bad, np.array(["1", "0", "0", "0"]))
    code, _, err = run_cli([
        "simulate", "--scenario", "labeled", "--trials", "10",
        "--seed", "1", "--workers", "1", "--test-state", str(bad),
    ], capsys)
    assert code == 2
    assert "test state" in err or "nope.np" in err


def test_simulate_rejects_non_finite_state_file(capsys, tmp_path):
    bad = tmp_path / "nan.npy"
    np.save(bad, np.full(4, np.nan))
    code, _, err = run_cli([
        "simulate", "--scenario", "labeled", "--dim", "2", "--trials", "10",
        "--seed", "1", "--test-state", str(bad),
    ], capsys)
    assert code == 2
    assert "non-finite" in err


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


def _campaign_doc(**changes) -> str:
    doc = {"format": CAMPAIGN_FORMAT, "version": "0", "scenario": {"kind": "labeled", "dim": 2},
           "seed": 1, "trials": 10, "ground_truth": "both", "test_state": "optimal",
           "shard_size": 65536, "conclusive_classes": ["same"],
           "results": {"different": {"trials": 10, "class_counts": {"same": 5, "diff": 5},
                                     "different_verdicts": 5, "inconclusive_verdicts": 5,
                                     "success_estimate": 0.5, "success_stderr": 0.16},
                       "equal": {"trials": 10, "class_counts": {"same": 0, "diff": 10},
                                 "different_verdicts": 0, "inconclusive_verdicts": 10,
                                 "false_positives": 0}}}
    doc.update(changes)
    return json.dumps(doc)


_NO_ESTIMATE = json.loads(_campaign_doc())["results"]
del _NO_ESTIMATE["different"]["success_estimate"]


@pytest.mark.parametrize("content", [
    '{"format": "qmeter.campaign/1", "scenario": {"ki',  # truncated
    '{"format": "qmeter.campaign/1"}',                   # required keys missing
    pytest.param(_campaign_doc(scenario={}), id="scenario-empty"),
    pytest.param(_campaign_doc(scenario=[]), id="scenario-not-an-object"),
    pytest.param(_campaign_doc(results=_NO_ESTIMATE), id="success-estimate-missing"),
    pytest.param(_campaign_doc(results=[]), id="results-not-an-object"),
    pytest.param("theta,trials,stderr,analytic\n0.1,10,0.0,0.0\n", id="sweep-no-empirical"),
    pytest.param("theta,trials,empirical,stderr,analytic\n0.1,10,x,0.0,0.0\n",
                 id="sweep-non-numeric"),
    pytest.param("theta,trials,empirical,stderr,analytic\n", id="sweep-no-rows"),
    pytest.param(b'{"format": "\xff"}', id="not-utf8"),
    # json.loads gives up on deep nesting with a RecursionError
    pytest.param('{"a": ' * 200_000 + "1" + "}" * 200_000, id="nested-200000-deep"),
    pytest.param(None, id="directory"),
])
def test_report_rejects_broken_campaign_json(capsys, tmp_path, content):
    path = tmp_path / "broken.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = run_cli(["report", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "broken.json" in err


def test_report_accepts_the_valid_template(capsys, tmp_path):
    # the documents above differ from this one only where they are broken
    path = tmp_path / "ok.json"
    path.write_text(_campaign_doc())
    code, out, _ = run_cli(["report", str(path)], capsys)
    assert code == 0
    assert "false positives" in out


def test_report_reads_format_1(capsys, tmp_path):
    # formats 2 to 16 changed the random stream behind the counts, not the
    # layout, so every listed format gives the same report
    assert REPORT_FORMATS == tuple(f"qmeter.campaign/{n}" for n in range(1, 17))
    assert CAMPAIGN_FORMAT == "qmeter.campaign/16"
    reports = []
    for fmt in REPORT_FORMATS:
        path = tmp_path / f"{fmt.rsplit('/', 1)[1]}.json"
        path.write_text(_campaign_doc(format=fmt))
        code, out, _ = run_cli(["report", str(path)], capsys)
        assert code == 0
        reports.append(out)
    assert "false positives" in reports[0]
    assert reports == [reports[0]] * len(REPORT_FORMATS)


def test_report_reads_every_format_up_to_the_current_one(capsys, tmp_path):
    # a new format must not make the files of the older ones unreadable
    prefix, current = CAMPAIGN_FORMAT.rsplit("/", 1)
    for number in range(1, int(current) + 1):
        path = tmp_path / f"{number}.json"
        path.write_text(_campaign_doc(format=f"{prefix}/{number}"))
        code, out, err = run_cli(["report", str(path)], capsys)
        assert (code, err) == (0, ""), number
        assert "false positives" in out


def test_report_rejects_an_unknown_format(capsys, tmp_path):
    path = tmp_path / "future.json"
    path.write_text(_campaign_doc(format="qmeter.campaign/99"))
    code, out, err = run_cli(["report", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "qmeter.campaign/99" in err


@pytest.mark.parametrize("fmt", ["qmeter.campaign/0", "qmeter.campaign/17", "qmeter.campaign/09",
                                 "qmeter.campaign/+9", "qmeter.campaign/ 9", "qmeter.campaign/9.0",
                                 "qmeter.campaign/\u0669", "qmeter.verify/1", "qmeter.campaign/"])
def test_report_reads_only_decimal_formats_up_to_the_current_one(capsys, tmp_path, fmt):
    # the rule: qmeter.campaign/N for 1 <= N <= the current N, written in
    # decimal without a leading zero (U+0669 is an Arabic-Indic nine)
    assert CAMPAIGN_FORMAT == "qmeter.campaign/16"
    path = tmp_path / "campaign.json"
    path.write_text(_campaign_doc(format=fmt))
    code, out, err = run_cli(["report", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "unrecognized JSON format" in err


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["simulate", "--scenario", "labeled", "--trials", "10", "--seed", "1"],
    ["sweep", "--theta-grid", "0.3,0.7", "--trials", "10", "--seed", "1"],
])
def test_out_to_a_directory_exits_2(capsys, tmp_path, argv):
    code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and str(tmp_path) in err


def test_report_checks_the_schema_required_keys():
    with open("docs/campaign_result.schema.json", encoding="utf-8") as fh:
        assert list(CAMPAIGN_KEYS) == json.load(fh)["required"]


def test_campaign_format_matches_the_schema():
    with open("docs/campaign_result.schema.json", encoding="utf-8") as fh:
        assert CAMPAIGN_FORMAT == json.load(fh)["properties"]["format"]["const"]


def test_parse_theta_grid():
    grid = parse_theta_grid("0:1:5")
    np.testing.assert_allclose(grid, np.linspace(0, 1, 5))
    np.testing.assert_allclose(parse_theta_grid("0.5, 0.75"), [0.5, 0.75])
    for bad in ("0:1", "a:b:5", "0:1:1", "", "x,y"):
        with pytest.raises(ConfigError):
            parse_theta_grid(bad)
    # more points than an array can hold: numpy refuses before it allocates,
    # and its ValueError once ended the CLI in a traceback
    with pytest.raises(ConfigError, match="cannot be built"):
        parse_theta_grid(f"0:1:{2 ** 62}")
    # a non-finite angle parses, and sweep_theta, which the CLI calls,
    # rejects it: the library and the CLI share the one check (an infinite
    # angle once reached math.sin in the library, "math domain error")
    for bad in ("nan,1", "inf", "0:nan:5", "-inf:1:3", "0:inf:3"):
        with pytest.raises(ConfigError, match="non-finite"):
            sweep_theta(parse_theta_grid(bad), trials=10, seed=1)
    with pytest.raises(ConfigError):  # once float()'s ValueError
        sweep_theta(["a"], trials=10, seed=1)


@pytest.mark.parametrize("grid", ["nan,1", "inf"])
def test_sweep_rejects_a_non_finite_angle(capsys, grid):
    code, out, err = run_cli(["sweep", "--theta-grid", grid, "--trials", "10", "--seed", "1"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


def test_sweep_rejects_more_trials_than_a_multinomial_takes(capsys):
    # numpy's multinomial counts in int64, so 2**63 trials once ended in its
    # OverflowError
    top = 2 ** 63 - 1
    for trials in (top + 1, 10 ** 19):
        with pytest.raises(ConfigError, match="trials must be <="):
            sweep_theta([0.3], trials, 1)
    assert sweep_theta([0.3], top, 1)[0].trials == top
    code, out, err = run_cli(["sweep", "--theta-grid", "0.3,0.7", "--trials", str(10 ** 19),
                              "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "trials" in err


def test_simulate_rejects_more_trials_than_its_counts_hold(capsys, monkeypatch):
    # class counts are int64, and a campaign of 10**19 trials once passed
    # its config and began by listing about 1.5e14 shards
    def no_run(config):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "run_campaign", no_run)
    code, out, err = run_cli(["simulate", "--scenario", "labeled", "--trials", str(10 ** 19),
                              "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "trials" in err


def test_simulate_rejects_a_dimension_the_dense_operators_cannot_hold(capsys, monkeypatch):
    # labeled d = 1000 once died in haar.twirl, unable to allocate 29.1 TiB
    def no_run(config):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "run_campaign", no_run)
    code, out, err = run_cli(["simulate", "--scenario", "labeled", "--dim", "1000",
                              "--trials", "10", "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "1000000" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "-1", "--trials", "10"],
    ["simulate", "--scenario", "labeled", "--seed", "-1", "--trials", "10"],
    ["simulate", "--scenario", "labeled", "--seed", "1", "--trials", "10", "--workers", "0"],
    ["sweep", "--seed", "1", "--theta-grid", f"0:1:{2 ** 62}"],
])
def test_negative_seeds_and_counts_exit_2(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_main_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
