import json

import pytest

from offsetwords.cli import main
from offsetwords.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--xi", "0,0,0")
    assert code == 0 and out.strip() == "35169"
    code, out, _ = run_cli(capsys, "count", "--n", "0", "--xi", "2,-1")
    assert code == 0 and out.strip() == "1"


def test_count_workers_flag(capsys):
    code, out, _ = run_cli(capsys, "--workers", "2", "count", "--n", "30", "--xi", "1,-1")
    assert code == 0
    code, out1, _ = run_cli(capsys, "count", "--n", "30", "--xi", "1,-1")
    assert out == out1


def test_oracle_listing(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "1", "--xi", "1,0", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3"
    assert sorted(lines[1:]) == ["111", "122", "212"]


def test_series_json(capsys):
    code, out, _ = run_cli(capsys, "series", "--xi", "1,0", "--trunc", "5")
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == 5
    assert data["coeffs"] == [["0", "1"], ["1", "1"], ["0", "1"], ["3", "1"], ["0", "1"], ["10", "1"]]
    # OGF mode indexes by order instead
    code, out, _ = run_cli(capsys, "series", "--xi", "1,0", "--trunc", "2", "--ogf")
    assert json.loads(out)["coeffs"] == [["1", "1"], ["3", "1"], ["10", "1"]]
    # r > 1 with r not dividing xi gives the zero series
    code, out, _ = run_cli(capsys, "series", "--xi", "1,0", "--r", "2", "--trunc", "3")
    assert all(num == "0" for num, _ in json.loads(out)["coeffs"])


def test_series_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "spectral-table", "--d", "2", "--trunc", "3")
    _, out2, _ = run_cli(capsys, "spectral-table", "--d", "2", "--trunc", "3")
    assert out1 == out2
    data = json.loads(out1)
    exps = [tuple(e["exp"]) for e in data["entries"]]
    assert exps == sorted(exps)


def test_spectral_table_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "spectral-table", "--d", "3", "--trunc", "60")
    assert code == 3
    assert "budget" in err


def test_quad(capsys):
    code, out, _ = run_cli(capsys, "quad", "--n", "2", "--xi", "0,0,0")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == "15"
    assert float(data["rel_error"]) < 1e-9


def test_asympt_csv(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--regime", "bigd", "--n", "2", "--m", "0", "--sweep", "10,100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "sweep,exact,estimate,ratio"
    assert lines[2].startswith("10,190,")
    assert lines[3].startswith("100,19900,")


def test_asympt_sphase_prints_caveat(capsys):
    code, out, _ = run_cli(
        capsys, "asympt", "--regime", "sphase", "--xi", "1,1", "--n", "0", "--sweep", "8,16"
    )
    assert code == 0
    assert "caveat" in out.splitlines()[0]
    assert "lambda^(-(d-1)/2)" in out


def test_asympt_missing_xi_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "asympt", "--regime", "laplace", "--sweep", "10")
    assert code == 2 and "xi" in err


def test_parseval_report(capsys):
    code, out, _ = run_cli(capsys, "parseval", "--d", "2", "--k", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == ["1", "8", "54"]
    assert data["squared_expansion_agrees"] is True
    assert len(data["pair_roster"]) == 1 + 8 + 54
    code, out, _ = run_cli(capsys, "parseval", "--d", "2", "--k", "2", "--numeric", "0.1")
    assert code == 0 and "numeric check" in out
    code, _, err = run_cli(capsys, "parseval", "--d", "3", "--k", "20")
    assert code == 3


def test_verify_suite(capsys):
    # every registered suite is selectable by name
    for suite in SUITES:
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0, suite
        assert f"[PASS] {suite}:" in out and "[FAIL]" not in out, suite


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "1"])  # missing --xi
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "1", "--xi", "1,a"])
    assert exc.value.code == 2


def test_config_file_and_env_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("spectral_trunc_cap = 2  # tight cap\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "spectral-table", "--d", "2", "--trunc", "3")
    assert code == 3
    monkeypatch.setenv("OFFSETWORDS_SPECTRAL_TRUNC_CAP", "5")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "spectral-table", "--d", "2", "--trunc", "3")
    assert code == 0 and json.loads(out)["d"] == 2


def test_bad_config_file(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 3\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "count", "--n", "1", "--xi", "0,0")
    assert code == 2 and "nonsense_key" in err
