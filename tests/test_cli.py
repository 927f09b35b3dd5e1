import ast
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import offsetwords
from offsetwords.asymptotics import laplace_estimate, large_d_estimate
from offsetwords.cli import build_parser, main
from offsetwords.config import Budget
from offsetwords.core import count_offset_words
from offsetwords.verify import SUITES

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--xi", "0,0,0")
    assert code == 0 and out.strip() == "35169"
    code, out, _ = run_cli(capsys, "count", "--n", "0", "--xi", "2,-1")
    assert code == 0 and out.strip() == "1"
    # the CLI reads the fold; the library's composition sum must agree
    code, out, _ = run_cli(capsys, "count", "--n", "12", "--xi", "2,-1,0,1")
    assert code == 0 and out == f"{count_offset_words(12, (2, -1, 0, 1))}\n"


def test_count_workers_flag(capsys):
    # the process pool is gone: --workers is an unknown option, and the one
    # sequential count agrees with the library at the size the pool once served
    with pytest.raises(SystemExit) as exc:
        main(["--workers", "2", "count", "--n", "30", "--xi", "1,-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "count", "--n", "30", "--xi", "1,-1")
    assert code == 0 and out == f"{count_offset_words(30, (1, -1))}\n"


def test_count_prints_exact_integers_of_any_size(capsys):
    # w(10000, (0, 0)) = C(20000, 10000) has 6,019 digits, more than Python's
    # default cap (4,300) on int-to-decimal conversion
    has_cap = hasattr(sys, "get_int_max_str_digits")
    cap = sys.get_int_max_str_digits() if has_cap else None
    code, out, err = run_cli(capsys, "count", "--n", "10000", "--xi", "0,0")
    assert code == 0 and err == "" and len(out) == 6019 + 1
    if has_cap:
        assert sys.get_int_max_str_digits() == cap  # lifted for the command only
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"{math.comb(20000, 10000)}\n"
    finally:
        if has_cap:
            sys.set_int_max_str_digits(cap)


def test_oracle_listing(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "1", "--xi", "1,0", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3"
    assert sorted(lines[1:]) == ["111", "122", "212"]
    code, out, _ = run_cli(capsys, "oracle", "--n", "1", "--xi", "1,0", "--list", "--limit", "0")
    assert code == 0 and out == "3\n"
    code, out, _ = run_cli(capsys, "oracle", "--n", "1", "--xi", "1,0", "--list", "--limit", "2")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, err = run_cli(capsys, "oracle", "--n", "1", "--xi", "1,0", "--list", "--limit", "-2")
    assert code == 2 and out == "" and "--limit" in err


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


@pytest.mark.parametrize(
    "argv,key,admitted",
    [
        (("oracle", "--n", "13", "--xi", "0"), "oracle_max_total_length", "26"),  # length 26 > 24
        (("spectral-table", "--d", "1", "--trunc", "41"), "spectral_trunc_cap", "41"),
    ],
)
def test_refusal_names_key_and_variable(capsys, monkeypatch, argv, key, admitted):
    # the Parseval refusal is covered by test_parseval_cap_follows_config
    var = "OFFSETWORDS_" + key.upper()
    code, _, err = run_cli(capsys, *argv)
    assert code == 3 and key in err and var in err
    monkeypatch.setenv(var, admitted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv", [("spectral-table", "--d", "8", "--trunc", "24"), ("parseval", "--d", "8", "--k", "12")]
)
def test_oversized_tables_refused_before_allocation(capsys, argv):
    # both pass their truncation caps, but the implied table has 2.2e10 cells
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert code == 3 and "cells" in err
    assert time.perf_counter() - start < 1.0


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


@pytest.mark.parametrize(
    "argv, regime, sweep",
    (
        (("--regime", "laplace", "--xi", "0,0,0,0", "--sweep", "260"), "laplace", 260),
        (("--regime", "bigd", "--n", "4", "--m", "2", "--sweep", "10,100"), "bigd", 100),
        (("--regime", "sphase", "--xi", "1,1", "--sweep", "8,2000"), "sphase", 2000),
    ),
)
def test_asympt_overflow_is_usage_error(capsys, argv, regime, sweep):
    code, _, err = run_cli(capsys, "asympt", *argv)
    assert code == 2
    assert err == f"error: {regime} estimate at sweep={sweep} overflows a float\n"


def test_library_estimates_still_overflow():
    # only the CLI turns the overflow into a usage error; perfbench counts
    # the library's OverflowError as a documented overflow
    with pytest.raises(OverflowError):
        laplace_estimate(260, (0, 0, 0, 0))
    with pytest.raises(OverflowError):
        large_d_estimate(4, 2, 100)


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


def test_parseval_cap_follows_config(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "parseval", "--d", "2", "--k", "13", "--json")
    assert code == 3
    assert "parseval_k_cap" in err and "OFFSETWORDS_PARSEVAL_K_CAP" in err
    monkeypatch.setenv("OFFSETWORDS_PARSEVAL_K_CAP", "14")
    code, out, _ = run_cli(capsys, "parseval", "--d", "2", "--k", "13", "--json")
    assert code == 0
    assert json.loads(out)["squared_expansion_agrees"] is True
    # the numeric check runs at its own fixed k_max = 10, which the configured cap does not bound
    monkeypatch.setenv("OFFSETWORDS_PARSEVAL_K_CAP", "5")
    code, out, _ = run_cli(capsys, "parseval", "--d", "2", "--k", "2", "--numeric", "0.1")
    assert code == 0 and "numeric check" in out


def test_parseval_numeric_grid_cap(capsys):
    # near the d=2 edge the doubling reaches 8192 points per axis; the cap is
    # on that nominal 8192^2 grid, although only one axis is gridded
    code, out, err = run_cli(capsys, "parseval", "--d", "2", "--k", "2", "--numeric", "0.2499")
    assert code == 3 and out == ""
    assert "grid of 8192^2 points exceeds cap 40000000" in err


def test_verify_suite(capsys, monkeypatch, suite_runs):
    # one real run end to end; every selection then prints the rows that the
    # session's suite runs recorded, and those print as the real run does
    code, real, _ = run_cli(capsys, "verify", "--suite", "determinantal")
    assert code == 0 and "[PASS] determinantal:" in real and "[FAIL]" not in real
    for suite in SUITES:
        monkeypatch.setitem(SUITES, suite, lambda rows=suite_runs.all_rows(suite): rows)
    assert run_cli(capsys, "verify", "--suite", "determinantal")[1] == real
    for suite in (*SUITES, "all"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0, suite
        assert "[FAIL]" not in out, suite
        for name in SUITES if suite == "all" else (suite,):
            assert f"[PASS] {name}:" in out, (suite, name)
    total = sum(len(suite_runs.all_rows(suite)) for suite in SUITES)
    assert out.endswith(f"{total}/{total} checks passed\n")


def test_suite_row_names_are_unique(suite_runs):
    # a criterion picks its rows by name substring, so a renamed check must
    # fail the pick rather than drop out of it
    names = [row.name for suite in SUITES for row in suite_runs.all_rows(suite)]
    assert len(names) == len(set(names))
    for needle in ("order regime", "no such check"):
        with pytest.raises(AssertionError, match="matches [03] rows"):
            suite_runs.check("asymptotics", needle)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "1"])  # missing --xi
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "1", "--xi", "1,a"])
    assert exc.value.code == 2
    # series infers d from --xi and always indexes by length unless --ogf
    for extra in (["--d", "2"], ["--by-length"]):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--xi", "1,0", "--trunc", "3", *extra])
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
    # the process pool and its workers setting are gone
    cfg.write_text("workers = 2\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "count", "--n", "1", "--xi", "0,0")
    assert code == 2 and "workers" in err
    # grid_default was never read and is gone
    cfg.write_text("grid_default = 64\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "count", "--n", "1", "--xi", "0,0")
    assert code == 2 and "grid_default" in err
    # a non-integer value names its source: the file and line, or the variable
    cfg.write_text("# caps\nparseval_k_cap = twelve\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "count", "--n", "1", "--xi", "0,0")
    assert code == 2 and f"{cfg}:2" in err and "twelve" in err
    # a negative cap is refused where it is read, not by the first check it trips
    cfg.write_text("oracle_max_strings = 5\nparseval_k_cap = -1\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "parseval", "--d", "2", "--k", "0")
    assert code == 2 and f"{cfg}:2" in err and "nonnegative" in err and "-1" in err


def test_bad_config_env(capsys, monkeypatch):
    monkeypatch.setenv("OFFSETWORDS_SPECTRAL_TRUNC_CAP", "4O")
    code, _, err = run_cli(capsys, "count", "--n", "1", "--xi", "0,0")
    assert code == 2 and "OFFSETWORDS_SPECTRAL_TRUNC_CAP" in err and "4O" in err
    monkeypatch.delenv("OFFSETWORDS_SPECTRAL_TRUNC_CAP")
    for var, argv in (
        ("OFFSETWORDS_PARSEVAL_K_CAP", ["parseval", "--d", "2", "--k", "0"]),
        ("OFFSETWORDS_ORACLE_MAX_STRINGS", ["oracle", "--n", "1", "--xi", "1,0"]),
    ):
        monkeypatch.setenv(var, "-5")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and var in err and "nonnegative" in err and "-5" in err
        monkeypatch.delenv(var)
    # zero is still a cap: order k = 0 stays within it
    monkeypatch.setenv("OFFSETWORDS_PARSEVAL_K_CAP", "0")
    assert run_cli(capsys, "parseval", "--d", "2", "--k", "0")[0] == 0


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


_KEYS = [f.name for f in fields(Budget)]
# one line of text: no line breaks, and no '#', which would start a comment
_line_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r#"), max_size=12
)
_malformed_list = st.text(max_size=12).filter(
    lambda t: not all(_is_int(part) for part in t.split(","))
)
_malformed_line = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_KEYS), _line_text.filter(lambda v: not _is_int(v))),
    _line_text.filter(lambda k: k.strip() not in _KEYS and "=" not in k).map("{} = 1".format),
    _line_text.filter(lambda t: t.strip() and "=" not in t),
)


@settings(max_examples=150, deadline=None)
@given(
    case=st.one_of(
        _malformed_list.map(lambda t: ("--xi", ["count", "--n", "1", "--xi", t], None)),
        _malformed_list.map(
            lambda t: ("--sweep", ["asympt", "--regime", "laplace", "--xi", "0,0", "--sweep", t], None)
        ),
        # well-formed but out of range: the Laplace regime needs orders n >= 1
        st.integers(-9, 0).map(
            lambda n: ("order", ["asympt", "--regime", "laplace", "--xi", "0,0", "--sweep", str(n)], None)
        ),
        _malformed_line.map(lambda line: (None, ["count", "--n", "1", "--xi", "0,0"], line)),
        # well-formed but out of range: the power-sum exponent needs r >= 1
        st.tuples(st.integers(-3, 0), st.sampled_from(([], ["--ogf"]))).map(
            lambda c: ("r >= 1", ["series", "--xi", "1,0", "--trunc", "5", "--r", str(c[0]), *c[1]], None)
        ),
        # well-formed but out of range: the Parseval pair order needs k >= 0
        st.integers(-4, -1).map(lambda k: (f"k = {k}", ["parseval", "--d", "2", "--k", str(k)], None)),
    )
)
@example(case=("r >= 1", ["series", "--xi", "1,0", "--trunc", "5", "--r", "0"], None))
@example(case=("r >= 1", ["series", "--xi", "1,0", "--trunc", "5", "--r", "0", "--ogf"], None))
@example(case=("k = -1", ["parseval", "--d", "2", "--k", "-1"], None))
# str.strip drops a trailing U+001F, but int() refuses it
@example(case=(None, ["count", "--n", "1", "--xi", "0,0"], "oracle_max_strings = 0\x1f"))
def test_malformed_input_exits_2_with_a_message(case):
    fragment, argv, config_line = case
    with tempfile.TemporaryDirectory() as tmp:
        if config_line is not None:
            path = Path(tmp) / "bad.cfg"
            path.write_text(config_line + "\n", encoding="utf-8")
            argv = ["--config", str(path), *argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code == 2, (argv, config_line)
    message = err.getvalue()
    assert "Traceback" not in message
    assert (fragment or f"{path}:1") in message


def test_public_surface():
    # every exported name resolves, once each, and names no caller reads are
    # neither exported nor defined
    exported = offsetwords.__all__
    assert all(hasattr(offsetwords, name) for name in exported)
    assert len(exported) == len(set(exported))
    removed = ("ParikhVector", "SignSplit", "BellCoefficients", "OffsetVector", "AlphabetSplit")
    assert not any(hasattr(offsetwords, name) for name in removed)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports only to re-export, and __future__ imports are directives
    unused = []
    for path in sorted(Path(offsetwords.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused


def test_import_loads_neither_numpy_nor_multiprocessing():
    # numpy is imported only by the code that uses it, and no path starts a process pool
    env = dict(os.environ, PYTHONPATH=str(Path(offsetwords.__file__).parents[1]))
    code = "import offsetwords, offsetwords.cli, sys; print(sorted({'numpy', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    # the exact and closed-form routes run without it (only quadrature and verify
    # import it), and the package loads verify only when verify_determinantal is read
    code = (
        "import sys, offsetwords as ow; ow.complete_bell([1, 2, 3]); ow.bell_B(4, 1, 3); "
        "ow.stationary_phase_hessian_det((1, 1)); ow.spectral_series(2, 1, 4); "
        "print(sorted({'numpy', 'offsetwords.verify'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    code = (
        "import sys; from offsetwords.cli import main; main(['count', '--n', '45', '--xi', '1,-1,0,0,2']); "
        "print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split()[-1] == "False"


@pytest.mark.parametrize(
    "argv, taken",
    (
        (["spectral-table", "--d", "3", "--trunc", "12"], 10),  # a write fails: the table outgrows the pipe
        (["count", "--n", "6", "--xi", "0,0,0"], 0),  # the final flush fails: closed before the child starts
    ),
)
def test_closed_pipe_exits_141_without_traceback(argv, taken):
    env = dict(os.environ, PYTHONPATH=str(Path(offsetwords.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout keeps its buffer, so the flush at exit has work to do
    argv = [sys.executable, "-m", "offsetwords.cli", *argv]
    read_end, write_end = os.pipe()
    if not taken:
        os.close(read_end)  # closed before the child starts, so its flush always fails
    with subprocess.Popen(argv, env=env, stdout=write_end, stderr=subprocess.PIPE) as proc:
        os.close(write_end)
        if taken:
            with open(read_end, "rb") as out:
                assert len(out.read(taken)) == taken
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert code == 141


def test_readme_configuration_block_lists_the_budget():
    text = README.read_text(encoding="utf-8")
    block = text.split("### Configuration", 1)[1].split("```")[1]
    documented = {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)", block)}
    assert documented == {f.name: f.default for f in fields(Budget)}


def test_readme_cli_examples_parse(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.findall(r"^offsetwords .*$", text, re.M)
    examples = block + re.findall(r"`(offsetwords [^`]+)`", text)
    assert len(examples) >= 12
    parser = build_parser()
    for example in examples:
        parser.parse_args(shlex.split(example, comments=True)[1:])
    # the CLI block's commands also run and exit 0; verify --suite all is
    # covered by the suite_runs fixture
    outputs = {}
    for line in block:
        argv = shlex.split(line, comments=True)[1:]
        if argv != ["verify", "--suite", "all"]:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and out and not err, (argv, code, err)
            outputs[" ".join(argv)] = out
    assert len(outputs) == 10
    assert outputs["count --n 6 --xi 0,0,0"] == "35169\n"
    assert outputs["oracle --n 1 --xi 1,0 --list"].split() == ["3", "111", "122", "212"]
