"""Command line behaviour: golden outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from newtonspec import cli
from newtonspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_golden(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "u^2 + u^2*v^2 + v^2")
    assert code == 0
    assert out.splitlines() == [
        "1 + 3 z^{1/2} + 3 z + z^{3/2}",
        "route: box",
        "mu_P: 8",
    ]


def test_delta_local_golden(capsys):
    code, out, _ = run_cli(capsys, "delta", "--local", "x^5 + x^2*y^2 + y^5")
    assert code == 0
    assert out.splitlines()[0] == "1 + 14 z + 5 z^2"


def test_milnor_golden(capsys):
    code, out, _ = run_cli(capsys, "milnor", "u + v")
    assert code == 0
    assert out.strip() == "0"


def test_volume(capsys):
    code, out, _ = run_cli(capsys, "volume", "u^2 + u^2*v^2 + v^2")
    assert code == 0 and out.strip() == "8"


def test_spec_infinity(capsys):
    code, out, _ = run_cli(capsys, "spec-infinity", "u^2 + u^2*v^2 + v^2")
    assert code == 0
    assert out.splitlines() == ["z^{1/2} + 3 z + z^{3/2}", "mu: 5"]


def test_ehrhart(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--local", "x^5 + x^2*y^2 + y^5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "C(z+2,2) + 14 C(z+1,2) + 5 C(z,2)"
    assert "L(2) = 53" in lines


def test_orbifold(capsys):
    code, out, _ = run_cli(capsys, "orbifold", "u + v + w + u^2*v^2*w^2 + v^2*w^2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 + 2 z^{1/2} + 3 z + 3 z^{3/2} + 2 z^2 + z^{5/2}"
    assert "v=(0,1,1): z^{1/2} + z^{3/2}" in lines


def test_product_table_with_hint(capsys):
    code, out, _ = run_cli(
        capsys,
        "product-table",
        "u^2 + u^2*v^2 + v^2",
        "--basis",
        "1,u*v,u^2*v^2,u^3*v^3,u,v,u^2*v,u*v^2",
    )
    assert code == 0
    assert out.splitlines()[0] == "basis: 1, u*v, u^2*v^2, u^3*v^3, u, v, u^2*v, u*v^2"
    assert "-u^2*v^2" in out


def test_json_output(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--json", "u^2 + u^2*v^2 + v^2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["route"] == "box"
    assert payload["mu_P"] == 8
    assert payload["series"][1] == {"exponent": "1/2", "coefficient": 3}


def test_determinism(capsys):
    argv = ("spectrum", "u + v + w + u^2*v^2*w^2 + v^2*w^2")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # the parser is cached per process: an option given to one call must
    # not reach the next
    square = "u^2 + u^2*v^2 + v^2"
    hint = "1,u*v,u^2*v^2,u^3*v^3,u,v,u^2*v,u*v^2"
    assert cli._build_parser() is cli._build_parser()
    _, first, _ = run_cli(capsys, "product-table", square)
    _, hinted, _ = run_cli(capsys, "product-table", square, "--basis", hint)
    run_cli(capsys, "spectrum", "--json", "--vars", "u,v", square)
    _, second, _ = run_cli(capsys, "product-table", square)
    assert first == second != hinted


def test_file_input(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("u^2 + u^2*v^2 + v^2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "milnor", str(path))
    assert code == 0 and out.strip() == "5"


def test_vars_flag_pins_order(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--json", "--vars", "u,v", "v^2 + u^2*v^2 + u^2"
    )
    assert code == 0
    assert json.loads(out)["mu_P"] == 8


def test_not_convenient_exit_code(capsys):
    code, _, err = run_cli(capsys, "spectrum", "u + u*v")
    assert code == 1
    assert "not convenient" in err and "v" in err


def test_repeated_vars_entry_exit_code(capsys):
    code, out, err = run_cli(capsys, "spectrum", "u^2", "--vars", "u,u")
    assert code == 1 and out == ""
    assert "variable u repeats" in err


def test_repeated_basis_entry_exit_code(capsys):
    code, out, err = run_cli(capsys, "product-table", "u^2+v^2", "--basis", "1,u,u,u*v")
    assert code == 1 and out == ""
    assert "hint monomial u is listed twice" in err


def test_local_constant_exit_code(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--local", "1 + x + y")
    assert code == 1
    assert "constant term" in err


@pytest.mark.parametrize("command", [
    "spectrum", "spec-infinity", "milnor", "delta", "ehrhart",
    "orbifold", "product-table", "volume", "check",
])
def test_constant_input_exit_code(capsys, command):
    code, out, err = run_cli(capsys, command, "1")
    assert code == 1
    assert out == ""
    assert "no variables" in err


def test_syntax_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "spectrum", "u^^2")
    assert code == 1
    assert "offset" in err


def test_bad_usage_exit_code(capsys):
    code, _, err = run_cli(capsys, "no-such-command", "u + v")
    assert code == 1


def test_threads_option_is_gone(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--threads", "2", "u + v")
    assert code == 1


def test_max_truncation_option_is_gone(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--max-truncation", "2", "u + v")
    assert code == 1


def test_non_simplicial_spectrum_uses_box_route(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "u + 2*v + 3*u*w + 5*v*w + 7*w^2")
    assert code == 0
    assert out.splitlines() == ["1 + z^{1/2} + 2 z", "route: box", "mu_P: 4"]


def test_overflow_exits_2_with_message(capsys):
    code, out, err = run_cli(capsys, "spectrum", "u^99999999999999999999")
    assert code == 2
    assert out == ""
    assert "too large" in err and "OverflowError" in err


def test_memory_error_exits_2_with_message(capsys, monkeypatch):
    import newtonspec.cli as cli

    def exhausted(model):
        raise MemoryError

    monkeypatch.setattr(cli, "toric_spectrum", exhausted)
    code, out, err = run_cli(capsys, "spectrum", "u + v")
    assert code == 2
    assert out == ""
    assert "too large" in err and "MemoryError" in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "u^2 + u^2*v^2 + v^2"),
    ("product-table", "u^2 + u^2*v^2 + v^2"),
])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the reader closes the pipe before the process writes to it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "newtonspec", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_check_passes_on_examples(capsys):
    for argv in (
        ("check", "u^2 + u^2*v^2 + v^2"),
        ("check", "u + v + w + u^2*v^2*w^2 + v^2*w^2"),
        ("check", "--local", "x^5 + x^2*y^2 + y^5"),
        ("check", "u + 2*v + 3*u*w + 5*v*w + 7*w^2"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, out
        assert "FAIL" not in out


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--json", "u^2 + u^2*v^2 + v^2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(r["ok"] for r in payload["results"])
