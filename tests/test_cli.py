"""Command line behaviour: golden outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from newtonspec import SpectrumSeries, cli, ehrhart, polytope
from newtonspec.cli import main

from conftest import LOCAL_GERMS, acceptance_polys


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


@pytest.mark.parametrize("argv", [
    ["u + v + w + u^2*v^2*w^2 + v^2*w^2"],
    ["u^4 + v^4 + w^4 + x^4"],
    ["x^4 + y^5 + z^6 + x*y*z^2 + x^2*y^2", "--local"],
])
def test_orbifold_walks_the_open_boxes_once(capsys, monkeypatch, argv):
    # the series and the printed terms read the boxes of the top simplices
    # and of no other face, and print one line per point that the
    # histograms count
    forms, models = [], []
    diagonal_form, build = polytope._diagonal_form, cli.build_model

    def counted_form(rows):
        forms.append(tuple(map(tuple, rows)))
        return diagonal_form(rows)

    def counted_build(p):
        models.append(build(p))
        return models[-1]

    monkeypatch.setattr(polytope, "_diagonal_form", counted_form)
    monkeypatch.setattr(cli, "build_model", counted_build)
    code, out, _ = run_cli(capsys, "orbifold", *argv)
    assert code == 0 and out
    [model] = models
    assert set(forms) == {tuple(model.vertices[i] for i in piece)
                          for piece in model._top_simplices}
    points = sum(sum(values.values()) for values in model.open_boxes.values())
    assert len(out.splitlines()) == 1 + points


@pytest.mark.parametrize("argv", [
    ["spectrum", "u + v + w + u^2*v^2*w^2 + v^2*w^2"],
    ["spec-infinity", "u + v + w + u^2*v^2*w^2 + v^2*w^2"],
    ["orbifold", "u + v + w + u^2*v^2*w^2 + v^2*w^2"],
    ["delta", "u + v + w + u^2*v^2*w^2 + v^2*w^2"],
    ["ehrhart", "--local", "x^5 + x^2*y^2 + y^5"],
    ["check", "u + v + w + u^2*v^2*w^2 + v^2*w^2"],
    ["check", "3*u+5*v+7*u*w+11*v*w+13*w^2"],
])
def test_text_output_builds_no_json_payload(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("a JSON payload built in text mode")

    for owner in (SpectrumSeries, ehrhart.DeltaVector, ehrhart.EhrhartPolynomial):
        monkeypatch.setattr(owner, "to_json", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


def test_json_output_builds_no_text_lines(capsys, monkeypatch):
    # one text line per box point, 256 of them here, each with the str of
    # its series: --json prints none of them, so it builds none
    calls = []
    text = SpectrumSeries.__str__

    def counted(self):
        calls.append(self)
        return text(self)

    monkeypatch.setattr(SpectrumSeries, "__str__", counted)
    code, out, _ = run_cli(capsys, "orbifold", "--json", "u^4 + v^4 + w^4 + x^4")
    assert code == 0
    assert len(json.loads(out)["contributions"]) == 256
    assert calls == []


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


@pytest.mark.parametrize("basis,message", [
    ("1,u,v,u*v*1", "basis monomial 'u*v*1': expected '+' or '-', found '1' (at offset 4)"),
    ("1,u,v^,u*v", "basis monomial 'v^': expected exponent (at offset 2)"),
    ("1,u,2/0*v,u*v", "basis monomial '2/0*v': zero denominator (at offset 2)"),
])
def test_basis_syntax_error_names_the_basis_monomial(capsys, basis, message):
    # the offset is into the one monomial, so the message names it
    code, out, err = run_cli(capsys, "product-table", "u^2+v^2", "--basis", basis)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_basis_variable_missing_from_the_polynomial_exit_code(capsys):
    code, out, err = run_cli(capsys, "product-table", "u^2+v^2", "--basis", "1,u,v,w")
    assert code == 1 and out == ""
    assert err == "error: basis monomial 'w' has variable(s) w, which the polynomial lacks\n"
    # a --vars list that misses a variable keeps its own message
    code, out, err = run_cli(capsys, "spectrum", "u^2+v^2+w^2", "--vars", "u,v")
    assert code == 1 and out == ""
    assert err == "error: variable(s) w not in --vars list\n"


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


@pytest.mark.parametrize("text,message", [
    ("u^²+v^2", "error: unexpected character '²' (at offset 2)"),
    ("12²*u+v^2", "error: unexpected character '²' (at offset 2)"),
    ("u^①+v", "error: unexpected character '①' (at offset 2)"),
])
def test_non_decimal_digits_exit_1_without_traceback(text, message):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "newtonspec", "spectrum", text],
        capture_output=True, env=env, timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert err.splitlines() == [message], err
    assert "Traceback" not in err


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="needs the interpreter's limit on the digits int() converts, below 5000")
@pytest.mark.parametrize("argv,offset,prefix", [
    (["spectrum", "u^" + "9" * 5000 + "+v"], 2, ""),
    (["spectrum", "9" * 5000 + "*u+v"], 0, ""),
    # the offset is into the basis monomial, which the message names
    (["product-table", "u^2+v^2", "--basis", "1,u^" + "9" * 5000], 2,
     "basis monomial 'u^" + "9" * 5000 + "': "),
], ids=["exponent", "coefficient", "hint-exponent"])
def test_numbers_over_the_digit_limit_exit_1_without_traceback(argv, offset, prefix):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "newtonspec", *argv],
                          capture_output=True, env=env, timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert err.splitlines() == [
        f"error: {prefix}number of 5000 digits is too long (at offset {offset})"]
    assert "Traceback" not in err


def test_bad_usage_exit_code(capsys):
    code, _, err = run_cli(capsys, "no-such-command", "u + v")
    assert code == 1


@pytest.mark.parametrize("options", [[], ["--local"]])
def test_polynomial_that_starts_with_minus_is_named_as_taken_for_an_option(capsys, options):
    # argparse reads a token with no space that starts with "-" as an option
    text = "-2*u^2-v^2"
    for argv in (["spectrum", text, *options], ["spectrum", *options, text]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: the polynomial '{text}' was taken for an option: put -- "
                       f"before it (the following arguments are required: poly)\n")
    code, out, err = run_cli(capsys, "spectrum", *options, "--", text)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "1 + 2 z^{1/2} + z"


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


@pytest.mark.parametrize("text", [
    "u^99999999999999999999",      # d does not fit a list index
    "u^1000000000000",             # a box of 10^12 points
    "u^1000000000000+v^2+w^2",     # a top simplex of 4 * 10^12 points
])
def test_box_too_large_to_hold_exits_2_at_once(text):
    # the box list is sized from d before any point is visited, so the
    # command fails in well under a second rather than scanning for hours
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "newtonspec", "spectrum", text],
        capture_output=True, env=env, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"too large" in proc.stderr, proc.stderr


def test_memory_error_exits_2_with_message(capsys, monkeypatch):
    import newtonspec.cli as cli

    def exhausted(model):
        raise MemoryError

    monkeypatch.setattr(cli, "toric_spectrum", exhausted)
    code, out, err = run_cli(capsys, "spectrum", "u + v")
    assert code == 2
    assert out == ""
    assert "too large" in err and "MemoryError" in err


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_running_out_of_memory_exits_2_with_message():
    # the child caps its own address space, and the boxes of
    # u^1000+v^1000+w^1000 outgrow it; the message needs memory of its own,
    # which the computation's data, still held by the traceback's frames,
    # could leave it without
    child = (
        "import resource, sys\n"
        "limit = 256 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from newtonspec.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", child, "milnor", "u^1000+v^1000+w^1000"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        "internal failure: the computation is too large for this machine (MemoryError: )"
    ]


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


def test_check_text_formats_no_series_for_passing_checks(capsys, monkeypatch):
    # the details of PASS lines are never printed, so none is built
    formatted = []
    to_text = SpectrumSeries.__str__

    def counted(self):
        formatted.append(self)
        return to_text(self)

    monkeypatch.setattr(SpectrumSeries, "__str__", counted)
    for p in acceptance_polys()[::9]:
        code, out, _ = run_cli(capsys, "check", str(p), "--vars", ",".join(p.names))
        assert code == 0 and "FAIL" not in out
    assert formatted == []
    code, out, _ = run_cli(capsys, "check", "--json", "u^2 + u^2*v^2 + v^2")
    details = {r["name"]: r["detail"] for r in json.loads(out)["results"]}
    assert details["box formula equals generating-series oracle"] == (
        "box 1 + 3 z^{1/2} + 3 z + z^{3/2} vs oracle 1 + 3 z^{1/2} + 3 z + z^{3/2}")
    assert formatted


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--json", "u^2 + u^2*v^2 + v^2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(r["ok"] for r in payload["results"])


# sha256 of the stdout of each series-printing command and of check, in
# text and in --json, over the acceptance corpus and then LOCAL_GERMS (see
# _pinned_digest); the bench gates hash the PASS lines of check only, and
# only these pins cover the details that check --json prints
PINNED_OUTPUTS = {
    ("spectrum", False):
        "3b9c7d7fd8ca344bd9f9cd25d37e82182d20cac6684222c7bc3ba5fa3a0810b5",
    ("spectrum", True):
        "febd2dcdf4f86e1588efe98e7f53942ad0c4fd1f359a0722907865a7124afd40",
    ("spec-infinity", False):
        "5a8d137560937a3ec7e4859e8f15e15453b0163018680536d3063c44d5a2afd8",
    ("spec-infinity", True):
        "8942b72793f1f9d76259a836eee702f7b4181cfdc7065d9ca6e20c2506c1e75d",
    ("delta", False):
        "c0cb0227fb531a24dfb05403d33f874f1afbc98b8ea463cbcbb2f163c5a9c350",
    ("delta", True):
        "82489df657edd21b64ab0f76bd096ea0cd51b8e4b1fab1c59e91f0363c67d6f4",
    ("ehrhart", False):
        "480b1ae50b3429ebd3b48cda9162a7275d92faa60a38cd09f30f09783da39c3b",
    ("ehrhart", True):
        "20ec9c6dfc05985b815ec8aee5c1692f40c110405dcd8c32f6309c74583c346e",
    ("orbifold", False):
        "7abc9a9a866ba53b2d665b78aeb342d9b4a688ab0efa6e1e52de643dfe2f8293",
    ("orbifold", True):
        "a5da133b972685394865a4e3c10aa07c5bacad0af739920bd4c776dcd3356a0c",
    ("milnor", False):
        "a6bbb1b447dafc1fa6dbf182e8457b92166dc7c3f0e12bc2e0206cd749515a31",
    ("milnor", True):
        "ee28008f918b1d94f4f1a1611e2f6e77fbe2479b795076e3fd8c1388b9db527b",
    ("check", False):
        "331b3210d0edca5ce7f49515f09283c1b54eee3da6de2d343700b3e1c37c77cd",
    ("check", True):
        "012622993f7d0e4b469299dafdff58da510ffdc424224b49d3797af51ba60da9",
}


def _pinned_digest(capsys, command, as_json):
    """One sha256 over the exit code and stdout of ``command`` on every
    corpus input and local germ, in that order."""
    flags = ["--json"] if as_json else []
    calls = [[str(p), "--vars", ",".join(p.names)] for p in acceptance_polys()]
    calls += [[germ, "--local"] for germ in LOCAL_GERMS]
    digest = hashlib.sha256()
    for argv in calls:
        code = main([command, *argv, *flags])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "command,as_json", list(PINNED_OUTPUTS),
    ids=[f"{c}-{'json' if j else 'text'}" for c, j in PINNED_OUTPUTS],
)
def test_series_outputs_are_pinned(capsys, command, as_json):
    assert _pinned_digest(capsys, command, as_json) == PINNED_OUTPUTS[command, as_json]
