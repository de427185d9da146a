"""Command line interface.

One executable, one subcommand per computation, deterministic text on
stdout (the headline value first) and an optional JSON rendering.  Exit
codes: 0 success, 1 unusable input or a stdout closed by its reader,
2 internal consistency failure or a computation too large for the
machine (overflow, out of memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .ehrhart import (
    delta_from_counts,
    delta_from_spectrum,
    ehrhart_polynomial,
    orbifold_contributions,
    orbifold_dimensions,
)
from .errors import InputError, InternalCheckError
from .graded import product_table, quotient_basis
from .invariants import run_checks
from .poly import GLOBAL, LOCAL, parse_monomial, parse_polynomial
from .polytope import build_model
from .spectrum import milnor_number, spectrum_at_infinity, toric_spectrum

SCHEMA = 1

_COMMANDS = (
    "spectrum",
    "spec-infinity",
    "milnor",
    "delta",
    "ehrhart",
    "orbifold",
    "product-table",
    "volume",
    "check",
)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _ArgumentParser:
    """The parser, built once per process: argparse's parsers and
    formatters are reference cycles, which a fresh parser per call would
    leave to the cyclic garbage collector."""
    parser = _ArgumentParser(
        prog="newtonspec",
        description="Exact spectra, Milnor numbers, product tables and "
        "Ehrhart data from the Newton polytope of a convenient polynomial.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("poly", help="polynomial text, or path of a UTF-8 file holding one")
        s.add_argument("--local", action="store_true",
                       help="treat the input as a power-series germ at the origin")
        s.add_argument("--json", action="store_true", help="emit JSON instead of text")
        s.add_argument("--vars", default=None,
                       help="comma-separated variable order, e.g. --vars u,v")
        if name == "product-table":
            s.add_argument("--basis", default=None,
                           help="comma-separated monomial basis hint, e.g. "
                                "--basis \"1,u*v,u^2*v^2\"")
    return parser


def _load_text(arg: str) -> str:
    try:
        path = Path(arg)
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
    except (OSError, ValueError):
        pass
    return arg


def _parse_input(args):
    text = _load_text(args.poly)
    mode = LOCAL if args.local else GLOBAL
    var_order = None
    if args.vars:
        var_order = [v.strip() for v in args.vars.split(",") if v.strip()]
    return parse_polynomial(text, mode=mode, var_order=var_order)


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_spectrum(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    series = toric_spectrum(model)
    payload = {
        "schema": SCHEMA,
        "command": "spectrum",
        "mode": p.mode,
        "route": "box",
        "mu_P": model.normalized_volume(),
        "series": series.to_json(),
    }
    _emit(args, payload, [str(series), "route: box",
                          f"mu_P: {model.normalized_volume()}"])
    return 0


def _cmd_spec_infinity(args) -> int:
    p = _parse_input(args)
    series = spectrum_at_infinity(p)
    payload = {
        "schema": SCHEMA,
        "command": "spec-infinity",
        "mode": p.mode,
        "mu": series.eval_at_one(),
        "series": series.to_json(),
    }
    _emit(args, payload, [str(series), f"mu: {series.eval_at_one()}"])
    return 0


def _cmd_milnor(args) -> int:
    p = _parse_input(args)
    mu = milnor_number(p)
    payload = {"schema": SCHEMA, "command": "milnor", "mode": p.mode, "milnor": mu}
    _emit(args, payload, [str(mu)])
    return 0


def _cmd_volume(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    mu = model.normalized_volume()
    payload = {"schema": SCHEMA, "command": "volume", "mode": p.mode, "mu_P": mu}
    _emit(args, payload, [str(mu)])
    return 0


def _cmd_delta(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    series = toric_spectrum(model)
    delta = delta_from_spectrum(series, model.n)
    counted = delta_from_counts(model)
    if delta != counted:
        raise InternalCheckError(
            f"delta from spectrum {delta.entries} != delta from counts {counted.entries}"
        )
    payload = {
        "schema": SCHEMA,
        "command": "delta",
        "mode": p.mode,
        "delta": delta.to_json(),
        "mu_P": model.normalized_volume(),
    }
    _emit(args, payload, [str(delta), f"vector: {list(delta.entries)}"])
    return 0


def _cmd_ehrhart(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    series = toric_spectrum(model)
    delta = delta_from_spectrum(series, model.n)
    ehr = ehrhart_polynomial(delta)
    values = [[ell, ehr.evaluate(ell)] for ell in range(model.n + 2)]
    payload = {
        "schema": SCHEMA,
        "command": "ehrhart",
        "mode": p.mode,
        "delta": delta.to_json(),
        "binomial_terms": ehr.to_json(),
        "values": values,
    }
    lines = [str(ehr), f"delta: {delta}"]
    lines += [f"L({ell}) = {val}" for ell, val in values]
    _emit(args, payload, lines)
    return 0


def _cmd_orbifold(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    total = orbifold_dimensions(model)
    contribs = orbifold_contributions(model)
    payload = {
        "schema": SCHEMA,
        "command": "orbifold",
        "mode": p.mode,
        "series": total.to_json(),
        "contributions": [
            {"point": list(v), "series": s.to_json()} for v, s in contribs
        ],
    }
    lines = [str(total)]
    for v, s in contribs:
        lines.append(f"v=({','.join(str(x) for x in v)}): {s}")
    _emit(args, payload, lines)
    return 0


def _cmd_product_table(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    hint = None
    if args.basis:
        hint = [parse_monomial(tok.strip(), p.names)
                for tok in args.basis.split(",") if tok.strip()]
    basis = quotient_basis(p, model, basis_hint=hint)
    table = product_table(basis)
    from .poly import monomial_text

    labels = [monomial_text(v, p.names) for v in basis.elements]
    gradings = [str(model.newton_value(v)) for v in basis.elements]
    # the table is symmetric and most cells are the shared zero class:
    # render each nonzero class once, for both of its mirrored cells
    size = len(table)
    entries = [["0"] * size for _ in range(size)]
    for i, row in enumerate(table):
        for j in range(i, size):
            if row[j].terms:
                entries[i][j] = entries[j][i] = row[j].render(p.names)
    payload = {
        "schema": SCHEMA,
        "command": "product-table",
        "mode": p.mode,
        "basis": labels,
        "grading": gradings,
        "entries": entries,
    }
    lines = [
        "basis: " + ", ".join(labels),
        "grading: " + ", ".join(gradings),
    ]
    widths = [max(len(lbl), *map(len, col)) for lbl, col in zip(labels, zip(*entries))]
    head = max(len(lbl) for lbl in labels)
    lines.append(" " * head + " | " + " | ".join(map(str.ljust, labels, widths)))
    for lbl, row in zip(labels, entries):
        lines.append(lbl.ljust(head) + " | " + " | ".join(map(str.ljust, row, widths)))
    _emit(args, payload, lines)
    return 0


def _cmd_check(args) -> int:
    p = _parse_input(args)
    results = run_checks(p)
    ok = all(r.ok for r in results)
    payload = {
        "schema": SCHEMA,
        "command": "check",
        "mode": p.mode,
        "ok": ok,
        "results": [
            {"name": r.name, "ok": r.ok, "skipped": r.skipped, "detail": r.detail}
            for r in results
        ],
    }
    lines = []
    for r in results:
        if r.skipped:
            lines.append(f"SKIP {r.name} ({r.detail})")
        elif r.ok:
            lines.append(f"PASS {r.name}")
        else:
            lines.append(f"FAIL {r.name}: {r.detail}")
    lines.append("all checks passed" if ok else "some checks FAILED")
    _emit(args, payload, lines)
    return 0 if ok else 2


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "spec-infinity": _cmd_spec_infinity,
    "milnor": _cmd_milnor,
    "delta": _cmd_delta,
    "ehrhart": _cmd_ehrhart,
    "orbifold": _cmd_orbifold,
    "product-table": _cmd_product_table,
    "volume": _cmd_volume,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        print(f"internal failure: the computation is too large for this machine "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
