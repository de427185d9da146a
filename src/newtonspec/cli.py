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
from typing import Callable, Iterable

from .ehrhart import (
    delta_from_counts,
    delta_from_spectrum,
    ehrhart_polynomial,
    orbifold_contributions,
    orbifold_dimensions,
)
from .errors import InputError, InternalCheckError
from .graded import product_rows, quotient_basis
from .invariants import run_checks
from .poly import GLOBAL, LOCAL, monomial_text, parse_monomial, parse_polynomial
from .polytope import build_model
from .series import exponent_text
from .spectrum import milnor_number, spectrum_at_infinity, toric_spectrum

SCHEMA = 1

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
    for name in _DISPATCH:
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


def _emit(args, payload: Callable[[], dict], text: Callable[[], Iterable[str]]) -> None:
    """Print the JSON of ``payload()`` with ``--json``, after the schema,
    the command and the mode, else the lines of ``text()``: each is built
    only when it is printed."""
    if args.json:
        head = {"schema": SCHEMA, "command": args.command, "mode": LOCAL if args.local else GLOBAL}
        print(json.dumps({**head, **payload()}, indent=2))
    else:
        for line in text():
            print(line)


def _cmd_spectrum(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    series = toric_spectrum(model)
    _emit(args, lambda: {
        "route": "box",
        "mu_P": model.normalized_volume(),
        "series": series.to_json(),
    }, lambda: [str(series), "route: box", f"mu_P: {model.normalized_volume()}"])
    return 0


def _cmd_spec_infinity(args) -> int:
    p = _parse_input(args)
    series = spectrum_at_infinity(build_model(p))
    _emit(args, lambda: {
        "mu": series.eval_at_one(),
        "series": series.to_json(),
    }, lambda: [str(series), f"mu: {series.eval_at_one()}"])
    return 0


def _cmd_milnor(args) -> int:
    p = _parse_input(args)
    mu = milnor_number(build_model(p))
    _emit(args, lambda: {"milnor": mu}, lambda: [str(mu)])
    return 0


def _cmd_volume(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    mu = model.normalized_volume()
    _emit(args, lambda: {"mu_P": mu}, lambda: [str(mu)])
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
    _emit(args, lambda: {
        "delta": delta.to_json(),
        "mu_P": model.normalized_volume(),
    }, lambda: [str(delta), f"vector: {list(delta.entries)}"])
    return 0


def _cmd_ehrhart(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    series = toric_spectrum(model)
    delta = delta_from_spectrum(series, model.n)
    ehr = ehrhart_polynomial(delta)
    values = [[ell, ehr.evaluate(ell)] for ell in range(model.n + 2)]
    _emit(args, lambda: {
        "delta": delta.to_json(),
        "binomial_terms": ehr.to_json(),
        "values": values,
    }, lambda: [str(ehr), f"delta: {delta}", *(f"L({ell}) = {val}" for ell, val in values)])
    return 0


def _cmd_orbifold(args) -> int:
    p = _parse_input(args)
    model = build_model(p)
    # the series reads the model's value histograms; the printed terms
    # walk the boxes of the top simplices, once
    total = orbifold_dimensions(model)
    contribs = orbifold_contributions(model)
    _emit(args, lambda: {
        "series": total.to_json(),
        "contributions": [
            {"point": list(v), "series": s.to_json()} for v, s in contribs
        ],
    }, lambda: [str(total), *(f"v=({','.join(map(str, v))}): {s}" for v, s in contribs)])
    return 0


def _cmd_product_table(args) -> int:
    """The product table of the quotient basis, streamed.

    The table is symmetric, most cells are zero and every cell of one
    product monomial holds the same class object.  So ``product_rows``
    gives the nonzero cells of the upper triangle, from which the
    symmetric sparse rows ``{col: text}`` are built, each distinct class
    rendered once, memoised by identity (the rows and the basis keep every
    class alive); no grid of classes is built.  The memo starts with the
    labels of the basis elements' unit classes, so only a class of a
    reduced pivot row is rendered.  A column is as wide as its
    label or its longest nonzero text: a "0" never sets a width, as no
    label is empty.  Each text row copies the padded "0" cells,
    overwrites its nonzero ones and is written at once, so no grid of
    cell strings and no list of lines is held; ``--json`` builds its
    ``entries`` grid from the same rows.
    """
    p = _parse_input(args)
    model = build_model(p)
    hint = None
    if args.basis:
        hint = [parse_monomial(tok.strip(), p.names)
                for tok in args.basis.split(",") if tok.strip()]
    basis = quotient_basis(p, model, basis_hint=hint)
    labels = [monomial_text(v, p.names) for v in basis.elements]
    scale = model.value_scale
    gradings = [exponent_text(key, scale) for key in basis.keys]
    rows = [{} for _ in labels]
    # a basis element's own class is written as its label
    texts = {id(unit): label for unit, label in zip(basis.units, labels)}
    for i, classes in enumerate(product_rows(basis)):
        cells = rows[i]
        for j, cls in classes.items():
            text = texts.get(id(cls))
            if text is None:
                text = texts[id(cls)] = cls.render(p.names)
            cells[j] = rows[j][i] = text
    if args.json:
        _emit(args, lambda: {
            "basis": labels,
            "grading": gradings,
            "entries": [[cells.get(j, "0") for j in range(len(rows))] for cells in rows],
        }, tuple)
        return 0
    # column j holds row j's texts, the table being symmetric
    widths = [max([len(lbl), *map(len, cells.values())]) for lbl, cells in zip(labels, rows)]
    head = max(map(len, labels))
    zeros = list(map("0".ljust, widths))
    write = sys.stdout.write
    write("basis: " + ", ".join(labels) + "\n")
    write("grading: " + ", ".join(gradings) + "\n")
    write(" " * head + " | " + " | ".join(map(str.ljust, labels, widths)) + "\n")
    for lbl, cells in zip(labels, rows):
        line = zeros.copy()
        for j, text in cells.items():
            line[j] = text.ljust(widths[j])
        write(lbl.ljust(head) + " | " + " | ".join(line) + "\n")
    return 0


def _cmd_check(args) -> int:
    p = _parse_input(args)
    results = run_checks(p)
    ok = all(r.ok for r in results)
    lines = []
    for r in results:
        if r.skipped:
            lines.append(f"SKIP {r.name} ({r.detail})")
        elif r.ok:
            lines.append(f"PASS {r.name}")
        else:
            lines.append(f"FAIL {r.name}: {r.detail}")
    lines.append("all checks passed" if ok else "some checks FAILED")
    # every detail is built in the payload; text builds those of FAIL and SKIP only
    _emit(args, lambda: {
        "ok": ok,
        "results": [
            {"name": r.name, "ok": r.ok, "skipped": r.skipped, "detail": r.detail}
            for r in results
        ],
    }, lambda: lines)
    return 0 if ok else 2


# the subcommands, in the order the help lists them
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


def _parse_args(parser: _ArgumentParser, argv) -> argparse.Namespace:
    """The parsed argv.  No option starts with "-" and a digit, so such a
    token in a refused argv is a polynomial, say -2*u^2-v^2, read as one."""
    try:
        return parser.parse_args(argv)
    except InputError as exc:
        for token in argv:
            if token[:1] == "-" and token[1:2].isdecimal():
                raise InputError(f"the polynomial {token!r} was taken for an option: "
                                 f"put -- before it ({exc})") from None
        raise


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
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
        # the frames of the traceback still hold the computation's data,
        # and so do those of the memory errors chained while its traceback
        # was built: drop them all, which allocates nothing, and write the
        # message, which needs memory, once the handler has let go
        exc.__traceback__ = exc.__context__ = None
        too_large = exc
    print(f"internal failure: the computation is too large for this machine "
          f"({type(too_large).__name__}: {too_large})", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
