"""Polynomial input: parsing, convenience checking, coordinate restriction.

The accepted grammar is deliberately small::

    poly   := term (('+'|'-') term)*
    term   := [coeff '*'?] factor*
    factor := var ('^' uint)? ('*')?
    coeff  := int | int '/' uint
    var    := letter (letter|digit)*

Whitespace separates tokens and is otherwise ignored.  Exponents are
nonnegative integers, coefficients are exact rationals.  In local mode a
constant term is rejected: the Newton polyhedron is built from the
support away from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError, NotConvenientError, PolynomialSyntaxError

GLOBAL = "global"
LOCAL = "local"

ExpVec = tuple  # tuple[int, ...], one entry per variable


@dataclass(frozen=True)
class Poly:
    """A finitely supported polynomial with exact rational coefficients.

    ``terms`` maps exponent vectors (tuples of nonnegative ints, one per
    variable) to nonzero Fraction coefficients.  Instances are treated as
    immutable values.
    """

    names: tuple
    terms: Mapping
    mode: str = GLOBAL

    def __post_init__(self):
        if self.mode not in (GLOBAL, LOCAL):
            raise InputError(f"unknown mode {self.mode!r}")
        n = len(self.names)
        for vec, coeff in self.terms.items():
            if len(vec) != n or any(e < 0 for e in vec):
                raise InputError(f"bad exponent vector {vec!r} for {n} variables")
            if coeff == 0:
                raise InputError("zero coefficient stored in Poly")
        if self.mode == LOCAL and (0,) * n in self.terms:
            raise InputError("constant term is not allowed in local mode")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def support(self) -> tuple:
        """Exponent vectors with nonzero coefficient, sorted."""
        return tuple(sorted(self.terms))

    def coefficient(self, vec) -> Fraction:
        return self.terms.get(tuple(vec), Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # canonical form: order terms and factors alphabetically by
        # variable name, so the rendering does not depend on the internal
        # variable order and a parse/serialize round trip is a fixed point
        order = sorted(range(len(self.names)), key=lambda i: self.names[i])
        sorted_names = tuple(self.names[i] for i in order)
        parts = []
        for key, vec in sorted(
            (tuple(v[i] for i in order), v) for v in self.terms
        ):
            c = self.terms[vec]
            mono = monomial_text(key, sorted_names)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                # a leading minus must bind to an integer to stay parseable
                if c > 0:
                    parts.append(body)
                elif mono == "1":
                    parts.append(f"-{body}")
                else:
                    parts.append(f"-1*{body}" if abs(c) == 1 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def monomial_text(vec, names) -> str:
    """Render an exponent vector as a monomial in the grammar's syntax."""
    factors = []
    for name, e in zip(names, vec):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


# -- tokenizer ---------------------------------------------------------

_PUNCT = {"+", "-", "*", "^", "/"}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        raise PolynomialSyntaxError(message, self.peek()[2])

    def parse(self):
        """Return (terms, names) with names in first-appearance order."""
        names: list = []
        raw: list = []  # (sign, coeff, [(var, exp), ...])
        sign = 1
        kind, _, _ = self.peek()
        if kind == "end":
            self.fail("empty polynomial")
        raw.append(self.parse_term(names, sign))
        while True:
            kind, val, _ = self.peek()
            if kind == "end":
                break
            if kind in ("+", "-"):
                self.advance()
                raw.append(self.parse_term(names, -1 if kind == "-" else 1))
            else:
                self.fail(f"expected '+' or '-', found {val!r}")
        return raw, tuple(names)

    def parse_term(self, names, sign):
        coeff = Fraction(sign)
        saw_anything = False
        kind, val, _ = self.peek()
        neg_coeff = False
        if kind == "-":
            # signed integer coefficient, e.g. the leading term "-2*u"
            nxt = self.tokens[self.pos + 1]
            if nxt[0] != "int":
                self.fail("expected a term")
            self.advance()
            neg_coeff = True
            kind, val, _ = self.peek()
        if kind == "int":
            self.advance()
            num = int(val)
            if self.peek()[0] == "/":
                self.advance()
                dkind, dval, doff = self.peek()
                if dkind != "int":
                    self.fail("expected denominator")
                self.advance()
                den = int(dval)
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", doff)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            if neg_coeff:
                coeff = -coeff
            if self.peek()[0] == "*":
                self.advance()
            saw_anything = True
        powers: dict = {}
        while self.peek()[0] == "var":
            _, name, _ = self.advance()
            if name not in names:
                names.append(name)
            exp = 1
            if self.peek()[0] == "^":
                self.advance()
                ekind, eval_, eoff = self.peek()
                if ekind == "-":
                    raise PolynomialSyntaxError("negative exponent", eoff)
                if ekind != "int":
                    self.fail("expected exponent")
                self.advance()
                exp = int(eval_)
            powers[name] = powers.get(name, 0) + exp
            if self.peek()[0] == "*":
                self.advance()
            saw_anything = True
        if not saw_anything:
            self.fail("expected a term")
        return coeff, powers


def parse_polynomial(text: str, mode: str = GLOBAL, var_order: Optional[Sequence[str]] = None) -> Poly:
    """Parse ``text`` into a :class:`Poly`.

    Equal exponent vectors are combined and zero coefficients dropped.
    Variables are ordered by first appearance unless ``var_order`` pins
    the order (it must then name each variable of the text, and each
    name once).
    """
    raw, seen = _Parser(text).parse()
    if var_order is not None:
        names = tuple(var_order)
        repeated = [v for i, v in enumerate(names) if v in names[:i]]
        if repeated:
            raise InputError(f"variable {repeated[0]} repeats in --vars list")
        unknown = [v for v in seen if v not in names]
        if unknown:
            raise InputError(f"variable(s) {', '.join(unknown)} not in --vars list")
    else:
        names = seen
    index = {name: i for i, name in enumerate(names)}
    terms: dict = {}
    for coeff, powers in raw:
        vec = [0] * len(names)
        for name, e in powers.items():
            vec[index[name]] = e
        vec = tuple(vec)
        total = terms.get(vec, Fraction(0)) + coeff
        if total:
            terms[vec] = total
        else:
            terms.pop(vec, None)
    return Poly(names=names, terms=terms, mode=mode)


def parse_monomial(text: str, names: Sequence[str]) -> ExpVec:
    """Parse a single monomial (coefficient one) over the given variables."""
    p = parse_polynomial(text, mode=GLOBAL, var_order=names)
    if len(p.terms) != 1:
        raise InputError(f"{text!r} is not a single monomial")
    vec, coeff = next(iter(p.terms.items()))
    if coeff != 1:
        raise InputError(f"{text!r} must have coefficient one")
    return vec


# -- structural operations ---------------------------------------------


def check_convenient(p: Poly):
    """Smallest pure-power exponent on each axis, or raise NotConvenientError.

    The polynomial is convenient when every variable u_i appears with a
    pure power u_i**k, k >= 1, in the support.  A polynomial with no
    variables raises InputError: it has no Newton polytope.
    """
    if p.nvars == 0:
        raise InputError("the polynomial has no variables, so it has no Newton polytope")
    found = [0] * p.nvars
    for vec in p.terms:
        nonzero = [i for i, e in enumerate(vec) if e]
        if len(nonzero) == 1:
            i = nonzero[0]
            if found[i] == 0 or vec[i] < found[i]:
                found[i] = vec[i]
    missing = [p.names[i] for i, k in enumerate(found) if k == 0]
    if missing:
        raise NotConvenientError(missing)
    return found


def restrict(p: Poly, zero_set: Iterable[int]) -> Poly:
    """Set the variables with indices in ``zero_set`` to zero.

    Keeps the terms whose exponents vanish on ``zero_set`` and re-indexes
    them over the surviving variables.  Restricting away every variable
    is rejected; the caller owns that convention.
    """
    zeros = frozenset(zero_set)
    bad = [i for i in zeros if not 0 <= i < p.nvars]
    if bad:
        raise InputError(f"variable index {bad[0]} out of range")
    if len(zeros) == p.nvars:
        raise InputError("cannot restrict away every variable")
    keep = [i for i in range(p.nvars) if i not in zeros]
    terms = {}
    for vec, coeff in p.terms.items():
        if all(vec[i] == 0 for i in zeros):
            terms[tuple(vec[i] for i in keep)] = coeff
    return Poly(names=tuple(p.names[i] for i in keep), terms=terms, mode=p.mode)
