"""Finitely supported series in z with exact rational exponents.

A :class:`SpectrumSeries` is a formal sum ``sum c_a * z**a`` with integer
coefficients and rational exponents, the value type of every spectrum,
Hodge-Deligne polynomial and delta-vector generating term in this
package.  Exponents are `fractions.Fraction` objects, always reduced, so
equality and ordering are exact; terms iterate in ascending exponent
order, which keeps every rendering and serialization deterministic.

The constructor is the one place where terms merge: it sums the
coefficients of equal exponents, drops zero sums and sorts.  The
arithmetic methods hand it their raw (exponent, coefficient) pairs and
keep no accumulator of their own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb
from typing import Iterable, Mapping, Tuple, Union

ExponentLike = Union[Fraction, int, str]


class SpectrumSeries:
    """Integer linear combination of powers ``z**a`` with rational ``a``.

    Immutable by convention: all arithmetic returns fresh objects.  A
    genuine spectrum has nonnegative coefficients, but intermediate
    polynomials such as ``(z-1)**k`` factors are represented here too, so
    negativity is not enforced by the type.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        """Merge ``terms``, a mapping or an iterable of (exponent,
        coefficient) pairs in which an exponent may repeat: the
        coefficients of equal exponents are summed, zero sums dropped and
        the terms sorted by exponent.  Every arithmetic method builds its
        result here."""
        data: dict[Fraction, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for expo, coeff in items:
                e = expo if type(expo) is Fraction else Fraction(expo)
                c = data.get(e, 0) + coeff
                if c:
                    data[e] = c
                elif e in data:
                    del data[e]
        self._terms = dict(sorted(data.items()))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "SpectrumSeries":
        return cls()

    @classmethod
    def one(cls) -> "SpectrumSeries":
        return cls({Fraction(0): 1})

    # -- inspection --------------------------------------------------

    def items(self) -> Tuple[Tuple[Fraction, int], ...]:
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        return tuple(self._terms.items())

    def exponents(self) -> Tuple[Fraction, ...]:
        return tuple(self._terms.keys())

    def coefficient(self, exponent: ExponentLike) -> int:
        return self._terms.get(Fraction(exponent), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def max_exponent(self) -> Fraction:
        return next(reversed(self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectrumSeries):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "SpectrumSeries") -> "SpectrumSeries":
        return SpectrumSeries(chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "SpectrumSeries":
        return SpectrumSeries({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "SpectrumSeries") -> "SpectrumSeries":
        return SpectrumSeries(chain(
            self._terms.items(), ((e, -c) for e, c in other._terms.items())
        ))

    def __mul__(self, other) -> "SpectrumSeries":
        if isinstance(other, int):
            return SpectrumSeries((e, other * c) for e, c in self._terms.items())
        if isinstance(other, SpectrumSeries):
            return SpectrumSeries(
                (e1 + e2, c1 * c2)
                for e1, c1 in self._terms.items()
                for e2, c2 in other._terms.items()
            )
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, exponent: ExponentLike) -> "SpectrumSeries":
        """Multiply by ``z**exponent``."""
        a = Fraction(exponent)
        return SpectrumSeries({e + a: c for e, c in self._terms.items()})

    def mul_one_minus_z_pow(self, k: int) -> "SpectrumSeries":
        """Exact product with ``(1 - z)**k``, expanded binomially."""
        if k < 0:
            raise ValueError("power must be nonnegative")
        row = [comb(k, j) * (-1) ** j for j in range(k + 1)]
        return SpectrumSeries(
            (e + j, c * w) for e, c in self._terms.items() for j, w in enumerate(row)
        )

    def eval_at_one(self) -> int:
        """Sum of coefficients; the total mass of a spectrum."""
        return sum(self._terms.values())

    def reflect(self, n: int) -> "SpectrumSeries":
        """Return ``z**n * self(1/z)``, i.e. send each exponent a to n - a."""
        return SpectrumSeries({n - e: c for e, c in self._terms.items()})

    def truncate_above(self, bound: ExponentLike) -> "SpectrumSeries":
        """Drop every term with exponent strictly greater than ``bound``."""
        b = Fraction(bound)
        return SpectrumSeries({e: c for e, c in self._terms.items() if e <= b})

    def restrict_below(self, bound: ExponentLike) -> "SpectrumSeries":
        """Keep only terms with exponent strictly less than ``bound``."""
        b = Fraction(bound)
        return SpectrumSeries({e: c for e, c in self._terms.items() if e < b})

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    # -- rendering / serialization ------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self._terms.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if e == 1:
                    zpart = "z"
                elif e.denominator == 1:
                    zpart = f"z^{e}"
                else:
                    zpart = f"z^{{{e}}}"
                body = zpart if mag == 1 else f"{mag} {zpart}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SpectrumSeries({dict(self._terms)!r})"

    def to_json(self) -> list:
        """Serialize as ``[{"exponent": "p/q", "coefficient": c}, ...]``."""
        return [
            {"exponent": str(e), "coefficient": c} for e, c in self._terms.items()
        ]

    @classmethod
    def from_json(cls, payload: Iterable[Mapping]) -> "SpectrumSeries":
        return cls({Fraction(t["exponent"]): int(t["coefficient"]) for t in payload})


def z_minus_one_pow(k: int) -> SpectrumSeries:
    """The polynomial ``(z - 1)**k``."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    return SpectrumSeries({Fraction(j): comb(k, j) * (-1) ** (k - j) for j in range(k + 1)})


def one_minus_z_pow(k: int) -> SpectrumSeries:
    """The polynomial ``(1 - z)**k``."""
    return SpectrumSeries.one().mul_one_minus_z_pow(k)
