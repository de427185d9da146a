"""Finitely supported series in z with exact rational exponents.

A :class:`SpectrumSeries` is a formal sum ``sum c_a * z**a`` with integer
coefficients and rational exponents, the value type of every spectrum,
Hodge-Deligne polynomial and delta-vector generating term in this
package.  Every exponent of a series is an integer numerator over one
positive denominator, the least one that serves all of them (1 for the
empty series), so equality, hashing and ordering are plain integer
operations.  Terms iterate in ascending exponent order, which keeps
every rendering and serialization deterministic.  ``fractions.Fraction``
exponents are built only for public accessors such as :meth:`items`.

The constructor is the one place where terms merge: it sums the
coefficients of equal exponents, drops zero sums, sorts and reduces the
denominator.  It takes either rational exponents or integer numerators
over a given denominator; the arithmetic methods hand it their raw
integer (numerator, coefficient) pairs and keep no accumulator of their
own.  Only :meth:`SpectrumSeries.shift`, which merges nothing, builds
its result directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Tuple, Union

ExponentLike = Union[Fraction, int, str]


def _ratio(x: ExponentLike) -> Tuple[int, int]:
    """(numerator, denominator) of a rational exponent, denominator > 0."""
    if type(x) is int:
        return x, 1
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f.numerator, f.denominator


def _over_one_denominator(pairs) -> Tuple[list, int]:
    """Rational (exponent, coefficient) pairs as integer numerators over
    the lcm of the exponents' denominators."""
    terms = [(_ratio(e), c) for e, c in pairs]
    den = lcm(*(d for (_, d), _ in terms))
    return [(num * (den // d), c) for (num, d), c in terms], den


def exponent_text(num: int, den: int) -> str:
    """num/den as ``str(Fraction(num, den))`` writes it."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class SpectrumSeries:
    """Integer linear combination of powers ``z**a`` with rational ``a``.

    Immutable by convention: all arithmetic returns fresh objects.  A
    genuine spectrum has nonnegative coefficients, but intermediate
    polynomials such as ``(z-1)**k`` factors are represented here too, so
    negativity is not enforced by the type.  The terms are held as
    ``{a * den: coefficient}`` over the least common denominator ``den``.
    """

    __slots__ = ("_den", "_terms")

    def __init__(self, terms: Union[Mapping, Iterable, None] = None, den: Optional[int] = None):
        """Merge ``terms``, a mapping or an iterable of (exponent,
        coefficient) pairs in which an exponent may repeat: the
        coefficients of equal exponents are summed, zero sums dropped, the
        terms sorted by exponent and the denominator reduced to the least
        one.  Without ``den`` the exponents are rationals (``Fraction``,
        ``int`` or ``str``); with it they are the integer numerators of
        exponents over ``den``, a positive integer.  Every arithmetic
        method but :meth:`shift` builds its result here."""
        items = () if terms is None else terms.items() if isinstance(terms, Mapping) else terms
        if den is None:
            items, den = _over_one_denominator(items)
        elif den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        data: dict = {}
        for k, c in items:
            data[k] = data.get(k, 0) + c
        keys = sorted(k for k, c in data.items() if c)
        g = gcd(den, *keys) if keys else den
        self._den = den // g
        self._terms = {k // g: data[k] for k in keys} if g > 1 else {k: data[k] for k in keys}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "SpectrumSeries":
        return cls()

    @classmethod
    def one(cls) -> "SpectrumSeries":
        return cls({0: 1}, 1)

    # -- inspection --------------------------------------------------

    @property
    def denominator(self) -> int:
        """The least common denominator of the exponents (1 when empty)."""
        return self._den

    def numerators(self, den: Optional[int] = None) -> Iterator[Tuple[int, int]]:
        """Terms as (exponent * den, coefficient) integer pairs, ascending
        exponent.  ``den`` defaults to :attr:`denominator` and must be a
        multiple of it."""
        if den is None or den == self._den:
            return iter(self._terms.items())
        scale, rest = divmod(den, self._den)
        if rest or scale < 1:
            raise ValueError(f"{den} is not a multiple of the denominator {self._den}")
        return ((k * scale, c) for k, c in self._terms.items())

    def items(self) -> Tuple[Tuple[Fraction, int], ...]:
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        den = self._den
        return tuple((Fraction(k, den), c) for k, c in self._terms.items())

    def exponents(self) -> Tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(k, den) for k in self._terms)

    def coefficient(self, exponent: ExponentLike, den: Optional[int] = None) -> int:
        """The coefficient of ``z**exponent``; with ``den``, of
        ``z**(exponent / den)`` for an integer ``exponent``."""
        num, d = (exponent, den) if den is not None else _ratio(exponent)
        k, rest = divmod(num * self._den, d)
        return 0 if rest else self._terms.get(k, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectrumSeries):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, tuple(self._terms.items())))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "SpectrumSeries") -> "SpectrumSeries":
        den = lcm(self._den, other._den)
        return SpectrumSeries(chain(self.numerators(den), other.numerators(den)), den)

    def __neg__(self) -> "SpectrumSeries":
        return SpectrumSeries({k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other: "SpectrumSeries") -> "SpectrumSeries":
        den = lcm(self._den, other._den)
        return SpectrumSeries(chain(
            self.numerators(den), ((k, -c) for k, c in other.numerators(den))
        ), den)

    def __mul__(self, other) -> "SpectrumSeries":
        if isinstance(other, int):
            return SpectrumSeries(
                ((k, other * c) for k, c in self._terms.items()), self._den
            )
        if isinstance(other, SpectrumSeries):
            den = lcm(self._den, other._den)
            right = list(other.numerators(den))
            return SpectrumSeries(
                ((k1 + k2, c1 * c2) for k1, c1 in self.numerators(den) for k2, c2 in right),
                den,
            )
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, exponent: ExponentLike, den: Optional[int] = None) -> "SpectrumSeries":
        """Multiply by ``z**exponent``; with ``den``, by
        ``z**(exponent / den)`` for an integer ``exponent``.  A shift keeps
        the terms sorted and distinct, so the result is built directly,
        its denominator reduced as the constructor reduces it."""
        num, d = (exponent, den) if den is not None else _ratio(exponent)
        new = lcm(self._den, d)
        a = num * (new // d)
        scale = new // self._den
        keys = [k * scale + a for k in self._terms]
        g = gcd(new, *keys)
        out = SpectrumSeries.__new__(SpectrumSeries)
        out._den = new // g
        out._terms = dict(zip([k // g for k in keys] if g > 1 else keys, self._terms.values()))
        return out

    def mul_one_minus_z_pow(self, k: int) -> "SpectrumSeries":
        """Exact product with ``(1 - z)**k``, expanded binomially."""
        if k < 0:
            raise ValueError("power must be nonnegative")
        den = self._den
        row = [(j * den, comb(k, j) * (-1) ** j) for j in range(k + 1)]
        return SpectrumSeries(
            ((e + step, c * w) for e, c in self._terms.items() for step, w in row), den
        )

    def eval_at_one(self) -> int:
        """Sum of coefficients; the total mass of a spectrum."""
        return sum(self._terms.values())

    def reflect(self, n: int) -> "SpectrumSeries":
        """Return ``z**n * self(1/z)``, i.e. send each exponent a to n - a."""
        top = n * self._den
        return SpectrumSeries({top - k: c for k, c in self._terms.items()}, self._den)

    def truncate_above(self, bound: ExponentLike) -> "SpectrumSeries":
        """Drop every term with exponent strictly greater than ``bound``."""
        num, d = _ratio(bound)
        top = num * self._den
        return SpectrumSeries(
            {k: c for k, c in self._terms.items() if k * d <= top}, self._den
        )

    def restrict_below(self, bound: ExponentLike) -> "SpectrumSeries":
        """Keep only terms with exponent strictly less than ``bound``."""
        num, d = _ratio(bound)
        top = num * self._den
        return SpectrumSeries(
            {k: c for k, c in self._terms.items() if k * d < top}, self._den
        )

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    # -- rendering / serialization ------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        den = self._den
        parts = []
        for i, (k, c) in enumerate(self._terms.items()):
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                if k == den:
                    zpart = "z"
                elif k % den == 0:
                    zpart = f"z^{k // den}"
                else:
                    zpart = f"z^{{{exponent_text(k, den)}}}"
                body = zpart if mag == 1 else f"{mag} {zpart}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SpectrumSeries({dict(self.items())!r})"

    def to_json(self) -> list:
        """Serialize as ``[{"exponent": "p/q", "coefficient": c}, ...]``."""
        den = self._den
        return [
            {"exponent": exponent_text(k, den), "coefficient": c}
            for k, c in self._terms.items()
        ]


def z_minus_one_pow(k: int) -> SpectrumSeries:
    """The polynomial ``(z - 1)**k``."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    return SpectrumSeries({j: comb(k, j) * (-1) ** (k - j) for j in range(k + 1)}, 1)


def one_minus_z_pow(k: int) -> SpectrumSeries:
    """The polynomial ``(1 - z)**k``."""
    return SpectrumSeries.one().mul_one_minus_z_pow(k)
