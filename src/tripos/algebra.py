"""Exact scalar and polynomial arithmetic.

Scalars are exact rationals: plain Python ``int`` or ``fractions.Fraction``
(both arbitrary precision, both canonical after reduction).  No floating
point is used anywhere in the package.

``QPoly`` is a dense univariate polynomial in ``q`` with exact rational
coefficients, stored lowest degree first.  The canonical form of the zero
polynomial is the empty coefficient tuple, so ``degree == len(coeffs) - 1``
holds for every nonzero polynomial.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import DigitLimitError, DimensionError

ExactRat = Union[int, Fraction]


def as_fraction(x: ExactRat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# A decimal token with an exponent, in the grammar Fraction() accepts; the
# group is the exponent field.
_DECIMAL_WITH_EXPONENT = re.compile(
    r"[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?e([-+]?\d+(?:_\d+)*)",
    re.IGNORECASE,
)


def parse_exact(text: str) -> ExactRat:
    """Parse an exact number such as ``-3``, ``7/2``, ``0.5`` or ``1e3``.

    Integral values come back as ``int``, others as ``Fraction``.  Raises
    ``ValueError`` for any text that is not such a number, a zero
    denominator included, and for an exponent past Python's int-to-str
    digit limit, which ``Fraction`` would expand into a huge power of ten.
    """
    try:
        # int() accepts only strings that Fraction() accepts too, gives the
        # same value and is about ten times faster; the rest go on below.
        return int(text)
    except ValueError:
        pass
    token = text.strip()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exp = _DECIMAL_WITH_EXPONENT.fullmatch(token)
    if limit and exp and abs(int(exp[1])) > limit:
        raise ValueError(f"exponent of {token!r} is past the {limit}-digit limit")
    try:
        f = Fraction(token)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {token!r}") from exc
    return int(f) if f.denominator == 1 else f


def format_exact(x: ExactRat) -> str:
    """Inverse of :func:`parse_exact`; integers print without a denominator.

    A number past Python's int-to-str digit limit raises ``DigitLimitError``.
    """
    try:
        if isinstance(x, Fraction) and x.denominator == 1:
            return str(x.numerator)
        return str(x)
    except ValueError as exc:
        raise DigitLimitError() from exc


def _strip(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class QPoly:
    """Immutable dense polynomial in q; ``coeffs[i]`` is the q^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ExactRat] = ()):
        object.__setattr__(self, "coeffs", _strip(list(coeffs)))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, QPoly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return QPoly()
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai == 0:
                    continue
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return QPoly(out)
        return QPoly([other * c for c in self.coeffs])

    def __rmul__(self, scalar) -> "QPoly":
        return QPoly([scalar * c for c in self.coeffs])

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = QPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        return QPoly([0] * k + list(self.coeffs))

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return " ".join(format_exact(c) for c in self.coeffs) if self.coeffs else "0"


QPoly.ZERO = QPoly()
QPoly.ONE = QPoly([1])
QPoly.Q = QPoly([0, 1])


@dataclass(frozen=True)
class GeqVerdict:
    """Outcome of a coefficientwise >= comparison.

    On failure, ``index`` is the smallest coefficient index where the
    difference goes negative and ``value`` is that negative coefficient.
    """

    holds: bool
    index: int | None = None
    value: ExactRat | None = None

    def __bool__(self) -> bool:
        return self.holds


def poly_geq_q(f: QPoly, g: QPoly) -> GeqVerdict:
    """Coefficientwise order: holds iff every coefficient of f - g is >= 0."""
    diff = f - g
    for i, c in enumerate(diff.coeffs):
        if c < 0:
            return GeqVerdict(False, i, c)
    return GeqVerdict(True)


# -- exact determinants ------------------------------------------------------


def _bareiss_int(m: list[list[int]]) -> int:
    """Fraction-free elimination on an integer matrix; returns det exactly."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                # Exact by the Bareiss identity: prev divides the numerator.
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_exact(matrix: Sequence[Sequence[ExactRat]]) -> ExactRat:
    """Exact determinant of a square matrix of rationals.

    Denominators are cleared row by row first, then an integer Bareiss
    elimination runs; intermediate values never leave the integers.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise DimensionError(
                f"determinant needs a square matrix, got a row of length "
                f"{len(row)} in a {n}-row matrix"
            )
    if n == 0:
        return 1
    scale = 1
    cleared: list[list[int]] = []
    for row in matrix:
        mult = lcm(*(as_fraction(x).denominator for x in row))
        scale *= mult
        cleared.append([int(x * mult) for x in row])
    det = _bareiss_int(cleared)
    if scale == 1:
        return det
    result = Fraction(det, scale)
    return int(result) if result.denominator == 1 else result


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Matrix product; works for rational and for QPoly entries alike."""
    if not a or not b:
        return []
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise DimensionError("inner dimensions do not match")
    cols = len(b[0])
    out = []
    for row in a:
        out.append(
            [reduce(lambda s, k: s + row[k] * b[k][j], range(1, inner), row[0] * b[0][j])
             for j in range(cols)]
        )
    return out
