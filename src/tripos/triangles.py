"""Generators for the triangular arrays and their associated matrices.

Two recurrence shapes are supported:

* three-term (arity 1, row n has n+1 entries):
  ``C[n][k] = C[n-1][k-1] + f(k) C[n-1][k] + g(k) C[n-1][k+1]``
* five-term (arity 2, row n has 2n+1 entries):
  ``A[n][k] = gamma(k) A[n-1][k-2] + e(k) A[n-1][k-1] + f(k) A[n-1][k]
  + g(k) A[n-1][k+1] + h(k) A[n-1][k+2]``

plus the constant-coefficient five-term variant whose k = 0 and k = 1 rows
use the separate weights alpha and beta.  Every generated triangle starts
from a single 1 in row 0; references outside the previous row contribute 0,
and in the five-term form the gamma term is active only for k >= 2 and the
e term only for k >= 1 (for constant schemes this is automatic, since the
corresponding references vanish anyway).

Row widths are exact: arity-1 triangles that are embedded in arity-2 form
keep their structural zero tails, so the pentadiagonal checkers can index
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from . import oracles
from .algebra import ExactRat, QPoly, format_exact, parse_exact
from .errors import (
    FileFormatError,
    OracleMismatchError,
    SchemeDomainError,
    SequenceRangeError,
    UnknownPresetError,
)


@dataclass(frozen=True)
class Triangle:
    """Jagged array with declared arity: row n holds exactly arity*n + 1 entries."""

    rows: tuple[tuple[ExactRat, ...], ...]
    arity: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if self.arity < 1:
            raise FileFormatError(f"arity must be >= 1, got {self.arity}")
        for n, row in enumerate(self.rows):
            if len(row) != self.arity * n + 1:
                raise FileFormatError(
                    f"row {n} has {len(row)} entries, expected {self.arity * n + 1}"
                )

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple[ExactRat, ...]:
        return self.rows[n]

    def entry(self, n: int, k: int) -> ExactRat:
        """Entry (n, k), with 0 outside the declared width."""
        if 0 <= n <= self.n_max and 0 <= k < len(self.rows[n]):
            return self.rows[n][k]
        return 0

    def to_matrix(self, nrows: int, ncols: int) -> list[list[ExactRat]]:
        """Dense truncation with rows padded (or cut) to ncols."""
        return [[self.entry(n, k) for k in range(ncols)] for n in range(nrows)]

    def serialize(self) -> str:
        lines = [f"# arity={self.arity} n_max={self.n_max}"]
        for row in self.rows:
            lines.append(" ".join(format_exact(x) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Triangle":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise FileFormatError("missing '# arity=<a> n_max=<n>' header line")
        header = dict(
            part.split("=", 1) for part in lines[0].lstrip("#").split() if "=" in part
        )
        try:
            arity = int(header["arity"])
            n_max = int(header["n_max"])
        except (KeyError, ValueError) as exc:
            raise FileFormatError(f"bad triangle header: {lines[0]!r}") from exc
        body = lines[1:]
        if len(body) != n_max + 1:
            raise FileFormatError(f"expected {n_max + 1} rows, found {len(body)}")
        try:
            rows = [tuple(parse_exact(tok) for tok in ln.split()) for ln in body]
        except ValueError as exc:
            raise FileFormatError(f"bad entry in triangle body: {exc}") from exc
        return cls(tuple(rows), arity)


# -- coefficient schemes ------------------------------------------------------


@dataclass(frozen=True)
class CoeffScheme:
    """Per-index coefficient provider: a constant, an affine map of k, or a table."""

    kind: str
    const: ExactRat = 0
    slope: ExactRat = 0
    intercept: ExactRat = 0
    values: tuple[ExactRat, ...] = ()
    start: int = 0

    @classmethod
    def constant(cls, c: ExactRat) -> "CoeffScheme":
        return cls("constant", const=c)

    @classmethod
    def affine(cls, slope: ExactRat, intercept: ExactRat) -> "CoeffScheme":
        """k -> slope*k + intercept."""
        return cls("affine", slope=slope, intercept=intercept)

    @classmethod
    def table(cls, values: Sequence[ExactRat], start: int = 0) -> "CoeffScheme":
        return cls("table", values=tuple(values), start=start)

    def at(self, k: int) -> ExactRat:
        if self.kind == "constant":
            return self.const
        if self.kind == "affine":
            return self.slope * k + self.intercept
        i = k - self.start
        if not 0 <= i < len(self.values):
            raise SchemeDomainError(
                f"table scheme covers [{self.start}, {self.start + len(self.values) - 1}]"
                f" but index {k} was requested"
            )
        return self.values[i]

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"constant": format_exact(self.const)}
        if self.kind == "affine":
            return {"affine": [format_exact(self.slope), format_exact(self.intercept)]}
        return {"table": [format_exact(v) for v in self.values], "start": self.start}

    @classmethod
    def from_dict(cls, d: dict) -> "CoeffScheme":
        """Inverse of :meth:`to_dict`; a malformed scheme raises ``FileFormatError``."""
        if not isinstance(d, dict):
            raise FileFormatError(f"coefficient scheme must be a JSON object, got {d!r}")
        if "constant" in d:
            return cls.constant(_scheme_value(d["constant"]))
        if "affine" in d:
            pair = d["affine"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise FileFormatError(
                    f"affine scheme needs a list [slope, intercept], got {pair!r}"
                )
            a, b = pair
            return cls.affine(_scheme_value(a), _scheme_value(b))
        if "table" in d:
            vals = d["table"]
            if not isinstance(vals, list):
                raise FileFormatError(f"table scheme needs a list of values, got {vals!r}")
            return cls.table([_scheme_value(v) for v in vals],
                             _scheme_value(d.get("start", 0), int))
        raise FileFormatError(f"unrecognized coefficient scheme: {d!r}")


def _scheme_value(value, parse=parse_exact):
    """``parse(str(value))`` for one scheme-file value, as ``FileFormatError``
    when it is not a number of the wanted kind."""
    try:
        return parse(str(value))
    except ValueError as exc:
        raise FileFormatError(f"bad coefficient scheme value {value!r}: {exc}") from exc


@dataclass(frozen=True)
class ConstParams:
    """Nonnegative constant weights of the five-term recurrence with special
    k = 0 (alpha) and k = 1 (beta) head terms."""

    alpha: ExactRat
    beta: ExactRat
    gamma: ExactRat
    e: ExactRat
    f: ExactRat
    g: ExactRat
    h: ExactRat

    def __post_init__(self):
        for name, v in self.as_dict().items():
            if v < 0:
                raise ValueError(f"parameter {name} must be nonnegative, got {v}")

    def as_tuple(self) -> tuple:
        return (self.alpha, self.beta, self.gamma, self.e, self.f, self.g, self.h)

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "e": self.e, "f": self.f, "g": self.g, "h": self.h,
        }


# -- generators ---------------------------------------------------------------


def from_three_term(f: CoeffScheme, g: CoeffScheme, n_max: int) -> Triangle:
    """Lower-triangular array from the three-term recurrence (arity 1)."""
    rows: list[list[ExactRat]] = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]

        def ref(k: int) -> ExactRat:
            return prev[k] if 0 <= k < len(prev) else 0

        row = [ref(k - 1) + f.at(k) * ref(k) + g.at(k) * ref(k + 1) for k in range(n + 1)]
        rows.append(row)
    return Triangle(tuple(tuple(r) for r in rows), 1)


def from_five_term(
    gamma: CoeffScheme,
    e: CoeffScheme,
    f: CoeffScheme,
    g: CoeffScheme,
    h: CoeffScheme,
    n_max: int,
) -> Triangle:
    """Array from the five-term recurrence (arity 2).

    The gamma term participates only for k >= 2 and the e term only for
    k >= 1; table schemes therefore never get queried below those indices.
    """
    rows: list[list[ExactRat]] = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]

        def ref(k: int) -> ExactRat:
            return prev[k] if 0 <= k < len(prev) else 0

        row = []
        for k in range(2 * n + 1):
            v = f.at(k) * ref(k) + g.at(k) * ref(k + 1) + h.at(k) * ref(k + 2)
            if k >= 1:
                v += e.at(k) * ref(k - 1)
            if k >= 2:
                v += gamma.at(k) * ref(k - 2)
            row.append(v)
        rows.append(row)
    return Triangle(tuple(tuple(r) for r in rows), 2)


def from_const_params(p: ConstParams, n_max: int) -> Triangle:
    """Constant-coefficient five-term array with alpha/beta head rows (arity 2)."""
    rows: list[list[ExactRat]] = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]

        def ref(k: int) -> ExactRat:
            return prev[k] if 0 <= k < len(prev) else 0

        row = [p.alpha * ref(0) + p.g * ref(1) + p.h * ref(2)]
        row.append(p.beta * ref(0) + p.f * ref(1) + p.g * ref(2) + p.h * ref(3))
        for k in range(2, 2 * n + 1):
            row.append(
                p.gamma * ref(k - 2) + p.e * ref(k - 1) + p.f * ref(k)
                + p.g * ref(k + 1) + p.h * ref(k + 2)
            )
        rows.append(row[: 2 * n + 1])
    return Triangle(tuple(tuple(r) for r in rows), 2)


# -- generalized binomial rows ------------------------------------------------


@lru_cache(maxsize=None)
def _bisnomial_row(n: int, s: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _bisnomial_row(n - 1, s)

    def at(i: int) -> int:
        return prev[i] if 0 <= i < len(prev) else 0

    return tuple(sum(at(k - j) for j in range(s + 1)) for k in range(s * n + 1))


def bisnomial_row(n: int, s: int) -> list[int]:
    """Coefficient row of (1 + x + ... + x^s)^n, built by the s+1-term recurrence."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_bisnomial_row(n, s))


def bisnomial(n: int, k: int, s: int) -> int:
    """Coefficient of x^k in (1 + x + ... + x^s)^n; 0 outside 0 <= k <= s*n."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if n < 0 or k < 0 or k > s * n:
        return 0
    return _bisnomial_row(n, s)[k]


def from_bisnomial(s: int, n_max: int) -> Triangle:
    """The s-Pascal triangle (arity s)."""
    return Triangle(tuple(tuple(bisnomial_row(n, s)) for n in range(n_max + 1)), s)


# -- row generating functions and associated matrices --------------------------


def row_poly(t: Triangle, n: int) -> QPoly:
    """Generating function of row n: sum_k t[n][k] q^k."""
    if not 0 <= n <= t.n_max:
        raise SequenceRangeError(f"row {n} not generated (n_max={t.n_max})")
    return QPoly(t.rows[n])


def row_polys(t: Triangle) -> list[QPoly]:
    return [QPoly(row) for row in t.rows]


def row_tail_poly(t: Triangle, n: int, k: int) -> QPoly:
    """Tail sum of row n from column k upward, as a polynomial in q."""
    if not 0 <= n <= t.n_max:
        raise SequenceRangeError(f"row {n} not generated (n_max={t.n_max})")
    row = t.rows[n]
    if k >= len(row):
        return QPoly.ZERO
    return QPoly([0] * k + list(row[k:]))


def row_tail_matrix(t: Triangle, nrows: int, ncols: int) -> list[list[QPoly]]:
    """Matrix of tail-sum polynomials; column 0 holds the row generating functions."""
    return [[row_tail_poly(t, n, k) for k in range(ncols)] for n in range(nrows)]


def q_power_matrix(nrows: int, ncols: int | None = None) -> list[list[QPoly]]:
    """Lower-triangular matrix with entry (i, j) = q^i for i >= j, else 0."""
    if ncols is None:
        ncols = nrows
    return [
        [QPoly([0] * i + [1]) if i >= j else QPoly.ZERO for j in range(ncols)]
        for i in range(nrows)
    ]


def recurrence_matrix(p: ConstParams, size: int) -> list[list[ExactRat]]:
    """Banded matrix J with A-bar_n = A_n J_n: first row (alpha, beta, gamma),
    then rows (..., h, g, f, e, gamma, ...) centered on the diagonal."""
    if size < 1:
        raise ValueError("size must be >= 1")
    band = {-2: p.h, -1: p.g, 0: p.f, 1: p.e, 2: p.gamma}
    m: list[list[ExactRat]] = []
    first = [0] * size
    for j, v in ((0, p.alpha), (1, p.beta), (2, p.gamma)):
        if j < size:
            first[j] = v
    m.append(first)
    for i in range(1, size):
        row = [0] * size
        for off, v in band.items():
            j = i + off
            if 0 <= j < size:
                row[j] = v
        m.append(row)
    return m


# -- presets --------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named triangle: how to generate it and how to validate it independently.

    ``schemes`` maps the requested n_max to the (f, g) pair of the three-term
    recurrence (table-backed presets need to know how far they will be read).
    ``validate`` receives the generated triangle and the largest row index to
    verify, and raises OracleMismatchError on any mismatch with its oracle.
    """

    name: str
    kind: str  # "three-term" | "bisnomial"
    schemes: Callable[[int], tuple[CoeffScheme, CoeffScheme]] | None = None
    s: int | None = None
    const_params: ConstParams | None = None
    validate: Callable[[Triangle, int], None] | None = None


def _head_tail_schemes(
    head: ExactRat, tail: ExactRat, g: ExactRat
) -> Callable[[int], tuple[CoeffScheme, CoeffScheme]]:
    """(f, g) pair where f has a distinct value at k = 0 and is constant after."""
    return lambda n_max: (
        CoeffScheme.table([head] + [tail] * n_max, 0),
        CoeffScheme.constant(g),
    )


def _check_column0(t: Triangle, upto: int, expected: list[int], what: str) -> None:
    got = [t.rows[n][0] for n in range(upto + 1)]
    if got != expected[: upto + 1]:
        raise OracleMismatchError(f"{what} column-0 mismatch: {got[:8]}...")


def _validate_pascal(t: Triangle, upto: int) -> None:
    for n in range(upto + 1):
        if list(t.rows[n]) != oracles.pascal_row(n):
            raise OracleMismatchError(f"pascal row {n} mismatch")


def _validate_stirling2(t: Triangle, upto: int) -> None:
    table = oracles.stirling2_triangle(upto + 1)
    for n in range(upto + 1):
        if list(t.rows[n]) != table[n]:
            raise OracleMismatchError(f"stirling2 row {n} mismatch")


def _validate_shapiro(t: Triangle, upto: int) -> None:
    for n in range(upto + 1):
        if list(t.rows[n]) != oracles.shapiro_row(n + 1):
            raise OracleMismatchError(f"shapiro row {n} mismatch")


def _validate_s_pascal(t: Triangle, upto: int) -> None:
    ones = [1] * (upto + 1)
    _check_column0(t, upto, ones, "s-pascal")
    for n in range(upto + 1):
        row = t.rows[n]
        if any(row[k] != row[len(row) - 1 - k] for k in range(len(row))):
            raise OracleMismatchError(f"s-pascal row {n} not symmetric")


def _const_schemes(f: ExactRat, g: ExactRat) -> Callable[[int], tuple[CoeffScheme, CoeffScheme]]:
    return lambda n_max: (CoeffScheme.constant(f), CoeffScheme.constant(g))


PRESETS: dict[str, Preset] = {
    "pascal": Preset(
        "pascal", "three-term",
        schemes=_const_schemes(1, 0),
        const_params=ConstParams(1, 1, 0, 1, 1, 0, 0),
        validate=_validate_pascal,
    ),
    "stirling2": Preset(
        "stirling2", "three-term",
        schemes=lambda n: (CoeffScheme.affine(1, 1), CoeffScheme.constant(0)),
        validate=_validate_stirling2,
    ),
    "aigner_catalan": Preset(
        "aigner_catalan", "three-term",
        schemes=_head_tail_schemes(1, 2, 1),
        const_params=ConstParams(1, 1, 0, 1, 2, 1, 0),
        validate=lambda t, upto: _check_column0(
            t, upto, oracles.catalan_numbers(upto), "aigner_catalan"
        ),
    ),
    "shapiro_catalan": Preset(
        "shapiro_catalan", "three-term",
        schemes=_const_schemes(2, 1),
        const_params=ConstParams(2, 1, 0, 1, 2, 1, 0),
        validate=_validate_shapiro,
    ),
    "motzkin": Preset(
        "motzkin", "three-term",
        schemes=_const_schemes(1, 1),
        const_params=ConstParams(1, 1, 0, 1, 1, 1, 0),
        validate=lambda t, upto: _check_column0(
            t, upto, oracles.motzkin_numbers(upto), "motzkin"
        ),
    ),
    "bell": Preset(
        "bell", "three-term",
        schemes=lambda n: (CoeffScheme.affine(1, 1), CoeffScheme.affine(1, 1)),
        validate=lambda t, upto: _check_column0(
            t, upto, oracles.bell_numbers(upto), "bell"
        ),
    ),
    "schroder_large": Preset(
        "schroder_large", "three-term",
        schemes=_head_tail_schemes(2, 3, 2),
        const_params=ConstParams(2, 1, 0, 1, 3, 2, 0),
        validate=lambda t, upto: _check_column0(
            t, upto, oracles.large_schroder_numbers(upto), "schroder_large"
        ),
    ),
    "s_pascal": Preset("s_pascal", "bisnomial", validate=_validate_s_pascal),
}

PRESET_NAMES = tuple(sorted(PRESETS))

VALIDATE_ROWS = 20  # every build cross-checks at most this many rows


def preset(name: str, s: int | None = None) -> Preset:
    if name not in PRESETS:
        raise UnknownPresetError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    p = PRESETS[name]
    if name == "s_pascal":
        if s is None or s < 1:
            raise UnknownPresetError("preset s_pascal needs a positive s")
        return Preset(p.name, p.kind, s=s, validate=p.validate)
    return p


def build_preset(name: str, n_max: int, s: int | None = None, validate: bool = True) -> Triangle:
    """Generate a preset triangle, cross-checking it against its oracle.

    Validation runs on min(n_max, VALIDATE_ROWS) rows unless disabled.
    """
    p = preset(name, s)
    if p.kind == "bisnomial":
        t = from_bisnomial(p.s, n_max)
    else:
        f, g = p.schemes(n_max)
        t = from_three_term(f, g, n_max)
    if validate and p.validate is not None:
        p.validate(t, min(n_max, VALIDATE_ROWS))
    return t
