"""Generators for the triangular arrays and their associated matrices.

Every triangle here follows one banded rule.  Row 0 is a single 1, and row
n holds arity*n + 1 entries

  ``T[n][k] = sum over band offsets d of w_d(k) T[n-1][k-d]``

where references outside row n-1 contribute 0.  The weight w_d(k) is read
for every k >= max(d, 0) of a row and never below (there T[n-1][k-d] lies
left of the row), so a table scheme that is too short raises
``SchemeDomainError``.  Head overrides replace single weights.  The public
generators only name the weights of their band:

* three-term (arity 1; offsets 1, 0, -1 with weights 1, f, g):
  ``C[n][k] = C[n-1][k-1] + f(k) C[n-1][k] + g(k) C[n-1][k+1]``
* five-term (arity 2; offsets 2..-2 with weights gamma, e, f, g, h):
  ``A[n][k] = gamma(k) A[n-1][k-2] + e(k) A[n-1][k-1] + f(k) A[n-1][k]
  + g(k) A[n-1][k+1] + h(k) A[n-1][k+2]``, so the gamma term is active only
  for k >= 2 and the e term only for k >= 1;
* constant five-term with the head overrides f(0) = alpha and e(1) = beta:
  ``A[n][0] = alpha A[n-1][0] + g A[n-1][1] + h A[n-1][2]`` and
  ``A[n][1] = beta A[n-1][0] + f A[n-1][1] + g A[n-1][2] + h A[n-1][3]``;
* s-Pascal (arity s; offsets 0..s, every weight 1): row n holds the
  coefficients of (1 + x + ... + x^s)^n.

``recurrence_matrix`` writes the constant band as a production matrix,
J[j][k] = w_{k-j}(k) with the heads applied, and each preset is described
once, by its constant weights or its (f, g) schemes.  The checks that run on
a generated triangle are registered in ``properties.TRIANGLE_CHECKS``.

Row widths are exact: arity-1 triangles that are embedded in arity-2 form
keep their structural zero tails, so the pentadiagonal checkers can index
uniformly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add, mul
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
            rows = [tuple(map(parse_exact, ln.split())) for ln in body]
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


# -- the banded generator ------------------------------------------------------

# Band offset d of each named five-term weight: w_d(k) multiplies T[n-1][k-d].
# The three-term recurrence is the band of e = 1, f and g.
FIVE_TERM_OFFSETS = {"gamma": 2, "e": 1, "f": 0, "g": -1, "h": -2}
SCHEME_NAMES = {"three-term": ("f", "g"), "five-term": tuple(FIVE_TERM_OFFSETS)}

_Band = dict[int, CoeffScheme]  # offset d -> scheme of the weight w_d
_Heads = dict[tuple[int, int], ExactRat]  # (d, k) -> value that replaces w_d(k)
_ONE = CoeffScheme.constant(1)


def _named_band(**schemes: CoeffScheme) -> _Band:
    return {FIVE_TERM_OFFSETS[name]: scheme for name, scheme in schemes.items()}


def _band_weights(band: _Band, heads: _Heads, width: int) -> dict[int, list[ExactRat]]:
    """w_d(k) for 0 <= k < width: 0 below k = max(d, 0), a head override
    ``heads[d, k]`` where one is given, else the scheme's value.  Schemes are
    read for k ascending, in band order at each k."""
    weights = {d: [0] * width for d in band}
    for k in range(width):
        for d, scheme in band.items():
            if k >= d:
                weights[d][k] = heads[d, k] if (d, k) in heads else scheme.at(k)
    return weights


def _banded(band: _Band, heads: _Heads, arity: int, n_max: int) -> Triangle:
    """Rows 0..n_max of T[n][k] = sum_d w_d(k) T[n-1][k-d] (see the module docstring).

    Each weight read multiplies its reference even where that is a 0 outside
    row n-1, so an entry is a ``Fraction`` exactly when one of its weights or
    references is.  A weight that is the ``int`` 1 wherever it is read is
    skipped, since 1 * x has the value and type of x.  An n_max below 0,
    which would leave no row, raises ``ValueError``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    weights = _band_weights(band, heads, arity * n_max + 1 if n_max > 0 else 0)
    for d, w in weights.items():
        if all(type(x) is int and x == 1 for x in w[max(d, 0):]):
            weights[d] = None
    hi, lo = max(band), min(band)
    rows = [(1,)]
    for n in range(1, n_max + 1):
        width = arity * n + 1
        # padded[hi + j] = T[n-1][j], and 0 outside row n-1
        padded = [0] * hi + list(rows[-1]) + [0] * (arity - lo)
        row = None
        for d, w in weights.items():
            terms = padded[hi - d:hi - d + width]
            if w is not None:
                terms = list(map(mul, w, terms))
            row = terms if row is None else list(map(add, row, terms))
        rows.append(tuple(row))
    return Triangle(tuple(rows), arity)


def _const_band(p: ConstParams) -> tuple[_Band, _Heads]:
    """Constant five-term band with the head overrides f(0) = alpha, e(1) = beta."""
    values = p.as_dict()
    band = {d: CoeffScheme.constant(values[name]) for name, d in FIVE_TERM_OFFSETS.items()}
    return band, {(0, 0): p.alpha, (1, 1): p.beta}


def from_three_term(f: CoeffScheme, g: CoeffScheme, n_max: int) -> Triangle:
    """Lower-triangular array from the three-term recurrence (arity 1)."""
    return _banded(_named_band(e=_ONE, f=f, g=g), {}, 1, n_max)


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
    # at each k, too-short tables are found in the order f, g, h, e, gamma
    return _banded(_named_band(f=f, g=g, h=h, e=e, gamma=gamma), {}, 2, n_max)


def from_const_params(p: ConstParams, n_max: int) -> Triangle:
    """Constant-coefficient five-term array with alpha/beta head rows (arity 2)."""
    return _banded(*_const_band(p), 2, n_max)


# -- generalized binomial rows ------------------------------------------------


def from_bisnomial(s: int, n_max: int) -> Triangle:
    """The s-Pascal triangle (arity s): row n holds the coefficients of
    (1 + x + ... + x^s)^n, the band of offsets 0..s with every weight 1."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    return _banded(dict.fromkeys(range(s + 1), _ONE), {}, s, n_max)


def bisnomial_row(n: int, s: int) -> list[int]:
    """Coefficient row of (1 + x + ... + x^s)^n, built by the s+1-term recurrence."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(from_bisnomial(s, n).rows[n])


def bisnomial(n: int, k: int, s: int) -> int:
    """Coefficient of x^k in (1 + x + ... + x^s)^n; 0 outside 0 <= k <= s*n."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if n < 0 or k < 0 or k > s * n:
        return 0
    return bisnomial_row(n, s)[k]


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


def q_power_matrix(size: int) -> list[list[QPoly]]:
    """Square lower-triangular matrix with entry (i, j) = q^i for i >= j, else 0."""
    return [
        [QPoly([0] * i + [1]) if i >= j else QPoly.ZERO for j in range(size)]
        for i in range(size)
    ]


def recurrence_matrix(p: ConstParams, size: int) -> list[list[ExactRat]]:
    """Production matrix J of the constant five-term band, with A-bar_n = A_n J_n:
    J[j][k] = w_{k-j}(k) with the heads applied, so the first row is
    (alpha, beta, gamma) and row j >= 1 is (..., h, g, f, e, gamma, ...)
    centered on the diagonal."""
    if size < 1:
        raise ValueError("size must be >= 1")
    weights = _band_weights(*_const_band(p), size)
    return [[weights[k - j][k] if k - j in weights else 0 for k in range(size)]
            for j in range(size)]


# -- presets --------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named triangle: its weights and how to validate it independently.

    The three-term presets give either ``const_params`` (the constant
    five-term weights, with gamma = h = 0) or the (f, g) pair ``schemes``;
    ``s_pascal`` gives ``s``.  ``validate`` receives the generated triangle
    and the largest row index to verify, and raises OracleMismatchError on
    any mismatch with its oracle.
    """

    name: str
    validate: Callable[[Triangle, int], None]
    const_params: ConstParams | None = None
    schemes: tuple[CoeffScheme, CoeffScheme] | None = None
    s: int | None = None


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


PRESETS: dict[str, Preset] = {
    "pascal": Preset("pascal", _validate_pascal, ConstParams(1, 1, 0, 1, 1, 0, 0)),
    "stirling2": Preset("stirling2", _validate_stirling2,
                        schemes=(CoeffScheme.affine(1, 1), CoeffScheme.constant(0))),
    "aigner_catalan": Preset(
        "aigner_catalan",
        lambda t, upto: _check_column0(
            t, upto, oracles.catalan_numbers(upto), "aigner_catalan"
        ),
        ConstParams(1, 1, 0, 1, 2, 1, 0),
    ),
    "shapiro_catalan": Preset("shapiro_catalan", _validate_shapiro,
                              ConstParams(2, 1, 0, 1, 2, 1, 0)),
    "motzkin": Preset(
        "motzkin",
        lambda t, upto: _check_column0(
            t, upto, oracles.motzkin_numbers(upto), "motzkin"
        ),
        ConstParams(1, 1, 0, 1, 1, 1, 0),
    ),
    "bell": Preset(
        "bell",
        lambda t, upto: _check_column0(
            t, upto, oracles.bell_numbers(upto), "bell"
        ),
        schemes=(CoeffScheme.affine(1, 1), CoeffScheme.affine(1, 1)),
    ),
    "schroder_large": Preset(
        "schroder_large",
        lambda t, upto: _check_column0(
            t, upto, oracles.large_schroder_numbers(upto), "schroder_large"
        ),
        ConstParams(2, 1, 0, 1, 3, 2, 0),
    ),
    "s_pascal": Preset("s_pascal", _validate_s_pascal),
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
        return replace(p, s=s)
    if s is not None:
        raise UnknownPresetError(f"preset {name} takes no s")
    return p


def build_preset(name: str, n_max: int, s: int | None = None) -> Triangle:
    """Generate a preset triangle, cross-checking it against its oracle.

    Validation runs on min(n_max, VALIDATE_ROWS) rows.
    """
    p = preset(name, s)
    if p.s is not None:
        t = from_bisnomial(p.s, n_max)
    elif p.schemes is not None:
        t = from_three_term(*p.schemes, n_max)
    else:
        # gamma = h = 0, so offsets -1..1 of the band generate it in arity 1
        band, heads = _const_band(p.const_params)
        t = _banded({d: band[d] for d in (1, 0, -1)}, heads, 1, n_max)
    p.validate(t, min(n_max, VALIDATE_ROWS))
    return t
