"""Property checkers for exact sequences and matrices.

Every checker returns a :class:`PropertyReport` rather than a bare boolean:
the report names the property, records the finite index range that was
actually certified, and on failure carries a witness pinpointing the first
violation.  Verdicts are decided by exact rational (or exact polynomial)
comparisons; there is no tolerance anywhere.

A verdict of ``inapplicable`` means a stated precondition of the property
(e.g. nonnegativity for log-concavity) failed, which is distinct from the
property itself failing.

``TRIANGLE_CHECKS`` maps each triangle check name to its checker; the CLI's
``check`` verb, the survey script and the tests all run checks through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Sequence

from .algebra import ExactRat, QPoly, det_exact, format_exact, poly_geq_q
from .errors import DimensionError, SequenceRangeError
from .triangles import Triangle, row_polys

HOLDS = "holds"
FAILS = "fails"
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class NumSeq:
    """Finite window of a rational sequence; ``values[0]`` has index ``offset``."""

    values: tuple[ExactRat, ...]
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SequenceRangeError("NumSeq must not be empty")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PolySeq:
    """Finite window of a polynomial sequence; ``polys[0]`` has index ``offset``."""

    polys: tuple[QPoly, ...]
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        if not self.polys:
            raise SequenceRangeError("PolySeq must not be empty")

    def __len__(self) -> int:
        return len(self.polys)


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of one property check over an explicit finite range.

    ``checked`` is the inclusive index window the verdict certifies (for
    matrix properties: the minor orders covered).  ``witness`` is present
    exactly when ``verdict == FAILS`` and records the first failure found;
    enumeration order is deterministic, so the witness is reproducible.
    """

    prop: str
    checked: tuple[int, int]
    verdict: str
    witness: dict | None = None
    note: str | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {k: _jsonable(v) for k, v in self.witness.items()}
        return {
            "property": self.prop,
            "checked": {"from": self.checked[0], "to": self.checked[1]},
            "verdict": self.verdict,
            "witness": w,
            "note": self.note,
        }


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, QPoly):
        return str(v)
    if isinstance(v, (int, str)) or v is None:
        return v
    return format_exact(v)


# -- scalar sequences ---------------------------------------------------------


def _check_three_term(s: NumSeq, prop: str, concave: bool) -> PropertyReport:
    lo, hi = s.offset, s.offset + len(s) - 1
    for i, v in enumerate(s.values):
        if v < 0:
            return PropertyReport(
                prop, (lo, hi), INAPPLICABLE,
                witness={"index": s.offset + i, "value": v},
                note="sequence has a negative entry; property undefined",
            )
    # Fewer than three values: no interior index, vacuously true.
    vals = s.values
    for n in range(1, len(vals) - 1):
        mid = vals[n] * vals[n]
        outer = vals[n - 1] * vals[n + 1]
        bad = mid < outer if concave else mid > outer
        if bad:
            return PropertyReport(
                prop, (lo, hi), FAILS,
                witness={"index": s.offset + n, "lhs": mid, "rhs": outer},
            )
    return PropertyReport(prop, (lo, hi), HOLDS)


def is_log_concave(s: NumSeq) -> PropertyReport:
    """x_n^2 >= x_{n-1} x_{n+1} at every interior index of a nonneg sequence."""
    return _check_three_term(s, "log-concave", concave=True)


def is_log_convex(s: NumSeq) -> PropertyReport:
    """x_n^2 <= x_{n-1} x_{n+1} at every interior index of a nonneg sequence."""
    return _check_three_term(s, "log-convex", concave=False)


# -- polynomial sequences -----------------------------------------------------


def _kronecker(polys: Sequence[QPoly]) -> tuple[list[int], int]:
    """Pack polynomials for the pair test.

    If any coefficient is not exactly ``int``, every polynomial is first
    multiplied by D, the lcm of all coefficient denominators.  One common
    D > 0 scales both products of every pair by D^2, so no coefficient of
    their difference changes sign.  An all-``int`` sequence is packed as it
    stands.

    Returns each (scaled) f as f(2^w) and the guard word G with bit b set in
    each of the 2L-1 slots of width w = b + 1 that a product of two of them
    spans.  With M the largest scaled coefficient bit-length and L the
    longest length, every coefficient of a difference of two such products
    lies strictly between -2^b and 2^b for b = 2M + L.bit_length() + 1.  So
    G + X - Y writes each coefficient c as the slot digit 2^b + c with no
    borrow into the next slot, and its guard bit is set exactly when c >= 0.
    """
    rows = [p.coeffs for p in polys]
    if any(type(c) is not int for cs in rows for c in cs):
        d = lcm(*(c.denominator for cs in rows for c in cs))
        rows = [[c.numerator * (d // c.denominator) for c in cs] for cs in rows]
    bits = max((abs(c).bit_length() for cs in rows for c in cs), default=0)
    length = max(max(map(len, rows)), 1)
    b = 2 * bits + length.bit_length() + 1
    w = b + 1
    packed = []
    for cs in rows:
        v = 0
        for c in reversed(cs):
            v = (v << w) + c
        packed.append(v)
    slots = 2 * length - 1
    guard = ((1 << w * slots) - 1) // ((1 << w) - 1) << b
    return packed, guard


def _check_pairs(ps: PolySeq, prop: str, convex: bool, adjacent_only: bool) -> PropertyReport:
    """Shared engine for the (strong) q-log-convexity/-concavity checks.

    Checks f_{n-1} f_{m+1} >=_q f_n f_m (convex) or the reverse (concave)
    for all pairs m >= n with both ends inside the data window; the weak
    variants restrict to m == n.  Pairs are scanned in lexicographic (n, m)
    order so the reported witness is the least failure.

    Pairs are decided on Kronecker-packed integers (see :func:`_kronecker`);
    the first failing pair is then recomputed with ``QPoly`` products of the
    original polynomials, which gives its witness.  The outer product
    f_{n-1} f_{m+1} of pair (n, m) is the inner product of pair
    (n-1, m+1), so each row's packed inner products are carried into the
    next row; only the previous and the current row are kept.
    """
    polys = ps.polys
    lo, hi = ps.offset, ps.offset + len(polys) - 1
    packed, guard = _kronecker(polys)
    carried: dict[int, int] = {}
    for ni in range(1, len(polys) - 1):
        m_range = (ni,) if adjacent_only else range(ni, len(polys) - 1)
        row: dict[int, int] = {}
        for mi in m_range:
            outer = carried.get(mi + 1)
            if outer is None:
                outer = packed[ni - 1] * packed[mi + 1]
            inner = row[mi] = packed[ni] * packed[mi]
            d = guard + outer - inner if convex else guard + inner - outer
            if d & guard == guard:
                continue
            outer = polys[ni - 1] * polys[mi + 1]
            inner = polys[ni] * polys[mi]
            verdict = poly_geq_q(outer, inner) if convex else poly_geq_q(inner, outer)
            return PropertyReport(
                prop, (lo, hi), FAILS,
                witness={
                    "n": ps.offset + ni,
                    "m": ps.offset + mi,
                    "coeff_index": verdict.index,
                    "coeff": verdict.value,
                },
            )
        carried = row
    return PropertyReport(prop, (lo, hi), HOLDS)


def is_strongly_q_log_convex(ps: PolySeq) -> PropertyReport:
    return _check_pairs(ps, "strongly-q-log-convex", convex=True, adjacent_only=False)


def is_strongly_q_log_concave(ps: PolySeq) -> PropertyReport:
    return _check_pairs(ps, "strongly-q-log-concave", convex=False, adjacent_only=False)


def is_q_log_convex(ps: PolySeq) -> PropertyReport:
    return _check_pairs(ps, "q-log-convex", convex=True, adjacent_only=True)


def is_q_log_concave(ps: PolySeq) -> PropertyReport:
    return _check_pairs(ps, "q-log-concave", convex=False, adjacent_only=True)


# -- structured matrices ------------------------------------------------------


def toeplitz(s: NumSeq, size: int) -> list[list[ExactRat]]:
    """Lower-triangular Toeplitz window: entry (i, j) = a_{i-j} for i >= j."""
    if size > len(s):
        raise SequenceRangeError(
            f"toeplitz window {size} needs index {size - 1}, "
            f"sequence has {len(s)} values"
        )
    vals = s.values
    return [[vals[i - j] if i >= j else 0 for j in range(size)] for i in range(size)]


def hankel(s: NumSeq, size: int) -> list[list[ExactRat]]:
    """Hankel window: entry (i, j) = a_{i+j}; needs indices up to 2*size - 2."""
    if 2 * size - 1 > len(s):
        raise SequenceRangeError(
            f"hankel window {size} needs index {2 * size - 2}, "
            f"sequence has {len(s)} values"
        )
    vals = s.values
    return [[vals[i + j] for j in range(size)] for i in range(size)]


def _extension_index(ncols: int, j: int) -> tuple[list[tuple[int, ...]], list[list]]:
    """Column j-subsets in lexicographic order, and the Laplace terms that
    extend (j-1)-minors to them, transposed: ``ext[s]`` lists ``(c, t, neg)``
    for each column c outside the (j-1)-subset S of rank s, where t is the
    rank of S + {c} and ``neg`` marks the cofactor sign (-1)^(j-1+p) of c at
    position p of S + {c} in the expansion along the last row."""
    subsets = list(combinations(range(ncols), j))
    rank = {cols: s for s, cols in enumerate(combinations(range(ncols), j - 1))}
    ext = [[] for _ in rank]
    for t, cols in enumerate(subsets):
        for p, c in enumerate(cols):
            ext[rank[cols[:p] + cols[p + 1:]]].append((c, t, (j - 1 - p) % 2 == 1))
    return subsets, ext


def _extend(a: list[int], ext: list[list], table: list[int], size: int) -> list[int]:
    """The ``size`` j-minors of the rows behind ``table`` (their (j-1)-minors,
    by rank) plus row ``a``: each nonzero (j-1)-minor y on columns S adds
    ±a[c]*y to the minor on S + {c}, for each c outside S with a[c] != 0."""
    out = [0] * size
    for s, y in enumerate(table):
        if y:
            for c, t, neg in ext[s]:
                x = a[c]
                if x:
                    out[t] += x * (-y if neg else y)
    return out


def _first_negative_minor(
    rows: list[list[int]], ncols: int, r: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Row and column subsets of the least negative minor of order <= r, by
    (order, rows, cols), or ``None``.

    One depth-first walk by prefix visits the row subsets of each size in
    lexicographic order.  A node of j rows checks its j-minors over every
    column j-subset, by rank, extended from its parent's by :func:`_extend`.
    A negative minor at depth d is recorded with its first negative column
    subset; the walk then skips depths >= d but finishes the shallower ones,
    where a failure replaces it.  Each depth's :func:`_extension_index` is
    built when the walk first gets there; only the current prefix's tables
    are kept."""
    nrows, index = len(rows), [None]
    found, limit = None, r

    def walk(start: int, chosen: tuple[int, ...], table: list[int]):
        nonlocal found, limit
        depth = len(chosen) + 1
        if depth == len(index):
            index.append(_extension_index(ncols, depth))
        subsets, ext = index[depth]
        for i in range(start, nrows):
            minors = _extend(rows[i], ext, table, len(subsets))
            if min(minors) < 0:
                first = next(t for t, minor in enumerate(minors) if minor < 0)
                found, limit = (chosen + (i,), subsets[first]), depth - 1
                return
            if depth < limit and i + 1 < nrows:
                walk(i + 1, chosen + (i,), minors)
                if limit < depth:
                    return

    if r:
        walk(0, (), [1])
    return found


def _neville_passes(rows: Sequence[Sequence[int]]) -> bool:
    """Whether Neville elimination of the square integer matrix ``rows`` needs
    no row exchange, has only multipliers >= 0 and only diagonal pivots > 0.

    Column k is cleared from the bottom up: row i becomes p*row_i - x*row_{i-1}
    for x = row_i[k] != 0 and p = row_{i-1}[k], which must both be > 0, and is
    then divided by its gcd.  Each row so stays a positive multiple of the
    exact elimination's row, so every sign, multiplier and pivot test is the
    exact one, without a ``Fraction``.  Columns left of k are never read
    again, so only the tail right of k is updated."""
    a = [list(row) for row in rows]
    n = len(a)
    for k in range(n):
        for i in range(n - 1, k, -1):
            x = a[i][k]
            if x:
                p = a[i - 1][k]
                if x < 0 or p <= 0:
                    return False
                tail = [p * u - x * v for u, v in zip(a[i][k + 1:], a[i - 1][k + 1:])]
                g = gcd(*tail)
                a[i][k + 1:] = [u // g for u in tail] if g > 1 else tail
        if a[k][k] <= 0:
            return False
    return True


def _totally_nonnegative(rows: list[list[int]]) -> bool:
    """A certificate that the square integer matrix ``rows`` is nonsingular
    and totally nonnegative, so that every minor of every order is >= 0.

    Gasca & Peña, "Total positivity and Neville elimination", LAA 165 (1992):
    a nonsingular matrix is totally nonnegative iff the Neville elimination
    of it and of its transpose needs no row exchange, every multiplier is
    >= 0 and every diagonal pivot is > 0 (:func:`_neville_passes`).  A
    passing elimination has determinant equal to the product of its positive
    pivots, so a singular matrix always fails; ``False`` only means that the
    certificate does not apply."""
    return _neville_passes(rows) and _neville_passes(list(zip(*rows)))


def _shape(matrix: Sequence[Sequence]) -> tuple[int, int]:
    """Row and column counts of a matrix; a ragged one raises ``DimensionError``."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    for i, row in enumerate(matrix):
        if len(row) != ncols:
            raise DimensionError(
                f"row {i} has {len(row)} entries, row 0 has {ncols}"
            )
    return nrows, ncols


def _clear_rows(matrix: Sequence[Sequence[ExactRat]]) -> list[list[int]]:
    """Each row times the lcm of its entries' denominators, as integers."""
    cleared = []
    for row in matrix:
        mult = lcm(*(x.denominator for x in row))
        cleared.append([x.numerator * (mult // x.denominator) for x in row])
    return cleared


def is_tp_r(matrix: Sequence[Sequence[ExactRat]], r: int) -> PropertyReport:
    """Total positivity of order r: every minor of order <= r is nonnegative.

    The witness is the first negative minor by increasing order, then by
    lexicographic row and column subsets (:func:`_first_negative_minor`).
    Each row is scaled by the lcm of its denominators first, which keeps
    every minor's sign, so the scan runs on integers; the witness minor is
    then recomputed with :func:`det_exact` on the original entries.  A
    square matrix that :func:`_totally_nonnegative` certifies holds without
    the scan; every other matrix is scanned.
    """
    if r < 1:
        raise ValueError("minor order r must be >= 1")
    nrows, ncols = _shape(matrix)
    r_eff = min(r, nrows, ncols)
    note = None if r_eff == r else (
        f"r clamped from {r} to {r_eff} (matrix is {nrows}x{ncols})")
    cleared = _clear_rows(matrix)
    certified = nrows == ncols and _totally_nonnegative(cleared)
    found = None if certified else _first_negative_minor(cleared, ncols, r_eff)
    if found:
        rows, cols = found
        minor = det_exact([[matrix[i][j] for j in cols] for i in rows])
        return PropertyReport(
            "totally-positive", (1, r_eff), FAILS,
            witness={"rows": rows, "cols": cols, "minor": minor}, note=note)
    return PropertyReport("totally-positive", (1, r_eff), HOLDS, note=note)


def is_pf_r(s: NumSeq, r: int, window: int) -> PropertyReport:
    """Polya frequency of order r, certified on a finite Toeplitz window only."""
    report = is_tp_r(toeplitz(s, window), r)
    note = f"verdict for the {window}x{window} Toeplitz window only"
    if report.note:
        note = f"{note}; {report.note}"
    return replace(report, prop="polya-frequency", note=note)


def is_q_tp2(matrix: Sequence[Sequence[QPoly]]) -> PropertyReport:
    """Every 2x2 minor of a polynomial matrix is >=_q 0; a ragged matrix
    raises ``DimensionError``."""
    nrows, ncols = _shape(matrix)
    for rows in combinations(range(nrows), 2):
        for cols in combinations(range(ncols), 2):
            i1, i2 = rows
            j1, j2 = cols
            minor = matrix[i1][j1] * matrix[i2][j2] - matrix[i1][j2] * matrix[i2][j1]
            verdict = poly_geq_q(minor, QPoly.ZERO)
            if not verdict:
                return PropertyReport(
                    "q-totally-positive-2", (1, 2), FAILS,
                    witness={
                        "rows": rows, "cols": cols,
                        "coeff_index": verdict.index, "coeff": verdict.value,
                    },
                )
    return PropertyReport("q-totally-positive-2", (1, 2), HOLDS)


# -- the triangle checks ----------------------------------------------------------


def _rows_log_concave(t: Triangle, r: int) -> PropertyReport:
    """Every row log-concave; a failure names its row in the witness."""
    for n, row in enumerate(t.rows):
        report = is_log_concave(NumSeq(row))
        if not report.holds:
            return PropertyReport(
                "rows-log-concave", (0, t.n_max), report.verdict,
                witness={"row": n, **(report.witness or {})}, note=report.note,
            )
    return PropertyReport("rows-log-concave", (0, t.n_max), HOLDS)


def _row_gens(t: Triangle) -> PolySeq:
    return PolySeq(tuple(row_polys(t)))


# Check name -> checker of a triangle and a TP order r.  Only "tp" reads r; it
# checks the square truncation to rows and columns 0..n_max.
TRIANGLE_CHECKS: dict[str, Callable[[Triangle, int], PropertyReport]] = {
    "rows-log-concave": _rows_log_concave,
    "rowgen-strong-qlcx": lambda t, r: is_strongly_q_log_convex(_row_gens(t)),
    "rowgen-strong-qlcv": lambda t, r: is_strongly_q_log_concave(_row_gens(t)),
    "tp": lambda t, r: is_tp_r(t.to_matrix(t.n_max + 1, t.n_max + 1), r),
}
