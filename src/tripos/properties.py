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

from collections.abc import Callable, Iterator, Sequence
from itertools import combinations
from math import gcd

from .algebra import ExactRat, QPoly, _shape, clear_rows, det_exact, format_exact, poly_geq_q
from .errors import SequenceRangeError
from .records import Record, replace
from .triangles import Triangle, row_polys

HOLDS = "holds"
FAILS = "fails"
INAPPLICABLE = "inapplicable"


class NumSeq(Record):
    """Finite window of a rational sequence; ``values[0]`` has index ``offset``."""

    values: tuple[ExactRat, ...]
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SequenceRangeError("NumSeq must not be empty")

    def __len__(self) -> int:
        return len(self.values)


class PolySeq(Record):
    """Finite window of a polynomial sequence; ``polys[0]`` has index ``offset``."""

    polys: tuple[QPoly, ...]
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        if not self.polys:
            raise SequenceRangeError("PolySeq must not be empty")

    def __len__(self) -> int:
        return len(self.polys)


class PropertyReport(Record):
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


def _kronecker(rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, int]], int, int]:
    """Pack integer coefficient rows for the pair test at the two points +-2^h.

    With M the largest coefficient bit-length and L the longest length,
    every coefficient d_i of a difference of two products lies strictly
    between -2^b and 2^b for b = 2M + L.bit_length() + 1.  Returns each row
    f as the pair (f(beta), f(-beta)) with beta = 2^h and
    h = ceil((b + 2) / 2), the guard word G with bit 2h - 1 set in each of
    the L slots of width 2h, and h.  With D+ and D- the difference at beta
    and at -beta, D+ + D- = 2 sum d_2i beta^2i holds the even coefficients
    and D+ - D- = 2 beta sum d_2i+1 beta^2i the odd ones.  Since
    |2 d_i| < 2^(2h-1), G + D+ + D- and (G << h) + D+ - D- hold each d_i as
    the slot digit 2^(2h-1) + 2 d_i with no borrow into the next slot, so
    its guard bit is set exactly when d_i >= 0.
    """
    bits = max((abs(c).bit_length() for cs in rows for c in cs), default=0)
    length = max(max(map(len, rows)), 1)
    b = 2 * bits + length.bit_length() + 1
    h = (b + 3) // 2  # ceil((b + 2) / 2)
    packed = []
    for cs in rows:
        plus = minus = 0
        for c in reversed(cs):
            plus, minus = (plus << h) + c, c - (minus << h)
        packed.append((plus, minus))
    w = 2 * h
    guard = ((1 << w * length) - 1) // ((1 << w) - 1) << w - 1
    return packed, guard, h


def _step(a: Sequence[int], beta: Sequence[int], x: Sequence[int],
          gamma: Sequence[int] = (), y: Sequence[int] = ()) -> list[int]:
    """a - beta x - gamma y for coefficient lists, with no trailing zero."""
    out = list(a)
    out += [0] * (max(len(beta) + len(x), len(gamma) + len(y)) - 1 - len(out))
    for p, z in ((beta, x), (gamma, y)):
        for t, w in enumerate(p):
            if w == 1:
                for i, v in enumerate(z, t):
                    out[i] -= v
            elif w:
                for i, v in enumerate(z, t):
                    out[i] -= w * v
    while out and not out[-1]:
        out.pop()
    return out


def _order(p: Sequence[int]) -> int:
    """Index of the lowest nonzero coefficient of a nonzero p."""
    return next(i for i, x in enumerate(p) if x)


def _divide(a: list[int], d: Sequence[int]) -> list[int] | None:
    """The quotient a / d of integer coefficient lists with no trailing zero
    (d nonzero), or ``None`` when it leaves a remainder or has a coefficient
    that is not an integer.  The quotient is formed from the top degree
    down, by the leading coefficient of d, so low zeros of d need no shift.
    It costs about len(d) operations per quotient coefficient."""
    if not a:
        return a
    *tail, lead = d
    size = len(a) - len(tail)
    if size <= 0:
        return None
    rest, out = list(a), [0] * size
    for i in reversed(range(size)):
        top = rest[i + len(tail)]
        x = top // lead
        if x * lead != top:
            return None
        out[i] = x
        if x:
            for t, y in enumerate(tail, i):
                rest[t] -= x * y
    return None if any(rest[:len(tail)]) else out


def _jacobi(rows: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """The Jacobi continued fraction of the moments rows[0], rows[1], ...
    (integer coefficient lists with no trailing zero, rows[0] = [c] with
    c > 0): one entry of J per row from row 1 on, beta_k from row 2k + 1 and
    gamma_{k+1} from row 2k + 2.

    J is the production matrix of the Stieltjes table L: L[n][0] = rows[n],
    L[n][n] = c and L[n+1][i] = L[n][i-1] + beta_i L[n][i] + gamma_{i+1} L[n][i+1]
    (Flajolet, Discrete Math. 32, 1980).  The table is kept scaled by
    columns, M[n][i] = gamma_1 ... gamma_i L[n][i], which is Chebyshev's
    algorithm: M[n][i] = M[n+1][i-1] - beta_{i-1} M[n][i-1] - gamma_{i-1} M[n][i-2]
    needs no division, and M[n][i] = 0 for n < i.  It is filled by
    anti-diagonals: row j gives M[j-i][i] for i = 1, 2, ... from the
    anti-diagonals j, j - 1 and j - 2.  The last step of row 2k + 1 gives
    beta_k M[k][k] and that of row 2k + 2 gives M[k+1][k+1] =
    gamma_{k+1} M[k][k], so each entry of J is one exact division by M[k][k],
    whose quotient is short.  So a walk that stops at row r has read no
    later row and filled O(r^2) entries.

    The walk ends at the first division that :func:`_divide` cannot make in
    integers: one with a remainder or with a quotient that is not an
    integer.  Rational moments are cleared by one common multiplier first
    (:func:`_check_pairs`); scaling every moment by one constant leaves J
    unchanged, so this loses no J that is integral.  An exact
    gamma_{k+1} = 0 ends J after beta_k.  A later row is a moment of
    that finite J exactly when its M in column k + 1 is zero; it then yields
    a zero entry, since the entries past the end of J may be taken as 0, and
    the walk ends at the first row that is not.
    """
    betas, gammas = [], [()]  # gammas[i] is gamma_i; gamma_0 is never read
    older, old = [], [rows[0]]  # anti-diagonals j - 2 and j - 1
    end = None  # k once gamma_{k+1} = 0
    for j in range(1, len(rows)):
        top = (j - 1) // 2 if end is None else end
        new = [rows[j]]
        for i in range(1, top + 2):
            new.append(_step(new[i - 1], betas[i - 1] if i <= len(betas) else (), old[i - 1],
                             gammas[i - 1], older[i - 2] if i > 1 else ()))
        last = new.pop()
        if end is not None:
            if last:
                return
            entry = last
        else:
            entry = _divide(last, old[top] if j % 2 else older[top])
            if entry is None:
                return
            if j % 2:
                betas.append(entry)
            else:
                gammas.append(entry)
                if entry:
                    new.append(last)
                else:
                    end = top
        yield entry
        older, old = old, new


def _jfraction_depth(rows: Sequence[Sequence[int]]) -> int:
    """A proof of the pairs R_{n-1} R_{m+1} >=_q R_n R_m with m + 1 <= 2K + 1
    of the rows R_0..R_N, integer coefficient lists, by their Jacobi
    continued fraction.

    Returns the depth K: the largest K for which R_0..R_min(2K+1, N) are the
    moments of a coefficientwise TP2 tridiagonal J whose entries past beta_K
    are 0; or -1 when R_0 is not a positive constant, or when
    beta_0 = R_1 / R_0 is not an integer polynomial >=_q 0, as for
    ``[[2], [1], []]``.  J is that of
    :func:`_jacobi`, cut after beta_K, which keeps the moments up to
    R_{2K+1}.  Its only 2x2 minors that can be negative are
    beta_{k-1} beta_k - gamma_k, so J is TP2 when these and every beta_k and
    gamma_k are >=_q 0; the entries are taken while they are.  Then the
    Stieltjes table L is TP2 (Chen, Liang & Wang, Linear Algebra Appl. 471,
    2015), so is the Hankel matrix (R_{i+j}) = L diag(gamma_1 ... gamma_k / R_0) L^T
    by Cauchy-Binet, and both steps use only sums of products, so they hold
    coefficientwise (Pétréolle, Sokal & Zhu, Mem. AMS 291, 2023).  The minor
    of the Hankel matrix on rows (n - 1, m) and columns (0, 1) is the pair
    (n, m).

    When the last row N = 2K is even and gives gamma_K, J may be cut after
    any beta_K >=_q 0 with beta_{K-1} beta_K >=_q gamma_K, since beta_K
    enters no moment below R_{2K+1}.  One exists when gamma_K = 0, or when
    beta_{K-1} != 0 has its lowest nonzero coefficient at a power of q no
    higher than gamma_K's: take gamma_K / (that coefficient), shifted down.
    """
    if len(rows[0]) != 1 or rows[0][0] <= 0:
        return -1
    depth, proved, beta, gamma = -1, 0, None, []
    for j, entry in enumerate(_jacobi(rows), 1):
        if min(entry, default=0) < 0:
            break
        if j % 2 == 0:
            gamma = entry
        elif beta is not None and max(_step(gamma, beta, entry), default=0) > 0:
            break  # gamma_k - beta_{k-1} beta_k has a positive coefficient
        else:
            beta, depth = entry, j // 2
        proved = j
    else:
        last = len(rows) - 1
        if proved == last and last % 2 == 0 and (
                not gamma or beta and _order(beta) <= _order(gamma)):
            depth = last // 2
    return depth


def _check_pairs(ps: PolySeq, prop: str, convex: bool, adjacent_only: bool) -> PropertyReport:
    """Shared engine for the (strong) q-log-convexity/-concavity checks.

    Checks f_{n-1} f_{m+1} >=_q f_n f_m (convex) or the reverse (concave)
    for all pairs m >= n with both ends inside the data window; the weak
    variants restrict to m == n.  Pairs are scanned in lexicographic (n, m)
    order so the reported witness is the least failure.

    The coefficient rows are made integers once: if any coefficient is not
    exactly ``int``, every polynomial is multiplied by D, the least common
    multiple of all coefficient denominators
    (:func:`~tripos.algebra.clear_rows` with ``common``).  One common D > 0
    scales both products of every pair by D^2, so no coefficient of their
    difference changes sign.  The certificate and the packing both read
    these rows.

    Pairs are decided on integers packed at +-2^h (see :func:`_kronecker`):
    each product is two half-width integer products, one per point, and a
    pair holds iff both guard words of its differences stay set.  The first
    failing pair is then recomputed with ``QPoly`` products of the original
    polynomials, which gives its witness.  The outer product f_{n-1} f_{m+1}
    of pair (n, m) is the inner product of pair (n-1, m+1), so each row's
    inner products, at both points, are carried into the next row; only the
    previous and the current row are kept.

    The strong convex check first runs :func:`_jfraction_depth`, on every
    sequence, and scans only the pairs with m + 1 > 2K + 1 that its depth K
    leaves, in the same order.  Every skipped pair holds, so the first
    failure scanned is still the least one.  The walk stops at the first
    entry of J that fails, so a sequence that fails early costs it little.
    """
    polys = ps.polys
    lo, hi = ps.offset, ps.offset + len(polys) - 1
    rows = [p.coeffs for p in polys]
    if any(type(c) is not int for cs in rows for c in cs):
        rows = clear_rows(rows, common=True)[0]
    first = 0
    if convex and not adjacent_only:
        first = 2 * _jfraction_depth(rows) + 1
    if first >= len(polys) - 1:
        return PropertyReport(prop, (lo, hi), HOLDS)
    packed, guard, h = _kronecker(rows)
    odd_guard = guard << h
    carried: dict[int, tuple[int, int]] = {}
    for ni in range(1, len(polys) - 1):
        m_range = (ni,) if adjacent_only else range(max(ni, first), len(polys) - 1)
        row: dict[int, tuple[int, int]] = {}
        for mi in m_range:
            outer = carried.get(mi + 1)
            if outer is None:
                (a, a_), (b, b_) = packed[ni - 1], packed[mi + 1]
                outer = a * b, a_ * b_
            (a, a_), (b, b_) = packed[ni], packed[mi]
            inner = row[mi] = a * b, a_ * b_
            x, y = (outer, inner) if convex else (inner, outer)
            plus, minus = x[0] - y[0], x[1] - y[1]
            if ((guard + plus + minus) & guard == guard
                    and (odd_guard + plus - minus) & odd_guard == odd_guard):
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
    """Lower-triangular Toeplitz window: entry (i, j) = a_{i-j} for i >= j.
    A size below 1 raises ``ValueError``."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > len(s):
        raise SequenceRangeError(
            f"toeplitz window {size} needs index {size - 1}, "
            f"sequence has {len(s)} values"
        )
    vals = s.values
    return [[vals[i - j] if i >= j else 0 for j in range(size)] for i in range(size)]


def hankel(s: NumSeq, size: int) -> list[list[ExactRat]]:
    """Hankel window: entry (i, j) = a_{i+j}; needs indices up to 2*size - 2.
    A size below 1 raises ``ValueError``."""
    if size < 1:
        raise ValueError("size must be >= 1")
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


def _extend(a: Sequence, ext: list[list], table: list, size: int) -> list:
    """The ``size`` j-minors (``int`` or ``QPoly``) of the rows behind ``table``
    (their (j-1)-minors, by rank) plus row ``a``: each nonzero (j-1)-minor y on
    columns S adds ±a[c]*y to the minor on S + {c}, for each c outside S with a[c] != 0."""
    out = [a[0] * 0] * size
    for s, y in enumerate(table):
        if y:
            for c, t, neg in ext[s]:
                x = a[c]
                if x:
                    if neg:
                        out[t] -= x * y
                    else:
                        out[t] += x * y
    return out


def _first_negative_minor(rows: Sequence[Sequence], ncols: int, r: int,
                          low: Callable | None = None, first: int = 1) -> tuple | None:
    """Row and column subsets of the least failing minor of order first..r,
    by (order, rows, cols), and that minor; or ``None``.  A minor fails when
    ``low`` of it is negative; by default ``low`` is the minor itself.

    The orders are searched one at a time, and the search stops at the first
    order with a failure.  For order d, a depth-first walk by prefix visits
    the row d-subsets in lexicographic order.  A prefix of j rows carries its
    j-minors over every column j-subset, by rank: row i itself for j = 1,
    else its parent's table extended by :func:`_extend`.  Tables of depth < d
    are built but not checked, a prefix that can no longer reach d rows is
    skipped, and the first negative d-minor by column subset ends the search.
    Every :func:`_extension_index` is built once per call; only the current
    prefix's tables are kept."""
    nrows = len(rows)
    index = [None] + [_extension_index(ncols, j) for j in range(1, first)]

    def walk(order: int, start: int, chosen: tuple[int, ...], table) -> tuple | None:
        depth = len(chosen) + 1
        subsets, ext = index[depth]
        for i in range(start, nrows - order + depth):
            minors = _extend(rows[i], ext, table, len(subsets)) if chosen else rows[i]
            if depth < order:
                found = walk(order, i + 1, chosen + (i,), minors)
                if found:
                    return found
                continue
            keys = minors if low is None else list(map(low, minors))
            if min(keys) < 0:
                t = next(t for t, key in enumerate(keys) if key < 0)
                return chosen + (i,), subsets[t], minors[t]
        return None

    for order in range(first, r + 1):
        index.append(_extension_index(ncols, order))
        found = walk(order, 0, (), None)
        if found:
            return found
    return None


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


def _production_tp(rows: Sequence[Sequence[int]], r: int) -> int:
    """The largest order c <= r for which the square integer matrix ``rows``
    is proved TP_c: it is a lower-triangular T with a positive diagonal whose
    production matrix P, T[j+1] = sum_i T[j][i] P[i], is tridiagonal, has
    entries >= 0 and has contiguous principal minors of order <= c that are
    >= 0.

    P is recovered in integers row by row, P[j] = (T[j+1] - sum_{i<j}
    T[j][i] P[i]) / T[j][j]; the certificate gives up at the first division
    with a remainder, negative entry or entry outside the band j-1..j+1.
    The minors follow D_{i..j} = P_jj D_{i..j-1} - P_{j-1,j} P_{j,j-1} D_{i..j-2}.
    Why this proves TP_c: every minor of a tridiagonal P is a product of
    off-diagonal entries and contiguous principal minors of no larger order,
    so P is TP_c; and T = diag(1, T') [T[0]; P], with T' the leading
    (N-1) x (N-1) block of T, whose production matrix is a block of P, so
    Cauchy-Binet and induction on N make T TP_c (Chen, Liang & Wang, Linear
    Algebra Appl. 471, 2015).  0 only means that the certificate does not
    apply."""
    n = len(rows)
    if any(rows[j][j] <= 0 or any(rows[j][j + 1:]) for j in range(n)):
        return 0
    band: list[tuple[int, int, int]] = []  # (P[j][j-1], P[j][j], P[j][j+1])
    for j in range(n - 1):
        t, d, below = rows[j], rows[j][j], rows[j + 1]
        entries = []
        for k in range(j + 2):
            x = below[k]
            for i in range(max(k - 1, 0), min(k + 2, j)):
                x -= t[i] * band[i][k - i + 1]
            p, rest = divmod(x, d)
            if rest or p < 0 or p and k < j - 1:
                return 0
            entries.append(p)
        band.append((entries[j - 1] if j else 0, entries[j], entries[j + 1]))
    couple = [0] + [band[j - 1][2] * band[j][0] for j in range(1, n - 1)]
    for i in range(n - 1):
        older, old = 0, 1  # D_{i..j-2} and D_{i..j-1}
        for j in range(i, min(i + r, n - 1)):
            older, old = old, band[j][1] * old - couple[j] * older
            if old < 0:
                r = j - i  # D_{i..j} has order j - i + 1
                break
    return r


def is_tp_r(matrix: Sequence[Sequence[ExactRat]], r: int) -> PropertyReport:
    """Total positivity of order r: every minor of order <= r is nonnegative.

    The witness is the first negative minor by increasing order, then by
    lexicographic row and column subsets (:func:`_first_negative_minor`).
    Each row is scaled by the least common multiple of its denominators
    first (:func:`~tripos.algebra.clear_rows`), which keeps every minor's
    sign, so the scan runs on integers; the witness minor is then recomputed
    with :func:`det_exact` on the original entries.  A square matrix that
    :func:`_production_tp` proves TP_r or :func:`_totally_nonnegative`
    certifies holds without the scan.  Every other matrix is scanned from
    the first order that :func:`_production_tp` leaves open, since no minor
    of a lower order can fail.
    """
    if r < 1:
        raise ValueError("minor order r must be >= 1")
    nrows, ncols = _shape(matrix)
    r_eff = min(r, nrows, ncols)
    note = None if r_eff == r else (
        f"r clamped from {r} to {r_eff} (matrix is {nrows}x{ncols})")
    cleared = clear_rows(matrix)[0]
    proved = _production_tp(cleared, r_eff) if nrows == ncols else 0
    found = None
    if proved < r_eff and not (nrows == ncols and _totally_nonnegative(cleared)):
        found = _first_negative_minor(cleared, ncols, r_eff, first=proved + 1)
    if found:
        rows, cols, _ = found
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
    """Every minor of order <= 2 of a polynomial matrix is >=_q 0, by :func:`_first_negative_minor`
    with each minor's least coefficient as ``low``; the witness is the least failing minor's first
    negative coefficient.  A ragged matrix raises ``DimensionError``."""
    nrows, ncols = _shape(matrix)
    found = _first_negative_minor(matrix, ncols, min(2, nrows, ncols),
                                  lambda p: min(p.coeffs, default=0))
    if found:
        rows, cols, minor = found
        verdict = poly_geq_q(minor, QPoly.ZERO)
        return PropertyReport("q-totally-positive-2", (1, 2), FAILS, witness={
            "rows": rows, "cols": cols, "coeff_index": verdict.index, "coeff": verdict.value})
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
