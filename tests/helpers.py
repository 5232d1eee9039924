"""Independent oracles and random-instance builders shared by the tests.

Everything here deliberately avoids the code paths it is used to check:
determinants come from the permutation expansion or from division-free
Gaussian elimination, generalized binomial rows from plain list
convolution, q-binomials from the q-Pascal recurrence.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable

from tripos.algebra import ExactRat, QPoly, poly_geq_q
from tripos.conditions import DOMAIN_START, ClauseResult, ConditionReport, ConditionResult
from tripos.properties import (
    FAILS,
    HOLDS,
    NumSeq,
    PropertyReport,
    is_log_concave,
    is_q_tp2,
    is_tp_r,
)
from tripos.records import replace
from tripos.triangles import CoeffScheme, ConstParams, row_tail_poly


def naive_det(m):
    """Permutation-expansion determinant (exact, O(n!))."""
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        total += -term if inversions % 2 else term
    return total


def gauss_det(m):
    """Determinant by division-free Gaussian elimination with row swaps
    (exact, O(n^3)); an integral value is returned as ``int``.

    Row i becomes p*row_i - x*row_k for the pivot p of column k, which
    multiplies the determinant by p; the product of those factors divides
    the product of the final diagonal."""
    a = [list(row) for row in m]
    n, num, den = len(a), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            num = -num
        p = a[k][k]
        num *= p
        for i in range(k + 1, n):
            x = a[i][k]
            if x:
                a[i] = [p * u - x * v for u, v in zip(a[i], a[k])]
                den *= p
    d = Fraction(num) / den
    return int(d) if d.denominator == 1 else d


def naive_first_negative_minor(m, r, first=1):
    """Brute-force scan of all minors of order first..r, in the checker's order.

    Each minor is evaluated with :func:`gauss_det`; a minor with a zero row
    or column is 0 and is skipped.
    """
    nrows, ncols = len(m), len(m[0])
    for order in range(first, min(r, nrows, ncols) + 1):
        for rows in combinations(range(nrows), order):
            for cols in combinations(range(ncols), order):
                sub = [[m[i][j] for j in cols] for i in rows]
                if all(map(any, sub)) and all(map(any, zip(*sub))):
                    d = gauss_det(sub)
                    if d < 0:
                        return rows, cols, d
    return None


def naive_first_failing_pair(polys, convex, adjacent_only):
    """Schoolbook pair scan in the checker's (n, m) order.

    Returns ``(n, m, coeff_index, coeff)`` of the least pair where
    f_{n-1} f_{m+1} >=_q f_n f_m (convex) or its reverse (concave) fails,
    with indices into ``polys``, or ``None`` when every pair holds.
    """
    for n in range(1, len(polys) - 1):
        for m in (n,) if adjacent_only else range(n, len(polys) - 1):
            outer = polys[n - 1] * polys[m + 1]
            inner = polys[n] * polys[m]
            verdict = poly_geq_q(outer, inner) if convex else poly_geq_q(inner, outer)
            if not verdict:
                return n, m, verdict.index, verdict.value
    return None


def naive_q_tp2(m, first=1):
    """Schoolbook check of the minors of order first..2 of a polynomial
    matrix, in the checker's order: each entry, then each a d - b c with
    :func:`poly_geq_q`, both by lexicographic (rows, cols).

    Returns ``(rows, cols, coeff_index, coeff)`` of the first minor that is
    not >=_q 0, or ``None`` when every one is.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    for i in range(nrows if first <= 1 else 0):
        for j in range(ncols):
            verdict = poly_geq_q(m[i][j], QPoly.ZERO)
            if not verdict:
                return (i,), (j,), verdict.index, verdict.value
    for rows in combinations(range(nrows), 2):
        for cols in combinations(range(ncols), 2):
            (i1, i2), (j1, j2) = rows, cols
            verdict = poly_geq_q(m[i1][j1] * m[i2][j2], m[i1][j2] * m[i2][j1])
            if not verdict:
                return rows, cols, verdict.index, verdict.value
    return None


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expansion_bisnomial_row(n, s):
    """Coefficients of (1 + x + ... + x^s)^n by repeated list convolution."""
    row = [1]
    base = [1] * (s + 1)
    for _ in range(n):
        row = convolve(row, base)
    return row


def naive_minor_form(n, m, s):
    """B_{n-1} B_{m+1} - B_n B_m as ``{(i, j): coeff}`` over products f_i f_j,
    i <= j, zero terms dropped; rows from :func:`expansion_bisnomial_row`."""
    form = {}
    for row_a, row_b, sign in (
        (expansion_bisnomial_row(n - 1, s), expansion_bisnomial_row(m + 1, s), 1),
        (expansion_bisnomial_row(n, s), expansion_bisnomial_row(m, s), -1),
    ):
        for i, x in enumerate(row_a):
            for j, y in enumerate(row_b):
                key = (min(i, j), max(i, j))
                form[key] = form.get(key, 0) + sign * x * y
    return {key: c for key, c in form.items() if c}


def gaussian_binomial(n, k):
    """q-binomial coefficient via the q-Pascal recurrence, as a QPoly."""
    if k < 0 or k > n:
        return QPoly.ZERO
    table = {(0, 0): QPoly.ONE}
    for m in range(1, n + 1):
        for j in range(0, min(m, k) + 1):
            if j == 0 or j == m:
                table[(m, j)] = QPoly.ONE
            else:
                table[(m, j)] = table[(m - 1, j - 1)] + QPoly([0] * j + [1]) * table[(m - 1, j)]
    return table[(n, k)]


# -- random structured instances -----------------------------------------------


def random_bidiagonal(rng: random.Random, size: int, lower: bool, hi: int = 4):
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        m[i][i] = rng.randint(0, hi)
    for i in range(size - 1):
        if lower:
            m[i + 1][i] = rng.randint(0, hi)
        else:
            m[i][i + 1] = rng.randint(0, hi)
    return m


def random_tp2_matrix(rng: random.Random, size: int):
    """Product of nonnegative bidiagonal factors; verified TP2 before use."""
    from tripos.algebra import mat_mul

    m = random_bidiagonal(rng, size, lower=rng.random() < 0.5)
    for _ in range(rng.randint(1, 2)):
        m = mat_mul(m, random_bidiagonal(rng, size, lower=rng.random() < 0.5))
    assert is_tp_r(m, 2).holds
    return m


def random_nonneg_poly(rng: random.Random, max_deg: int = 2, hi: int = 3) -> QPoly:
    return QPoly([rng.randint(0, hi) for _ in range(rng.randint(1, max_deg + 1))])


def random_q_tp2_matrix(rng: random.Random, size: int):
    """Product of bidiagonal polynomial factors; verified q-TP2 before use."""
    from tripos.algebra import mat_mul

    def factor():
        lower = rng.random() < 0.5
        m = [[QPoly.ZERO] * size for _ in range(size)]
        for i in range(size):
            m[i][i] = random_nonneg_poly(rng)
        for i in range(size - 1):
            if lower:
                m[i + 1][i] = random_nonneg_poly(rng)
            else:
                m[i][i + 1] = random_nonneg_poly(rng)
        return m

    m = factor()
    if rng.random() < 0.7:
        m = mat_mul(m, factor())
    assert is_q_tp2(m).holds
    return m


def fractions_between(low: int, high: int, max_denominator: int) -> tuple:
    """Every Fraction in [low, high] with a denominator <= max_denominator,
    which is what ``st.fractions`` with these bounds draws, smaller
    denominators and then smaller magnitudes first, so that ``sampled_from``
    draws one as a single index and shrinks towards the simplest."""
    values = {Fraction(p, q) for q in range(1, max_denominator + 1)
              for p in range(low * q, high * q + 1)}
    return tuple(sorted(values, key=lambda x: (x.denominator, abs(x), x)))


def has_internal_zero_gap(values) -> bool:
    """True when two or more consecutive zeros sit between positive entries.

    The classical log-concave <=> PF_2 equivalence fails exactly on such
    sequences (e.g. 2,0,0,1 is literally log-concave but not PF_2), so the
    randomized equivalence tests exclude them.
    """
    positives = [i for i, v in enumerate(values) if v > 0]
    if len(positives) < 2:
        return False
    for a, b in zip(positives, positives[1:]):
        if b - a >= 3 and all(v == 0 for v in values[a + 1:b]):
            return True
    return False


# -- schoolbook recurrences ------------------------------------------------------
#
# Each formula is written out term by term, as printed in the triangles module
# docstring; ``f``, ``g``, ... are callables k -> weight.  A term that the
# formula switches off below some k is never evaluated there, so table-backed
# weights are read exactly where the formula reads them.


def _ref(row, k):
    return row[k] if 0 <= k < len(row) else 0


def schoolbook_three_term(f, g, n_max):
    """C[n][k] = C[n-1][k-1] + f(k) C[n-1][k] + g(k) C[n-1][k+1], k = 0..n."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        c = rows[-1]
        rows.append([_ref(c, k - 1) + f(k) * _ref(c, k) + g(k) * _ref(c, k + 1)
                     for k in range(n + 1)])
    return rows


def schoolbook_five_term(gamma, e, f, g, h, n_max):
    """A[n][k] = gamma(k) A[n-1][k-2] + e(k) A[n-1][k-1] + f(k) A[n-1][k]
    + g(k) A[n-1][k+1] + h(k) A[n-1][k+2], k = 0..2n, with the gamma term
    only for k >= 2 and the e term only for k >= 1."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        a = rows[-1]
        row = []
        for k in range(2 * n + 1):
            v = f(k) * _ref(a, k) + g(k) * _ref(a, k + 1) + h(k) * _ref(a, k + 2)
            if k >= 1:
                v += e(k) * _ref(a, k - 1)
            if k >= 2:
                v += gamma(k) * _ref(a, k - 2)
            row.append(v)
        rows.append(row)
    return rows


def schoolbook_alpha_beta(p, n_max):
    """Constant five-term rows with the alpha/beta heads:
    A[n][0] = alpha A[n-1][0] + g A[n-1][1] + h A[n-1][2],
    A[n][1] = beta A[n-1][0] + f A[n-1][1] + g A[n-1][2] + h A[n-1][3],
    and the five-term formula for k >= 2."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        a = rows[-1]
        row = [p.alpha * _ref(a, 0) + p.g * _ref(a, 1) + p.h * _ref(a, 2),
               p.beta * _ref(a, 0) + p.f * _ref(a, 1) + p.g * _ref(a, 2) + p.h * _ref(a, 3)]
        for k in range(2, 2 * n + 1):
            row.append(p.gamma * _ref(a, k - 2) + p.e * _ref(a, k - 1) + p.f * _ref(a, k)
                       + p.g * _ref(a, k + 1) + p.h * _ref(a, k + 2))
        rows.append(row)
    return rows


def schoolbook_recurrence_matrix(p, size):
    """First row (alpha, beta, gamma, 0, ...), then row i >= 1 holds
    h, g, f, e, gamma in columns i-2 .. i+2 (those inside the matrix)."""
    m = [[0] * size for _ in range(size)]
    for j, v in enumerate((p.alpha, p.beta, p.gamma)[:size]):
        m[0][j] = v
    for i in range(1, size):
        for j, v in zip(range(i - 2, i + 3), (p.h, p.g, p.f, p.e, p.gamma)):
            if 0 <= j < size:
                m[i][j] = v
    return m


def naive_tail_recurrence(t, p, n_max):
    """Both tail-sum recurrence branches on triangle ``t``, term by term.

    For each row n: b[n][0] against the row generating function, the k = 0
    head branch, then the generic branch for every k = 2..2n, all multiplied
    through by q^2; the first mismatch is the witness.
    """
    a, b, c, e, f, g, h = p.as_tuple()
    head_weight = QPoly([a, b, c])
    mid_weight = QPoly([0, g, f - a, e - b])

    def witness(n, k, lhs, rhs):
        return PropertyReport(
            "tail-recurrence-identity", (1, n_max), FAILS,
            witness={"n": n, "k": k, "difference": lhs - rhs},
        )

    for n in range(1, n_max + 1):
        if row_tail_poly(t, n, 0) != QPoly(t.rows[n]):
            return witness(n, 0, row_tail_poly(t, n, 0), QPoly(t.rows[n]))
        lhs = row_tail_poly(t, n, 0).shift(2)
        rhs = (
            head_weight * row_tail_poly(t, n - 1, 0).shift(2)
            + mid_weight * row_tail_poly(t, n - 1, 1)
            + h * row_tail_poly(t, n - 1, 2)
        )
        if lhs != rhs:
            return witness(n, 0, lhs, rhs)
        for k in range(2, 2 * n + 1):
            lhs = row_tail_poly(t, n, k).shift(2)
            rhs = (
                c * row_tail_poly(t, n - 1, k - 2).shift(4)
                + e * row_tail_poly(t, n - 1, k - 1).shift(3)
                + f * row_tail_poly(t, n - 1, k).shift(2)
                + g * row_tail_poly(t, n - 1, k + 1).shift(1)
                + h * row_tail_poly(t, n - 1, k + 2)
            )
            if lhs != rhs:
                return witness(n, k, lhs, rhs)
    return PropertyReport("tail-recurrence-identity", (1, n_max), HOLDS)


# -- hand-written condition checkers ---------------------------------------------
#
# The three sufficient-condition checkers with every clause written out twice,
# as the text the report prints and as arithmetic on the weights.  They are the
# reference that ``tripos.conditions``, which evaluates the text itself, must
# match, report for report and exception for exception.


def _const_clause(text: str, lhs: ExactRat, rhs: ExactRat) -> ClauseResult:
    ok = lhs >= rhs
    return ClauseResult(text, ok, None, None if ok else lhs, None if ok else rhs)


def _condition(cid: str, clauses: list[ClauseResult]) -> ConditionResult:
    return ConditionResult(cid, all(c.holds for c in clauses), tuple(clauses))


# -- varying coefficients (tag thm21) ------------------------------------------


def handwritten_log_concavity_conditions(
    gamma: CoeffScheme,
    e: CoeffScheme,
    f: CoeffScheme,
    g: CoeffScheme,
    h: CoeffScheme,
    k_max: int,
) -> ConditionReport:
    """The ten sufficient conditions for row log-concavity, over 2 <= k <= k_max.

    Sequence values below a sequence's domain start count as 0 inside the
    inequalities, matching the generator's boundary convention.  A k_max
    below 2 would leave the range empty and raises ``ValueError``.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    schemes = {"gamma": gamma, "e": e, "f": f, "g": g, "h": h}

    def val(name: str, k: int) -> ExactRat:
        return schemes[name].at(k) if k >= DOMAIN_START[name] else 0

    def pair_clauses(a: str, b: str) -> Callable[[int], tuple]:
        def sides(k: int):
            lhs = 2 * val(a, k) * val(b, k)
            rhs = val(a, k - 1) * val(b, k + 1) + val(a, k + 1) * val(b, k - 1)
            return lhs, rhs

        return sides

    def cross_clauses(p1: str, p2: str, q1: str, q2: str) -> Callable[[int], tuple]:
        # p1_{k+1} p2_{k-1} >= q1_{k+1} q2_{k-1}
        def sides(k: int):
            return val(p1, k + 1) * val(p2, k - 1), val(q1, k + 1) * val(q2, k - 1)

        return sides

    condition_defs: list[tuple[str, list[tuple[str, Callable[[int], tuple]]]]] = [
        ("1", [("2*gamma_k*e_k >= gamma_{k-1}*e_{k+1} + gamma_{k+1}*e_{k-1}",
                pair_clauses("gamma", "e"))]),
        ("2", [("2*gamma_k*f_k >= gamma_{k-1}*f_{k+1} + gamma_{k+1}*f_{k-1}",
                pair_clauses("gamma", "f"))]),
        ("3", [("2*gamma_k*g_k >= gamma_{k-1}*g_{k+1} + gamma_{k+1}*g_{k-1}",
                pair_clauses("gamma", "g"))]),
        ("4", [("2*gamma_k*h_k >= gamma_{k-1}*h_{k+1} + gamma_{k+1}*h_{k-1}",
                pair_clauses("gamma", "h"))]),
        ("5", [("2*e_k*f_k >= e_{k+1}*f_{k-1} + e_{k-1}*f_{k+1}",
                pair_clauses("e", "f")),
               ("e_{k+1}*e_{k-1} >= gamma_{k+1}*f_{k-1}",
                cross_clauses("e", "e", "gamma", "f"))]),
        ("6", [("2*e_k*g_k >= e_{k+1}*g_{k-1} + e_{k-1}*g_{k+1}",
                pair_clauses("e", "g")),
               ("f_{k+1}*e_{k-1} >= gamma_{k+1}*g_{k-1}",
                cross_clauses("f", "e", "gamma", "g"))]),
        ("7", [("2*e_k*h_k >= e_{k+1}*h_{k-1} + e_{k-1}*h_{k+1}",
                pair_clauses("e", "h")),
               ("g_{k+1}*e_{k-1} >= gamma_{k+1}*h_{k-1}",
                cross_clauses("g", "e", "gamma", "h"))]),
        ("8", [("2*f_k*g_k >= f_{k+1}*g_{k-1} + f_{k-1}*g_{k+1}",
                pair_clauses("f", "g")),
               ("f_{k+1}*f_{k-1} >= e_{k+1}*g_{k-1}",
                cross_clauses("f", "f", "e", "g"))]),
        ("9", [("2*f_k*h_k >= f_{k+1}*h_{k-1} + f_{k-1}*h_{k+1}",
                pair_clauses("f", "h")),
               ("g_{k+1}*f_{k-1} >= e_{k+1}*h_{k-1}",
                cross_clauses("g", "f", "e", "h"))]),
        ("10", [("2*g_k*h_k >= g_{k+1}*h_{k-1} + g_{k-1}*h_{k+1}",
                 pair_clauses("g", "h")),
                ("g_{k+1}*g_{k-1} >= f_{k+1}*h_{k-1}",
                 cross_clauses("g", "g", "f", "h"))]),
    ]

    conditions = []
    for cid, clause_defs in condition_defs:
        clause_results = []
        for text, sides in clause_defs:
            result = ClauseResult(text, True)
            for k in range(2, k_max + 1):
                lhs, rhs = sides(k)
                if lhs < rhs:
                    result = ClauseResult(text, False, k, lhs, rhs)
                    break
            clause_results.append(result)
        conditions.append(_condition(cid, clause_results))

    hypotheses = []
    for name, start in DOMAIN_START.items():
        values = [schemes[name].at(k) for k in range(start, k_max + 2)]
        report = is_log_concave(NumSeq(tuple(values), offset=start))
        hypotheses.append(replace(report, prop=f"{name}-log-concave"))

    return ConditionReport("thm21", tuple(conditions), tuple(hypotheses))


# -- constant coefficients, log-concavity (tag cor22) ---------------------------

# Second clause of condition (5) in its published form; the structurally
# expected clause (shift every letter of 5a by one) reads differently.
_COR22_5B_PRINTED = "2*beta*g >= g*e + gamma*h"
_COR22_5B_CANDIDATE = "2*beta*g >= alpha*f + gamma*h"


def handwritten_log_concavity_conditions_const(p: ConstParams) -> ConditionReport:
    """Five sufficient conditions for row log-concavity at constant weights.

    Condition (5)'s second inequality is evaluated in its published form
    (``2*beta*g >= g*e + gamma*h``); a note is attached whenever that form
    and the structurally expected variant disagree on the given input.
    """
    a, b, c, e, f, g, h = p.as_tuple()
    conditions = [
        _condition("1", [
            _const_clause("g^2 >= f*h", g * g, f * h),
            _const_clause("f >= alpha", f, a),
        ]),
        _condition("2", [
            _const_clause("beta^2 >= alpha*gamma", b * b, a * c),
            _const_clause("2*beta*h >= alpha*g", 2 * b * h, a * g),
        ]),
        _condition("3", [
            _const_clause("f*e >= gamma*g", f * e, c * g),
            _const_clause("f*g >= e*h", f * g, e * h),
        ]),
        _condition("4", [
            _const_clause("f^2 >= e*g", f * f, e * g),
            _const_clause("e*g >= gamma*h", e * g, c * h),
            _const_clause("e^2 >= gamma*f", e * e, c * f),
        ]),
        _condition("5", [
            _const_clause("2*beta*f >= alpha*e + gamma*g", 2 * b * f, a * e + c * g),
            _const_clause(_COR22_5B_PRINTED, 2 * b * g, g * e + c * h),
        ]),
    ]
    notes = []
    printed = 2 * b * g >= g * e + c * h
    candidate = 2 * b * g >= a * f + c * h
    if printed != candidate:
        notes.append(
            f"condition (5) printed clause '{_COR22_5B_PRINTED}' and candidate "
            f"corrected clause '{_COR22_5B_CANDIDATE}' disagree on this input "
            f"(printed={printed}, candidate={candidate})"
        )
    return ConditionReport("cor22", tuple(conditions), notes=tuple(notes))


# -- constant coefficients, strong q-log-convexity (tag thm34) ------------------


def handwritten_q_log_convexity_conditions(p: ConstParams) -> ConditionReport:
    """Four sufficient conditions for strong q-log-convexity of row polynomials."""
    a, b, c, e, f, g, h = p.as_tuple()
    conditions = [
        _condition("1", [
            _const_clause("f >= alpha", f, a),
            _const_clause("e >= beta", e, b),
            _const_clause("g >= 0", g, 0),
            _const_clause("h >= 0", h, 0),
        ]),
        _condition("2", [
            _const_clause("alpha*f >= beta*g", a * f, b * g),
            _const_clause("beta*g >= gamma*h", b * g, c * h),
            _const_clause("f^2 >= e*g", f * f, e * g),
            _const_clause("e*g >= gamma*h", e * g, c * h),
        ]),
        _condition("3", [
            _const_clause("alpha*e >= gamma*g", a * e, c * g),
            _const_clause("e*f >= gamma*g", e * f, c * g),
            _const_clause("beta*f >= gamma*g", b * f, c * g),
        ]),
        _condition("4", [
            _const_clause("beta*e >= gamma*f", b * e, c * f),
            _const_clause("alpha*g >= beta*h", a * g, b * h),
            _const_clause("g^2 >= f*h", g * g, f * h),
            _const_clause("f*g >= e*h", f * g, e * h),
        ]),
    ]
    return ConditionReport("thm34", tuple(conditions))


# -- input parsing -----------------------------------------------------------------


def fraction_parse_exact(text: str) -> ExactRat:
    """``tripos.algebra.parse_exact`` as it was before its ``int`` fast path:
    every token goes through ``Fraction``."""
    try:
        f = Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text.strip()!r}") from exc
    return int(f) if f.denominator == 1 else f


# -- network ---------------------------------------------------------------------


def fake_urlopen(body, calls: list | None = None) -> Callable:
    """Stand-in for ``urllib.request.urlopen`` whose response ``read`` returns
    ``body`` or, when ``body`` is an exception, raises it.  Each requested
    URL is appended to ``calls`` when one is given."""

    class Response:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            if isinstance(body, BaseException):
                raise body
            return body

    def urlopen(url, timeout):
        if calls is not None:
            calls.append(url)
        return Response()

    return urlopen


# -- subprocesses ----------------------------------------------------------------


def src_env() -> dict:
    """The environment for a fresh interpreter that imports tripos from ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
