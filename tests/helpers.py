"""Independent oracles and random-instance builders shared by the tests.

Everything here deliberately avoids the code paths it is used to check:
determinants come from the permutation expansion, generalized binomial rows
from plain list convolution, q-binomials from the q-Pascal recurrence.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from tripos.algebra import QPoly, poly_geq_q
from tripos.properties import FAILS, HOLDS, PropertyReport, is_q_tp2, is_tp_r
from tripos.triangles import row_poly, row_tail_poly


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


def naive_first_negative_minor(m, r):
    """Brute-force scan of all minors of order <= r, in the checker's order."""
    nrows, ncols = len(m), len(m[0])
    for order in range(1, min(r, nrows, ncols) + 1):
        for rows in combinations(range(nrows), order):
            for cols in combinations(range(ncols), order):
                d = naive_det([[m[i][j] for j in cols] for i in rows])
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
        if row_tail_poly(t, n, 0) != row_poly(t, n):
            return witness(n, 0, row_tail_poly(t, n, 0), row_poly(t, n))
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
