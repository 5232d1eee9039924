"""Independent reference sequences used to validate preset triangles.

Each function here computes its sequence from a closed form or a classical
recurrence that is unrelated to the triangle recurrences in
:mod:`tripos.triangles`, so a preset whose generated column/rows match one of
these has two independent derivations agreeing.
"""

from __future__ import annotations

from math import comb


def catalan_numbers(n_max: int) -> list[int]:
    """C_n = binom(2n, n) / (n + 1)."""
    return [comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]


def motzkin_numbers(n_max: int) -> list[int]:
    """M_n = M_{n-1} + sum_i M_i M_{n-2-i}."""
    m = [1]
    for n in range(1, n_max + 1):
        m.append(m[n - 1] + sum(m[i] * m[n - 2 - i] for i in range(n - 1)))
    return m


def bell_numbers(n_max: int) -> list[int]:
    """Bell numbers via the Pascal-style table of partial sums."""
    b = [1]
    row = [1]
    for _ in range(n_max):
        prev = row
        row = [prev[-1]]
        for x in prev:
            row.append(row[-1] + x)
        b.append(row[0])
    return b


def large_schroder_numbers(n_max: int) -> list[int]:
    """S_n = S_{n-1} + sum_k S_k S_{n-1-k}."""
    s = [1]
    for n in range(1, n_max + 1):
        s.append(s[n - 1] + sum(s[k] * s[n - 1 - k] for k in range(n)))
    return s


def stirling2_triangle(n_max: int) -> list[list[int]]:
    """Rows of S(n, k) for 1 <= k <= n, via S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    rows = [[1]]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        row = []
        for k in range(1, n + 1):
            above = prev[k - 1] if k <= len(prev) else 0
            left = prev[k - 2] if k >= 2 else 0
            row.append(k * above + left)
        rows.append(row)
    return rows


def shapiro_row(n: int) -> list[int]:
    """Ballot-number closed form (k/n) * binom(2n, n-k) for k = 1..n; n >= 1.

    n divides k * binom(2n, n-k), so the integer division is exact.
    """
    return [k * comb(2 * n, n - k) // n for k in range(1, n + 1)]


def ones(n_max: int) -> list[int]:
    """Column 0 of the s-Pascal triangle: x^0 has coefficient 1 in (1 + ... + x^s)^n."""
    return [1] * (n_max + 1)


def pascal_row(n: int) -> list[int]:
    return [comb(n, k) for k in range(n + 1)]
