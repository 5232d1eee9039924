"""Correctness reference for the benchmark, written without calling tripos.

Every expected witness comes from here: triangles from their recurrences,
pair scans by schoolbook convolution, minors by permutation expansion,
transforms from powers of 1 + x + ... + x^s.  Values are returned in the
JSON form that tripos reports use (integers stay integers, fractions become
``"p/q"`` strings, tuples become lists), so they compare directly with the
parsed report.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

# -- scalars and polynomials ---------------------------------------------------


def jsonable(x):
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else str(x)
    return x


def poly_str(coeffs) -> str:
    """The text form tripos prints for a polynomial (trailing zeros dropped)."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return " ".join(str(jsonable(c)) for c in coeffs) if coeffs else "0"


def convolve(a, b) -> list:
    """Schoolbook product of two coefficient lists, lowest degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_add(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def first_negative(hi, lo):
    """Least index where hi - lo is negative, with that value, or None."""
    for i in range(max(len(hi), len(lo))):
        d = (hi[i] if i < len(hi) else 0) - (lo[i] if i < len(lo) else 0)
        if d < 0:
            return i, d
    return None


# -- triangles -----------------------------------------------------------------


def three_term_rows(f, g, n_max: int) -> list[list]:
    """C[n][k] = C[n-1][k-1] + f(k) C[n-1][k] + g(k) C[n-1][k+1], C[0] = [1]."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0, 0]
        rows.append([(prev[k - 1] if k else 0) + f(k) * prev[k] + g(k) * prev[k + 1]
                     for k in range(n + 1)])
    return rows


PRESET_FG = {
    "pascal": (lambda k: 1, lambda k: 0),
    "stirling2": (lambda k: k + 1, lambda k: 0),
    "aigner_catalan": (lambda k: 1 if k == 0 else 2, lambda k: 1),
    "shapiro_catalan": (lambda k: 2, lambda k: 1),
    "motzkin": (lambda k: 1, lambda k: 1),
    "bell": (lambda k: k + 1, lambda k: k + 1),
    "schroder_large": (lambda k: 2 if k == 0 else 3, lambda k: 2),
}


def s_pascal_rows(s: int, n_max: int) -> list[list[int]]:
    """Coefficient rows of (1 + x + ... + x^s)^n."""
    rows = [[1]]
    for _ in range(n_max):
        rows.append(convolve(rows[-1], [1] * (s + 1)))
    return rows


def preset_rows(name: str, n_max: int, s: int | None = None) -> list[list]:
    if name == "s_pascal":
        return s_pascal_rows(s, n_max)
    return three_term_rows(*PRESET_FG[name], n_max)


def five_term_rows(w: dict, n_max: int) -> list[list]:
    """Five-term rows; ``w`` maps gamma/e/f/g/h to functions of k.

    gamma is read only for k >= 2 and e only for k >= 1, as tripos documents.
    """
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]

        def ref(k):
            return prev[k] if 0 <= k < len(prev) else 0

        row = []
        for k in range(2 * n + 1):
            v = w["f"](k) * ref(k) + w["g"](k) * ref(k + 1) + w["h"](k) * ref(k + 2)
            if k >= 1:
                v += w["e"](k) * ref(k - 1)
            if k >= 2:
                v += w["gamma"](k) * ref(k - 2)
            row.append(v)
        rows.append(row)
    return rows


def const_rows(p, n_max: int) -> list[list]:
    """Constant five-term rows with the alpha (k = 0) and beta (k = 1) heads."""
    alpha, beta, gamma, e, f, g, h = p
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0, 0, 0, 0]

        def ref(k):
            return prev[k] if k >= 0 else 0

        row = [alpha * ref(0) + g * ref(1) + h * ref(2),
               beta * ref(0) + f * ref(1) + g * ref(2) + h * ref(3)]
        row += [gamma * ref(k - 2) + e * ref(k - 1) + f * ref(k) + g * ref(k + 1)
                + h * ref(k + 2) for k in range(2, 2 * n + 1)]
        rows.append(row)
    return rows


def triangle_text(rows, arity: int) -> str:
    """The triangle file format tripos reads and writes."""
    lines = [f"# arity={arity} n_max={len(rows) - 1}"]
    lines += [" ".join(str(jsonable(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def square(rows, size: int) -> list[list]:
    """Dense size x size truncation of a triangle, zero-padded."""
    return [[rows[n][k] if k < len(rows[n]) else 0 for k in range(size)]
            for n in range(size)]


# -- property checks -------------------------------------------------------------


def report(prop: str, witness: dict | None) -> dict:
    """Expected report fields: the verdict and, on failure, the witness."""
    if witness is None:
        return {"property": prop, "verdict": "holds", "witness": None}
    return {"property": prop, "verdict": "fails",
            "witness": {k: jsonable(v) for k, v in witness.items()}}


def rows_log_concave(rows) -> dict:
    for n, row in enumerate(rows):
        for i in range(1, len(row) - 1):
            lhs, rhs = row[i] * row[i], row[i - 1] * row[i + 1]
            if lhs < rhs:
                return report("rows-log-concave",
                              {"row": n, "index": i, "lhs": lhs, "rhs": rhs})
    return report("rows-log-concave", None)


def pair_scan(polys, concave: bool) -> dict | None:
    """Least (n, m), m >= n, where f_{n-1} f_{m+1} vs f_n f_m breaks the order."""
    memo: dict = {}

    def prod(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in memo:
            memo[key] = convolve(polys[key[0]], polys[key[1]])
        return memo[key]

    for n in range(1, len(polys) - 1):
        for m in range(n, len(polys) - 1):
            outer, inner = prod(n - 1, m + 1), prod(n, m)
            bad = first_negative(inner, outer) if concave else first_negative(outer, inner)
            if bad:
                return {"n": n, "m": m, "coeff_index": bad[0], "coeff": bad[1]}
    return None


def strong_q_log(polys, concave: bool) -> dict:
    prop = "strongly-q-log-concave" if concave else "strongly-q-log-convex"
    return report(prop, pair_scan(polys, concave))


_PERMS = {
    k: [(p, -1 if sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 else 1)
        for p in permutations(range(k))]
    for k in range(1, 5)
}


def leibniz_det(m, rows, cols):
    """Permutation expansion of the minor on ``rows`` x ``cols`` (order <= 4)."""
    total = 0
    for perm, sign in _PERMS[len(rows)]:
        term = sign
        for i, r in enumerate(rows):
            v = m[r][cols[perm[i]]]
            if not v:
                break
            term *= v
        else:
            total += term
    return total


def first_negative_minor(m, r: int) -> dict:
    """Minors by increasing order, then row subset, then column subset."""
    nrows, ncols = len(m), len(m[0])
    for order in range(1, min(r, nrows, ncols) + 1):
        for rows in combinations(range(nrows), order):
            for cols in combinations(range(ncols), order):
                d = leibniz_det(m, rows, cols)
                if d < 0:
                    if isinstance(d, Fraction) and d.denominator == 1:
                        d = d.numerator  # det_exact reports integral minors as int
                    return report("totally-positive",
                                  {"rows": list(rows), "cols": list(cols), "minor": d})
    return report("totally-positive", None)


def toeplitz(seq, size):
    return [[seq[i - j] if i >= j else 0 for j in range(size)] for i in range(size)]


def q_tp2(matrix) -> dict:
    for i1, i2 in combinations(range(len(matrix)), 2):
        for j1, j2 in combinations(range(len(matrix[0])), 2):
            bad = first_negative(convolve(matrix[i1][j1], matrix[i2][j2]),
                                 convolve(matrix[i1][j2], matrix[i2][j1]))
            if bad:
                return report("q-totally-positive-2",
                              {"rows": [i1, i2], "cols": [j1, j2],
                               "coeff_index": bad[0], "coeff": bad[1]})
    return report("q-totally-positive-2", None)


# -- transforms -------------------------------------------------------------------


def bisnomial_transform(polys, s: int, n_max: int) -> list[list]:
    out = []
    for n in range(n_max + 1):
        total = []
        for k, c in enumerate(s_pascal_rows(s, n)[n]):
            total = poly_add(total, [c * x for x in polys[k]])
        out.append(total)
    return out


def preservation(polys, s: int, n_max: int, direction: str) -> tuple[int, dict]:
    """Exit code and expected report of ``tripos transform``."""
    concave = direction == "concave"
    gate = strong_q_log(polys, concave)
    body = {"property": f"bisnomial-transform-preserves-strongly-q-log-{direction}",
            "s": s, "input": gate}
    if gate["verdict"] != "holds":
        return 3, {**body, "verdict": "inapplicable", "output": None}
    transformed = bisnomial_transform(polys, s, n_max)
    out = strong_q_log(transformed, concave)
    return (0 if out["verdict"] == "holds" else 1), {
        **body, "verdict": out["verdict"], "output": out,
        "transformed": [poly_str(p) for p in transformed],
    }


def window_sums(polys, s: int) -> list[str]:
    sums = []
    for k in range(len(polys) - s):
        total = []
        for j in range(s + 1):
            total = poly_add(total, polys[k + j])
        sums.append(poly_str(total))
    return sums


def minor_form(n: int, m: int, s: int) -> str:
    """B_{n-1} B_{m+1} - B_n B_m as ``i j coeff`` lines over formal f_i f_j."""
    rows = s_pascal_rows(s, m + 1)
    terms: dict = {}
    for sign, ra, rb in ((1, rows[n - 1], rows[m + 1]), (-1, rows[n], rows[m])):
        for i, ca in enumerate(ra):
            for j, cb in enumerate(rb):
                key = (min(i, j), max(i, j))
                terms[key] = terms.get(key, 0) + sign * ca * cb
    return "".join(f"{i} {j} {c}\n" for (i, j), c in sorted(terms.items()) if c)
