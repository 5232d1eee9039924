"""Sequence and matrix property checkers, cross-validated against brute force."""

import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    fractions_between,
    gauss_det,
    has_internal_zero_gap,
    naive_first_failing_pair,
    naive_first_negative_minor,
    naive_q_tp2,
    random_q_tp2_matrix,
    random_tp2_matrix,
)
from tripos import properties
from tripos.algebra import QPoly, clear_rows, mat_mul
from tripos.errors import DimensionError, SequenceRangeError
from tripos.properties import (
    FAILS,
    HOLDS,
    INAPPLICABLE,
    NumSeq,
    PolySeq,
    PropertyReport,
    _kronecker,
    hankel,
    is_log_concave,
    is_log_convex,
    is_pf_r,
    is_q_log_concave,
    is_q_log_convex,
    is_q_tp2,
    is_strongly_q_log_concave,
    is_strongly_q_log_convex,
    is_tp_r,
    toeplitz,
)
from tripos.triangles import (
    PRESET_NAMES,
    ConstParams,
    bisnomial_row,
    build_preset,
    from_const_params,
    preset,
    recurrence_matrix,
    row_polys,
)


class TestLogConcave:
    def test_trinomial_row(self):
        assert is_log_concave(NumSeq((1, 3, 6, 7, 6, 3, 1))).holds

    def test_fails_with_witness(self):
        r = is_log_concave(NumSeq((1, 1, 2)))
        assert r.verdict == FAILS
        assert r.witness["index"] == 1
        assert (r.witness["lhs"], r.witness["rhs"]) == (1, 2)

    def test_pascal_row(self):
        assert is_log_concave(NumSeq((1, 4, 6, 4, 1))).holds

    def test_short_sequences_vacuous(self):
        assert is_log_concave(NumSeq((5,))).holds
        assert is_log_concave(NumSeq((1, 100))).holds

    def test_negative_entry_inapplicable(self):
        r = is_log_concave(NumSeq((1, -1, 1)))
        assert r.verdict == INAPPLICABLE
        assert r.witness["index"] == 1

    def test_offset_shifts_witness(self):
        r = is_log_concave(NumSeq((1, 1, 2), offset=10))
        assert r.witness["index"] == 11
        assert r.checked == (10, 12)


class TestLogConvex:
    def test_catalan_prefix(self):
        # 1*2 >= 1, 1*5 >= 4, 2*14 >= 25, 5*42 >= 196: all direct checks pass.
        assert is_log_convex(NumSeq((1, 1, 2, 5, 14, 42))).holds

    def test_fails(self):
        r = is_log_convex(NumSeq((1, 2, 1)))
        assert r.verdict == FAILS
        assert r.witness["index"] == 1

    def test_constant_equality(self):
        assert is_log_convex(NumSeq((3, 3, 3))).holds


class TestStrongQLogConvex:
    def test_motzkin_rowgens(self, preset_rowgens):
        ps = PolySeq(preset_rowgens["motzkin"].polys[:6])
        assert is_strongly_q_log_convex(ps).holds

    def test_constant_sequence(self):
        ps = PolySeq(tuple(QPoly([1]) for _ in range(5)))
        assert is_strongly_q_log_convex(ps).holds

    def test_fails_with_pair_witness(self):
        ps = PolySeq((QPoly([1]), QPoly([1, 1]), QPoly([1])))
        r = is_strongly_q_log_convex(ps)
        assert r.verdict == FAILS
        assert (r.witness["n"], r.witness["m"]) == (1, 1)


class TestStrongQLogConcave:
    def test_binomial_powers_equality(self):
        ps = PolySeq(tuple(QPoly([1, 1]) ** k for k in range(7)))
        assert is_strongly_q_log_concave(ps).holds
        # equality both ways
        assert is_strongly_q_log_convex(ps).holds

    def test_gaussian_binomials(self):
        from helpers import gaussian_binomial

        polys = tuple(gaussian_binomial(n, 2) for n in range(2, 9))
        # brute-force pairwise comparison, independent of the checker's loop
        for ni in range(1, len(polys) - 1):
            for mi in range(ni, len(polys) - 1):
                diff = polys[ni] * polys[mi] - polys[ni - 1] * polys[mi + 1]
                assert all(c >= 0 for c in diff.coeffs), (ni, mi)
        assert is_strongly_q_log_concave(PolySeq(polys)).holds

    def test_fails(self):
        ps = PolySeq((QPoly([1]), QPoly([1]), QPoly([1, 1])))
        assert is_strongly_q_log_concave(ps).verdict == FAILS


class TestWeakVariants:
    def test_q_powers_hold_both_ways(self):
        ps = PolySeq(tuple(QPoly([0] * n + [1]) for n in range(6)))
        assert is_q_log_convex(ps).holds
        assert is_q_log_concave(ps).holds

    def test_motzkin_weak_convex(self, preset_rowgens):
        ps = PolySeq(preset_rowgens["motzkin"].polys[:6])
        assert is_q_log_convex(ps).holds

    def test_strong_implies_weak(self, preset_rowgens):
        for name, ps in preset_rowgens.items():
            window = PolySeq(ps.polys[:10])
            if is_strongly_q_log_convex(window).holds:
                assert is_q_log_convex(window).holds, name


class TestStructuredMatrices:
    def test_toeplitz(self):
        assert toeplitz(NumSeq((1, 1, 2)), 3) == [[1, 0, 0], [1, 1, 0], [2, 1, 1]]

    def test_toeplitz_single(self):
        assert toeplitz(NumSeq((7,)), 1) == [[7]]

    def test_hankel(self):
        assert hankel(NumSeq((1, 1, 2, 5, 14)), 3) == [
            [1, 1, 2], [1, 2, 5], [2, 5, 14]
        ]

    def test_insufficient_data(self):
        with pytest.raises(SequenceRangeError):
            toeplitz(NumSeq((1, 2)), 3)
        with pytest.raises(SequenceRangeError):
            hankel(NumSeq((1, 2, 3)), 3)

    @pytest.mark.parametrize("size", (0, -1))
    def test_window_below_size_one(self, size):
        s = NumSeq((1, 2, 3))
        for window in (lambda: toeplitz(s, size), lambda: hankel(s, size),
                       lambda: is_pf_r(s, 2, size)):
            with pytest.raises(ValueError, match="size must be >= 1"):
                window()


class TestTotalPositivity:
    def test_pascal_matrix_tp3(self):
        t = build_preset("pascal", 5)
        m = t.to_matrix(6, 6)
        assert is_tp_r(m, 3).holds

    def test_fails_with_minor_witness(self):
        r = is_tp_r([[1, 2], [3, 4]], 2)
        assert r.verdict == FAILS
        assert r.witness["minor"] == -2
        assert r.witness["rows"] == (0, 1)

    def test_catalan_hankel_tp3(self):
        assert is_tp_r([[1, 1, 2], [1, 2, 5], [2, 5, 14]], 3).holds

    def test_r_clamped_with_note(self):
        r = is_tp_r([[1, 2]], 5)
        assert r.holds
        assert "clamped" in r.note

    def test_short_row_rejected(self):
        with pytest.raises(DimensionError):
            is_tp_r([[1, 2], [3]], 2)

    def test_long_row_rejected(self):
        with pytest.raises(DimensionError):
            is_tp_r([[1, 2], [3, 4, 5]], 2)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="r must be >= 1"):
            is_tp_r([[1, 2], [3, 4]], 0)

    def test_agrees_with_naive_enumerator(self):
        rng = random.Random(1234)
        holds_seen = fails_seen = 0
        for _ in range(120):
            n = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            if rng.random() < 0.5:
                m = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(n)]
            else:  # nonnegative matrices exercise the holds path
                m = [[rng.randint(0, 5) for _ in range(ncols)] for _ in range(n)]
            r = min(n, ncols)
            report = is_tp_r(m, r)
            naive = naive_first_negative_minor(m, r)
            assert report.holds == (naive is None)
            if report.holds:
                holds_seen += 1
            else:
                fails_seen += 1
                assert (tuple(report.witness["rows"]), tuple(report.witness["cols"])) == (
                    naive[0], naive[1]
                )
                assert report.witness["minor"] == naive[2]
        assert holds_seen > 10 and fails_seen > 10


def tp_report(r_eff, rows=None, cols=None, minor=None, note=None) -> dict:
    """The ``to_dict()`` of an ``is_tp_r`` report; a witness when ``rows`` is given."""
    if rows is None:
        return PropertyReport("totally-positive", (1, r_eff), HOLDS, note=note).to_dict()
    return PropertyReport("totally-positive", (1, r_eff), FAILS, note=note,
                          witness={"rows": rows, "cols": cols, "minor": minor}).to_dict()


class TestOneWalkOrder:
    """A failure of higher order can come before a lower-order one in the
    row order; the witness must still be the least failure by (order, rows,
    cols)."""

    def test_order_two_beats_earlier_order_three(self):
        # rows (0, 1, 2) are TP2 with determinant -1 and come first; the first
        # order-2 failure needs row 3
        m = [[1, 1, 0], [1, 1, 1], [0, 1, 1], [1, 0, 0]]
        assert naive_first_negative_minor(m[:3], 3) == ((0, 1, 2), (0, 1, 2), -1)
        assert is_tp_r(m, 3).to_dict() == tp_report(3, (0, 3), (0, 1), -1)
        assert is_tp_r(m[:3], 3).to_dict() == tp_report(3, (0, 1, 2), (0, 1, 2), -1)

    def test_last_row_entry_beats_earlier_order_two(self):
        m = [[1, 2], [3, 4], [1, -1]]
        assert is_tp_r(m, 2).to_dict() == tp_report(2, (2,), (1,), -1)
        assert is_tp_r(m[:2], 2).to_dict() == tp_report(2, (0, 1), (0, 1), -2)

    @pytest.mark.parametrize("m, r, expected", [
        ([[]], 2, tp_report(0, note="r clamped from 2 to 0 (matrix is 1x0)")),
        ([], 1, tp_report(0, note="r clamped from 1 to 0 (matrix is 0x0)")),
        ([[1, 0, -2]], 3, tp_report(1, (0,), (2,), -2,
                                    note="r clamped from 3 to 1 (matrix is 1x3)")),
        ([[2], [0], [3]], 2, tp_report(1, note="r clamped from 2 to 1 (matrix is 3x1)")),
        ([[2], [-1], [3]], 1, tp_report(1, (1,), (0,), -1)),
        ([[1, 2], [0, 0], [3, 1]], 2, tp_report(2, (0, 2), (0, 1), -5)),
        ([[0, 0], [0, 0]], 2, tp_report(2)),
        ([[1, 1], [1, 2]], 5, tp_report(2, note="r clamped from 5 to 2 (matrix is 2x2)")),
    ], ids=["no-columns", "no-rows", "one-row", "one-column", "one-column-fails",
            "zero-row", "all-zero", "r-above-size"])
    def test_edge_shapes(self, m, r, expected):
        assert is_tp_r(m, r).to_dict() == expected

    @pytest.mark.parametrize("size, r", [(6, 3), (8, 4), (7, 7)])
    def test_one_laplace_step_per_prefix_and_order(self, monkeypatch, size, r):
        # order d walks every row j-prefix, 2 <= j <= d, whose rows all lie in
        # the first size - d + j, so that it can still reach d rows; depth 1
        # is the row itself and takes no step.  A holding walk so rebuilds the
        # prefixes of lower orders.  is_tp_r certifies these without walking,
        # so the walk is called directly.
        calls = count_laplace_steps(monkeypatch)
        m = build_preset("pascal", size - 1).to_matrix(size, size)
        assert properties._first_negative_minor(m, size, r) is None
        assert len(calls) == sum(comb(size - d + j, j) for d in range(2, r + 1)
                                 for j in range(2, d + 1))


def late_low_order_failure(rng: random.Random, rational: bool) -> list[list]:
    """A matrix of at most 6 rows whose least failing minor has lower order than
    a failure through earlier rows, which a depth-first walk over all orders
    meets first.  The top k rows (k = 2, 3 or 4) come from a nonnegative
    tridiagonal matrix whose contiguous principal minors of order < k are
    >= 0 and whose leading k x k minor is negative, so they are TP_(k-1) and
    fail at order k; the rows below are nonnegative, except for one negative
    entry in about a third of the matrices.  With ``rational`` each row is
    scaled by a positive ``Fraction``, which keeps every minor's sign."""
    k = rng.choice((2, 3, 4))
    ncols = rng.randint(k, 5)
    while True:
        d = [rng.randint(1, 3) for _ in range(ncols)]
        e = [rng.randint(1, 3) for _ in range(ncols - 1)]
        f = [rng.randint(1, 3) for _ in range(ncols - 1)]
        band = [[d[i] if i == j else e[i] if j == i + 1 else f[j] if i == j + 1 else 0
                 for j in range(ncols)] for i in range(k)]
        lower = [gauss_det([row[i:j] for row in band[i:j]])
                 for i in range(k) for j in range(i + 1, k + 1) if j - i < k]
        if min(lower) >= 0 and gauss_det([row[:k] for row in band]) < 0:
            break
    m = band + [[rng.randint(0, 3) for _ in range(ncols)] for _ in range(rng.randint(k + 1, 6) - k)]
    if rng.random() < 0.35:
        m[rng.randrange(k, len(m))][rng.randrange(ncols)] = -rng.randint(1, 3)
    if rational:
        m = [[Fraction(rng.randint(1, 5), rng.randint(1, 5)) * x for x in row] for row in m]
    return m


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_late_low_order_failure_matches_reference(rational):
    rng = random.Random(30 + rational)
    hidden = []
    for _ in range(40):
        m = late_low_order_failure(rng, rational)
        ncols = len(m[0])
        cleared = clear_rows(m)[0]
        for r in range(2, 5):
            r_eff = min(r, len(m), ncols)
            note = None if r_eff == r else f"r clamped from {r} to {r_eff} (matrix is {len(m)}x{ncols})"
            expected = naive_first_negative_minor(m, r)
            assert is_tp_r(m, r).to_dict() == tp_report(r_eff, *(expected or ()), note=note)
            # a search from a later order finds the least failure of those orders
            for first in range(2, r_eff + 1):
                later = naive_first_negative_minor(m, r, first)
                found = properties._first_negative_minor(cleared, ncols, r_eff, first=first)
                assert (found and found[:2]) == (later and later[:2])
            if expected:
                deeper = naive_first_negative_minor(m, r, len(expected[0]) + 1)
                hidden.append(deeper is not None and deeper[0] < expected[0])
    # most cases hide the least failure behind a higher-order one
    assert sum(hidden) > len(hidden) // 2, sum(hidden)


def test_q_tp2_order_one_failure_behind_order_two():
    # one entry of a row after the first two has a negative coefficient, so
    # the least failure is of order 1; most draws fail at order 2 before it
    rng = random.Random(30)
    behind = 0
    for _ in range(60):
        nrows, ncols = rng.randint(3, 5), rng.randint(2, 4)
        m = [[QPoly(rng.randint(0, 3) for _ in range(rng.randint(1, 3))) for _ in range(ncols)]
             for _ in range(nrows)]
        i, j = rng.randrange(2, nrows), rng.randrange(ncols)
        m[i][j] = m[i][j] - QPoly([0] * rng.randint(0, 2) + [rng.randint(4, 9)])
        rows, cols, index, coeff = naive_q_tp2(m)
        assert (rows, cols) == ((i,), (j,))
        assert is_q_tp2(m) == PropertyReport("q-totally-positive-2", (1, 2), FAILS, witness={
            "rows": rows, "cols": cols, "coeff_index": index, "coeff": coeff})
        # a search from order 2 finds the least order-2 failure
        later = naive_q_tp2(m, first=2)
        found = properties._first_negative_minor(m, ncols, 2, lambda p: min(p.coeffs, default=0),
                                                 first=2)
        assert (found and found[:2]) == (later and later[:2])
        behind += later is not None and later[0] < rows
    assert behind > 20, behind


def random_poly_matrix(rng: random.Random) -> list[list[QPoly]]:
    """An up to 5x5 matrix of polynomials of degree <= 2 with ``int`` or
    ``Fraction`` coefficients.  About a third are q-TP2 bidiagonal products
    with one row rescaled, some with a power of q taken from one entry; in
    some of the rest one coefficient in ten is negative."""
    rational, negative = rng.random() < 0.5, rng.random() < 0.4

    def coeff():
        c = -rng.randint(1, 3) if negative and rng.random() < 0.1 else rng.randint(0, 3)
        return Fraction(c, rng.randint(1, 4)) if rational else c

    if rng.random() < 0.35:
        m = random_q_tp2_matrix(rng, rng.randint(1, 5))
        i = rng.randrange(len(m))
        m[i] = [p * (Fraction(1, 3) if rational else 3) for p in m[i]]
        if negative:
            i, j = rng.randrange(len(m)), rng.randrange(len(m))
            m[i][j] = m[i][j] - QPoly([0] * rng.randint(0, 2) + [1])
        return m
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    return [[QPoly(coeff() for _ in range(rng.randint(0, 3))) for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("seed", range(3))
def test_q_tp2_matches_reference(seed):
    rng = random.Random(seed)
    orders = []
    for _ in range(150):
        m = random_poly_matrix(rng)
        report, expected = is_q_tp2(m), naive_q_tp2(m)
        if expected is None:
            assert report == PropertyReport("q-totally-positive-2", (1, 2), HOLDS)
            orders.append(0)
        else:
            rows, cols, index, coeff = expected
            assert report == PropertyReport("q-totally-positive-2", (1, 2), FAILS, witness={
                "rows": rows, "cols": cols, "coeff_index": index, "coeff": coeff})
            assert type(report.witness["coeff"]) is type(coeff)
            orders.append(len(rows))
    # holds, fails at order 1 and fails at order 2 all occur
    assert {0, 1, 2} <= set(orders), orders


def count_laplace_steps(monkeypatch) -> list:
    """A list that gains one entry per call of ``properties._extend``."""
    calls = []
    extend = properties._extend
    monkeypatch.setattr(properties, "_extend",
                        lambda *args: calls.append(1) or extend(*args))
    return calls


class TestNevilleRoute:
    """A square matrix that Neville elimination certifies totally nonnegative
    holds without a walk; every other matrix is walked as before."""

    PASCAL = build_preset("pascal", 7).to_matrix(8, 8)

    def test_certified_matrix_takes_no_laplace_step(self, monkeypatch):
        calls = count_laplace_steps(monkeypatch)
        assert is_tp_r(self.PASCAL, 4).to_dict() == tp_report(4)
        assert calls == []

    def test_non_triangular_matrix_is_certified_by_neville(self, monkeypatch):
        # the symmetric Pascal matrix is not lower triangular, so the
        # production-matrix certificate refuses it and Neville proves it
        m = [[comb(i + j, i) for j in range(8)] for i in range(8)]
        calls = count_laplace_steps(monkeypatch)
        assert properties._production_tp(m, 4) == 0
        assert is_tp_r(m, 4).to_dict() == tp_report(4)
        assert calls == []

    def test_failing_matrix_walks_to_its_witness(self, monkeypatch):
        calls = count_laplace_steps(monkeypatch)
        m = build_preset("motzkin", 7).to_matrix(8, 8)
        assert naive_first_negative_minor(m, 3) == ((1, 2, 3), (0, 1, 2), -1)
        assert is_tp_r(m, 3).to_dict() == tp_report(3, (1, 2, 3), (0, 1, 2), -1)
        assert calls

    @pytest.mark.parametrize("m", [
        [row[:6] for row in PASCAL],
        PASCAL[:7] + [[0] * 8],
        PASCAL[:7] + PASCAL[6:7],
    ], ids=["rectangular", "zero-row", "repeated-row"])
    def test_rectangular_or_singular_matrix_walks(self, monkeypatch, m):
        calls = count_laplace_steps(monkeypatch)
        assert is_tp_r(m, 3).to_dict() == tp_report(3)
        assert calls


class TestPolyaFrequency:
    def test_pascal_row_pf2(self):
        assert is_pf_r(NumSeq((1, 2, 1)), 2, 3).holds

    def test_mirrors_log_concavity_failure(self):
        assert is_pf_r(NumSeq((1, 1, 2)), 2, 3).verdict == FAILS

    def test_trinomial_row4(self):
        row = bisnomial_row(4, 2)
        assert row == [1, 4, 10, 16, 19, 16, 10, 4, 1]
        assert is_pf_r(NumSeq(tuple(row)), 2, 9).holds

    def test_report_names_window(self):
        r = is_pf_r(NumSeq((1, 2, 1)), 2, 3)
        assert "window" in r.note

    def test_order_above_window_joins_both_notes(self):
        r = is_pf_r(NumSeq((1, 2, 1)), 5, 3)
        assert r.holds and r.checked == (1, 3)
        assert r.note == ("verdict for the 3x3 Toeplitz window only; "
                          "r clamped from 5 to 3 (matrix is 3x3)")


class TestQTotalPositivity:
    def test_q_power_truncation(self):
        from tripos.triangles import q_power_matrix

        assert is_q_tp2(q_power_matrix(3)).holds

    def test_fails(self):
        one, q = QPoly([1]), QPoly([0, 1])
        r = is_q_tp2([[one, q], [one, one]])
        assert r.verdict == FAILS
        assert r.witness["coeff_index"] == 1  # minor is 1 - q

    def test_motzkin_tail_matrix(self):
        from tripos.triangles import row_tail_matrix

        t = build_preset("motzkin", 4)
        assert is_q_tp2(row_tail_matrix(t, 4, 4)).holds

    def test_negative_entry_fails_at_order_1(self):
        # the only minor of a 1x1 matrix is its entry
        r = is_q_tp2([[QPoly([-1])]])
        assert r == PropertyReport("q-totally-positive-2", (1, 2), FAILS, witness={
            "rows": (0,), "cols": (0,), "coeff_index": 0, "coeff": -1})

    def test_short_row_rejected(self):
        one = QPoly([1])
        with pytest.raises(DimensionError):
            is_q_tp2([[one, one], [one]])

    def test_long_row_rejected(self):
        # Reading only row 0's two columns would find every minor zero.
        one, q = QPoly([1]), QPoly([0, 1])
        with pytest.raises(DimensionError):
            is_q_tp2([[one, one], [one, one, q]])


class TestEquivalences:
    """Classical characterizations, quantified over seeded random sequences.

    Sequences where >=2 consecutive zeros separate positive entries are
    excluded: there the literal three-term inequalities hold vacuously while
    the Toeplitz matrix picks up a negative minor, and the classical
    equivalence genuinely requires gap-free supports.
    """

    def test_log_concave_iff_pf2(self):
        rng = random.Random(97)
        checked = 0
        while checked < 200:
            length = rng.randint(3, 8)
            vals = tuple(rng.randint(0, 20) for _ in range(length))
            if has_internal_zero_gap(vals):
                continue
            checked += 1
            s = NumSeq(vals)
            assert is_log_concave(s).holds == is_pf_r(s, 2, length).holds, vals

    def test_log_convex_iff_hankel_tp2(self):
        # The size-w Hankel window reads indices 0..2w-2 only, so the
        # equivalence is over that prefix (all of an odd-length sequence).
        rng = random.Random(98)
        for _ in range(200):
            length = rng.randint(3, 8)
            vals = tuple(rng.randint(0, 20) for _ in range(length))
            s = NumSeq(vals)
            window = (length + 1) // 2
            covered = NumSeq(vals[: 2 * window - 1])
            assert is_log_convex(covered).holds == is_tp_r(hankel(s, window), 2).holds, vals

    def test_zero_gap_counterexample_documented(self):
        # 2,0,0,1 satisfies the literal inequalities but its Toeplitz window
        # has a negative 2x2 minor; both checkers evaluate literally.
        s = NumSeq((2, 0, 0, 1))
        assert is_log_concave(s).holds
        assert not is_pf_r(s, 2, 4).holds


class TestProductClosure:
    def test_tp2_products(self):
        rng = random.Random(314)
        for _ in range(100):
            size = rng.randint(2, 5)
            n = random_tp2_matrix(rng, size)
            m = random_tp2_matrix(rng, size)
            assert is_tp_r(mat_mul(n, m), 2).holds

    def test_q_tp2_products(self):
        rng = random.Random(159)
        for _ in range(100):
            size = rng.randint(2, 4)
            n = random_q_tp2_matrix(rng, size)
            m = random_q_tp2_matrix(rng, size)
            assert is_q_tp2(mat_mul(n, m)).holds


class TestLeadingPrincipalSufficiency:
    def test_triangle_truncations(self):
        # If every leading principal submatrix is TP2, the full truncation is.
        for name in ("pascal", "motzkin", "aigner_catalan"):
            t = build_preset(name, 9)
            full = t.to_matrix(10, 10)
            for k in range(1, 11):
                sub = [row[:k] for row in full[:k]]
                assert is_tp_r(sub, 2).holds, (name, k)
            assert is_tp_r(full, 2).holds, name


# -- minor scan against the permutation-expansion reference --------------------

# The draws below take strategies built once, at import or once per distinct
# bounds through these caches, since hypothesis validates each new strategy
# object on its first draw.
integers = cache(st.integers)
fixed_lists = cache(lambda elements, size: st.lists(elements, min_size=size, max_size=size))
booleans = st.booleans()


int_entries = st.integers(-4, 6)
fraction_entries = st.sampled_from(fractions_between(-4, 6, 6))
entry_kinds = st.sampled_from(
    (int_entries, fraction_entries, st.one_of(int_entries, fraction_entries))
)


index_sets = cache(lambda n: st.sets(integers(0, n - 1), max_size=2))


@st.composite
def dense_matrices(draw, square=False):
    """Rows of int, Fraction or mixed entries, some rows and columns zeroed."""
    nrows = draw(integers(1, 6))
    ncols = nrows if square else draw(integers(1, 6))
    m = []
    for _ in range(nrows):
        entries = draw(entry_kinds)
        m.append(draw(fixed_lists(entries, ncols)))
    for i in draw(index_sets(nrows)):
        m[i] = [0] * ncols
    for j in draw(index_sets(ncols)):
        for row in m:
            row[j] = 0
    return m


# the int weights 0..3 and the Fraction ones, in one index draw
weights = st.sampled_from((*range(4), *fractions_between(0, 3, 4)))
positive_weights = weights.filter(bool)
zero_or_weights = st.one_of(st.just(0), weights)


@st.composite
def bidiagonal_products(draw, square=False):
    """A window of a product of nonnegative bidiagonal factors, which is
    totally nonnegative; raising one entry may break that."""
    size = draw(integers(1, 6))
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(draw(integers(1, 3))):
        factor = [[0] * size for _ in range(size)]
        lower = draw(booleans)
        for i in range(size):
            factor[i][i] = draw(weights)
            if i + 1 < size:
                if lower:
                    factor[i + 1][i] = draw(weights)
                else:
                    factor[i][i + 1] = draw(weights)
        m = mat_mul(m, factor)
    nrows = draw(integers(1, size))
    ncols = nrows if square else draw(integers(1, size))
    m = [row[:ncols] for row in m[:nrows]]
    if draw(booleans):
        i = draw(integers(0, len(m) - 1))
        j = draw(integers(0, len(m[0]) - 1))
        m[i][j] += draw(integers(1, 5))
    return m


@given(st.one_of(dense_matrices(), bidiagonal_products()), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_tp_r_matches_reference(m, r):
    nrows, ncols = len(m), len(m[0])
    r_eff = min(r, nrows, ncols)
    note = None
    if r_eff < r:
        note = f"r clamped from {r} to {r_eff} (matrix is {nrows}x{ncols})"
    report = is_tp_r(m, r)
    expected = naive_first_negative_minor(m, r)
    if expected is None:
        assert report.to_dict() == tp_report(r_eff, note=note)
    else:
        rows, cols, minor = expected
        # det_exact and gauss_det both give an integral minor as int
        assert report.to_dict() == tp_report(r_eff, rows, cols, minor, note=note)
        assert type(report.witness["minor"]) is type(minor)


@st.composite
def sparse_triangular(draw):
    """Lower-triangular matrices with a positive diagonal, like the preset
    truncations, and mostly zero or small nonnegative entries below it; one
    of those is sometimes negative.  Half of them are transposed."""
    size = draw(integers(1, 6))
    m = [[draw(positive_weights if j == i else zero_or_weights) if j <= i else 0
          for j in range(size)] for i in range(size)]
    if size > 1 and draw(booleans):
        i = draw(integers(1, size - 1))
        m[i][draw(integers(0, i - 1))] = -draw(integers(1, 3))
    return [list(col) for col in zip(*m)] if draw(booleans) else m


square_bidiagonal_products = bidiagonal_products(square=True)


@st.composite
def singular_tn_matrices(draw):
    """A square bidiagonal product with a row replaced by zeros, or with a
    row and the last column each repeated next to themselves: singular, and
    totally nonnegative unless the product had an entry raised."""
    m = draw(square_bidiagonal_products)
    i = draw(integers(0, len(m) - 1))
    if draw(booleans):
        m.insert(i, list(m[i]))
        m = [row + [row[-1]] for row in m]
    else:
        m[i] = [0] * len(m)
    return m


@given(st.one_of(dense_matrices(square=True), square_bidiagonal_products,
                 sparse_triangular(), singular_tn_matrices()))
@settings(max_examples=300, deadline=None)
def test_neville_certificate_matches_reference(m):
    # certified exactly when no minor of any order is negative and the
    # determinant is not zero; int, Fraction and mixed rows are cleared first
    certified = properties._totally_nonnegative(clear_rows(m)[0])
    tn = naive_first_negative_minor(m, len(m)) is None
    assert certified == (tn and gauss_det(m) != 0)


def sparse_structured_matrices():
    """8x8 and 9x9 truncations of every preset, Toeplitz windows of their
    rows and recurrence matrices, each with one entry on or below the
    diagonal raised or lowered by 1, and r from 2 to 4 (at most 3 at 9x9,
    where a holding order-4 reference scan is slow)."""
    rng = random.Random(2024)
    cases = []
    for name in PRESET_NAMES:
        s = 2 if name == "s_pascal" else None
        mats = {f"{name}-{size}": build_preset(name, size - 1, s=s).to_matrix(size, size)
                for size in (8, 9)}
        mats[f"toeplitz-{name}"] = toeplitz(NumSeq(build_preset(name, 8, s=s).rows[-1]), 8)
        if preset(name, s).const_params is not None:
            mats[f"recurrence-{name}"] = recurrence_matrix(preset(name, s).const_params, 9)
        for label, m in mats.items():
            i = rng.randrange(1, len(m))
            m[i][rng.randrange(i + 1)] += rng.choice((-1, 1))
            r = 2 + len(cases) % (3 if len(m) == 8 else 2)
            cases.append(pytest.param(m, r, id=f"{label}-r{r}"))
    return cases


@pytest.mark.parametrize("m, r", sparse_structured_matrices())
def test_tp_r_matches_reference_on_sparse_structured(m, r):
    expected = naive_first_negative_minor(m, r)
    if expected is None:
        assert is_tp_r(m, r).to_dict() == tp_report(r)
    else:
        assert is_tp_r(m, r).to_dict() == tp_report(r, *expected)


# -- the production-matrix certificate ------------------------------------------------


@st.composite
def recursive_triangles(draw):
    """``(T, P)``: the square truncation T of the triangle T[j+1] = T[j]·P for
    a nonnegative tridiagonal integer P with N-1 rows and N columns.  P may
    first get a negative contiguous principal minor, of order 2 (a raised
    off-diagonal pair) or 3 (a block of ones); or T gets one entry on or
    below its diagonal raised or lowered by 1, and P is then ``None``."""
    size = draw(integers(1, 6))
    p = [[draw(integers(0, 3)) if abs(j - k) <= 1 else 0 for k in range(size)]
         for j in range(size - 1)]
    variant = draw(integers(0, 3))
    if variant == 1 and size >= 3:
        i = draw(integers(0, size - 3))
        p[i + 1][i] = max(p[i + 1][i], 1)
        p[i][i + 1] = p[i][i] * p[i + 1][i + 1] + draw(integers(1, 3))
    elif variant == 2 and size >= 4:
        i = draw(integers(0, size - 4))
        for j in range(i, i + 3):
            for k in range(max(j - 1, i), min(j + 2, i + 3)):
                p[j][k] = 1
    t = [[draw(integers(1, 3))] + [0] * (size - 1)]
    for j in range(size - 1):
        t.append([sum(t[j][i] * p[i][k] for i in range(j + 1)) for k in range(size)])
    if variant == 3:
        i = draw(integers(0, size - 1))
        t[i][draw(integers(0, i))] += draw(st.sampled_from((-1, 1)))
        p = None
    return t, p


@given(recursive_triangles(), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_production_certificate_matches_reference(case, r):
    m, p = case
    r_eff = min(r, len(m))
    note = None if r_eff == r else f"r clamped from {r} to {r_eff} (matrix is {len(m)}x{len(m)})"
    expected = naive_first_negative_minor(m, r)
    if expected is None:
        assert is_tp_r(m, r).to_dict() == tp_report(r_eff, note=note)
    else:
        assert is_tp_r(m, r).to_dict() == tp_report(r_eff, *expected, note=note)
    # with a positive diagonal the recovered P is the one T was built from, and
    # the certificate proves the largest order c <= r for which that P is TP_c
    if p is not None and len(m) > 1 and all(m[j][j] > 0 for j in range(len(m))):
        least = naive_first_negative_minor(p, r)
        assert properties._production_tp(m, r_eff) == (r_eff if least is None else len(least[0]) - 1)


class TestProductionRoute:
    MOTZKIN = build_preset("motzkin", 7).to_matrix(8, 8)

    def test_motzkin_is_proved_at_order_two(self, monkeypatch):
        # Neville refuses it, since Motzkin's matrix has a negative 3x3 minor;
        # its band of ones has contiguous minors 1, 0 and -1
        calls = count_laplace_steps(monkeypatch)
        assert not properties._totally_nonnegative(self.MOTZKIN)
        assert properties._production_tp(self.MOTZKIN, 2) == 2
        assert is_tp_r(self.MOTZKIN, 2).to_dict() == tp_report(2)
        assert calls == []

    def test_motzkin_walks_to_its_witness_at_order_three(self, monkeypatch):
        calls = count_laplace_steps(monkeypatch)
        assert properties._production_tp(self.MOTZKIN, 3) == 2
        assert is_tp_r(self.MOTZKIN, 3).to_dict() == tp_report(3, (1, 2, 3), (0, 1, 2), -1)
        assert calls

    def test_motzkin_searches_order_three_only(self, monkeypatch):
        # proved TP2, so only order 3 is searched: 10 prefixes (0, i) that can
        # still reach 3 rows, 55 tables (0, i, j), then (1, 2) and (1, 2, 3).
        m = build_preset("motzkin", 11).to_matrix(12, 12)
        calls = count_laplace_steps(monkeypatch)
        assert properties._production_tp(m, 4) == 2
        assert is_tp_r(m, 4).to_dict() == tp_report(4, (1, 2, 3), (0, 1, 2), -1)
        assert len(calls) == 67

    PASCAL = build_preset("pascal", 5).to_matrix(6, 6)

    def test_pascal_is_proved_at_every_order(self):
        orders = range(1, 7)
        assert [properties._production_tp(self.PASCAL, r) for r in orders] == list(orders)

    @pytest.mark.parametrize("m", [
        build_preset("s_pascal", 5, s=2).to_matrix(6, 6),
        PASCAL[:5] + [PASCAL[5][:5] + [0]],
        [[Fraction(2, 3)] + [0] * 5] + PASCAL[1:],
        PASCAL[:4] + [[PASCAL[4][0] + 1] + PASCAL[4][1:]] + PASCAL[5:],
    ], ids=["arity-2", "zero-diagonal", "rational-p", "off-band"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_refused_inputs_keep_their_report(self, m, r):
        # the certificate does not apply; Neville and the walk decide as before
        assert properties._production_tp(clear_rows(m)[0], r) == 0
        expected = naive_first_negative_minor(m, r)
        assert is_tp_r(m, r).to_dict() == tp_report(r, *(expected or ()))


seqs = st.lists(st.integers(0, 20), min_size=3, max_size=7)


@given(seqs)
@settings(max_examples=60, deadline=None)
def test_pf2_equivalence_hypothesis(vals):
    if has_internal_zero_gap(vals):
        return
    s = NumSeq(tuple(vals))
    assert is_log_concave(s).holds == is_pf_r(s, 2, len(vals)).holds


# -- pair scan against the schoolbook reference ----------------------------------

PAIR_CHECKS = (
    (is_strongly_q_log_convex, "strongly-q-log-convex", True, False),
    (is_strongly_q_log_concave, "strongly-q-log-concave", False, False),
    (is_q_log_convex, "q-log-convex", True, True),
    (is_q_log_concave, "q-log-concave", False, True),
)

big_ints = st.builds(lambda sign, v: sign * v, st.sampled_from((1, -1)),
                     st.integers(2**200, 2**202))
int_coeffs = st.one_of(st.integers(-3, 9), big_ints)
fraction_coeffs = st.sampled_from(fractions_between(-3, 9, 4))
# Denominators up to about 10^6, among them coprime primes, so that the common
# denominator of a sequence is far larger than that of any one polynomial.
PRIMES = (2, 3, 7, 999959, 999961, 999979, 999983)
prime_fractions = st.builds(Fraction, st.integers(-3 * 10**6, 9 * 10**6), st.sampled_from(PRIMES))
wide_fractions = st.one_of(
    st.fractions(min_value=-3, max_value=9, max_denominator=10**6), prime_fractions)
unit_fractions = st.integers(-3, 9).map(Fraction)


def poly_seqs(coeffs):
    return st.lists(st.lists(coeffs, max_size=5).map(QPoly), min_size=1, max_size=12)


@cache
def extreme_rows(top, length):
    row = fixed_lists(st.sampled_from((top, -top, 0)), length)
    return st.lists(row.map(QPoly), min_size=1, max_size=12)


@st.composite
def extreme_seqs(draw):
    """Coefficients of one magnitude 2^M - 1, all polynomials of one length:
    the product differences come closest to the packing bound."""
    top = 2 ** draw(integers(1, 70)) - 1
    length = draw(integers(1, 6))
    return draw(extreme_rows(top, length))


scales = st.sampled_from((1, 3, 2**200, Fraction(1, 3)))


@st.composite
def perturbed_powers(draw):
    """scale * (1+q)^k holds every variant with equality; one perturbed
    coefficient gives a late witness or none."""
    scale = draw(scales)
    polys = [list((scale * QPoly([1, 1]) ** k).coeffs)
             for k in range(draw(integers(1, 12)))]
    i = draw(integers(0, len(polys) - 1))
    j = draw(integers(0, len(polys[i]) - 1))
    polys[i][j] += draw(integers(-2, 2))
    return [QPoly(p) for p in polys]


ratio_denominators = st.sampled_from((1, 5, 9) + PRIMES)
perturbations = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1,) + PRIMES))


@st.composite
def rational_powers(draw):
    """c^k (1+q)^k for a rational c, shaped like the rational transform inputs:
    every variant holds with equality.  One coefficient perturbed, possibly by
    a fraction with a new denominator, gives a late witness or none."""
    c = Fraction(draw(integers(1, 9)), draw(ratio_denominators))
    polys = [list((c**k * QPoly([1, 1]) ** k).coeffs)
             for k in range(draw(integers(1, 12)))]
    i = draw(integers(0, len(polys) - 1))
    j = draw(integers(0, len(polys[i]) - 1))
    polys[i][j] += draw(perturbations)
    return [QPoly(p) for p in polys]


# Motzkin row polynomials 0..9 with one end replaced, so that the only failing
# strongly-q-log-convex pair is (3, 8), the last pair of row 3, whose outer
# product f_2 f_9 is the one formed afresh in that row; or (1, 2), inside row 1,
# which has no earlier row to take products from.
MOTZKIN_ROWGENS = row_polys(build_preset("motzkin", 9))
LAST_PAIR_ONLY = [*MOTZKIN_ROWGENS[:9],
                  QPoly([847, 1365, 1434, 1152, 722, 369, 139, 56, 21, 13, 12, 12])]
ROW_ONE_ONLY = [QPoly([41, -40, 40, -20, 0, 40]), *MOTZKIN_ROWGENS[1:]]


@given(
    st.one_of(
        poly_seqs(int_coeffs),
        poly_seqs(fraction_coeffs),
        poly_seqs(st.one_of(int_coeffs, fraction_coeffs)),
        poly_seqs(wide_fractions),
        poly_seqs(st.one_of(int_coeffs, unit_fractions, wide_fractions)),
        extreme_seqs(),
        perturbed_powers(),
        rational_powers(),
    ),
    st.integers(-5, 5),
)
@example(LAST_PAIR_ONLY, 0)
@example(ROW_ONE_ONLY, 2)
@settings(max_examples=400, deadline=None)
def test_pair_checks_match_reference(polys, offset):
    ps = PolySeq(tuple(polys), offset)
    window = (offset, offset + len(polys) - 1)
    for check, prop, convex, adjacent_only in PAIR_CHECKS:
        report = check(ps)
        expected = naive_first_failing_pair(ps.polys, convex, adjacent_only)
        if expected is None:
            assert report == PropertyReport(prop, window, HOLDS)
        else:
            n, m, index, coeff = expected
            witness = {"n": offset + n, "m": offset + m,
                       "coeff_index": index, "coeff": coeff}
            assert report == PropertyReport(prop, window, FAILS, witness=witness)
            assert type(report.witness["coeff"]) is type(coeff)


def test_rational_scan_forms_qpoly_products_only_for_its_witness(monkeypatch):
    c = Fraction(3, 7)
    polys = [c**k * QPoly([1, 1]) ** k for k in range(12)]
    broken = polys[:-1] + [polys[-1] - QPoly([Fraction(1, 999983)])]
    products = []
    mul = QPoly.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(QPoly, "__mul__", counted)
    assert is_strongly_q_log_convex(PolySeq(polys)).holds
    assert len(products) == 0
    report = is_strongly_q_log_convex(PolySeq(broken))
    assert (report.witness["n"], report.witness["m"]) == (1, 10)
    assert len(products) == 2


@pytest.mark.parametrize("length", range(1, 13))
@pytest.mark.parametrize("bits", (1, 2, 3, 7, 64))
def test_kronecker_width_bounds_extreme_differences(length, bits):
    # A false "holds" is the one packing error a witness recomputation
    # cannot catch, so the bound is checked where it is tightest: the
    # differences +-(X - Y) of two products of all-(2^M - 1) polynomials of one
    # length with opposite signs.  Their largest coefficient 2L(2^M - 1)^2 sits
    # at index L - 1, in the even class for odd L and in the odd class for
    # even L.  Every slot of both guarded words must read 2^(2h-1) + 2 d_i
    # exactly, with nothing above the last slot: a borrow or a carry between
    # slots would change a digit.  The Fraction case, top/D with D a prime
    # near 10^6, clears to its polynomials times D: the same integers, so the
    # same bound is checked.
    top = 2**bits - 1
    polys = (QPoly([top] * length), QPoly([-top] * length))
    worst = polys[0] * polys[0] - polys[0] * polys[1]
    assert max(worst.coeffs) == 2 * length * top * top
    for scale in (1, Fraction(1, 999983)):
        packed, guard, h = _kronecker(clear_rows([(scale * p).coeffs for p in polys],
                                                 common=True)[0])
        slot = 2 ** (2 * h)
        assert packed == [tuple(sum(c * x**i for i, c in enumerate(p.coeffs))
                                for x in (2**h, -2**h)) for p in polys]
        assert guard == sum(slot // 2 * slot**k for k in range(length))
        (a, a_), (b, b_) = packed
        for sign in (1, -1):
            d = (sign * worst).coeffs
            plus, minus = sign * (a * a - a * b), sign * (a_ * a_ - a_ * b_)
            odd = (guard << h) + plus - minus
            assert odd % 2**h == 0
            for word, ds in ((guard + plus + minus, d[0::2]), (odd >> h, d[1::2] + (0,))):
                digits = [word // slot**k % slot for k in range(length + 1)]
                assert digits == [slot // 2 + 2 * c for c in ds] + [0]


# The least failing pair of each sequence has exactly one negative
# coefficient, at index 0, 1 or the top index 2L - 2 of its difference.
ONE_NEGATIVE_COEFF = (
    (True, ([1, 1, 1], [2], [1, 1, 1]), 0),
    (True, ([2, 2, 2], [2, 3], [2, 2, 2]), 1),
    (True, ([1, 1, 1], [0, 0, 2], [1, 1, 1]), 4),
    (False, ([2], [1, 1, 1], [2]), 0),
    (False, ([1, 3], [2, 2, 2], [4]), 1),
    (False, ([0, 0, 2], [1, 1, 1], [0, 0, 2]), 4),
)


@pytest.mark.parametrize("convex, rows, index", ONE_NEGATIVE_COEFF)
@pytest.mark.parametrize("scale", (1, Fraction(1, 7)))
def test_pair_checks_find_a_lone_negative_coefficient(convex, rows, index, scale):
    polys = tuple(scale * QPoly(r) for r in rows)
    n, m, coeff_index, coeff = naive_first_failing_pair(polys, convex, False)
    outer, inner = polys[n - 1] * polys[m + 1], polys[n] * polys[m]
    diff = (outer - inner if convex else inner - outer).coeffs
    assert [i for i, c in enumerate(diff) if c < 0] == [coeff_index] == [index]
    check = is_strongly_q_log_convex if convex else is_strongly_q_log_concave
    report = check(PolySeq(polys))
    assert report.verdict == FAILS
    assert report.witness == {"n": n, "m": m, "coeff_index": index, "coeff": coeff}


# -- the J-fraction certificate before the strong convex scan ----------------------

THREE_TERM_PRESETS = tuple(name for name in PRESET_NAMES if name != "s_pascal")


@cache
def rowgens(name, n_max):
    return tuple(row_polys(build_preset(name, n_max)))


def coeff_rows(polys):
    return [p.coeffs for p in polys]


def jacobi_entries(polys):
    return list(properties._jacobi(coeff_rows(polys)))


def jfraction_depth(polys):
    return properties._jfraction_depth(coeff_rows(polys))


def no_packing(rows):
    raise AssertionError("the scan packed a sequence the certificate proves")


def test_motzkin_certificate_forms_no_packed_product(monkeypatch):
    polys = rowgens("motzkin", 40)
    entries = jacobi_entries(polys)
    assert entries[0::2] == [[1, 1]] + [[1]] * 19  # beta_0 .. beta_19
    assert entries[1::2] == [[1]] * 20  # gamma_1 .. gamma_20
    assert jfraction_depth(polys) == 20
    monkeypatch.setattr(properties, "_kronecker", no_packing)
    report = is_strongly_q_log_convex(PolySeq(polys))
    assert report == PropertyReport("strongly-q-log-convex", (0, 40), HOLDS)
    # 31 rows of at most 43 bits: a small sequence takes the certificate first too
    polys = rowgens("motzkin", 30)
    assert max(abs(c).bit_length() for p in polys for c in p.coeffs) == 43
    report = is_strongly_q_log_convex(PolySeq(polys))
    assert report == PropertyReport("strongly-q-log-convex", (0, 30), HOLDS)


def test_early_failure_runs_no_deep_certificate(monkeypatch):
    # R_2 = 2 + 2q + q^2 lowered to 1 + 2q + q^2 = R_1^2 makes gamma_1 = 0, and
    # R_3 is no moment of that finite J: the certificate proves no pair and
    # stops at row 3 (3 steps), and the scan finds the least failure.
    polys = list(rowgens("motzkin", 40))
    polys[2] = polys[2] - QPoly([1])
    expected = naive_first_failing_pair(polys, True, False)
    assert expected == (3, 3, 0, -7)
    steps = []
    step = properties._step

    def spy(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(properties, "_step", spy)
    report = is_strongly_q_log_convex(PolySeq(tuple(polys)))
    n, m, index, coeff = expected
    witness = {"n": n, "m": m, "coeff_index": index, "coeff": coeff}
    assert report == PropertyReport("strongly-q-log-convex", (0, 40), FAILS, witness=witness)
    assert len(steps) <= 10


def test_stirling2_jacobi_entries():
    entries = jacobi_entries(rowgens("stirling2", 30))
    assert entries[0::2] == [[k + 1, 1] for k in range(15)]  # beta_k = k + 1 + q
    assert entries[1::2] == [[0, k] for k in range(1, 16)]  # gamma_k = k q


@pytest.mark.parametrize("polys", [
    rowgens("pascal", 30),
    tuple(3**k * QPoly([1, 1]) ** k for k in range(31)),
], ids=["pascal", "integer-powers"])
def test_finite_jfraction_proves_every_pair(polys):
    # R_0 = 1, beta_0 = R_1, and gamma_1 = 0 ends J; every later row is one of its moments
    entries = jacobi_entries(polys)
    assert entries[0] == list(polys[1].coeffs)
    assert entries[1:] == [[]] * 29
    assert 2 * jfraction_depth(polys) + 1 >= 30
    # a row that is no moment of it ends the proof at the row before
    broken = polys[:20] + (polys[20] + QPoly([1]),) + polys[21:]
    assert jfraction_depth(broken) == 9


def test_rational_rows_reach_the_certificate_as_integers(monkeypatch):
    # Motzkin rows times 2^120/3 clear to the Motzkin rows times 2^120, whose
    # J is Motzkin's: depth 15 proves every pair of rows 0..30 without a scan.
    polys = tuple(Fraction(2**120, 3) * p for p in rowgens("motzkin", 30))
    seen = []
    divide = properties._divide

    def spy(a, d):
        seen.extend(map(type, [*a, *d]))
        return divide(a, d)

    monkeypatch.setattr(properties, "_divide", spy)
    monkeypatch.setattr(properties, "_kronecker", no_packing)
    report = is_strongly_q_log_convex(PolySeq(polys))
    assert report == PropertyReport("strongly-q-log-convex", (0, 30), HOLDS)
    assert seen and set(seen) == {int}


@pytest.mark.parametrize("rows", [31, 50])
def test_rational_j_is_left_to_the_scan(rows):
    # (3/7)^k (1+q)^k, k <= N, clears to 3^k 7^(N-k) (1+q)^k, whose beta_0 = 3/7 (1+q)
    # is no integer polynomial: the certificate proves nothing, and the scan
    # gives the verdict.  The sequence is geometric, f_0 = 1 and
    # f_{k+1} = f_k f_1, so f_{n-1} f_{m+1} = f_n f_m for every pair and it holds.
    polys = tuple(Fraction(3, 7) ** k * QPoly([1, 1]) ** k for k in range(rows))
    cleared = clear_rows(coeff_rows(polys), common=True)[0]
    assert properties._jfraction_depth(cleared) == -1
    assert polys[0] == QPoly([1])
    assert all(polys[k + 1] == polys[k] * polys[1] for k in range(rows - 1))
    report = is_strongly_q_log_convex(PolySeq(polys))
    assert report == PropertyReport("strongly-q-log-convex", (0, rows - 1), HOLDS)


@pytest.mark.parametrize("rows, depth", [
    ([[1], [0, 1], [1, 0, 1]], 0),  # gamma_1 = 1, but no beta_1 >= 0 with q beta_1 >= 1
    ([[1], [1, 1], [1, 3, 1]], 1),  # gamma_1 = q: beta_1 = q will do
    ([[2], [1], []], -1),  # beta_0 = 1/2 is no integer, so the walk stops there
    ([[1], [1], []], 0),  # beta_0 = 1, but gamma_1 = -1 < 0
    ([[1], [-1], [1]], -1),  # beta_0 = -1
    ([[1, 1], [1]], -1),  # R_0 is not a constant
    ([[], [1]], -1),
    ([[3]], 0),
])
def test_jfraction_depth_of_short_sequences(rows, depth):
    assert properties._jfraction_depth(rows) == depth


@st.composite
def lowered_presets(draw):
    """The rows 0..N (N <= 24) of a three-term preset with one entry lowered by 1."""
    rows = [list(p.coeffs) for p in
            rowgens(draw(st.sampled_from(THREE_TERM_PRESETS)), draw(integers(2, 24)))]
    r = draw(integers(0, len(rows) - 1))
    rows[r][draw(integers(0, len(rows[r]) - 1))] -= 1
    return [QPoly(row) for row in rows]


@given(lowered_presets())
@settings(max_examples=150, deadline=None)
def test_certified_scan_matches_reference_on_lowered_presets(polys):
    report = is_strongly_q_log_convex(PolySeq(tuple(polys)))
    expected = naive_first_failing_pair(polys, True, False)
    window = (0, len(polys) - 1)
    if expected is None:
        assert report == PropertyReport("strongly-q-log-convex", window, HOLDS)
    else:
        n, m, index, coeff = expected
        witness = {"n": n, "m": m, "coeff_index": index, "coeff": coeff}
        assert report == PropertyReport("strongly-q-log-convex", window, FAILS, witness=witness)


def test_certificate_skips_only_pairs_that_hold():
    # The pairs with m + 1 <= 2K + 1 are all the pairs of rows 0..2K+1.
    tuples = list(product(range(4), repeat=7))
    random.Random(21).shuffle(tuples)
    proved = 0
    for p in tuples[:2000]:
        polys = row_polys(from_const_params(ConstParams(*p), 12))
        depth = jfraction_depth(polys)
        if depth > 0:
            assert naive_first_failing_pair(polys[:2 * depth + 2], True, False) is None, p
            proved += 1
    assert proved >= 150
