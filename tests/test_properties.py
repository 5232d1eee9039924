"""Sequence and matrix property checkers, cross-validated against brute force."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    gauss_det,
    has_internal_zero_gap,
    naive_first_failing_pair,
    naive_first_negative_minor,
    random_q_tp2_matrix,
    random_tp2_matrix,
)
from tripos import properties
from tripos.algebra import QPoly, mat_mul
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
    bisnomial_row,
    build_preset,
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
    """The scan visits row subsets depth first, so it meets a deeper failure
    before a shallower one that comes later; the witness must still be the
    least failure by (order, rows, cols)."""

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
    def test_one_laplace_step_per_row_subset(self, monkeypatch, size, r):
        # one table per row j-subset, j <= r; the per-order walks this one
        # replaced took 60, 251 and 247 steps on these matrices.  is_tp_r
        # certifies these without walking, so the walk is called directly.
        calls = count_laplace_steps(monkeypatch)
        m = build_preset("pascal", size - 1).to_matrix(size, size)
        assert properties._first_negative_minor(m, size, r) is None
        assert len(calls) == sum(comb(size, j) for j in range(1, r + 1))


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

int_entries = st.integers(-4, 6)
fraction_entries = st.fractions(min_value=-4, max_value=6, max_denominator=6)
entry_kinds = st.sampled_from(
    (int_entries, fraction_entries, st.one_of(int_entries, fraction_entries))
)


@st.composite
def dense_matrices(draw, square=False):
    """Rows of int, Fraction or mixed entries, some rows and columns zeroed."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    m = []
    for _ in range(nrows):
        entries = draw(entry_kinds)
        m.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        m[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in m:
            row[j] = 0
    return m


weights = st.one_of(st.integers(0, 3),
                    st.fractions(min_value=0, max_value=3, max_denominator=4))


@st.composite
def bidiagonal_products(draw, square=False):
    """A window of a product of nonnegative bidiagonal factors, which is
    totally nonnegative; raising one entry may break that."""
    size = draw(st.integers(1, 6))
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(draw(st.integers(1, 3))):
        factor = [[0] * size for _ in range(size)]
        lower = draw(st.booleans())
        for i in range(size):
            factor[i][i] = draw(weights)
            if i + 1 < size:
                if lower:
                    factor[i + 1][i] = draw(weights)
                else:
                    factor[i][i + 1] = draw(weights)
        m = mat_mul(m, factor)
    nrows = draw(st.integers(1, size))
    ncols = nrows if square else draw(st.integers(1, size))
    m = [row[:ncols] for row in m[:nrows]]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(m) - 1))
        j = draw(st.integers(0, len(m[0]) - 1))
        m[i][j] += draw(st.integers(1, 5))
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
    size = draw(st.integers(1, 6))
    below = st.one_of(st.just(0), weights)
    m = [[draw(weights.filter(bool) if j == i else below) if j <= i else 0
          for j in range(size)] for i in range(size)]
    if size > 1 and draw(st.booleans()):
        i = draw(st.integers(1, size - 1))
        m[i][draw(st.integers(0, i - 1))] = -draw(st.integers(1, 3))
    return [list(col) for col in zip(*m)] if draw(st.booleans()) else m


@st.composite
def singular_tn_matrices(draw):
    """A square bidiagonal product with a row replaced by zeros, or with a
    row and the last column each repeated next to themselves: singular, and
    totally nonnegative unless the product had an entry raised."""
    m = draw(bidiagonal_products(square=True))
    i = draw(st.integers(0, len(m) - 1))
    if draw(st.booleans()):
        m.insert(i, list(m[i]))
        m = [row + [row[-1]] for row in m]
    else:
        m[i] = [0] * len(m)
    return m


@given(st.one_of(dense_matrices(square=True), bidiagonal_products(square=True),
                 sparse_triangular(), singular_tn_matrices()))
@settings(max_examples=300, deadline=None)
def test_neville_certificate_matches_reference(m):
    # certified exactly when no minor of any order is negative and the
    # determinant is not zero; int, Fraction and mixed rows are cleared first
    certified = properties._totally_nonnegative(properties._clear_rows(m))
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
fraction_coeffs = st.fractions(min_value=-3, max_value=9, max_denominator=4)
# Denominators up to about 10^6, among them coprime primes, so that the common
# denominator of a sequence is far larger than that of any one polynomial.
PRIMES = (2, 3, 7, 999959, 999961, 999979, 999983)
prime_fractions = st.builds(Fraction, st.integers(-3 * 10**6, 9 * 10**6), st.sampled_from(PRIMES))
wide_fractions = st.one_of(
    st.fractions(min_value=-3, max_value=9, max_denominator=10**6), prime_fractions)
unit_fractions = st.integers(-3, 9).map(Fraction)


def poly_seqs(coeffs):
    return st.lists(st.lists(coeffs, max_size=5).map(QPoly), min_size=1, max_size=12)


@st.composite
def extreme_seqs(draw):
    """Coefficients of one magnitude 2^M - 1, all polynomials of one length:
    the product differences come closest to the packing bound."""
    top = 2 ** draw(st.integers(1, 70)) - 1
    length = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from((top, -top, 0)), min_size=length, max_size=length)
    return draw(st.lists(row.map(QPoly), min_size=1, max_size=12))


@st.composite
def perturbed_powers(draw):
    """scale * (1+q)^k holds every variant with equality; one perturbed
    coefficient gives a late witness or none."""
    scale = draw(st.sampled_from((1, 3, 2**200, Fraction(1, 3))))
    polys = [list((scale * QPoly([1, 1]) ** k).coeffs)
             for k in range(draw(st.integers(1, 12)))]
    i = draw(st.integers(0, len(polys) - 1))
    j = draw(st.integers(0, len(polys[i]) - 1))
    polys[i][j] += draw(st.integers(-2, 2))
    return [QPoly(p) for p in polys]


@st.composite
def rational_powers(draw):
    """c^k (1+q)^k for a rational c, shaped like the rational transform inputs:
    every variant holds with equality.  One coefficient perturbed, possibly by
    a fraction with a new denominator, gives a late witness or none."""
    c = Fraction(draw(st.integers(1, 9)), draw(st.sampled_from((1, 5, 9) + PRIMES)))
    polys = [list((c**k * QPoly([1, 1]) ** k).coeffs)
             for k in range(draw(st.integers(1, 12)))]
    i = draw(st.integers(0, len(polys) - 1))
    j = draw(st.integers(0, len(polys[i]) - 1))
    polys[i][j] += draw(st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1,) + PRIMES)))
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


@pytest.mark.parametrize("length", range(1, 9))
@pytest.mark.parametrize("bits", (1, 2, 3, 7, 64))
def test_kronecker_width_bounds_extreme_differences(length, bits):
    # A false "holds" is the one packing error a witness recomputation
    # cannot catch, so the bound is checked where it is tightest: two
    # products of all-(2^M - 1) polynomials of one length, opposite signs.
    # The Fraction case, top/D with D a prime near 10^6, packs its polynomials
    # times D: the same integers, so the same bound is checked.
    top = 2**bits - 1
    polys = (QPoly([top] * length), QPoly([-top] * length))
    for scale in (1, Fraction(1, 999983)):
        packed, guard = _kronecker([scale * p for p in polys])
        b = (guard & -guard).bit_length() - 1
        w = b + 1
        worst = max(abs(c) for c in (polys[0] * polys[0] - polys[0] * polys[1]).coeffs)
        assert worst == 2 * length * top * top
        assert worst < 2**b
        assert bin(guard).count("1") == 2 * length - 1
        assert [sum(c << w * i for i, c in enumerate(p.coeffs)) for p in polys] == packed
