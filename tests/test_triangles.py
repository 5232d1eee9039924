"""Triangle generators, presets, generalized binomial rows, matrix identities."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    expansion_bisnomial_row,
    schoolbook_alpha_beta,
    schoolbook_five_term,
    schoolbook_recurrence_matrix,
    schoolbook_three_term,
    src_env,
)
from tripos import oracles
from tripos.algebra import QPoly, mat_mul
from tripos.errors import (
    FileFormatError,
    SchemeDomainError,
    SequenceRangeError,
    UnknownPresetError,
)
from tripos.triangles import (
    PRESET_NAMES,
    CoeffScheme,
    ConstParams,
    Triangle,
    bisnomial,
    bisnomial_row,
    build_preset,
    from_bisnomial,
    from_const_params,
    from_five_term,
    from_three_term,
    preset,
    q_power_matrix,
    recurrence_matrix,
    row_poly,
    row_tail_matrix,
    row_tail_poly,
)

ONE = CoeffScheme.constant(1)
ZERO = CoeffScheme.constant(0)


class TestBisnomial:
    def test_known_rows(self):
        assert bisnomial_row(2, 2) == [1, 2, 3, 2, 1]
        assert bisnomial_row(3, 2) == [1, 3, 6, 7, 6, 3, 1]
        assert bisnomial_row(4, 1) == [1, 4, 6, 4, 1]
        assert bisnomial_row(0, 3) == [1]

    def test_out_of_range_is_zero(self):
        assert bisnomial(3, -1, 2) == 0
        assert bisnomial(3, 7, 2) == 0
        assert bisnomial(3, 6, 2) == 1

    def test_s_below_one_rejected(self):
        with pytest.raises(ValueError, match="s must be a positive integer"):
            bisnomial(1, 0, 0)

    @given(st.integers(0, 30), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, n, s):
        row = bisnomial_row(n, s)
        assert row == row[::-1]

    @given(st.integers(0, 15), st.integers(1, 3))
    @settings(max_examples=45, deadline=None)
    def test_matches_polynomial_expansion(self, n, s):
        assert bisnomial_row(n, s) == expansion_bisnomial_row(n, s)

    def test_matches_qpoly_power(self):
        for s in (1, 2, 3):
            for n in range(16):
                assert tuple(bisnomial_row(n, s)) == (QPoly([1] * (s + 1)) ** n).coeffs

    def test_s1_is_binomial(self):
        from math import comb

        for n in range(21):
            assert bisnomial_row(n, 1) == [comb(n, k) for k in range(n + 1)]

    def test_row_sums(self):
        for s in (1, 2, 3):
            t = from_bisnomial(s, 20)
            for n in range(21):
                assert sum(t.rows[n]) == (s + 1) ** n

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="s must be a positive integer"):
            bisnomial_row(2, 0)
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            bisnomial_row(-1, 2)


class TestThreeTerm:
    def test_motzkin_column(self):
        t = from_three_term(ONE, ONE, 5)
        assert [t.rows[n][0] for n in range(6)] == oracles.motzkin_numbers(5)
        assert [t.rows[n][0] for n in range(6)] == [1, 1, 2, 4, 9, 21]

    def test_aigner_column_is_catalan(self):
        f = CoeffScheme.table([1] + [2] * 5, 0)
        t = from_three_term(f, ONE, 5)
        assert [t.rows[n][0] for n in range(6)] == [1, 1, 2, 5, 14, 42]
        assert [t.rows[n][0] for n in range(6)] == oracles.catalan_numbers(5)

    def test_reduces_to_pascal(self):
        t = from_three_term(ONE, ZERO, 6)
        for n in range(7):
            assert list(t.rows[n]) == oracles.pascal_row(n)

    def test_table_domain_too_small(self):
        short = CoeffScheme.table([1, 1], 0)
        with pytest.raises(SchemeDomainError):
            from_three_term(short, ZERO, 5)


class TestFiveTerm:
    def test_two_pascal(self):
        t = from_five_term(ONE, ONE, ONE, ZERO, ZERO, 6)
        assert list(t.rows[2]) == [1, 2, 3, 2, 1]
        for n in range(7):
            assert list(t.rows[n]) == bisnomial_row(n, 2)

    def test_f_only_survives_column_zero(self):
        t = from_five_term(ZERO, ZERO, ONE, ZERO, ZERO, 4)
        for n in range(5):
            assert list(t.rows[n]) == [1] + [0] * (2 * n)

    def test_all_ones_unrolled(self):
        t = from_five_term(ONE, ONE, ONE, ONE, ONE, 2)
        assert list(t.rows[1]) == [1, 1, 1]
        assert t.rows[2][0] == 3


class TestConstParams:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstParams(1, 1, -1, 1, 1, 0, 0)

    def test_two_pascal_matches_five_term(self):
        tc = from_const_params(ConstParams(1, 1, 1, 1, 1, 0, 0), 40)
        for n in range(41):
            assert list(tc.rows[n]) == bisnomial_row(n, 2)

    def test_motzkin_embedding(self):
        t = from_const_params(ConstParams(1, 1, 0, 1, 1, 1, 0), 8)
        assert [t.rows[n][0] for n in range(9)] == oracles.motzkin_numbers(8)
        # zero tail beyond column n when gamma = h = 0
        for n in range(9):
            assert all(v == 0 for v in t.rows[n][n + 1:])

    def test_alpha_f_only(self):
        # Only the alpha/f chain survives: column 0 stays 1, all else 0.
        t = from_const_params(ConstParams(1, 0, 0, 0, 1, 0, 0), 4)
        for n in range(5):
            assert list(t.rows[n]) == [1] + [0] * (2 * n)


@pytest.mark.parametrize("generate", [
    lambda n: from_three_term(ONE, ONE, n),
    lambda n: from_five_term(ONE, ONE, ONE, ZERO, ZERO, n),
    lambda n: from_const_params(ConstParams(1, 1, 0, 1, 1, 1, 0), n),
    lambda n: from_bisnomial(2, n),
    *(lambda n, name=name: build_preset(name, n, s=2 if name == "s_pascal" else None)
      for name in PRESET_NAMES),
], ids=["three-term", "five-term", "const-params", "bisnomial", *PRESET_NAMES])
def test_negative_n_max_rejected(generate):
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        generate(-1)
    assert len(generate(0).rows) == 1


class TestPresets:
    def test_registry_and_validation(self):
        for name in ("pascal", "stirling2", "aigner_catalan", "shapiro_catalan",
                      "motzkin", "bell", "schroder_large"):
            build_preset(name, 21)  # validators raise on any oracle mismatch

    def test_shapiro_rows(self):
        t = build_preset("shapiro_catalan", 3)
        assert [list(r) for r in t.rows] == [[1], [2, 1], [5, 4, 1], [14, 14, 6, 1]]

    def test_bell_column(self):
        t = build_preset("bell", 5)
        assert [t.rows[n][0] for n in range(6)] == [1, 1, 2, 5, 15, 52]

    def test_pascal_row4(self):
        assert list(build_preset("pascal", 4).rows[4]) == [1, 4, 6, 4, 1]

    def test_stirling_rows(self):
        t = build_preset("stirling2", 4)
        assert list(t.rows[3]) == [1, 7, 6, 1]  # S(4, 1..4)

    def test_schroder_column(self):
        t = build_preset("schroder_large", 4)
        assert [t.rows[n][0] for n in range(5)] == [1, 2, 6, 22, 90]

    def test_s_pascal(self):
        t = build_preset("s_pascal", 5, s=2)
        assert list(t.rows[2]) == [1, 2, 3, 2, 1]
        with pytest.raises(UnknownPresetError):
            preset("s_pascal")

    def test_s_on_preset_without_s(self):
        with pytest.raises(UnknownPresetError, match="preset pascal takes no s"):
            build_preset("pascal", 3, s=2)

    @staticmethod
    def _raised_under_optimize(setup: str, name: str, **kwargs) -> str:
        # Validation must not rest on assert, which python -O strips.
        script = (
            "from tripos import triangles\n"
            "from tripos.records import replace\n"
            "from tripos.errors import OracleMismatchError\n"
            f"{setup}"
            "try:\n"
            f"    triangles.build_preset({name!r}, 6, **{kwargs!r})\n"
            "except OracleMismatchError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env(),
                             capture_output=True, text=True, check=True)
        return out.stdout

    def test_wrong_triangle_raises_under_optimize(self):
        out = self._raised_under_optimize(
            "p = triangles.PRESETS['motzkin']\n"
            "triangles.PRESETS['motzkin'] = replace(\n"
            "    p, const_params=triangles.ConstParams(1, 1, 0, 1, 1, 2, 0))\n",
            "motzkin")
        assert out.startswith("raised: motzkin column-0 mismatch")

    def test_wrong_rows_raise_under_optimize(self):
        # f = 2 keeps column 0 at 1, so only the whole-row comparison sees it
        out = self._raised_under_optimize(
            "p = triangles.PRESETS['pascal']\n"
            "triangles.PRESETS['pascal'] = replace(\n"
            "    p, const_params=triangles.ConstParams(1, 1, 0, 1, 2, 0, 0))\n",
            "pascal")
        assert out.startswith("raised: pascal rows mismatch")

    def test_asymmetric_s_pascal_raises_under_optimize(self):
        # row 1 becomes (1, 1, 2): column 0 still holds 1, the row is not symmetric
        out = self._raised_under_optimize(
            "generate = triangles.from_bisnomial\n"
            "def skewed(s, n_max):\n"
            "    rows = list(generate(s, n_max).rows)\n"
            "    rows[1] = rows[1][:-1] + (2,)\n"
            "    return triangles.Triangle(tuple(rows), s)\n"
            "triangles.from_bisnomial = skewed\n",
            "s_pascal", s=2)
        assert out == "raised: s_pascal rows not symmetric\n"

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            build_preset("fibonacci", 5)

    def test_const_params_reproduce_three_term_presets(self):
        for name in ("pascal", "aigner_catalan", "shapiro_catalan",
                      "motzkin", "schroder_large"):
            p = preset(name)
            assert p.const_params is not None
            t1 = build_preset(name, 12)
            t2 = from_const_params(p.const_params, 12)
            for n in range(13):
                padded = list(t1.rows[n]) + [0] * n
                assert list(t2.rows[n]) == padded, (name, n)


class TestRowPolys:
    def test_motzkin_row2(self):
        t = build_preset("motzkin", 4)
        assert row_poly(t, 2) == QPoly([2, 2, 1])

    def test_single_row(self):
        assert row_poly(build_preset("pascal", 0), 0) == QPoly.ONE

    def test_two_pascal_row1(self):
        t = from_bisnomial(2, 3)
        assert row_poly(t, 1) == QPoly([1, 1, 1])

    def test_out_of_range(self):
        with pytest.raises(SequenceRangeError):
            row_poly(build_preset("pascal", 3), 4)


class TestTailMatrix:
    def test_motzkin_row2_tails(self):
        t = build_preset("motzkin", 4)
        assert row_tail_poly(t, 2, 0) == QPoly([2, 2, 1])
        assert row_tail_poly(t, 2, 1) == QPoly([0, 2, 1])
        assert row_tail_poly(t, 2, 2) == QPoly([0, 0, 1])
        assert row_tail_poly(t, 2, 3).is_zero

    def test_row0(self):
        t = build_preset("motzkin", 2)
        assert row_tail_poly(t, 0, 0) == QPoly.ONE
        assert row_tail_poly(t, 0, 1).is_zero

    def test_negative_column_raises(self):
        # row[-1:] is the last entry, not the tail from column -1
        t = build_preset("pascal", 3)
        with pytest.raises(ValueError, match="negative"):
            row_tail_poly(t, 2, -1)

    def test_factorization_tails_equal_triangle_times_qpowers(self):
        for params in (ConstParams(1, 1, 0, 1, 1, 1, 0),
                       ConstParams(1, 1, 1, 1, 1, 0, 0),
                       ConstParams(2, 1, 0, 1, 3, 2, 0)):
            n_max = 15
            t = from_const_params(params, n_max)
            width = 2 * n_max + 1
            lhs = row_tail_matrix(t, n_max + 1, width)
            rhs = mat_mul(t.to_matrix(n_max + 1, width), q_power_matrix(width))
            assert lhs == rhs


class TestRecurrenceMatrix:
    def test_display(self):
        p = ConstParams(3, 5, 7, 2, 4, 6, 8)
        m = recurrence_matrix(p, 3)
        assert m == [[3, 5, 7], [6, 4, 2], [8, 6, 4]]

    def test_motzkin_values(self):
        m = recurrence_matrix(ConstParams(1, 1, 0, 1, 1, 1, 0), 3)
        assert m == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]

    def test_size_zero_raises(self):
        with pytest.raises(ValueError, match="size must be >= 1"):
            recurrence_matrix(ConstParams(1, 1, 0, 1, 1, 1, 0), 0)

    def test_band_layout(self):
        p = ConstParams(1, 2, 3, 4, 5, 6, 7)
        m = recurrence_matrix(p, 6)
        assert m[3][1] == p.h and m[3][2] == p.g and m[3][3] == p.f
        assert m[3][4] == p.e and m[3][5] == p.gamma
        assert m[5][0] == 0 and m[5][2] == 0

    def test_deleted_row_identity(self):
        # Dropping the triangle matrix's first row equals multiplying by J.
        for name in ("pascal", "aigner_catalan", "shapiro_catalan",
                      "motzkin", "schroder_large"):
            p = preset(name).const_params
            t = from_const_params(p, 16)
            for size in (4, 9, 15):
                a = t.to_matrix(size, size)
                shifted = [[t.entry(i + 1, j) for j in range(size)] for i in range(size)]
                assert mat_mul(a, recurrence_matrix(p, size)) == shifted, (name, size)


class TestSerialization:
    def test_roundtrip(self):
        t = build_preset("motzkin", 5)
        assert Triangle.parse(t.serialize()) == t

    def test_header_format(self):
        text = build_preset("pascal", 2).serialize()
        lines = text.splitlines()
        assert lines[0] == "# arity=1 n_max=2"
        assert lines[1:] == ["1", "1 1", "1 2 1"]

    def test_fraction_entries_roundtrip(self):
        half = CoeffScheme.constant(Fraction(1, 2))
        t = from_three_term(half, ZERO, 3)
        parsed = Triangle.parse(t.serialize())
        assert parsed == t
        # integral entries come back as int, the others as Fraction
        mixed = ((7,), (Fraction(-3, 4), -10 ** 40, Fraction(7, 10 ** 12)))
        parsed = Triangle.parse(Triangle(mixed, 2).serialize())
        assert [[(type(x), x) for x in row] for row in parsed.rows] == \
               [[(type(x), x) for x in row] for row in mixed]

    def test_missing_header(self):
        with pytest.raises(FileFormatError):
            Triangle.parse("1\n1 1\n")

    def test_wrong_width(self):
        with pytest.raises(FileFormatError):
            Triangle.parse("# arity=1 n_max=1\n1\n1 2 3\n")

    def test_non_integer_header(self):
        with pytest.raises(FileFormatError, match="bad triangle header"):
            Triangle.parse("# arity=x n_max=1\n1\n1 1\n")

    def test_wrong_row_count(self):
        with pytest.raises(FileFormatError):
            Triangle.parse("# arity=1 n_max=3\n1\n1 1\n")

    def test_no_rows(self):
        with pytest.raises(FileFormatError, match="row 0"):
            Triangle((), 1)
        with pytest.raises(FileFormatError, match="row 0"):
            Triangle.parse("# arity=1 n_max=-1\n")


class TestSchemes:
    def test_affine(self):
        s = CoeffScheme.affine(2, 3)
        assert s.at(0) == 3 and s.at(4) == 11

    def test_table_bounds(self):
        s = CoeffScheme.table([5, 6], start=2)
        assert s.at(2) == 5 and s.at(3) == 6
        with pytest.raises(SchemeDomainError):
            s.at(4)
        with pytest.raises(SchemeDomainError):
            s.at(1)

    @pytest.mark.parametrize("text, c", [("3", 3), ("1", 1), ("-5/3", Fraction(-5, 3))])
    def test_constant_is_affine_of_slope_zero(self, text, c):
        s = CoeffScheme.from_dict({"constant": text})
        assert s == CoeffScheme.constant(c) == CoeffScheme.affine(0, c)
        for k in (0, 1, 7):
            assert s.at(k) == c and type(s.at(k)) is type(c)
        assert type(CoeffScheme.constant(Fraction(1)).at(7)) is Fraction


# -- generators against the schoolbook formulas ------------------------------------

weights = st.one_of(
    st.integers(-2, 3),
    st.builds(Fraction, st.integers(-3, 5), st.integers(2, 3)),
)
nonneg_weights = st.one_of(
    st.integers(0, 3),
    st.builds(Fraction, st.integers(0, 5), st.integers(1, 3)),
)
# Tables start at 0..2 and may be too short for the rows requested.
coeff_schemes = st.one_of(
    st.builds(CoeffScheme.constant, weights),
    st.builds(CoeffScheme.affine, weights, weights),
    st.builds(CoeffScheme.table, st.lists(weights, max_size=16), st.integers(0, 2)),
)
const_params = st.builds(ConstParams, *[nonneg_weights] * 7)


def _typed(rows):
    return [[(x, type(x)) for x in row] for row in rows]


def assert_same_rows(generate, reference):
    """Equal entries of equal type, or the same exception from both."""
    try:
        expected = reference()
    except SchemeDomainError as exc:
        with pytest.raises(type(exc)):
            generate()
        return
    assert _typed(generate().rows) == _typed(expected)


class TestAgainstSchoolbook:
    @given(coeff_schemes, coeff_schemes, st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_three_term(self, f, g, n_max):
        assert_same_rows(lambda: from_three_term(f, g, n_max),
                         lambda: schoolbook_three_term(f.at, g.at, n_max))

    @given(st.lists(coeff_schemes, min_size=5, max_size=5), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_five_term(self, schemes, n_max):
        assert_same_rows(lambda: from_five_term(*schemes, n_max),
                         lambda: schoolbook_five_term(*(s.at for s in schemes), n_max))

    @given(const_params, st.integers(0, 6), st.integers(1, 7))
    @example(ConstParams(1, 1, 1, 1, 1, 1, 1), 6, 3)  # every weight 1: a sliding sum
    @settings(max_examples=200, deadline=None)
    def test_const_params_and_recurrence_matrix(self, p, n_max, size):
        assert_same_rows(lambda: from_const_params(p, n_max),
                         lambda: schoolbook_alpha_beta(p, n_max))
        assert _typed(recurrence_matrix(p, size)) == _typed(schoolbook_recurrence_matrix(p, size))

    @given(st.integers(1, 6), st.integers(0, 8))
    @example(6, 8)
    @settings(max_examples=60, deadline=None)
    def test_bisnomial(self, s, n_max):
        expected = [expansion_bisnomial_row(n, s) for n in range(n_max + 1)]
        assert _typed(from_bisnomial(s, n_max).rows) == _typed(expected)
        assert _typed([bisnomial_row(n_max, s)]) == _typed(expected[-1:])

    def test_short_table_raises_as_the_schoolbook_does(self):
        short = CoeffScheme.table([1, 2], start=1)
        for generate, reference in (
            (lambda: from_three_term(ONE, short, 3),
             lambda: schoolbook_three_term(ONE.at, short.at, 3)),
            (lambda: from_five_term(short, ONE, ONE, ONE, ONE, 2),
             lambda: schoolbook_five_term(short.at, ONE.at, ONE.at, ONE.at, ONE.at, 2)),
        ):
            with pytest.raises(SchemeDomainError):
                reference()
            assert_same_rows(generate, reference)
