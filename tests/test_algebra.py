"""Exact polynomial arithmetic, the coefficientwise order, and determinants."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fraction_parse_exact, gauss_det, naive_det
from tripos.algebra import (
    QPoly,
    clear_rows,
    det_exact,
    format_exact,
    mat_mul,
    parse_exact,
    poly_geq_q,
)
from tripos.errors import DigitLimitError, DimensionError, TriposError
from tripos.properties import is_q_tp2, is_tp_r

polys = st.lists(st.integers(-9, 9), max_size=6).map(QPoly)
small_polys = st.lists(st.integers(0, 5), max_size=4).map(QPoly)

# Tokens for the parse_exact differential test.  Digits include non-ASCII
# decimal digits (Arabic-Indic, Devanagari, fullwidth, mathematical bold),
# separators are single or doubled underscores, and padding is whitespace
# that both str.strip() and int() remove.
_DIGIT = st.sampled_from("0123456789" "\u0660\u0669\u0966\u096f\uff10\uff19\U0001d7ce\U0001d7d7")
_PAD = st.sampled_from(["", " ", "\t", "\n", "\x0b", "\x1c", "\xa0", "\u2003", "\u3000"])
_SIGN = st.sampled_from(["", "", "+", "-", "--", "+-", "\u2212"])
_SEP = st.sampled_from(["", "", "", "_", "__"])
_digits = st.lists(st.tuples(_SEP, _DIGIT), min_size=1, max_size=12).map(
    lambda parts: "".join(sep + d for sep, d in parts))
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_long_digits = st.integers(max(_LIMIT - 2, 1), _LIMIT + 3).map(lambda n: "7" * n)
_integer_token = st.builds(lambda a, sign, digits, b: a + sign + digits + b,
                           _PAD, _SIGN, st.one_of(_digits, _long_digits), _PAD)
_ratio_token = st.builds(lambda p, sep, q: p + sep + q, _integer_token,
                         st.sampled_from(["/", "/", " / ", "//"]),
                         st.one_of(_integer_token, st.just("0")))
_decimal_token = st.builds(lambda sign, whole, dot, frac, exp: sign + whole + dot + frac + exp,
                           _SIGN, st.one_of(st.just(""), _digits), st.sampled_from([".", ""]),
                           st.one_of(st.just(""), _digits),
                           st.sampled_from(["", "e3", "E-2", "e+0", "e", "e_1", "e1_0"]))
_number_tokens = st.one_of(_integer_token, _ratio_token, _decimal_token,
                           st.text(max_size=8),
                           st.text(alphabet="0123456789+-_/.eE \t", max_size=10))


def _outcome(parse, text):
    """Value and exact type of a parse, or the type and text of its error."""
    try:
        value = parse(text)
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


class TestQPoly:
    def test_binomial_square(self):
        f = QPoly([1, 1])
        assert (f * f).coeffs == (1, 2, 1)

    def test_trinomial_square(self):
        # Row [1, 2, 3, 2, 1] of the s=2 triangle is the square of 1+q+q^2.
        f = QPoly([1, 1, 1])
        assert (f * f).coeffs == (1, 2, 3, 2, 1)

    def test_self_difference_is_zero(self):
        f = QPoly([3, 0, -2, 7])
        assert (f - f).is_zero
        assert (f - f).coeffs == ()

    def test_trailing_zeros_stripped(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([0, 0]).is_zero

    def test_degree(self):
        assert QPoly().degree == -1
        assert QPoly([5]).degree == 0
        assert QPoly([0, 0, 1]).degree == 2

    def test_scalar_and_shift(self):
        f = QPoly([1, 2])
        assert (3 * f).coeffs == (3, 6)
        assert (Fraction(1, 2) * f).coeffs == (Fraction(1, 2), 1)
        assert f.shift(2).coeffs == (0, 0, 1, 2)
        assert QPoly.ZERO.shift(5).is_zero

    def test_negative_shift_raises(self):
        # q^-1 * (1 + 2q) is no polynomial; it must not come back unshifted
        for f in (QPoly([1, 2]), QPoly.ZERO):
            with pytest.raises(ValueError, match="negative shift"):
                f.shift(-1)

    def test_zero_operand_product_is_zero(self):
        f = QPoly([1, 2])
        for product in (QPoly() * f, f * QPoly(), QPoly() * QPoly()):
            assert product == QPoly.ZERO and product.coeffs == ()

    def test_constants_are_frozen(self):
        # QPoly.ZERO seeds every transform sum; a write to it would corrupt every later one.
        for f, coeffs in ((QPoly.ZERO, ()), (QPoly.ONE, (1,))):
            with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
                f.coeffs = (2,)
            with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
                del f.coeffs
            assert f.coeffs == coeffs

    def test_pow(self):
        assert (QPoly([1, 1]) ** 4).coeffs == (1, 4, 6, 4, 1)
        assert (QPoly([1, 1]) ** 0) == QPoly.ONE

    def test_negative_pow_raises(self):
        with pytest.raises(ValueError, match="negative power"):
            QPoly([1, 1]) ** -1

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_mul_associative_commutative(self, f, g, h):
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h


class TestCoefficientwiseOrder:
    def test_holds(self):
        assert poly_geq_q(QPoly([1, 2]), QPoly([1, 1])).holds

    def test_fails_with_witness(self):
        v = poly_geq_q(QPoly([1, 1]), QPoly([2]))
        assert not v
        assert v.index == 0
        assert v.value == -1

    def test_equal_polynomials(self):
        f = QPoly([1, 5, 2])
        assert poly_geq_q(f, f).holds

    def test_witness_is_smallest_index(self):
        v = poly_geq_q(QPoly([1, 0, 0]), QPoly([1, 2, 3]))
        assert (v.index, v.value) == (1, -2)

    @given(polys, small_polys, small_polys)
    @settings(max_examples=60)
    def test_transitive_chain(self, f, d1, d2):
        # f + d1 + d2 >=_q f + d1 >=_q f by construction; the order must agree.
        g = f + d1
        h = g + d2
        assert poly_geq_q(g, f).holds
        assert poly_geq_q(h, g).holds
        assert poly_geq_q(h, f).holds


def test_clear_rows_per_row_and_common():
    rows = [[Fraction(1, 2), 3], [Fraction(2, 3), Fraction(-1, 6)], []]
    assert clear_rows(rows) == ([[1, 6], [4, -1], []], [2, 6, 1])
    assert clear_rows(rows, common=True) == ([[3, 18], [4, -1], []], [6, 6, 6])
    cleared, _ = clear_rows(rows, common=True)
    assert {type(x) for row in cleared for x in row} == {int}


class TestDetExact:
    def test_simple(self):
        assert det_exact([[1, 1], [1, 2]]) == 1
        assert det_exact([[1, 2], [3, 4]]) == -2

    def test_catalan_hankel(self):
        m = [[1, 1, 2], [1, 2, 5], [2, 5, 14]]
        assert naive_det(m) == 1  # oracle agrees
        assert det_exact(m) == 1

    def test_non_square_raises(self):
        with pytest.raises(DimensionError, match="square matrix, got 2x3"):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_integral_value_is_int(self):
        for m in ([[2, 1], [1, 3]], [[Fraction(1, 2), 1], [1, 4]], [[Fraction(4, 2)]], []):
            assert type(det_exact(m)) is int

    def test_singular_and_pivoting(self):
        assert det_exact([[0, 1], [0, 2]]) == 0
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_fractions_cleared(self):
        m = [[Fraction(1, 2), 1], [1, Fraction(1, 2)]]
        assert det_exact(m) == Fraction(-3, 4)
        assert det_exact(m) == naive_det(m)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_permutation_expansion(self, n, data):
        m = [
            [data.draw(st.integers(-9, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_exact(m) == naive_det(m)

    def test_matches_oracle_on_fraction_matrices(self):
        rng = random.Random(20240817)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
            assert det_exact(m) == naive_det(m)

    def test_elimination_oracle_matches_permutation_expansion(self):
        # the O(n^3) reference behind the minor scans' oracle, on int,
        # Fraction and zero entries (so pivots need row swaps)
        rng = random.Random(20261018)
        entries = (0, 0, 1, -2, 3, Fraction(1, 3), Fraction(-5, 2))
        for _ in range(300):
            n = rng.randint(0, 5)
            m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            d = gauss_det(m)
            assert d == naive_det(m), m
            assert type(d) is (int if d == int(d) else Fraction), m


class TestPlumbing:
    def test_parse_format_roundtrip(self):
        for text in ("3", "-7", "5/3", "-11/4"):
            assert format_exact(parse_exact(text)) == text
        assert format_exact(Fraction(6, 1)) == "6"
        assert format_exact(Fraction(-12, 2)) == "-6"

    @settings(max_examples=600, deadline=None)
    @given(_number_tokens)
    def test_parse_exact_matches_fraction_parser(self, text):
        # the int fast path must keep every value, type and error message
        outcome = _outcome(parse_exact, text)
        if outcome[0] == "raised" and "digit limit" in outcome[2]:
            # the one refusal Fraction lacks: a valid number whose exponent
            # is past the limit, which Fraction would expand (slowly)
            mantissa, _, exp = text.strip().lower().rpartition("e")
            assert abs(int(exp)) > _LIMIT
            fraction_parse_exact(mantissa + "e0")
        else:
            assert outcome == _outcome(fraction_parse_exact, text)

    def test_parse_exact_accepted_forms(self):
        assert parse_exact(" -1_000\n") == -1000
        assert parse_exact("\u0661\u0662") == 12
        assert parse_exact("0.5") == Fraction(1, 2)
        assert type(parse_exact("1e3")) is int and parse_exact("1e3") == 1000
        assert type(parse_exact("4/2")) is int
        for text in ("1__0", "_1", "1_", "0x10", "1/0", "", "- 1"):
            with pytest.raises(ValueError):
                parse_exact(text)

    @pytest.mark.skipif(not _LIMIT, reason="no int-to-str digit limit")
    def test_exponent_past_digit_limit_raises_at_once(self):
        # Fraction would build 10**30000000 first, which takes about a minute
        for text in (f"1e{_LIMIT + 1}", f" -2.5E-{_LIMIT + 1} ", "0e1_000_000", "1e30000000"):
            with pytest.raises(ValueError, match=f"past the {_LIMIT}-digit limit"):
                parse_exact(text)
        assert parse_exact(f"1e{_LIMIT}") == 10 ** _LIMIT
        assert parse_exact(f"1e-{_LIMIT}") == Fraction(1, 10 ** _LIMIT)
        # an exponent Fraction cannot read keeps Fraction's error
        for text in ("1e 99999", "1e9__9", "1/2e99999", "e99999"):
            with pytest.raises(ValueError, match="Invalid literal for Fraction"):
                parse_exact(text)

    def test_mat_mul(self):
        a = [[1, 2], [3, 4]]
        b = [[0, 1], [1, 0]]
        assert mat_mul(a, b) == [[2, 1], [4, 3]]

    def test_mat_mul_polys(self):
        q = QPoly([0, 1])
        product = mat_mul([[QPoly([1]), q]], [[q], [q]])
        assert product == [[q + q * q]]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit")
class TestDigitLimit:
    def test_format_exact_past_limit_raises_tripos_error(self):
        big = 10 ** sys.get_int_max_str_digits()
        for x in (big, -big, Fraction(big, 3), Fraction(1, big), Fraction(big, 1)):
            with pytest.raises(DigitLimitError, match=str(sys.get_int_max_str_digits())):
                format_exact(x)
        assert issubclass(DigitLimitError, TriposError)
        assert format_exact(big // 10) == "1" + "0" * (sys.get_int_max_str_digits() - 1)


# -- one shape rule for every exact matrix -------------------------------------

I2 = [[1, 0], [0, 1]]
# Each entry point that reads a matrix, fed the matrix m; mat_mul once per operand.
MATRIX_CALLS = {
    "det_exact": det_exact,
    "mat_mul-left": lambda m: mat_mul(m, I2),
    "mat_mul-right": lambda m: mat_mul(I2, m),
    "is_tp_r": lambda m: is_tp_r(m, 2),
    "is_q_tp2": lambda m: is_q_tp2([[QPoly([x]) for x in row] for row in m]),
}


@pytest.mark.parametrize("call", MATRIX_CALLS.values(), ids=list(MATRIX_CALLS))
@pytest.mark.parametrize("ragged", ([[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1], [2, 3]]),
                         ids=("short-row", "long-row", "long-second-row"))
def test_ragged_matrix_raises_dimension_error(call, ragged):
    with pytest.raises(DimensionError, match=r"row 1 has \d entries, row 0 has \d"):
        call(ragged)


@pytest.mark.parametrize("a, b", (
    ([[1, 2]], [[1], [2], [3]]),
    ([[1, 2]], []),
    ([[]], [[1]]),
    (I2, [[1, 2]]),
))
def test_mat_mul_inner_mismatch_raises(a, b):
    with pytest.raises(DimensionError, match="inner dimensions do not match"):
        mat_mul(a, b)


def test_mat_mul_empty_products():
    assert mat_mul([], I2) == []
    assert mat_mul([], []) == []
    assert mat_mul([[]], []) == [[]]  # the 1x0 product
    assert mat_mul([[1, 2]], [[], []]) == [[]]
