"""Sufficient-condition checkers and their soundness against the generators."""

import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fractions_between,
    handwritten_log_concavity_conditions,
    handwritten_log_concavity_conditions_const,
    handwritten_q_log_convexity_conditions,
    naive_tail_recurrence,
)
from tripos import conditions
from tripos.conditions import (
    log_concavity_conditions,
    log_concavity_conditions_const,
    q_log_convexity_conditions,
    verify_tail_recurrence,
)
from tripos.errors import SchemeDomainError
from tripos.properties import (
    NumSeq,
    PolySeq,
    is_log_concave,
    is_strongly_q_log_convex,
    is_tp_r,
)
from tripos.triangles import (
    CoeffScheme,
    ConstParams,
    Triangle,
    from_const_params,
    from_five_term,
    preset,
    recurrence_matrix,
    row_polys,
)

ONE = CoeffScheme.constant(1)
ZERO = CoeffScheme.constant(0)

CONST_PRESETS = ("pascal", "aigner_catalan", "shapiro_catalan",
                 "motzkin", "schroder_large")


def const(x):
    return CoeffScheme.constant(x)


class TestVaryingConditions:
    def test_two_pascal_all_hold(self):
        r = log_concavity_conditions(ONE, ONE, ONE, ZERO, ZERO, 30)
        assert r.established
        assert [c.cid for c in r.conditions] == [str(i) for i in range(1, 11)]

    def test_all_ones_hold(self):
        r = log_concavity_conditions(ONE, ONE, ONE, ONE, ONE, 30)
        assert r.established

    def test_condition5_second_clause_fails(self):
        # gamma=1, e=0, f=1: e_{k+1} e_{k-1} >= gamma_{k+1} f_{k-1} reads 0 >= 1.
        r = log_concavity_conditions(ONE, ZERO, ONE, ZERO, ZERO, 10)
        c5 = next(c for c in r.conditions if c.cid == "5")
        assert not c5.holds
        clause = c5.clauses[1]
        assert not clause.holds
        assert clause.fail_k == 2
        assert (clause.lhs, clause.rhs) == (0, 1)

    def test_every_condition_reported_once(self):
        r = log_concavity_conditions(ONE, ONE, ONE, ONE, ONE, 5)
        assert len({c.cid for c in r.conditions}) == 10

    def test_hypotheses_cover_all_sequences(self):
        r = log_concavity_conditions(ONE, ONE, ONE, ONE, ONE, 5)
        assert {h.prop for h in r.hypotheses} == {
            "gamma-log-concave", "e-log-concave", "f-log-concave",
            "g-log-concave", "h-log-concave",
        }

    def test_non_log_concave_scheme_blocks_establishment(self):
        # f = (1, 0, 1, 0, ...) on k >= 0 is not log-concave.
        bumpy = CoeffScheme.table([1, 0] * 6, 0)
        r = log_concavity_conditions(ZERO, ZERO, bumpy, ZERO, ZERO, 10)
        assert not r.established
        f_hyp = next(h for h in r.hypotheses if h.prop == "f-log-concave")
        assert not f_hyp.holds


class TestVaryingSoundness:
    """Established conditions must actually force log-concave rows."""

    def test_presets_and_satisfying_schemes(self):
        n_max = 12
        cases = [
            (ONE, ONE, ONE, ZERO, ZERO),           # 2-Pascal
            (ONE, ONE, ONE, ONE, ONE),             # all ones
            (ZERO, ONE, ONE, ONE, ZERO),
            (const(2), const(2), const(2), const(2), const(2)),
        ]
        rng = random.Random(42)
        while len(cases) < 12:
            candidate = tuple(const(rng.randint(0, 3)) for _ in range(5))
            report = log_concavity_conditions(*candidate, k_max=2 * n_max)
            if report.established:
                cases.append(candidate)
        for schemes in cases:
            report = log_concavity_conditions(*schemes, k_max=2 * n_max)
            assert report.established
            t = from_five_term(*schemes, n_max)
            for n, row in enumerate(t.rows):
                assert is_log_concave(NumSeq(row)).holds, (schemes, n)


class TestConstConditions:
    def test_two_pascal(self):
        r = log_concavity_conditions_const(ConstParams(1, 1, 1, 1, 1, 0, 0))
        assert r.established
        # printed (5) holds while the candidate correction fails, so the
        # disagreement annotation must be present
        assert any("candidate" in n for n in r.notes)

    def test_pascal_embedding(self):
        r = log_concavity_conditions_const(ConstParams(1, 1, 0, 1, 1, 0, 0))
        assert r.established

    def test_f_below_alpha_fails(self):
        r = log_concavity_conditions_const(ConstParams(2, 1, 0, 1, 1, 0, 0))
        c1 = r.conditions[0]
        assert not c1.holds
        assert not c1.clauses[1].holds  # f >= alpha
        assert (c1.clauses[1].lhs, c1.clauses[1].rhs) == (1, 2)

    def test_soundness_rows_log_concave(self):
        rng = random.Random(7)
        params_list = [ConstParams(1, 1, 1, 1, 1, 0, 0),
                       ConstParams(1, 1, 0, 1, 1, 0, 0)]
        while len(params_list) < 10:
            candidate = ConstParams(*(rng.randint(0, 3) for _ in range(7)))
            if log_concavity_conditions_const(candidate).established:
                params_list.append(candidate)
        for p in params_list:
            t = from_const_params(p, 30)
            for n, row in enumerate(t.rows):
                assert is_log_concave(NumSeq(row)).holds, (p, n)


class TestQConvexityConditions:
    def test_motzkin(self):
        assert q_log_convexity_conditions(ConstParams(1, 1, 0, 1, 1, 1, 0)).established

    def test_two_pascal(self):
        assert q_log_convexity_conditions(ConstParams(1, 1, 1, 1, 1, 0, 0)).established

    def test_g_squared_clause_fails(self):
        r = q_log_convexity_conditions(ConstParams(1, 1, 0, 1, 1, 0, 1))
        c4 = next(c for c in r.conditions if c.cid == "4")
        failing = [cl.text for cl in c4.clauses if not cl.holds]
        assert "g^2 >= f*h" in failing

    def test_const_presets_established(self):
        for name in CONST_PRESETS:
            assert q_log_convexity_conditions(preset(name).const_params).established, name

    def test_soundness_strong_q_log_convexity(self):
        rng = random.Random(11)
        params_list = [preset(n).const_params for n in CONST_PRESETS]
        while len(params_list) < 10:
            candidate = ConstParams(*(rng.randint(0, 3) for _ in range(7)))
            if q_log_convexity_conditions(candidate).established:
                params_list.append(candidate)
        for p in params_list:
            t = from_const_params(p, 16)
            ps = PolySeq(tuple(row_polys(t)))
            assert is_strongly_q_log_convex(ps).holds, p

    def test_established_implies_recurrence_matrix_tp2(self):
        rng = random.Random(23)
        params_list = [preset(n).const_params for n in CONST_PRESETS]
        while len(params_list) < 12:
            candidate = ConstParams(*(Fraction(rng.randint(0, 6), rng.randint(1, 2))
                                      for _ in range(7)))
            if q_log_convexity_conditions(candidate).established:
                params_list.append(candidate)
        for p in params_list:
            assert is_tp_r(recurrence_matrix(p, 8), 2).holds, p


class TestTailRecurrence:
    def test_motzkin(self):
        assert verify_tail_recurrence(ConstParams(1, 1, 0, 1, 1, 1, 0), 10).holds

    def test_two_pascal(self):
        assert verify_tail_recurrence(ConstParams(1, 1, 1, 1, 1, 0, 0), 10).holds

    def test_f_only_reduces_to_scaling(self):
        # With only f nonzero the generic branch reads b[n][k] = f * b[n-1][k].
        p = ConstParams(0, 0, 0, 0, 3, 0, 0)
        assert verify_tail_recurrence(p, 6).holds
        t = from_const_params(p, 6)
        from tripos.triangles import row_tail_poly

        for n in range(1, 7):
            for k in range(2, 2 * n + 1, 3):
                assert row_tail_poly(t, n, k) == 3 * row_tail_poly(t, n - 1, k)

    def test_f_only_with_alpha_scales_column_zero(self):
        p = ConstParams(3, 0, 0, 0, 3, 0, 0)
        assert verify_tail_recurrence(p, 6).holds
        t = from_const_params(p, 6)
        assert [t.rows[n][0] for n in range(7)] == [3**n for n in range(7)]

    def test_all_const_presets(self):
        for name in CONST_PRESETS:
            assert verify_tail_recurrence(preset(name).const_params, 10).holds, name


    def test_corrupted_entry_gives_head_witness(self, monkeypatch):
        p = preset("motzkin").const_params
        rows = [list(row) for row in from_const_params(p, 5).rows]
        rows[3][2] += 1
        t = Triangle(rows, 2)
        monkeypatch.setattr(conditions, "from_const_params", lambda *args: t)
        report = verify_tail_recurrence(p, 5)
        assert report.to_dict()["witness"] == {"n": 3, "k": 0, "difference": "0 0 0 0 1"}


# The draws take strategies built once per bounds, since hypothesis validates
# each new strategy object on its first draw.
integers = cache(st.integers)
# The ints and every Fraction of the same bounds, drawn as one index into one
# tuple, which costs far less than a st.fractions draw.
weights = st.sampled_from((*range(5), *fractions_between(0, 4, 6)))
deltas = st.sampled_from((*range(-3, 4), *fractions_between(-2, 2, 7))).filter(bool)


@st.composite
def tail_cases(draw):
    """Constant weights, n_max, and their triangle, with one entry moved by a
    nonzero int or Fraction in about four draws of five."""
    p = ConstParams(*(draw(weights) for _ in range(7)))
    n_max = draw(integers(1, 7))
    t = from_const_params(p, n_max)
    if draw(integers(0, 4)):
        n = draw(integers(0, n_max))
        j = draw(integers(0, 2 * n))
        rows = [list(row) for row in t.rows]
        rows[n][j] += draw(deltas)
        t = Triangle(rows, 2)
    return p, n_max, t


@given(tail_cases())
@settings(max_examples=200, deadline=None)
def test_tail_recurrence_matches_two_branch_reference(case):
    # The head comparison alone must give the report of the reference, which
    # also checks b[n][0] against the row polynomial and every k >= 2 branch.
    p, n_max, t = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "from_const_params", lambda *args: t)
        report = verify_tail_recurrence(p, n_max)
    assert report.to_dict() == naive_tail_recurrence(t, p, n_max).to_dict()


class TestEmptyRanges:
    def test_k_max_below_two_raises(self):
        # f = 3 breaks condition (8) at k = 2; below 2 the range is empty.
        schemes = (ONE, ONE, const(3), ONE, ONE)
        assert not log_concavity_conditions(*schemes, k_max=2).established
        for k_max in (1, 0, -3):
            with pytest.raises(ValueError):
                log_concavity_conditions(*schemes, k_max=k_max)

    def test_negative_tail_recurrence_n_max_raises(self):
        p = ConstParams(1, 1, 1, 1, 1, 1, 1)
        assert verify_tail_recurrence(p, 1).checked == (1, 1)
        for n_max in (0, -1, -2):
            with pytest.raises(ValueError):
                verify_tail_recurrence(p, n_max)


# -- clause text against the hand-written checkers ----------------------------------


def _bench_param_grid():
    """The weight tuples of ``bench/workloads.py``, which imports its siblings
    by bare name."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        from workloads import PARAM_GRID
    finally:
        sys.path.remove(bench)
    return tuple(PARAM_GRID)


def outcome(fn, *args):
    """The report as a dict, or the type and message of what the call raised."""
    try:
        return fn(*args).to_dict()
    except Exception as exc:  # the comparison is of whatever escapes
        return type(exc), str(exc)


scheme_values = st.sampled_from((*range(-2, 5), *fractions_between(-2, 4, 5)))
const_params = st.one_of(
    st.sampled_from(_bench_param_grid()).map(lambda p: ConstParams(*p)),
    st.builds(ConstParams, *[weights] * 7),
)


scheme_kinds = st.sampled_from(("constant", "affine", "table"))
table_values = cache(lambda size: st.lists(scheme_values, min_size=size, max_size=size))


@st.composite
def thm21_cases(draw):
    """Five constant, affine or table schemes and k_max in 2..12; a table's
    end falls within a few indices of k_max + 1, the last index the checker
    reads, so about a third of the tables are too short."""
    k_max = draw(integers(2, 12))
    schemes = []
    for _ in range(5):
        kind = draw(scheme_kinds)
        if kind == "constant":
            schemes.append(CoeffScheme.constant(draw(scheme_values)))
        elif kind == "affine":
            schemes.append(CoeffScheme.affine(draw(scheme_values), draw(scheme_values)))
        else:
            start = draw(integers(0, 2))
            size = max(0, k_max + 2 - start + draw(integers(-2, 3)))
            schemes.append(CoeffScheme.table(draw(table_values(size)), start))
    return schemes, k_max


@given(const_params)
@settings(max_examples=200, deadline=None)
def test_const_clauses_match_handwritten_reference(p):
    assert outcome(log_concavity_conditions_const, p) == outcome(
        handwritten_log_concavity_conditions_const, p)
    assert outcome(q_log_convexity_conditions, p) == outcome(
        handwritten_q_log_convexity_conditions, p)


@given(thm21_cases())
@settings(max_examples=250, deadline=None)
def test_thm21_clauses_match_handwritten_reference(case):
    schemes, k_max = case
    assert outcome(log_concavity_conditions, *schemes, k_max) == outcome(
        handwritten_log_concavity_conditions, *schemes, k_max)


def test_short_tables_report_the_reference_index():
    # Conditions 1-4 fail at k = 2, so condition 5's first clause is the first
    # to reach k = 3, where e and f both end: read in text order, e_{k+1}
    # would be reported; the reference reads e_{k-1}, then f_{k+1}.
    schemes = (CoeffScheme.table([0, 1], 2), CoeffScheme.table([1, 1, 1], 1),
               CoeffScheme.table([1, 1, 1, 1], 0), ONE, ONE)
    expected = (SchemeDomainError, "table scheme covers [0, 3] but index 4 was requested")
    assert outcome(handwritten_log_concavity_conditions, *schemes, 3) == expected
    assert outcome(log_concavity_conditions, *schemes, 3) == expected
