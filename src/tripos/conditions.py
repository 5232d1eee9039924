"""Checkers for the sufficient-condition lists attached to the triangle results.

Three inequality systems are covered, tagged by the identifiers the CLI uses:

* ``thm21`` - ten conditions on the varying coefficient sequences of the
  five-term recurrence, quantified over k >= 2, plus the hypothesis that
  each coefficient sequence is nonnegative and log-concave on its domain;
* ``cor22`` - five conditions on the constant-parameter specialization;
* ``thm34`` - four conditions under which the row generating functions form
  a strongly q-log-convex sequence.

These are sufficient conditions only: a failed condition means "not
established by this criterion", never "property false".  All comparisons are
exact rational comparisons, and every clause of a compound condition is
reported individually with the first failing index and both sides' values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .algebra import ExactRat, QPoly, format_exact
from .properties import FAILS, HOLDS, NumSeq, PropertyReport, is_log_concave
from .triangles import (
    FIVE_TERM_OFFSETS,
    CoeffScheme,
    ConstParams,
    from_const_params,
    row_poly,
    row_tail_poly,
)

# Domain starts of the coefficient sequences, max(d, 0) for the band offset d
# (the generator reads no weight below it); below these the value is 0.
DOMAIN_START = {name: max(d, 0) for name, d in FIVE_TERM_OFFSETS.items()}


@dataclass(frozen=True)
class ClauseResult:
    text: str
    holds: bool
    fail_k: int | None = None
    lhs: ExactRat | None = None
    rhs: ExactRat | None = None

    def to_dict(self) -> dict:
        return {
            "clause": self.text,
            "holds": self.holds,
            "fail_k": self.fail_k,
            "lhs": None if self.lhs is None else format_exact(self.lhs),
            "rhs": None if self.rhs is None else format_exact(self.rhs),
        }


@dataclass(frozen=True)
class ConditionResult:
    cid: str
    holds: bool
    clauses: tuple[ClauseResult, ...]

    def to_dict(self) -> dict:
        return {
            "id": self.cid,
            "holds": self.holds,
            "clauses": [c.to_dict() for c in self.clauses],
        }


@dataclass(frozen=True)
class ConditionReport:
    tag: str
    conditions: tuple[ConditionResult, ...]
    hypotheses: tuple[PropertyReport, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def established(self) -> bool:
        return all(c.holds for c in self.conditions) and all(
            h.holds for h in self.hypotheses
        )

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "established": self.established,
            "conditions": [c.to_dict() for c in self.conditions],
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "notes": list(self.notes),
        }


def _const_clause(text: str, lhs: ExactRat, rhs: ExactRat) -> ClauseResult:
    ok = lhs >= rhs
    return ClauseResult(text, ok, None, None if ok else lhs, None if ok else rhs)


def _condition(cid: str, clauses: list[ClauseResult]) -> ConditionResult:
    return ConditionResult(cid, all(c.holds for c in clauses), tuple(clauses))


# -- varying coefficients (tag thm21) ------------------------------------------


def log_concavity_conditions(
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


def log_concavity_conditions_const(p: ConstParams) -> ConditionReport:
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


def q_log_convexity_conditions(p: ConstParams) -> ConditionReport:
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


# -- tail-sum recurrence identity ------------------------------------------------


def verify_tail_recurrence(p: ConstParams, n_max: int) -> PropertyReport:
    """Exact polynomial identity satisfied by the tail sums b[n][k](q).

    The identity is checked after multiplying through by q^2, so no division
    by q is ever needed.  With T' = row n-1, the head branch (k = 0) reads

        q^2 b[n][0] = (alpha + beta q + gamma q^2) q^2 b[n-1][0]
                      + (g q + (f-alpha) q^2 + (e-beta) q^3) b[n-1][1]
                      + h b[n-1][2],

    and the generic branch (k >= 2) reads

        q^2 b[n][k] = gamma q^4 b[n-1][k-2] + e q^3 b[n-1][k-1]
                      + f q^2 b[n-1][k] + g q b[n-1][k+1] + h b[n-1][k+2].

    Write D_k = lhs - rhs.  For k >= 2 the q^(j+2) coefficient of D_k is
    T[n][j] - (gamma T'[j-2] + e T'[j-1] + f T'[j] + g T'[j+1] + h T'[j+2])
    when j >= k and 0 otherwise; D_0 has that same coefficient for every
    j >= 2, since beta + (e-beta) = e and alpha + (f-alpha) = f.  So D_k is D_0
    with its terms of degree < k+2 dropped, for any rows at all, and one head
    comparison per row decides every branch.  b[n][0] is the row generating
    function by definition.  The witness keeps ``"k": 0``.  An n_max below 1,
    which would certify no row, raises ``ValueError``.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    t = from_const_params(p, n_max)
    a, b, c, e, f, g, h = p.as_tuple()
    head_weight = QPoly([a, b, c])  # alpha + beta q + gamma q^2
    mid_weight = QPoly([0, g, f - a, e - b])  # g q + (f-alpha) q^2 + (e-beta) q^3
    for n in range(1, n_max + 1):
        lhs = row_poly(t, n).shift(2)
        rhs = (
            head_weight * row_poly(t, n - 1).shift(2)
            + mid_weight * row_tail_poly(t, n - 1, 1)
            + h * row_tail_poly(t, n - 1, 2)
        )
        if lhs != rhs:
            return PropertyReport(
                "tail-recurrence-identity", (1, n_max), FAILS,
                witness={"n": n, "k": 0, "difference": lhs - rhs},
            )
    return PropertyReport("tail-recurrence-identity", (1, n_max), HOLDS)
