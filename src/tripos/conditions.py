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

import re
from collections.abc import Callable
from math import prod

from .algebra import ExactRat, QPoly, format_exact
from .properties import FAILS, HOLDS, NumSeq, PropertyReport, is_log_concave
from .records import Record, replace
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


class ClauseResult(Record):
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


class ConditionResult(Record):
    cid: str
    holds: bool
    clauses: tuple[ClauseResult, ...]

    def to_dict(self) -> dict:
        return {
            "id": self.cid,
            "holds": self.holds,
            "clauses": [c.to_dict() for c in self.clauses],
        }


class ConditionReport(Record):
    tag: str
    conditions: tuple[ConditionResult, ...]
    hypotheses: tuple[PropertyReport, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def established(self) -> bool:
        return all(c.holds for c in self.conditions) and all(
            h.holds for h in self.hypotheses
        )

    @property
    def verdict(self) -> str:
        """``holds`` when the list is established, else ``fails``: the verdict
        that decides a run's exit status, as for a property report."""
        return HOLDS if self.established else FAILS

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "established": self.established,
            "conditions": [c.to_dict() for c in self.conditions],
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "notes": list(self.notes),
        }


# -- clause text ---------------------------------------------------------------
# Every clause is stored once, as the text the report prints, and parsed at
# import into a sum of terms (coefficient, ((name, shift), ...)):
#   clause := side " >= " side        side := term (" + " term)*
#   term   := factor ("*" factor)*
#   factor := integer | name | name "^2" | name "_" ("k" | "{k-1}" | "{k+1}")
# ``x^2`` reads as ``x*x``.  Factors are multiplied left to right in text order.

_SHIFTS = {"": 0, "k": 0, "{k-1}": -1, "{k+1}": 1}


def _side(text: str) -> tuple:
    terms = []
    for term in text.split(" + "):
        tokens = re.sub(r"(\w+)\^2", r"\1*\1", term).split("*")
        names = [token.partition("_") for token in tokens if not token.isdigit()]
        terms.append((prod(int(token) for token in tokens if token.isdigit()),
                      tuple((name, _SHIFTS[sub]) for name, _, sub in names)))
    # Terms are read in ascending order of their shifts (a_{k-1}*b_{k+1} before
    # a_{k+1}*b_{k-1}): where short table schemes leave more than one index
    # uncovered, this order decides which one is reported.
    return tuple(sorted(terms, key=lambda t: [shift for _, shift in t[1]]))


def _clause(text: str) -> tuple:
    return (text, *map(_side, text.split(" >= ")))


def _table(rows: list[tuple[str, list[str]]]) -> tuple:
    return tuple((cid, tuple(_clause(text) for text in texts)) for cid, texts in rows)


def _value(terms: tuple, val: Callable, k: int | None) -> ExactRat:
    """One side of a clause at ``k``; ``val(name, shift, k)`` reads a factor."""
    total = 0
    for coeff, factors in terms:
        x = coeff
        for name, shift in factors:
            x *= val(name, shift, k)
        total += x
    return total


def _evaluate(table, val: Callable, ks) -> tuple[ConditionResult, ...]:
    """Each clause at every k of ``ks`` in turn, up to its first failure."""
    conditions = []
    for cid, clauses in table:
        results = []
        for text, lhs_terms, rhs_terms in clauses:
            result = ClauseResult(text, True)
            for k in ks:
                lhs, rhs = _value(lhs_terms, val, k), _value(rhs_terms, val, k)
                if lhs < rhs:
                    result = ClauseResult(text, False, k, lhs, rhs)
                    break
            results.append(result)
        conditions.append(ConditionResult(cid, all(c.holds for c in results), tuple(results)))
    return tuple(conditions)


def _const_val(p: ConstParams) -> Callable:
    values = p.as_dict()
    return lambda name, shift, k: values[name]


# -- varying coefficients (tag thm21) ------------------------------------------

_THM21 = _table([
    ("1", ["2*gamma_k*e_k >= gamma_{k-1}*e_{k+1} + gamma_{k+1}*e_{k-1}"]),
    ("2", ["2*gamma_k*f_k >= gamma_{k-1}*f_{k+1} + gamma_{k+1}*f_{k-1}"]),
    ("3", ["2*gamma_k*g_k >= gamma_{k-1}*g_{k+1} + gamma_{k+1}*g_{k-1}"]),
    ("4", ["2*gamma_k*h_k >= gamma_{k-1}*h_{k+1} + gamma_{k+1}*h_{k-1}"]),
    ("5", ["2*e_k*f_k >= e_{k+1}*f_{k-1} + e_{k-1}*f_{k+1}",
           "e_{k+1}*e_{k-1} >= gamma_{k+1}*f_{k-1}"]),
    ("6", ["2*e_k*g_k >= e_{k+1}*g_{k-1} + e_{k-1}*g_{k+1}",
           "f_{k+1}*e_{k-1} >= gamma_{k+1}*g_{k-1}"]),
    ("7", ["2*e_k*h_k >= e_{k+1}*h_{k-1} + e_{k-1}*h_{k+1}",
           "g_{k+1}*e_{k-1} >= gamma_{k+1}*h_{k-1}"]),
    ("8", ["2*f_k*g_k >= f_{k+1}*g_{k-1} + f_{k-1}*g_{k+1}",
           "f_{k+1}*f_{k-1} >= e_{k+1}*g_{k-1}"]),
    ("9", ["2*f_k*h_k >= f_{k+1}*h_{k-1} + f_{k-1}*h_{k+1}",
           "g_{k+1}*f_{k-1} >= e_{k+1}*h_{k-1}"]),
    ("10", ["2*g_k*h_k >= g_{k+1}*h_{k-1} + g_{k-1}*h_{k+1}",
            "g_{k+1}*g_{k-1} >= f_{k+1}*h_{k-1}"]),
])


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

    def val(name: str, shift: int, k: int) -> ExactRat:
        i = k + shift
        return schemes[name].at(i) if i >= DOMAIN_START[name] else 0

    conditions = _evaluate(_THM21, val, range(2, k_max + 1))
    hypotheses = []
    for name, start in DOMAIN_START.items():
        values = [schemes[name].at(k) for k in range(start, k_max + 2)]
        report = is_log_concave(NumSeq(tuple(values), offset=start))
        hypotheses.append(replace(report, prop=f"{name}-log-concave"))

    return ConditionReport("thm21", conditions, tuple(hypotheses))


# -- constant coefficients, log-concavity (tag cor22) ---------------------------

# Second clause of condition (5) in its published form; the structurally
# expected clause (shift every letter of 5a by one) reads differently.
_COR22_5B_PRINTED = "2*beta*g >= g*e + gamma*h"
_COR22_NOTE = _clause("2*beta*g >= alpha*f + gamma*h")

_COR22 = _table([
    ("1", ["g^2 >= f*h", "f >= alpha"]),
    ("2", ["beta^2 >= alpha*gamma", "2*beta*h >= alpha*g"]),
    ("3", ["f*e >= gamma*g", "f*g >= e*h"]),
    ("4", ["f^2 >= e*g", "e*g >= gamma*h", "e^2 >= gamma*f"]),
    ("5", ["2*beta*f >= alpha*e + gamma*g", _COR22_5B_PRINTED]),
])


def log_concavity_conditions_const(p: ConstParams) -> ConditionReport:
    """Five sufficient conditions for row log-concavity at constant weights.

    Condition (5)'s second inequality is evaluated in its published form,
    ``_COR22_5B_PRINTED``; a note is attached whenever that evaluated clause
    and the structurally expected ``_COR22_NOTE`` disagree on the given input.
    """
    val = _const_val(p)
    conditions = _evaluate(_COR22, val, (None,))
    printed = next(c.holds for r in conditions for c in r.clauses if c.text == _COR22_5B_PRINTED)
    candidate, lhs, rhs = _COR22_NOTE
    notes = ()
    if printed != (_value(lhs, val, None) >= _value(rhs, val, None)):
        notes = (f"condition (5) printed clause '{_COR22_5B_PRINTED}' and candidate "
                 f"corrected clause '{candidate}' disagree on this input "
                 f"(printed={printed}, candidate={not printed})",)
    return ConditionReport("cor22", conditions, notes=notes)


# -- constant coefficients, strong q-log-convexity (tag thm34) ------------------

_THM34 = _table([
    ("1", ["f >= alpha", "e >= beta", "g >= 0", "h >= 0"]),
    ("2", ["alpha*f >= beta*g", "beta*g >= gamma*h", "f^2 >= e*g", "e*g >= gamma*h"]),
    ("3", ["alpha*e >= gamma*g", "e*f >= gamma*g", "beta*f >= gamma*g"]),
    ("4", ["beta*e >= gamma*f", "alpha*g >= beta*h", "g^2 >= f*h", "f*g >= e*h"]),
])


def q_log_convexity_conditions(p: ConstParams) -> ConditionReport:
    """Four sufficient conditions for strong q-log-convexity of row polynomials."""
    return ConditionReport("thm34", _evaluate(_THM34, _const_val(p), (None,)))


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
