"""Sequence transforms and their preservation checks.

The central transform maps a polynomial sequence (f_k) to
``B_n = sum_k binom(n, k)_s f_k`` using the generalized binomial
coefficients, read from one pass of :func:`tripos.triangles.from_bisnomial`;
for s = 1 this is the classical binomial transform.  The sliding window sum
is the elementary building block behind it.

``transform_minor_form`` expands the adjacent-product difference
``B_{n-1} B_{m+1} - B_n B_m`` symbolically over the inputs, as an integer
bilinear form in the products f_i f_j.  Every coefficient is computed from
the generalized binomial numbers alone, independent of any concrete
polynomial values, which makes the form checkable against concrete
evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import QPoly
from .errors import SequenceRangeError
from .properties import (
    FAILS,
    HOLDS,
    INAPPLICABLE,
    PolySeq,
    PropertyReport,
    is_strongly_q_log_concave,
    is_strongly_q_log_convex,
)
from .triangles import from_bisnomial


@dataclass(frozen=True)
class BilinearForm:
    """Sparse integer form sum c_{ij} f_i f_j with normalized keys i <= j.

    Coefficients of mixed products count both orders (f_i f_j and f_j f_i
    merge into one term), and zero coefficients are never stored.
    """

    terms: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_map(cls, mapping: dict[tuple[int, int], int]) -> "BilinearForm":
        norm: dict[tuple[int, int], int] = {}
        for (i, j), c in mapping.items():
            key = (i, j) if i <= j else (j, i)
            norm[key] = norm.get(key, 0) + c
        items = tuple(sorted((k, c) for k, c in norm.items() if c != 0))
        return cls(items)

    def as_map(self) -> dict[tuple[int, int], int]:
        return dict(self.terms)

    def evaluate(self, polys: list[QPoly]) -> QPoly:
        """Substitute concrete polynomials for the formal symbols."""
        total = QPoly.ZERO
        for (i, j), c in self.terms:
            total = total + c * (polys[i] * polys[j])
        return total

    def serialize(self) -> str:
        """One ``i j coeff`` line per term, sorted lexicographically."""
        return "".join(f"{i} {j} {c}\n" for (i, j), c in self.terms)


def bisnomial_transform(ps: PolySeq, s: int, n_max: int) -> PolySeq:
    """B_n = sum_{k=0}^{s n} binom(n, k)_s f_k for n = 0..n_max.

    An n_max below 0, which would leave no output, raises ``ValueError``.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    needed = s * n_max + 1
    if len(ps) < needed:
        raise SequenceRangeError(
            f"transform up to n={n_max} with s={s} needs {needed} input "
            f"polynomials, got {len(ps)}"
        )
    polys = ps.polys
    rows = from_bisnomial(s, n_max).rows
    out = []
    for n in range(n_max + 1):
        total = QPoly.ZERO
        for k, c in enumerate(rows[n]):
            total = total + c * polys[k]
        out.append(total)
    return PolySeq(tuple(out), offset=0)


def window_sum(ps: PolySeq, s: int) -> PolySeq:
    """Sliding sums of s+1 consecutive polynomials; output is s shorter."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if len(ps) < s + 1:
        raise SequenceRangeError(
            f"window sum with s={s} needs at least {s + 1} polynomials, got {len(ps)}"
        )
    polys = ps.polys
    out = []
    for k in range(len(polys) - s):
        total = polys[k]
        for j in range(1, s + 1):
            total = total + polys[k + j]
        out.append(total)
    return PolySeq(tuple(out), offset=ps.offset)


def transform_minor_form(n: int, m: int, s: int) -> BilinearForm:
    """Symbolic expansion of B_{n-1} B_{m+1} - B_n B_m over formal inputs."""
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    mapping: dict[tuple[int, int], int] = {}

    def accumulate(row_a: tuple[int, ...], row_b: tuple[int, ...], sign: int) -> None:
        for i, ca in enumerate(row_a):
            for j, cb in enumerate(row_b):
                key = (i, j) if i <= j else (j, i)
                mapping[key] = mapping.get(key, 0) + sign * ca * cb

    rows = from_bisnomial(s, m + 1).rows
    accumulate(rows[n - 1], rows[m + 1], +1)
    accumulate(rows[n], rows[m], -1)
    return BilinearForm.from_map(mapping)


@dataclass(frozen=True)
class PreservationReport:
    """Three-stage verdict of a transform-preservation run.

    The input is first gated on the claimed property; a failing gate makes
    the whole run ``inapplicable`` (the theorem's hypothesis is unmet, which
    is not a counterexample).  Otherwise the transform is applied and the
    output is checked for the same property on [0, n_max].
    """

    direction: str
    s: int
    verdict: str
    input_report: PropertyReport
    output_report: PropertyReport | None = None
    transformed: PolySeq | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_dict(self) -> dict:
        return {
            "property": f"bisnomial-transform-preserves-strongly-q-log-{self.direction}",
            "s": self.s,
            "verdict": self.verdict,
            "input": self.input_report.to_dict(),
            "output": None if self.output_report is None else self.output_report.to_dict(),
        }


def check_preservation(ps: PolySeq, s: int, n_max: int, direction: str) -> PreservationReport:
    """Gate the input, transform it, and check the output property.

    ``direction`` is ``"convex"`` or ``"concave"`` (strong q-log-variants).
    """
    if direction not in ("convex", "concave"):
        raise ValueError("direction must be 'convex' or 'concave'")
    checker = is_strongly_q_log_convex if direction == "convex" else is_strongly_q_log_concave
    gate = checker(ps)
    if not gate.holds:
        return PreservationReport(direction, s, INAPPLICABLE, gate)
    transformed = bisnomial_transform(ps, s, n_max)
    out = checker(transformed)
    verdict = HOLDS if out.holds else FAILS
    return PreservationReport(direction, s, verdict, gate, out, transformed)
