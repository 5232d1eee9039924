"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single summary line (visible with ``pytest -s`` or in the
captured output); the assertions themselves carry the criterion.  Everything
here runs on deterministic inputs: seeded RNGs, committed fixture files, and
generated triangles.  The only skippable criterion is the OEIS ingestion one,
which needs either network access or a warm cache.
"""

import random
import time
from math import comb

import pytest

from helpers import (
    expansion_bisnomial_row,
    gaussian_binomial,
    has_internal_zero_gap,
    naive_first_negative_minor,
    naive_minor_form,
    random_q_tp2_matrix,
    random_tp2_matrix,
)
from tripos.algebra import QPoly, mat_mul
from tripos.conditions import q_log_convexity_conditions, verify_tail_recurrence
from tripos.errors import TriposError
from tripos.oeis import fetch_bfile, reshape, trim_to_rows
from tripos.properties import (
    HOLDS,
    NumSeq,
    PolySeq,
    hankel,
    is_log_concave,
    is_log_convex,
    is_pf_r,
    is_q_tp2,
    is_strongly_q_log_convex,
    is_tp_r,
)
from tripos.transforms import (
    bisnomial_transform,
    check_preservation,
    transform_minor_form,
    window_sum,
)
from tripos.triangles import (
    CoeffScheme,
    ConstParams,
    bisnomial_row,
    build_preset,
    from_const_params,
    from_five_term,
    preset,
    q_power_matrix,
    recurrence_matrix,
    row_polys,
    row_tail_matrix,
)

from conftest import CONVEX_PRESETS

ALL_PRESETS = ("pascal", "stirling2", "aigner_catalan", "shapiro_catalan",
               "motzkin", "bell", "schroder_large")
TWO_PASCAL = ConstParams(1, 1, 1, 1, 1, 0, 0)


def report_line(cid, message):
    print(f"criterion {cid}: PASS - {message}")


def test_criterion_01_two_pascal_rows_log_concave():
    started = time.perf_counter()
    one = CoeffScheme.constant(1)
    zero = CoeffScheme.constant(0)
    t = from_five_term(one, one, one, zero, zero, 100)
    for n in range(101):
        assert list(t.rows[n]) == bisnomial_row(n, 2), f"row {n} != trinomial row"
        assert is_log_concave(NumSeq(t.rows[n])).holds, f"row {n} not log-concave"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_line(1, f"101 rows exact and log-concave in {elapsed:.2f}s")


def test_criterion_02_ingested_triangles_log_concave():
    triangles = {}
    for oid in ("A291082", "A291080"):
        try:
            b = fetch_bfile(oid)
        except TriposError as exc:
            pytest.skip(f"OEIS data unavailable and cache cold: {exc}")
        triangles[oid] = reshape(trim_to_rows(b, 2), 2)
    for oid, t in triangles.items():
        assert t.n_max >= 5, f"{oid}: too little data to be meaningful"
        for n, row in enumerate(t.rows):
            assert is_log_concave(NumSeq(row)).holds, f"{oid} row {n}"
    report_line(2, "all fully available rows of A291082 and A291080 log-concave")


def test_criterion_03_preset_rows_log_concave():
    for name in ALL_PRESETS:
        t = build_preset(name, 60)  # build-time validation covers rows <= 20
        for n, row in enumerate(t.rows):
            assert is_log_concave(NumSeq(row)).holds, (name, n)
    report_line(3, "7 presets validated against oracles; rows 0..60 log-concave")


def test_criterion_04_rowgens_strongly_q_log_convex():
    for name in CONVEX_PRESETS:
        t = build_preset(name, 21)
        report = is_strongly_q_log_convex(PolySeq(tuple(row_polys(t))))
        assert report.holds, (name, report.to_dict())
    report_line(4, "row generating functions strongly q-log-convex, pairs up to m=20")


def test_criterion_05_constant_recurrence_machinery():
    cases = {name: preset(name).const_params for name in CONVEX_PRESETS}
    cases["pascal"] = preset("pascal").const_params
    cases["2-pascal"] = TWO_PASCAL
    for name, p in cases.items():
        established = q_log_convexity_conditions(p).established
        t16 = from_const_params(p, 16)
        strongly_convex = is_strongly_q_log_convex(
            PolySeq(tuple(row_polys(t16)))
        ).holds
        # established conditions must never contradict the checked property
        assert not established or strongly_convex, name
        if name in CONVEX_PRESETS:
            assert established, name
        if established:
            assert is_tp_r(recurrence_matrix(p, 10), 2).holds, name

        for size in (5, 15):
            a = t16.to_matrix(size, size)
            shifted = [[t16.entry(i + 1, j) for j in range(size)] for i in range(size)]
            assert mat_mul(a, recurrence_matrix(p, size)) == shifted, (name, size)

        n_max, width = 15, 31
        t15 = from_const_params(p, n_max)
        tails = row_tail_matrix(t15, n_max + 1, width)
        product = mat_mul(t15.to_matrix(n_max + 1, width), q_power_matrix(width))
        assert tails == product, name

        assert verify_tail_recurrence(p, 10).holds, name
    report_line(5, f"matrix identities exact for {len(cases)} parameter sets")


def test_criterion_06_minor_forms_match_brute_force_expansions():
    displayed = {(0, 2): 1, (1, 1): -1, (0, 3): 2, (1, 2): -2, (0, 4): 1, (2, 2): -1}
    assert transform_minor_form(1, 1, 2).as_map() == displayed
    for n, m in ((1, 1), (1, 2), (2, 2)):
        assert transform_minor_form(n, m, 2).as_map() == naive_minor_form(n, m, 2), (n, m)

    rng = random.Random(2024)
    for s in (1, 2, 3):
        for n in range(1, 6):
            for m in range(n, 6):
                count = s * (m + 1) + 1
                polys = [QPoly([rng.randint(0, 3) for _ in range(3)])
                         for _ in range(count)]
                b = bisnomial_transform(PolySeq(tuple(polys)), s, m + 1).polys
                concrete = b[n - 1] * b[m + 1] - b[n] * b[m]
                symbolic = transform_minor_form(n, m, s).evaluate(polys)
                assert symbolic == concrete, (s, n, m)
    report_line(6, "symbolic forms equal brute-force expansions and concrete products")


def _corpus(count, preset_rowgens):
    convex = {
        "constants": PolySeq(tuple(QPoly([1]) for _ in range(count))),
        "binomial-powers": PolySeq(tuple(QPoly([1, 1]) ** k for k in range(count))),
    }
    for name in CONVEX_PRESETS:
        convex[f"rowgen-{name}"] = PolySeq(preset_rowgens[name].polys[:count])
    concave = {
        "constants": convex["constants"],
        "binomial-powers": convex["binomial-powers"],
        "gaussian-binomials": PolySeq(
            tuple(gaussian_binomial(n, 2) for n in range(2, count + 2))
        ),
    }
    return convex, concave


def test_criterion_07_transform_preserves_both_properties(preset_rowgens):
    n_max = 10
    runs = 0
    for s in (1, 2, 3):
        count = s * n_max + 1
        convex, concave = _corpus(count, preset_rowgens)
        for name, family in convex.items():
            result = check_preservation(family, s, n_max, "convex")
            assert result.verdict == HOLDS, ("convex", name, s, result.to_dict())
            runs += 1
        for name, family in concave.items():
            result = check_preservation(family, s, n_max, "concave")
            assert result.verdict == HOLDS, ("concave", name, s, result.to_dict())
            runs += 1
    report_line(7, f"{runs} preservation runs, every gate and output verdict holds")


def test_criterion_08_window_sums_stay_strongly_q_log_convex(preset_rowgens):
    families = {
        "constants": PolySeq(tuple(QPoly([1]) for _ in range(16))),
        "binomial-powers": PolySeq(tuple(QPoly([1, 1]) ** k for k in range(16))),
    }
    for name in CONVEX_PRESETS:
        families[f"rowgen-{name}"] = PolySeq(preset_rowgens[name].polys[:16])
    for name, family in families.items():
        assert is_strongly_q_log_convex(family).holds, name
        for s in (1, 2):
            out = window_sum(family, s)
            assert is_strongly_q_log_convex(out).holds, (name, s)
    report_line(8, "window sums of 6 strongly q-log-convex families stay in class")


def test_criterion_09_bisnomial_identities():
    for s in (1, 2, 3):
        for n in range(31):
            row = bisnomial_row(n, s)
            assert row == row[::-1], (n, s)  # symmetry
    for s in (1, 2, 3):
        for n in range(16):
            assert bisnomial_row(n, s) == expansion_bisnomial_row(n, s), (n, s)
    for n in range(21):
        assert bisnomial_row(n, 1) == [comb(n, k) for k in range(n + 1)], n
    report_line(9, "symmetry (n<=30), expansion oracle (n<=15), binomial case (n<=20)")


def test_criterion_10_checker_soundness_oracles():
    rng = random.Random(20240808)

    for _ in range(200):
        n = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        lo = 0 if rng.random() < 0.4 else -5
        m = [[rng.randint(lo, 5) for _ in range(ncols)] for _ in range(n)]
        r = min(n, ncols)
        naive = naive_first_negative_minor(m, r)
        assert is_tp_r(m, r).holds == (naive is None), m

    checked = 0
    while checked < 200:
        length = rng.randint(3, 8)
        vals = tuple(rng.randint(0, 20) for _ in range(length))
        s = NumSeq(vals)
        window = (length + 1) // 2
        covered = NumSeq(vals[: 2 * window - 1])
        assert is_log_convex(covered).holds == is_tp_r(hankel(s, window), 2).holds, vals
        if has_internal_zero_gap(vals):
            continue  # the concave equivalence needs gap-free support
        assert is_log_concave(s).holds == is_pf_r(s, 2, length).holds, vals
        checked += 1

    for _ in range(100):
        size = rng.randint(2, 5)
        product = mat_mul(random_tp2_matrix(rng, size), random_tp2_matrix(rng, size))
        assert is_tp_r(product, 2).holds
    for _ in range(100):
        size = rng.randint(2, 4)
        product = mat_mul(random_q_tp2_matrix(rng, size), random_q_tp2_matrix(rng, size))
        assert is_q_tp2(product).holds

    report_line(10, "naive-oracle agreement, both equivalences, both product closures")
