#!/usr/bin/env python3
"""Run the whole verification battery over the preset triangles and print a
verdict table.

For every preset this checks, in exact arithmetic:
  * log-concavity of each row,
  * strong q-log-convexity of the row generating functions,
  * TP_2 of the triangle's matrix truncation,
and for presets expressible with constant five-term weights additionally:
  * the four q-log-convexity conditions and the TP_2 recurrence matrix,
  * the deleted-row factorization and the tail-sum recurrence identity,
  * transform preservation of strong q-log-convexity for s = 1, 2, 3.

Usage:
  python scripts/survey_properties.py [--n 20] [--json out.json]

Exit status: 0 when every flag holds, 1 when one does not, 2 for a usage
error or a --json path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tripos.algebra import mat_mul
from tripos.cli import _nonnegative_int
from tripos.conditions import q_log_convexity_conditions, verify_tail_recurrence
from tripos.properties import TRIANGLE_CHECKS, PolySeq, is_tp_r
from tripos.transforms import check_preservation
from tripos.triangles import (
    PRESET_NAMES,
    Triangle,
    build_preset,
    from_const_params,
    preset,
    recurrence_matrix,
    row_polys,
)


def survey_preset(name: str, n_max: int) -> dict:
    t = build_preset(name, n_max, s=2 if name == "s_pascal" else None)
    out = {
        "rows-log-concave": TRIANGLE_CHECKS["rows-log-concave"](t, 2).holds,
        "rowgen-strong-qlcx": TRIANGLE_CHECKS["rowgen-strong-qlcx"](t, 2).holds,
        # TP_2 of the truncation to rows and columns 0..11
        "matrix-tp2": TRIANGLE_CHECKS["tp"](Triangle(t.rows[:12], t.arity), 2).holds,
    }

    p = preset(name).const_params if name != "s_pascal" else None
    if p is not None:
        j = recurrence_matrix(p, 10)
        out["conditions-established"] = q_log_convexity_conditions(p).established
        out["recurrence-matrix-tp2"] = is_tp_r(j, 2).holds
        out["tail-recurrence"] = verify_tail_recurrence(p, 8).holds
        # dropping row 0 of the triangle matrix equals multiplying it by J
        a = from_const_params(p, 10).to_matrix(11, 10)
        out["deleted-row-identity"] = mat_mul(a[:10], j) == a[1:]
        if out["rowgen-strong-qlcx"]:
            gens = row_polys(t)
            checks = []
            for s in (1, 2, 3):
                depth = min(8, (len(gens) - 1) // s)
                window = PolySeq(tuple(gens[: s * depth + 1]))
                checks.append(check_preservation(window, s, depth, "convex").holds)
            out["transform-preserves"] = all(checks)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=_nonnegative_int, default=20, help="rows per triangle")
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    results = {}
    for name in PRESET_NAMES:
        results[name] = survey_preset(name, args.n)
        flags = "  ".join(f"{k}={'Y' if v else 'N'}" for k, v in results[name].items())
        print(f"{name:<16} {flags}")
    elapsed = time.perf_counter() - started
    print(f"\n{len(results)} presets surveyed in {elapsed:.1f}s (rows 0..{args.n}, exact)")

    failures = {
        name: {k: v for k, v in flags.items() if not v}
        for name, flags in results.items()
        if not all(flags.values())
    }
    if args.json:
        try:
            with open(args.json, "w") as fh:
                json.dump(results, fh, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.json}")
    if failures:
        print(f"FAILURES: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
