"""Seeded job lists for the three benchmark workloads.

``build(workload, seed, workdir)`` writes every input file a workload needs
into ``workdir`` and returns its jobs in run order.  A job is one CLI
invocation (``argv``) or one public library call (``call`` plus JSON
``args``) and carries its expectation:

* ``code``: the hand-written exit code (``None`` for library calls);
* ``expect``: hand-written report fields, one dict per report, matched
  as a subset of the parsed report;
* ``ref``: a function computing the witness-bearing report fields from
  :mod:`reference`, run after timing;
* ``files``: ``(path, text)`` pairs a job must have written;
* ``group``: jobs sharing one stay together, in order, when the list is
  shuffled (a round-trip check right after the ``generate`` it reads).

The same seed gives the same jobs.  Sizes are drawn from fixed strata with
a small seeded jitter, so every seed does about the same amount of work.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

WORKLOADS = ("qlcx-scan", "tp-minors", "cli-battery")

THREE_TERM = ("pascal", "stirling2", "aigner_catalan", "shapiro_catalan",
              "motzkin", "bell", "schroder_large")


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    groups: dict = {}
    for job in _BUILDERS[workload](_Inputs(rng, workdir, tiny)):
        # a job that reads another job's output file stays right after it
        groups.setdefault(job.pop("group") or id(job), []).append(job)
    order = list(groups.values())
    rng.shuffle(order)
    return [job for group in order for job in group]


class _Inputs:
    """Seeded draws plus the directory that receives the generated files."""

    def __init__(self, rng: random.Random, workdir: Path, tiny: bool):
        self.rng, self.dir, self.tiny = rng, workdir, tiny
        self.count = self.sizes = 0

    def size(self, base: int, spread: int = 2, tiny: int = 4) -> int:
        """A size from base .. base + spread, cycling through them in call order.

        Sizes do not depend on the seed, so every seed does about the same
        work; the seed varies assignments, perturbed entries and values.
        """
        self.sizes += 1
        return (tiny if self.tiny else base) + self.sizes % (spread + 1)

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.dir / f"{self.count:03d}-{stem}"
        path.write_text(text)
        return str(path)

    def triangle(self, stem: str, rows, arity: int = 1) -> str:
        return self.write(f"{stem}.txt", ref.triangle_text(rows, arity))


def _job(label, argv, code, expect, reference=None, files=(), group=None) -> dict:
    return {"label": label, "argv": [str(a) for a in argv], "code": code,
            "expect": expect, "ref": reference, "files": list(files), "group": group}


def _call(label, call, args, expect, reference) -> dict:
    return {"label": label, "call": call, "args": args, "code": None,
            "expect": expect, "ref": reference, "files": [], "group": None}


def _verdicts(*verdicts) -> list[dict]:
    return [{"verdict": v} for v in verdicts]


def _target(name: str, n: int, s: int | None = None) -> list:
    return ["--preset", name, "--n", n] + (["--s", s] if s else [])


def _check_refs(rows, checks, tp_order=2):
    """Reference reports for ``tripos check`` on a triangle, in argv order."""
    out = []
    for c in checks:
        if c == "rows-log-concave":
            out.append(ref.rows_log_concave(rows))
        elif c == "tp":
            out.append(ref.first_negative_minor(ref.square(rows, len(rows)), tp_order))
        else:
            out.append(ref.strong_q_log(rows, c == "rowgen-strong-qlcv"))
    return out


def _encode(x):
    """JSON form of nested lists of exact scalars; fractions become "p/q"."""
    if isinstance(x, list):
        return [_encode(y) for y in x]
    return str(x) if isinstance(x, Fraction) and x.denominator != 1 else int(x)


# -- qlcx-scan ---------------------------------------------------------------------

# Presets whose entry C[r][k] - 1 (1 <= k <= 2, k <= r < n_max) always breaks
# strong q-log-convexity, at a pair (n, m) with n close to r - k.
LATE_PRESETS = ("motzkin", "aigner_catalan", "shapiro_catalan", "schroder_large")


def _qlcx_scan(ins: _Inputs) -> list[dict]:
    rng, jobs = ins.rng, []
    # sizes 14 .. 40 spread evenly; each preset gets one size of every stratum
    strata = len(THREE_TERM)
    for stratum in range(strata):
        for j, name in enumerate(THREE_TERM):
            n = 6 if ins.tiny else 14 + (stratum * strata + j) * 26 // (strata * strata - 1)
            jobs.append(_job(f"qlcx {name} n={n}",
                             ["check", *_target(name, n), "rowgen-strong-qlcx"], 0,
                             _verdicts("holds"),
                             lambda name=name, n=n: [ref.strong_q_log(ref.preset_rows(name, n), False)]))
    for s, bases in ((2, (10, 15, 20)), (3, (8, 12, 16))):
        for base in bases:
            n = ins.size(base, 1, tiny=3)
            jobs.append(_job(f"qlcv s_pascal s={s} n={n}",
                             ["check", *_target("s_pascal", n, s), "rowgen-strong-qlcv"], 0,
                             _verdicts("holds"),
                             lambda s=s, n=n: [ref.strong_q_log(ref.preset_rows("s_pascal", n, s), True)]))
    per_preset = 8
    for name in LATE_PRESETS:
        for i in range(per_preset):
            n = ins.size(26, 7, tiny=8)
            lo, hi = n // 3, n - 1
            r = lo + (2 * i + 1) * (hi - lo) // (2 * per_preset)
            k = rng.choice((1, 2))
            rows = ref.preset_rows(name, n)
            rows[r][k] -= 1
            path = ins.triangle(f"late-{name}", rows)
            jobs.append(_job(f"qlcx late {name} n={n} C[{r}][{k}]-1",
                             ["check", "--file", path, "rowgen-strong-qlcx"], 1,
                             _verdicts("fails"),
                             lambda rows=rows: [ref.strong_q_log(rows, False)]))
    for name in THREE_TERM[1:]:
        for base in (10, 20, 30):
            n = ins.size(base, tiny=4)
            jobs.append(_job(f"qlcv early {name} n={n}",
                             ["check", *_target(name, n), "rowgen-strong-qlcv"], 1,
                             _verdicts("fails"),
                             lambda name=name, n=n: [ref.strong_q_log(ref.preset_rows(name, n), True)]))
    return jobs


# -- tp-minors ---------------------------------------------------------------------

TP_PRESETS = THREE_TERM + ("s_pascal",)
# (order, base size) of the preset tp checks; the Motzkin triangle is TP2 only.
TP_CONFIGS = ((2, 6), (2, 10), (3, 5), (3, 6), (4, 5))
# column 0 of these presets: Catalan, Motzkin, Bell and large Schroder numbers
HANKEL_SEQS = ("aigner_catalan", "motzkin", "bell", "schroder_large")
CONST_PARAMS = {"pascal": (1, 1, 0, 1, 1, 0, 0), "aigner_catalan": (1, 1, 0, 1, 2, 1, 0),
                "shapiro_catalan": (2, 1, 0, 1, 2, 1, 0), "motzkin": (1, 1, 0, 1, 1, 1, 0),
                "schroder_large": (2, 1, 0, 1, 3, 2, 0)}


def _tp_verdict(name: str, order: int) -> str:
    return "fails" if name == "motzkin" and order >= 3 else "holds"


def _recurrence_matrix(p, size: int) -> list[list[int]]:
    alpha, beta, gamma, e, f, g, h = p
    m = [[0] * size for _ in range(size)]
    for j, v in enumerate((alpha, beta, gamma)[:size]):
        m[0][j] = v
    for i in range(1, size):
        for off, v in ((-2, h), (-1, g), (0, f), (1, e), (2, gamma)):
            if 0 <= i + off < size:
                m[i][i + off] = v
    return m


def _bidiagonal_product(rng, size: int, factors: int, rational: bool, upper: bool):
    """Product of unit bidiagonal factors with positive off-diagonals, then a
    positive diagonal scaling: totally nonnegative by construction."""
    def draw():
        return Fraction(rng.randint(1, 5), rng.randint(1, 4)) if rational else rng.randint(1, 3)

    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(factors):
        for lower in (True, False) if upper else (True,):
            w = [draw() for _ in range(size)]
            # m <- m * (I + w E_{i+1,i}) (lower) or m * (I + w E_{i,i+1}) (upper)
            for i in range(size - 1):
                a, b = (i, i + 1) if lower else (i + 1, i)
                for row in m:
                    row[a] += w[i] * row[b]
    for i, row in enumerate(m):
        d = draw()
        m[i] = [d * x for x in row]
    return m


def _break_minor(m, i: int, j: int) -> None:
    """Raise m[i][j] until the 2x2 minor on rows (j+1, i), cols (j, j+1) is negative."""
    m[i][j] += m[j + 1][j] * m[i][j + 1] // m[j + 1][j + 1] + 1


def _tp_minors(ins: _Inputs) -> list[dict]:
    rng, jobs = ins.rng, []
    for name in TP_PRESETS:
        s = 2 if name == "s_pascal" else None
        for order, base in TP_CONFIGS:
            n = ins.size(base, 1, tiny=3)
            v = _tp_verdict(name, order)
            jobs.append(_job(f"tp {name} n={n} r={order}",
                             ["check", *_target(name, n, s), "--tp-order", order, "tp"],
                             0 if v == "holds" else 1, _verdicts(v),
                             lambda name=name, n=n, s=s, order=order:
                             _check_refs(ref.preset_rows(name, n, s), ["tp"], order)))
    for name in HANKEL_SEQS:
        for order, base in ((2, 8), (3, 6), (4, 5)):
            m = ins.size(base, 1, tiny=4)
            seq = [row[0] for row in ref.preset_rows(name, 2 * m)]
            hankel = [[seq[i + j] for j in range(m)] for i in range(m)]
            jobs.append(_call(f"hankel {name} m={m} r={order}", "is_tp_r",
                              [_encode(hankel), order], _verdicts(_tp_verdict(name, order)),
                              lambda hankel=hankel, order=order: [ref.first_negative_minor(hankel, order)]))
    # coefficients of real-rooted polynomials are Polya frequency sequences
    for name in ("pascal", "stirling2", "real-rooted"):
        for order, window in ((2, 10), (3, 6), (4, 5)):
            w = ins.size(window, 1, tiny=3)
            degree = w + rng.randrange(3)
            if name == "real-rooted":
                seq = [1]
                for _ in range(degree):
                    seq = ref.convolve(seq, [1, rng.randint(1, 4)])
            else:
                seq = ref.preset_rows(name, degree)[-1]
            jobs.append(_call(f"pf {name} window={w} r={order}", "is_pf_r",
                              [seq, order, w], [{"property": "polya-frequency", "verdict": "holds"}],
                              lambda seq=seq, w=w, order=order:
                              [{**ref.first_negative_minor(ref.toeplitz(seq, w), order),
                                "property": "polya-frequency"}]))
    for name, p in CONST_PARAMS.items():
        for order, base in ((2, 9), (3, 6), (4, 5)):
            size = ins.size(base, 1, tiny=3)
            m = _recurrence_matrix(p, size)
            jobs.append(_call(f"recurrence {name} size={size} r={order}", "is_tp_r",
                              [_encode(m), order], _verdicts(_tp_verdict(name, order)),
                              lambda m=m, order=order: [ref.first_negative_minor(m, order)]))
    for i in range(8):
        size, order = ins.size(6, 2, tiny=3), 2 + i % 2
        m = _bidiagonal_product(rng, size, 2, rational=i < 3, upper=True)
        jobs.append(_call(f"bidiagonal size={size} r={order}{' rational' if i < 3 else ''}",
                          "is_tp_r", [_encode(m), order], _verdicts("holds"),
                          lambda m=m, order=order: [ref.first_negative_minor(m, order)]))
    for i in range(6):
        size, order = ins.size(8, 2, tiny=5), 2 + i % 2
        m = _bidiagonal_product(rng, size, 3, rational=i == 0, upper=False)
        row = size - 1 - rng.randrange(2)
        _break_minor(m, row, row - 2 - rng.randrange(2))
        jobs.append(_call(f"bidiagonal broken size={size} r={order}", "is_tp_r",
                          [_encode(m), order], _verdicts("fails"),
                          lambda m=m, order=order: [ref.first_negative_minor(m, order)]))
    for i in range(10):
        name = TP_PRESETS[i % len(TP_PRESETS)]
        s = 2 if name == "s_pascal" else None
        n, order = ins.size(8, 2, tiny=4), 2 + i % 2
        rows = ref.preset_rows(name, n, s)
        m = ref.square(rows, n + 1)
        row = n - rng.randrange(2)
        col = row - 2 - rng.randrange(2)
        _break_minor(m, row, col)
        rows[row][col] = m[row][col]
        path = ins.triangle(f"broken-{name}", rows, s or 1)
        jobs.append(_job(f"tp broken {name} n={n} r={order}",
                         ["check", "--file", path, "--tp-order", order, "tp"], 1,
                         _verdicts("fails"),
                         lambda rows=rows, order=order: _check_refs(rows, ["tp"], order)))
    for i in range(6):
        name = TP_PRESETS[i]
        n, order = ins.size(5, 2, tiny=3), 2 + i % 2
        # a positive scaling of each row keeps every minor's sign
        rows = []
        for row in ref.preset_rows(name, n):
            c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            rows.append([c * x for x in row])
        path = ins.triangle(f"rational-{name}", rows)
        v = _tp_verdict(name, order)
        jobs.append(_job(f"tp rational {name} n={n} r={order}",
                         ["check", "--file", path, "--tp-order", order, "tp"],
                         0 if v == "holds" else 1, _verdicts(v),
                         lambda rows=rows, order=order: _check_refs(rows, ["tp"], order)))
    return jobs


# -- cli-battery -------------------------------------------------------------------

# (alpha, beta, gamma, e, f, g, h) -> (cor22 established, thm34 established,
# rows log-concave from row 2 on).  (1, 3, 1, 1, 1, 1, 1) is the open cor22
# soundness clash: cor22 is established while row 2 is not log-concave.
PARAM_GRID = {
    (1, 1, 0, 1, 1, 0, 0): (True, True, True),
    (1, 1, 0, 1, 2, 1, 0): (False, True, True),
    (2, 1, 0, 1, 2, 1, 0): (False, True, True),
    (1, 1, 0, 1, 1, 1, 0): (False, True, True),
    (2, 1, 0, 1, 3, 2, 0): (False, True, True),
    (1, 3, 1, 1, 1, 1, 1): (True, False, False),
    (1, 1, 1, 1, 1, 1, 1): (True, True, True),
    (1, 2, 1, 2, 2, 1, 1): (False, False, True),
    (1, 1, 0, 2, 2, 1, 0): (False, True, True),
    (0, 1, 1, 1, 1, 1, 1): (True, False, True),
    (1, 0, 0, 1, 1, 0, 0): (False, True, True),
    (2, 2, 1, 2, 3, 2, 1): (True, True, True),
    (1, 1, 1, 2, 2, 1, 0): (False, True, True),
    (1, 2, 1, 2, 3, 2, 1): (True, False, True),
    (2, 1, 1, 1, 2, 1, 1): (False, False, False),
    (1, 1, 0, 1, 3, 1, 1): (False, False, True),
}

# name -> (scheme file body, reference weights, thm21 established)
_C = {"constant": "1"}
FIVE_TERM_SCHEMES = {
    "flat": ({"gamma": _C, "e": {"constant": "2"}, "f": {"constant": "3"},
              "g": {"constant": "2"}, "h": _C},
             {"gamma": lambda k: 1, "e": lambda k: 2, "f": lambda k: 3,
              "g": lambda k: 2, "h": lambda k: 1}, True),
    "affine-f": ({"gamma": _C, "e": _C, "f": {"affine": ["1", "1"]}, "g": _C, "h": _C},
                 {"gamma": lambda k: 1, "e": lambda k: 1, "f": lambda k: k + 1,
                  "g": lambda k: 1, "h": lambda k: 1}, False),
    "affine-fg": ({"gamma": {"constant": "0"}, "e": _C, "f": {"affine": ["1", "2"]},
                   "g": {"affine": ["1", "1"]}, "h": {"constant": "0"}},
                  {"gamma": lambda k: 0, "e": lambda k: 1, "f": lambda k: k + 2,
                   "g": lambda k: k + 1, "h": lambda k: 0}, True),
}


def _three_term_schemes(n: int) -> dict:
    """name -> (scheme file body, reference (f, g)); tables cover rows 0..n."""
    return {
        "motzkin-const": ({"f": {"constant": "1"}, "g": {"constant": "1"}},
                          (lambda k: 1, lambda k: 1)),
        "bell-affine": ({"f": {"affine": ["1", "1"]}, "g": {"affine": ["1", "1"]}},
                        (lambda k: k + 1, lambda k: k + 1)),
        "catalan-table": ({"f": {"table": ["1"] + ["2"] * (n + 1)}, "g": {"constant": "1"}},
                          (lambda k: 1 if k == 0 else 2, lambda k: 1)),
    }


def _generate_job(label, source_argv, n, path, rows, arity):
    return _job(label, ["generate", *source_argv, "--n", n, "--out", path], 0,
                [{"triangle": None}], files=[(path, ref.triangle_text(rows, arity))], group=path)


def _cli_battery(ins: _Inputs) -> list[dict]:
    rng, jobs = ins.rng, []
    # generate --out, then check --file on what was written
    for name, s in [(p, None) for p in THREE_TERM] + [("s_pascal", 2), ("s_pascal", 3)]:
        n = ins.size(12 if s else 20, 4, tiny=3)
        rows, arity = ref.preset_rows(name, n, s), s or 1
        path = str(ins.dir / f"gen-{name}-{s}.txt")
        jobs.append(_generate_job(f"generate {name}", ["--preset", name] + (["--s", s] if s else []),
                                  n, path, rows, arity))
        checks = ["rows-log-concave", "rowgen-strong-qlcv" if s else "rowgen-strong-qlcx"]
        jobs.append(_job(f"roundtrip {name}", ["check", "--file", path, *checks], 0,
                         _verdicts("holds", "holds"),
                         lambda rows=rows, checks=checks: _check_refs(rows, checks), group=path))
    for i, (p, (cor22, thm34, lc)) in enumerate(PARAM_GRID.items()):
        n = ins.size(12, 3, tiny=3)
        text = ",".join(map(str, p))
        rows = ref.const_rows(p, n)
        path = str(ins.dir / f"params-{i}.txt")
        jobs.append(_generate_job(f"generate params {text}", ["--params", text], n, path, rows, 2))
        jobs.append(_job(f"roundtrip params {text}", ["check", "--file", path, "rows-log-concave"],
                         0 if lc else 1, _verdicts("holds" if lc else "fails"),
                         lambda rows=rows: _check_refs(rows, ["rows-log-concave"]), group=path))
        jobs.append(_job(f"cor22 {text}", ["conditions", "cor22", "--params", text],
                         0 if cor22 else 1, [{"tag": "cor22", "established": cor22}]))
        tail = ins.size(10, 4, tiny=2)
        jobs.append(_job(f"thm34 {text} tail={tail}",
                         ["conditions", "thm34", "--params", text, "--tail-recurrence", tail],
                         0 if thm34 else 1,
                         [{"tag": "thm34", "established": thm34},
                          {"property": "tail-recurrence-identity", "verdict": "holds"}]))
    n = ins.size(16, 4, tiny=3)
    for name, (body, fg) in _three_term_schemes(n).items():
        path = ins.write(f"scheme-{name}.json", json.dumps({"kind": "three-term", **body}))
        rows = ref.three_term_rows(*fg, n)
        out = str(ins.dir / f"scheme-{name}.txt")
        jobs.append(_generate_job(f"generate scheme {name}", ["--scheme-file", path], n, out, rows, 1))
        jobs.append(_job(f"roundtrip scheme {name}",
                         ["check", "--file", out, "rows-log-concave", "rowgen-strong-qlcx"], 0,
                         _verdicts("holds", "holds"),
                         lambda rows=rows: _check_refs(rows, ["rows-log-concave", "rowgen-strong-qlcx"]),
                         group=out))
    for name, (body, weights, thm21) in FIVE_TERM_SCHEMES.items():
        path = ins.write(f"scheme-{name}.json", json.dumps({"kind": "five-term", **body}))
        n = ins.size(12, 3, tiny=3)
        rows = ref.five_term_rows(weights, n)
        out = str(ins.dir / f"scheme-{name}.txt")
        jobs.append(_generate_job(f"generate scheme {name}", ["--scheme-file", path], n, out, rows, 2))
        jobs.append(_job(f"roundtrip scheme {name}", ["check", "--file", out, "rows-log-concave"],
                         0 if thm21 else 1, _verdicts("holds" if thm21 else "fails"),
                         lambda rows=rows: _check_refs(rows, ["rows-log-concave"]), group=out))
        k_max = ins.size(30, 20, tiny=3)
        jobs.append(_job(f"thm21 {name} k_max={k_max}",
                         ["conditions", "thm21", "--schemes", path, "--k-max", k_max],
                         0 if thm21 else 1, [{"tag": "thm21", "established": thm21}]))
    for name, s in [(p, None) for p in THREE_TERM] + [("s_pascal", 2)]:
        for base in (30, 60):
            n = ins.size(base, 3, tiny=3)
            jobs.append(_job(f"rows-log-concave {name} n={n}",
                             ["check", *_target(name, n, s), "rows-log-concave"], 0,
                             _verdicts("holds"),
                             lambda name=name, n=n, s=s: _check_refs(ref.preset_rows(name, n, s),
                                                                    ["rows-log-concave"])))
    # transforms: integer and Fraction inputs, both directions, gate failures (exit 3)
    sources = [("motzkin", None, "convex", 0), ("bell", None, "convex", 0),
               ("schroder_large", None, "convex", 0), ("pascal", None, "convex", 0),
               ("pascal", None, "concave", 0), ("s_pascal", 2, "concave", 0),
               ("motzkin", None, "concave", 3), ("bell", None, "concave", 3)]
    for name, s_src, direction, code in sources:
        for s in (1, 2, 3):
            polys = ref.preset_rows(name, ins.size(14, 3, tiny=3), s_src)
            jobs.append(_transform_job(ins, f"transform {name} s={s} {direction}", polys, s,
                                       direction, code))
    for name in ("motzkin", "schroder_large", "aigner_catalan", "bell"):
        for s in (1, 2, 3):
            c = Fraction(rng.randint(1, 4), rng.randint(5, 9))
            polys = [[c ** k * x for x in row]
                     for k, row in enumerate(ref.preset_rows(name, ins.size(10, 2, tiny=3)))]
            jobs.append(_transform_job(ins, f"transform fraction {name} s={s}", polys, s,
                                       "convex", 0))
    # OEIS ingestion from a b-file the benchmark writes into an offline cache
    for oid, s, check in (("A007318", 1, "rowgen-strong-qlcx"), ("A027907", 2, "rowgen-strong-qlcv")):
        for i in range(3):
            n = ins.size(12, 4, tiny=3)
            rows = ref.preset_rows("s_pascal", n + 1, s)
            flat = [x for row in rows for x in row][: sum(s * k + 1 for k in range(n + 1))
                                                    + rng.randrange(s * (n + 1))]
            cache = ins.dir / f"oeis-{oid}-{i}"
            cache.mkdir()
            (cache / f"{oid}.txt").write_text("".join(f"{j} {v}\n" for j, v in enumerate(flat)))
            kept = rows[: n + 1]
            checks = ["rows-log-concave", check]
            jobs.append(_job(f"oeis {oid} rows={n + 1}",
                             ["check", "--oeis", oid, "--arity", s, "--offline",
                              "--cache-dir", cache, *checks], 0,
                             _verdicts("holds", "holds"),
                             lambda kept=kept, checks=checks: _check_refs(kept, checks)))
    # library calls
    for name, s, reverse in (("pascal", None, False), ("motzkin", None, False),
                             ("bell", None, False), ("schroder_large", None, False),
                             ("s_pascal", 2, False), ("motzkin", None, True),
                             ("schroder_large", None, True), ("aigner_catalan", None, True)):
        m = ins.size(6, 2, tiny=3)
        rows = ref.preset_rows(name, 2 * m, s)
        matrix = [[rows[i + (m - 1 - j if reverse else j)] for j in range(m)] for i in range(m)]
        jobs.append(_call(f"is_q_tp2 {name} m={m}{' reversed' if reverse else ''}", "is_q_tp2",
                          [_encode(matrix)],
                          _verdicts("fails" if reverse else "holds"),
                          lambda matrix=matrix: [ref.q_tp2(matrix)]))
    for name, s_src in [(p, None) for p in THREE_TERM[:4]] + [("s_pascal", 2)]:
        for s in (1, 2, 3):
            polys = ref.preset_rows(name, ins.size(30, 6, tiny=4), s_src)
            jobs.append(_call(f"window_sum {name} s={s}", "window_sum", [_encode(polys), s],
                              [{}], lambda polys=polys, s=s: [{"polys": ref.window_sums(polys, s)}]))
    for i in range(15):
        s = 1 + i % 3
        n = 1 + rng.randrange(5)
        m = n + rng.randrange(4)
        jobs.append(_call(f"transform_minor_form n={n} m={m} s={s}", "transform_minor_form",
                          [n, m, s], [{}], lambda n=n, m=m, s=s: [{"form": ref.minor_form(n, m, s)}]))
    return jobs


def _transform_job(ins: _Inputs, label, polys, s, direction, code) -> dict:
    path = ins.write("polys.txt", "".join(ref.poly_str(p) + "\n" for p in polys))
    n_max = (len(polys) - 1) // s
    verdict = {0: "holds", 1: "fails", 3: "inapplicable"}[code]
    return _job(label, ["transform", path, "--s", s, "--direction", direction], code,
                _verdicts(verdict),
                lambda: [ref.preservation(polys, s, n_max, direction)[1]])


_BUILDERS = {"qlcx-scan": _qlcx_scan, "tp-minors": _tp_minors, "cli-battery": _cli_battery}
