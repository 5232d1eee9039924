"""Command-line interface.

Machine-readable JSON goes to stdout (deterministic key order; the timing
field is the only part that varies between identical runs); a short human
summary goes to stderr.  Exit status: 0 all properties hold, 1 at least one
property fails, 2 usage, input or output error (a closed stdout included),
3 a precondition gate made the run inapplicable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .algebra import QPoly, parse_exact
from .conditions import (
    log_concavity_conditions,
    log_concavity_conditions_const,
    q_log_convexity_conditions,
    verify_tail_recurrence,
)
from .errors import DigitLimitError, FileFormatError, TriposError
from .oeis import fetch_bfile, reshape, resolve_cache_dir, trim_to_rows
from .properties import FAILS, INAPPLICABLE, TRIANGLE_CHECKS, PolySeq
from .transforms import check_preservation
from .triangles import (
    PRESET_NAMES,
    SCHEME_NAMES,
    CoeffScheme,
    ConstParams,
    Triangle,
    build_preset,
    from_const_params,
    from_five_term,
    from_three_term,
)

CHECK_NAMES = tuple(TRIANGLE_CHECKS)
_GENERATORS = {"three-term": from_three_term, "five-term": from_five_term}


def _int_at_least(low: int, wanted: str):
    """Argparse type for an integer >= ``low``; ``wanted`` names it in errors."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    parse.__name__ = "int"
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripos",
        description="Generate combinatorial triangles and verify their "
        "log-concavity / q-log-convexity / total-positivity properties "
        "in exact arithmetic.",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the JSON report to PATH")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a triangle and write it to a file")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--params", metavar="a,b,g,e,f,g,h",
                     help="constant five-term weights alpha,beta,gamma,e,f,g,h")
    src.add_argument("--scheme-file", metavar="PATH", help="JSON coefficient scheme file")
    gen.add_argument("--s", type=_positive_int, default=None, help="s for the s_pascal preset")
    gen.add_argument("--n", type=_nonnegative_int, required=True, help="largest row index to generate")
    gen.add_argument("--out", metavar="PATH", help="output path (default: stdout via report)")

    chk = sub.add_parser("check", help="run property checkers against a triangle")
    tgt = chk.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--file", metavar="PATH", help="triangle file to check")
    tgt.add_argument("--oeis", metavar="ID", help="OEIS id to ingest (b-file)")
    tgt.add_argument("--preset", choices=PRESET_NAMES)
    chk.add_argument("--arity", type=_positive_int, default=None, help="row-width slope of the ingested triangle")
    chk.add_argument("--s", type=_positive_int, default=None)
    chk.add_argument("--n", type=_nonnegative_int, default=None, help="rows to generate for a preset target")
    chk.add_argument("--tp-order", type=_positive_int, default=2, help="minor order for the tp check")
    chk.add_argument("--cache-dir", metavar="DIR", default=None)
    chk.add_argument("--offline", action="store_true", help="never touch the network")
    chk.add_argument("checks", nargs="+", choices=CHECK_NAMES)

    cond = sub.add_parser("conditions", help="evaluate a sufficient-condition list")
    cond.add_argument("theorem", choices=("thm21", "cor22", "thm34"))
    cond.add_argument("--params", metavar="a,b,g,e,f,g,h",
                      help="constant weights (cor22 / thm34)")
    cond.add_argument("--schemes", metavar="PATH", help="JSON scheme file (thm21)")
    cond.add_argument("--k-max", type=_int_at_least(2, "an integer >= 2"), default=30,
                      help="largest k of the thm21 conditions, which range over 2 <= k <= k_max")
    cond.add_argument("--tail-recurrence", type=_positive_int, metavar="N", default=None,
                      help="also verify the tail-sum recurrence identity up to row N")

    tra = sub.add_parser("transform", help="apply the generalized binomial transform "
                                           "and check property preservation")
    tra.add_argument("polys", metavar="PATH", help="input file, one polynomial per line")
    tra.add_argument("--s", type=_positive_int, required=True)
    tra.add_argument("--n-max", type=_nonnegative_int, default=None,
                     help="largest transformed index (default: all the input supports)")
    tra.add_argument("--direction", choices=("convex", "concave"), required=True)
    return parser


# -- input loading ---------------------------------------------------------------


def parse_const_params(text: str) -> ConstParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 7:
        raise FileFormatError(
            "--params needs 7 comma-separated values: alpha,beta,gamma,e,f,g,h"
        )
    try:
        vals = [parse_exact(p) for p in parts]
    except ValueError as exc:
        raise FileFormatError(f"bad --params value: {exc}") from exc
    try:
        return ConstParams(*vals)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def load_scheme_file(path: str) -> dict:
    """``{"kind": kind, name: scheme, ...}`` of a three- or five-term scheme file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read scheme file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"scheme file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError("scheme file must hold a JSON object")
    kind = data.get("kind")
    if kind not in tuple(SCHEME_NAMES):
        raise FileFormatError("scheme file needs \"kind\": \"three-term\" or \"five-term\"")
    schemes = {}
    for name in SCHEME_NAMES[kind]:
        if name not in data:
            raise FileFormatError(f"scheme file is missing the {name!r} scheme")
        schemes[name] = CoeffScheme.from_dict(data[name])
    return {"kind": kind, **schemes}


def load_poly_file(path: str) -> PolySeq:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read polynomial file: {exc}") from exc
    polys = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            polys.append(QPoly(parse_exact(tok) for tok in line.split()))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
    if not polys:
        raise FileFormatError("polynomial file contains no polynomials")
    return PolySeq(tuple(polys))


def load_triangle_file(path: str) -> Triangle:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read triangle file: {exc}") from exc
    return Triangle.parse(text)


def _write(path: str, text: str) -> None:
    """Write an output file; an unwritable path is an input error (exit 2)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


# -- command handlers --------------------------------------------------------------


def _cmd_generate(args) -> tuple[dict, list[dict], int]:
    if args.preset:
        t = build_preset(args.preset, args.n, s=args.s)
        source = {"preset": args.preset, "s": args.s}
    elif args.params:
        t = from_const_params(parse_const_params(args.params), args.n)
        source = {"params": args.params}
    else:
        schemes = load_scheme_file(args.scheme_file)
        t = _GENERATORS[schemes.pop("kind")](**schemes, n_max=args.n)
        source = {"scheme_file": args.scheme_file}
    serialized = t.serialize()
    if args.out:
        _write(args.out, serialized)
    inputs = {**source, "n_max": args.n, "out": args.out}
    body = {"triangle": None if args.out else serialized.splitlines()}
    return inputs, [body], 0


def _cmd_check(args) -> tuple[dict, list[dict], int]:
    if args.file:
        t = load_triangle_file(args.file)
        target = {"file": args.file}
    elif args.oeis:
        if args.arity is None:
            raise FileFormatError("--oeis needs --arity to reshape the b-file")
        b = fetch_bfile(args.oeis, cache_dir=args.cache_dir, offline=args.offline)
        trimmed = trim_to_rows(b, args.arity)
        t = reshape(trimmed, args.arity)
        target = {"oeis": args.oeis, "arity": args.arity,
                  "entries_used": len(trimmed.entries),
                  "entries_fetched": len(b.entries),
                  "cache_dir": str(resolve_cache_dir(args.cache_dir))}
    else:
        if args.n is None:
            raise FileFormatError("--preset needs --n (rows to generate)")
        t = build_preset(args.preset, args.n, s=args.s)
        target = {"preset": args.preset, "s": args.s, "n_max": args.n}
    reports = [TRIANGLE_CHECKS[check](t, args.tp_order) for check in args.checks]
    inputs = {**target, "checks": list(args.checks), "tp_order": args.tp_order}
    return inputs, [r.to_dict() for r in reports], _verdict_code(reports)


def _cmd_conditions(args) -> tuple[dict, list[dict], int]:
    identity = None
    if args.theorem == "thm21":
        if not args.schemes:
            raise FileFormatError("conditions thm21 needs --schemes (five-term scheme file)")
        schemes = load_scheme_file(args.schemes)
        if schemes.pop("kind") != "five-term":
            raise FileFormatError("thm21 takes a five-term scheme file")
        report = log_concavity_conditions(**schemes, k_max=args.k_max)
        inputs = {"theorem": "thm21", "schemes": args.schemes, "k_max": args.k_max}
    else:
        if not args.params:
            raise FileFormatError(f"conditions {args.theorem} needs --params")
        params = parse_const_params(args.params)
        if args.theorem == "cor22":
            report = log_concavity_conditions_const(params)
        else:
            report = q_log_convexity_conditions(params)
        inputs = {"theorem": args.theorem, "params": args.params}
        if args.tail_recurrence is not None:
            identity = verify_tail_recurrence(params, args.tail_recurrence)
            inputs["tail_recurrence_n_max"] = args.tail_recurrence
    reports = [report.to_dict()]
    ok = report.established
    if identity is not None:
        reports.append(identity.to_dict())
        ok = ok and identity.holds
    return inputs, reports, 0 if ok else 1


def _cmd_transform(args) -> tuple[dict, list[dict], int]:
    ps = load_poly_file(args.polys)
    n_max = args.n_max
    if n_max is None:
        n_max = (len(ps) - 1) // args.s
    report = check_preservation(ps, args.s, n_max, args.direction)
    inputs = {"polys": args.polys, "s": args.s, "n_max": n_max,
              "direction": args.direction}
    body = report.to_dict()
    if report.transformed is not None:
        body["transformed"] = [str(p) for p in report.transformed.polys]
    return inputs, [body], _verdict_code([report])


def _verdict_code(reports) -> int:
    """Exit status of a run: 1 if any verdict fails, else 3 if any is
    inapplicable, else 0."""
    verdicts = {r.verdict for r in reports}
    if FAILS in verdicts:
        return 1
    return 3 if INAPPLICABLE in verdicts else 0


_HANDLERS = {
    "generate": _cmd_generate,
    "check": _cmd_check,
    "conditions": _cmd_conditions,
    "transform": _cmd_transform,
}


def _summarize(reports: list[dict]) -> list[str]:
    lines = []
    for r in reports:
        if "verdict" in r:
            lines.append(f"{r.get('property', r.get('tag', 'report'))}: {r['verdict']}")
        elif "established" in r:
            state = "established" if r["established"] else "not established"
            lines.append(f"conditions {r['tag']}: {state}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        inputs, reports, code = _HANDLERS[args.command](args)
        payload = {
            "artifact": {"name": "tripos", "version": __version__},
            "command": args.command,
            "inputs": inputs,
            "reports": reports,
            "exit_status": code,
            "timing_ms": round((time.perf_counter() - started) * 1000, 3),
        }
        try:
            text = json.dumps(payload, sort_keys=True, indent=2)
        except ValueError as exc:  # an int past the int-to-str digit limit
            raise DigitLimitError() from exc
        if args.json:
            _write(args.json, text + "\n")
    except TriposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # A reader that closed early (`| head`) is not a failed property.
        # Point stdout at devnull so the flush at interpreter exit cannot
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 2
    for line in _summarize(reports):
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
