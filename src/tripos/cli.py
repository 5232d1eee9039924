"""Command-line interface.

Machine-readable JSON goes to stdout (deterministic key order; the timing
field is the only part that varies between identical runs); a short human
summary goes to stderr.  Exit status: 0 all properties hold, 1 at least one
property fails, 2 usage, input or output error (a closed stdout and an
input too large for memory included), 3 a precondition gate made the run
inapplicable.

``conditions``, ``transforms`` and ``oeis`` are imported inside the handlers
that use them, so ``generate`` and ``check --file|--preset`` never load them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

from . import __version__
from .algebra import QPoly, parse_exact
from .errors import DigitLimitError, FileFormatError, TriposError
from .properties import FAILS, INAPPLICABLE, TRIANGLE_CHECKS, PolySeq
from .triangles import (
    PRESET_NAMES,
    SCHEME_KINDS,
    CoeffScheme,
    ConstParams,
    Triangle,
    build_preset,
    from_const_params,
)

CHECK_NAMES = tuple(TRIANGLE_CHECKS)


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
    # argparse reads the terminal width for every formatter it makes, 26 per
    # build; this reads it once and gives every parser the width argparse
    # itself would compute.  shutil loads here, as it did inside argparse.
    import shutil

    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="tripos", formatter_class=formatter,
        description="Generate combinatorial triangles and verify their "
        "log-concavity / q-log-convexity / total-positivity properties "
        "in exact arithmetic.",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the JSON report to PATH")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, formatter_class=formatter)

    gen = add_parser("generate", help="generate a triangle and write it to a file")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--params", metavar="alpha,beta,gamma,e,f,g,h",
                     help="constant five-term weights alpha,beta,gamma,e,f,g,h")
    src.add_argument("--scheme-file", metavar="PATH", help="JSON coefficient scheme file")
    gen.add_argument("--s", type=_positive_int, default=None, help="s for the s_pascal preset")
    gen.add_argument("--n", type=_nonnegative_int, required=True, help="largest row index to generate")
    gen.add_argument("--out", metavar="PATH", help="output path (default: stdout via report)")

    chk = add_parser("check", help="run property checkers against a triangle")
    tgt = chk.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--file", metavar="PATH", help="triangle file to check")
    tgt.add_argument("--oeis", metavar="ID", help="OEIS id to ingest (b-file)")
    tgt.add_argument("--preset", choices=PRESET_NAMES)
    chk.add_argument("--arity", type=_positive_int, default=None, help="row-width slope of the ingested triangle")
    chk.add_argument("--s", type=_positive_int, default=None)
    chk.add_argument("--n", type=_nonnegative_int, default=None, help="rows to generate for a preset target")
    chk.add_argument("--tp-order", type=_positive_int, default=None, help="minor order for the tp check (default 2)")
    chk.add_argument("--cache-dir", metavar="DIR", default=None)
    chk.add_argument("--offline", action="store_true", default=None, help="never touch the network")
    chk.add_argument("checks", nargs="+", choices=CHECK_NAMES)

    cond = add_parser("conditions", help="evaluate a sufficient-condition list")
    cond.add_argument("theorem", choices=("thm21", "cor22", "thm34"))
    cond.add_argument("--params", metavar="alpha,beta,gamma,e,f,g,h",
                      help="constant weights (cor22 / thm34)")
    cond.add_argument("--schemes", metavar="PATH", help="JSON scheme file (thm21)")
    cond.add_argument("--k-max", type=_int_at_least(2, "an integer >= 2"), default=None,
                      help="largest k of the thm21 conditions, which range over "
                      "2 <= k <= k_max (default 30)")
    cond.add_argument("--tail-recurrence", type=_positive_int, metavar="N", default=None,
                      help="also verify the tail-sum recurrence identity up to row N "
                      "(cor22 / thm34)")

    tra = add_parser("transform", help="apply the generalized binomial transform "
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


def load_scheme_file(path: str) -> tuple[str, dict]:
    """``(kind, {name: scheme, ...})`` of a three- or five-term scheme file."""
    try:
        data = json.loads(_read(path, "scheme file"))
    except (ValueError, RecursionError) as exc:
        # Besides invalid JSON: an integer past the int-to-str digit limit,
        # or arrays nested past the recursion limit.
        raise FileFormatError(f"cannot parse the scheme file as JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError("scheme file must hold a JSON object")
    kind = data.get("kind")
    if kind not in tuple(SCHEME_KINDS):
        raise FileFormatError("scheme file needs \"kind\": \"three-term\" or \"five-term\"")
    for key in data:
        if key != "kind" and key not in SCHEME_KINDS[kind][1]:
            raise FileFormatError(f"unknown key {key!r} in a {kind} scheme file")
    schemes = {}
    for name in SCHEME_KINDS[kind][1]:
        if name not in data:
            raise FileFormatError(f"scheme file is missing the {name!r} scheme")
        schemes[name] = CoeffScheme.from_dict(data[name])
    return kind, schemes


def load_poly_file(path: str) -> PolySeq:
    polys = []
    for lineno, line in enumerate(_read(path, "polynomial file").splitlines(), start=1):
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
    return Triangle.parse(_read(path, "triangle file"))


def _read(path: str, what: str) -> str:
    """Read a UTF-8 input file, with or without a byte order mark; an
    unreadable or non-UTF-8 one is an input error (exit 2)."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {what}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write a UTF-8 output file; an unwritable path is an input error (exit 2)."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


# -- command handlers --------------------------------------------------------------


def _refuse_unread(args, source: str, *flags: str) -> None:
    """Exit 2 for a flag that the chosen source or theorem does not read."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise FileFormatError(f"{source} takes no {flag}")


def _cmd_generate(args) -> tuple[dict, list[dict], int]:
    if args.preset:
        t = build_preset(args.preset, args.n, s=args.s)
        source = {"preset": args.preset, "s": args.s}
    elif args.params:
        _refuse_unread(args, "--params", "--s")
        t = from_const_params(parse_const_params(args.params), args.n)
        source = {"params": args.params}
    else:
        _refuse_unread(args, "--scheme-file", "--s")
        kind, schemes = load_scheme_file(args.scheme_file)
        t = SCHEME_KINDS[kind][0](**schemes, n_max=args.n)
        source = {"scheme_file": args.scheme_file}
    serialized = t.serialize()
    if args.out:
        _write(args.out, serialized)
    inputs = {**source, "n_max": args.n, "out": args.out}
    body = {"triangle": None if args.out else serialized.splitlines()}
    return inputs, [body], 0


def _cmd_check(args) -> tuple[dict, list[dict], int]:
    if "tp" not in args.checks:
        _refuse_unread(args, "a check without tp", "--tp-order")
    tp_order = 2 if args.tp_order is None else args.tp_order
    if args.file:
        _refuse_unread(args, "--file", "--s", "--n", "--arity", "--cache-dir", "--offline")
        t = load_triangle_file(args.file)
        target = {"file": args.file}
    elif args.oeis:
        from .oeis import fetch_bfile, reshape, resolve_cache_dir, trim_to_rows

        _refuse_unread(args, "--oeis", "--s", "--n")
        if args.arity is None:
            raise FileFormatError("--oeis needs --arity to reshape the b-file")
        b = fetch_bfile(args.oeis, cache_dir=args.cache_dir, offline=bool(args.offline))
        trimmed = trim_to_rows(b, args.arity)
        t = reshape(trimmed, args.arity)
        target = {"oeis": args.oeis, "arity": args.arity,
                  "entries_used": len(trimmed.entries),
                  "entries_fetched": len(b.entries),
                  "cache_dir": str(resolve_cache_dir(args.cache_dir))}
    else:
        _refuse_unread(args, "--preset", "--arity", "--cache-dir", "--offline")
        if args.n is None:
            raise FileFormatError("--preset needs --n (rows to generate)")
        t = build_preset(args.preset, args.n, s=args.s)
        target = {"preset": args.preset, "s": args.s, "n_max": args.n}
    reports = [TRIANGLE_CHECKS[check](t, tp_order) for check in args.checks]
    inputs = {**target, "checks": list(args.checks), "tp_order": tp_order}
    return inputs, [r.to_dict() for r in reports], _verdict_code(reports)


def _cmd_conditions(args) -> tuple[dict, list[dict], int]:
    from .conditions import (
        log_concavity_conditions,
        log_concavity_conditions_const,
        q_log_convexity_conditions,
        verify_tail_recurrence,
    )

    if args.theorem == "thm21":
        _refuse_unread(args, "thm21", "--params", "--tail-recurrence")
        if not args.schemes:
            raise FileFormatError("conditions thm21 needs --schemes (five-term scheme file)")
        kind, schemes = load_scheme_file(args.schemes)
        if kind != "five-term":
            raise FileFormatError("thm21 takes a five-term scheme file")
        k_max = 30 if args.k_max is None else args.k_max
        reports = [log_concavity_conditions(**schemes, k_max=k_max)]
        inputs = {"theorem": "thm21", "schemes": args.schemes, "k_max": k_max}
    else:
        _refuse_unread(args, args.theorem, "--schemes", "--k-max")
        if not args.params:
            raise FileFormatError(f"conditions {args.theorem} needs --params")
        params = parse_const_params(args.params)
        if args.theorem == "cor22":
            reports = [log_concavity_conditions_const(params)]
        else:
            reports = [q_log_convexity_conditions(params)]
        inputs = {"theorem": args.theorem, "params": args.params}
        if args.tail_recurrence is not None:
            reports.append(verify_tail_recurrence(params, args.tail_recurrence))
            inputs["tail_recurrence_n_max"] = args.tail_recurrence
    return inputs, [r.to_dict() for r in reports], _verdict_code(reports)


def _cmd_transform(args) -> tuple[dict, list[dict], int]:
    from .transforms import check_preservation

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
            lines.append(f"{r['property']}: {r['verdict']}")
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
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
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
