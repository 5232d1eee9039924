"""tripos benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload qlcx-scan --seed 1 --seconds 30 --trace 0

Inputs are generated from the seed into a scratch directory under
``.bench_work/`` in the checkout.  The workload's job list then runs in fresh
worker processes, one pass per process, until ``--seconds`` is used up.  With
``--trace 0`` every pass is untraced and the end-to-end metrics are printed;
with ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed, including the tracing overhead.  Every time is scaled
to the reference speed of the calibration kernel (``calibrate.py``) that the
worker times between jobs.  After timing, every job's exit code, verdict and
witness are compared with the expectations of ``workloads.py`` and
``reference.py``.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402  (needs no tripos import until Tracer.install)
import workloads  # noqa: E402

E2E = [("wall_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
       ("peak_rss_mb", "MB"), ("setup_s", "s")]

EXTRA_COUNTERS = [
    ("algebra.qpoly_mul.coeff_products", "count"), ("algebra.qpoly_mul.fraction_calls", "count"),
    ("algebra.qpoly_mul.max_coeff_bits", "bits"), ("algebra.qpoly_mul.ns_per_coeff_product", "ns"),
    ("algebra.det_exact.entries", "count"), ("algebra.det_exact.fraction_calls", "count"),
    ("algebra.det_exact.us_per_call", "us"), ("properties.pair_scan.pairs", "count"),
    ("properties.is_tp_r.minors", "count"), ("triangles.generate.entries", "count"),
    ("cli.report_bytes", "bytes"), ("trace.spans", "count"), ("trace.raised", "count"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]
PER_LAYER = [(f"{layer}.{field}", unit) for layer in [tracing.ROOT, *tracing.LAYERS]
             for field, unit in (("self_s", "s"), ("calls", "count"))] + EXTRA_COUNTERS

SETUP_PROBE = ("import sys, time\nt = time.perf_counter()\nsys.path.insert(0, sys.argv[1])\n"
               "import tripos.cli\ntripos.cli.build_parser()\nt = time.perf_counter() - t\n"
               "sys.path.insert(0, sys.argv[2])\nimport calibrate\n"
               "print(t, sum(calibrate.chunk() for _ in range(3)) / 3)")
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170


def measure_setup(samples: int) -> float:
    """Median time for a fresh interpreter to import tripos.cli and build the
    parser, scaled by the calibration chunks the same interpreter times next.
    One unmeasured run first compiles the bytecode cache."""
    times = []
    for i in range(samples + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
                             check=True, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        setup, calib = map(float, out.stdout.split())
        if i:
            times.append(setup * calibrate.REFERENCE_S / calib)
    return statistics.median(times)


def write_jobs(jobs: list[dict], work: Path) -> None:
    """The job list as the worker sees it: argv lists and library calls only."""
    view = [{k: job[k] for k in ("argv", "call", "args") if k in job} for job in jobs]
    (work / "jobs.json").write_text(json.dumps(view))


def run_pass(work: Path, spans: Path | None) -> dict:
    out = work / "pass.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(work / "jobs.json"), str(out)]
    subprocess.run(cmd + ([str(spans)] if spans else []), check=True, timeout=CHILD_TIMEOUT_S)
    result = json.loads(out.read_text())
    result["traced"] = spans is not None
    # every time is reported at the calibration kernel's reference speed
    scale = result["scale"] = calibrate.REFERENCE_S / statistics.mean(result["calib_s"])
    result["raw_wall_s"] = result["wall_s"]
    result["wall_s"] *= scale
    result["job_s"] = [t * scale for t in result["job_s"]]
    for layer in result.get("trace", {}).get("layers", {}).values():
        layer["self_s"] *= scale
    return result


def subset(expected, got) -> bool:
    """True when every field of ``expected`` appears in ``got`` with that value."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and all(k in got and subset(v, got[k])
                                             for k, v in expected.items())
    return expected == got


def expectation(job: dict) -> list[dict] | None:
    """Hand-written fields merged with the reference; None when they disagree."""
    expect = [dict(e) for e in job["expect"]]
    if job["ref"] is not None:
        for e, r in zip(expect, job["ref"]()):
            if "verdict" in e and r["verdict"] != e["verdict"]:
                return None
            e.update(r)
    return expect


def job_ok(job: dict, expect: list[dict] | None, output: dict) -> bool:
    if expect is None or output["code"] != job["code"]:
        return False
    reports = output["payload"].get("reports", [])
    return len(reports) == len(expect) and all(map(subset, expect, reports))


def verify(jobs: list[dict], passes: list[dict]) -> tuple[int, int]:
    """Count (attempted, failed) job runs over all passes."""
    failed = 0
    for i, job in enumerate(jobs):
        expect = expectation(job)
        files_ok = all(Path(p).read_text() == text for p, text in job["files"])
        bad = sum(not (files_ok and job_ok(job, expect, p["outputs"][i])) for p in passes)
        if bad:
            print(f"FAILED {job['label']}: {bad}/{len(passes)} runs; expected code "
                  f"{job['code']} and {expect}, got {passes[0]['outputs'][i]}", file=sys.stderr)
        failed += bad
    return len(jobs) * len(passes), failed


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    runs = [p for p in passes if not p["traced"]]
    per_job = [statistics.median(p["job_s"][i] for p in runs)
               for i in range(len(runs[0]["job_s"]))]
    deciles = statistics.quantiles(per_job, n=10)
    return {"wall_s": statistics.median(p["wall_s"] for p in runs),
            "job_p50_ms": deciles[4] * 1e3, "job_p90_ms": deciles[8] * 1e3,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in runs),
            "setup_s": setup_s}


def per_layer(passes: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics and whether every traced pass gave the same counters."""
    traced = [p["trace"] for p in passes if p["traced"]]
    first = traced[0]

    def counters(t):
        return ({layer: {k: v for k, v in d.items() if k != "self_s"}
                 for layer, d in t["layers"].items()},
                t["functions"], t["pairs"], t["minors"], t["spans"], t["report_bytes"])

    steady = all(counters(t) == counters(first) for t in traced)
    m = {}
    for layer in first["layers"]:
        m[f"{layer}.self_s"] = statistics.median(t["layers"][layer]["self_s"] for t in traced)
        m[f"{layer}.calls"] = first["layers"][layer]["calls"]
    mul, det = first["layers"]["algebra.qpoly_mul"], first["layers"]["algebra.det_exact"]
    for key in ("coeff_products", "fraction_calls", "max_coeff_bits"):
        m[f"algebra.qpoly_mul.{key}"] = mul.get(key, 0)
    m["algebra.qpoly_mul.ns_per_coeff_product"] = (
        m["algebra.qpoly_mul.self_s"] * 1e9 / mul["coeff_products"] if mul.get("coeff_products") else 0.0)
    for key in ("entries", "fraction_calls"):
        m[f"algebra.det_exact.{key}"] = det.get(key, 0)
    m["algebra.det_exact.us_per_call"] = (
        m["algebra.det_exact.self_s"] * 1e6 / det["calls"] if det["calls"] else 0.0)
    m["properties.pair_scan.pairs"] = first["pairs"]
    m["properties.is_tp_r.minors"] = first["minors"]
    m["triangles.generate.entries"] = first["layers"]["triangles.generate"].get("entries", 0)
    m["cli.report_bytes"] = first["report_bytes"]
    m["trace.spans"] = first["spans"]
    m["trace.raised"] = sum(d["raised"] for d in first["layers"].values())
    m["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes if p["traced"])
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(
        p["wall_s"] for p in passes if not p["traced"])
    return m, steady


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes and few set-up samples (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "tripos" / "__init__.py").is_file():
        print(f"error: no tripos package under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        jobs = workloads.build(args.workload, args.seed, work, tiny=args.tiny)
        write_jobs(jobs, work)
        setup_s = measure_setup(3 if args.tiny else SETUP_SAMPLES)

        spans = WORK / f"spans-{args.workload}.json"
        passes, started = [], perf_counter()
        while True:
            t0 = perf_counter()
            passes.append(run_pass(work, spans if args.trace and len(passes) % 2 else None))
            last = perf_counter() - t0
            if len(passes) >= 1 + args.trace and perf_counter() - started + last > args.seconds:
                break
        attempted, failed = verify(jobs, passes)

    e2e = end_to_end(passes, setup_s)
    layers, steady = per_layer(passes) if args.trace else ({}, True)
    if not steady:
        print("FAILED: work counters differ between traced passes", file=sys.stderr)
    metrics = layers if args.trace else e2e
    units = dict(E2E + PER_LAYER)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(jobs)} jobs x "
          f"{len(passes)} passes; {environment()}")
    scales = " ".join(f"{p['scale']:.3f}" for p in passes)
    raw = statistics.median(p["raw_wall_s"] for p in passes)
    print(f"# speed scale of each pass (its times are multiplied by it): {scales}; "
          f"unscaled median pass {raw:.4g} s")
    print(f"{'job_error_rate':44} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    for name, value in {**e2e, **layers}.items():
        print(f"{name:44} {value:14.6g} {units[name]}")
    if args.trace:
        for name, fn in passes[1]["trace"]["functions"].items():
            print(f"  {name:60} calls={fn['calls']} raised={fn['raised']}")
    print(json.dumps({"correct": failed == 0 and steady, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
