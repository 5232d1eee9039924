"""Run one workload's job list once, in order, in a fresh interpreter.

    python3 worker.py SRC JOBS OUT [SPANS]

SRC is the directory holding the ``tripos`` package, JOBS the job list
written by ``run.py`` and OUT where the results go.  With SPANS the run is
traced (see ``tracing.py``) and the spans are written there.  Nothing warms
up first, so caches inside tripos start cold as they would for a user.
Between jobs, at least every 0.1 s, the worker times a calibration chunk
(see ``calibrate.py``); it is not part of any job's time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter_ns

import calibrate

CALIBRATE_EVERY_NS = 100_000_000  # a calibration chunk after each 0.1 s of jobs


def _decode(x):
    if isinstance(x, list):
        return [_decode(y) for y in x]
    return Fraction(x) if isinstance(x, str) else x


def _prepare(tripos, job: dict):
    """A zero-argument callable for the job; its inputs are built up front."""
    if "argv" in job:
        argv = job["argv"]

        def run_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = tripos.cli.main(argv)
            return code, out.getvalue()

        return run_cli
    call, args = job["call"], _decode(job["args"])
    if call == "is_pf_r":
        args[0] = tripos.NumSeq(tuple(args[0]))
    elif call == "is_q_tp2":
        args[0] = [[tripos.QPoly(p) for p in row] for row in args[0]]
    elif call == "window_sum":
        args[0] = tripos.PolySeq(tuple(tripos.QPoly(p) for p in args[0]))
    module = tripos.properties if call.startswith("is_") else tripos.transforms
    return lambda: getattr(module, call)(*args)


class Raised(str):
    """Traceback of a job that raised instead of returning."""


def _normalize(job: dict, result) -> dict:
    """The job's result as JSON data; CLI reports lose their timing field."""
    if isinstance(result, Raised):
        return {"code": "raised", "payload": {"traceback": str(result)}}
    if "argv" in job:
        code, text = result
        payload = json.loads(text) if text else {}
        payload.pop("timing_ms", None)
        return {"code": code, "payload": payload}
    call = job["call"]
    if call == "window_sum":
        body = {"polys": [str(p) for p in result.polys]}
    elif call == "transform_minor_form":
        body = {"form": result.serialize()}
    else:
        body = result.to_dict()
    return {"code": None, "payload": {"reports": [body]}}


def main(argv: list[str]) -> int:
    src, jobs_path, out_path = argv[1:4]
    spans_path = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, src)
    import tripos
    import tripos.cli  # noqa: F401

    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    calls = [_prepare(tripos, job) for job in jobs]

    results, job_ns, calib_s = [], [], [calibrate.chunk()]
    next_calib = perf_counter_ns() + CALIBRATE_EVERY_NS
    for i, call in enumerate(calls):
        t0 = perf_counter_ns()
        try:
            results.append(tracer.run_job(i, call) if tracer else call())
        except Exception:  # the job fails; the pass goes on
            results.append(Raised(traceback.format_exc()))
        t1 = perf_counter_ns()
        job_ns.append(t1 - t0)
        if t1 >= next_calib:
            calib_s.append(calibrate.chunk())
            next_calib = perf_counter_ns() + CALIBRATE_EVERY_NS
    calib_s.append(calibrate.chunk())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outputs = [_normalize(job, r) for job, r in zip(jobs, results)]
    out = {"wall_s": sum(job_ns) / 1e9, "job_s": [t / 1e9 for t in job_ns],
           "calib_s": calib_s, "peak_rss_mb": peak_kb / 1024, "outputs": outputs}
    if tracer:
        out["trace"] = tracer.summary()
        out["trace"]["report_bytes"] = sum(
            len(json.dumps(o["payload"], sort_keys=True, indent=2).encode())
            for job, o in zip(jobs, outputs) if "argv" in job)
        tracer.write_spans(spans_path)
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
