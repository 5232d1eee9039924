"""Every name the bench tracer wraps must exist in tripos.

``bench/tracing.py`` looks each ``(module, attribute)`` of ``LAYERS`` up with
``getattr`` when a traced run starts (``bench/run.py --trace 1``), and it
counts calls to ``tripos.algebra.as_fraction``.  A renamed or deleted
function would otherwise show only there.  The tracer module is loaded by
path and nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for targets in tracing.LAYERS.values() for target in targets]
    missing = []
    for modname, attr in targets + [("algebra", "as_fraction")]:
        obj = importlib.import_module(f"tripos.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"tripos.{modname}.{attr}")
    assert missing == []
