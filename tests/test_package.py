"""The public namespace of ``tripos``: every name resolves on first use.

Each check runs in a fresh interpreter, so no earlier test has imported a
submodule that the lazy lookup should load itself.
"""

import json
import subprocess
import sys

from helpers import src_env

SCRIPT = """
import importlib, json, sys
import tripos
out = {"loaded": sorted(m for m in sys.modules if m.startswith("tripos."))}
out["submodules"] = {
    name: getattr(tripos, name) is sys.modules.get(f"tripos.{name}")
    for name in ("transforms", "conditions", "oeis")
}
out["not_home"] = [
    name for name in tripos.__all__
    if getattr(tripos, name) is not getattr(
        importlib.import_module(f"tripos.{tripos._HOME[name]}"), name)
]
try:
    tripos.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
out["not_in_dir"] = sorted(set(tripos.__all__) - set(dir(tripos)))
star = {}
exec("from tripos import *", star)
out["star_unbound"] = [n for n in tripos.__all__ if star.get(n) is not getattr(tripos, n)]
out["all"] = len(tripos.__all__)
print(json.dumps(out))
"""


def test_public_names_resolve_on_first_use():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=src_env(),
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["loaded"] == []  # a bare import loads no submodule
    assert out["submodules"] == {"transforms": True, "conditions": True, "oeis": True}
    assert out["not_home"] == []
    assert out["unknown"] == "module 'tripos' has no attribute 'no_such_name'"
    assert out["not_in_dir"] == []
    assert out["star_unbound"] == []
    assert out["all"] == 45
