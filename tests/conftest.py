import os

import pytest

from tripos.properties import PolySeq
from tripos.triangles import build_preset, row_polys

CONVEX_PRESETS = ("aigner_catalan", "shapiro_catalan", "motzkin", "schroder_large")


@pytest.fixture(scope="session")
def preset_rowgens():
    """Row generating functions (rows 0..31) of the strongly q-log-convex presets."""
    return {
        name: PolySeq(tuple(row_polys(build_preset(name, 31))))
        for name in CONVEX_PRESETS
    }


@pytest.fixture(scope="session")
def network_allowed():
    """Whether a ``network`` test may download: only when the environment sets
    TRIPOS_NETWORK_TESTS=1.  By default such a test reads the cache offline
    and skips on a miss, so the suite makes no network attempt."""
    return os.environ.get("TRIPOS_NETWORK_TESTS") == "1"
