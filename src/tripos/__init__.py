"""Exact-arithmetic generators and property checkers for combinatorial
triangular arrays: log-concavity of rows, (strong) q-log-convexity and
-concavity of row generating functions, total positivity of the associated
matrices, and preservation of these properties under the generalized
binomial and window-sum transforms.

``import tripos`` loads none of the submodules.  Each public name below, and
each submodule name, is imported from its home module on first access
(PEP 562), so ``tripos.check_preservation`` loads ``tripos.transforms`` and
what it imports, and nothing else.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "algebra": ("ExactRat", "QPoly", "det_exact", "poly_geq_q"),
    "properties": (
        "NumSeq", "PolySeq", "PropertyReport", "hankel", "is_log_concave",
        "is_log_convex", "is_pf_r", "is_q_log_concave", "is_q_log_convex",
        "is_q_tp2", "is_strongly_q_log_concave", "is_strongly_q_log_convex",
        "is_tp_r", "toeplitz",
    ),
    "triangles": (
        "CoeffScheme", "ConstParams", "Triangle", "bisnomial", "bisnomial_row",
        "build_preset", "from_bisnomial", "from_const_params", "from_five_term",
        "from_three_term", "preset", "row_poly", "row_polys",
    ),
    "transforms": (
        "BilinearForm", "bisnomial_transform", "check_preservation",
        "transform_minor_form", "window_sum",
    ),
    "conditions": (
        "ConditionReport", "log_concavity_conditions", "log_concavity_conditions_const",
        "q_log_convexity_conditions", "verify_tail_recurrence",
    ),
    "oeis": ("BFile", "fetch_bfile", "parse_bfile", "reshape"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset(_PUBLIC) | {"cli", "errors", "oracles", "records"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
