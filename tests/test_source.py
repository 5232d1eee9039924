"""Rules that every source file of the package and of the scripts keeps."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _nodes(exclude: tuple[str, ...] = ()):
    """(location, node) of every AST node of the package and scripts sources."""
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/**/*.py")])
    assert paths
    for path in paths:
        name = path.relative_to(ROOT).as_posix()
        if name not in exclude:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                yield f"{name}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements():
    """Validation must not depend on ``assert``, which ``python -O`` strips."""
    assert [where for where, node in _nodes() if isinstance(node, ast.Assert)] == []


def test_denominators_are_read_only_in_algebra():
    """``algebra`` is the one place that turns rationals into integers
    (``clear_rows``) and integral rationals into ``int``; every other module
    calls it rather than reading a ``.denominator``."""
    found = [where for where, node in _nodes(exclude=("src/tripos/algebra.py",))
             if isinstance(node, ast.Attribute) and node.attr == "denominator"]
    assert found == []


def test_fractions_are_imported_only_in_algebra():
    """``algebra`` is the one module that works in ``Fraction`` itself; every
    other module clears to integers through it (``clear_rows``) or keeps the
    values it is given."""
    found = []
    for where, node in _nodes(exclude=("src/tripos/algebra.py",)):
        if isinstance(node, ast.Import):
            found += [where for alias in node.names if alias.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(where)
    assert found == []


def test_only_record_defines_equality_and_freezing():
    """``records.Record`` is the one implementation of equality, hashing and
    frozen fields; every value type inherits them rather than hand-rolling
    its own."""
    rules = {"__eq__", "__hash__", "__setattr__", "__delattr__"}
    found = []
    for where, node in _nodes():
        if isinstance(node, ast.ClassDef) and node.name != "Record":
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    names = []
                found += [f"{where} {node.name}.{n}" for n in names if n in rules]
    assert found == []


def test_minors_are_enumerated_only_in_extension_index():
    """``properties._extension_index`` is the one caller of
    ``itertools.combinations``: every minor check of every entry type runs on
    ``properties._first_negative_minor``, built from it, so a second loop
    over row and column subsets cannot come back."""
    home = "src/tripos/properties.py"
    inside, found = range(0), []
    for where, node in _nodes():
        name = where.rsplit(":", 1)[0]
        if isinstance(node, ast.FunctionDef) and name == home and node.name == "_extension_index":
            inside = range(node.lineno, node.end_lineno + 1)
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found += [where for alias in node.names if alias.name == "combinations"
                      and (name != home or alias.asname is not None)]
        elif (isinstance(node, ast.Name) and node.id == "combinations"
              or isinstance(node, ast.Attribute) and node.attr == "combinations"):
            found.append(where)
    assert inside
    assert [where for where in found if where not in {f"{home}:{line}" for line in inside}] == []


def test_only_triangles_names_the_s_preset():
    """Whether a preset takes ``s`` is its ``PRESETS`` row's ``takes_s``;
    no other module decides it by the preset's name."""
    found = [where for where, node in _nodes(exclude=("src/tripos/triangles.py",))
             if isinstance(node, ast.Constant) and node.value == "s_pascal"]
    assert found == []


def _mode(call: ast.Call) -> str:
    """The constant mode of an ``open`` or ``os.fdopen`` call, ``"r"`` when
    none is given."""
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[1] if len(call.args) > 1 else None)
    return mode.value if isinstance(mode, ast.Constant) else "r"


def test_every_text_file_names_its_encoding():
    """A text file read or written with the locale's default encoding reads
    UTF-8 input only under a UTF-8 locale; ``os.open`` returns a file
    descriptor and is exempt."""
    found = []
    for where, node in _nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            text = True
        elif (isinstance(func, ast.Name) and func.id == "open"
              or isinstance(func, ast.Attribute) and func.attr == "fdopen"):
            text = "b" not in _mode(node)
        else:
            continue
        if text and not any(k.arg == "encoding" for k in node.keywords):
            found.append(where)
    assert found == []


def test_environment_is_read_only_in_oeis():
    """``TRIPOS_OEIS_CACHE`` is the one environment setting: no other module
    reads ``os.environ`` or ``os.getenv``, so no hidden knob can appear."""
    found = [where for where, node in _nodes(exclude=("src/tripos/oeis.py",))
             if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(a.name in ("environ", "getenv") for a in node.names)]
    assert found == []
