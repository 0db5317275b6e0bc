"""The package ships one route per quantity: no function in src/ is test-only.

A module-level function of ``skeinlab`` that no code of the package or of the
benchmark harness refers to is a second route or a dead helper; it belongs in
``tests/oracles.py`` or nowhere.  Exempt are the public names in
``skeinlab.__all__`` and the boundaries that ``perfbench/tracer.py`` patches
by name.
"""

import ast
from pathlib import Path

import skeinlab

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "skeinlab").glob("*.py"))
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py")


def _referenced_names(node):
    """Names, attribute names and imported names anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _traced_names():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in stmt.targets
        ):
            return {path for _, _, path in ast.literal_eval(stmt.value)}
    raise AssertionError("perfbench/tracer.py defines no BOUNDARIES list")


def test_every_src_function_has_a_caller():
    defined = {}
    used = set()
    for path in SRC + BENCH:
        for stmt in ast.parse(path.read_text()).body:
            names = _referenced_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(stmt.name)  # its own definition and recursion
                if path in SRC:
                    defined[stmt.name] = path.name
            used |= names
    allowed = set(skeinlab.__all__) | _traced_names()
    unused = sorted(f"{mod}:{name}" for name, mod in defined.items() if name not in used | allowed)
    assert not unused, f"functions in src/ with no caller outside the tests: {unused}"
