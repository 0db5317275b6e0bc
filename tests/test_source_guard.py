"""The package ships one route per quantity: no function in src/ is test-only.

A module-level function of ``skeinlab`` that no code of the package or of the
benchmark harness refers to is a second route or a dead helper; it belongs in
``tests/oracles.py`` or nowhere.  Exempt are the public names in
``skeinlab.__all__`` and the boundaries that ``perfbench/tracer.py`` patches
by name.  The same holds for the methods of the classes in src/: a method
other than a dunder must be referenced by attribute name outside its own
body, unless the tracer patches it as ``Class.method``.  The tracer's
exemption is pinned: the boundaries that no code in src/ calls are listed
below, and that list may only shrink.  Term dicts are keyed by packed
exponent pairs, so the modules other than ``exactring`` never read them;
that set of readers is pinned too, and so is the set of readers of the other
fields behind a value (``_c``, ``_exps``, ``_den``, ``_hash``, ``_reach``).
Every sum of values goes through one lift-and-add kernel, so its packed row
layout and its term-dict adder each have exactly one caller; every Laurent
product goes through one multiply-add loop, whose callers are pinned too.
"""

import ast
from collections import Counter
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


def _attribute_names(node):
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_src_method_has_a_caller():
    used = Counter()
    methods = []
    for path in SRC + BENCH:
        tree = ast.parse(path.read_text())
        used += _attribute_names(tree)
        if path not in SRC:
            continue
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    methods.append((f"{cls.name}.{fn.name}", path.name, fn))
    allowed = _traced_names()
    unused = sorted(
        f"{mod}:{qualname}"
        for qualname, mod, fn in methods
        if qualname not in allowed and used[fn.name] <= _attribute_names(fn)[fn.name]
    )
    assert not unused, f"methods in src/ with no caller outside the tests: {unused}"


# tracer boundaries that no code in src/ calls; each leaves src/ once the tracer drops it
TRACED_WITHOUT_CALLER = {
    "power_value",
    "t_transform",
    "cs_partition",
    "RationalQT.reduced",
    "lr_coeff",
}


def test_traced_names_without_a_caller_only_shrink():
    used, attrs, bodies = set(), Counter(), {}
    for path in SRC:
        tree = ast.parse(path.read_text())
        attrs += _attribute_names(tree)
        for stmt in tree.body:
            names = _referenced_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                for fn in stmt.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        bodies[f"{stmt.name}.{fn.name}"] = fn
            used |= names

    def uncalled(path):
        *owner, name = path.split(".")
        if name.startswith("__") and name.endswith("__"):
            return False
        if owner:
            return attrs[name] <= _attribute_names(bodies[path])[name]
        return name not in used

    new = {path for path in _traced_names() if uncalled(path)} - TRACED_WITHOUT_CALLER
    assert not new, f"tracer boundaries with no caller in src/, not pinned: {sorted(new)}"


# functions in src/ outside exactring.py that read a LaurentQT's term dict (``._terms``);
# its keys pack exponent pairs, and only exactring reads them
TERM_DICT_READERS_OUTSIDE_EXACTRING = set()
# functions in src/ outside exactring.py that read the other fields behind a value: a
# RationalQT's integer, phi_d exponents, cached denominator and hash, and a LaurentQT's
# exponent bound and hash; the rules that read them, such as which phi_d a sum must test,
# live in exactring
REPRESENTATION_READERS_OUTSIDE_EXACTRING = set()


def _readers_outside_exactring(fields):
    """Functions (module.qualname) of src/ outside exactring.py that read any of ``fields``."""
    readers = set()
    for path in SRC:
        if path.name == "exactring.py":
            continue
        tree = ast.parse(path.read_text())
        scopes = [("<module>", stmt) for stmt in tree.body]
        while scopes:
            name, node = scopes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if name == "<module>" else f"{name}.{node.name}"
                scopes.extend((inner, sub) for sub in node.body)
                continue
            if any(isinstance(sub, ast.Attribute) and sub.attr in fields for sub in ast.walk(node)):
                readers.add(f"{path.stem}.{name}")
    return readers


def test_term_dicts_are_read_only_in_exactring():
    readers = _readers_outside_exactring({"_terms"})
    assert readers == TERM_DICT_READERS_OUTSIDE_EXACTRING, f"._terms read in {sorted(readers)}"


def test_value_fields_are_read_only_in_exactring():
    readers = _readers_outside_exactring({"_c", "_exps", "_den", "_hash", "_reach"})
    assert readers == REPRESENTATION_READERS_OUTSIDE_EXACTRING, f"fields read in {sorted(readers)}"


# the one slot-filling loop of the packed rows and the one term-dict adder of the lift-and-add
# kernel (``exactring._combine``), each with its one caller: a second packed or term-dict sum
# layout cannot come back unnoticed
ONE_CALLER = {"_packed_rows": ["exactring._packed_basis"], "_shifted_nums": ["exactring._combine"]}
# the one Laurent product loop: ``LaurentQT.__mul__`` and the log series' accumulation are its
# only callers, and it is the only caller of the Kronecker product, whose size gate it holds
PRODUCT_CALLERS = {
    "_multiply_add": ["exactring.LaurentQT.__mul__", "lmov._log_of_zhat"],
    "packed_product": ["exactring._multiply_add"],
}


def _callers(names):
    """{name: the functions (module.qualname) of src/ that refer to it}, in source order."""
    callers = {name: [] for name in names}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in SRC:
        scopes = [(getattr(stmt, "name", "<module>"), stmt) for stmt in ast.parse(path.read_text()).body]
        for name, node in scopes:
            if isinstance(node, ast.ClassDef):
                scopes.extend((f"{name}.{fn.name}", fn) for fn in node.body if isinstance(fn, defs))
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in callers:
                    callers[sub.id].append(f"{path.stem}.{name}")
    return callers


def test_the_kernel_has_one_packed_layout_and_one_term_dict_adder():
    assert _callers(ONE_CALLER) == ONE_CALLER


def test_laurent_products_run_through_one_multiply_add_loop():
    assert _callers(PRODUCT_CALLERS) == PRODUCT_CALLERS
