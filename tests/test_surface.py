"""The library keeps no name nobody reaches and no option nobody sets.

A top-level ``def`` or ``class`` in ``src/newton_circle`` counts as reached
when other code of the package names it (an ``ast.Name`` or an
``ast.Attribute``, outside its own body) or when a benchmark script under
``bench/`` mentions it.  The methods, properties and classmethods of every
class are held to the same rule, with their sibling members counting as
other code.  Unit tests do not count: a function that only its own tests
call feeds no suite row, no CLI command and no benchmark.

A defaulted parameter of a ``src`` function counts as set when some call
passes it, by keyword or by position, in ``src`` outside the function's own
body or in a ``bench/*.py`` script.  A parameter only tests set is a second
path through the function that no user takes.
"""

import ast
import re
from pathlib import Path

from newton_circle.suites import SUITES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "newton_circle"

# Unreached on purpose, each with the reason it stays.
KEEP = {
    "torus_distance": "oracle of test_geometric_bound_rational_linear_phase",
    "projection_multiplier": "the approximant-centre row planned in ROADMAP item 4 "
                             "reads its overlap flag",
    "IWParams.Q0": "the paper's (N0!)**D; tests/test_iw.py reads it beside D and N0",
}


def _referenced(node: ast.AST) -> tuple:
    """(every ast.Name id and ast.Attribute attr under node, the attrs alone)."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
    return names | attrs, attrs


def _modules() -> list:
    """(module name, parsed tree) of every package module but ``__init__``."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _bench_scripts() -> list:
    return [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]


def _unreached() -> list:
    defs, refs = [], []  # (module, node) of each definition; references per top-level node
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node))
            refs.append((node, *_referenced(node)))
    bench = "\n".join(_bench_scripts())
    out = []
    for module, node in defs:
        used = any(node.name in names for other, names, _ in refs if other is not node)
        if not used and not re.search(rf"\b{re.escape(node.name)}\b", bench):
            out.append(f"{module}.{node.name}")
        if not isinstance(node, ast.ClassDef):
            continue
        # a member is reached through an attribute; a local of the same name is not it
        outside = set().union(*(attrs for other, _, attrs in refs if other is not node))
        members = [(m, _referenced(m)[1]) for m in node.body]
        for member, _ in members:
            if not isinstance(member, ast.FunctionDef) or member.name.startswith("__"):
                continue
            siblings = set().union(*(attrs for m, attrs in members if m is not member))
            if (member.name not in outside | siblings
                    and not re.search(rf"\.{re.escape(member.name)}\b", bench)):
                out.append(f"{module}.{node.name}.{member.name}")
    return out


def test_every_top_level_name_is_reached():
    unreached = [q for q in _unreached() if q.split(".", 1)[1] not in KEEP]
    assert unreached == [], f"reached by no src code and no bench script: {unreached}"


def test_keep_entries_are_still_unreached():
    unreached = {q.split(".", 1)[1] for q in _unreached()}
    stale = sorted(set(KEEP) - unreached)
    assert stale == [], f"now referenced, drop from KEEP: {stale}"


# Defaulted parameters set by no src call and no bench call, each with the
# reason it stays.
KEEP_DEFAULTS = {
    "character_average(region)": "wide_phase_queries asks for truncated regions; "
                                 "bench/worker.py passes them through *a",
    "character_average(tau)": "wide_phase_queries asks for truncated regions; "
                              "bench/worker.py passes them through *a",
    "oscillation(subdomain)": "the public signature keeps it; the osc suite passes its "
                              "subdomains to oscillation_rows as domain masks",
}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list:
    """(name, positional index or None) of every defaulted parameter of fn."""
    positional = fn.args.posonlyargs + fn.args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        positional = positional[1:]  # self or cls is bound, never passed
    n_default = len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= len(positional) - n_default]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _calls(tree: ast.AST) -> list:
    """Every call under tree: (callee name, call, ids of the enclosing defs)."""
    out = []
    stack = [(tree, frozenset())]
    while stack:
        node, owners = stack.pop()
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            out.append((name, node, owners))
        if isinstance(node, ast.FunctionDef):
            owners = owners | {id(node)}
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))
    return out


def _passes(call: ast.Call, name: str, index) -> bool:
    if any(k.arg == name for k in call.keywords):
        return True
    if index is None:
        return False
    plain = [a for a in call.args if not isinstance(a, ast.Starred)]
    return len(plain) == len(call.args) and len(plain) > index


def _unset_defaults() -> list:
    modules = _modules()
    calls = [c for _, tree in modules for c in _calls(tree)]
    calls += [c for text in _bench_scripts() for c in _calls(ast.parse(text))]
    suites = {fn.__name__ for fn in SUITES.values()}  # the CLI sets these by signature
    functions = []  # (qualified name, callee name, node, method?)
    for module, tree in modules:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not (module == "suites" and node.name in suites):
                    functions.append((f"{module}.{node.name}", node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        callee = node.name if member.name == "__init__" else member.name
                        functions.append((f"{module}.{node.name}.{member.name}",
                                          callee, member, True))
    out = []
    for qualified, callee, node, method in functions:
        outside = [call for name, call, owners in calls
                   if name == callee and id(node) not in owners]
        for param, index in _defaulted(node, method):
            if not any(_passes(call, param, index) for call in outside):
                out.append(f"{qualified}({param})")
    return out


def test_every_default_is_set_by_a_caller():
    unset = [q for q in _unset_defaults() if q.split(".", 1)[1] not in KEEP_DEFAULTS]
    assert unset == [], f"set by no src call and no bench call: {unset}"


def test_keep_defaults_entries_are_still_unset():
    unset = {q.split(".", 1)[1] for q in _unset_defaults()}
    stale = sorted(set(KEEP_DEFAULTS) - unset)
    assert stale == [], f"now set by a caller, drop from KEEP_DEFAULTS: {stale}"
