"""The library keeps no top-level function or class that nothing reaches.

A top-level ``def`` or ``class`` in ``src/newton_circle`` counts as reached
when other code of the package names it (an ``ast.Name`` or an
``ast.Attribute``, outside its own body) or when a benchmark script under
``bench/`` mentions it.  Unit tests do not count: a function that only its
own tests call feeds no suite row, no CLI command and no benchmark.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "newton_circle"

# Unreached on purpose, each with the reason it stays.
KEEP = {
    "torus_distance": "oracle of test_geometric_bound_rational_linear_phase",
    "projection_multiplier": "the approximant-centre row planned in ROADMAP item 4 "
                             "reads its overlap flag",
}


def _referenced(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unreached() -> list:
    defs, refs = [], []  # (module, node) of each definition; name sets per top-level node
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, node))
            refs.append((node, _referenced(node)))
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    out = []
    for module, node in defs:
        used = any(node.name in names for other, names in refs if other is not node)
        if not used and not re.search(rf"\b{re.escape(node.name)}\b", bench):
            out.append(f"{module}.{node.name}")
    return out


def test_every_top_level_name_is_reached():
    unreached = [q for q in _unreached() if q.split(".")[1] not in KEEP]
    assert unreached == [], f"reached by no src code and no bench script: {unreached}"


def test_keep_entries_are_still_unreached():
    unreached = {q.split(".")[1] for q in _unreached()}
    stale = sorted(set(KEEP) - unreached)
    assert stale == [], f"now referenced, drop from KEEP: {stale}"
