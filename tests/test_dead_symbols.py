"""Every function, class and module-level name the package defines is used by the package,
a demo or the benchmark.

The scan is by name: a definition counts as used when some code in src/, demos/ or
perfbench/*.py mentions its name as a name, an attribute, an import alias, or a string
constant that is exactly the name (the benchmark's tracer wraps attributes by string).
A module-level import or assignment counts as used when its own module loads the name, or
other code reads it as an attribute, imports it from a package module or names it in a string.
Tests do not count, so a helper that only tests call is reported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "obsdriven"

# qualified name -> why it stays although no library, demo or benchmark code reads it
ALLOWED = {
    "GrowthEnvelope.bound": "the inequality |f(s, y, x)| <= kappa |s| + kappa_tilde |y|^order + delta_tilde "
                            "that the link tests check every link's envelope against",
}


def _definitions(tree):
    """(qualified name, name) of every function and class, methods as Class.method."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _references(tree):
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def test_every_definition_is_used_outside_the_tests():
    files = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in files}
    refs = set().union(*map(_references, trees.values()))
    unused = sorted(
        f"{p.name}: {qual}"
        for p in files if p.parent == PACKAGE
        for qual, name in _definitions(trees[p])
        if not (name.startswith("__") and name.endswith("__")) and name not in refs and qual not in ALLOWED
    )
    assert not unused, "defined but used by no library, demo or benchmark code:\n" + "\n".join(unused)


def _module_bindings(path, tree):
    """Names bound by the module's top-level imports and assignments; dunder names, imports
    from __future__ and the imports of __init__.py (its re-exports) left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if path.name != "__init__.py" and getattr(node, "module", None) != "__future__":
                out += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in out if not (n.startswith("__") and n.endswith("__"))]


def _outside_reads(tree):
    """Names code may read from another module: attributes, names imported from a package
    module, and string constants that are exactly a name."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("obsdriven")):
            refs.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def test_every_module_level_import_and_assignment_is_read():
    files = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in files}
    outside = set().union(*map(_outside_reads, trees.values()))
    unread = []
    for p in sorted(PACKAGE.glob("*.py")):
        loads = {n.id for n in ast.walk(trees[p]) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{p.name}: {name}" for name in _module_bindings(p, trees[p]) if name not in outside | loads]
    assert not unread, "bound at module level but read by no library, demo or benchmark code:\n" + "\n".join(unread)


def test_every_allowed_name_is_still_defined():
    defined = {qual for p in PACKAGE.glob("*.py") for qual, _ in _definitions(ast.parse(p.read_text(encoding="utf-8")))}
    assert set(ALLOWED) <= defined
