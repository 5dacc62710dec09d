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


def _package_classes():
    """{class name: (module file name, ClassDef)} of every top-level class of the package."""
    return {node.name: (p.name, node) for p in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(p.read_text(encoding="utf-8")).body if isinstance(node, ast.ClassDef)}


def _package_bases(node, classes):
    """The class's bases that the package defines, in the order written."""
    names = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases]
    return [classes[n][1] for n in names if n in classes]


def _ancestors(node, classes):
    """The class's package bases and theirs, nearest first (depth-first, left to right)."""
    out = []
    for base in _package_bases(node, classes):
        out += [a for a in [base, *_ancestors(base, classes)] if a not in out]
    return out


def _is_dataclass(node):
    return any("dataclass" in ast.dump(d) for d in node.decorator_list)


def _method_shape(fn):
    """A method's arguments, decorators and body, docstring left out, as comparable text."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return ast.dump(ast.Module([*fn.decorator_list, fn.args, *body], []))


def _plain_attributes(node):
    """{name: value text} of a class body's plain attributes: assignments, and annotated ones
    outside a dataclass (inside one they are fields)."""
    out = {}
    for st in node.body:
        if isinstance(st, ast.Assign):
            out.update((t.id, ast.dump(st.value)) for t in st.targets if isinstance(t, ast.Name))
        elif isinstance(st, ast.AnnAssign) and st.value is not None and not _is_dataclass(node):
            out[st.target.id] = ast.dump(st.value)
    return out


def test_no_rule_is_restated_by_related_classes():
    """A method two related classes of one module both define with the same body (docstrings
    aside) belongs on a base they share; a plain class attribute set to the value its nearest
    package base already gives restates it.  Related: the two share a base the package defines."""
    classes = _package_classes()
    found = []
    for module in sorted({m for m, _ in classes.values()}):
        nodes = [node for m, node in classes.values() if m == module]
        same = {}
        for node in nodes:
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    same.setdefault((fn.name, _method_shape(fn)), []).append(node)
        for (name, _), owners in same.items():
            related = [a.name for a in owners
                       if any(set(_ancestors(a, classes)) & set(_ancestors(b, classes)) for b in owners if b is not a)]
            if related:
                found.append(f"{module}: {name} in {', '.join(related)}")
        for node in nodes:
            for name, value in _plain_attributes(node).items():
                given = next((attrs[name] for attrs in map(_plain_attributes, _ancestors(node, classes))
                              if name in attrs), None)
                if given == value:
                    found.append(f"{module}: {node.name}.{name} restates its base's value")
    assert not found, "shared rules stated more than once:\n" + "\n".join(found)
