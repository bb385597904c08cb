"""The package defines only what the program calls: every top-level function
and class in src/dampedwave, and every method and property of its classes
(dunders aside), is referenced from src/, bench/ or tools/ outside its own
definition. The package's __init__ exports do not count."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dampedwave"


def references(tree: ast.AST) -> Counter:
    """The names a syntax tree references, with their counts, keyed by how
    they are reached: ("attr", name) for Attribute attrs and strings that
    are one identifier (getattr by name, as bench/inproc.py traces calls),
    ("name", name) for Name ids and import aliases."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names["name", node.id] += 1
        elif isinstance(node, ast.alias):
            names["name", node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Attribute):
            names["attr", node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names["attr", node.value] += 1
    return names


def definitions(module: ast.Module) -> list[tuple[str, ast.AST, tuple[str, ...]]]:
    """A module's top-level functions and classes, and the methods and
    properties of its classes other than dunders: qualified name, node and
    the reference kinds that reach it (a member only through an attribute)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for stmt in module.body:
        if isinstance(stmt, (*functions, ast.ClassDef)):
            out.append((stmt.name, stmt, ("name", "attr")))
        if isinstance(stmt, ast.ClassDef):
            out += [(f"{stmt.name}.{member.name}", member, ("attr",)) for member in stmt.body
                    if isinstance(member, functions)
                    and not (member.name.startswith("__") and member.name.endswith("__"))]
    return out


def test_every_package_definition_has_a_caller():
    files = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    modules = {path: ast.parse(path.read_text()) for path in files}
    total = sum((references(module) for module in modules.values()), Counter())
    defined = [(f"{path.name}: {name}", node, kinds) for path, module in modules.items()
               if path.parent == PACKAGE for name, node, kinds in definitions(module)]
    assert len(defined) > 100
    unused = [label for label, node, kinds in defined
              if all(total[kind, node.name] == references(node)[kind, node.name]
                     for kind in kinds)]
    assert not unused, unused
