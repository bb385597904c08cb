"""The package defines only what the program calls: every top-level function
and class in src/dampedwave is referenced from src/, bench/ or tools/
outside its own definition. The package's __init__ exports do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dampedwave"


def top_level_references(path: Path) -> list[tuple[ast.stmt, set[str]]]:
    """Each top-level statement of a file with the names it references:
    Name ids, Attribute attrs, import aliases and strings that are one
    identifier (getattr by name, as bench/inproc.py traces calls)."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
        out.append((stmt, names))
    return out


def test_every_package_definition_has_a_caller():
    files = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    statements = [(path, stmt, names) for path in files
                  for stmt, names in top_level_references(path)]
    definitions = [(path, stmt) for path, stmt, _ in statements if path.parent == PACKAGE
                   and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(definitions) > 50
    unused = [f"{path.name}: {stmt.name}" for path, stmt in definitions
              if not any(stmt.name in names for _, other, names in statements
                         if other is not stmt)]
    assert not unused, unused
