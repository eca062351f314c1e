"""Layout rules that every module of the package keeps."""

import ast
from pathlib import Path

import robustfl

MAX_COLUMNS = 120


def test_no_source_line_exceeds_120_columns():
    modules = sorted(Path(robustfl.__file__).parent.glob("*.py"))
    assert modules
    long_lines = [f"{path.name}:{number} ({len(line)} columns)"
                  for path in modules
                  for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                  if len(line) > MAX_COLUMNS]
    assert long_lines == []


def unused_imports(source: str, name: str) -> list[str]:
    """Names that module ``name`` imports and never reads; in ``__init__.py``
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if name == "__init__.py":
        exported = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)]
        used |= {item.value for value in exported for item in value.elts}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    modules = sorted(Path(robustfl.__file__).parent.glob("*.py"))
    unused = {path.name: names for path in modules
              if (names := unused_imports(path.read_text(encoding="utf-8"), path.name))}
    assert unused == {}


def test_import_guard_sees_a_leftover_import():
    source = "from .numerics import sq_dists_to, stable_head\n\nstable_head()\n"
    assert unused_imports(source, "aggregators.py") == ["sq_dists_to"]
    init = "from .attacks import sign_flipping\n\n__all__ = [\"sign_flipping\"]\n"
    assert unused_imports(init, "__init__.py") == []
