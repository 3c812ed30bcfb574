#!/usr/bin/env python
"""Detect unused imports (pyflakes F401) with only the stdlib.

CI's lint steps run ruff, which is not available in every dev
container; this tool re-implements the highest-value check so it can
run anywhere the test suite runs::

    python tools/lint_imports.py          # audit src, tests, ...
    python tools/lint_imports.py PATH...  # audit specific trees

An import is "used" when its bound name appears in any non-import
expression of the module.  Mirrors ruff's allowances: ``__all__``
entries, ``import x as x`` re-exports, ``# noqa`` lines, and every
import in an ``__init__.py`` (package re-export surface) are exempt.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_TREES = ("src", "tests", "benchmarks", "tools")


def bound_name(alias: ast.alias) -> str:
    """The local name an import alias binds (``a.b`` binds ``a``)."""
    if alias.asname is not None:
        return alias.asname
    return alias.name.split(".")[0]


def exported_names(tree: ast.Module) -> set[str]:
    """String entries of every top-level ``__all__`` assignment."""
    names: set[str] = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = getattr(node, "targets", None) or [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        for constant in ast.walk(node.value):
            if isinstance(constant, ast.Constant):
                if isinstance(constant.value, str):
                    names.add(constant.value)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every identifier the module reads outside import statements.

    String constants that parse as expressions contribute their names
    too, so quoted forward references (``Optional["SimThread"]``) count
    as uses — matching ruff's handling of ``TYPE_CHECKING`` imports.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not node.value.isidentifier() and "[" not in node.value:
                continue
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(quoted):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
    return names


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` pairs for imports the module never reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = used_names(tree)
    exported = exported_names(tree)
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = bound_name(alias)
            if alias.asname is not None and alias.asname == alias.name:
                continue  # explicit `import x as x` re-export
            if name in used or name in exported:
                continue
            findings.append((node.lineno, name))
    return findings


def audit(trees: list[str]) -> int:
    failures = 0
    for tree in trees:
        root = Path(tree)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            if path.name == "__init__.py":
                continue  # package re-export surface
            for line, name in unused_imports(path):
                print(f"{path}:{line}: unused import {name!r}")
                failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    trees = list(argv if argv is not None else sys.argv[1:])
    if not trees:
        trees = [tree for tree in DEFAULT_TREES if Path(tree).exists()]
    failures = audit(trees)
    if failures:
        print(f"{failures} unused import(s)", file=sys.stderr)
        return 1
    print(f"no unused imports in: {', '.join(trees)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
