"""Unused-import lint: every top-level import in ``src/`` is used.

An import nothing reads is dead weight that still costs: it runs at
import time (one heavy import can be half of a run's set-up), it hides
the real dependency graph between packages, and it survives every
deletion of the code that once used it. This test AST-walks every module under
``src/`` except the package ``__init__.py`` files (whose imports are the
package's public surface) and fails on a top-level import whose bound
name the module never reads.

A name counts as read when it appears as a name anywhere in the module,
inside a string annotation, or in the module's ``__all__`` (a
deliberate re-export).
"""

from __future__ import annotations

import ast
import pathlib

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(node: ast.stmt):
    """(bound name, line) for each name a top-level import binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name, node.lineno


def _string_annotation_names(node: ast.AST):
    """Names inside quoted annotations such as ``-> "Workbench"``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def _read_names(tree: ast.Module):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations = [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if annotation is not None:
                names.update(_string_annotation_names(annotation))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def _module_findings(path: pathlib.Path, tree: ast.Module):
    rel = path.relative_to(SRC_ROOT).as_posix()
    read = _read_names(tree)
    return [
        f"{rel}:{line}: `{name}` is imported but never used"
        for node in tree.body
        for name, line in _bound_names(node)
        if name not in read
    ]


def test_no_unused_imports_in_src():
    assert SRC_ROOT.is_dir(), SRC_ROOT
    findings = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        findings.extend(_module_findings(path, tree))
    assert not findings, "unused top-level imports:\n" + "\n".join(findings)


def test_lint_catches_a_planted_offence():
    """The linter flags each kind of unused import and spares real uses."""
    planted = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import xml.etree.ElementTree\n"
        "from typing import Dict, List, Optional\n"
        "from .grid import GridSpec as Spec, Grid2D\n"
        "from .coverage import CoverageMaps\n"
        "from .octomap import OctoMap\n"
        "__all__ = ['OctoMap']\n"
        "def f(x: Optional[int]) -> 'Spec':\n"
        "    return np.zeros(x)\n"
        "y: 'Dict[str, int]' = {}\n"
        "def g():\n"
        "    import json\n"
        "    return json\n"
    )
    findings = _module_findings(SRC_ROOT / "mapping" / "planted.py", ast.parse(planted))
    unused = sorted(line.split("`")[1] for line in findings)
    assert unused == ["CoverageMaps", "Grid2D", "List", "os", "xml"], findings
