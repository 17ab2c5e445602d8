"""No module under ``src/repro`` imports a name it never uses.

A module-level import that nothing reads is a dead name: it costs an
import, misleads a reader about what a module depends on, and can keep
a deleted path looking alive.  No linter is installed, so this guard
reads the source with :mod:`ast` (it imports nothing), beside the
module-reach guard in ``test_module_reach.py``.

A name bound by a module-level ``import`` or ``from ... import`` is
used when the module reads it anywhere (as a name, or as the root of a
dotted name), names it in a string annotation, or lists it in
``__all__``.  Package ``__init__`` files re-export names, so they are
exempt, as are ``from __future__`` imports.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set

ROOT = Path(__file__).resolve().parents[2]


def _names_in(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id


def _used_names(tree: ast.Module) -> Set[str]:
    used = set(_names_in(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue  # prose, not a string annotation
            used.update(_names_in(annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)
            )
    return used


def unused_imports(root: Path) -> List[str]:
    """``path:line: name`` for every module-level import nothing uses."""
    src = root / "src"
    found: List[str] = []
    for path in sorted((src / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    where = path.relative_to(src).as_posix()
                    found.append(f"{where}:{node.lineno}: {name}")
    return found


def test_no_module_imports_a_name_it_never_uses():
    unused = unused_imports(ROOT)
    assert not unused, f"module-level imports nothing uses: {unused}"


def test_every_way_a_name_is_used_is_seen(tmp_path):
    files = {
        "src/repro/__init__.py": "from repro.mod import unused_in_init\n",
        "src/repro/mod.py": (
            "from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "import json\n"
            "from typing import Dict, List, Optional\n"
            "from collections import OrderedDict, deque\n"
            "from dataclasses import dataclass, field\n"
            "__all__ = ['deque']\n"
            "def f(x: 'Optional[int]') -> Dict:\n"
            "    '''Mentions List in prose only.'''\n"
            "    return os.getcwd(), osp\n"
        ),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert unused_imports(tmp_path) == [
        "repro/mod.py:4: json",
        "repro/mod.py:5: List",
        "repro/mod.py:6: OrderedDict",
        "repro/mod.py:7: dataclass",
        "repro/mod.py:7: field",
    ]
