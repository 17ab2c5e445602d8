"""Every module under ``src/repro`` is reached by the program.

A module that only its own tests import is code no study, command or
benchmark runs.  This guard reads the source with :mod:`ast` (it
imports nothing) and fails on every module that is not reached.

A module is reached when a counted file imports it, directly or through
a name its package's ``__init__`` re-exports (also as an attribute of
an imported package), or names its dotted path in a string, as
``repro.cli._EXPERIMENTS`` and perfbench's ``EntryPoint``s do.  Counted
files are every file under ``src/`` except package ``__init__`` files,
and every file under ``benchmarks/``, ``perfbench/`` and ``examples/``;
tests do not count.  ``repro.__main__`` is run, not imported, so it is
exempt.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
ENTRY_DIRS = ("benchmarks", "perfbench", "examples")
EXEMPT = {"repro.__main__"}


def _module_name(src: Path, path: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dotted(node: ast.expr) -> List[str]:
    """``a.b.c`` as ``["a", "b", "c"]`` (empty unless rooted at a name)."""
    names: List[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    names.append(node.id)
    return names[::-1]


class Reach:
    """The modules of one source tree and which of them are reached."""

    def __init__(self, root: Path) -> None:
        src = root / "src"
        self.root = root
        self.paths: Dict[str, Path] = {
            _module_name(src, path): path
            for path in sorted((src / "repro").rglob("*.py"))
        }
        self.packages = {
            name for name, path in self.paths.items() if path.name == "__init__.py"
        }
        #: package -> exported name -> (module it came from, its name there)
        self.exports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for package in self.packages:
            table = self.exports[package] = {}
            for node in ast.walk(_parse(self.paths[package])):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        table[alias.asname or alias.name] = (node.module, alias.name)
        #: (module, name) pairs reached so far; ``""`` is the module itself.
        self.resolved: Set[Tuple[str, str]] = set()

    def counted_files(self) -> Iterator[Path]:
        for name, path in self.paths.items():
            if name not in self.packages:
                yield path
        for directory in ENTRY_DIRS:
            yield from sorted((self.root / directory).rglob("*.py"))

    def reach(self, module: str, name: str = "") -> None:
        """Mark ``module`` reached, and what ``name`` resolves to in it."""
        if module not in self.paths or (module, name) in self.resolved:
            return
        self.resolved.add((module, name))
        if not name or module not in self.packages:
            return
        submodule = f"{module}.{name}"
        if submodule in self.paths:
            self.reach(submodule)
        elif name in self.exports[module]:
            self.reach(*self.exports[module][name])

    def reach_attribute(self, names: List[str], bound: Dict[str, str]) -> None:
        """``alias.attr...`` where ``alias`` is bound to a module."""
        module = bound.get(names[0])
        if module is None:
            return
        for attr in names[1:]:
            self.reach(module, attr)
            if f"{module}.{attr}" not in self.paths:
                return
            module = f"{module}.{attr}"

    def scan(self, path: Path) -> None:
        tree = _parse(path)
        bound: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.reach(alias.name)
                    top = alias.name.split(".")[0]
                    bound[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.reach(node.module, alias.name)
                    submodule = f"{node.module}.{alias.name}"
                    if submodule in self.paths:
                        bound[alias.asname or alias.name] = submodule
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.reach(node.value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = _dotted(node)
                if names:
                    self.reach_attribute(names, bound)

    def unreached(self) -> List[str]:
        for path in self.counted_files():
            self.scan(path)
        skipped = self.packages | EXEMPT | {module for module, _ in self.resolved}
        return sorted(name for name in self.paths if name not in skipped)


def test_every_module_is_reached():
    unreached = Reach(ROOT).unreached()
    assert not unreached, (
        "modules that no file under src/ (outside a package __init__), "
        f"benchmarks/, perfbench/ or examples/ reaches: {unreached}"
    )


def test_an_orphan_is_reported_and_every_way_in_is_seen(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/__main__.py": "from repro.cli import main\n",
        "src/repro/cli.py": (
            "import repro.pkg as pkg\n"
            "TABLE = {'x': 'repro.named'}\n"
            "def main():\n"
            "    return pkg.exported\n"
        ),
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.inner import exported\n"
            "from repro.pkg.orphan import unused\n"
        ),
        "src/repro/pkg/inner.py": "exported = 1\n",
        "src/repro/pkg/orphan.py": "unused = 2\n",
        "src/repro/named.py": "",
        "src/repro/bench_only.py": "",
        "benchmarks/test_it.py": "from repro import bench_only\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert Reach(tmp_path).unreached() == ["repro.pkg.orphan"]
