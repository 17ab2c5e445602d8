"""The benchmark of record can still import what it uses of the program.

``perfbench/`` changes only together with the benchmark, so a change to
the program must keep every ``repro`` module and name that
``perfbench/workloads.py`` imports at module top.  The file is read
with :mod:`ast`, not imported: it imports perfbench's own modules by
bare name, which resolve only from that directory.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"


def _repro_imports():
    """(module, name or None) for each module-level ``repro`` import."""
    imports = []
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            imports += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "repro"
        ):
            imports += [(node.module, alias.name) for alias in node.names]
    return imports


def test_workloads_module_level_repro_imports_resolve():
    imports = _repro_imports()
    assert imports, f"no repro imports found in {WORKLOADS}"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            # ``from package import submodule`` falls back to importing it.
            importlib.import_module(f"{module_name}.{name}")
