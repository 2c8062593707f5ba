"""The package's import graph keeps records apart from effects.

Each module's relative imports (``from . import x``, ``from .x import y``)
are read with ``ast`` from ``src/vecuforge/*.py``; nothing is imported.
The stages that only read and write records (report, plan, analysis and
case generation) reach no wire execution, no fuzzing and no simulated
ECU; only the executor and the CLI, which hosts the demo's ECU, import
the simulator; the item model reaches the wire codec alone; and the
vulnerability scanner, whose scan record the case results hold, reaches
the item model and the wire codec alone. Only the wire codec, whose
``LineClient`` is the one client, and the simulator, the one listener,
import ``socket``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vecuforge"


def direct_imports() -> dict[str, set[str]]:
    """Each package module's name mapped to the package modules it imports."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    graph: dict[str, set[str]] = {}
    for name in sorted(modules):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        found: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    found |= {alias.name for alias in node.names} & modules
                else:
                    found.add(node.module.split(".")[0])
        graph[name] = found & modules
    return graph


def reach(graph: dict[str, set[str]], start: str) -> set[str]:
    """Every module ``start``'s imports lead to, followed all the way down."""
    seen: set[str] = set()
    todo = list(graph[start])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def test_record_stages_reach_no_execution():
    graph = direct_imports()
    effects = {"executor", "simulator", "fuzz_engine"}
    assert {name: sorted(reach(graph, name) & effects)
            for name in ("reporter", "planner", "analysis", "tcg")} == {
        "reporter": [], "planner": [], "analysis": [], "tcg": []}


def test_only_executor_and_cli_import_the_simulator():
    graph = direct_imports()
    assert sorted(name for name, imports in graph.items() if "simulator" in imports) == [
        "cli", "executor"]


def test_item_model_reaches_only_frames():
    assert reach(direct_imports(), "item_model") == {"frames"}


def test_vuln_scanner_reaches_only_item_model_and_frames():
    assert reach(direct_imports(), "vuln_scanner") == {"item_model", "frames"}


def test_only_frames_and_simulator_import_socket():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "socket" for name in names):
                importers.add(path.stem)
    assert sorted(importers) == ["frames", "simulator"]
