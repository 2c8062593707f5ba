"""Every function and class in the package has a caller outside the tests.

Each ``def`` and ``class`` name in ``src/vecuforge/*.py`` (nested ones
and methods included, dunders excluded) must occur as a word somewhere
in the package, the demos or the benchmark besides its own definition.
A name that only the tests use is code that exists for its own tests.

The check is by name, not by binding: a method whose name is shared
with other definitions or used elsewhere (``to_dict``, ``from_dict``,
``send``) passes as long as any one of those uses exists, even when
this particular definition is never called.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vecuforge"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")


def defined_names() -> Counter:
    names: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def test_every_definition_has_a_non_test_use():
    words = Counter(
        word
        for directory in CALLER_DIRS
        for path in sorted(directory.rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    unused = sorted(
        name for name, definitions in defined_names().items() if words[name] <= definitions
    )
    assert unused == []
