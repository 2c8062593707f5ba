"""Script database: concrete, parameterized implementations of patterns.

A script binds a pattern name to a command template such as
``cansend {bus} {id}#{data}``: words separated by whitespace, whose slots
are filled from pattern arguments and from SUT-database dictionary keys
(sut_slots). Each schema param is required and has one type, ``string``,
``number`` or ``hexbytes``: only a value of that kind binds, and the type
alone decides its text (the string, decimal, bare lowercase hex). A
rendered command is a list of words: the template is split first and each
word is filled on its own, so a value stays inside the word of its slot and
never adds, removes or joins an argument, whatever it contains. Commands
are never given to a real shell; the executor routes them to internal tool
handlers by the first word.
"""

import re
from dataclasses import dataclass
from pathlib import Path

from .item_model import decode, load_json
from .scenario_dsl import PatternStep, ValueKind

_SLOT_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
PARAM_TYPES = tuple(k.value for k in ValueKind if k is not ValueKind.PLACEHOLDER)


class RegistryError(ValueError):
    """Malformed script definition or registration conflict."""


@dataclass(frozen=True)
class ParamSpec:
    """A script parameter's declared value type."""

    type: str

    def __post_init__(self) -> None:
        if self.type not in PARAM_TYPES:
            raise RegistryError(f"unknown param type {self.type!r}")


@dataclass(frozen=True)
class TestScript:
    """A registered script: the pattern it implements, its command template,
    its parameter types and the SUT database slots it reads."""

    id: str
    implements: str
    command_template: str
    param_schema: tuple[tuple[str, ParamSpec], ...] = ()
    sut_slots: tuple[str, ...] = ()

    @property
    def params(self) -> dict[str, ParamSpec]:
        return dict(self.param_schema)

    def slots(self) -> list[str]:
        return _SLOT_RE.findall(self.command_template)

    def check(self, known_patterns: frozenset[str]) -> None:
        if self.implements not in known_patterns:
            raise RegistryError(
                f"script {self.id!r} implements unknown pattern {self.implements!r}"
            )
        allowed = set(self.params) | set(self.sut_slots)
        for slot in self.slots():
            if slot not in allowed:
                raise RegistryError(
                    f"script {self.id!r}: template slot {{{slot}}} is neither a "
                    f"schema param nor a sut_slot"
                )


class ScriptRegistry:
    """Directory of one JSON file per script; the id is the filename stem."""

    def __init__(self, directory: str | Path, known_patterns: frozenset[str]):
        self.directory = Path(directory)
        self.scripts: dict[str, TestScript] = {}
        for path in sorted(self.directory.glob("*.json")):
            doc = load_json(dict, path, RegistryError)
            doc.setdefault("id", path.stem)
            if doc["id"] != path.stem:
                raise RegistryError(f"{path.name}: id {doc['id']!r} must equal the filename stem")
            script = decode(TestScript, doc, str(path), RegistryError)
            script.check(known_patterns)
            self.scripts[script.id] = script

    def match_script(self, pattern: PatternStep) -> TestScript | None:
        """First script (smallest id) implementing the pattern with every
        schema param supplied by the pattern args or sut_slots."""
        supplied = {name for name, _ in pattern.args}
        for script in sorted(self.scripts.values(), key=lambda s: s.id):
            if script.implements != pattern.name:
                continue
            if set(script.params) <= (supplied | set(script.sut_slots)):
                return script
        return None


def render_command(script: TestScript, bound_args: dict[str, str],
                   slot_values: dict[str, str]) -> list[str]:
    """The template's words, each with its slots filled; an unbound slot is an
    error, never emitted."""
    values = {**slot_values, **bound_args}
    unbound = [slot for slot in script.slots() if slot not in values]
    if unbound:
        raise RegistryError(
            f"script {script.id!r}: unbound slots {unbound} in {script.command_template!r}"
        )
    return [_SLOT_RE.sub(lambda m: str(values[m.group(1)]), word)
            for word in script.command_template.split()]
