"""Script matching, loading checks and rendering."""

from __future__ import annotations

import pytest

from vecuforge.scenario_dsl import PatternStep, Value
from vecuforge.script_registry import (
    ParamSpec,
    RegistryError,
    ScriptRegistry,
    render_command,
)
from vecuforge.vocabulary import PATTERNS


@pytest.fixture()
def registry(samples_dir):
    return ScriptRegistry(samples_dir / "scripts", PATTERNS)


def pattern(name: str, **args) -> PatternStep:
    return PatternStep(name, tuple(sorted((k, Value.string(v)) for k, v in args.items())))


class TestMatch:
    def test_send_can_msg_matches_and_renders(self, registry):
        step = pattern("SEND_CAN_MSG", id="7df", data="02010d")
        script = registry.match_script(step)
        assert script is not None
        assert script.id == "cansend-frame"
        cmd = render_command(script, {"id": "7df", "data": "02010d"}, {"bus": "can0"})
        assert cmd == ["cansend", "can0", "7df#02010d"]

    def test_miss_is_none(self, registry):
        assert registry.match_script(pattern("SEND_CAN_MSG")) is None

    def test_unknown_pattern_misses(self, registry):
        step = PatternStep("SEND_CAN_MSG", ())
        empty = ScriptRegistry.__new__(ScriptRegistry)
        empty.scripts = {}
        assert empty.match_script(step) is None

    def test_smaller_id_wins(self, tmp_path):
        for sid in ("b-script", "a-script"):
            (tmp_path / f"{sid}.json").write_text(
                '{"implements": "TESTER_PRESENT", "command_template": "probe {bus}",'
                ' "param_schema": {}, "sut_slots": ["bus"]}'
            )
        reg = ScriptRegistry(tmp_path, PATTERNS)
        assert reg.match_script(pattern("TESTER_PRESENT")).id == "a-script"

    def test_required_params_respected(self, tmp_path):
        (tmp_path / "picky.json").write_text(
            '{"implements": "SEND_CAN_MSG", "command_template": "cansend {bus} {id}#{data}",'
            ' "param_schema": {"id": {"type": "string"}, "data": {"type": "hexbytes"},'
            ' "extra": {"type": "string"}}, "sut_slots": ["bus"]}'
        )
        reg = ScriptRegistry(tmp_path, PATTERNS)
        assert reg.match_script(pattern("SEND_CAN_MSG", id="7df", data="00")) is None
        assert reg.match_script(pattern("SEND_CAN_MSG", id="7df", data="00", extra="x")) is not None

    def test_match_total_over_bundled_registry(self, registry):
        for script in registry.scripts.values():
            args = {n: Value.string("0") for n in script.params}
            step = PatternStep(script.implements, tuple(sorted(args.items())))
            assert registry.match_script(step) is not None


class TestRegister:
    """Scripts are checked as the registry loads them from its directory."""

    def test_unknown_slot_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text(
            '{"implements": "TESTER_PRESENT", "command_template": "probe {key}"}'
        )
        with pytest.raises(RegistryError, match="key"):
            ScriptRegistry(tmp_path, PATTERNS)

    def test_unknown_pattern_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text(
            '{"implements": "FROB_BUS", "command_template": "frob"}'
        )
        with pytest.raises(RegistryError, match="FROB_BUS"):
            ScriptRegistry(tmp_path, PATTERNS)

    def test_id_must_match_filename(self, tmp_path):
        (tmp_path / "mismatch.json").write_text(
            '{"id": "other", "implements": "TESTER_PRESENT", "command_template": "probe {bus}",'
            ' "sut_slots": ["bus"]}'
        )
        with pytest.raises(RegistryError, match="stem"):
            ScriptRegistry(tmp_path, PATTERNS)

    def test_bad_param_type_rejected(self):
        with pytest.raises(RegistryError, match="param type"):
            ParamSpec(type="blob")

    @pytest.mark.parametrize("spec, message", [
        ('{}', "param_schema.targets lacks the required field 'type'"),
        ('{"type": "any"}', "param type"),
    ], ids=["no-type", "any-type"])
    def test_param_wants_a_known_type(self, tmp_path, spec, message):
        (tmp_path / "x.json").write_text(
            '{"implements": "VULN_SCAN", "command_template": "vulnscan {targets}",'
            f' "param_schema": {{"targets": {spec}}}}}'
        )
        with pytest.raises(RegistryError, match=message):
            ScriptRegistry(tmp_path, PATTERNS)


class TestRender:
    def test_no_unsubstituted_slots_in_any_bundled_script(self, registry):
        slot_values = {
            "bus": "can0",
            "phys_id": "7e0",
            "seedkey_algorithm": "add_xor",
            "seedkey_const": "a5",
        }
        for script in registry.scripts.values():
            args = {n: "1" for n in script.params}
            words = render_command(script, args, slot_values)
            assert len(words) == len(script.command_template.split())
            assert not any("{" in word or "}" in word for word in words)

    def test_leftover_slot_raises(self, registry):
        script = registry.scripts["cansend-frame"]
        with pytest.raises(RegistryError, match="unbound"):
            render_command(script, {"id": "7df"}, {})
