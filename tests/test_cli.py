"""Stage orchestration, run-store artifacts and exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import socket
import struct
import subprocess
import sys
import threading
import typing
from dataclasses import replace
from pathlib import Path

import pytest

import vecuforge
from vecuforge import cli
from vecuforge.analysis import RequirementKind, SecurityRequirement, VerificationHint
from vecuforge.cli import (
    EXIT_FINDINGS,
    EXIT_INFRA,
    EXIT_OK,
    EXIT_USAGE,
    RUN_DIR_ENV,
    InfraError,
    RunStore,
    UsageError,
    _STAGES,
    main,
)
from vecuforge.simulator import SimConfig, SimServer

from conftest import ConnectionCountingServer, FrameCountingServer

OFFLINE_STAGES = ("item", "analyze", "concept", "plan", "tcg")


def run_cli(*argv: str) -> int:
    return main(list(argv))


def offline_chain(run_dir: Path, *extra: str) -> None:
    for stage in OFFLINE_STAGES:
        assert run_cli(stage, "--run-dir", str(run_dir), *extra) == EXIT_OK


def endpoint_of(server) -> str:
    return f"127.0.0.1:{server.data_endpoint[1]}:{server.mgmt_endpoint[1]}"


class LoadRefusingServer(SimServer):
    """A simulator that answers every LOAD with ERR, so no restore succeeds."""

    def _handle_mgmt_line(self, text: str) -> str:
        if text.startswith("LOAD "):
            return "ERR load refused\n"
        return super()._handle_mgmt_line(text)


class EmptyDumpServer(SimServer):
    """A simulator that answers DUMP with a bare OK: no state."""

    def _handle_mgmt_line(self, text: str) -> str:
        if text == "DUMP":
            return "OK\n"
        return super()._handle_mgmt_line(text)


class DataDropServer(SimServer):
    """A simulator that closes a data connection once it has read 40 lines."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.data_lines = 0

    def _handle_data_line(self, text: str) -> str:
        self.data_lines += 1
        return super()._handle_data_line(text)

    def _write(self, conn, data: bytes) -> None:
        super()._write(conn, data)
        if conn.getsockname() == self.data_endpoint and self.data_lines >= 40:
            conn.shutdown(socket.SHUT_RDWR)


class DataResetServer(DataDropServer):
    """A simulator that resets a data connection, in place of the replies to
    the chunk that holds its 40th line."""

    def _write(self, conn, data: bytes) -> None:
        if conn.getsockname() == self.data_endpoint and self.data_lines >= 40:
            # A zero linger time makes close send a reset, not a FIN.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
            return
        super()._write(conn, data)


class DriftingLoadServer(SimServer):
    """A simulator that loads each state blob with its seed counter moved on by
    one, so a re-dump after a LOAD never equals the blob loaded."""

    def _handle_mgmt_line(self, text: str) -> str:
        reply = super()._handle_mgmt_line(text)
        if text.startswith("LOAD ") and reply == "OK\n":
            self.state = replace(self.state, seed_counter=self.state.seed_counter + 1)
        return reply


def two_interface_item(tmp_path: Path, samples_dir: Path) -> Path:
    """The bundled item with a second external protocol interface, IF-DIAG,
    and its debug interface made external."""
    doc = json.loads((samples_dir / "item.json").read_text())
    debug = next(i for i in doc["interfaces"] if i["id"] == "IF-DEBUG")
    debug.update(exposure="external", address={"bus": "jtag0"})
    doc["interfaces"].append({"id": "IF-DIAG", "component_ref": "C-DIAG", "kind": "diag",
                              "exposure": "external", "address": {"bus": "doip0"}})
    item = tmp_path / "item.json"
    item.write_text(json.dumps(doc))
    return item


def closed_port() -> int:
    """A local TCP port that nothing listens on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def synthetic_result(case_id: str) -> dict:
    """A result file's content for a case that passed without running a step."""
    return {"result": {
        "case_ref": case_id, "verdict": "pass", "step_log": [], "oracle_evaluation": {},
        "metadata": {"sut_id": "SIM-ECU-01", "tools": {"vecuforge": "0.1.0"}, "prng": "p"},
        "error": "",
    }}


def sutdb_with_func_id(tmp_path: Path, samples_dir: Path, func_id: str) -> Path:
    return sutdb_with(tmp_path, samples_dir, "dictionaries", "func_id", func_id)


def sutdb_with(tmp_path: Path, samples_dir: Path, section: str, key: str, value) -> Path:
    """A copy of the bundled SUT database with one dictionary or domain entry set."""
    doc = json.loads((samples_dir / "sutdb.json").read_text())
    doc[section][key] = value
    sutdb = tmp_path / "sutdb.json"
    sutdb.write_text(json.dumps(doc))
    return sutdb


def run_files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestRunStore:
    def test_missing_artifact_names_the_stage(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(UsageError, match="'plan'"):
            store.decode("plan.json", "plan", dict)

    def test_canonical_json_is_stable(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_json("x.json", {"b": 1, "a": [2, 3]})
        first = store.path("x.json").read_bytes()
        store.write_json("x.json", {"a": [2, 3], "b": 1})
        assert store.path("x.json").read_bytes() == first

    def test_dataclass_fields_encode_as_plain_json(self, tmp_path):
        # Artifacts are written from their records: str-valued enums must
        # encode as their value and tuples as lists.
        req = SecurityRequirement(
            id="REQ-1",
            text="IF-A shall not exhibit it.",
            kind=RequirementKind.NEGATIVE,
            derived_from=("T-1", "T-2"),
            goal_ref="G1",
            countermeasure_ref=None,
            verification_hint=VerificationHint.FUZZ,
        )
        store = RunStore(tmp_path)
        store.write_json("req.json", req)
        assert store.path("req.json").read_bytes() == (
            b'{\n'
            b'  "countermeasure_ref": null,\n'
            b'  "derived_from": [\n'
            b'    "T-1",\n'
            b'    "T-2"\n'
            b'  ],\n'
            b'  "goal_ref": "G1",\n'
            b'  "id": "REQ-1",\n'
            b'  "kind": "negative",\n'
            b'  "text": "IF-A shall not exhibit it.",\n'
            b'  "verification_hint": "fuzz"\n'
            b'}\n'
        )

    def test_reset_dir_clears_stale_files(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_bytes("cases/stale.case.json", b"{}")
        store.reset_dir("cases")
        assert store.path("cases").is_dir()
        assert list(store.path("cases").iterdir()) == []


def types_in(kind):
    """``kind`` and every type argument in it, all the way down."""
    yield kind
    for arg in typing.get_args(kind):
        yield from types_in(arg)


class TestOpenFields:
    # Each record field, reachable from an artifact a stage decodes, whose type
    # lets ``decode`` take any JSON value somewhere in it: a bare ``dict`` or
    # ``object``. No type checks what such a field holds, so a new one is an
    # edit of this list.
    OPEN = [
        "StepRecord.detail",
        "TestPlan.environment",
        "TestPlan.termination",
        "TestResult.oracle_evaluation",
    ]

    def test_open_fields_are_pinned(self, tmp_path, monkeypatch):
        kinds = []
        decode = RunStore.decode

        def recording(store, rel, produced_by, kind):
            kinds.append(kind)
            return decode(store, rel, produced_by, kind)

        monkeypatch.setattr(RunStore, "decode", recording)
        assert run_cli("demo", "--run-dir", str(tmp_path), "--budget", "400") == EXIT_FINDINGS
        found, seen = set(), set()

        def visit(kind):
            for record in types_in(kind):
                if not dataclasses.is_dataclass(record) or record in seen:
                    continue
                seen.add(record)
                for f in dataclasses.fields(record):
                    if f.init:
                        if any(t is dict or t is object for t in types_in(f.type)):
                            found.add(f"{record.__name__}.{f.name}")
                        visit(f.type)

        for kind in kinds:
            visit(kind)
        assert {"TestCase", "TestResult", "TestPlan", "Item"} <= {k.__name__ for k in seen}
        assert sorted(found) == self.OPEN


class TestStageOrdering:
    def test_tcg_before_plan_names_plan(self, tmp_path, capsys):
        assert run_cli("tcg", "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert "'plan'" in capsys.readouterr().err

    def test_execute_before_tcg_names_tcg(self, tmp_path, capsys):
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", "127.0.0.1:1:1")
        assert code == EXIT_USAGE
        assert "'tcg'" in capsys.readouterr().err

    def test_concept_before_analyze_names_analyze(self, tmp_path, capsys):
        assert run_cli("item", "--run-dir", str(tmp_path)) == EXIT_OK
        assert run_cli("concept", "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert "'analyze'" in capsys.readouterr().err

    def test_tcg_rejects_a_bad_func_id(self, tmp_path, samples_dir, capsys):
        sutdb = sutdb_with_func_id(tmp_path, samples_dir, "zz")
        run_dir = tmp_path / "run"
        for stage in OFFLINE_STAGES[:-1]:
            assert run_cli(stage, "--run-dir", str(run_dir)) == EXIT_OK
        capsys.readouterr()
        code = run_cli("tcg", "--run-dir", str(run_dir), "--sutdb", str(sutdb))
        assert code == EXIT_USAGE
        assert "func_id 'zz'" in capsys.readouterr().err
        assert not (run_dir / "cases").exists()

    @pytest.mark.parametrize("raw", ["zz", 300, True, -1])
    def test_a_malformed_service_byte_is_a_usage_error(self, tmp_path, samples_dir, capsys,
                                                       raw):
        """Each input file that names a service byte: the stage that reads it
        exits 2 naming the field, and writes nothing."""
        def copy_with(name: str, edit) -> Path:
            doc = json.loads((samples_dir / name).read_text())
            edit(doc)
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return path

        item = copy_with("item.json",
                         lambda d: d["config_params"]["declared_services"].append(raw))
        catalog = copy_with("catalog.json",
                            lambda d: d["entries"][0]["match_predicate"].update(service=raw))
        vulndb = copy_with("vulndb.json",
                           lambda d: d["entries"][0]["predicate"].update(requires_service=raw))
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_USAGE
        assert "config_params.declared_services" in capsys.readouterr().err
        assert not (run_dir / "item.json").exists()
        assert run_cli("item", "--run-dir", str(run_dir)) == EXIT_OK
        assert run_cli("analyze", "--run-dir", str(run_dir), "--catalog", str(catalog)) == EXIT_USAGE
        assert "match_predicate.service" in capsys.readouterr().err
        assert not (run_dir / "threats.json").exists()
        for stage in OFFLINE_STAGES[1:]:
            assert run_cli(stage, "--run-dir", str(run_dir)) == EXIT_OK
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(run_dir), "--vulndb", str(vulndb),
                       "--sim-endpoint", "127.0.0.1:1:1")
        assert code == EXIT_USAGE
        assert "predicate.requires_service" in capsys.readouterr().err
        assert not (run_dir / "results").exists()

    def test_a_null_declared_service_is_a_usage_error(self, tmp_path, samples_dir, capsys):
        """Null is a wildcard where a service byte is optional, and no service
        where one is declared."""
        doc = json.loads((samples_dir / "item.json").read_text())
        doc["config_params"]["declared_services"].append(None)
        item = tmp_path / "item.json"
        item.write_text(json.dumps(doc))
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_USAGE
        assert "config_params.declared_services[5]: None is not a service byte" in (
            capsys.readouterr().err)
        assert not (run_dir / "item.json").exists()

    def test_tcg_rejects_a_bad_matcher_argument(self, tmp_path, capsys):
        for stage in OFFLINE_STAGES[:-1]:
            assert run_cli(stage, "--run-dir", str(tmp_path)) == EXIT_OK
        scenario = next(p for p in (tmp_path / "scenarios").glob("*.scn")
                        if "expect RESPONSE(service=0x3e)" in p.read_text())
        scenario.write_text(scenario.read_text().replace(
            "expect RESPONSE(service=0x3e)", "expect RESPONSE()"))
        capsys.readouterr()
        assert run_cli("tcg", "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert "wants service=<hex byte>" in capsys.readouterr().err
        assert not (tmp_path / "cases").exists()

    def test_tcg_rejects_a_scenario_without_an_interface(self, tmp_path, capsys):
        for stage in OFFLINE_STAGES[:-1]:
            assert run_cli(stage, "--run-dir", str(tmp_path)) == EXIT_OK
        path = tmp_path / "scenarios" / "fuzz-if-can.scn"
        line = '    interface bus canlike item_ref="IF-CAN"\n'
        assert line in path.read_text()
        path.write_text(path.read_text().replace(line, ""))
        capsys.readouterr()
        assert run_cli("tcg", "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert ("scenario 'fuzz-if-can': a case needs at least one interface"
                in capsys.readouterr().err)
        assert not (tmp_path / "cases").exists()

    @pytest.mark.parametrize(
        "scenario, before, after, sutdb_entry, reason",
        [("fuzz-if-can", "expect RESPONSE(service=0x3e)", "expect RESPONSE(service=16)", None,
          "scenario 'fuzz-if-can' does not validate: matcher 'RESPONSE' wants "
          "service=<hex byte>, got service=16"),
         ("func-pos-req-tc-sessbypass-if-can", "SET_SESSION(session=0x03)",
          "SET_SESSION(session=3)", None,
          "scenario 'func-pos-req-tc-sessbypass-if-can' step 1 SET_SESSION, slot 'session' "
          "wants hexbytes, got number 3"),
         ("fuzz-if-can", "budget=2000", "budget=0x10", None,
          "scenario 'fuzz-if-can' step 1 FUZZ_CAMPAIGN, slot 'budget' wants number, "
          "got hexbytes 0x10"),
         (None, None, None, ("dictionaries", "phys_id", "800"),
          "SUT database phys_id '800' is not an 11-bit hex frame id"),
         (None, None, None, ("dictionaries", "seedkey_const", "1a5"),
          "SUT database seedkey_const '1a5' is not a hex byte"),
         (None, None, None, ("dictionaries", "seedkey_algorithm", "rot13"),
          "SUT database seedkey_algorithm 'rot13' is not one of add_xor, weak_xor"),
         (None, None, None, ("domains", "SESSION", {"range": [1, 3]}),
          "scenario 'func-neg-req-tc-sessbypass-if-can' step 1 SET_SESSION, slot 'session' "
          "wants hexbytes, got number 1"),
         (None, None, None, ("domains", "SESSION", {"range": ["0x1", 3]}),
          "domain 'SESSION' must be a non-empty list or {\"range\": [lo, hi]} with two integers")],
        ids=["decimal-service", "number-session", "hex-budget", "phys-id-over-11-bits",
             "key-const-over-a-byte", "unknown-seedkey-algorithm", "range-into-hexbytes",
             "hex-text-range-bound"],
    )
    def test_tcg_rejects_a_value_that_would_change_meaning(
        self, tmp_path, samples_dir, capsys, scenario, before, after, sutdb_entry, reason
    ):
        run_dir = tmp_path / "run"
        for stage in OFFLINE_STAGES[:-1]:
            assert run_cli(stage, "--run-dir", str(run_dir)) == EXIT_OK
        extra = []
        if scenario is not None:
            path = run_dir / "scenarios" / f"{scenario}.scn"
            assert before in path.read_text()
            path.write_text(path.read_text().replace(before, after))
        if sutdb_entry is not None:
            extra = ["--sutdb", str(sutdb_with(tmp_path, samples_dir, *sutdb_entry))]
        capsys.readouterr()
        assert run_cli("tcg", "--run-dir", str(run_dir), *extra) == EXIT_USAGE
        assert reason in capsys.readouterr().err
        assert not (run_dir / "cases").exists()


class TestInputOrder:
    """The order in which the item lists its elements changes no artifact
    built from it (threats through cases); ``item.json`` records the item
    as given."""

    @pytest.mark.parametrize("order", ["reversed", 1, 2, 3], ids=str)
    def test_item_list_order_changes_no_offline_artifact(self, tmp_path, samples_dir, order):
        doc = json.loads((samples_dir / "item.json").read_text())
        permuted = json.loads(json.dumps(doc))
        for key in ("security_goals", "functions", "components", "interfaces"):
            if order == "reversed":
                permuted[key].reverse()
            else:
                random.Random(order).shuffle(permuted[key])
        assert permuted != doc
        item = tmp_path / "item.json"
        item.write_text(json.dumps(permuted))
        offline_chain(tmp_path / "bundled")
        offline_chain(tmp_path / "permuted", "--item", str(item))
        bundled = run_files(tmp_path / "bundled")
        assert (Path("cases") / "fuzz-if-can-000.case.json") in bundled
        given = run_files(tmp_path / "permuted")
        item_goals = json.loads(given.pop(Path("item.json")))["security_goals"]
        assert [g["id"] for g in item_goals] == [g["id"] for g in permuted["security_goals"]]
        del bundled[Path("item.json")]
        assert given == bundled


class TestArgumentGrammar:
    def test_options_before_the_stage_name(self, tmp_path):
        assert run_cli("--run-dir", str(tmp_path), "item") == EXIT_OK
        assert (tmp_path / "item.json").exists()

    def test_vulns_on_an_offline_stage_changes_nothing(self, tmp_path):
        offline_chain(tmp_path / "plain")
        offline_chain(tmp_path / "off", "--vulns", "off")
        plain = run_files(tmp_path / "plain")
        assert plain and run_files(tmp_path / "off") == plain

    def test_unknown_stage_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate", "--run-dir", str(tmp_path))
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_module_entry_point_help_lists_every_stage(self):
        src = Path(vecuforge.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "vecuforge.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(_STAGES) == 9
        for stage in _STAGES:
            assert stage in proc.stdout


class TestConceptReadsTheAnalysis:
    @pytest.fixture()
    def analyzed(self, tmp_path) -> Path:
        run = tmp_path / "run"
        for stage in ("item", "analyze"):
            assert run_cli(stage, "--run-dir", str(run)) == EXIT_OK
        return run

    def edit_risks(self, run: Path, edit) -> None:
        path = run / "risks.json"
        doc = json.loads(path.read_text())
        doc["risks"] = edit(doc["risks"])
        path.write_text(json.dumps(doc))

    def test_catalog_without_a_threats_entry_is_a_usage_error(
        self, analyzed, tmp_path, samples_dir, capsys
    ):
        catalog = json.loads((samples_dir / "catalog.json").read_text())
        catalog["entries"] = [e for e in catalog["entries"] if e["id"] != "TC-WEAKKEY"]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(catalog))
        code = run_cli("concept", "--run-dir", str(analyzed), "--catalog", str(path))
        assert code == EXIT_USAGE
        assert "T-TC-WEAKKEY-IF-CAN" in capsys.readouterr().err
        assert not (analyzed / "requirements.json").exists()

    def test_requirements_follow_the_risks_artifact(self, analyzed):
        def accept_weak_key(risks):
            for risk in risks:
                if risk["threat_ref"] == "T-TC-WEAKKEY-IF-CAN":
                    risk["acceptable"] = True
            return risks

        self.edit_risks(analyzed, accept_weak_key)
        assert run_cli("concept", "--run-dir", str(analyzed)) == EXIT_OK
        doc = json.loads((analyzed / "requirements.json").read_text())
        ids = {r["id"] for r in doc["requirements"]}
        assert "REQ-TC-WEAKKEY-IF-CAN" not in ids
        assert "REQ-TC-MALFORMED-IF-CAN" in ids

    def test_threat_without_a_risk_is_a_usage_error(self, analyzed, capsys):
        self.edit_risks(
            analyzed,
            lambda risks: [r for r in risks if r["threat_ref"] != "T-TC-WEAKKEY-IF-CAN"],
        )
        assert run_cli("concept", "--run-dir", str(analyzed)) == EXIT_USAGE
        assert "T-TC-WEAKKEY-IF-CAN" in capsys.readouterr().err

    def test_analyze_does_not_read_the_countermeasures(self, tmp_path):
        assert run_cli("item", "--run-dir", str(tmp_path)) == EXIT_OK
        code = run_cli("analyze", "--run-dir", str(tmp_path),
                       "--countermeasures", str(tmp_path / "absent.json"))
        assert code == EXIT_OK


def _drop_threat_classes(doc: dict) -> None:
    del doc["threat_class_by_id"]


def _threat_with_extra_key(doc: dict) -> None:
    doc["threats"][0]["severity"] = "high"


def _bad_verification_hint(doc: dict) -> None:
    doc["requirements"][0]["verification_hint"] = "guesswork"


def _result_with_extra_key(doc: dict) -> None:
    doc["result"]["started_at"] = "2026-01-01T00:00:00+00:00"


def _acceptable_as_text(doc: dict) -> None:
    doc["risks"][0]["acceptable"] = "false"


def _probability_as_text(doc: dict) -> None:
    doc["risks"][0]["probability"] = "3"


def _plan_without_purpose(doc: dict) -> None:
    doc["purpose"] = ""


def _plan_without_scope(doc: dict) -> None:
    doc["scope"] = []


def _requirement_from_no_threat(doc: dict) -> None:
    doc["requirements"][0]["derived_from"] = []


class TestMalformedArtifacts:
    @pytest.mark.parametrize(
        "rel, edit, stage",
        [
            ("threats.json", _drop_threat_classes, "concept"),
            ("threats.json", _drop_threat_classes, "plan"),
            ("threats.json", _threat_with_extra_key, "concept"),
            ("requirements.json", _bad_verification_hint, "plan"),
            ("results/synthetic.result.json", _result_with_extra_key, "report"),
            ("risks.json", _acceptable_as_text, "concept"),
            ("risks.json", _probability_as_text, "concept"),
            ("plan.json", _plan_without_purpose, "tcg"),
        ],
        ids=["no-threat-classes-concept", "no-threat-classes-plan",
             "threat-extra-key", "bad-verification-hint", "result-unknown-key",
             "risk-acceptable-as-text", "risk-probability-as-text", "plan-without-purpose"],
    )
    def test_usage_error_names_the_artifact(self, tmp_path, capsys, rel, edit, stage):
        offline_chain(tmp_path)
        case_id = json.loads(next((tmp_path / "cases").glob("*.case.json")).read_text())["id"]
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "synthetic.result.json").write_text(json.dumps(
            synthetic_result(case_id)
        ))
        doc = json.loads((tmp_path / rel).read_text())
        edit(doc)
        (tmp_path / rel).write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(stage, "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert repr(rel) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rel, edit, stage, reason",
        [("plan.json", _plan_without_scope, "tcg", "test plan field 'scope' must be non-empty"),
         ("requirements.json", _requirement_from_no_threat, "plan", "derives from no threat")],
        ids=["plan-without-scope", "requirement-from-no-threat"],
    )
    def test_usage_error_says_what_is_wrong(self, tmp_path, capsys, rel, edit, stage, reason):
        offline_chain(tmp_path)
        doc = json.loads((tmp_path / rel).read_text())
        edit(doc)
        (tmp_path / rel).write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(stage, "--run-dir", str(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert repr(rel) in err and reason in err, err

    @pytest.mark.parametrize("content", [b'{"trunc', b'{"id": "\xff"}'],
                             ids=["truncated", "not-utf-8"])
    @pytest.mark.parametrize(
        "rel, stage, produced_by, flag",
        [("item.json", "analyze", "item", None),
         ("threats.json", "concept", "analyze", None),
         ("plan.json", "tcg", "plan", None),
         ("results/synthetic.result.json", "report", "execute", None),
         ("input.json", "item", None, "--item"),
         ("input.json", "analyze", None, "--catalog")],
        ids=["item-artifact", "threats-artifact", "plan-artifact", "result-artifact",
             "item-input", "catalog-input"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, capsys, rel, stage, produced_by,
                                            flag, content):
        """A JSON file that is cut short or not UTF-8 is a usage error naming
        the file, and for an artifact the stage that writes it."""
        run = tmp_path / "run"
        offline_chain(run)
        (run / "results").mkdir()
        path = (tmp_path if flag else run) / rel
        path.write_bytes(content)
        capsys.readouterr()
        code = run_cli(stage, "--run-dir", str(run), *((flag, str(path)) if flag else ()))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert str(path) in err
        if produced_by:
            assert f"re-run the {produced_by!r} stage" in err

    @pytest.mark.parametrize(
        "edit, detail",
        [(lambda text: b'scenario "\xff"', "not UTF-8 text: byte 0xff at offset 10"),
         (lambda text: text.replace(b"steps {", b"stepz {"), "expected 'steps', got 'stepz'"),
         (lambda text: text.replace(b"(service=0x3e)", b"(service=0x3e) within 500ms"),
          "line 15 column 35: expected 'pattern' or 'expect', got 'within'")],
        ids=["not-utf-8", "unparsable", "within-clause"],
    )
    def test_unreadable_scenario_names_the_file(self, tmp_path, capsys, edit, detail):
        """A ``.scn`` artifact that is not UTF-8 or does not parse stops
        ``tcg`` with a usage error naming the file and the 'plan' stage,
        before it touches the cases."""
        offline_chain(tmp_path)
        cases_before = run_files(tmp_path / "cases")
        scn = tmp_path / "scenarios" / "fuzz-if-can.scn"
        scn.write_bytes(edit(scn.read_bytes()))
        capsys.readouterr()
        assert run_cli("tcg", "--run-dir", str(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"'scenarios/fuzz-if-can.scn' ({scn}: " in err
        assert detail in err
        assert "re-run the 'plan' stage" in err
        assert run_files(tmp_path / "cases") == cases_before

    def test_result_filed_under_another_case(self, tmp_path, capsys):
        offline_chain(tmp_path)
        case_ids = sorted(json.loads(p.read_text())["id"]
                          for p in (tmp_path / "cases").glob("*.case.json"))
        (tmp_path / "results").mkdir()
        rel = f"results/{case_ids[0]}.result.json"
        (tmp_path / rel).write_text(json.dumps(synthetic_result(case_ids[1])))
        assert run_cli("report", "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert repr(rel) in capsys.readouterr().err


class TestMalformedInputEntries:
    """An entry of an input file that lacks a field, or has an object field
    of another type, is a usage error naming the file, the entry and the
    field, not a traceback with exit 1 ("findings")."""

    @pytest.mark.parametrize(
        "stage, flag, name, edit, entry, field",
        [
            ("analyze", "--catalog", "catalog.json",
             lambda doc: doc["entries"][0].pop("threat_class"), "entries[0]", "'threat_class'"),
            ("analyze", "--catalog", "catalog.json",
             lambda doc: doc["entries"][0].update(match_predicate="x"), "entries[0]",
             "match_predicate"),
            ("concept", "--countermeasures", "countermeasures.json",
             lambda doc: doc["countermeasures"][0].pop("description"), "countermeasures[0]",
             "'description'"),
            # Read before execute connects: the endpoint is never dialled.
            ("execute", "--vulndb", "vulndb.json",
             lambda doc: doc["entries"][0].pop("id"), "entries[0]", "'id'"),
            ("execute", "--vulndb", "vulndb.json",
             lambda doc: doc["entries"][0].update(severity="x"), "entries[0]", "severity"),
            ("analyze", "--catalog", "catalog.json",
             lambda doc: doc.update(hint_by_class=[]), "hint_by_class", "object"),
            ("concept", "--countermeasures", "countermeasures.json",
             lambda doc: doc["countermeasures"][0].update(mitigates="weak_authentication"),
             "countermeasures[0]", "mitigates"),
        ],
        ids=["catalog-without-threat-class", "catalog-predicate-string",
             "countermeasure-without-description", "vulndb-without-id",
             "vulndb-severity-string", "catalog-hints-list", "countermeasure-mitigates-string"],
    )
    def test_usage_error_names_file_entry_and_field(self, tmp_path, samples_dir, capsys,
                                                    stage, flag, name, edit, entry, field):
        doc = json.loads((samples_dir / name).read_text())
        edit(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        run = tmp_path / "run"
        offline_chain(run)
        capsys.readouterr()
        code = run_cli(stage, "--run-dir", str(run), flag, str(path),
                       "--sim-endpoint", "127.0.0.1:1:1")
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert f"{path}: {entry}" in err and field in err


class TestOfflineStages:
    def test_chain_writes_all_artifacts(self, tmp_path):
        offline_chain(tmp_path)
        for rel in ("item.json", "threats.json", "risks.json",
                    "requirements.json", "consistency.json", "trace_index.json",
                    "plan.json"):
            assert (tmp_path / rel).exists(), rel
        assert len(list((tmp_path / "scenarios").glob("*.scn"))) == 5
        assert len(list((tmp_path / "cases").glob("*.case.json"))) == 7

    def test_stage_reruns_are_byte_identical(self, tmp_path):
        offline_chain(tmp_path)
        tracked = [
            p for p in sorted(tmp_path.rglob("*"))
            if p.is_file()
        ]
        before = {p: p.read_bytes() for p in tracked}
        for stage in OFFLINE_STAGES:
            assert run_cli(stage, "--run-dir", str(tmp_path)) == EXIT_OK
        for path, blob in before.items():
            assert path.read_bytes() == blob, path

    def test_item_rejects_missing_file(self, tmp_path, capsys):
        code = run_cli("item", "--run-dir", str(tmp_path),
                       "--item", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE
        assert "does not exist" in capsys.readouterr().err

    def test_invalid_input_json_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("item", "--run-dir", str(tmp_path / "run"),
                       "--item", str(bad)) == EXIT_USAGE

    @pytest.mark.parametrize(
        "key, value, reason",
        [("risk_treshold", 4, "config_params has the unknown field 'risk_treshold'"),
         ("declared_request_ids", ["0x7df"],
          "config_params has the unknown field 'declared_request_ids'"),
         ("risk_threshold", 0, "risk_threshold must be an integer in [1,16], got 0")],
        ids=["misspelled-key", "dropped-key", "threshold-out-of-range"],
    )
    def test_bad_config_param_stops_the_item_stage(self, tmp_path, samples_dir, capsys, key,
                                                   value, reason):
        doc = json.loads((samples_dir / "item.json").read_text())
        doc["config_params"][key] = value
        item = tmp_path / "item.json"
        item.write_text(json.dumps(doc))
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_USAGE
        assert reason in capsys.readouterr().err
        assert not (run_dir / "item.json").exists()

    def test_run_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(RUN_DIR_ENV, str(tmp_path / "envrun"))
        assert run_cli("item") == EXIT_OK
        assert (tmp_path / "envrun" / "item.json").exists()

    def test_no_run_dir_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.delenv(RUN_DIR_ENV, raising=False)
        assert run_cli("item") == EXIT_USAGE
        assert "--run-dir" in capsys.readouterr().err


class TestScenarioIdsAreFileNames:
    """A scenario id names its ``.scn`` file and its cases' files, so an id
    that is not a plain file name stops the stage before it writes."""

    def test_item_id_with_a_slash_stops_plan(self, tmp_path, samples_dir, capsys):
        doc = json.loads((samples_dir / "item.json").read_text())
        doc["id"] = "ECU/01"
        item = tmp_path / "item.json"
        item.write_text(json.dumps(doc))
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_OK
        for stage in ("analyze", "concept"):
            assert run_cli(stage, "--run-dir", str(run_dir)) == EXIT_OK
        assert run_cli("plan", "--run-dir", str(run_dir)) == EXIT_USAGE
        assert "scenario id 'vulnscan-ecu/01' is not a plain file name" in capsys.readouterr().err
        assert not (run_dir / "plan.json").exists()
        assert not (run_dir / "scenarios").exists()

    def test_hand_edited_scenario_id_stops_tcg(self, tmp_path, capsys):
        offline_chain(tmp_path)
        cases_before = run_files(tmp_path / "cases")
        scn = tmp_path / "scenarios" / "fuzz-if-can.scn"
        scn.write_text(scn.read_text().replace('scenario "fuzz-if-can"', 'scenario "fuzz/if-can"'))
        assert run_cli("tcg", "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert "'fuzz/if-can' is not a plain file name" in capsys.readouterr().err
        assert run_files(tmp_path / "cases") == cases_before


class TestFingerprintStage:
    def test_probes_and_reconciles(self, tmp_path, sim_factory):
        server = sim_factory(SimConfig())
        assert run_cli("item", "--run-dir", str(tmp_path)) == EXIT_OK
        code = run_cli("fingerprint", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server))
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "fingerprint.json").read_text())
        assert set(doc) == {"fingerprints"}
        fp = doc["fingerprints"]["IF-CAN"]
        assert "42" in fp["supported_services"]
        assert "timestamp" not in fp
        timing = json.loads((tmp_path / "timing" / "fingerprint.json").read_text())
        assert set(timing["probed_at"]) == {"IF-CAN"}
        disc = json.loads((tmp_path / "discrepancies.json").read_text())
        kinds = {(d["kind"], d["service"]) for d in disc["discrepancies"]}
        assert ("undeclared_service", "42") in kinds

    def test_one_sweep_fingerprints_every_protocol_interface(self, tmp_path, samples_dir,
                                                             sim_factory):
        """Every interface is the one data port, so a second sweep would only
        repeat the first."""
        server = sim_factory(server_cls=FrameCountingServer)
        item = two_interface_item(tmp_path, samples_dir)
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_OK
        assert run_cli("fingerprint", "--run-dir", str(run_dir),
                       "--sim-endpoint", endpoint_of(server)) == EXIT_OK
        # 48 ids in 0x7d0-0x7ff, then 128 services on each of the 2 that answer.
        assert server.frames == 48 + 2 * 128
        probed = json.loads((run_dir / "fingerprint.json").read_text())["fingerprints"]
        assert list(probed) == ["IF-CAN", "IF-DIAG"]
        assert probed["IF-DIAG"] == {**probed["IF-CAN"], "probed_interface": "IF-DIAG"}
        assert probed["IF-CAN"]["responding_request_ids"] == ["7df", "7e0"]
        disc = json.loads((run_dir / "discrepancies.json").read_text())["discrepancies"]
        assert [d["detail"] for d in disc] == [
            "service 0x42 answers on IF-CAN but is not declared",
            "service 0x42 answers on IF-DIAG but is not declared",
        ]

    @staticmethod
    def item_with_id_range(tmp_path: Path, samples_dir: Path, raw) -> Path:
        doc = json.loads((samples_dir / "item.json").read_text())
        doc["config_params"]["fingerprint_id_range"] = raw
        item = tmp_path / "item.json"
        item.write_text(json.dumps(doc))
        return item

    def test_sweeps_the_items_id_range(self, tmp_path, samples_dir, sim_factory):
        item = self.item_with_id_range(tmp_path, samples_dir, ["0x700", "0x701"])
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_OK
        code = run_cli("fingerprint", "--run-dir", str(run_dir),
                       "--sim-endpoint", endpoint_of(sim_factory(SimConfig())))
        assert code == EXIT_OK
        fp = json.loads((run_dir / "fingerprint.json").read_text())["fingerprints"]["IF-CAN"]
        assert fp["responding_request_ids"] == []
        disc = json.loads((run_dir / "discrepancies.json").read_text())["discrepancies"]
        declared = json.loads(item.read_text())["config_params"]["declared_services"]
        assert [(d["kind"], d["service"]) for d in disc] == [
            ("declared_but_silent", s[2:]) for s in declared
        ]

    @pytest.mark.parametrize("raw", [["0x7ff", "0x7d0"], ["0x7d0", "0x800"], ["0x7d0"],
                                     ["0x7d0", 2047], "0x7d0-0x7ff", ["0x7d0", "zz"]],
                             ids=["inverted", "above-11-bit", "one-bound", "number",
                                  "string", "not-hex"])
    def test_bad_id_range_stops_the_item_stage(self, tmp_path, samples_dir, capsys, raw):
        item = self.item_with_id_range(tmp_path, samples_dir, raw)
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_USAGE
        assert "config_params.fingerprint_id_range" in capsys.readouterr().err
        assert not (run_dir / "item.json").exists()

    def test_requires_endpoint(self, tmp_path, capsys):
        assert run_cli("item", "--run-dir", str(tmp_path)) == EXIT_OK
        assert run_cli("fingerprint", "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert "--sim-endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", [65536, -65536], ids=["above", "negative"])
    def test_port_outside_the_tcp_range_is_a_usage_error(self, tmp_path, sim_factory,
                                                         capsys, offset):
        server = sim_factory(SimConfig())
        assert run_cli("item", "--run-dir", str(tmp_path)) == EXIT_OK
        port = server.data_endpoint[1] + offset
        code = run_cli("fingerprint", "--run-dir", str(tmp_path),
                       "--sim-endpoint", f"127.0.0.1:{port}")
        assert code == EXIT_USAGE
        assert "--sim-endpoint" in capsys.readouterr().err
        assert not (tmp_path / "fingerprint.json").exists()

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:0:1", "127.0.0.1:1:65536", "127.0.0.1:1:0"])
    def test_ports_must_be_1_to_65535(self, tmp_path, capsys, endpoint):
        offline_chain(tmp_path)
        assert run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint) == EXIT_USAGE
        assert "--sim-endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:abc", "127.0.0.1:1:2:3", "127.0.0.1"],
                             ids=["port-not-a-number", "three-ports", "no-port"])
    def test_unparsable_endpoint_is_a_usage_error(self, tmp_path, capsys, endpoint):
        assert run_cli("item", "--run-dir", str(tmp_path)) == EXIT_OK
        capsys.readouterr()
        code = run_cli("fingerprint", "--run-dir", str(tmp_path), "--sim-endpoint", endpoint)
        assert code == EXIT_USAGE
        assert f"cannot parse --sim-endpoint {endpoint!r}" in capsys.readouterr().err

    def test_item_without_an_external_protocol_interface_connects_to_nothing(
        self, tmp_path, samples_dir, capsys
    ):
        doc = json.loads((samples_dir / "item.json").read_text())
        for iface in doc["interfaces"]:
            iface["exposure"] = "internal"
        item = tmp_path / "item.json"
        item.write_text(json.dumps(doc))
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_OK
        capsys.readouterr()
        code = run_cli("fingerprint", "--run-dir", str(run_dir),
                       "--sim-endpoint", f"127.0.0.1:{closed_port()}")
        assert code == EXIT_USAGE
        assert "item declares no external protocol interfaces to probe" in capsys.readouterr().err
        assert not (run_dir / "fingerprint.json").exists()

    def test_unreachable_sut_is_infrastructure(self, tmp_path):
        assert run_cli("item", "--run-dir", str(tmp_path)) == EXIT_OK
        code = run_cli("fingerprint", "--run-dir", str(tmp_path),
                       "--sim-endpoint", "127.0.0.1:1")
        assert code == EXIT_INFRA


class TestExecuteAndReport:
    def test_campaign_against_seeded_build(self, tmp_path, sim_factory):
        server = sim_factory(SimConfig())
        offline_chain(tmp_path, "--budget", "400")
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server), "--budget", "400")
        assert code == EXIT_FINDINGS
        results = sorted((tmp_path / "results").glob("*.result.json"))
        assert len(results) == 7
        cleanup = json.loads((tmp_path / "cleanup.json").read_text())
        assert len(cleanup["cleanups"]) == 7
        assert all(c["restored"] and c["verified"] for c in cleanup["cleanups"])

        assert run_cli("report", "--run-dir", str(tmp_path)) == EXIT_FINDINGS
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["dashboard"]["fail"] == 4
        assert report["dashboard"]["pass"] == 3
        failed = sorted(
            f["case_ref"] for f in report["findings"] if f["verdict"] == "fail"
        )
        assert failed == [
            "func-neg-req-tc-sessbypass-if-can-001",
            "fuzz-if-can-000",
            "pen-req-tc-weakkey-if-can-00-000",
            "vulnscan-item-demo-ecu-000",
        ]
        assert (tmp_path / "report.txt").read_text().startswith(
            "=== Management Summary ==="
        )

    def test_bound_value_cannot_add_a_tool_argument(self, tmp_path, sim_factory):
        """A corpus name with a space in it is one argument, which names no
        corpus: the campaign never runs with the ``seed=`` inside it."""
        assert run_cli("demo", "--run-dir", str(tmp_path), "--budget", "400") == EXIT_FINDINGS
        scn = tmp_path / "scenarios" / "fuzz-if-can.scn"
        scn.write_text(scn.read_text().replace('corpus="fuzz_corpus"',
                                               'corpus="fuzz_corpus seed=99"'))
        assert run_cli("tcg", "--run-dir", str(tmp_path)) == EXIT_OK
        case = json.loads((tmp_path / "cases" / "fuzz-if-can-000.case.json").read_text())
        fuzz_args = case["activities"][0]["bound_args"]
        assert (fuzz_args["seed"], fuzz_args["corpus"]) == ("1", "fuzz_corpus seed=99")

        server = sim_factory(SimConfig())
        code = run_cli("execute", "--run-dir", str(tmp_path), "--sim-endpoint", endpoint_of(server))
        assert code == EXIT_FINDINGS, "the other cases ran, and three of them fail"
        result = json.loads(
            (tmp_path / "results" / "fuzz-if-can-000.result.json").read_text())["result"]
        assert result["verdict"] == "error"
        assert result["error"] == "fuzz: no argument or SUT database corpus 'fuzz_corpus seed=99'"
        assert result["step_log"] == []

    def test_execute_requires_endpoint(self, tmp_path, capsys):
        offline_chain(tmp_path)
        assert run_cli("execute", "--run-dir", str(tmp_path)) == EXIT_USAGE
        assert "--sim-endpoint" in capsys.readouterr().err

    def test_dead_endpoint_is_infrastructure(self, tmp_path):
        offline_chain(tmp_path)
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", "127.0.0.1:1:1")
        assert code == EXIT_INFRA

    def test_failed_restore_stops_after_the_case_it_follows(self, tmp_path, sim_factory,
                                                             capsys):
        # The first case is functional and sends no LOAD, so the first LOAD
        # the SUT refuses is the restore after that case.
        server = sim_factory(server_cls=LoadRefusingServer)
        offline_chain(tmp_path)
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server))
        first = "func-neg-req-tc-sessbypass-if-can-000"
        assert code == EXIT_INFRA
        assert f"restore failed after case {first!r}" in capsys.readouterr().err
        cleanups = json.loads((tmp_path / "cleanup.json").read_text())["cleanups"]
        assert [(c["case_ref"], c["restored"]) for c in cleanups] == [(first, False)]
        assert list(run_files(tmp_path / "results")) == [Path(f"{first}.result.json")]
        timing = json.loads((tmp_path / "timing" / "execute.json").read_text())
        assert [t["case_ref"] for t in timing["cases"]] == [first]

    def test_restore_that_does_not_verify_stops_after_the_case_it_follows(
        self, tmp_path, sim_factory, capsys
    ):
        server = sim_factory(server_cls=DriftingLoadServer)
        offline_chain(tmp_path)
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server))
        first = "func-neg-req-tc-sessbypass-if-can-000"
        assert code == EXIT_INFRA
        assert (f"SUT state restore failed after case {first!r}: re-dumped state differs "
                "from the pre-attack snapshot; remaining cases skipped") in capsys.readouterr().err
        cleanups = json.loads((tmp_path / "cleanup.json").read_text())["cleanups"]
        assert cleanups == [{"case_ref": first, "restored": True, "verified": False,
                             "detail": "re-dumped state differs from the pre-attack snapshot"}]
        assert list(run_files(tmp_path / "results")) == [Path(f"{first}.result.json")]

    def test_each_stage_opens_one_connection_per_channel(self, tmp_path, sim_factory):
        """A session is one data and one management connection, and the
        scan case's sweep runs on that data connection."""
        server = sim_factory(server_cls=ConnectionCountingServer)
        offline_chain(tmp_path, "--budget", "400")
        assert server.roles == []
        assert run_cli("fingerprint", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server)) == EXIT_OK
        assert server.opened_since(0) == {"data": 1, "mgmt": 0}
        start = len(server.roles)
        assert run_cli("execute", "--run-dir", str(tmp_path), "--sim-endpoint",
                       endpoint_of(server)) == EXIT_FINDINGS
        results = {p.name for p in (tmp_path / "results").glob("*.result.json")}
        assert "vulnscan-item-demo-ecu-000.result.json" in results
        assert server.opened_since(start) == {"data": 1, "mgmt": 1}

    def test_dropped_data_connection_stops_after_its_case(self, tmp_path, sim_factory, capsys):
        server = sim_factory(SimConfig().with_vulns(False), server_cls=DataDropServer)
        offline_chain(tmp_path)
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server))
        err = capsys.readouterr().err
        cleanups = json.loads((tmp_path / "cleanup.json").read_text())["cleanups"]
        last = cleanups[-1]["case_ref"]
        assert code == EXIT_INFRA
        assert f"the SUT dropped the connection during case {last!r}" in err
        assert err.endswith("; remaining cases skipped\n")
        assert "Traceback" not in err
        assert len(cleanups) < 7
        results = run_files(tmp_path / "results")
        assert sorted(results) == sorted(Path(f"{c['case_ref']}.result.json") for c in cleanups)
        assert json.loads(results[Path(f"{last}.result.json")])["result"]["verdict"] == "error"

    def test_reset_data_connection_is_lost_while_reading(self, tmp_path, sim_factory, capsys):
        """A reset, unlike a close, fails the read itself."""
        server = sim_factory(SimConfig().with_vulns(False), server_cls=DataResetServer)
        offline_chain(tmp_path)
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server))
        err = capsys.readouterr().err
        cleanups = json.loads((tmp_path / "cleanup.json").read_text())["cleanups"]
        last = cleanups[-1]["case_ref"]
        assert code == EXIT_INFRA
        assert f"the SUT dropped the connection during case {last!r}" in err
        assert "Traceback" not in err
        result = json.loads(run_files(tmp_path / "results")[Path(f"{last}.result.json")])["result"]
        assert result["verdict"] == "error"
        assert result["error"].startswith("connection lost while reading: ")

    @pytest.mark.parametrize("refuse, cause", [
        ("dump", "SUT does not support state snapshots: SUT returned an empty state dump"),
        ("data", "SUT unreachable: cannot connect to 127.0.0.1:"),
    ], ids=["dump", "data"])
    def test_session_that_cannot_open_writes_no_results(self, tmp_path, sim_factory, capsys,
                                                        refuse, cause):
        server = sim_factory(server_cls=EmptyDumpServer if refuse == "dump" else SimServer)
        endpoint = endpoint_of(server)
        if refuse == "data":
            endpoint = f"127.0.0.1:{closed_port()}:{server.mgmt_endpoint[1]}"
        offline_chain(tmp_path)
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(tmp_path), "--sim-endpoint", endpoint)
        assert code == EXIT_INFRA
        assert f"cannot prepare the test environment: {cause}" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "field, value, reason",
        [("interfaces", [], "a case needs at least one interface"),
         ("preconditions", ["sut_alive", "moon_phase"], "unknown precondition 'moon_phase'")],
        ids=["no-interface", "unknown-precondition"],
    )
    def test_bad_case_needs_are_a_usage_error_naming_the_file(
        self, tmp_path, sim_factory, capsys, field, value, reason
    ):
        offline_chain(tmp_path)
        paths = sorted((tmp_path / "cases").glob("*.case.json"))
        for path in paths:
            doc = json.loads(path.read_text())
            doc["environmental_needs"][field] = value
            path.write_text(json.dumps(doc))
        server = sim_factory(SimConfig())
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"cases/{paths[0].name}" in err and reason in err
        assert not (tmp_path / "results").exists()

    def test_expect_step_first_is_an_error_and_later_cases_run(self, tmp_path, sim_factory):
        """A case whose first activity is an expect step has no frames to
        examine: that case alone gets verdict ``error``."""
        offline_chain(tmp_path, "--budget", "400")
        first = "func-neg-req-tc-sessbypass-if-can-000"
        path = tmp_path / "cases" / f"{first}.case.json"
        doc = json.loads(path.read_text())
        doc["activities"] = [a for a in doc["activities"] if a["kind"] == "expect"]
        path.write_text(json.dumps(doc))
        server = sim_factory(SimConfig())
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server), "--budget", "400")
        assert code == EXIT_FINDINGS
        results = {p.name.removesuffix(".result.json"): json.loads(p.read_text())["result"]
                   for p in (tmp_path / "results").glob("*.result.json")}
        assert results[first]["verdict"] == "error"
        assert results[first]["error"] == "expect step without a preceding stimulus"
        assert {case: r["verdict"] for case, r in results.items() if case != first} == {
            "func-neg-req-tc-sessbypass-if-can-001": "fail",
            "func-neg-req-tc-sessbypass-if-can-002": "pass",
            "func-pos-req-tc-sessbypass-if-can-000": "pass",
            "fuzz-if-can-000": "fail",
            "pen-req-tc-weakkey-if-can-00-000": "fail",
            "vulnscan-item-demo-ecu-000": "fail",
        }
        cleanups = json.loads((tmp_path / "cleanup.json").read_text())["cleanups"]
        assert len(cleanups) == 7 and cleanups[0]["case_ref"] == first
        assert all(c["restored"] and c["verified"] for c in cleanups)

    @pytest.mark.parametrize(
        "edit, reason",
        [(lambda doc: doc["expected_results"].update(pass_condition="x"),
          "unknown oracle condition 'x'"),
         (lambda doc: doc["activities"][0].update(kind="x"), "unknown activity kind 'x'"),
         (lambda doc: next(a for a in doc["activities"] if a["kind"] == "expect").update(name="x"),
          "unknown matcher 'x'")],
        ids=["pass-condition", "activity-kind", "matcher"],
    )
    def test_unknown_case_vocabulary_is_a_usage_error_naming_the_file(
        self, tmp_path, sim_factory, capsys, edit, reason
    ):
        offline_chain(tmp_path)
        path = tmp_path / "cases" / "func-pos-req-tc-sessbypass-if-can-000.case.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        server = sim_factory(SimConfig())
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(tmp_path),
                       "--sim-endpoint", endpoint_of(server))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"cases/{path.name}" in err and reason in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("func_id", ["zz", "800"], ids=["not-hex", "over-11-bits"])
    def test_bad_func_id_is_a_usage_error(self, tmp_path, sim_factory, samples_dir,
                                          capsys, func_id):
        sutdb = sutdb_with_func_id(tmp_path, samples_dir, func_id)
        run_dir = tmp_path / "run"
        offline_chain(run_dir)
        server = sim_factory(SimConfig())
        capsys.readouterr()
        code = run_cli("execute", "--run-dir", str(run_dir), "--sutdb", str(sutdb),
                       "--sim-endpoint", endpoint_of(server))
        assert code == EXIT_USAGE
        assert f"func_id {func_id!r}" in capsys.readouterr().err


class TestOneDefectOneFinding:
    """Each seeded defect alone fails exactly its own case; with none, none fails."""

    @pytest.fixture(scope="class")
    def offline(self, tmp_path_factory) -> Path:
        root = tmp_path_factory.mktemp("offline")
        offline_chain(root, "--budget", "400")
        return root

    @pytest.mark.parametrize(
        "defect, failed",
        [("v1_weak_key", "pen-req-tc-weakkey-if-can-00-000"),
         ("v2_session_bypass", "func-neg-req-tc-sessbypass-if-can-001"),
         ("v3_length_crash", "fuzz-if-can-000"),
         ("v4_hidden_service", "vulnscan-item-demo-ecu-000"),
         (None, None)],
        ids=["weak-key", "session-bypass", "length-crash", "hidden-service", "none"],
    )
    def test_defect_fails_only_its_own_case(self, offline, tmp_path, sim_factory,
                                            defect, failed):
        config = SimConfig().with_vulns(False)
        server = sim_factory(replace(config, **{defect: True}) if defect else config)
        run_dir = tmp_path / "run"
        shutil.copytree(offline, run_dir)
        expected = EXIT_FINDINGS if failed else EXIT_OK
        code = run_cli("execute", "--run-dir", str(run_dir),
                       "--sim-endpoint", endpoint_of(server))
        assert code == expected
        assert run_cli("report", "--run-dir", str(run_dir)) == expected
        report = json.loads((run_dir / "report.json").read_text())["report"]
        assert report["dashboard"] == {
            "error": 0, "fail": 1 if failed else 0, "inconclusive": 0,
            "pass": 6 if failed else 7, "untested": 0,
        }
        fails = [f["case_ref"] for f in report["findings"] if f["verdict"] == "fail"]
        assert fails == ([failed] if failed else [])


class TestReportStage:
    def test_zero_results_all_untested(self, tmp_path):
        offline_chain(tmp_path)
        code = run_cli("report", "--run-dir", str(tmp_path),
                       "--untested-reason", "lack_of_tools")
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["dashboard"] == {
            "pass": 0, "fail": 0, "error": 0, "inconclusive": 0, "untested": 7,
        }
        assert {u["reason"] for u in report["untested"]} == {"lack_of_tools"}

    def test_all_pass_synthetic_results_exit_zero(self, tmp_path):
        offline_chain(tmp_path)
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        for case_file in (tmp_path / "cases").glob("*.case.json"):
            case_id = json.loads(case_file.read_text())["id"]
            (results_dir / f"{case_id}.result.json").write_text(json.dumps(
                synthetic_result(case_id)
            ))
        assert run_cli("report", "--run-dir", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["dashboard"]["pass"] == 7
        assert report["dashboard"]["fail"] == 0


class TestDemo:
    def test_demo_is_hermetic_and_flags_the_defects(self, tmp_path):
        code = run_cli("demo", "--run-dir", str(tmp_path),
                       "--budget", "400", "--seed", "3")
        assert code == EXIT_FINDINGS
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["dashboard"]["fail"] == 4
        assert (tmp_path / "cleanup.json").exists()
        assert (tmp_path / "fingerprint.json").exists()

    def test_fingerprint_and_scan_reach_the_same_interfaces(self, tmp_path, samples_dir):
        """An external debug interface is neither probed nor scanned; every
        external canlike and diag interface is both."""
        item = two_interface_item(tmp_path, samples_dir)
        run_dir = tmp_path / "run"
        assert run_cli("demo", "--run-dir", str(run_dir), "--item", str(item),
                       "--budget", "400") == EXIT_FINDINGS
        probed = json.loads((run_dir / "fingerprint.json").read_text())["fingerprints"]
        assert sorted(probed) == ["IF-CAN", "IF-DIAG"]
        result = json.loads(
            (run_dir / "results" / "vulnscan-item-demo-ecu-000.result.json").read_text())["result"]
        assert result["verdict"] == "fail", result["error"]
        (step,) = result["step_log"]
        assert [scan["target"] for scan in step["detail"]["scans"]] == ["IF-CAN", "IF-DIAG"]

    def test_scenario_runs_on_the_interface_its_threat_targets(self, tmp_path, samples_dir):
        """A requirement whose threat targets IF-DIAG is tested on IF-DIAG; the
        fuzz campaign stays on the primary bus and the scan covers both."""
        item = two_interface_item(tmp_path, samples_dir)
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_OK
        for stage in ("analyze", "concept", "plan"):
            assert run_cli(stage, "--run-dir", str(run_dir)) == EXIT_OK
        interfaces = {
            path.stem: [line.split(None, 1)[1] for line in path.read_text().splitlines()
                        if line.lstrip().startswith("interface ")]
            for path in sorted((run_dir / "scenarios").glob("*.scn"))
        }
        can, diag = 'bus canlike item_ref="IF-CAN"', 'bus diag item_ref="IF-DIAG"'
        assert interfaces == {
            "func-neg-req-tc-sessbypass-if-can": [can],
            "func-neg-req-tc-sessbypass-if-diag": [diag],
            "func-pos-req-tc-sessbypass-if-can": [can],
            "func-pos-req-tc-sessbypass-if-diag": [diag],
            "fuzz-if-can": [can],
            "pen-req-tc-weakkey-if-can-00": [can],
            "pen-req-tc-weakkey-if-diag-00": [diag],
            "vulnscan-item-demo-ecu": [can, 'bus1 diag item_ref="IF-DIAG"'],
        }

    def test_plan_environment_names_every_scenario_interface(self, tmp_path, samples_dir):
        """The plan's environment lists each interface its scenarios declare,
        not the primary bus alone."""
        item = two_interface_item(tmp_path, samples_dir)
        run_dir = tmp_path / "run"
        assert run_cli("item", "--run-dir", str(run_dir), "--item", str(item)) == EXIT_OK
        for stage in ("analyze", "concept", "plan"):
            assert run_cli(stage, "--run-dir", str(run_dir)) == EXIT_OK
        plan = json.loads((run_dir / "plan.json").read_text())
        assert plan["environment"]["interfaces"] == [
            {"logical": "bus", "kind": "canlike", "item_ref": "IF-CAN"},
            {"logical": "bus", "kind": "diag", "item_ref": "IF-DIAG"},
            {"logical": "bus1", "kind": "diag", "item_ref": "IF-DIAG"},
        ]

    @pytest.mark.parametrize("vulns", ["on", "off"])
    @pytest.mark.parametrize("two_interfaces", [False, True], ids=["bundled", "two-interface"])
    def test_a_result_does_not_depend_on_its_session(self, tmp_path, samples_dir,
                                                     two_interfaces, vulns):
        """Each case, run alone in a fresh session against a fresh simulator of
        the same build, writes the same result file as inside the demo."""
        item = (two_interface_item(tmp_path, samples_dir) if two_interfaces
                else samples_dir / "item.json")
        demo = tmp_path / "demo"
        assert run_cli("demo", "--run-dir", str(demo), "--item", str(item), "--budget", "400",
                       "--vulns", vulns) in (EXIT_OK, EXIT_FINDINGS)
        case_files = sorted((demo / "cases").glob("*.case.json"))
        assert len(case_files) == (12 if two_interfaces else 7)
        for case_file in case_files:
            alone = tmp_path / "alone" / case_file.name
            (alone / "cases").mkdir(parents=True)
            shutil.copy(case_file, alone / "cases")
            server = SimServer(SimConfig().with_vulns(vulns == "on")).start()
            try:
                code = run_cli("execute", "--run-dir", str(alone),
                               "--sim-endpoint", endpoint_of(server))
            finally:
                server.stop()
            assert code in (EXIT_OK, EXIT_FINDINGS)
            result = f"results/{case_file.name.replace('.case.json', '.result.json')}"
            assert (alone / result).read_bytes() == (demo / result).read_bytes(), result

    def test_bad_func_id_stops_before_the_first_stage(self, tmp_path, samples_dir, capsys):
        sutdb = sutdb_with_func_id(tmp_path, samples_dir, "zz")
        run_dir = tmp_path / "run"
        code = run_cli("demo", "--run-dir", str(run_dir), "--sutdb", str(sutdb))
        assert code == EXIT_USAGE
        assert "func_id 'zz'" in capsys.readouterr().err
        assert not (run_dir / "item.json").exists()
        assert not (run_dir / "fingerprint.json").exists()

    def test_sutdb_with_endpoints_is_a_usage_error(self, tmp_path, samples_dir, capsys):
        """Every interface is the one data connection, so a SUT database has
        no per-interface endpoints."""
        doc = json.loads((samples_dir / "sutdb.json").read_text())
        doc["endpoints"] = {"IF-CAN": {"host": "127.0.0.1", "port": "0", "bus": "can0"}}
        sutdb = tmp_path / "sutdb.json"
        sutdb.write_text(json.dumps(doc))
        code = run_cli("demo", "--run-dir", str(tmp_path / "run"), "--sutdb", str(sutdb))
        assert code == EXIT_USAGE
        assert "unknown field 'endpoints'" in capsys.readouterr().err

    def test_simulator_that_cannot_bind_is_an_infra_error(self, tmp_path, monkeypatch, capsys):
        def refuse(host, port):
            raise OSError(98, "Address already in use")

        monkeypatch.setattr(SimServer, "_listen", staticmethod(refuse))
        run_dir = tmp_path / "run"
        assert run_cli("demo", "--run-dir", str(run_dir)) == EXIT_INFRA
        assert "Address already in use" in capsys.readouterr().err
        assert not (run_dir / "item.json").exists()

    @pytest.mark.parametrize("error", [InfraError("stage broke"), RuntimeError("stage broke")],
                             ids=["infra-error", "uncaught"])
    def test_simulator_stops_when_a_stage_raises(self, tmp_path, monkeypatch, error):
        def sim_threads() -> set[threading.Thread]:
            return {t for t in threading.enumerate() if t.name == "sut-sim"}

        before = sim_threads()
        seen = {}

        def broken_stage(store, args):
            seen["endpoint"] = args.sim_endpoint
            seen["hosted"] = sim_threads() - before
            raise error

        monkeypatch.setattr(cli, "stage_concept", broken_stage)
        if isinstance(error, InfraError):
            assert run_cli("demo", "--run-dir", str(tmp_path)) == EXIT_INFRA
        else:
            with pytest.raises(RuntimeError, match="stage broke"):
                run_cli("demo", "--run-dir", str(tmp_path))
        assert (tmp_path / "fingerprint.json").exists()
        assert seen["hosted"], "the demo hosts its simulator in a thread of its own process"
        assert not sim_threads() - before
        host, data_port, _ = seen["endpoint"].split(":")
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, int(data_port)), timeout=2.0).close()
