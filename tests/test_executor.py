"""Live execution against the bundled simulator: sessions, MVAs, restore."""

from __future__ import annotations

import copy
import inspect
import json
import socket
import threading
import time
from dataclasses import asdict, fields, replace

import pytest

from vecuforge import executor, frames, vocabulary
from vecuforge.executor import (
    CleanupReport,
    DataChannel,
    ExecutorError,
    Resources,
    ResultMetadata,
    Session,
    StateTransport,
    execute_case,
    open_session,
    restore,
)
from vecuforge.executor import TestResult as Result
from vecuforge.frames import Frame
from vecuforge.item_model import Item, ItemError, decode, load_json
from vecuforge.planner import build_plan, load_attack_trees
from vecuforge.scenario_dsl import parse_scenario, validate
from vecuforge.script_registry import ScriptRegistry, render_command
from vecuforge.simulator import EcuState, SimConfig, SimServer, dump_state, load_state
from vecuforge.tcg import (
    BoundStep,
    CaseInterface,
    EnvironmentalNeeds,
    ExpectedResults,
    SutDatabase,
    TcgError,
    Traceability,
    generate_cases,
    load_sutdb,
)
from vecuforge.tcg import TestCase as Case
from vecuforge.vocabulary import CONDITIONS, PATTERNS
from vecuforge.vuln_scanner import load_vulndb

from conftest import ConnectionCountingServer, FrameCountingServer


@pytest.fixture(scope="module")
def sutdb(samples_dir) -> SutDatabase:
    return load_sutdb(samples_dir / "sutdb.json")


@pytest.fixture(scope="module")
def registry(samples_dir) -> ScriptRegistry:
    return ScriptRegistry(samples_dir / "scripts", PATTERNS)


@pytest.fixture(scope="module")
def resources(samples_dir, sutdb) -> Resources:
    return Resources(sutdb=sutdb, vulndb=load_vulndb(samples_dir / "vulndb.json"))


@pytest.fixture(scope="module")
def pipeline_cases(samples_dir, sutdb, registry, analysis) -> dict[str, list[Case]]:
    """Scenario id -> generated cases, over the bundled sample set."""
    item = load_json(Item, samples_dir / "item.json", ItemError)
    _, scenarios = build_plan(
        item,
        analysis.risks,
        analysis.requirements,
        trees=load_attack_trees(samples_dir / "attack_trees.json"),
        threat_class_by_id=analysis.threat_class_by_id,
        seed=1,
        fuzz_budget=400,
    )
    return {
        scn.id: generate_cases(scn, sutdb, registry) for scn in scenarios
    }


def case_by_binding(cases: list[Case], **bindings) -> Case:
    for case in cases:
        if all(case.variability.get(k) == v for k, v in bindings.items()):
            return case
    raise AssertionError(f"no case bound to {bindings}")


def speed_read_case() -> Case:
    return Case(
        id="case-speed-000",
        scenario_ref="scn-speed",
        method="functional",
        purpose="Read the current speed over the diagnostic channel",
        sut_description="bundled simulator",
        environmental_needs=EnvironmentalNeeds(
            [CaseInterface("bus", "canlike", {"item_ref": "IF-CAN"})], ["sut_alive"]
        ),
        procedural_requirements="run in order",
        activities=[
            BoundStep(
                kind="pattern", name="SEND_CAN_MSG", script_ref="cansend-frame",
                bound_args={"id": "7df", "data": "02010d"},
            ),
            BoundStep(
                kind="expect", name="RESPONSE", script_ref=None,
                bound_args={"service": "01"},
            ),
        ],
        input_data={},
        expected_results=ExpectedResults("all_expectations_met", "any_expectation_missed"),
        traceability=Traceability(["REQ-SPEED"], [], None),
        variability={},
    )


def make_session(server, sutdb, cases) -> Session:
    return open_session(
        cases, sutdb,
        host="127.0.0.1",
        data_port=server.data_endpoint[1],
        mgmt_port=server.mgmt_endpoint[1],
    )


def case_on(bus: str, item_ref: str) -> Case:
    """The speed read, sent on ``bus`` through the item interface ``item_ref``."""
    case = speed_read_case()
    case.environmental_needs.interfaces = [CaseInterface(bus, "canlike", {"item_ref": item_ref})]
    case.activities[0].bound_args["bus"] = bus
    return case


def edited_registry(tmp_path, samples_dir, script_id: str, template: str) -> ScriptRegistry:
    """The bundled scripts, with the template of ``script_id`` edited by hand."""
    for path in (samples_dir / "scripts").glob("*.json"):
        doc = json.loads(path.read_text())
        if path.stem == script_id:
            doc["command_template"] = template
        (tmp_path / path.name).write_text(json.dumps(doc))
    return ScriptRegistry(tmp_path, PATTERNS)


def raw_send_frames(server, *lines: str) -> None:
    """Out-of-band traffic straight onto the data port."""
    with socket.create_connection(server.data_endpoint) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for line in lines:
            sock.sendall(line.encode() + b"\n")
        sock.settimeout(0.2)
        try:
            sock.recv(4096)
        except socket.timeout:
            pass


def raw_mgmt(server, line: str) -> str:
    with socket.create_connection(server.mgmt_endpoint) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(line.encode() + b"\n")
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.split(b"\n", 1)[0].decode()


# -- session preparation -------------------------------------------------


class TestPrepareEnv:
    def test_merges_case_needs(self, sim_factory, sutdb, resources, registry):
        """Cases on different item interfaces share one session; it probes
        the SUT because one of them needs ``sut_alive``."""
        server = sim_factory(server_cls=FrameCountingServer)
        can = speed_read_case()
        can.environmental_needs.preconditions = []
        diag = case_on("can0", "IF-DIAG")
        diag.environmental_needs.preconditions = ["env_ready", "sut_alive"]
        session = make_session(server, sutdb, [can, diag])
        try:
            assert session.func_id == 0x7DF
            assert server.frames == 1, "one liveness probe"
            results = [execute_case(case, session, resources, registry) for case in (can, diag)]
        finally:
            session.close()
        assert [r.verdict for r in results] == ["pass", "pass"]

    # A case's needs check themselves, so no session ever sees these.
    def test_unknown_precondition_rejected(self):
        with pytest.raises(TcgError, match="unknown precondition 'moon_phase'"):
            EnvironmentalNeeds([CaseInterface("bus", "canlike", {})], ["moon_phase"])

    def test_cases_without_interfaces_rejected(self):
        with pytest.raises(TcgError, match="at least one interface"):
            EnvironmentalNeeds([], ["sut_alive"])

    def test_zero_cases_rejected(self, sutdb):
        with pytest.raises(ExecutorError):
            open_session([], sutdb, host="h", data_port=1, mgmt_port=2)

    def test_snapshot_matches_management_dump(self, sim_factory, sutdb):
        server = sim_factory(SimConfig())
        session = make_session(server, sutdb, [speed_read_case()])
        try:
            direct = raw_mgmt(server, "DUMP")
            assert direct.startswith("OK ")
            assert session.pre_attack_snapshot == direct[3:]
            load_state(session.pre_attack_snapshot)  # decodes cleanly
        finally:
            session.close()

    def test_crashed_sut_fails_precondition(self, sim_factory, sutdb):
        server = sim_factory(SimConfig())
        raw_send_frames(server, "7df#0401")  # length 4 > 1 param byte: crash
        with pytest.raises(ExecutorError, match="sut_alive"):
            make_session(server, sutdb, [speed_read_case()])

    def test_closed_endpoint_is_a_connection_error(self, sim_factory, sutdb):
        server = sim_factory(SimConfig())
        with pytest.raises(ExecutorError, match="connect"):
            open_session(
                [speed_read_case()], sutdb,
                host="127.0.0.1",
                data_port=server.data_endpoint[1],
                mgmt_port=1,  # reserved port, nothing listens
            )


# -- single-case execution ----------------------------------------------


class TestExecuteFunctional:
    def test_speed_read_passes(self, sim_factory, sutdb, resources, registry):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "pass"
        assert len(result.step_log) == 2
        send, expect = result.step_log
        assert send.command == "cansend can0 7df#02010d"
        assert send.tx == ["7df#02010d"]
        assert send.rx == ["7e8#03410d32"]
        assert expect.met is True
        assert result.oracle_evaluation["pass_holds"] is True
        assert result.oracle_evaluation["fail_holds"] is False

    def test_two_buses_share_one_data_connection(self, sim_factory, sutdb,
                                                 resources, registry):
        """A case on a second item interface sends on the one data
        connection, and only the SUT database's bus word names it."""
        server = sim_factory(SimConfig())
        case = case_on("can0", "IF-CAN1")
        other_bus = case_on("can1", "IF-CAN1")
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
            refused = execute_case(other_bus, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "pass"
        send = result.step_log[0]
        assert send.command == "cansend can0 7df#02010d"
        assert send.rx == ["7e8#03410d32"]
        assert refused.verdict == "error"
        assert refused.error == "no interface module for bus 'can1'"

    def test_positive_write_case_passes(self, sim_factory, sutdb, resources,
                                         registry, pipeline_cases):
        server = sim_factory(SimConfig())
        case = pipeline_cases["func-pos-req-tc-sessbypass-if-can"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "pass"
        commands = [r.command for r in result.step_log if r.command]
        assert commands == [
            "cansend can0 7e0#021003",
            "seedkey can0 7e0 add_xor a5",
            "cansend can0 7e0#052ef190beef",
        ]
        assert result.oracle_evaluation["facts"]["unlock_achieved"] is True
        assert result.oracle_evaluation["facts"]["write_accepted"] is True

    def test_session_bypass_makes_negative_case_fail(self, sim_factory, sutdb,
                                                     resources, registry,
                                                     pipeline_cases):
        server = sim_factory(SimConfig())
        cases = pipeline_cases["func-neg-req-tc-sessbypass-if-can"]
        case = case_by_binding(cases, SESSION="0x02")
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "fail"
        write_step = result.step_log[1]
        assert write_step.command == "cansend can0 7e0#052ef190beef"
        # the unexpected positive response is right there in the log
        assert "7e8#036ef190" in write_step.rx
        assert result.step_log[-1].met is False
        assert result.oracle_evaluation["fail_holds"] is True

    def test_negative_case_passes_on_patched_build(self, sim_factory, sutdb,
                                                   resources, registry,
                                                   pipeline_cases):
        server = sim_factory(SimConfig().with_vulns(False))
        cases = pipeline_cases["func-neg-req-tc-sessbypass-if-can"]
        case = case_by_binding(cases, SESSION="0x02")
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "pass"
        assert "7e8#037f2e33" in result.step_log[1].rx

    @pytest.mark.parametrize("data, met, verdict", [("0100", True, "pass"),
                                                    ("02010d", False, "fail")],
                             ids=["undeclared-service", "speed-read"])
    def test_no_response_is_met_only_by_a_silent_frame(self, sim_factory, sutdb, resources,
                                                       registry, data, met, verdict):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        case.activities[0].bound_args["data"] = data
        case.activities[1] = BoundStep(kind="expect", name="NO_RESPONSE", script_ref=None,
                                       bound_args={})
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == verdict, result.error
        send, expect = result.step_log
        assert bool(send.rx) is not met
        assert expect.met is met and expect.rx == send.rx

    def test_locked_sessions_reject_the_write(self, sim_factory, sutdb, resources,
                                              registry, pipeline_cases):
        server = sim_factory(SimConfig())
        cases = pipeline_cases["func-neg-req-tc-sessbypass-if-can"]
        for binding in ("0x01", "0x03"):
            case = case_by_binding(cases, SESSION=binding)
            session = make_session(server, sutdb, [case])
            try:
                result = execute_case(case, session, resources, registry)
                restore(session)
            finally:
                session.close()
            assert result.verdict == "pass", binding


class TestExecutePenetration:
    def test_weak_key_chain_fails_the_sut(self, sim_factory, sutdb, resources,
                                          registry, pipeline_cases):
        server = sim_factory(SimConfig())
        case = pipeline_cases["pen-req-tc-weakkey-if-can-00"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "fail"
        seedkey_step = result.step_log[0]
        assert seedkey_step.command == "seedkey can0 7e0 weak_xor a5"
        assert seedkey_step.detail["unlocked"] is True
        assert result.oracle_evaluation["facts"]["unlock_achieved"] is True

    def test_weak_key_rejected_on_patched_build(self, sim_factory, sutdb,
                                                resources, registry,
                                                pipeline_cases):
        server = sim_factory(SimConfig().with_vulns(False))
        case = pipeline_cases["pen-req-tc-weakkey-if-can-00"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "pass"
        assert result.step_log[0].note == "key rejected"
        assert result.oracle_evaluation["facts"]["unlock_achieved"] is False

    def test_sut_without_security_access_grants_no_seed(self, sim_factory, sutdb,
                                                         resources, registry,
                                                         pipeline_cases):
        services = SimConfig().services - {0x27}
        server = sim_factory(SimConfig(services=services))
        case = pipeline_cases["pen-req-tc-weakkey-if-can-00"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        seedkey_step = result.step_log[0]
        assert seedkey_step.note == "no seed granted"
        assert seedkey_step.tx == ["7e0#022701"] and seedkey_step.rx == []
        assert seedkey_step.detail == {}
        assert result.oracle_evaluation["facts"]["unlock_achieved"] is False
        assert result.verdict == "pass"

    def test_empty_seed_reply_grants_no_seed(self, sim_factory, sutdb, resources, registry,
                                             pipeline_cases):
        server = sim_factory(SimConfig(), server_cls=EmptySeedReplyServer)
        case = pipeline_cases["pen-req-tc-weakkey-if-can-00"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        seedkey_step = result.step_log[0]
        assert seedkey_step.note == "no seed granted"
        assert seedkey_step.rx == ["7e8#"]
        assert result.verdict == "pass"


class EmptySeedReplyServer(SimServer):
    """Answers the seed request with a frame that carries no data."""

    def _handle_data_line(self, text: str) -> str:
        if text == "7e0#022701":
            return "7e8#\n"
        return super()._handle_data_line(text)


class ProbeDeafDumpServer(SimServer):
    """Answers tester present on the bus, but its state dumps describe an ECU
    that does not serve it."""

    def _handle_mgmt_line(self, text: str) -> str:
        if text.split(None, 1)[0].upper() == "DUMP":
            deaf = replace(self.state.config, services=self.state.config.services - {0x3E})
            return "OK " + dump_state(replace(self.state, config=deaf)) + "\n"
        return super()._handle_mgmt_line(text)


class TestExecuteFuzz:
    def test_campaign_state_deaf_to_the_probe_is_an_error(self, sim_factory, sutdb, resources,
                                                          registry, pipeline_cases):
        """Every probe of such a campaign would miss, and every window would
        report a frame of a live ECU as a reproduced trigger."""
        server = sim_factory(SimConfig(), server_cls=ProbeDeafDumpServer)
        case = pipeline_cases["fuzz-if-can"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert "does not answer the liveness probe" in result.error

    def test_length_bug_fails_the_fuzz_case(self, sim_factory, sutdb, resources,
                                            registry, pipeline_cases):
        server = sim_factory(SimConfig())
        case = pipeline_cases["fuzz-if-can"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
            cleanup = restore(session)
        finally:
            session.close()
        assert result.verdict == "fail"
        campaign = result.step_log[0]
        assert campaign.command == (
            "fuzz can0 budget=400 seed=1 probe_every=50 corpus=fuzz_corpus"
        )
        detail = campaign.detail
        assert detail["stats"]["frames_sent"] == 400
        assert detail["findings"], "expected at least one reproduced trigger"
        for doc in detail["findings"]:
            trigger = doc["trigger_input"]
            data = bytes.fromhex(trigger.split("#", 1)[1])
            assert data[0] > len(data) - 1
            assert doc["reproduced"] is True
            assert doc["minimized_input"] is not None
        # one input per bucket of findings, in first-seen order, went to the
        # live bus and killed it; campaign traffic never did
        buckets = detail["buckets"]
        minimized = [d["minimized_input"] for d in detail["findings"]]
        assert [b["minimized_input"] for b in buckets] == list(dict.fromkeys(minimized))
        assert [b["hits"] for b in buckets] == [minimized.count(b["minimized_input"])
                                                for b in buckets]
        assert [b["first_position"] for b in buckets] == [
            next(d["position"] for d in detail["findings"]
                 if d["minimized_input"] == b["minimized_input"])
            for b in buckets
        ]
        assert len(buckets) < len(detail["findings"])
        assert detail["confirmed_on_wire"] == [True] * len(buckets)
        assert campaign.tx == [b["minimized_input"] for b in buckets]
        # the SUT is back up afterwards: the tester-present step got through
        assert result.step_log[-1].met is True
        assert cleanup.verified is True

    def test_patched_build_passes_clean(self, sim_factory, sutdb, resources,
                                        registry, pipeline_cases):
        server = sim_factory(SimConfig().with_vulns(False))
        case = pipeline_cases["fuzz-if-can"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "pass"
        assert result.step_log[0].detail["findings"] == []
        assert result.oracle_evaluation["facts"]["fuzz_findings"] == 0


class TestExecuteVulnscan:
    def test_hidden_service_fails_the_scan_case(self, sim_factory, sutdb,
                                                resources, registry,
                                                pipeline_cases):
        server = sim_factory(SimConfig())
        case = pipeline_cases["vulnscan-item-demo-ecu"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "fail"
        scans = result.step_log[0].detail["scans"]
        assert [s["target"] for s in scans] == ["IF-CAN"]
        entry_ids = [f["entry_id"] for f in scans[0]["findings"]]
        assert entry_ids == ["VDB-HIDDEN-042"]
        assert "42" in scans[0]["fingerprint"]["supported_services"]

    def test_one_sweep_scans_every_target(self, sim_factory, sutdb, resources, registry,
                                          pipeline_cases):
        """Both targets are the one data connection: one fingerprint sweep,
        scanned once per target."""
        server = sim_factory(server_cls=FrameCountingServer)
        case = copy.deepcopy(pipeline_cases["vulnscan-item-demo-ecu"][0])
        case.environmental_needs.interfaces.append(
            CaseInterface("bus1", "diag", {"item_ref": "IF-DIAG"}))
        case.activities[0].bound_args["targets"] = "IF-CAN,IF-DIAG"
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "fail"
        # Liveness probes when the session opens, before the case and after
        # it, and one sweep: 48 ids, then 128 services on each of the 2 that
        # answer.
        assert server.frames == 3 + 48 + 2 * 128
        can, diag = result.step_log[0].detail["scans"]
        assert diag == {**can, "target": "IF-DIAG"}
        assert [f["entry_id"] for f in can["findings"]] == ["VDB-HIDDEN-042"]

    def test_patched_build_scans_clean(self, sim_factory, sutdb, resources,
                                       registry, pipeline_cases):
        server = sim_factory(SimConfig().with_vulns(False))
        case = pipeline_cases["vulnscan-item-demo-ecu"][0]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "pass"
        assert result.oracle_evaluation["facts"]["scan_findings"] == 0
        assert result.oracle_evaluation["facts"]["scan_ran"] is True


# -- error paths -----------------------------------------------------------


class TestErrorVerdicts:
    def test_crashed_sut_yields_error_with_zero_activities(self, sim_factory,
                                                           sutdb, resources,
                                                           registry):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        session = make_session(server, sutdb, [case])
        try:
            raw_send_frames(server, "7df#0401")
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert result.step_log == []
        assert "sut_alive" in result.error

    def test_missing_interface_module(self, sim_factory, sutdb, resources, registry,
                                      pipeline_cases):
        """A scan target must be an interface of its own case, whatever the
        other cases of the session declare."""
        server = sim_factory(SimConfig())
        ghost_env = case_on("can0", "IF-GHOST")
        case = copy.deepcopy(pipeline_cases["vulnscan-item-demo-ecu"][0])
        case.activities[0].bound_args["targets"] = "IF-CAN,IF-GHOST"
        session = make_session(server, sutdb, [ghost_env, case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert result.error == "vulnscan: the case declares no interface 'IF-GHOST'"
        assert result.step_log == []

    def test_unnamed_bus_is_infrastructure(self, sim_factory, sutdb, resources,
                                           registry):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        case.activities[0].bound_args["bus"] = "can9"
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert "no interface module for bus 'can9'" in result.error

    def test_database_without_a_bus_accepts_no_bus_word(self, sim_factory, sutdb, registry):
        """The SUT database's ``bus`` is the one bus word; a case that binds
        the slot itself cannot name one the database lacks."""
        no_bus = SutDatabase(sut_id=sutdb.sut_id, dictionaries={
            k: v for k, v in sutdb.dictionaries.items() if k != "bus"})
        server = sim_factory(SimConfig())
        case = speed_read_case()
        case.activities[0].bound_args["bus"] = "can0"
        session = make_session(server, no_bus, [case])
        try:
            result = execute_case(case, session, Resources(sutdb=no_bus), registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert result.error == "no interface module for bus 'can0'"
        assert result.step_log == []

    def test_unregistered_script_is_infrastructure(self, sim_factory, sutdb,
                                                   resources, registry):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        case.activities[0].script_ref = "no-such-script"
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert "no-such-script" in result.error

    def test_unknown_tool_word(self, sim_factory, sutdb, resources, tmp_path):
        (tmp_path / "hammer.json").write_text(json.dumps({
            "id": "hammer",
            "implements": "SEND_CAN_MSG",
            "command_template": "hammer {bus}",
            "param_schema": {},
            "sut_slots": ["bus"],
        }))
        registry = ScriptRegistry(tmp_path, PATTERNS)
        server = sim_factory(SimConfig())
        case = speed_read_case()
        case.activities = [
            BoundStep(kind="pattern", name="SEND_CAN_MSG",
                      script_ref="hammer", bound_args={})
        ]
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert "hammer" in result.error

    def test_sut_without_barrier_is_infrastructure(self, barrierless_sim, sutdb,
                                                   resources, registry):
        case = speed_read_case()
        case.environmental_needs.preconditions = []
        session = make_session(barrierless_sim, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert "did not answer the barrier" in result.error

    @pytest.mark.parametrize(
        "args, reason",
        [({"svc": "3e"}, "'svc'"), ({"service": "zz"}, "'zz'")],
        ids=["service-missing", "service-not-hex"],
    )
    def test_bad_expect_service_is_infrastructure(self, sim_factory, sutdb, resources,
                                                  registry, args, reason):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        case.activities[1].bound_args = args
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert "wants service=<hex byte>" in result.error and reason in result.error
        assert len(result.step_log) == 1, "the stimulus ran and is logged"

    @pytest.mark.parametrize(
        "slot, value, reason",
        [("phys_id", "800", "'800'"), ("seedkey_const", "1a5", "'1a5'")],
        ids=["phys-id-over-11-bits", "key-constant-over-a-byte"],
    )
    def test_bad_seedkey_argument_is_infrastructure(self, sim_factory, sutdb, resources,
                                                    registry, pipeline_cases, slot,
                                                    value, reason):
        # A SUT database cannot hold such a value (see test_tcg), so the
        # bad token comes from a hand-edited case that fills the slot itself.
        case = pipeline_cases["pen-req-tc-weakkey-if-can-00"][0]
        first = replace(case.activities[0], bound_args={slot: value})
        case = replace(case, activities=[first, *case.activities[1:]])
        server = sim_factory(SimConfig())
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert result.error.startswith("seedkey wants ") and reason in result.error
        assert result.step_log == []

    def test_stalled_scan_is_infrastructure(self, scan_stall_sim, sutdb, resources,
                                            registry, pipeline_cases):
        case = pipeline_cases["vulnscan-item-demo-ecu"][0]
        session = make_session(scan_stall_sim, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert scan_stall_sim.stalled, "the liveness probe passed, the sweep began"
        assert result.verdict == "error"
        assert "did not answer the barrier" in result.error

    @pytest.mark.parametrize(
        "args, reason",
        [({"id": "7df 7e0"}, "cansend: bad frame '7df 7e0#02010d'"),
         ({"bus": "", "id": "can0 7df"}, "no interface module for bus ''")],
        ids=["space-in-id", "empty-bus"],
    )
    def test_a_value_is_one_argument(self, sim_factory, sutdb, resources, registry,
                                     args, reason):
        """A value with a space stays in its word, and an empty one is still a
        word: neither moves another argument into its place."""
        server = sim_factory(SimConfig())
        case = speed_read_case()
        case.activities[0].bound_args.update(args)
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert reason in result.error
        assert result.step_log == []

    @pytest.mark.parametrize(
        "script_id, template, case_ref, reason",
        [("probe-tester-present", "probe {bus} extra", "fuzz-if-can",
          "probe wants '<bus>': too many positional arguments, got ['can0', 'extra']"),
         ("seedkey-weak-attack", "seedkey {bus} {phys_id} weak_xor",
          "pen-req-tc-weakkey-if-can-00",
          "seedkey wants '<bus> <phys_hex> <algorithm> <const_hex>': "
          "missing a required argument: 'const_hex', got ['can0', '7e0', 'weak_xor']"),
         ("fuzz-campaign",
          "fuzz {bus} budget={budget} seed={seed} probe_every={probe_every} {corpus}",
          "fuzz-if-can", "fuzz: expected key=value, got 'fuzz_corpus'")],
        ids=["word-too-many", "word-missing", "option-without-key"],
    )
    def test_hand_edited_template_is_an_error(self, sim_factory, sutdb, resources, tmp_path,
                                              samples_dir, pipeline_cases, script_id,
                                              template, case_ref, reason):
        registry = edited_registry(tmp_path, samples_dir, script_id, template)
        case = pipeline_cases[case_ref][0]
        server = sim_factory(SimConfig().with_vulns(False))
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "error"
        assert result.error == reason
        assert script_id not in [r.step.script_ref for r in result.step_log]


class TestBundledScripts:
    def test_every_script_fits_its_tool(self, registry, sutdb):
        """Each bundled template renders to a tool word and words that tool
        takes, so an edit that breaks one fails here, not in a demo."""
        for script in registry.scripts.values():
            args = {name: "1" for name in script.params}
            tool, *argv = render_command(script, args, sutdb.slot_values())
            handler = executor._CaseRun._TOOLS[tool]
            inspect.signature(handler).bind(None, None, *argv)


# -- restore ---------------------------------------------------------------


class TestRestore:
    def test_state_changing_case_restores_to_snapshot(self, sim_factory, sutdb,
                                                      resources, registry,
                                                      pipeline_cases):
        server = sim_factory(SimConfig())
        case = pipeline_cases["func-pos-req-tc-sessbypass-if-can"][0]
        session = make_session(server, sutdb, [case])
        try:
            execute_case(case, session, resources, registry)
            cleanup = restore(session)
            direct = raw_mgmt(server, "DUMP")
        finally:
            session.close()
        assert cleanup.restored and cleanup.verified
        assert direct[3:] == session.pre_attack_snapshot

    def test_crash_inducing_case_restores_to_alive(self, sim_factory, sutdb,
                                                   resources, registry):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        case.activities = [
            BoundStep(kind="pattern", name="SEND_CAN_MSG",
                      script_ref="cansend-frame",
                      bound_args={"id": "7df", "data": "0401"}),
        ]
        case.expected_results = ExpectedResults("sut.alive", "write.accepted")
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
            cleanup = restore(session)
            revived = session.probe_alive()
        finally:
            session.close()
        assert result.verdict == "inconclusive"  # neither condition holds
        assert result.oracle_evaluation["facts"]["final_probe_alive"] is False
        assert cleanup.restored and cleanup.verified
        assert revived is True

    def test_noop_case_restore_is_byte_identity(self, sim_factory, sutdb,
                                                resources, registry):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        session = make_session(server, sutdb, [case])
        try:
            execute_case(case, session, resources, registry)
            cleanup = restore(session)
        finally:
            session.close()
        assert asdict(cleanup) == {
            "restored": True,
            "verified": True,
            "detail": "",
        }

    def test_management_channel_down_is_flagged(self, sim_factory, sutdb):
        server = sim_factory(SimConfig())
        session = make_session(server, sutdb, [speed_read_case()])
        try:
            session.mgmt.client.sock.close()
            cleanup = restore(session)
        finally:
            session.close()
        assert cleanup.restored is False
        assert cleanup.verified is False
        assert cleanup.detail

    def test_reply_after_a_timeout_is_not_read_as_the_next(self, sim_factory, sutdb,
                                                         monkeypatch):
        monkeypatch.setattr(frames, "BARRIER_TIMEOUT", 0.1)
        server = sim_factory(server_cls=CountingLateLoadServer)
        session = make_session(server, sutdb, [speed_read_case()])
        try:
            timed_out = restore(session)
            assert server.answered_late.wait(2)
            after = restore(session)
        finally:
            session.close()
        assert asdict(timed_out) == {
            "restored": False, "verified": False,
            "detail": "SUT did not answer the barrier SYNC 2 within 0.1s",
        }
        assert asdict(after) == {"restored": True, "verified": True, "detail": ""}
        assert server.roles.count("mgmt") == 1


class LateLoadServer(SimServer):
    """Answers its first LOAD 0.3 s late."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answered_late = threading.Event()

    def _handle_mgmt_line(self, text: str) -> str:
        out = super()._handle_mgmt_line(text)
        if text.startswith("LOAD ") and not self.answered_late.is_set():
            time.sleep(0.3)
            self.answered_late.set()
        return out


class CountingLateLoadServer(LateLoadServer, ConnectionCountingServer):
    """Answers its first LOAD 0.3 s late, and lists the connections it serves."""


# -- determinism and serialization ---------------------------------------


class TestDeterminism:
    def run_twice(self, sim_factory, sutdb, resources, registry, case):
        server = sim_factory(SimConfig())
        session = make_session(server, sutdb, [case])
        try:
            first = execute_case(case, session, resources, registry)
            assert restore(session).verified
            second = execute_case(case, session, resources, registry)
            assert restore(session).verified
        finally:
            session.close()
        return first, second

    def test_functional_replay_is_identical(self, sim_factory, sutdb, resources,
                                            registry, pipeline_cases):
        cases = pipeline_cases["func-neg-req-tc-sessbypass-if-can"]
        case = case_by_binding(cases, SESSION="0x02")
        first, second = self.run_twice(sim_factory, sutdb, resources, registry, case)
        assert asdict(first) == asdict(second)
        assert first.verdict == "fail"

    def test_fuzz_replay_is_identical(self, sim_factory, sutdb, resources,
                                      registry, pipeline_cases):
        case = pipeline_cases["fuzz-if-can"][0]
        first, second = self.run_twice(sim_factory, sutdb, resources, registry, case)
        assert asdict(first) == asdict(second)
        assert first.verdict == "fail"


class TestResultSerialization:
    def test_round_trip(self, sim_factory, sutdb, resources, registry):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        doc = json.loads(json.dumps(asdict(result)))
        assert asdict(decode(Result, doc, "result", ValueError)) == doc

    def test_timing_is_separated_from_result_content(self, sim_factory, sutdb,
                                                     resources, registry):
        server = sim_factory(SimConfig())
        case = speed_read_case()
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        (timing,) = session.timing
        assert timing.case_ref == case.id
        assert timing.started_at and timing.duration_s >= 0
        assert len(timing.step_latencies_ms) == len(result.step_log)
        rendered = json.dumps(asdict(result))
        assert "started_at" not in rendered
        assert "latency" not in rendered

    def test_verdict_partition_enforced(self):
        with pytest.raises(ValueError, match="unknown verdict 'maybe'"):
            Result(
                case_ref="x", verdict="maybe", step_log=[], oracle_evaluation={},
                metadata=ResultMetadata(sut_id="s", tools={}, prng="p"),
            )


class TestConditionTable:
    BASE = {
        "expectations": [],
        "unlock_achieved": False,
        "write_accepted": False,
        "fuzz_findings": 0,
        "scan_ran": False,
        "scan_findings": 0,
        "final_probe_alive": True,
    }

    def facts(self, **overrides) -> dict:
        merged = dict(self.BASE)
        merged.update(overrides)
        return merged

    def test_expectation_conditions(self):
        assert CONDITIONS["all_expectations_met"](self.facts())
        assert not CONDITIONS["any_expectation_missed"](self.facts())
        met_and_missed = self.facts(expectations=[True, False])
        assert not CONDITIONS["all_expectations_met"](met_and_missed)
        assert CONDITIONS["any_expectation_missed"](met_and_missed)
        all_met = self.facts(expectations=[True, True])
        assert CONDITIONS["all_expectations_met"](all_met)

    def test_liveness_conditions(self):
        assert CONDITIONS["sut.alive"](self.facts())
        assert not CONDITIONS["sut.crashed"](self.facts())
        dead = self.facts(final_probe_alive=False)
        assert not CONDITIONS["sut.alive"](dead)
        assert CONDITIONS["sut.crashed"](dead)
        fuzzed = self.facts(fuzz_findings=2)
        assert not CONDITIONS["sut.alive"](fuzzed)
        assert CONDITIONS["sut.crashed"](fuzzed)

    def test_access_conditions(self):
        assert CONDITIONS["unlock.achieved"](self.facts(unlock_achieved=True))
        assert not CONDITIONS["unlock.achieved"](self.facts())
        assert CONDITIONS["write.accepted"](self.facts(write_accepted=True))

    def test_scan_conditions_require_a_scan(self):
        assert not CONDITIONS["scan.clean"](self.facts())
        assert not CONDITIONS["scan.findings"](self.facts())
        assert CONDITIONS["scan.clean"](self.facts(scan_ran=True))
        assert CONDITIONS["scan.findings"](self.facts(scan_ran=True, scan_findings=1))

    def test_unknown_condition(self):
        with pytest.raises(TcgError, match="unknown oracle condition 'moon.phase'"):
            ExpectedResults("moon.phase", "any_expectation_missed")


class TestOneVocabulary:
    """A name added to the vocabulary tables validates and executes."""

    SCENARIO = """
    scenario "read-speed-pid" {
      meta { method: "functional" requirement_ref: "REQ-SPEED" }
      env { interface bus canlike item_ref="IF-CAN" }
      steps {
        pattern SEND_CAN_MSG(id="7df", data=0x02010d)
        expect PID_RESPONSE(service=0x01)
      }
      oracle {
        pass: speed.read
        fail: any_expectation_missed
      }
    }
    """

    def test_added_matcher_and_condition(self, monkeypatch, sim_factory, sutdb,
                                         resources, registry):
        # positive reply to the service, echoing PID 0x0d
        monkeypatch.setitem(
            vocabulary.MATCHERS, "PID_RESPONSE",
            lambda service: bytes([(service + 0x40) & 0xFF, 0x0D]),
        )
        monkeypatch.setitem(
            vocabulary.CONDITIONS, "speed.read",
            lambda facts: facts["expectations"] == [True],
        )
        scenario = parse_scenario(self.SCENARIO)
        assert validate(scenario) == []
        assert CONDITIONS["speed.read"]({"expectations": [True]})
        assert not CONDITIONS["speed.read"]({"expectations": [False]})

        (case,) = generate_cases(scenario, sutdb, registry)
        server = sim_factory(SimConfig())
        session = make_session(server, sutdb, [case])
        try:
            result = execute_case(case, session, resources, registry)
        finally:
            session.close()
        assert result.verdict == "pass", result.error
        assert result.step_log[1].met is True
        assert result.oracle_evaluation["pass_holds"] is True


class TestStateTransport:
    def test_fork_does_not_touch_the_origin(self):
        state = EcuState(config=SimConfig())
        transport = StateTransport(state)
        transport.send(Frame(0x7DF, bytes([0x04, 0x01])))  # crash the fork
        assert transport.alive() is False
        assert state.alive is True
        transport.restore()
        assert transport.alive() is True

    def test_restore_undoes_a_did_write(self):
        transport = StateTransport(EcuState(config=SimConfig()))
        assert transport.send(Frame(0x7DF, bytes.fromhex("021002"))) == 1
        assert transport.send(Frame(0x7DF, bytes.fromhex("052ef190be3f"))) == 1
        assert transport.state.data_ids == {0xF190: bytes.fromhex("be3f")}
        transport.restore()
        assert transport.state.data_ids == {}

    # For each field of an ECU state, a value other than a fresh state's.
    CHANGED = {"config": SimConfig().with_vulns(False), "session": 0x03, "locked": False,
               "last_seed": (0x13, 0x7A), "seed_counter": 1, "alive": False,
               "data_ids": {0xF190: bytes.fromhex("be3f")}}

    @pytest.mark.parametrize("name", [f.name for f in fields(EcuState)])
    def test_held_outcomes_key_on_every_field(self, name):
        """Outcomes that differ in one field are held apart; equal ones,
        with equal but distinct ``data_ids`` dicts, are one object."""
        base = EcuState()
        other = replace(base, **{name: self.CHANGED[name]})
        transport = StateTransport(base)
        held = transport._intern(base, 1)
        apart = transport._intern(other, 1)
        assert apart[0] is other and held[0] is base
        assert transport._intern(replace(base, data_ids=dict(base.data_ids)), 1) is held
        assert transport._intern(replace(other, data_ids=dict(other.data_ids)), 1) is apart
        assert transport._intern(base, 0) is not held


class TestDataChannel:
    def test_undecodable_reply_counts_as_no_reply(self):
        """Bytes that are not UTF-8 fail frame parsing instead of escaping."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)

        def serve() -> None:
            conn, _ = listener.accept()
            with conn:
                received = b""
                while b"SYNC 1\n" not in received:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    received += chunk
                conn.sendall(b"\xff\xfe#00\nSYNCED 1\n")
                conn.recv(1)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        channel = DataChannel(*listener.getsockname())
        try:
            assert channel.collect(Frame(0x7DF, bytes([0x01, 0x3E]))) == []
        finally:
            channel.close()
            server.join(timeout=2)
            listener.close()
        assert not server.is_alive()
