"""Behaviour of the virtual ECU, checked against the documented protocol."""

from __future__ import annotations

import base64
import dataclasses
import inspect
import itertools
import json
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import closing
from dataclasses import MISSING, FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecuforge import frames, vocabulary
from vecuforge.frames import ExecutorError, Frame, FrameError, parse_line
from vecuforge.simulator import (
    EcuState,
    SimConfig,
    SimServer,
    dump_state,
    handle_frame,
    load_state,
    official_key,
    seed_for_counter,
    weak_key,
)


def run(state: EcuState, *lines: str) -> tuple[EcuState, list[str]]:
    """Feed wire lines through the pure transition, collect response lines."""
    out: list[str] = []
    for line in lines:
        state, responses = handle_frame(state, parse_line(line))
        out.extend(r.to_line() for r in responses)
    return state, out


def fresh(**overrides) -> EcuState:
    return EcuState(config=SimConfig(**overrides))


class TestFrameCodec:
    def test_parse_roundtrip(self):
        f = parse_line("7df#02010d")
        assert f == Frame(0x7DF, bytes.fromhex("02010d"))
        assert f.to_line() == "7df#02010d"

    def test_uppercase_accepted_canonical_lower(self):
        assert parse_line("7DF#02010D").to_line() == "7df#02010d"

    @pytest.mark.parametrize("bad", ["", "7df", "7df#0", "xyz#00", "7df#02010d010203040506", "fff1#00"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(FrameError):
            parse_line(bad)

    def test_empty_payload_ok(self):
        assert parse_line("7e0#").data == b""


class TestReadAndPresence:
    def test_speed_read(self):
        _, out = run(fresh(), "7df#02010d")
        assert out == ["7e8#03410d32"]

    def test_speed_read_physical_id(self):
        _, out = run(fresh(), "7e0#02010d")
        assert out == ["7e8#03410d32"]

    def test_speed_read_configured_speed(self):
        _, out = run(fresh(speed=0x55), "7df#02010d")
        assert out == ["7e8#03410d55"]

    def test_tester_present(self):
        _, out = run(fresh(), "7df#013e")
        assert out == ["7e8#017e"]

    def test_unknown_request_id_silent(self):
        _, out = run(fresh(), "123#02010d")
        assert out == []

    def test_unknown_pid_negative(self):
        _, out = run(fresh(), "7df#020100")
        assert out == ["7e8#037f0112"]

    def test_unknown_service_silent(self):
        _, out = run(fresh(), "7df#0155")
        assert out == []

    def test_disabled_service_silent(self):
        state = fresh(services=frozenset({0x3E}))
        _, out = run(state, "7df#02010d")
        assert out == []

    def test_empty_payload_silent(self):
        _, out = run(fresh(), "7df#")
        assert out == []

    def test_zero_length_silent(self):
        _, out = run(fresh(), "7df#00")
        assert out == []


class TestSessionControl:
    @pytest.mark.parametrize("ss", ["01", "02", "03"])
    def test_valid_sessions(self, ss):
        state, out = run(fresh(), f"7df#0210{ss}")
        assert out == [f"7e8#0250{ss}"]
        assert state.session == int(ss, 16)

    def test_invalid_session_value(self):
        state, out = run(fresh(), "7df#021004")
        assert out == ["7e8#037f1012"]
        assert state.session == 0x01

    def test_wrong_arg_count(self):
        _, out = run(fresh(), "7df#0110")
        assert out == ["7e8#037f1013"]


class TestSecurityAccess:
    def test_seed_request_shape(self):
        state, out = run(fresh(), "7df#022701")
        assert len(out) == 1
        line = out[0]
        assert line.startswith("7e8#046701")
        assert len(line) == len("7e8#") + 10
        assert state.last_seed == seed_for_counter(0)
        assert state.seed_counter == 1

    def test_seed_sequence_advances(self):
        state, out = run(fresh(), "7df#022701", "7df#022701")
        assert out[0] != out[1]
        assert state.seed_counter == 2

    def test_official_key_unlocks_always(self):
        for v1 in (True, False):
            state, _ = run(fresh(v1_weak_key=v1), "7df#022701")
            k1, k2 = official_key(state.last_seed, state.config.key_const)
            state, out = run(state, f"7df#042702{k1:02x}{k2:02x}")
            assert out == ["7e8#026702"]
            assert state.locked is False

    def test_weak_key_unlocks_only_with_v1(self):
        state, _ = run(fresh(v1_weak_key=True), "7df#022701")
        k1, k2 = weak_key(state.last_seed, state.config.key_const)
        state, out = run(state, f"7df#042702{k1:02x}{k2:02x}")
        assert out == ["7e8#026702"]
        assert not state.locked

        state, _ = run(fresh(v1_weak_key=False), "7df#022701")
        k1, k2 = weak_key(state.last_seed, state.config.key_const)
        state, out = run(state, f"7df#042702{k1:02x}{k2:02x}")
        assert out == ["7e8#037f2735"]
        assert state.locked

    def test_key_before_seed_rejected(self):
        _, out = run(fresh(), "7df#0427020000")
        assert out == ["7e8#037f2724"]

    def test_bad_subfunction(self):
        _, out = run(fresh(), "7df#022703")
        assert out == ["7e8#037f2712"]

    @given(counter=st.integers(min_value=0, max_value=255), const=st.integers(min_value=0, max_value=255))
    def test_weak_never_equals_official(self, counter, const):
        seed = seed_for_counter(counter)
        assert weak_key(seed, const) != official_key(seed, const)

    @pytest.mark.parametrize("const", [0x00, 0xA5, 0xFF])
    def test_tester_derivations_equal_the_sut_s(self, const):
        """The tester derives keys with its own code; on every seed it agrees
        with the SUT's derivation of the same name."""
        tester = vocabulary.SEEDKEY_ALGORITHMS
        seeds = list(itertools.product(range(256), repeat=2))
        assert [s for s in seeds if tester["add_xor"](s, const) != official_key(s, const)] == []
        assert [s for s in seeds if tester["weak_xor"](s, const) != weak_key(s, const)] == []


def unlock(state: EcuState) -> EcuState:
    state, _ = run(state, "7df#022701")
    k1, k2 = official_key(state.last_seed, state.config.key_const)
    state, out = run(state, f"7df#042702{k1:02x}{k2:02x}")
    assert out == ["7e8#026702"]
    return state


class TestWriteDataId:
    def test_write_needs_session_and_unlock(self):
        _, out = run(fresh(), "7df#052ef190be3f")
        assert out == ["7e8#037f2e33"]

    def test_write_session3_still_locked(self):
        state, _ = run(fresh(), "7df#021003")
        _, out = run(state, "7df#052ef190be3f")
        assert out == ["7e8#037f2e33"]

    def test_write_unlocked_wrong_session(self):
        state = unlock(fresh())
        _, out = run(state, "7df#052ef190be3f")
        assert out == ["7e8#037f2e33"]

    def test_write_accepted_when_authorized(self):
        state, _ = run(unlock(fresh()), "7df#021003")
        state, out = run(state, "7df#052ef190be3f")
        assert out == ["7e8#036ef190"]
        assert state.data_ids[0xF190] == bytes.fromhex("be3f")

    def test_session2_bypass_with_v2(self):
        state, _ = run(fresh(v2_session_bypass=True), "7df#021002")
        state, out = run(state, "7df#052ef190be3f")
        assert out == ["7e8#036ef190"]
        assert state.locked, "bypass writes without ever unlocking"

    def test_session2_denied_without_v2(self):
        state, _ = run(fresh(v2_session_bypass=False), "7df#021002")
        _, out = run(state, "7df#052ef190be3f")
        assert out == ["7e8#037f2e33"]

    def test_short_write_negative(self):
        state, _ = run(unlock(fresh()), "7df#021003")
        _, out = run(state, "7df#022ef1")
        assert out == ["7e8#037f2e13"]


class TestLengthDefect:
    def test_overlong_length_crashes_with_v3(self):
        state, out = run(fresh(v3_length_crash=True), "7df#07013e")
        assert out == []
        assert state.alive is False

    def test_crash_is_absorbing(self):
        state, _ = run(fresh(), "7df#07013e")
        state, out = run(state, "7df#013e", "7df#02010d")
        assert out == []
        assert state.alive is False

    def test_overlong_length_negative_without_v3(self):
        state, out = run(fresh(v3_length_crash=False), "7df#07013e")
        assert out == ["7e8#037f0013"]
        assert state.alive

    def test_exact_length_fine(self):
        state, out = run(fresh(), "7df#013e")
        assert out == ["7e8#017e"]
        assert state.alive

    @given(st.binary(min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_no_crash_possible_with_v3_off(self, payload):
        state, _ = handle_frame(EcuState(config=SimConfig(v3_length_crash=False)), Frame(0x7DF, payload))
        assert state.alive


class TestHiddenService:
    def test_answers_with_v4(self):
        _, out = run(fresh(v4_hidden_service=True), "7df#0142")
        assert out == ["7e8#026242"]

    def test_silent_without_v4(self):
        _, out = run(fresh(v4_hidden_service=False), "7df#0142")
        assert out == []


class TestStateSerialization:
    def test_dump_load_identity(self):
        state, _ = run(fresh(), "7df#021003", "7df#022701")
        state = unlock(state)
        blob = dump_state(state)
        assert dump_state(load_state(blob)) == blob

    def test_loaded_state_behaves_identically(self):
        state, _ = run(fresh(), "7df#021002")
        twin = load_state(dump_state(state))
        script = ["7df#052ef190be3f", "7df#022701", "7df#02010d"]
        _, out_a = run(state, *script)
        _, out_b = run(twin, *script)
        assert out_a == out_b

    @pytest.mark.parametrize("value", ["BE EF", 48879], ids=["spaced", "int"])
    def test_data_id_value_only_as_dump_writes_it(self, value):
        doc = dump_with("data_ids", {"f190": value})
        with pytest.raises(ValueError, match="data_ids value must be lowercase hex bytes"):
            load_state(base64.b64encode(doc.encode()).decode())

    def test_written_data_id_round_trips(self):
        state, _ = run(unlock(fresh()), "7df#021003", "7df#052ef190be3f")
        assert load_state(dump_state(state)).data_ids[0xF190] == bytes.fromhex("be3f")

    def test_dump_reflects_crash(self):
        state, _ = run(fresh(), "7df#07013e")
        assert load_state(dump_state(state)).alive is False

    @given(
        st.lists(
            st.sampled_from(
                ["7df#013e", "7df#02010d", "7df#021002", "7df#021003",
                 "7df#022701", "7df#0427020000", "7df#0142", "7df#052ef190be3f"]
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100)
    def test_replay_determinism(self, script):
        _, out_a = run(fresh(), *script)
        _, out_b = run(fresh(), *script)
        assert out_a == out_b


FRAMES = st.one_of(
    st.sampled_from(
        ["7df#013e", "7df#02010d", "7df#021002", "7df#021003", "7df#022701",
         "7df#0427020000", "7df#0142", "7df#052ef190be3f", "7e0#052ef191aa", "7df#07013e"]
    ).map(parse_line),
    st.builds(Frame, st.sampled_from([0x7DF, 0x7E0, 0x123]), st.binary(max_size=8)),
)


class TestStatesAreValues:
    def test_state_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            fresh().session = 0x03

    @given(vulns=st.booleans(), script=st.lists(FRAMES, max_size=16))
    @settings(max_examples=200)
    def test_handle_frame_never_changes_its_input(self, vulns, script):
        """Restoring by reference relies on this: a kept state stays a snapshot."""
        state = EcuState(config=SimConfig().with_vulns(vulns))
        for frame in script:
            before = dump_state(state)
            nxt, _ = handle_frame(state, frame)
            assert dump_state(state) == before
            state = nxt

    @given(vulns=st.booleans(), script=st.lists(FRAMES, max_size=16))
    @settings(max_examples=200)
    def test_changing_a_returned_list_changes_no_later_reply(self, vulns, script):
        """Replies may be shared frames, but each call returns a list of its own."""
        start = EcuState(config=SimConfig().with_vulns(vulns))

        def replies(meddle: bool) -> list[list[str]]:
            state, out = start, []
            for frame in script:
                state, responses = handle_frame(state, frame)
                out.append([r.to_line() for r in responses])
                if meddle:
                    responses.append(Frame(0x7E8, bytes([0x01, 0x00])))
                    responses.pop(0)
            return out

        assert replies(meddle=True) == replies(meddle=False) == replies(meddle=False)


# One value per class with a hand-written constructor, each field away from
# its default, and for each field a second value to put there.
BUILT = {
    Frame: (Frame(0x7DF, bytes.fromhex("021003")), {"id": 0x7E0, "data": b""}),
    EcuState: (
        EcuState(SimConfig().with_vulns(False), 0x03, False, (0x13, 0x7A), 1, False,
                 {0xF190: bytes.fromhex("be3f")}),
        {"config": SimConfig(), "session": 0x02, "locked": True, "last_seed": None,
         "seed_counter": 2, "alive": True, "data_ids": {}},
    ),
}


class TestHandWrittenConstructors:
    """``Frame`` and ``EcuState`` build themselves in one step; the rest of
    each class is the dataclass's own."""

    @pytest.mark.parametrize("cls", list(BUILT), ids=lambda cls: cls.__name__)
    def test_signature_is_the_field_list(self, cls):
        params = inspect.signature(cls).parameters
        assert list(params) == [f.name for f in dataclasses.fields(cls)]
        for f in dataclasses.fields(cls):
            if f.default_factory is not MISSING:
                # Left out, it is the factory's value, made afresh.
                assert params[f.name].default is None
            elif f.default is MISSING:
                assert params[f.name].default is inspect.Parameter.empty
            else:
                assert params[f.name].default == f.default

    def test_left_out_fields_are_the_factories_values(self):
        first, second = EcuState(), EcuState()
        assert first.config == SimConfig() and first.data_ids == {}
        assert first.data_ids is not second.data_ids
        assert Frame(0x7DF).data == b""

    @pytest.mark.parametrize("cls", list(BUILT), ids=lambda cls: cls.__name__)
    def test_every_field_is_frozen(self, cls):
        value, _ = BUILT[cls]
        assert not hasattr(value, "__dict__")
        for f in dataclasses.fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(value, f.name)

    @pytest.mark.parametrize("cls", list(BUILT), ids=lambda cls: cls.__name__)
    def test_replace_round_trips(self, cls):
        value, others = BUILT[cls]
        assert dataclasses.replace(value) == value
        assert list(others) == [f.name for f in dataclasses.fields(cls)]
        for name, other in others.items():
            changed = dataclasses.replace(value, **{name: other})
            assert getattr(changed, name) == other and changed != value
            assert dataclasses.replace(changed, **{name: getattr(value, name)}) == value

    @pytest.mark.parametrize("args, message", [
        ((0x800,), "frame id 0x800 exceeds 11 bits"),
        ((-1,), "frame id -0x1 exceeds 11 bits"),
        ((0x7DF, bytes(9)), "frame data is 9 bytes, max is 8"),
    ], ids=["id", "negative-id", "data"])
    def test_frame_checks_its_fields(self, args, message):
        with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
            Frame(*args)
        with pytest.raises(FrameError):
            dataclasses.replace(Frame(0x7DF), **dict(zip(("id", "data"), args)))


def dump_with(path: str, value) -> str:
    """The JSON of a fresh ECU's dump with one field, dotted path, replaced."""
    doc = json.loads(base64.b64decode(dump_state(fresh())))
    *parents, key = path.split(".")
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    return json.dumps(doc)


def read_lines(sock: socket.socket, count: int) -> list[str]:
    """Read a plain socket until ``count`` whole lines have come; every line
    read, a partial one included. A line that does not come within 2 s
    fails the test."""
    sock.settimeout(2.0)
    buf = b""
    while buf.count(b"\n") < count:
        chunk = sock.recv(65536)
        assert chunk, "the SUT closed the connection"
        buf += chunk
    return buf.decode().splitlines()


@pytest.fixture()
def server():
    srv = SimServer(SimConfig()).start()
    yield srv
    srv.stop()


class TestSocketServer:
    def test_data_roundtrip(self, server):
        with closing(frames.LineClient(*server.data_endpoint)) as c:
            assert c.exchange(["7df#02010d"]) == [["7e8#03410d32"]]

    def test_stop_does_not_wait_out_a_poll(self):
        # A few milliseconds after a reply the loop is back in its wait: stop
        # must end that wait at once. The fastest of three stops rules out a
        # slow machine.
        took = []
        for _ in range(3):
            srv = SimServer(SimConfig()).start()
            client = frames.LineClient(*srv.data_endpoint)
            assert client.exchange(["7df#013e"]) == [["7e8#017e"]]
            time.sleep(0.005)
            started = time.monotonic()
            srv.stop()
            took.append(time.monotonic() - started)
            client.close()
        assert min(took) < 0.02

    def test_stop_waits_for_a_connection_its_client_just_closed(self):
        # The client's close leaves that connection's thread ending while
        # ``stop`` runs; ``stop`` must still wait for it.
        def sim_threads() -> set[threading.Thread]:
            return {t for t in threading.enumerate() if t.name == "sut-sim"}

        before = sim_threads()
        for _ in range(200):
            srv = SimServer(SimConfig()).start()
            client = frames.LineClient(*srv.data_endpoint)
            assert client.exchange(["7df#013e"]) == [["7e8#017e"]]
            client.close()
            srv.stop()
            assert not sim_threads() - before

    def test_second_stop_does_nothing(self):
        # A ``finally`` may stop a server that its stage already stopped.
        srv = SimServer(SimConfig()).start()
        endpoint = srv.data_endpoint
        srv.stop()
        srv.stop()
        with pytest.raises(frames.ExecutorError, match="SUT unreachable"):
            frames.LineClient(*endpoint)

    def test_mgmt_dump_load_reset(self, server):
        data = frames.LineClient(*server.data_endpoint)
        mgmt = frames.LineClient(*server.mgmt_endpoint)
        try:
            ((before,),) = mgmt.exchange(["DUMP"])
            assert before.startswith("OK ")

            assert data.exchange(["7df#021003"]) == [["7e8#025003"]]

            ((after,),) = mgmt.exchange(["DUMP"])
            assert after != before

            assert mgmt.exchange([f"LOAD {before.split(' ', 1)[1]}", "DUMP"]) == [
                ["OK"], [before]]
            assert mgmt.exchange(["RESET", "DUMP"]) == [["OK"], [before]]
        finally:
            data.close()
            mgmt.close()

    def test_mgmt_errors(self, server):
        with closing(frames.LineClient(*server.mgmt_endpoint)) as mgmt:
            (unknown,), (bad_blob,) = mgmt.exchange(["FROB", "LOAD notbase64!!"])
        assert unknown == "ERR unknown command"
        assert bad_blob.startswith("ERR bad state blob")

    def test_mgmt_answers_the_barrier(self, server):
        """Each management command ends on its own barrier, as a frame does."""
        with closing(frames.LineClient(*server.mgmt_endpoint)) as mgmt:
            (dump,), reset = mgmt.exchange(["DUMP", "RESET"])
        assert dump.startswith("OK ")
        assert reset == ["OK"]

    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            "null",
            dump_with("data_ids", []),
            "[" * 100_000,
            dump_with("seed_counter", "x"),
            dump_with("session", "01"),
            dump_with("locked", 0),
            dump_with("alive", "yes"),
            dump_with("config.v3", 1),
            dump_with("config.speed", 0x100),
            dump_with("config.speed", True),
            dump_with("config.key_const", -1),
            dump_with("config.services", "3e"),
            dump_with("config.services", [True]),
            dump_with("config.services", [256]),
            dump_with("last_seed", [0x13]),
            dump_with("last_seed", [0x13, "7a"]),
            dump_with("last_seed", [0x13, 0x17A]),
            dump_with("last_seed", "137a"),
            dump_with("session", 999),
            dump_with("session", -1),
            dump_with("data_ids", {"10000": "00"}),
            dump_with("seed_counter", -1),
            dump_with("data_ids", {"0x1_0": "00"}),
            dump_with("data_ids", {" +22 ": "00"}),
            dump_with("data_ids", {"f190": "BE EF"}),
            dump_with("data_ids", {"f190": "BEEF"}),
            dump_with("data_ids", {"f190": "bee"}),
            dump_with("data_ids", {"f190": 48879}),
        ],
        ids=[
            "list", "null", "data-ids-list", "deeply-nested",
            "seed-counter-str", "session-str", "locked-int", "alive-str", "v3-int",
            "speed-over-byte", "speed-bool", "key-const-negative",
            "services-str", "services-bool", "services-over-byte",
            "last-seed-one-byte", "last-seed-str-byte", "last-seed-over-byte",
            "last-seed-str", "session-999", "session-negative", "data-id-over-16-bits",
            "seed-counter-negative", "data-id-prefixed", "data-id-padded",
            "data-value-spaced", "data-value-uppercase", "data-value-odd-digits",
            "data-value-int",
        ],
    )
    def test_malformed_state_blob_keeps_serving(self, server, doc):
        mgmt = frames.LineClient(*server.mgmt_endpoint)
        data = frames.LineClient(*server.data_endpoint)
        try:
            (refused,), (dump,) = mgmt.exchange(
                ["LOAD " + base64.b64encode(doc.encode()).decode(), "DUMP"])
            assert refused.startswith("ERR bad state blob")
            assert dump.startswith("OK ")
            ((reply,),) = data.exchange(["7df#022701"])
            assert reply.startswith("7e8#046701")
        finally:
            mgmt.close()
            data.close()

    def test_crash_then_reset_over_wire(self, server):
        data = frames.LineClient(*server.data_endpoint)
        mgmt = frames.LineClient(*server.mgmt_endpoint)
        try:
            assert data.exchange(["7df#07013e", "7df#013e"]) == [[], []]
            assert mgmt.exchange(["RESET"]) == [["OK"]]
            assert data.exchange(["7df#013e"]) == [["7e8#017e"]]
        finally:
            data.close()
            mgmt.close()

    def test_line_that_is_no_frame_gets_no_reply(self, server):
        client = frames.LineClient(*server.data_endpoint)
        try:
            # Not a frame line, an id above 11 bits, nine data bytes.
            assert client.exchange(["hello", "800#01", "7df#" + "00" * 9, "7df#013e"]) == [
                [], [], [], ["7e8#017e"],
            ]
        finally:
            client.close()

    def test_handler_fault_closes_only_its_own_connection(self, monkeypatch):
        faults = []
        monkeypatch.setattr(threading, "excepthook", faults.append)
        srv = FaultyHandlerServer(SimConfig()).start()
        faulty, other = (frames.DataChannel(*srv.data_endpoint) for _ in range(2))
        mgmt = frames.LineClient(*srv.mgmt_endpoint)
        present, present_reply = Frame(0x7DF, b"\x01\x3e"), [Frame(0x7E8, b"\x01\x7e")]
        try:
            started = time.monotonic()
            with pytest.raises(frames.ConnectionLost):
                faulty.collect(Frame(0x7DF, b"\x01\x42"))
            assert time.monotonic() - started < frames.BARRIER_TIMEOUT / 4
            ((dump,),) = mgmt.exchange(["DUMP"])
            assert dump.startswith("OK ")
            assert other.collect(present) == present_reply
            with closing(frames.DataChannel(*srv.data_endpoint)) as new:
                assert new.collect(present) == present_reply
        finally:
            for client in (faulty, other, mgmt):
                client.close()
            srv.stop()
        assert [str(fault.exc_value) for fault in faults] == ["handler fault"]

    def test_connection_reset_by_its_peer_is_no_fault(self, monkeypatch):
        faults = []
        monkeypatch.setattr(threading, "excepthook", faults.append)
        srv = SimServer(SimConfig()).start()
        try:
            peer = socket.create_connection(srv.data_endpoint)
            peer.sendall(b"7df#013e\n")
            # A zero linger time makes close send a reset, not a FIN.
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            peer.close()
            with closing(frames.LineClient(*srv.data_endpoint)) as client:
                assert client.exchange(["7df#013e"]) == [["7e8#017e"]]
        finally:
            srv.stop()
        assert faults == []

    def test_concurrent_connections_lose_no_transition(self, server):
        # Every seed request advances the seed counter by one. Connections
        # that read and replace the state outside the lock would lose some.
        clients, requests = 8, 500
        answered: list[int] = []

        def request_seeds():
            client = frames.LineClient(*server.data_endpoint)
            try:
                replies = client.exchange(["7df#022701"] * requests)
                answered.append(sum(reply[0].startswith("7e8#046701") for reply in replies))
            finally:
                client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=request_seeds) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answered == [requests] * clients
        assert server.state.seed_counter == clients * requests


class FaultyHandlerServer(SimServer):
    """Raises from its data handler on the undocumented-service request."""

    def _handle_data_line(self, text: str) -> str:
        if text == "7df#0142":
            raise RuntimeError("handler fault")
        return super()._handle_data_line(text)


class SlowSpeedServer(SimServer):
    """Holds its reply to the speed request back for 0.2 s."""

    def _handle_data_line(self, text: str) -> str:
        out = super()._handle_data_line(text)
        if text == "7df#02010d":
            time.sleep(0.2)
        return out


class TestBarrier:
    def test_sync_answered_after_the_replies_before_it(self, server):
        with socket.create_connection(server.data_endpoint) as sock:
            sock.sendall(b"7df#02010d\nSYNC 5\n7df#013e\nSYNC 6\n")
            assert read_lines(sock, 4) == [
                "7e8#03410d32", "SYNCED 5", "7e8#017e", "SYNCED 6",
            ]

    def test_mgmt_sync_answered_after_the_reply_before_it(self, server):
        with socket.create_connection(server.mgmt_endpoint) as sock:
            sock.sendall(b"RESET\nSYNC 5\nFROB\nSYNC 6\n")
            assert read_lines(sock, 4) == [
                "OK", "SYNCED 5", "ERR unknown command", "SYNCED 6",
            ]

    def test_lines_split_across_writes_answered_in_order(self, server):
        probes = ["7df#02010d", "7df#013e", "7df#0142", "7df#021003", "7df#022701",
                  "7e0#02010d", "7df#0199"]
        state, sent, expected = fresh(), [], []
        for n in range(2000):
            probe = probes[n % len(probes)]
            state, replies = run(state, probe)
            sent.append(probe)
            expected.extend(replies)
            if n % 50 == 49:
                sent.append(f"SYNC {n}")
                expected.append(f"SYNCED {n}")
        wire = "".join(line + "\n" for line in sent).encode()
        with socket.create_connection(server.data_endpoint) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for at in range(0, len(wire), 7):
                sock.sendall(wire[at:at + 7])
            assert read_lines(sock, len(expected)) == expected

    def test_crashed_ecu_still_answers_the_barrier(self, server):
        with socket.create_connection(server.data_endpoint) as sock:
            sock.sendall(b"7df#07013e\n7df#013e\nSYNC 1\n")
            assert read_lines(sock, 1) == ["SYNCED 1"]

    def test_exchange_gives_each_line_its_own_replies(self, server):
        client = frames.LineClient(*server.data_endpoint)
        try:
            assert client.exchange(["7df#02010d", "7df#0142", "7df#013e"]) == [
                ["7e8#03410d32"], ["7e8#026242"], ["7e8#017e"],
            ]
        finally:
            client.close()

    def test_exchange_drops_replies_of_an_aborted_exchange(self, monkeypatch):
        srv = SlowSpeedServer(SimConfig()).start()
        client = frames.LineClient(*srv.data_endpoint)
        try:
            monkeypatch.setattr(frames, "BARRIER_TIMEOUT", 0.05)
            with pytest.raises(ExecutorError, match="did not answer the barrier"):
                client.exchange(["7df#02010d"])
            monkeypatch.setattr(frames, "BARRIER_TIMEOUT", 2.0)
            assert client.exchange(["7df#013e"]) == [["7e8#017e"]]
        finally:
            client.close()
            srv.stop()


class TestLineClient:
    def test_connecting_to_an_ascii_host_imports_no_idna_codec(self):
        """``getaddrinfo`` IDNA-encodes a str host, which imports
        ``encodings.idna``, ``stringprep`` and ``unicodedata`` on a
        process's first connection."""
        script = (
            "import socket, sys\n"
            "from vecuforge.frames import LineClient\n"
            "listener = socket.socket()\n"
            "listener.bind(('127.0.0.1', 0))\n"
            "listener.listen(1)\n"
            "LineClient('127.0.0.1', listener.getsockname()[1]).close()\n"
            "print(sorted(m for m in ('encodings.idna', 'stringprep', 'unicodedata')"
            " if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.stdout == "[]\n", done.stderr


    def test_close_after_the_descriptor_was_closed_underneath(self):
        """A session closes both of its clients; the first must not raise
        and leave the second open."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = frames.LineClient(*listener.getsockname())
            os.close(client.sock.fileno())
            client.close()
        assert client.sock.fileno() == -1


class TestEntryPoint:
    def test_module_serves_both_endpoints_until_terminated(self):
        """``python -m vecuforge.simulator``, as perfbench and stage-by-stage use start it."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "vecuforge.simulator", "--vulns", "off"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            match = re.fullmatch(r"LISTENING data=(\d+) mgmt=(\d+)\n", proc.stdout.readline())
            assert match, proc.stderr.read() if proc.poll() is not None else "no LISTENING line"
            data = frames.LineClient("127.0.0.1", int(match.group(1)))
            mgmt = frames.LineClient("127.0.0.1", int(match.group(2)))
            try:
                assert data.exchange(["7df#013e"]) == [["7e8#017e"]]
                ((reply,),) = mgmt.exchange(["DUMP"])
                assert reply.startswith("OK ")
                assert load_state(reply.split(" ", 1)[1]).config == SimConfig().with_vulns(False)
            finally:
                data.close()
                mgmt.close()
            proc.terminate()
            proc.wait(timeout=5)  # TimeoutExpired if SIGTERM does not end it
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
