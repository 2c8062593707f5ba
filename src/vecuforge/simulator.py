"""Deterministic virtual ECU with a CAN/UDS-like diagnostic protocol.

The ECU answers requests on ids 0x7DF (functional) and 0x7E0 (physical),
always responding from 0x7E8. Payload layout: first byte is the length of
the service byte plus its parameters. Implemented services:

* 0x01 pid 0x0D  current speed: ``02 01 0d`` -> ``03 41 0d <speed>``
* 0x3E           tester present: ``01 3e`` -> ``01 7e``
* 0x10           session control: ``02 10 ss`` (ss in 01/02/03) -> ``02 50 ss``
* 0x27           security access: seed request ``02 27 01``, key send
                 ``04 27 02 k1 k2``; the official key derivation is additive
                 rotate+XOR, and with toggle V1 on the plain
                 seed-XOR-constant key is also accepted (weak derivation)
* 0x2E           write data id: needs session 0x03 and an unlocked ECU;
                 with toggle V2 on the lock check is skipped in session 0x02
* 0x42           undocumented: ``01 42`` -> ``02 62 42`` with toggle V4 on,
                 silent otherwise

A frame whose length byte exceeds the actually present parameter bytes
stops the ECU (alive=False, absorbing until RESET/LOAD) when toggle V3 is
on, and draws ``03 7f 00 13`` when it is off.

The data endpoint takes one frame line per request (``frames`` codec)
and answers each with zero or more frame lines. A management channel
accepts line commands DUMP (base64 state), LOAD and RESET, each answered
with one ``OK`` or ``ERR`` line. State dumps are canonical: loading a
dump and dumping again yields identical bytes.

Both endpoints answer a barrier line ``SYNC <n>`` with ``SYNCED <n>``,
before any other parsing, so a crashed ECU still answers it. Each
connection's lines are handled in arrival order and their replies
written in that order, so every reply to a line goes out before the
``SYNCED`` of a later barrier.
"""

import argparse
import base64
import json
import re
import socket
import threading
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import cache

from .frames import Frame, FrameError, parse_line

FUNCTIONAL_REQ_ID = 0x7DF
PHYSICAL_REQ_ID = 0x7E0
RESPONSE_ID = 0x7E8

SVC_CURRENT_DATA = 0x01
SVC_SESSION = 0x10
SVC_SECURITY = 0x27
SVC_WRITE_DID = 0x2E
SVC_TESTER_PRESENT = 0x3E
SVC_UNDOCUMENTED = 0x42

NRC_SUBFUNCTION = 0x12
NRC_LENGTH = 0x13
NRC_SEQUENCE = 0x24
NRC_SECURITY_DENIED = 0x33
NRC_INVALID_KEY = 0x35

IMPLEMENTED_SERVICES = frozenset(
    {SVC_CURRENT_DATA, SVC_SESSION, SVC_SECURITY, SVC_WRITE_DID, SVC_TESTER_PRESENT, SVC_UNDOCUMENTED}
)

VALID_SESSIONS = (0x01, 0x02, 0x03)


@dataclass(frozen=True)
class SimConfig:
    """Launch configuration: behaviour knobs and the four seeded defects."""

    speed: int = 0x32
    v1_weak_key: bool = True
    v2_session_bypass: bool = True
    v3_length_crash: bool = True
    v4_hidden_service: bool = True
    key_const: int = 0xA5
    services: frozenset[int] = IMPLEMENTED_SERVICES

    def with_vulns(self, enabled: bool) -> "SimConfig":
        return replace(
            self,
            v1_weak_key=enabled,
            v2_session_bypass=enabled,
            v3_length_crash=enabled,
            v4_hidden_service=enabled,
        )


@dataclass(frozen=True, slots=True, init=False)
class EcuState:
    """Complete, serializable ECU state; a dump reconstructs behaviour exactly.

    States are immutable values: every transition returns a new state and
    leaves the one it was given untouched, so holding a reference is a
    snapshot. ``data_ids`` is never mutated in place either; a write
    builds a new dict. ``handle_frame`` builds states with positional
    arguments, in field order.

    The constructor stores its arguments through the slots in one step. A
    ``config`` or ``data_ids`` left out (or None) is a new ``SimConfig()``
    or a new empty dict, as the fields' factories give.
    """

    config: SimConfig = field(default_factory=SimConfig)
    session: int = 0x01
    locked: bool = True
    last_seed: tuple[int, int] | None = None
    seed_counter: int = 0
    alive: bool = True
    data_ids: dict[int, bytes] = field(default_factory=dict)

    def __init__(self, config: SimConfig | None = None, session: int = 0x01,
                 locked: bool = True, last_seed: tuple[int, int] | None = None,
                 seed_counter: int = 0, alive: bool = True,
                 data_ids: dict[int, bytes] | None = None) -> None:
        _set_config(self, SimConfig() if config is None else config)
        _set_session(self, session)
        _set_locked(self, locked)
        _set_last_seed(self, last_seed)
        _set_seed_counter(self, seed_counter)
        _set_alive(self, alive)
        _set_data_ids(self, {} if data_ids is None else data_ids)


_set_config = EcuState.__dict__["config"].__set__
_set_session = EcuState.__dict__["session"].__set__
_set_locked = EcuState.__dict__["locked"].__set__
_set_last_seed = EcuState.__dict__["last_seed"].__set__
_set_seed_counter = EcuState.__dict__["seed_counter"].__set__
_set_alive = EcuState.__dict__["alive"].__set__
_set_data_ids = EcuState.__dict__["data_ids"].__set__


def weak_key(seed: tuple[int, int], const: int) -> tuple[int, int]:
    """The V1 derivation: plain XOR with a constant, invertible from traffic."""
    return seed[0] ^ const, seed[1] ^ const


def official_key(seed: tuple[int, int], const: int) -> tuple[int, int]:
    """The intended derivation: byte-wise add-then-XOR; never equal to weak_key."""
    return ((seed[0] + 0x3B) & 0xFF) ^ const, ((seed[1] + 0xC7) & 0xFF) ^ const


def seed_for_counter(counter: int) -> tuple[int, int]:
    """Deterministic seed sequence; counter is part of the dumped state."""
    return (0x13 + 0x2F * counter) & 0xFF, (0x7A + 0x51 * counter) & 0xFF


def _resp(payload: list[int]) -> Frame:
    return Frame(RESPONSE_ID, bytes([len(payload)] + payload))


def _negative(service: int, nrc: int) -> Frame:
    return _resp([0x7F, service, nrc])


# Replies that depend on no request byte are built once and shared: a Frame
# is an immutable value. Replies that echo request bytes (the DID echo) or
# state (the seed) are built per call, so no table grows with the traffic.
_NEGATIVES = {
    (service, nrc): _negative(service, nrc)
    for service in (0x00, *IMPLEMENTED_SERVICES)
    for nrc in (NRC_SUBFUNCTION, NRC_LENGTH, NRC_SEQUENCE, NRC_SECURITY_DENIED, NRC_INVALID_KEY)
}
_TESTER_PRESENT_REPLY = _resp([0x7E])
_SESSION_REPLIES = {session: _resp([0x50, session]) for session in VALID_SESSIONS}
_UNLOCKED_REPLY = _resp([0x67, 0x02])
_HIDDEN_SERVICE_REPLY = _resp([0x62, 0x42])


@cache
def _speed_reply(speed: int) -> Frame:
    return _resp([0x41, 0x0D, speed])


def handle_frame(state: EcuState, frame: Frame) -> tuple[EcuState, list[Frame]]:
    """Pure transition function: (state, frame) -> (state', responses).

    A crashed ECU (alive=False) ignores every frame, tester present
    included, until RESET or LOAD. The returned list is new on every call;
    the frames in it may be shared between calls.
    """
    if not state.alive:
        return state, []
    if frame.id not in (FUNCTIONAL_REQ_ID, PHYSICAL_REQ_ID):
        return state, []
    data = frame.data
    if len(data) == 0:
        return state, []
    length = data[0]
    params = data[1:]
    config = state.config
    if length > len(params):
        if config.v3_length_crash:
            return EcuState(config, state.session, state.locked, state.last_seed,
                            state.seed_counter, False, state.data_ids), []
        return state, [_NEGATIVES[0x00, NRC_LENGTH]]
    body = params[:length]
    if len(body) == 0:
        return state, []
    service = body[0]
    args = body[1:]
    if service not in config.services or service not in IMPLEMENTED_SERVICES:
        return state, []

    if service == SVC_CURRENT_DATA:
        if len(args) != 1:
            return state, [_NEGATIVES[service, NRC_LENGTH]]
        if args[0] != 0x0D:
            return state, [_NEGATIVES[service, NRC_SUBFUNCTION]]
        return state, [_speed_reply(config.speed)]

    if service == SVC_TESTER_PRESENT:
        if len(args) != 0:
            return state, [_NEGATIVES[service, NRC_LENGTH]]
        return state, [_TESTER_PRESENT_REPLY]

    if service == SVC_SESSION:
        if len(args) != 1:
            return state, [_NEGATIVES[service, NRC_LENGTH]]
        if args[0] not in VALID_SESSIONS:
            return state, [_NEGATIVES[service, NRC_SUBFUNCTION]]
        nxt = EcuState(config, args[0], state.locked, state.last_seed, state.seed_counter,
                       True, state.data_ids)
        return nxt, [_SESSION_REPLIES[args[0]]]

    if service == SVC_SECURITY:
        if len(args) == 1 and args[0] == 0x01:
            seed = seed_for_counter(state.seed_counter)
            nxt = EcuState(config, state.session, state.locked, seed, state.seed_counter + 1,
                           True, state.data_ids)
            return nxt, [_resp([0x67, 0x01, seed[0], seed[1]])]
        if len(args) == 3 and args[0] == 0x02:
            if state.last_seed is None:
                return state, [_NEGATIVES[service, NRC_SEQUENCE]]
            key = (args[1], args[2])
            accepted = {official_key(state.last_seed, config.key_const)}
            if config.v1_weak_key:
                accepted.add(weak_key(state.last_seed, config.key_const))
            if key in accepted:
                nxt = EcuState(config, state.session, False, state.last_seed, state.seed_counter,
                               True, state.data_ids)
                return nxt, [_UNLOCKED_REPLY]
            return state, [_NEGATIVES[service, NRC_INVALID_KEY]]
        if len(args) >= 1 and args[0] in (0x01, 0x02):
            return state, [_NEGATIVES[service, NRC_LENGTH]]
        if len(args) >= 1:
            return state, [_NEGATIVES[service, NRC_SUBFUNCTION]]
        return state, [_NEGATIVES[service, NRC_LENGTH]]

    if service == SVC_WRITE_DID:
        if len(args) < 3:
            return state, [_NEGATIVES[service, NRC_LENGTH]]
        allowed = (state.session == 0x03 and not state.locked) or (
            config.v2_session_bypass and state.session == 0x02
        )
        if not allowed:
            return state, [_NEGATIVES[service, NRC_SECURITY_DENIED]]
        did = (args[0] << 8) | args[1]
        nxt = EcuState(config, state.session, state.locked, state.last_seed, state.seed_counter,
                       True, {**state.data_ids, did: bytes(args[2:])})
        return nxt, [_resp([0x6E, args[0], args[1]])]

    # SVC_UNDOCUMENTED, the one implemented service left.
    if not config.v4_hidden_service:
        return state, []
    if len(args) != 0:
        return state, [_NEGATIVES[service, NRC_LENGTH]]
    return state, [_HIDDEN_SERVICE_REPLY]


def dump_state(state: EcuState) -> str:
    """Serialize state to base64; canonical bytes for a given state."""
    cfg = state.config
    doc = {
        "config": {
            "speed": cfg.speed,
            "v1": cfg.v1_weak_key,
            "v2": cfg.v2_session_bypass,
            "v3": cfg.v3_length_crash,
            "v4": cfg.v4_hidden_service,
            "key_const": cfg.key_const,
            "services": sorted(cfg.services),
        },
        "session": state.session,
        "locked": state.locked,
        "last_seed": list(state.last_seed) if state.last_seed is not None else None,
        "seed_counter": state.seed_counter,
        "alive": state.alive,
        "data_ids": {f"{k:04x}": v.hex() for k, v in sorted(state.data_ids.items())},
    }
    raw = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return base64.b64encode(raw).decode("ascii")


def _of_type(name: str, value, kind: type):
    """``value`` if its type is exactly ``kind`` (a JSON ``true`` is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _int_in(name: str, value, allowed) -> int:
    """``value`` if it is an int in ``allowed``, a range or a tuple."""
    if _of_type(name, value, int) not in allowed:
        raise ValueError(f"{name} must be in {allowed}, got {value!r}")
    return value


def _byte(name: str, value) -> int:
    return _int_in(name, value, range(0x100))


def _did_key(key: str) -> int:
    """A ``data_ids`` key in the one form ``dump_state`` writes: four lowercase hex digits."""
    if not re.fullmatch("[0-9a-f]{4}", key):
        raise ValueError(f"data_ids key must be four lowercase hex digits, got {key!r}")
    return int(key, 16)


def _did_value(value) -> bytes:
    """A ``data_ids`` value in the one form ``dump_state`` writes: lowercase
    hex, two digits a byte."""
    if type(value) is not str or not re.fullmatch("(?:[0-9a-f]{2})*", value):
        raise ValueError(f"data_ids value must be lowercase hex bytes, got {value!r}")
    return bytes.fromhex(value)


def load_state(blob: str) -> EcuState:
    """Inverse of ``dump_state``.

    LOAD is the one way outside state reaches the state machine, so every
    field must have the type ``dump_state`` writes; anything else raises
    ``ValueError`` here rather than a ``TypeError`` on a later frame.
    """
    doc = json.loads(base64.b64decode(blob.encode("ascii")))
    seed = doc["last_seed"]
    if seed is not None:
        if type(seed) is not list or len(seed) != 2:
            raise ValueError(f"last_seed must be null or two bytes, got {seed!r}")
        seed = (_byte("last_seed", seed[0]), _byte("last_seed", seed[1]))
    cfg = doc["config"]
    services = _of_type("services", cfg["services"], list)
    seed_counter = _of_type("seed_counter", doc["seed_counter"], int)
    if seed_counter < 0:
        raise ValueError(f"seed_counter must not be negative, got {seed_counter!r}")
    return EcuState(
        config=SimConfig(
            speed=_byte("speed", cfg["speed"]),
            v1_weak_key=_of_type("v1", cfg["v1"], bool),
            v2_session_bypass=_of_type("v2", cfg["v2"], bool),
            v3_length_crash=_of_type("v3", cfg["v3"], bool),
            v4_hidden_service=_of_type("v4", cfg["v4"], bool),
            key_const=_byte("key_const", cfg["key_const"]),
            services=frozenset(_byte("services", s) for s in services),
        ),
        session=_int_in("session", doc["session"], VALID_SESSIONS),
        locked=_of_type("locked", doc["locked"], bool),
        last_seed=seed,
        seed_counter=seed_counter,
        alive=_of_type("alive", doc["alive"], bool),
        data_ids={
            _did_key(k): _did_value(v)
            for k, v in _of_type("data_ids", doc["data_ids"], dict).items()
        },
    )


def _synced(text: str) -> str:
    """``SYNCED <n>`` for a barrier line ``SYNC <n>``, empty for any other line."""
    word, _, token = text.partition(" ")
    return f"SYNCED {token}\n" if word == "SYNC" else ""


class SimServer:
    """Socket front-end around the pure state machine.

    Each listener has a thread that accepts connections, and each accepted
    connection has a thread of its own that reads its lines and writes
    their replies. One lock orders the transitions: the lines of a chunk
    are handled under it together, so each connection's lines reach the
    state in arrival order. A handler that raises closes its own
    connection only. The data endpoint speaks the frame wire codec and the
    management endpoint DUMP/LOAD/RESET lines; both answer the SYNC barrier.
    """

    def __init__(self, config: SimConfig | None = None, host: str = "127.0.0.1",
                 data_port: int = 0, mgmt_port: int = 0):
        self._initial = EcuState(config=config or SimConfig())
        self.state = self._initial
        self._data_listener = self._listen(host, data_port)
        self._mgmt_listener = self._listen(host, mgmt_port)
        # Held while lines are handled and while ``_conns`` or a connection
        # in it changes.
        self._lock = threading.Lock()
        self._accepting: list[threading.Thread] = []
        self._conns: dict[socket.socket, threading.Thread] = {}

    @staticmethod
    def _listen(host: str, port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(16)
        return sock

    @property
    def data_endpoint(self) -> tuple[str, int]:
        return self._data_listener.getsockname()

    @property
    def mgmt_endpoint(self) -> tuple[str, int]:
        return self._mgmt_listener.getsockname()

    def start(self) -> "SimServer":
        for listener, handle in ((self._data_listener, self._handle_data_line),
                                 (self._mgmt_listener, self._handle_mgmt_line)):
            thread = threading.Thread(target=self._accept, args=(listener, handle),
                                      name="sut-sim", daemon=True)
            thread.start()
            self._accepting.append(thread)
        return self

    def stop(self) -> None:
        """Close both listeners, then every open connection, and wait for
        each of their threads to end.

        ``shutdown`` wakes a thread blocked in ``accept`` or ``recv`` at
        once. Once the accept threads have ended, no connection is added.
        A closed listener means a stop has run, and a repeat does nothing.
        """
        if self._data_listener.fileno() == -1:
            return
        for listener in (self._data_listener, self._mgmt_listener):
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
        for thread in self._accepting:
            thread.join()
        with self._lock:
            serving = list(self._conns.values())
            for conn in self._conns:
                with suppress(OSError):  # closed already, or reset by the peer
                    conn.shutdown(socket.SHUT_RDWR)
        for thread in serving:
            thread.join()

    # -- connections ----------------------------------------------------

    def _accept(self, listener: socket.socket, handle) -> None:
        """Serve each connection ``listener`` accepts in a thread of its own,
        until ``accept`` fails, as it does once ``stop`` shuts the listener
        down."""
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._serve, args=(conn, handle),
                                      name="sut-sim", daemon=True)
            # A connection stays listed until its thread has ended, so that
            # ``stop`` joins every thread still running. The thread starts
            # under the lock: an unstarted thread is not alive either, and
            # would be dropped.
            with self._lock:
                self._conns = {c: t for c, t in self._conns.items() if t.is_alive()}
                self._conns[conn] = thread
                thread.start()

    def _serve(self, conn: socket.socket, handle) -> None:
        """Answer the lines that arrive on ``conn`` with ``handle`` until the
        peer closes it, ``stop`` shuts it down or ``handle`` raises; then
        close it.

        Each chunk is split once: its whole lines are handled together, and
        the partial line after its final newline waits for the next chunk.
        Their replies go out in one write.
        """
        pending = b""
        try:
            while chunk := conn.recv(65536):
                whole, _, pending = (pending + chunk).rpartition(b"\n")
                with self._lock:
                    replies = "".join([handle(text) for line in
                                       whole.decode("utf-8", errors="replace").split("\n")
                                       if (text := line.strip())])
                if replies:
                    self._write(conn, replies.encode())
        except OSError:
            pass
        finally:
            with self._lock:  # not while ``stop`` shuts it down
                conn.close()

    def _write(self, conn: socket.socket, data: bytes) -> None:
        """Write the replies to one chunk's lines to ``conn``."""
        conn.sendall(data)

    def _handle_data_line(self, text: str) -> str:
        if synced := _synced(text):
            return synced
        try:
            frame = parse_line(text)
        except FrameError:
            return ""
        self.state, responses = handle_frame(self.state, frame)
        return "".join(r.to_line() + "\n" for r in responses)

    def _handle_mgmt_line(self, text: str) -> str:
        if synced := _synced(text):
            return synced
        parts = text.split(None, 1)
        cmd = parts[0].upper()
        arg = parts[1] if len(parts) > 1 else ""
        if cmd == "DUMP":
            return "OK " + dump_state(self.state) + "\n"
        if cmd == "LOAD":
            # Any blob of the wrong shape is the client's error, which it
            # reads as ERR; raising here would close its connection.
            try:
                self.state = load_state(arg)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                return f"ERR bad state blob: {exc}\n"
            return "OK\n"
        if cmd == "RESET":
            self.state = self._initial
            return "OK\n"
        return "ERR unknown command\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="run a virtual ECU instance")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--data-port", type=int, default=0)
    ap.add_argument("--mgmt-port", type=int, default=0)
    ap.add_argument("--vulns", choices=["on", "off"], default="on",
                    help="enable or disable all four seeded defects")
    args = ap.parse_args(argv)

    config = SimConfig().with_vulns(args.vulns == "on")
    server = SimServer(config, host=args.host, data_port=args.data_port, mgmt_port=args.mgmt_port)
    server.start()
    print(f"LISTENING data={server.data_endpoint[1]} mgmt={server.mgmt_endpoint[1]}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
