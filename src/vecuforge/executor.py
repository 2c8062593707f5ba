"""Environment preparation, test-case execution and SUT state restore.

A session is one data connection and one management connection to a SUT
instance, plus a state snapshot taken before any test traffic. The wire
codec has no bus field, so every item interface a case names, and the
vulnscan tool's fingerprint sweep, is served by the one data connection,
and a tool's bus word must be the SUT database's ``bus``. Cases run as
their bound activity list, strictly in order; each pattern step renders
its script command as a list of words and is routed by the first word to
an internal tool handler (cansend, probe, seedkey, fuzz, vulnscan). The
other words are the handler's arguments, one word each, checked once
against its parameters. A case's result depends on the case and the SUT
alone, not on the other cases of its session. Every
frame (through ``frames.DataChannel``) and every management command sent
to the SUT ends on its own barrier, so the frames a stimulus drew are
known once its barrier returns, and a late reply is dropped, never read
as the next one; expect steps examine exactly those and never wait. Verdicts
partition into pass/fail/error/inconclusive; error is reserved for
infrastructure faults and never encodes an oracle outcome. SUT database
values arrive checked and typed (see ``tcg.SutDatabase``); a tool handler
parses each argument once, and an argument count or word that does not
parse, as from a hand-edited case or script file, gives its case verdict
``error``. The seedkey tool derives keys with the tester's own
``vocabulary.SEEDKEY_ALGORITHMS``, never with the SUT's code.

The executor fills ``tcg.TestResult`` records. A result holds only what
the same case against the same SUT state gives again. What the clock
read while a case ran (its start, its duration and each step's latency)
goes to the session's ``timing`` log instead, which the execute stage
writes to ``timing/execute.json``.
"""

import inspect
import time
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from operator import attrgetter

from . import __version__
from .frames import (MAX_FRAME_ID, ConnectionLost, DataChannel, ExecutorError, Frame,
                     FrameError, LineClient, hex_in, parse_line)
from .fuzz_engine import PRNG_NAME, FuzzConfig, FuzzError, minimize, run_campaign
from .item_model import fingerprint_sut
from .script_registry import RegistryError, ScriptRegistry, render_command
from .simulator import EcuState, handle_frame, load_state
from .tcg import ResultMetadata, StepRecord, SutDatabase, TestCase, TestResult
from .vocabulary import CONDITIONS, MATCHERS, SEEDKEY_ALGORITHMS
from .vuln_scanner import VulnDbEntry, scan

_TESTER_PRESENT = bytes([0x01, 0x3E])


def _payload(frame: Frame) -> bytes:
    """Service payload of a response frame (length byte honoured)."""
    if not frame.data:
        return b""
    return frame.data[1 : 1 + frame.data[0]]


# -- management channel ---------------------------------------------------


class MgmtChannel:
    """State management: dump and load opaque snapshots.

    Each command is one barrier exchange, as on the data port, so a reply
    that arrives after its command gave up is dropped with that command's
    barrier and is never read as the answer to the next command.
    """

    def __init__(self, host: str, port: int):
        self.client = LineClient(host, port)

    def _command(self, line: str) -> str:
        (replies,) = self.client.exchange([line])
        if len(replies) != 1 or not replies[0].startswith("OK"):
            raise ExecutorError(f"management command failed: {'; '.join(replies) or 'no reply'}")
        return replies[0][2:].strip()

    def dump(self) -> str:
        blob = self._command("DUMP")
        if not blob:
            raise ExecutorError("SUT returned an empty state dump")
        return blob

    def load(self, blob: str) -> None:
        self._command("LOAD " + blob)

    def close(self) -> None:
        self.client.close()


# -- sessions ------------------------------------------------------------


@dataclass
class CaseTiming:
    """What the clock read while one case ran; never part of its result."""

    case_ref: str
    started_at: str
    duration_s: float
    step_latencies_ms: list[float]


@dataclass
class Session:
    """One data and one management connection plus the pre-attack snapshot,
    and the timing of each case run in it.

    Every case sends on ``data``, whatever item interface it names: the
    ``<id>#<hex>`` codec carries no bus field. ``lost`` says why the SUT
    dropped a connection during a case, once it has: no later case can run.
    """

    data: DataChannel
    mgmt: MgmtChannel
    pre_attack_snapshot: str
    func_id: int
    timing: list[CaseTiming] = field(default_factory=list)
    lost: str = ""

    def probe_alive(self) -> bool:
        return bool(self.data.collect(Frame(self.func_id, _TESTER_PRESENT)))

    def close(self) -> None:
        self.data.close()
        self.mgmt.close()


def open_session(
    cases: list[TestCase],
    sutdb: SutDatabase,
    *,
    host: str,
    data_port: int,
    mgmt_port: int,
) -> Session:
    """Connect, snapshot the SUT before any test traffic, and probe it when a
    case needs ``sut_alive``."""
    if not cases:
        raise ExecutorError("cannot open a session for zero cases")
    mgmt = MgmtChannel(host, mgmt_port)
    try:
        snapshot = mgmt.dump()
    except ExecutorError as exc:
        mgmt.close()
        raise ExecutorError(f"SUT does not support state snapshots: {exc}") from None
    try:
        data = DataChannel(host, data_port)
    except ExecutorError:
        mgmt.close()
        raise

    session = Session(data=data, mgmt=mgmt, pre_attack_snapshot=snapshot,
                      func_id=sutdb.func_id())
    try:
        if (any("sut_alive" in case.environmental_needs.preconditions for case in cases)
                and not session.probe_alive()):
            raise ExecutorError("precondition sut_alive failed: no probe response")
    except ExecutorError:
        session.close()
        raise
    return session


# -- in-process campaign transport ---------------------------------------

# The fields of an ECU state, in field order, read in one call.
_state_fields = attrgetter(*(f.name for f in fields(EcuState)))


class StateTransport:
    """Fuzz transport over an in-process ECU state.

    Campaigns run against the SUT's own dumped state through the pure
    transition function, which makes every frame, probe and response
    count a function of (state, seed) alone. One input per bucket of
    findings is afterwards confirmed over the wire against the live SUT.
    States are immutable values, so the one given is kept as the restore
    point and ``restore`` is a reassignment. ``down`` reads the current
    state: ``handle_frame`` keeps a crashed ECU crashed until a restore,
    and a live ECU answers the probe whenever it answered it once (the
    services it serves never change), so ``down`` is exact.

    A ``send`` made right after ``restore`` (or construction) starts from
    the restore point, so its outcome depends on the frame alone: it is
    read from a memo keyed by ``(frame.id, frame.data)`` that holds the
    state after and the reply count, and ``handle_frame`` runs only on a
    miss. This is exact because ``handle_frame`` is pure and states are
    immutable. Every other ``send`` and every ``alive`` runs
    ``handle_frame`` and ends the "fresh" mark. An outcome that equals one
    already held is replaced by that object, so every crash from the
    restore point shares one outcome and one state, and the memo costs
    little more than its keys: one per distinct frame sent right after a
    restore.
    """

    _PROBE = Frame(0x7DF, _TESTER_PRESENT)

    def __init__(self, state: EcuState):
        self._start = self.state = state
        self._fresh = True
        self._memo: dict[tuple[int, bytes], tuple[EcuState, int]] = {}
        self._held: dict[tuple, tuple[EcuState, int]] = {}

    def send(self, frame: Frame) -> int:
        if self._fresh:
            self._fresh = False
            key = (frame.id, frame.data)
            outcome = self._memo.get(key)
            if outcome is None:
                state, responses = handle_frame(self._start, frame)
                outcome = self._memo[key] = self._intern(state, len(responses))
            self.state, count = outcome
            return count
        self.state, responses = handle_frame(self.state, frame)
        return len(responses)

    def _intern(self, state: EcuState, count: int) -> tuple[EcuState, int]:
        """The held outcome equal to ``(state, count)``, which is held from now
        on if none is."""
        # A state's fields in order, with its dicts as item sets: equal keys
        # are equal states.
        key = (count, *(frozenset(v.items()) if isinstance(v, dict) else v
                        for v in _state_fields(state)))
        return self._held.setdefault(key, (state, count))

    def down(self) -> bool:
        return not self.state.alive

    def alive(self) -> bool:
        self._fresh = False
        self.state, responses = handle_frame(self.state, self._PROBE)
        return bool(responses)

    def restore(self) -> None:
        self.state = self._start
        self._fresh = True


# -- execution -------------------------------------------------------------


@dataclass
class Resources:
    """Shared lookups for the tool handlers."""

    sutdb: SutDatabase
    vulndb: list[VulnDbEntry] = field(default_factory=list)


def _parse_kv(tokens: tuple[str, ...], where: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ExecutorError(f"{where}: expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        out[key] = value
    return out


def _service_arg(step) -> int:
    """The one-byte service an expect step names; a bad one is infrastructure."""
    service = hex_in(step.bound_args.get("service"), 0xFF)
    if service is None:
        raise ExecutorError(f"expect {step.name} wants service=<hex byte>, got {step.bound_args}")
    return service


class _CaseRun:
    """One case execution: routes commands, accumulates the step log."""

    def __init__(self, case: TestCase, session: Session, resources: Resources,
                 registry: ScriptRegistry):
        self.case = case
        self.session = session
        self.res = resources
        self.registry = registry
        self.records: list[StepRecord] = []
        self.last_rx: list[Frame] = []
        self.fuzz_findings = 0
        self.scan_ran = False
        self.scan_findings = 0

    def _send(self, channel: DataChannel, frame: Frame, record: StepRecord) -> list[Frame]:
        """Send one frame and log it."""
        rx = channel.collect(frame)
        record.tx.append(frame.to_line())
        record.rx.extend(f.to_line() for f in rx)
        self.last_rx = rx
        return rx

    def _channel(self, bus: str) -> DataChannel:
        """The session's one data connection, for the SUT database's ``bus``
        alone; a database without one accepts no bus word."""
        if bus != self.res.sutdb.slot_values().get("bus"):
            raise ExecutorError(f"no interface module for bus {bus!r}")
        return self.session.data

    # -- tool handlers ---------------------------------------------------

    def _tool_cansend(self, record: StepRecord, bus: str, line: str) -> None:
        channel = self._channel(bus)
        try:
            frame = parse_line(line)
        except FrameError as exc:
            raise ExecutorError(f"cansend: bad frame {line!r}: {exc}") from None
        self._send(channel, frame, record)

    def _tool_probe(self, record: StepRecord, bus: str) -> None:
        channel = self._channel(bus)
        frame = Frame(self.session.func_id, _TESTER_PRESENT)
        rx = self._send(channel, frame, record)
        record.note = "alive" if rx else "silent"

    def _tool_seedkey(self, record: StepRecord, bus: str, phys_hex: str, algorithm: str,
                      const_hex: str) -> None:
        channel = self._channel(bus)
        phys, const = hex_in(phys_hex, MAX_FRAME_ID), hex_in(const_hex, 0xFF)
        derive = SEEDKEY_ALGORITHMS.get(algorithm)
        if phys is None or const is None or derive is None:
            raise ExecutorError(
                f"seedkey wants an 11-bit hex phys_id, {' or '.join(SEEDKEY_ALGORITHMS)} and "
                f"a hex-byte key constant, got {[phys_hex, algorithm, const_hex]}"
            )

        rx = self._send(channel, Frame(phys, bytes([0x02, 0x27, 0x01])), record)
        seed = None
        for frame in rx:
            payload = _payload(frame)
            if len(payload) >= 4 and payload[0] == 0x67 and payload[1] == 0x01:
                seed = (payload[2], payload[3])
        if seed is None:
            record.note = "no seed granted"
            return
        key = derive(seed, const)
        submit = Frame(phys, bytes([0x04, 0x27, 0x02, key[0], key[1]]))
        rx2 = self._send(channel, submit, record)
        unlocked = any(
            _payload(f)[:2] == bytes([0x67, 0x02]) for f in rx2
        )
        record.note = "unlock achieved" if unlocked else "key rejected"
        record.detail = {
            "seed": f"{seed[0]:02x}{seed[1]:02x}",
            "algorithm": algorithm,
            "unlocked": unlocked,
        }
        self.last_rx = rx + rx2

    def _tool_fuzz(self, record: StepRecord, bus: str, *options: str) -> None:
        kv = _parse_kv(options, "fuzz")
        channel = self._channel(bus)
        try:
            config = FuzzConfig(
                seed=int(kv["seed"]),
                budget=int(kv["budget"]),
                corpus=self.res.sutdb.corpora[kv["corpus"]],
                probe_every=int(kv["probe_every"]),
            )
        except KeyError as exc:
            raise ExecutorError(f"fuzz: no argument or SUT database corpus {exc}") from None
        except ValueError as exc:
            raise ExecutorError(f"fuzz: bad campaign configuration: {exc}") from None

        # The campaign runs against a fork of the SUT's dumped state, so
        # frame-by-frame behaviour is exactly reproducible; one input per
        # bucket of findings is then confirmed over the wire against the
        # live SUT. A trigger that did not minimize is its own bucket.
        campaign_start = self.session.mgmt.dump()
        transport = StateTransport(load_state(campaign_start))
        try:
            result = run_campaign(config, transport)
        except FuzzError as exc:
            raise ExecutorError(f"fuzz: {exc}") from None
        findings = [minimize(f, transport) for f in result.findings]

        buckets: dict[Frame, dict] = {}
        for finding in findings:
            frame = finding.minimized_input or finding.trigger_input
            bucket = buckets.setdefault(frame, {
                "minimized_input": frame.to_line(), "hits": 0, "first_position": finding.position,
            })
            bucket["hits"] += 1
        confirmations = []
        for frame in buckets:
            channel.collect(frame)
            record.tx.append(frame.to_line())
            confirmations.append(not self.session.probe_alive())
            self.session.mgmt.load(campaign_start)

        self.fuzz_findings += len(findings)
        record.note = f"{len(findings)} reproduced trigger(s) in {len(buckets)} bucket(s)"
        record.detail = {
            "config": config.to_dict(),
            "stats": result.stats,
            "findings": [f.to_dict() for f in findings],
            "buckets": list(buckets.values()),
            "confirmed_on_wire": confirmations,
        }
        self.last_rx = []

    def _tool_vulnscan(self, record: StepRecord, targets: str) -> None:
        names = [t for t in targets.split(",") if t]
        declared = {iface.item_ref for iface in self.case.environmental_needs.interfaces}
        for target in names:
            if target not in declared:
                raise ExecutorError(f"vulnscan: the case declares no interface {target!r}")
        # Every target is the session's one data connection, so one sweep is
        # the fingerprint of each. The item is not an input of execute, so it
        # sweeps ProbeConfig's default ids, not the item's fingerprint_id_range.
        swept = fingerprint_sut(names[0], channel=self.session.data) if names else None
        scans = [scan(replace(swept, probed_interface=target), self.res.vulndb) for target in names]
        self.scan_ran = self.scan_ran or bool(scans)
        found = sum(len(s.findings) for s in scans)
        self.scan_findings += found
        record.note = f"{found} database match(es) over {len(names)} interface(s)"
        record.detail = {"scans": [asdict(s) for s in scans]}
        self.last_rx = []

    _TOOLS = {
        "cansend": _tool_cansend,
        "probe": _tool_probe,
        "seedkey": _tool_seedkey,
        "fuzz": _tool_fuzz,
        "vulnscan": _tool_vulnscan,
    }

    # -- step execution ----------------------------------------------------

    def run_pattern(self, step) -> None:
        record = StepRecord(step=step)
        if step.script_ref is None or step.script_ref not in self.registry.scripts:
            raise ExecutorError(
                f"case {self.case.id!r}: no script registered as {step.script_ref!r}"
            )
        script = self.registry.scripts[step.script_ref]
        try:
            words = render_command(script, step.bound_args, self.res.sutdb.slot_values())
        except RegistryError as exc:
            raise ExecutorError(str(exc)) from None
        record.command = " ".join(words)
        tool, *argv = words
        handler = self._TOOLS.get(tool)
        if handler is None:
            raise ExecutorError(f"no interface module handles tool {tool!r}")
        signature = inspect.signature(handler)
        try:
            signature.bind(self, record, *argv)
        except TypeError as exc:
            wants = " ".join(f"<{name}>" for name in list(signature.parameters)[2:])
            raise ExecutorError(f"{tool} wants '{wants}': {exc}, got {argv}") from None
        handler(self, record, *argv)
        self.records.append(record)

    def run_expect(self, step) -> None:
        """Match the frames the preceding stimulus drew; they are final."""
        record = StepRecord(step=step)
        if not self.records:
            raise ExecutorError("expect step without a preceding stimulus")
        prefix_for = MATCHERS[step.name]
        examined = self.last_rx
        if prefix_for is None:
            met = not examined
        else:
            prefix = prefix_for(_service_arg(step))
            met = any(_payload(f).startswith(prefix) for f in examined)
        record.rx = [f.to_line() for f in examined]
        record.met = met
        record.note = "matched" if met else "not matched"
        self.records.append(record)

    # -- oracle ------------------------------------------------------------

    def facts(self, final_probe_alive: bool) -> dict:
        all_rx = [parse_line(line) for r in self.records for line in r.rx]
        expectations = [r.met for r in self.records if r.step.kind == "expect"]
        return {
            "expectations": expectations,
            "unlock_achieved": any(
                _payload(f)[:2] == bytes([0x67, 0x02]) for f in all_rx
            ),
            "write_accepted": any(
                _payload(f)[:1] == bytes([0x6E]) for f in all_rx
            ),
            "fuzz_findings": self.fuzz_findings,
            "scan_ran": self.scan_ran,
            "scan_findings": self.scan_findings,
            "final_probe_alive": final_probe_alive,
        }


def execute_case(
    case: TestCase,
    session: Session,
    resources: Resources,
    registry: ScriptRegistry,
) -> TestResult:
    """Run the case's activities in order and evaluate its oracle.

    Infrastructure faults surface as verdict ``error`` with whatever
    partial log exists; oracle outcomes never do. A connection the SUT
    dropped is also noted in ``session.lost``. The case's timing is
    appended to ``session.timing``.
    """
    started_at = datetime.now(timezone.utc).isoformat()
    started = time.monotonic()
    latencies_ms: list[float] = []
    run = _CaseRun(case, session, resources, registry)
    metadata = ResultMetadata(
        sut_id=resources.sutdb.sut_id, tools={"vecuforge": __version__}, prng=PRNG_NAME
    )
    oracle: dict = {
        "pass_condition": case.expected_results.pass_condition,
        "fail_condition": case.expected_results.fail_condition,
    }

    def finish(verdict: str, error: str = "") -> TestResult:
        session.timing.append(CaseTiming(
            case_ref=case.id,
            started_at=started_at,
            duration_s=time.monotonic() - started,
            step_latencies_ms=latencies_ms,
        ))
        return TestResult(
            case_ref=case.id,
            verdict=verdict,
            step_log=run.records,
            oracle_evaluation=oracle,
            metadata=metadata,
            error=error,
        )

    try:
        if not session.probe_alive():
            return finish(
                "error", "precondition sut_alive failed before the first activity"
            )
        for step in case.activities:
            step_started = time.monotonic()
            if step.kind == "pattern":
                run.run_pattern(step)
            else:
                run.run_expect(step)
            latencies_ms.append((time.monotonic() - step_started) * 1000.0)
        final_alive = session.probe_alive()
    except ConnectionLost as exc:
        session.lost = str(exc)
        return finish("error", str(exc))
    except ExecutorError as exc:
        return finish("error", str(exc))
    facts = run.facts(final_alive)
    oracle["facts"] = facts
    fail_holds = CONDITIONS[oracle["fail_condition"]](facts)
    pass_holds = CONDITIONS[oracle["pass_condition"]](facts)
    oracle["pass_holds"] = pass_holds
    oracle["fail_holds"] = fail_holds

    if fail_holds:
        return finish("fail")
    if pass_holds:
        return finish("pass")
    return finish("inconclusive")


# -- restore ---------------------------------------------------------------


@dataclass
class CleanupReport:
    """Whether a restore loaded the pre-attack snapshot and a re-dump verified
    it, and if not, why."""

    restored: bool
    verified: bool
    detail: str = ""


def restore(session: Session) -> CleanupReport:
    """Put the SUT back into the pre-attack snapshot and verify by re-dump."""
    try:
        session.mgmt.load(session.pre_attack_snapshot)
        redump = session.mgmt.dump()
    except ExecutorError as exc:
        return CleanupReport(restored=False, verified=False, detail=str(exc))
    if redump != session.pre_attack_snapshot:
        return CleanupReport(
            restored=True, verified=False,
            detail="re-dumped state differs from the pre-attack snapshot",
        )
    return CleanupReport(restored=True, verified=True)
