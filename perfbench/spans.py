"""In-memory span recorder and the wrappers that feed it.

The traced run wraps the program's public functions and the worker's
client sockets from the outside; nothing inside ``src/`` knows about
it. Calls made a handful of times per round become spans (name, start,
duration, parent). Calls made per frame (``handle_frame``, ``mutate``,
socket receives, ...) would swamp memory as spans, so they only add to
a per-name call count and total time. Everything is written out as
JSON lines once the round has finished.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from vecuforge import executor, fuzz_engine, item_model, scenario_dsl, simulator, tcg, vuln_scanner


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self.origin = perf_counter()

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = perf_counter()
        box = {}
        try:
            yield box
        finally:
            duration = perf_counter() - start
            box["duration"] = duration
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start - self.origin, duration)
            self.add(name, duration)

    def add(self, name: str, duration: float) -> None:
        self.calls[name] += 1
        self.seconds[name] += duration

    def self_seconds(self, name: str) -> float:
        """Total duration of ``name`` spans minus the part their child spans cover."""
        own = {s[0] for s in self.spans if s[2] == name}
        children = sum(s[4] for s in self.spans if s[1] in own)
        return self.seconds[name] - children

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, duration in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "duration": duration}) + "\n")
            fh.write(json.dumps({"calls": self.calls, "seconds": self.seconds,
                                 "counters": self.counters}, sort_keys=True) + "\n")


def _replace_everywhere(owner, attr: str, new) -> None:
    """Rebind ``owner.attr`` and every ``from ... import`` copy of it in the package."""
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    for name, module in list(sys.modules.items()):
        if name.startswith("vecuforge") and module.__dict__.get(attr) is old:
            setattr(module, attr, new)


def wrap_span(rec: Recorder, owner, attr: str, name: str, after=None) -> None:
    """Record each call as a span; ``after(result, duration)`` may add counters."""
    fn = getattr(owner, attr)

    def traced(*args, **kwargs):
        with rec.span(name) as box:
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, box["duration"])
        return result

    _replace_everywhere(owner, attr, traced)


def wrap_hot(rec: Recorder, owner, attr: str, name: str) -> None:
    """Count calls and total time only, for functions called per frame."""
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add(name, perf_counter() - start)

    _replace_everywhere(owner, attr, timed)


def wrap_sockets(rec: Recorder, data_port: int | None) -> None:
    """Count bytes, frame lines and receive waits on the worker's client sockets.

    Frame lines are counted on connections to the data port only; the
    management connection carries DUMP/LOAD lines, not frames.
    """
    roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    sendall, recv = socket.socket.sendall, socket.socket.recv
    c = rec.counters

    def is_data(sock) -> bool:
        if sock not in roles:
            try:
                roles[sock] = sock.getpeername()[1] == data_port
            except OSError:
                return False
        return roles[sock]

    def traced_sendall(sock, data, *args):
        result = sendall(sock, data, *args)
        c["wire.tx_bytes"] += len(data)
        if is_data(sock):
            c["wire.tx_frames"] += bytes(data).count(b"\n")
        return result

    def traced_recv(sock, *args):
        start = perf_counter()
        try:
            chunk = recv(sock, *args)
        except (TimeoutError, BlockingIOError):
            waited = perf_counter() - start
            c["wire.recv_calls"] += 1
            c["wire.recv_timeouts"] += 1
            c["wire.recv_wait_s"] += waited
            c["wire.recv_timeout_wait_s"] += waited
            raise
        c["wire.recv_calls"] += 1
        c["wire.recv_wait_s"] += perf_counter() - start
        c["wire.rx_bytes"] += len(chunk)
        if chunk:
            c["wire.useful_recvs"] += 1
            if is_data(sock):
                c["wire.rx_frames"] += chunk.count(b"\n")
        return chunk

    socket.socket.sendall = traced_sendall
    socket.socket.recv = traced_recv


def instrument(rec: Recorder, data_port: int | None = None) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    c = rec.counters
    buckets: set = set()

    def after_collect(frames, duration):
        if not frames:
            c["executor.collect_empty_s"] += duration

    def after_campaign(result, duration):
        c["fuzz_engine.findings"] += len(result.findings)
        c["fuzz_engine.campaign_frames"] += result.stats["frames_sent"]

    def after_minimize(finding, duration):
        buckets.add(finding.minimized_input)
        c["fuzz_engine.buckets"] = len(buckets)

    def after_covering_array(array, duration):
        sizes = sorted((len(v) for v in array.domains.values()), reverse=True)
        c["tcg.rows"] += len(array.rows)
        c["tcg.row_lower_bound"] += math.prod(sizes[: array.strength])

    wrap_span(rec, item_model, "fingerprint_sut", "item_model.fingerprint")
    wrap_span(rec, executor, "execute_case", "executor.execute_case")
    wrap_span(rec, executor.DataChannel, "collect", "executor.collect", after_collect)
    wrap_span(rec, executor.Session, "probe_alive", "executor.probe_alive")
    wrap_span(rec, executor, "restore", "executor.restore")
    wrap_span(rec, executor.MgmtChannel, "dump", "executor.mgmt")
    wrap_span(rec, executor.MgmtChannel, "load", "executor.mgmt")
    wrap_span(rec, fuzz_engine, "run_campaign", "fuzz_engine.run_campaign", after_campaign)
    wrap_span(rec, fuzz_engine, "minimize", "fuzz_engine.minimize", after_minimize)
    wrap_span(rec, tcg, "covering_array", "tcg.covering_array", after_covering_array)
    wrap_span(rec, tcg, "generate_cases", "tcg.generate_cases")
    wrap_span(rec, scenario_dsl, "parse_scenario", "scenario_dsl.parse")
    wrap_span(rec, scenario_dsl, "serialize", "scenario_dsl.serialize")
    wrap_span(rec, vuln_scanner, "scan", "vuln_scanner.scan")
    wrap_hot(rec, fuzz_engine, "mutate", "fuzz_engine.mutate")
    wrap_hot(rec, executor.StateTransport, "send", "fuzz_engine.transport_send")
    wrap_hot(rec, executor.StateTransport, "restore", "fuzz_engine.restore")
    wrap_hot(rec, simulator, "handle_frame", "simulator.handle_frame")
    wrap_hot(rec, simulator, "load_state", "simulator.load_state")
    wrap_hot(rec, simulator, "dump_state", "simulator.dump_state")
    wrap_sockets(rec, data_port)


STAGES = ("item", "fingerprint", "analyze", "concept", "plan", "tcg", "execute", "report")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced round, by the names BENCHMARK.json lists."""
    calls, secs, c = rec.calls, rec.seconds, rec.counters
    out = {f"cli.{stage}_s": secs[f"cli.{stage}"] for stage in STAGES}
    out.update({
        "item_model.fingerprint_calls": calls["item_model.fingerprint"],
        "item_model.fingerprint_s": secs["item_model.fingerprint"],
        "executor.cases": calls["executor.execute_case"],
        "executor.execute_case_s": secs["executor.execute_case"],
        "executor.collect_calls": calls["executor.collect"],
        "executor.collect_s": secs["executor.collect"],
        "executor.collect_empty_s": c["executor.collect_empty_s"],
        "executor.probe_alive_calls": calls["executor.probe_alive"],
        "executor.probe_alive_s": secs["executor.probe_alive"],
        "executor.restore_calls": calls["executor.restore"],
        "executor.restore_s": secs["executor.restore"],
        "executor.mgmt_roundtrips": calls["executor.mgmt"],
        "executor.mgmt_s": secs["executor.mgmt"],
        "executor.wire_confirmations": c["executor.wire_confirmations"],
    })
    for key in ("tx_frames", "rx_frames", "tx_bytes", "rx_bytes", "recv_calls",
                "recv_timeouts", "recv_wait_s", "recv_timeout_wait_s"):
        out[f"wire.{key}"] = c[f"wire.{key}"]
    out["wire.useful_recv_ratio"] = _ratio(c["wire.useful_recvs"], c["wire.recv_calls"])
    out.update({
        "fuzz_engine.run_campaign_s": secs["fuzz_engine.run_campaign"],
        "fuzz_engine.minimize_calls": calls["fuzz_engine.minimize"],
        "fuzz_engine.minimize_s": secs["fuzz_engine.minimize"],
        "fuzz_engine.mutate_s": secs["fuzz_engine.mutate"],
        "fuzz_engine.findings": c["fuzz_engine.findings"],
        "fuzz_engine.buckets": c["fuzz_engine.buckets"],
        "fuzz_engine.bucket_ratio": _ratio(c["fuzz_engine.buckets"], c["fuzz_engine.findings"]),
        "fuzz_engine.transport_frames": calls["fuzz_engine.transport_send"],
        "fuzz_engine.campaign_frame_ratio": _ratio(
            c["fuzz_engine.campaign_frames"], calls["fuzz_engine.transport_send"]),
        "fuzz_engine.restores": calls["fuzz_engine.restore"],
        "simulator.handle_frame_calls": calls["simulator.handle_frame"],
        "simulator.load_state_calls": calls["simulator.load_state"],
        "simulator.load_state_s": secs["simulator.load_state"],
        "simulator.dump_state_calls": calls["simulator.dump_state"],
        "tcg.covering_array_calls": calls["tcg.covering_array"],
        "tcg.covering_array_s": secs["tcg.covering_array"],
        "tcg.generate_cases_s": rec.self_seconds("tcg.generate_cases"),
        "tcg.row_ratio": _ratio(c["tcg.rows"], c["tcg.row_lower_bound"]),
        "scenario_dsl.parse_s": secs["scenario_dsl.parse"],
        "scenario_dsl.serialize_s": secs["scenario_dsl.serialize"],
        "vuln_scanner.scan_s": secs["vuln_scanner.scan"],
    })
    return out
