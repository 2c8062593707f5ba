"""Output checks that do not go through the code path being measured.

Every check returns a list of problems; an empty list means the output
is correct. The references are computed here from the simulator's pure
transition function (``handle_frame`` on a fresh ``EcuState``) or by
brute force, never from the wire client, the fuzz transport or the
covering-array builder whose output they judge. None of them compares
against stored counts such as today's number of fuzz findings.
"""

from __future__ import annotations

import itertools

from vecuforge.frames import Frame
from vecuforge.item_model import ProbeConfig
from vecuforge.scenario_dsl import parse_scenario, serialize
from vecuforge.simulator import FUNCTIONAL_REQ_ID, EcuState, SimConfig, handle_frame

TESTER_PRESENT = bytes([0x01, 0x3E])

# The four seeded defects of the default build (README defect table) and
# the demo case that must fail for each; every other case must pass.
DEFECT_CASES = {
    "weak seed-key": "pen-req-tc-weakkey-if-can-00-000",
    "session bypass": "func-neg-req-tc-sessbypass-if-can-001",
    "length-field crash": "fuzz-if-can-000",
    "hidden service": "vulnscan-item-demo-ecu-000",
}


def fresh_ecu(vulns: bool) -> EcuState:
    return EcuState(config=SimConfig().with_vulns(vulns))


# -- fingerprint -------------------------------------------------------------


def expected_surface(vulns: bool, probe_cfg: ProbeConfig = ProbeConfig()) -> dict:
    """The fingerprint sweep's probes fed, in sweep order, to ``handle_frame``.

    Returns the ``responding_request_ids``, ``supported_services`` and
    ``banners`` fields in the same hex encoding as ``fingerprint.json``.
    """
    state = fresh_ecu(vulns)

    def first_reply(frame: Frame) -> Frame | None:
        nonlocal state
        state, replies = handle_frame(state, frame)
        return replies[0] if replies else None

    lo, hi = probe_cfg.id_range
    responding = [i for i in range(lo, hi + 1) if first_reply(Frame(i, TESTER_PRESENT))]
    banners: dict[int, bytes] = {}
    s_lo, s_hi = probe_cfg.service_range
    for frame_id in responding:
        for svc in range(s_lo, s_hi + 1):
            reply = first_reply(Frame(frame_id, bytes([0x01, svc])))
            if reply is not None:
                banners.setdefault(svc, reply.data)
    return {
        "responding_request_ids": [f"{i:03x}" for i in responding],
        "supported_services": [f"{s:02x}" for s in sorted(banners)],
        "banners": {f"{s:02x}": b.hex() for s, b in sorted(banners.items())},
    }


def check_fingerprint(measured: dict, expected: dict) -> list[str]:
    """Compare one interface entry of ``fingerprint.json`` with the reference."""
    problems = []
    for key in ("responding_request_ids", "supported_services", "banners"):
        if measured.get(key) != expected[key]:
            problems.append(f"fingerprint {key}: got {measured.get(key)}, expected {expected[key]}")
    return problems


# -- demo verdicts and cleanups ------------------------------------------------


def check_verdict(case_id: str, verdict: str, vulns: bool) -> list[str]:
    """Seeded build: exactly the defect cases fail, all others pass.
    Control build: no case fails."""
    if not vulns:
        return [f"{case_id}: control build gave verdict 'fail'"] if verdict == "fail" else []
    want = "fail" if case_id in DEFECT_CASES.values() else "pass"
    return [] if verdict == want else [f"{case_id}: verdict {verdict!r}, expected {want!r}"]


def check_cleanup(cleanup: dict) -> list[str]:
    if cleanup.get("restored") is True and cleanup.get("verified") is True:
        return []
    return [f"{cleanup.get('case_ref')}: cleanup not restored and verified ({cleanup.get('detail')})"]


# -- fuzzing -------------------------------------------------------------------


def kills_fresh_ecu(frame: Frame) -> bool:
    """True when ``frame`` alone stops a fresh seeded-build ECU."""
    state, _ = handle_frame(fresh_ecu(True), frame)
    _, replies = handle_frame(state, Frame(FUNCTIONAL_REQ_ID, TESTER_PRESENT))
    return not replies


def check_trigger(frame: Frame) -> list[str]:
    return [] if kills_fresh_ecu(frame) else [f"trigger {frame.to_line()} does not kill a fresh ECU"]


def check_minimized(frame: Frame | None) -> list[str]:
    """The minimised input kills on its own, is 1-minimal (no single byte
    can be dropped) and declares more parameter bytes than it carries."""
    if frame is None:
        return ["finding has no minimised input"]
    line = frame.to_line()
    problems = []
    if not kills_fresh_ecu(frame):
        problems.append(f"minimised input {line} does not kill a fresh ECU")
    for ix in range(len(frame.data)):
        smaller = Frame(frame.id, frame.data[:ix] + frame.data[ix + 1 :])
        if kills_fresh_ecu(smaller):
            problems.append(f"minimised input {line} is not 1-minimal: {smaller.to_line()} also kills")
            break
    if not frame.data or frame.data[0] <= len(frame.data) - 1:
        problems.append(f"minimised input {line}: length byte does not exceed its parameter bytes")
    return problems


# -- covering arrays -----------------------------------------------------------


def check_coverage(bindings: list[dict], domains: dict[str, list], t: int) -> list[str]:
    """Brute force: every binding lies in its domain and every t-way value
    combination of every t parameters appears in some case."""
    problems = []
    for row in bindings:
        if set(row) != set(domains):
            return [f"case binds {sorted(row)}, expected {sorted(domains)}"]
        for name, value in row.items():
            if value not in domains[name]:
                problems.append(f"{name}={value} lies outside its domain")
    for combo in itertools.combinations(sorted(domains), t):
        seen = {tuple(row[p] for p in combo) for row in bindings}
        for values in itertools.product(*(domains[p] for p in combo)):
            if values not in seen:
                problems.append(f"no case covers {dict(zip(combo, values))}")
                return problems
    return problems


def check_roundtrip(scenario) -> list[str]:
    text = serialize(scenario)
    again = parse_scenario(text)
    if again != scenario or serialize(again) != text:
        return [f"scenario {scenario.id!r} does not round-trip through serialize/parse_scenario"]
    return []
