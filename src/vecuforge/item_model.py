"""Item definition: what we believe the unit under test looks like.

An item file (JSON) declares the boundary, functions, components,
interfaces and security goals. Fingerprinting then asks the live SUT
what is actually there, and reconcile() reports where declaration and
observation disagree.

Fingerprinting strategy: sweep request ids over a configurable range
with tester-present probes, then sweep single service bytes 0x00-0x7F
on every id that answered. Each sweep is one pipelined exchange: every
probe is followed by its own ``SYNC <n>`` barrier, all sent at once, and
a reply belongs to the probe whose barrier follows it. Attribution thus
needs no protocol knowledge and no timing: a late reply still lands on
its own probe. Single-byte probes cannot mutate SUT state, so the SUT is
left in its initial session. The sweep is blind when the SUT does not
answer tester present at all; that case reports an empty surface, which
reconcile() will flag against the declaration.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

from .frames import Frame, FrameError, LineClient, parse_line


class ItemError(ValueError):
    """Malformed item file or violated model invariant."""


class InterfaceKind(str, Enum):
    CANLIKE = "canlike"
    DIAG = "diag"
    DEBUG = "debug"


class Exposure(str, Enum):
    EXTERNAL = "external"
    INTERNAL = "internal"


class SecurityProperty(str, Enum):
    CONFIDENTIALITY = "confidentiality"
    INTEGRITY = "integrity"
    AUTHENTICATION = "authentication"
    AVAILABILITY = "availability"
    AUTHORIZATION = "authorization"
    NON_REPUDIATION = "non_repudiation"


@dataclass(frozen=True)
class Function:
    id: str
    name: str
    description: str = ""
    kind: str = ""


@dataclass(frozen=True)
class Component:
    id: str
    name: str
    description: str = ""


@dataclass(frozen=True)
class Interface:
    id: str
    component_ref: str
    kind: InterfaceKind
    exposure: Exposure
    address: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SecurityGoal:
    id: str
    property: SecurityProperty
    target_ref: str
    statement: str


@dataclass
class Item:
    id: str
    name: str
    boundary: str
    functions: list[Function] = field(default_factory=list)
    components: list[Component] = field(default_factory=list)
    interfaces: list[Interface] = field(default_factory=list)
    security_goals: list[SecurityGoal] = field(default_factory=list)
    config_params: dict = field(default_factory=dict)

    def element_ids(self) -> set[str]:
        return (
            {f.id for f in self.functions}
            | {c.id for c in self.components}
            | {i.id for i in self.interfaces}
            | {g.id for g in self.security_goals}
        )

    def interface(self, iface_id: str) -> Interface:
        for iface in self.interfaces:
            if iface.id == iface_id:
                return iface
        raise ItemError(f"interface {iface_id!r} not in item {self.id!r}")


def _require(doc: dict, key: str, where: str) -> object:
    if key not in doc:
        raise ItemError(f"{where} is missing required field {key!r}")
    return doc[key]


def _enum(cls, raw: object, where: str):
    try:
        return cls(raw)
    except ValueError:
        allowed = ", ".join(e.value for e in cls)
        raise ItemError(f"{where}: {raw!r} is not one of {allowed}") from None


def item_from_dict(doc: dict) -> Item:
    item = Item(
        id=str(_require(doc, "id", "item")),
        name=str(_require(doc, "name", "item")),
        boundary=str(_require(doc, "boundary", "item")),
        functions=[
            Function(
                id=str(_require(f, "id", "function")),
                name=str(_require(f, "name", "function")),
                description=str(f.get("description", "")),
                kind=str(f.get("kind", "")),
            )
            for f in doc.get("functions", [])
        ],
        components=[
            Component(
                id=str(_require(c, "id", "component")),
                name=str(_require(c, "name", "component")),
                description=str(c.get("description", "")),
            )
            for c in doc.get("components", [])
        ],
        interfaces=[
            Interface(
                id=str(_require(i, "id", "interface")),
                component_ref=str(_require(i, "component_ref", "interface")),
                kind=_enum(InterfaceKind, _require(i, "kind", "interface"), f"interface {i.get('id')}"),
                exposure=_enum(Exposure, _require(i, "exposure", "interface"), f"interface {i.get('id')}"),
                address=tuple(sorted((str(k), str(v)) for k, v in i.get("address", {}).items())),
            )
            for i in doc.get("interfaces", [])
        ],
        security_goals=[
            SecurityGoal(
                id=str(_require(g, "id", "security goal")),
                property=_enum(SecurityProperty, _require(g, "property", "security goal"), f"goal {g.get('id')}"),
                target_ref=str(_require(g, "target_ref", "security goal")),
                statement=str(_require(g, "statement", "security goal")),
            )
            for g in doc.get("security_goals", [])
        ],
        config_params=dict(doc.get("config_params", {})),
    )
    validate_item(item)
    return item


def validate_item(item: Item) -> None:
    if not item.boundary.strip():
        raise ItemError(f"item {item.id!r}: boundary must be non-empty")
    if not item.interfaces:
        raise ItemError(f"item {item.id!r}: at least one interface is required")
    seen: set[str] = set()
    for eid in (
        [f.id for f in item.functions]
        + [c.id for c in item.components]
        + [i.id for i in item.interfaces]
        + [g.id for g in item.security_goals]
    ):
        if eid in seen:
            raise ItemError(f"duplicate id {eid!r} within item {item.id!r}")
        seen.add(eid)
    component_ids = {c.id for c in item.components}
    for iface in item.interfaces:
        if iface.component_ref not in component_ids:
            raise ItemError(
                f"interface {iface.id!r} references unknown component {iface.component_ref!r}"
            )
        if iface.exposure is Exposure.EXTERNAL and not iface.address:
            raise ItemError(f"external interface {iface.id!r} needs a non-empty address")
    for goal in item.security_goals:
        if goal.target_ref not in item.element_ids():
            raise ItemError(f"goal {goal.id!r} targets unknown element {goal.target_ref!r}")
    declared_services(item)


def load_item(path: str) -> Item:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ItemError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ItemError(f"{path}: top level must be an object")
    return item_from_dict(doc)


_SERVICE_HEX_RE = re.compile(r"(?:0x)?[0-9a-f]{1,2}", re.IGNORECASE)


def service_byte(raw, where: str, error: type[ValueError] = ItemError) -> int | None:
    """A service byte as written in input files, or None when absent.

    Both a JSON number and a hex string name one: ``39`` and ``"0x27"`` are
    0x27. Anything else raises ``error``, naming the field ``where``.
    """
    if raw is None:
        return None
    if isinstance(raw, str) and _SERVICE_HEX_RE.fullmatch(raw):
        return int(raw, 16)
    if type(raw) is int and 0 <= raw <= 0xFF:
        return raw
    raise error(f"{where}: {raw!r} is not a service byte "
                "(a number 0-255 or a hex string such as \"0x27\")")


def checked_object(value, where: str, error: type[ValueError]) -> dict:
    """``value`` if it is a JSON object; else ``error``, naming ``where``."""
    if not isinstance(value, dict):
        raise error(f"{where} must be an object, got {value!r}")
    return value


def required(entry: dict, key: str, where: str, error: type[ValueError]):
    """``entry[key]``; ``error`` names ``where`` and the field when it is absent."""
    if key not in entry:
        raise error(f"{where} lacks the required field {key!r}")
    return entry[key]


def named_entries(items, where: str, error: type[ValueError]) -> list[tuple[str, dict]]:
    """The objects of a list read from an input file, each with the text that
    names it in an error: ``where``, its index and, when it has one, its id."""
    if not isinstance(items, list):
        raise error(f"{where} must be a list, got {items!r}")
    named = []
    for ix, entry in enumerate(items):
        name = f"{where}[{ix}]"
        checked_object(entry, name, error)
        if isinstance(entry.get("id"), str):
            name += f" {entry['id']!r}"
        named.append((name, entry))
    return named


def declared_services(item: Item) -> set[int]:
    """Service bytes the item claims to expose (config key declared_services)."""
    raw = item.config_params.get("declared_services", [])
    where = f"item {item.id!r} config_params.declared_services"
    if not isinstance(raw, list):
        raise ItemError(f"{where} must be a list, got {raw!r}")
    return {service_byte(v, where) for v in raw}


# -- fingerprinting -----------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    id_range: tuple[int, int] = (0x7D0, 0x7FF)
    service_range: tuple[int, int] = (0x00, 0x7F)


@dataclass
class FingerprintReport:
    probed_interface: str
    responding_request_ids: list[int]
    supported_services: list[int]
    banners: dict[int, bytes]
    timestamp: str

    def __post_init__(self) -> None:
        self.responding_request_ids = sorted(set(self.responding_request_ids))
        self.supported_services = sorted(set(self.supported_services))
        missing = [s for s in self.supported_services if s not in self.banners]
        if missing:
            raise ItemError(f"fingerprint lists services without banners: {missing}")

    def to_dict(self) -> dict:
        return {
            "probed_interface": self.probed_interface,
            "responding_request_ids": [f"{i:03x}" for i in self.responding_request_ids],
            "supported_services": [f"{s:02x}" for s in self.supported_services],
            "banners": {f"{s:02x}": b.hex() for s, b in sorted(self.banners.items())},
            "timestamp": self.timestamp,
        }


def fingerprint_sut(
    interface_id: str,
    probe_cfg: ProbeConfig = ProbeConfig(),
    *,
    endpoint: tuple[str, int],
) -> FingerprintReport:
    """Actively enumerate responding request ids and service bytes.

    ``interface_id`` names the probed interface in the report;
    ``endpoint`` is the (host, port) of the live SUT's data channel.
    """
    client = LineClient(*endpoint)

    def sweep(frames: list[Frame]) -> list[Frame | None]:
        """One exchange; per probe, its first reply line if that parses."""
        replies = client.exchange([f.to_line() for f in frames])
        out: list[Frame | None] = []
        for lines in replies:
            try:
                out.append(parse_line(lines[0]) if lines else None)
            except FrameError:
                out.append(None)
        return out

    try:
        lo, hi = probe_cfg.id_range
        ids = range(lo, hi + 1)
        replies = sweep([Frame(frame_id, bytes([0x01, 0x3E])) for frame_id in ids])
        responding = [frame_id for frame_id, resp in zip(ids, replies) if resp is not None]

        services: set[int] = set()
        banners: dict[int, bytes] = {}
        s_lo, s_hi = probe_cfg.service_range
        svcs = range(s_lo, s_hi + 1)
        for frame_id in responding:
            replies = sweep([Frame(frame_id, bytes([0x01, svc])) for svc in svcs])
            for svc, resp in zip(svcs, replies):
                if resp is not None:
                    services.add(svc)
                    banners.setdefault(svc, resp.data)
    finally:
        client.close()

    return FingerprintReport(
        probed_interface=interface_id,
        responding_request_ids=responding,
        supported_services=sorted(services),
        banners=banners,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


# -- reconciliation -----------------------------------------------------


class DiscrepancyKind(str, Enum):
    UNDECLARED_SERVICE = "undeclared_service"
    DECLARED_BUT_SILENT = "declared_but_silent"


@dataclass(frozen=True)
class Discrepancy:
    kind: DiscrepancyKind
    service: int
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "service": f"{self.service:02x}", "detail": self.detail}


def reconcile(item: Item, fp: FingerprintReport) -> list[Discrepancy]:
    """Exact symmetric difference between declared and observed services."""
    item.interface(fp.probed_interface)
    declared = declared_services(item)
    observed = set(fp.supported_services)
    out: list[Discrepancy] = []
    for svc in sorted(observed - declared):
        out.append(
            Discrepancy(
                DiscrepancyKind.UNDECLARED_SERVICE,
                svc,
                f"service {svc:#04x} answers on {fp.probed_interface} but is not declared",
            )
        )
    for svc in sorted(declared - observed):
        out.append(
            Discrepancy(
                DiscrepancyKind.DECLARED_BUT_SILENT,
                svc,
                f"service {svc:#04x} is declared but never answered on {fp.probed_interface}",
            )
        )
    return out
