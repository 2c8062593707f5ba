"""Item definition: what we believe the unit under test looks like.

An item file (JSON) declares the boundary, functions, components,
interfaces and security goals, and in ``config_params`` the settings the
later stages read: the declared services, the request ids the fingerprint
sweeps, the risk threshold and an impact rating per goal property. The
whole file is one ``Item`` record that ``decode`` reads and checks, cross
references included, so a defect in it stops the ``item`` stage, before
any stage that uses it runs. Fingerprinting then asks the live SUT what
is actually there, and reconcile() reports where declaration and
observation disagree.

Fingerprinting strategy: sweep request ids over a configurable range
with tester-present probes, then sweep single service bytes 0x00-0x7F
on every id that answered. Each sweep is one pipelined exchange over a
``frames.DataChannel`` that the caller opened and closes; this module
opens no connection of its own. Every probe is followed by its own
``SYNC <n>`` barrier, all sent at once, and a reply belongs to the probe
whose barrier follows it. Attribution thus needs no protocol knowledge
and no timing: a late reply still lands on its own probe. A probe
answers when it draws at least one frame; reply lines that are not
frames are ignored, and a service's banner is its first reply frame.
Single-byte probes cannot mutate SUT state, so a sweep leaves the SUT in
the session it found it in. The sweep is blind when the SUT does not
answer tester present at all; that case reports an empty surface, which
reconcile() will flag against the declaration.
"""

import dataclasses
import functools
import json
import re
import typing
from dataclasses import dataclass, field
from enum import Enum
from types import UnionType
from typing import Annotated, Union

from .frames import MAX_FRAME_ID, DataChannel, Frame, hex_in


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


_SERVICE_HEX_RE = re.compile(r"(?:0x)?[0-9a-f]{1,2}", re.IGNORECASE)


def service_byte(raw, where: str, error: type[ValueError] = ItemError) -> int:
    """A service byte as written in input files.

    Both a JSON number and a hex string name one: ``39`` and ``"0x27"`` are
    0x27. Anything else, null included, raises ``error``, naming the field
    ``where``; a field that may be absent is read as ``ServiceByte | None``.
    """
    if isinstance(raw, str) and _SERVICE_HEX_RE.fullmatch(raw):
        return int(raw, 16)
    if type(raw) is int and 0 <= raw <= 0xFF:
        return raw
    raise error(f"{where}: {raw!r} is not a service byte "
                "(a number 0-255 or a hex string such as \"0x27\")")


ServiceByte = Annotated[int, service_byte]


def _id_range(raw, where: str, error: type[ValueError]) -> tuple[int, int]:
    """Two hex strings such as ``["0x7d0", "0x7ff"]``, each at most 0x7ff,
    the lower first."""
    ids = [hex_in(v.removeprefix("0x"), MAX_FRAME_ID) if type(v) is str else None
           for v in (raw if type(raw) is list and len(raw) == 2 else [None])]
    if None not in ids and ids[0] <= ids[1]:
        return ids[0], ids[1]
    raise error(f"{where}: {raw!r} is not two 11-bit hex frame ids, the lower first, "
                "such as [\"0x7d0\", \"0x7ff\"]")


def check_range(name: str, value, lo: int, hi: int, error: type[ValueError] = ItemError) -> int:
    """``value`` when it is an integer (not a bool) in ``lo``-``hi``, else ``error``."""
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
        raise error(f"{name} must be an integer in [{lo},{hi}], got {value!r}")
    return value


@dataclass(frozen=True)
class ImpactVector:
    """Impact ratings, 0-4 each; ``level`` is the highest of them."""

    safety: int
    financial: int
    operational: int
    privacy: int
    level: int = field(init=False)

    def __post_init__(self) -> None:
        for name in ("safety", "financial", "operational", "privacy"):
            check_range(name, getattr(self, name), 0, 4)
        object.__setattr__(
            self, "level", max(self.safety, self.financial, self.operational, self.privacy)
        )


@dataclass
class ItemConfig:
    """``config_params``: the service bytes the item claims to expose, the
    request ids the fingerprint sweeps, the risk threshold (1-16) and the
    impact ratings by goal property. Any other key is an error."""

    declared_services: set[ServiceByte] = field(default_factory=set)
    fingerprint_id_range: Annotated[tuple[int, int], _id_range] = (0x7D0, 0x7FF)
    risk_threshold: int = 4
    impact_ratings: dict[str, ImpactVector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_range("risk_threshold", self.risk_threshold, 1, 16)


@dataclass(frozen=True)
class Function:
    """A function the item performs."""

    id: str
    name: str
    description: str = ""
    kind: str = ""


@dataclass(frozen=True)
class Component:
    """A component inside the item's boundary."""

    id: str
    name: str
    description: str = ""


@dataclass(frozen=True)
class Interface:
    """An item interface: the component behind it, its kind, its exposure and
    its address."""

    id: str
    component_ref: str
    kind: InterfaceKind
    exposure: Exposure
    address: tuple[tuple[str, str], ...] = ()

    @property
    def carries_protocol(self) -> bool:
        """Whether the diagnostic protocol reaches the SUT through this
        interface: its kind is ``canlike`` or ``diag``."""
        return self.kind in (InterfaceKind.CANLIKE, InterfaceKind.DIAG)


@dataclass(frozen=True)
class SecurityGoal:
    """A security property the item must keep for one of its elements."""

    id: str
    property: SecurityProperty
    target_ref: str
    statement: str


@dataclass
class Item:
    """An item definition. Construction checks the cross references: a
    non-blank boundary, at least one interface, unique element ids, known
    components behind interfaces, an address on every external interface
    and a known element behind every goal."""

    id: str
    name: str
    boundary: str
    functions: list[Function] = field(default_factory=list)
    components: list[Component] = field(default_factory=list)
    interfaces: list[Interface] = field(default_factory=list)
    security_goals: list[SecurityGoal] = field(default_factory=list)
    config_params: ItemConfig = field(default_factory=ItemConfig)

    def __post_init__(self) -> None:
        if not self.boundary.strip():
            raise ItemError(f"item {self.id!r}: boundary must be non-empty")
        if not self.interfaces:
            raise ItemError(f"item {self.id!r}: at least one interface is required")
        seen: set[str] = set()
        for element in self.functions + self.components + self.interfaces + self.security_goals:
            if element.id in seen:
                raise ItemError(f"duplicate id {element.id!r} within item {self.id!r}")
            seen.add(element.id)
        component_ids = {c.id for c in self.components}
        for iface in self.interfaces:
            if iface.component_ref not in component_ids:
                raise ItemError(
                    f"interface {iface.id!r} references unknown component {iface.component_ref!r}"
                )
            if iface.exposure is Exposure.EXTERNAL and not iface.address:
                raise ItemError(f"external interface {iface.id!r} needs a non-empty address")
        for goal in self.security_goals:
            if goal.target_ref not in seen:
                raise ItemError(f"goal {goal.id!r} targets unknown element {goal.target_ref!r}")

    def protocol_interfaces(self) -> list[Interface]:
        """The external interfaces that carry the protocol, by id: what the
        fingerprint probes and the vulnerability scan sweeps."""
        return sorted((i for i in self.interfaces
                       if i.exposure is Exposure.EXTERNAL and i.carries_protocol),
                      key=lambda i: i.id)

    def interface(self, iface_id: str) -> Interface:
        for iface in self.interfaces:
            if iface.id == iface_id:
                return iface
        raise ItemError(f"interface {iface_id!r} not in item {self.id!r}")


def read_text(path, error: type[ValueError]) -> str:
    """The text of the UTF-8 file ``path``; other bytes are ``error``, naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {data[exc.start]:#04x} at offset "
                    f"{exc.start}") from None


def load_json(kind, path, error: type[ValueError]):
    """The JSON file ``path`` read as ``kind`` by ``decode``; a file that is
    not UTF-8, does not parse or does not read as ``kind`` is ``error``,
    naming the file."""
    try:
        doc = json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return decode(kind, doc, str(path), error)


def encode(doc) -> bytes:
    """``doc`` as canonical JSON: indented, keys sorted, one closing newline. A
    dataclass is written as the object of its fields, the shape ``decode`` reads.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True,
    default=_fields)`` plus the newline. ``json`` writes indented text in
    pure Python through one generator per container; this writer makes one
    pass that appends to one list, joined once. It converts as ``json``
    does: strings through ``encode_basestring_ascii``, numbers through
    ``int.__repr__`` and ``float.__repr__`` (with ``json``'s ``NaN`` and
    ``Infinity``), keys sorted before they are converted, tuples as lists.
    """
    out: list[str] = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out).encode()


def _fields(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


_quote = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_float_text = float.__repr__
_INFINITY = float("inf")


def _number(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return _float_text(value)


def _key(key) -> str:
    """An object key as ``json`` converts it: a str, float, bool, None or int."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_number(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + _int_text(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


# The text of a value of exactly these types; ``_write`` takes the rest:
# containers, str enums and dataclasses.
_SCALARS = {str: _quote, int: _int_text, float: _number, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null"}


def _write(value, out: list[str], newline: str) -> None:
    """Append ``value`` to ``out``; ``newline`` starts a line at its depth."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, item in sorted(value.items()):
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(opener + _key(key) + ": ")
                _write(item, out, inner)
            else:
                out.append(opener + _key(key) + ": " + scalar(item))
            opener = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(opener)
                _write(item, out, inner)
            else:
                out.append(opener + scalar(item))
            opener = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):  # a str enum
        out.append(_quote(value))
    else:
        _write(_fields(value), out, newline)


class _Invalid(ValueError):
    """A value that does not read as its type. ``detail`` continues the text
    of the field's path; ``path`` gathers that path, innermost segment first,
    while the error unwinds, so a value that reads cleanly builds no text."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail
        self.path: list[str] = []


def decode(kind, value, where: str, error: type[ValueError]):
    """``value``, a JSON value, read as the annotated type ``kind`` and checked
    all the way down; anything else is ``error``, naming ``where`` and the
    path of the bad field (``entries[0] 'TC-1' match_predicate.service``).

    - A dataclass reads from an object, by field name. A field without a
      default is required, a key that names no field is an error, and an
      ``init=False`` field is derived: never required and never read.
    - ``list[T]``, ``tuple[T, ...]`` and ``set[T]`` read from a list,
      ``dict[str, T]`` from an object, and ``tuple[tuple[str, T], ...]`` from
      an object, as its pairs sorted by key.
    - ``T | None`` reads null as None. An ``Enum`` reads by its value.
    - ``Annotated[T, read]`` reads through ``read(value, where, error)``, as
      ``ServiceByte`` does through ``service_byte``.
    - ``object`` takes any value and a bare ``dict`` any object.
    - Every other scalar needs its exact JSON type: a bool is no int and
      ``"3"`` no int; an int is accepted where a float is expected.

    A dataclass's own check (``__post_init__``) that raises ``ValueError``
    is ``error`` too, prefixed with the path of the record. Field types are
    read as the type objects the class holds, so a module whose records are
    decoded must not turn annotations into strings.
    """
    try:
        return _reader(kind)(value)
    except _Invalid as exc:
        text, sep = where, ": "
        for segment in reversed(exc.path):
            if segment.startswith("["):
                text, sep = text + segment, " "
            else:
                text, sep = f"{text}{sep}{segment}", "."
        raise error(text + exc.detail) from None


_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
          list: "a list", dict: "an object"}


def _wrong(kind, value) -> _Invalid:
    return _Invalid(f" must be {_NAMES[kind]}, got {value!r}")


@functools.cache
def _reader(kind):
    """The function that reads a JSON value as ``kind``, built once per type."""
    if dataclasses.is_dataclass(kind):
        return _record_reader(kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is Annotated:
        read = kind.__metadata__[0]
        return lambda value: read(value, "", _Invalid)
    if origin in (Union, UnionType):
        (inner,) = (a for a in args if a is not type(None))
        read = _reader(inner)
        return lambda value: None if value is None else read(value)
    if origin is tuple and typing.get_origin(args[0]) is tuple:
        return _object_reader(_reader(typing.get_args(args[0])[1]),
                              lambda pairs: tuple(sorted(pairs.items())))
    if origin in (list, tuple, set):
        return _list_reader(_reader(args[0]), origin)
    if kind is object:
        return lambda value: value
    if kind is dict or (origin is dict and args[1] is object):
        return _object_reader(None, None)
    if origin is dict:
        return _object_reader(_reader(args[1]), None)
    if isinstance(kind, type) and issubclass(kind, Enum):
        allowed = ", ".join(e.value for e in kind)

        def read_enum(value):
            try:
                return kind(value)
            except ValueError:
                raise _Invalid(f" must be one of {allowed}, got {value!r}") from None
        return read_enum
    exact = (int, float) if kind is float else (kind,)
    if kind not in _NAMES:
        raise TypeError(f"decode cannot read {kind!r}")

    def read_scalar(value):
        if type(value) not in exact:
            raise _wrong(kind, value)
        return value
    return read_scalar


def _list_reader(read, build):
    def read_list(value):
        if type(value) is not list:
            raise _wrong(list, value)
        out = []
        for ix, element in enumerate(value):
            try:
                out.append(read(element))
            except _Invalid as exc:  # the segment names the element's id when it has one
                name = element.get("id") if type(element) is dict else None
                exc.path.append(f"[{ix}] {name!r}" if type(name) is str else f"[{ix}]")
                raise
        return out if build is list else build(out)
    return read_list


def _object_reader(read, build):
    def read_object(value):
        if type(value) is not dict:
            raise _wrong(dict, value)
        if read is None:  # any values: the object itself
            return value
        out = {}
        for key, element in value.items():
            try:
                out[key] = read(element)
            except _Invalid as exc:
                exc.path.append(key)
                raise
        return out if build is None else build(out)
    return read_object


def _record_reader(cls):
    fields = [f for f in dataclasses.fields(cls) if f.init]
    readers = {f.name: _reader(f.type) for f in fields}
    derived = {f.name for f in dataclasses.fields(cls) if not f.init}
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]

    def read_record(value):
        if type(value) is not dict:
            raise _wrong(dict, value)
        for key in required:
            if key not in value:
                raise _Invalid(f" lacks the required field {key!r}")
        kwargs = {}
        for key, element in value.items():
            read = readers.get(key)
            if read is None:
                if key in derived:
                    continue
                raise _Invalid(f" has the unknown field {key!r}")
            try:
                kwargs[key] = read(element)
            except _Invalid as exc:
                exc.path.append(key)
                raise
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise _Invalid(f": {exc}") from None
    return read_record


# -- fingerprinting -----------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    """The request ids and the service bytes a fingerprint sweeps, both ranges
    inclusive."""

    id_range: tuple[int, int] = ItemConfig.fingerprint_id_range
    service_range: tuple[int, int] = (0x00, 0x7F)


@dataclass
class FingerprintReport:
    """What a fingerprint saw on one interface: the request ids and service
    bytes that answered, and each service's first reply data (``banners``)."""

    probed_interface: str
    responding_request_ids: list[int]
    supported_services: list[int]
    banners: dict[int, bytes]

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
        }


def fingerprint_sut(
    interface_id: str,
    probe_cfg: ProbeConfig = ProbeConfig(),
    *,
    channel: DataChannel,
) -> FingerprintReport:
    """Actively enumerate responding request ids and service bytes.

    ``interface_id`` names the probed interface in the report; the sweeps
    go over ``channel``, the caller's connection to the live SUT's data
    port, which the caller also closes.
    """
    lo, hi = probe_cfg.id_range
    ids = range(lo, hi + 1)
    replies = channel.exchange([Frame(frame_id, bytes([0x01, 0x3E])) for frame_id in ids])
    responding = [frame_id for frame_id, resp in zip(ids, replies) if resp]

    services: set[int] = set()
    banners: dict[int, bytes] = {}
    s_lo, s_hi = probe_cfg.service_range
    svcs = range(s_lo, s_hi + 1)
    for frame_id in responding:
        replies = channel.exchange([Frame(frame_id, bytes([0x01, svc])) for svc in svcs])
        for svc, resp in zip(svcs, replies):
            if resp:
                services.add(svc)
                banners.setdefault(svc, resp[0].data)

    return FingerprintReport(
        probed_interface=interface_id,
        responding_request_ids=responding,
        supported_services=sorted(services),
        banners=banners,
    )


# -- reconciliation -----------------------------------------------------


class DiscrepancyKind(str, Enum):
    UNDECLARED_SERVICE = "undeclared_service"
    DECLARED_BUT_SILENT = "declared_but_silent"


@dataclass(frozen=True)
class Discrepancy:
    """One service on which the item's declaration and the fingerprint disagree."""

    kind: DiscrepancyKind
    service: int
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "service": f"{self.service:02x}", "detail": self.detail}


def reconcile(item: Item, fp: FingerprintReport) -> list[Discrepancy]:
    """Exact symmetric difference between declared and observed services."""
    item.interface(fp.probed_interface)
    declared = item.config_params.declared_services
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
