from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import vecuforge
from vecuforge import frames, item_model
from vecuforge.analysis import (
    analyze_threats,
    derive_requirements,
    load_catalog,
    load_countermeasures,
)
from vecuforge.item_model import Item, ItemError
from vecuforge.simulator import SimConfig, SimServer

SAMPLES = Path(vecuforge.__file__).parent / "samples"


@pytest.fixture(scope="session")
def samples_dir() -> Path:
    return SAMPLES


@pytest.fixture(scope="session")
def analysis(samples_dir) -> SimpleNamespace:
    """The bundled samples through the analyze stage's call, then the concept stage's."""
    catalog = load_catalog(samples_dir / "catalog.json")
    item = item_model.load_json(Item, samples_dir / "item.json", ItemError)
    threats, risks = analyze_threats(item, catalog)
    threat_class_by_id = {t.id: catalog.entry_for(t).threat_class for t in threats}
    library = load_countermeasures(samples_dir / "countermeasures.json")
    return SimpleNamespace(
        threats=threats,
        risks=risks,
        threat_class_by_id=threat_class_by_id,
        regulation_refs_by_threat={
            t.id: list(catalog.entry_for(t).regulation_refs) for t in threats
        },
        requirements=derive_requirements(threats, risks, threat_class_by_id, catalog, library),
    )


@pytest.fixture()
def sim_factory():
    """Start throwaway sim instances on ephemeral ports, stop them after."""
    servers: list[SimServer] = []

    def make(config: SimConfig | None = None,
             server_cls: type[SimServer] = SimServer) -> SimServer:
        srv = server_cls(config or SimConfig()).start()
        servers.append(srv)
        return srv

    yield make
    for srv in servers:
        srv.stop()


class BarrierlessServer(SimServer):
    """A simulator that answers frames but drops every SYNC barrier line."""

    def _handle_data_line(self, text: str) -> str:
        if text.startswith("SYNC "):
            return ""
        return super()._handle_data_line(text)


class ScanStallServer(SimServer):
    """A simulator that drops every SYNC line once it sees the first service probe.

    Liveness probes before the fingerprint's service sweep still get their
    barrier; the sweep itself never does.
    """

    stalled = False

    def _handle_data_line(self, text: str) -> str:
        if text == "7df#0100":
            self.stalled = True
        if self.stalled and text.startswith("SYNC "):
            return ""
        return super()._handle_data_line(text)


class ConnectionCountingServer(SimServer):
    """A simulator that lists the port role of each connection it serves, in
    the order their threads start.

    A connection is listed before its thread reads, so before any reply the
    client waits for.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.roles: list[str] = []

    def _serve(self, conn, handle) -> None:
        self.roles.append("data" if handle == self._handle_data_line else "mgmt")
        super()._serve(conn, handle)

    def opened_since(self, start: int) -> dict[str, int]:
        """The connections listed after the first ``start``, by port role."""
        new = self.roles[start:]
        return {"data": new.count("data"), "mgmt": new.count("mgmt")}


class FrameCountingServer(SimServer):
    """A simulator that counts the frame lines its data port reads; barrier
    lines are not counted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frames = 0

    def _handle_data_line(self, text: str) -> str:
        if not text.startswith("SYNC"):
            self.frames += 1
        return super()._handle_data_line(text)


@pytest.fixture()
def barrierless_sim(sim_factory, monkeypatch):
    """A started ``BarrierlessServer``; clients give up on a barrier after 0.2 s."""
    monkeypatch.setattr(frames, "BARRIER_TIMEOUT", 0.2)
    return sim_factory(server_cls=BarrierlessServer)


@pytest.fixture()
def scan_stall_sim(sim_factory, monkeypatch):
    """A started ``ScanStallServer``; clients give up on a barrier after 0.2 s."""
    monkeypatch.setattr(frames, "BARRIER_TIMEOUT", 0.2)
    return sim_factory(server_cls=ScanStallServer)


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
