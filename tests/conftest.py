from __future__ import annotations

import json
from pathlib import Path

import pytest

import vecuforge
from vecuforge import frames
from vecuforge.simulator import SimConfig, SimServer

SAMPLES = Path(vecuforge.__file__).parent / "samples"


@pytest.fixture(scope="session")
def samples_dir() -> Path:
    return SAMPLES


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


@pytest.fixture()
def barrierless_sim(sim_factory, monkeypatch):
    """A started ``BarrierlessServer``; clients give up on a barrier after 0.2 s."""
    monkeypatch.setattr(frames, "BARRIER_TIMEOUT", 0.2)
    return sim_factory(server_cls=BarrierlessServer)


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
