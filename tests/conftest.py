from __future__ import annotations

import json
from pathlib import Path

import pytest

import vecuforge
from vecuforge.simulator import SimConfig, SimServer

SAMPLES = Path(vecuforge.__file__).parent / "samples"


@pytest.fixture(scope="session")
def samples_dir() -> Path:
    return SAMPLES


@pytest.fixture()
def sim_factory():
    """Start throwaway sim instances on ephemeral ports, stop them after."""
    servers: list[SimServer] = []

    def make(config: SimConfig | None = None) -> SimServer:
        srv = SimServer(config or SimConfig()).start()
        servers.append(srv)
        return srv

    yield make
    for srv in servers:
        srv.stop()


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
