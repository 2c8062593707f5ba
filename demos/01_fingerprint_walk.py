"""Boot a virtual ECU, fingerprint it blind, reconcile against the item.

The item declaration says which services the ECU *should* expose; active
fingerprinting measures what it *actually* exposes. The diff between the
two is where testing starts: an undeclared service is attack surface
nobody reviewed, a declared-but-silent one is a broken assumption.
"""

from pathlib import Path

import vecuforge
from vecuforge.frames import DataChannel
from vecuforge.item_model import (
    Item,
    ItemError,
    ProbeConfig,
    fingerprint_sut,
    load_json,
    reconcile,
)
from vecuforge.simulator import SimConfig, SimServer

SAMPLES = Path(vecuforge.__file__).parent / "samples"


def main() -> None:
    item = load_json(Item, SAMPLES / "item.json", ItemError)
    iface = item.interface("IF-CAN")
    declared = sorted(item.config_params.declared_services)
    print(f"item {item.id!r} declares diagnostic services: "
          + " ".join(f"0x{s:02x}" for s in declared))

    server = SimServer(SimConfig()).start()
    try:
        host, port = server.data_endpoint
        print(f"\nvirtual ECU up at {host}:{port}; probing request ids "
              f"0x7d8..0x7e4, then service bytes on every responder...")
        channel = DataChannel(host, port)
        try:
            fp = fingerprint_sut(iface.id, ProbeConfig(id_range=(0x7D8, 0x7E4)),
                                 channel=channel)
        finally:
            channel.close()
        print("responding request ids: "
              + " ".join(f"0x{i:03x}" for i in fp.responding_request_ids))
        print("supported services:     "
              + " ".join(f"0x{s:02x}" for s in fp.supported_services))
        for service, banner in sorted(fp.banners.items()):
            print(f"banner for 0x{service:02x}: {banner.hex()}")

        print("\nreconciling measurement against the declaration:")
        discrepancies = reconcile(item, fp)
        if not discrepancies:
            print("  none -- the ECU matches its paperwork")
        for d in discrepancies:
            print(f"  {d.kind.value}: service 0x{d.service:02x} ({d.detail})")
    finally:
        server.stop()


if __name__ == "__main__":
    main()
