"""Item loading, validation, fingerprinting and reconciliation."""

from __future__ import annotations

import itertools
import json
import socket
import time
from contextlib import closing
from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecuforge.analysis import AnalysisError, load_catalog
from vecuforge.executor import ExecutorError
from vecuforge.frames import DataChannel, Frame
from vecuforge.item_model import (
    Discrepancy,
    DiscrepancyKind,
    Exposure,
    FingerprintReport,
    ImpactVector,
    InterfaceKind,
    Item,
    ItemError,
    ProbeConfig,
    _fields,
    decode,
    encode,
    fingerprint_sut,
    load_json,
    reconcile,
)
from vecuforge.simulator import SimConfig, SimServer
from vecuforge.vuln_scanner import ScanError, load_vulndb


def minimal_doc(**overrides) -> dict:
    doc = {
        "id": "ITEM-X",
        "name": "x",
        "boundary": "one ecu",
        "components": [{"id": "C1", "name": "core"}],
        "interfaces": [
            {
                "id": "IF1",
                "component_ref": "C1",
                "kind": "canlike",
                "exposure": "external",
                "address": {"host": "127.0.0.1", "port": "1", "bus": "can0"},
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestLoadAndValidate:
    def test_sample_item_echoes_elements(self, samples_dir):
        item = load_json(Item, samples_dir / "item.json", ItemError)
        assert item.id == "ITEM-DEMO-ECU"
        assert {c.id for c in item.components} == {"C-APP", "C-DIAG"}
        assert {i.id for i in item.interfaces} == {"IF-CAN", "IF-DEBUG"}
        assert {g.id for g in item.security_goals} == {"G-AUTH", "G-AUTHZ", "G-CONF", "G-AVAIL"}
        can = item.interface("IF-CAN")
        assert can.kind is InterfaceKind.CANLIKE
        assert can.exposure is Exposure.EXTERNAL
        assert dict(can.address)["bus"] == "can0"
        assert item.config_params.declared_services == {0x01, 0x10, 0x27, 0x2E, 0x3E}

    def test_duplicate_id_names_offender(self):
        doc = minimal_doc(components=[{"id": "ECU1", "name": "a"}, {"id": "ECU1", "name": "b"}])
        doc["interfaces"][0]["component_ref"] = "ECU1"
        with pytest.raises(ItemError, match="ECU1"):
            decode(Item, doc, "item", ItemError)

    def test_missing_boundary(self):
        doc = minimal_doc()
        del doc["boundary"]
        with pytest.raises(ItemError, match="boundary"):
            decode(Item, doc, "item", ItemError)

    def test_blank_boundary(self):
        with pytest.raises(ItemError, match="boundary"):
            decode(Item, minimal_doc(boundary="   "), "item", ItemError)

    def test_interface_unknown_component(self):
        doc = minimal_doc()
        doc["interfaces"][0]["component_ref"] = "GHOST"
        with pytest.raises(ItemError, match="GHOST"):
            decode(Item, doc, "item", ItemError)

    def test_no_interfaces_rejected(self):
        with pytest.raises(ItemError, match="interface"):
            decode(Item, minimal_doc(interfaces=[]), "item", ItemError)

    def test_external_interface_needs_address(self):
        doc = minimal_doc()
        doc["interfaces"][0]["address"] = {}
        with pytest.raises(ItemError, match="address"):
            decode(Item, doc, "item", ItemError)

    def test_goal_target_must_resolve(self):
        doc = minimal_doc(
            security_goals=[{"id": "G1", "property": "integrity", "target_ref": "NOPE", "statement": "s"}]
        )
        with pytest.raises(ItemError, match="NOPE"):
            decode(Item, doc, "item", ItemError)

    def test_bad_enum_value(self):
        doc = minimal_doc()
        doc["interfaces"][0]["kind"] = "wireless"
        with pytest.raises(ItemError, match="wireless"):
            decode(Item, doc, "item", ItemError)

    def test_parse_error_positions(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "id": "x",\n}\n')
        with pytest.raises(ItemError, match=r"line \d+ column \d+"):
            load_json(Item, p, ItemError)


class TestServiceByte:
    @pytest.mark.parametrize("raw", [39, "0x27"])
    def test_number_and_hex_string_read_alike_everywhere(self, tmp_path, raw):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps({"entries": [{
            "id": "TC-1", "title": "t", "match_predicate": {"service": raw},
            "threat_class": "c", "default_feasibility": 1,
        }]}))
        vulndb = tmp_path / "vulndb.json"
        vulndb.write_text(json.dumps({"entries": [
            {"id": "V-1", "predicate": {"requires_service": raw}},
        ]}))
        doc = minimal_doc(config_params={"declared_services": [raw]})
        item = decode(Item, doc, "item", ItemError)
        assert load_catalog(str(catalog)).entries[0].match_predicate.service == 0x27
        assert item.config_params.declared_services == {0x27}
        assert load_vulndb(vulndb)[0].predicate.requires_service == 0x27

    @pytest.mark.parametrize("raw", ["zz", 300, True, -1, 1.5, "0x100"])
    def test_malformed_byte_is_each_loaders_error(self, tmp_path, raw):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps({"entries": [{
            "id": "TC-1", "title": "t", "match_predicate": {"service": raw},
            "threat_class": "c", "default_feasibility": 1,
        }]}))
        vulndb = tmp_path / "vulndb.json"
        vulndb.write_text(json.dumps({"entries": [
            {"id": "V-1", "predicate": {"requires_service": raw}},
        ]}))
        with pytest.raises(ItemError, match="declared_services"):
            decode(Item, minimal_doc(config_params={"declared_services": ["0x10", raw]}),
                   "item", ItemError)
        with pytest.raises(AnalysisError, match="'TC-1' match_predicate.service"):
            load_catalog(str(catalog))
        with pytest.raises(ScanError, match="'V-1' predicate.requires_service"):
            load_vulndb(vulndb)

    def test_declared_services_must_be_a_list(self):
        with pytest.raises(ItemError, match="declared_services must be a list"):
            decode(Item, minimal_doc(config_params={"declared_services": "27"}),
                   "item", ItemError)


class Shade(str, Enum):
    PALE = "pale"
    DEEP = "d\u00e9ep\n"


@dataclass
class Swatch:
    name: str
    shade: Shade
    tones: tuple
    extra: object


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from(["\u00e9t\u00e9", "\x00\x1f\x7f", "tab\tquote\"back\\slash",
                     "\u2028\ud7ff\U0001f600"]),
    st.sampled_from(Shade),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in (
            st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
            st.sampled_from(Shade))),
        st.builds(Swatch, st.text(max_size=3), st.sampled_from(Shade),
                  st.lists(children, max_size=3).map(tuple), children),
        st.builds(ImpactVector, *[st.integers(0, 4)] * 4),
    )


DOCS = st.recursive(SCALARS, containers, max_leaves=25)


class TestEncode:
    @settings(max_examples=500, deadline=None)
    @given(DOCS)
    def test_bytes_are_those_of_json_dumps(self, doc):
        reference = json.dumps(doc, indent=2, sort_keys=True, default=_fields) + "\n"
        assert encode(doc) == reference.encode()

    def test_a_key_json_cannot_convert_is_a_type_error(self):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            encode({(1, 2): "pair"})


class LateSessionReplyServer(SimServer):
    """Delays its reply to the single-byte session-control probe by 20 ms."""

    def _handle_data_line(self, text: str) -> str:
        out = super()._handle_data_line(text)
        if text in ("7df#0110", "7e0#0110"):
            time.sleep(0.02)
        return out


class NoisyServer(SimServer):
    """Writes a line that is not a frame before every reply frame."""

    def _handle_data_line(self, text: str) -> str:
        out = super()._handle_data_line(text)
        if text.startswith("SYNC "):
            return out
        return "".join(f"noise\n{line}\n" for line in out.splitlines())


class ByteAtATimeServer(SimServer):
    """Writes its replies one byte per ``send``."""

    def _write(self, conn, data: bytes) -> None:
        for at in range(len(data)):
            super()._write(conn, data[at:at + 1])


class WholeSweepServer(SimServer):
    """Holds each connection's replies until it has answered 128 barriers,
    then writes them all in one ``send``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.held: dict = {}

    def _write(self, conn, data: bytes) -> None:
        held = self.held.pop(conn, b"") + data
        if held.count(b"SYNCED ") >= 128:
            super()._write(conn, held)
        else:
            self.held[conn] = held


class NonUtf8Server(SimServer):
    """Writes a line that is not UTF-8 before every barrier reply."""

    def _write(self, conn, data: bytes) -> None:
        super()._write(conn, data.replace(b"SYNCED ", b"\xc3\x28\xff\nSYNCED "))


class StrayBarrierServer(SimServer):
    """Writes ``SYNCED ²`` before every barrier reply: ``²`` is a digit to
    ``str.isdigit`` but not to ``int``, so the line is no barrier."""

    def _handle_data_line(self, text: str) -> str:
        out = super()._handle_data_line(text)
        return "SYNCED ²\n" + out if text.startswith("SYNC ") else out


def fingerprint_at(endpoint: tuple[str, int], cfg: ProbeConfig) -> FingerprintReport:
    """``fingerprint_sut`` of interface IF1 over a data connection opened to
    ``endpoint`` for it and closed after."""
    with closing(DataChannel(*endpoint)) as channel:
        return fingerprint_sut("IF1", cfg, channel=channel)


class TestReplyFraming:
    """However the SUT cuts its reply stream into writes, each probe gets the
    same replies."""

    SWEEP = [Frame(0x7DF, bytes([0x01, svc])) for svc in range(0x80)]
    IDS = ProbeConfig(id_range=(0x780, 0x7FF))  # 128 ids, so every sweep is 128 probes

    @staticmethod
    def sweep(server) -> list[list[Frame]]:
        channel = DataChannel(*server.data_endpoint)
        try:
            return channel.exchange(TestReplyFraming.SWEEP)
        finally:
            channel.close()

    @pytest.mark.parametrize("server_cls", [ByteAtATimeServer, WholeSweepServer, NonUtf8Server,
                                            StrayBarrierServer])
    def test_exchange_and_fingerprint_match_the_plain_server(self, sim_factory, server_cls):
        plain, odd = sim_factory(), sim_factory(server_cls=server_cls)
        expected = self.sweep(plain)
        assert sum(map(len, expected)) >= 5
        assert self.sweep(odd) == expected
        fingerprint = fingerprint_at(odd.data_endpoint, self.IDS).to_dict()
        assert fingerprint == fingerprint_at(plain.data_endpoint, self.IDS).to_dict()
        assert fingerprint["responding_request_ids"] == ["7df", "7e0"]


class TestFingerprint:
    def test_exact_service_set(self, sim_factory):
        cfg = SimConfig(services=frozenset({0x01, 0x10, 0x27, 0x3E, 0x42}))
        sim = sim_factory(cfg)
        report = fingerprint_at(sim.data_endpoint, ProbeConfig(id_range=(0x7DD, 0x7E2)))
        assert set(report.supported_services) == {0x01, 0x10, 0x27, 0x3E, 0x42}
        assert report.responding_request_ids == [0x7DF, 0x7E0]
        assert report.banners[0x3E] == bytes.fromhex("017e")

    def test_all_disabled_empty(self, sim_factory):
        sim = sim_factory(SimConfig(services=frozenset()))
        report = fingerprint_at(sim.data_endpoint, ProbeConfig(id_range=(0x7DF, 0x7E0)))
        assert report.supported_services == []
        assert report.responding_request_ids == []

    def test_dead_endpoint_unreachable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ExecutorError, match="unreachable"):
            fingerprint_at(("127.0.0.1", port), ProbeConfig())

    def test_idempotent_modulo_timestamp(self, sim_factory):
        sim = sim_factory()
        cfg = ProbeConfig(id_range=(0x7DE, 0x7E1), service_range=(0x00, 0x4F))
        a = fingerprint_at(sim.data_endpoint, cfg).to_dict()
        b = fingerprint_at(sim.data_endpoint, cfg).to_dict()
        assert a == b

    def test_late_reply_stays_with_its_probe(self, sim_factory):
        cfg = ProbeConfig(id_range=(0x7DD, 0x7E2))
        prompt = fingerprint_at(sim_factory().data_endpoint, cfg)
        late_sim = sim_factory(server_cls=LateSessionReplyServer)
        late = fingerprint_at(late_sim.data_endpoint, cfg)
        assert late.supported_services == prompt.supported_services
        assert late.banners == prompt.banners
        assert 0x10 in late.supported_services and 0x11 not in late.supported_services

    def test_reply_lines_that_are_not_frames_are_skipped(self, sim_factory):
        cfg = ProbeConfig(id_range=(0x7DD, 0x7E2))
        plain = fingerprint_at(sim_factory().data_endpoint, cfg)
        noisy_sim = sim_factory(server_cls=NoisyServer)
        noisy = fingerprint_at(noisy_sim.data_endpoint, cfg)
        assert noisy.responding_request_ids == plain.responding_request_ids == [0x7DF, 0x7E0]
        assert noisy.supported_services == plain.supported_services != []
        assert noisy.banners == plain.banners

    def test_sut_without_barrier_is_infrastructure(self, barrierless_sim):
        with pytest.raises(ExecutorError, match="did not answer the barrier"):
            fingerprint_at(barrierless_sim.data_endpoint, ProbeConfig(id_range=(0x7DF, 0x7E0)))

    def test_leaves_initial_session(self, sim_factory):
        sim = sim_factory()
        fingerprint_at(sim.data_endpoint, ProbeConfig(id_range=(0x7DF, 0x7DF)))
        assert sim.state.session == 0x01
        assert sim.state.seed_counter == 0

    def test_banner_invariant(self):
        with pytest.raises(ItemError, match="banner"):
            FingerprintReport("IF1", [], [0x3E], {})


def fp_for(services: set[int]) -> FingerprintReport:
    return FingerprintReport(
        probed_interface="IF1",
        responding_request_ids=[0x7DF],
        supported_services=sorted(services),
        banners={s: b"\x01" for s in services},
    )


def item_declaring(services: set[int]) -> Item:
    return decode(
        Item,
        minimal_doc(config_params={"declared_services": [f"0x{s:02x}" for s in sorted(services)]}),
        "item",
        ItemError,
    )


class TestReconcile:
    def test_identity_clean(self):
        assert reconcile(item_declaring({0x01, 0x10}), fp_for({0x01, 0x10})) == []

    def test_undeclared_service(self):
        out = reconcile(item_declaring({0x01}), fp_for({0x01, 0x42}))
        assert out == [
            Discrepancy(
                DiscrepancyKind.UNDECLARED_SERVICE,
                0x42,
                "service 0x42 answers on IF1 but is not declared",
            )
        ]

    def test_declared_but_silent(self):
        out = reconcile(item_declaring({0x01, 0x2E}), fp_for({0x01}))
        assert [d.kind for d in out] == [DiscrepancyKind.DECLARED_BUT_SILENT]
        assert out[0].service == 0x2E

    def test_unknown_interface_rejected(self):
        fp = fp_for({0x01})
        fp.probed_interface = "IF-GHOST"
        with pytest.raises(ItemError, match="IF-GHOST"):
            reconcile(item_declaring({0x01}), fp)

    def test_empty_iff_equal_exhaustive(self):
        universe = [0x01, 0x10]
        subsets = [set(c) for r in range(3) for c in itertools.combinations(universe, r)]
        for declared in subsets:
            for observed in subsets:
                out = reconcile(item_declaring(declared), fp_for(observed))
                assert (out == []) == (declared == observed)
