"""Vulnerability database matching against fingerprints."""

from __future__ import annotations

import random
import re
from contextlib import closing

import pytest

from vecuforge.frames import DataChannel
from vecuforge.item_model import FingerprintReport, ProbeConfig, fingerprint_sut
from vecuforge.simulator import SimConfig
from vecuforge.vuln_scanner import ScanError, VulnDbEntry, VulnPredicate, load_vulndb, scan


def fp_with(services: dict[int, bytes]) -> FingerprintReport:
    return FingerprintReport(
        probed_interface="IF-CAN",
        responding_request_ids=[0x7DF, 0x7E0],
        supported_services=list(services),
        banners=dict(services),
    )


DEFAULT_FP = fp_with(
    {
        0x01: bytes.fromhex("03410d32"),
        0x10: bytes.fromhex("025001"),
        0x27: bytes.fromhex("04670113"),
        0x3E: bytes.fromhex("017e"),
        0x42: bytes.fromhex("026242"),
    }
)


class TestDatabase:
    def test_load_bundled(self, samples_dir):
        db = load_vulndb(samples_dir / "vulndb.json")
        assert [e.id for e in db] == ["VDB-HIDDEN-042", "VDB-LEGACY-099", "VDB-DEEPSESSION-042"]
        hidden = db[0]
        assert hidden.predicate.requires_service == 0x42
        assert hidden.predicate.requires_banner_regex == "^0262"
        assert hidden.severity == 3
        assert hidden.followup == "followup-hidden-service"
        assert hidden.regulation_refs == ("UNECE R155 Annex 5, 4.3.7",)

    def test_empty_predicate_rejected(self):
        with pytest.raises(ScanError, match="empty predicate"):
            VulnDbEntry(id="X", title="t")

    def test_severity_range_enforced(self):
        with pytest.raises(ScanError, match="severity"):
            VulnDbEntry(id="X", title="t", predicate=VulnPredicate(requires_service=1), severity=5)

    def test_bad_regex_rejected(self):
        with pytest.raises(ScanError, match="regex"):
            VulnDbEntry(id="X", title="t", predicate=VulnPredicate(requires_banner_regex="("))


class TestScan:
    def test_bundled_db_flags_hidden_service(self, samples_dir):
        db = load_vulndb(samples_dir / "vulndb.json")
        report = scan(DEFAULT_FP, db)
        assert [f.entry_id for f in report.findings] == ["VDB-HIDDEN-042"]
        finding = report.findings[0]
        assert finding.evidence["service"] == "0x42"
        assert finding.evidence["banner"] == "026242"
        assert finding.severity == 3
        assert report.followups == ["followup-hidden-service"]

    def test_absent_service_not_flagged(self, samples_dir):
        db = load_vulndb(samples_dir / "vulndb.json")
        ids = {f.entry_id for f in scan(DEFAULT_FP, db).findings}
        assert "VDB-LEGACY-099" not in ids

    def test_session_predicate_needs_matching_context(self, samples_dir):
        db = load_vulndb(samples_dir / "vulndb.json")
        assert "VDB-DEEPSESSION-042" not in {
            f.entry_id for f in scan(DEFAULT_FP, db).findings
        }
        deep = scan(DEFAULT_FP, db, session="0x03")
        assert "VDB-DEEPSESSION-042" in {f.entry_id for f in deep.findings}
        finding = next(f for f in deep.findings if f.entry_id == "VDB-DEEPSESSION-042")
        assert finding.evidence["session"] == "0x03"

    def test_empty_db(self):
        report = scan(DEFAULT_FP, [])
        assert report.findings == [] and report.followups == []

    def test_banner_regex_without_service_searches_all(self):
        entry = VulnDbEntry(id="X", title="t", predicate=VulnPredicate(requires_banner_regex="^0350"))
        fp = fp_with({0x10: bytes.fromhex("035001aa"), 0x3E: bytes.fromhex("017e")})
        report = scan(fp, [entry])
        assert [f.entry_id for f in report.findings] == ["X"]
        assert report.findings[0].evidence["service"] == "0x10"

    def test_banner_regex_mismatch(self):
        entry = VulnDbEntry(id="X", title="t",
                            predicate=VulnPredicate(requires_service=0x42, requires_banner_regex="^ff"))
        assert scan(DEFAULT_FP, [entry]).findings == []

    def test_pure_and_order_stable(self, samples_dir):
        db = load_vulndb(samples_dir / "vulndb.json")
        again = list(reversed(db))
        first = scan(DEFAULT_FP, db)
        assert first.target == "IF-CAN"
        assert scan(DEFAULT_FP, db) == first
        reversed_ids = [f.entry_id for f in scan(DEFAULT_FP, again).findings]
        assert reversed_ids == [f.entry_id for f in reversed(first.findings)]


def brute_force_matches(entry: VulnDbEntry, fp: FingerprintReport, session: str) -> bool:
    """Direct predicate semantics, written separately from the scanner."""
    entry = entry.predicate
    if entry.requires_service is not None and entry.requires_service not in fp.supported_services:
        return False
    if entry.requires_banner_regex is not None:
        pattern = re.compile(entry.requires_banner_regex)
        if entry.requires_service is not None:
            if not pattern.search(fp.banners[entry.requires_service].hex()):
                return False
        elif not any(pattern.search(b.hex()) for b in fp.banners.values()):
            return False
    if entry.requires_session is not None and entry.requires_session != session:
        return False
    return True


class TestBruteForceSoundness:
    def test_bundled_equality(self, samples_dir):
        db = load_vulndb(samples_dir / "vulndb.json")
        expected = [e.id for e in db if brute_force_matches(e, DEFAULT_FP, "0x01")]
        assert [f.entry_id for f in scan(DEFAULT_FP, db).findings] == expected

    def test_randomized_equality(self):
        rng = random.Random(31337)
        regex_pool = ["^02", "^0262", "42$", "7e", "^ff", "01.?0d"]
        for _ in range(40):
            services = {
                svc: bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
                for svc in rng.sample(range(0x00, 0x80), rng.randint(1, 6))
            }
            fp = fp_with(services)
            db = []
            for ix in range(rng.randint(1, 6)):
                fields: dict = {}
                if rng.random() < 0.7:
                    fields["requires_service"] = rng.choice(
                        list(services) + [0x99, 0x55]
                    )
                if rng.random() < 0.5:
                    fields["requires_banner_regex"] = rng.choice(regex_pool)
                if rng.random() < 0.3:
                    fields["requires_session"] = rng.choice(["0x01", "0x03"])
                if not fields:
                    fields["requires_service"] = 0x01
                db.append(VulnDbEntry(id=f"E{ix}", title="t", predicate=VulnPredicate(**fields)))
            session = rng.choice(["0x01", "0x03"])
            expected = [e.id for e in db if brute_force_matches(e, fp, session)]
            got = [f.entry_id for f in scan(fp, db, session=session).findings]
            assert got == expected


class TestLiveFingerprint:
    def test_scan_of_live_sim_finds_seeded_vuln(self, samples_dir, sim_factory):
        sim = sim_factory(SimConfig())
        with closing(DataChannel(*sim.data_endpoint)) as channel:
            fp = fingerprint_sut("IF-CAN", ProbeConfig(id_range=(0x7DD, 0x7E2)), channel=channel)
        db = load_vulndb(samples_dir / "vulndb.json")
        report = scan(fp, db)
        assert [f.entry_id for f in report.findings] == ["VDB-HIDDEN-042"]
        assert report.findings[0].evidence["banner"] == "026242"

    def test_control_sim_yields_clean_scan(self, samples_dir, sim_factory):
        sim = sim_factory(SimConfig().with_vulns(False))
        with closing(DataChannel(*sim.data_endpoint)) as channel:
            fp = fingerprint_sut("IF-CAN", ProbeConfig(id_range=(0x7DD, 0x7E2)), channel=channel)
        report = scan(fp, load_vulndb(samples_dir / "vulndb.json"))
        assert report.findings == []
