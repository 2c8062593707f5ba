"""Vulnerability scanning: match a signature database against a fingerprint.

Each database entry carries a predicate over the fingerprint (service
present, banner bytes matching a regex, session context). Matching
entries become findings with concrete evidence; entries that declare a
follow-up template emit a follow-up task stub.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

from .item_model import FingerprintReport, ServiceByte, load_json


class ScanError(ValueError):
    """Malformed vulnerability database entry."""


@dataclass(frozen=True)
class VulnPredicate:
    """What a fingerprint must show for an entry to match; None fields are wildcards."""

    requires_service: ServiceByte | None = None
    requires_banner_regex: str | None = None
    requires_session: str | None = None


@dataclass(frozen=True)
class VulnDbEntry:
    """A vulnerability database entry: the predicate a fingerprint must meet,
    its severity (0-4), a follow-up and regulation references."""

    id: str
    title: str = ""
    predicate: VulnPredicate = VulnPredicate()
    severity: int = 0
    description: str = ""
    followup: str | None = None
    regulation_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.predicate == VulnPredicate():
            raise ScanError(f"entry {self.id!r} has an empty predicate")
        if not 0 <= self.severity <= 4:
            raise ScanError(f"entry {self.id!r} severity {self.severity} outside 0..4")
        if self.predicate.requires_banner_regex is not None:
            try:
                re.compile(self.predicate.requires_banner_regex)
            except re.error as exc:
                raise ScanError(f"entry {self.id!r} banner regex invalid: {exc}") from exc


@dataclass(frozen=True)
class VulnDb:
    """A vulnerability database file: its entries in order."""

    entries: list[VulnDbEntry] = field(default_factory=list)


def load_vulndb(path: str | Path) -> list[VulnDbEntry]:
    """The vulnerability database; a malformed one is a ``ScanError`` naming
    the file and the path of the field."""
    return load_json(VulnDb, path, ScanError).entries


@dataclass(frozen=True)
class ScanFinding:
    """An entry a fingerprint matched, with the evidence it matched on."""

    entry_id: str
    severity: int
    evidence: dict
    followup_ref: str | None = None
    regulation_refs: tuple[str, ...] = ()


@dataclass
class ScanReport:
    """The scan of one interface's fingerprint in one session: the entries
    it matched and the follow-ups they name."""

    target: str
    session: str
    findings: list[ScanFinding] = field(default_factory=list)
    followups: list[str] = field(default_factory=list)


def _entry_matches(
    entry: VulnDbEntry, fp: FingerprintReport, session: str
) -> dict | None:
    """Evidence dict when the full predicate holds, else None."""
    pred = entry.predicate
    evidence: dict = {}
    if pred.requires_service is not None:
        if pred.requires_service not in fp.supported_services:
            return None
        evidence["service"] = f"0x{pred.requires_service:02x}"
        evidence["banner"] = fp.banners[pred.requires_service].hex()
    if pred.requires_banner_regex is not None:
        pattern = re.compile(pred.requires_banner_regex)
        if pred.requires_service is not None:
            candidates = [pred.requires_service]
        else:
            candidates = sorted(fp.banners)
        hit = next(
            (svc for svc in candidates if pattern.search(fp.banners[svc].hex())), None
        )
        if hit is None:
            return None
        evidence["service"] = f"0x{hit:02x}"
        evidence["banner"] = fp.banners[hit].hex()
        evidence["banner_regex"] = pred.requires_banner_regex
    if pred.requires_session is not None:
        if pred.requires_session != session:
            return None
        evidence["session"] = session
    return evidence


def scan(
    fp: FingerprintReport, db: list[VulnDbEntry], *, session: str = "0x01"
) -> ScanReport:
    """Pure predicate matching; the fingerprint is taken in the initial
    diagnostic session, so session predicates match against that."""
    report = ScanReport(target=fp.probed_interface, session=session)
    for entry in db:
        evidence = _entry_matches(entry, fp, session)
        if evidence is None:
            continue
        report.findings.append(
            ScanFinding(
                entry_id=entry.id,
                severity=entry.severity,
                evidence=evidence,
                followup_ref=entry.followup,
                regulation_refs=entry.regulation_refs,
            )
        )
        if entry.followup:
            report.followups.append(entry.followup)
    return report
