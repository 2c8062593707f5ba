"""Vulnerability scanning: match a signature database against a fingerprint.

Each database entry carries a predicate over the fingerprint (service
present, banner bytes matching a regex, session context). Matching
entries become findings with concrete evidence; entries that declare a
follow-up template emit a follow-up task stub.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .item_model import FingerprintReport, checked_object, named_entries, required, service_byte


class ScanError(ValueError):
    """Malformed vulnerability database entry."""


@dataclass(frozen=True)
class VulnDbEntry:
    id: str
    title: str
    requires_service: int | None = None
    requires_banner_regex: str | None = None
    requires_session: str | None = None
    severity: int = 0
    description: str = ""
    followup: str | None = None
    regulation_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (
            self.requires_service is None
            and self.requires_banner_regex is None
            and self.requires_session is None
        ):
            raise ScanError(f"entry {self.id!r} has an empty predicate")
        if not 0 <= self.severity <= 4:
            raise ScanError(f"entry {self.id!r} severity {self.severity} outside 0..4")
        if self.requires_banner_regex is not None:
            try:
                re.compile(self.requires_banner_regex)
            except re.error as exc:
                raise ScanError(f"entry {self.id!r} banner regex invalid: {exc}") from exc


def load_vulndb(path: str | Path) -> list[VulnDbEntry]:
    """The vulnerability database; a malformed entry is a ``ScanError``
    naming the file, the entry and the field."""
    with open(path, encoding="utf-8") as fh:
        doc = checked_object(json.load(fh), str(path), ScanError)
    entries = []
    for where, e in named_entries(doc.get("entries", []), f"{path}: entries", ScanError):
        predicate = checked_object(e.get("predicate", {}), f"{where} predicate", ScanError)
        entries.append(
            VulnDbEntry(
                id=required(e, "id", where, ScanError),
                title=e.get("title", ""),
                requires_service=service_byte(
                    predicate.get("requires_service"),
                    f"{where} predicate.requires_service",
                    ScanError,
                ),
                requires_banner_regex=predicate.get("requires_banner_regex"),
                requires_session=predicate.get("requires_session"),
                severity=int(e.get("severity", 0)),
                description=e.get("description", ""),
                followup=e.get("followup"),
                regulation_refs=tuple(e.get("regulation_refs", [])),
            )
        )
    return entries


@dataclass(frozen=True)
class ScanFinding:
    entry_id: str
    severity: int
    evidence: dict
    followup_ref: str | None = None
    regulation_refs: tuple[str, ...] = ()


@dataclass
class ScanReport:
    target: str
    session: str
    findings: list[ScanFinding] = field(default_factory=list)
    followups: list[str] = field(default_factory=list)


def _entry_matches(
    entry: VulnDbEntry, fp: FingerprintReport, session: str
) -> dict | None:
    """Evidence dict when the full predicate holds, else None."""
    evidence: dict = {}
    if entry.requires_service is not None:
        if entry.requires_service not in fp.supported_services:
            return None
        evidence["service"] = f"0x{entry.requires_service:02x}"
        evidence["banner"] = fp.banners[entry.requires_service].hex()
    if entry.requires_banner_regex is not None:
        pattern = re.compile(entry.requires_banner_regex)
        if entry.requires_service is not None:
            candidates = [entry.requires_service]
        else:
            candidates = sorted(fp.banners)
        hit = next(
            (svc for svc in candidates if pattern.search(fp.banners[svc].hex())), None
        )
        if hit is None:
            return None
        evidence["service"] = f"0x{hit:02x}"
        evidence["banner"] = fp.banners[hit].hex()
        evidence["banner_regex"] = entry.requires_banner_regex
    if entry.requires_session is not None:
        if entry.requires_session != session:
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
