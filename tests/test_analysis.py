"""Threat matching, risk arithmetic and requirement derivation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecuforge.analysis import (
    AnalysisError,
    Catalog,
    ConsistencyReport,
    Countermeasure,
    ImpactVector,
    MatchPredicate,
    RequirementKind,
    Risk,
    SecurityRequirement,
    Threat,
    ThreatCatalogEntry,
    VerificationHint,
    assess_risk,
    check_consistency,
    derive_requirements,
    enumerate_threats,
    load_catalog,
)
from vecuforge.item_model import Interface, Item, ItemError, decode, load_json

rating = st.integers(min_value=0, max_value=4)


class TestRiskMath:
    def test_exhaustive_value_and_acceptance(self):
        """Every (level, probability, threshold) combination, no sampling."""
        threat = Threat("T-X", "TC-X", "IF-X", "G-X")
        for level in range(5):
            impact = ImpactVector(level, 0, 0, 0)
            assert impact.level == level
            for probability in range(5):
                for threshold in range(1, 17):
                    risk = assess_risk(threat, impact, probability, threshold)
                    assert risk.value == level * probability
                    assert risk.acceptable == (risk.value < threshold)
                    assert risk.threshold == threshold

    @given(s=rating, f=rating, o=rating, p=rating)
    def test_impact_level_is_max(self, s, f, o, p):
        assert ImpactVector(s, f, o, p).level == max(s, f, o, p)

    def test_zero_impact_always_acceptable(self):
        threat = Threat("T-X", "TC-X", "IF-X", "G-X")
        for probability in range(5):
            assert assess_risk(threat, ImpactVector(0, 0, 0, 0), probability, 1).acceptable

    def test_sixteen_not_acceptable_at_threshold_four(self):
        threat = Threat("T-X", "TC-X", "IF-X", "G-X")
        risk = assess_risk(threat, ImpactVector(4, 4, 4, 4), 4, 4)
        assert risk.value == 16 and not risk.acceptable

    def test_strict_threshold_comparison(self):
        threat = Threat("T-X", "TC-X", "IF-X", "G-X")
        risk = assess_risk(threat, ImpactVector(2, 0, 0, 0), 2, 4)
        assert risk.value == 4 and not risk.acceptable

    @pytest.mark.parametrize("bad", [-1, 5, 1.5, True])
    def test_probability_range_enforced(self, bad):
        threat = Threat("T-X", "TC-X", "IF-X", "G-X")
        with pytest.raises(AnalysisError):
            assess_risk(threat, ImpactVector(1, 1, 1, 1), bad, 4)

    @pytest.mark.parametrize("bad", [0, 17, -3])
    def test_threshold_range_enforced(self, bad):
        threat = Threat("T-X", "TC-X", "IF-X", "G-X")
        with pytest.raises(AnalysisError):
            assess_risk(threat, ImpactVector(1, 1, 1, 1), 2, bad)

    def test_impact_dimension_range_enforced(self):
        with pytest.raises(ItemError):
            ImpactVector(5, 0, 0, 0)


def small_item(goals=None, ifaces=None) -> Item:
    doc = {
        "id": "I",
        "name": "i",
        "boundary": "b",
        "components": [{"id": "C1", "name": "c"}],
        "interfaces": ifaces
        or [
            {
                "id": "IF-A",
                "component_ref": "C1",
                "kind": "canlike",
                "exposure": "external",
                "address": {"host": "h", "port": "1"},
            }
        ],
        "security_goals": goals or [],
        "config_params": {"declared_services": ["0x27"]},
    }
    return decode(Item, doc, "item", ItemError)


def entry(eid="TC-1", tclass="weak_authentication", feas=3, **pred) -> ThreatCatalogEntry:
    if not pred:
        pred = {"interface_kind": "canlike"}
    return ThreatCatalogEntry(eid, "title " + eid, MatchPredicate(**pred), tclass, feas)


class TestEnumerateThreats:
    def test_single_match(self):
        item = small_item(goals=[{"id": "G1", "property": "integrity", "target_ref": "IF-A", "statement": "s"}])
        threats = enumerate_threats(item, [entry(interface_kind="canlike", exposure="external")])
        assert len(threats) == 1
        assert threats[0] == Threat("T-TC-1-IF-A", "TC-1", "IF-A", "G1")

    def test_empty_catalog(self):
        assert enumerate_threats(small_item(), []) == []

    def test_predicate_needs_one_field(self):
        with pytest.raises(AnalysisError):
            MatchPredicate()

    def test_goal_property_prefers_same_target(self):
        item = small_item(
            goals=[
                {"id": "G-OTHER", "property": "integrity", "target_ref": "C1", "statement": "s"},
                {"id": "G-HERE", "property": "integrity", "target_ref": "IF-A", "statement": "s"},
            ]
        )
        threats = enumerate_threats(item, [entry(interface_kind="canlike", goal_property="integrity")])
        assert threats[0].mapped_goal == "G-HERE"

    def test_goal_property_without_goal_no_threat(self):
        item = small_item(goals=[{"id": "G1", "property": "integrity", "target_ref": "IF-A", "statement": "s"}])
        threats = enumerate_threats(item, [entry(interface_kind="canlike", goal_property="privacy")])
        assert threats == []

    def test_wildcard_goal_picks_first_on_target(self):
        item = small_item(
            goals=[
                {"id": "G-C", "property": "integrity", "target_ref": "C1", "statement": "s"},
                {"id": "G-A", "property": "availability", "target_ref": "IF-A", "statement": "s"},
                {"id": "G-B", "property": "confidentiality", "target_ref": "IF-A", "statement": "s"},
            ]
        )
        threats = enumerate_threats(item, [entry(interface_kind="canlike")])
        assert threats[0].mapped_goal == "G-A"

    def test_service_matches_declared_only(self):
        item = small_item(goals=[{"id": "G1", "property": "integrity", "target_ref": "IF-A", "statement": "s"}])
        assert len(enumerate_threats(item, [entry(service=0x27)])) == 1
        assert enumerate_threats(item, [entry(service=0x42)]) == []

    def test_components_never_match_interface_fields(self):
        item = small_item(goals=[{"id": "G1", "property": "integrity", "target_ref": "C1", "statement": "s"}])
        threats = enumerate_threats(item, [entry(interface_kind="canlike")])
        assert all(t.target == "IF-A" for t in threats)


def brute_force_threats(item: Item, entries) -> set[tuple[str, str]]:
    """Independent predicate evaluation over the full cross product."""
    pairs = set()
    for e in entries:
        for el in list(item.interfaces) + list(item.components):
            p = e.match_predicate
            ok = True
            if p.interface_kind is not None:
                ok = ok and isinstance(el, Interface) and el.kind.value == p.interface_kind
            if p.exposure is not None:
                ok = ok and isinstance(el, Interface) and el.exposure.value == p.exposure
            if p.service is not None:
                ok = (
                    ok
                    and isinstance(el, Interface)
                    and el.kind.value in ("canlike", "diag")
                    and p.service in item.config_params.declared_services
                )
            if p.goal_property is not None:
                ok = ok and any(g.property.value == p.goal_property for g in item.security_goals)
            if ok and not item.security_goals:
                ok = False
            if ok:
                pairs.add((e.id, el.id))
    return pairs


class TestBruteForceOracle:
    def test_bundled_sample_equals_brute_force(self, samples_dir):
        item = load_json(Item, samples_dir / "item.json", ItemError)
        catalog = load_catalog(str(samples_dir / "catalog.json"))
        got = {(t.catalog_ref, t.target) for t in enumerate_threats(item, catalog.entries)}
        assert got == brute_force_threats(item, catalog.entries)

    def test_randomized_items_equal_brute_force(self):
        rng = random.Random(2024)
        kinds = ["canlike", "diag", "debug"]
        exposures = ["external", "internal"]
        props = ["confidentiality", "integrity", "authentication", "availability"]
        for _ in range(60):
            n_if = rng.randint(1, 4)
            ifaces = [
                {
                    "id": f"IF-{i}",
                    "component_ref": "C1",
                    "kind": rng.choice(kinds),
                    "exposure": rng.choice(exposures),
                    "address": {"host": "h", "port": "1"},
                }
                for i in range(n_if)
            ]
            goals = [
                {
                    "id": f"G-{i}",
                    "property": rng.choice(props),
                    "target_ref": rng.choice([f"IF-{j}" for j in range(n_if)] + ["C1"]),
                    "statement": "s",
                }
                for i in range(rng.randint(0, 3))
            ]
            item = small_item(goals=goals, ifaces=ifaces)
            entries = []
            for i in range(rng.randint(1, 6)):
                pred = {}
                while not pred:
                    if rng.random() < 0.5:
                        pred["interface_kind"] = rng.choice(kinds)
                    if rng.random() < 0.4:
                        pred["exposure"] = rng.choice(exposures)
                    if rng.random() < 0.3:
                        pred["service"] = rng.choice([0x27, 0x42])
                    if rng.random() < 0.4:
                        pred["goal_property"] = rng.choice(props)
                entries.append(entry(eid=f"TC-{i}", **pred))
            got = {(t.catalog_ref, t.target) for t in enumerate_threats(item, entries)}
            assert got == brute_force_threats(item, entries)

    def test_output_sorted_and_deterministic(self):
        item = small_item(
            goals=[{"id": "G1", "property": "integrity", "target_ref": "IF-A", "statement": "s"}],
            ifaces=[
                {"id": "IF-B", "component_ref": "C1", "kind": "canlike", "exposure": "external",
                 "address": {"host": "h", "port": "1"}},
                {"id": "IF-A", "component_ref": "C1", "kind": "canlike", "exposure": "external",
                 "address": {"host": "h", "port": "1"}},
            ],
        )
        entries = [entry(eid="TC-2", interface_kind="canlike"), entry(eid="TC-1", exposure="external")]
        ids = [t.id for t in enumerate_threats(item, entries)]
        assert ids == sorted(ids)
        assert ids == [t.id for t in enumerate_threats(item, entries)]


CM = [Countermeasure("CM-1", "fix it", ("weak_authentication",))]


THREAT = Threat("T-TC-1-IF-A", "TC-1", "IF-A", "G1")
CATALOG = Catalog([entry()])
CLASSES = {THREAT.id: "weak_authentication"}


def risk(acceptable: bool) -> Risk:
    value = 2 if acceptable else 9
    return Risk(THREAT.id, ImpactVector(3, 0, 0, 0), 3, value, 4, acceptable)


def derive(acceptable=False, library=CM, catalog=CATALOG) -> list[SecurityRequirement]:
    return derive_requirements([THREAT], [risk(acceptable)], CLASSES, catalog, library)


class TestDeriveRequirements:
    def test_unacceptable_yields_one_requirement(self):
        reqs = derive()
        assert len(reqs) == 1
        req = reqs[0]
        assert req.derived_from == ("T-TC-1-IF-A",)
        assert req.goal_ref == "G1"
        assert req.countermeasure_ref == "CM-1"
        assert "[UNCOVERED]" not in req.text

    def test_empty_library_marks_uncovered(self):
        reqs = derive(library=[])
        assert reqs[0].countermeasure_ref is None
        assert reqs[0].text.startswith("[UNCOVERED]")

    def test_acceptable_yields_nothing(self):
        assert derive(acceptable=True) == []

    def test_negative_class_marks_kind(self):
        reqs = derive(catalog=Catalog([entry()], negative_classes={"weak_authentication"}))
        assert reqs[0].kind is RequirementKind.NEGATIVE
        assert "shall not" in reqs[0].text

    def test_hint_mapping(self):
        hints = {"weak_authentication": VerificationHint.PENETRATION}
        reqs = derive(catalog=Catalog([entry()], hint_by_class=hints))
        assert reqs[0].verification_hint is VerificationHint.PENETRATION

    def test_first_countermeasure_wins(self):
        lib = [
            Countermeasure("CM-A", "a", ("weak_authentication",)),
            Countermeasure("CM-B", "b", ("weak_authentication",)),
        ]
        reqs = derive(library=lib)
        assert reqs[0].countermeasure_ref == "CM-A"

    def test_class_comes_from_the_analysis_not_the_catalog(self):
        reqs = derive(catalog=Catalog([entry(tclass="something_else")]))
        assert "weak authentication" in reqs[0].text
        assert reqs[0].countermeasure_ref == "CM-1"

    def test_threat_from_an_absent_catalog_entry_is_rejected(self):
        with pytest.raises(AnalysisError, match="'T-TC-1-IF-A' comes from catalog entry 'TC-1'"):
            derive(catalog=Catalog([entry(eid="TC-2")]))

    def test_acceptable_threat_from_an_absent_entry_is_rejected_too(self):
        with pytest.raises(AnalysisError, match="T-TC-1-IF-A"):
            derive(acceptable=True, catalog=Catalog([]))

    def test_threat_without_risk_is_rejected(self):
        with pytest.raises(AnalysisError, match="'T-TC-1-IF-A' has no risk"):
            derive_requirements([THREAT], [], CLASSES, CATALOG, CM)

    def test_threat_without_class_is_rejected(self):
        with pytest.raises(AnalysisError, match="'T-TC-1-IF-A' has no threat class"):
            derive_requirements([THREAT], [risk(False)], {}, CATALOG, CM)


class TestConsistency:
    def goals(self):
        item = small_item(
            goals=[
                {"id": "G1", "property": "integrity", "target_ref": "IF-A", "statement": "s"},
                {"id": "G2", "property": "availability", "target_ref": "IF-A", "statement": "s"},
            ]
        )
        return item.security_goals

    def req(self, goal_ref: str) -> SecurityRequirement:
        return SecurityRequirement(
            "REQ-1", "t", RequirementKind.POSITIVE, ("T-1",), goal_ref, None, VerificationHint.FUNCTIONAL
        )

    def test_all_clean(self):
        goals = self.goals()
        report = check_consistency([self.req("G1"), self.req("G2")], goals)
        assert report == ConsistencyReport([], [])

    def test_orphan_requirement(self):
        report = check_consistency([self.req("G-GONE")], self.goals())
        assert report.orphan_requirements == ["REQ-1"]

    def test_uncovered_goal(self):
        report = check_consistency([self.req("G1")], self.goals())
        assert report.uncovered_goals == ["G2"]


class TestBundledSampleAnalysis:

    def test_expected_threats_and_risks(self, analysis):
        by_threat = {r.threat_ref: r.value for r in analysis.risks}
        assert by_threat == {
            "T-TC-WEAKKEY-IF-CAN": 9,
            "T-TC-SESSBYPASS-IF-CAN": 6,
            "T-TC-MALFORMED-IF-CAN": 16,
            "T-TC-HIDDENSVC-IF-CAN": 6,
            "T-TC-DEBUGSNIFF-IF-DEBUG": 3,
        }
        acceptable = {r.threat_ref for r in analysis.risks if r.acceptable}
        assert acceptable == {"T-TC-DEBUGSNIFF-IF-DEBUG"}

    def test_every_unacceptable_risk_in_exactly_one_requirement(self, analysis):
        unacceptable = {r.threat_ref for r in analysis.risks if not r.acceptable}
        seen: dict[str, int] = {}
        for req in analysis.requirements:
            for t in req.derived_from:
                seen[t] = seen.get(t, 0) + 1
        assert set(seen) == unacceptable
        assert all(count == 1 for count in seen.values())

    def test_traceability_chain(self, analysis):
        threat_ids = {t.id for t in analysis.threats}
        goal_ids = {"G-AUTH", "G-AUTHZ", "G-CONF", "G-AVAIL"}
        for req in analysis.requirements:
            assert set(req.derived_from) <= threat_ids
            assert req.goal_ref in goal_ids

    def test_consistency_clean(self, analysis, samples_dir):
        goals = load_json(Item, samples_dir / "item.json", ItemError).security_goals
        assert check_consistency(analysis.requirements, goals) == ConsistencyReport([], [])

    def test_hints_follow_catalog(self, analysis):
        hints = {r.id: r.verification_hint for r in analysis.requirements}
        assert hints["REQ-TC-WEAKKEY-IF-CAN"] is VerificationHint.PENETRATION
        assert hints["REQ-TC-SESSBYPASS-IF-CAN"] is VerificationHint.FUNCTIONAL
        assert hints["REQ-TC-MALFORMED-IF-CAN"] is VerificationHint.FUZZ
        assert hints["REQ-TC-HIDDENSVC-IF-CAN"] is VerificationHint.VULNSCAN
