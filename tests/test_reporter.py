"""Report aggregation, link resolution and the two renderings."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecuforge.item_model import Item, ItemError, load_json
from vecuforge.planner import build_plan, load_attack_trees
from vecuforge.reporter import (
    UNTESTED_REASONS,
    ReporterError,
    TraceIndex,
    build_report,
    render,
)
from vecuforge.reporter import TestReport as Report
from vecuforge.script_registry import ScriptRegistry
from vecuforge.tcg import (
    BoundStep,
    CaseInterface,
    EnvironmentalNeeds,
    ExpectedResults,
    ResultMetadata,
    StepRecord,
    Traceability,
    generate_cases,
    load_sutdb,
)
from vecuforge.tcg import TestCase as Case
from vecuforge.tcg import TestResult as Result
from vecuforge.vocabulary import PATTERNS


@pytest.fixture(scope="module")
def pipeline(samples_dir, analysis):
    item = load_json(Item, samples_dir / "item.json", ItemError)
    plan, scenarios = build_plan(
        item,
        analysis.risks,
        analysis.requirements,
        trees=load_attack_trees(samples_dir / "attack_trees.json"),
        threat_class_by_id=analysis.threat_class_by_id,
        seed=1,
        fuzz_budget=400,
    )
    sutdb = load_sutdb(samples_dir / "sutdb.json")
    registry = ScriptRegistry(samples_dir / "scripts", PATTERNS)
    cases = [c for scn in scenarios for c in generate_cases(scn, sutdb, registry)]
    return {
        "plan": plan,
        "cases": cases,
        "index": TraceIndex.from_artifacts(
            analysis.threats,
            analysis.risks,
            analysis.requirements,
            analysis.regulation_refs_by_threat,
        ),
    }


def make_result(case_ref: str, verdict: str, *, step_log=None) -> Result:
    return Result(
        case_ref=case_ref,
        verdict=verdict,
        step_log=step_log or [],
        oracle_evaluation={},
        metadata=ResultMetadata(sut_id="SIM-ECU-01", tools={"vecuforge": "0.1.0"}, prng="p"),
    )


def make_case(ident: str, requirement: str = "REQ-TC-SESSBYPASS-IF-CAN",
              threat: str = "T-TC-SESSBYPASS-IF-CAN") -> Case:
    return Case(
        id=ident,
        scenario_ref="scn-x",
        method="functional",
        purpose="p",
        sut_description="s",
        environmental_needs=EnvironmentalNeeds([CaseInterface("bus", "canlike", {})], []),
        procedural_requirements="in order",
        activities=[
            BoundStep(kind="pattern", name="SEND_CAN_MSG",
                      script_ref="cansend-frame", bound_args={}),
        ],
        input_data={},
        expected_results=ExpectedResults("sut.alive", "sut.crashed"),
        traceability=Traceability(
            requirement_refs=[requirement] if requirement else [],
            threat_refs=[threat] if threat else [],
            risk_ref="RISKS-X",
        ),
        variability={},
    )


class TestTraceIndex:
    def test_from_artifacts(self, pipeline):
        index = pipeline["index"]
        assert index.goal_by_requirement["REQ-TC-WEAKKEY-IF-CAN"] == "G-AUTH"
        assert index.threats_by_requirement["REQ-TC-WEAKKEY-IF-CAN"] == [
            "T-TC-WEAKKEY-IF-CAN"
        ]
        assert index.goal_by_threat["T-TC-MALFORMED-IF-CAN"] == "G-AVAIL"
        assert index.severity_by_threat["T-TC-MALFORMED-IF-CAN"] == 16
        assert index.regulations_by_threat["T-TC-WEAKKEY-IF-CAN"] == [
            "UNECE R155 Annex 5, 4.3.4"
        ]

    def test_round_trip(self, pipeline):
        index = pipeline["index"]
        assert TraceIndex(**json.loads(json.dumps(asdict(index)))) == index


class TestBuildReport:
    def test_zero_results_classifies_everything_untested(self, pipeline):
        report = build_report(pipeline["plan"], pipeline["cases"], [], pipeline["index"])
        assert report.dashboard == {
            "pass": 0, "fail": 0, "error": 0, "inconclusive": 0,
            "untested": len(pipeline["cases"]),
        }
        assert [u["case_ref"] for u in report.untested] == [
            c.id for c in pipeline["cases"]
        ]
        assert all(u["reason"] == "other" for u in report.untested)
        assert report.findings == []
        assert report.methods_used == []

    def test_untested_reason_configurable_and_validated(self, pipeline):
        report = build_report(
            pipeline["plan"], pipeline["cases"], [], pipeline["index"],
            untested_reason="lack_of_time",
        )
        assert all(u["reason"] == "lack_of_time" for u in report.untested)
        assert "lack_of_time" in UNTESTED_REASONS
        with pytest.raises(ReporterError):
            build_report(
                pipeline["plan"], pipeline["cases"], [], pipeline["index"],
                untested_reason="forgot",
            )

    def test_all_pass_lists_passes_with_zero_fails(self, pipeline):
        results = [make_result(c.id, "pass") for c in pipeline["cases"]]
        report = build_report(
            pipeline["plan"], pipeline["cases"], results, pipeline["index"]
        )
        assert report.dashboard["fail"] == 0
        assert report.dashboard["untested"] == 0
        assert report.dashboard["pass"] == len(pipeline["cases"])
        assert len(report.findings) == len(pipeline["cases"])
        assert {f["verdict"] for f in report.findings} == {"pass"}
        assert "No failed findings." in report.management_summary
        assert report.integrity_violations == []

    def test_failed_finding_links_and_severity(self, pipeline):
        cases = pipeline["cases"]
        fail_id = "pen-req-tc-weakkey-if-can-00-000"
        results = [
            make_result(c.id, "fail" if c.id == fail_id else "pass") for c in cases
        ]
        report = build_report(pipeline["plan"], cases, results, pipeline["index"])
        finding = next(f for f in report.findings if f["case_ref"] == fail_id)
        assert finding["verdict"] == "fail"
        assert finding["severity"] == 9  # risk value of the weak-key threat
        assert finding["links"] == {
            "goal": "G-AUTH",
            "requirement": "REQ-TC-WEAKKEY-IF-CAN",
            "threat": "T-TC-WEAKKEY-IF-CAN",
            "raw_result": f"{fail_id}.result.json",
            "tools": {"vecuforge": "0.1.0"},
        }
        assert finding["regulation_conflicts"] == ["UNECE R155 Annex 5, 4.3.4"]
        assert "highest severity 9" in report.management_summary

    def test_scan_regulation_refs_merge_into_conflicts(self, pipeline):
        case = pipeline["cases"][0]
        record = StepRecord(
            step=BoundStep(kind="pattern", name="VULN_SCAN", script_ref="vulnscan",
                           bound_args={}),
            detail={
                "scans": [
                    {
                        "target": "IF-CAN",
                        "findings": [
                            {"entry_id": "VDB-X", "regulation_refs": ["POLICY-7"]}
                        ],
                    }
                ]
            },
        )
        result = make_result(case.id, "fail", step_log=[record])
        report = build_report(pipeline["plan"], [case], [result], pipeline["index"])
        conflicts = report.findings[0]["regulation_conflicts"]
        assert "POLICY-7" in conflicts
        assert "UNECE R155 Annex 5, 4.3.2" in conflicts

    def test_result_for_unplanned_case_rejected(self, pipeline):
        with pytest.raises(ReporterError, match="unplanned"):
            build_report(
                pipeline["plan"], pipeline["cases"],
                [make_result("case-ghost", "pass")], pipeline["index"],
            )

    def test_duplicate_results_rejected(self, pipeline):
        case = pipeline["cases"][0]
        with pytest.raises(ReporterError, match="duplicate"):
            build_report(
                pipeline["plan"], pipeline["cases"],
                [make_result(case.id, "pass"), make_result(case.id, "fail")],
                pipeline["index"],
            )

    def test_methods_aggregate(self, pipeline):
        cases = pipeline["cases"]
        results = [make_result(c.id, "pass") for c in cases[:3]]
        report = build_report(pipeline["plan"], cases, results, pipeline["index"])
        assert report.methods_used == ["functional"]


class TestIntegrityViolations:
    def test_unknown_requirement_is_flagged_not_dropped(self, pipeline):
        case = make_case("case-dangling", requirement="REQ-GONE", threat="")
        result = make_result(case.id, "fail")
        report = build_report(pipeline["plan"], [case], [result], pipeline["index"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding["severity"] == 0
        kinds = {v["kind"] for v in report.integrity_violations}
        assert "unknown_requirement" in kinds
        assert "unresolved_threat" in kinds
        assert "integrity violation" in report.management_summary

    def test_threat_without_risk_is_flagged(self, pipeline):
        index = TraceIndex(**asdict(pipeline["index"]))
        del index.severity_by_threat["T-TC-SESSBYPASS-IF-CAN"]
        case = make_case("case-unrated")
        report = build_report(
            pipeline["plan"], [case], [make_result(case.id, "fail")], index
        )
        assert report.findings[0]["severity"] == 0
        assert [v["kind"] for v in report.integrity_violations] == ["missing_risk"]

    def test_threat_only_traceability_resolves(self, pipeline):
        case = make_case("case-threat-only", requirement="", threat="T-TC-MALFORMED-IF-CAN")
        report = build_report(
            pipeline["plan"], [case], [make_result(case.id, "pass")], pipeline["index"]
        )
        assert report.integrity_violations == []
        links = report.findings[0]["links"]
        assert links["goal"] == "G-AVAIL"
        assert links["requirement"] == ""
        assert report.findings[0]["severity"] == 16


class TestDashboardInvariant:
    @given(
        verdicts=st.lists(
            st.one_of(
                st.none(),
                st.sampled_from(["pass", "fail", "error", "inconclusive"]),
            ),
            min_size=1,
            max_size=24,
        )
    )
    def test_counts_sum_to_planned(self, pipeline, verdicts):
        cases = [make_case(f"case-{i:03d}") for i in range(len(verdicts))]
        results = [
            make_result(c.id, v)
            for c, v in zip(cases, verdicts)
            if v is not None
        ]
        report = build_report(pipeline["plan"], cases, results, pipeline["index"])
        assert sum(report.dashboard.values()) == len(cases)
        assert report.dashboard["untested"] == sum(1 for v in verdicts if v is None)


class TestRendering:
    @pytest.fixture()
    def report(self, pipeline) -> Report:
        cases = pipeline["cases"]
        results = [
            make_result(c.id, "fail" if "pen-" in c.id else "pass")
            for c in cases[:5]
        ]
        return build_report(pipeline["plan"], cases, results, pipeline["index"])

    def test_machine_is_canonical_with_isolated_timestamps(self, report):
        machine = render(report, "machine")
        doc = json.loads(machine)
        assert set(doc) == {"report"}
        assert machine == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        assert b"start_time" not in machine and b"duration_s" not in machine
        assert b"Campaign start" not in render(report, "text")

    def test_equal_campaigns_render_identical_reports(self, report, pipeline):
        # A result holds no timing, so equal campaigns run at other times
        # give equal results and render the same bytes.
        cases = pipeline["cases"]
        again = [
            make_result(c.id, "fail" if "pen-" in c.id else "pass") for c in cases[:5]
        ]
        other = build_report(pipeline["plan"], cases, again, pipeline["index"])
        for fmt in ("machine", "text"):
            assert render(report, fmt) == render(other, fmt)

    def test_text_starts_with_management_summary(self, report):
        text = render(report, "text").decode()
        assert text.splitlines()[0] == "=== Management Summary ==="
        assert report.management_summary in text

    def test_text_covers_all_sections(self, report):
        text = render(report, "text").decode()
        for title in ("System Under Test", "Dashboard", "Findings",
                      "Untested", "Integrity Violations"):
            assert f"=== {title} ===" in text
        assert "severity 9" in text
        assert "UNECE R155 Annex 5, 4.3.4" in text

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ReporterError, match="format"):
            render(report, "pdf")

    def test_dashboard_keys_validated(self):
        with pytest.raises(ReporterError, match="dashboard"):
            Report(
                management_summary="m", sut_description="s",
                dashboard={"pass": 1}, methods_used=[],
                findings=[], untested=[], integrity_violations=[],
            )
