"""Aggregate plan, cases and results into a standardized test report.

The report carries one finding per executed case (passes included, so
the campaign outcome is auditable in one place), classifies every
planned-but-unexecuted case as untested with a reason, and resolves
each finding's link chain finding -> requirement -> threat -> goal
through a trace index built from the analysis and concept artifacts.
Broken links never drop a finding; they populate the integrity-violations
section instead. A report holds no wall-clock value: the timing of a
campaign is in ``timing/execute.json``, so equal campaigns render
byte-identical reports.
"""

from dataclasses import dataclass, field

from .item_model import encode
from .planner import TestPlan
from .tcg import VERDICTS, TestCase, TestResult

UNTESTED_REASONS = (
    "not_planned",
    "technical_problem",
    "lack_of_time",
    "lack_of_funds",
    "lack_of_tools",
    "other",
)

RENDER_FORMATS = ("machine", "text")


class ReporterError(ValueError):
    """Invalid aggregation input or rendering request."""


# -- trace index -----------------------------------------------------------


@dataclass
class TraceIndex:
    """Primitive lookup maps that resolve finding link chains.

    Built once from the analysis and concept artifacts and serializable,
    so the report stage reads it back without re-deriving anything.
    """

    goal_by_requirement: dict[str, str] = field(default_factory=dict)
    threats_by_requirement: dict[str, list[str]] = field(default_factory=dict)
    goal_by_threat: dict[str, str] = field(default_factory=dict)
    severity_by_threat: dict[str, int] = field(default_factory=dict)
    regulations_by_threat: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def from_artifacts(
        cls, threats, risks, requirements, regulation_refs_by_threat: dict[str, list[str]]
    ) -> "TraceIndex":
        """Index ``Threat``s, ``Risk``s, ``SecurityRequirement``s and regulation refs."""
        return cls(
            goal_by_requirement={r.id: r.goal_ref for r in requirements},
            threats_by_requirement={r.id: list(r.derived_from) for r in requirements},
            goal_by_threat={t.id: t.mapped_goal for t in threats},
            severity_by_threat={r.threat_ref: r.value for r in risks},
            regulations_by_threat={
                threat: sorted(refs) for threat, refs in regulation_refs_by_threat.items()
            },
        )


# -- report type -----------------------------------------------------------


@dataclass
class TestReport:
    """A test report: summary, SUT, verdict counts, methods, one finding per
    executed case, the untested cases and the broken trace links."""

    management_summary: str
    sut_description: str
    dashboard: dict[str, int]
    methods_used: list[str]
    findings: list[dict]
    untested: list[dict]
    integrity_violations: list[dict]

    def __post_init__(self) -> None:
        expected = {*VERDICTS, "untested"}
        if set(self.dashboard) != expected:
            raise ReporterError(
                f"dashboard must count exactly {sorted(expected)}, "
                f"got {sorted(self.dashboard)}"
            )


# -- aggregation -------------------------------------------------------------


def _scan_regulation_refs(result: TestResult) -> set[str]:
    """Regulation annotations attached to database matches in the raw result."""
    refs: set[str] = set()
    for record in result.step_log:
        for scan_doc in record.detail.get("scans", []):
            for finding in scan_doc.get("findings", []):
                refs.update(finding.get("regulation_refs", []))
    return refs


def _resolve_links(
    case: TestCase,
    result: TestResult,
    index: TraceIndex,
    violations: list[dict],
) -> dict:
    requirement = next(iter(case.traceability.requirement_refs), "")
    threat = next(iter(case.traceability.threat_refs), "")

    def violation(kind: str, detail: str) -> None:
        violations.append({"case_ref": case.id, "kind": kind, "detail": detail})

    if requirement and requirement not in index.goal_by_requirement:
        violation("unknown_requirement", f"requirement {requirement!r} is not in the trace index")
    if not threat and requirement:
        threat = next(iter(index.threats_by_requirement.get(requirement, [])), "")
    if not threat or threat not in index.goal_by_threat:
        violation("unresolved_threat", f"no known threat behind case {case.id!r}")
    goal = index.goal_by_requirement.get(requirement, "") or index.goal_by_threat.get(threat, "")
    if not goal:
        violation("unresolved_goal", f"no security goal reachable from case {case.id!r}")
    severity = index.severity_by_threat.get(threat)
    if severity is None:
        if threat in index.goal_by_threat:
            violation("missing_risk", f"threat {threat!r} has no risk rating")
        severity = 0

    conflicts = set(index.regulations_by_threat.get(threat, []))
    conflicts |= _scan_regulation_refs(result)
    return {
        "case_ref": case.id,
        "verdict": result.verdict,
        "severity": severity,
        "links": {
            "goal": goal,
            "requirement": requirement,
            "threat": threat,
            "raw_result": f"{case.id}.result.json",
            "tools": dict(result.metadata.tools),
        },
        "regulation_conflicts": sorted(conflicts),
    }


def _management_summary(
    sut_id: str,
    dashboard: dict[str, int],
    planned: int,
    max_severity: int,
    violations: int,
) -> str:
    executed = planned - dashboard["untested"]
    parts = [
        f"Security test campaign against {sut_id}: "
        f"{executed} of {planned} planned test case(s) executed."
    ]
    if dashboard["fail"]:
        parts.append(
            f"{dashboard['fail']} failed finding(s); highest severity {max_severity}."
        )
    else:
        parts.append("No failed findings.")
    if dashboard["error"]:
        parts.append(f"{dashboard['error']} case(s) aborted on infrastructure errors.")
    if dashboard["untested"]:
        parts.append(f"{dashboard['untested']} case(s) remain untested.")
    if violations:
        parts.append(
            f"{violations} traceability integrity violation(s) need review."
        )
    return " ".join(parts)


def build_report(
    plan: TestPlan,
    cases: list[TestCase],
    results: list[TestResult],
    trace_index: TraceIndex,
    *,
    untested_reason: str = "other",
) -> TestReport:
    """Aggregate a campaign; every planned case lands in exactly one bucket."""
    if untested_reason not in UNTESTED_REASONS:
        raise ReporterError(
            f"untested reason must be one of {UNTESTED_REASONS}, got {untested_reason!r}"
        )
    by_id = {c.id: c for c in cases}
    executed: dict[str, TestResult] = {}
    for result in results:
        if result.case_ref not in by_id:
            raise ReporterError(
                f"result references unplanned case {result.case_ref!r}"
            )
        if result.case_ref in executed:
            raise ReporterError(
                f"duplicate result for case {result.case_ref!r}"
            )
        executed[result.case_ref] = result

    violations: list[dict] = []
    findings = [
        _resolve_links(case, executed[case.id], trace_index, violations)
        for case in cases
        if case.id in executed
    ]
    untested = [
        {"case_ref": case.id, "reason": untested_reason}
        for case in cases
        if case.id not in executed
    ]
    dashboard = {v: sum(f["verdict"] == v for f in findings) for v in VERDICTS}
    dashboard["untested"] = len(untested)
    max_severity = max(
        (f["severity"] for f in findings if f["verdict"] == "fail"), default=0
    )
    return TestReport(
        management_summary=_management_summary(
            plan.sut_overview.split(":")[0].strip(),
            dashboard,
            len(cases),
            max_severity,
            len(violations),
        ),
        sut_description=plan.sut_overview,
        dashboard=dashboard,
        methods_used=sorted({by_id[r.case_ref].method for r in results}),
        findings=findings,
        untested=untested,
        integrity_violations=violations,
    )


# -- rendering ---------------------------------------------------------------


def render(report: TestReport, format: str) -> bytes:
    if format == "machine":
        return encode({"report": report})
    if format == "text":
        return _render_text(report).encode()
    raise ReporterError(
        f"unknown report format {format!r}; expected one of {RENDER_FORMATS}"
    )


def _render_text(report: TestReport) -> str:
    lines: list[str] = []

    def section(title: str) -> None:
        if lines:
            lines.append("")
        lines.append(f"=== {title} ===")

    section("Management Summary")
    lines.append(report.management_summary)

    section("System Under Test")
    lines.append(report.sut_description)
    methods = ", ".join(report.methods_used) or "none"
    lines.append(f"Methods used: {methods}")

    section("Dashboard")
    lines.append(
        "  ".join(f"{k}: {report.dashboard[k]}" for k in (*VERDICTS, "untested"))
    )

    section("Findings")
    if not report.findings:
        lines.append("none")
    for finding in report.findings:
        links = finding["links"]
        tools = ", ".join(f"{k} {v}" for k, v in sorted(links["tools"].items()))
        lines.append(
            f"- {finding['case_ref']}: {finding['verdict'].upper()} "
            f"(severity {finding['severity']})"
        )
        lines.append(
            f"  goal {links['goal'] or '?'}; requirement {links['requirement'] or '?'}; "
            f"threat {links['threat'] or '?'}"
        )
        lines.append(f"  raw result: {links['raw_result']}; tools: {tools or 'n/a'}")
        if finding["regulation_conflicts"]:
            lines.append(
                "  regulation conflicts: " + "; ".join(finding["regulation_conflicts"])
            )

    section("Untested")
    if not report.untested:
        lines.append("none")
    for entry in report.untested:
        lines.append(f"- {entry['case_ref']}: {entry['reason']}")

    section("Integrity Violations")
    if not report.integrity_violations:
        lines.append("none")
    for entry in report.integrity_violations:
        lines.append(f"- {entry['case_ref']} [{entry['kind']}]: {entry['detail']}")

    return "\n".join(lines) + "\n"
