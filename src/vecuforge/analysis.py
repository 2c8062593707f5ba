"""Threat enumeration, risk rating and security concept derivation.

Threats come from matching a catalog of predicates against the item's
interfaces and components. Risk is impact times occurrence probability
on a 0..4 scale each (so 0..16 overall), acceptable when strictly below
the threshold. Every unacceptable risk yields exactly one security
requirement, linked to the first countermeasure that mitigates its
threat class. The two halves run as separate stages, and the concept is
derived from the threats and risks the analysis stage wrote.
"""

from dataclasses import dataclass, field
from enum import Enum

from .item_model import (
    ImpactVector,
    Interface,
    Item,
    SecurityGoal,
    ServiceByte,
    check_range,
    load_json,
)


class AnalysisError(ValueError):
    """Out-of-range rating or malformed catalog/countermeasure data."""


@dataclass(frozen=True)
class MatchPredicate:
    """Conjunctive element filter; None fields are wildcards."""

    interface_kind: str | None = None
    exposure: str | None = None
    service: ServiceByte | None = None
    goal_property: str | None = None

    def __post_init__(self) -> None:
        if all(
            v is None
            for v in (self.interface_kind, self.exposure, self.service, self.goal_property)
        ):
            raise AnalysisError("match predicate needs at least one non-wildcard field")


@dataclass(frozen=True)
class ThreatCatalogEntry:
    """A catalog threat: what it matches in an item, its class, its default
    feasibility (0-4) and its regulation references."""

    id: str
    title: str
    match_predicate: MatchPredicate
    threat_class: str
    default_feasibility: int
    regulation_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_range("default_feasibility", self.default_feasibility, 0, 4, AnalysisError)


@dataclass(frozen=True)
class Threat:
    """One catalog entry matched on one item element, with the goal it endangers."""

    id: str
    catalog_ref: str
    target: str
    mapped_goal: str


@dataclass(frozen=True)
class Risk:
    """A threat's risk: impact times probability (0-4), and whether that value
    is below the threshold, which makes it acceptable."""

    threat_ref: str
    impact: ImpactVector
    probability: int
    value: int
    threshold: int
    acceptable: bool


class RequirementKind(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class VerificationHint(str, Enum):
    FUNCTIONAL = "functional"
    INTERFACE = "interface"
    PENETRATION = "penetration"
    VULNSCAN = "vulnscan"
    FUZZ = "fuzz"


@dataclass(frozen=True)
class SecurityRequirement:
    """A requirement derived from an unacceptable risk: its text and kind, the
    threats and goal it traces to, its countermeasure and how to verify it."""

    id: str
    text: str
    kind: RequirementKind
    derived_from: tuple[str, ...]
    goal_ref: str
    countermeasure_ref: str | None
    verification_hint: VerificationHint

    def __post_init__(self) -> None:
        if not self.derived_from:
            raise AnalysisError(f"requirement {self.id!r} derives from no threat")


@dataclass(frozen=True)
class Countermeasure:
    """A library countermeasure and the threat classes it mitigates."""

    id: str
    description: str
    mitigates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.mitigates:
            raise AnalysisError(f"countermeasure {self.id!r} mitigates nothing")


@dataclass
class Catalog:
    """The threat catalog: its entries, the threat classes that give negative
    requirements and the verification hint of each class."""

    entries: list[ThreatCatalogEntry]
    negative_classes: set[str] = field(default_factory=set)
    hint_by_class: dict[str, VerificationHint] = field(default_factory=dict)

    def entry_for(self, threat: Threat) -> ThreatCatalogEntry:
        """The entry a threat was enumerated from."""
        for entry in self.entries:
            if entry.id == threat.catalog_ref:
                return entry
        raise AnalysisError(
            f"threat {threat.id!r} comes from catalog entry {threat.catalog_ref!r}, "
            "which the catalog lacks"
        )


@dataclass(frozen=True)
class CountermeasureLibrary:
    """The countermeasure library file: its countermeasures in order."""

    countermeasures: list[Countermeasure]


def load_catalog(path: str) -> Catalog:
    """The threat catalog; a malformed one is an ``AnalysisError`` naming the
    file and the path of the field."""
    return load_json(Catalog, path, AnalysisError)


def load_countermeasures(path: str) -> list[Countermeasure]:
    """The countermeasures; a malformed file is an ``AnalysisError`` naming
    the file and the path of the field."""
    return load_json(CountermeasureLibrary, path, AnalysisError).countermeasures


# -- threat enumeration -------------------------------------------------


def _resolve_goal(entry: ThreatCatalogEntry, element_id: str, item: Item) -> SecurityGoal | None:
    """Pick the goal a threat maps to, or None when no goal fits.

    Candidates are the goals of the predicate's goal_property, or every
    goal of the item when it has none. A candidate targeting the element
    wins over the rest, and ties go to the smallest goal id, so the
    order in which the item lists its goals never matters.
    """
    wanted = entry.match_predicate.goal_property
    candidates = sorted(
        (g for g in item.security_goals if wanted is None or g.property.value == wanted),
        key=lambda g: g.id,
    )
    on_target = [g for g in candidates if g.target_ref == element_id]
    return (on_target or candidates or [None])[0]


def _predicate_matches(entry: ThreatCatalogEntry, element, item: Item) -> bool:
    pred = entry.match_predicate
    is_iface = isinstance(element, Interface)
    if pred.interface_kind is not None and (not is_iface or element.kind.value != pred.interface_kind):
        return False
    if pred.exposure is not None and (not is_iface or element.exposure.value != pred.exposure):
        return False
    if pred.service is not None:
        declared = item.config_params.declared_services
        if not (is_iface and element.carries_protocol) or pred.service not in declared:
            return False
    if pred.goal_property is not None and not any(
        g.property.value == pred.goal_property for g in item.security_goals
    ):
        return False
    return True


def enumerate_threats(item: Item, entries: list[ThreatCatalogEntry]) -> list[Threat]:
    """One threat per (catalog entry, element) pair whose predicate matches."""
    threats: list[Threat] = []
    elements = list(item.interfaces) + list(item.components)
    for entry in sorted(entries, key=lambda e: e.id):
        for element in sorted(elements, key=lambda e: e.id):
            if not _predicate_matches(entry, element, item):
                continue
            goal = _resolve_goal(entry, element.id, item)
            if goal is None:
                continue
            threats.append(
                Threat(
                    id=f"T-{entry.id}-{element.id}",
                    catalog_ref=entry.id,
                    target=element.id,
                    mapped_goal=goal.id,
                )
            )
    return threats


def assess_risk(threat: Threat, impact: ImpactVector, probability: int, threshold: int = 4) -> Risk:
    check_range("probability", probability, 0, 4, AnalysisError)
    check_range("threshold", threshold, 1, 16, AnalysisError)
    value = impact.level * probability
    return Risk(
        threat_ref=threat.id,
        impact=impact,
        probability=probability,
        value=value,
        threshold=threshold,
        acceptable=value < threshold,
    )


def analyze_threats(item: Item, catalog: Catalog) -> tuple[list[Threat], list[Risk]]:
    """Enumerate the item's threats and rate each with item-supplied scales.

    Impact vectors come from config_params.impact_ratings keyed by the
    mapped goal's property; probability is the catalog entry's default
    feasibility; the threshold is config_params.risk_threshold.
    """
    config = item.config_params
    goal_index = {g.id: g for g in item.security_goals}
    threats = enumerate_threats(item, catalog.entries)
    risks: list[Risk] = []
    for threat in threats:
        prop = goal_index[threat.mapped_goal].property.value
        if prop not in config.impact_ratings:
            raise AnalysisError(f"no impact rating for goal property {prop!r}")
        feasibility = catalog.entry_for(threat).default_feasibility
        risks.append(assess_risk(threat, config.impact_ratings[prop], feasibility,
                                 config.risk_threshold))
    return threats, risks


# -- security concept ---------------------------------------------------


def derive_requirements(
    threats: list[Threat],
    risks: list[Risk],
    threat_class_by_id: dict[str, str],
    catalog: Catalog,
    library: list[Countermeasure],
) -> list[SecurityRequirement]:
    """One requirement per unacceptable risk; acceptable risks yield none.

    Threats, risks and threat classes are the analysis stage's output;
    the catalog supplies only each entry's title, the negative classes
    and the verification hints. A threat whose entry the catalog lacks,
    or that has no risk or class, contradicts the analysis and raises
    ``AnalysisError``.
    """
    risk_by_threat = {r.threat_ref: r for r in risks}
    out: list[SecurityRequirement] = []
    for threat in threats:
        entry = catalog.entry_for(threat)
        risk = risk_by_threat.get(threat.id)
        tclass = threat_class_by_id.get(threat.id)
        if risk is None:
            raise AnalysisError(f"threat {threat.id!r} has no risk rating")
        if tclass is None:
            raise AnalysisError(f"threat {threat.id!r} has no threat class")
        if risk.acceptable:
            continue
        countermeasure = next((c for c in library if tclass in c.mitigates), None)
        negative = tclass in catalog.negative_classes
        kind = RequirementKind.NEGATIVE if negative else RequirementKind.POSITIVE
        phrase = tclass.replace("_", " ")
        if kind is RequirementKind.NEGATIVE:
            text = f"{threat.target} shall not exhibit {phrase} behavior ({entry.title})."
        else:
            text = f"{threat.target} shall withstand {phrase} attacks ({entry.title})."
        if countermeasure is None:
            text = "[UNCOVERED] " + text
        out.append(
            SecurityRequirement(
                id="REQ-" + threat.id.removeprefix("T-"),
                text=text,
                kind=kind,
                derived_from=(threat.id,),
                goal_ref=threat.mapped_goal,
                countermeasure_ref=countermeasure.id if countermeasure else None,
                verification_hint=catalog.hint_by_class.get(tclass, VerificationHint.FUNCTIONAL),
            )
        )
    return out


@dataclass
class ConsistencyReport:
    """Requirements whose goal the item lacks, and goals no requirement covers."""

    orphan_requirements: list[str]
    uncovered_goals: list[str]


def check_consistency(
    requirements: list[SecurityRequirement], goals: list[SecurityGoal]
) -> ConsistencyReport:
    goal_ids = {g.id for g in goals}
    referenced = {r.goal_ref for r in requirements}
    return ConsistencyReport(
        orphan_requirements=sorted(r.id for r in requirements if r.goal_ref not in goal_ids),
        uncovered_goals=sorted(g.id for g in goals if g.id not in referenced),
    )
