"""Test planning: method selection by risk band and scenario generation.

Unacceptable risks are routed to testing methods by a banded policy.
Penetration scenarios come from attack trees (every minimal leaf-set
that satisfies the root becomes one attack chain), functional testing
gets a positive/negative pair around the protected function, fuzzing
and vulnerability scanning each get one interface-level scenario.
"""

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Annotated

from .analysis import Risk, SecurityRequirement, VerificationHint
from .item_model import Exposure, Interface, Item, decode, load_json
from .scenario_dsl import (
    EnvInterface,
    EnvSpec,
    OracleSpec,
    PatternStep,
    ExpectStep,
    Scenario,
    Value,
    literal,
    parse_scenario,
    serialize,
    validate,
)
from .vocabulary import PATTERNS


class PlannerError(ValueError):
    """Unplannable requirement, malformed tree, or bad generator input."""


FUZZ_CORPUS = "fuzz_corpus"  # the SUT database corpus a plan's fuzz scenario names
PROBE_EVERY = 50  # frames between the liveness probes of a fuzz campaign
MAX_DURATION_S = 120  # a plan's termination bound


# -- attack trees ----------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """An attack-tree step: one pattern with its arguments."""

    pattern: str
    args: tuple[tuple[str, Value], ...] = ()


@dataclass(frozen=True)
class And:
    """An attack-tree node whose children all run, in order."""

    children: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    """An attack-tree node of which any one child is an attack."""

    children: tuple["Node", ...]


Node = Leaf | And | Or


def _node_from_dict(doc, where: str, error: type[ValueError]) -> Node:
    """One node of an attack tree, tagged {and, or, leaf}; ``where`` names it."""
    doc = decode(dict, doc, where, error)
    kind = doc.get("kind")
    if kind == "leaf":
        pattern = doc.get("pattern", "")
        if type(pattern) is not str or pattern not in PATTERNS:
            raise error(f"{where}: attack-tree leaf references unknown pattern {pattern!r}")
        args = decode(dict[str, str], doc.get("args", {}), f"{where}.args", error)
        return Leaf(pattern, tuple(sorted((k, literal(v)) for k, v in args.items())))
    if kind in ("and", "or"):
        children = decode(list[object], doc.get("children", []), f"{where}.children", error)
        if not children:
            raise error(f"{where}: attack-tree {kind!r} node has no children")
        children = tuple(_node_from_dict(c, f"{where}.children[{ix}]", error)
                         for ix, c in enumerate(children))
        return And(children) if kind == "and" else Or(children)
    raise error(f"{where}: attack-tree node kind must be and/or/leaf, got {kind!r}")


@dataclass(frozen=True)
class AttackTree:
    """The attack tree of one threat class, and the oracle condition that holds
    when the attack succeeded."""

    root: Annotated[Node, _node_from_dict]
    fail_condition: str


@dataclass(frozen=True)
class AttackTreeFile:
    """An attack-tree file: the tree of each threat class."""

    trees: dict[str, AttackTree] = field(default_factory=dict)


def load_attack_trees(path: str | Path) -> dict[str, AttackTree]:
    """Threat class -> tree; a malformed file is a ``PlannerError`` naming the
    file and the path of the node (``trees.weak_authentication.root.children[1]``)."""
    return load_json(AttackTreeFile, path, PlannerError).trees


def _walk_leaves(node: Node, out: list[Leaf]) -> None:
    if isinstance(node, Leaf):
        out.append(node)
    else:
        for child in node.children:
            _walk_leaves(child, out)


def _enum_vectors(node: Node) -> list[tuple[Leaf, ...]]:
    if isinstance(node, Leaf):
        return [(node,)]
    if isinstance(node, Or):
        return [v for child in node.children for v in _enum_vectors(child)]
    combos = itertools.product(*(_enum_vectors(c) for c in node.children))
    return [tuple(leaf for part in combo for leaf in part) for combo in combos]


def enumerate_attack_vectors(tree: AttackTree) -> list[tuple[Leaf, ...]]:
    """All minimal leaf-sets satisfying the root, each ordered by tree
    position. OR children yield alternatives; AND children combine."""
    leaves: list[Leaf] = []
    _walk_leaves(tree.root, leaves)
    position = {id(leaf): ix for ix, leaf in enumerate(leaves)}

    raw = _enum_vectors(tree.root)
    as_sets = [frozenset(position[id(leaf)] for leaf in v) for v in raw]
    vectors: list[tuple[Leaf, ...]] = []
    kept: list[frozenset[int]] = []
    for vec, leafset in zip(raw, as_sets):
        if leafset in kept:
            continue
        if any(other < leafset for other in as_sets):
            continue  # a strictly smaller satisfying set exists
        kept.append(leafset)
        vectors.append(tuple(sorted(vec, key=lambda l: position[id(l)])))
    return vectors


# -- scenario generation ---------------------------------------------------


def _meta(
    method: str,
    requirement_refs: tuple[str, ...],
    threat_refs: tuple[str, ...],
    risk_ref: str | None,
    domains: dict[str, str] | None = None,
) -> tuple[tuple[str, Value], ...]:
    entries: list[tuple[str, Value]] = [("method", Value.string(method))]
    entries.extend(("requirement_ref", Value.string(r)) for r in requirement_refs)
    entries.extend(("threat_ref", Value.string(t)) for t in threat_refs)
    if risk_ref:
        entries.append(("risk_ref", Value.string(risk_ref)))
    for name, key in (domains or {}).items():
        entries.append((f"domain_{name}", Value.string(key)))
    return tuple(entries)


def _env(bus: Interface, *others: Interface) -> EnvSpec:
    """The primary bus as ``bus`` and the n-th other interface as ``bus<n>``,
    each naming its item interface."""
    return EnvSpec(
        interfaces=tuple(
            EnvInterface(f"bus{n or ''}", iface.kind.value, (("item_ref", Value.string(iface.id)),))
            for n, iface in enumerate((bus, *others))
        ),
        preconditions=("sut_alive",),
    )


def _finalize(raw: Scenario) -> Scenario:
    """Normalize via the canonical form and insist the result validates."""
    scenario = parse_scenario(serialize(raw))
    issues = validate(scenario)
    if issues:
        raise PlannerError(
            f"generated scenario {scenario.id!r} does not validate: "
            + "; ".join(i.detail for i in issues)
        )
    return scenario


def _bus_for(item: Item, target: str | None = None) -> Interface:
    """The interface a scenario runs on: the external protocol interface
    ``target`` names, else the primary bus (the first external canlike
    interface by id)."""
    external = sorted((i for i in item.interfaces if i.exposure is Exposure.EXTERNAL),
                      key=lambda i: i.id)
    candidates = ([i for i in external if i.id == target and i.carries_protocol]
                  + [i for i in external if i.kind.value == "canlike"])
    if not candidates:
        raise PlannerError(f"item {item.id!r} has no external canlike interface")
    return candidates[0]


def gen_penetration_scenarios(
    req: SecurityRequirement,
    tree: AttackTree,
    item: Item,
    *,
    threat_refs: tuple[str, ...] = (),
    risk_ref: str | None = None,
    target: str | None = None,
) -> list[Scenario]:
    """One scenario per attack vector, on ``_bus_for(item, target)``; the
    tree's fail condition is the oracle's fail condition (the attack
    succeeding means the SUT failed)."""
    bus = _bus_for(item, target)
    slug = req.id.lower()
    scenarios = []
    for ix, vector in enumerate(enumerate_attack_vectors(tree)):
        steps = tuple(PatternStep(leaf.pattern, leaf.args) for leaf in vector)
        scenarios.append(
            _finalize(
                Scenario(
                    id=f"pen-{slug}-{ix:02d}",
                    meta=_meta("penetration", (req.id,), threat_refs, risk_ref),
                    env=_env(bus),
                    steps=steps,
                    oracle=OracleSpec("sut.alive", tree.fail_condition),
                )
            )
        )
    return scenarios


_WRITE_DOMAINS = {"DID": "DID", "VALUE": "VALUE"}


def gen_functional_scenarios(
    req: SecurityRequirement,
    item: Item,
    *,
    threat_refs: tuple[str, ...] = (),
    risk_ref: str | None = None,
    target: str | None = None,
) -> tuple[Scenario, Scenario]:
    """Positive/negative pair around the protected function, on
    ``_bus_for(item, target)``.

    Positive: legitimate session and credentials, expect success.
    Negative: no credentials, sweep sessions, expect refusal.
    """
    if req.verification_hint not in (VerificationHint.FUNCTIONAL, VerificationHint.INTERFACE):
        raise PlannerError(
            f"requirement {req.id!r} has hint {req.verification_hint.value}, not functional"
        )
    goal = next((g for g in item.security_goals if g.id == req.goal_ref), None)
    if goal is None:
        raise PlannerError(f"requirement {req.id!r} references unknown goal {req.goal_ref!r}")
    function = next((f for f in item.functions if f.id == goal.target_ref), None)
    if function is None:
        raise PlannerError(
            f"requirement {req.id!r} resolves to {goal.target_ref!r}, which is not a function"
        )
    bus = _bus_for(item, target)
    slug = req.id.lower()

    if function.kind == "diag_write":
        positive = Scenario(
            id=f"func-pos-{slug}",
            meta=_meta("functional", (req.id,), threat_refs, risk_ref, _WRITE_DOMAINS),
            env=_env(bus),
            steps=(
                PatternStep("SET_SESSION", (("session", Value.hexbytes(b"\x03")),)),
                PatternStep("SECURITY_ACCESS", ()),
                PatternStep(
                    "WRITE_DATA",
                    (("did", Value.placeholder("DID")), ("value", Value.placeholder("VALUE"))),
                ),
                ExpectStep("RESPONSE", (("service", Value.hexbytes(b"\x2e")),)),
            ),
            oracle=OracleSpec("all_expectations_met", "any_expectation_missed"),
        )
        negative = Scenario(
            id=f"func-neg-{slug}",
            meta=_meta(
                "functional",
                (req.id,),
                threat_refs,
                risk_ref,
                {**_WRITE_DOMAINS, "SESSION": "SESSION"},
            ),
            env=_env(bus),
            steps=(
                PatternStep("SET_SESSION", (("session", Value.placeholder("SESSION")),)),
                PatternStep(
                    "WRITE_DATA",
                    (("did", Value.placeholder("DID")), ("value", Value.placeholder("VALUE"))),
                ),
                ExpectStep("NEG_RESPONSE", (("service", Value.hexbytes(b"\x2e")),)),
            ),
            oracle=OracleSpec("all_expectations_met", "write.accepted"),
        )
        return _finalize(positive), _finalize(negative)

    if function.kind == "security_access":
        positive = Scenario(
            id=f"func-pos-{slug}",
            meta=_meta("functional", (req.id,), threat_refs, risk_ref),
            env=_env(bus),
            steps=(PatternStep("SECURITY_ACCESS", ()),),
            oracle=OracleSpec("unlock.achieved", "any_expectation_missed"),
        )
        negative = Scenario(
            id=f"func-neg-{slug}",
            meta=_meta("functional", (req.id,), threat_refs, risk_ref),
            env=_env(bus),
            steps=(PatternStep("SECURITY_ACCESS_WEAK", ()),),
            oracle=OracleSpec("sut.alive", "unlock.achieved"),
        )
        return _finalize(positive), _finalize(negative)

    raise PlannerError(
        f"requirement {req.id!r} targets function kind {function.kind!r}, "
        "which has no functional positive/negative template"
    )


def gen_fuzz_scenario(
    interface: Interface,
    budget: int,
    corpus_ref: str,
    seed: int,
    *,
    requirement_refs: tuple[str, ...] = (),
    threat_refs: tuple[str, ...] = (),
    risk_ref: str | None = None,
) -> Scenario:
    if budget <= 0:
        raise PlannerError(f"fuzz budget must be positive, got {budget}")
    raw = Scenario(
        id=f"fuzz-{interface.id.lower()}",
        meta=_meta("fuzz", requirement_refs, threat_refs, risk_ref),
        env=_env(interface),
        steps=(
            PatternStep(
                "FUZZ_CAMPAIGN",
                (
                    ("budget", Value.number(budget)),
                    ("corpus", Value.string(corpus_ref)),
                    ("probe_every", Value.number(PROBE_EVERY)),
                    ("seed", Value.number(seed)),
                ),
            ),
            PatternStep("TESTER_PRESENT", ()),
            ExpectStep("RESPONSE", (("service", Value.hexbytes(b"\x3e")),)),
        ),
        oracle=OracleSpec("sut.alive", "sut.crashed"),
    )
    return _finalize(raw)


def gen_vulnscan_scenario(
    item: Item,
    *,
    requirement_refs: tuple[str, ...] = (),
    threat_refs: tuple[str, ...] = (),
    risk_ref: str | None = None,
) -> Scenario:
    targets = sorted((i for i in item.interfaces
                      if i.exposure is Exposure.EXTERNAL and i.carries_protocol),
                     key=lambda i: i.id)
    if not targets:
        raise PlannerError(f"item {item.id!r} has no external interface to scan")
    bus = _bus_for(item)
    raw = Scenario(
        id=f"vulnscan-{item.id.lower()}",
        meta=_meta("vulnscan", requirement_refs, threat_refs, risk_ref)
        + (
            ("scan_tool", Value.string("builtin-fingerprint-scanner")),
            ("followup", Value.string("emit follow-up tasks for each finding")),
        ),
        env=_env(bus, *(i for i in targets if i is not bus)),
        steps=(
            PatternStep("VULN_SCAN", (("targets", Value.string(",".join(i.id for i in targets))),)),
        ),
        oracle=OracleSpec("scan.clean", "scan.findings"),
    )
    return _finalize(raw)


# -- plan assembly ---------------------------------------------------------


@dataclass(frozen=True)
class PolicyBand:
    """A band of risk values, both ends inclusive, and the test methods it calls for."""

    low: int
    high: int
    methods: tuple[str, ...]


@dataclass(frozen=True)
class RiskPolicy:
    """The risk bands that pick the test methods for a risk value."""

    bands: tuple[PolicyBand, ...]

    def methods_for(self, value: int) -> tuple[str, ...]:
        for band in self.bands:
            if band.low <= value <= band.high:
                return band.methods
        return ()


POLICY = RiskPolicy(
    bands=(
        PolicyBand(12, 16, ("penetration", "fuzz")),
        PolicyBand(8, 11, ("penetration",)),
        PolicyBand(4, 7, ("functional", "vulnscan")),
    )
)


def risk_snapshot_id(risks: list[Risk]) -> str:
    canonical = json.dumps([asdict(r) for r in risks], sort_keys=True)
    return "RISKS-" + hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass
class TestPlan:
    """A test plan: purpose, SUT overview, scope, the risk snapshot it answers,
    strategy, environment, case specifications and termination criteria."""

    purpose: str
    sut_overview: str
    scope: list[str]
    risk_ref: str
    strategy: dict[str, str]
    environment: dict
    case_specs: list[str]
    termination: dict

    def __post_init__(self) -> None:
        for name in ("purpose", "sut_overview", "risk_ref"):
            if not getattr(self, name):
                raise PlannerError(f"test plan field {name!r} must be non-empty")
        for name in ("scope", "strategy", "environment", "termination"):
            if not getattr(self, name):
                raise PlannerError(f"test plan field {name!r} must be non-empty")


_RATIONALE = {
    "penetration": "attack-tree chains for high risks (value >= 8)",
    "fuzz": "mutation fuzzing with liveness oracle for top-band risks (value >= 12)",
    "functional": "positive/negative checks around protected functions (value 4-7)",
    "vulnscan": "surface scan of external interfaces against the vulnerability database (value 4-7)",
}


def build_plan(
    item: Item,
    risks: list[Risk],
    requirements: list[SecurityRequirement],
    *,
    trees: dict[str, AttackTree] | None = None,
    threat_class_by_id: dict[str, str] | None = None,
    threat_target_by_id: dict[str, str] | None = None,
    seed: int = 1,
    fuzz_budget: int = 3000,
) -> tuple[TestPlan, list[Scenario]]:
    """Route every unacceptable risk's requirement into >= 1 scenario, on
    the interface its threat targets (``threat_target_by_id``, ``_bus_for``).

    Fuzz and vulnerability scans run once per plan against the item's
    external surface; their traceability merges all requirements that
    selected the method, hinted requirements first.
    """
    trees = trees or {}
    threat_class_by_id = threat_class_by_id or {}
    threat_target_by_id = threat_target_by_id or {}
    by_threat: dict[str, list[SecurityRequirement]] = {}
    for req in requirements:
        for threat_id in req.derived_from:
            by_threat.setdefault(threat_id, []).append(req)

    risk_ref = risk_snapshot_id(risks)
    scenarios: list[Scenario] = []
    notes: list[str] = []
    methods_used: set[str] = set()
    fuzz_reqs: list[tuple[SecurityRequirement, str]] = []
    scan_reqs: list[tuple[SecurityRequirement, str]] = []

    for risk in sorted((r for r in risks if not r.acceptable), key=lambda r: r.threat_ref):
        methods = POLICY.methods_for(risk.value)
        for req in by_threat.get(risk.threat_ref, []):
            if not methods:
                raise PlannerError(
                    f"requirement {req.id!r} has no applicable method under policy "
                    f"(risk value {risk.value})"
                )
            produced = 0
            for method in methods:
                if method == "penetration":
                    tree = trees.get(threat_class_by_id.get(risk.threat_ref, ""))
                    if tree is None:
                        notes.append(
                            f"no attack tree for {req.id} "
                            f"(class {threat_class_by_id.get(risk.threat_ref, 'unknown')}); "
                            "other methods cover it"
                        )
                        continue
                    generated = gen_penetration_scenarios(
                        req, tree, item, threat_refs=(risk.threat_ref,), risk_ref=risk_ref,
                        target=threat_target_by_id.get(risk.threat_ref),
                    )
                    scenarios.extend(generated)
                    produced += len(generated)
                    methods_used.add("penetration")
                elif method == "functional":
                    try:
                        pos, neg = gen_functional_scenarios(
                            req, item, threat_refs=(risk.threat_ref,), risk_ref=risk_ref,
                            target=threat_target_by_id.get(risk.threat_ref),
                        )
                    except PlannerError as exc:
                        notes.append(f"functional method skipped for {req.id}: {exc}")
                        continue
                    scenarios.extend([pos, neg])
                    produced += 2
                    methods_used.add("functional")
                elif method == "fuzz":
                    fuzz_reqs.append((req, risk.threat_ref))
                    produced += 1
                elif method == "vulnscan":
                    scan_reqs.append((req, risk.threat_ref))
                    produced += 1
            if produced == 0:
                raise PlannerError(
                    f"requirement {req.id!r}: no applicable method produced scenarios"
                )

    def merged_refs(
        pairs: list[tuple[SecurityRequirement, str]], hint: VerificationHint
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        hints = {req.id: req.verification_hint for req, _ in pairs}
        ordered = sorted(
            {(req.id, threat_id) for req, threat_id in pairs},
            key=lambda p: (0 if hints[p[0]] == hint else 1, p[0]),
        )
        return tuple(p[0] for p in ordered), tuple(p[1] for p in ordered)

    if fuzz_reqs:
        req_refs, threat_refs = merged_refs(fuzz_reqs, VerificationHint.FUZZ)
        scenarios.append(
            gen_fuzz_scenario(
                _bus_for(item),
                fuzz_budget,
                FUZZ_CORPUS,
                seed,
                requirement_refs=req_refs,
                threat_refs=threat_refs,
                risk_ref=risk_ref,
            )
        )
        methods_used.add("fuzz")
    if scan_reqs:
        req_refs, threat_refs = merged_refs(scan_reqs, VerificationHint.VULNSCAN)
        scenarios.append(
            gen_vulnscan_scenario(
                item,
                requirement_refs=req_refs,
                threat_refs=threat_refs,
                risk_ref=risk_ref,
            )
        )
        methods_used.add("vulnscan")

    strategy = {"overview": "methods selected per risk band; see per-method rationale"}
    for method in sorted(methods_used):
        strategy[method] = _RATIONALE[method]
    if notes:
        strategy["notes"] = "; ".join(notes)

    plan = TestPlan(
        purpose=(
            f"Verify the security requirements of {item.id} by exercising every "
            "unacceptable risk through at least one test scenario."
        ),
        sut_overview=f"{item.name}: {item.boundary}",
        scope=sorted(i.id for i in item.interfaces),
        risk_ref=risk_ref,
        strategy=strategy,
        environment={
            "interfaces": [
                {"logical": "bus", "kind": "canlike", "item_ref": _bus_for(item).id}
            ],
            "preconditions": ["sut_alive"],
        },
        case_specs=[s.id for s in scenarios],
        termination={"max_duration_s": MAX_DURATION_S, "stop_on_error": False},
    )
    return plan, scenarios
