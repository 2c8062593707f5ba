"""Attack-vector enumeration, scenario generation, and plan assembly."""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict

import pytest

from vecuforge import planner
from vecuforge.analysis import (
    RequirementKind,
    Risk,
    SecurityRequirement,
    VerificationHint,
)
from vecuforge.item_model import Item, ItemError, load_json
from vecuforge.planner import (
    And,
    AttackTree,
    Leaf,
    Or,
    PlannerError,
    PolicyBand,
    RiskPolicy,
    build_plan,
    enumerate_attack_vectors,
    gen_functional_scenarios,
    gen_fuzz_scenario,
    gen_vulnscan_scenario,
    load_attack_trees,
    risk_snapshot_id,
)
from vecuforge.planner import TestPlan as Plan
from vecuforge.scenario_dsl import parse_scenario, serialize, validate


# -- attack vectors --------------------------------------------------------


def walk_leaves(node, out):
    if isinstance(node, Leaf):
        out.append(node)
    else:
        for child in node.children:
            walk_leaves(child, out)


def brute_force_vectors(tree: AttackTree) -> set[frozenset[int]]:
    """Powerset enumeration: satisfying leaf-sets filtered for minimality.

    Independent of the production recursion: checks node satisfaction
    directly against every subset of leaf positions.
    """
    leaves: list[Leaf] = []
    walk_leaves(tree.root, leaves)
    position = {id(leaf): ix for ix, leaf in enumerate(leaves)}

    def satisfied(node, chosen: frozenset[int]) -> bool:
        if isinstance(node, Leaf):
            return position[id(node)] in chosen
        if isinstance(node, And):
            return all(satisfied(c, chosen) for c in node.children)
        return any(satisfied(c, chosen) for c in node.children)

    n = len(leaves)
    sats = [
        frozenset(combo)
        for r in range(n + 1)
        for combo in itertools.combinations(range(n), r)
        if satisfied(tree.root, frozenset(combo))
    ]
    return {s for s in sats if not any(o < s for o in sats)}


def vector_sets(tree: AttackTree) -> set[frozenset[int]]:
    leaves: list[Leaf] = []
    walk_leaves(tree.root, leaves)
    position = {id(leaf): ix for ix, leaf in enumerate(leaves)}
    return {
        frozenset(position[id(leaf)] for leaf in vec)
        for vec in enumerate_attack_vectors(tree)
    }


def random_tree(rng: random.Random) -> AttackTree:
    counter = itertools.count()

    def build(depth: int) -> tuple:
        budget_left = 10 - next_leaf[0]
        if depth >= 4 or budget_left <= 1 or rng.random() < 0.35:
            ix = next(counter)
            next_leaf[0] += 1
            return Leaf(f"LEAF{ix}")
        width = rng.randint(1, min(3, budget_left))
        children = tuple(build(depth + 1) for _ in range(width))
        return And(children) if rng.random() < 0.5 else Or(children)

    next_leaf = [0]
    return AttackTree(root=build(0), fail_condition="unlock.achieved")


class TestAttackVectors:
    def test_single_leaf(self):
        leaf = Leaf("SET_SESSION")
        tree = AttackTree(root=leaf, fail_condition="c")
        assert enumerate_attack_vectors(tree) == [(leaf,)]

    def test_or_gives_alternatives(self):
        a, b = Leaf("A"), Leaf("B")
        tree = AttackTree(root=Or((a, b)), fail_condition="c")
        assert enumerate_attack_vectors(tree) == [(a,), (b,)]

    def test_and_of_or_combines(self):
        a, b, c = Leaf("A"), Leaf("B"), Leaf("C")
        tree = AttackTree(root=And((a, Or((b, c)))), fail_condition="x")
        assert enumerate_attack_vectors(tree) == [(a, b), (a, c)]

    def test_vector_order_follows_tree_position(self):
        a, b, c = Leaf("A"), Leaf("B"), Leaf("C")
        tree = AttackTree(root=And((Or((a, b)), c)), fail_condition="x")
        assert enumerate_attack_vectors(tree) == [(a, c), (b, c)]

    def test_shared_leaf_drops_non_minimal(self):
        a, b = Leaf("A"), Leaf("B")
        tree = AttackTree(root=Or((a, And((a, b)))), fail_condition="x")
        assert enumerate_attack_vectors(tree) == [(a,)]

    def test_matches_brute_force_on_fixed_trees(self):
        a, b, c, d = (Leaf(p) for p in "ABCD")
        trees = [
            AttackTree(And((a, b, c)), "x"),
            AttackTree(Or((And((a, b)), And((c, d)))), "x"),
            AttackTree(And((Or((a, b)), Or((c, d)))), "x"),
            AttackTree(Or((a, Or((b, Or((c, d)))))), "x"),
        ]
        for tree in trees:
            assert vector_sets(tree) == brute_force_vectors(tree)

    def test_matches_brute_force_on_100_random_trees(self):
        rng = random.Random(4242)
        for _ in range(100):
            tree = random_tree(rng)
            assert vector_sets(tree) == brute_force_vectors(tree)

    def test_vectors_internally_ordered_by_position(self):
        rng = random.Random(99)
        for _ in range(25):
            tree = random_tree(rng)
            leaves: list[Leaf] = []
            walk_leaves(tree.root, leaves)
            position = {id(leaf): ix for ix, leaf in enumerate(leaves)}
            for vec in enumerate_attack_vectors(tree):
                indices = [position[id(leaf)] for leaf in vec]
                assert indices == sorted(indices)


class TestLoadTrees:
    def test_bundled_tree(self, samples_dir):
        trees = load_attack_trees(samples_dir / "attack_trees.json")
        tree = trees["weak_authentication"]
        assert tree.fail_condition == "unlock.achieved"
        vectors = enumerate_attack_vectors(tree)
        assert len(vectors) == 1
        assert [leaf.pattern for leaf in vectors[0]] == [
            "SECURITY_ACCESS_WEAK",
            "SET_SESSION",
            "WRITE_DATA",
        ]

    def test_unknown_leaf_pattern_rejected(self, tmp_path):
        doc = {"trees": {"x": {"fail_condition": "c", "root": {"kind": "leaf", "pattern": "NOPE"}}}}
        path = tmp_path / "trees.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PlannerError, match="NOPE"):
            load_attack_trees(path)

    def test_empty_children_rejected(self, tmp_path):
        doc = {"trees": {"x": {"fail_condition": "c", "root": {"kind": "and", "children": []}}}}
        path = tmp_path / "trees.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PlannerError, match="no children"):
            load_attack_trees(path)

    def test_bad_kind_rejected(self, tmp_path):
        doc = {"trees": {"x": {"fail_condition": "c", "root": {"kind": "xor", "children": []}}}}
        path = tmp_path / "trees.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PlannerError, match="xor"):
            load_attack_trees(path)


# -- scenario generators ---------------------------------------------------


@pytest.fixture(scope="module")
def item(samples_dir):
    return load_json(Item, samples_dir / "item.json", ItemError)


def req_for(analysis, req_id: str) -> SecurityRequirement:
    return next(r for r in analysis.requirements if r.id == req_id)


def assert_round_trips(scenario) -> None:
    text = serialize(scenario)
    assert parse_scenario(text) == scenario
    assert validate(scenario) == []


class TestGenFunctional:
    def test_positive_negative_pair_for_write(self, analysis, item):
        req = req_for(analysis, "REQ-TC-SESSBYPASS-IF-CAN")
        pos, neg = gen_functional_scenarios(req, item, threat_refs=tuple(req.derived_from))
        assert pos.id == "func-pos-req-tc-sessbypass-if-can"
        assert neg.id == "func-neg-req-tc-sessbypass-if-can"
        for scn in (pos, neg):
            assert scn.method() == "functional"
            assert scn.requirement_refs() == [req.id]
            assert_round_trips(scn)
        names = [s.name for s in pos.steps if hasattr(s, "name")]
        assert names[:3] == ["SET_SESSION", "SECURITY_ACCESS", "WRITE_DATA"]
        assert pos.oracle.pass_condition == "all_expectations_met"
        assert neg.oracle.fail_condition == "write.accepted"
        assert neg.placeholders() == {"DID", "SESSION", "VALUE"}
        assert neg.domain_declarations() == {"DID": "DID", "SESSION": "SESSION", "VALUE": "VALUE"}

    def test_negative_sweeps_sessions_without_credentials(self, analysis, item):
        req = req_for(analysis, "REQ-TC-SESSBYPASS-IF-CAN")
        _, neg = gen_functional_scenarios(req, item)
        names = [getattr(s, "name", getattr(s, "matcher", "")) for s in neg.steps]
        assert names == ["SET_SESSION", "WRITE_DATA", "NEG_RESPONSE"]
        assert "SECURITY_ACCESS" not in names

    def test_wrong_hint_rejected(self, analysis, item):
        req = req_for(analysis, "REQ-TC-WEAKKEY-IF-CAN")
        assert req.verification_hint is VerificationHint.PENETRATION
        with pytest.raises(PlannerError, match="hint"):
            gen_functional_scenarios(req, item)

    def test_interface_target_rejected(self, item):
        req = SecurityRequirement(
            id="REQ-X",
            text="t",
            kind=RequirementKind.POSITIVE,
            derived_from=("T-X",),
            goal_ref="G-CONF",
            countermeasure_ref=None,
            verification_hint=VerificationHint.FUNCTIONAL,
        )
        with pytest.raises(PlannerError, match="not a function"):
            gen_functional_scenarios(req, item)

    def test_unknown_goal_rejected(self, item):
        req = SecurityRequirement(
            id="REQ-X",
            text="t",
            kind=RequirementKind.POSITIVE,
            derived_from=("T-X",),
            goal_ref="G-GHOST",
            countermeasure_ref=None,
            verification_hint=VerificationHint.FUNCTIONAL,
        )
        with pytest.raises(PlannerError, match="G-GHOST"):
            gen_functional_scenarios(req, item)

    def test_security_access_function_templates(self, item):
        req = SecurityRequirement(
            id="REQ-X",
            text="t",
            kind=RequirementKind.POSITIVE,
            derived_from=("T-X",),
            goal_ref="G-AUTH",
            countermeasure_ref=None,
            verification_hint=VerificationHint.FUNCTIONAL,
        )
        pos, neg = gen_functional_scenarios(req, item)
        assert pos.oracle.pass_condition == "unlock.achieved"
        assert neg.oracle.fail_condition == "unlock.achieved"
        assert_round_trips(pos)
        assert_round_trips(neg)


class TestGenFuzz:
    def test_args_echoed_verbatim(self, item):
        scn = gen_fuzz_scenario(
            item.interface("IF-CAN"), 1000, "fuzz_corpus", 42,
            requirement_refs=("REQ-F",),
        )
        assert scn.id == "fuzz-if-can"
        assert scn.method() == "fuzz"
        text = serialize(scn)
        assert "budget=1000" in text
        assert "seed=42" in text
        assert 'corpus="fuzz_corpus"' in text
        assert scn.oracle.fail_condition == "sut.crashed"
        assert_round_trips(scn)

    def test_zero_budget_rejected(self, item):
        with pytest.raises(PlannerError, match="budget"):
            gen_fuzz_scenario(item.interface("IF-CAN"), 0, "fuzz_corpus", 1)

    def test_liveness_expectation_present(self, item):
        scn = gen_fuzz_scenario(
            item.interface("IF-CAN"), 10, "fuzz_corpus", 1, requirement_refs=("REQ-F",)
        )
        kinds = [type(s).__name__ for s in scn.steps]
        assert kinds == ["PatternStep", "PatternStep", "ExpectStep"]


class TestGenVulnscan:
    def test_targets_are_external_interfaces(self, item):
        scn = gen_vulnscan_scenario(item, requirement_refs=("REQ-V",))
        assert scn.method() == "vulnscan"
        step = scn.steps[0]
        assert step.name == "VULN_SCAN"
        assert dict(step.args)["targets"].raw == "IF-CAN"
        assert scn.oracle.fail_condition == "scan.findings"
        assert_round_trips(scn)

    def test_internal_only_item_rejected(self, samples_dir):
        item = load_json(Item, samples_dir / "item.json", ItemError)
        internal = [i for i in item.interfaces if i.exposure.value == "internal"]
        item.interfaces = internal
        with pytest.raises(PlannerError, match="no external interface"):
            gen_vulnscan_scenario(item)


# -- plan assembly ---------------------------------------------------------


@pytest.fixture(scope="module")
def trees(samples_dir):
    return load_attack_trees(samples_dir / "attack_trees.json")


@pytest.fixture(scope="module")
def bundled_plan(item, analysis, trees):
    return build_plan(
        item,
        analysis.risks,
        analysis.requirements,
        trees=trees,
        threat_class_by_id=analysis.threat_class_by_id,
        seed=1,
        fuzz_budget=2000,
    )


class TestBuildPlan:
    def test_bundled_scenario_set(self, bundled_plan):
        plan, scenarios = bundled_plan
        assert [s.id for s in scenarios] == [
            "func-pos-req-tc-sessbypass-if-can",
            "func-neg-req-tc-sessbypass-if-can",
            "pen-req-tc-weakkey-if-can-00",
            "fuzz-if-can",
            "vulnscan-item-demo-ecu",
        ]
        assert plan.case_specs == [s.id for s in scenarios]

    def test_every_generated_scenario_validates(self, bundled_plan):
        _, scenarios = bundled_plan
        for scn in scenarios:
            assert_round_trips(scn)

    def test_every_unacceptable_risk_covered(self, bundled_plan, analysis):
        plan, scenarios = bundled_plan
        reqs_by_threat = {}
        for req in analysis.requirements:
            for t in req.derived_from:
                reqs_by_threat.setdefault(t, set()).add(req.id)
        covered = {ref for s in scenarios for ref in s.requirement_refs()}
        for risk in analysis.risks:
            if risk.acceptable:
                continue
            assert reqs_by_threat[risk.threat_ref] & covered, risk.threat_ref

    def test_scan_traceability_puts_hinted_requirement_first(self, bundled_plan):
        _, scenarios = bundled_plan
        scan = next(s for s in scenarios if s.id == "vulnscan-item-demo-ecu")
        refs = scan.requirement_refs()
        assert refs[0] == "REQ-TC-HIDDENSVC-IF-CAN"
        assert set(refs) == {"REQ-TC-HIDDENSVC-IF-CAN", "REQ-TC-SESSBYPASS-IF-CAN"}

    def test_strategy_and_notes(self, bundled_plan):
        plan, _ = bundled_plan
        for method in ("penetration", "functional", "fuzz", "vulnscan"):
            assert method in plan.strategy
        assert "notes" in plan.strategy
        assert "REQ-TC-MALFORMED-IF-CAN" in plan.strategy["notes"]

    def test_note_names_a_hint_by_its_value(self, bundled_plan):
        # An f-string formats a str-mixin Enum by its name from Python 3.11
        # on and by its value before; plan.json must read the same on both.
        plan, _ = bundled_plan
        assert ("requirement 'REQ-TC-HIDDENSVC-IF-CAN' has hint vulnscan, not functional"
                in plan.strategy["notes"])

    def test_plan_fields_complete(self, bundled_plan, analysis):
        plan, _ = bundled_plan
        assert plan.purpose and plan.sut_overview
        assert plan.scope == ["IF-CAN", "IF-DEBUG"]
        assert plan.risk_ref == risk_snapshot_id(analysis.risks)
        assert plan.termination["max_duration_s"] > 0
        assert Plan(**json.loads(json.dumps(asdict(plan)))) == plan

    def test_scenarios_carry_risk_ref(self, bundled_plan, analysis):
        _, scenarios = bundled_plan
        for scn in scenarios:
            assert scn.risk_ref() == risk_snapshot_id(analysis.risks)

    def test_empty_risks_give_empty_but_complete_plan(self, item):
        plan, scenarios = build_plan(item, [], [])
        assert scenarios == []
        assert plan.case_specs == []
        assert plan.purpose and plan.strategy and plan.termination

    def test_deterministic(self, item, analysis, trees):
        def run():
            plan, scenarios = build_plan(
                item,
                analysis.risks,
                analysis.requirements,
                trees=trees,
                threat_class_by_id=analysis.threat_class_by_id,
                seed=1,
                fuzz_budget=2000,
            )
            return json.dumps(asdict(plan)) + "".join(serialize(s) for s in scenarios)

        assert run() == run()

    def test_value_below_all_bands_rejected(self, item, analysis):
        req = analysis.requirements[0]
        risk = Risk(
            threat_ref=req.derived_from[0],
            impact=analysis.risks[0].impact,
            probability=1,
            value=2,
            threshold=8,
            acceptable=False,
        )
        with pytest.raises(PlannerError, match="no applicable method"):
            build_plan(item, [risk], [req])

    def test_no_method_produces_scenarios_rejected(self, item, analysis):
        req = req_for(analysis, "REQ-TC-WEAKKEY-IF-CAN")
        risk = next(r for r in analysis.risks if r.threat_ref in req.derived_from)
        with pytest.raises(PlannerError, match="no applicable method produced"):
            build_plan(item, [risk], [req], trees={})

    def test_custom_policy_bands(self, item, analysis, trees, monkeypatch):
        """The policy table alone decides the methods a risk band gets."""
        monkeypatch.setattr(planner, "POLICY",
                            RiskPolicy(bands=(PolicyBand(0, 16, ("vulnscan",)),)))
        req = req_for(analysis, "REQ-TC-WEAKKEY-IF-CAN")
        risk = next(r for r in analysis.risks if r.threat_ref in req.derived_from)
        plan, scenarios = build_plan(
            item,
            [risk],
            [req],
            trees=trees,
            threat_class_by_id=analysis.threat_class_by_id,
        )
        assert risk.value == 9  # the bundled policy gives it penetration only
        assert [s.method() for s in scenarios] == ["vulnscan"]

    def test_single_value6_requirement_gets_functional_and_vulnscan(self, item, analysis):
        req = req_for(analysis, "REQ-TC-SESSBYPASS-IF-CAN")
        risk = next(r for r in analysis.risks if r.threat_ref in req.derived_from)
        assert risk.value == 6
        plan, scenarios = build_plan(item, [risk], [req])
        methods = sorted({s.method() for s in scenarios})
        assert methods == ["functional", "vulnscan"]
