"""Test case generation: fuse scenarios with SUT data and scripts.

Placeholder domains come from the SUT database; a covering array built
by in-parameter-order growth (IPOG) picks bindings so that every t-way
value combination occurs in at least one case. Its cost grows with the
number of t-tuples, not with the full product of the domains. Each row
becomes one fully bound, directly executable test case with complete
traceability.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .frames import MAX_FRAME_ID, hex_in
from .scenario_dsl import (
    ExpectStep,
    PatternStep,
    Scenario,
    Value,
    ValueKind,
    validate,
)
from .script_registry import ScriptRegistry

_HEXISH_RE = re.compile(r"0x([0-9a-fA-F]*)\Z")


class TcgError(ValueError):
    """Unresolvable placeholder, missing script, or bad array parameters."""


# -- covering arrays ------------------------------------------------------


@dataclass
class CoveringArray:
    parameters: tuple[str, ...]
    domains: dict[str, tuple]
    strength: int
    rows: list[tuple]

    def row_dicts(self) -> list[dict]:
        return [dict(zip(self.parameters, row)) for row in self.rows]


def covering_array(domains: dict[str, list], t: int) -> CoveringArray:
    """In-parameter-order growth (IPOG; Lei et al., ECBS 2007).

    Parameters go in sorted order, values by position. The first t
    parameters start as their lexicographic product, so t == k gives the
    full product. Each later parameter grows the array horizontally (each
    row takes the value that covers the most uncovered t-tuples with it;
    ties go to the value least used in the column, then the smallest) and
    then vertically (each leftover tuple fills the don't-care cells of the
    first row it fits, or starts a new row). Don't-care cells still open
    at the end take value position 0.
    """
    if not domains:
        raise TcgError("covering array needs at least one parameter")
    params = tuple(sorted(domains))
    for p in params:
        if not domains[p]:
            raise TcgError(f"domain for parameter {p!r} is empty")
        repeats = [v for n, v in enumerate(domains[p]) if v in domains[p][:n]]
        if repeats:
            raise TcgError(f"domain for parameter {p!r} repeats value {repeats[0]!r}")
    k = len(params)
    if not 1 <= t <= k:
        raise TcgError(f"strength t={t} out of range [1,{k}]")

    values = {p: tuple(domains[p]) for p in params}
    sizes = [len(values[p]) for p in params]
    rows: list[list[int | None]] = [
        list(start) for start in itertools.product(*(range(n) for n in sizes[:t]))
    ]

    for i in range(t, k):
        combos = list(itertools.combinations(range(i), t - 1))
        uncovered = {
            (combo, vals)
            for combo in combos
            for vals in itertools.product(*(range(sizes[c]) for c in combo), range(sizes[i]))
        }

        used = [0] * sizes[i]
        for row in rows:
            known = [combo for combo in combos if all(row[c] is not None for c in combo)]
            hits = [
                {(combo, tuple(row[c] for c in combo) + (v,)) for combo in known}
                for v in range(sizes[i])
            ]
            best = max(
                range(sizes[i]), key=lambda v: (len(hits[v] & uncovered), -used[v], -v)
            )
            row.append(best)
            used[best] += 1
            uncovered -= hits[best]

        # A row without don't-care cells covers only tuples already removed,
        # so a leftover tuple fits only an open row with its value in column i.
        open_rows = [[r for r in rows if r[i] == v and None in r] for v in range(sizes[i])]
        for combo, vals in sorted(uncovered):
            cells = combo + (i,)
            fits = open_rows[vals[-1]]
            fit = next(
                (r for r in fits if all(r[c] in (None, x) for c, x in zip(cells, vals))),
                None,
            )
            if fit is None:
                fit = [None] * (i + 1)
                rows.append(fit)
                fits.append(fit)
            for c, x in zip(cells, vals):
                fit[c] = x

    return CoveringArray(
        parameters=params,
        domains=values,
        strength=t,
        rows=[
            tuple(values[p][0 if ix is None else ix] for p, ix in zip(params, row))
            for row in rows
        ],
    )


# -- SUT database ----------------------------------------------------------


@dataclass
class SutDatabase:
    sut_id: str
    description: str = ""
    endpoints: dict[str, dict[str, str]] = field(default_factory=dict)
    dictionaries: dict[str, object] = field(default_factory=dict)
    domains: dict[str, object] = field(default_factory=dict)

    def domain_values(self, key: str) -> list[str]:
        """Ordered values for a domain key; integer ranges expand to their
        boundary set {min, min+1, max-1, max}."""
        if key not in self.domains:
            raise TcgError(f"SUT database has no domain {key!r}")
        raw = self.domains[key]
        if isinstance(raw, dict) and "range" in raw:
            lo, hi = int(raw["range"][0]), int(raw["range"][1])
            if hi < lo:
                raise TcgError(f"domain {key!r} has an inverted range")
            return [str(v) for v in sorted({lo, min(lo + 1, hi), max(hi - 1, lo), hi})]
        values = [str(v) for v in raw]
        if not values:
            raise TcgError(f"domain {key!r} is empty")
        return values

    def slot_values(self) -> dict[str, str]:
        return {k: str(v) for k, v in self.dictionaries.items() if isinstance(v, (str, int))}

    def func_id(self) -> int:
        """The functional request id, ``7df`` unless the dictionaries name one."""
        raw = str(self.dictionaries.get("func_id", "7df"))
        value = hex_in(raw, MAX_FRAME_ID)
        if value is None:
            raise TcgError(f"SUT database func_id {raw!r} is not an 11-bit hex frame id")
        return value


def load_sutdb(path: str | Path) -> SutDatabase:
    """Read a SUT database; a ``func_id`` that is not an 11-bit hex id is a TcgError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    sutdb = SutDatabase(
        sut_id=doc["sut_id"],
        description=doc.get("description", ""),
        endpoints=doc.get("endpoints", {}),
        dictionaries=doc.get("dictionaries", {}),
        domains=doc.get("domains", {}),
    )
    sutdb.func_id()
    return sutdb


# -- test cases ------------------------------------------------------------


@dataclass
class BoundStep:
    """One activity of a case. ``within_ms`` is an expect step's latency
    requirement, carried from the scenario and not enforced."""

    kind: str  # "pattern" | "expect"
    name: str
    script_ref: str | None
    bound_args: dict[str, str]
    within_ms: int | None = None


@dataclass
class TestCase:
    id: str
    scenario_ref: str
    method: str
    purpose: str
    sut_description: str
    environmental_needs: dict
    procedural_requirements: str
    activities: list[BoundStep]
    input_data: dict
    expected_results: dict
    traceability: dict
    variability: dict

    def __post_init__(self) -> None:
        if not (self.traceability.get("requirement_refs") or self.traceability.get("threat_refs")):
            raise TcgError(f"case {self.id!r} has empty traceability")

    @classmethod
    def from_dict(cls, doc: dict) -> "TestCase":
        doc = dict(doc)
        doc["activities"] = [BoundStep(**a) for a in doc["activities"]]
        return cls(**doc)


def _bind_value(value: Value, bindings: dict[str, str]) -> str:
    """Turn an argument value into template-ready text.

    Hex literals lose their 0x prefix so they concatenate into frame
    payloads; placeholder bindings get the same normalization.
    """
    if value.kind is ValueKind.PLACEHOLDER:
        name = str(value.raw)
        if name not in bindings:
            raise TcgError(f"unresolved placeholder ${name}")
        text = bindings[name]
        m = _HEXISH_RE.match(text)
        return m.group(1).lower() if m else text
    return value.as_text()


def generate_cases(
    scenario: Scenario,
    sutdb: SutDatabase,
    registry: ScriptRegistry,
    t: int = 2,
) -> list[TestCase]:
    """One case per covering-array row over the scenario's placeholders."""
    issues = validate(scenario)
    if issues:
        raise TcgError(
            f"scenario {scenario.id!r} does not validate: "
            + "; ".join(i.detail for i in issues)
        )

    declarations = scenario.domain_declarations()
    placeholders = sorted(scenario.placeholders())
    domains = {
        name: sutdb.domain_values(declarations.get(name, name)) for name in placeholders
    }

    if placeholders:
        array = covering_array(domains, min(t, len(placeholders)))
        binding_rows = array.row_dicts()
    else:
        binding_rows = [{}]

    scripts: dict[str, str] = {}
    for step in scenario.steps:
        if isinstance(step, PatternStep):
            script = registry.match_script(step)
            if script is None:
                raise TcgError(f"no script matches pattern {step.name!r}")
            scripts[step.name] = script.id

    cases: list[TestCase] = []
    for row_ix, bindings in enumerate(binding_rows):
        activities: list[BoundStep] = []
        for step in scenario.steps:
            if isinstance(step, PatternStep):
                activities.append(
                    BoundStep(
                        kind="pattern",
                        name=step.name,
                        script_ref=scripts[step.name],
                        bound_args={n: _bind_value(v, bindings) for n, v in step.args},
                    )
                )
            else:
                assert isinstance(step, ExpectStep)
                activities.append(
                    BoundStep(
                        kind="expect",
                        name=step.matcher,
                        script_ref=None,
                        bound_args={n: _bind_value(v, bindings) for n, v in step.args},
                        within_ms=step.within_ms,
                    )
                )
        expectations = [
            {"matcher": a.name, "args": a.bound_args, "within_ms": a.within_ms}
            for a in activities
            if a.kind == "expect"
        ]
        cases.append(
            TestCase(
                id=f"{scenario.id}-{row_ix:03d}",
                scenario_ref=scenario.id,
                method=scenario.method(),
                purpose=f"Verify scenario {scenario.id!r} via the {scenario.method()} method",
                sut_description=f"{sutdb.sut_id}: {sutdb.description}".rstrip(": "),
                environmental_needs={
                    "interfaces": [
                        {"logical": i.logical, "kind": i.kind,
                         "params": {n: v.as_text() for n, v in i.params}}
                        for i in scenario.env.interfaces
                    ],
                    "preconditions": list(scenario.env.preconditions),
                },
                procedural_requirements=(
                    "Run activities strictly in order against a snapshotted SUT; "
                    "restore state afterwards."
                ),
                activities=activities,
                input_data={"bindings": dict(bindings)},
                expected_results={
                    "pass_condition": scenario.oracle.pass_condition,
                    "fail_condition": scenario.oracle.fail_condition,
                    "expectations": expectations,
                },
                traceability={
                    "requirement_refs": scenario.requirement_refs(),
                    "threat_refs": scenario.threat_refs(),
                    "risk_ref": scenario.risk_ref(),
                },
                variability=dict(bindings),
            )
        )
    return cases
