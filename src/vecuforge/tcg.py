"""Test case generation: fuse scenarios with SUT data and scripts.

Placeholder domains come from the SUT database; a covering array built
by in-parameter-order growth (IPOG) picks bindings so that every t-way
value combination occurs in at least one case. Its cost grows with the
number of t-tuples, not with the full product of the domains. Each row
becomes one fully bound, directly executable test case with complete
traceability. A bound value fills a slot only if its kind is the slot's
declared type, and that type alone decides its text. A case is a typed
record that checks its own vocabulary: at least one interface, and only
preconditions, oracle conditions, activity kinds and matchers that the
vocabulary defines, so the executor never meets a name it cannot run.

The result records the executor fills and the report reads
(``TestResult`` and its step log) sit next to the case records.
"""

import itertools
from dataclasses import dataclass, field
from operator import mul
from pathlib import Path
from typing import Annotated

from .frames import MAX_FRAME_ID, Frame, FrameError, hex_in, parse_line
from .item_model import decode, load_json
from .scenario_dsl import (
    PatternStep,
    Scenario,
    Value,
    ValueKind,
    literal,
    service_byte,
    validate,
)
from .script_registry import ScriptRegistry
from .vocabulary import CONDITIONS, MATCHERS, PRECONDITIONS, SEEDKEY_ALGORITHMS
from .vuln_scanner import ScanFinding


class TcgError(ValueError):
    """Unresolvable placeholder, missing script, or bad array parameters."""


# -- covering arrays ------------------------------------------------------


@dataclass
class CoveringArray:
    """A covering array: its parameters in order, their domains, its strength
    and its rows."""

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

    Growing column i keeps, for each combo of t-1 earlier columns, one
    bytearray with a flag per value tuple of the combo plus column i, 1
    while the tuple is uncovered. A tuple's index is mixed-radix over its
    columns with column i's value as the last digit (weight 1), so the n
    flags one row can hit for a combo form one slice, and the gain of
    every value is a column sum over one slice per combo the row knows.
    Column i thus costs one pass per row over C(i, t-1) combos, and one
    byte per t-tuple instead of a tuple object. The leftovers, read combo
    by combo in combination order with indices ascending, come in the
    sorted order of the tuples they stand for.
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
        n = sizes[i]
        # Each combo's flags, with the weight of every earlier column in
        # their index: its radix in the combo, 0 outside it.
        table = []
        for combo in itertools.combinations(range(i), t - 1):
            size, weights = n, [0] * i
            for c in reversed(combo):
                weights[c] = size
                size *= sizes[c]
            table.append((combo, bytearray(b"\x01") * size, weights))

        # max over (gain, -used, -v) picks the value that covers the most,
        # then the least used, then the smallest.
        minus_used = [0] * n
        for row in rows:
            if None in row:
                blank = {c for c, x in enumerate(row) if x is None}
                digits = [x or 0 for x in row]
                keys = [
                    (f, sum(map(mul, digits, weights)))
                    for combo, f, weights in table
                    if blank.isdisjoint(combo)
                ]
            else:
                keys = [(f, sum(map(mul, row, weights))) for _, f, weights in table]
            gain = [sum(col) for col in zip(*[f[b:b + n] for f, b in keys])]
            best = -max(zip(gain, minus_used, range(0, -n, -1)))[2]
            row.append(best)
            minus_used[best] -= 1
            for f, b in keys:
                f[b + best] = 0

        # A row without don't-care cells covers only tuples already flagged
        # covered, so a leftover tuple fits only an open row with its value
        # in column i.
        open_rows = [[r for r in rows if r[i] == v and None in r] for v in range(n)]
        for combo, f, _ in table:
            cells = combo + (i,)
            for vals in itertools.compress(
                itertools.product(*(range(sizes[c]) for c in cells)), f
            ):
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

_HEX_KEYS = {"func_id": MAX_FRAME_ID, "phys_id": MAX_FRAME_ID, "seedkey_const": 0xFF}


def _typed_domain(key: str, raw: object) -> list[tuple[str, Value, bool]]:
    """A domain's texts in order, each with its value by the DSL's literal
    rule and whether it was written as a JSON string; an integer range
    expands to the numbers {min, min+1, max-1, max}.
    A domain is a non-empty list of JSON strings and non-negative integers,
    or ``{"range": [lo, hi]}`` with two JSON integers (a boolean is none),
    or TcgError."""
    if type(raw) is list:
        if not raw:
            raise TcgError(f"domain {key!r} is empty")
        for v in raw:
            if type(v) is not str and not (type(v) is int and v >= 0):
                raise TcgError(f"domain {key!r} value {v!r} is not a string or a "
                               f"non-negative integer")
        return [(str(v), literal(str(v)), type(v) is str) for v in raw]
    bounds = raw.get("range") if isinstance(raw, dict) and set(raw) == {"range"} else None
    if type(bounds) is not list or len(bounds) != 2 or any(type(b) is not int for b in bounds):
        raise TcgError(f"domain {key!r} must be a non-empty list or {{\"range\": [lo, hi]}} "
                       f"with two integers, got {raw!r}")
    lo, hi = bounds
    if hi < lo:
        raise TcgError(f"domain {key!r} has an inverted range")
    numbers = sorted({lo, min(lo + 1, hi), max(hi - 1, lo), hi})
    return [(str(v), Value.number(v), False) for v in numbers]


@dataclass
class SutDatabase:
    """The SUT's data, checked and typed once, when it is built. ``func_id``
    and ``phys_id`` must be 11-bit hex ids, ``seedkey_const`` a hex byte,
    ``seedkey_algorithm`` a name in ``SEEDKEY_ALGORITHMS`` and each
    list-valued dictionary a frame corpus (``corpora``), or TcgError."""

    sut_id: str
    description: str = ""
    endpoints: dict[str, dict[str, str]] = field(default_factory=dict)
    dictionaries: dict[str, object] = field(default_factory=dict)
    domains: dict[str, object] = field(default_factory=dict)
    corpora: dict[str, tuple[Frame, ...]] = field(init=False, repr=False)
    _typed: dict[str, list[tuple[str, Value, bool]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for key, top in _HEX_KEYS.items():
            raw = self.dictionaries.get(key)
            if raw is not None and hex_in(str(raw), top) is None:
                what = "an 11-bit hex frame id" if top == MAX_FRAME_ID else "a hex byte"
                raise TcgError(f"SUT database {key} {raw!r} is not {what}")
        algorithm = self.dictionaries.get("seedkey_algorithm")
        if algorithm is not None and (type(algorithm) is not str
                                      or algorithm not in SEEDKEY_ALGORITHMS):
            raise TcgError(f"SUT database seedkey_algorithm {algorithm!r} is not one of "
                           f"{', '.join(SEEDKEY_ALGORITHMS)}")
        self.corpora = {}
        for key, lines in self.dictionaries.items():
            if isinstance(lines, list):
                try:
                    self.corpora[key] = tuple(parse_line(str(line)) for line in lines)
                except FrameError as exc:
                    raise TcgError(f"SUT database {key}: {exc}") from None
        self._typed = {key: _typed_domain(key, raw) for key, raw in self.domains.items()}

    def domain_values(self, key: str) -> list[tuple[str, Value, bool]]:
        """A domain's values in order: each SUT-database text with its typed
        value and whether it was written as a JSON string."""
        if key not in self._typed:
            raise TcgError(f"SUT database has no domain {key!r}")
        return self._typed[key]

    def slot_values(self) -> dict[str, str]:
        return {k: str(v) for k, v in self.dictionaries.items() if isinstance(v, (str, int))}

    def func_id(self) -> int:
        """The functional request id, ``7df`` unless the dictionaries name one."""
        return int(str(self.dictionaries.get("func_id", "7df")), 16)


def load_sutdb(path: str | Path) -> SutDatabase:
    """Read a SUT database; a bad value in it is a TcgError."""
    return load_json(SutDatabase, path, TcgError)


# -- test cases ------------------------------------------------------------


@dataclass
class BoundStep:
    """One activity of a case."""

    kind: str  # "pattern" | "expect"
    name: str
    script_ref: str | None
    bound_args: dict[str, str]


@dataclass
class CaseInterface:
    """An interface a case needs, as its scenario names it."""

    logical: str
    kind: str
    params: dict[str, str]

    @property
    def item_ref(self) -> str:
        """The item interface it stands for: ``params["item_ref"]`` or its name."""
        return self.params.get("item_ref", self.logical)


@dataclass
class EnvironmentalNeeds:
    """At least one interface, and preconditions from the vocabulary, or TcgError."""

    interfaces: list[CaseInterface]
    preconditions: list[str]

    def __post_init__(self) -> None:
        if not self.interfaces:
            raise TcgError("a case needs at least one interface")
        for pre in self.preconditions:
            if pre not in PRECONDITIONS:
                raise TcgError(f"unknown precondition {pre!r}")


@dataclass
class ExpectedResults:
    """The oracle: two conditions from the vocabulary, or TcgError."""

    pass_condition: str
    fail_condition: str

    def __post_init__(self) -> None:
        for condition in (self.pass_condition, self.fail_condition):
            if condition not in CONDITIONS:
                raise TcgError(f"unknown oracle condition {condition!r}")


@dataclass
class Traceability:
    """The requirements, threats and risk a case traces to."""

    requirement_refs: list[str]
    threat_refs: list[str]
    risk_ref: str | None


@dataclass
class TestCase:
    """A fully bound test case: what it verifies, what it needs, its activities
    in order, its oracle and what it traces to."""

    id: str
    scenario_ref: str
    method: str
    purpose: str
    sut_description: str
    environmental_needs: EnvironmentalNeeds
    procedural_requirements: str
    activities: list[BoundStep]
    input_data: dict[str, dict[str, str]]
    expected_results: ExpectedResults
    traceability: Traceability
    variability: dict[str, str]

    def __post_init__(self) -> None:
        if not (self.traceability.requirement_refs or self.traceability.threat_refs):
            raise TcgError(f"case {self.id!r} has empty traceability")
        for step in self.activities:
            if step.kind not in ("pattern", "expect"):
                raise TcgError(f"case {self.id!r}: unknown activity kind {step.kind!r}")
            if step.kind == "expect" and step.name not in MATCHERS:
                raise TcgError(f"case {self.id!r}: unknown matcher {step.name!r}")


_SERVICE = "one hex byte"


def _text(value: Value, want: str | None, where: str, written: str | None = None) -> str:
    """A value as its slot takes it. ``want`` is the slot's declared type,
    ``_SERVICE`` for a matcher's service, or None for an undeclared slot.
    ``written`` is the JSON string a SUT-database value was typed from: a
    ``string`` slot takes that text as written, whatever its literal type."""
    if want == "string" and written is not None:
        return written
    fits = service_byte(value) if want == _SERVICE else want in (None, value.kind.value)
    if not fits:
        raise TcgError(f"{where} wants {want}, got {value.kind.value} {value.render()}")
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

    # Each step as (kind, name, script_ref) with its args as slot
    # texts, kinds checked once per step and value. A literal's texts are
    # keyed by None, which no binding row holds.
    steps = []
    for ix, step in enumerate(scenario.steps, 1):
        if isinstance(step, PatternStep):
            script = registry.match_script(step)
            if script is None:
                raise TcgError(f"no script matches pattern {step.name!r}")
            head = ("pattern", step.name, script.id)
            types = {arg: spec.type for arg, spec in script.param_schema}
        else:
            head = ("expect", step.matcher, None)
            types = {"service": _SERVICE} if MATCHERS[step.matcher] is not None else {}
        slots = []
        for arg, value in step.args:
            where = f"scenario {scenario.id!r} step {ix} {head[1]}, slot {arg!r}"
            ph = str(value.raw) if value.kind is ValueKind.PLACEHOLDER else None
            entries = domains[ph] if ph else [(None, value, False)]
            slots.append((arg, ph, {
                text: _text(v, types.get(arg), where, text if is_str else None)
                for text, v, is_str in entries
            }))
        steps.append((head, slots))

    if placeholders:
        array = covering_array(
            {name: [text for text, *_ in values] for name, values in domains.items()},
            min(t, len(placeholders)),
        )
        binding_rows = array.row_dicts()
    else:
        binding_rows = [{}]

    # What every case shares is built once; each case still gets its own
    # dicts and lists, so editing one case leaves the others as they were.
    method = scenario.method()
    purpose = f"Verify scenario {scenario.id!r} via the {method} method"
    sut_description = f"{sutdb.sut_id}: {sutdb.description}".rstrip(": ")
    interfaces = [
        (i.logical, i.kind, {n: v.as_text() for n, v in i.params})
        for i in scenario.env.interfaces
    ]
    requirement_refs = scenario.requirement_refs()
    threat_refs = scenario.threat_refs()
    risk_ref = scenario.risk_ref()

    cases: list[TestCase] = []
    for row_ix, bindings in enumerate(binding_rows):
        activities = [
            BoundStep(kind, name, script_ref,
                      {arg: texts[bindings.get(ph)] for arg, ph, texts in slots})
            for (kind, name, script_ref), slots in steps
        ]
        try:
            needs = EnvironmentalNeeds([CaseInterface(logical, kind, dict(params))
                                        for logical, kind, params in interfaces],
                                       list(scenario.env.preconditions))
        except TcgError as exc:
            raise TcgError(f"scenario {scenario.id!r}: {exc}") from None
        cases.append(
            TestCase(
                id=f"{scenario.id}-{row_ix:03d}",
                scenario_ref=scenario.id,
                method=method,
                purpose=purpose,
                sut_description=sut_description,
                environmental_needs=needs,
                procedural_requirements=(
                    "Run activities strictly in order against a snapshotted SUT; "
                    "restore state afterwards."
                ),
                activities=activities,
                input_data={"bindings": dict(bindings)},
                expected_results=ExpectedResults(scenario.oracle.pass_condition,
                                                 scenario.oracle.fail_condition),
                traceability=Traceability(list(requirement_refs), list(threat_refs), risk_ref),
                variability=dict(bindings),
            )
        )
    return cases


# -- test results ----------------------------------------------------------

VERDICTS = ("pass", "fail", "error", "inconclusive")


@dataclass
class ScanRecord:
    """One interface's scan in a vulnscan step's ``detail["scans"]``."""

    target: str
    session: str
    fingerprint: dict[str, list[str]]
    findings: list[ScanFinding]
    followups: list[str]


def _step_detail(value, where: str, error: type[ValueError]) -> dict:
    """A step's tool-specific detail as read from a result file: any object,
    with the ``scans`` of a vulnscan step, which the report reads, checked
    as ``ScanRecord``s."""
    detail = decode(dict, value, where, error)
    decode(list[ScanRecord], detail.get("scans", []), f"{where}.scans", error)
    return detail


@dataclass
class StepRecord:
    """One executed step: the command it rendered, the frames sent and received,
    whether an expect step was met, a note and tool-specific detail."""

    step: BoundStep
    command: str | None = None
    tx: list[str] = field(default_factory=list)
    rx: list[str] = field(default_factory=list)
    met: bool | None = None
    note: str = ""
    detail: Annotated[dict, _step_detail] = field(default_factory=dict)


@dataclass
class ResultMetadata:
    """What a result was produced against and with: the SUT id, the tool
    versions and the PRNG."""

    sut_id: str
    tools: dict[str, str]
    prng: str


@dataclass
class TestResult:
    """A case's outcome: its verdict, its step log, the oracle's evaluation,
    the run's metadata and, for verdict error, the fault."""

    case_ref: str
    verdict: str
    step_log: list[StepRecord]
    oracle_evaluation: dict
    metadata: ResultMetadata
    error: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
