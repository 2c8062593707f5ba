"""Covering-array construction and test case generation."""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vecuforge.frames import Frame
from vecuforge.item_model import decode
from vecuforge.scenario_dsl import Value, parse_scenario
from vecuforge.script_registry import ScriptRegistry
from vecuforge.tcg import (
    BoundStep,
    CaseInterface,
    SutDatabase,
    TcgError,
    Traceability,
    covering_array,
    generate_cases,
    load_sutdb,
)
from vecuforge.tcg import TestCase as Case
from vecuforge.vocabulary import PATTERNS


def assert_full_coverage(domains: dict[str, list], t: int, rows: list[tuple]) -> None:
    """Brute-force checker: every t-way value combination occurs in a row.

    Deliberately independent of the construction: enumerate all parameter
    subsets and value products directly.
    """
    params = sorted(domains)
    positions = {p: i for i, p in enumerate(params)}
    for subset in itertools.combinations(params, t):
        seen = {tuple(row[positions[p]] for p in subset) for row in rows}
        for combo in itertools.product(*(domains[p] for p in subset)):
            assert combo in seen, f"t-tuple {dict(zip(subset, combo))} not covered"


def reference_rows(domains: dict[str, list], t: int) -> list[tuple]:
    """IPOG as sets of uncovered ``(combo, value-tuple)`` tuples: the same
    growth and tie-breaks as ``covering_array``, kept here as the reference
    its coverage flags must reproduce row for row."""
    params = sorted(domains)
    sizes = [len(domains[p]) for p in params]
    rows = [list(start) for start in itertools.product(*(range(n) for n in sizes[:t]))]
    for i in range(t, len(params)):
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
            best = max(range(sizes[i]), key=lambda v: (len(hits[v] & uncovered), -used[v], -v))
            row.append(best)
            used[best] += 1
            uncovered -= hits[best]
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
    return [
        tuple(domains[p][0 if ix is None else ix] for p, ix in zip(params, row)) for row in rows
    ]


def product_size(domains: dict[str, list]) -> int:
    size = 1
    for vals in domains.values():
        size *= len(vals)
    return size


class TestCoveringArray:
    def test_single_parameter_each_value_once(self):
        arr = covering_array({"P": ["a", "b"]}, t=1)
        assert arr.rows == [("a",), ("b",)]

    def test_strength_equals_width_gives_full_product(self):
        domains = {"A": ["0", "1"], "B": ["x", "y"], "C": ["p", "q"]}
        arr = covering_array(domains, t=3)
        expected = [
            (a, b, c) for a in domains["A"] for b in domains["B"] for c in domains["C"]
        ]
        assert arr.rows == expected

    def test_pairwise_three_binary_parameters(self):
        domains = {"A": ["0", "1"], "B": ["x", "y"], "C": ["p", "q"]}
        arr = covering_array(domains, t=2)
        assert_full_coverage(domains, 2, arr.rows)
        assert len(arr.rows) <= 8
        pairs = {
            (pi, pj, row[i], row[j])
            for row in arr.rows
            for (i, pi), (j, pj) in itertools.combinations(enumerate(arr.parameters), 2)
        }
        assert len(pairs) == 12

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("levels", [2, 3, 4])
    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_uniform_configurations(self, width, levels, t):
        if t > width:
            pytest.skip("strength exceeds parameter count")
        domains = {f"P{i}": [f"v{j}" for j in range(levels)] for i in range(width)}
        arr = covering_array(domains, t)
        assert_full_coverage(domains, t, arr.rows)
        assert len(arr.rows) <= product_size(domains)

    @pytest.mark.parametrize(
        "sizes", [(1, 3), (2, 4, 3), (1, 1, 2), (4, 2, 3, 2), (2, 2, 2, 2, 3)]
    )
    def test_mixed_level_configurations(self, sizes):
        domains = {f"P{i}": [f"v{j}" for j in range(n)] for i, n in enumerate(sizes)}
        for t in (2, 3):
            if t > len(sizes):
                continue
            arr = covering_array(domains, t)
            assert_full_coverage(domains, t, arr.rows)
            assert len(arr.rows) <= product_size(domains)

    def test_row_count_monotone_in_strength(self):
        domains = {"A": ["0", "1"], "B": ["x", "y", "z"], "C": ["p", "q"]}
        counts = [len(covering_array(domains, t).rows) for t in (1, 2, 3)]
        assert counts[0] <= counts[1] <= counts[2] <= product_size(domains)

    def test_deterministic(self):
        domains = {"A": ["0", "1", "2"], "B": ["x", "y"], "C": ["p", "q", "r", "s"]}
        assert covering_array(domains, 2).rows == covering_array(domains, 2).rows

    def test_strength_out_of_range(self):
        with pytest.raises(TcgError, match="out of range"):
            covering_array({"A": ["0"], "B": ["1"]}, t=3)
        with pytest.raises(TcgError, match="out of range"):
            covering_array({"A": ["0"]}, t=0)

    def test_empty_domain_rejected(self):
        with pytest.raises(TcgError, match="'B' is empty"):
            covering_array({"A": ["0"], "B": []}, t=1)

    def test_no_parameters_rejected(self):
        with pytest.raises(TcgError, match="at least one parameter"):
            covering_array({}, t=1)

    @settings(max_examples=60, deadline=None)
    @given(
        domains=st.dictionaries(
            st.sampled_from(["A", "B", "C", "D", "E", "F"]),
            st.lists(st.sampled_from(["0", "1", "2", "3", "4"]), min_size=1, max_size=5, unique=True),
            min_size=1,
            max_size=6,
        ),
        t=st.integers(min_value=1, max_value=4),
    )
    def test_coverage_property(self, domains, t):
        if t > len(domains):
            t = len(domains)
        arr = covering_array(domains, t)
        assert_full_coverage(domains, t, arr.rows)
        assert len(arr.rows) <= product_size(domains)


class TestInParameterOrderGrowth:
    def test_bundled_negative_scenario_rows(self, sutdb, registry):
        # The planner's negative session-bypass scenario binds DID x SESSION x
        # VALUE over 1 x 3 x 1 values. Acceptance 1 expects its case -001
        # (SESSION 0x02) to be the session-bypass hit, so the order is pinned.
        scenario = parse_scenario(
            scenario_text(
                sid="neg",
                meta_extra=(
                    '    domain_DID: "DID"\n    domain_SESSION: "SESSION"\n'
                    '    domain_VALUE: "VALUE"\n'
                ),
                steps=(
                    "    pattern SET_SESSION(session=$SESSION)\n"
                    "    pattern WRITE_DATA(did=$DID, value=$VALUE)"
                ),
            )
        )
        cases = generate_cases(scenario, sutdb, registry, t=2)
        assert [
            (c.id, c.variability["DID"], c.variability["SESSION"], c.variability["VALUE"])
            for c in cases
        ] == [
            ("neg-000", "0xf190", "0x01", "0xbeef"),
            ("neg-001", "0xf190", "0x02", "0xbeef"),
            ("neg-002", "0xf190", "0x03", "0xbeef"),
        ]

    @pytest.mark.parametrize("k, levels, t", [(12, 4, 2), (8, 3, 3)])
    def test_covers_sizes_beyond_the_full_product_search(self, k, levels, t):
        domains = {f"P{i:02d}": [f"v{j}" for j in range(levels)] for i in range(k)}
        arr = covering_array(domains, t)
        assert_full_coverage(domains, t, arr.rows)

    @pytest.mark.parametrize(
        "k, levels, t, most", [(6, 4, 2, 30), (7, 3, 2, 16), (5, 3, 3, 47)]
    )
    def test_row_counts_on_the_benchmark_grid(self, k, levels, t, most):
        domains = {f"P{i}": [f"v{j}" for j in range(levels)] for i in range(k)}
        arr = covering_array(domains, t)
        assert_full_coverage(domains, t, arr.rows)
        assert len(arr.rows) <= most

    def test_repeated_domain_value_rejected(self):
        with pytest.raises(TcgError, match="'D' repeats value '0x01'"):
            covering_array({"D": ["0x01", "0x01", "0x02"], "E": ["a", "b"]}, 2)


def grid_domains(sizes: list[int]) -> dict[str, list[str]]:
    return {f"P{i:02d}": [f"v{j}" for j in range(n)] for i, n in enumerate(sizes)}


class TestEqualsTheReference:
    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=7),
        strength=st.integers(min_value=1, max_value=4),
    )
    @example(sizes=[1, 1, 1], strength=2)
    @example(sizes=[1, 3, 1, 2, 1], strength=3)
    @example(sizes=[2, 3, 4], strength=3)
    @example(sizes=[5, 1, 4, 2], strength=4)
    def test_rows_equal_the_reference(self, sizes, strength):
        domains = grid_domains(sizes)
        t = min(strength, len(sizes))
        assert covering_array(domains, t).rows == reference_rows(domains, t)

    @pytest.mark.parametrize(
        "k, levels, t", [(6, 4, 2), (7, 3, 2), (5, 3, 3), (12, 4, 2), (8, 3, 3)]
    )
    def test_rows_equal_the_reference_on_larger_grids(self, k, levels, t):
        domains = grid_domains([levels] * k)
        assert covering_array(domains, t).rows == reference_rows(domains, t)


class TestSutDatabase:
    def test_load_bundled(self, samples_dir):
        db = load_sutdb(samples_dir / "sutdb.json")
        assert db.sut_id == "SIM-ECU-01"
        assert db.domain_values("DID") == [("0xf190", Value.hexbytes(b"\xf1\x90"), True)]
        assert db.domain_values("REQ_ID") == [
            ("7df", Value.string("7df"), True), ("7e0", Value.string("7e0"), True),
        ]
        assert "func_id" in db.slot_values()
        assert db.corpora["fuzz_corpus"][0] == Frame(0x7DF, bytes.fromhex("02010d"))
        assert db.dictionaries["fuzz_corpus"][0] == "7df#02010d"

    def test_range_expands_to_boundaries(self):
        db = SutDatabase(sut_id="X", domains={"N": {"range": [0, 10]}})
        assert db.domain_values("N") == [(str(n), Value.number(n), False)
                                         for n in (0, 1, 9, 10)]

    def test_degenerate_ranges(self):
        db = SutDatabase(sut_id="X", domains={"A": {"range": [5, 5]}, "B": {"range": [5, 6]}})
        assert db.domain_values("A") == [("5", Value.number(5), False)]
        assert db.domain_values("B") == [("5", Value.number(5), False),
                                         ("6", Value.number(6), False)]

    @pytest.mark.parametrize(
        "text, value",
        [("0x01", Value.hexbytes(b"\x01")), ("0X0A0b", Value.hexbytes(b"\x0a\x0b")),
         ("0x", Value.hexbytes(b"")), ("12", Value.number(12)), ("7df", Value.string("7df")),
         ("0x1", Value.string("0x1")), (" 12", Value.string(" 12")), ("1 2", Value.string("1 2")),
         ("12 # note", Value.string("12 # note")), ("\u00b2", Value.string("\u00b2"))],
    )
    def test_domain_values_follow_the_dsl_literal_rule(self, text, value):
        assert SutDatabase(sut_id="X", domains={"A": [text]}).domain_values("A") == [
            (text, value, True)
        ]

    def test_unknown_domain_named(self):
        db = SutDatabase(sut_id="X")
        with pytest.raises(TcgError, match="'GHOST'"):
            db.domain_values("GHOST")

    def test_inverted_range_rejected(self):
        with pytest.raises(TcgError, match="inverted"):
            SutDatabase(sut_id="X", domains={"N": {"range": [10, 0]}})

    def test_empty_domain_named(self):
        with pytest.raises(TcgError, match="'A' is empty"):
            SutDatabase(sut_id="X", domains={"A": []})

    @pytest.mark.parametrize(
        "raw",
        [{"range": ["0x1", 3]}, {"range": [1]}, {"range": [1, 2, 3]}, {"range": [True, 3]},
         {"range": [1.0, 3]}, {"range": "1-3"}, {"range": [1, 3], "step": 2}, {"lo": 1},
         5, "0x01", None],
        ids=["hex-text-bound", "one-bound", "three-bounds", "bool-bound", "float-bound",
             "range-text", "extra-key", "no-range-key", "number", "text", "null"],
    )
    def test_malformed_domain_named(self, raw):
        with pytest.raises(TcgError, match=r"domain 'S' must be a non-empty list or \{\"range\""):
            SutDatabase(sut_id="X", domains={"S": raw})

    @pytest.mark.parametrize(
        "element", [True, None, 1.5, [1, 2], -3],
        ids=["bool", "null", "float", "list", "negative"],
    )
    def test_domain_element_must_be_text_or_a_natural_number(self, element):
        with pytest.raises(TcgError, match=re.escape(
                f"domain 'S' value {element!r} is not a string or a non-negative integer")):
            SutDatabase(sut_id="X", domains={"S": ["0x01", element]})

    @pytest.mark.parametrize("raw, value", [(None, 0x7DF), ("7e0", 0x7E0), ("0", 0)])
    def test_func_id(self, raw, value):
        dictionaries = {} if raw is None else {"func_id": raw}
        assert SutDatabase(sut_id="X", dictionaries=dictionaries).func_id() == value

    @pytest.mark.parametrize("raw", ["zz", "800", "-1", "", "0x7df", " 7df ", "7_df", "+7df"])
    def test_load_rejects_a_bad_func_id(self, tmp_path, samples_dir, raw):
        doc = json.loads((samples_dir / "sutdb.json").read_text())
        doc["dictionaries"]["func_id"] = raw
        path = tmp_path / "sutdb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TcgError, match=re.escape(f"func_id {raw!r} is not an 11-bit")):
            load_sutdb(path)

    @pytest.mark.parametrize(
        "key, raw, reason",
        [("phys_id", "800", "phys_id '800' is not an 11-bit hex frame id"),
         ("phys_id", "07e0", "phys_id '07e0' is not an 11-bit"),
         ("seedkey_const", "1a5", "seedkey_const '1a5' is not a hex byte"),
         ("seedkey_const", "0xa5", "seedkey_const '0xa5' is not a hex byte"),
         ("seedkey_algorithm", "rot13", "seedkey_algorithm 'rot13' is not one of add_xor, weak_xor"),
         ("seedkey_algorithm", "ADD_XOR", "seedkey_algorithm 'ADD_XOR' is not one of"),
         ("seedkey_algorithm", 1, "seedkey_algorithm 1 is not one of"),
         ("fuzz_corpus", ["7df#02010d", "7df#0"], "fuzz_corpus: not a frame line: '7df#0'"),
         ("spare_corpus", [7], "spare_corpus: not a frame line: '7'")],
        ids=["phys-id-over-11-bits", "phys-id-padded", "key-const-over-a-byte",
             "key-const-prefixed", "unknown-algorithm", "algorithm-case", "algorithm-number",
             "corpus-odd-line", "list-of-numbers"],
    )
    def test_load_rejects_a_bad_value(self, tmp_path, samples_dir, key, raw, reason):
        doc = json.loads((samples_dir / "sutdb.json").read_text())
        doc["dictionaries"][key] = raw
        path = tmp_path / "sutdb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TcgError, match=reason):
            load_sutdb(path)


def scenario_text(
    sid: str = "scn-t",
    meta_extra: str = "",
    steps: str = "    pattern TESTER_PRESENT()",
) -> str:
    return (
        f'scenario "{sid}" {{\n'
        "  meta {\n"
        '    method: "functional"\n'
        '    requirement_ref: "REQ-1"\n'
        f"{meta_extra}"
        "  }\n"
        "  env {\n"
        "    interface bus canlike\n"
        "  }\n"
        "  steps {\n"
        f"{steps}\n"
        "  }\n"
        "  oracle {\n"
        "    pass: all_expectations_met\n"
        "    fail: any_expectation_missed\n"
        "  }\n"
        "}\n"
    )


@pytest.fixture(scope="module")
def registry(samples_dir):
    return ScriptRegistry(samples_dir / "scripts", known_patterns=PATTERNS)


@pytest.fixture(scope="module")
def sutdb(samples_dir):
    return load_sutdb(samples_dir / "sutdb.json")


class TestGenerateCases:
    def test_zero_placeholders_single_case(self, sutdb, registry):
        scenario = parse_scenario(scenario_text())
        cases = generate_cases(scenario, sutdb, registry)
        assert len(cases) == 1
        assert cases[0].id == "scn-t-000"
        assert cases[0].input_data == {"bindings": {}}
        assert cases[0].method == "functional"

    def test_two_placeholders_full_pairwise_product(self, registry):
        db = SutDatabase(sut_id="X", domains={"A": ["7d1", "7d2"], "B": ["0x01", "0x02"]})
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_A: "A"\n    domain_B: "B"\n',
                steps="    pattern SEND_CAN_MSG(data=$B, id=$A)",
            )
        )
        cases = generate_cases(scenario, db, registry, t=2)
        assert [c.id for c in cases] == [f"scn-t-{i:03d}" for i in range(4)]
        rows = {(c.variability["A"], c.variability["B"]) for c in cases}
        assert rows == {("7d1", "0x01"), ("7d1", "0x02"), ("7d2", "0x01"), ("7d2", "0x02")}

    def test_single_placeholder_strength_clamped(self, registry):
        db = SutDatabase(sut_id="X", domains={"A": ["7d1", "7d2", "7d3"]})
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_A: "A"\n',
                steps="    pattern SEND_CAN_MSG(data=0x013e, id=$A)",
            )
        )
        cases = generate_cases(scenario, db, registry, t=2)
        assert [c.variability["A"] for c in cases] == ["7d1", "7d2", "7d3"]

    def test_domain_declaration_maps_placeholder_to_key(self, sutdb, registry):
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_TARGET: "DID"\n',
                steps="    pattern WRITE_DATA(did=$TARGET, value=0xbeef)",
            )
        )
        cases = generate_cases(scenario, sutdb, registry)
        assert cases[0].variability == {"TARGET": "0xf190"}

    def test_hex_bindings_normalized_in_bound_args(self, sutdb, registry):
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_DID: "DID"\n    domain_VALUE: "VALUE"\n',
                steps="    pattern WRITE_DATA(did=$DID, value=$VALUE)",
            )
        )
        cases = generate_cases(scenario, sutdb, registry)
        step = cases[0].activities[0]
        assert step.bound_args == {"did": "f190", "value": "beef"}
        assert step.script_ref == "write-data"

    def test_non_hex_bindings_pass_through(self, registry):
        db = SutDatabase(sut_id="X", domains={"REQ_ID": ["7df", "7e0"]})
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_REQ_ID: "REQ_ID"\n',
                steps="    pattern SEND_CAN_MSG(data=0x013e, id=$REQ_ID)",
            )
        )
        cases = generate_cases(scenario, db, registry)
        assert {c.activities[0].bound_args["id"] for c in cases} == {"7df", "7e0"}

    def test_json_string_of_digits_fills_a_string_slot_as_written(self, registry):
        db = SutDatabase(sut_id="X", domains={"REQ_ID": ["123", "0x7df"]})
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_REQ_ID: "REQ_ID"\n',
                steps="    pattern SEND_CAN_MSG(data=0x013e, id=$REQ_ID)",
            )
        )
        cases = generate_cases(scenario, db, registry)
        assert [c.activities[0].bound_args["id"] for c in cases] == ["123", "0x7df"]
        assert [c.input_data["bindings"] for c in cases] == [{"REQ_ID": "123"},
                                                            {"REQ_ID": "0x7df"}]

    def test_json_integer_cannot_fill_a_string_slot(self, registry):
        db = SutDatabase(sut_id="X", domains={"REQ_ID": [123]})
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_REQ_ID: "REQ_ID"\n',
                steps="    pattern SEND_CAN_MSG(data=0x013e, id=$REQ_ID)",
            )
        )
        with pytest.raises(TcgError, match="slot 'id' wants string, got number 123"):
            generate_cases(scenario, db, registry)

    def test_slot_type_decides_the_text(self, registry):
        db = SutDatabase(sut_id="X", dictionaries={"bus": "can0"},
                         domains={"N": {"range": [16, 17]}, "H": ["0x0A", "0x0b"]})
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_N: "N"\n    domain_H: "H"\n',
                steps=(
                    '    pattern FUZZ_CAMPAIGN(budget=$N, corpus="c", probe_every=50, seed=1)\n'
                    "    pattern SEND_CAN_MSG(data=$H, id=\"7df\", extra=$N)"
                ),
            )
        )
        cases = generate_cases(scenario, db, registry)
        fuzz, send = cases[0].activities
        assert fuzz.bound_args == {
            "budget": "16", "corpus": "c", "probe_every": "50", "seed": "1",
        }
        # ``extra`` has no schema entry: a number keeps its own, decimal, form.
        assert send.bound_args == {"data": "0a", "extra": "16", "id": "7df"}
        assert cases[0].input_data["bindings"] == {"H": "0x0A", "N": "16"}

    @pytest.mark.parametrize(
        "step, domains, reason",
        [("pattern SET_SESSION(session=3)", {},
          "step 1 SET_SESSION, slot 'session' wants hexbytes, got number 3"),
         ('pattern FUZZ_CAMPAIGN(budget=0x10, corpus="c", probe_every=50, seed=1)', {},
          "step 1 FUZZ_CAMPAIGN, slot 'budget' wants number, got hexbytes 0x10"),
         ("pattern SEND_CAN_MSG(data=0x01, id=0x07df)", {},
          "slot 'id' wants string, got hexbytes 0x07df"),
         ("pattern SET_SESSION(session=$S)", {"S": {"range": [1, 3]}},
          "slot 'session' wants hexbytes, got number 1"),
         ("pattern SEND_CAN_MSG(data=$S, id=\"7df\")", {"S": ["0x01", "02"]},
          "slot 'data' wants hexbytes, got number 2"),
         ("pattern TESTER_PRESENT()\n    expect RESPONSE(service=$S)", {"S": ["0x3e", "0x0100"]},
          "step 2 RESPONSE, slot 'service' wants one hex byte, got hexbytes 0x0100"),
         ("pattern TESTER_PRESENT()\n    expect RESPONSE(service=$S)", {"S": ["3e"]},
          "slot 'service' wants one hex byte, got string \"3e\"")],
        ids=["number-into-hexbytes", "hexbytes-into-number", "hexbytes-into-string",
             "range-into-hexbytes", "number-domain-value", "wide-service", "string-service"],
    )
    def test_kind_must_be_the_slot_type(self, registry, step, domains, reason):
        db = SutDatabase(sut_id="X", dictionaries={"bus": "can0", "phys_id": "7e0"},
                         domains=domains)
        meta = "".join(f'    domain_{n}: "{n}"\n' for n in domains)
        scenario = parse_scenario(scenario_text(meta_extra=meta, steps=f"    {step}"))
        with pytest.raises(TcgError, match=re.escape(reason)) as info:
            generate_cases(scenario, db, registry)
        assert str(info.value).startswith("scenario 'scn-t' step ")

    def test_decimal_service_does_not_validate(self, sutdb, registry):
        scenario = parse_scenario(
            scenario_text(steps="    pattern TESTER_PRESENT()\n    expect RESPONSE(service=16)")
        )
        with pytest.raises(TcgError, match="'scn-t' does not validate: .*service=16"):
            generate_cases(scenario, sutdb, registry)

    def test_expect_steps_become_expectations(self, sutdb, registry):
        scenario = parse_scenario(
            scenario_text(
                steps=(
                    "    pattern TESTER_PRESENT()\n"
                    "    expect RESPONSE(service=0x3e)"
                )
            )
        )
        case = generate_cases(scenario, sutdb, registry)[0]
        assert [a.kind for a in case.activities] == ["pattern", "expect"]
        assert case.activities[1] == BoundStep("expect", "RESPONSE", None, {"service": "3e"})
        assert case.expected_results.pass_condition == "all_expectations_met"

    def test_traceability_copied_from_meta(self, sutdb, registry):
        scenario = parse_scenario(
            scenario_text(meta_extra='    threat_ref: "T-1"\n    risk_ref: "R-abc"\n')
        )
        case = generate_cases(scenario, sutdb, registry)[0]
        assert case.traceability == Traceability(
            requirement_refs=["REQ-1"], threat_refs=["T-1"], risk_ref="R-abc"
        )

    def test_empty_traceability_rejected(self, sutdb, registry):
        text = scenario_text().replace('    requirement_ref: "REQ-1"\n', "")
        scenario = parse_scenario(text)
        with pytest.raises(TcgError, match="empty traceability"):
            generate_cases(scenario, sutdb, registry)

    def test_scenario_without_interface_rejected(self, sutdb, registry):
        scenario = parse_scenario(scenario_text().replace("    interface bus canlike\n", ""))
        with pytest.raises(TcgError, match="'scn-t': a case needs at least one interface"):
            generate_cases(scenario, sutdb, registry)

    def test_missing_script_names_pattern(self, sutdb, tmp_path):
        empty = ScriptRegistry(tmp_path, known_patterns=PATTERNS)
        scenario = parse_scenario(scenario_text())
        with pytest.raises(TcgError, match="TESTER_PRESENT"):
            generate_cases(scenario, sutdb, empty)

    def test_missing_domain_names_placeholder(self, registry):
        db = SutDatabase(sut_id="X")
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_GHOST: "GHOST"\n',
                steps="    pattern SEND_CAN_MSG(data=0x013e, id=$GHOST)",
            )
        )
        with pytest.raises(TcgError, match="'GHOST'"):
            generate_cases(scenario, db, registry)

    def test_invalid_scenario_rejected(self, sutdb, registry):
        scenario = parse_scenario(scenario_text(steps="    pattern FROB_BUS()"))
        with pytest.raises(TcgError, match="does not validate"):
            generate_cases(scenario, sutdb, registry)

    def test_checklist_fields_populated(self, sutdb, registry):
        case = generate_cases(parse_scenario(scenario_text()), sutdb, registry)[0]
        assert case.purpose
        assert case.sut_description.startswith("SIM-ECU-01")
        assert case.environmental_needs.interfaces[0] == CaseInterface("bus", "canlike", {})
        assert case.procedural_requirements
        assert case.expected_results.fail_condition == "any_expectation_missed"

    def test_editing_one_case_leaves_the_others_unchanged(self, registry):
        db = SutDatabase(sut_id="X", domains={"A": ["7d1", "7d2"], "B": ["0x01", "0x02"]})
        text = scenario_text(
            meta_extra='    domain_A: "A"\n    domain_B: "B"\n    threat_ref: "T-1"\n',
            steps=(
                "    pattern SEND_CAN_MSG(data=$B, id=$A)\n"
                "    expect RESPONSE(service=0x3e)"
            ),
        ).replace(
            "    interface bus canlike\n",
            "    interface bus canlike bitrate=500\n    interface tester diag\n"
            "    precondition sut_alive\n",
        )
        cases = generate_cases(parse_scenario(text), db, registry, t=2)
        assert len(cases) == 4
        assert len(cases[0].environmental_needs.interfaces) == 2
        others = [asdict(c) for c in cases[1:]]

        edited = cases[0]
        for interface in edited.environmental_needs.interfaces:
            interface.params["bitrate"] = "1"
            interface.kind = "debug"
        edited.environmental_needs.preconditions.append("env_ready")
        edited.traceability.requirement_refs.append("REQ-X")
        edited.traceability.threat_refs.append("T-X")
        for step in edited.activities:
            step.bound_args["extra"] = "x"
        assert [asdict(c) for c in cases[1:]] == others

    def test_serialization_deterministic(self, sutdb, registry):
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_DID: "DID"\n    domain_VALUE: "VALUE"\n',
                steps="    pattern WRITE_DATA(did=$DID, value=$VALUE)",
            )
        )
        one = json.dumps([asdict(c) for c in generate_cases(scenario, sutdb, registry)])
        two = json.dumps([asdict(c) for c in generate_cases(scenario, sutdb, registry)])
        assert one == two

    def test_case_round_trip(self, sutdb, registry):
        scenario = parse_scenario(
            scenario_text(
                meta_extra='    domain_DID: "DID"\n    domain_VALUE: "VALUE"\n',
                steps=(
                    "    pattern WRITE_DATA(did=$DID, value=$VALUE)\n"
                    "    expect RESPONSE(service=0x2e)"
                ),
            )
        )
        for case in generate_cases(scenario, sutdb, registry):
            assert decode(Case, json.loads(json.dumps(asdict(case))), "case", TcgError) == case
