"""Scenario language: parsing, canonical serialization, validation."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecuforge.scenario_dsl import (
    DslError,
    EnvInterface,
    EnvSpec,
    ExpectStep,
    OracleSpec,
    PatternStep,
    Scenario,
    Value,
    parse_scenario,
    serialize,
    validate,
)

CORPUS = Path(__file__).parent / "corpus"
VALID = sorted((CORPUS / "valid").glob("*.scn"))
INVALID = sorted((CORPUS / "invalid").glob("*.scn"))

MINIMAL = """
scenario "s" {
  meta { method: "functional" }
  env { interface bus canlike }
  steps { pattern TESTER_PRESENT() }
  oracle { pass: sut.alive fail: sut.crashed }
}
"""


def test_corpus_sizes():
    assert len(VALID) >= 20
    assert len(INVALID) >= 10


class TestParsing:
    def test_two_placeholder_args(self):
        text = MINIMAL.replace(
            "pattern TESTER_PRESENT()", "pattern SEND_CAN_MSG(id=$REQ_ID, data=$PAYLOAD)"
        )
        scn = parse_scenario(text)
        step = scn.steps[0]
        assert isinstance(step, PatternStep)
        assert step.name == "SEND_CAN_MSG"
        assert step.args == (
            ("data", Value.placeholder("PAYLOAD")),
            ("id", Value.placeholder("REQ_ID")),
        )

    def test_value_kinds(self):
        text = MINIMAL.replace(
            "pattern TESTER_PRESENT()",
            'pattern SEND_CAN_MSG(a="x", b=12, c=0xAB12, d=$P)',
        )
        args = dict(parse_scenario(text).steps[0].args)
        assert args["a"] == Value.string("x")
        assert args["b"] == Value.number(12)
        assert args["c"] == Value.hexbytes(bytes.fromhex("ab12"))
        assert args["d"] == Value.placeholder("P")

    def test_meta_accessors(self):
        scn = parse_scenario(
            MINIMAL.replace(
                'method: "functional"',
                'method: "penetration" requirement_ref: "R1" requirement_ref: "R2" '
                'risk_ref: "RISKS-1" threat_ref: "T1" domain_DID: "DID"',
            )
        )
        assert scn.method() == "penetration"
        assert scn.requirement_refs() == ["R1", "R2"]
        assert scn.risk_ref() == "RISKS-1"
        assert scn.threat_refs() == ["T1"]
        assert scn.domain_declarations() == {"DID": "DID"}

    def test_expect_within(self):
        text = MINIMAL.replace(
            "pattern TESTER_PRESENT()",
            "pattern TESTER_PRESENT() expect RESPONSE(service=0x3e) within 250ms",
        )
        expect = parse_scenario(text).steps[1]
        assert isinstance(expect, ExpectStep)
        assert expect.within_ms == 250

    def test_expect_without_within(self):
        text = MINIMAL.replace(
            "pattern TESTER_PRESENT()", "pattern TESTER_PRESENT() expect NO_RESPONSE()"
        )
        assert parse_scenario(text).steps[1].within_ms is None

    def test_comments_ignored(self):
        text = "# header\n" + MINIMAL.replace(
            "steps { pattern TESTER_PRESENT() }",
            "steps {\n    pattern TESTER_PRESENT() # trailing\n  }",
        )
        assert parse_scenario(text).steps[0].name == "TESTER_PRESENT"

    def test_error_positions_reported(self):
        bad = MINIMAL.replace("pattern TESTER_PRESENT()", "pattern broken()")
        with pytest.raises(DslError) as exc_info:
            parse_scenario(bad)
        assert exc_info.value.line > 0
        assert exc_info.value.col > 0
        assert "line" in str(exc_info.value)


class TestCorpus:
    @pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
    def test_valid_roundtrip_fixpoint(self, path):
        scn = parse_scenario(path.read_text())
        canonical = serialize(scn)
        again = parse_scenario(canonical)
        assert again == scn
        assert serialize(again) == canonical

    @pytest.mark.parametrize("path", INVALID, ids=lambda p: p.stem)
    def test_invalid_positioned_error(self, path):
        with pytest.raises(DslError) as exc_info:
            parse_scenario(path.read_text())
        assert exc_info.value.line >= 1
        assert exc_info.value.col >= 1

    def test_canonical_injective_on_corpus(self):
        rendered = [serialize(parse_scenario(p.read_text())) for p in VALID]
        assert len(set(rendered)) == len(rendered)


class TestCanonicalForm:
    def test_known_canonical_text(self):
        scn = parse_scenario(
            'scenario "c" { meta { requirement_ref: "R" method: "functional" } '
            'env { interface bus canlike port="1" host="h" precondition sut_alive } '
            "steps { pattern SEND_CAN_MSG(id=\"7df\", data=0x02010D) } "
            "oracle { pass: all_expectations_met fail: sut.crashed } }"
        )
        assert serialize(scn) == (
            'scenario "c" {\n'
            "  meta {\n"
            '    method: "functional"\n'
            '    requirement_ref: "R"\n'
            "  }\n"
            "  env {\n"
            '    interface bus canlike host="h" port="1"\n'
            "    precondition sut_alive\n"
            "  }\n"
            "  steps {\n"
            '    pattern SEND_CAN_MSG(data=0x02010d, id="7df")\n'
            "  }\n"
            "  oracle {\n"
            "    pass: all_expectations_met\n"
            "    fail: sut.crashed\n"
            "  }\n"
            "}\n"
        )

    def test_arg_order_is_normalized(self):
        a = parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()",
                                           "pattern WRITE_DATA(did=0xf190, value=0xbeef)"))
        b = parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()",
                                           "pattern WRITE_DATA(value=0xbeef, did=0xf190)"))
        assert a == b
        assert serialize(a) == serialize(b)

    def test_hexbytes_lowercased(self):
        scn = parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()",
                                             "pattern SEND_CAN_MSG(data=0x02010D)"))
        assert "0x02010d" in serialize(scn)


class TestSemanticRules:
    def test_zero_within_rejected(self):
        text = MINIMAL.replace("pattern TESTER_PRESENT()",
                               "pattern TESTER_PRESENT() expect RESPONSE() within 0ms")
        with pytest.raises(DslError, match="positive"):
            parse_scenario(text)

    def test_duplicate_logical_name(self):
        text = MINIMAL.replace("interface bus canlike",
                               "interface bus canlike interface bus diag")
        with pytest.raises(DslError, match="duplicate interface"):
            parse_scenario(text)

    def test_empty_steps_rejected(self):
        with pytest.raises(DslError, match="non-empty"):
            parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()", ""))

    def test_missing_method(self):
        with pytest.raises(DslError, match="method"):
            parse_scenario(MINIMAL.replace('method: "functional"', 'other: "x"'))

    def test_duplicate_method(self):
        with pytest.raises(DslError, match="method"):
            parse_scenario(
                MINIMAL.replace('method: "functional"', 'method: "functional" method: "fuzz"')
            )

    def test_empty_id(self):
        with pytest.raises(DslError, match="non-empty"):
            parse_scenario(MINIMAL.replace('scenario "s"', 'scenario ""'))

    def test_lowercase_pattern_name(self):
        with pytest.raises(DslError, match="uppercase"):
            parse_scenario(MINIMAL.replace("TESTER_PRESENT", "tester_present"))

    def test_duplicate_argument(self):
        with pytest.raises(DslError, match="duplicate argument"):
            parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()",
                                           "pattern SEND_CAN_MSG(id=1, id=2)"))


class TestValidate:
    def test_clean_scenario(self):
        scn = parse_scenario(MINIMAL)
        assert validate(scn) == []

    def test_unknown_pattern(self):
        scn = parse_scenario(MINIMAL.replace("TESTER_PRESENT", "FROB_BUS"))
        issues = validate(scn)
        assert [i.code for i in issues] == ["unknown-pattern"]
        assert "FROB_BUS" in issues[0].detail

    def test_unknown_condition(self):
        scn = parse_scenario(MINIMAL.replace("fail: sut.crashed", "fail: moon.phase"))
        assert [i.code for i in validate(scn)] == ["unknown-condition"]

    def test_unknown_matcher(self):
        scn = parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()",
                                             "pattern TESTER_PRESENT() expect WEIRD()"))
        assert [i.code for i in validate(scn)] == ["unknown-matcher"]

    @pytest.mark.parametrize(
        "expect",
        ['RESPONSE()', 'NEG_RESPONSE(service="zz")', 'RESPONSE(service=0x0100)',
         'NEG_RESPONSE(service="7f")', 'RESPONSE(service=16)', 'RESPONSE(service=0x)'],
    )
    def test_bad_matcher_argument(self, expect):
        scn = parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()",
                                             f"pattern TESTER_PRESENT() expect {expect}"))
        issues = validate(scn)
        assert [i.code for i in issues] == ["bad-matcher-argument"]
        assert "service=<hex byte>" in issues[0].detail

    @pytest.mark.parametrize(
        "expect", ["RESPONSE(service=0x3e)", "NEG_RESPONSE(service=0x7f)",
                   "RESPONSE(service=$S)", "NO_RESPONSE()"]
    )
    def test_good_matcher_argument(self, expect):
        text = MINIMAL.replace('method: "functional"', 'method: "functional" domain_S: "SID"')
        scn = parse_scenario(text.replace("pattern TESTER_PRESENT()",
                                          f"pattern TESTER_PRESENT() expect {expect}"))
        assert validate(scn) == []

    def test_undeclared_placeholder(self):
        scn = parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()",
                                             "pattern SEND_CAN_MSG(id=$X)"))
        issues = validate(scn)
        assert [i.code for i in issues] == ["unresolved-placeholder"]
        assert "$X" in issues[0].detail

    def test_declared_placeholder_ok(self):
        text = MINIMAL.replace('method: "functional"', 'method: "functional" domain_X: "REQ_ID"')
        scn = parse_scenario(text.replace("pattern TESTER_PRESENT()",
                                          "pattern SEND_CAN_MSG(id=$X)"))
        assert validate(scn) == []

    def test_unknown_precondition(self):
        scn = parse_scenario(MINIMAL.replace("interface bus canlike",
                                             "interface bus canlike precondition warp_field"))
        assert [i.code for i in validate(scn)] == ["unknown-precondition"]


# -- property: parse(serialize(ast)) == ast on generated scenarios -------

lower_name = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
upper_name = st.from_regex(r"[A-Z][A-Z0-9_]{0,8}", fullmatch=True)
safe_text = st.text(
    alphabet=st.sampled_from('abcdefghijklmnopqrstuvwxyz0123456789 _-."\\#:$(){}'), max_size=12
)

value = st.one_of(
    safe_text.map(Value.string),
    st.integers(min_value=0, max_value=10**9).map(Value.number),
    st.binary(max_size=6).map(Value.hexbytes),
    upper_name.map(Value.placeholder),
)


def unique_args(draw, max_args=4):
    names = draw(st.lists(lower_name, max_size=max_args, unique=True))
    return tuple(sorted((n, draw(value)) for n in names))


@st.composite
def scenarios(draw):
    meta_keys = draw(st.lists(lower_name.filter(lambda n: n != "method"), max_size=3, unique=True))
    meta = sorted(
        [("method", Value.string(draw(st.sampled_from(
            ["functional", "interface", "penetration", "vulnscan", "fuzz"]))))]
        + [(k, draw(value)) for k in meta_keys]
    )
    logicals = draw(st.lists(lower_name, min_size=1, max_size=3, unique=True))
    interfaces = tuple(
        EnvInterface(l, draw(st.sampled_from(["canlike", "diag", "debug"])), unique_args(draw, 3))
        for l in sorted(logicals)
    )
    preconditions = tuple(draw(st.lists(lower_name, max_size=2)))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if draw(st.booleans()):
            steps.append(PatternStep(draw(upper_name), unique_args(draw)))
        else:
            within = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=60000)))
            steps.append(ExpectStep(draw(upper_name), unique_args(draw), within))
    cond = st.lists(lower_name, min_size=1, max_size=3).map(".".join)
    oracle = OracleSpec(draw(cond), draw(cond))
    ident = draw(st.from_regex(r"[a-z][a-z0-9\-]{0,10}", fullmatch=True))
    return Scenario(ident, tuple(meta), EnvSpec(interfaces, preconditions), tuple(steps), oracle)


@given(scenarios())
@settings(max_examples=120)
def test_parse_serialize_identity(scn):
    assert parse_scenario(serialize(scn)) == scn


@given(scenarios())
@settings(max_examples=60)
def test_canonical_fixpoint(scn):
    canonical = serialize(scn)
    assert serialize(parse_scenario(canonical)) == canonical
