"""Scenario language: parsing, canonical serialization, validation."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
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
    ValueKind,
    _tokenize,
    literal,
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
        """Nothing checks a reply deadline, so the grammar has none: the
        ``within`` after an expect step is read as the next step, and fails."""
        text = MINIMAL.replace(
            "pattern TESTER_PRESENT()",
            "pattern TESTER_PRESENT() expect RESPONSE(service=0x3e) within 250ms",
        )
        with pytest.raises(DslError) as exc_info:
            parse_scenario(text)
        assert exc_info.value.message == "expected 'pattern' or 'expect', got 'within'"
        column = text.splitlines()[4].index("within") + 1
        assert (exc_info.value.line, exc_info.value.col) == (5, column)

    def test_expect_without_within(self):
        text = MINIMAL.replace(
            "pattern TESTER_PRESENT()", "pattern TESTER_PRESENT() expect NO_RESPONSE()"
        )
        assert parse_scenario(text).steps[1] == ExpectStep("NO_RESPONSE", ())

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

    def test_id_is_written_as_a_string_literal(self):
        scn = parse_scenario(MINIMAL.replace('scenario "s"', r'scenario "a\"b\\c"'))
        assert scn.id == 'a"b\\c'
        canonical = serialize(scn)
        assert canonical.startswith('scenario "a\\"b\\\\c" {\n')
        assert parse_scenario(canonical) == scn

    def test_hexbytes_lowercased(self):
        scn = parse_scenario(MINIMAL.replace("pattern TESTER_PRESENT()",
                                             "pattern SEND_CAN_MSG(data=0x02010D)"))
        assert "0x02010d" in serialize(scn)


class TestSemanticRules:
    def test_zero_within_rejected(self):
        text = MINIMAL.replace("pattern TESTER_PRESENT()",
                               "pattern TESTER_PRESENT() expect RESPONSE() within 0ms")
        with pytest.raises(DslError, match="expected 'pattern' or 'expect', got 'within'"):
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

    @pytest.mark.parametrize("ident", ["vulnscan-ecu/01", "/", ".", ".."])
    def test_id_that_is_not_a_plain_file_name(self, ident):
        with pytest.raises(DslError, match="is not a plain file name") as exc_info:
            parse_scenario(MINIMAL.replace('scenario "s"', f'scenario "{ident}"'))
        assert repr(ident) in exc_info.value.message
        assert (exc_info.value.line, exc_info.value.col) == (2, 10)

    @pytest.mark.parametrize("ident", ["a.b", "...", ".hidden", "ecu-01"])
    def test_dotted_ids_that_are_file_names(self, ident):
        assert parse_scenario(MINIMAL.replace('scenario "s"', f'scenario "{ident}"')).id == ident

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
SAFE_ALPHABET = 'abcdefghijklmnopqrstuvwxyz0123456789 _-."\\#:$(){}'
safe_text = st.text(alphabet=st.sampled_from(SAFE_ALPHABET), max_size=12)
scenario_id = st.text(alphabet=st.sampled_from(SAFE_ALPHABET), min_size=1, max_size=12).filter(
    lambda s: "/" not in s and s not in (".", "..")
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
            steps.append(ExpectStep(draw(upper_name), unique_args(draw)))
    cond = st.lists(lower_name, min_size=1, max_size=3).map(".".join)
    oracle = OracleSpec(draw(cond), draw(cond))
    ident = draw(scenario_id)
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


# -- the token pattern against the character-loop tokenizer it replaced ----
#
# ``reference_tokenize`` and ``reference_literal`` are the tokenizer and the
# literal rule as they were before ``_TOKEN_RE``: one character per loop turn,
# line and column counted by hand. The scanner must give the same tokens or
# the same error everywhere, except for the end-of-input column, which the
# loop never advanced over a comment.


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    col: int
    value: object = None


REF_PUNCT = {"{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
             ",": "COMMA", ":": "COLON", "=": "EQUALS", ".": "DOT"}
REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def reference_tokenize(text: str) -> list[RefToken]:
    tokens: list[RefToken] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in REF_PUNCT:
            tokens.append(RefToken(REF_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            out: list[str] = []
            while j < n:
                c = text[j]
                if c == "\\":
                    if j + 1 >= n or text[j + 1] not in ('"', "\\"):
                        raise DslError("bad escape in string", line, col + (j - i))
                    out.append(text[j + 1])
                    j += 2
                    continue
                if c == '"':
                    break
                if c == "\n":
                    raise DslError("unterminated string", line, col)
                out.append(c)
                j += 1
            else:
                raise DslError("unterminated string", line, col)
            if j >= n:
                raise DslError("unterminated string", line, col)
            tokens.append(RefToken("STRING", text[i : j + 1], line, col, "".join(out)))
            col += j + 1 - i
            i = j + 1
            continue
        if ch == "$":
            m = REF_IDENT_RE.match(text, i + 1)
            if not m:
                raise DslError("'$' must be followed by a placeholder name", line, col)
            tokens.append(RefToken("PLACEHOLDER", text[i : m.end()], line, col, m.group()))
            col += m.end() - i
            i = m.end()
            continue
        if text.startswith("0x", i) or text.startswith("0X", i):
            j = i + 2
            while j < n and text[j] in "0123456789abcdefABCDEF":
                j += 1
            digits = text[i + 2 : j]
            if len(digits) % 2 != 0:
                raise DslError(f"hex bytes need an even digit count, got {len(digits)}", line, col)
            tokens.append(RefToken("HEXBYTES", text[i:j], line, col, bytes.fromhex(digits)))
            col += j - i
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(RefToken("NUMBER", text[i:j], line, col, int(text[i:j])))
            col += j - i
            i = j
            continue
        m = REF_IDENT_RE.match(text, i)
        if m:
            tokens.append(RefToken("IDENT", m.group(), line, col, m.group()))
            col += m.end() - i
            i = m.end()
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(RefToken("EOF", "", line, col))
    return tokens


def reference_literal(text: str) -> Value:
    try:
        tokens = reference_tokenize(text)
    except DslError:
        return Value.string(text)
    tok = tokens[0]
    if len(tokens) == 2 and tok.text == text and tok.kind in ("HEXBYTES", "NUMBER"):
        return Value(ValueKind[tok.kind], tok.value)
    return Value.string(text)


def scan(tokenize, text: str):
    """The tokens as plain tuples, or the error's message and position."""
    try:
        return [(t.kind, t.text, t.line, t.col, t.value) for t in tokenize(text)]
    except DslError as exc:
        return ("error", exc.message, exc.line, exc.col)


def assert_scans_like_reference(text: str) -> None:
    new, old = scan(_tokenize, text), scan(reference_tokenize, text)
    if isinstance(new, list) and isinstance(old, list):
        # The end of input sits one column past the last line's last character.
        assert new[-1][3] == len(text) - text.rfind("\n")
        new[-1], old[-1] = new[-1][:3], old[-1][:3]
    assert new == old, text


DSL_ALPHABET = 'abfxzAFXZ_019 \t\r\n#"\\$0x{}(),:=.-é'
DSL_FRAGMENTS = ["0x", "0X", "0x0", "12", "ab", "$", "$P", '"', '\\"', "\\\\", "\\", "#",
                 "# c\n", "\n", " ", "\t", "\r", "{", "}", "(", ")", ",", ":", "=", ".",
                 "-", "é", "scenario", '"s"', "=0x02010d"]
dsl_text = st.one_of(
    st.text(alphabet=st.sampled_from(DSL_ALPHABET), max_size=40),
    st.lists(st.sampled_from(DSL_FRAGMENTS), max_size=20).map("".join),
)
CORPUS_FILES = VALID + INVALID


class TestScannerMatchesReference:
    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: f"{p.parent.name}-{p.stem}")
    def test_corpus_file(self, path):
        assert_scans_like_reference(path.read_text())

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: f"{p.parent.name}-{p.stem}")
    def test_single_character_insertions(self, path):
        text = path.read_text()
        rng = random.Random(path.name)
        for _ in range(50):
            at = rng.randrange(len(text) + 1)
            assert_scans_like_reference(text[:at] + rng.choice(DSL_ALPHABET) + text[at:])

    @given(dsl_text)
    @settings(max_examples=500)
    def test_generated_text(self, text):
        assert_scans_like_reference(text)

    @given(st.one_of(dsl_text, st.sampled_from(
        ["", "0x", "0X", "0x1", "0xAB", "0xab\n", "12", "012", " 12", "12 ", "0x12#",
         "1_000", "+1", "-1", "$X", '"a"', "1e3", "0x0x"])))
    @settings(max_examples=300)
    def test_literal(self, text):
        assert literal(text) == reference_literal(text)

    def test_end_of_input_column_counts_a_trailing_comment(self):
        with pytest.raises(DslError) as exc_info:
            parse_scenario('scenario "x" { # unfinished')
        assert (exc_info.value.line, exc_info.value.col) == (1, 28)
        assert exc_info.value.message == "expected 'meta', got 'end of input'"
