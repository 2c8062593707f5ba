"""A small language for abstract test scenarios.

A scenario names what to test by which means, without binding any
SUT-specific data: patterns are the atomic actions, ``$NAME``
placeholders defer concrete values to case generation, the env block
names required interfaces and preconditions, and the oracle names the
pass and fail conditions.

Example::

    scenario "read-speed" {
      meta {
        method: "functional"
        requirement_ref: "REQ-1"
      }
      env {
        interface bus canlike
        precondition sut_alive
      }
      steps {
        pattern SEND_CAN_MSG(data=0x02010d, id="7df")   # speed read
        expect RESPONSE(service=0x01)
      }
      oracle {
        pass: all_expectations_met
        fail: sut.crashed
      }
    }

Lexical rules, one alternative of ``_TOKEN_RE`` per token kind: blanks,
tabs, carriage returns, newlines and ``#`` comments (to the end of the
line) separate tokens; punctuation is one of ``{ } ( ) , : = .``; a
STRING is double-quoted text on one line, in which a backslash escapes a
double quote or a backslash and nothing else; a PLACEHOLDER is ``$`` and
a name; an IDENT (keywords included) is a name: a letter or ``_``, then
letters, digits and ``_``; HEXBYTES is ``0x`` or ``0X`` and an even
number of hex digits; a NUMBER is decimal digits.

Parsing normalizes argument and meta ordering, so semantically equal
scenarios serialize to byte-identical canonical text (2-space indent,
lowercase hex, sorted keys). A scenario id is also a file name, so it
may not contain ``/`` or be ``.`` or ``..``.
"""

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .vocabulary import CONDITIONS, MATCHERS, PATTERNS, PRECONDITIONS

METHODS = ("functional", "interface", "penetration", "vulnscan", "fuzz")
ENV_KINDS = ("canlike", "diag", "debug")

_UPPER_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")


class DslError(Exception):
    """Syntax or semantic error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ValueKind(str, Enum):
    """A literal's kind; each member is named after the token it is read from."""

    STRING = "string"
    NUMBER = "number"
    HEXBYTES = "hexbytes"
    PLACEHOLDER = "placeholder"


@dataclass(frozen=True)
class Value:
    """A DSL value: its kind and its raw content."""

    kind: ValueKind
    raw: object

    @staticmethod
    def string(s: str) -> "Value":
        return Value(ValueKind.STRING, s)

    @staticmethod
    def number(n: int) -> "Value":
        return Value(ValueKind.NUMBER, n)

    @staticmethod
    def hexbytes(b: bytes) -> "Value":
        return Value(ValueKind.HEXBYTES, b)

    @staticmethod
    def placeholder(name: str) -> "Value":
        return Value(ValueKind.PLACEHOLDER, name)

    def render(self) -> str:
        if self.kind is ValueKind.STRING:
            escaped = str(self.raw).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if self.kind is ValueKind.NUMBER:
            return str(self.raw)
        if self.kind is ValueKind.HEXBYTES:
            return "0x" + bytes(self.raw).hex()
        return f"${self.raw}"

    def as_text(self) -> str:
        """Plain text content for binding into command templates."""
        if self.kind is ValueKind.HEXBYTES:
            return bytes(self.raw).hex()
        return str(self.raw)


Args = tuple[tuple[str, Value], ...]


@dataclass(frozen=True)
class PatternStep:
    """A stimulus step: one pattern with its arguments."""

    name: str
    args: Args


@dataclass(frozen=True)
class ExpectStep:
    """A matcher over the replies the preceding stimulus drew."""

    matcher: str
    args: Args


Step = PatternStep | ExpectStep


@dataclass(frozen=True)
class EnvInterface:
    """An interface a scenario needs: its logical name, kind and parameters."""

    logical: str
    kind: str
    params: Args


@dataclass(frozen=True)
class EnvSpec:
    """A scenario's environment: the interfaces it needs and its preconditions."""

    interfaces: tuple[EnvInterface, ...] = ()
    preconditions: tuple[str, ...] = ()


@dataclass(frozen=True)
class OracleSpec:
    """A scenario's oracle: the condition for pass and the one for fail."""

    pass_condition: str
    fail_condition: str


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: id, meta entries, environment, steps in order and oracle."""

    id: str
    meta: Args
    env: EnvSpec
    steps: tuple[Step, ...]
    oracle: OracleSpec

    # -- meta accessors --------------------------------------------------

    def meta_values(self, key: str) -> list[Value]:
        return [v for k, v in self.meta if k == key]

    def method(self) -> str:
        return str(self.meta_values("method")[0].raw)

    def requirement_refs(self) -> list[str]:
        return [str(v.raw) for v in self.meta_values("requirement_ref")]

    def threat_refs(self) -> list[str]:
        return [str(v.raw) for v in self.meta_values("threat_ref")]

    def risk_ref(self) -> str | None:
        vals = self.meta_values("risk_ref")
        return str(vals[0].raw) if vals else None

    def domain_declarations(self) -> dict[str, str]:
        """Placeholder name -> domain key, from ``domain_<NAME>`` meta entries."""
        out: dict[str, str] = {}
        for k, v in self.meta:
            if k.startswith("domain_"):
                out[k.removeprefix("domain_")] = str(v.raw)
        return out

    def placeholders(self) -> set[str]:
        names: set[str] = set()
        for step in self.steps:
            for _, v in step.args:
                if v.kind is ValueKind.PLACEHOLDER:
                    names.add(str(v.raw))
        return names


# -- tokenizer ----------------------------------------------------------


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    value: object = None


_PUNCT = {"{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
          ",": "COMMA", ":": "COLON", "=": "EQUALS", ".": "DOT"}
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# One alternative per token kind, tried in this order; MISMATCH is any other
# character. A STRING without its closing quote still matches, so the
# scanner can say why it stopped.
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("SKIP", r"(?:[ \t\r\n]|#[^\n]*)+"),
    ("PUNCT", r"[{}(),:=.]"),
    ("STRING", r'"(?:[^"\\\n]|\\["\\])*(?P<CLOSE>")?'),
    ("PLACEHOLDER", r"\$" + _NAME),
    ("HEXBYTES", r"0[xX][0-9a-fA-F]*"),
    ("NUMBER", r"[0-9]+"),
    ("IDENT", _NAME),
    ("MISMATCH", r"(?s:.)"),
)))
_ESCAPE_RE = re.compile(r"\\(.)")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, tok, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if kind == "SKIP":
            if "\n" in tok:
                line += tok.count("\n")
                line_start = text.rindex("\n", start, m.end()) + 1
            continue
        if kind == "PUNCT":
            kind, value = _PUNCT[tok], None
        elif kind == "STRING":
            if m.group("CLOSE") is None:
                if text.startswith("\\", m.end()):
                    raise DslError("bad escape in string", line, col + m.end() - start)
                raise DslError("unterminated string", line, col)
            value = _ESCAPE_RE.sub(r"\1", tok[1:-1])
        elif kind == "HEXBYTES":
            if len(tok) % 2:
                raise DslError(f"hex bytes need an even digit count, got {len(tok) - 2}", line, col)
            value = bytes.fromhex(tok[2:])
        elif kind == "NUMBER":
            value = int(tok)
        elif kind in ("PLACEHOLDER", "IDENT"):
            value = tok.removeprefix("$")
        elif tok == "$":
            raise DslError("'$' must be followed by a placeholder name", line, col)
        else:
            raise DslError(f"unexpected character {tok!r}", line, col)
        tokens.append(_Token(kind, tok, line, col, value))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# -- parser -------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise DslError(f"expected {what}, got {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    def keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "IDENT" or tok.text != word:
            raise DslError(f"expected {word!r}, got {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    # grammar rules

    def scenario(self) -> Scenario:
        self.keyword("scenario")
        id_tok = self.expect("STRING", "scenario id string")
        if not id_tok.value:
            raise DslError("scenario id must be non-empty", id_tok.line, id_tok.col)
        if "/" in id_tok.value or id_tok.value in (".", ".."):
            raise DslError(
                f"scenario id {id_tok.value!r} is not a plain file name", id_tok.line, id_tok.col
            )
        self.expect("LBRACE", "'{'")
        meta = self.meta()
        env = self.env()
        steps = self.steps()
        oracle = self.oracle()
        self.expect("RBRACE", "'}'")
        tok = self.peek()
        if tok.kind != "EOF":
            raise DslError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return Scenario(id=id_tok.value, meta=meta, env=env, steps=steps, oracle=oracle)

    def meta(self) -> Args:
        self.keyword("meta")
        brace = self.expect("LBRACE", "'{'")
        entries: list[tuple[str, Value, _Token]] = []
        while self.peek().kind != "RBRACE":
            key = self.expect("IDENT", "meta key")
            self.expect("COLON", "':'")
            entries.append((key.text, self.value(), key))
        self.expect("RBRACE", "'}'")
        method = [e for e in entries if e[0] == "method"]
        if not method:
            raise DslError("meta must declare a method", brace.line, brace.col)
        if len(method) > 1:
            raise DslError("method declared more than once", method[1][2].line, method[1][2].col)
        mval = method[0][1]
        if mval.kind is not ValueKind.STRING or mval.raw not in METHODS:
            raise DslError(
                f"method must be one of {', '.join(METHODS)}", method[0][2].line, method[0][2].col
            )
        ordered = sorted(range(len(entries)), key=lambda ix: (entries[ix][0], ix))
        return tuple((entries[ix][0], entries[ix][1]) for ix in ordered)

    def env(self) -> EnvSpec:
        self.keyword("env")
        self.expect("LBRACE", "'{'")
        interfaces: list[EnvInterface] = []
        seen: dict[str, _Token] = {}
        preconditions: list[str] = []
        while self.peek().kind != "RBRACE":
            if self.at_keyword("interface"):
                self.next()
                logical = self.expect("IDENT", "interface logical name")
                kind = self.expect("IDENT", "interface kind")
                if kind.text not in ENV_KINDS:
                    raise DslError(
                        f"interface kind must be one of {', '.join(ENV_KINDS)}", kind.line, kind.col
                    )
                if logical.text in seen:
                    raise DslError(f"duplicate interface name {logical.text!r}", logical.line, logical.col)
                seen[logical.text] = logical
                params: list[tuple[str, Value, _Token]] = []
                while self.peek().kind == "IDENT" and self.peek(1).kind == "EQUALS":
                    name = self.next()
                    self.next()
                    params.append((name.text, self.value(), name))
                self._reject_duplicates(params, "interface parameter")
                interfaces.append(
                    EnvInterface(
                        logical.text,
                        kind.text,
                        tuple(sorted(((n, v) for n, v, _ in params), key=lambda p: p[0])),
                    )
                )
            elif self.at_keyword("precondition"):
                self.next()
                preconditions.append(self.expect("IDENT", "precondition name").text)
            else:
                tok = self.peek()
                raise DslError(
                    f"expected 'interface' or 'precondition', got {tok.text or 'end of input'!r}",
                    tok.line,
                    tok.col,
                )
        self.expect("RBRACE", "'}'")
        interfaces.sort(key=lambda i: i.logical)
        return EnvSpec(tuple(interfaces), tuple(preconditions))

    def steps(self) -> tuple[Step, ...]:
        self.keyword("steps")
        brace = self.expect("LBRACE", "'{'")
        out: list[Step] = []
        while self.peek().kind != "RBRACE":
            if self.at_keyword("pattern"):
                self.next()
                name, args = self.call()
                out.append(PatternStep(name, args))
            elif self.at_keyword("expect"):
                self.next()
                name, args = self.call()
                out.append(ExpectStep(name, args))
            else:
                tok = self.peek()
                raise DslError(
                    f"expected 'pattern' or 'expect', got {tok.text or 'end of input'!r}",
                    tok.line,
                    tok.col,
                )
        self.expect("RBRACE", "'}'")
        if not out:
            raise DslError("steps must be non-empty", brace.line, brace.col)
        return tuple(out)

    def call(self) -> tuple[str, Args]:
        name = self.expect("IDENT", "pattern name")
        if not _UPPER_RE.match(name.text):
            raise DslError(f"pattern names are uppercase, got {name.text!r}", name.line, name.col)
        self.expect("LPAREN", "'('")
        args: list[tuple[str, Value, _Token]] = []
        if self.peek().kind != "RPAREN":
            while True:
                arg = self.expect("IDENT", "argument name")
                self.expect("EQUALS", "'='")
                args.append((arg.text, self.value(), arg))
                if self.peek().kind == "COMMA":
                    self.next()
                    continue
                break
        self.expect("RPAREN", "')'")
        self._reject_duplicates(args, "argument")
        return name.text, tuple(sorted(((n, v) for n, v, _ in args), key=lambda a: a[0]))

    def oracle(self) -> OracleSpec:
        self.keyword("oracle")
        self.expect("LBRACE", "'{'")
        self.keyword("pass")
        self.expect("COLON", "':'")
        pass_cond = self.cond()
        self.keyword("fail")
        self.expect("COLON", "':'")
        fail_cond = self.cond()
        self.expect("RBRACE", "'}'")
        return OracleSpec(pass_cond, fail_cond)

    def cond(self) -> str:
        parts = [self.expect("IDENT", "condition name").text]
        while self.peek().kind == "DOT":
            self.next()
            parts.append(self.expect("IDENT", "condition name").text)
        return ".".join(parts)

    def value(self) -> Value:
        tok = self.next()
        if tok.kind not in ValueKind.__members__:
            raise DslError(f"expected a value, got {tok.text or 'end of input'!r}", tok.line, tok.col)
        return Value(ValueKind[tok.kind], tok.value)

    @staticmethod
    def _reject_duplicates(named: list[tuple[str, Value, _Token]], what: str) -> None:
        seen: set[str] = set()
        for name, _, tok in named:
            if name in seen:
                raise DslError(f"duplicate {what} {name!r}", tok.line, tok.col)
            seen.add(name)


def parse_scenario(text: str) -> Scenario:
    return _Parser(text).scenario()


def literal(text: str) -> Value:
    """Text from a JSON input, typed by the DSL's literal rule: text that is
    one whole ``HEXBYTES`` token is hexbytes, one ``NUMBER`` token a number,
    anything else a string."""
    m = _TOKEN_RE.fullmatch(text)
    if m and m.lastgroup == "NUMBER":
        return Value.number(int(text))
    if m and m.lastgroup == "HEXBYTES" and len(text) % 2 == 0:
        return Value.hexbytes(bytes.fromhex(text[2:]))
    return Value.string(text)


# -- canonical serializer -----------------------------------------------


def _render_args(args: Args) -> str:
    return ", ".join(f"{n}={v.render()}" for n, v in args)


def serialize(scenario: Scenario) -> str:
    lines = [f"scenario {Value.string(scenario.id).render()} {{"]
    lines.append("  meta {")
    for key, value in scenario.meta:
        lines.append(f"    {key}: {value.render()}")
    lines.append("  }")
    lines.append("  env {")
    for iface in scenario.env.interfaces:
        params = "".join(f" {n}={v.render()}" for n, v in iface.params)
        lines.append(f"    interface {iface.logical} {iface.kind}{params}")
    for pre in scenario.env.preconditions:
        lines.append(f"    precondition {pre}")
    lines.append("  }")
    lines.append("  steps {")
    for step in scenario.steps:
        if isinstance(step, PatternStep):
            lines.append(f"    pattern {step.name}({_render_args(step.args)})")
        else:
            lines.append(f"    expect {step.matcher}({_render_args(step.args)})")
    lines.append("  }")
    lines.append("  oracle {")
    lines.append(f"    pass: {scenario.oracle.pass_condition}")
    lines.append(f"    fail: {scenario.oracle.fail_condition}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- vocabulary validation ----------------------------------------------


def service_byte(value: Value) -> bool:
    """Whether a value is the one hex byte a matcher's service must be."""
    return value.kind is ValueKind.HEXBYTES and len(bytes(value.raw)) == 1


@dataclass(frozen=True)
class Issue:
    """One problem ``validate`` found in a scenario: a code and its detail."""

    code: str
    detail: str


def validate(scenario: Scenario) -> list[Issue]:
    """Non-raising semantic lint against the standard vocabulary."""
    issues: list[Issue] = []
    for step in scenario.steps:
        if isinstance(step, PatternStep) and step.name not in PATTERNS:
            issues.append(Issue("unknown-pattern", f"pattern {step.name!r} is not in the vocabulary"))
        if isinstance(step, ExpectStep) and step.matcher not in MATCHERS:
            issues.append(Issue("unknown-matcher", f"matcher {step.matcher!r} is not in the vocabulary"))
        elif isinstance(step, ExpectStep) and MATCHERS[step.matcher] is not None:
            service = dict(step.args).get("service")
            # A placeholder is checked when it is bound, by tcg.
            if service is None or (
                service.kind is not ValueKind.PLACEHOLDER and not service_byte(service)
            ):
                got = "no service" if service is None else f"service={service.render()}"
                issues.append(Issue(
                    "bad-matcher-argument",
                    f"matcher {step.matcher!r} wants service=<hex byte>, got {got}",
                ))
    for cond in (scenario.oracle.pass_condition, scenario.oracle.fail_condition):
        if cond not in CONDITIONS:
            issues.append(Issue("unknown-condition", f"condition {cond!r} is not in the vocabulary"))
    for pre in scenario.env.preconditions:
        if pre not in PRECONDITIONS:
            issues.append(Issue("unknown-precondition", f"precondition {pre!r} is not in the vocabulary"))
    declared = set(scenario.domain_declarations())
    for name in sorted(scenario.placeholders() - declared):
        issues.append(
            Issue("unresolved-placeholder", f"placeholder ${name} has no domain_{name} declaration")
        )
    return issues
