"""Line-oriented concrete syntax for knowledge bases and concepts.

Statement forms, one per line::

    Name := concept        full definition
    Name <= concept        partial definition
    Name(a)                concept assertion
    Role(a, b)             role assertion
    # comment

Concept grammar (precedence: not > exists/forall/atleast > and > or)::

    concept := disj
    disj    := conj ("or" conj)*
    conj    := unary ("and" unary)*
    unary   := "not" unary | "exists" NAME "." unary | "forall" NAME "." unary
             | "atleast" INT NAME | "(" concept ")" | "Top" | "Bottom" | NAME

Names match ``[A-Za-z][A-Za-z0-9_]*`` (ASCII only; any other character
that starts no token is a lexical error); the keywords above are reserved.
A concept nests at most :data:`MAX_NESTING` levels of ``(``, ``not``,
``exists`` and ``forall``; a deeper one is a :class:`ParseError` at the
token that crosses the limit.
``serialize`` emits the canonical form of this syntax (single spaces,
no trailing whitespace, one statement per line) and round-trips.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .errors import AlcsimError, CyclicTBox, DefinitionTooDeep
from .model import (
    ABox,
    And,
    AtLeast,
    Atom,
    Bottom,
    ConceptExpr,
    DefKind,
    Definition,
    Exists,
    Forall,
    KnowledgeBase,
    Not,
    Or,
    TBox,
    Top,
    make_and,
    make_or,
)

KEYWORDS = {"not", "and", "or", "exists", "forall", "atleast", "Top", "Bottom"}

# Nesting levels of ``(``, ``not``, ``exists`` and ``forall`` in one concept.
# At this depth the parser and every later recursive traversal (``nnf``,
# ``normalize``, ``str``, ``eval_concept``, the tableau) stay well inside
# Python's default recursion limit.
MAX_NESTING = 100

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


class ErrorKind(Enum):
    LEX = "lex"
    SYNTAX = "syntax"
    DUPLICATE_DEFINITION = "duplicate_definition"
    CYCLE = "cycle"
    TOO_DEEP = "too_deep"
    UNKNOWN = "unknown"


class ParseError(AlcsimError):
    def __init__(self, line: int, column: int, message: str,
                 kind: ErrorKind = ErrorKind.SYNTAX):
        self.line = line
        self.column = column
        self.message = message
        self.kind = kind
        super().__init__(f"{line}:{column}: {message}")


class _Token(NamedTuple):
    kind: str       # NAME, INT, (, ), ,, ., :=, <=, EOF
    text: str
    line: int
    column: int


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch.isascii() and ch.isalpha():
            m = _NAME_RE.match(text, i)
            tokens.append(_Token("NAME", m.group(), line_no, col))
            i = m.end()
        elif ch.isascii() and ch.isdigit():
            m = _INT_RE.match(text, i)
            tokens.append(_Token("INT", m.group(), line_no, col))
            i = m.end()
        elif text.startswith(":=", i):
            tokens.append(_Token(":=", ":=", line_no, col))
            i += 2
        elif text.startswith("<=", i):
            tokens.append(_Token("<=", "<=", line_no, col))
            i += 2
        elif ch in "(),.":
            tokens.append(_Token(ch, ch, line_no, col))
            i += 1
        else:
            raise ParseError(line_no, col, f"unexpected character {ch!r}",
                             ErrorKind.LEX)
    tokens.append(_Token("EOF", "", line_no, len(text) + 1))
    return tokens


class _ConceptParser:
    """Recursive-descent parser over one token stream."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0      # nesting levels open, see MAX_NESTING

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.line, tok.column,
                             f"expected {kind!r}, found {tok.text or 'end of line'!r}")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.text == word

    def parse_concept(self) -> ConceptExpr:
        return self.parse_disj()

    def parse_disj(self) -> ConceptExpr:
        parts = [self.parse_conj()]
        while self.at_keyword("or"):
            self.advance()
            parts.append(self.parse_conj())
        return make_or(parts)

    def parse_conj(self) -> ConceptExpr:
        parts = [self.parse_unary()]
        while self.at_keyword("and"):
            self.advance()
            parts.append(self.parse_unary())
        return make_and(parts)

    def nested(self, tok: _Token, parse) -> ConceptExpr:
        """``parse()`` one nesting level below ``tok``, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(tok.line, tok.column,
                             f"concept nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def parse_unary(self) -> ConceptExpr:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.nested(tok, self.parse_disj)
            self.expect(")")
            return inner
        if tok.kind != "NAME":
            raise ParseError(tok.line, tok.column,
                             f"expected a concept, found {tok.text or 'end of line'!r}")
        if tok.text == "not":
            self.advance()
            return Not(self.nested(tok, self.parse_unary))
        if tok.text in ("exists", "forall"):
            self.advance()
            role = self.expect_plain_name("role name")
            self.expect(".")
            filler = self.nested(tok, self.parse_unary)
            cls = Exists if tok.text == "exists" else Forall
            return cls(role.text, filler)
        if tok.text == "atleast":
            self.advance()
            count = self.expect("INT")
            try:
                n = int(count.text)
            except ValueError:  # past int()'s limit on digits
                raise ParseError(count.line, count.column,
                                 "atleast count is too long") from None
            if n < 1:
                raise ParseError(count.line, count.column,
                                 "atleast requires a count of at least 1")
            role = self.expect_plain_name("role name")
            return AtLeast(n, role.text)
        if tok.text == "Top":
            self.advance()
            return Top()
        if tok.text == "Bottom":
            self.advance()
            return Bottom()
        if tok.text in KEYWORDS:
            raise ParseError(tok.line, tok.column,
                             f"keyword {tok.text!r} cannot be used as a name")
        self.advance()
        return Atom(tok.text)

    def expect_plain_name(self, what: str) -> _Token:
        tok = self.expect("NAME")
        if tok.text in KEYWORDS:
            raise ParseError(tok.line, tok.column,
                             f"keyword {tok.text!r} cannot be used as a {what}")
        return tok

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(tok.line, tok.column,
                             f"unexpected trailing input {tok.text!r}")


def parse_concept(text: str) -> ConceptExpr:
    """Parse a single concept expression."""
    tokens = _tokenize_line(text.replace("\n", " "), 1)
    parser = _ConceptParser(tokens)
    concept = parser.parse_concept()
    parser.expect_eof()
    return concept


class _ArityTable:
    """Tracks how each name is used so concept/role clashes are reported."""

    def __init__(self):
        self.concept_uses: dict[str, _Token] = {}
        self.role_uses: dict[str, _Token] = {}

    def use_concept(self, name: str, tok: _Token) -> None:
        if name in self.role_uses and name not in self.concept_uses:
            prev = self.role_uses[name]
            raise ParseError(
                tok.line, tok.column,
                f"{name!r} used as a concept here but as a role at "
                f"line {prev.line}")
        self.concept_uses.setdefault(name, tok)

    def use_role(self, name: str, tok: _Token) -> None:
        if name in self.concept_uses and name not in self.role_uses:
            prev = self.concept_uses[name]
            raise ParseError(
                tok.line, tok.column,
                f"{name!r} used as a role here but as a concept at "
                f"line {prev.line}")
        self.role_uses.setdefault(name, tok)

    def scan_concept(self, c: ConceptExpr, tok: _Token) -> None:
        if isinstance(c, Atom):
            self.use_concept(c.name, tok)
        elif isinstance(c, Not):
            self.scan_concept(c.arg, tok)
        elif isinstance(c, (And, Or)):
            for a in c.args:
                self.scan_concept(a, tok)
        elif isinstance(c, (Exists, Forall)):
            self.use_role(c.role, tok)
            self.scan_concept(c.filler, tok)
        elif isinstance(c, AtLeast):
            self.use_role(c.role, tok)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse knowledge-base text into a :class:`KnowledgeBase`.

    Raises :class:`ParseError` on malformed input, duplicate definitions
    of the same name, concept/role arity clashes, cyclic TBoxes, and
    definitions that unfold deeper than ``model.MAX_UNFOLDED_DEPTH``.
    """
    definitions: dict[str, Definition] = {}
    def_tokens: dict[str, _Token] = {}
    concept_assertions: list[tuple[str, str]] = []
    role_assertions: list[tuple[str, str, str]] = []
    arity = _ArityTable()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if tokens[0].kind == "EOF":
            continue
        parser = _ConceptParser(tokens)
        head = parser.expect_plain_name("statement head")
        sep = parser.peek()
        if sep.kind in (":=", "<="):
            parser.advance()
            body = parser.parse_concept()
            parser.expect_eof()
            if head.text in definitions:
                raise ParseError(head.line, head.column,
                                 f"{head.text!r} is defined twice",
                                 ErrorKind.DUPLICATE_DEFINITION)
            kind = DefKind.EQUIV if sep.kind == ":=" else DefKind.SUBSUMED
            definitions[head.text] = Definition(kind, body)
            def_tokens[head.text] = head
            arity.use_concept(head.text, head)
            arity.scan_concept(body, head)
        elif sep.kind == "(":
            parser.advance()
            first = parser.expect_plain_name("individual name")
            if parser.peek().kind == ",":
                parser.advance()
                second = parser.expect_plain_name("individual name")
                parser.expect(")")
                parser.expect_eof()
                arity.use_role(head.text, head)
                role_assertions.append((head.text, first.text, second.text))
            else:
                parser.expect(")")
                parser.expect_eof()
                arity.use_concept(head.text, head)
                concept_assertions.append((head.text, first.text))
        else:
            raise ParseError(sep.line, sep.column,
                             "expected ':=', '<=' or '(' after name")

    tbox = TBox(definitions)
    try:
        abox = ABox.from_assertions(concept_assertions, role_assertions)
        return KnowledgeBase.assemble(tbox, abox)
    except CyclicTBox as exc:
        name = exc.cycle[0]
        tok = def_tokens.get(name, _Token("NAME", name, 1, 1))
        raise ParseError(tok.line, tok.column, str(exc), ErrorKind.CYCLE) from exc
    except DefinitionTooDeep as exc:
        tok = def_tokens[exc.name]
        raise ParseError(tok.line, tok.column, str(exc),
                         ErrorKind.TOO_DEEP) from exc


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_concept(c: ConceptExpr) -> str:
    return str(c)


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text for a knowledge base.

    Definitions keep their insertion order; assertions are sorted.  The
    output parses back into an equal :class:`KnowledgeBase`.
    """
    lines: list[str] = []
    for name, defn in kb.tbox.definitions.items():
        op = ":=" if defn.kind is DefKind.EQUIV else "<="
        lines.append(f"{name} {op} {defn.body}")
    for concept, individual in sorted(kb.abox.concept_assertions):
        lines.append(f"{concept}({individual})")
    for role, source, target in sorted(kb.abox.role_assertions):
        lines.append(f"{role}({source}, {target})")
    return "".join(line + "\n" for line in lines)


def serialize(x) -> str:
    """Serialize a concept expression or a knowledge base."""
    if isinstance(x, ConceptExpr):
        return serialize_concept(x)
    if isinstance(x, KnowledgeBase):
        return serialize_kb(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")
