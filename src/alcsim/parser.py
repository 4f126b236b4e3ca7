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
One regular expression lexes a line: the longest prefix made of blanks
and tokens must reach the end of the line or a ``#``, or the character
where it stops is a ``LEX`` error.  Tokens are plain strings, and the
first character gives a token's kind.  No column is stored: an error
lexes its line again to find the column of the token it points at.
A well-formed assertion line with no keyword among its names is
recognised by one match of a pattern built from the same fragments, and
skips the token parser; every other line goes through it, so the token
parser words every syntax error.
A concept nests at most :data:`MAX_NESTING` levels of ``(``, ``not``,
``exists`` and ``forall``; a deeper one is a :class:`ParseError` at the
token that crosses the limit.
``serialize`` emits the canonical form of this syntax (single spaces,
no trailing whitespace, one statement per line) and round-trips.
"""

from __future__ import annotations

import re
import string
from enum import Enum
from itertools import islice

from .errors import AlcsimError, CyclicTBox, DefinitionTooDeep
from .model import (
    ABox,
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
    TBox,
    Top,
    make_and,
    make_or,
)

KEYWORDS = {"not", "and", "or", "exists", "forall", "atleast", "Top", "Bottom"}

# Nesting levels of ``(``, ``not``, ``exists`` and ``forall`` in one concept.
# At this depth the parser and every later recursive traversal (``nnf``,
# ``normalize``, ``eval_concept``, the tableau) stay well inside Python's
# default recursion limit.
MAX_NESTING = 100

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_BLANK = r"[ \t\r]"
_TOKEN = rf"{_NAME}|[0-9]+|:=|<=|[(),.]"
_TOKENS = re.compile(_TOKEN)
# The longest prefix of a line made of blanks and tokens.
_LEXABLE = re.compile(rf"(?:{_BLANK}|{_TOKEN})*")
# A whole assertion line, Name(a) or Name(a, b), and an optional comment.
_ASSERTION = re.compile(
    rf"{_BLANK}*({_NAME}){_BLANK}*\({_BLANK}*({_NAME}){_BLANK}*"
    rf"(?:,{_BLANK}*({_NAME}){_BLANK}*)?\){_BLANK}*(?:#.*)?")
# A token's kind by its first character: NAME or INT, and otherwise the
# token itself, a punctuation mark or "" for the end of the line.
_KIND = (dict.fromkeys(string.ascii_letters, "NAME")
         | dict.fromkeys(string.digits, "INT"))


class ErrorKind(Enum):
    LEX = "lex"
    SYNTAX = "syntax"
    DUPLICATE_DEFINITION = "duplicate_definition"
    CYCLE = "cycle"
    TOO_DEEP = "too_deep"


class ParseError(AlcsimError):
    def __init__(self, line: int, column: int, message: str,
                 kind: ErrorKind = ErrorKind.SYNTAX):
        self.line = line
        self.column = column
        self.message = message
        self.kind = kind
        super().__init__(f"{line}:{column}: {message}")


class _ConceptParser:
    """Recursive-descent parser over the tokens of one line.

    ``uses`` collects ``(name, "concept" or "role")`` for every name the
    parsed concepts mention, in the order they occur.
    """

    def __init__(self, text: str, line_no: int):
        end = _LEXABLE.match(text).end()
        if end < len(text) and text[end] != "#":
            raise ParseError(line_no, end + 1,
                             f"unexpected character {text[end]!r}",
                             ErrorKind.LEX)
        self.tokens = _TOKENS.findall(text, 0, end)
        self.tokens.append("")    # the end of the line
        self.text = text
        self.line_no = line_no
        self.pos = 0
        self.depth = 0      # nesting levels open, see MAX_NESTING
        self.uses: list[tuple[str, str]] = []

    def error(self, message: str, at: int | None = None,
              kind: ErrorKind = ErrorKind.SYNTAX) -> ParseError:
        """An error at token ``at`` (by default the next one); its column
        comes from lexing the line again."""
        if at is None:
            at = self.pos
        if at == len(self.tokens) - 1:
            column = len(self.text) + 1
        else:
            match = next(islice(_TOKENS.finditer(self.text), at, None))
            column = match.start() + 1
        return ParseError(self.line_no, column, message, kind)

    def expect(self, kind: str) -> str:
        tok = self.tokens[self.pos]
        if _KIND.get(tok[:1], tok) != kind:
            raise self.error(
                f"expected {kind!r}, found {tok or 'end of line'!r}")
        self.pos += 1
        return tok

    def parse_concept(self) -> ConceptExpr:
        return self.parse_disj()

    def parse_disj(self) -> ConceptExpr:
        parts = [self.parse_conj()]
        while self.tokens[self.pos] == "or":
            self.pos += 1
            parts.append(self.parse_conj())
        return make_or(parts)

    def parse_conj(self) -> ConceptExpr:
        parts = [self.parse_unary()]
        while self.tokens[self.pos] == "and":
            self.pos += 1
            parts.append(self.parse_unary())
        return make_and(parts)

    def nested(self, at: int, parse) -> ConceptExpr:
        """``parse()`` one nesting level below token ``at``, within
        MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise self.error(
                f"concept nested deeper than {MAX_NESTING} levels", at)
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def parse_unary(self) -> ConceptExpr:
        at = self.pos
        tok = self.tokens[at]
        if tok == "(":
            self.pos += 1
            inner = self.nested(at, self.parse_disj)
            self.expect(")")
            return inner
        if _KIND.get(tok[:1]) != "NAME":
            raise self.error(
                f"expected a concept, found {tok or 'end of line'!r}")
        if tok in KEYWORDS:
            self.pos += 1
            if tok == "not":
                return Not(self.nested(at, self.parse_unary))
            if tok == "exists" or tok == "forall":
                role = self.expect_role()
                self.expect(".")
                filler = self.nested(at, self.parse_unary)
                return (Exists if tok == "exists" else Forall)(role, filler)
            if tok == "atleast":
                count = self.expect("INT")
                try:
                    n = int(count)
                except ValueError:  # past int()'s limit on digits
                    raise self.error("atleast count is too long",
                                     self.pos - 1) from None
                if n < 1:
                    raise self.error(
                        "atleast requires a count of at least 1", self.pos - 1)
                return AtLeast(n, self.expect_role())
            if tok == "Top":
                return Top()
            if tok == "Bottom":
                return Bottom()
            raise self.error(f"keyword {tok!r} cannot be used as a name", at)
        self.pos += 1
        self.uses.append((tok, "concept"))
        return Atom(tok)

    def expect_plain_name(self, what: str) -> str:
        tok = self.expect("NAME")
        if tok in KEYWORDS:
            article = "an" if what[0] in "aeiou" else "a"
            raise self.error(
                f"keyword {tok!r} cannot be used as {article} {what}",
                self.pos - 1)
        return tok

    def expect_role(self) -> str:
        role = self.expect_plain_name("role name")
        self.uses.append((role, "role"))
        return role

    def expect_eof(self) -> None:
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(f"unexpected trailing input {tok!r}")

    def parse_statement(self) -> tuple | None:
        """The line's statement: None for a blank or comment line,
        ``(head, definition, None, None)`` for a definition, and
        ``(head, None, individual, second individual or None)`` for an
        assertion."""
        if not self.tokens[0]:
            return None
        head = self.expect_plain_name("statement head")
        sep = self.tokens[1]
        self.pos = 2
        if sep == ":=" or sep == "<=":
            body = self.parse_concept()
            self.expect_eof()
            kind = DefKind.EQUIV if sep == ":=" else DefKind.SUBSUMED
            return head, Definition(kind, body), None, None
        if sep != "(":
            raise self.error("expected ':=', '<=' or '(' after name", 1)
        first = self.expect_plain_name("individual name")
        second = None
        if self.tokens[self.pos] == ",":
            self.pos += 1
            second = self.expect_plain_name("individual name")
        self.expect(")")
        self.expect_eof()
        return head, None, first, second


def _head_error(raw: str, line_no: int, message: str,
                kind: ErrorKind = ErrorKind.SYNTAX) -> ParseError:
    """An error at the first token of line ``raw``, its statement head."""
    return ParseError(line_no, _TOKENS.search(raw).start() + 1, message, kind)


def parse_concept(text: str) -> ConceptExpr:
    """Parse a single concept expression."""
    parser = _ConceptParser(text.replace("\n", " "), 1)
    concept = parser.parse_concept()
    parser.expect_eof()
    return concept


def parse_kb(text: str) -> KnowledgeBase:
    """Parse knowledge-base text into a :class:`KnowledgeBase`.

    Raises :class:`ParseError` on malformed input, duplicate definitions
    of the same name, concept/role arity clashes, cyclic TBoxes, and
    definitions that unfold deeper than ``model.MAX_UNFOLDED_DEPTH``.
    """
    lines = text.splitlines()
    definitions: dict[str, Definition] = {}
    def_lines: dict[str, int] = {}
    concept_assertions: list[tuple[str, str]] = []
    role_assertions: list[tuple[str, str, str]] = []
    # each name's first use, as ("concept" or "role", line): a name used
    # both ways is an arity clash
    first_use: dict[str, tuple[str, int]] = {}

    for line_no, raw in enumerate(lines, start=1):
        match = _ASSERTION.fullmatch(raw)
        if match and KEYWORDS.isdisjoint(match.groups()):
            head, first, second = match.groups()
            defn = None
        else:
            parser = _ConceptParser(raw, line_no)
            statement = parser.parse_statement()
            if statement is None:
                continue
            head, defn, first, second = statement
        if defn is not None:
            if head in definitions:
                raise _head_error(raw, line_no, f"{head!r} is defined twice",
                                  ErrorKind.DUPLICATE_DEFINITION)
            definitions[head] = defn
            def_lines[head] = line_no
            uses = [(head, "concept"), *parser.uses]
        elif second is None:
            uses = [(head, "concept")]
            concept_assertions.append((head, first))
        else:
            uses = [(head, "role")]
            role_assertions.append((head, first, second))
        for name, what in uses:
            was, at_line = first_use.setdefault(name, (what, line_no))
            if was != what:
                raise _head_error(raw, line_no, f"{name!r} used as a {what} "
                                  f"here but as a {was} at line {at_line}")

    tbox = TBox(definitions)
    try:
        abox = ABox.from_assertions(concept_assertions, role_assertions)
        return KnowledgeBase.assemble(tbox, abox)
    except (CyclicTBox, DefinitionTooDeep) as exc:
        if isinstance(exc, CyclicTBox):
            name, kind = exc.cycle[0], ErrorKind.CYCLE
        else:
            name, kind = exc.name, ErrorKind.TOO_DEEP
        line_no = def_lines[name]
        raise _head_error(lines[line_no - 1], line_no, str(exc),
                          kind) from exc


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
