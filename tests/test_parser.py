import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcsim import parser
from alcsim.canonical import build_canonical, eval_concept
from alcsim.gen import KbShape, random_concept, random_kb
from alcsim.model import (
    And,
    AtLeast,
    Atom,
    DefKind,
    Exists,
    Not,
    Or,
    Top,
    nnf,
    normalize,
)
from alcsim.parser import (
    KEYWORDS,
    MAX_NESTING,
    ErrorKind,
    ParseError,
    parse_concept,
    parse_kb,
    serialize,
    serialize_concept,
    serialize_kb,
)
from alcsim.tableau import TableauReasoner


def nested_concept(form: str, depth: int) -> str:
    """A concept whose ``(``/``not``/``exists``/``forall`` nest ``depth`` deep."""
    if form == "parens":
        return "(" * depth + "Woman" + ")" * depth
    if form == "not":
        return "not " * depth + "Woman"
    if form == "mixed":  # four levels per repetition
        reps = depth // 4
        return ("not " * (depth % 4) + "not (exists HasChild.(Woman or " * reps
                + "Man" + "))" * reps)
    return f"{form} HasChild." * depth + "Woman"


NESTING_FORMS = ("parens", "not", "exists", "forall", "mixed")

# Pieces of the concrete syntax, plus letters and digits outside ASCII.
SYNTAX_PIECES = st.sampled_from([
    "A", "Bx_1", "r", "a", "7", "0", " ", "\t", "\n", "\r", "(", ")", ",",
    ".", ":=", "<=", ":", "<", "=", "#", "not ", " and ", " or ", "exists ",
    "forall ", "atleast ", "Top", "Bottom", "Ω", "é", "ß", "٣", "²", "Ⅻ",
])


class TestParseConcept:
    def test_conjunction_with_restriction(self):
        c = parse_concept("Male and exists hasChild.Person")
        assert c == And((Atom("Male"), Exists("hasChild", Atom("Person"))))

    def test_top(self):
        assert parse_concept("Top") == Top()

    def test_negated_group(self):
        c = parse_concept("not (A or B)")
        assert c == Not(Or((Atom("A"), Atom("B"))))

    def test_precedence_and_binds_tighter_than_or(self):
        c = parse_concept("Human and exists R.Parent or exists S.Uncle")
        assert isinstance(c, Or)
        assert c.args[0] == And((Atom("Human"), Exists("R", Atom("Parent"))))

    def test_not_binds_tighter_than_quantifier_scope(self):
        assert parse_concept("not exists R.A") == Not(Exists("R", Atom("A")))
        assert parse_concept("exists R.not A") == Exists("R", Not(Atom("A")))

    def test_atleast(self):
        c = parse_concept("exists HasParent.(atleast 2 HasChild)")
        assert c == Exists("HasParent", AtLeast(2, "HasChild"))
        assert parse_concept("atleast 2 HasChild") == AtLeast(2, "HasChild")

    def test_atleast_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_concept("atleast 0 R")

    def test_keyword_not_a_name(self):
        with pytest.raises(ParseError):
            parse_concept("exists and.A")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_concept("A B")

    def test_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_concept("A and ?")
        assert err.value.line == 1
        assert err.value.column == 7
        assert err.value.kind is ErrorKind.LEX

    @pytest.mark.parametrize("text, column", [
        ("Ωmega", 1), ("Womanß", 6), ("atleast ٣ HasChild", 9),
        ("exists HasChild.²", 17),
    ])
    def test_non_ascii_letter_or_digit_is_a_lex_error(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_concept(text)
        assert err.value.kind is ErrorKind.LEX
        assert (err.value.line, err.value.column) == (1, column)
        assert err.value.message == f"unexpected character {text[column - 1]!r}"

    def test_overlong_atleast_count(self):
        with pytest.raises(ParseError) as err:
            parse_concept("atleast " + "9" * 5000 + " R")
        assert err.value.column == 9

    @pytest.mark.parametrize("form", NESTING_FORMS)
    def test_nesting_at_the_limit(self, form, family_kb):
        c = parse_concept(nested_concept(form, MAX_NESTING))
        assert parse_concept(str(c)) == c
        model = build_canonical(family_kb)
        ext = eval_concept(model, family_kb.tbox, c)
        assert eval_concept(model, family_kb.tbox, nnf(c)) == ext
        assert eval_concept(model, family_kb.tbox, normalize(c)) == ext
        assert TableauReasoner(family_kb).is_satisfiable(c)

    @pytest.mark.parametrize("form", NESTING_FORMS)
    def test_nesting_past_the_limit(self, form):
        text = nested_concept(form, MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse_concept(text)
        assert err.value.message == "concept nested deeper than 100 levels"
        # the error points at the token that opens level MAX_NESTING + 1
        before = text[:err.value.column - 1]
        assert sum(before.count(opener) for opener in
                   ("(", "not ", "exists ", "forall ")) == MAX_NESTING

    def test_thousands_of_levels_are_a_parse_error(self):
        for text in ("not " * 3000 + "A", "(" * 3000 + "A" + ")" * 3000):
            with pytest.raises(ParseError):
                parse_concept(text)


class TestParseKb:
    def test_definition_statement(self):
        kb = parse_kb("Woman := Human and Female\n")
        defn = kb.tbox.definitions["Woman"]
        assert defn.kind is DefKind.EQUIV
        assert defn.body == And((Atom("Human"), Atom("Female")))

    def test_partial_definition_statement(self):
        kb = parse_kb("Male <= Person\n")
        defn = kb.tbox.definitions["Male"]
        assert defn.kind is DefKind.SUBSUMED
        assert defn.body == Atom("Person")

    def test_assertions(self):
        kb = parse_kb("Woman(Claudia)\nHasParent(Claudia, Giovanna)\n")
        assert ("Woman", "Claudia") in kb.abox.concept_assertions
        assert ("HasParent", "Claudia", "Giovanna") in kb.abox.role_assertions
        assert kb.individuals == {"Claudia", "Giovanna"}

    def test_comments_and_blank_lines(self):
        kb = parse_kb("# a comment\n\nC(a)  # trailing comment\n")
        assert kb.abox.concept_assertions == {("C", "a")}

    def test_crlf_accepted(self):
        kb = parse_kb("C(a)\r\nR(a, b)\r\n")
        assert len(kb.abox.role_assertions) == 1

    def test_family_fixture_counts(self, family_kb):
        assert len(family_kb.tbox.definitions) == 10
        assert len(family_kb.abox.concept_assertions) == 10
        assert len(family_kb.abox.role_assertions) == 30
        assert len(family_kb.individuals) == 11

    def test_duplicate_definition(self):
        with pytest.raises(ParseError) as err:
            parse_kb("A := B\nA := C\n")
        assert err.value.kind is ErrorKind.DUPLICATE_DEFINITION
        assert err.value.line == 2

    def test_direct_cycle(self):
        with pytest.raises(ParseError) as err:
            parse_kb("A := A and B\n")
        assert err.value.kind is ErrorKind.CYCLE

    def test_indirect_cycle(self):
        with pytest.raises(ParseError) as err:
            parse_kb("A := exists R.B\nB := A and C\n")
        assert err.value.kind is ErrorKind.CYCLE

    def test_definition_chain_too_deep(self):
        # each line adds two levels; A0 is the deepest, but the walk meets
        # the first name past the limit on its way up the chain
        text = "".join(f"A{i} := exists R.A{i + 1}\n" for i in range(300))
        with pytest.raises(ParseError) as err:
            parse_kb(text)
        assert err.value.kind is ErrorKind.TOO_DEEP
        assert (err.value.line, err.value.column) == (101, 1)
        assert err.value.message.startswith("definition of A100 unfolds 401")

    def test_concept_role_arity_conflict(self):
        with pytest.raises(ParseError):
            parse_kb("C(a)\nC(a, b)\n")
        with pytest.raises(ParseError):
            parse_kb("A := exists R.B\nR(a)\n")

    def test_name_may_be_concept_and_individual(self):
        # only concept/role arities clash; individual names are separate
        kb = parse_kb("Woman(Woman)\n")
        assert kb.individuals == {"Woman"}

    def test_malformed_statement(self):
        with pytest.raises(ParseError) as err:
            parse_kb("A B C\n")
        assert err.value.kind is ErrorKind.SYNTAX

    def test_empty_input(self):
        kb = parse_kb("")
        assert not kb.tbox.definitions
        assert not kb.individuals

    def test_non_ascii_name_in_a_kb_line(self):
        with pytest.raises(ParseError) as err:
            parse_kb("Woman(ann)\nΩmega(ann)\n")
        assert err.value.kind is ErrorKind.LEX
        assert (err.value.line, err.value.column) == (2, 1)

    def test_nesting_limit_in_a_definition_body(self):
        body = nested_concept("not", MAX_NESTING)
        kb = parse_kb(f"A := {body}\n")
        assert kb.tbox.definitions["A"].body == parse_concept(body)
        with pytest.raises(ParseError) as err:
            parse_kb(f"B(a)\nA := not {body}\n")
        # "A := " then MAX_NESTING four-character "not "s before the last one
        assert (err.value.line, err.value.column) == (2, 6 + 4 * MAX_NESTING)


CHAIN_301 = "".join(f"A{i} := exists R.A{i + 1}\n" for i in range(300))

# (parser, text, line, column, message, kind) of malformed inputs, as the
# character-by-character lexer reported them.
PINNED_ERRORS = [
    (parse_concept, "A and ?", 1, 7, "unexpected character '?'", "LEX"),
    (parse_kb, "Woman(ann)\nMan := Human and $x\n",
     2, 18, "unexpected character '$'", "LEX"),
    (parse_kb, "Woman(ann)  \n  Man := Human and Male ; B\n",
     2, 25, "unexpected character ';'", "LEX"),
    (parse_kb, "A :- B\n", 1, 3, "unexpected character ':'", "LEX"),
    # a comment ends the tokens, but end of line is past the comment
    (parse_concept, "A and # B",
     1, 10, "expected a concept, found 'end of line'", "SYNTAX"),
    (parse_kb, "A := B # C\nD := # E\n",
     2, 9, "expected a concept, found 'end of line'", "SYNTAX"),
    (parse_concept, "atleast 0 r",
     1, 9, "atleast requires a count of at least 1", "SYNTAX"),
    (parse_concept, "atleast " + "9" * 5000 + " r",
     1, 9, "atleast count is too long", "SYNTAX"),
    (parse_concept, "atleast two r", 1, 9, "expected 'INT', found 'two'", "SYNTAX"),
    (parse_concept, "exists and.A",
     1, 8, "keyword 'and' cannot be used as a role name", "SYNTAX"),
    (parse_concept, "atleast 2 forall",
     1, 11, "keyword 'forall' cannot be used as a role name", "SYNTAX"),
    (parse_concept, "A and or B",
     1, 7, "keyword 'or' cannot be used as a name", "SYNTAX"),
    (parse_concept, "A B", 1, 3, "unexpected trailing input 'B'", "SYNTAX"),
    (parse_kb, "and := A\n",
     1, 1, "keyword 'and' cannot be used as a statement head", "SYNTAX"),
    (parse_kb, "  := A\n", 1, 3, "expected 'NAME', found ':='", "SYNTAX"),
    (parse_kb, "A B C\n",
     1, 3, "expected ':=', '<=' or '(' after name", "SYNTAX"),
    (parse_kb, "C(a)\nA\n",
     2, 2, "expected ':=', '<=' or '(' after name", "SYNTAX"),
    (parse_kb, "A(a, b, c)\n", 1, 7, "expected ')', found ','", "SYNTAX"),
    (parse_kb, "A(a) B\n", 1, 6, "unexpected trailing input 'B'", "SYNTAX"),
    (parse_kb, "A(Top)\n",
     1, 3, "keyword 'Top' cannot be used as an individual name", "SYNTAX"),
    (parse_concept, "(A and (B or C)",
     1, 16, "expected ')', found 'end of line'", "SYNTAX"),
    (parse_kb, "A := exists R.(B and C\n",
     1, 23, "expected ')', found 'end of line'", "SYNTAX"),
    (parse_kb, "C(a)\nC(a, b)\n",
     2, 1, "'C' used as a role here but as a concept at line 1", "SYNTAX"),
    (parse_kb, "A := exists R.B\n\n  R(a)\n",
     3, 3, "'R' used as a concept here but as a role at line 1", "SYNTAX"),
    (parse_kb, "A := B and exists B.C\n",
     1, 1, "'B' used as a role here but as a concept at line 1", "SYNTAX"),
    # the head is used before its body
    (parse_kb, "A := exists A.B\n",
     1, 1, "'A' used as a role here but as a concept at line 1", "SYNTAX"),
    (parse_kb, "B(a)\nA := not C and atleast 2 B\n",
     2, 1, "'B' used as a role here but as a concept at line 1", "SYNTAX"),
    (parse_kb, "A := B\nA := C\n",
     2, 1, "'A' is defined twice", "DUPLICATE_DEFINITION"),
    (parse_kb, "X(a)\nA := exists R.B\nB := C and A\n",
     2, 1, "cyclic definitions: A -> B -> A", "CYCLE"),
    (parse_kb, CHAIN_301, 101, 1,
     "definition of A100 unfolds 401 levels deep, past the limit of 400",
     "TOO_DEEP"),
    (parse_kb, "B(a)\nA := " + "not " * 101 + "C\n",
     2, 406, "concept nested deeper than 100 levels", "SYNTAX"),
]


@pytest.mark.parametrize("parse, text, line, column, message, kind",
                         PINNED_ERRORS, ids=range(len(PINNED_ERRORS)))
def test_parse_error_is_pinned(parse, text, line, column, message, kind):
    with pytest.raises(ParseError) as err:
        parse(text)
    got = err.value
    assert (got.line, got.column, got.message, got.kind) == (
        line, column, message, ErrorKind[kind])


class TestFrontDoor:
    """Any text either parses or raises ParseError, never another exception."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=st.one_of(st.text(), st.lists(SYNTAX_PIECES).map("".join)))
    def test_parse_returns_or_raises_parse_error(self, text):
        for parse in (parse_concept, parse_kb):
            try:
                parse(text)
            except ParseError:
                pass

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.lists(SYNTAX_PIECES).map("".join))
    def test_error_position_lies_on_its_line(self, text):
        for parse in (parse_concept, parse_kb):
            try:
                parse(text)
            except ParseError as err:
                if parse is parse_concept:
                    line = text.replace("\n", " ")
                else:
                    line = text.splitlines()[err.line - 1]
                assert 1 <= err.column <= len(line) + 1
                if err.kind is ErrorKind.LEX:
                    assert err.message == (
                        f"unexpected character {line[err.column - 1]!r}")


# Assertion lines, well formed or with up to two defects: a keyword, a
# digit or nothing in a name slot, a third argument, a bracket missing or
# doubled, a junk character; blanks between the parts.  In a KB text a
# "\r" ends the line, so only a line on its own has "\r" blanks.
KB_BLANKS = st.sampled_from(["", " ", "\t", " \t "])
BLANKS = st.sampled_from(["", " ", "\t", "\r", " \t\r "])
NAMES = st.sampled_from(["A", "Woman", "r", "a", "b2", "x_y"])
NOT_NAMES = st.sampled_from(["not", "Top", "atleast", "or", "7", "2b", "",
                             "é"])
TAILS = st.sampled_from(["", "# note", "#", "#(x"])
JUNK = st.sampled_from(["$", "Ω", "\x0b", "_", ",", ".", ":=", "x"])
OTHER_LINES = st.sampled_from(["D := A and exists r.B", "E <= not Woman",
                               "r := A", "# comment", "", "  "])


@st.composite
def assertion_lines(draw, blanks=KB_BLANKS) -> str:
    parts = [draw(NAMES), "(", draw(NAMES)]
    if draw(st.booleans()):
        parts += [",", draw(NAMES)]
    parts.append(")")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        defect = draw(st.sampled_from(["slot", "third", "bracket", "junk"]))
        if defect == "slot":
            slot = draw(st.sampled_from([0, *range(2, len(parts), 2)]))
            parts[slot] = draw(NOT_NAMES)
        elif defect == "third":
            parts[-1:-1] = [",", draw(NAMES)]
        elif defect == "bracket":
            at = draw(st.sampled_from([1, len(parts) - 1]))
            parts[at] *= draw(st.sampled_from([0, 2]))
        else:
            parts.insert(draw(st.integers(0, len(parts))), draw(JUNK))
    line = draw(blanks)
    for part in (*parts, draw(TAILS)):
        line += part + draw(blanks)
    return line


def parse_outcome(text: str):
    try:
        return parse_kb(text)
    except ParseError as err:
        return err.line, err.column, err.message, err.kind


class TestAssertionRecognizer:
    """The one-match path for assertion lines answers as the token parser
    does, on the same lines."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lines=st.lists(st.one_of(assertion_lines(), OTHER_LINES),
                          max_size=8),
           end=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_parse_kb_as_the_token_parser_alone(self, lines, end):
        text = end.join(lines)
        recognized = parse_outcome(text)
        with pytest.MonkeyPatch.context() as patch:   # no line matches
            patch.setattr(parser, "_ASSERTION", re.compile("(?!)"))
            assert parse_outcome(text) == recognized

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(line=assertion_lines(BLANKS))
    def test_matches_the_assertions_the_token_parser_reads(self, line):
        # on lines alone, where a "\r" is a blank and no line break
        match = parser._ASSERTION.fullmatch(line)
        recognized = (match.groups() if match
                      and KEYWORDS.isdisjoint(match.groups()) else None)
        try:
            statement = parser._ConceptParser(line, 1).parse_statement()
        except ParseError:
            statement = None
        read = (None if statement is None or statement[1] is not None
                else (statement[0], *statement[2:]))
        assert recognized == read


class TestSerialize:
    def test_conjunction_prints_plainly(self):
        assert serialize_concept(And((Atom("Human"), Atom("Female")))) == "Human and Female"

    def test_existential_with_top(self):
        assert serialize_concept(Exists("R", Top())) == "exists R.Top"

    def test_kb_round_trip(self, family_kb):
        assert parse_kb(serialize_kb(family_kb)) == family_kb

    def test_output_is_canonical(self, family_kb):
        text = serialize_kb(family_kb)
        assert parse_kb(text) == family_kb
        for line in text.splitlines():
            assert line == line.rstrip()
        assert text.endswith("\n")
        # serializing the reparsed KB reproduces the text bit for bit
        assert serialize_kb(parse_kb(text)) == text

    def test_serialize_dispatch(self, family_kb):
        assert serialize(Atom("A")) == "A"
        assert serialize(family_kb) == serialize_kb(family_kb)
        with pytest.raises(TypeError):
            serialize(42)

    def test_concept_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(400):
            c = random_concept(rng, ("A", "B", "C", "D"), ("R", "S"), 4)
            assert parse_concept(serialize_concept(c)) == c

    def test_concept_round_trip_nested_connectives(self):
        cases = [
            And((And((Atom("A"), Atom("B"))), Atom("C"))),
            Or((Or((Atom("A"), Atom("B"))), Atom("C"))),
            Or((And((Atom("A"), Atom("B"))), Atom("C"))),
            And((Or((Atom("A"), Atom("B"))), Atom("C"))),
            Not(And((Atom("A"), Exists("R", Or((Atom("B"), Atom("C"))))))),
        ]
        for c in cases:
            assert parse_concept(serialize_concept(c)) == c

    def test_random_kb_round_trip(self):
        for seed in range(30):
            kb = random_kb(seed, KbShape())
            assert parse_kb(serialize_kb(kb)) == kb
