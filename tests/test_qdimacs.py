import warnings

import pytest
from hypothesis import given, strategies as st

from qbd.algebra import Relation
from qbd.backdoor import BaseClass, detect_cc_backdoor
from qbd.errors import DomainError, ParseError
from qbd.formula import AffineEquation, Matrix, Prefix, QbfFormula, clause
from qbd.qdimacs import _Reader, parse_qdimacs, parse_relations, write_qdimacs, write_relations
from helpers import RUNNING_EXAMPLE_TEXT, canonical, running_example
from strategies import PROPERTY, formulas


def test_parse_running_example():
    f = parse_qdimacs(RUNNING_EXAMPLE_TEXT)
    assert f.prefix.to_string() == "e1 a2 e3 e4 e5"
    assert f.base_class == BaseClass("2cnf")
    assert set(f.matrix.tractable) == set(running_example().matrix.tractable)
    assert f.matrix.backdoor == (clause(-3, -4, -5),)


def test_write_running_example_exact():
    bd = detect_cc_backdoor(running_example(), "2cnf")
    assert write_qdimacs(bd.formula) == RUNNING_EXAMPLE_TEXT


def test_round_trip_preserves_everything():
    f = detect_cc_backdoor(running_example(), "2cnf").formula
    again = parse_qdimacs(write_qdimacs(f))
    assert canonical(again) == canonical(f)


def test_a_clause_writes_only_literals_that_parse_back():
    # the prefix takes 1.0 as variable 1, so clause is what refuses it
    # before the writer prints "1.0", which the reader refuses
    with pytest.raises(DomainError):
        QbfFormula(Prefix.from_string("e1 a2"), Matrix((clause(1.0, -2),), ()))
    f = QbfFormula(Prefix.from_string("e1 a2"), Matrix((clause(1, -2),), (clause(-1, 2),)))
    assert canonical(parse_qdimacs(write_qdimacs(f))) == canonical(f)


@PROPERTY
@given(formulas())
def test_write_then_parse_is_the_identity_up_to_atom_order(f):
    # equations, covered and empty clauses, a shuffled prefix, an optional declared class
    assert canonical(parse_qdimacs(write_qdimacs(f))) == canonical(f)


# Ways to spell a token: some keep its value through int() ("+3", "1_0",
# Arabic-Indic digits, and "01" and "-01", which JSON refuses), some pass
# the bulk character test but are no integer ("-", "--2", "1-2"), some are
# a 0 in another spelling or out of range.
RESPELL = (
    lambda t: "+" + t,
    lambda t: t[:-1] + "_" + t[-1],
    lambda t: t.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")),
    lambda t: "-",
    lambda t: "--2",
    lambda t: "1-2",
    lambda t: "00",
    lambda t: "-0",
    lambda t: "0",
    lambda t: "7",
    lambda t: "0" + t.lstrip("-"),
    lambda t: "-0" + t.lstrip("-"),
)


@st.composite
def layouts(draw):
    """write_qdimacs text with its layout perturbed: tabs, trailing blanks,
    double spaces, "\r" line ends, blank, comment and lone-0 lines inserted
    anywhere, and tokens spelled another way; CRLF throughout, and the final
    newline kept or dropped."""
    lines = write_qdimacs(draw(formulas())).splitlines()
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("tab", "blank", "double", "cr", "insert", "respell")))
        if edit == "insert" or i == len(lines):
            lines.insert(i, draw(st.sampled_from(("", " ", "\t", "c note", "0"))))
        elif edit == "tab":
            lines[i] = lines[i].replace(" ", draw(st.sampled_from(("\t", " \t"))), 1)
        elif edit == "blank":
            lines[i] += draw(st.sampled_from((" ", "  ", "\t")))
        elif edit == "double":
            spaces = [j for j, ch in enumerate(lines[i]) if ch == " "]
            if spaces:
                j = draw(st.sampled_from(spaces))
                lines[i] = lines[i][:j] + " " + lines[i][j:]
        elif edit == "cr":
            lines[i] += "\r"
        else:
            toks = lines[i].split()
            j = draw(st.integers(0, len(toks) - 1)) if toks else None
            if j is not None:
                toks[j] = draw(st.sampled_from(RESPELL))(toks[j])
                lines[i] = " ".join(toks)
    newline = draw(st.sampled_from(("\n", "\n", "\n", "\r\n")))  # CRLF runs, and "\r\r\n" after a "cr" edit
    return newline.join(lines) + draw(st.sampled_from((newline, "")))


def by_line(text):
    """The per-line loop over the whole text: the fallback of every run."""
    reader = _Reader()
    reader.lines(text.splitlines(), 1)
    return reader.formula()


def outcome(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            f = parse(text)
            out = (f, [[*getattr(a, "vars", a)] for a in f.matrix.atoms()], f.prefix._pos)  # set order too
        except Exception as exc:
            out = (type(exc), str(exc), getattr(exc, "line", None))
    return out, [str(w.message) for w in caught]


@PROPERTY
@given(layouts())
def test_runs_parse_as_the_per_line_loop_does(text):
    assert outcome(parse_qdimacs, text) == outcome(by_line, text)


@pytest.mark.parametrize("text", [
    "p cnf 3 2\ne 1 2 3 0\n1 +2 0\n1_0 0\n",
    "p cnf 3 2\ne 1 2 3 0\n1 -2 0\n\u0663 0\n",
    "p cnf 3 2\re 1 2 3 0\r\n1\t-2 0 \n0\n",
    "p cnf 3 2\ne 1 2 3 0\n1 -2 0\n1 2 -0\n2 00\n",
    "p cnf 3 2\ne 1 2 3 0\n1 -2 0\n-2 3 2 0\n",
    "p cnf 3 2\ne 1 2 0\na 3 1 0\n1 -2 0\n",
    "p cnf 3 2\ne 1 2 0\na 3 -1 0\n1 -2 0\n",
    "p cnf 3 1\ne 1 2 0\n1 -2 0\na 3 0\n",
    "e 1 2 0\np cnf 3 1\n1 -2 0\n",
    "p cnf 3 1\ne 1 2 0\n1 0 -2 0\n",
    "p cnf 3 1\ne 1 2 0\n1 -2 0\n1 --2 0\n",
    "p cnf 3 2\ne 1 2 3 0\n1 0 2 0\n3\n",  # as many zeros as lines, not one per line
    "p cnf 3 1\ne 1 0 2 0\na 3\n1 0\n",
    "p cnf 3 1\ne 1 2 0\nc two runs\na 2 3 0\n1 0\n",
    "p cnf 3 2\ne 1 2 3 0\nx 1 -2 0\nx 1 1 3 0\nx 2 -2 0\n",
    "p cnf 3 2\ne 1 2 3 0\nc backdoor-begin\n1 2 0\nx 1 2 0\n",
    # 1, 9, 17, 25 and 33 share a hash slot, so set order shows insertion order
    "p cnf 40 3\ne 1 9 17 25 33 0\nx 33 -17 9 1 0\n25 -9 17 33 0\n-1 -33 0\n",
    # int() takes these, JSON does not, or reads -0 as 0
    "p cnf 3 2\ne 1 2 3 0\n1 01 0\n2 -3 0\n",
    "p cnf 3 1\ne 1 -0 0\n1 0\n",
    "p cnf 3 2\ne 1 2 3 0\n1 -0 2 0\n3 0\n",
    "p cnf 3 2\ne 1 2 3 0\nx 1 -0 2 0\nx 3 0\n",
    "p cnf 3 1\ne 1 2 3 0\nx 1  2 0\n",
    "p cnf 3 2\ne 1 2 3 0\n1 2  0\n3 0\n",
    "p cnf 3 2\ne 1 2 3 0\n1 2 0 \n3 0\n",
    "p cnf 3 2\ne 1 2 3 0\nx 1 2 0\nx  0\n",
    # CRLF runs: an error on the third line of one, then "\r\n" mixed with "\r\r\n"
    "p cnf 3 3\r\ne 1 2 3 0\r\n1 2 0\r\n-1 3 0\r\n2 -2 0\r\n",
    "p cnf 3 3\r\ne 1 2 0\r\r\na 3 0\r\n1 2 0\r\r\n-1 3 0\r\n-2 0\r\r\n",
])
def test_runs_at_the_edge_of_the_bulk_checks_parse_as_the_per_line_loop_does(text):
    assert outcome(parse_qdimacs, text) == outcome(by_line, text)


def test_a_crlf_run_is_taken_in_bulk(monkeypatch):
    seen = []
    per_line = _Reader.lines

    def lines(self, lines, start):
        seen.extend(lines)
        per_line(self, lines, start)

    monkeypatch.setattr(_Reader, "lines", lines)
    f = parse_qdimacs("p cnf 3 3\r\ne 1 2 0\r\na 3 0\r\n1 2 0\r\n-1 3 0\r\n-2 0\r\n")
    assert seen == ["p cnf 3 3"]
    assert f.prefix.entries == ((1, "e"), (2, "e"), (3, "a"))
    assert f.matrix.tractable == (clause(1, 2), clause(-1, 3), clause(-2))


def test_equation_lines_round_trip():
    prefix = Prefix.from_string("e1 e2 e3")
    rows = (
        AffineEquation(frozenset({1, 2}), 1),
        AffineEquation(frozenset({2, 3}), 0),
        AffineEquation(frozenset(), 1),
    )
    f = QbfFormula(prefix, Matrix(rows, ()), base_class=BaseClass("aff"))
    text = write_qdimacs(f)
    assert "x 1 2 0" in text
    assert "x -2 3 0" in text  # parity 0 shows as one negated literal
    assert "x 0" in text
    assert canonical(parse_qdimacs(text)) == canonical(f)


def test_trivial_equations_are_neither_written_nor_counted():
    trivial, row, covered = AffineEquation(frozenset(), 0), AffineEquation(frozenset({1, 2}), 1), clause(1, -2)
    f = QbfFormula(Prefix.from_string("e1 e2"), Matrix((trivial, row), (covered,)))
    text = write_qdimacs(f)
    assert "p cnf 2 2" in text.splitlines()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = parse_qdimacs(text)
    assert again.matrix == Matrix((row,), (covered,))


def test_xor_line_parsing_rules():
    text = "p cnf 3 2\ne 1 2 3 0\nx 1 -2 0\nx 1 1 3 0\nx 2 -2 0\n"
    f = parse_qdimacs(text)
    assert AffineEquation(frozenset({1, 2}), 0) in f.matrix.tractable
    assert AffineEquation(frozenset({3}), 1) in f.matrix.tractable  # duplicates cancel
    # x 2 -2 0 reads x+~x=1, which always holds, so the row vanishes
    assert len(f.matrix.tractable) == 2


def test_backdoor_marker_splits_the_matrix():
    text = "p cnf 2 2\ne 1 2 0\n1 0\nc backdoor-begin\n-1 -2 0\n"
    f = parse_qdimacs(text)
    assert f.matrix.tractable == (clause(1),)
    assert f.matrix.backdoor == (clause(-1, -2),)


def test_free_variables_warn_and_join_innermost():
    with pytest.warns(UserWarning, match="unquantified"):
        f = parse_qdimacs("p cnf 2 1\ne 1 0\n1 2 0\n")
    assert f.prefix.entries[-1] == (2, "e")


def test_a_prefix_short_of_the_header_count_leaves_unused_variables_out():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = parse_qdimacs("p cnf 4 1\ne 1 2 0\n1 -2 0\n")
    assert f.prefix.to_string() == "e1 e2"


def test_a_free_variable_on_a_per_line_clause_warns_and_joins_innermost():
    with pytest.warns(UserWarning) as caught:
        f = parse_qdimacs("p cnf 3 1\ne 1 0\n1\t3 0\n")  # the tab sends the clause line through the per-line loop
    assert [str(w.message) for w in caught] == [
        "unquantified variable(s) 3 appended to the prefix as innermost existentials"]
    assert f.prefix.entries == ((1, "e"), (3, "e"))
    assert f.matrix.tractable == (clause(1, 3),)


def test_count_mismatch_warns():
    with pytest.warns(UserWarning, match="declares 3"):
        parse_qdimacs("p cnf 1 3\ne 1 0\n1 0\n")


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("e 1 0\n", "header", 1),
        ("p cnf 1 1\np cnf 1 1\n", "duplicate", 2),
        ("p qbf 1 1\n", "header", 1),
        ("p cnf 1 1\ne 1 0\n1 -1 0\n", "both", 3),
        ("p cnf 1 1\ne 1 0\n2 0\n", "exceeds", 3),
        ("p cnf 2 1\ne 1 0\na -2 0\n", "positive", 3),
        ("p cnf 1 1\ne 1 0\ne 1 0\n1 0\n", "twice", 3),
        ("p cnf 1 1\n1 0\ne 1 0\n", "after the matrix", 3),
        ("p cnf 1 1\ne 1 0\n1\n", "0", 3),
        ("p cnf 2 1\nc class nonsense\n", "nonsense", 2),
        ("p cnf 2 1\nc class horn aff\n", "one tag", 2),
        ("p cnf 2 1\nc class \u0663horn\n", "unknown base class tag", 2),
        ("p cnf 2 2\ne 1 2 0\nc backdoor-begin\nx 1 2 0\n", "clauses only", 4),
        ("p cnf 1 1\ne 1 0\n1 x 0\n", "'x'", 3),
        ("p cnf 2 1\ne 1 2 0\n1 0 2 0\n", "stray 0", 3),
        ("p cnf 2 1\ne 1 2 0\n1 -1 3 0\n", "variable 3 exceeds", 3),
        ("p cnf 2 1\ne 1 2 0\n1 3 -5 0\n", "variable 3 exceeds", 3),
        ("p cnf 2 1\ne 1 y 0\n1 0\n", "'y'", 2),
        ("p cnf 2 1\ne 1 2 2 0\n1 0\n", "variable 2 quantified twice", 2),
        # int() takes these, the dialect does not
        ("p cnf 3 1\ne 1 2 3 0\n1 +3 0\n", "expected an integer, got '+3'", 3),
        ("p cnf 10 1\ne 1 0\n1_0 0\n", "expected an integer, got '1_0'", 3),
        ("p cnf 3 1\ne 1 \u0663 0\n1 0\n", "expected an integer, got '\u0663'", 2),
        ("p cnf 3 1\ne 1 2 3 0\nx -1 +2 0\n", "expected an integer, got '+2'", 3),
        ("p cnf +3 1\n", "expected an integer, got '+3'", 1),
        ("p cnf -1 0\n", "header counts must be nonnegative", 1),
        ("p cnf 2 1\ne 1 2 0\nx 1 3 0\n", "variable 3 exceeds the declared count 2", 3),
        ("p cnf 3 1_0\n", "expected an integer, got '1_0'", 1),
        # past int()'s default limit of 4,300 digits
        ("p cnf " + "1" * 5000 + " 1\n", "integer of 5000 characters is too long", 1),
        ("p cnf 2 1\ne 1 2 0\n1 -" + "2" * 5000 + " 0\n", "integer of 5001 characters is too long", 3),
        ("p cnf 2 1\ne 1 " + "2" * 5000 + " 0\n1 0\n", "integer of 5000 characters is too long", 2),
        ("p cnf 2 1\ne 1 2 0\nx 1 " + "2" * 5000 + " 0\n", "integer of 5000 characters is too long", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_qdimacs(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_missing_header_error_has_no_line():
    with pytest.raises(ParseError, match="header"):
        parse_qdimacs("c nothing else\n")


RELATIONS_TEXT = """# one binary, one ternary
impl 2 : 00, 01, 11
or3 3 : 100, 010, 001, 110, 101, 011, 111
"""


def test_parse_relations():
    rels = parse_relations(RELATIONS_TEXT)
    assert list(rels) == ["impl", "or3"]
    assert rels["impl"] == Relation(name="impl", arity=2, tuples=frozenset({(0, 0), (0, 1), (1, 1)}))
    assert len(rels["or3"].tuples) == 7


def test_relations_round_trip():
    rels = parse_relations(RELATIONS_TEXT)
    assert parse_relations(write_relations(rels)) == rels


def test_duplicate_tuples_collapse():
    rels = parse_relations("r 1 : 1, 1, 0\n")
    assert rels["r"].tuples == frozenset({(1,), (0,)})


def test_an_empty_tuple_between_commas_is_skipped():
    assert parse_relations("r 2 : 01,, 10\n")["r"].tuples == frozenset({(0, 1), (1, 0)})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("impl 2 00, 01\n", "':'"),
        ("impl two : 00\n", "integer"),
        ("impl 0 : \n", "positive"),
        ("impl 2 : 0\n", "length 2"),
        ("impl 2 : 0x\n", "length 2"),
        ("impl 2 : 00\nimpl 2 : 11\n", "twice"),
        ("impl 2 extra : 00\n", "before the tuples"),
    ],
)
def test_relation_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_relations(text)


@pytest.mark.parametrize("arity", ["\u0662", "+2", "2_0"])
def test_an_arity_is_an_optional_minus_and_ascii_digits(arity):
    with pytest.raises(ParseError) as err:
        parse_relations(f"r 1 : 0\ns {arity} : 00\n")
    assert str(err.value) == f"line 2: arity must be an integer, got {arity!r}"
    assert err.value.line == 2
