"""Representation, parsing, serialisation, and the from-scratch cost oracle."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fps_maxsat.cli import main
from fps_maxsat.weighting import WeightingParams
from fps_maxsat.formula import (
    INFEASIBLE,
    Formula,
    ParseError,
    evaluate_cost,
    is_feasible,
    parse_wcnf,
    write_wcnf,
)

from helpers import (
    brute_force_optimum,
    random_raw_clauses,
    reference_parse,
    render_new_dialect,
    render_old_dialect,
)

OLD_EXAMPLE = "p wcnf 2 3 10\n10 1 2 0\n3 -1 0\n5 2 0\n"


def example_formula() -> Formula:
    return parse_wcnf(OLD_EXAMPLE)


class TestParsing:
    def test_old_dialect_example(self):
        f = example_formula()
        assert f.num_vars == 2
        assert f.num_clauses == 3
        assert f.clauses == ((1, 2), (-1,), (2,))
        assert f.weights == (0, 3, 5)  # 0 marks the hard clause

    def test_new_dialect_example(self):
        f = parse_wcnf("h 1 2 0\n3 -1 0\n")
        assert f.num_vars == 2
        assert f.num_clauses == 2
        assert f.clauses == ((1, 2), (-1,))
        assert f.weights == (0, 3)

    def test_bytes_input(self):
        assert parse_wcnf(OLD_EXAMPLE.encode()) == example_formula()

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\nc another\nh 1 0\n\n2 -1 0\n"
        f = parse_wcnf(text)
        assert f.num_clauses == 2
        assert f.weights == (0, 2)

    def test_is_weighted(self):
        # the weighting scheme's constants follow the largest soft weight
        weighted = example_formula()
        unweighted = parse_wcnf("h 1 0\n1 -1 0\n")
        assert max(weighted.soft_weight, default=0) > 1
        assert max(unweighted.soft_weight, default=0) == 1
        assert WeightingParams.defaults_for(weighted) != WeightingParams()
        assert WeightingParams.defaults_for(unweighted) == WeightingParams()

    def test_old_dialect_num_vars_from_header(self):
        # header may declare more variables than are mentioned
        f = parse_wcnf("p wcnf 5 1 3\n1 1 0\n")
        assert f.num_vars == 5

    def test_empty_document(self):
        f = parse_wcnf("")
        assert f.num_vars == 0 and f.num_clauses == 0
        assert evaluate_cost(f, []) == 0

    def test_crlf_line_endings_and_tabs(self):
        text = "c made on\tanother system\r\np wcnf 2 3 10\r\n" \
               "10\t1 2\t0\r\n3 -1 0 \r\n\t5 2 0\r\n"
        assert parse_wcnf(text) == example_formula()
        assert parse_wcnf(text.encode()) == example_formula()

    def test_comment_between_header_and_clauses(self):
        text = "p wcnf 2 3 10\nc the clauses follow\n" + OLD_EXAMPLE[14:]
        assert parse_wcnf(text) == example_formula()

    def test_comments_anywhere(self):
        text = "c first\nh 1 2 0\n  c indented\n3 -1 0\n\nc last"
        f = parse_wcnf(text)
        assert f.clauses == ((1, 2), (-1,)) and f.weights == (0, 3)


class TestParseErrors:
    # the five documented error classes, one test each

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_wcnf("p wcnf 2 3\n10 1 2 0\n")

    def test_literal_zero_in_body(self):
        with pytest.raises(ParseError, match="literal 0"):
            parse_wcnf("h 1 0 2 0\n")

    def test_variable_exceeds_declared(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse_wcnf("p wcnf 2 1 10\n10 3 0\n")

    def test_soft_weight_not_positive(self):
        with pytest.raises(ParseError, match="positive"):
            parse_wcnf("p wcnf 1 1 5\n0 1 0\n")
        with pytest.raises(ParseError, match="positive"):
            parse_wcnf("-3 1 0\n")

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="terminator"):
            parse_wcnf("h 1 2\n")

    def test_weight_exceeds_top(self):
        with pytest.raises(ParseError, match="top"):
            parse_wcnf("p wcnf 2 1 10\n11 1 0\n")

    # a few sharp edges beyond the documented five

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_wcnf("p wcnf 1 1 5\np wcnf 1 1 5\n1 1 0\n")

    def test_non_integer_literal(self):
        with pytest.raises(ParseError, match="literal"):
            parse_wcnf("h 1 x 0\n")

    def test_line_number_in_message(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_wcnf("h 1 0\nh 2\n")

    def test_total_weight_overflow(self):
        w = 2**63
        with pytest.raises(ParseError, match="64 bits"):
            parse_wcnf(f"{w} 1 0\n{w} 2 0\n")

    def test_single_huge_weight_is_fine(self):
        f = parse_wcnf(f"{2**64 - 1} 1 0\n")
        assert f.weights == (2**64 - 1,)

    def test_non_utf8_bytes(self, tmp_path, capsys):
        data = b"p wcnf 2 1 10\n3 1 \xff 0\n"
        with pytest.raises(ParseError, match="not valid UTF-8"):
            parse_wcnf(data)
        path = tmp_path / "latin1.wcnf"
        path.write_bytes(data)
        assert main(["solve", str(path), "--max-flips", "10"]) == 2
        assert capsys.readouterr().err.startswith(
            f"parse error: {path}: input is not")

    def test_clause_continued_on_next_line(self):
        # every clause ends on its own line: a line break is not a space
        with pytest.raises(ParseError,
                           match="^line 3: missing clause terminator 0$"):
            parse_wcnf("p wcnf 3 2 10\n10 1 0\n3 1 2\n-3 0\n")

    def test_two_clauses_on_one_line(self):
        with pytest.raises(ParseError,
                           match="^line 2: literal 0 inside clause body$"):
            parse_wcnf("h 1 0\n3 1 0 -2 0\n")

    def test_first_bad_line_reported(self):
        # the earliest malformed line wins, whatever its kind of fault
        with pytest.raises(ParseError, match="^line 2: non-integer literal"):
            parse_wcnf("h 1 0\nh 1 x 0\np wcnf 1 1 1\n3 1\n")
        with pytest.raises(ParseError, match="^line 2: header after clause"):
            parse_wcnf("h 1 0\np wcnf 1 1 2\nh 1 x 0\n")

    def test_last_token_checked_as_terminator_only(self):
        # the final token is never read as a literal
        with pytest.raises(ParseError,
                           match="^line 1: missing clause terminator 0$"):
            parse_wcnf("h 1 x\n")
        with pytest.raises(ParseError,
                           match="^line 1: missing clause terminator 0$"):
            parse_wcnf("h 1 00\n")


class TestFormulaValue:
    def test_layout(self):
        f = example_formula()
        assert (f.lits.typecode, f.lit_start.typecode,
                f.soft_weight.typecode) == ("i", "i", "Q")
        assert list(f.lits) == [1, 2, -1, 2]
        assert list(f.lit_start) == [0, 2, 3, 4]
        assert list(f.soft_weight) == [0, 3, 5]

    def test_wide_variables(self):
        # beyond 31 bits the literals take 64; beyond 64 a tuple
        for v, typecode in ((2**31, "q"), (2**70, None)):
            f = parse_wcnf(f"p wcnf {v} 1 10\n3 -1 {v} 0\n")
            assert f.clauses == ((-1, v),)
            assert getattr(f.lits, "typecode", None) == typecode

    def test_value_semantics(self):
        f = example_formula()
        same = Formula(num_vars=2, clauses=[(1, 2), (-1,), (2,)],
                       weights=[0, 3, 5])
        assert same == f and hash(same) == hash(f)
        assert f != Formula(num_vars=3, clauses=f.clauses, weights=f.weights)
        assert pickle.loads(pickle.dumps(f)) == f
        assert eval(repr(f), {"Formula": Formula}) == f
        with pytest.raises(AttributeError):
            f.num_vars = 5
        with pytest.raises(ValueError):
            Formula(num_vars=1, clauses=[(1,)], weights=[1, 2])
        with pytest.raises(ValueError):
            Formula(num_vars=1, clauses=[(1,)], weights=[-1])

    def test_replace_validates_anew(self):
        f = Formula(2, [(1, 2)], [1])
        wider = f._replace(num_vars=3)
        assert wider == Formula(3, [(1, 2)], [1]) and f.num_vars == 2
        assert f._replace(weights=[0]).weights == (0,)
        with pytest.raises(ValueError, match=r"in 1 \.\. 1$"):
            f._replace(num_vars=1)

    @pytest.mark.parametrize("lit", [0, 3, -3, 4])
    def test_literal_out_of_range(self, lit):
        # evaluate_cost would read another literal's value for |lit| > 2
        with pytest.raises(ValueError, match=r"in 1 \.\. 2$"):
            Formula(num_vars=2, clauses=[(1, lit)], weights=[1])


class TestNormalisation:
    def test_duplicate_literals_dropped(self):
        f = parse_wcnf("h 1 -2 1 -2 3 0\n")
        assert f.clauses == ((1, -2, 3),)  # first-occurrence order kept

    def test_tautology_dropped(self):
        f = parse_wcnf("h 1 -1 0\n2 1 -2 2 0\nh 2 0\n")
        assert f.num_clauses == 1
        assert f.clauses == ((2,),) and f.weights == (0,)

    def test_long_clauses(self):
        # past eight literals the check for a repeated variable takes
        # another route
        body = " ".join(map(str, range(1, 12)))
        f = parse_wcnf(f"h {body} 3 0\n2 {body} -5 0\n1 {body} 0\n")
        assert f.clauses == (tuple(range(1, 12)),) * 2
        assert f.weights == (0, 1)

    def test_empty_hard_clause_flags_infeasible(self):
        f = parse_wcnf("h 0\nh 1 0\n")
        assert f.has_empty_hard
        assert evaluate_cost(f, [True]) == INFEASIBLE

    def test_empty_soft_clause_becomes_offset(self):
        f = parse_wcnf("5 0\n2 1 0\n")
        assert f.soft_offset == 5
        assert evaluate_cost(f, [True]) == 5
        assert evaluate_cost(f, [False]) == 7

    def test_build_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="positive"):
            Formula.build(soft=[(0, [1])])

    def test_build_rejects_out_of_range_variable(self):
        with pytest.raises(ValueError, match="exceeds"):
            Formula.build(num_vars=1, hard=[[2]])


class TestEvaluateCost:
    def test_example_costs(self):
        f = example_formula()
        assert evaluate_cost(f, [True, False]) == 8
        assert evaluate_cost(f, [False, False]) == INFEASIBLE
        assert evaluate_cost(f, [False, True]) == 0

    def test_is_feasible_examples(self):
        f = example_formula()
        assert is_feasible(f, [False, True])
        assert not is_feasible(f, [False, False])

    def test_no_hard_clauses_always_feasible(self):
        f = parse_wcnf("3 1 0\n4 -1 0\n")
        assert is_feasible(f, [True]) and is_feasible(f, [False])

    def test_wrong_assignment_length(self):
        with pytest.raises(ValueError, match="length"):
            evaluate_cost(example_formula(), [True])

    def test_infeasible_compares_greater(self):
        assert INFEASIBLE > 2**64


class TestRoundTrip:
    def test_writer_emits_new_dialect(self):
        out = write_wcnf(example_formula())
        assert out == "h 1 2 0\n3 -1 0\n5 2 0\n"

    def test_empty_clauses_reemitted(self):
        f = parse_wcnf("h 0\n5 0\nh 1 0\n")
        g = parse_wcnf(write_wcnf(f))
        assert g.has_empty_hard and g.soft_offset == 5
        assert g == f

    def test_fuzzed_round_trip_both_dialects(self):
        rng = random.Random(4242)
        for _ in range(60):
            raw, n = random_raw_clauses(rng)
            f_new = parse_wcnf(render_new_dialect(raw))
            f_old = parse_wcnf(render_old_dialect(raw, n))
            # old and new dialect of the same instance agree up to the
            # declared variable count
            assert f_old.clauses == f_new.clauses
            assert f_old.weights == f_new.weights
            assert f_old.soft_offset == f_new.soft_offset
            assert f_old.has_empty_hard == f_new.has_empty_hard
            # serialize and reparse: identical formula (the new dialect
            # declares no variable count, so it is compared field by field)
            assert parse_wcnf(write_wcnf(f_new)) == f_new
            g = parse_wcnf(write_wcnf(f_old))
            assert g.clauses == f_old.clauses
            assert g.weights == f_old.weights
            assert g.soft_offset == f_old.soft_offset
            assert g.has_empty_hard == f_old.has_empty_hard

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        lits = st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0)
        clause = st.lists(lits, min_size=1, max_size=4)
        is_hard = st.booleans()
        weight = st.integers(min_value=1, max_value=99)
        raw = data.draw(
            st.lists(st.tuples(is_hard, weight, clause), min_size=1, max_size=10)
        )
        doc = "\n".join(
            ("h " if h else f"{w} ") + " ".join(map(str, c)) + " 0"
            for h, w, c in raw
        )
        f = parse_wcnf(doc + "\n")
        g = parse_wcnf(write_wcnf(f))
        # num_vars may legitimately shrink (a variable seen only in a
        # dropped tautology is not re-emitted); everything else is identical
        assert g.clauses == f.clauses
        assert g.weights == f.weights
        assert g.soft_offset == f.soft_offset
        assert g.has_empty_hard == f.has_empty_hard


class TestAgainstBruteForce:
    def test_costs_match_exhaustive_enumeration(self):
        # evaluate_cost is the oracle everything else leans on; pin its
        # behaviour against a literal reading of the definition
        rng = random.Random(99)
        for _ in range(30):
            raw, n = random_raw_clauses(rng, max_vars=5, max_clauses=8)
            f = parse_wcnf(render_new_dialect(raw))
            for bits in range(2 ** f.num_vars):
                assign = [bool((bits >> i) & 1) for i in range(f.num_vars)]
                cost = 0
                feasible = True
                for is_hard, w, lits in raw:
                    sat = any(
                        (lit > 0) == assign[abs(lit) - 1] for lit in lits
                    )
                    if sat:
                        continue
                    if is_hard:
                        feasible = False
                        break
                    cost += w
                expected = cost if feasible else INFEASIBLE
                assert evaluate_cost(f, assign) == expected

    def test_brute_force_optimum_on_example(self):
        best, witness = brute_force_optimum(example_formula())
        assert best == 0 and witness == [False, True]



# Pieces of WCNF documents, valid and not: parse_wcnf must accept, normalise
# and report (message and line number) exactly as the line-by-line reading
# of the rules in helpers.reference_parse does.
WEIGHTS = ["h", "1", "3", "9", "10", "0", "-2", "+4", "007", "x", "1_0",
           str(2**63), str(2**64 - 1), "٣"]
LITERALS = ["1", "-1", "2", "-2", "3", "-3", "4", "0", "00", "-0", "x", "h",
            "c", "p", "+2", "1_0", "٣", str(2**40)]
SPACES = [" ", " ", " ", "  ", "\t", "\x1f", "\xa0"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
             "\x85", " "]
HEADERS = ["p wcnf 4 6 10", "p wcnf 3 2 9", "p wcnf 4 6", "p cnf 4 6 10",
           "p wcnf x 6 10", "p wcnf -1 6 10", "p wcnf 4 6 0"]


@st.composite
def wcnf_documents(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["clause"] * 6 + ["comment", "blank", "header", "broken"]))
        sep = draw(st.sampled_from(SPACES))
        if kind == "clause":
            tokens = [draw(st.sampled_from(WEIGHTS[:5]))]
            tokens += draw(st.lists(
                st.sampled_from(LITERALS[:7]), max_size=4))
            tokens.append("0")
        elif kind == "broken":
            tokens = [draw(st.sampled_from(WEIGHTS))]
            tokens += draw(st.lists(st.sampled_from(LITERALS), max_size=5))
        elif kind == "comment":
            tokens = ["c" + draw(st.sampled_from(["", "omment", " p 1 0"]))]
        elif kind == "header":
            tokens = [draw(st.sampled_from(HEADERS))]
        else:
            tokens = []
        indent = draw(st.sampled_from(["", "", " ", "\t"]))
        trail = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(indent + sep.join(tokens) + trail)
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    last = draw(st.booleans())
    return "".join(line + end for line, end in zip(lines, ends))[
        : None if last or not lines else -len(ends[-1])]


def outcome(parse, text):
    try:
        f = parse(text)
    except ParseError as exc:
        return "rejected", str(exc)
    return "accepted", (f.num_vars, f.clauses, f.weights, f.soft_offset,
                        f.has_empty_hard)


class TestAgainstReferenceReader:
    @settings(max_examples=600, deadline=None)
    @given(wcnf_documents())
    def test_same_outcome(self, text):
        assert outcome(parse_wcnf, text) == outcome(reference_parse, text)
        if text.isascii():
            assert outcome(parse_wcnf, text.encode()) == \
                outcome(reference_parse, text)

    def test_fuzzed_valid_documents_round_trip(self):
        rng = random.Random(77)
        for _ in range(40):
            raw, n = random_raw_clauses(rng)
            for text in (render_new_dialect(raw), render_old_dialect(raw, n)):
                assert outcome(parse_wcnf, text) == \
                    outcome(reference_parse, text)
