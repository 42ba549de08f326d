"""Representation, parsing, serialisation, and the from-scratch cost oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert example_formula().is_weighted
        assert not parse_wcnf("h 1 0\n1 -1 0\n").is_weighted

    def test_old_dialect_num_vars_from_header(self):
        # header may declare more variables than are mentioned
        f = parse_wcnf("p wcnf 5 1 3\n1 1 0\n")
        assert f.num_vars == 5

    def test_empty_document(self):
        f = parse_wcnf("")
        assert f.num_vars == 0 and f.num_clauses == 0
        assert evaluate_cost(f, []) == 0


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


class TestNormalisation:
    def test_duplicate_literals_dropped(self):
        f = parse_wcnf("h 1 -2 1 -2 3 0\n")
        assert f.clauses == ((1, -2, 3),)  # first-occurrence order kept

    def test_tautology_dropped(self):
        f = parse_wcnf("h 1 -1 0\n2 1 -2 2 0\nh 2 0\n")
        assert f.num_clauses == 1
        assert f.clauses == ((2,),) and f.weights == (0,)

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

