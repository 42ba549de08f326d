"""Exhaustive reference solver: exactness, witnesses, and limits."""

import os
import random
import subprocess
import sys

import pytest

import fps_maxsat
from fps_maxsat.formula import INFEASIBLE, Formula, evaluate_cost, parse_wcnf
from fps_maxsat.oracle import MAX_ENUM_VARS, exact_solve

from helpers import brute_force_optimum, random_formula, worked_instance


class TestExactSolve:
    def test_worked_instance(self):
        cost, witness = exact_solve(worked_instance())
        assert cost == 0
        assert witness == [True, True]

    def test_contradictory_hards(self):
        f = parse_wcnf("h 1 0\nh -1 0\n")
        assert exact_solve(f) == (INFEASIBLE, None)

    def test_hard_forces_soft_violation(self):
        f = Formula.build(num_vars=1, hard=[[1]], soft=[(7, [-1])])
        assert exact_solve(f) == (7, [True])

    def test_empty_hard_clause(self):
        f = parse_wcnf("h 0\n1 1 0\n")
        assert exact_solve(f) == (INFEASIBLE, None)

    def test_zero_variables(self):
        f = Formula.build(num_vars=0)
        assert exact_solve(f) == (0, [])

    def test_empty_soft_clause_offsets_optimum(self):
        f = Formula.build(num_vars=1, soft=[(4, []), (2, [1])])
        assert exact_solve(f) == (4, [True])

    def test_witness_is_lowest_in_bit_order(self):
        # every assignment of two free variables costs 0: the witness must
        # be the all-False one
        f = Formula.build(num_vars=2)
        assert exact_solve(f) == (0, [False, False])
        # optima are x1=T,x2=F / x1=F,x2=T / x1=T,x2=T: bit order picks the
        # one with the lowest index, x1 set first
        g = Formula.build(num_vars=2, soft=[(3, [1, 2])])
        assert exact_solve(g) == (0, [True, False])


class TestAgainstBruteForce:
    def test_matches_reference_enumeration(self):
        rng = random.Random(41)
        for _ in range(25):
            f = random_formula(rng, max_vars=12, max_clauses=40)
            expect_cost, _ = brute_force_optimum(f)
            cost, witness = exact_solve(f)
            assert cost == expect_cost
            if cost == INFEASIBLE:
                assert witness is None
            else:
                assert evaluate_cost(f, witness) == cost

    def test_no_assignment_beats_reported_optimum(self):
        rng = random.Random(43)
        for _ in range(10):
            f = random_formula(rng, max_vars=10, max_clauses=30)
            cost, _ = exact_solve(f)
            for _ in range(20):
                assign = [rng.random() < 0.5 for _ in range(f.num_vars)]
                assert evaluate_cost(f, assign) >= cost


class TestEnumerationLimits:
    def test_rejects_too_many_variables(self):
        f = Formula.build(num_vars=MAX_ENUM_VARS + 1)
        with pytest.raises(ValueError, match="enumeration limit"):
            exact_solve(f)

    def test_limit_value(self):
        assert MAX_ENUM_VARS == 26

    def test_boundary_width_allowed(self):
        # zero clauses: the all-satisfied early exit ends after one block
        f = Formula.build(num_vars=MAX_ENUM_VARS)
        cost, witness = exact_solve(f)
        assert cost == 0
        assert witness == [False] * MAX_ENUM_VARS

    def test_witness_beyond_first_block(self):
        # x21=True is forced, so no assignment in the first enumeration
        # block (indices below 2^20) is feasible
        n = 21
        f = Formula.build(num_vars=n, hard=[[n]], soft=[(5, [-n])])
        cost, witness = exact_solve(f)
        assert cost == 5
        assert witness == [False] * (n - 1) + [True]


class TestLazyNumpy:
    def test_cli_import_does_not_load_numpy(self):
        # numpy is imported inside exact_solve, so every command but
        # `oracle` starts without it, and the process pool only when a
        # batch runs with several jobs; the bench harness (and csv) load
        # only for `bench` and `sweep`.  Only a fresh interpreter shows
        # that.  The child imports the same package copy as this process.
        root = os.path.dirname(os.path.dirname(fps_maxsat.__file__))
        path = os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])
        )
        heavy = (
            "numpy",
            "concurrent.futures.process",
            "multiprocessing",
            "fps_maxsat.harness",
            "csv",
        )
        code = (
            "import sys, fps_maxsat.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
