"""Acceptance gate: eight end-to-end checks with explicit time budgets.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) with the
measured wall time against its budget.  The fixture recipes are frozen:
regenerating them with the seeds below reproduces the exact instances.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout

import pytest

from fps_maxsat.cli import main
from fps_maxsat.engine import SearchState
from fps_maxsat.formula import (
    INFEASIBLE,
    ParseError,
    evaluate_cost,
    parse_wcnf,
    write_wcnf,
)
from fps_maxsat.harness import (
    InstanceRecord,
    config_for_mode,
    mse_score,
    summarize,
)
from fps_maxsat.oracle import exact_solve
from fps_maxsat.solver import SolverConfig, solve

from helpers import (
    assert_state_consistent,
    conflicted_weighted_instance,
    planted_formula,
    probe_reference,
    random_formula,
    random_raw_clauses,
    render_new_dialect,
    render_old_dialect,
    snapshot,
    worked_instance,
)


@contextmanager
def criterion(num, name, budget_s):
    info = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        t = time.perf_counter() - t0
        print(f"ACCEPTANCE {num} {name}: FAIL (t={t:.1f}s)")
        raise
    t = time.perf_counter() - t0
    status = "PASS" if t < budget_s else "FAIL"
    print(
        f"ACCEPTANCE {num} {name}: {status} "
        f"({info['detail']}, t={t:.1f}s, budget={budget_s:g}s)"
    )
    assert t < budget_s, f"{name}: {t:.1f}s exceeded the {budget_s:g}s budget"


def test_1_incremental_bookkeeping_matches_rescan():
    with criterion(1, "incremental bookkeeping", 60.0) as info:
        formulas = 200
        ops = 10_000
        for i in range(formulas):
            gen = random.Random(1_000 + i)
            f = random_formula(gen, max_vars=30, max_clauses=120,
                               weighted=bool(i % 2))
            state = SearchState(f, rng=gen)
            n = f.num_vars
            for op in range(1, ops + 1):
                r = gen.random()
                if r < 0.65:
                    state.flip(gen.randint(1, n))
                elif r < 0.80:
                    state.probed_positive_scores(gen.randint(1, n))
                else:
                    state.update_weights(gen)
                if op % 2_500 == 0:
                    assert_state_consistent(state)
        info["detail"] = f"{formulas} formulas x {ops} mixed operations"


def test_2_probe_pairs_leave_state_identical():
    with criterion(2, "probe purity", 10.0) as info:
        pairs = 10_000
        per_formula = 500
        done = 0
        for i in range(pairs // per_formula):
            gen = random.Random(2_000 + i)
            f = random_formula(gen, max_vars=30, max_clauses=120,
                               weighted=bool(i % 2))
            state = SearchState(f, rng=gen)
            n = f.num_vars
            for _ in range(per_formula):
                # stir the state so probes hit varied configurations
                for _ in range(3):
                    state.flip(gen.randint(1, n))
                if gen.random() < 0.3:
                    state.update_weights(gen)
                before = snapshot(state)
                x = gen.randint(1, n)
                probed = state.probed_positive_scores(x)
                assert snapshot(state) == before
                # the read-only probe equals a real flip of a copy,
                # less x itself
                assert probed == probe_reference(state, x)
                assert x not in probed
                done += 1
        assert done == pairs
        info["detail"] = f"{done} probes, each equal to a real flip"


def test_3_reaches_exact_optimum_on_small_instances():
    with criterion(3, "optimum reach", 120.0) as info:
        gen = random.Random(303)
        instances = []
        for i in range(50):
            n = gen.randint(10, 16)
            mh = gen.randint(n, round(1.5 * n))
            ms = gen.randint(n, 2 * n)
            instances.append(
                planted_formula(gen, n, mh, ms, weighted=bool(i % 2))
            )
        hits = 0
        for f in instances:
            optimum, _ = exact_solve(f)
            res = solve(
                f, SolverConfig(seed=1, max_flips=100_000, time_limit=3600.0)
            )
            assert res.best_cost >= optimum  # never below the true optimum
            assert res.best_assignment is not None  # hard part is satisfiable
            assert evaluate_cost(f, res.best_assignment) == res.best_cost
            if res.best_cost == optimum:
                hits += 1
        assert hits >= 45, f"only {hits}/50 runs reached the optimum"
        info["detail"] = f"{hits}/50 optima, none below, all re-evaluated"


def test_4_pair_flip_escapes_single_flip_optimum():
    with criterion(4, "pair escape", 1.0) as info:
        outcomes = []
        for _ in range(2):  # identical reruns: deterministic
            f = worked_instance()
            state = SearchState(f, assignment=[False, False])
            assert state.current_cost == 1
            assert not state.good_vars.items  # no single flip helps
            gen = random.Random(1)
            from fps_maxsat.solver import fps_step

            assert fps_step(state, SolverConfig(seed=1), gen)
            assert state.flips == 2  # a pair, not a lone flip
            assert state.current_cost == 0
            outcomes.append(
                (state.current_assignment(), state.flips, state.current_cost)
            )
        assert outcomes[0] == outcomes[1]
        info["detail"] = "cost 1 -> 0 by one candidate+partner step"


def test_5_lookahead_beats_ablations_at_equal_budget():
    with criterion(5, "ablation direction", 300.0) as info:
        gen = random.Random(505)
        instances = []
        for _ in range(20):
            n = gen.randint(24, 26)
            mh = gen.randint(round(0.62 * n), round(0.68 * n))
            ms = gen.randint(round(0.8 * n), round(0.9 * n))
            instances.append(
                conflicted_weighted_instance(gen, n, mh, ms, num_conflicts=2)
            )
        cost = {}
        for mode in ("fps", "fps-rw", "single"):
            for idx, f in enumerate(instances):
                for seed in range(1, 6):
                    cfg = config_for_mode(
                        mode, seed=seed, max_flips=100_000, time_limit=3600.0
                    )
                    cost[(mode, idx, seed)] = solve(f, cfg).best_cost
        cells = [(i, s) for i in range(20) for s in range(1, 6)]
        le_rw = sum(
            1 for i, s in cells
            if cost[("fps", i, s)] <= cost[("fps-rw", i, s)]
        )
        le_single = sum(
            1 for i, s in cells
            if cost[("fps", i, s)] <= cost[("single", i, s)]
        )
        assert le_rw >= 60, f"full strategy <= walk-escape on only {le_rw}/100"
        assert le_single >= 60, f"full strategy <= baseline on only {le_single}/100"
        info["detail"] = f"<=walk-escape {le_rw}/100, <=baseline {le_single}/100"


def test_6_relative_scoring_and_tie_breaking():
    with criterion(6, "relative scoring", 1.0) as info:
        assert mse_score(4, INFEASIBLE) == 0.0
        assert mse_score(4, None) == 0.0
        assert mse_score(9, 9) == 1.0
        assert mse_score(9, 19) == 0.5

        def rec(mode, t):
            return InstanceRecord(
                instance="i", mode=mode, seed=1, status="feasible",
                cost=5, time_to_best_s=t, flips=10,
            )

        report = summarize([rec("fps", 3.0), rec("single", 5.0)],
                           ("fps", "single"))
        assert report.wins == {"fps": 1, "single": 0}
        report = summarize([rec("fps", 2.0), rec("single", 2.0)],
                           ("fps", "single"))
        assert report.wins == {"fps": 1, "single": 1}
        info["detail"] = "3 scoring examples, cost tie credited to faster mode"


def test_7_wcnf_round_trip_and_error_cases():
    with criterion(7, "parser round-trip", 5.0) as info:
        gen = random.Random(707)
        for _ in range(50):
            raw, n = random_raw_clauses(gen)
            old = parse_wcnf(render_old_dialect(raw, n))
            new = parse_wcnf(render_new_dialect(raw))
            # both dialects agree on clause order, kinds, and weights
            assert old.clauses == new.clauses
            assert old.weights == new.weights
            assert old.soft_offset == new.soft_offset
            assert old.has_empty_hard == new.has_empty_hard
            # writing and re-parsing changes nothing
            for f in (old, new):
                g = parse_wcnf(write_wcnf(f))
                assert g.clauses == f.clauses
                assert g.weights == f.weights
                assert g.soft_offset == f.soft_offset
                assert g.has_empty_hard == f.has_empty_hard
                assert write_wcnf(g) == write_wcnf(f)

        errors = [
            ("p wcnf 2 1\n1 1 0\n", "header"),
            ("1 1 2\n", "terminator"),
            ("p wcnf 1 1 5\n5 1 2 0\n", "exceeds"),
            ("0 1 0\n", "positive"),
            ("p wcnf 1 1 5\n7 1 0\n", "top"),
        ]
        for text, key in errors:
            with pytest.raises(ParseError, match=key):
                parse_wcnf(text)
        info["detail"] = "50 two-dialect round-trips, 5 error classes"


def test_8_identical_runs_produce_identical_output(tmp_path):
    with criterion(8, "run determinism", 5.0) as info:
        f = conflicted_weighted_instance(random.Random(808), 12, 8, 14)
        path = tmp_path / "instance.wcnf"
        path.write_text(write_wcnf(f))
        argv = ["solve", str(path), "--seed", "1", "--max-flips", "20000"]

        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv)
            assert code == 0
            return buf.getvalue()

        first = run()
        second = run()
        assert first == second
        assert first.encode() == second.encode()
        lines = first.splitlines()
        assert lines[-2] == "s SATISFIABLE"
        info["detail"] = f"{len(lines)} output lines byte-identical twice"
