"""Search loops, sampling helpers, solver modes, and run plumbing."""

import hashlib
import io
import pickle
import random
from contextlib import redirect_stdout

import pytest

import fps_maxsat.solver as solver_mod
from fps_maxsat import _kernel
from fps_maxsat.cli import main
from fps_maxsat.engine import SearchState, WeightingParams
from fps_maxsat.formula import (
    INFEASIBLE,
    Formula,
    evaluate_cost,
    is_feasible,
    parse_wcnf,
    write_wcnf,
)
from fps_maxsat.solver import (
    MODES,
    RunResult,
    RunStatus,
    SolverConfig,
    bms_pick,
    fps_step,
    solve,
)

from helpers import (
    bms_reference,
    conflicted_weighted_instance,
    planted_formula,
    random_formula,
    unit_weights,
    worked_instance,
)


class RecordingState(SearchState):
    """SearchState that logs flips and look-ahead probes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flip_log = []
        self.probe_log = []

    def flip(self, x):
        self.flip_log.append(x)
        super().flip(x)

    def probed_positive_scores(self, x):
        pos = super().probed_positive_scores(x)
        self.probe_log.append((x, dict(pos)))
        return pos


def drive_to_local_optimum(state, rng, limit=10_000):
    for _ in range(limit):
        if not state.good_vars.items:
            return
        state.flip(state.good_vars.choose(rng))
    raise AssertionError("no local optimum reached")


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.mode == "fps"
        assert (cfg.sc_num, cfg.sv_num) == (10, 50)
        assert cfg.seed == 1 and cfg.max_flips is None
        assert cfg.time_limit == 300.0

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown mode"):
            SolverConfig(mode="nope")
        with pytest.raises(ValueError):
            SolverConfig(sc_num=0)
        with pytest.raises(ValueError):
            SolverConfig(sv_num=0)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=0)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=float("nan"))
        assert SolverConfig(time_limit=float("inf")).time_limit > 0

    @pytest.mark.parametrize("field", ["sc_num", "sv_num", "max_flips"])
    @pytest.mark.parametrize("value", [1000.0, 2.5, "10", True])
    def test_counts_must_be_integers(self, field, value):
        # refused before either engine runs: the kernel takes an int64,
        # and the Python engine would carry a float along
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: value})

    def test_value_record(self):
        cfg = SolverConfig(mode="single", seed=7, max_flips=10)
        assert cfg == SolverConfig("single", 10, 50, 300.0, 10, 7)
        assert cfg != SolverConfig(mode="single", seed=8, max_flips=10)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert eval(repr(cfg), {"SolverConfig": SolverConfig}) == cfg
        assert cfg._replace(seed=8).seed == 8 and cfg.seed == 7
        with pytest.raises(ValueError, match="unknown mode"):
            cfg._replace(mode="nope")
        with pytest.raises(TypeError):
            hash(cfg)

    def test_run_result_record(self):
        res = solve(worked_instance(), SolverConfig(max_flips=50))
        assert pickle.loads(pickle.dumps(res)) == res
        assert RunResult(RunStatus.FEASIBLE, 0, [True], 1, 0.5, 0.0) \
            .improvement_trace == []


class TestBmsPick:
    def test_misses_maximum_only_with_vanishing_probability(self):
        # {a: 5, b: 1}, sv_num=50: picking b requires all 50 draws to
        # miss a, probability 2^-50
        assert bms_pick([1, 2], {1: 5, 2: 1}, 50, random.Random(1)) == 1

    def test_membership(self):
        rng = random.Random(11)
        cands = [3, 7, 12]
        scores = {3: -1, 7: -9, 12: -5}
        for _ in range(50):
            assert bms_pick(cands, scores, 4, rng) in cands

    def test_ties_are_uniform(self):
        # The earliest drawn of several tied maxima is equally likely to
        # be any of them, whether or not a lower level is present.
        rng = random.Random(17)
        n = 6_000
        for cands, scores in (
            ([4, 5, 6], {4: 2, 5: 2, 6: 2}),
            ([4, 5, 6, 7], {4: 2, 5: 1, 6: 2, 7: 2}),
        ):
            top = [v for v in cands if scores[v] == 2]
            counts = dict.fromkeys(cands, 0)
            for _ in range(n):
                counts[bms_pick(cands, scores, 50, rng)] += 1
            for v in top:
                # 5 standard deviations of a binomial count
                p = 1 / len(top)
                assert abs(counts[v] - n * p) < 5 * (n * p * (1 - p)) ** 0.5
            assert sum(counts[v] for v in top) == n

    def test_draw_counts(self):
        # A singleton draws nothing, an all-tied set of t draws one
        # randrange(t), and a two-level set whose top level wins draws one
        # random(); a twin generator replays exactly those draws.
        tied = [4, 5, 6]
        for seed in range(20):
            rng, twin = random.Random(seed), random.Random(seed)
            assert bms_pick([9], {9: -4}, 50, rng) == 9
            assert rng.getstate() == twin.getstate()
            pick = bms_pick(tied, dict.fromkeys(tied, 2), 50, rng)
            assert pick == tied[twin.randrange(3)]
            assert rng.getstate() == twin.getstate()
            assert bms_pick([1, 2], {1: 5, 2: 1}, 50, rng) == 1
            assert twin.random() >= 0.5**50
            assert rng.getstate() == twin.getstate()

    # 0.999 quantiles of the chi-square distribution by degrees of freedom
    CHI2_999 = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52}

    @pytest.mark.parametrize("sv_num", [1, 2, 3, 50])
    @pytest.mark.parametrize(
        "values",
        [
            (5, 1),
            (3, 3, 1),
            (2, 7, 7, 2),
            (5, 5, 3, 3, 3, 1),
            (3, 1, 2, 1, 3, 2),
        ],
    )
    def test_matches_best_of_sv_num(self, values, sv_num):
        # Pick frequencies of bms_pick and of the literal best-of-sv_num
        # loop (helpers.bms_reference) from independent generators, tested
        # for homogeneity: the two-sample chi-square statistic over the
        # candidates either rule picked must stay below its 0.999
        # quantile.  Low sv_num makes lower levels likely, so a rule that
        # always takes the maximum fails here.
        cands = [10 + i for i in range(len(values))]
        scores = dict(zip(cands, values))
        n = 6_000
        got = dict.fromkeys(cands, 0)
        want = dict.fromkeys(cands, 0)
        rng, ref_rng = random.Random(sv_num), random.Random(1000 + sv_num)
        for _ in range(n):
            got[bms_pick(cands, scores, sv_num, rng)] += 1
            want[bms_reference(cands, scores, sv_num, ref_rng)] += 1
        cells = [v for v in cands if got[v] + want[v]]
        chi2 = sum((got[v] - want[v]) ** 2 / (got[v] + want[v])
                   for v in cells)
        if len(cells) > 1:
            assert chi2 < self.CHI2_999[len(cells) - 1], (got, want)
        else:
            assert got == want

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            bms_pick([], {}, 10, random.Random(0))

    def test_accepts_score_list(self):
        # the engine's score list is subscriptable by variable as well
        score = [0, -2, 8, 1]
        assert bms_pick([1, 2, 3], score, 30, random.Random(2)) == 2


class TestSingleFlipStep:
    # fps_step in the single-flip baseline's mode
    SINGLE = SolverConfig(mode="single")

    def test_flips_good_var_singleton(self):
        f = Formula.build(num_vars=1, soft=[(1, [1])])
        st = SearchState(f, assignment=[False])
        assert set(st.good_vars.items) == {1}
        assert fps_step(st, self.SINGLE, random.Random(0))
        assert st.current_assignment() == [True]

    def test_escape_updates_weights_then_walks(self):
        # (x1) and (-x1) cancel out: score(x1) = 0, good_vars empty, yet
        # (x1) is falsified, so the step must escape
        f = Formula.build(num_vars=1, soft=[(1, [1]), (1, [-1])])
        st = RecordingState(f, assignment=[False])
        assert not st.good_vars.items
        before = list(st.dyn_weight)
        assert fps_step(st, self.SINGLE, random.Random(3))
        assert st.flip_log == [1]
        assert st.dyn_weight != before  # local optimum bumped a weight

    def test_escape_prefers_hard_clause(self):
        # hard (x1) falsified but flipping x1 breaks the heavier soft, so
        # good_vars is empty; the walk must still draw the hard clause
        f = Formula.build(num_vars=2, hard=[[1]], soft=[(5, [-1]), (1, [2])])
        st = RecordingState(f, assignment=[False, True])
        assert not st.good_vars.items
        assert st.falsified_hard.items and not st.falsified_soft.items
        assert fps_step(st, self.SINGLE, random.Random(3))
        assert st.flip_log == [1]

    def test_all_satisfied_returns_false(self):
        f = Formula.build(num_vars=1, hard=[[1]])
        st = SearchState(f, assignment=[True])
        assert not fps_step(st, self.SINGLE, random.Random(0))
        assert st.flips == 0


class TestFpsStep:
    def test_candidates_come_from_falsified_hard_clause(self):
        # hard (x1 v x2) and soft (x3) both falsified, and no single flip
        # helps: the hard clause outweighs the heavy soft units, so every
        # probed candidate is a variable of the hard clause
        f = Formula.build(
            num_vars=3,
            hard=[[1, 2]],
            soft=[(1, [3]), (5, [-1]), (5, [-2]), (5, [-3])],
        )
        for seed in range(20):
            st = RecordingState(f, assignment=[False, False, False])
            assert not st.good_vars.items
            assert st.falsified_hard.items and st.falsified_soft.items
            assert fps_step(st, SolverConfig(), random.Random(seed))
            assert st.probe_log
            assert all(x in (1, 2) for x, _ in st.probe_log)

    def test_worked_instance_escapes_by_pair(self):
        f = worked_instance()
        st = SearchState(f, assignment=[False, False])
        assert st.current_cost == 1
        assert not st.good_vars.items  # single-flip local optimum
        assert fps_step(st, SolverConfig(), random.Random(1))
        assert st.flips == 2
        assert st.current_cost == 0
        assert st.current_assignment() == [True, True]

    def test_all_probes_empty_flips_v1(self):
        # soft (x1) falsified, soft (-x1) satisfied: score(x1) = 0, and the
        # probed state has no positive score either, so s2 stays unset
        f = Formula.build(num_vars=1, soft=[(1, [1]), (1, [-1])])
        st = RecordingState(f, assignment=[False])
        assert not st.good_vars.items
        assert fps_step(st, SolverConfig(), random.Random(0))
        assert st.flip_log == [1]  # v1, not a pair
        assert all(pos == {} for _, pos in st.probe_log)

    def test_escape_validity_pair_mechanism(self):
        # at a local optimum: the first flipped variable must be one that
        # was probed, and the partner must be the BMS pick over exactly
        # that probe's positive-score set, which leaves the candidate out
        recorded = []
        real_bms = solver_mod.bms_pick

        def recording_bms(candidates, scores, sv_num, rng):
            pick = real_bms(candidates, scores, sv_num, rng)
            recorded.append((list(candidates), pick))
            return pick

        rng = random.Random(71)
        pair_steps = 0
        solver_mod.bms_pick = recording_bms
        try:
            for trial in range(40):
                f = planted_formula(rng, 8, 8, 14, weighted=True)
                st = RecordingState(f, rng=rng)
                drive_to_local_optimum(st, rng)
                if not (st.falsified_hard.items or st.falsified_soft.items):
                    continue
                st.flip_log.clear()
                st.probe_log.clear()
                recorded.clear()
                fps_step(st, SolverConfig(), rng)
                probed = {x: pos for x, pos in st.probe_log}
                if len(st.flip_log) == 2:
                    cand, partner = st.flip_log
                    assert cand in probed
                    assert partner != cand
                    assert partner in probed[cand]
                    assert cand not in probed[cand]
                    # the partner came from a BMS pick whose candidate set
                    # was exactly the probed positive-score set of cand
                    assert any(
                        pick == partner and set(cands) == set(probed[cand])
                        for cands, pick in recorded
                    )
                    pair_steps += 1
                else:
                    [v1] = st.flip_log
                    assert v1 in probed
        finally:
            solver_mod.bms_pick = real_bms
        assert pair_steps > 0  # the interesting branch was exercised

    @staticmethod
    def no_positive_pair_flips(x2_weight, seed):
        # Soft clauses, all false at the start: (x1 v x2) w1, (-x1) w2,
        # (-x2) w<x2_weight>, (-x2 v x3) w2, (-x3) w1.  Scores: x1 -1,
        # x2 -1 - x2_weight, x3 -1, so no single flip improves and
        # (x1 v x2) is the only falsified clause.  Probing x1 leaves no
        # positive score; probing x2 leaves x3 at +1, so the pair (x2, x3)
        # scores s2 = -x2_weight, never positive, against the single
        # candidate x1 at s1 = -1.  sp = 1 makes the weight update a
        # smoothing, a no-op at initial weights.
        f = Formula.build(
            num_vars=3,
            soft=[(1, [1, 2]), (2, [-1]), (x2_weight, [-2]), (2, [-2, 3]),
                  (1, [-3])],
        )
        weighting = WeightingParams(sp=1.0)
        st = RecordingState(f, weighting, assignment=[False] * 3)
        assert not st.good_vars.items
        assert (st.score[1], st.score[2]) == (-1, -1 - x2_weight)
        assert fps_step(st, SolverConfig(sc_num=50), random.Random(seed))
        assert dict(st.probe_log) == {1: {}, 2: {3: 1}}
        return st.flip_log

    def test_pair_preferred_on_tie(self):
        # no positive pair, s1 == s2: the pair is flipped
        for seed in range(3):
            assert self.no_positive_pair_flips(1, seed) == [2, 3]

    def test_single_preferred_when_better(self):
        # no positive pair, s1 > s2: the single candidate is flipped
        for seed in range(3):
            assert self.no_positive_pair_flips(2, seed) == [1]

    def test_early_stop_probes_fewer_candidates(self):
        # with early stop, the scan ends at the first positive pair
        f = worked_instance()
        st = RecordingState(f, assignment=[False, False])
        fps_step(st, SolverConfig(), random.Random(3))
        assert len(st.probe_log) == 1

    def test_random_walk_keeps_lookahead_and_early_stop(self):
        # the random-walk ablation only replaces the final selection; a
        # positive pair found during the scan is still flipped
        f = worked_instance()
        st = SearchState(f, assignment=[False, False])
        fps_step(st, SolverConfig(mode="fps-rw"), random.Random(1))
        assert st.flips == 2 and st.current_cost == 0

    def test_random_walk_when_no_pair_found(self):
        f = Formula.build(num_vars=1, soft=[(1, [1]), (1, [-1])])
        st = RecordingState(f, assignment=[False])
        assert fps_step(st, SolverConfig(mode="fps-rw"), random.Random(0))
        # walk flips one variable from the falsified clause
        assert st.flip_log == [1]

    def test_lookahead_always_skips_simple_flip(self):
        # good_vars nonempty: the step flips a member without probing and
        # without a weight update
        f = Formula.build(num_vars=2, soft=[(1, [1]), (1, [2])])
        st = RecordingState(f, assignment=[False, True])
        assert set(st.good_vars.items) == {1}
        weights_before = list(st.dyn_weight)
        assert fps_step(st, SolverConfig(), random.Random(5))
        assert st.dyn_weight == weights_before
        assert st.flip_log == [1]
        assert not st.probe_log

    def test_all_satisfied_returns_false(self):
        f = Formula.build(num_vars=1, hard=[[1]])
        st = SearchState(f, assignment=[True])
        assert not fps_step(st, SolverConfig(), random.Random(0))
        assert st.flips == 0


class TestSolve:
    def test_contradictory_hard_clauses(self):
        f = parse_wcnf("h 1 0\nh -1 0\n")
        res = solve(f, SolverConfig(max_flips=500))
        assert res.status is RunStatus.NO_FEASIBLE_FOUND
        assert res.best_cost == INFEASIBLE
        assert res.best_assignment is None

    def test_worked_instance_reaches_zero(self):
        res = solve(worked_instance(), SolverConfig(seed=1, max_flips=10_000))
        assert res.status is RunStatus.FEASIBLE
        assert res.best_cost == 0
        assert evaluate_cost(worked_instance(), res.best_assignment) == 0

    def test_zero_soft_clauses(self):
        f = Formula.build(num_vars=1, hard=[[1]])
        res = solve(f, SolverConfig(max_flips=100))
        assert res.status is RunStatus.FEASIBLE and res.best_cost == 0

    def test_zero_clause_formula(self):
        f = Formula.build(num_vars=3)
        res = solve(f, SolverConfig(max_flips=100))
        assert res.status is RunStatus.FEASIBLE
        assert res.best_cost == 0 and res.flips == 0
        assert res.improvement_trace == [(0.0, 0)]

    def test_empty_hard_clause(self):
        f = parse_wcnf("h 0\n1 1 0\n")
        res = solve(f, SolverConfig(max_flips=100))
        assert res.status is RunStatus.NO_FEASIBLE_FOUND

    def test_status_matches_fields(self):
        rng = random.Random(83)
        for _ in range(12):
            f = random_formula(rng, max_vars=10, max_clauses=30)
            for mode in MODES:
                cfg = SolverConfig(
                    mode=mode, seed=rng.randint(1, 99), max_flips=2_000
                )
                res = solve(f, cfg)
                if res.status is RunStatus.FEASIBLE:
                    assert res.best_assignment is not None
                    assert is_feasible(f, res.best_assignment)
                    assert evaluate_cost(f, res.best_assignment) == res.best_cost
                else:
                    assert res.best_assignment is None
                    assert res.best_cost == INFEASIBLE

    def test_determinism(self):
        f = planted_formula(random.Random(7), 10, 10, 16, weighted=True)
        cfg = dict(seed=12, max_flips=20_000)
        for mode in MODES:
            a = solve(f, SolverConfig(mode=mode, **cfg))
            b = solve(f, SolverConfig(mode=mode, **cfg))
            assert a.best_cost == b.best_cost
            assert a.flips == b.flips
            assert a.best_assignment == b.best_assignment
            assert [c for _, c in a.improvement_trace] == [
                c for _, c in b.improvement_trace
            ]

    def test_mode_dispatch(self, monkeypatch):
        # Every mode of the Python engine runs through solver.fps_step,
        # looked up when solve is called, so a wrapper installed on the
        # module (as a tracing benchmark does) takes effect.
        calls = self.record_steps(monkeypatch)
        monkeypatch.setattr(_kernel, "load", lambda: None)
        for mode in MODES:
            calls.clear()
            res = solve(worked_instance(), SolverConfig(mode=mode, max_flips=100))
            assert res.engine == "python"
            assert calls == [mode]

    def test_mode_dispatch_kernel(self, monkeypatch):
        # The kernel dispatches on the mode's position in MODES and calls
        # none of the Python step functions.
        if _kernel.load() is None:
            pytest.skip("the C kernel cannot be built here")
        calls = self.record_steps(monkeypatch)
        modes = []
        attach = _kernel.attach

        def recording_attach(*args):
            kernel = attach(*args)
            modes.append(kernel._st.mode)
            return kernel

        monkeypatch.setattr(_kernel, "attach", recording_attach)
        for mode in MODES:
            modes.clear()
            res = solve(worked_instance(), SolverConfig(mode=mode, max_flips=100))
            assert res.engine == "c" and res.flips > 0
            assert modes == [MODES.index(mode)]
        assert calls == []

    @staticmethod
    def record_steps(monkeypatch):
        calls = []

        def step(state, config, rng):
            calls.append(config.mode)
            return False

        monkeypatch.setattr(solver_mod, "fps_step", step)
        return calls

    def test_trace_strictly_decreasing(self):
        f = planted_formula(random.Random(9), 12, 12, 20, weighted=True)
        res = solve(f, SolverConfig(seed=3, max_flips=30_000))
        costs = [c for _, c in res.improvement_trace]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        if res.status is RunStatus.FEASIBLE:
            assert costs and costs[-1] == res.best_cost
        assert res.time_to_best_s <= res.elapsed_s + 1e-9

    def test_max_flips_budget(self):
        # conflicting soft units keep the optimum above zero, so the run
        # cannot end early with every clause satisfied
        f = conflicted_weighted_instance(random.Random(13), 10, 8, 14)
        res = solve(f, SolverConfig(seed=2, max_flips=1_000))
        # a pair flip may overshoot the budget by one
        assert 1_000 <= res.flips <= 1_001

    def test_time_limit_only(self):
        f = conflicted_weighted_instance(random.Random(15), 10, 8, 14)
        res = solve(f, SolverConfig(seed=2, time_limit=0.05))
        assert res.elapsed_s < 5.0
        assert res.flips > 0

    def test_on_improvement_callback_matches_trace(self):
        f = planted_formula(random.Random(17), 12, 12, 22, weighted=True)
        events = []
        res = solve(
            f,
            SolverConfig(seed=4, max_flips=20_000),
            on_improvement=lambda cost, elapsed: events.append(cost),
        )
        assert events == [c for _, c in res.improvement_trace]


class TestOutputPin:
    # sha256 of the complete `solve` stdout per (mode, seed).  The instance
    # is the 300-variable, 2,106-clause `lookahead` benchmark input (the
    # same bytes as perfbench/gen.py writes).  Seed 1 starts from the
    # planted model; seed 2 starts with 206 falsified hard clauses, so its
    # pins cover the climb to feasibility.  A mismatch means the seeded RNG
    # is consumed differently or clause/literal order changed; either must
    # be declared in CHANGES.md together with the new digests.
    PINNED = {
        ("fps", 1): "ff84e40685ee059b2cac710737d28215"
                    "15a2def16c554adb058c5d9a9b2cd3ec",
        ("single", 1): "4f629c944bbff7fc1c0dc70590f6882e"
                       "2b94c7ffb5e926fc854aff7a8ab3c4fa",
        ("fps-rw", 1): "5aea8afa8d9de943bdbf7d4fb300cf05"
                       "311cd93e0efd2bb31a46fc989c44f660",
        ("fps", 2): "ed2bf5c998bf828348d78f25846d4a7c"
                    "2c2b3e9c6ff656a7cebe45330173d334",
        ("single", 2): "abec0ba7700a291750f612c1c659f0e4"
                       "b23a3ea944fd75d4be3a6d9e617afe1a",
        ("fps-rw", 2): "968fb60fc74512db7edb8c51895423dd"
                       "6592cf891c0c100036c3d8eb3ed51254",
    }
    # The same instance with every soft weight set to 1, which takes the
    # unweighted weighting defaults, at 30,000 flips.  Seed 1 improves on
    # its feasible start (431 to 380); seed 2 starts infeasible and its
    # one `o` line is the first feasible model the search reaches.
    PINNED_UNWEIGHTED = {
        ("fps", 1): "18e528477dfff71accf3c447c74401bd"
                    "ed0314714c12ccb00a6bedb9716224d1",
        ("single", 1): "a3ba48ebce7ae6993631e5861cef9767"
                       "63799c686b8a0cc8fd646c7b260721b9",
        ("fps-rw", 1): "aebf012219eb39853ada51def6bf0b66"
                       "b196477a7c418a2c65ad03ae8866bfdb",
        ("fps", 2): "e261fc858f9e3781761c8859ad19f610"
                    "a81a7a93095ac55cff3221bea6485285",
        ("single", 2): "89c90db8434d6bc299b96cdab2dea39f"
                       "009136fa07bbacda3fd9a7fe8f3cacaf",
        ("fps-rw", 2): "a71ac9e9e018b40a89e07953010b7b5d"
                       "c35c064910f800aa18fae264834b2099",
    }

    def test_pins_every_mode(self):
        every = {(m, s) for m in MODES for s in (1, 2)}
        assert set(self.PINNED) == set(self.PINNED_UNWEIGHTED) == every

    def test_solve_output_bytes_pinned(self, tmp_path):
        # whichever engine solve picks: the kernel where it can be built
        self.check_weighted(tmp_path)

    def test_solve_output_bytes_pinned_python(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_kernel, "load", lambda: None)
        self.check_weighted(tmp_path)

    def test_unweighted_output_bytes_pinned(self, tmp_path):
        self.check_unweighted(tmp_path)

    def test_unweighted_output_bytes_pinned_python(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(_kernel, "load", lambda: None)
        self.check_unweighted(tmp_path)

    def check_weighted(self, tmp_path):
        self.check_digests(tmp_path, self.lookahead(), self.PINNED, 20000,
                           min_found={1: 2, 2: 2})

    def check_unweighted(self, tmp_path):
        self.check_digests(tmp_path, unit_weights(self.lookahead()),
                           self.PINNED_UNWEIGHTED, 30000,
                           min_found={1: 2, 2: 1})

    @staticmethod
    def lookahead():
        return conflicted_weighted_instance(random.Random(1), 300, 700, 1400)

    @staticmethod
    def check_digests(tmp_path, formula, pinned, max_flips, min_found):
        path = tmp_path / "instance.wcnf"
        path.write_text(write_wcnf(formula))
        for (mode, seed), digest in pinned.items():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["solve", str(path), "--mode", mode,
                             "--seed", str(seed),
                             "--max-flips", str(max_flips)])
            assert code == 0
            out = buf.getvalue()
            # a run that reaches no model of its own would pin nothing
            # but its start
            found = sum(line.startswith("o ") for line in out.splitlines())
            assert found >= min_found[seed], (mode, seed)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, \
                (mode, seed)
