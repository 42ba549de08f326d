"""Incremental search state: flips, probes, weighting, exact bookkeeping."""

import math
import pickle
import random

import pytest

from fps_maxsat.engine import (
    IndexedSet,
    SearchState,
    WeightingParams,
)
from fps_maxsat.formula import INFEASIBLE, Formula, parse_wcnf

from helpers import (
    assert_indexed_set_ok,
    assert_state_consistent,
    flipped_copy,
    probe_reference,
    random_formula,
    rescan_scores,
    snapshot,
)


def soft_unit() -> Formula:
    return Formula.build(num_vars=1, soft=[(1, [1])])


class ScriptedRng:
    """random.Random stand-in whose .random() values are pre-scripted."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestIndexedSet:
    def test_basic_operations(self):
        s = IndexedSet()
        for x in (4, 7, 9):
            s.add(x)
        assert len(s) == 3 and 7 in s and 5 not in s
        s.discard(7)
        assert 7 not in s and len(s) == 2
        s.discard(7)  # absent: no-op
        assert sorted(s) == [4, 9]
        assert_indexed_set_ok(s)

    def test_swap_remove_keeps_positions(self):
        s = IndexedSet(range(10))
        for x in (0, 9, 4, 5):
            s.discard(x)
            assert_indexed_set_ok(s)
        assert sorted(s) == [1, 2, 3, 6, 7, 8]

    def test_choose_is_uniform_member(self):
        s = IndexedSet([3, 5, 8])
        rng = random.Random(1)
        seen = {s.choose(rng) for _ in range(200)}
        assert seen == {3, 5, 8}


class TestWeightingParams:
    def test_unweighted_defaults(self):
        f = parse_wcnf("h 1 2 0\n1 -1 0\n")
        wp = WeightingParams.defaults_for(f)
        assert wp == WeightingParams(hard_weight=1, sp=0.01, soft_cap=100)

    def test_weighted_defaults(self):
        f = parse_wcnf("h 1 2 0\n3 -1 0\n5 2 0\n")
        wp = WeightingParams.defaults_for(f)
        # hard weight (start and bump) is the mean soft weight, rounded up
        assert wp.hard_weight == math.ceil((3 + 5) / 2) == 4
        assert wp.sp == 0.01
        assert wp.soft_cap == 50  # 10x the largest original soft weight

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightingParams(hard_weight=0)
        with pytest.raises(ValueError):
            WeightingParams(sp=1.5)
        with pytest.raises(ValueError):
            WeightingParams(soft_cap=0)

    def test_frozen_value_record(self):
        wp = WeightingParams(sp=0.5, soft_cap=3)
        assert wp == WeightingParams(soft_cap=3, sp=0.5) != WeightingParams()
        assert hash(wp) == hash(pickle.loads(pickle.dumps(wp)))
        assert pickle.loads(pickle.dumps(wp)) == wp
        assert eval(repr(wp), {"WeightingParams": WeightingParams}) == wp
        with pytest.raises(AttributeError):
            wp.sp = 0.1
        assert wp.sp == 0.5


class TestInit:
    def test_zero_clause_formula(self):
        st = SearchState(Formula.build(num_vars=2), rng=random.Random(0))
        assert not st.falsified_hard.items and not st.falsified_soft.items
        assert st.score == [0, 0, 0]
        assert st.current_cost == 0 and st.best_cost == 0

    def test_soft_unit_false(self):
        st = SearchState(soft_unit(), assignment=[False])
        assert set(st.falsified_soft.items) == {0}
        assert st.score[1] == 1
        assert set(st.good_vars.items) == {1}
        assert st.current_cost == 1

    def test_soft_unit_true(self):
        st = SearchState(soft_unit(), assignment=[True])
        assert not st.falsified_soft.items
        assert st.score[1] == -1
        assert not st.good_vars.items
        assert st.current_cost == 0

    def test_assignment_comes_from_rng(self):
        f = Formula.build(num_vars=6, soft=[(1, [1, 2])])
        st = SearchState(f, rng=random.Random(7))
        twin = random.Random(7)
        expected = [twin.random() < 0.5 for _ in range(6)]
        assert st.assign[1:] == expected

    def test_rng_or_assignment_required(self):
        with pytest.raises(ValueError):
            SearchState(soft_unit())
        with pytest.raises(ValueError, match="length"):
            SearchState(soft_unit(), assignment=[True, False])

    @pytest.mark.parametrize(
        "clause", [(1, 2, 1), (-2, 3, -2), (1, -1), (2, 3, -3)],
        ids=["repeat-pos", "repeat-neg", "tautology", "tautology-last"],
    )
    @pytest.mark.parametrize("weight", [0, 4], ids=["hard", "soft"])
    def test_clause_naming_a_variable_twice_rejected(self, clause, weight):
        # parse_wcnf and Formula.build normalise such clauses away; a
        # directly constructed Formula does not.
        f = Formula(num_vars=3, clauses=((1, 2), clause), weights=(1, weight))
        with pytest.raises(ValueError, match="clause 1 names a variable"):
            SearchState(f, rng=random.Random(0))

    def test_weighted_initial_weights(self):
        f = parse_wcnf("h 1 2 0\n3 -1 0\n5 2 0\n")
        st = SearchState(f, rng=random.Random(0))
        assert st.dyn_weight == [4, 3, 5]
        # the formula's weight array is shared, not copied
        assert st.soft_weight is f.soft_weight

    def test_unweighted_initial_weights(self):
        f = parse_wcnf("h 1 2 0\n1 -1 0\n1 2 0\n")
        st = SearchState(f, rng=random.Random(0))
        assert st.dyn_weight == [1, 1, 1]

    def test_best_seeded_from_feasible_init(self):
        st = SearchState(soft_unit(), assignment=[False])
        assert st.best_cost == 1 and st.best_assignment() == [False]

    def test_infeasible_init_leaves_best_unset(self):
        f = parse_wcnf("h 1 0\nh -1 0\n")
        st = SearchState(f, assignment=[True])
        assert st.best_cost == INFEASIBLE and st.best_assignment() is None

    def test_empty_hard_clause_never_feasible(self):
        f = parse_wcnf("h 0\n1 1 0\n")
        st = SearchState(f, assignment=[True])
        assert st.current_cost == INFEASIBLE
        st.flip(1)
        st.flip(1)
        assert st.best_cost == INFEASIBLE and st.best_assignment() is None

    def test_soft_offset_included_in_cost(self):
        f = parse_wcnf("5 0\n2 1 0\n")
        st = SearchState(f, assignment=[False])
        assert st.current_cost == 7
        st.flip(1)
        assert st.current_cost == 5 and st.best_cost == 5


class TestFlip:
    def test_example_flipimproves(self):
        st = SearchState(soft_unit(), assignment=[False])
        st.flip(1)
        assert st.current_cost == 0 and st.score[1] == -1
        assert st.flips == 1

    def test_involution(self):
        rng = random.Random(21)
        for _ in range(25):
            f = random_formula(rng, max_vars=12, max_clauses=40)
            st = SearchState(f, rng=rng)
            x = rng.randint(1, f.num_vars)
            before = snapshot(st)
            st.flip(x)
            st.flip(x)
            after = snapshot(st)
            for key in ("assign", "sat_count", "score", "dyn_weight",
                        "falsified_hard", "falsified_soft", "good_vars",
                        "soft_falsified_weight", "tv",
                        "current_cost"):
                assert after[key] == before[key], key
            assert after["flips"] == before["flips"] + 2

    def test_out_of_range(self):
        st = SearchState(soft_unit(), assignment=[True])
        with pytest.raises(ValueError):
            st.flip(0)
        with pytest.raises(ValueError):
            st.flip(2)

    def test_incremental_matches_rescan(self):
        rng = random.Random(31)
        for _ in range(25):
            f = random_formula(rng, max_vars=12, max_clauses=40)
            st = SearchState(f, rng=rng)
            for _ in range(30):
                st.flip(rng.randint(1, f.num_vars))
            assert_state_consistent(st)

    def test_best_updates_only_on_strict_improvement(self):
        f = Formula.build(num_vars=2, soft=[(1, [1]), (1, [2])])
        st = SearchState(f, assignment=[False, False])
        assert st.best_cost == 2
        st.flip(1)
        assert st.best_cost == 1
        first_best = st.best_assignment()
        st.flip(1)  # back to cost 2: no update
        assert st.best_cost == 1 and st.best_assignment() == first_best
        st.flip(2)  # cost 1 again, not strictly better: no update
        assert st.best_assignment() == first_best
        st.flip(1)  # cost 0
        assert st.best_cost == 0 and st.best_assignment() == [True, True]

    def test_best_ignores_infeasible_states(self):
        f = parse_wcnf("h 1 0\n1 -1 0\n")
        st = SearchState(f, assignment=[True])  # feasible, cost 1
        assert st.best_cost == 1
        st.flip(1)  # hard clause falsified, soft satisfied
        assert st.current_cost == INFEASIBLE
        assert st.best_cost == 1 and st.best_assignment() == [True]


class TestProbe:
    def test_probe_leaves_state_identical(self):
        rng = random.Random(41)
        for _ in range(25):
            f = random_formula(rng, max_vars=12, max_clauses=40)
            st = SearchState(f, rng=rng)
            x = rng.randint(1, f.num_vars)
            before = snapshot(st)
            st.probed_positive_scores(x)
            assert snapshot(st) == before
            # the copy-and-flip reference leaves the original alone too
            flipped_copy(st, x)
            assert snapshot(st) == before

    def test_probed_scores_match_rescan_of_flipped(self):
        rng = random.Random(43)
        for _ in range(15):
            f = random_formula(rng, max_vars=10, max_clauses=30)
            st = SearchState(f, rng=rng)
            x = rng.randint(1, f.num_vars)
            twin = flipped_copy(st, x)
            # the flipped copy's incremental scores match an independent
            # recomputation from its assignment, and the probe agrees
            ref = rescan_scores(twin)
            assert list(twin.score) == ref
            assert set(twin.good_vars.items) == {
                v for v in range(1, f.num_vars + 1) if ref[v] > 0
            }
            probed = st.probed_positive_scores(x)
            assert probed == {
                v: ref[v]
                for v in range(1, f.num_vars + 1)
                if ref[v] > 0 and v != x
            }
            assert x not in probed

    def test_probe_never_touches_best_or_flips(self):
        st = SearchState(soft_unit(), assignment=[False])
        assert st.best_cost == 1
        # the probed state is feasible with cost 0, strictly better
        assert flipped_copy(st, 1).current_cost == 0
        st.probed_positive_scores(1)
        assert st.best_cost == 1 and st.flips == 0

    def test_probe_out_of_range(self):
        st = SearchState(soft_unit(), assignment=[False])
        for x in (0, -1):
            with pytest.raises(ValueError):
                st.probed_positive_scores(x)


class TestProbedPositiveScores:
    def test_matches_real_probe(self):
        rng = random.Random(47)
        for _ in range(40):
            f = random_formula(rng, max_vars=12, max_clauses=40)
            st = SearchState(f, rng=rng)
            for _ in range(rng.randint(0, 60)):
                if rng.random() < 0.2:
                    st.update_weights(rng)
                else:
                    st.flip(rng.randint(1, f.num_vars))
            for x in range(1, f.num_vars + 1):
                fast = st.probed_positive_scores(x)
                assert fast == probe_reference(st, x), x
                assert x not in fast
                ref = rescan_scores(flipped_copy(st, x))
                assert fast == {
                    v: ref[v]
                    for v in range(1, f.num_vars + 1)
                    if ref[v] > 0 and v != x
                }, x

    def test_is_read_only(self):
        st = SearchState(soft_unit(), assignment=[False])
        before = snapshot(st)
        assert st.probed_positive_scores(1) == {}
        assert snapshot(st) == before

    def test_out_of_range(self):
        st = SearchState(soft_unit(), assignment=[False])
        with pytest.raises(ValueError):
            st.probed_positive_scores(2)


class TestUpdateWeights:
    def test_bump_path_increments_exactly(self):
        # hard (x1 v x2) and soft (x2) falsified; soft (-x1) satisfied
        f = parse_wcnf("h 1 2 0\n3 -1 0\n5 2 0\n")
        st = SearchState(f, assignment=[False, False])
        wp = st.weighting
        assert st.dyn_weight == [4, 3, 5]
        st.update_weights(ScriptedRng([0.99]))  # above sp: bump path
        # the hard clause gains hard_weight, the soft clause 1
        assert st.dyn_weight == [4 + wp.hard_weight, 3, 5 + 1]
        assert list(st.score) == rescan_scores(st)
        assert set(st.good_vars.items) == {
            v for v in (1, 2) if st.score[v] > 0
        }

    def test_hard_clauses_bumped_past_soft_cap(self):
        # the soft cap does not apply to hard clauses
        f = Formula.build(num_vars=1, hard=[[1]])
        wp = WeightingParams(soft_cap=3)
        st = SearchState(f, weighting=wp, assignment=[False])
        for _ in range(10):
            st.update_weights(ScriptedRng([0.99]))
        assert st.dyn_weight == [1 + 10 * wp.hard_weight]
        assert st.score[1] == st.dyn_weight[0]
        assert list(st.good_vars) == [1]

    def test_soft_cap_respected(self):
        f = Formula.build(num_vars=1, soft=[(1, [1])])
        wp = WeightingParams(soft_cap=3)
        st = SearchState(f, weighting=wp, assignment=[False])
        for _ in range(10):
            st.update_weights(ScriptedRng([0.99]))
        assert st.dyn_weight == [3]

    def test_smoothing_noop_at_initial_weights(self):
        f = parse_wcnf("h 1 2 0\n3 -1 0\n5 2 0\n")
        st = SearchState(f, assignment=[True, True])
        before = snapshot(st)
        st.update_weights(ScriptedRng([0.0]))  # below sp: smoothing path
        assert snapshot(st) == before

    def test_smoothing_decrements_raised_satisfied_clauses(self):
        # soft (x1) satisfied, soft (x2) falsified
        f = Formula.build(num_vars=2, soft=[(1, [1]), (1, [2])])
        st = SearchState(f, assignment=[True, False])
        st.update_weights(ScriptedRng([0.99]))
        st.update_weights(ScriptedRng([0.99]))
        assert st.dyn_weight == [1, 3]
        st.flip(2)  # now both satisfied, clause 1 above its initial weight
        st.update_weights(ScriptedRng([0.0]))
        assert st.dyn_weight == [1, 2]  # only the raised one decremented
        assert list(st.score) == rescan_scores(st)
        st.update_weights(ScriptedRng([0.0]))
        st.update_weights(ScriptedRng([0.0]))
        # floor: never below the initial weight
        assert st.dyn_weight == [1, 1]

    def test_smoothing_skips_falsified_clauses(self):
        f = Formula.build(num_vars=1, soft=[(1, [1])])
        st = SearchState(f, assignment=[False])
        st.update_weights(ScriptedRng([0.99]))
        assert st.dyn_weight == [2]
        st.update_weights(ScriptedRng([0.0]))  # smoothing, clause falsified
        assert st.dyn_weight == [2]

    def test_weight_floor_and_cap_property(self):
        rng = random.Random(53)
        for _ in range(10):
            f = random_formula(rng, max_vars=10, max_clauses=30)
            st = SearchState(f, rng=rng)
            cap = st.weighting.soft_cap
            for _ in range(50):
                if rng.random() < 0.5:
                    st.update_weights(rng)
                else:
                    st.flip(rng.randint(1, f.num_vars))
            assert all(w >= 1 for w in st.dyn_weight)
            for c in range(len(st.dyn_weight)):
                if st.soft_weight[c]:
                    assert st.dyn_weight[c] <= max(cap, st.init_weight[c])


class TestConsistencyFuzz:
    def test_interleaved_operations(self):
        # scaled-down version of the acceptance consistency suite
        rng = random.Random(61)
        for _ in range(30):
            f = random_formula(rng, max_vars=14, max_clauses=50)
            st = SearchState(f, rng=rng)
            for i in range(400):
                op = rng.random()
                if op < 0.65:
                    st.flip(rng.randint(1, f.num_vars))
                elif op < 0.80:
                    st.probed_positive_scores(rng.randint(1, f.num_vars))
                else:
                    st.update_weights(rng)
                if i % 100 == 99:
                    assert_state_consistent(st)
            assert_state_consistent(st)
            # monotone best: re-verify against the from-scratch oracle
            if st.best_assign is not None:
                from fps_maxsat.formula import evaluate_cost

                assert evaluate_cost(f, st.best_assignment()) == st.best_cost
