"""The compiled kernel against the Python engine, its build, and fallbacks.

The Python engine is the reference.  The differential tests run both
engines from the same state and seed to several flip checkpoints and
require every maintained quantity, the order of every ``IndexedSet``, the
best solution and the generator state to be equal.
"""

import math
import os
import random
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fps_maxsat import _kernel
from fps_maxsat.engine import SearchState, WeightingParams
from fps_maxsat.formula import Formula
from fps_maxsat.solver import (
    MODES,
    SolverConfig,
    fps_step,
    single_flip_step,
    solve,
)

from helpers import (
    assert_state_consistent,
    conflicted_weighted_instance,
    rescan,
)

requires_kernel = pytest.mark.skipif(
    _kernel.load() is None, reason="the C kernel cannot be built here"
)

CHECKPOINTS = (0, 1, 25, 400, 3_000, 12_000)


def lookahead_instance():
    return conflicted_weighted_instance(random.Random(1), 300, 700, 1400)


def full_snapshot(state, rng):
    """Every field either engine writes, in order, plus the generator."""
    return {
        "assign": list(state.assign),
        "score": list(state.score),
        "sat_count": list(state.sat_count),
        "tv": list(state.tv),
        "dyn_weight": list(state.dyn_weight),
        "falsified_hard": list(state.falsified_hard.items),
        "falsified_soft": list(state.falsified_soft.items),
        "good_vars": list(state.good_vars.items),
        "soft_falsified_weight": state.soft_falsified_weight,
        "flips": state.flips,
        "best_cost": state.best_cost,
        "best_assign": state.best_assign,
        "rng": rng.getstate(),
    }


def python_run_to(state, config, rng, flips, improvements):
    step = single_flip_step if config.mode == "single" else fps_step
    while state.flips < flips:
        before = state.best_cost
        if not step(state, config, rng):
            return
        if state.best_cost < before:
            improvements.append(state.best_cost)


def kernel_run_to(state, config, rng, flips, improvements):
    kernel = _kernel.attach(state, config, rng)
    assert kernel is not None
    try:
        while True:
            status = kernel.run(flips, math.inf)
            assert status != _kernel.HANDBACK
            if status == _kernel.IMPROVED:
                improvements.append(state.best_cost)
            if status in (_kernel.BUDGET, _kernel.DONE):
                return
    finally:
        kernel.detach()


def assert_engines_agree(formula, config, checkpoints=CHECKPOINTS,
                         weighting=None):
    """Run both engines to each checkpoint; the kernel re-attaches at each.

    ``weighting`` defaults to the formula's ``WeightingParams.defaults_for``.
    """
    states = []
    for _ in range(2):
        rng = random.Random(config.seed)
        states.append((SearchState(formula, weighting, rng=rng), rng, []))
    (py, py_rng, py_imp), (c, c_rng, c_imp) = states
    for flips in checkpoints:
        python_run_to(py, config, py_rng, flips, py_imp)
        kernel_run_to(c, config, c_rng, flips, c_imp)
        assert full_snapshot(c, c_rng) == full_snapshot(py, py_rng), flips
        assert c_imp == py_imp, flips
        assert_state_consistent(c)


@requires_kernel
class TestDifferential:
    @pytest.mark.parametrize("mode", MODES)
    def test_lookahead_instance(self, mode):
        assert_engines_agree(
            lookahead_instance(), SolverConfig(mode=mode, seed=7)
        )

    @pytest.mark.parametrize("sv_num", [1, 2])
    @pytest.mark.parametrize("mode", ["fps", "fps-rw"])
    def test_partner_from_lower_levels(self, mode, sv_num):
        # With few BMS draws the partner pick often passes over the top
        # score level, a branch sv_num = 50 almost never reaches.
        assert_engines_agree(
            lookahead_instance(),
            SolverConfig(mode=mode, seed=7, sv_num=sv_num),
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_soft_clauses_capped_and_smoothed(self, mode):
        # Soft clauses start at 1 and cap at 2, and half the weight updates
        # smooth: clauses reach the cap, are smoothed below it while
        # satisfied and are falsified again, so the kernel's record of
        # which falsified soft clauses are below the cap keeps changing.
        weighting = WeightingParams(sp=0.5, soft_cap=2)
        assert_engines_agree(
            lookahead_instance(), SolverConfig(mode=mode, seed=7),
            weighting=weighting,
        )

    @pytest.mark.parametrize("mode", ["single", "fps-rw"])
    def test_long_clauses_random_walk(self, mode):
        # Clauses far longer than any fixed tie buffer: the random walk
        # breaks ties among up to 200 equal scores.
        rng = random.Random(5)
        n = 200
        hard = [
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n + 1), rng.randint(100, n))]
            for _ in range(6)
        ]
        soft = [(1, [rng.choice((v, -v))]) for v in range(1, n + 1)]
        formula = Formula.build(num_vars=n, hard=hard, soft=soft)
        assert_engines_agree(
            formula, SolverConfig(mode=mode, seed=3), (0, 50, 2_000)
        )

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_weighted_family(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        clause = st.lists(
            st.integers(1, n), min_size=1, max_size=min(n, 5), unique=True
        ).flatmap(
            lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
        )
        hard = data.draw(st.lists(clause, max_size=10), label="hard")
        soft = data.draw(
            st.lists(st.tuples(st.integers(1, 60), clause), max_size=20),
            label="soft",
        )
        formula = Formula.build(num_vars=n, hard=hard, soft=soft)
        config = SolverConfig(
            mode=data.draw(st.sampled_from(MODES), label="mode"),
            seed=data.draw(st.integers(0, 2**32), label="seed"),
            sc_num=data.draw(st.integers(1, 30), label="sc_num"),
            sv_num=data.draw(st.integers(1, 60), label="sv_num"),
        )
        assert_engines_agree(formula, config, (0, 1, 40, 600))

    @pytest.mark.parametrize("mode", MODES)
    def test_solve_results_agree(self, mode, monkeypatch):
        config = SolverConfig(mode=mode, seed=11, max_flips=15_000)
        formula = lookahead_instance()
        c = solve(formula, config)
        monkeypatch.setattr(_kernel, "load", lambda: None)
        py = solve(formula, config)
        assert (c.engine, py.engine) == ("c", "python")
        assert c.best_cost == py.best_cost
        assert c.best_assignment == py.best_assignment
        assert c.flips == py.flips
        assert [k for _, k in c.improvement_trace] == [
            k for _, k in py.improvement_trace
        ]


def pure_python(formula, config, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        return solve(formula, config)


def assert_same_run(a, b):
    assert a.status == b.status
    assert a.best_cost == b.best_cost
    assert a.best_assignment == b.best_assignment
    assert a.flips == b.flips
    assert [k for _, k in a.improvement_trace] == [
        k for _, k in b.improvement_trace
    ]


class TestFallback:
    @pytest.mark.parametrize(
        "compiler",
        [
            ["/nonexistent/bin/cc"],
            [sys.executable, "-c", "raise SystemExit(1)"],
        ],
        ids=["missing", "failing"],
    )
    def test_compiler_failure_runs_python(self, compiler, monkeypatch,
                                          tmp_path):
        formula = lookahead_instance()
        config = SolverConfig(seed=2, max_flips=3_000)
        reference = pure_python(formula, config, monkeypatch)
        monkeypatch.setattr(_kernel, "_compiler", lambda: compiler)
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(_kernel, "_loaded", False)
        monkeypatch.setattr(_kernel, "_lib", None)
        res = solve(formula, config)
        assert _kernel.load() is None
        assert res.engine == "python"
        assert_same_run(res, reference)
        # no half-written build is left behind
        assert not list((tmp_path / "cache").glob("*"))

    def test_oversized_weight_declined_at_start(self, monkeypatch):
        big = 2**61
        formula = Formula.build(
            num_vars=3,
            hard=[[1, 2]],
            soft=[(big, [-1]), (big, [-2]), (3, [3]), (2, [-3])],
        )
        config = SolverConfig(seed=4, max_flips=500)
        rng = random.Random(4)
        assert _kernel.attach(SearchState(formula, rng=rng), config, rng) \
            is None
        res = solve(formula, config)
        assert res.engine == "python"
        assert_same_run(res, pure_python(formula, config, monkeypatch))

    @requires_kernel
    def test_overflow_hands_back_mid_run(self, monkeypatch):
        # Contradictory hard units stay falsified, so every local optimum
        # bumps a hard clause by ceil(mean soft weight) = 2**55; about 20
        # bumps bring the weights to 2**62 / (largest occurrence count).
        w = 2**55
        formula = Formula.build(
            num_vars=4,
            hard=[[1], [-1]],
            soft=[(w, [1, 2]), (w, [-2, 3]), (w, [-3, 4]), (w, [-4, -1])],
        )
        config = SolverConfig(seed=9, max_flips=3_000)
        statuses = []
        run = _kernel.Kernel.run

        def recording_run(self, max_flips, remaining_s):
            statuses.append(run(self, max_flips, remaining_s))
            return statuses[-1]

        monkeypatch.setattr(_kernel.Kernel, "run", recording_run)
        res = solve(formula, config)
        assert statuses and statuses[-1] == _kernel.HANDBACK
        assert 0 < res.flips and res.engine == "python"
        assert_same_run(res, pure_python(formula, config, monkeypatch))

    @requires_kernel
    def test_repeated_variable_declined(self):
        # tv[c] needs one literal per variable per clause; SearchState
        # refuses such a clause, and so does fk_init.
        formula = Formula.build(num_vars=3, hard=[[1, 2]], soft=[(1, [-1, 3])])
        rng = random.Random(1)
        state = SearchState(formula, rng=rng)
        kernel = _kernel.attach(state, SolverConfig(), rng)
        assert kernel is not None
        kernel.detach()
        for clause in ((-1, 3, -1), (-1, 3, 1), (3, -1, 3)):
            state.formula = Formula(
                num_vars=3, clauses=((1, 2), clause), weights=(0, 1)
            )
            # tv as fk_init computes it, so only the repeat is at fault
            state.tv[:] = rescan(state)["tv"]
            assert _kernel.attach(state, SolverConfig(), rng) is None

    @requires_kernel
    def test_wrong_true_variables_declined(self):
        # fk_init checks every tv[c] against the assignment: a state whose
        # record of true variables is off stays in Python.
        formula = lookahead_instance()
        rng = random.Random(1)
        state = SearchState(formula, rng=rng)
        kernel = _kernel.attach(state, SolverConfig(), rng)
        assert kernel is not None
        kernel.detach()
        c = next(c for c, k in enumerate(state.sat_count) if k == 1)
        state.tv[c] ^= 1
        assert _kernel.attach(state, SolverConfig(), rng) is None

    def test_int32_sizes_declined(self, monkeypatch):
        formula = lookahead_instance()
        rng = random.Random(1)
        state = SearchState(formula, rng=rng)
        monkeypatch.setattr(_kernel, "_INT32_MAX", formula.num_vars - 1)
        assert _kernel.attach(state, SolverConfig(), rng) is None


class TestBuild:
    def test_compiles_without_warnings(self, tmp_path):
        compiler = _kernel._compiler()
        if shutil.which(compiler[0]) is None:
            pytest.skip(f"no C compiler found ({compiler[0]})")
        proc = subprocess.run(
            [*compiler, *_kernel.CFLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "kernel.so"), str(_kernel.SOURCE),
             *_kernel.LDLIBS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    @requires_kernel
    def test_cached_build_is_reused(self, monkeypatch, tmp_path):
        assert _kernel.build(_kernel.SOURCE, tmp_path) is not None
        built = list(tmp_path.glob("_kernel-*.so"))
        assert len(built) == 1
        # A second process finds the build and never calls the compiler.
        monkeypatch.setattr(_kernel, "_compiler", lambda: ["/nonexistent/cc"])
        assert _kernel.build(_kernel.SOURCE, tmp_path) is not None
        assert list(tmp_path.glob("*")) == built

    @requires_kernel
    def test_new_build_removes_stale_builds(self, tmp_path):
        machine = os.uname().machine
        stale = tmp_path / f"_kernel-deadbeef-{machine}.so"
        stale.write_bytes(b"an older build")
        other = tmp_path / "notes.txt"
        other.write_text("unrelated")
        assert _kernel.build(_kernel.SOURCE, tmp_path) is not None
        built = list(tmp_path.glob("_kernel-*.so"))
        assert len(built) == 1 and built[0] != stale
        assert other.read_text() == "unrelated"

    def test_differential_under_ubsan(self, tmp_path):
        # The lookahead differential check of every mode, run through a
        # kernel built with the undefined-behaviour sanitizer.  A report
        # aborts the child, so a fault fails this test with the report in
        # its stderr instead of taking the test process down.
        script = f"""
import sys
from fps_maxsat import _kernel
_kernel.CFLAGS += ("-fsanitize=undefined", "-fno-sanitize-recover=all")
lib = _kernel.build(_kernel.SOURCE, _kernel.Path({str(tmp_path)!r}))
if lib is None:
    sys.exit(77)
_kernel._lib, _kernel._loaded = lib, True
from test_kernel import MODES, SolverConfig, assert_engines_agree, \\
    lookahead_instance
for mode in MODES:
    assert_engines_agree(lookahead_instance(), SolverConfig(mode=mode, seed=7))
"""
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.dirname(os.path.dirname(_kernel.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        if proc.returncode == 77:
            pytest.skip("the kernel cannot be built with -fsanitize=undefined")
        assert proc.returncode == 0, proc.stderr
