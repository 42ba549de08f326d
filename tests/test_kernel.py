"""The compiled kernel against the Python engine, its build, and fallbacks.

The Python engine is the reference.  The differential tests start both
engines from the same formula, weighting and seed (the kernel builds its
own initial state), run them to several flip checkpoints and require every
maintained quantity, the order of every ``IndexedSet``, the best solution
and the generator state to be equal.
"""

from array import array
import ctypes
import math
import os
import random
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fps_maxsat import _kernel
from fps_maxsat.engine import SearchState, WeightingParams
from fps_maxsat.formula import Formula, _layout
from fps_maxsat.solver import (
    MODES,
    SolverConfig,
    fps_step,
    solve,
)

from helpers import (
    assert_state_consistent,
    conflicted_weighted_instance,
    planted_formula,
    unit_weights,
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
    while state.flips < flips:
        before = state.best_cost
        if not fps_step(state, config, rng):
            return
        if state.best_cost < before:
            improvements.append(state.best_cost)


def kernel_run_to(kernel, flips, improvements):
    while True:
        status = kernel.run(flips, math.inf)
        assert status != _kernel.HANDBACK
        if status == _kernel.IMPROVED:
            improvements.append(kernel.best_cost)
        if status in (_kernel.BUDGET, _kernel.DONE):
            return


def attached(formula, config, weighting=None):
    """A Python engine state and a kernel run of the same start."""
    if weighting is None:
        weighting = WeightingParams.defaults_for(formula)
    py_rng, c_rng = random.Random(config.seed), random.Random(config.seed)
    kernel = _kernel.attach(formula, weighting, config, c_rng)
    assert kernel is not None
    return (SearchState(formula, weighting, rng=py_rng), py_rng), \
        (kernel, c_rng)


def assert_engines_agree(formula, config, checkpoints=CHECKPOINTS,
                         weighting=None):
    """Run both engines to each checkpoint and compare their states.

    ``weighting`` defaults to the formula's ``WeightingParams.defaults_for``.
    The kernel runs on after each comparison.
    """
    (py, py_rng), (kernel, c_rng) = attached(formula, config, weighting)
    py_imp, c_imp = [], []
    try:
        for flips in checkpoints:
            python_run_to(py, config, py_rng, flips, py_imp)
            kernel_run_to(kernel, flips, c_imp)
            c = kernel.state()
            assert full_snapshot(c, c_rng) == full_snapshot(py, py_rng), flips
            assert c_imp == py_imp, flips
            assert_state_consistent(c)
    finally:
        kernel.free()


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
        # With unit weights every soft clause can move: by 12,000 flips
        # each mode takes over 13,000 clauses to the cap and about as
        # many back below it.
        weighting = WeightingParams(sp=0.5, soft_cap=2)
        assert_engines_agree(
            unit_weights(lookahead_instance()),
            SolverConfig(mode=mode, seed=7), weighting=weighting,
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
        formula = weighted_family(data)
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
        weighting = WeightingParams.defaults_for(formula)
        assert _kernel.attach(formula, weighting, config,
                              random.Random(4)) is None
        res = solve(formula, config)
        assert res.engine == "python"
        assert_same_run(res, pure_python(formula, config, monkeypatch))

    @requires_kernel
    def test_heavy_weights_declined_by_the_kernel(self, monkeypatch):
        # The total soft weight fits, but a weight of 2**60 on a variable
        # in five clauses could overflow a score: fk_init declines.
        formula = Formula.build(
            num_vars=2,
            hard=[[1, 2], [-1, 2], [1, -2], [-1, -2]],
            soft=[(2**60, [1]), (1, [2])],
        )
        config = SolverConfig(seed=4, max_flips=200)
        weighting = WeightingParams.defaults_for(formula)
        assert _kernel.attach(formula, weighting, config,
                              random.Random(4)) is None
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
        config, weighting = SolverConfig(), WeightingParams()
        for clause, accepted in (((-1, 3), True), ((-1, 3, -1), False),
                                 ((-1, 3, 1), False), ((3, -1, 3), False)):
            formula = Formula(
                num_vars=3, clauses=((1, 2), clause), weights=(0, 1)
            )
            kernel = _kernel.attach(formula, weighting, config,
                                    random.Random(1))
            assert (kernel is not None) == accepted, clause
            if kernel is not None:
                kernel.free()

    def test_int32_sizes_declined(self, monkeypatch):
        formula = lookahead_instance()
        monkeypatch.setattr(_kernel, "_INT32_MAX", formula.num_vars - 1)
        assert _kernel.attach(
            formula, WeightingParams.defaults_for(formula), SolverConfig(),
            random.Random(1),
        ) is None

    @requires_kernel
    def test_wide_arrays_declined(self):
        # the kernel reads int32 literals and offsets; a variable past
        # 2**31 - 1 widens lits, more literals than that widen lit_start
        formula = lookahead_instance()
        weighting = WeightingParams.defaults_for(formula)
        for name in ("lits", "lit_start"):
            wide = _layout(*(
                array("q", value) if field == name else value
                for field, value in zip(Formula.__slots__, formula._values())
            ))
            assert wide == formula
            assert _kernel.attach(wide, weighting, SolverConfig(),
                                  random.Random(1)) is None, name

    @requires_kernel
    def test_allocation_failure_raises_memory_error(self):
        # 2e8 variables: the kernel's arrays cannot fit in the 256 MB of
        # address space the child allows itself.  Its allocation fails
        # and is reported, where the Python engine would need far more.
        script = """
import random, resource
from fps_maxsat import _kernel
from fps_maxsat.engine import WeightingParams
from fps_maxsat.formula import Formula
from fps_maxsat.solver import SolverConfig
assert _kernel.load() is not None
formula = Formula.build(num_vars=200_000_000, soft=[(3, [1])])
limit = 256 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
try:
    _kernel.attach(formula, WeightingParams(), SolverConfig(),
                   random.Random(1))
except MemoryError as exc:
    print("MemoryError", exc)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("MemoryError the kernel"), proc.stdout


def child_env():
    """The environment of a child that imports this package and these
    tests."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(_kernel.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))


@requires_kernel
class TestInitialState:
    """The state fk_init builds equals SearchState.__init__'s, field by
    field and in set order, and both leave the generator alike."""

    @staticmethod
    def assert_same_start(formula, seed, weighting=None):
        config = SolverConfig(seed=seed)
        (py, py_rng), (kernel, c_rng) = attached(formula, config, weighting)
        c = kernel.detach()
        assert full_snapshot(c, c_rng) == full_snapshot(py, py_rng)
        assert c.init_weight == py.init_weight
        assert c.best_cost == py.best_cost
        assert_state_consistent(c)

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_lookahead_instance(self, seed):
        self.assert_same_start(lookahead_instance(), seed)

    def test_unweighted(self):
        rng = random.Random(3)
        formula = planted_formula(rng, 60, 120, 200, weighted=False)
        assert not formula.is_weighted
        self.assert_same_start(formula, 5)

    def test_soft_offset(self):
        formula = Formula.build(
            num_vars=3, hard=[[1, -2]], soft=[(4, []), (2, [2, 3]), (5, [-3])]
        )
        assert formula.soft_offset == 4
        for seed in range(6):
            self.assert_same_start(formula, seed)

    def test_empty_hard_clause(self):
        formula = Formula.build(num_vars=2, hard=[[], [1, 2]], soft=[(3, [-1])])
        assert formula.has_empty_hard
        for seed in range(4):
            self.assert_same_start(formula, seed)

    def test_every_clause_satisfied_at_start(self):
        # Random(seed)'s first draws decide the start; clauses built to
        # hold under it leave no falsified clause and no good variable.
        seed, n = 8, 40
        rng = random.Random(seed)
        start = [rng.random() < 0.5 for _ in range(n)]
        lit = [v if start[v - 1] else -v for v in range(1, n + 1)]
        formula = Formula.build(
            num_vars=n,
            hard=[[lit[i], -lit[i + 1]] for i in range(n - 1)],
            soft=[(i % 5 + 1, [lit[i]]) for i in range(n)],
        )
        self.assert_same_start(formula, seed)
        (py, _), (kernel, _) = attached(formula, SolverConfig(seed=seed))
        kernel.free()
        assert py.best_cost == 0 and not py.good_vars.items

    @pytest.mark.parametrize("weighting", [
        WeightingParams(sp=0.5, soft_cap=2),
        WeightingParams(hard_weight=3),
    ], ids=["capped", "weighted-init"])
    def test_given_weighting(self, weighting):
        self.assert_same_start(lookahead_instance(), 4, weighting)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_weighted_family(self, data):
        formula = weighted_family(data)
        self.assert_same_start(
            formula, data.draw(st.integers(0, 2**32), label="seed")
        )


def weighted_family(data):
    """A small weighted formula drawn by hypothesis."""
    n = data.draw(st.integers(1, 12), label="n")
    clause = st.lists(
        st.integers(1, n), min_size=1, max_size=min(n, 5), unique=True
    ).flatmap(lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs]))
    hard = data.draw(st.lists(clause, max_size=10), label="hard")
    soft = data.draw(
        st.lists(st.tuples(st.integers(1, 60), clause), max_size=20),
        label="soft",
    )
    return Formula.build(num_vars=n, hard=hard, soft=soft)


class TestBuild:
    def test_state_matches_the_c_struct(self):
        # _State mirrors struct fk_state, parsed from the source: the same
        # names in the same order, each scalar with the ctypes type of its
        # C type (int64_t is c_int64) and each pointer a c_void_p.
        source = _kernel.SOURCE.read_text()
        body = re.search(r"^struct fk_state \{(.*?)^\};", source,
                         re.M | re.S).group(1)
        body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
        fields = []
        for decl in body.split(";")[:-1]:
            ctype, names = re.fullmatch(
                r"\s*(?:const\s+)?((?:struct\s+)?\w+)\s+(.*?)\s*", decl,
                re.S,
            ).groups()
            for name in names.split(","):
                name = name.strip()
                if name.startswith("*"):
                    fields.append((name.lstrip("* "), ctypes.c_void_p))
                else:
                    fields.append((name, getattr(
                        ctypes, "c_" + ctype.removesuffix("_t"))))
        assert len(fields) > 30
        assert fields == list(_kernel._State._fields_)

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
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=600,
        )
        if proc.returncode == 77:
            pytest.skip("the kernel cannot be built with -fsanitize=undefined")
        assert proc.returncode == 0, proc.stderr
