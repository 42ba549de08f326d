"""The search step: single-flip baseline and two-level look-ahead sampling.

Both strategies share one step function, :func:`fps_step`: while some
variable has positive score, flip a random one; at a local optimum, update
clause weights once and escape.  They differ only in the escape.

The single-flip baseline random-walks: pick a random falsified clause
(hard first) and flip its best variable.

The look-ahead strategy samples ``sc_num`` falsified clauses, draws one
variable from each (deduplicated, order preserved), and pseudo-flips each
candidate to see one step further: after the pseudo flip, a partner
variable other than the candidate is picked from the now-positive-score
set as the best of ``sv_num`` uniform draws, drawn in closed form one
score level at a time (see :func:`bms_pick`).  A candidate-plus-partner
pair whose combined score is positive is taken immediately (early stop);
otherwise the step falls back to the best of the single candidate and the
best pair seen, preferring the pair on ties.

:data:`MODES` names the configurations, set by ``SolverConfig.mode``:

- ``fps``: the look-ahead strategy as described above.
- ``single``: the single-flip baseline.
- ``fps-rw``: the one ablation.  Keep the look-ahead and its early stop,
  but when no early stop fires, escape by random walk instead of the
  best-of-sampled choice.

``fps`` against ``single`` tests whether pair flips find better local
optima, and ``fps`` against ``fps-rw`` whether the best-of-sampled escape
beats a random walk.
"""

from __future__ import annotations

import random
import time
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from . import _kernel
from ._record import Record
from .formula import INFEASIBLE, Formula, evaluate_cost
from .weighting import WeightingParams

if TYPE_CHECKING:
    import threading

    from .engine import SearchState


#: Named solver configurations (see the module docstring).
MODES = ("fps", "single", "fps-rw")


class RunStatus(Enum):
    FEASIBLE = "feasible"
    NO_FEASIBLE_FOUND = "no-feasible-found"


class SolverConfig(Record):
    """Knobs for one solver run.  Defaults follow the tuned configuration.

    ``mode`` names the configuration, one of :data:`MODES`.
    """

    __slots__ = ("mode", "sc_num", "sv_num", "time_limit", "max_flips",
                 "seed")

    def __init__(
        self,
        mode: str = "fps",
        sc_num: int = 10,
        sv_num: int = 50,
        time_limit: float = 300.0,
        max_flips: Optional[int] = None,
        seed: int = 1,
    ) -> None:
        if mode not in MODES:
            raise ValueError(
                f"unknown mode {mode!r}; known: {', '.join(sorted(MODES))}"
            )
        _check_count("sc_num", sc_num, 1)
        _check_count("sv_num", sv_num, 1)
        if not time_limit > 0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        if max_flips is not None:
            _check_count("max_flips", max_flips, 0)
        self.mode = mode
        self.sc_num = sc_num
        self.sv_num = sv_num
        self.time_limit = time_limit
        self.max_flips = max_flips
        self.seed = seed


def _check_count(name: str, value, least: int) -> None:
    # Both engines need an int: the kernel takes an int64, and a float
    # would pass through the Python engine's arithmetic unnoticed.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def config_for_mode(mode: str, **overrides) -> SolverConfig:
    """Build a :class:`SolverConfig` from a mode label plus overrides.

    Overrides given as None keep the :class:`SolverConfig` default.
    """
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    return SolverConfig(mode=mode, **kwargs)


class RunResult(Record):
    """Outcome of one solver run.

    ``best_cost`` is an int when feasible, :data:`INFEASIBLE` otherwise.
    ``time_to_best_s`` is the elapsed time at the last improvement of
    ``best_cost`` (0.0 when the initial assignment was never improved on).
    ``improvement_trace`` lists ``(elapsed_s, cost)`` for every improvement,
    including the initial feasible assignment at time 0.0; its costs are
    strictly decreasing.  ``engine`` is ``"c"`` when the compiled kernel ran
    every step and ``"python"`` when the Python step function ran some.
    """

    __slots__ = ("status", "best_cost", "best_assignment", "flips",
                 "elapsed_s", "time_to_best_s", "improvement_trace", "engine")

    def __init__(
        self,
        status: RunStatus,
        best_cost: Union[int, float],
        best_assignment: Optional[List[bool]],
        flips: int,
        elapsed_s: float,
        time_to_best_s: float,
        improvement_trace: Optional[List[Tuple[float, int]]] = None,
        engine: str = "python",
    ) -> None:
        self.status = status
        self.best_cost = best_cost
        self.best_assignment = best_assignment
        self.flips = flips
        self.elapsed_s = elapsed_s
        self.time_to_best_s = time_to_best_s
        self.improvement_trace = (
            [] if improvement_trace is None else improvement_trace
        )
        self.engine = engine


def bms_pick(
    candidates: Sequence[int],
    scores,
    sv_num: int,
    rng: random.Random,
) -> int:
    """A candidate distributed as the best of ``sv_num`` uniform draws.

    Best-from-multiple-selection draws ``sv_num`` candidates with
    replacement and keeps the earliest drawn maximum.  Its result is drawn
    here in closed form, one score level at a time from the top: with
    ``remaining`` candidates at or below a level held by ``t`` of them,
    some draw hits that level with probability
    ``1 - ((remaining - t) / remaining) ** sv_num``; otherwise every draw
    fell below it.  The earliest drawn of the winning level's members is
    uniform among them.  So a pick costs one ``random()`` per level visited
    (none when a level holds every remaining candidate) and one
    ``randrange(t)`` when the winning level is tied.

    ``scores`` is anything subscriptable by variable (the engine's score
    list, or a mapping of probed scores).  A singleton is returned without
    consuming randomness.  Raises ValueError on an empty candidate set.
    """
    k = len(candidates)
    if k == 0:
        raise ValueError("bms_pick over an empty candidate set")
    if k == 1:
        return candidates[0]
    vals = [scores[v] for v in candidates]
    remaining = k
    level = max(vals)
    t = vals.count(level)
    while t < remaining:
        if rng.random() >= ((remaining - t) / remaining) ** sv_num:
            break
        remaining -= t
        level = max([s for s in vals if s < level])
        t = vals.count(level)
    if t == 1:
        return candidates[vals.index(level)]
    members = [v for v, s in zip(candidates, vals) if s == level]
    return members[rng.randrange(t)]


def _random_walk_escape(state: SearchState, rng: random.Random) -> bool:
    """Flip the best-scoring variable of a random falsified clause.

    Falsified hard clauses take priority; ties on score are broken
    uniformly at random.  Returns False when nothing is falsified.
    """
    if state.falsified_hard.items:
        c = state.falsified_hard.choose(rng)
    elif state.falsified_soft.items:
        c = state.falsified_soft.choose(rng)
    else:
        return False
    score = state.score
    best_score = None
    ties: List[int] = []
    for y in state.clause_vars[c]:
        s = score[y]
        if best_score is None or s > best_score:
            best_score = s
            ties = [y]
        elif s == best_score:
            ties.append(y)
    x = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
    state.flip(x)
    return True


def fps_step(
    state: SearchState, config: SolverConfig, rng: random.Random
) -> bool:
    """One step of the search, in any of the :data:`MODES`.

    Returns False when every clause holds (nothing to do).  Otherwise flips
    either one variable or a candidate/partner pair and returns True.
    """
    gv = state.good_vars
    if gv.items:
        state.flip(gv.choose(rng))
        return True
    if not state.falsified_hard.items and not state.falsified_soft.items:
        return False
    state.update_weights(rng)
    if config.mode == "single":
        return _random_walk_escape(state, rng)

    score = state.score
    pool = state.falsified_hard
    if not pool.items:
        pool = state.falsified_soft

    # First-level candidates: sc_num falsified clauses drawn uniformly with
    # replacement (hard ones take priority), one random variable from each,
    # deduplicated in sampling order.  Not refilled after dedup.
    fv: List[int] = []
    seen = set()
    clause_vars = state.clause_vars
    r = rng.random
    for _ in range(config.sc_num):
        members = clause_vars[pool.choose(rng)]
        y = members[int(r() * len(members))]
        if y not in seen:
            seen.add(y)
            fv.append(y)

    v1 = fv[0]
    s1 = score[v1]
    for y in fv[1:]:
        s = score[y]
        if s > s1:
            v1 = y
            s1 = s

    best_pair: Optional[Tuple[int, int]] = None
    s2 = None
    sv_num = config.sv_num
    probe = state.probed_positive_scores
    for cand in fv:
        # Pseudo-flip cand without mutating: collect the other variables
        # whose score turns positive and pick the partner among them.
        pos = probe(cand)
        if not pos:
            continue
        partner = bms_pick(list(pos), pos, sv_num, rng)
        combined = score[cand] + pos[partner]
        if combined > 0:
            state.flip(cand)
            state.flip(partner)
            return True
        if s2 is None or combined > s2:
            s2 = combined
            best_pair = (cand, partner)

    if config.mode == "fps-rw":
        return _random_walk_escape(state, rng)
    if best_pair is None or s1 > s2:
        state.flip(v1)
    else:
        state.flip(best_pair[0])
        state.flip(best_pair[1])
    return True


def solve(
    formula: Formula,
    config: Optional[SolverConfig] = None,
    on_improvement: Optional[Callable[[int, float], None]] = None,
    stop: Optional[threading.Event] = None,
) -> RunResult:
    """Run local search until the time limit or flip budget is exhausted.

    ``on_improvement(cost, elapsed_s)`` fires whenever the best feasible
    cost improves, including for a feasible initial assignment.  The run
    also ends once ``stop`` is set; it is checked before every step of the
    Python engine and between the kernel's slices (at most about 10 ms
    apart).  The best solution is re-verified against the formula from
    scratch before being returned; a mismatch with the incremental
    bookkeeping raises RuntimeError.

    The steps run in the compiled kernel when it can be built and the
    instance fits its integer types, and in the Python step function
    otherwise; both take the same trajectory.
    """
    if config is None:
        config = SolverConfig()
    rng = random.Random(config.seed)
    weighting = WeightingParams.defaults_for(formula)
    # The kernel builds the initial state itself; the Python engine (and
    # its module) is loaded only when it runs, from the start or at a
    # hand-back.
    kernel = _kernel.attach(formula, weighting, config, rng)
    if kernel is None:
        from .engine import SearchState

        run = state = SearchState(formula, weighting, rng)
    else:
        run = kernel

    trace: List[Tuple[float, int]] = []
    time_to_best = 0.0
    best_seen = run.best_cost
    if best_seen != INFEASIBLE:
        trace.append((0.0, int(best_seen)))
        if on_improvement is not None:
            on_improvement(int(best_seen), 0.0)

    t0 = time.perf_counter()
    max_flips = config.max_flips
    time_limit = config.time_limit
    engine = "python" if kernel is None else "c"
    try:
        while True:
            if stop is not None and stop.is_set():
                break
            if kernel is not None:
                status = kernel.run(
                    max_flips, time_limit - (time.perf_counter() - t0)
                )
                if status == _kernel.HANDBACK:
                    run = state = kernel.detach()
                    kernel = None
                    engine = "python"
                    continue
                if status in (_kernel.BUDGET, _kernel.DONE):
                    break
            else:
                if max_flips is not None and state.flips >= max_flips:
                    break
                if time.perf_counter() - t0 >= time_limit:
                    break
                if not fps_step(state, config, rng):
                    break
            cost = run.best_cost
            if cost < best_seen:
                best_seen = cost
                time_to_best = time.perf_counter() - t0
                trace.append((time_to_best, int(cost)))
                if on_improvement is not None:
                    on_improvement(int(cost), time_to_best)
        elapsed = time.perf_counter() - t0
        best_cost = run.best_cost
        best_assignment = run.best_assignment()
        flips = run.flips
    finally:
        if kernel is not None:
            kernel.free()

    if best_assignment is not None:
        actual = evaluate_cost(formula, best_assignment)
        if actual != best_cost:
            raise RuntimeError(
                f"best solution failed re-verification: tracked "
                f"{best_cost}, actual {actual}"
            )
        status = RunStatus.FEASIBLE
    else:
        status = RunStatus.NO_FEASIBLE_FOUND
    return RunResult(
        status=status,
        best_cost=best_cost if best_assignment is not None else INFEASIBLE,
        best_assignment=best_assignment,
        flips=flips,
        elapsed_s=elapsed,
        time_to_best_s=time_to_best,
        improvement_trace=trace,
        engine=engine,
    )
