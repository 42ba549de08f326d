"""Benchmark of ``fps-maxsat solve``: end-to-end runs and a traced layer split.

Run from the repository root::

    python3 perfbench/run.py --workload lookahead --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the benchmark drives ``python -m fps_maxsat solve`` in
child processes (``PYTHONPATH=src``; the package need not be installed),
checks every output and reports the end-to-end metrics.  With ``--trace 1``
it runs the solver inside this process with the public functions of the
``formula``, ``engine`` and ``solver`` modules wrapped in timing spans, and
reports the per-layer split.  No code under ``src/`` is changed.

The instance of each workload is generated from a frozen instance seed, so
every run measures the same file (its size and sha256 are printed); the
``--seed`` argument picks the solver seeds.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SMALL = dict(instance_seed=1, n=300, m_hard=700, m_soft=1400, conflicts=3)
LARGE = dict(instance_seed=1, n=10_000, m_hard=20_000, m_soft=30_000,
             conflicts=100)

# ``target`` is the frozen cost for time_to_target_s: every solver seed
# tried at the seed commit reached it within 70% of ``max_flips``.
# ``budget_s`` is the --time-limit of the cost_at_budget runs; the large
# instance needs up to about 310k flips to leave its infeasible phase.
WORKLOADS: Dict[str, dict] = {
    "lookahead": dict(instance=SMALL, mode="fps", max_flips=60_000,
                      target=1875, budget_s=1.0),
    "walk": dict(instance=SMALL, mode="single", max_flips=200_000,
                 target=1875, budget_s=1.0),
    "large": dict(instance=LARGE, mode="fps", max_flips=450_000,
                  target=36400, budget_s=8.0),
}
BUDGET_RUNS = 3
SETUPS_PER_ROUND = 3

# Rounds run even when --seconds is already spent, so every metric has
# samples and every solver seed has its determinism pair.
MIN_ROUNDS = 2
# A child still running after OP_TIMEOUT_S, or past HARD_LIMIT_S from the
# benchmark's start, is killed and counted as failed, so a hung solver
# cannot keep the benchmark from exiting.
OP_TIMEOUT_S = 30.0
HARD_LIMIT_S = 150.0


def solver_seed(seed: int, round_no: int) -> int:
    return 1000 * seed + round_no + 1


def median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def tail(values: List[float]) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(values)
    if not n:
        return "no samples"
    text = f"median {statistics.median(values):.6g}"
    if n > 20:
        q = int(100 * (1 - 10 / n))
        text += f"  p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return text + f"  n={n}"


# -- end-to-end runs ---------------------------------------------------------


@dataclass
class Op:
    """One ``solve`` child process and what it printed."""

    kind: str
    seed: Optional[int]
    wall_s: float = 0.0
    exit_code: int = 0
    stderr: str = ""
    lines: List[str] = field(default_factory=list)
    target_s: Optional[float] = None
    rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    cost: Optional[int] = None
    record: Optional[dict] = None

    def protocol(self) -> List[str]:
        return [line for line in self.lines if line[:2] in ("o ", "s ", "v ")]


def spawn(workdir: str, path: str, args: List[str], target: Optional[int],
          kind: str, seed: Optional[int], timeout: float) -> Op:
    """Run ``solve`` and time it from spawn to exit.

    The first ``o`` line at or below ``target`` is timestamped as it
    arrives on the pipe; peak RSS comes from the child's rusage.
    """
    op = Op(kind, seed)
    cmd = [sys.executable, "-m", "fps_maxsat", "solve", path, *args]
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryFile(dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            for raw in proc.stdout:
                line = raw.decode("utf-8", "replace").rstrip("\n")
                if (op.target_s is None and target is not None
                        and line.startswith("o ")
                        and line[2:].strip().isdigit()
                        and int(line[2:]) <= target):
                    op.target_s = time.perf_counter() - t0
                op.lines.append(line)
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            # os.wait4 reaps the child and returns its rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        op.wall_s = time.perf_counter() - t0
        proc.returncode = op.exit_code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        op.stderr = err.read().decode("utf-8", "replace")
    op.rss_mb = usage.ru_maxrss / 1024.0
    return op


def check(op: Op, clauses: List[gen.Clause], num_vars: int,
          need_model: bool, target: Optional[int],
          max_flips: Optional[int]) -> None:
    """Append to ``op.problems`` every way the output breaks the protocol."""
    p = op.problems
    if op.exit_code != 0:
        p.append(f"exit code {op.exit_code}")
    if "Traceback" in op.stderr:
        p.append("traceback on stderr")
    costs: List[int] = []
    status = model = None
    for line in op.lines:
        if line.startswith("o "):
            try:
                costs.append(int(line[2:]))
            except ValueError:
                p.append(f"malformed o line {line[:40]!r}")
        elif line.startswith("s "):
            status = line[2:]
        elif line.startswith("v "):
            model = line[2:]
        elif line.startswith("{"):
            try:
                op.record = json.loads(line)
            except ValueError:
                p.append("malformed JSON record")
    if status is None:
        p.append("no s line")
    if any(b >= a for a, b in zip(costs, costs[1:])):
        p.append("o costs not strictly decreasing")
    if status == "SATISFIABLE":
        if model is None or len(model) != num_vars or set(model) - {"0", "1"}:
            p.append("missing or malformed v line")
        elif not costs:
            p.append("v line without an o line")
        else:
            actual = gen.cost_of(clauses, model)
            if actual != costs[-1]:
                p.append(f"v line costs {actual}, last o line {costs[-1]}")
            else:
                op.cost = costs[-1]
    elif need_model and status is not None:
        p.append(f"no model: s {status}")
    if target is not None and op.target_s is None:
        p.append(f"no o line at or below the target {target}")
    if max_flips is not None:
        rec = op.record or {}
        flips = rec.get("flips")
        # a pair step may overshoot the flip budget by one
        if not isinstance(flips, int) or not max_flips <= flips <= max_flips + 1:
            p.append(f"flips {flips} outside [{max_flips}, {max_flips + 1}]")
        elif rec.get("cost") != op.cost:
            p.append(f"JSON cost {rec.get('cost')} != v line cost {op.cost}")


def end_to_end(wl: dict, seed: int, seconds: float, workdir: str,
               path: str, clauses: List[gen.Clause], num_vars: int):
    mode = ["--mode", wl["mode"]]
    target = wl["target"]
    ops: List[Op] = []
    hard_limit = time.perf_counter() + HARD_LIMIT_S

    def run(kind, args, s=None, tgt=None, need_model=False, flips=None):
        timeout = min(OP_TIMEOUT_S, hard_limit - time.perf_counter())
        op = spawn(workdir, path, mode + args, tgt, kind, s, max(timeout, 1))
        check(op, clauses, num_vars, need_model, tgt, flips)
        ops.append(op)
        return op

    # Untimed warm-up: the first child may compile the package's bytecode.
    run("warmup", ["--max-flips", "0"])
    start = time.perf_counter()
    for i in range(BUDGET_RUNS):
        s = solver_seed(seed, i)
        run("budget", ["--seed", str(s), "--time-limit", str(wl["budget_s"])],
            s, None, True)
    # Interference from other work on the machine only ever slows a run.
    # So each round keeps its fastest set-up, and each solver seed keeps the
    # faster of its two identical fixed-flip runs; metrics are medians of
    # these over rounds.
    round_no = 0
    setup_best: List[float] = []
    pairs: List[Tuple[Op, Op]] = []
    while ((round_no < MIN_ROUNDS or time.perf_counter() - start < seconds)
           and time.perf_counter() < hard_limit):
        s = solver_seed(seed, round_no)
        setups = [run("setup", ["--max-flips", "0"])
                  for _ in range(SETUPS_PER_ROUND)]
        if any(not op.problems for op in setups):
            setup_best.append(min(op.wall_s for op in setups
                                  if not op.problems))
        fixed = ["--seed", str(s), "--max-flips", str(wl["max_flips"]),
                 "--json"]
        first = run("fixed", fixed, s, target, True, wl["max_flips"])
        second = run("fixed", fixed, s, target, True, wl["max_flips"])
        if first.protocol() != second.protocol():
            second.problems.append(
                f"seed {s}: o/s/v lines differ between identical runs")
        if not first.problems and not second.problems:
            pairs.append((first, second))
        round_no += 1

    def best(fn: Callable[[Op], float], pick) -> List[float]:
        return [pick(fn(a), fn(b)) for a, b in pairs]

    samples = {
        "setup_s": ("s", setup_best),
        "solve_s": ("s", best(lambda op: op.wall_s, min)),
        "flips_per_s": ("1/s", best(
            lambda op: op.record["flips"] / op.record["elapsed_s"], max)),
        "time_to_target_s": ("s", best(lambda op: op.target_s, min)),
        "cost_at_budget": ("cost", [op.cost for op in ops
                                    if op.kind == "budget" and not op.problems]),
        "peak_rss_mb": ("MB", [op.rss_mb for pair in pairs for op in pair]),
    }
    for name, (unit, values) in samples.items():
        print(f"{name:<18} {unit:<5} {tail(values)}")
    print(f"rounds {round_no}  solver seeds "
          f"{solver_seed(seed, 0)}..{solver_seed(seed, round_no - 1)}")
    for op in ops:
        for problem in op.problems:
            print(f"FAILED {op.kind} seed={op.seed}: {problem}")
    metrics = {name: {"value": median(values), "unit": unit}
               for name, (unit, values) in samples.items()}
    failed = sum(1 for op in ops if op.problems)
    return len(ops), failed, metrics


# -- traced run --------------------------------------------------------------


class Tracer:
    """Spans around module functions, aggregated per (name, parent).

    ``install`` replaces each target attribute with a timing wrapper and
    ``restore`` puts the originals back.  A target that no longer exists
    is recorded in ``absent`` and skipped, so the run still completes.
    """

    def __init__(self) -> None:
        self.stack: List[list] = []
        # (name, parent) -> [calls, total_s, child_s]
        self.spans: Dict[Tuple[str, Optional[str]], list] = {}
        self.saved: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []
        self.local_optima = 0
        self.pair_steps = 0
        self.probe_positive = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (name, parent[0] if parent else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if parent is not None:
                    parent[1] += dt

        return span

    def install(self, solver, engine) -> None:
        state_cls = getattr(engine, "SearchState", None)
        targets = [
            (state_cls, "__init__", "engine.init", None),
            (state_cls, "flip", "engine.flip", None),
            (state_cls, "probed_positive_scores", "engine.probe", self._probe),
            (state_cls, "update_weights", "engine.update_weights", None),
            (solver, "bms_pick", "solver.bms_pick", None),
            (solver, "fps_step", "solver.step", self._step),
            (solver, "single_flip_step", "solver.step", self._step),
            (solver, "evaluate_cost", "formula.evaluate_cost", None),
        ]
        for owner, attr, name, outer in targets:
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{name} ({attr})")
                continue
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, outer(fn) if outer else fn))

    def restore(self) -> None:
        while self.saved:
            owner, attr, fn = self.saved.pop()
            setattr(owner, attr, fn)

    def _probe(self, inner: Callable) -> Callable:
        def probe(state, x):
            pos = inner(state, x)
            self.probe_positive += len(pos)
            return pos
        return probe

    def _step(self, inner: Callable) -> Callable:
        # Reads state only; draws no randomness, so the trajectory is kept.
        def step(state, config, rng):
            gv = getattr(state, "good_vars", None)
            at_optimum = gv is not None and not len(gv)
            before = state.flips
            moved = inner(state, config, rng)
            self.local_optima += at_optimum
            self.pair_steps += state.flips - before == 2
            return moved
        return step

    def calls(self, name: str) -> int:
        return sum(r[0] for (n, _), r in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(r[1] - r[2] for (n, _), r in self.spans.items() if n == name)

    def counts(self, flips: int) -> Dict[str, int]:
        return {
            "solver.flips": flips,
            "solver.step.calls": self.calls("solver.step"),
            "solver.local_optima": self.local_optima,
            "solver.pair_steps": self.pair_steps,
            "engine.flip.calls": self.calls("engine.flip"),
            "engine.probe.calls": self.calls("engine.probe"),
            "solver.bms_pick.calls": self.calls("solver.bms_pick"),
            "engine.update_weights.calls": self.calls("engine.update_weights"),
        }


TIMED_LAYERS = ["engine.flip", "engine.probe", "solver.bms_pick",
                "engine.update_weights", "solver.step", "solver.solve",
                "formula.evaluate_cost"]
# Self time of solve() is the loop's own work: budget checks and best-cost
# tracking.  evaluate_cost has no children, so its self time is its time.
SELF_METRIC = {"solver.solve": "solver.loop.self_s",
               "formula.evaluate_cost": "formula.evaluate_cost_s"}


def repeat(fn: Callable[[], object], times: int) -> List[float]:
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def peak_alloc_mb(fn: Callable[[], object]) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def import_time_s(workdir: str, reps: int = 7) -> float:
    """Median of (import fps_maxsat.cli) minus (bare interpreter start)."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def start(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=workdir,
                       check=True)
        return time.perf_counter() - t0

    start("import fps_maxsat.cli")  # compiles bytecode if missing
    diffs = [start("import fps_maxsat.cli") - start("pass")
             for _ in range(reps)]
    return statistics.median(diffs)


def setup_layers(data: bytes, seed: int, workdir: str, formula, engine):
    """Import, parse and build timings, and their allocation peaks."""
    parse_s = statistics.median(repeat(lambda: formula.parse_wcnf(data), 5))
    f = formula.parse_wcnf(data)
    weighting = engine.WeightingParams.defaults_for(f)

    def build():
        return engine.SearchState(f, weighting, random.Random(seed))

    return f, {
        "cli.import_s": (import_time_s(workdir), "s"),
        "formula.parse_s": (parse_s, "s"),
        "formula.parse_mb_per_s": (len(data) / 1e6 / parse_s, "MB/s"),
        "formula.alloc_mb": (
            peak_alloc_mb(lambda: formula.parse_wcnf(data)), "MB"),
        "engine.init_s": (statistics.median(repeat(build, 5)), "s"),
        "engine.init_alloc_mb": (peak_alloc_mb(build), "MB"),
    }


def traced(wl: dict, seed: int, seconds: float, workdir: str,
           data: bytes, clauses: List[gen.Clause]):
    sys.path.insert(0, SRC)
    from fps_maxsat import engine, formula, solver
    from fps_maxsat.harness import config_for_mode

    f, metrics = setup_layers(data, seed, workdir, formula, engine)
    attempted = failed = 0
    per_run: Dict[str, List[float]] = {name: [] for name in TIMED_LAYERS}
    overheads: List[float] = []
    first: Optional[Tracer] = None
    start = time.perf_counter()
    round_no = 0
    while round_no < 1 or time.perf_counter() - start < seconds:
        s = solver_seed(seed, round_no)
        config = config_for_mode(wl["mode"], seed=s,
                                 max_flips=wl["max_flips"])
        plain = solver.solve(f, config)
        runs = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install(solver, engine)
            try:
                result = tracer.wrap("solver.solve", solver.solve)(f, config)
            finally:
                tracer.restore()
            runs.append((tracer, result))
        # Three operations: the untraced run and two traced runs.
        problems: List[List[str]] = [[], [], []]
        model = plain.best_assignment
        if model is None:
            problems[0].append("untraced run found no model")
        elif gen.cost_of(clauses, "".join("01"[b] for b in model)) \
                != plain.best_cost:
            problems[0].append("untraced best cost fails re-evaluation")
        for i, (tracer, result) in enumerate(runs, start=1):
            if (result.flips, result.best_cost) != (plain.flips,
                                                    plain.best_cost):
                problems[i].append(
                    f"traced run reached flips={result.flips} "
                    f"cost={result.best_cost}, untraced flips={plain.flips} "
                    f"cost={plain.best_cost}")
        counts = [t.counts(r.flips) for t, r in runs]
        if counts[0] != counts[1]:
            problems[2].append(f"counts differ between traced runs: {counts}")
        for problem in sum(problems, []):
            print(f"FAILED traced seed={s}: {problem}")
        attempted += 3
        failed += sum(1 for p in problems if p)
        for tracer, result in runs:
            for name in TIMED_LAYERS:
                per_run[name].append(tracer.self_s(name))
            overheads.append(result.elapsed_s / plain.elapsed_s)
        if first is None:
            first = runs[0][0]
            metrics.update((name, (value, "count"))
                           for name, value in counts[0].items())
        round_no += 1

    print("spans of the first traced run (name <- parent):")
    for (name, parent), (n, tot, child) in sorted(first.spans.items()):
        print(f"  {name:<22} <- {parent or '-':<14} calls {n:>8}  "
              f"total {tot:9.4f} s  self {tot - child:9.4f} s")
    if first.absent:
        print("absent layers (reported as 0): " + ", ".join(first.absent))
    probes = first.calls("engine.probe")
    metrics["engine.probe.positive_mean"] = (
        first.probe_positive / probes if probes else 0.0, "count")
    local = first.local_optima
    metrics["solver.pair_rate"] = (
        first.pair_steps / local if local else 0.0, "ratio")
    self_s = {name: statistics.median(v) for name, v in per_run.items()}
    for name, value in self_s.items():
        metrics[SELF_METRIC.get(name, f"{name}.self_s")] = (value, "s")
    metrics["trace.overhead"] = (statistics.median(overheads), "ratio")

    loop = {("solver.loop" if n == "solver.solve" else n): v
            for n, v in self_s.items() if n != "formula.evaluate_cost"}
    total = sum(loop.values())
    print("share of traced loop self time: " + ", ".join(
        f"{name} {100 * v / total:.1f}%" for name, v in loop.items()))
    print(f"traced rounds {round_no}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:.6g} {unit}")
    return attempted, failed, {name: {"value": value, "unit": unit}
                               for name, (value, unit) in metrics.items()}


# -- entry point -------------------------------------------------------------


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"env python={platform.python_version()} nproc={os.cpu_count()} "
            f"cpu={cpu!r} loadavg={load}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fps_maxsat", "__main__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(environment())
    inst = wl["instance"]
    clauses = gen.conflicted_weighted_instance(
        inst["instance_seed"], inst["n"], inst["m_hard"], inst["m_soft"],
        inst["conflicts"])
    data = gen.to_wcnf(clauses)
    print(f"input {args.workload} bytes={len(data)} "
          f"sha256={hashlib.sha256(data).hexdigest()} "
          f"clauses={len(clauses)} mode={wl['mode']} "
          f"max_flips={wl['max_flips']} budget_s={wl['budget_s']} "
          f"target={wl['target']}")
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        path = os.path.join(workdir, f"{args.workload}.wcnf")
        with open(path, "wb") as fh:
            fh.write(data)
        if args.trace:
            attempted, failed, metrics = traced(
                wl, args.seed, args.seconds, workdir, data, clauses)
        else:
            attempted, failed, metrics = end_to_end(
                wl, args.seed, args.seconds, workdir, path, clauses,
                inst["n"])
    print(f"operations attempted={attempted} failed={failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
