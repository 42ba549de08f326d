"""Evaluation tooling: batch runs, relative scoring, win counting.

A benchmark run produces one :class:`InstanceRecord` per
(instance, mode, seed) cell.  Modes are the named solver configurations of
:data:`fps_maxsat.solver.MODES`.

Scoring follows the incomplete-track convention: an infeasible result
scores 0, a feasible result scores ``(best_known + 1) / (achieved + 1)``,
so matching the best known cost scores 1.  Win counting compares modes per
(instance, seed) cell on cost; in a two-mode comparison an exact cost tie
is broken toward the mode that reached its best solution sooner.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from .formula import INFEASIBLE, parse_wcnf
from .solver import RunStatus, SolverConfig, config_for_mode, solve

CSV_FIELDS = [
    "instance",
    "mode",
    "seed",
    "status",
    "cost",
    "time_to_best_s",
    "flips",
]


@dataclass
class InstanceRecord:
    """One solver run on one instance.  ``cost`` is None when infeasible."""

    instance: str
    mode: str
    seed: int
    status: str
    cost: Optional[int]
    time_to_best_s: float
    flips: int


def run_instance(
    path: Union[str, Path], config: SolverConfig
) -> InstanceRecord:
    """Parse one WCNF file and solve it with ``config``."""
    formula = parse_wcnf(Path(path).read_bytes())
    result = solve(formula, config)
    feasible = result.status is RunStatus.FEASIBLE
    return InstanceRecord(
        instance=str(path),
        mode=config.mode,
        seed=config.seed,
        status=result.status.value,
        cost=int(result.best_cost) if feasible else None,
        time_to_best_s=result.time_to_best_s,
        flips=result.flips,
    )


def _worker_count(jobs: Optional[int], tasks: int) -> int:
    return min(max(1, jobs or 1), max(1, tasks))


def run_batch(
    cells: Sequence[Tuple[Union[str, Path], SolverConfig]],
    jobs: Optional[int] = None,
) -> List[InstanceRecord]:
    """Run ``(path, config)`` cells.

    Results keep cell order.  Worker processes are used when ``jobs`` is
    more than one, at most one per cell.
    """
    workers = _worker_count(jobs, len(cells))
    if workers <= 1:
        return [run_instance(path, config) for path, config in cells]
    # imported here so that `solve` does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    paths, configs = zip(*cells)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_instance, paths, configs))


def mse_score(
    best_known: int, achieved: Union[int, float, None]
) -> float:
    """Relative quality of a result against the best known cost.

    ``(best_known + 1) / (achieved + 1)`` for a feasible ``achieved``;
    0.0 when ``achieved`` is None or :data:`INFEASIBLE`.  Raises
    ValueError on a negative ``best_known`` or when ``achieved`` beats
    ``best_known`` (a stale best-known value).
    """
    if best_known < 0:
        raise ValueError(f"best_known must be >= 0, got {best_known}")
    if achieved is None or achieved == INFEASIBLE:
        return 0.0
    if achieved < best_known:
        raise ValueError(
            f"achieved cost {achieved} beats best_known {best_known}; "
            "best-known table is stale"
        )
    return (best_known + 1) / (int(achieved) + 1)


@dataclass
class ScoreTable:
    """Per-instance scores (seeds averaged) and their arithmetic mean."""

    scores: Dict[str, float]
    average: float


def score_table(
    records: Sequence[InstanceRecord],
    best_known: Optional[Dict[str, int]] = None,
    warn=None,
) -> ScoreTable:
    """Score records against a best-known table.

    Instances missing from the table (or when no table is given) are scored
    against the best cost achieved among ``records``; a stale table entry is
    replaced by the better achieved cost and reported through ``warn``.
    Multiple records of one instance (several seeds) are averaged per
    instance before the overall average.
    """
    effective = _effective_best_known(records, best_known, warn=warn)
    per_instance: Dict[str, List[float]] = {}
    for rec in records:
        base = effective.get(rec.instance)
        value = 0.0 if base is None else mse_score(base, rec.cost)
        per_instance.setdefault(rec.instance, []).append(value)
    scores = {k: sum(v) / len(v) for k, v in per_instance.items()}
    average = sum(scores.values()) / len(scores) if scores else 0.0
    return ScoreTable(scores=scores, average=average)


@dataclass
class BenchReport:
    """Aggregates per mode: cells won, mean time-to-best over won cells,
    overall mean time-to-best, and mean score when a best-known table was
    available."""

    modes: List[str]
    num_cells: int
    wins: Dict[str, int]
    mean_win_time: Dict[str, float]
    mean_time: Dict[str, float]
    mean_score: Optional[Dict[str, float]] = None


def _effective_best_known(
    records: Sequence[InstanceRecord],
    best_known: Optional[Dict[str, int]],
    warn=None,
) -> Dict[str, int]:
    """Best cost per instance: provided table reconciled with achieved costs.

    A provided value beaten by an achieved cost is stale: it is replaced
    with the achieved cost and reported through ``warn``.  Instances with
    no provided value fall back to the best achieved cost.
    """
    effective: Dict[str, int] = {}
    for rec in records:
        if rec.cost is None:
            continue
        cur = effective.get(rec.instance)
        if cur is None or rec.cost < cur:
            effective[rec.instance] = rec.cost
    if best_known:
        for instance in list(effective):
            provided = _lookup_best(best_known, instance)
            if provided is None:
                continue
            if effective[instance] < provided:
                if warn is not None:
                    warn(
                        f"best-known for {instance} is stale: listed "
                        f"{provided}, achieved {effective[instance]}"
                    )
            else:
                effective[instance] = provided
        for instance, provided in best_known.items():
            effective.setdefault(instance, provided)
    return effective


def _lookup_best(
    table: Dict[str, int], instance: str
) -> Optional[int]:
    if instance in table:
        return table[instance]
    return table.get(Path(instance).name)


def summarize(
    records: Sequence[InstanceRecord],
    modes: Sequence[str],
    best_known: Optional[Dict[str, int]] = None,
    warn=None,
) -> BenchReport:
    """Win counts and mean times per mode over (instance, seed) cells.

    A cell's winners are the modes reaching the lowest feasible cost; a
    cell where every mode is infeasible has no winner.  In a two-mode
    comparison a cost tie goes to the mode with the smaller time-to-best
    (both win when those are equal too).  ``mean_win_time`` averages over
    won cells only; ``mean_time`` over all of a mode's cells.
    ``mean_score`` is filled when ``best_known`` is given, after
    reconciling it with achieved costs; all modes are scored against the
    same reconciled table.
    """
    cells: Dict[Tuple[str, int], Dict[str, InstanceRecord]] = {}
    for rec in records:
        if rec.mode not in modes:
            continue
        cells.setdefault((rec.instance, rec.seed), {})[rec.mode] = rec

    wins = {m: 0 for m in modes}
    win_times: Dict[str, List[float]] = {m: [] for m in modes}
    all_times: Dict[str, List[float]] = {m: [] for m in modes}
    for cell in cells.values():
        for m, rec in cell.items():
            all_times[m].append(rec.time_to_best_s)
        feasible = {m: r for m, r in cell.items() if r.cost is not None}
        if not feasible:
            continue
        best = min(r.cost for r in feasible.values())
        winners = [m for m, r in feasible.items() if r.cost == best]
        if len(modes) == 2 and len(winners) == 2:
            t0 = feasible[winners[0]].time_to_best_s
            t1 = feasible[winners[1]].time_to_best_s
            if t0 < t1:
                winners = [winners[0]]
            elif t1 < t0:
                winners = [winners[1]]
        for m in winners:
            wins[m] += 1
            win_times[m].append(feasible[m].time_to_best_s)

    mean_win_time = {
        m: (sum(ts) / len(ts) if ts else 0.0) for m, ts in win_times.items()
    }
    mean_time = {
        m: (sum(ts) / len(ts) if ts else 0.0) for m, ts in all_times.items()
    }
    mean_score = None
    if best_known is not None:
        effective = _effective_best_known(records, best_known, warn=warn)
        mean_score = {
            m: score_table(
                [r for r in records if r.mode == m], effective
            ).average
            for m in modes
        }
    return BenchReport(
        modes=list(modes),
        num_cells=len(cells),
        wins=wins,
        mean_win_time=mean_win_time,
        mean_time=mean_time,
        mean_score=mean_score,
    )


def format_report(report: BenchReport) -> str:
    """Plain-text #win / mean-time table, one row per mode.

    Winning-cell mean time and overall mean time are separate columns,
    since the former is only over cells the mode won.
    """
    lines = [f"cells: {report.num_cells}"]
    header = (
        f"{'mode':<12} {'#win':>5} {'mean-time(win)':>15} {'mean-time(all)':>15}"
    )
    if report.mean_score is not None:
        header += f" {'mean-score':>11}"
    lines.append(header)
    for m in report.modes:
        row = (
            f"{m:<12} {report.wins[m]:>5} "
            f"{report.mean_win_time[m]:>15.2f} {report.mean_time[m]:>15.2f}"
        )
        if report.mean_score is not None:
            row += f" {report.mean_score[m]:>11.4f}"
        lines.append(row)
    return "\n".join(lines)


def bench(
    instances: Sequence[Union[str, Path]],
    modes: Sequence[str] = ("fps", "single"),
    seeds: Sequence[int] = (1,),
    config: Optional[SolverConfig] = None,
    best_known: Optional[Dict[str, int]] = None,
    jobs: Optional[int] = None,
    warn=None,
) -> Tuple[List[InstanceRecord], BenchReport]:
    """Run every (instance, mode, seed) cell and summarise.

    Each cell runs ``config`` (default: :class:`SolverConfig` defaults) with
    the cell's mode and seed.  A mode or seed named more than once runs
    once, at its first position.  Every cell's configuration is checked
    before the first cell runs.
    """
    if not instances:
        raise ValueError("no instances to benchmark")
    if not modes:
        raise ValueError("no modes to benchmark")
    if not seeds:
        raise ValueError("no seeds to run")
    base = config or SolverConfig()
    modes = list(dict.fromkeys(modes))
    seeds = list(dict.fromkeys(seeds))
    cells = [
        (path, replace(base, mode=mode, seed=seed))
        for path in instances
        for mode in modes
        for seed in seeds
    ]
    records = run_batch(cells, jobs=jobs)
    report = summarize(records, modes, best_known=best_known, warn=warn)
    return records, report


def sweep(
    instances: Sequence[Union[str, Path]],
    sc_values: Sequence[int] = (5, 10, 20, 50),
    sv_values: Sequence[int] = (20, 50, 100),
    seeds: Sequence[int] = (1,),
    config: Optional[SolverConfig] = None,
    best_known: Optional[Dict[str, int]] = None,
    jobs: Optional[int] = None,
    warn=None,
) -> List[Dict[str, object]]:
    """Mean score over an (sc_num, sv_num) grid.

    Returns one row per grid point: ``{"sc_num", "sv_num", "mean_score"}``.
    Each cell runs ``config`` (default: :class:`SolverConfig` defaults, so
    the ``fps`` mode) with the grid point's ``sc_num``/``sv_num`` and the
    cell's seed.  A value or seed listed more than once runs once, at its
    first position.
    Every cell's configuration is checked before the first cell runs.
    Instances without a provided best-known cost are scored against the
    best cost achieved anywhere in the sweep.
    """
    if not instances:
        raise ValueError("no instances to sweep")
    if not sc_values or not sv_values:
        raise ValueError("empty parameter grid")
    if not seeds:
        raise ValueError("no seeds to run")
    base = config or SolverConfig()
    grid = [
        (sc, sv)
        for sc in dict.fromkeys(sc_values)
        for sv in dict.fromkeys(sv_values)
    ]
    seeds = list(dict.fromkeys(seeds))
    cells = [
        (path, replace(base, sc_num=sc, sv_num=sv, seed=seed))
        for sc, sv in grid
        for path in instances
        for seed in seeds
    ]
    records = run_batch(cells, jobs=jobs)
    effective = _effective_best_known(records, best_known, warn=warn)
    size = len(cells) // len(grid)  # cells per grid point
    rows: List[Dict[str, object]] = []
    for i, (sc, sv) in enumerate(grid):
        table = score_table(records[i * size:(i + 1) * size], effective)
        rows.append({"sc_num": sc, "sv_num": sv, "mean_score": table.average})
    return rows


def write_records_csv(
    records: Sequence[InstanceRecord], out: TextIO
) -> None:
    """Write records as CSV with the documented column order.

    ``out`` is a text file opened with ``newline=""``.
    """
    writer = csv.DictWriter(out, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for rec in records:
        row = asdict(rec)
        row["cost"] = "inf" if rec.cost is None else rec.cost
        row["time_to_best_s"] = f"{rec.time_to_best_s:.6f}"
        writer.writerow(row)


def read_best_known(path: Union[str, Path]) -> Dict[str, int]:
    """Read an ``instance,cost`` CSV (header row optional).

    Raises ValueError, naming the file and line, on a row without a cost
    or a cost that is not a non-negative integer.
    """
    table: Dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if row[0].strip() == "instance":
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) < 2:
                raise ValueError(f"{where}: malformed best-known row: {row!r}")
            try:
                cost = int(row[1])
            except ValueError:
                cost = -1
            if cost < 0:
                raise ValueError(
                    f"{where}: best-known cost must be a non-negative "
                    f"integer, got {row[1].strip()!r}"
                )
            table[row[0].strip()] = cost
    return table


def discover_instances(path: Union[str, Path]) -> List[str]:
    """A file yields itself; a directory yields its sorted ``*.wcnf`` files."""
    p = Path(path)
    if p.is_dir():
        found = sorted(str(q) for q in p.glob("*.wcnf"))
        if not found:
            raise ValueError(f"no .wcnf instances in {p}")
        return found
    if p.is_file():
        return [str(p)]
    raise ValueError(f"no such instance path: {p}")
