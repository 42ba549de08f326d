"""The ``fps-maxsat`` command line front end.

``solve`` follows the incomplete-solver output protocol: an ``o <cost>``
line for every improvement, then ``s SATISFIABLE`` with a ``v`` line
(default: one 0/1 character per variable) when a feasible assignment was
found, ``s UNKNOWN`` otherwise.  SIGTERM and SIGINT only end the search,
even while the instance is still being read, so the ``s`` line follows.

Exit codes: 0 on normal completion; 1 on usage errors, on an instance too
large for the memory available, and when stdout is closed before the
output ends; 2 on malformed instance files.  :func:`main` maps every
failure to its exit code and one ``error:`` or ``parse error:`` line on
stderr, which names the instance file when one is at fault.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from contextlib import contextmanager
from typing import List, Optional

from .formula import ParseError, read_wcnf
from .solver import MODES, RunStatus, config_for_mode, run_record, solve

USAGE_ERROR = 1
PARSE_ERROR = 2


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fps-maxsat",
        description="Incomplete (weighted) partial MaxSAT local search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one WCNF instance")
    p_solve.add_argument("instance", help="WCNF file (either dialect)")
    p_solve.add_argument(
        "--mode",
        default="fps",
        choices=sorted(MODES),
        help="solver configuration (default: fps)",
    )
    p_solve.add_argument("--seed", type=int, default=1)
    p_solve.add_argument("--time-limit", type=float, default=300.0)
    p_solve.add_argument("--max-flips", type=int, default=None)
    p_solve.add_argument("--sc-num", type=int, default=None)
    p_solve.add_argument("--sv-num", type=int, default=None)
    p_solve.add_argument(
        "--v-literals",
        action="store_true",
        help="emit the v line as signed literals instead of a 0/1 string",
    )
    p_solve.add_argument(
        "--json",
        action="store_true",
        help="append a JSON record of the run",
    )

    # what bench and sweep share: a batch of runs over instances
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("path", help="WCNF file or directory of .wcnf files")
    batch.add_argument("--seeds", type=_int_list, default=[1])
    batch.add_argument("--time-limit", type=float, default=300.0)
    batch.add_argument("--max-flips", type=int, default=None)
    batch.add_argument(
        "--best-known",
        default=None,
        help="CSV of instance,cost used for mean-score reporting",
    )
    batch.add_argument("--jobs", type=int, default=None)

    p_bench = sub.add_parser(
        "bench", parents=[batch], help="compare modes over instances"
    )
    p_bench.add_argument(
        "--modes",
        default="fps,single",
        help="comma-separated mode labels (default: fps,single)",
    )
    p_bench.add_argument("--sc-num", type=int, default=None)
    p_bench.add_argument("--sv-num", type=int, default=None)
    p_bench.add_argument(
        "--out", default="bench_results.csv", help="records CSV path"
    )

    p_sweep = sub.add_parser(
        "sweep", parents=[batch], help="grid scan over sc_num and sv_num"
    )
    p_sweep.add_argument("--sc-nums", type=_int_list, default=[5, 10, 20, 50])
    p_sweep.add_argument("--sv-nums", type=_int_list, default=[20, 50, 100])
    p_sweep.add_argument(
        "--out", default="sweep_results.csv", help="grid CSV path"
    )

    p_oracle = sub.add_parser(
        "oracle", help="exact optimum of a small instance by enumeration"
    )
    p_oracle.add_argument("instance", help="WCNF file with at most 26 variables")
    return parser


def _config(mode: str, **overrides):
    try:
        return config_for_mode(mode, **overrides)
    except ValueError as exc:
        raise ValueError(f"bad configuration: {exc}") from None


def _cmd_solve(args: argparse.Namespace) -> int:
    # SIGTERM and SIGINT only ask the search to stop, from before the
    # instance is read on: the best model found so far is still printed,
    # and the exit code stays 0.
    stop = threading.Event()
    handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            handlers[signum] = signal.signal(signum, lambda *_: stop.set())
        except ValueError:  # not the main thread: signals stay as they are
            break

    def report(cost: int, _elapsed: float) -> None:
        print(f"o {cost}", flush=True)

    try:
        formula = read_wcnf(args.instance)
        config = _config(
            args.mode,
            seed=args.seed,
            time_limit=args.time_limit,
            max_flips=args.max_flips,
            sc_num=args.sc_num,
            sv_num=args.sv_num,
        )
        result = solve(formula, config, on_improvement=report, stop=stop)
        _print_solution(args, config, result)
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    return 0


def _print_solution(args: argparse.Namespace, config, result) -> None:
    if result.status is RunStatus.FEASIBLE:
        print("s SATISFIABLE")
        assignment = result.best_assignment
        if args.v_literals:
            lits = " ".join(
                str(i + 1 if value else -(i + 1))
                for i, value in enumerate(assignment)
            )
            print(f"v {lits}")
        else:
            print("v " + "".join("1" if value else "0" for value in assignment))
    else:
        print("s UNKNOWN")
    if args.json:
        import json

        print(json.dumps(run_record(args.instance, config, result)))


@contextmanager
def _batch(args: argparse.Namespace, **overrides):
    """The set-up ``bench`` and ``sweep`` share, all checked before any
    cell runs.  Yields the harness run's keyword arguments and the output:
    a temporary file next to ``args.out``, renamed onto it when the run
    succeeds and removed when it fails, so a failed run leaves an existing
    file as it was."""
    from .harness import discover_instances, read_best_known

    config = _config("fps", time_limit=args.time_limit,
                     max_flips=args.max_flips, **overrides)
    run = dict(
        instances=discover_instances(args.path),
        seeds=args.seeds,
        config=config,
        best_known=(
            read_best_known(args.best_known) if args.best_known else None
        ),
        jobs=args.jobs,
        warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
    )
    path = args.out
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            yield run, fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness import bench, format_report, write_records_csv

    modes = [m for m in args.modes.split(",") if m]
    with _batch(args, sc_num=args.sc_num, sv_num=args.sv_num) as (run, out):
        records, report = bench(modes=modes, **run)
        print(format_report(report))
        write_records_csv(records, out)
    print(f"records written to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import sweep

    with _batch(args) as (run, out):
        rows = sweep(sc_values=args.sc_nums, sv_values=args.sv_nums, **run)
        print("mean score per (sc_num, sv_num):")
        for row in rows:
            print(
                f"  sc={row['sc_num']:<4} sv={row['sv_num']:<4} "
                f"{row['mean_score']:.4f}"
            )
        out.write("sc_num,sv_num,mean_score\n")
        for row in rows:
            out.write(
                f"{row['sc_num']},{row['sv_num']},"
                f"{row['mean_score']:.6f}\n"
            )
    print(f"grid written to {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import exact_solve

    cost, witness = exact_solve(read_wcnf(args.instance))
    if witness is None:
        print("s UNSATISFIABLE")
    else:
        print(f"o {int(cost)}")
        print("s OPTIMUM FOUND")
        print("v " + "".join("1" if value else "0" for value in witness))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems
        return 0 if exc.code == 0 else USAGE_ERROR
    commands = {"solve": _cmd_solve, "bench": _cmd_bench,
                "sweep": _cmd_sweep, "oracle": _cmd_oracle}
    try:
        return commands[args.command](args)
    except BrokenPipeError:  # an OSError, so caught first
        # The reader closed stdout (`| head`): point it at devnull so the
        # interpreter's flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except MemoryError as exc:
        message = exc  # a batch names the failed cell's instance
        if "instance" in args:  # solve and oracle have just the one
            message = f"{args.instance}: out of memory"
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
