"""The ``fps-maxsat`` command line front end.

``solve`` follows the incomplete-solver output protocol: an ``o <cost>``
line for every improvement, then ``s SATISFIABLE`` with a ``v`` line
(default: one 0/1 character per variable) when a feasible assignment was
found, ``s UNKNOWN`` otherwise.

Exit codes: 0 on normal completion, 1 on usage errors, 2 on malformed
instance files.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, TextIO

from .formula import ParseError, parse_wcnf
from .solver import MODES, RunStatus, config_for_mode, solve

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

    p_bench = sub.add_parser("bench", help="compare modes over instances")
    p_bench.add_argument("path", help="WCNF file or directory of .wcnf files")
    p_bench.add_argument(
        "--modes",
        default="fps,single",
        help="comma-separated mode labels (default: fps,single)",
    )
    p_bench.add_argument("--seeds", type=_int_list, default=[1])
    p_bench.add_argument("--time-limit", type=float, default=300.0)
    p_bench.add_argument("--max-flips", type=int, default=None)
    p_bench.add_argument("--sc-num", type=int, default=None)
    p_bench.add_argument("--sv-num", type=int, default=None)
    p_bench.add_argument(
        "--best-known",
        default=None,
        help="CSV of instance,cost used for mean-score reporting",
    )
    p_bench.add_argument(
        "--out", default="bench_results.csv", help="records CSV path"
    )
    p_bench.add_argument("--jobs", type=int, default=None)

    p_sweep = sub.add_parser(
        "sweep", help="grid scan over sc_num and sv_num"
    )
    p_sweep.add_argument("path", help="WCNF file or directory of .wcnf files")
    p_sweep.add_argument("--sc-nums", type=_int_list, default=[5, 10, 20, 50])
    p_sweep.add_argument("--sv-nums", type=_int_list, default=[20, 50, 100])
    p_sweep.add_argument("--seeds", type=_int_list, default=[1])
    p_sweep.add_argument("--time-limit", type=float, default=300.0)
    p_sweep.add_argument("--max-flips", type=int, default=None)
    p_sweep.add_argument("--best-known", default=None)
    p_sweep.add_argument(
        "--out", default="sweep_results.csv", help="grid CSV path"
    )
    p_sweep.add_argument("--jobs", type=int, default=None)

    p_oracle = sub.add_parser(
        "oracle", help="exact optimum of a small instance by enumeration"
    )
    p_oracle.add_argument("instance", help="WCNF file with at most 26 variables")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        formula = parse_wcnf(Path(args.instance).read_bytes())
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except OSError as exc:
        print(f"cannot read {args.instance}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        config = config_for_mode(
            args.mode,
            seed=args.seed,
            time_limit=args.time_limit,
            max_flips=args.max_flips,
            sc_num=args.sc_num,
            sv_num=args.sv_num,
        )
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return USAGE_ERROR

    def report(cost: int, _elapsed: float) -> None:
        print(f"o {cost}", flush=True)

    # SIGTERM and SIGINT only ask the search to stop: the best model found
    # so far is still printed, and the exit code stays 0.
    stop = threading.Event()
    handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            handlers[signum] = signal.signal(signum, lambda *_: stop.set())
        except ValueError:  # not the main thread: signals stay as they are
            break
    try:
        result = solve(formula, config, on_improvement=report, stop=stop)
        _print_solution(args, result)
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    return 0


def _print_solution(args: argparse.Namespace, result) -> None:
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
        print(
            json.dumps(
                {
                    "instance": args.instance,
                    "mode": args.mode,
                    "seed": args.seed,
                    "status": result.status.value,
                    "cost": (
                        int(result.best_cost)
                        if result.status is RunStatus.FEASIBLE
                        else None
                    ),
                    "time_to_best_s": result.time_to_best_s,
                    "elapsed_s": result.elapsed_s,
                    "flips": result.flips,
                    "engine": result.engine,
                }
            )
        )


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """``path`` opened for writing before any cell runs, so that an
    unwritable path fails at once; removed again if the run fails."""
    with open(path, "w", newline="") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.unlink(path)
            raise


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness import (
        bench,
        discover_instances,
        format_report,
        read_best_known,
        write_records_csv,
    )

    modes = [m for m in args.modes.split(",") if m]
    try:
        config = config_for_mode(
            "fps",
            time_limit=args.time_limit,
            max_flips=args.max_flips,
            sc_num=args.sc_num,
            sv_num=args.sv_num,
        )
        instances = discover_instances(args.path)
        best_known = (
            read_best_known(args.best_known) if args.best_known else None
        )
        with _output(args.out) as out:
            records, report = bench(
                instances,
                modes=modes,
                seeds=args.seeds,
                config=config,
                best_known=best_known,
                jobs=args.jobs,
                warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
            )
            print(format_report(report))
            write_records_csv(records, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"records written to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import discover_instances, read_best_known, sweep

    try:
        config = config_for_mode(
            "fps", time_limit=args.time_limit, max_flips=args.max_flips
        )
        instances = discover_instances(args.path)
        best_known = (
            read_best_known(args.best_known) if args.best_known else None
        )
        with _output(args.out) as out:
            rows = sweep(
                instances,
                sc_values=args.sc_nums,
                sv_values=args.sv_nums,
                seeds=args.seeds,
                config=config,
                best_known=best_known,
                jobs=args.jobs,
                warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
            )
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
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"grid written to {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import exact_solve

    try:
        formula = parse_wcnf(Path(args.instance).read_bytes())
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except OSError as exc:
        print(f"cannot read {args.instance}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        cost, witness = exact_solve(formula)
    except (ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
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
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_oracle(args)


if __name__ == "__main__":
    sys.exit(main())
