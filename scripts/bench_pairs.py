"""Before/after comparison of two checkouts of this repository.

Run from the repository root, with the parent commit checked out elsewhere
(for example with ``git archive``)::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seconds 55 --out BENCH_<n>.json

``pairs`` runs ``python3 perfbench/run.py --workload W --seed i --seconds S``
in each checkout, alternating which side goes first, for every workload and
for seeds 1..N.  For each end-to-end metric it reports each side's median
and quartiles over the runs and how many pairs the change won (ties count
for neither side).  ``--stages`` adds start-up stage timings of the
perfbench instances (``lookahead``, and ``large``, which no workload
covers) and of the ``large`` recipe at ten times its size, measured
through interfaces both checkouts share.  Every run also records the
``nm -S --defined-only`` sizes of the functions in each checkout's kernel
library, and prints the functions that appear, disappear or change size:
a step-loop helper that gcc stops inlining shows up there.  The JSON
written to ``--out`` records the command of every number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402

# The instance of perfbench's `lookahead` and `walk` workloads, the recipe
# of its `large` workload, ten times that, and `large` with one more soft
# clause of `long_clause` literals: the parser checks clauses of at most 8
# literals for a repeated variable by one method and longer ones by
# another, so `large` and `large_long` measure both on the same clauses.
INSTANCES = {
    "lookahead": dict(n=300, m_hard=700, m_soft=1400, conflicts=3),
    "large": dict(n=10_000, m_hard=20_000, m_soft=30_000, conflicts=100),
    "large_long": dict(n=10_000, m_hard=20_000, m_soft=30_000,
                       conflicts=100, long_clause=16),
    "large_x10": dict(n=100_000, m_hard=200_000, m_soft=300_000,
                      conflicts=1000),
}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def perfbench(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def pairs(args):
    """Alternating parent/change perfbench runs, summarised per metric."""
    report = {}
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                checkout = getattr(args, side)
                runs[side].append(
                    perfbench(checkout, workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side} done", file=sys.stderr)
        metrics = {}
        for name, first in runs["parent"][0]["metrics"].items():
            side_values = {
                side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in runs
            }
            better = 1 if name == "flips_per_s" else -1
            wins = sum(
                (c - p) * better > 0
                for p, c in zip(side_values["parent"], side_values["change"])
            )
            metrics[name] = {
                "unit": first["unit"],
                "parent": summary(side_values["parent"]),
                "change": summary(side_values["change"]),
                "change_wins": wins,
            }
        report[workload] = {
            "command": "python3 perfbench/run.py --workload "
                       f"{workload} --seed <i> --seconds {args.seconds}",
            "seeds": list(range(1, args.pairs + 1)),
            "failed": {side: [r["failed"] for r in runs[side]]
                       for side in runs},
            "attempted": {side: [r["attempted"] for r in runs[side]]
                          for side in runs},
            "metrics": metrics,
        }
    return report


STAGE_CODE = """
import random, resource, statistics, sys, time
from fps_maxsat.formula import parse_wcnf
from fps_maxsat.solver import SolverConfig, solve
data = open(sys.argv[1], "rb").read()
parse, first_flip = [], []
for _ in range(int(sys.argv[2])):
    t = time.perf_counter(); formula = parse_wcnf(data)
    parse.append(time.perf_counter() - t)
    t = time.perf_counter(); solve(formula, SolverConfig(max_flips=0))
    first_flip.append(time.perf_counter() - t)
print(statistics.median(parse), statistics.median(first_flip))
"""


def child_time(checkout, argv):
    """Wall seconds and peak RSS (MB) of one child process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env,
                            stdout=subprocess.PIPE, cwd=checkout)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return time.perf_counter() - t0, usage.ru_maxrss / 1024, out


def stages(args, workdir):
    """Start-up stages of each of INSTANCES, on both checkouts."""
    report = {}
    for name, recipe in INSTANCES.items():
        clauses = gen.conflicted_weighted_instance(
            1, recipe["n"], recipe["m_hard"], recipe["m_soft"],
            recipe["conflicts"])
        if "long_clause" in recipe:
            clauses.append(
                (False, 1, list(range(1, recipe["long_clause"] + 1))))
        data = gen.to_wcnf(clauses)
        path = os.path.join(workdir, f"{name}.wcnf")
        with open(path, "wb") as fh:
            fh.write(data)
        entry = {"recipe": recipe, "bytes": len(data), "runs": args.reps}
        for side in ("parent", "change"):
            checkout = getattr(args, side)
            setup, rss, imports = [], [], []
            for _ in range(args.reps):
                wall, peak, _ = child_time(
                    checkout, ["-m", "fps_maxsat", "solve", path,
                               "--max-flips", "0"])
                setup.append(wall)
                rss.append(peak)
                imports.append(
                    child_time(checkout, ["-c", "import fps_maxsat.cli"])[0]
                    - child_time(checkout, ["-c", "pass"])[0])
            _, _, out = child_time(
                checkout, ["-c", STAGE_CODE, path, str(args.reps)])
            parse_s, first_flip_s = map(float, out.split())
            entry[side] = {
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(rss),
                "import_s": statistics.median(imports),
                "parse_s": parse_s,
                "parse_mb_per_s": len(data) / 1e6 / parse_s,
                "solve_to_first_flip_s": first_flip_s,
            }
        report[name] = entry
    return {
        "instances": report,
        "commands": {
            "setup_s, peak_rss_mb": "python3 -m fps_maxsat solve FILE "
                                    "--max-flips 0 (wall time and ru_maxrss "
                                    "of the process; median of runs)",
            "import_s": "python3 -c 'import fps_maxsat.cli' minus "
                        "python3 -c pass (median of runs)",
            "parse_s, parse_mb_per_s, solve_to_first_flip_s":
                "in one process: parse_wcnf(bytes), then "
                "solve(formula, SolverConfig(max_flips=0)), which builds "
                "the initial state, verifies it and returns (median of runs)",
            "instances": "perfbench/gen.py conflicted_weighted_instance"
                         "(1, n, m_hard, m_soft, conflicts) in the 2022 "
                         "dialect; with long_clause=k, then the soft "
                         "clause 1 .. k of weight 1",
        },
    }


LIBRARY_CODE = """
from fps_maxsat import _kernel
lib = _kernel.load()
print("" if lib is None else lib._name)
"""


def kernel_functions(checkout):
    """``nm -S`` sizes of the functions in the checkout's kernel library,
    built by the checkout's own ``_kernel.load()``; None when it cannot be
    built or read."""
    path = child_time(checkout, ["-c", LIBRARY_CODE])[2].decode().strip()
    if not path:
        return None
    try:
        out = subprocess.run(["nm", "-S", "--defined-only", path],
                             capture_output=True, text=True,
                             check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    sizes = {}
    for line in out.splitlines():
        fields = line.split()
        # address, size, type, name; t/T are functions in the text section
        if len(fields) == 4 and fields[2] in ("t", "T"):
            sizes[fields[3]] = int(fields[1], 16)
    return sizes


def kernel_functions_report(args):
    """Both checkouts' kernel function sizes and what changed between."""
    parent, change = (kernel_functions(args.parent),
                      kernel_functions(args.change))
    report = {"command": "nm -S --defined-only LIB, where LIB is the "
                         "library the checkout's _kernel.load() builds",
              "parent": parent, "change": change}
    if parent is None or change is None:
        print("kernel functions: a library could not be built or read",
              file=sys.stderr)
        return report
    report["appeared"] = sorted(change.keys() - parent.keys())
    report["disappeared"] = sorted(parent.keys() - change.keys())
    report["resized"] = {name: [parent[name], change[name]]
                         for name in sorted(parent.keys() & change.keys())
                         if parent[name] != change[name]}
    for name in report["appeared"]:
        print(f"kernel function appeared: {name} ({change[name]} bytes)")
    for name in report["disappeared"]:
        print(f"kernel function disappeared: {name} ({parent[name]} bytes)")
    for name, (before, after) in report["resized"].items():
        print(f"kernel function resized: {name} {before} -> {after} bytes")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=ROOT)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--workloads", default="lookahead,walk")
    parser.add_argument("--stages", action="store_true",
                        help="also time the start-up stages of INSTANCES")
    parser.add_argument("--reps", type=int, default=5,
                        help="runs per stage timing")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    args.parent = os.path.abspath(args.parent)
    args.change = os.path.abspath(args.change)
    result = {
        "command": " ".join(["python3", "scripts/bench_pairs.py"]
                            + sys.argv[1:]),
        "environment": {"python": platform.python_version(),
                        "nproc": os.cpu_count(),
                        "machine": platform.machine()},
    }
    result["kernel_functions"] = kernel_functions_report(args)
    if args.pairs:
        result["pairs"] = pairs(args)
    if args.stages:
        with tempfile.TemporaryDirectory() as workdir:
            result["stages"] = stages(args, workdir)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
