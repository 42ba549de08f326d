"""Benchmark harness: modes, scoring, win counting, CSV I/O, and the CLI."""

import csv
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fps_maxsat
import fps_maxsat.harness as harness
from fps_maxsat import _kernel
from fps_maxsat.cli import main
from fps_maxsat.formula import INFEASIBLE, evaluate_cost, write_wcnf
from fps_maxsat.harness import (
    CSV_FIELDS,
    InstanceRecord,
    bench,
    config_for_mode,
    discover_instances,
    mse_score,
    read_best_known,
    run_batch,
    run_instance,
    score_table,
    summarize,
    sweep,
    write_records_csv,
    _worker_count,
)
from fps_maxsat.solver import MODES, SolverConfig

from helpers import conflicted_weighted_instance

WORKED = "1 -1 2 0\n1 1 -2 0\n1 1 2 0\n"
CONTRADICTION = "h 1 0\nh -1 0\n"
OLD_WEIGHTED = "p wcnf 2 3 10\n10 1 2 0\n3 -1 0\n5 2 0\n"


def rec(instance, mode, seed=1, cost=0, t=0.0, status="feasible", flips=10):
    if cost is None:
        status = "no-feasible-found"
    return InstanceRecord(
        instance=instance,
        mode=mode,
        seed=seed,
        status=status,
        cost=cost,
        time_to_best_s=t,
        flips=flips,
    )


def untimed(record):
    """A record without its timing, which differs between runs."""
    return (record.instance, record.mode, record.seed, record.status,
            record.cost, record.flips)


@pytest.fixture(params=["c", "python"])
def engine(request, monkeypatch):
    """Run a test once per engine: the compiled kernel, then pure Python.

    The Python run switches the kernel off by making its loader report
    that no build is available.  The kernel run is skipped, and reported
    as skipped, when the kernel cannot be built on this machine.
    """
    if request.param == "python":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    elif _kernel.load() is None:
        pytest.skip("the C kernel cannot be built here")
    return request.param


@pytest.fixture
def worked_file(tmp_path):
    p = tmp_path / "worked.wcnf"
    p.write_text(WORKED)
    return p


class TestBenchmarkImports:
    def test_names_the_benchmark_reads(self):
        # perfbench's traced runs import these names
        from fps_maxsat import engine, formula, solver

        assert harness.config_for_mode is solver.config_for_mode
        for module, name in [
            (engine, "SearchState"),
            (engine, "WeightingParams"),
            (solver, "fps_step"),
            (solver, "bms_pick"),
            (solver, "evaluate_cost"),
            (formula, "parse_wcnf"),
        ]:
            assert callable(getattr(module, name)), name


class TestMseScore:
    def test_matching_best_known(self):
        assert mse_score(9, 9) == 1.0
        assert mse_score(0, 0) == 1.0

    def test_worse_than_best_known(self):
        assert mse_score(9, 19) == 0.5

    def test_infeasible_scores_zero(self):
        assert mse_score(4, None) == 0.0
        assert mse_score(4, INFEASIBLE) == 0.0

    def test_stale_best_known_raises(self):
        with pytest.raises(ValueError, match="stale"):
            mse_score(5, 3)

    def test_negative_best_known_raises(self):
        with pytest.raises(ValueError):
            mse_score(-1, 3)


class TestModes:
    def test_mode_names(self):
        # the strategy, its baseline and its one ablation, in the order
        # the kernel's mode enum follows
        assert MODES == ("fps", "single", "fps-rw")

    def test_configs(self):
        for m in MODES:
            assert config_for_mode(m).mode == m
        # everything not overridden stays at the tuned defaults
        assert (config_for_mode("fps").sc_num, config_for_mode("fps").sv_num) == (
            10,
            50,
        )

    def test_overrides(self):
        cfg = config_for_mode("fps", seed=7, max_flips=123)
        assert cfg.seed == 7 and cfg.max_flips == 123

    def test_none_overrides_ignored(self):
        assert config_for_mode("fps", sc_num=None).sc_num == 10

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            config_for_mode("nope")


class TestWorkerCount:
    def test_defaults_to_one(self):
        assert _worker_count(None, 10) == 1

    def test_task_count_caps(self):
        assert _worker_count(6, 2) == 2


class TestRunInstance:
    def test_feasible_run(self, worked_file):
        record = run_instance(
            worked_file, SolverConfig(seed=1, max_flips=10_000)
        )
        assert record.status == "feasible"
        assert record.cost == 0
        assert record.mode == "fps" and record.seed == 1
        assert record.instance == str(worked_file)
        assert record.flips > 0

    def test_infeasible_run(self, tmp_path):
        p = tmp_path / "bad.wcnf"
        p.write_text(CONTRADICTION)
        record = run_instance(
            p, SolverConfig(mode="single", seed=3, max_flips=500)
        )
        assert record.status == "no-feasible-found"
        assert record.cost is None
        assert record.mode == "single" and record.seed == 3

    def test_parallel_batch_keeps_order(self, tmp_path):
        a = tmp_path / "a.wcnf"
        b = tmp_path / "b.wcnf"
        a.write_text(WORKED)
        b.write_text(OLD_WEIGHTED)
        config = SolverConfig(time_limit=60.0, max_flips=500)
        cells = [
            (a, config),
            (b, config),
            (a, SolverConfig(mode="single", seed=2, max_flips=500)),
        ]
        records = run_batch(cells, jobs=2)
        assert [(r.instance, r.mode, r.seed) for r in records] == [
            (str(a), "fps", 1),
            (str(b), "fps", 1),
            (str(a), "single", 2),
        ]
        assert all(r.status == "feasible" for r in records)
        # worker processes give the records a serial run gives
        assert list(map(untimed, records)) == list(
            map(untimed, run_batch(cells))
        )


class TestScoreTable:
    def test_seeds_averaged_then_instances(self):
        records = [
            rec("a", "fps", seed=1, cost=4),
            rec("a", "fps", seed=2, cost=9),
            rec("b", "fps", seed=1, cost=0),
        ]
        table = score_table(records, {"a": 4, "b": 0})
        assert table.scores["a"] == pytest.approx(0.75)  # (1.0 + 0.5) / 2
        assert table.scores["b"] == 1.0
        assert table.average == pytest.approx(0.875)

    def test_missing_entry_scored_against_best_achieved(self):
        records = [
            rec("c", "fps", seed=1, cost=3),
            rec("c", "fps", seed=2, cost=7),
        ]
        table = score_table(records, best_known={})
        assert table.scores["c"] == pytest.approx((1.0 + 0.5) / 2)

    def test_stale_entry_warns_and_reconciles(self):
        warnings = []
        records = [
            rec("a", "fps", seed=1, cost=4),
            rec("a", "fps", seed=2, cost=9),
        ]
        table = score_table(records, {"a": 9}, warn=warnings.append)
        assert any("stale" in w for w in warnings)
        # scored against the achieved 4, not the stale 9
        assert table.scores["a"] == pytest.approx(0.75)

    def test_infeasible_contributes_zero(self):
        records = [
            rec("a", "fps", seed=1, cost=None),
            rec("a", "fps", seed=2, cost=0),
        ]
        table = score_table(records, {"a": 0})
        assert table.scores["a"] == pytest.approx(0.5)

    def test_basename_lookup(self):
        records = [rec("/runs/dir/i.wcnf", "fps", cost=3)]
        table = score_table(records, {"i.wcnf": 3})
        assert table.scores["/runs/dir/i.wcnf"] == 1.0


class TestSummarize:
    def test_two_mode_tie_broken_by_time(self):
        records = [
            rec("i", "fps", cost=5, t=3.0),
            rec("i", "single", cost=5, t=5.0),
        ]
        report = summarize(records, ("fps", "single"))
        assert report.num_cells == 1
        assert report.wins == {"fps": 1, "single": 0}

    def test_two_mode_exact_tie_both_win(self):
        records = [
            rec("i", "fps", cost=5, t=2.0),
            rec("i", "single", cost=5, t=2.0),
        ]
        report = summarize(records, ("fps", "single"))
        assert report.wins == {"fps": 1, "single": 1}

    def test_infeasible_never_wins(self):
        records = [
            rec("i", "fps", cost=None),
            rec("i", "single", cost=7, t=9.0),
        ]
        report = summarize(records, ("fps", "single"))
        assert report.wins == {"fps": 0, "single": 1}

    def test_all_infeasible_cell_has_no_winner(self):
        records = [
            rec("i", "fps", cost=None),
            rec("i", "single", cost=None),
        ]
        report = summarize(records, ("fps", "single"))
        assert report.num_cells == 1
        assert report.wins == {"fps": 0, "single": 0}

    def test_three_mode_tie_not_time_broken(self):
        records = [
            rec("i", "fps", cost=5, t=1.0),
            rec("i", "fps-rw", cost=5, t=9.0),
            rec("i", "single", cost=6, t=0.1),
        ]
        report = summarize(records, ("fps", "fps-rw", "single"))
        assert report.wins == {"fps": 1, "fps-rw": 1, "single": 0}

    def test_mean_times(self):
        records = [
            rec("i", "fps", seed=1, cost=5, t=2.0),
            rec("i", "single", seed=1, cost=6, t=4.0),
            rec("j", "fps", seed=1, cost=None, t=0.0),
            rec("j", "single", seed=1, cost=1, t=6.0),
        ]
        report = summarize(records, ("fps", "single"))
        assert report.wins == {"fps": 1, "single": 1}
        assert report.mean_win_time["fps"] == pytest.approx(2.0)
        assert report.mean_win_time["single"] == pytest.approx(6.0)
        assert report.mean_time["single"] == pytest.approx(5.0)

    def test_mean_score_uses_shared_reconciled_table(self):
        records = [
            rec("i", "fps", cost=1),
            rec("i", "single", cost=3),
        ]
        report = summarize(records, ("fps", "single"), best_known={"i": 1})
        assert report.mean_score["fps"] == 1.0
        assert report.mean_score["single"] == pytest.approx(0.5)


class TestBench:
    def test_records_and_report(self, tmp_path):
        a = tmp_path / "a.wcnf"
        b = tmp_path / "b.wcnf"
        a.write_text(WORKED)
        b.write_text(OLD_WEIGHTED)
        records, report = bench(
            [a, b],
            modes=("fps", "single"),
            seeds=(1, 2),
            config=SolverConfig(time_limit=60.0, max_flips=2_000),
        )
        assert len(records) == 8
        assert report.num_cells == 4
        assert set(report.wins) == {"fps", "single"}

    def test_deterministic_over_reruns(self, tmp_path):
        a = tmp_path / "a.wcnf"
        a.write_text(OLD_WEIGHTED)

        def run():
            records, _ = bench(
                [a],
                modes=("fps", "single"),
                seeds=(1, 2),
                config=SolverConfig(max_flips=2_000),
            )
            return list(map(untimed, records))

        assert run() == run()

    def test_cells_take_the_base_config(self, worked_file, monkeypatch):
        seen = []
        real = harness.run_instance

        def recording(path, config):
            seen.append(config)
            return real(path, config)

        monkeypatch.setattr(harness, "run_instance", recording)
        base = SolverConfig(sc_num=3, sv_num=7, max_flips=300, seed=99)
        bench([worked_file], modes=("fps-rw", "single"), seeds=(4, 5),
              config=base)
        assert [(c.mode, c.seed) for c in seen] == [
            ("fps-rw", 4), ("fps-rw", 5), ("single", 4), ("single", 5)
        ]
        assert all(
            (c.sc_num, c.sv_num, c.max_flips, c.time_limit)
            == (3, 7, 300, base.time_limit)
            for c in seen
        )

    def test_requires_instances_and_known_modes(self, worked_file,
                                                no_cell_runs):
        with pytest.raises(ValueError):
            bench([], modes=("fps",))
        with pytest.raises(ValueError, match="unknown mode"):
            # the bad mode comes last: every cell is built before one runs
            bench([worked_file], modes=("fps", "bogus"))
        with pytest.raises(ValueError, match="no modes"):
            bench([worked_file], modes=())
        with pytest.raises(ValueError, match="no seeds"):
            bench([worked_file], seeds=())


class TestSweep:
    def test_grid_rows(self, worked_file):
        rows = sweep(
            [worked_file],
            sc_values=(5, 10),
            sv_values=(20, 50),
            seeds=(1,),
            config=SolverConfig(max_flips=1_000),
        )
        assert [(r["sc_num"], r["sv_num"]) for r in rows] == [
            (5, 20),
            (5, 50),
            (10, 20),
            (10, 50),
        ]
        for row in rows:
            assert 0.0 < row["mean_score"] <= 1.0

    def test_empty_inputs(self, worked_file):
        with pytest.raises(ValueError):
            sweep([], sc_values=(5,), sv_values=(20,))
        with pytest.raises(ValueError, match="grid"):
            sweep([worked_file], sc_values=(), sv_values=(20,))
        with pytest.raises(ValueError, match="no seeds"):
            sweep([worked_file], seeds=())

    def test_repeated_values_run_once(self, worked_file, monkeypatch):
        seen = []
        real = harness.run_instance

        def recording(path, config):
            seen.append((config.sc_num, config.sv_num, config.seed))
            return real(path, config)

        monkeypatch.setattr(harness, "run_instance", recording)
        rows = sweep(
            [worked_file],
            sc_values=(5, 3, 5),
            sv_values=(20, 20),
            seeds=(1, 1),
            config=SolverConfig(max_flips=300),
        )
        assert [(r["sc_num"], r["sv_num"]) for r in rows] == [(5, 20), (3, 20)]
        assert seen == [(5, 20, 1), (3, 20, 1)]


class TestCsvIO:
    def test_write_records_csv(self, tmp_path):
        records = [
            rec("a.wcnf", "fps", seed=1, cost=3, t=0.25, flips=77),
            rec("b.wcnf", "fps", seed=2, cost=None),
        ]
        out = tmp_path / "records.csv"
        with open(out, "w", newline="") as fh:
            write_records_csv(records, fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "instance,mode,seed,status,cost,time_to_best_s,flips"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["cost"] == "3" and rows[0]["flips"] == "77"
        assert rows[1]["cost"] == "inf"
        assert rows[1]["status"] == "no-feasible-found"

    def test_csv_fields_constant(self):
        assert CSV_FIELDS == [
            "instance",
            "mode",
            "seed",
            "status",
            "cost",
            "time_to_best_s",
            "flips",
        ]

    def test_read_best_known(self, tmp_path):
        p = tmp_path / "best.csv"
        p.write_text("instance,cost\n# comment\na.wcnf,4\nb.wcnf,0\n")
        assert read_best_known(p) == {"a.wcnf": 4, "b.wcnf": 0}

    def test_read_best_known_malformed(self, tmp_path):
        p = tmp_path / "best.csv"
        p.write_text("only-one-column\n")
        with pytest.raises(ValueError, match="malformed"):
            read_best_known(p)

    @pytest.mark.parametrize("cost", ["-3", "4.5", "many"])
    def test_read_best_known_bad_cost(self, tmp_path, cost):
        p = tmp_path / "best.csv"
        p.write_text(f"instance,cost\na.wcnf,4\nb.wcnf,{cost}\n")
        with pytest.raises(ValueError) as info:
            read_best_known(p)
        message = str(info.value)
        assert message.startswith(f"{p}:3: ")
        assert "non-negative integer" in message and repr(cost) in message


class TestDiscoverInstances:
    def test_directory_sorted_wcnf_only(self, tmp_path):
        (tmp_path / "b.wcnf").write_text(WORKED)
        (tmp_path / "a.wcnf").write_text(WORKED)
        (tmp_path / "notes.txt").write_text("not an instance")
        found = discover_instances(tmp_path)
        assert [f.rsplit("/", 1)[-1] for f in found] == ["a.wcnf", "b.wcnf"]

    def test_single_file(self, worked_file):
        assert discover_instances(worked_file) == [str(worked_file)]

    def test_missing_path(self, tmp_path):
        with pytest.raises(ValueError, match="no such instance"):
            discover_instances(tmp_path / "ghost")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no .wcnf"):
            discover_instances(tmp_path)


class TestCliSolve:
    def test_output_protocol(self, worked_file, capsys):
        code = main(
            ["solve", str(worked_file), "--seed", "1", "--max-flips", "10000"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("o ")
        assert "o 0" in lines
        assert lines[-2] == "s SATISFIABLE"
        assert lines[-1] == "v 11"
        # o lines strictly improve
        costs = [int(l.split()[1]) for l in lines if l.startswith("o ")]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_v_literals_style(self, worked_file, capsys):
        code = main(
            [
                "solve",
                str(worked_file),
                "--max-flips",
                "10000",
                "--v-literals",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "v 1 2"

    def test_unknown_when_hards_unsatisfied(self, tmp_path, capsys):
        p = tmp_path / "c.wcnf"
        p.write_text(CONTRADICTION)
        code = main(["solve", str(p), "--max-flips", "300"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["s UNKNOWN"]

    def test_zero_clause_instance(self, tmp_path, capsys):
        p = tmp_path / "z.wcnf"
        p.write_text("p wcnf 3 0 5\n")
        code = main(["solve", str(p), "--max-flips", "100"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "o 0"
        assert lines[1] == "s SATISFIABLE"
        assert lines[2].startswith("v ") and len(lines[2]) == 5

    def test_json_record(self, worked_file, capsys):
        code = main(
            ["solve", str(worked_file), "--max-flips", "10000", "--json"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        payload = json.loads(lines[-1])
        assert payload["status"] == "feasible"
        assert payload["cost"] == 0
        assert payload["mode"] == "fps" and payload["seed"] == 1
        assert payload["instance"] == str(worked_file)
        assert isinstance(payload["flips"], int)
        assert payload["engine"] in ("c", "python")
        assert lines[-2] == "v 11"

    def test_json_names_the_engine(self, engine, worked_file, capsys):
        assert main(
            ["solve", str(worked_file), "--max-flips", "1000", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["engine"] == engine

    def test_v_line_reevaluates(self, tmp_path, capsys):
        # the printed assignment must achieve the final printed cost
        from fps_maxsat.formula import evaluate_cost, parse_wcnf

        p = tmp_path / "w.wcnf"
        p.write_text(OLD_WEIGHTED)
        assert main(["solve", str(p), "--max-flips", "20000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        final_cost = [int(l.split()[1]) for l in lines if l.startswith("o ")][-1]
        bits = lines[-1].split()[1]
        assign = [ch == "1" for ch in bits]
        assert evaluate_cost(parse_wcnf(OLD_WEIGHTED), assign) == final_cost

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "broken.wcnf"
        p.write_text("p wcnf 1 1 5\nnot a clause\n")
        assert main(["solve", str(p)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "ghost.wcnf")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_mode_exit_code(self, worked_file, capsys):
        assert main(["solve", str(worked_file), "--mode", "bogus"]) == 1

    def test_bad_flip_budget_exit_code(self, worked_file, capsys):
        assert main(["solve", str(worked_file), "--max-flips", "-5"]) == 1
        assert "bad configuration" in capsys.readouterr().err

    def test_nan_time_limit_exit_code(self, worked_file, capsys):
        # a NaN limit would never stop the search
        assert main(["solve", str(worked_file), "--time-limit", "nan"]) == 1
        captured = capsys.readouterr()
        assert "bad configuration" in captured.err
        assert captured.out == ""

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_command(self, capsys):
        assert main([]) == 1


SRC = str(Path(fps_maxsat.__file__).resolve().parents[1])


def run_cli(code: str, *args: str, **kwargs) -> subprocess.Popen:
    """A child interpreter running ``code`` with the package on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **kwargs,
    )


class TestCliInterrupt:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_signal_prints_best_model(self, signum, tmp_path):
        formula = conflicted_weighted_instance(
            random.Random(1), 300, 700, 1400
        )
        path = tmp_path / "long.wcnf"
        path.write_text(write_wcnf(formula))
        proc = run_cli(
            "import sys; from fps_maxsat.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "solve", str(path), "--time-limit", "120",
        )
        try:
            first = proc.stdout.readline()
            assert first.startswith("o "), first
            time.sleep(0.3)
            proc.send_signal(signum)
            rest, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "Traceback" not in err
        lines = [first.rstrip("\n")] + rest.splitlines()
        costs = [int(line[2:]) for line in lines if line.startswith("o ")]
        assert "s SATISFIABLE" in lines
        (model,) = [line[2:] for line in lines if line.startswith("v ")]
        assignment = [ch == "1" for ch in model]
        assert evaluate_cost(formula, assignment) == costs[-1]

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_signal_while_reading(self, signum, worked_file):
        # the child signals itself as the reader starts: the search then
        # stops at its first check, before any flip
        proc = run_cli(
            "import os, sys; from fps_maxsat import cli\n"
            "read = cli.read_wcnf\n"
            "def read_signalled(path):\n"
            f"    os.kill(os.getpid(), {int(signum)})\n"
            "    return read(path)\n"
            "cli.read_wcnf = read_signalled\n"
            "sys.exit(cli.main(sys.argv[1:]))",
            "solve", str(worked_file), "--time-limit", "120", "--json",
        )
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "Traceback" not in err
        lines = out.splitlines()
        assert len([line for line in lines if line.startswith("s ")]) == 1
        assert json.loads(lines[-1])["flips"] == 0


class TestCliFailures:
    MAIN = ("import sys; from fps_maxsat.cli import main; "
            "sys.exit(main(sys.argv[1:]))")

    def assert_out_of_memory(self, command, path, limit):
        """``command`` on ``path`` in a child whose address space is capped
        at ``limit`` bytes fails with one line naming ``path``."""

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        args = [command, str(path)]
        if command != "oracle":
            args += ["--max-flips", "10"]
        if command in ("bench", "sweep"):
            args += ["--out", str(path.parent / "out.csv")]
        proc = run_cli(self.MAIN, *args, preexec_fn=cap_memory)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 1, err
        assert err == f"error: {path}: out of memory\n"
        assert out == ""
        assert not (path.parent / "out.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
    def test_oversized_instance_out_of_memory(self, command, tmp_path):
        # 2e8 variables would take about 40 GB; never run this file
        # without the address-space limit the child sets for itself.
        path = tmp_path / "huge.wcnf"
        path.write_text("p wcnf 200000000 1 10\n3 1 0\n")
        self.assert_out_of_memory(command, path, 256 * 2**20)

    @pytest.mark.parametrize("command", ["solve", "oracle", "bench", "sweep"])
    def test_parse_out_of_memory(self, command, tmp_path):
        # Parsing these 150k clauses (3.4 MB) peaks near 110 MB of address
        # space, start-up with every module the commands load near 20 MB.
        path = tmp_path / "wide.wcnf"
        path.write_text("".join(
            f"1 {v} {-(v + 1)} {v + 2} 0\n" for v in range(1, 150_001)))
        self.assert_out_of_memory(command, path, 64 * 2**20)

    def test_closed_stdout(self, tmp_path):
        # `solve ... | head -1`: the reader goes away after the first line
        formula = conflicted_weighted_instance(
            random.Random(1), 300, 700, 1400
        )
        path = tmp_path / "long.wcnf"
        path.write_text(write_wcnf(formula))
        proc = run_cli(self.MAIN, "solve", str(path), "--seed", "2",
                       "--time-limit", "1")
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert first.startswith("o "), first
        assert "Traceback" not in err, err
        assert proc.returncode == 1


class TestCliOracle:
    def test_missing_numpy(self, worked_file):
        proc = run_cli(
            "import sys; sys.modules['numpy'] = None; "
            "from fps_maxsat.cli import main; sys.exit(main(sys.argv[1:]))",
            "oracle", str(worked_file),
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.startswith("error: ") and "numpy" in err
        assert "Traceback" not in err and out == ""

    def test_optimum_output(self, worked_file, capsys):
        assert main(["oracle", str(worked_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["o 0", "s OPTIMUM FOUND", "v 11"]

    def test_unsatisfiable(self, tmp_path, capsys):
        p = tmp_path / "c.wcnf"
        p.write_text(CONTRADICTION)
        assert main(["oracle", str(p)]) == 0
        assert capsys.readouterr().out.splitlines() == ["s UNSATISFIABLE"]

    def test_too_wide_instance(self, tmp_path, capsys):
        p = tmp_path / "wide.wcnf"
        p.write_text("1 27 0\n")
        assert main(["oracle", str(p)]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "broken.wcnf"
        p.write_text("h h h\n")
        assert main(["oracle", str(p)]) == 2


@pytest.fixture
def no_cell_runs(monkeypatch):
    """Fail the test if any (instance, mode, seed) cell is solved."""

    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve", refuse)


class TestCliBenchAndSweep:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--modes", ","],
            ["bench", "--seeds", ","],
            ["sweep", "--seeds", ","],
        ],
        ids=["bench-modes", "bench-seeds", "sweep-seeds"],
    )
    def test_empty_list_is_an_error(self, argv, worked_file, tmp_path,
                                    capsys, no_cell_runs):
        out = tmp_path / "out.csv"
        code = main([argv[0], str(worked_file), *argv[1:], "--max-flips",
                     "100", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--modes", "fps,bogus"],
            ["bench", "--seeds", ","],
            ["sweep", "--sc-nums", "5,0"],
        ],
        ids=["bench-mode", "bench-seeds", "sweep-sc"],
    )
    def test_failed_run_keeps_existing_out(self, argv, worked_file, tmp_path,
                                           capsys):
        out = tmp_path / "old.csv"
        out.write_text("keep\n")
        code = main([argv[0], str(worked_file), *argv[1:], "--max-flips",
                     "100", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "old.csv", "worked.wcnf"
        ]

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_run_replaces_existing_out(self, command, worked_file, tmp_path,
                                       capsys):
        out = tmp_path / "old.csv"
        out.write_text("keep\n")
        code = main([command, str(worked_file), "--seeds", "1",
                     "--max-flips", "100", "--out", str(out)])
        assert code == 0
        assert out.read_text() != "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "old.csv", "worked.wcnf"
        ]

    def test_bench_writes_csv_and_report(self, tmp_path, capsys):
        d = tmp_path / "inst"
        d.mkdir()
        (d / "a.wcnf").write_text(WORKED)
        (d / "b.wcnf").write_text(OLD_WEIGHTED)
        out = tmp_path / "out.csv"
        code = main(
            [
                "bench",
                str(d),
                "--modes",
                "fps,single",
                "--seeds",
                "1,2",
                "--max-flips",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "cells: 4" in stdout
        assert f"records written to {out}" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 9

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_parse_error_names_the_file(self, command, tmp_path, capsys):
        d = tmp_path / "inst"
        d.mkdir()
        (d / "a.wcnf").write_text(WORKED)
        bad = d / "b.wcnf"
        bad.write_text("h 1 0\nx 2 0\n")
        out = tmp_path / "out.csv"
        code = main([command, str(d), "--max-flips", "100", "--out",
                     str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"parse error: {bad}: line 2: expected 'h' or clause weight, "
            "got 'x'\n"
        )
        assert not out.exists()

    def test_bench_missing_path(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "ghost")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bench_repeated_mode_runs_once(self, worked_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(
            [
                "bench",
                str(worked_file),
                "--modes",
                "fps,single,fps",
                "--max-flips",
                "1000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["fps", "single"]
        table = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("fps ") for line in table) == 1

    def test_bench_repeated_seed_runs_once(self, worked_file, tmp_path,
                                           capsys):
        out = tmp_path / "out.csv"
        code = main(["bench", str(worked_file), "--modes", "fps",
                     "--seeds", "1,1", "--max-flips", "1000",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1:3] for row in rows] == [["fps", "1"]]
        assert "cells: 1" in capsys.readouterr().out

    def test_sweep_repeated_values_run_once(self, worked_file, tmp_path,
                                            capsys):
        out = tmp_path / "grid.csv"
        code = main(["sweep", str(worked_file), "--sc-nums", "5,10,5",
                     "--sv-nums", "20,20", "--seeds", "2,2",
                     "--max-flips", "1000", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["5", "20"], ["10", "20"]
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--sc-num", "0"],
            ["bench", "--sv-num", "-1"],
            ["bench", "--time-limit", "0"],
            ["bench", "--max-flips", "-5"],
            ["sweep", "--sc-nums", "5,0"],
            ["sweep", "--sv-nums", "20,0"],
            ["sweep", "--time-limit", "nan"],
        ],
        ids=["bench-sc", "bench-sv", "bench-time", "bench-flips",
             "sweep-sc", "sweep-sv", "sweep-time"],
    )
    def test_bad_config_fails_before_any_cell(self, argv, worked_file,
                                              tmp_path, capsys,
                                              no_cell_runs):
        out = tmp_path / "out.csv"
        code = main([argv[0], str(worked_file), *argv[1:], "--out",
                     str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    @pytest.mark.parametrize("cost", ["-3", "2.5"])
    def test_bad_best_known_fails_before_any_cell(self, command, cost,
                                                  worked_file, tmp_path,
                                                  capsys, no_cell_runs):
        table = tmp_path / "best.csv"
        table.write_text(f"worked.wcnf,{cost}\n")
        out = tmp_path / "out.csv"
        code = main([command, str(worked_file), "--best-known", str(table),
                     "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {table}:1: ")
        assert captured.out == ""
        assert not out.exists()

    def test_bench_unwritable_out(self, worked_file, tmp_path, capsys,
                                  no_cell_runs):
        out = tmp_path / "missing" / "out.csv"
        code = main(
            [
                "bench",
                str(worked_file),
                "--max-flips",
                "1000",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert "Traceback" not in captured.err
        # the file is opened before the run, so no cell ran
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_directory_out_fails_before_any_cell(self, command, worked_file,
                                                 tmp_path, capsys,
                                                 no_cell_runs):
        code = main([command, str(worked_file), "--max-flips", "100",
                     "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot write {tmp_path}: it is a directory\n"
        )
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["worked.wcnf"]

    def test_sweep_unwritable_out(self, worked_file, tmp_path, capsys,
                                  no_cell_runs):
        out = tmp_path / "missing" / "grid.csv"
        code = main(
            [
                "sweep",
                str(worked_file),
                "--sc-nums",
                "5",
                "--sv-nums",
                "20",
                "--max-flips",
                "1000",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert "Traceback" not in captured.err
        # the file is opened before the run, so no cell ran
        assert captured.out == ""

    def test_sweep_writes_grid(self, worked_file, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "sweep",
                str(worked_file),
                "--sc-nums",
                "5,10",
                "--sv-nums",
                "20",
                "--max-flips",
                "1000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sc_num,sv_num,mean_score"
        assert len(lines) == 3
        assert "grid written" in capsys.readouterr().out
