import csv

import pytest

from specgrad.cli import main

RUN_ARGS = [
    "run",
    "--solvers",
    "scgmmwls:m=3,dk",
    "--problems",
    "qf1,ext_himmelblau",
    "--dims",
    "20",
    "--eps",
    "1e-8",
    "--max-iter",
    "10000",
]


class TestRun:
    def test_run_writes_results_and_exits_zero(self, tmp_path, capsys):
        code = main(RUN_ARGS + ["--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "results.json").exists()
        out = capsys.readouterr().out
        assert "scgmmwls:m=3" in out and "converged" in out

    def test_results_csv_schema(self, tmp_path):
        main(RUN_ARGS + ["--out", str(tmp_path)])
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == "solver,problem,dim,status,ni,nf,ng,f_final,gnorm_inf"

    def test_repeat_runs_byte_identical(self, tmp_path):
        main(RUN_ARGS + ["--out", str(tmp_path / "a")])
        main(RUN_ARGS + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()

    def test_infinite_order_solver(self, tmp_path, capsys):
        code = main(
            ["run", "--solvers", "scgmmwls:m=inf", "--problems", "qf1", "--dims", "10",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "scgmmwls:m=inf" in capsys.readouterr().out


class TestProfile:
    def test_profile_from_run_directory(self, tmp_path, capsys):
        main(RUN_ARGS + ["--out", str(tmp_path / "res")])
        code = main(
            ["profile", "--metric", "all", "--in", str(tmp_path / "res"),
             "--out", str(tmp_path / "prof")]
        )
        assert code == 0
        for metric in ("NI", "NF", "NG"):
            path = tmp_path / "prof" / f"profile_{metric}.csv"
            assert path.exists()
            assert path.read_text().splitlines()[0] == "tau,dk,scgmmwls:m=3"
        assert "rho(1)" in capsys.readouterr().out

    def test_printed_rho1_is_point_0_of_each_profile(self, tmp_path, capsys):
        main(RUN_ARGS + ["--out", str(tmp_path / "res")])
        capsys.readouterr()
        main(["profile", "--in", str(tmp_path / "res"), "--out", str(tmp_path / "prof")])
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            if " rho(1) " in line:
                tag, _, solver, _, value = line.split()
                printed[(tag.strip("[]").upper(), solver)] = value
        assert len(printed) == 3 * 2
        for metric in ("NI", "NF", "NG"):
            path = tmp_path / "prof" / f"profile_{metric}.csv"
            with open(path, newline="") as fh:
                first = next(csv.DictReader(fh))
            assert float(first["tau"]) == 1.0
            for solver in ("dk", "scgmmwls:m=3"):
                assert printed[(metric, solver)] == f"{float(first[solver]):.3f}"

    def test_reused_out_dir_drops_the_previous_exclusions(self, tmp_path):
        failing = ["run", "--solvers", "dk,jian", "--problems", "nondquar,qf1", "--dims", "10",
                   "--max-iter", "3", "--out", str(tmp_path / "r1")]
        clean = ["run", "--solvers", "dk,jian", "--problems", "qf1", "--dims", "10",
                 "--out", str(tmp_path / "r2")]
        excluded = tmp_path / "p" / "excluded.csv"
        main(failing)
        main(["profile", "--in", str(tmp_path / "r1"), "--out", str(tmp_path / "p")])
        assert excluded.read_text().splitlines() == ["metric,problem"] + [
            f"{m},{name}:10" for m in ("NI", "NF", "NG") for name in ("nondquar", "qf1")
        ]
        main(clean)
        main(["profile", "--in", str(tmp_path / "r2"), "--out", str(tmp_path / "p")])
        assert excluded.read_text() == "metric,problem\n"

    def test_single_metric(self, tmp_path):
        main(RUN_ARGS + ["--out", str(tmp_path / "res")])
        code = main(
            ["profile", "--metric", "ni", "--in", str(tmp_path / "res"),
             "--out", str(tmp_path / "prof")]
        )
        assert code == 0
        assert (tmp_path / "prof" / "profile_NI.csv").exists()


class TestTrace:
    def test_trace_prints_mu_table(self, capsys):
        code = main(["trace", "--problem", "qf1", "--dim", "10", "--solver", "scgmmwls:m=3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "iteration" in out and "mu" in out
        assert "status=converged" in out

    def test_trace_row_limit(self, capsys):
        main(["trace", "--problem", "qf1", "--dim", "10", "--iters", "3"])
        out = capsys.readouterr().out
        table_rows = [line for line in out.splitlines() if line.strip() and line.split()[0].isdigit()]
        assert len(table_rows) == 3


class TestBadArguments:
    """A bad argument is a usage error: exit 2 with one message, before any run."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--dims", "101", "--problems", "ext_rosenbrock"], "needs an even dimension"),
            (["run", "--solvers", "foo"], "unknown method 'foo'"),
            (["run", "--solvers", "foo:m=3"], "unknown method 'foo'"),
            (["run", "--solvers", "scgmmwls:m=-inf"], "order m must be"),
            (["run", "--solvers", "dk:m=5,dk"], "order suffix is only valid on scgmmwls and m2"),
            (["run", "--max-iter", "-1"], "max_iter must be nonnegative"),
            (["trace", "--problem", "nosuch"], "unknown problem 'nosuch'"),
        ],
    )
    def test_exits_2_with_the_message_and_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        if argv[0] == "run":
            argv = argv + ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert message in err_lines[-1] and err_lines[-1].startswith(f"bench {argv[0]}: error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists() and list(tmp_path.glob("**/results.*")) == []

    @pytest.mark.parametrize("make_input", [lambda d: None, lambda d: (d / "results.json").mkdir()])
    def test_profile_without_readable_results_exits_2(self, tmp_path, capsys, make_input):
        in_dir, out = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        make_input(in_dir)
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--in", str(in_dir), "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert err_lines[-1].startswith("bench profile: error:") and "results.json" in err_lines[-1]
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()
