import csv
import json

import pytest

import specgrad.cli
from specgrad.cli import TRACE_ROWS, main
from specgrad.directions import IterationRecord
from specgrad.problems import problem
from specgrad.solver import CONVERGED, RunResult, default_config, minimize

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
        # Each evaluation takes f and g together, so a cell's line counts them once.
        lines = [line for line in out.splitlines() if " n=20 " in line]
        assert len(lines) == 4
        assert all(" nf=" in line and "ng=" not in line for line in lines)

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

    def test_problem_names_are_written_in_canonical_form(self, tmp_path):
        code = main(["run", "--solvers", "DK", "--problems", "QF1", "--dims", "10",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [["dk", "qf1", "10"]]

    def test_the_all_keyword_is_case_insensitive(self, tmp_path):
        code = main(["run", "--solvers", "dk", "--problems", "ALL", "--dims", "10",
                     "--out", str(tmp_path)])
        assert code == 0
        assert len((tmp_path / "results.csv").read_text().splitlines()[1:]) == 12

    def test_large_orders_run_as_two_cells_with_their_exact_ids(self, tmp_path):
        code = main(["run", "--solvers", "scgmmwls:m=1234567,scgmmwls:m=1234568", "--problems",
                     "qf1", "--dims", "10", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        assert sorted(r.split(",")[0] for r in rows) == ["scgmmwls:m=1234567", "scgmmwls:m=1234568"]


class TestProfile:
    def test_profile_from_run_directory(self, tmp_path, capsys):
        main(RUN_ARGS + ["--out", str(tmp_path / "res")])
        code = main(
            ["profile", "--in", str(tmp_path / "res"), "--out", str(tmp_path / "prof")]
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

    def test_a_row_whose_ng_differs_from_its_nf_exits_2_with_one_line(self, tmp_path, capsys):
        # Every evaluation takes f and g together, so no run can write ng != nf;
        # profiling such a row would emit an NG profile that no run produced.
        run_dir, out = tmp_path / "res", tmp_path / "prof"
        main(RUN_ARGS + ["--out", str(run_dir)])
        capsys.readouterr()
        path = run_dir / "results.json"
        doc = json.loads(path.read_text())
        doc["results"][1]["ng"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--in", str(run_dir), "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0] == captured.err.strip().splitlines()[-1]
        assert errors[0].startswith("bench profile: error: malformed results.json")
        assert "ng differs from nf" in errors[0]
        assert captured.out == "" and not out.exists()

    def test_zero_best_count_profiles_and_exits_0(self, tmp_path, capsys):
        # Two converged qf1 rows: dk with ni = 0, jian with ni = 3.
        jian = ROW.replace('"dk"', '"jian"').replace('"ni": 5', '"ni": 3')
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        (in_dir / "results.json").write_text(
            '{"results": [%s, %s]}' % (ROW.replace('"ni": 5', '"ni": 0'), jian)
        )
        code = main(["profile", "--in", str(in_dir), "--out", str(tmp_path / "p")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[ni] rho(1) dk = 1.000" in out and "[ni] rho(1) jian = 0.000" in out


class TestTrace:
    def test_trace_prints_mu_table(self, capsys):
        code = main(["trace", "--problem", "qf1", "--dim", "10", "--solver", "scgmmwls:m=3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "iteration" in out and "mu" in out
        assert "status=converged" in out

    def test_trace_row_limit(self, capsys):
        main(["trace", "--problem", "qf1", "--dim", "10"])
        lines = capsys.readouterr().out.splitlines()
        table_rows = [line for line in lines if line.strip() and line.split()[0].isdigit()]
        assert TRACE_ROWS == 24 and int(lines[-1].split()[1].removeprefix("ni=")) > TRACE_ROWS
        assert [int(row.split()[0]) for row in table_rows] == list(range(1, TRACE_ROWS + 1))

    def test_trace_rows_show_the_update_fields(self, capsys):
        # ext_rosenbrock at n = 10 floors beta and truncates theta in its first rows.
        main(["trace", "--problem", "ext_rosenbrock", "--dim", "10"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["iteration", "mu", "t", "alpha", "f", "beta", "theta", "flags"]
        cfg = default_config("scgmmwls:m=3", trace_level="full")
        trace = minimize(problem("ext_rosenbrock", 10), cfg).trace
        rows = [line.split() for line in lines[1:-1]]
        assert len(rows) == TRACE_ROWS
        for row, rec in zip(rows, trace):
            assert row[5:7] == [f"{rec.beta:.3E}", f"{rec.theta:.3E}"]
            expected = ("B" if rec.truncated_beta else "") + ("T" if rec.truncated_theta else "")
            assert row[7] == (expected or "-")
        assert {"-", "T", "B"} <= {c for row in rows for c in row[7]}

    def test_trace_flags_name_each_safeguard(self, capsys, monkeypatch):
        records = [IterationRecord(1.0, 0.5, -1.0, -0.1, restart=True, truncated_theta=True),
                   IterationRecord(0.5, 0.5, 0.0, 0.0, beta=-2.0, theta=1.0, truncated_theta=True,
                                   truncated_beta=True),
                   IterationRecord(0.25, 0.5, 0.0, 0.0, beta=0.5, theta=2.0)]
        result = RunResult(CONVERGED, 3, 4, 0.25, 0.0, trace=records)
        monkeypatch.setattr(specgrad.cli, "minimize", lambda prob, cfg: result)
        assert main(["trace", "--problem", "qf1", "--dim", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[5:] for line in lines[1:-1]] == [
            ["0.000E+00", "1.000E+00", "RT"],
            ["-2.000E+00", "1.000E+00", "BT"],
            ["5.000E-01", "2.000E+00", "-"],
        ]
        assert lines[-1] == "status=converged ni=3 nf=4 ng=4 gnorm=0.000e+00"


ROW = ('{"solver": "dk", "problem": "qf1", "dim": 10, "status": "converged", "ni": 5, "nf": 9, '
       '"ng": 9, "f_final": 0.0, "gnorm_inf": 0.0}')


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
            (["run", "--solvers", "dk", "--problems", "qf1,ext_rosenbrock", "--dims", "10",
              "--eps", "inf"], "epsilon must be positive and finite"),
            (["run", "--solvers", "dk", "--problems", "qf1,QF1", "--dims", "10"],
             "duplicate (solver, problem, dim) cells"),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--eta", "0.01", "--out", "OUT"],
            ["run", "--tau", "5", "--out", "OUT"],
            ["trace", "--problem", "qf1", "--eta", "0.01"],
            ["trace", "--problem", "qf1", "--iters", "3"],
            ["profile", "--in", "RUN", "--metric", "ni", "--out", "OUT"],
        ],
    )
    def test_removed_options_are_unrecognized(self, tmp_path, capsys, argv):
        run_dir, out = tmp_path / "run", tmp_path / "out"
        main(["run", "--solvers", "dk", "--problems", "qf1", "--dims", "10", "--out", str(run_dir)])
        capsys.readouterr()
        argv = [{"RUN": str(run_dir), "OUT": str(out)}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err.strip().splitlines()[-1]
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("not json", "JSONDecodeError"),
            ('{"rows": []}', "KeyError('results')"),
            ('{"results": []}', "no result rows"),
            ('{"results": [{"solver": "dk", "problem": "qf1", "dim": 10}]}', "KeyError('status')"),
            ('{"results": [%s]}' % ROW.replace("converged", "banana"), "unknown status banana"),
            ('{"results": [%s, %s]}' % (ROW, ROW), "repeated (solver, problem, dim) cell"),
            ('{"results": [%s]}' % ROW.replace('"ni": 5', '"ni": -4'), "negative ni, nf or ng"),
            ('{"results": [%s]}' % ROW.replace('"nf": 9', '"nf": -1'), "negative ni, nf or ng"),
            ('{"results": [%s]}' % ROW.replace('"ng": 9', '"ng": -9'), "negative ni, nf or ng"),
            ('{"results": [%s]}' % ROW.replace('"dim": 10', '"dim": -5'), "dim below 2"),
            ('{"results": [%s]}' % ROW.replace('"dim": 10', '"dim": 1'), "dim below 2"),
            (
                '{"results": [%s, %s]}' % (
                    ROW,
                    ROW.replace('"dk"', '"jian"').replace('"ni": 5', '"ni": 0').replace('"nf": 9', '"nf": 0'),
                ),
                "nf or ng below 1",
            ),
            ('{"results": [%s]}' % ROW.replace('"ng": 9', '"ng": 0'), "nf or ng below 1"),
            ('{"results": [%s]}' % ROW.replace('"ng": 9', '"ng": 8'), "ng differs from nf"),
            ('{"results": [%s]}' % ROW.replace('"ng": 9', '"ng": 10'), "ng differs from nf"),
            ('{"results": [%s]}' % ROW.replace('"ni": 5', '"ni": 3.7'), "not an integer"),
            ('{"results": [%s]}' % ROW.replace('"dim": 10', '"dim": true'), "not an integer"),
            ('{"results": [%s]}' % ROW.replace('"nf": 9', '"nf": 9.0'), "not an integer"),
            ('{"results": [%s]}' % ROW.replace('"ng": 9', '"ng": "9"'), "not an integer"),
            (
                '{"results": [%s, %s]}' % (ROW, ROW.replace('"solver": "dk"', '"solver": 5')),
                "solver is not a string",
            ),
            ('{"results": [%s]}' % ROW.replace('"qf1"', '["qf1"]'), "problem is not a string"),
            ('{"results": [%s]}' % ROW.replace('"converged"', "null"), "status is not a string"),
            ('{"results": [%s]}' % ROW.replace('"f_final": 0.0', '"f_final": true'),
             "f_final is not a number"),
            ('{"results": [%s]}' % ROW.replace('"f_final": 0.0', '"f_final": "1e3"'),
             "f_final is not a number"),
            ('{"results": [%s]}' % ROW.replace('"gnorm_inf": 0.0', '"gnorm_inf": false'),
             "gnorm_inf is not a number"),
            ('{"results": [%s]}' % ROW.replace('"f_final": 0.0', '"f_final": 1' + "0" * 400),
             "f_final or gnorm_inf is an integer beyond float range"),
            ('{"results": [%s]}' % ROW.replace('"gnorm_inf": 0.0', '"gnorm_inf": -1' + "0" * 400),
             "f_final or gnorm_inf is an integer beyond float range"),
            (
                '{"results": [%s, %s]}' % (
                    ROW, ROW.replace('"dk"', '"jian"').replace('"ni": 5', '"ni": 1' + "0" * 400)
                ),
                "ni, nf or ng above 2**53",
            ),
            ('{"results": [%s]}' % ROW.replace('"ng": 9', '"ng": 9' + "0" * 400),
             "ni, nf or ng above 2**53"),
            (
                '{"results": [%s, %s]}' % (
                    ROW.replace('"ni": 5', '"ni": 1'),
                    ROW.replace('"dk"', '"jian"').replace('"ni": 5', '"ni": 1' + "0" * 308),
                ),
                "ni, nf or ng above 2**53",
            ),
            ('{"results": [%s]}' % ROW.replace('"nf": 9', '"nf": %d' % (2**53 + 1)),
             "ni, nf or ng above 2**53"),
            # Each of these would split a column or a row of every CSV the profile writes.
            ('{"results": [%s]}' % ROW.replace('"dk"', '"a,b"'),
             "solver holds a comma, a double quote or a line break"),
            ('{"results": [%s]}' % ROW.replace('"dk"', '"a\\"b"'),
             "solver holds a comma, a double quote or a line break"),
            ('{"results": [%s]}' % ROW.replace('"qf1"', '"x\\ny"'),
             "problem holds a comma, a double quote or a line break"),
            ('{"results": [%s]}' % ROW.replace('"qf1"', '"x\\ry"'),
             "problem holds a comma, a double quote or a line break"),
            pytest.param("[" * 100000 + "]" * 100000, "results.json is nested too deeply",
                         id="nested-100000-deep"),
        ],
    )
    def test_profile_with_malformed_results_exits_2(self, tmp_path, capsys, text, message):
        in_dir, out = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        (in_dir / "results.json").write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--in", str(in_dir), "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert err_lines[-1].startswith("bench profile: error: malformed results.json")
        assert message in err_lines[-1]
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--solvers", "dk", "--problems", "qf1", "--dims", "10"],
            ["profile", "--in", "RUN"],
        ],
    )
    def test_out_naming_an_existing_file_exits_2_before_any_run(self, tmp_path, capsys, argv):
        run_dir, out = tmp_path / "run", tmp_path / "file"
        main(["run", "--solvers", "dk", "--problems", "qf1", "--dims", "10", "--out", str(run_dir)])
        capsys.readouterr()
        out.write_text("keep")
        argv = [str(run_dir) if a == "RUN" else a for a in argv] + ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert err_lines[-1].startswith(f"bench {argv[0]}: error:") and str(out) in err_lines[-1]
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert out.read_text() == "keep"

    @pytest.mark.parametrize(
        "argv,blocked",
        [
            (["run", "--solvers", "dk", "--problems", "qf1", "--dims", "10"], "results.csv"),
            (["profile", "--in", "RUN"], "excluded.csv"),
            (["profile", "--in", "RUN"], "profile_NF.csv"),
        ],
    )
    def test_output_file_that_cannot_be_written_exits_2_after_the_run(
        self, tmp_path, capsys, argv, blocked
    ):
        run_dir, out = tmp_path / "run", tmp_path / "out"
        main(["run", "--solvers", "dk", "--problems", "qf1", "--dims", "10", "--out", str(run_dir)])
        capsys.readouterr()
        (out / blocked / "keep").mkdir(parents=True)
        argv = [str(run_dir) if a == "RUN" else a for a in argv] + ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith(f"bench {argv[0]}: error:")
        assert blocked in err_lines[0]
        assert (out / blocked / "keep").is_dir()
