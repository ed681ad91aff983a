import csv
import json
import math

import numpy as np
import pytest

import specgrad.bench
from specgrad.bench import (
    ProfileCurve,
    ResultRow,
    ResultTable,
    SolverSpec,
    emit,
    had_eval_error,
    load_results,
    performance_profile,
    performance_ratios,
    run_suite,
)
from specgrad.solver import RunResult


def row(solver, name, dim, status="converged", ni=1, nf=2, ng=2, f=0.0, gn=0.0):
    return ResultRow(solver, name, dim, RunResult(status, ni, nf, ng, f, gn))


def example_2x2():
    # NI matrix [[10, 20], [15, 15]] over problems p, q.
    return ResultTable(
        [
            row("A", "p", 1, ni=10),
            row("A", "q", 1, ni=20),
            row("B", "p", 1, ni=15),
            row("B", "q", 1, ni=15),
        ]
    )


class TestSolverSpec:
    def test_parse_with_order(self):
        spec = SolverSpec.parse("scgmmwls:m=3")
        assert (spec.method, spec.m) == ("scgmmwls", 3)
        assert spec.label == "scgmmwls:m=3"

    def test_parse_infinity(self):
        spec = SolverSpec.parse("m2:m=inf")
        assert math.isinf(spec.m)
        assert spec.label == "m2:m=inf"

    def test_plain_methods_have_no_order_suffix(self):
        assert SolverSpec.parse("dk").label == "dk"
        assert SolverSpec.parse("jian").label == "jian"

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError):
            SolverSpec.parse("dk:q=2")

    @pytest.mark.parametrize("text", ["dk:m=5", "jian:m=inf", "DK:m=3"])
    def test_order_suffix_only_on_scgmmwls_and_m2(self, text):
        with pytest.raises(ValueError, match="order suffix is only valid on scgmmwls and m2"):
            SolverSpec.parse(text)

    @pytest.mark.parametrize("text", ["scgmmwls:m=-inf", "m2:m=nan", "scgmmwls:m=2"])
    def test_orders_no_config_accepts_rejected(self, text):
        with pytest.raises(ValueError, match="order m"):
            SolverSpec.parse(text)


class TestRunSuite:
    def test_single_cell(self):
        table = run_suite(["scgmmwls:m=3"], ["qf1"], dims=[10])
        assert len(table.rows) == 1
        assert table.rows[0].result.status == "converged"

    def test_cardinality_and_order(self):
        table = run_suite(["scgmmwls:m=3", "dk", "jian", "m2:m=3"], "all", dims=[10], max_iter=1)
        assert len(table.rows) == 48
        keys = [(r.solver, r.problem, r.dim) for r in table.rows]
        assert keys == sorted(keys)

    def test_scgmmwls_and_m2_both_pass_their_own_checks(self):
        table = run_suite(["scgmmwls:m=3", "m2:m=3"], ["qf1"], dims=[10])
        assert all(r.result.status == "converged" for r in table.rows)
        assert all(r.result.audit.clean for r in table.rows)

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_suite([], ["qf1"], dims=[10])
        with pytest.raises(ValueError):
            run_suite(["dk"], ["qf1"], dims=[])

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError):
            run_suite(["dk", "dk"], ["qf1"], dims=[10])

    @pytest.mark.parametrize(
        "solvers,names,dims,overrides,error",
        [
            (["dk"], ["qf1", "zzz"], [10], {}, KeyError),  # qf1 sorts first
            (["dk"], ["arwhead", "qf1", "ext_rosenbrock"], [10, 11], {}, ValueError),
            (["dk", "scgmmwls:m=3"], ["qf1"], [10], {"max_iter": -1}, ValueError),
        ],
    )
    def test_bad_input_fails_before_any_run(
        self, monkeypatch, solvers, names, dims, overrides, error
    ):
        runs = []
        monkeypatch.setattr(specgrad.bench, "minimize", lambda p, cfg: runs.append(p.name))
        with pytest.raises(error):
            run_suite(solvers, names, dims, **overrides)
        assert runs == []


class TestRatios:
    def test_hand_example(self):
        rs = performance_ratios(example_2x2(), "ni")
        assert rs.ratios[("A", "p:1")] == 1.0
        assert rs.ratios[("A", "q:1")] == 20 / 15
        assert rs.ratios[("B", "p:1")] == 1.5
        assert rs.ratios[("B", "q:1")] == 1.0
        assert rs.r_fail == 3.0

    def test_single_solver_all_ones(self):
        table = ResultTable([row("A", "p", 1, ni=7), row("A", "q", 1, ni=9)])
        rs = performance_ratios(table, "ni")
        assert set(rs.ratios.values()) == {1.0}

    def test_failure_penalty_is_twice_max_finite(self):
        table = ResultTable(
            [
                row("A", "p", 1, ni=10),
                row("A", "q", 1, ni=7),
                row("B", "p", 1, ni=30),
                row("B", "q", 1, status="iter_limit", ni=10000),
            ]
        )
        rs = performance_ratios(table, "ni")
        assert rs.ratios[("B", "p:1")] == 3.0
        assert rs.r_fail == 6.0
        assert rs.ratios[("B", "q:1")] == 6.0

    def test_minimum_ratio_is_exactly_one_per_problem(self):
        rs = performance_ratios(example_2x2(), "ni")
        for p in rs.problems:
            assert min(rs.ratios[(s, p)] for s in rs.solvers) == 1.0

    def test_all_failed_problem_excluded_and_reported(self):
        table = ResultTable(
            [
                row("A", "p", 1, ni=10),
                row("B", "p", 1, ni=12),
                row("A", "q", 1, status="linesearch_failure"),
                row("B", "q", 1, status="iter_limit"),
            ]
        )
        rs = performance_ratios(table, "ni")
        assert rs.problems == ["p:1"]
        assert rs.excluded == ["q:1"]

    def test_validation(self):
        with pytest.raises(ValueError):
            performance_ratios(example_2x2(), "wallclock")
        with pytest.raises(ValueError):
            performance_ratios(ResultTable([]), "ni")


class TestProfiles:
    def test_hand_example_points(self):
        rs = performance_ratios(example_2x2(), "ni")
        curves = {c.solver: c for c in performance_profile(rs, grid=[1.0, 1.4, 2.0])}
        assert curves["A"].points == [(1.0, 0.5), (1.4, 1.0), (2.0, 1.0)]
        assert curves["B"].points == [(1.0, 0.5), (1.4, 0.5), (2.0, 1.0)]

    def test_single_solver_constant_one(self):
        table = ResultTable([row("A", "p", 1, ni=7), row("A", "q", 1, ni=9)])
        rs = performance_ratios(table, "ni")
        (curve,) = performance_profile(rs, grid=[1.0, 1.5, 2.0])
        assert all(v == 1.0 for _, v in curve.points)

    def test_all_fail_solver_zero_until_penalty(self):
        table = ResultTable(
            [
                row("A", "p", 1, ni=10),
                row("A", "q", 1, ni=10),
                row("B", "p", 1, status="iter_limit"),
                row("B", "q", 1, status="iter_limit"),
            ]
        )
        rs = performance_ratios(table, "ni")
        curves = {c.solver: c for c in performance_profile(rs, grid=[1.0, rs.r_fail])}
        assert [v for _, v in curves["B"].points] == [0.0, 1.0]

    def test_profiles_monotone_and_bounded(self):
        rs = performance_ratios(example_2x2(), "ni")
        for curve in performance_profile(rs):
            vals = [v for _, v in curve.points]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert curve.points[-1][1] == 1.0

    def test_final_point_is_success_fraction_below_penalty(self):
        table = ResultTable(
            [
                row("A", "p", 1, ni=10),
                row("A", "q", 1, ni=7),
                row("B", "p", 1, ni=30),
                row("B", "q", 1, status="iter_limit"),
            ]
        )
        rs = performance_ratios(table, "ni")
        curves = {c.solver: c for c in performance_profile(rs, grid=[1.0, 4.0])}
        assert curves["B"].points[-1][1] == 0.5  # grid top 4 < r_fail 6

    def test_grid_validation(self):
        rs = performance_ratios(example_2x2(), "ni")
        with pytest.raises(ValueError):
            performance_profile(rs, grid=[2.0, 3.0])
        with pytest.raises(ValueError):
            performance_profile(rs, grid=[1.0, 3.0, 2.0])


class TestEmit:
    def test_profile_csv_hand_rows(self, tmp_path):
        table = example_2x2()
        rs = performance_ratios(table, "ni")
        curves = performance_profile(rs, grid=[1.0, 1.4, 2.0])
        emit(table, curves, "csv", tmp_path)
        lines = (tmp_path / "profile_NI.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,A,B"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert parsed == [(1.0, 0.5, 0.5), (1.4, 1.0, 0.5), (2.0, 1.0, 1.0)]

    def test_no_curves_write_results_only(self, tmp_path):
        for fmt in ("csv", "json"):
            written = emit(example_2x2(), None, fmt, tmp_path / fmt)
            assert [p.name for p in written] == [f"results.{fmt}"]
            assert sorted(p.name for p in (tmp_path / fmt).iterdir()) == [f"results.{fmt}"]

    @pytest.mark.parametrize("excluded", [[], [("NI", "q:1"), ("NF", "q:1")]])
    def test_each_format_writes_every_profile_file_in_one_call(self, tmp_path, excluded):
        table = example_2x2()
        curves = []
        for metric in ("ni", "nf"):
            curves.extend(performance_profile(performance_ratios(table, metric), grid=[1.0, 2.0]))
        written = emit(table, curves, "csv", tmp_path, excluded=excluded)
        names = ["results.csv", "profile_NF.csv", "profile_NI.csv", "excluded.csv"]
        assert [p.name for p in written] == names
        assert (tmp_path / "excluded.csv").read_text() == "".join(
            f"{m},{p}\n" for m, p in [("metric", "problem"), *excluded]
        )
        assert [p.name for p in emit(table, curves, "json", tmp_path)] == ["results.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["results.json"])
        doc = json.loads((tmp_path / "results.json").read_text())
        assert sorted(doc["profiles"]) == ["NF", "NI"]
        ni = {"tau": [1.0, 2.0], "solvers": {"A": [0.5, 1.0], "B": [0.5, 1.0]}}
        assert doc["profiles"]["NI"] == ni

    def test_exclusions_are_csv_only(self, tmp_path):
        with pytest.raises(ValueError, match="excluded.csv"):
            emit(example_2x2(), None, "json", tmp_path, excluded=[])
        assert not tmp_path.joinpath("results.json").exists()

    def test_json_round_trip_is_exact(self, tmp_path):
        table = ResultTable(
            [
                row("A", "p", 100, ni=12, nf=34, ng=34, f=math.pi, gn=1.0 / 3.0),
                row("B", "p", 100, status="iter_limit", ni=10000, f=1e-301, gn=np.nan),
            ]
        )
        emit(table, None, "json", tmp_path)
        back = load_results(tmp_path)
        for a, b in zip(table.rows, back.rows):
            assert (a.solver, a.problem, a.dim) == (b.solver, b.problem, b.dim)
            ra, rb = a.result, b.result
            assert (ra.status, ra.ni, ra.nf, ra.ng) == (rb.status, rb.ni, rb.nf, rb.ng)
            assert ra.f_final == rb.f_final
            assert ra.gnorm_inf_final == rb.gnorm_inf_final or (
                math.isnan(ra.gnorm_inf_final) and math.isnan(rb.gnorm_inf_final)
            )

    def test_csv_round_trip_is_exact(self, tmp_path):
        table = ResultTable([row("A", "p", 10, ni=3, f=2.0 / 7.0, gn=1e-9)])
        emit(table, None, "csv", tmp_path)
        with open(tmp_path / "results.csv", newline="") as fh:
            (rec,) = list(csv.DictReader(fh))
        assert rec["f_final"] == "%.17g" % (2.0 / 7.0)
        assert float(rec["f_final"]) == 2.0 / 7.0
        assert float(rec["gnorm_inf"]) == 1e-9

    def test_load_results_reads_json_only(self, tmp_path):
        emit(example_2x2(), None, "csv", tmp_path)
        with pytest.raises(FileNotFoundError):
            load_results(tmp_path)

    def test_format_validation(self, tmp_path):
        with pytest.raises(ValueError):
            emit(example_2x2(), None, "parquet", tmp_path)

    def test_had_eval_error(self):
        assert not had_eval_error(example_2x2())
        assert had_eval_error(ResultTable([row("A", "p", 1, status="eval_error")]))


class TestProfileCurveType:
    def test_fields(self):
        c = ProfileCurve(solver="A", metric="NI", points=[(1.0, 0.5)])
        assert c.solver == "A" and c.points[0] == (1.0, 0.5)
