import csv
import json
import math
from bisect import bisect_right

import numpy as np
import pytest

import specgrad.bench
from specgrad.bench import (
    Profile,
    ResultRow,
    ResultTable,
    emit,
    had_eval_error,
    load_results,
    performance_profile,
    performance_ratios,
    run_suite,
    suite_cells,
)
from specgrad.solver import RunResult

from reference import violations


def row(solver, name, dim, status="converged", ni=1, nf=2, f=0.0, gn=0.0):
    return ResultRow(solver, name, dim, RunResult(status, ni, nf, f, gn))


def rho_at(profile, t):
    """Each solver's rho at the last point of the profile's grid at or below t."""
    i = bisect_right(profile.tau, t) - 1
    return {solver: rho[i] for solver, rho in profile.rho.items()}


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
        assert all(violations(r.result.audit) == 0 for r in table.rows)

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_suite([], ["qf1"], dims=[10])
        with pytest.raises(ValueError):
            run_suite(["dk"], ["qf1"], dims=[])

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError):
            run_suite(["dk", "dk"], ["qf1"], dims=[10])

    def test_cells_are_keyed_by_the_canonical_names(self):
        cells = suite_cells(["DK", "scgmmwls"], ["QF1"], dims=[10])
        assert [cell[:3] for cell in cells] == [("dk", "qf1", 10), ("scgmmwls:m=3", "qf1", 10)]
        with pytest.raises(ValueError, match="duplicate"):
            suite_cells(["dk"], ["qf1", "QF1"], dims=[10])
        with pytest.raises(ValueError, match="duplicate"):
            suite_cells(["m2", "m2:m=3"], ["qf1"], dims=[10])

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

    def test_positive_count_over_a_zero_best_takes_the_failure_ratio(self):
        table = ResultTable([row("dk", "qf1", 10, ni=0), row("jian", "qf1", 10, ni=3)])
        rs = performance_ratios(table, "ni")
        assert rs.ratios[("dk", "qf1:10")] == 1.0
        assert rs.r_fail == 2.0
        assert rs.ratios[("jian", "qf1:10")] == 2.0

    def test_zero_over_a_zero_best_is_one(self):
        table = ResultTable([row("A", "p", 1, ni=0), row("B", "p", 1, ni=0)])
        assert set(performance_ratios(table, "ni").ratios.values()) == {1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            performance_ratios(example_2x2(), "wallclock")
        with pytest.raises(ValueError):
            performance_ratios(ResultTable([]), "ni")


class TestProfiles:
    def test_hand_example_points(self):
        rs = performance_ratios(example_2x2(), "ni")
        profile = performance_profile(rs)
        assert profile.metric == "ni" and profile.tau[0] == 1.0 and profile.tau[-1] == rs.r_fail == 3.0
        assert [rho_at(profile, t) for t in (1.0, 1.4, 2.0)] == [
            {"A": 0.5, "B": 0.5}, {"A": 1.0, "B": 0.5}, {"A": 1.0, "B": 1.0}
        ]

    def test_single_solver_constant_one(self):
        table = ResultTable([row("A", "p", 1, ni=7), row("A", "q", 1, ni=9)])
        rs = performance_ratios(table, "ni")
        profile = performance_profile(rs)
        assert profile.rho == {"A": [1.0] * 200}

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
        assert performance_profile(rs).rho["B"] == [0.0] * 199 + [1.0]

    def test_profiles_monotone_and_bounded(self):
        rs = performance_ratios(example_2x2(), "ni")
        profile = performance_profile(rs)
        assert len(profile.tau) == 200 and profile.tau[0] == 1.0
        for vals in profile.rho.values():
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == 1.0

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
        profile = performance_profile(rs)
        assert rs.r_fail == 6.0 and profile.tau[-2] < 6.0 == profile.tau[-1]
        assert profile.rho["B"][-2:] == [0.5, 1.0]  # the failed run counts only at r_fail


class TestEmit:
    def test_profile_csv_hand_rows(self, tmp_path):
        table = example_2x2()
        rs = performance_ratios(table, "ni")
        profile = performance_profile(rs)
        emit(table, [profile], "csv", tmp_path)
        lines = (tmp_path / "profile_NI.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,A,B"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert parsed == list(zip(profile.tau, profile.rho["A"], profile.rho["B"]))
        assert parsed[0] == (1.0, 0.5, 0.5) and parsed[-1] == (3.0, 1.0, 1.0)

    def test_no_profiles_write_results_only(self, tmp_path):
        for fmt in ("csv", "json"):
            emit(example_2x2(), None, fmt, tmp_path / fmt)
            assert sorted(p.name for p in (tmp_path / fmt).iterdir()) == [f"results.{fmt}"]

    @pytest.mark.parametrize("excluded", [[], [("NI", "q:1"), ("NF", "q:1")]])
    def test_each_format_writes_every_profile_file_in_one_call(self, tmp_path, excluded):
        table = example_2x2()
        profiles = [
            performance_profile(performance_ratios(table, metric)) for metric in ("ni", "nf")
        ]
        emit(table, profiles, "csv", tmp_path, excluded=excluded)
        names = ["results.csv", "profile_NF.csv", "profile_NI.csv", "excluded.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        assert (tmp_path / "excluded.csv").read_text() == "".join(
            f"{m},{p}\n" for m, p in [("metric", "problem"), *excluded]
        )
        emit(table, profiles, "json", tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["results.json"])
        doc = json.loads((tmp_path / "results.json").read_text())
        assert sorted(doc["profiles"]) == ["NF", "NI"]
        assert doc["profiles"]["NI"] == {"tau": profiles[0].tau, "solvers": profiles[0].rho}

    def test_exclusions_are_csv_only(self, tmp_path):
        with pytest.raises(ValueError, match="excluded.csv"):
            emit(example_2x2(), None, "json", tmp_path, excluded=[])
        assert not tmp_path.joinpath("results.json").exists()

    def test_json_round_trip_is_exact(self, tmp_path):
        table = ResultTable(
            [
                row("A", "p", 100, ni=12, nf=34, f=math.pi, gn=1.0 / 3.0),
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

    def test_float_fields_take_json_integers_and_nan(self, tmp_path):
        rec = {"solver": "A", "problem": "p", "dim": 2, "status": "eval_error", "ni": 0, "nf": 1,
               "ng": 1, "f_final": 3, "gnorm_inf": math.nan}
        (tmp_path / "results.json").write_text(json.dumps({"results": [rec]}))
        (back,) = load_results(tmp_path).rows
        assert type(back.result.f_final) is float and back.result.f_final == 3.0
        assert math.isnan(back.result.gnorm_inf_final)

    def test_counts_up_to_2_53_load_and_profile_on_a_finite_grid(self, tmp_path):
        emit(ResultTable([row("A", "p", 10, ni=1), row("B", "p", 10, ni=2**53)]), None, "json",
             tmp_path)
        ratio_set = performance_ratios(load_results(tmp_path), "ni")
        assert ratio_set.r_fail == 2.0**54
        assert performance_profile(ratio_set).tau[-1] == pytest.approx(2.0**54)

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


class TestProfileType:
    def test_fields(self):
        p = Profile(metric="NI", tau=[1.0, 2.0], rho={"A": [0.5, 1.0], "B": [0.0, 1.0]})
        assert p.metric == "NI" and p.tau[0] == 1.0 and p.rho["A"] == [0.5, 1.0]

    @pytest.mark.parametrize("rho", [{"A": [0.5]}, {"A": [0.5, 1.0], "B": [0.0, 0.5, 1.0]}])
    def test_every_rho_list_must_match_tau(self, rho):
        with pytest.raises(ValueError, match="one value per tau"):
            Profile(metric="NI", tau=[1.0, 2.0], rho=rho)
