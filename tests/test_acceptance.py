"""Acceptance gate: every criterion below must pass at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines and the informational profile summary).
"""

import ctypes
import json
import math
import os
import subprocess
import sys
import time
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from specgrad.bench import (
    ResultRow,
    ResultTable,
    emit,
    performance_profile,
    performance_ratios,
    run_suite,
)
from specgrad.problems import Problem, family_names, problem
from specgrad.secant import mu
from specgrad.solver import CONVERGED, LINESEARCH_FAILURE, RunResult, default_config, minimize

from reference import check_points, gradient, gradient_check, hessian_error, vector_mu

SUITE_SOLVERS = ["dk", "jian", "m2:m=3", "scgmmwls:m=3"]
# Per-cell (solver, problem, status, ni, nf, f_final, gnorm_inf) of a suite,
# 48 rows, the two floats as float.hex so any change of a last bit shows.
FINGERPRINT = Path(__file__).parent / "data" / "suite_n100_fingerprint.json"
# The same rows at n = 1000 with a budget of 300 steps (about 2 s).
FINGERPRINT_N1000 = Path(__file__).parent / "data" / "suite_n1000_fingerprint.json"
N1000_MAX_ITER = 300
# exp and BLAS ddot round differently on each numeric kernel set, so each
# committed config has its own pair of fingerprint files, generated from the
# same commit.  A config is keyed by numeric_platform()'s (openblas_core,
# avx512_skx) and maps to its file suffix, the environment that selects it in
# a fresh process, and the CPU features (numpy's names) that config runs on.
KERNEL_CONFIGS = {
    ("SkylakeX", True): ("", {"OPENBLAS_CORETYPE": "SkylakeX"}, ("AVX512_SKX",)),
    ("Haswell", False): (
        ".avx2_haswell",
        {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        ("AVX2", "FMA3"),
    ),
}
KERNEL_ENV = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


@pytest.fixture(scope="module")
def suite():
    """Full-suite run at paper defaults: 4 solvers x 12 problems x n = 100."""
    t0 = time.perf_counter()
    table = run_suite(SUITE_SOLVERS, "all", dims=[100], epsilon=1e-8, max_iter=10000)
    elapsed = time.perf_counter() - t0
    return table, elapsed


@pytest.fixture(scope="module")
def suite_1000():
    """The same suite at n = 1000 with a budget of ``N1000_MAX_ITER`` steps."""
    return suite_n1000()


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    for name in family_names():
        for dim in (100, 1000):
            p = problem(name, dim)
            report = gradient_check(p, check_points(p, count=5), tol=1e-6)
            assert report.passed, f"{name} n={dim}: worst rel error {report.worst:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: 12 problems x (100, 1000) gradient-checked in {elapsed:.2f}s")


def test_criterion_2_mu_quadratic_exactness():
    t0 = time.perf_counter()
    n = 20
    rng = np.random.default_rng(20240118)
    quadratics = []
    qf1 = problem("qf1", n)
    quadratics.append((qf1.objective, lambda x: gradient(qf1, x)))
    for _ in range(20):
        m_ = rng.standard_normal((n, n))
        hess = m_ @ m_.T + np.eye(n)
        b = rng.standard_normal(n)
        quadratics.append(
            (
                lambda x, hess=hess, b=b: float(0.5 * x @ hess @ x + b @ x),
                lambda x, hess=hess, b=b: hess @ x + b,
            )
        )
    for f, g in quadratics:
        for _ in range(100):
            x0 = rng.standard_normal(n)
            s = rng.standard_normal(n)
            x1 = x0 + s
            f0, f1 = f(x0), f(x1)
            g0, g1 = g(x0), g(x1)
            bound = 1e-9 * (1.0 + abs(f0) + abs(f1))
            # The vector form, and the slope form the solver takes with alpha = 1 and d = s.
            for value in (vector_mu(f0, f1, g0, g1, s), mu(f0, f1, 1.0, g0 @ s, g1 @ s)):
                assert abs(value) <= bound, f"|mu| = {abs(value):.3e} > {bound:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: |mu|, both forms, at roundoff scale on 21 quadratics x 100 steps "
          f"({elapsed:.2f}s)")


def test_criterion_3_secant_error_ordering():
    t0 = time.perf_counter()
    n = 5
    cube = Problem("cube_sum", lambda x: (float(np.sum(x**3)), 3.0 * x * x), np.ones(n))
    u = np.arange(1.0, n + 1.0)
    u /= np.linalg.norm(u)
    su3 = float(np.sum(u**3))
    h = 1e-3
    x1 = np.ones(n)
    predictions = {4: (1.0 / 6.0) * 6.0 * su3, 5: (2.0 / 9.0) * 6.0 * su3,
                   math.inf: (1.0 / 3.0) * 6.0 * su3}
    for order, predicted in predictions.items():
        measured = hessian_error(cube, x1, h * u, order) / h**3
        assert measured == pytest.approx(predicted, rel=0.05), (
            f"m={order}: {measured:.6f} vs {predicted:.6f}"
        )
    residual = abs(hessian_error(cube, x1, h * u, 3)) / h**3
    assert residual <= 0.05 * predictions[math.inf]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: error/h^3 matches (m-3)/(3(m-2)) ordering ({elapsed:.2f}s)")


def test_criterion_4_wolfe_predicate_audit(suite):
    table, _ = suite
    for r in table.rows:
        audit = r.result.audit
        assert audit is not None
        assert audit.armijo_violations == 0, f"{r.solver}/{r.problem}: Armijo violations"
        assert audit.curvature_violations == 0, f"{r.solver}/{r.problem}: curvature violations"
        if r.solver == "scgmmwls:m=3":
            assert audit.dz_curvature_violations == 0, f"{r.problem}: d^T z bound violated"
            assert audit.t_bound_violations == 0, f"{r.problem}: t outside Lipschitz bounds"
    print(f"\nACCEPTANCE 4 PASS: zero Wolfe/curvature/t-bound violations over "
          f"{sum(r.result.ni for r in table.rows)} accepted steps")


def test_criterion_5_sufficient_descent(suite):
    table, _ = suite
    checked = 0
    for r in table.rows:
        audit = r.result.audit
        assert audit.descent_violations == 0, f"{r.solver}/{r.problem}: descent violated"
        assert audit.theta_violations == 0, f"{r.solver}/{r.problem}: theta left its range"
        checked += r.result.ni
    assert checked > 0
    print(f"\nACCEPTANCE 5 PASS: sufficient descent and theta range over {checked} directions")


def test_criterion_6_convergence_at_desk_scale(suite, tmp_path_factory):
    table, elapsed = suite
    rows = [r for r in table.rows if r.solver == "scgmmwls:m=3"]
    assert len(rows) == 12
    converged = [r for r in rows if r.result.status == CONVERGED]
    assert not [r for r in rows if r.result.status == LINESEARCH_FAILURE]
    assert len(converged) >= 0.9 * len(rows), (
        f"only {len(converged)}/12 converged: "
        f"{[(r.problem, r.result.status) for r in rows if r.result.status != CONVERGED]}"
    )
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    out = tmp_path_factory.mktemp("profiles")
    profiles = [performance_profile(performance_ratios(table, m)) for m in ("ni", "nf", "ng")]
    shares = {solver: rho[0] for solver, rho in profiles[0].rho.items()}  # tau[0] = 1
    emit(table, profiles, "csv", out)
    assert (out / "profile_NI.csv").is_file()
    print(f"\nACCEPTANCE 6 PASS: {len(converged)}/12 converged in {elapsed:.1f}s; "
          f"profiles emitted to {out}")
    print(f"informational (non-gating): rho(1) for NI = "
          f"{', '.join(f'{s}={v:.2f}' for s, v in sorted(shares.items()))}; "
          f"scgmmwls:m=3 wins {shares.get('scgmmwls:m=3', 0.0):.0%} here "
          f"(comparison figure on the original suite: ~85%)")


def test_criterion_7_mu_sign_behavior():
    cfg = default_config("scgmmwls:m=3", trace_level="full")
    res = minimize(problem("arwhead", 1000), cfg)
    mu0 = res.trace[0].mu
    assert mu0 < 0.0, f"mu_0 = {mu0:.3e} expected negative"
    assert abs(mu0) >= 1e3, f"|mu_0| = {abs(mu0):.3e} expected >= 1e3"

    qf1 = problem("qf1", 100)
    res_q = minimize(qf1, default_config("scgmmwls:m=3", trace_level="full"))
    assert res_q.status == CONVERGED
    f_prev = qf1.objective(qf1.start)
    for rec in res_q.trace:
        assert abs(rec.mu) <= 1e-9 * (1.0 + abs(f_prev) + abs(rec.f))
        f_prev = rec.f
    print(f"\nACCEPTANCE 7 PASS: arwhead mu_0 = {mu0:.3e}; qf1 mu stays at roundoff scale")


def test_criterion_8_dolan_more_unit_oracle():
    table = ResultTable(
        [
            ResultRow("A", "p", 1, RunResult(CONVERGED, 10, 10, 0.0, 0.0)),
            ResultRow("A", "q", 1, RunResult(CONVERGED, 20, 20, 0.0, 0.0)),
            ResultRow("B", "p", 1, RunResult(CONVERGED, 15, 15, 0.0, 0.0)),
            ResultRow("B", "q", 1, RunResult(CONVERGED, 15, 15, 0.0, 0.0)),
        ]
    )
    rs = performance_ratios(table, "ni")
    assert rs.ratios[("A", "p:1")] == 1.0
    assert rs.ratios[("A", "q:1")] == 4.0 / 3.0
    assert rs.ratios[("B", "p:1")] == 1.5
    assert rs.ratios[("B", "q:1")] == 1.0
    profile = performance_profile(rs)
    near_1_4 = bisect_right(profile.tau, 1.4) - 1  # the last grid point at or below 1.4
    assert profile.tau[0] == 1.0 and 4.0 / 3.0 < profile.tau[near_1_4] <= 1.4
    assert [profile.rho["A"][i] for i in (0, near_1_4)] == [0.5, 1.0]
    assert [profile.rho["B"][i] for i in (0, near_1_4)] == [0.5, 0.5]
    print("\nACCEPTANCE 8 PASS: ratio/profile oracle reproduced exactly")


def test_criterion_9_determinism(suite_1000, tmp_path_factory):
    # Criterion 10 pins every n = 100 cell bit for bit on each run, so a
    # second run of the shorter n = 1000 suite checks run-to-run determinism.
    table_a, table_b = suite_1000, suite_n1000()
    dir_a = tmp_path_factory.mktemp("run_a")
    dir_b = tmp_path_factory.mktemp("run_b")
    emit(table_a, None, "csv", dir_a)
    emit(table_b, None, "csv", dir_b)
    bytes_a = (dir_a / "results.csv").read_bytes()
    bytes_b = (dir_b / "results.csv").read_bytes()
    assert bytes_a == bytes_b
    print(f"\nACCEPTANCE 9 PASS: consecutive n = 1000 suite runs byte-identical "
          f"({len(bytes_a)} bytes)")


def suite_fingerprint(table) -> list[list]:
    return [
        [
            r.solver,
            r.problem,
            r.result.status,
            r.result.ni,
            r.result.nf,
            float.hex(r.result.f_final),
            float.hex(r.result.gnorm_inf_final),
        ]
        for r in table.rows
    ]


def suite_n1000():
    return run_suite(SUITE_SOLVERS, "all", dims=[1000], epsilon=1e-8, max_iter=N1000_MAX_ITER)


def write_fingerprint(path, rows) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


def numeric_platform() -> dict:
    """The numeric kernels this process runs: the OpenBLAS core and thread count
    bundled with numpy, numpy's AVX512_SKX dispatch and its version.  A piece
    the build lacks is ``None``."""
    core = threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get_core = getattr(lib, "scipy_openblas_get_corename64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get_core is not None:
            get_core.restype, get_core.argtypes = ctypes.c_char_p, []
            core = get_core().decode()
        if get_threads is not None:
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            threads = get_threads()
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    return {
        "openblas_core": core,
        "openblas_threads": threads,
        "avx512_skx": __cpu_features__.get("AVX512_SKX"),
        "numpy": np.__version__,
    }


def kernel_config() -> tuple:
    platform = numeric_platform()
    return platform["openblas_core"], platform["avx512_skx"]


def fingerprint_file(path: Path) -> Path:
    """The committed file of ``path``'s suite for the kernel config this process
    runs; a config without committed files raises ``LookupError`` naming it."""
    if kernel_config() not in KERNEL_CONFIGS:
        raise LookupError(
            f"no fingerprint is committed for this kernel config; numeric platform: "
            f"{numeric_platform()}; committed (openblas_core, avx512_skx): {list(KERNEL_CONFIGS)}"
        )
    return path.with_name(path.stem + KERNEL_CONFIGS[kernel_config()][0] + path.suffix)


def config_env(key) -> dict:
    """This process's environment with the kernel selection of config ``key``."""
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_ENV}
    env.update(KERNEL_CONFIGS[key][1])
    source = Path(__file__).resolve().parents[1] / "src"
    paths = [str(source), str(Path(__file__).resolve().parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def cpu_features() -> dict:
    """The CPU features numpy finds in a fresh process with no kernel selection,
    so a feature this process has disabled still shows."""
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_ENV}
    code = ("import json; from numpy._core._multiarray_umath import __cpu_features__ as f; "
            "print(json.dumps(f))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return json.loads(out.stdout)


def fingerprint_totals(rows) -> tuple[int, int, int]:
    """Converged cells, total NI and total NF of fingerprint rows."""
    converged = sum(r[2] == CONVERGED for r in rows)
    return converged, sum(r[3] for r in rows), sum(r[4] for r in rows)


def fingerprint_moves(old, new) -> list[str]:
    """What regenerating a fingerprint changed: the converged/NI/NF totals
    before -> after, then one line per moved cell with its (status, ni, nf)."""
    if old is None:
        return [f"new file, converged/NI/NF {fingerprint_totals(new)}"]
    moved = [(o, n) for o, n in zip(old, new) if o != n]
    lines = [f"converged/NI/NF {fingerprint_totals(old)} -> {fingerprint_totals(new)}, "
             f"{len(moved)} of {len(new)} cells moved"]
    for o, n in moved:
        lines.append(f"  {n[0]}/{n[1]}: {o[2]} {o[3]}/{o[4]} -> {n[2]} {n[3]}/{n[4]}"
                     + ("" if o[2:5] != n[2:5] else " (last bits of f or |g| only)"))
    return lines


def assert_fingerprint(table, path, what) -> tuple[int, int, int]:
    got, expected = suite_fingerprint(table), json.loads(path.read_text())
    moved = [f"{e[0]}/{e[1]}" for g, e in zip(got, expected) if g != e]
    assert got == expected, (
        f"the {what} suite moved in {moved}: converged/NI/NF {fingerprint_totals(expected)} -> "
        f"{fingerprint_totals(got)}. If the change is meant to move trajectories, regenerate {path} and "
        "the files of every other config this CPU runs with `PYTHONPATH=src python tests/test_acceptance.py`, "
        "and say in CHANGES.md why they moved. "
        f"Numeric platform: {numeric_platform()}."
    )
    return fingerprint_totals(got)


def test_criterion_10_suite_fingerprint(suite):
    table, _ = suite
    assert all(r.result.ng == r.result.nf for r in table.rows)
    totals = assert_fingerprint(table, fingerprint_file(FINGERPRINT), "n = 100")
    print(f"\nACCEPTANCE 10 PASS: 48 cells match the committed fingerprint bit for bit, "
          f"converged/NI/NF = {totals}")


def test_criterion_11_suite_fingerprint_n1000(suite_1000):
    totals = assert_fingerprint(suite_1000, fingerprint_file(FINGERPRINT_N1000),
                                f"n = 1000 (budget {N1000_MAX_ITER})")
    print(f"\nACCEPTANCE 11 PASS: 48 n = 1000 cells match the committed fingerprint bit for bit, "
          f"converged/NI/NF = {totals}")


# Run in a fresh process under another config: criterion 10 there, then the
# config it ran, so the parent can tell that the selection took.
CHECK_N100 = (
    "import test_acceptance as t; "
    "table = t.run_suite(t.SUITE_SOLVERS, 'all', dims=[100], epsilon=1e-8, max_iter=10000); "
    "t.assert_fingerprint(table, t.fingerprint_file(t.FINGERPRINT), 'n = 100'); "
    "print(repr(t.kernel_config()))"
)


def other_configs() -> dict:
    """Each committed config but this process's -> the CPU features it needs that
    this CPU lacks; a config is never forced onto a CPU that lacks its features."""
    features = cpu_features()
    return {key: [f for f in needs if not features.get(f)]
            for key, (_, _, needs) in KERNEL_CONFIGS.items() if key != kernel_config()}


def test_n100_fingerprint_holds_under_each_other_config_this_cpu_runs():
    # A change that moves trajectories must regenerate every config's files;
    # one left stale fails here on any machine that runs two configs.
    others = [key for key, lacks in other_configs().items() if not lacks]
    if not others:
        pytest.skip(f"no other committed kernel config runs on this CPU ({numeric_platform()})")
    for key in others:
        proc = subprocess.run([sys.executable, "-c", CHECK_N100], env=config_env(key),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, f"config {key}:\n{proc.stderr[-3000:]}"
        assert proc.stdout.strip().splitlines()[-1] == repr(key)


def test_other_configs_name_the_features_this_cpu_lacks(monkeypatch):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "kernel_config", lambda: ("SkylakeX", True))
    monkeypatch.setattr(module, "cpu_features", lambda: {"AVX2": True, "FMA3": False})
    assert other_configs() == {("Haswell", False): ["FMA3"]}
    monkeypatch.setattr(module, "kernel_config", lambda: ("Haswell", False))
    assert other_configs() == {("SkylakeX", True): ["AVX512_SKX"]}


def test_an_unknown_kernel_config_fails_and_names_its_platform(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "kernel_config", lambda: ("Prescott", False))
    with pytest.raises(LookupError, match="no fingerprint is committed for this kernel config") as exc:
        fingerprint_file(FINGERPRINT)
    assert f"'openblas_core': {numeric_platform()['openblas_core']!r}" in str(exc.value)


def test_each_committed_config_has_both_files():
    for suffix, _, _ in KERNEL_CONFIGS.values():
        for path in (FINGERPRINT, FINGERPRINT_N1000):
            rows = json.loads(path.with_name(path.stem + suffix + path.suffix).read_text())
            assert len(rows) == 48


def test_numeric_platform_reports_each_kernel():
    platform = numeric_platform()
    assert list(platform) == ["openblas_core", "openblas_threads", "avx512_skx", "numpy"]
    assert platform["numpy"] == np.__version__
    assert platform["openblas_core"] is None or isinstance(platform["openblas_core"], str)
    assert platform["openblas_threads"] is None or platform["openblas_threads"] >= 1
    assert platform["avx512_skx"] in (None, True, False)


def test_a_moved_fingerprint_names_the_openblas_core(tmp_path):
    table = ResultTable([ResultRow("dk", "qf1", 10, RunResult(CONVERGED, 3, 5, 0.0, 0.0))])
    path = tmp_path / "fingerprint.json"
    write_fingerprint(path, [["dk", "qf1", CONVERGED, 4, 5, "0x0.0p+0", "0x0.0p+0"]])
    with pytest.raises(AssertionError) as exc:
        assert_fingerprint(table, path, "one-cell")
    assert "moved in ['dk/qf1']" in str(exc.value)
    assert f"'openblas_core': {numeric_platform()['openblas_core']!r}" in str(exc.value)


def test_regeneration_reports_the_totals_and_each_moved_cell():
    old = [["dk", "qf1", CONVERGED, 4, 5, "0x1.0p+0", "0x0.0p+0"],
           ["m2", "qf1", "iter_limit", 9, 12, "0x1.0p+0", "0x0.0p+0"],
           ["dk", "eg2", CONVERGED, 7, 9, "0x1.0p+0", "0x0.0p+0"]]
    new = [old[0], ["m2", "qf1", CONVERGED, 6, 8, "0x1.0p+0", "0x0.0p+0"],
           ["dk", "eg2", CONVERGED, 7, 9, "0x1.0p+1", "0x0.0p+0"]]
    assert fingerprint_moves(old, new) == [
        "converged/NI/NF (2, 20, 26) -> (3, 17, 22), 2 of 3 cells moved",
        "  m2/qf1: iter_limit 9/12 -> converged 6/8",
        "  dk/eg2: converged 7/9 -> converged 7/9 (last bits of f or |g| only)",
    ]
    assert fingerprint_moves(None, new) == ["new file, converged/NI/NF (3, 17, 22)"]


def write_fingerprints() -> None:
    """Regenerate both files of the kernel config this process runs and print
    what moved in each."""
    n100 = run_suite(SUITE_SOLVERS, "all", dims=[100], epsilon=1e-8, max_iter=10000)
    for path, table in ((fingerprint_file(FINGERPRINT), n100),
                        (fingerprint_file(FINGERPRINT_N1000), suite_n1000())):
        old = json.loads(path.read_text()) if path.exists() else None
        rows = suite_fingerprint(table)
        write_fingerprint(path, rows)
        print(f"wrote {path}: " + "\n".join(fingerprint_moves(old, rows)), flush=True)


if __name__ == "__main__":
    # Writes the files of this process's config, then those of each other
    # committed config this CPU runs, in a fresh process under its environment
    # that first checks the selection took.
    write_fingerprints()
    for key, lacks in other_configs().items():
        if lacks:
            print(f"skipped config {key}: this CPU lacks {', '.join(lacks)}")
            continue
        code = (f"import test_acceptance as t; assert t.kernel_config() == {key!r}, "
                f"t.numeric_platform(); t.write_fingerprints()")
        subprocess.run([sys.executable, "-c", code], env=config_env(key), check=True, timeout=600)
