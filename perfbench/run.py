"""specgrad benchmark: one workload, timed end to end or traced per module.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload suite-n100 --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout.  With
``--trace 0`` the workload is repeated, untraced, while another pass still
fits in ``--seconds``, and the end-to-end metrics are reported (times as
medians over the passes).  With ``--trace 1`` one untraced pass is followed
by traced passes (see ``tracer.py``) and the per-layer metrics are
reported.  Every pass's outputs are checked, and the per-cell
(status, ni, nf) fingerprint must repeat exactly across the passes of a
run.  A pass takes longer than half of a 30 s run on the reference machine,
so an untraced run usually makes one pass and determinism is in effect
checked by ``--trace 1`` runs (untraced pass against traced passes).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (cells run), ``failed`` (cells ending in an evaluation error)
and ``metrics``; metric names and units are those listed in
``BENCHMARK.json``.  The exit code is 1 when any check fails and 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters that import ``specgrad.cli`` and exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import specgrad.cli"],
            cwd=ROOT, env=env, check=True, timeout=60, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "specgrad" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no specgrad source tree or no BENCHMARK.json", file=sys.stderr)
        return 2
    workers = os.environ.pop("SPECGRAD_WORKERS", None)  # measure the harness default
    sys.path.insert(0, str(SRC))

    import numpy

    from checks import EVAL_ERROR, fingerprint
    from stats import median, ratio
    from tracer import Tracer
    from workloads import SOLVERS, WORKLOADS, run_pass

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    dim = wl.dim(args.seed)
    print(
        f"env nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"blas_threads={blas_threads()} SPECGRAD_WORKERS={'removed' if workers is not None else 'unset'}"
    )
    print(f"workload {wl.name} seed={args.seed} n={dim} budget={wl.budget} trace={args.trace}")

    setup = None if args.trace else measure_setup()
    work = OUT / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    plain, traced = [], []  # PassResult; (PassResult, Tracer)
    deadline = time.perf_counter() + args.seconds

    def fits(last) -> bool:  # another pass as long as the last one is predicted to end in time
        return time.perf_counter() + last.wall_s <= deadline

    try:
        plain.append(run_pass(wl, dim, work / "plain0"))
        while not args.trace and fits(plain[-1]):
            plain.append(run_pass(wl, dim, work / f"plain{len(plain)}"))
        while args.trace and (not traced or fits(traced[-1][0])):
            tracer = Tracer()
            tracer.install()
            try:
                result = run_pass(wl, dim, work / f"traced{len(traced)}")
            finally:
                tracer.restore()
            traced.append((result, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + [r for r, _ in traced]
    violations = [v for p in passes for v in p.violations]
    if len({fingerprint(p.cells) for p in passes}) != 1:
        violations.append(f"per-cell (status, ni, nf) differs between the {len(passes)} passes")
    cells = passes[0].cells
    total_ni = sum(c.ni for c in cells)
    total_nf = sum(c.nf for c in cells)
    converged = {s: sum(c.status == "converged" for c in cells if c.solver == s) for s in SOLVERS}

    if not args.trace:
        values = {
            "setup_s": median(setup),
            "wall_s": median(p.wall_s for p in plain),
            "us_per_eval": median(1e6 * ratio(p.wall_s, total_nf) for p in plain),
            "us_per_iter": median(1e6 * ratio(p.wall_s, total_ni) for p in plain),
            "converged": sum(converged.values()),
            "total_ni": total_ni,
            "total_nf": total_nf,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        listed = spec["end_to_end"]
    else:
        per_pass = []
        for result, tracer in traced:
            m = tracer.layer_metrics()
            for solver, count in converged.items():
                m["solver.converged." + solver.split(":")[0]] = count
            m["solver.fail_frac"] = ratio(len(cells) - sum(converged.values()), len(cells))
            m["trace.wall_s"] = result.wall_s
            m["trace.unaccounted_s"] = result.wall_s - tracer.traced_s
            if abs(tracer.self_total() - tracer.traced_s) > 1e-6 * (1.0 + tracer.traced_s):
                violations.append("span self times do not add up to the traced time")
            per_pass.append(m)
        values = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead"] = ratio(values["trace.wall_s"], median(p.wall_s for p in plain)) - 1.0
        listed = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{wl.name}-seed{args.seed}.spans.json", "w") as fh:
            json.dump([{"wall_s": r.wall_s, **t.record()} for r, t in traced], fh, indent=1)

    if sorted(values) != sorted(m["name"] for m in listed):
        violations.append(f"reported metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    attempted = sum(len(p.cells) for p in passes)
    failed = sum(c.status == EVAL_ERROR for p in passes for c in p.cells)
    print(json.dumps({"correct": not violations, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
