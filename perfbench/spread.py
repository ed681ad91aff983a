"""Run-to-run spread of the end-to-end metrics against their bounds.

Runs the benchmark once per seed 1-10 on each workload, untraced and for
``run_seconds`` from ``BENCHMARK.json``, and prints,
per metric, the median of the values and the distance between their first
and third quartile as a share of the median, next to the metric's bound in
``BENCHMARK.json``::

    python3 perfbench/spread.py --workloads suite-n100,trace-n1000

Exit code 1 when a run fails or any spread exceeds its bound.  Raw results go to ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


SEEDS = range(1, 11)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        with open(OUT / f"spread-{workload}.jsonl", "w") as log:
            for seed in SEEDS:
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    ok = False
                    continue
                result = json.loads(lines[-1])
                ok &= result["correct"]
                runs.append(result)
                log.write(json.dumps({"seed": seed, **result}) + "\n")
                log.flush()
        print(f"{workload}: {len(runs)} runs")
        for m in spec["end_to_end"] if runs else ():
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            spread = quartile_spread(values)
            flag = "" if spread <= m["bound"] / 3 else " (over a third of the bound)"
            if spread > m["bound"]:
                flag, ok = " OVER BOUND", False
            print(f"  {m['name']:<14} median {median(values):>12.6g} {m['unit']:<6} "
                  f"spread {spread:.4f} bound {m['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
