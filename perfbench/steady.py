"""Steadiness check: two interleaved sets of runs of every workload.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

For each workload it runs set A on seeds 1..N and set B on seeds
101..100+N, alternating which set goes first, so both sets see the same
machine drift; the workloads take turns run by run, so a slow stretch of
the machine spreads over all of them rather than over consecutive runs
of one.  It then prints, per end-to-end metric, each set's median
and quartiles (``statistics.quantiles(n=4)``), the spread (Q3 - Q1) as a
share of the median, and the set-to-set difference of the medians in the
metric's worse direction, each against the bound in ``BENCHMARK.json``,
and finally the largest shift relative to its bound.
``setup_s`` has no spread gate, only the median one.  Exit status 1 if
any run fails, any gate is exceeded, or the sets differ in the share of
failed operations.  Raw results go to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    raw: dict = {name: ([], []) for name in names}
    for i in range(args.runs):
        for name in names:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                raw[name][s].append(_run(name, 1 + 100 * s + i, seconds))
    ok = True
    largest = (float("-inf"), "")
    for name, sets in raw.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{name}: {args.runs} run(s) per set, failed share "
              f"{sorted(shares)}, all correct: {correct}")
        ok &= correct and len(shares) == 1
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'shift':>7} {'bound':>6}")
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            meds = []
            for s, runs in enumerate(sets):
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][m]["value"] for r in runs], n=4)
                meds.append(med)
                spread = (q3 - q1) / med
                shift = ""
                if s == 1:
                    worse = meds[1] - meds[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    shift_share = worse / meds[0]
                    shift = f"{shift_share:7.3f}"
                    ok &= shift_share <= bound
                    largest = max(largest, (shift_share / bound,
                                            f"{name} {m} {shift_share:.3f}"))
                if m != "setup_s":
                    ok &= spread <= bound
                print(f"  {m:<12} {'AB'[s]:>3} {med:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {spread:7.3f} {shift:>7} {bound:6.2f}")
    os.makedirs(os.path.join(ROOT, ".perfbench_runs"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_runs",
                        f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    print(f"\nlargest set-to-set shift against its bound: {largest[1]} "
          f"({largest[0]:.2f} of the bound)")
    print(f"raw results: {path}")
    print(f"verdict: {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
