"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the library is imported from ``src/``).
The run starts ``PROCESSES`` fresh interpreters one after another; each
sets the workload up and then measures it for an equal share of
``--seconds`` (see ``child.py``).  ``setup_s`` is the median of their
set-up times, and the operation metrics pool the operations of all of
them, so that no single process's luck on a shared machine (its core,
its memory layout, a slow stretch) decides the run.  With ``--trace 0``
the last line reports the end-to-end metrics; with ``--trace 1`` the
per-layer ones, and the per-layer table goes to stderr.  Every run also appends a record to
``.perfbench_runs/records.jsonl`` in the checkout, where the children's
temporary files go too.

Each child runs with one BLAS/OpenMP thread: the machine the bounds were
set on has 2 cores, and the service workload already runs two worker
processes beside its client.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
RECORDS = os.path.join(RUNS, "records.jsonl")
#: Processes per run, each a set-up sample and a share of the measuring.
PROCESSES = 3
#: Wall-clock budget of one run, in seconds, beyond ``--seconds``.
SLACK = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics of
    ``BENCHMARK.json``, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # Temporary files of the program stay inside the checkout.
    env["TMPDIR"] = os.path.join(RUNS, "tmp")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _percentile(values, q):
    """Linear-interpolated ``q``-quantile of ``values`` (q in [0, 1])."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _spawn(args, part: int, deadline: float) -> dict:
    """Run one child in its own session; kill the session on overrun and
    make sure every process of it has ended before returning."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PROCESSES),
           "--trace", str(args.trace), "--part", str(part),
           "--parts", str(PROCESSES)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        _kill_session(proc.pid)
        proc.communicate()
        raise RuntimeError("a benchmark process overran the run budget")
    finally:
        _kill_session(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"a benchmark process exited {proc.returncode}:"
                           f"\n{err}")
    if err.strip():
        sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def _kill_session(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no library under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(RUNS, "tmp"), exist_ok=True)
    deadline = time.time() + args.seconds + SLACK
    try:
        runs = [_spawn(args, part, deadline) for part in range(PROCESSES)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    op_ms = [ms for run in runs for ms in run["op_ms"]]
    measured = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "radii_per_s": (sum(run["radii"] for run in runs)
                        / sum(run["op_seconds"] for run in runs)),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": _percentile(op_ms, 0.9),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }
    correct = all(run["correct"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    if args.trace:
        import layers

        # Per-operation means, weighted by each process's traced ops.
        traced = sum(run["traced_ops"] for run in runs)
        measured = {name: sum(run["layers"][name] * run["traced_ops"]
                              for run in runs) / traced
                    for name in runs[0]["layers"]}
        measured["import.repro_s"] = statistics.median(
            run["import_s"] for run in runs)
        measured["service.worker_peak_rss_mb"] = max(
            run["children_peak_rss_mb"] for run in runs)
        # A layer the workload never enters reads 0.
        metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
                   for name, unit in _metrics("per_layer")}
        print(layers.format_table(args.workload, metrics), file=sys.stderr)
    else:
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, unit in _metrics("end_to_end")}
    for run in runs:
        for problem in run["errors"] + run["failures"]:
            print(problem, file=sys.stderr)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "rounds": [run["rounds"] for run in runs], "ops": len(op_ms),
        "metrics": metrics,
        "setup_samples_s": [run["setup_s"] for run in runs],
        "import_samples_s": [run["import_s"] for run in runs],
        "env": dict(runs[0]["env"], git_rev=_git_rev(),
                    nproc=os.cpu_count(),
                    blas_threads={v: _env()[v] for v in THREAD_VARS}),
    }
    with open(RECORDS, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
