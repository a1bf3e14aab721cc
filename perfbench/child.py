"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` in a fresh interpreter, because set-up time counts
from before ``import repro``.  After set-up it runs whole rounds until
``--seconds`` have passed (with ``--part i --parts n``, rounds i, i+n,
i+2n, ..., so the processes of one run share no inputs), times each operation, and checks every output
against the oracles.  Prints one JSON object on its last stdout line:
the set-up time, the latency of every untraced operation and the sums
``run.py`` pools over its processes.  With ``--trace 1`` it alternates
untraced and traced operations and reports per-layer figures from the traced
ones (see ``layers.py``).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--parts", type=int, required=True)
    args = ap.parse_args()

    import repro  # noqa: F401  (timed: import is part of set-up)
    import_s = time.perf_counter() - T0
    from workloads import WARMUP_ROUND, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    try:
        warm = workload.round(WARMUP_ROUND)[0]
        workload.run(warm)
        setup_s = time.perf_counter() - T0
        result = measure(workload, args)
        result.update(setup_s=setup_s, import_s=import_s, env=_versions())
    finally:
        workload.close()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["children_peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def measure(workload, args) -> dict:
    import oracles

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
    plain, traced = [], []
    radii = attempted = failed = 0
    op_seconds = 0.0
    errors: list[str] = []
    failures: list[str] = []
    start = time.perf_counter()
    r = 0
    while True:
        # Process ``part`` of ``parts`` takes every ``parts``-th round.
        items = workload.round(args.part + args.parts * r)
        done = []
        for k, item in enumerate(items):
            # Traced and untraced operations alternate, so over two
            # rounds both halves have the round's make-up.
            on = tracer is not None and (r + k) % 2 == 1
            attempted += 1
            with tracer.active() if on else contextlib.nullcontext():
                t = time.perf_counter()
                try:
                    out = workload.run(item)
                except Exception:
                    failed += 1
                    failures.append(traceback.format_exc(limit=3))
                    continue
                dt = time.perf_counter() - t
            if on:
                traced.append(dt)
                tracer.op_done(dt)
            else:
                plain.append(dt)
                radii += workload.radii(out)
                op_seconds += dt
            done.append((item, out))
        for item, out in done:
            errors += workload.check(item, out)
        r += 1
        # A traced run needs an untraced and a traced operation at least.
        if time.perf_counter() - start >= args.seconds \
                and (tracer is None or r >= 2):
            break
    oracles.self_test()
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": not errors,
        "errors": errors[:20],
        "failures": failures[:5],
        "rounds": r,
        "radii": radii,
        "op_seconds": op_seconds,
        "op_ms": [1e3 * dt for dt in plain],
    }
    if tracer is not None:
        result["traced_ops"] = tracer.ops
        result["layers"] = tracer.report(
            untraced_p50_ms=1e3 * statistics.median(plain),
            traced_p50_ms=1e3 * statistics.median(traced))
    return result


if __name__ == "__main__":
    sys.exit(main())
