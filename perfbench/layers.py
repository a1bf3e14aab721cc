"""Per-layer attribution for the benchmark's traced runs.

:class:`Tracer` times the calls into each layer's public functions from
outside the program: while a traced operation runs, it swaps each function
(at every module that bound it) or method for a timing wrapper, and it
opens a ``repro.observing()`` session to read the counters and spans the
program already exports.  Layer times are *self* times: a call's time
minus the wrapped calls it made, kept per thread, so the layers and the
unattributed remainder add up to the operation's wall time.  Untraced
operations run the unwrapped program.

``python3 perfbench/layers.py`` runs every workload traced, fepia-hiperd
included, and prints one per-layer table each.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict

#: Self-time layers: wrapped-call layer -> reported metric.  Together
#: with the queue wait they partition an operation's wall time.
SELF_TIME = {
    "mappings": "mappings.ms",
    "tensor": "tensor.ms",
    "numeric": "numeric.ms",
    "radius": "radius.frontend_ms",
    "fepia": "fepia.weighting_ms",
    "curve": "curve.walk_ms",
    "cache": "service.cache_ms",
    "shm": "service.shm_publish_ms",
    "executor": "executor.run_ms",
}

#: Program counters reported as they are (summed over traced operations).
COUNTERS = ("solver.batch_evals", "solver.tensor_refined",
            "solver.repinned_brackets", "solver.tensor_pruned",
            "solver.warm_starts", "solver.warm_hits",
            "executor.dispatched")

MAPPING_METHODS = ("value", "value_many", "gradient", "gradient_many")


class Tracer:
    """Wraps the layers' entry points while a traced operation runs."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.op_s = 0.0
        self._local = threading.local()
        self._patches = self._plan()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn, on_exit=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [layer, 0.0]
            parents = [f[0] for f in stack]
            stack.append(frame)
            t = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_exit is not None:
                on_exit(parents, args, kwargs, out)
            return out
        return functools.wraps(fn)(wrapper)

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every entry point."""
        import scipy.optimize

        from repro.analysis import degradation
        from repro.core import fepia, mappings, radius
        from repro.core.solvers import numeric, tensor
        from repro.parallel import cache, executor
        from repro.resilience import supervisor
        from repro.service import cache as service_cache
        from repro.service import shm

        patches = []

        def function(layer, fn, on_exit=None):
            wrapper = self._wrap(layer, fn, on_exit)
            for mod in list(sys.modules.values()):
                for name, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is fn:
                        patches.append((mod, name, fn, wrapper))

        def methods(layer, cls, names, on_exit=None):
            for name in names:
                raw = cls.__dict__.get(name)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__, on_exit))
                else:
                    new = self._wrap(layer, raw, on_exit)
                patches.append((cls, name, raw, new))

        function("tensor", tensor.solve_group)
        function("tensor", tensor.solve_problem_tensor)
        function("numeric", numeric.solve_numeric_radius)
        function("numeric", scipy.optimize.minimize, self._minimized)
        function("radius", radius.compute_radii, self._solved)
        function("radius", radius.compute_radius, self._solved)
        function("curve", degradation.degradation_curve, self._walked)
        methods("fepia", fepia.RobustnessAnalysis,
                ("radii", "radius", "pspace", "pspace_problem",
                 "per_parameter_radii"))
        for cls in (executor.ParallelExecutor, supervisor.SupervisedExecutor):
            methods("executor", cls, ("run",))
        for cls in (cache.RadiusCache, service_cache.SharedRadiusCache):
            methods("cache", cls, ("key", "get", "put"))
        methods("shm", shm.SharedProblemBatch, ("publish",), self._published)
        for cls in _subclasses(mappings.FeatureMapping):
            methods("mappings", cls, MAPPING_METHODS, self._mapped)
        return patches

    # on-exit hooks: counts taken where the work happens
    def _mapped(self, parents, args, kwargs, out) -> None:
        if parents and parents[-1] == "mappings":
            return  # a composite mapping's inner call; counted once
        self.counts["mappings.calls"] += 1
        # value/gradient take one point, the *_many forms a row matrix.
        points = args[1]
        self.counts["mappings.rows"] += (len(points)
                                         if getattr(points, "ndim", 1) == 2
                                         else 1)

    def _minimized(self, parents, args, kwargs, out) -> None:
        self.counts["numeric.minimize_calls"] += 1
        self.counts["numeric.iterations"] += getattr(out, "nit", 0)
        self.counts["numeric.fun_evals"] += getattr(out, "nfev", 0)

    def _solved(self, parents, args, kwargs, out) -> None:
        if "radius" in parents:
            return  # the frontend calling itself
        if "fepia" in parents:
            self.counts["fepia.solves"] += (len(out) if isinstance(out, list)
                                            else 1)

    def _walked(self, parents, args, kwargs, curve) -> None:
        self.counts["curve.families"] += curve.stats["families"]
        self.counts["curve.solves"] += curve.stats["solves"]

    def _published(self, parents, args, kwargs, batch) -> None:
        self.counts["service.shm_bytes"] += batch.nbytes

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def active(self):
        """Trace the enclosed operation: wrappers in, observability on."""
        import repro

        for owner, name, _, new in self._patches:
            setattr(owner, name, new)
        try:
            with repro.observing() as obs:
                yield
        finally:
            for owner, name, old, _ in reversed(self._patches):
                setattr(owner, name, old)
        metrics = obs.metrics.snapshot()
        for name in COUNTERS:
            self.counts[name] += metrics.get(name, {}).get("value", 0.0)
        for sp in obs.recorder.spans():
            if sp.name == "service.request":
                self.counts["service.request_s"] += sp.elapsed or 0.0
            elif sp.name == "parallel.task":
                self.counts["executor.task_s"] += sp.elapsed or 0.0
            elif sp.name == "radius.batch":
                self.counts["radius.groups"] += sp.tags.get("groups", 0)

    def op_done(self, seconds: float) -> None:
        self.ops += 1
        self.op_s += seconds

    def report(self, *, untraced_p50_ms: float, traced_p50_ms: float) -> dict:
        """Per-operation means over the traced operations, keyed by metric."""
        per_op = 1.0 / max(self.ops, 1)
        out = {name: value * per_op for name, value in self.counts.items()}
        out["op.wall_ms"] = 1e3 * self.op_s * per_op
        for layer, metric in SELF_TIME.items():
            out[metric] = 1e3 * self.self_s.get(layer, 0.0) * per_op
        request_ms = 1e3 * out.pop("service.request_s", 0.0)
        out["service.request_ms"] = request_ms
        out["service.queue_wait_ms"] = (out["op.wall_ms"] - request_ms
                                        if request_ms else 0.0)
        out["executor.task_ms"] = 1e3 * out.pop("executor.task_s", 0.0)
        out["unattributed.ms"] = (out["op.wall_ms"]
                                  - sum(out[m] for m in SELF_TIME.values())
                                  - out["service.queue_wait_ms"])
        out["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms
        return out


def _subclasses(cls) -> list:
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        seen.append(c)
        todo.extend(s for s in c.__subclasses__() if s not in seen)
    return seen


def format_table(workload: str, metrics: dict) -> str:
    """The per-layer table of one traced run: ``metrics`` maps each name
    to its ``{"value", "unit"}``, in report order."""
    lines = [f"per-layer figures, {workload} (per operation unless noted)"]
    for name, m in metrics.items():
        lines.append(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
    return "\n".join(lines)


def main() -> int:
    import argparse
    import json
    import os
    import subprocess

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    # Every workload of workloads.py, including fepia-hiperd, which is
    # traced here although BENCHMARK.json does not time it.
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "1"], cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(format_table(name, result["metrics"]))
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
