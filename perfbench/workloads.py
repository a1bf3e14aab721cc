"""The benchmark's workloads: seeded inputs, one operation, checks.

``BENCHMARK.json`` times four of them; ``fepia-hiperd`` is checked and
traced but not timed (see README.md).

A workload is built once from the run's seed (``__init__``), then hands
out *rounds* of inputs (:meth:`round`); every round has the same make-up
and fresh seeded draws, so a run of any length attempts whole rounds of
the same operations.  :meth:`run` is the timed operation and calls only
the library's public entry points; :meth:`check` compares its output
with the oracles of :mod:`oracles`, computed from the raw arrays the
inputs were built from.

Every caller blocks on its answer, so each workload is a closed loop
with one client.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
import repro
from repro import (LinearMapping, MaxMapping, NormalizedWeighting,
                   PerturbationParameter, QuadraticMapping, RadiusProblem,
                   RobustnessAnalysis, SensitivityWeighting, ToleranceBounds,
                   compute_radii)
from repro.analysis import degradation_curve
from repro.core import FeatureSpec, PerformanceFeature
from repro.core.mappings import ProductMapping, SumMapping
from repro.systems.heuristics import MCT
from repro.systems.hiperd import (HiPerDGenerationSpec, QoSSpec,
                                  build_analysis, generate_hiperd_system)
from repro.systems.independent import generate_etc_gamma
from repro.systems.independent.makespan import MakespanSystem

INF = math.inf
#: Round index of the warm-up input built during set-up; never measured.
WARMUP_ROUND = 10**6
#: Seed of the solvers' own randomness (multistarts, search directions),
#: the same in every run: ``--seed`` draws the inputs.  The cost of a
#: HiPer-D analysis moves by up to 2x with this seed (1.6-3.0 s on one
#: system), so drawing it per run or per operation would make the
#: workload's figures follow the seed rather than the code.
SOLVER_SEED = 2005


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _quadratic(rng, kind: str, dim: int) -> np.ndarray:
    if kind == "diag":
        return np.diag(rng.uniform(0.5, 2.0, dim))
    a = rng.standard_normal((dim, dim))
    return a @ a.T / dim + 0.5 * np.eye(dim)


def _bounds_levels(bounds: ToleranceBounds) -> list[float]:
    return [float(b) for b in bounds.finite_bounds]


class RadiiTensor:
    """In-process ``compute_radii(method="bisection")`` on 32-problem
    structural groups: one mapping, 32 origins, every fourth problem
    boxed.  The round mixes mapping kind, dimension and norm so that the
    median group is a dim-12 quadratic and the top sixth are dim-64
    quadratics (see README for the cost clusters)."""

    name = "radii-tensor"
    GROUP = 32
    #: (mapping kind, dimension, norm) of each group in a round.
    ROUND = (
        ("max", 64, 2), ("max", 12, 2), ("max", 12, INF),
        ("diag", 12, 2), ("diag", 12, INF), ("full", 12, 2),
        ("full", 12, INF), ("diag", 12, 2), ("full", 12, INF),
        ("max", 64, INF), ("diag", 64, 2), ("full", 64, INF),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list[dict]:
        return [self._group(_rng(self.seed, r, k), *spec)
                for k, spec in enumerate(self.ROUND)]

    def _group(self, rng, kind, dim, p) -> dict:
        item = {"kind": kind, "dim": dim, "norm": p}
        if kind == "max":
            rows = rng.uniform(0.2, 1.0, (4, dim))
            item["rows"] = rows
            mapping = MaxMapping([LinearMapping(a) for a in rows])
        else:
            item["q"] = q = _quadratic(rng, kind, dim)
            mapping = QuadraticMapping(q)
        problems = []
        for i in range(self.GROUP):
            if kind == "max":
                x0 = rng.uniform(0.5, 1.5, dim)
                level = float((rows @ x0).max()) * rng.uniform(1.2, 1.6)
            else:
                x0 = 0.1 * rng.standard_normal(dim)
                level = float(x0 @ q @ x0) + rng.uniform(1.0, 3.0)
            lower = upper = None
            if i % 4 == 3:
                # The box holds the nearest boundary point (its inf-norm
                # distance is at most the 2-norm one) and still cuts many
                # search directions short.  Boxes of 1.0-1.6x made the
                # bisection tier report an infinite radius for some
                # inf-norm dim-64 problems (no sampled ray crosses inside
                # the box), on some seeds only, so a run cannot keep them.
                if kind == "max":
                    d2 = oracles.polytope_distance(rows, np.zeros(4), x0,
                                                   level, 2)
                else:
                    d2 = oracles.ellipsoid_distance(q, x0, level)
                half = d2 * rng.uniform(1.5, 2.5)
                lower, upper = x0 - half, x0 + half
            problems.append(RadiusProblem(
                mapping=mapping, origin=x0,
                bounds=ToleranceBounds.upper(level),
                lower=lower, upper=upper, norm=p))
        item["problems"] = problems
        return item

    def run(self, item):
        return compute_radii(item["problems"], method="bisection",
                             seed=SOLVER_SEED, cache=False)

    @staticmethod
    def radii(results) -> int:
        return len(results)

    def check(self, item, results) -> list[str]:
        errors = []
        for prob, res in zip(item["problems"], results):
            errors += _check_bisection(item, prob, res)
        return errors

    def close(self) -> None:
        pass


def _value_fn(item):
    if "rows" in item:
        rows = item["rows"]
        return lambda x: float((rows @ x).max())
    q = item["q"]
    return lambda x: float(x @ q @ x)


def _lower_bound(item, prob) -> float:
    """An oracle lower bound on the radius of an upper-bounded problem:
    exact when unboxed under the 2-norm, a bound otherwise."""
    level = prob.bounds.beta_max
    if "rows" in item:
        rows = item["rows"]
        return oracles.polytope_distance(rows, np.zeros(len(rows)),
                                         prob.origin, level, prob.norm)
    r2 = oracles.ellipsoid_distance(item["q"], prob.origin, level)
    # ||v||_inf >= ||v||_2 / sqrt(n) for every boundary point.
    return r2 if prob.norm == 2 else r2 / math.sqrt(prob.origin.size)


def _check_bisection(item, prob, res) -> list[str]:
    """The directional tier returns a point on the boundary, so its
    radius is an upper bound: it must be witnessed and lie above the
    oracle's lower bound."""
    errors = []
    if res.quality.name != "UPPER_BOUND":
        errors.append(f"bisection result tagged {res.quality.name}")
    errors += oracles.witness_errors(
        _value_fn(item), res.boundary_point, prob.origin, res.radius,
        res.bound_hit, prob.norm, prob.lower, prob.upper)
    lb = _lower_bound(item, prob)
    if res.radius < lb * (1.0 - 1e-9):
        errors.append(f"radius {res.radius!r} below oracle bound {lb!r}")
    return errors


class FepiaHiperd:
    """The paper's use: the full FePIA analysis of a seeded HiPer-D
    system under all three perturbation kinds, once with normalized
    (Sec. 3.2) and once with sensitivity (Sec. 3.1) weighting."""

    name = "fepia-hiperd"
    #: A fixed topology with parameter ranges narrowed around the
    #: generator's defaults: with the default ranges one analysis costs
    #: 1.3-2.4 s (coefficient of variation 22%); narrowed, about 10%.
    SPEC = dict(n_sensors=2, n_actuators=2, n_machines=3, app_layers=(2, 2),
                extra_edge_prob=0.0, load_range=(100.0, 150.0),
                period_range=(1.0, 1.5), complexity_range=(4e3, 6e3),
                speed_range=(2e6, 3e6), msg_size_range=(4e4, 6e4),
                bandwidth_range=(4e6, 6e6))
    QOS = QoSSpec(latency_slack=1.4, throughput_margin=0.9)
    #: Points sampled inside each feature's radius by the robust-region
    #: check.
    SAMPLES = 4000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = HiPerDGenerationSpec(**self.SPEC)

    def round(self, r: int) -> list[dict]:
        rng = _rng(self.seed, r)
        # Draw until the allocation meets its QoS at the original point;
        # an analysis of an already-violated system is undefined.
        while True:
            system = generate_hiperd_system(
                self.spec, seed=int(rng.integers(2**31)))
            try:
                build_analysis(system, self.QOS)
            except repro.SpecificationError:
                continue
            return [{"system": system, "rng": rng}]

    def run(self, item):
        out = []
        for weighting in (NormalizedWeighting(), SensitivityWeighting()):
            analysis = build_analysis(item["system"], self.QOS,
                                      weighting=weighting,
                                      seed=SOLVER_SEED)
            radii = analysis.radii()
            out.append((analysis, radii, repro.robustness_metric(analysis)))
        return out

    @staticmethod
    def radii(out) -> int:
        return sum(len(radii) for _, radii, _ in out)

    def check(self, item, out) -> list[str]:
        errors = []
        rng = item["rng"]
        for analysis, radii, report in out:
            tag = type(analysis.weighting).__name__
            if report.rho != min(r.radius for r in radii.values()):
                errors.append(f"{tag}: rho {report.rho} is not the least "
                              "feature radius")
            for spec in analysis.features:
                res = radii[spec.name]
                prob = analysis.pspace_problem(spec)
                where = f"{tag}/{spec.name}"
                errors += [f"{where}: {e}" for e in oracles.witness_errors(
                    prob.mapping.value, res.boundary_point, prob.origin,
                    res.radius, res.bound_hit, 2)]
                pts = oracles.ball_samples(rng, prob.origin, res.radius,
                                           self.SAMPLES)
                values = prob.mapping.value_many(pts)
                inside = [prob.bounds.contains(float(v)) for v in values]
                if not all(inside):
                    errors.append(f"{where}: {inside.count(False)} of "
                                  f"{len(inside)} points inside the radius "
                                  "violate the bounds")
        return errors + _closed_forms(rng)

    def close(self) -> None:
        pass


def _closed_forms(rng) -> list[str]:
    """A linear feature over one-element parameters of different
    kinds has the paper's closed-form radii under both weightings."""
    n = 4
    k = rng.uniform(0.5, 3.0, n)
    pi = rng.uniform(1.0, 10.0, n)
    beta = rng.uniform(1.1, 2.0)
    params = [PerturbationParameter(f"kind{j}", [pi[j]], unit=f"u{j}")
              for j in range(n)]
    phi0 = float(k @ pi)
    spec = FeatureSpec(PerformanceFeature(
        "phi", ToleranceBounds.upper(beta * phi0)), LinearMapping(k))
    errors = []
    for weighting, want in (
            (SensitivityWeighting(),
             oracles.sensitivity_radius_linear(n)),
            (NormalizedWeighting(),
             oracles.normalized_radius_linear(k, pi, beta))):
        got = RobustnessAnalysis([spec], params, weighting=weighting,
                                 seed=SOLVER_SEED).radius("phi")
        if abs(got.radius - want) > oracles.EXACT_RTOL * want:
            errors.append(f"linear {type(weighting).__name__} radius "
                          f"{got.radius!r}, closed form {want!r}")
    return errors


class FepiaMultikind:
    """Short FePIA analyses in the numeric tier: two latency features of
    a small system under loads, execution times and message sizes, once
    with normalized (Sec. 3.2) and once with sensitivity (Sec. 3.1)
    weighting.

    Feature ``k`` is ``sum_i load_i * exec_{(i+k) mod 3} + msg_k / bw_k``
    (computation plus one transfer), bounded above by ``beta_k`` times its
    original value: sums of monomials, so every radius, the per-parameter
    ones behind sensitivity weighting included, goes to the numeric tier.
    One analysis costs about 0.2 s, a tenth of a HiPer-D one, so a run
    holds enough of them for a steady median.
    """

    name = "fepia-multikind"
    LOADS, EXECS, MSGS = 2, 3, 2
    FEATURES = 2
    #: Systems per round.
    SYSTEMS = 4
    #: Points sampled inside each normalized-weighting radius.
    SAMPLES = 1000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list[dict]:
        rng = _rng(self.seed, r)
        items = [self._system(rng) for _ in range(self.SYSTEMS)]
        items[0]["closed_forms"] = True
        return items

    def _system(self, rng) -> dict:
        nl, ne, nm = self.LOADS, self.EXECS, self.MSGS
        n = nl + ne + nm
        raw = {"loads": rng.uniform(50.0, 150.0, nl),
               "exec": rng.uniform(1e-3, 5e-3, ne),
               "msgsize": rng.uniform(1e4, 5e4, nm)}
        params = [PerturbationParameter(name, values, unit=unit)
                  for (name, values), unit in zip(raw.items(),
                                                  ("objects", "s", "B"))]
        x0 = np.concatenate(list(raw.values()))
        pairs, inv_bw, specs = [], [], []
        for k in range(self.FEATURES):
            pairs.append([(i, nl + (i + k) % ne) for i in range(nl)])
            inv_bw.append(1.0 / rng.uniform(4e6, 6e6))
            comps = []
            for i, j in pairs[k]:
                powers = np.zeros(n)
                powers[[i, j]] = 1.0
                comps.append(ProductMapping(powers))
            powers = np.zeros(n)
            powers[nl + ne + k % nm] = 1.0
            comps.append(ProductMapping(powers, inv_bw[k]))
            mapping = SumMapping(comps)
            level = mapping.value(x0) * rng.uniform(1.3, 1.6)
            specs.append(FeatureSpec(PerformanceFeature(
                f"latency{k}", ToleranceBounds.upper(level)), mapping))
        return {"specs": specs, "params": params, "x0": x0, "pairs": pairs,
                "inv_bw": inv_bw, "rng": rng, "closed_forms": False}

    def _value_many(self, item, k, xs) -> np.ndarray:
        """Feature ``k`` at original-space points, from the raw data."""
        xs = np.atleast_2d(xs)
        msg = self.LOADS + self.EXECS + k % self.MSGS
        return (sum(xs[:, i] * xs[:, j] for i, j in item["pairs"][k])
                + xs[:, msg] * item["inv_bw"][k])

    def run(self, item):
        out = []
        for weighting in (NormalizedWeighting(), SensitivityWeighting()):
            analysis = RobustnessAnalysis(item["specs"], item["params"],
                                          weighting=weighting,
                                          seed=SOLVER_SEED)
            radii = analysis.radii()
            out.append((analysis, radii, repro.robustness_metric(analysis)))
        return out

    @staticmethod
    def radii(out) -> int:
        return sum(len(radii) for _, radii, _ in out)

    def check(self, item, out) -> list[str]:
        errors = []
        x0, rng = item["x0"], item["rng"]
        for analysis, radii, report in out:
            tag = type(analysis.weighting).__name__
            if report.rho != min(r.radius for r in radii.values()):
                errors.append(f"{tag}: rho {report.rho} is not the least "
                              "feature radius")
            for k, spec in enumerate(analysis.features):
                res = radii[spec.name]
                where = f"{tag}/{spec.name}"
                if not math.isfinite(res.radius):
                    errors.append(f"{where}: radius {res.radius!r}")
                    continue
                prob = analysis.pspace_problem(spec)
                errors += [f"{where}: {e}" for e in oracles.witness_errors(
                    prob.mapping.value, res.boundary_point, prob.origin,
                    res.radius, res.bound_hit, 2)]
                if not isinstance(analysis.weighting, NormalizedWeighting):
                    continue
                # Normalized P-space is pi / pi_orig: check the witness
                # and the robust region with the raw formula.
                level = spec.feature.bounds.beta_max
                if res.boundary_point is not None:
                    errors += [f"{where} (raw): {e}" for e in
                               oracles.witness_errors(
                                   lambda p: self._value_many(
                                       item, k, p * x0)[0],
                                   res.boundary_point, np.ones_like(x0),
                                   res.radius, level, 2)]
                pts = oracles.ball_samples(rng, np.ones_like(x0),
                                           res.radius, self.SAMPLES)
                bad = int(np.sum(self._value_many(item, k, pts * x0)
                                 > level))
                if bad:
                    errors.append(f"{where}: {bad} of {self.SAMPLES} points "
                                  "inside the radius violate the bound")
        if item["closed_forms"]:
            errors += _closed_forms(rng)
        return errors

    def close(self) -> None:
        pass


class CurveMakespan:
    """``degradation_curve`` of the makespan of a seeded MCT allocation,
    bisection tier, 40 requirement points from 1.05 to 2.0, as
    ``repro curve`` runs it."""

    name = "curve-makespan"
    TASKS, MACHINES = 24, 6
    BETAS = tuple(np.linspace(1.05, 2.0, 40))
    #: Points per curve re-solved cold for the witness check, one in
    #: every ``WITNESS_EVERY``, at an offset that rotates with the round.
    WITNESS_EVERY = 10

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list[dict]:
        rng = _rng(self.seed, r)
        items = []
        for k in range(4):
            etc = generate_etc_gamma(self.TASKS, self.MACHINES,
                                     seed=int(rng.integers(2**31)))
            system = MakespanSystem(etc, MCT().allocate(etc))
            analysis = system.makespan_analysis(
                beta=self.BETAS[0], method="bisection",
                seed=SOLVER_SEED)
            items.append({"system": system, "analysis": analysis,
                          "witness": range((r + k) % self.WITNESS_EVERY,
                                           len(self.BETAS),
                                           self.WITNESS_EVERY)})
        return items

    def run(self, item):
        return degradation_curve(item["analysis"], "makespan", self.BETAS)

    @staticmethod
    def radii(curve) -> int:
        return len(curve.points)

    def check(self, item, curve) -> list[str]:
        system = item["system"]
        times = system.original_times()
        machine = np.asarray(system.allocation.assignment)
        rows = np.array([(machine == j).astype(float)
                         for j in range(self.MACHINES)
                         if np.any(machine == j)])
        makespan = float((rows @ times).max())
        errors = []
        rhos = curve.rhos()
        if any(b < a for a, b in zip(rhos, rhos[1:])):
            errors.append("rho(beta) decreases along the curve")
        for i, point in enumerate(curve.points):
            if not math.isfinite(point.rho):
                errors.append(f"beta {point.beta}: rho {point.rho!r}")
                continue
            lb = oracles.polytope_distance(rows, np.zeros(len(rows)), times,
                                           point.beta * makespan, 2)
            if point.rho < lb * (1.0 - 1e-9):
                errors.append(f"beta {point.beta}: rho {point.rho!r} below "
                              f"the polytope distance {lb!r}")
            if i in item["witness"]:
                errors += self._witness(item, point, rows, times)
        return errors

    @staticmethod
    def _witness(item, point, rows, times) -> list[str]:
        """Re-solve one point cold, from above: the curve's rho must be
        the clone's radius, attained by a boundary point of the raw
        makespan ``max_j rows_j . t``."""
        analysis = item["analysis"]
        spec = analysis.features[0]
        phi0 = spec.mapping.value(analysis.pi_orig)
        res = analysis.with_feature_bounds({spec.name: ToleranceBounds.upper(
            point.beta * phi0)}).radius(spec.name)
        errors = []
        if res.radius != point.rho:
            errors.append(f"beta {point.beta}: curve rho {point.rho!r}, "
                          f"cold solve {res.radius!r}")
        errors += oracles.witness_errors(
            lambda t: float((rows @ t).max()), res.boundary_point, times,
            res.radius, res.bound_hit, 2)
        return [f"beta {point.beta}: {e}" for e in errors]

    def close(self) -> None:
        pass


class ServeStream:
    """A 2-worker ``RadiusService`` fed by one client thread.  A round is
    four requests of distinct problems, three of 8 and one of 80, each
    mixing the analytic, ellipsoid and bisection tiers."""

    name = "serve-stream"
    SIZES = (8, 8, 8, 80)
    DIM = 8
    WORKERS = 2

    def __init__(self, seed: int) -> None:
        from repro.service import RadiusService
        self.seed = seed
        self.service = RadiusService(self.WORKERS, seed=seed)

    def round(self, r: int) -> list[dict]:
        rng = _rng(self.seed, r)
        sizes = list(self.SIZES)
        rng.shuffle(sizes)
        return [self._request(rng, n, verify=(k == r % len(sizes)))
                for k, n in enumerate(sizes)]

    def _request(self, rng, n, verify) -> dict:
        dim = self.DIM
        problems, raw = [], []
        for j in range(n):
            x0 = 0.1 * rng.standard_normal(dim)
            if j % 3 == 0:
                a = rng.standard_normal(dim) + 0.1
                c = float(rng.uniform(-1.0, 1.0))
                mapping = LinearMapping(a, c)
                bounds = ToleranceBounds(-12.0, 12.0)
                raw.append({"a": a, "c": c})
                p = 2
            else:
                q = np.diag(rng.uniform(0.5, 2.0, dim))
                mapping = QuadraticMapping(q)
                bounds = ToleranceBounds.upper(float(x0 @ q @ x0)
                                               + rng.uniform(1.0, 3.0))
                raw.append({"q": q})
                p = 2 if j % 3 == 1 else INF
            problems.append(RadiusProblem(mapping=mapping, origin=x0,
                                          bounds=bounds, norm=p))
        return {"problems": problems, "raw": raw, "verify": verify}

    def run(self, item):
        return self.service.submit(item["problems"],
                                   seed=SOLVER_SEED).result(timeout=120)

    @staticmethod
    def radii(results) -> int:
        return len(results)

    def check(self, item, results) -> list[str]:
        errors = []
        for prob, raw, res in zip(item["problems"], item["raw"], results):
            levels = _bounds_levels(prob.bounds)
            if "a" in raw:
                want = oracles.hyperplane_distance(raw["a"], raw["c"],
                                                   prob.origin, levels, 2)
                if abs(res.radius - want) > oracles.EXACT_RTOL * want:
                    errors.append(f"analytic radius {res.radius!r}, "
                                  f"hyperplane {want!r}")
            elif prob.norm == 2:
                want = oracles.ellipsoid_distance(raw["q"], prob.origin,
                                                  levels[0])
                if abs(res.radius - want) > oracles.EXACT_RTOL * want:
                    errors.append(f"ellipsoid radius {res.radius!r}, "
                                  f"secular {want!r}")
                q = raw["q"]
                errors += oracles.witness_errors(
                    lambda x: float(x @ q @ x), res.boundary_point,
                    prob.origin, res.radius, res.bound_hit, 2)
            else:
                errors += _check_bisection(raw, prob, res)
        if item["verify"]:
            local = compute_radii(item["problems"], seed=SOLVER_SEED,
                                  cache=False)
            if not all(_identical(a, b) for a, b in zip(results, local)):
                errors.append("service results differ from in-process "
                              "compute_radii")
        return errors

    def close(self) -> None:
        self.service.close()


def _identical(a, b) -> bool:
    return (a.radius == b.radius and a.bound_hit == b.bound_hit
            and a.method == b.method and a.per_bound == b.per_bound
            and a.quality == b.quality
            and ((a.boundary_point is None and b.boundary_point is None)
                 or np.array_equal(a.boundary_point, b.boundary_point)))


WORKLOADS = {cls.name: cls for cls in
             (RadiiTensor, FepiaHiperd, FepiaMultikind, CurveMakespan,
              ServeStream)}
