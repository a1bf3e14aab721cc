"""Reference answers the benchmark checks the program against.

Every oracle here is computed from raw arrays with NumPy alone, apart
from the library under test, and each is pinned by hand-worked cases in
:func:`self_test` (run at the end of every benchmark run, and by
``python3 perfbench/oracles.py``).

Norm conventions follow the library: a radius measured in the ``p``-norm
is a distance to a hyperplane ``a.x = b`` of ``|b - a.x0| / ||a||_q``
with ``q`` the dual norm (2 for 2, 1 for inf, inf for 1).
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance of the witness check: f(x*) must equal the bound
#: hit to this share (SLSQP boundary points measured about 7e-8).
WITNESS_RTOL = 1e-6
#: Relative tolerance for a radius that an oracle solves exactly.
EXACT_RTOL = 1e-6


def norm(v, p) -> float:
    """``||v||_p`` for ``p`` in {1, 2, inf}."""
    return float(np.linalg.norm(np.asarray(v, dtype=float), ord=_ord(p)))


def dual_norm(v, p) -> float:
    """``||v||_q`` with ``q`` the dual exponent of ``p``."""
    q = {1: math.inf, 2: 2, math.inf: 1}[_p(p)]
    return norm(v, q)


def _p(p):
    return math.inf if p in (math.inf, "inf") else int(p)


def _ord(p):
    p = _p(p)
    return np.inf if p == math.inf else p


def hyperplane_distance(a, constant, x0, levels, p) -> float:
    """Distance from ``x0`` to the nearest level set ``a.x + c = b``.

    ``levels`` are the finite bounds of the feature; the radius of an
    affine feature is the distance to the closest of them.
    """
    a = np.asarray(a, dtype=float)
    f0 = float(a @ np.asarray(x0, dtype=float)) + constant
    return min(abs(b - f0) for b in levels) / dual_norm(a, p)


def polytope_distance(rows, constants, x0, tau, p) -> float:
    """``min_j (tau - F_j(x0)) / ||a_j||_dual`` for ``max_j F_j <= tau``.

    Exact for an unboxed max-of-affine feature under an upper bound (the
    violating set is a union of half-spaces), and a lower bound once a
    box restricts the search.
    """
    rows = np.asarray(rows, dtype=float)
    f0 = rows @ np.asarray(x0, dtype=float) + np.asarray(constants, float)
    return min((tau - f) / dual_norm(a, p) for a, f in zip(rows, f0))


def ellipsoid_distance(q, x0, level) -> float:
    """Euclidean distance from interior ``x0`` to ``{x : x'Qx = level}``.

    ``Q`` symmetric positive definite.  In Q's eigenbasis the nearest
    point is ``y_i = y0_i / (1 - s lam_i)`` for the root
    ``s in (0, 1/lam_max)`` of the secular equation
    ``sum lam_i y0_i^2 / (1 - s lam_i)^2 = level``, found by bisection.
    When ``x0`` has no component along the top eigenvector and the
    equation has no root below the pole (the "hard case"), ``s`` sits at
    the pole and the top eigendirection takes up the remaining level.
    """
    lam, vecs = np.linalg.eigh(np.asarray(q, dtype=float))
    y0 = vecs.T @ np.asarray(x0, dtype=float)
    if float(lam @ y0**2) >= level:
        raise ValueError("x0 is not strictly inside the level set")
    top = lam[-1]
    on_top = np.isclose(lam, top, rtol=1e-12, atol=0.0)
    scale = max(1.0, float(np.abs(y0).max()))
    if np.all(np.abs(y0[on_top]) <= 1e-12 * scale):
        rest = ~on_top
        pole = 1.0 / top
        y_rest = y0[rest] / (1.0 - pole * lam[rest])
        g_rest = float(lam[rest] @ y_rest**2)
        if g_rest <= level:
            gap = float(np.sum((y_rest - y0[rest]) ** 2))
            return math.sqrt(gap + (level - g_rest) / top)

    def secular(s):
        return float(lam @ (y0 / (1.0 - s * lam)) ** 2) - level

    lo, hi = 0.0, 1.0 / top
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if secular(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    y = y0 / (1.0 - s * lam)
    return float(np.linalg.norm(y - y0))


def witness_errors(value_at, point, origin, radius, bound_hit, p,
                   lower=None, upper=None) -> list[str]:
    """Check a returned boundary point against its radius and bound.

    ``f(x*)`` must equal the bound hit (relative :data:`WITNESS_RTOL`),
    ``||x* - x0||_p`` must equal the radius, and ``x*`` must lie inside
    the search box.  Returns the violated properties (empty when sound).
    """
    errors = []
    if point is None:
        return ["no boundary point"]
    fx = float(value_at(point))
    if abs(fx - bound_hit) > WITNESS_RTOL * max(1.0, abs(bound_hit)):
        errors.append(f"f(x*)={fx!r} but bound hit {bound_hit!r}")
    dist = norm(np.asarray(point) - np.asarray(origin), p)
    if abs(dist - radius) > 1e-9 * max(1.0, radius):
        errors.append(f"||x*-x0||={dist!r} but radius {radius!r}")
    slack = 1e-9 * max(1.0, float(np.abs(point).max()))
    if lower is not None and np.any(np.asarray(point) < lower - slack):
        errors.append("x* below the box")
    if upper is not None and np.any(np.asarray(point) > upper + slack):
        errors.append("x* above the box")
    return errors


def sensitivity_radius_linear(n: int) -> float:
    """Sec. 3.1: a linear feature of ``n`` one-element parameters has
    sensitivity-weighted radius ``1/sqrt(n)``, whatever its data."""
    return 1.0 / math.sqrt(n)


def normalized_radius_linear(k, pi_orig, beta) -> float:
    """Sec. 3.2: ``(beta-1)|sum k_j pi_j| / sqrt(sum (k_m pi_m)^2)`` for
    ``phi = sum k_j pi_j`` bounded by ``beta * phi_orig``."""
    w = np.asarray(k, dtype=float) * np.asarray(pi_orig, dtype=float)
    return (beta - 1.0) * abs(float(w.sum())) / float(np.linalg.norm(w))


def ball_samples(rng, origin, radius, n, *, shrink=0.999):
    """``n`` points uniform in the open ball of ``shrink * radius``."""
    d = len(origin)
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = shrink * radius * rng.random(n) ** (1.0 / d)
    return np.asarray(origin, dtype=float) + dirs * r[:, None]


def self_test() -> None:
    """Hand-worked cases; raises ``AssertionError`` on any mismatch."""
    def close(a, b, tol=1e-12):
        assert abs(a - b) <= tol * max(1.0, abs(b)), (a, b)

    # 3x + 4y = 10 from the origin: ||(3,4)||_2 = 5, _1 = 7, _inf = 4.
    close(hyperplane_distance([3, 4], 0.0, [0, 0], [10.0], 2), 2.0)
    close(hyperplane_distance([3, 4], 0.0, [0, 0], [10.0], math.inf),
          10.0 / 7.0)
    close(hyperplane_distance([3, 4], 0.0, [0, 0], [10.0], 1), 2.5)
    # Two-sided: f0 = 3 + 1 = 4 lies 6 from level 10 and 2 from level 2.
    close(hyperplane_distance([3, 4], 1.0, [1, 0], [10.0, 2.0], 2), 0.4)
    # max(x, 2y) <= 4 from the origin: min(4/1, 4/2) = 2.
    close(polytope_distance([[1, 0], [0, 2]], [0, 0], [0, 0], 4.0, 2), 2.0)
    close(polytope_distance([[1, 1], [0, 2]], [0, 0], [0, 0], 4.0,
                            math.inf), 2.0)
    # Circle x'x = 4 from (0.5, 0): 2 - 0.5.
    close(ellipsoid_distance(np.eye(2), [0.5, 0.0], 4.0), 1.5, 1e-12)
    # Ellipse x^2 + 4y^2 = 4 from (0, 0.5): nearest point (0, 1).
    close(ellipsoid_distance(np.diag([1.0, 4.0]), [0.0, 0.5], 4.0), 0.5,
          1e-12)
    # Same ellipse from (1, 0), the hard case: minimise
    # (x-1)^2 + (4-x^2)/4 -> x = 4/3, distance sqrt(2/3).
    close(ellipsoid_distance(np.diag([1.0, 4.0]), [1.0, 0.0], 4.0),
          math.sqrt(2.0 / 3.0), 1e-12)
    # A rotated copy of the first ellipse gives the same distance.
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    close(ellipsoid_distance(rot @ np.diag([1.0, 4.0]) @ rot.T,
                             rot @ np.array([0.0, 0.5]), 4.0), 0.5, 1e-12)
    close(sensitivity_radius_linear(4), 0.5)
    # k = (1, 2), pi = (3, 1), beta = 1.5: 0.5 * 5 / sqrt(13).
    close(normalized_radius_linear([1, 2], [3, 1], 1.5),
          2.5 / math.sqrt(13.0))
    # Witness: (2, 0) is on x'x = 4 at distance 2 from the origin.
    assert witness_errors(lambda x: float(x @ x), np.array([2.0, 0.0]),
                          [0.0, 0.0], 2.0, 4.0, 2) == []
    assert witness_errors(lambda x: float(x @ x), np.array([2.0, 0.0]),
                          [0.0, 0.0], 1.9, 4.0, 2) != []
    assert witness_errors(lambda x: float(x @ x), np.array([2.0, 0.0]),
                          [0.0, 0.0], 2.0, 4.1, 2) != []
    pts = ball_samples(np.random.default_rng(0), [1.0, 1.0], 0.5, 1000)
    assert np.all(np.linalg.norm(pts - 1.0, axis=1) < 0.5)


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
