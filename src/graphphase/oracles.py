"""Independent checkers for the closed-form steps.

Everything here certifies a step by a route that shares no code with the
piecewise-linear solver it checks: the threshold step against exhaustive
extreme-point enumeration, and the relaxed step against projected gradient
descent whose feasibility projection runs Dykstra's alternating corrections
between the box and the mass plane.  A seeded generator produces the random
instances the check suites and the benchmark run on.  ``oracle-check`` runs
these; the references that only the test suite compares against (the dense
eigendecomposition, the multi-class Dykstra projection, the damped
fixed-point loop and the fine-step flow) live in ``tests/references.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GraphTooLarge, LambdaIsOne, MassOutOfRange, NoConvergence
from .graph_core import Graph, Spectrum, build_graph, diffuse, inner_product, mass, norm
from .scheme import SchemeParams

__all__ = [
    "ExtremePoint",
    "enumerate_extreme_points",
    "mbo_oracle",
    "variational_oracle",
    "random_connected_graph",
]

ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class ExtremePoint:
    """A corner of the constrained box: binary except at most one vertex."""

    values: np.ndarray
    fractional_vertex: "int | None"
    fractional_value: "float | None"


def enumerate_extreme_points(g: Graph, target_mass: float) -> list[ExtremePoint]:
    """All extreme points of ``[0, 1]^V`` cut by the mass plane.

    Every extreme point is a binary pattern plus at most one fractional
    vertex whose value is forced by the mass budget.  Enumeration walks all
    binary patterns, so the graph is capped at ``ENUMERATION_LIMIT`` vertices.
    """
    n = g.num_vertices
    if n > ENUMERATION_LIMIT:
        raise GraphTooLarge(
            f"enumeration over {n} vertices exceeds the {ENUMERATION_LIMIT} cap"
        )
    measure = g.degrees_r
    total = float(measure.sum())
    if target_mass < -1e-9 or target_mass > total + 1e-9:
        raise MassOutOfRange(f"target mass {target_mass} outside [0, {total}]")

    points = []
    for pattern in range(1 << n):
        base = np.array([(pattern >> i) & 1 for i in range(n)], dtype=float)
        base_mass = float(np.dot(base, measure))
        leftover = target_mass - base_mass
        if abs(leftover) <= 1e-12 * (1.0 + abs(target_mass)):
            points.append(
                ExtremePoint(
                    values=base, fractional_vertex=None, fractional_value=None
                )
            )
            continue
        for i in range(n):
            if base[i] == 1.0:
                continue
            fraction = leftover / measure[i]
            if 1e-12 < fraction < 1.0 - 1e-12:
                values = base.copy()
                values[i] = fraction
                points.append(
                    ExtremePoint(
                        values=values,
                        fractional_vertex=i,
                        fractional_value=float(fraction),
                    )
                )
    return points


def mbo_oracle(
    u_n: np.ndarray, g: Graph, s: Spectrum, tau: float
) -> tuple[float, list[ExtremePoint]]:
    """Brute-force the threshold step's objective over all extreme points.

    Returns the best value of ``<u, diffused>`` and every extreme point
    within ``1e-12`` of it.  The threshold step must attain this value, and
    when its solution is unique the returned list is that single point.
    """
    u_n = g.check_field(u_n)
    diffused = diffuse(u_n, tau, s)
    points = enumerate_extreme_points(g, mass(u_n, g))
    scores = np.array([inner_product(p.values, diffused, g) for p in points])
    best = float(scores.max())
    argmax = [p for p, score in zip(points, scores) if score >= best - 1e-12]
    return best, argmax


def _project_box_plane(
    z: np.ndarray,
    g: Graph,
    target_mass: float,
    tol: float = 1e-12,
    max_rounds: int = 100_000,
) -> np.ndarray:
    """Nearest point of ``[0,1]^V`` cut by the mass plane, weighted metric.

    Dykstra's scheme: alternate the plane shift and the box clamp, carrying
    the correction of the clamp only (the plane is affine, so its correction
    provably cancels).  Plain alternation without the correction converges
    into the intersection but not to the nearest point, which would bias the
    oracle.
    """
    total = float(g.degrees_r.sum())
    x = np.asarray(z, dtype=float)
    correction = np.zeros_like(x)
    for _ in range(max_rounds):
        shifted = x + (target_mass - float(np.dot(x, g.degrees_r))) / total
        relaxed = shifted + correction
        x_new = np.clip(relaxed, 0.0, 1.0)
        correction = relaxed - x_new
        drift = float(np.abs(x_new - x).max())
        plane_defect = abs(float(np.dot(x_new, g.degrees_r)) - target_mass)
        x = x_new
        if drift <= tol and plane_defect <= tol * (1.0 + abs(target_mass)):
            return x
    raise NoConvergence("feasibility projection did not settle")


def variational_oracle(
    u_n: np.ndarray,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
    step_size: "float | None" = None,
    max_iters: int = 2000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Minimize the relaxed step's objective by projected gradient descent.

    The objective ``(1-lam)<u,u> - 2<u,diffused>`` is smooth and strongly
    convex for ``lam < 1``; the default step size stays safely inside the
    stable range for every such ``lam``.  Iterates stop when the weighted
    norm of a full update falls below ``tol``.
    """
    if params.lam >= 1.0:
        raise LambdaIsOne("the relaxed objective needs lam < 1")
    u = np.clip(g.check_field(u_n), 0.0, 1.0)
    target_mass = mass(u, g)
    diffused = diffuse(u, params.tau, s)
    if step_size is None:
        step_size = 0.5 / (1.0 - params.lam + 1.0)

    objective = math.inf
    for _ in range(max_iters):
        gradient = 2.0 * (1.0 - params.lam) * u - 2.0 * diffused
        candidate = _project_box_plane(u - step_size * gradient, g, target_mass)
        moved = norm(candidate - u, g)
        u = candidate
        if moved <= tol:
            return u
        objective = (1.0 - params.lam) * inner_product(u, u, g) - 2.0 * inner_product(
            u, diffused, g
        )
    raise NoConvergence(
        f"projected gradient did not settle; last objective {objective}"
    )


def random_connected_graph(
    num_vertices: int,
    rng: "np.random.Generator",  # unquoted, it imports numpy.random
    r: float = 0.0,
    extra_edges: "int | None" = None,
    weight_range: tuple[float, float] = (0.1, 1.0),
) -> Graph:
    """Random spanning tree plus extra edges, weights uniform in a range.

    Connectivity is guaranteed by construction; pass a seeded generator for
    reproducible suites.
    """
    lo, hi = weight_range
    edges = {}
    for v in range(1, num_vertices):
        u = int(rng.integers(0, v))
        edges[(u, v)] = lo + (hi - lo) * float(rng.random())
    if extra_edges is None:
        extra_edges = num_vertices // 2
    for _ in range(4 * extra_edges):
        if len(edges) >= num_vertices - 1 + extra_edges:
            break
        i = int(rng.integers(0, num_vertices))
        j = int(rng.integers(0, num_vertices))
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key not in edges:
            edges[key] = lo + (hi - lo) * float(rng.random())
    return build_graph(
        num_vertices, [(i, j, w) for (i, j), w in sorted(edges.items())], r=r
    )
