"""Independent checkers for the closed-form steps.

Everything here certifies a step by a route that shares no code with the
piecewise-linear solver it checks: the threshold step against exhaustive
extreme-point enumeration, the relaxed step against projected gradient
descent whose feasibility projection runs Dykstra's alternating corrections
between the box and the mass plane, the multi-class mass projection
against the same corrections between the row simplices and the class-mass
planes (Boyle & Dykstra 1986), and the accelerated multi-class fixed point
against the plain damped iteration.  A composed fine-step flow serves as the
reference for time-step refinement studies, and a seeded generator produces
the random instances the check suites run on.  The dense eigendecomposition
of the Laplacian is the reference for the Chebyshev heat diffusion of
:mod:`graphphase.graph_core`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigensolverFailure,
    GraphTooLarge,
    LambdaIsOne,
    MassOutOfRange,
    NoConvergence,
)
from .graph_core import Graph, Spectrum, build_graph, diffuse, inner_product, mass, norm
from .multiclass import _force, project_rows_to_simplex
from .scheme import SchemeParams, semi_discrete_step

__all__ = [
    "DenseSpectrum",
    "dense_spectrum",
    "dense_diffuse",
    "ExtremePoint",
    "enumerate_extreme_points",
    "mbo_oracle",
    "variational_oracle",
    "reference_flow",
    "random_connected_graph",
]

ENUMERATION_LIMIT = 12
# The dense eigendecomposition holds about five n-by-n float64 arrays at once
# (the symmetric conjugate, the eigensolver's copy and workspace, and the
# eigenvectors), ~40 n**2 bytes: 4 GB at this limit, half of an 8 GB machine.
DENSE_VERTEX_LIMIT = 10_000


@dataclass(frozen=True)
class DenseSpectrum:
    """Eigendecomposition of the graph Laplacian.

    ``eigenvalues`` ascend and start at exactly 0.  ``phi`` holds the
    orthonormal eigenvectors of the symmetric conjugate
    ``d**(-r/2) (D - W) d**(-r/2)``; together with the ``degrees**(r/2)``
    scalings that is all :func:`dense_diffuse` needs.  The Laplacian's own
    eigenvectors, orthonormal in the weighted inner product, are
    ``scale_back[:, None] * phi``.
    """

    eigenvalues: np.ndarray
    phi: np.ndarray
    scale_fwd: np.ndarray   # degrees**(r/2)
    scale_back: np.ndarray  # degrees**(-r/2)


def dense_spectrum(g: Graph) -> DenseSpectrum:
    """Diagonalize the Laplacian through its symmetric conjugate.

    ``d**(-r/2) (D - W) d**(-r/2)`` is symmetric positive semi-definite and
    shares eigenvalues with the Laplacian; it is assembled from the edge
    arrays.  Eigenvalues within ``1e-12 * max`` of zero are snapped to
    exactly zero so the diffusion semigroup fixes constants for every t.
    Above ``DENSE_VERTEX_LIMIT`` vertices it raises ``GraphTooLarge`` first.
    """
    n = g.num_vertices
    if n > DENSE_VERTEX_LIMIT:
        raise GraphTooLarge(
            f"dense eigendecomposition of {n} vertices exceeds the limit of "
            f"{DENSE_VERTEX_LIMIT}"
        )
    half = g.degrees ** (0.5 * g.r)
    inv_half = 1.0 / half
    sym = np.zeros((n, n))
    coupling = -g.edge_w * inv_half[g.edge_i] * inv_half[g.edge_j]
    sym[g.edge_i, g.edge_j] = coupling
    sym[g.edge_j, g.edge_i] = coupling
    np.fill_diagonal(sym, inv_half * g.degrees * inv_half)
    try:
        eigenvalues, phi = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    if not np.all(np.isfinite(eigenvalues)):
        raise EigensolverFailure("eigensolver returned non-finite eigenvalues")
    eigenvalues[np.abs(eigenvalues) <= 1e-12 * max(eigenvalues[-1], 1.0)] = 0.0
    return DenseSpectrum(eigenvalues, phi, half, inv_half)


def dense_diffuse(u: np.ndarray, t: float, ds: DenseSpectrum) -> np.ndarray:
    """``exp(-tL) u`` through the eigendecomposition, for ``t >= 0``."""
    coeffs = ds.phi.T @ (ds.scale_fwd * np.asarray(u, dtype=float))
    coeffs *= np.exp(-t * ds.eigenvalues)
    return ds.scale_back * (ds.phi @ coeffs)


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


def _project_masses(
    matrix: np.ndarray,
    g: Graph,
    masses: np.ndarray,
    tol: float = 1e-12,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """Nearest matrix with simplex rows and prescribed class masses.

    Dykstra's alternating corrections between the per-class mass planes
    (affine, correction-free) and the row-simplex product (correction
    carried), in the same ``degrees_r``-weighted metric as the exact
    multiplier solve in :mod:`graphphase.multiclass` it checks.  Raises
    :class:`~graphphase.errors.NoConvergence` after ``max_rounds`` rounds.
    """
    total = float(g.degrees_r.sum())
    x = np.asarray(matrix, dtype=float)
    correction = np.zeros_like(x)
    for _ in range(max_rounds):
        shifts = (masses - x.T @ g.degrees_r) / total
        relaxed = x + shifts[None, :] + correction
        x_new = project_rows_to_simplex(relaxed)
        correction = relaxed - x_new
        drift = float(np.abs(x_new - x).max())
        mass_defect = float(np.abs(masses - x_new.T @ g.degrees_r).max())
        x = x_new
        if drift <= tol and mass_defect <= tol * (1.0 + float(np.abs(masses).max())):
            return x
    raise NoConvergence(f"mass projection did not settle in {max_rounds} rounds")


def _damped_fixed_point(project, diffused, lam, max_iter, fp_tol):
    """Damped fixed-point loop: the reference for the multi-class steps.

    Same contract as ``multiclass._fixed_point``, which accelerates it:
    ``project`` maps a matrix to (feasible iterate, correction, constants,
    inner iterations), and the loop iterates
    ``x <- x + omega (G(x) - x)`` with ``G(x) = project(diffused + lam *
    force(x))``, halving ``omega`` for good after two consecutive rises of
    the displacement (oscillation).  Returns the image of least
    displacement with its correction and constants, the iteration count,
    whether the displacement reached ``fp_tol``, and the inner iterations.
    """
    current, correction, constants, inner = project(diffused)
    omega = 1.0
    rises = 0
    previous_disp = math.inf
    best = (math.inf, current, correction, constants)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        target = diffused + lam * _force(current)
        proposed, correction, constants, spent = project(target)
        inner += spent
        disp = float(np.abs(proposed - current).max())
        if disp < best[0]:
            best = (disp, proposed, correction, constants)
        if disp <= fp_tol:
            converged = True
            break
        if disp > previous_disp:
            rises += 1
            if rises >= 2:
                omega = 0.5
        else:
            rises = 0
        previous_disp = disp
        current = current + omega * (proposed - current)
    _, final, correction, constants = best
    return final, correction, constants, iterations, converged, inner


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


def reference_flow(
    u0: np.ndarray,
    g: Graph,
    s: Spectrum,
    epsilon: float,
    t_final: float,
    tau_ref: float,
) -> np.ndarray:
    """Compose relaxed steps at a deliberately tiny time step.

    Serves as the near-continuum reference in refinement studies, so
    ``tau_ref`` must undercut ``epsilon`` by at least a factor of 100.
    """
    if tau_ref > epsilon / 100.0:
        raise ValueError("tau_ref must be at most epsilon / 100")
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    params = SchemeParams.from_epsilon(epsilon=epsilon, tau=tau_ref)
    steps = math.ceil(t_final / tau_ref - 1e-12)
    u = g.check_field(u0)
    for _ in range(steps):
        u = semi_discrete_step(u, g, s, params).u_next
    return u


def random_connected_graph(
    num_vertices: int,
    rng: np.random.Generator,
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
