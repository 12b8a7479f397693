"""Reference implementations that only the tests compare against.

Each shares no code with the fast path it checks: the dense
eigendecomposition of the Laplacian is the reference for the Chebyshev heat
diffusion of :mod:`graphphase.graph_core`, two ``np.bincount`` sums and a
recurrence that allocates every term for the bits of its scattered edge
flows and in-place series, Dykstra's alternating corrections between the
row simplices and the class-mass planes (Boyle & Dykstra 1986)
for the exact multi-class mass projection, the plain damped iteration for
the accelerated multi-class fixed point, the boolean-masked subgradient for
the mask-free certificate of the two-class steps and the refusals of its
check on the level profile, and a composed fine-step
flow for time-step refinement studies.  Beside them,
:func:`mbo_is_unique` reads the package's own levels to decide when the
enumeration oracle must single out the threshold step.  The package never
calls them; they live here so that it ships only what it runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from graphphase import multiclass
from graphphase.errors import (
    GraphTooLarge,
    InconsistentInputs,
    NoConvergence,
    NumericalError,
)
from graphphase.graph_core import Graph, Spectrum
from graphphase.multiclass import _force, project_rows_to_simplex
from graphphase.scheme import (
    MboMultiplier,
    SchemeParams,
    _diffused_state,
    _threshold_fill,
    semi_discrete_step,
    threshold_levels,
)

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
        raise NumericalError(str(exc)) from exc
    if not np.all(np.isfinite(eigenvalues)):
        raise NumericalError("eigensolver returned non-finite eigenvalues")
    eigenvalues[np.abs(eigenvalues) <= 1e-12 * max(eigenvalues[-1], 1.0)] = 0.0
    return DenseSpectrum(eigenvalues, phi, half, inv_half)


def dense_diffuse(u: np.ndarray, t: float, ds: DenseSpectrum) -> np.ndarray:
    """``exp(-tL) u`` through the eigendecomposition, for ``t >= 0``."""
    coeffs = ds.phi.T @ (ds.scale_fwd * np.asarray(u, dtype=float))
    coeffs *= np.exp(-t * ds.eigenvalues)
    return ds.scale_back * (ds.phi @ coeffs)


def bincount_outflow(u: np.ndarray, g: Graph) -> np.ndarray:
    """``(D - W) u`` as two ``np.bincount`` sums of the edge flows."""
    flow = g.edge_w * (u[g.edge_i] - u[g.edge_j])
    n = g.num_vertices
    return np.bincount(g.edge_i, flow, n) - np.bincount(g.edge_j, flow, n)


def allocating_series(u: np.ndarray, coeffs: np.ndarray, s: Spectrum) -> np.ndarray:
    """``sum_k coeffs[k] T_k(X) u``, a new array for every product and term.

    ``X y = scale (D - W) y - y`` goes through :func:`bincount_outflow`,
    one column at a time for an (n, K) block.
    """
    def apply_x(y):
        if y.ndim == 2:
            return np.column_stack([apply_x(column) for column in y.T])
        return s.scale * bincount_outflow(y, s.graph) - y

    out = coeffs[0] * u
    previous, current = None, u
    for k in range(1, coeffs.size):
        image = apply_x(current)
        previous, current = current, image if k == 1 else 2.0 * image - previous
        out += coeffs[k] * current
    return out


def masked_subgradient(diffused, u_next, multiplier, lam, snap=1e-8) -> np.ndarray:
    """The two-class step's subgradient, built by boolean-mask assignment.

    The relaxed form is zero on strictly interior values.  Rounding-size sign
    violations are zeroed; anything larger is refused.
    """
    at_zero = u_next == 0.0
    at_one = u_next == 1.0
    if isinstance(multiplier, MboMultiplier):
        beta = multiplier.threshold - diffused
    else:
        nu = float(multiplier)
        beta = np.zeros_like(diffused)
        if lam > 0.0:
            s = 1.0 - lam
            beta[at_zero] = (nu - diffused[at_zero]) / lam
            beta[at_one] = (nu - diffused[at_one] + s) / lam
    wrong = (
        (at_zero & (beta < 0.0))
        | (at_one & (beta > 0.0))
        | ((u_next > 0.0) & (u_next < 1.0) & (beta != 0.0))
    )
    if np.any(np.abs(beta[wrong]) > snap):
        raise InconsistentInputs(
            "subgradient sign pattern violates the state beyond rounding"
        )
    beta[wrong] = 0.0
    if np.abs(beta).max(initial=0.0) > 1.0 + snap:
        raise InconsistentInputs("subgradient leaves [-1, 1]")
    return np.clip(beta, -1.0, 1.0, out=beta)


def mbo_is_unique(u_n: np.ndarray, g: Graph, s: Spectrum, tau: float) -> bool:
    """Whether the threshold step from ``u_n`` has a single minimizer.

    True when the mass budget closes exactly at a level boundary or when the
    partially filled level holds a single vertex; otherwise the level set
    admits a continuum of equally good fills and ``mbo_step`` returns the
    uniform one.
    """
    _, mass_in, diffused = _diffused_state(u_n, g, s, tau)
    levels = threshold_levels(diffused, g)
    if mass_in <= 0.0 or mass_in >= levels.total:
        return True
    k, fill = _threshold_fill(levels, mass_in)
    return fill >= 1.0 - 1e-12 or int(np.count_nonzero(levels.labels == k)) == 1


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


def _damped_fixed_point(project, diffused, lam, weights):
    """Damped fixed-point loop: the reference for the multi-class steps.

    Same contract as ``multiclass._fixed_point``, which accelerates it:
    ``project`` maps a matrix to (feasible iterate, correction, constants,
    inner iterations), ``weights`` (the Newton step's) go unused, and the
    loop iterates
    ``x <- x + omega (G(x) - x)`` with ``G(x) = project(diffused + lam *
    force(x))``, halving ``omega`` for good after two consecutive rises of
    the displacement (oscillation).  Returns the image of least
    displacement with its correction and constants, the iteration count,
    whether the displacement reached ``multiclass.FP_TOL`` within
    ``multiclass.MAX_ITER`` iterations, and the inner iterations.
    """
    current, correction, constants, inner = project(diffused)
    omega = 1.0
    rises = 0
    previous_disp = math.inf
    best = (math.inf, current, correction, constants)
    converged = False
    iterations = 0
    for iterations in range(1, multiclass.MAX_ITER + 1):
        target = diffused + lam * _force(current)
        proposed, correction, constants, spent = project(target)
        inner += spent
        disp = float(np.abs(proposed - current).max())
        if disp < best[0]:
            best = (disp, proposed, correction, constants)
        if disp <= multiclass.FP_TOL:
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
