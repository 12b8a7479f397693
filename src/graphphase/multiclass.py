"""Multi-class phase fields on the probability simplex.

States are |V| x K matrices whose rows live on the simplex; the obstacle
well rewards rows that sit on a vertex of it.  The implicit stepping schemes
here have no closed-form solve, so both run a damped fixed-point iteration
around exact projections and are flagged experimental: every result reports
its residual and a converged flag instead of assuming success.  The
mass-conserving variant projects onto the transportation polytope (simplex
rows with prescribed per-class masses) exactly: the projection has one
multiplier per class, found by a semismooth Newton solve on the monotone,
piecewise-linear mass balance, and those multipliers are the per-class
constants of the update equation.  Dykstra's alternating corrections
(``oracles._project_masses``) remain as the independent reference.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainViolation,
    InconsistentInputs,
    InfeasibleMasses,
    NoConvergence,
    RowNotInPi,
)
from .graph_core import Graph, Spectrum, diffuse, dirichlet_energy

__all__ = [
    "SimplexField",
    "MultiClassStepResult",
    "multi_obstacle_energy",
    "well_force",
    "project_rows_to_simplex",
    "multiclass_step",
    "multiclass_mass_conserving_step",
]

ROW_SUM_TOL = 1e-10   # admissible defect of row sums on construction
SIGMA_TOL = 1e-12     # admissible negative dust for simplex membership
FP_TOL = 1e-10        # default fixed-point displacement tolerance
MAX_ITER = 500        # default fixed-point iteration budget
NEWTON_TOL = 1e-12    # class-mass defect of a projection, relative to 1 + max mass
NEWTON_MAX_ITER = 50  # Newton steps per projection before NoConvergence
RIDGE = 1e-9          # Jacobian ridge, relative to the total measure
CURVATURE = 0.1       # share of the dual's slope, or of the defect, a step ends below
MAX_LINE_SEARCH = 200 # slope evaluations per Newton step before NoConvergence


@dataclass(frozen=True)
class SimplexField:
    """Per-vertex class weights: rows sum to one.

    Rows may carry negative dust from upstream arithmetic; membership in the
    simplex proper (all entries nonnegative) is checked by the steps that
    need it, not at construction.
    """

    values: np.ndarray
    graph: Graph

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] < 2:
            raise DimensionMismatch(
                "field must be a 2-D matrix with at least two classes"
            )
        if values.shape[0] != self.graph.num_vertices:
            raise DimensionMismatch(
                f"field has {values.shape[0]} rows for "
                f"{self.graph.num_vertices} vertices"
            )
        if not np.all(np.isfinite(values)):
            raise DomainViolation("field entries must be finite")
        defect = np.abs(values.sum(axis=1) - 1.0)
        worst = int(defect.argmax())
        if defect[worst] > ROW_SUM_TOL:
            raise RowNotInPi(
                f"row {worst} sums to {values[worst].sum()}, expected 1"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]

    def in_sigma(self, tol: float = SIGMA_TOL) -> bool:
        """Whether all entries are nonnegative up to ``tol`` dust."""
        return bool(self.values.min() >= -tol)

    def class_masses(self) -> np.ndarray:
        """Weighted vertex measure carried by each class."""
        return self.values.T @ self.graph.degrees_r


@dataclass(frozen=True)
class MultiClassStepResult:
    """One fixed-point solve with its diagnostics.

    ``converged`` is never assumed: a run that exhausts its iteration budget
    returns its best iterate with ``converged`` false and an honest residual.
    ``projection_iterations`` counts the Newton steps of the inner mass
    projections over the whole step (0 for the plain step).
    """

    u_next: SimplexField
    subgradient: np.ndarray
    residual: float
    iterations: int
    converged: bool
    class_masses_in: np.ndarray
    class_masses_out: np.ndarray
    projection_iterations: int


def _field_values(U: SimplexField, g: Graph) -> np.ndarray:
    if not isinstance(U, SimplexField):
        raise InconsistentInputs("expected a SimplexField")
    if U.graph.num_vertices != g.num_vertices:
        raise InconsistentInputs("field was built over a different graph")
    return U.values


def multi_obstacle_energy(
    U: SimplexField, g: Graph, epsilon: float
) -> tuple[float, float]:
    """Obstacle well and total energy of a multi-class state.

    The well sums ``d_i**r * prod_k (1 - U_ik)`` and vanishes exactly on
    one-hot rows; both values are ``+inf`` off the simplex.  Returns
    ``(well, energy)`` with ``energy = smooth part + well / epsilon``.
    """
    values = _field_values(U, g)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not U.in_sigma():
        return math.inf, math.inf
    well = float(np.dot(g.degrees_r, np.prod(1.0 - values, axis=1)))
    smooth = sum(
        dirichlet_energy(values[:, k], g) for k in range(U.num_classes)
    )
    return well, smooth + (0.0 if math.isinf(epsilon) else well / epsilon)


def _force(values: np.ndarray) -> np.ndarray:
    one_minus = 1.0 - values
    num_classes = one_minus.shape[1]
    partials = np.empty_like(one_minus)
    for k in range(num_classes):
        partials[:, k] = np.prod(np.delete(one_minus, k, axis=1), axis=1)
    return _row_center_exact(partials)


def well_force(U: SimplexField, g: Graph) -> np.ndarray:
    """Downhill direction of the obstacle well, centered per row.

    Entry ``(i, k)`` is the product of ``1 - U`` over the other classes
    minus the class average of those products; every row sums to zero
    exactly, so the force moves rows along the simplex, never off it.
    """
    return _force(_field_values(U, g))


def project_rows_to_simplex(matrix: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the probability simplex.

    Sort-based exact algorithm: each row keeps its entries above a waterline
    chosen so the survivors, shifted down to it, sum to one.  The input
    minus the output realizes the simplex subgradient pattern (equal on the
    support, no larger off it), which is what the step solvers read back.
    """
    values = np.asarray(matrix, dtype=float)
    if values.ndim != 2 or values.shape[1] < 2:
        raise DimensionMismatch("expected a 2-D matrix with at least two columns")
    if not np.all(np.isfinite(values)):
        raise DomainViolation("entries must be finite")
    return _simplex_rows(values)


def _simplex_rows(values: np.ndarray) -> np.ndarray:
    """Unchecked body of :func:`project_rows_to_simplex`."""
    num_classes = values.shape[1]
    dropped = np.sort(values, axis=1)[:, ::-1]
    shifted = (np.cumsum(dropped, axis=1) - 1.0) / np.arange(1, num_classes + 1)
    support = np.sum(dropped > shifted, axis=1)
    rows = np.arange(values.shape[0])
    waterline = shifted[rows, support - 1]
    return np.maximum(values - waterline[:, None], 0.0)


def _row_center_exact(matrix: np.ndarray) -> np.ndarray:
    out = matrix - matrix.mean(axis=1, keepdims=True)
    # centering in floats leaves row-sum dust; balance the last class exactly
    out[:, -1] = -out[:, :-1].sum(axis=1)
    return out


def _check_start(U_n: SimplexField, g: Graph) -> np.ndarray:
    values = _field_values(U_n, g)
    if not U_n.in_sigma():
        raise DomainViolation("starting rows must lie on the simplex")
    return np.clip(values, 0.0, 1.0)


def _diffuse_columns(values: np.ndarray, tau: float, s: Spectrum) -> np.ndarray:
    return np.column_stack(
        [diffuse(values[:, k], tau, s) for k in range(values.shape[1])]
    )


def _project_transport(
    matrix: np.ndarray, weights: np.ndarray, masses: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest matrix with simplex rows and prescribed weighted class masses.

    The nearest point in the ``weights``-weighted norm is
    ``X_i = P_simplex(Z_i + mu)`` for the K multipliers ``mu`` that zero the
    mass balance ``F(mu) = X^T weights - masses``.  ``F`` is the negated
    gradient of the concave dual, monotone and piecewise linear in ``mu``
    and blind to adding a constant to ``mu``.  Semismooth Newton from the
    given ``mu``: the generalized Jacobian
    ``sum_i w_i (diag(a_i) - a_i a_i^T / |S_i|)`` over each row's support
    ``S_i`` is pinned along the constants by ``11^T`` and kept invertible,
    even for a class with empty support, by a tiny ridge whose bias one
    refinement step removes.  The step length comes from
    :func:`_step_length`; the full step stands whenever the support pattern
    repeats, since the piece is then affine and the step exact.  Returns
    ``(projection, mu, newton_steps)`` and raises
    :class:`~graphphase.errors.NoConvergence` when the budget runs out.
    """
    num_classes = matrix.shape[1]
    total = float(weights.sum())
    tol = NEWTON_TOL * (1.0 + float(np.abs(masses).max()))
    ridge = RIDGE * total * np.eye(num_classes)
    pin = total / num_classes + ridge
    spread = float(matrix.max() - matrix.min()) + 1.0

    x = _simplex_rows(matrix + mu)
    for steps in range(NEWTON_MAX_ITER + 1):
        balance = x.T @ weights - masses
        if np.abs(balance).max() <= tol:
            return x, mu, steps
        if steps == NEWTON_MAX_ITER:
            break
        support = x > 0.0
        share = support * (weights / support.sum(axis=1))[:, None]
        jacobian = np.diag(support.T @ weights) - share.T @ support
        pinned = jacobian + pin
        direction = np.linalg.solve(pinned, -balance)
        # one refinement against the ridge-free system: on a regular piece
        # the ridge's bias on the step drops from RIDGE to RIDGE squared
        direction += np.linalg.solve(pinned, -(balance + (pinned - ridge) @ direction))
        # the ridge makes steps huge in directions no support sees (an empty
        # class, or classes that share no row); no multiplier needs to move
        # further than the spread of the data
        direction *= min(1.0, spread / float(np.abs(direction).max()))
        t, x = _step_length(matrix, weights, masses, mu, direction, x)
        mu = mu + t * direction
    raise NoConvergence(
        f"mass projection missed its tolerance after {NEWTON_MAX_ITER} Newton "
        f"steps; defect {np.abs(balance).max():.3e}"
    )


class _Probe(NamedTuple):
    """A point on the line search's ray: the dual's slope and the defect."""

    t: float
    rows: np.ndarray
    slope: float
    defect: float


def _step_length(matrix, weights, masses, mu, direction, x):
    """Step length along a Newton direction, and the rows it reaches.

    Along the ray the dual's slope ``s(t) = -F(mu + t d) . d`` starts at
    ``s0 > 0`` and is non-increasing and piecewise linear in ``t``, falling
    at the rate ``d^T J d`` of the support pattern it crosses.  The full
    step stands when it cuts the largest mass defect to ``CURVATURE`` of its
    value, or when its support pattern repeats without the slope staying
    steep (the piece is then affine and the step exact).  Otherwise a step
    ends where the slope lies in ``[0, 2c]`` with ``c = CURVATURE * s0 / 2``:
    the dual has then risen by at least ``c t``.  While the slope stays
    above that band the step doubles, since a direction the supports do not
    see, such as raising an empty class, is flat up to its first kink.  Once
    the band is bracketed, the root of ``s = c`` on the piece at either end
    is tried first (exact when that piece reaches it), then Illinois regula
    falsi.  Only slopes are compared, never dual values, whose differences
    drown in rounding near the optimum.
    """

    def probe(t, rows=None):
        if rows is None:
            rows = _simplex_rows(matrix + (mu + t * direction))
        balance = rows.T @ weights - masses
        return _Probe(t, rows, float(-balance @ direction), np.abs(balance).max())

    def fall_rate(rows):
        support = rows > 0.0
        along = support @ direction
        return weights @ (support @ direction**2 - along**2 / support.sum(axis=1))

    lo, here = probe(0.0, x), probe(1.0)
    target = 0.5 * CURVATURE * lo.slope
    if here.defect <= CURVATURE * lo.defect or (
        here.slope <= 2.0 * target and np.array_equal(here.rows > 0.0, x > 0.0)
    ):
        return 1.0, here.rows
    hi = None
    # regula falsi weights, halved Illinois-style when one end keeps moving
    w_lo, w_hi = lo.slope - target, 0.0
    side = 0
    for _ in range(MAX_LINE_SEARCH):
        excess = here.slope - target
        if abs(excess) <= target:
            return here.t, here.rows
        if excess > 0.0:
            lo, w_lo = here, excess
            w_hi *= 0.5 if side == 1 else 1.0
            side = 1
        else:
            hi, w_hi = here, excess
            w_lo *= 0.5 if side == -1 else 1.0
            side = -1
        if hi is None:
            here = probe(2.0 * lo.t)
            continue
        for end in (lo, hi):
            rate = fall_rate(end.rows)
            t = end.t + (end.slope - target) / rate if rate > 0.0 else -1.0
            if lo.t < t < hi.t:
                break
        else:
            t = lo.t + w_lo * (hi.t - lo.t) / (w_lo - w_hi)
        if not lo.t < t < hi.t:
            # the bracket has shrunk to rounding: keep the rise reached so far
            if lo.t > 0.0:
                return lo.t, lo.rows
            break
        here = probe(t)
    raise NoConvergence("mass projection line search did not settle")


def _fixed_point(project, diffused, lam, max_iter, fp_tol):
    """Damped fixed-point loop shared by both multi-class steps.

    ``project`` maps a matrix to (feasible iterate, correction, constants,
    inner iterations).  Tracks the best iterate by displacement and halves
    the relaxation weight after two consecutive increases (oscillation); the
    best iterate, not the last, is what a non-converged run hands back.
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


def _subgradient(correction: np.ndarray, lam: float) -> np.ndarray:
    if lam == 0.0:
        return np.zeros_like(correction)
    return _row_center_exact(-correction / lam)


def _solve_step(start, g, s, params, project, max_iter, fp_tol):
    """Run the fixed point from ``start`` and certify the returned iterate.

    The residual is the sup-norm defect of the update equation at the
    returned iterate, subgradient and per-class constants included.
    """
    diffused = _diffuse_columns(start, params.tau, s)
    lam = params.lam
    final, correction, constants, iterations, converged, inner = _fixed_point(
        project, diffused, lam, max_iter, fp_tol
    )
    beta = _subgradient(correction, lam)
    defect = final - diffused - lam * _force(final) - lam * beta - constants
    return MultiClassStepResult(
        u_next=SimplexField(values=final, graph=g),
        subgradient=beta,
        residual=float(np.abs(defect).max()),
        iterations=iterations,
        converged=converged,
        class_masses_in=start.T @ g.degrees_r,
        class_masses_out=final.T @ g.degrees_r,
        projection_iterations=inner,
    )


def multiclass_step(
    U_n: SimplexField,
    g: Graph,
    s: Spectrum,
    params,
    max_iter: int = MAX_ITER,
    fp_tol: float = FP_TOL,
) -> MultiClassStepResult:
    """One multi-class step: diffuse, then drift and re-project to the simplex.

    Experimental fixed-point solve of the implicit update; class masses are
    not constrained here (see :func:`multiclass_mass_conserving_step`).  The
    residual is the sup-norm defect of the update equation at the returned
    iterate, subgradient included.
    """

    def project(matrix):
        projected = project_rows_to_simplex(matrix)
        return projected, matrix - projected, 0.0, 0

    return _solve_step(_check_start(U_n, g), g, s, params, project, max_iter, fp_tol)


def multiclass_mass_conserving_step(
    U_n: SimplexField,
    g: Graph,
    s: Spectrum,
    params,
    max_iter: int = MAX_ITER,
    fp_tol: float = FP_TOL,
) -> MultiClassStepResult:
    """One multi-class step keeping every class mass fixed.

    The feasible set is the transportation polytope of simplex rows with the
    input's class masses; each inner solve projects onto it exactly by a
    Newton solve for the K class multipliers.  Those multipliers, centered
    to sum to zero like the row-centered subgradient they pair with, are the
    per-class constants of the update equation, and the residual checks the
    full equation, constants included.  Raises
    :class:`~graphphase.errors.NoConvergence` if a projection misses its
    tolerance within ``NEWTON_MAX_ITER`` Newton steps.
    """
    start = _check_start(U_n, g)
    masses_in = start.T @ g.degrees_r
    total = float(g.degrees_r.sum())
    if abs(float(masses_in.sum()) - total) > 1e-8 * (1.0 + total):
        raise InfeasibleMasses(
            f"class masses sum to {masses_in.sum()}, expected {total}"
        )

    # successive targets differ little, so each projection starts from the
    # multipliers of the one before; a single Newton step then usually ends it
    mu = np.zeros(start.shape[1])

    def project(matrix):
        nonlocal mu
        projected, mu, steps = _project_transport(matrix, g.degrees_r, masses_in, mu)
        return projected, matrix + mu - projected, mu - mu.mean(), steps

    return _solve_step(start, g, s, params, project, max_iter, fp_tol)
