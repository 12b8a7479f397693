"""Multi-class phase fields on the probability simplex.

States are |V| x K matrices whose rows live on the simplex; the obstacle
well rewards rows that sit on a vertex of it.  Both implicit stepping
schemes are defined only for lam < K / (2 (K - 1)), where their fixed
point is unique, and raise ``DomainViolation`` on or above that bound.
With no closed-form solve, both run semismooth Newton steps on the fixed
point around exact projections, a Newton step only from an iterate of
least displacement so far and the plain step from any other, and are
flagged experimental: every result reports its residual and a converged
flag instead of assuming success.  Each fixed point stops at a
displacement of ``FP_TOL`` or after ``MAX_ITER`` iterations; both are
constants.  The mass-conserving variant projects exactly onto the
transportation polytope (simplex rows with prescribed class masses) by a
semismooth Newton solve for its K multipliers on the monotone,
piecewise-linear mass balance; they are the per-class constants of the
update equation.  The tests check the projection against Dykstra's
corrections and the Newton loop against the plain damped one
(``tests/references.py``).
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
FP_TOL = 1e-10        # fixed-point displacement tolerance
MAX_ITER = 500        # fixed-point iteration budget
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
    # product of 1 - U over the other classes: the classes before times after
    one_minus = 1.0 - values
    before = np.ones_like(one_minus)
    after = np.ones_like(one_minus)
    np.cumprod(one_minus[:, :-1], axis=1, out=before[:, 1:])
    np.cumprod(one_minus[:, :0:-1], axis=1, out=after[:, -2::-1])
    return _row_center_exact(before * after)


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
    out = matrix - matrix.sum(axis=1, keepdims=True) / matrix.shape[1]
    # centering in floats leaves row-sum dust; balance the last class exactly
    out[:, -1] = -out[:, :-1].sum(axis=1)
    return out


def _check_start(U_n: SimplexField, g: Graph) -> np.ndarray:
    values = _field_values(U_n, g)
    if not U_n.in_sigma():
        raise DomainViolation("starting rows must lie on the simplex")
    return np.clip(values, 0.0, 1.0)


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
    balance = x.T @ weights - masses
    for steps in range(NEWTON_MAX_ITER + 1):
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
        reached = _step_length(matrix, weights, masses, mu, direction, x, balance)
        x, balance = reached.rows, reached.balance
        mu = mu + reached.t * direction
    raise NoConvergence(
        f"mass projection missed its tolerance after {NEWTON_MAX_ITER} Newton "
        f"steps; defect {np.abs(balance).max():.3e}"
    )


class _Probe(NamedTuple):
    """A point on the line search's ray: its rows, mass balance and slope."""

    t: float
    rows: np.ndarray
    balance: np.ndarray
    slope: float


def _step_length(matrix, weights, masses, mu, direction, x, balance):
    """The probe a Newton direction's step reaches from ``x``.

    ``balance`` is the mass balance at ``x``.  Along the ray the dual's
    slope ``s(t) = -F(mu + t d) . d`` starts at ``s0 > 0`` and is
    non-increasing and piecewise linear in ``t``.  The full step stands when
    it cuts the largest mass defect to ``CURVATURE`` of its value, or when
    its support pattern repeats without the slope staying steep (the piece
    is then affine and the step exact).  Otherwise a step ends where the
    slope lies in ``[0, CURVATURE * s0]``: the dual has then risen by at
    least ``CURVATURE * s0 * t / 2``.  While the slope stays above that band
    the step doubles, since a direction the supports do not see, such as
    raising an empty class, is flat up to its first kink; once the band is
    bracketed, the search bisects.  Only slopes are compared, never dual
    values, whose differences drown in rounding near the optimum.
    """

    def probe(t, rows=None, balance=None):
        if rows is None:
            rows = _simplex_rows(matrix + (mu + t * direction))
            balance = rows.T @ weights - masses
        return _Probe(t, rows, balance, float(-balance @ direction))

    lo, here = probe(0.0, x, balance), probe(1.0)
    target = 0.5 * CURVATURE * lo.slope
    if np.abs(here.balance).max() <= CURVATURE * np.abs(balance).max() or (
        here.slope <= 2.0 * target and np.array_equal(here.rows > 0.0, x > 0.0)
    ):
        return here
    hi = None
    for _ in range(MAX_LINE_SEARCH):
        if abs(here.slope - target) <= target:
            return here
        if here.slope > target:
            lo = here
        else:
            hi = here
        if hi is None:
            here = probe(2.0 * lo.t)
            continue
        t = 0.5 * (lo.t + hi.t)
        if not lo.t < t < hi.t:
            # the bracket has shrunk to rounding: keep the rise reached so far
            if lo.t > 0.0:
                return lo
            break
        here = probe(t)
    raise NoConvergence("mass projection line search did not settle")


def _fixed_point(project, diffused, lam, weights):
    """Semismooth Newton with one safeguard, shared by both multi-class steps.

    ``project`` maps a matrix to (feasible iterate, correction, constants,
    inner iterations); the step is a fixed point of the map
    ``G(x) = project(diffused + lam * force(x))``, a contraction on the
    steps' domain ``lam < K / (2 (K - 1))``.  From the second iteration on,
    an iterate whose displacement ``|G(x) - x|`` is below every earlier
    one's takes the Newton step of ``x - G(x)`` (:func:`_newton_step`;
    ``weights`` are the mass weights, ``None`` when masses are free); any
    other iterate, or a singular Newton system, takes the plain step
    ``x <- G(x)``.  The loop ends at a displacement of ``FP_TOL`` or after
    ``MAX_ITER`` iterations, both read at each call.  Every returned
    iterate is an image of ``G``, so it is feasible; a non-converged run
    hands back the image of least displacement.
    """
    current, correction, constants, inner = project(diffused)
    best = (math.inf, current, correction, constants)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        target = diffused + lam * _force(current)
        image, correction, constants, spent = project(target)
        inner += spent
        step = image - current
        disp = float(np.abs(step).max())
        if disp < best[0]:
            # a displacement within FP_TOL is always a new best
            best = (disp, image, correction, constants)
            if disp <= FP_TOL:
                converged = True
                break
            # from the projection of the bare diffusion a Newton step overshoots
            if iterations > 1:
                try:
                    step = _newton_step(current, image, lam, weights)
                except np.linalg.LinAlgError:
                    pass
        current = current + step
    _, final, correction, constants = best
    return final, correction, constants, iterations, converged, inner


def _well_jacobians(values):
    """Jacobians of the uncentred force, ``H[i, k, j] = -prod_{l not in {k, j}}
    (1 - values[i, l])`` off the diagonal and 0 on it, built from products
    alone, without division, so one-hot rows come out exact."""
    eye = np.eye(values.shape[1], dtype=bool)
    skipped = eye[:, None, :, None] | eye[:, None, None, :]  # class l, row, k, j
    # with the class axis outermost and contiguous the product multiplies blocks
    factors = np.where(skipped, 1.0, (1.0 - values).T.copy()[:, :, None, None])
    return np.where(eye, 0.0, -factors.prod(axis=0))


def _newton_step(current, image, lam, weights):
    """Newton displacement ``dx`` solving ``(I - J_G) dx = image - current``.

    On the support ``S_i`` of image row ``i`` the simplex projection has
    Jacobian ``P_i = diag(s_i) - s_i s_i^T / |S_i|``, which absorbs the
    force's row centering, so ``dx_i = M_i^{-1} r_i`` with
    ``M_i = I - lam P_i H_i`` (:func:`_well_jacobians`), invertible on the
    simplex while ``lam < K / (2 (K - 1))``, where the well's curvature
    cannot cancel the step's.  With ``weights`` the rows share a shift
    ``dmu`` of the K multipliers (pinned and ridged as in the projection)
    that keeps the class masses at the image's: ``dx_i = M_i^{-1} (r_i +
    P_i dmu)``.  A singular system raises ``LinAlgError``.
    """
    num_classes = image.shape[1]
    support = (image > 0.0).astype(float)
    size = support.sum(axis=1)[:, None, None]
    jacobians = _well_jacobians(current)
    system = np.eye(num_classes) - lam * support[:, :, None] * (
        jacobians - support[:, None, :] @ jacobians / size
    )
    residual = (image - current)[:, :, None]
    if weights is None:
        return np.linalg.solve(system, residual)[:, :, 0]
    projector = support[:, :, None] * (np.eye(num_classes) - support[:, None, :] / size)
    solved = np.linalg.solve(system, np.concatenate([projector, residual], axis=2))
    spread, moved = solved[:, :, :-1], solved[:, :, -1]
    total = float(weights.sum())
    coupled = np.tensordot(weights, spread, axes=1) + total / num_classes
    coupled += RIDGE * total * np.eye(num_classes)
    shift = np.linalg.solve(coupled, weights @ (residual[:, :, 0] - moved))
    return moved + spread @ shift


def _subgradient(correction: np.ndarray, lam: float) -> np.ndarray:
    if lam == 0.0:
        return np.zeros_like(correction)
    return _row_center_exact(-correction / lam)


def _check_domain(lam, num_classes):
    """Refuse ``lam >= K / (2 (K - 1))`` with ``DomainViolation``."""
    bound = num_classes / (2 * (num_classes - 1))
    if lam >= bound:
        raise DomainViolation(
            f"multi-class steps need lambda < K / (2 (K - 1)) = {bound!r} "
            f"for K = {num_classes}, got {lam!r}"
        )


def _solve_step(start, g, s, params, project, weights, masses_in):
    """Run the fixed point from ``start`` and certify the returned iterate.

    The residual is the sup-norm defect of the update equation at the
    returned iterate, subgradient and per-class constants included.
    ``weights`` go to the fixed point (``None`` when masses are free) and
    ``masses_in`` is reported as the step's ``class_masses_in``.  The
    spectrum and the domain ``lam < K / (2 (K - 1))`` (else
    :class:`~graphphase.errors.DomainViolation`) are checked before any work.
    """
    g.check_spectrum(s)
    lam = params.lam
    _check_domain(lam, start.shape[1])
    diffused = diffuse(start, params.tau, s)
    final, correction, constants, iterations, converged, inner = _fixed_point(
        project, diffused, lam, weights
    )
    beta = _subgradient(correction, lam)
    defect = final - diffused - lam * _force(final) - lam * beta - constants
    return MultiClassStepResult(
        u_next=SimplexField(values=final, graph=g),
        subgradient=beta,
        residual=float(np.abs(defect).max()),
        iterations=iterations,
        converged=converged,
        class_masses_in=masses_in,
        class_masses_out=final.T @ g.degrees_r,
        projection_iterations=inner,
    )


def multiclass_step(
    U_n: SimplexField,
    g: Graph,
    s: Spectrum,
    params,
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

    start = _check_start(U_n, g)
    return _solve_step(start, g, s, params, project, None, start.T @ g.degrees_r)


def multiclass_mass_conserving_step(
    U_n: SimplexField,
    g: Graph,
    s: Spectrum,
    params,
    *,
    target_mass: np.ndarray | None = None,
) -> MultiClassStepResult:
    """One multi-class step keeping every class mass fixed.

    The feasible set is the transportation polytope of simplex rows with
    class masses ``target_mass``, by default the input's, which the result
    reports as ``class_masses_in``; each inner solve
    projects onto it exactly by a Newton solve for the K class multipliers.
    Those multipliers, centered to sum to zero like the row-centered
    subgradient they pair with, are the per-class constants of the update
    equation, and the residual checks the full equation, constants
    included.  Raises
    :class:`~graphphase.errors.NoConvergence` if a projection misses its
    tolerance within ``NEWTON_MAX_ITER`` Newton steps.
    """
    start = _check_start(U_n, g)
    masses_in = np.asarray(
        start.T @ g.degrees_r if target_mass is None else target_mass, dtype=float
    )
    total = float(g.degrees_r.sum())
    tol = 1e-8 * (1.0 + total)
    if (
        masses_in.shape != (start.shape[1],)
        or not np.all(np.isfinite(masses_in))
        or abs(float(masses_in.sum()) - total) > tol
        or masses_in.min() < -tol
    ):
        raise InfeasibleMasses(
            f"class masses {masses_in} are not {start.shape[1]} non-negative "
            f"values summing to {total}"
        )

    # successive targets differ little, so each projection starts from the
    # multipliers of the one before; a single Newton step then usually ends it
    mu = np.zeros(start.shape[1])

    def project(matrix):
        nonlocal mu
        projected, mu, steps = _project_transport(matrix, g.degrees_r, masses_in, mu)
        return projected, matrix + mu - projected, mu - mu.sum() / mu.size, steps

    return _solve_step(start, g, s, params, project, g.degrees_r, masses_in)
