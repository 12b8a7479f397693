"""Mass-conserving two-phase steps: relaxed solve and threshold dynamics.

One step diffuses the state for time ``tau`` and then minimizes

    (1 - lam) <u, u> - 2 <u, diffused>     over  u in [0, 1]^V,  <u, 1> = M,

with ``lam = tau / epsilon``.  For ``lam < 1`` the minimizer is unique and has
the water-filling form ``u_i = clip((diffused_i - nu) / (1 - lam), 0, 1)``
where the scalar ``nu`` balances the mass constraint; the balance equation is
piecewise linear in ``nu`` and is solved exactly here, never by root
bracketing.  For ``lam = 1`` the objective is linear and minimizers are
threshold cuts of the diffused values with one partially filled level
(:func:`mbo_step`).  As ``lam`` approaches 1 the relaxed solution freezes onto
the threshold solution; :func:`semi_discrete_step` detects that regime
structurally and emits the threshold profile verbatim, because evaluating the
water-filling quotient there would divide rounding noise by ``1 - lam``.

Vertices sharing a diffused value always receive the same new value, so steps
preserve the symmetries of the input exactly.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryState,
    DomainViolation,
    InconsistentInputs,
    LambdaIsOne,
    MassOutOfRange,
)
from .graph_core import Graph, Spectrum, diffuse, dirichlet_energy, inner_product, mass

__all__ = [
    "SchemeParams",
    "ThresholdLevels",
    "MboMultiplier",
    "MultiplierSolution",
    "StepResult",
    "DualCertificate",
    "threshold_levels",
    "solve_multiplier",
    "semi_discrete_step",
    "mbo_step",
    "mbo_is_unique",
    "recover_subgradient",
    "step_residual",
    "lyapunov_energy",
    "ginzburg_landau",
    "lyapunov_gradient",
    "dual_certificate",
]

GROUP_TOL = 1e-12   # default absolute tolerance for tying diffused values
SNAP_TOL = 1e-12    # post-step snap of values this close to 0 or 1
BOX_TOL = 1e-12     # admissible overshoot of [0, 1] on input states


@dataclass(frozen=True)
class SchemeParams:
    """Step parameters ``epsilon`` (interface width), ``tau`` (step time).

    ``lam = tau / epsilon`` in [0, 1] selects the dynamics: 0 is pure
    diffusion (``epsilon = inf``), 1 is pure thresholding, anything between is
    the relaxed mass-conserving step.
    """

    epsilon: float
    tau: float
    lam: float

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        implied = self.tau / self.epsilon if math.isfinite(self.epsilon) else 0.0
        if abs(implied - self.lam) > 1e-12:
            raise ValueError(
                f"inconsistent parameters: tau/epsilon = {implied}, lam = {self.lam}"
            )

    @classmethod
    def from_epsilon(cls, epsilon: float, tau: float) -> "SchemeParams":
        lam = tau / epsilon if math.isfinite(epsilon) else 0.0
        return cls(epsilon=epsilon, tau=tau, lam=lam)

    @classmethod
    def from_lambda(cls, tau: float, lam: float) -> "SchemeParams":
        """Build params with ``lam`` stored exactly as given."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {lam}")
        epsilon = tau / lam if lam > 0 else math.inf
        return cls(epsilon=epsilon, tau=tau, lam=lam)


@dataclass(frozen=True)
class ThresholdLevels:
    """Distinct diffused values with their vertex measure.

    ``values`` ascend strictly; ``weights[l]`` sums ``d_i**r`` over the
    vertices of level ``l``; ``labels[i]`` is the level of vertex ``i``.
    """

    values: np.ndarray
    weights: np.ndarray
    labels: np.ndarray

    @property
    def num_levels(self) -> int:
        return self.values.size

    def level_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_levels)


class MboMultiplier(NamedTuple):
    """Threshold-step multiplier: the chosen level, its value, its fill."""

    level: int
    threshold: float
    fill: float


class MultiplierSolution(NamedTuple):
    """Solved mass multiplier and the interval of equally valid choices."""

    value: float
    lo: float
    hi: float


@dataclass(frozen=True)
class StepResult:
    """One accepted step with its optimality certificate pieces."""

    u_next: np.ndarray
    multiplier: "float | MboMultiplier"
    subgradient: np.ndarray
    residual: float
    mass_in: float
    mass_out: float


@dataclass(frozen=True)
class DualCertificate:
    """Lagrange multipliers certifying a relaxed step.

    ``lower``/``upper`` are the multipliers of the constraints ``u >= 0`` and
    ``u <= 1``; ``mass_multiplier`` pairs with the mass constraint.  A valid
    step has ``gap`` at rounding size and ``slack`` (largest complementary
    slackness product) near zero.
    """

    lower: np.ndarray
    upper: np.ndarray
    mass_multiplier: float
    primal: float
    dual: float
    gap: float
    slack: float


def _ones_mass(g: Graph) -> float:
    return float(g.degrees_r.sum())


def _check_box(u: np.ndarray, g: Graph) -> np.ndarray:
    u = g.check_field(u)
    if u.min() < -BOX_TOL or u.max() > 1.0 + BOX_TOL:
        raise DomainViolation(
            f"state must lie in [0, 1], range is [{u.min()}, {u.max()}]"
        )
    return np.clip(u, 0.0, 1.0)


def threshold_levels(
    diffused: np.ndarray, g: Graph, group_tol: float = GROUP_TOL
) -> ThresholdLevels:
    """Group diffused values into ascending levels with summed measure.

    Values whose gap to the previous sorted value is at most ``group_tol``
    join the same level; the level value is the smallest member, so exact
    ties (the symmetric case) keep their value bit for bit.  ``group_tol``
    must be finite and non-negative: NaN or infinity would merge every
    vertex into one level, a negative value would split exact ties.
    """
    if not 0.0 <= group_tol < math.inf:
        raise ValueError(f"group_tol must be finite and >= 0, got {group_tol}")
    diffused = g.check_field(diffused)
    order = np.argsort(diffused, kind="stable")
    ordered = diffused[order]
    # the gap is taken to the previous value, not to the level's first one,
    # so a chain of small gaps stays one level
    starts = np.concatenate([[True], np.diff(ordered) > group_tol])
    sorted_labels = np.cumsum(starts) - 1
    labels = np.empty(g.num_vertices, dtype=int)
    labels[order] = sorted_labels
    return ThresholdLevels(
        values=ordered[starts],
        weights=np.bincount(sorted_labels, weights=g.degrees_r[order]),
        labels=labels,
    )


def _threshold_fill(levels: ThresholdLevels, target_mass: float):
    """Pick the unique level ``k`` whose partial fill meets the mass.

    Requires ``0 < target_mass <= total``.  Returns ``(k, fill)``: every
    level above ``k`` is full, every level below empty, and level ``k``
    carries ``fill`` in (0, 1].  ``(0, 1.0)`` is the all-full profile.
    """
    weights = levels.weights
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    # last index whose suffix weight still covers the target
    k = int(np.searchsorted(-suffix[:-1], -target_mass, side="right")) - 1
    if k < 0:
        # the running sum can end an ulp below weights.sum(); a target
        # between the two fills every level
        return 0, 1.0
    fill = (target_mass - suffix[k + 1]) / weights[k]
    return k, min(fill, 1.0)


def _fill_profile(num_levels: int, k: int, fill: float) -> np.ndarray:
    values = np.zeros(num_levels)
    values[k] = fill
    values[k + 1 :] = 1.0
    return values


def _clip_midpoint(lo: float, hi: float, lam: float) -> float:
    lo_c = max(lo, 0.0)
    hi_c = min(hi, lam)
    if lo_c > hi_c:
        # interval misses [0, lam] by rounding dust; take the nearest point
        anchor = lo if math.isfinite(lo) else hi
        return min(max(anchor, 0.0), lam)
    return 0.5 * (lo_c + hi_c)


def _invert_segment(p0: float, p1: float, r0: float, r1: float, m: float) -> float:
    """Solve the affine piece of the balance between breakpoints ``p0 <= p1``."""
    if r0 == r1 or p1 == p0:
        return float(p1 if r0 > m else p0)
    t = (r0 - m) / (r0 - r1)
    return float(p0 + min(max(t, 0.0), 1.0) * (p1 - p0))


def _solve_profile(levels: ThresholdLevels, target_mass: float, lam: float):
    """Exact solve of ``sum_l a_l clip((alpha_l - nu)/(1-lam), 0, 1) = M``.

    Returns ``(nu, lo, hi, level_values)`` with ``[lo, hi]`` the full solution
    interval (before clipping into [0, lam]) and ``level_values`` the new
    per-level state.  Level values are produced without dividing by
    ``1 - lam`` whenever the threshold profile is already consistent, which
    keeps the near-threshold regime exact; otherwise the fractional levels
    get a single uniform mass repair so the step conserves mass to rounding.
    The balance is evaluated at O(log L) of the 2L breakpoints, found by
    bisection, so the solve costs O(L log L).
    """
    alphas = levels.values
    weights = levels.weights
    count = levels.num_levels
    s = 1.0 - lam
    total = float(weights.sum())

    if target_mass <= 0.0:
        lo, hi = float(alphas[-1]), math.inf
        return _clip_midpoint(lo, hi, lam), lo, hi, np.zeros(count)
    if target_mass >= total:
        lo, hi = -math.inf, float(alphas[0]) - s
        return _clip_midpoint(lo, hi, lam), lo, hi, np.ones(count)

    k, fill = _threshold_fill(levels, target_mass)
    below_ok = k == 0 or alphas[k] - alphas[k - 1] >= s * fill
    above_ok = k == count - 1 or alphas[k + 1] - alphas[k] >= s * (1.0 - fill)
    if below_ok and above_ok:
        values = _fill_profile(count, k, fill)
        if fill < 1.0:
            nu = lo = hi = float(alphas[k] - s * fill)
        else:
            lo = float(alphas[k - 1]) if k else -math.inf
            hi = float(alphas[k] - s)
            nu = _clip_midpoint(lo, hi, lam)
        return nu, lo, hi, values

    points = np.sort(np.concatenate([alphas - s, alphas]))

    @functools.cache
    def balance(j: int) -> float:
        # non-increasing in j in floating point too: every clipped term is,
        # and the dot product sums them in the same order at every j
        return float(np.clip((alphas - points[j]) / s, 0.0, 1.0) @ weights)

    def first(predicate) -> int:
        return bisect.bisect_left(range(points.size), True, key=predicate)

    above_end = first(lambda j: balance(j) <= target_mass)
    if above_end == 0:
        # rounding put the target at or past the balance of the first
        # breakpoint, below which every level is full
        lo, hi = -math.inf, float(points[0])
        return _clip_midpoint(lo, hi, lam), lo, hi, np.ones(count)
    j1 = above_end - 1                              # last balance above target
    j0 = first(lambda j: balance(j) < target_mass)  # first balance below it
    lo = _invert_segment(
        points[j1], points[j1 + 1], balance(j1), balance(j1 + 1), target_mass
    )
    hi = _invert_segment(
        points[j0 - 1], points[j0], balance(j0 - 1), balance(j0), target_mass
    )
    hi = max(hi, lo)
    nu = _clip_midpoint(lo, hi, lam)

    values = np.clip((alphas - nu) / s, 0.0, 1.0)
    near_zero = values <= SNAP_TOL
    near_one = values >= 1.0 - SNAP_TOL
    fractional = ~near_zero & ~near_one
    if fractional.any():
        # snap boundary dust, then restore the mass on the fractional levels
        values[near_zero] = 0.0
        values[near_one] = 1.0
        deficit = target_mass - float(values @ weights)
        values[fractional] += deficit / float(weights[fractional].sum())
        np.clip(values, 0.0, 1.0, out=values)
    return nu, lo, hi, values


def solve_multiplier(
    levels: ThresholdLevels, target_mass: float, lam: float
) -> MultiplierSolution:
    """Solve the mass balance equation for the multiplier ``nu``.

    The solution set is a closed interval; the returned ``value`` is the
    midpoint of that interval intersected with [0, lam], and ``lo``/``hi``
    report the intersected interval.  Infinite ends (all-empty or all-full
    targets) are reported clipped as well.
    """
    if lam == 1.0:
        raise LambdaIsOne("the multiplier equation needs lam < 1")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    total = float(levels.weights.sum())
    if target_mass < -1e-9 * (1.0 + total) or target_mass > total * (1.0 + 1e-9) + 1e-9:
        raise MassOutOfRange(
            f"target mass {target_mass} outside [0, {total}]"
        )
    nu, lo, hi, _ = _solve_profile(levels, target_mass, lam)
    return MultiplierSolution(nu, max(lo, 0.0), min(hi, lam))


def _beta_relaxed(
    diffused: np.ndarray, u_next: np.ndarray, nu: float, lam: float
) -> np.ndarray:
    """Subgradient matching a relaxed step, zero on strictly interior values."""
    if lam == 0.0:
        return np.zeros_like(diffused)
    s = 1.0 - lam
    beta = np.zeros_like(diffused)
    at_zero = u_next == 0.0
    at_one = u_next == 1.0
    beta[at_zero] = (nu - diffused[at_zero]) / lam
    beta[at_one] = (nu - diffused[at_one] + s) / lam
    return beta


def _snap_subgradient(
    beta: np.ndarray, u_next: np.ndarray, snap: float = 1e-8
) -> np.ndarray:
    """Zero out rounding-size sign violations; reject anything larger."""
    beta = beta.copy()
    bad_low = (u_next == 0.0) & (beta < 0.0)
    bad_high = (u_next == 1.0) & (beta > 0.0)
    interior = (u_next > 0.0) & (u_next < 1.0) & (beta != 0.0)
    for mask in (bad_low, bad_high, interior):
        if np.any(np.abs(beta[mask]) > snap):
            raise InconsistentInputs(
                "subgradient sign pattern violates the state beyond rounding"
            )
        beta[mask] = 0.0
    if np.abs(beta).max(initial=0.0) > 1.0 + snap:
        raise InconsistentInputs("subgradient leaves [-1, 1]")
    return np.clip(beta, -1.0, 1.0)


def recover_subgradient(
    diffused: np.ndarray,
    u_next: np.ndarray,
    multiplier: "float | MboMultiplier",
    params: SchemeParams,
) -> np.ndarray:
    """Rebuild the step's subgradient from the diffused input and multiplier.

    ``diffused`` is the heat-evolved previous state (the step's only
    dependence on it).  A float multiplier selects the relaxed form, an
    :class:`MboMultiplier` the threshold form; the recovered vector is
    validated against the sign pattern admissible at ``u_next`` and snapped
    where rounding left dust.
    """
    diffused = np.asarray(diffused, dtype=float)
    u_next = np.asarray(u_next, dtype=float)
    if diffused.shape != u_next.shape:
        raise InconsistentInputs("diffused state and new state differ in length")
    if isinstance(multiplier, MboMultiplier):
        if params.lam != 1.0:
            raise InconsistentInputs(
                "threshold multiplier passed with lam < 1 parameters"
            )
        beta = multiplier.threshold - diffused
    else:
        if params.lam == 1.0:
            raise InconsistentInputs(
                "scalar multiplier passed with lam = 1 parameters"
            )
        beta = _beta_relaxed(diffused, u_next, float(multiplier), params.lam)
    return _snap_subgradient(beta, u_next)


def step_residual(
    u_n: np.ndarray,
    u_next: np.ndarray,
    subgradient: np.ndarray,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
) -> float:
    """Sup-norm defect of the update equation linking ``u_n`` to ``u_next``.

    The equation balances the new state against its diffused predecessor,
    the mean-zero relaxation term, and the mean-zero subgradient term; a
    correct step leaves rounding-size defect only.
    """
    u_n = g.check_field(u_n)
    u_next = g.check_field(u_next)
    beta = g.check_field(subgradient)
    diffused = diffuse(u_n, params.tau, s)
    return _residual_from_diffused(diffused, u_next, beta, g, params)


def _residual_from_diffused(diffused, u_next, beta, g, params):
    lam = params.lam
    total = _ones_mass(g)
    avg_next = float(np.dot(u_next, g.degrees_r)) / total
    avg_beta = float(np.dot(beta, g.degrees_r)) / total
    defect = (
        u_next
        - diffused
        - lam * (u_next - avg_next)
        - lam * (beta - avg_beta)
    )
    return float(np.abs(defect).max())


def _diffused_state(u_n, g, s, tau, diffused=None):
    """``u_n`` boxed, its mass, and its diffusion, reusing ``diffused`` if given."""
    u_n = _check_box(u_n, g)
    if diffused is None:
        diffused = diffuse(u_n, tau, s)
    return u_n, mass(u_n, g), g.check_field(diffused)


def _step_result(diffused, u_next, multiplier, mass_in, g, params) -> StepResult:
    beta = recover_subgradient(diffused, u_next, multiplier, params)
    return StepResult(
        u_next=u_next,
        multiplier=multiplier,
        subgradient=beta,
        residual=_residual_from_diffused(diffused, u_next, beta, g, params),
        mass_in=mass_in,
        mass_out=mass(u_next, g),
    )


def _relaxed_from_levels(diffused, levels, mass_in, g, params) -> StepResult:
    """Relaxed step (``0 < lam < 1``) from the grouped diffused values."""
    nu, _, _, level_values = _solve_profile(levels, mass_in, params.lam)
    return _step_result(diffused, level_values[levels.labels], nu, mass_in, g, params)


def _threshold_from_levels(diffused, levels, mass_in, g, tau) -> StepResult:
    """Threshold step (``lam = 1``) from the grouped diffused values."""
    total = float(levels.weights.sum())
    if mass_in <= 0.0:
        k, fill = 0, 0.0
        level_values = np.zeros(levels.num_levels)
    elif mass_in >= total:
        k, fill = 0, 1.0
        level_values = np.ones(levels.num_levels)
    else:
        k, fill = _threshold_fill(levels, mass_in)
        level_values = _fill_profile(levels.num_levels, k, fill)

    u_next = level_values[levels.labels]
    multiplier = MboMultiplier(
        level=k, threshold=float(levels.values[k]), fill=float(fill)
    )
    params = SchemeParams.from_lambda(tau=tau, lam=1.0)
    return _step_result(diffused, u_next, multiplier, mass_in, g, params)


def semi_discrete_step(
    u_n: np.ndarray,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
    group_tol: float = GROUP_TOL,
    *,
    diffused: np.ndarray | None = None,
) -> StepResult:
    """One relaxed mass-conserving step (``lam < 1``).

    Diffuses, solves the multiplier equation exactly, assigns each threshold
    level its solved value, and recovers the subgradient certificate.  With
    ``lam = 0`` the step is plain diffusion.  ``diffused``, if given, must be
    ``diffuse(u_n, params.tau, s)`` and replaces the step's own.  Raises
    :class:`~graphphase.errors.LambdaIsOne` for ``lam = 1`` (use
    :func:`mbo_step`) and :class:`~graphphase.errors.DomainViolation` for
    states outside [0, 1].
    """
    if params.lam == 1.0:
        raise LambdaIsOne("semi_discrete_step requires lam < 1")
    u_n, mass_in, diffused = _diffused_state(u_n, g, s, params.tau, diffused)

    if params.lam == 0.0:
        u_next = np.clip(diffused, 0.0, 1.0)
        return _step_result(diffused, u_next, 0.0, mass_in, g, params)

    levels = threshold_levels(diffused, g, group_tol)
    return _relaxed_from_levels(diffused, levels, mass_in, g, params)


def mbo_step(
    u_n: np.ndarray,
    g: Graph,
    s: Spectrum,
    tau: float,
    group_tol: float = GROUP_TOL,
    *,
    diffused: np.ndarray | None = None,
) -> StepResult:
    """One mass-conserving threshold step (``lam = 1``).

    Fills diffused levels from the top until the mass budget is spent; the
    boundary level is filled uniformly with the leftover fraction.
    ``diffused``, if given, must be ``diffuse(u_n, tau, s)``.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u_n, mass_in, diffused = _diffused_state(u_n, g, s, tau, diffused)
    levels = threshold_levels(diffused, g, group_tol)
    return _threshold_from_levels(diffused, levels, mass_in, g, tau)


def _profile_is_unique(levels: ThresholdLevels, target_mass: float) -> bool:
    total = float(levels.weights.sum())
    if target_mass <= 0.0 or target_mass >= total:
        return True
    k, fill = _threshold_fill(levels, target_mass)
    if fill >= 1.0 - 1e-12:
        return True
    return int(levels.level_sizes()[k]) == 1


def mbo_is_unique(
    u_n: np.ndarray,
    g: Graph,
    s: Spectrum,
    tau: float,
    group_tol: float = GROUP_TOL,
) -> bool:
    """Whether the threshold step from ``u_n`` has a single minimizer.

    True when the mass budget closes exactly at a level boundary or when the
    partially filled level holds a single vertex; otherwise the level set
    admits a continuum of equally good fills and :func:`mbo_step` returns the
    uniform one.
    """
    _, mass_in, diffused = _diffused_state(u_n, g, s, tau)
    return _profile_is_unique(threshold_levels(diffused, g, group_tol), mass_in)


def lyapunov_energy(
    u: np.ndarray,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
    *,
    diffused: np.ndarray | None = None,
) -> tuple[float, float]:
    """Descent functional of the stepping scheme and its ``1/(2 tau)`` scaling.

    Nonnegative, non-increasing along both step types; the scaled form
    converges to the Ginzburg-Landau energy as ``tau`` shrinks.
    ``diffused``, if given, must be ``diffuse(u, params.tau, s)``.
    """
    u, _, diffused = _diffused_state(u, g, s, params.tau, diffused)
    smooth = inner_product(u, u - diffused, g)
    obstacle = params.lam * inner_product(u, 1.0 - u, g)
    value = obstacle + smooth
    return value, value / (2.0 * params.tau)


def ginzburg_landau(u: np.ndarray, g: Graph, epsilon: float) -> float:
    """Graph Ginzburg-Landau energy with the double-obstacle well.

    Returns ``+inf`` outside the box ``[0, 1]^V``.
    """
    u = g.check_field(u)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if u.min() < -BOX_TOL or u.max() > 1.0 + BOX_TOL:
        return math.inf
    u = np.clip(u, 0.0, 1.0)
    smooth = dirichlet_energy(u, g)
    well = 0.5 * float(np.dot(g.degrees_r, u * (1.0 - u)))
    if math.isinf(epsilon):
        return smooth
    return smooth + well / epsilon


def lyapunov_gradient(
    u: np.ndarray, g: Graph, s: Spectrum, params: SchemeParams
) -> np.ndarray:
    """Gradient of the descent functional along the fixed-mass plane.

    Defined for strictly interior states only; the result is orthogonal to
    constants in the weighted inner product, so fixed points of the dynamics
    inside the box are exactly its zeros.
    """
    u = g.check_field(u)
    if u.min() <= 0.0 or u.max() >= 1.0:
        raise BoundaryState("gradient needs a strictly interior state")
    avg = mass(u, g) / _ones_mass(g)
    return (
        2.0 * (u - diffuse(u, params.tau, s))
        - 2.0 * params.lam * u
        + 2.0 * params.lam * avg
    )


def dual_certificate(
    u_n: np.ndarray,
    step: StepResult,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
) -> DualCertificate:
    """Build the Lagrange certificate for a relaxed step (``lam < 1``).

    The box multipliers are read off the active sets of the new state; a
    correct step makes the dual value meet the primal value (strong duality),
    so the returned ``gap`` measures how close the pair is to optimal.
    """
    if params.lam == 1.0:
        raise LambdaIsOne("dual certificate exists for lam < 1 only")
    if isinstance(step.multiplier, MboMultiplier):
        raise InconsistentInputs("threshold steps carry no scalar multiplier")
    nu = float(step.multiplier)
    diffused = diffuse(_check_box(u_n, g), params.tau, s)
    u_next = g.check_field(step.u_next)
    s_comp = 1.0 - params.lam

    lower = np.zeros_like(u_next)
    upper = np.zeros_like(u_next)
    at_zero = u_next == 0.0
    at_one = u_next == 1.0
    lower[at_zero] = np.maximum(0.0, 2.0 * nu - 2.0 * diffused[at_zero])
    upper[at_one] = np.maximum(
        0.0, 2.0 * diffused[at_one] - 2.0 * s_comp - 2.0 * nu
    )

    u_star = (2.0 * diffused + lower - upper - 2.0 * nu) / (2.0 * s_comp)
    m = mass(u_next, g)
    primal = s_comp * inner_product(u_next, u_next, g) - 2.0 * inner_product(
        u_next, diffused, g
    )
    dual = -(
        s_comp * inner_product(u_star, u_star, g)
        + mass(upper, g)
        + 2.0 * nu * m
    )
    slack = max(
        float(np.abs(lower * u_next).max(initial=0.0)),
        float(np.abs(upper * (1.0 - u_next)).max(initial=0.0)),
    )
    return DualCertificate(
        lower=lower,
        upper=upper,
        mass_multiplier=float(nu),
        primal=primal,
        dual=dual,
        gap=primal - dual,
        slack=slack,
    )
