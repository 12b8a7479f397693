"""Multi-step drivers: trajectories, lambda sweeps, step-size refinement.

A trajectory records every diagnostic the single-step schemes expose (mass,
Lyapunov values, Ginzburg-Landau energy, sup-norm change, multiplier) next to
the states themselves.  On top of that sit two experiment drivers: a lambda
sweep measuring how fast the relaxed step locks onto the thresholding step,
and a step-size refinement study checking self-convergence, energy descent
along the limit candidate, and the Lipschitz/Hoelder regularity bounds.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import scheme
from .errors import GraphTooLarge, LambdaIsOne, TauExceedsEpsilon
from .graph_core import Graph, Spectrum, average, mass, norm
from .multiclass import (
    SimplexField,
    multi_obstacle_energy,
    multiclass_mass_conserving_step,
    multiclass_step,
)
from .scheme import (
    GROUP_TOL,
    MboMultiplier,
    SchemeParams,
    _check_box,
    _diffused_state,
    _relaxed_from_levels,
    _threshold_from_levels,
    ginzburg_landau,
    lyapunov_energy,
    mbo_step,
    semi_discrete_step,
)

__all__ = [
    "LogEntry",
    "Trajectory",
    "SweepRow",
    "TauRefinementReport",
    "run_trajectory",
    "run_multiclass_trajectory",
    "sweep_lambda",
    "converge_tau",
]

STATE_BUDGET = 10_000_000  # stored state entries before snapshot decimation


class LogEntry(NamedTuple):
    """Per-step diagnostics; fields without meaning at a step hold None."""

    step: int
    mass: float
    H: float | None
    H_tau: float | None
    GL: float
    max_change: float | None
    multiplier: float | None


@dataclass(frozen=True)
class Trajectory:
    """A scheme run: stored states, a full log, and why it stopped.

    The log always covers every step; states may be decimated to a stride
    when the run is too large to keep whole, but the first and final states
    are always present.  ``converged`` only matters for multi-class runs,
    where the inner fixed-point solve can fail; two-class steps are exact.
    """

    states: tuple
    log: tuple
    params: SchemeParams
    terminated_reason: str
    state_stride: int = 1
    converged: bool = True

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def num_steps(self) -> int:
        return self.log[-1].step


class SweepRow(NamedTuple):
    lam: float
    sup_distance_to_mbo: float


@dataclass(frozen=True)
class TauRefinementReport:
    """Self-convergence and regularity diagnostics across step sizes.

    ``matched_distance_matrix[i][j]`` compares runs i and i+1 at the j-th
    shared sample time; ``matched_distances`` are the per-pair maxima and
    ``distance_ratios`` their successive quotients.  The gl, lipschitz, and
    hoelder fields all refer to the finest run.  ``energy_gaps`` holds
    |H_tau - GL| at each run's final state with its spectral bound.
    """

    epsilon: float
    t_final: float
    taus: tuple
    step_counts: tuple
    grid_times: tuple
    matched_distance_matrix: tuple
    matched_distances: tuple
    distance_ratios: tuple
    gl_grid_values: tuple
    gl_step_min_slack: float
    gl_max_rise: float
    lipschitz_quotient: float
    lipschitz_bound: float
    hoelder_ratio: float
    hoelder_coefficient: float
    energy_gaps: tuple
    energy_gap_bounds: tuple


def _choose_stride(entries_per_state: int, max_steps: int, stride) -> int:
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if stride is not None:
        stride = int(stride)
        if stride < 1:
            raise ValueError(f"snapshot stride must be >= 1, got {stride}")
        return stride
    entries = entries_per_state * (max_steps + 1)
    return max(1, -(-entries // STATE_BUDGET))


def _scalar_multiplier(multiplier) -> float:
    if isinstance(multiplier, MboMultiplier):
        return float(multiplier.threshold)
    return float(multiplier)


def _iterate(state, entry, advance, params, max_steps, stride, fixed_point_tol):
    """Step from ``state`` (logged as ``entry``) with ``advance``.

    ``advance(state, step)`` returns the next state, its log entry and
    whether the step's own solve converged.  The run stops after
    ``max_steps`` steps or at the first step whose ``max_change`` is at most
    ``fixed_point_tol``; every ``stride``-th state and the last one are kept.
    """
    states = [state]
    log = [entry]
    reason = "max_steps"
    converged = True
    for step in range(1, max_steps + 1):
        state, entry, step_converged = advance(state, step)
        converged = converged and step_converged
        log.append(entry)
        if step % stride == 0:
            states.append(state)
        if entry.max_change <= fixed_point_tol:
            reason = "fixed_point"
            break
    if log[-1].step % stride != 0:
        states.append(state)
    return Trajectory(
        states=tuple(states),
        log=tuple(log),
        params=params,
        terminated_reason=reason,
        state_stride=stride,
        converged=converged,
    )


def run_trajectory(
    u0: np.ndarray,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
    max_steps: int,
    fixed_point_tol: float | None = None,
    group_tol: float = GROUP_TOL,
    snapshot_stride: int | None = None,
) -> Trajectory:
    """Iterate the scheme from ``u0`` until a fixed point or ``max_steps``.

    Runs the relaxed step for ``lam < 1`` and the thresholding step for
    ``lam = 1``.  A step whose sup-norm change is at most ``fixed_point_tol``
    ends the run; the default tolerance is 0 for thresholding (the selection
    rule is deterministic, exact repeats happen) and 1e-12 otherwise.
    """
    stride = _choose_stride(g.num_vertices, max_steps, snapshot_stride)
    current = _check_box(u0, g)
    if fixed_point_tol is None:
        fixed_point_tol = 0.0 if params.lam == 1.0 else 1e-12

    def diagnostics(u):
        # one diffusion per state serves its log entry and the step leaving it
        _, _, diffused = _diffused_state(u, g, s, params.tau)
        H, H_tau = lyapunov_energy(u, g, s, params, diffused=diffused)
        return diffused, H, H_tau, ginzburg_landau(u, g, params.epsilon)

    diffused, H, H_tau, GL = diagnostics(current)

    def advance(u, step):
        nonlocal diffused
        if params.lam == 1.0:
            result = mbo_step(u, g, s, params.tau, group_tol, diffused=diffused)
        else:
            result = semi_discrete_step(
                u, g, s, params, group_tol=group_tol, diffused=diffused
            )
        change = float(np.abs(result.u_next - u).max())
        diffused, H, H_tau, GL = diagnostics(result.u_next)
        multiplier = _scalar_multiplier(result.multiplier)
        entry = LogEntry(step, result.mass_out, H, H_tau, GL, change, multiplier)
        return result.u_next, entry, True

    entry = LogEntry(0, float(mass(current, g)), H, H_tau, GL, None, None)
    return _iterate(
        current, entry, advance, params, max_steps, stride, fixed_point_tol
    )


def run_multiclass_trajectory(
    U0: SimplexField,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
    max_steps: int,
    conserve_masses: bool = True,
    fixed_point_tol: float = 1e-12,
    max_iter: int = 500,
    fp_tol: float = 1e-10,
    snapshot_stride: int | None = None,
) -> Trajectory:
    """Iterate a multi-class step; Lyapunov columns stay empty in the log.

    The logged mass is the total over classes, the energy column carries the
    multi-class Ginzburg-Landau value, and ``converged`` goes false if any
    inner fixed-point solve missed its tolerance (the run still continues
    with the best iterate, which keeps the log honest).
    """
    stride = _choose_stride(
        g.num_vertices * U0.num_classes, max_steps, snapshot_stride
    )
    stepper = multiclass_mass_conserving_step if conserve_masses else multiclass_step

    def advance(U, step):
        result = stepper(U, g, s, params, max_iter=max_iter, fp_tol=fp_tol)
        change = float(np.abs(result.u_next.values - U.values).max())
        _, GL = multi_obstacle_energy(result.u_next, g, params.epsilon)
        masses = float(result.class_masses_out.sum())
        entry = LogEntry(step, masses, None, None, GL, change, None)
        return result.u_next, entry, result.converged

    _, GL = multi_obstacle_energy(U0, g, params.epsilon)
    entry = LogEntry(0, float(U0.class_masses().sum()), None, None, GL, None, None)
    return _iterate(U0, entry, advance, params, max_steps, stride, fixed_point_tol)


def sweep_lambda(
    u0: np.ndarray,
    g: Graph,
    s: Spectrum,
    tau: float,
    lambdas,
    group_tol: float = GROUP_TOL,
) -> tuple:
    """One relaxed step per lambda, each measured against the threshold step.

    Distances collapse to 0 once lambda passes an instance-dependent
    threshold below 1: the relaxed minimizer stops moving and equals the
    thresholding output exactly.  Rows keep the input order.  All steps
    start from ``u0``, so its diffusion and level grouping are done once.
    """
    lambdas = [float(lam) for lam in lambdas]
    for lam in lambdas:
        if lam >= 1.0:
            raise LambdaIsOne(f"sweep requires lambda < 1, got {lam}")
        if lam <= 0.0:
            raise ValueError(f"sweep requires lambda > 0, got {lam}")
    u0, mass_in, diffused = _diffused_state(u0, g, s, tau)
    levels = scheme.threshold_levels(diffused, g, group_tol)
    reference = _threshold_from_levels(diffused, levels, mass_in, g, tau).u_next
    rows = []
    for lam in lambdas:
        params = SchemeParams.from_lambda(tau=tau, lam=lam)
        out = _relaxed_from_levels(diffused, levels, mass_in, g, params).u_next
        rows.append(SweepRow(lam, float(np.abs(out - reference).max())))
    return tuple(rows)


def _state_at(trajectory: Trajectory, t: float, tau: float):
    """State at matched time ``t``: index ceil(t / tau), capped at the end.

    The cap is exact, not an approximation: a run only ends early at a
    fixed point, after which every later state equals the last one.
    """
    index = max(0, math.ceil(t / tau - 1e-9))
    return trajectory.states[min(index, len(trajectory.states) - 1)]


def _quadratic_remainder(u: np.ndarray, tau: float, g: Graph, s: Spectrum) -> float:
    """<u, Q u> with tau^2 Q = exp(-tau L) - I + tau L, evaluated spectrally."""
    coeffs = s.phi.T @ (s.scale_fwd * u)
    weights = (np.expm1(-tau * s.eigenvalues) + tau * s.eigenvalues) / tau**2
    return float(weights @ coeffs**2)


def converge_tau(
    u0: np.ndarray,
    g: Graph,
    s: Spectrum,
    epsilon: float,
    t_final: float,
    taus,
    grid_points: int = 9,
) -> TauRefinementReport:
    """Refine the step size and measure self-convergence and regularity.

    Each tau runs ceil(t_final / tau) steps at lam = tau / epsilon.  The
    report compares consecutive refinements at shared sample times, checks
    the quadratic energy-descent inequality and plain monotonicity of the
    energy along the finest run, and measures Lipschitz and Hoelder-1/2
    quotients against their a-priori constants.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    taus = [float(tau) for tau in taus]
    if not taus:
        raise ValueError("need at least one step size")
    if any(tau <= 0 for tau in taus):
        raise ValueError("step sizes must be positive")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    oversized = [tau for tau in taus if tau > epsilon]
    if oversized:
        raise TauExceedsEpsilon(
            f"step size {oversized[0]} exceeds interface width {epsilon}"
        )
    if grid_points < 2:
        raise ValueError(f"need at least two sample times, got {grid_points}")

    u0 = _check_box(u0, g)
    # the matched-time and Lipschitz checks index every state: none is dropped
    step_counts = [math.ceil(t_final / tau - 1e-12) for tau in taus]
    entries = g.num_vertices * (step_counts[-1] + 1)
    if entries > STATE_BUDGET:
        raise GraphTooLarge(
            f"the finest run keeps {entries} state entries, over {STATE_BUDGET}"
        )
    runs = []
    for tau, steps in zip(taus, step_counts):
        params = SchemeParams.from_epsilon(epsilon=epsilon, tau=tau)
        runs.append(
            run_trajectory(u0, g, s, params, max_steps=steps,
                           fixed_point_tol=0.0, snapshot_stride=1)
        )

    # sample at multiples of the coarsest step (plus t_final) so the matched
    # indices hit the same times in every run and quantization cancels
    coarse = taus[0]
    k_max = math.floor(t_final / coarse + 1e-12)
    ticks = sorted(
        {round(j * k_max / (grid_points - 1)) for j in range(grid_points)}
    )
    grid = [k * coarse for k in ticks]
    if grid[-1] < t_final - 1e-12 * t_final:
        grid.append(t_final)

    matrix = []
    matched = []
    for (tau_a, run_a), (tau_b, run_b) in zip(
        zip(taus, runs), zip(taus[1:], runs[1:])
    ):
        gaps = [
            float(
                np.abs(
                    _state_at(run_a, t, tau_a) - _state_at(run_b, t, tau_b)
                ).max()
            )
            for t in grid
        ]
        matrix.append(tuple(gaps))
        matched.append(max(gaps))
    ratios = [
        (a / b if b > 0 else math.inf) for a, b in zip(matched, matched[1:])
    ]

    finest_tau = taus[-1]
    finest = runs[-1]
    grid_states = [_state_at(finest, t, finest_tau) for t in grid]
    gl_grid = [ginzburg_landau(u, g, epsilon) for u in grid_states]

    gl_log = [entry.GL for entry in finest.log]
    gl_max_rise = max(
        (later - earlier for earlier, later in zip(gl_log, gl_log[1:])),
        default=0.0,
    )

    ones_norm = norm(np.ones(g.num_vertices), g)
    mean = average(u0, g)
    rho = max(mean, 1.0 - mean)
    lipschitz_bound = rho * ones_norm * (
        math.exp(1.0 / epsilon) - 1.0 + math.exp(1.0 / epsilon) / epsilon
    )
    quotient = 0.0
    for earlier, later in zip(finest.states, finest.states[1:]):
        quotient = max(quotient, norm(later - earlier, g) / finest_tau)

    # energy descent, Lipschitz and Hoelder quotients over every grid pair
    min_slack = math.inf
    hoelder_coefficient = math.sqrt(2.0 * gl_grid[0])
    hoelder_ratio = 0.0
    for a, b in itertools.combinations(range(len(grid)), 2):
        dt = grid[b] - grid[a]
        distance = norm(grid_states[a] - grid_states[b], g)
        min_slack = min(
            min_slack, gl_grid[a] - gl_grid[b] - distance**2 / (2.0 * dt)
        )
        quotient = max(quotient, distance / dt)
        if distance == 0.0:
            continue
        scale = hoelder_coefficient * math.sqrt(dt)
        hoelder_ratio = max(
            hoelder_ratio, distance / scale if scale > 0 else math.inf
        )

    gaps = []
    bounds = []
    for tau, run in zip(taus, runs):
        final = run.final_state
        entry = run.log[-1]
        gaps.append(abs(entry.H_tau - entry.GL))
        bounds.append(0.5 * tau * abs(_quadratic_remainder(final, tau, g, s)))

    return TauRefinementReport(
        epsilon=epsilon,
        t_final=t_final,
        taus=tuple(taus),
        step_counts=tuple(run.num_steps for run in runs),
        grid_times=tuple(grid),
        matched_distance_matrix=tuple(matrix),
        matched_distances=tuple(matched),
        distance_ratios=tuple(ratios),
        gl_grid_values=tuple(gl_grid),
        gl_step_min_slack=float(min_slack),
        gl_max_rise=float(gl_max_rise),
        lipschitz_quotient=float(quotient),
        lipschitz_bound=float(lipschitz_bound),
        hoelder_ratio=float(hoelder_ratio),
        hoelder_coefficient=float(hoelder_coefficient),
        energy_gaps=tuple(gaps),
        energy_gap_bounds=tuple(bounds),
    )
