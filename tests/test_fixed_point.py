"""The Anderson-accelerated multi-class fixed point.

Checked against the plain damped iteration in ``references``, which shares
the map (force and projections) but none of the acceleration, on seeded
instances with one-hot rows, an empty class, K = 2 to 5 and lambda up to
0.95; plus the regression instance on which a naive safeguard cycles, and an
iteration count that guards the speed-up without timing anything.
"""

import math
import statistics

import numpy as np
import pytest

from graphphase import (
    SchemeParams,
    SimplexField,
    multiclass_mass_conserving_step,
    multiclass_step,
    random_connected_graph,
    semi_discrete_step,
    spectral_decompose,
)
from graphphase import multiclass
from graphphase.multiclass import FP_TOL
import references

STEPPERS = (multiclass_step, multiclass_mass_conserving_step)
KINDS = ("interior", "one_hot", "empty")


def _damped(stepper, *args, **kwargs):
    """``stepper`` with the damped reference loop in place of the accelerated one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiclass, "_fixed_point", references._damped_fixed_point)
        return stepper(*args, **kwargs)


def _instances(seed):
    """One instance per class count, lambda and start kind.

    ``one_hot`` starts every row on a simplex vertex; ``empty`` moves the
    last class onto the first, so it starts with no mass at all.
    """
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        for lam in (0.2, 0.5, 0.8, 0.95):
            for num_classes in (2, 3, 4, 5):
                n = int(rng.integers(5, 40))
                g = random_connected_graph(n, rng, r=float(rng.choice([0.0, 0.5, 1.0])))
                if kind == "one_hot":
                    values = np.eye(num_classes)[rng.integers(0, num_classes, size=n)]
                else:
                    values = rng.dirichlet(np.ones(num_classes), size=n)
                    if kind == "empty":
                        values[:, 0] += values[:, -1]
                        values[:, -1] = 0.0
                tau = float(rng.uniform(0.1, 0.6))
                yield (
                    g,
                    spectral_decompose(g),
                    SimplexField(values=values, graph=g),
                    SchemeParams.from_lambda(tau=tau, lam=lam),
                )


def test_accelerated_matches_damped_reference():
    # a displacement below fp_tol puts an iterate within about
    # fp_tol / (1 - lam) of the fixed point (lam / (1 - lam) times fp_tol
    # for K = 2, where the force is affine), so two loops that stop there
    # agree to that scale; at lam = 0.95 the damped loop alone stops up to
    # ~3e-9 away, beyond a flat 10 fp_tol
    agreed = 0
    for g, s, field, params in _instances(seed=2609):
        for stepper in STEPPERS:
            fast = stepper(field, g, s, params)
            reference = _damped(stepper, field, g, s, params)
            if reference.converged:
                assert fast.converged
            if not (fast.converged and reference.converged):
                continue
            gap = np.abs(fast.u_next.values - reference.u_next.values).max()
            assert gap <= 10.0 * FP_TOL / (1.0 - params.lam)
            assert fast.residual <= 1e-8
            assert fast.u_next.values.min() >= 0.0
            agreed += 1
    assert agreed >= 80


def test_well_posed_iterations_stay_few():
    # below lam = K / (2 (K - 1)) the plain map contracts at rate
    # lam * 2 (K - 1) / K, so undamped steps settle: the 60 plain and
    # mass-conserving solves there take about 600 iterations in all
    iterations = []
    for g, s, field, params in _instances(seed=2609):
        num_classes = field.num_classes
        if params.lam >= num_classes / (2 * (num_classes - 1)):
            continue
        for stepper in STEPPERS:
            result = stepper(field, g, s, params)
            assert result.converged
            iterations.append(result.iterations)
    assert len(iterations) == 60
    assert sum(iterations) <= 650


def test_naive_safeguard_cycle_instance_converges():
    # restarting the plain step from a rejected extrapolation, without a
    # cooldown, falls into a period-4 cycle here and runs out its 500
    # iterations; the damped loop needs ~350
    rng = np.random.default_rng(1011)
    n = int(rng.integers(10, 80))
    g = random_connected_graph(n, rng, r=1.0)
    s = spectral_decompose(g)
    for lam in (0.2, 0.5, 0.8, 0.95):
        u = rng.uniform(0.0, 1.0, size=n)
    params = SchemeParams.from_lambda(tau=0.4, lam=lam)
    field = SimplexField(values=np.column_stack([u, 1.0 - u]), graph=g)
    result = multiclass_mass_conserving_step(field, g, s, params)
    assert result.converged
    assert result.iterations <= 152
    two_class = semi_discrete_step(u, g, s, params)
    assert np.abs(result.u_next.values[:, 0] - two_class.u_next).max() <= 1e-10
    damped = _damped(multiclass_mass_conserving_step, field, g, s, params)
    assert damped.iterations > 300


def test_msd_trajectory_iterations_per_step():
    # the msd-n200 benchmark's first instance at seed 1, built the same way:
    # n = 200, K = 3, tau = 0.2, epsilon = 0.4 (lambda = 0.5), 8 steps that
    # all aim at the step-0 class masses; the damped loop takes 46 a step
    seed, n, num_classes = 1, 200, 3
    graph_rng, start_rng = (
        np.random.default_rng([seed, n, 0, stream]) for stream in (0, 1)
    )
    g = random_connected_graph(n, graph_rng, r=0.5, extra_edges=3 * n)
    raw = start_rng.uniform(0.0, 1.0, size=(n, num_classes))
    raw /= raw.sum(axis=1, keepdims=True)
    raw[:, -1] = 1.0 - raw[:, :-1].sum(axis=1)
    s = spectral_decompose(g)
    params = SchemeParams.from_epsilon(epsilon=0.4, tau=0.2)
    field = SimplexField(values=raw, graph=g)
    target = field.class_masses()
    iterations = []
    for _ in range(8):
        result = multiclass_mass_conserving_step(
            field, g, s, params, target_mass=target
        )
        assert result.converged
        iterations.append(result.iterations)
        field = result.u_next
    assert statistics.median(iterations) <= 25


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize(
    "settings",
    [
        {"fp_tol": math.nan},
        {"fp_tol": -1.0},
        {"fp_tol": 0.0},
        {"fp_tol": math.inf},
        {"max_iter": 0},
        {"max_iter": 2.5},
    ],
)
def test_fixed_point_settings_are_checked(p2, p2_spectrum, stepper, settings):
    field = SimplexField(values=np.array([[0.7, 0.3], [0.2, 0.8]]), graph=p2)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    (name,) = settings
    with pytest.raises(ValueError, match=name):
        stepper(field, p2, p2_spectrum, params, **settings)
