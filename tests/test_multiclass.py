"""Multi-class states, the obstacle well, and the fixed-point steps."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphphase import (
    DimensionMismatch,
    DomainViolation,
    InconsistentInputs,
    InfeasibleMasses,
    RowNotInPi,
    SchemeParams,
    SimplexField,
    build_graph,
    ginzburg_landau,
    mass,
    multi_obstacle_energy,
    multiclass_mass_conserving_step,
    multiclass_step,
    project_rows_to_simplex,
    semi_discrete_step,
    spectral_decompose,
    well_force,
)
from graphphase.oracles import random_connected_graph


def _uniform(g, num_classes):
    values = np.full((g.num_vertices, num_classes), 1.0 / num_classes)
    return SimplexField(values=values, graph=g)


def _random_field(g, num_classes, rng):
    raw = rng.uniform(0.05, 1.0, size=(g.num_vertices, num_classes))
    return SimplexField(values=raw / raw.sum(axis=1, keepdims=True), graph=g)


def _random_instances(num, num_classes, seed, max_vertices=8):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(num):
        n = int(rng.integers(3, max_vertices + 1))
        g = random_connected_graph(n, rng, r=float(rng.choice([0.0, 0.5, 1.0])))
        out.append((g, spectral_decompose(g), _random_field(g, num_classes, rng)))
    return out


def test_simplex_field_validation():
    g = build_graph(2, [(0, 1, 1.0)])
    with pytest.raises(DimensionMismatch):
        SimplexField(values=np.array([0.5, 0.5]), graph=g)
    with pytest.raises(DimensionMismatch):
        SimplexField(values=np.ones((2, 1)), graph=g)
    with pytest.raises(DimensionMismatch):
        SimplexField(values=np.full((3, 2), 0.5), graph=g)
    with pytest.raises(DomainViolation):
        SimplexField(values=np.array([[np.nan, 1.0], [0.5, 0.5]]), graph=g)
    with pytest.raises(RowNotInPi):
        SimplexField(values=np.array([[0.6, 0.5], [0.5, 0.5]]), graph=g)


def test_simplex_field_properties(triangle_r1):
    values = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    field = SimplexField(values=values, graph=triangle_r1)
    assert field.num_classes == 2
    assert field.in_sigma()
    # degrees are (2, 2, 2) at r=1, so each class carries half the measure
    assert_allclose(field.class_masses(), [3.0, 3.0], rtol=1e-14)
    dusty = SimplexField(
        values=np.array([[-0.2, 1.2], [0.5, 0.5], [0.0, 1.0]]), graph=triangle_r1
    )
    assert not dusty.in_sigma()


def test_obstacle_well_frozen(p2, triangle):
    one_hot = SimplexField(
        values=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), graph=p2
    )
    well, energy = multi_obstacle_energy(one_hot, p2, 1.0)
    assert well == 0.0
    uniform = _uniform(p2, 3)
    well, _ = multi_obstacle_energy(uniform, p2, 1.0)
    assert_allclose(well, 2 * 8 / 27, rtol=1e-12)
    halves = _uniform(p2, 2)
    well, energy = multi_obstacle_energy(halves, p2, 2.0)
    assert_allclose(well, 0.5, rtol=1e-14)
    # constant columns carry no Dirichlet part
    assert_allclose(energy, 0.25, rtol=1e-14)
    well, _ = multi_obstacle_energy(_uniform(triangle, 3), triangle, 1.0)
    assert_allclose(well, 3 * 8 / 27, rtol=1e-12)


def test_obstacle_doubles_two_class_potential(triangle_r1):
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, size=3)
    field = SimplexField(values=np.column_stack([u, 1.0 - u]), graph=triangle_r1)
    for epsilon in (0.5, 1.0, math.inf):
        _, total = multi_obstacle_energy(field, triangle_r1, epsilon)
        assert_allclose(
            total, 2.0 * ginzburg_landau(u, triangle_r1, epsilon), rtol=1e-12
        )


def test_obstacle_off_simplex_is_infinite(p2):
    field = SimplexField(values=np.array([[-0.2, 1.2], [0.5, 0.5]]), graph=p2)
    well, energy = multi_obstacle_energy(field, p2, 1.0)
    assert math.isinf(well) and math.isinf(energy)


def test_obstacle_epsilon_validation(p2):
    field = _uniform(p2, 2)
    with pytest.raises(ValueError):
        multi_obstacle_energy(field, p2, 0.0)
    well, total = multi_obstacle_energy(field, p2, math.inf)
    assert well > 0.0
    assert total == 0.0


def test_well_force_frozen(p2, triangle):
    one_hot = SimplexField(
        values=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), graph=p2
    )
    force = well_force(one_hot, p2)
    assert_allclose(force, [[2 / 3, -1 / 3, -1 / 3]] * 2, rtol=1e-14)
    assert_allclose(well_force(_uniform(triangle, 3), triangle), 0.0, atol=1e-15)
    s = np.array([0.1, 0.5, 0.9])
    pairs = SimplexField(values=np.column_stack([s, 1.0 - s]), graph=triangle)
    force = well_force(pairs, triangle)
    assert_allclose(force[:, 0], s - 0.5, atol=1e-15)
    assert_allclose(force[:, 1], 0.5 - s, atol=1e-15)


@pytest.mark.parametrize("num_classes", [2, 3, 4])
def test_well_force_rows_sum_to_zero_exactly(triangle_r1, num_classes):
    rng = np.random.default_rng(100 + num_classes)
    for _ in range(20):
        field = _random_field(triangle_r1, num_classes, rng)
        sums = well_force(field, triangle_r1).sum(axis=1)
        assert np.all(sums == 0.0)


def test_project_rows_frozen():
    out = project_rows_to_simplex(np.array([[1.2, 0.3], [2.0, -1.0]]))
    assert_allclose(out[0], [0.95, 0.05], rtol=1e-14)
    assert_allclose(out[1], [1.0, 0.0], atol=0.0)
    feasible = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
    assert np.all(project_rows_to_simplex(feasible) == feasible)


def test_project_rows_optimality():
    rng = np.random.default_rng(11)
    for num_classes in (2, 3, 5):
        raw = rng.normal(scale=2.0, size=(30, num_classes))
        out = project_rows_to_simplex(raw)
        assert out.min() >= 0.0
        assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        # nearest point: the step to any simplex corner never aligns with
        # the projection residual
        for k in range(num_classes):
            corner = np.zeros(num_classes)
            corner[k] = 1.0
            inner = ((raw - out) * (corner[None, :] - out)).sum(axis=1)
            assert inner.max() <= 1e-10


def test_project_rows_validation():
    with pytest.raises(DimensionMismatch):
        project_rows_to_simplex(np.array([0.5, 0.5]))
    with pytest.raises(DomainViolation):
        project_rows_to_simplex(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("stepper", [multiclass_step, multiclass_mass_conserving_step])
def test_uniform_state_is_fixed(triangle, stepper):
    s = spectral_decompose(triangle)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.6)
    result = stepper(_uniform(triangle, 3), triangle, s, params)
    assert result.converged
    assert_allclose(result.u_next.values, 1 / 3, atol=1e-12)
    assert result.residual <= 1e-10
    assert_allclose(result.class_masses_out, 1.0, rtol=1e-12)


@pytest.mark.parametrize("stepper", [multiclass_step, multiclass_mass_conserving_step])
def test_constant_one_hot_state_is_fixed(p2, p2_spectrum, stepper):
    values = np.zeros((2, 3))
    values[:, 0] = 1.0
    field = SimplexField(values=values, graph=p2)
    params = SchemeParams.from_lambda(tau=0.4, lam=0.5)
    result = stepper(field, p2, p2_spectrum, params)
    assert result.converged
    assert_allclose(result.u_next.values, values, atol=1e-12)
    assert result.residual <= 1e-9
    assert_allclose(result.class_masses_out, [2.0, 0.0, 0.0], atol=1e-12)


def test_plain_step_one_hot_subgradient(p2, p2_spectrum):
    # spelled-out projection residual: target rows (1+2λ/3, −λ/3, −λ/3)
    # project back to (1,0,0), so β̃ = (−2/3, 1/3, 1/3)
    values = np.zeros((2, 3))
    values[:, 0] = 1.0
    field = SimplexField(values=values, graph=p2)
    params = SchemeParams.from_lambda(tau=0.4, lam=0.5)
    result = multiclass_step(field, p2, p2_spectrum, params)
    assert_allclose(result.subgradient, [[-2 / 3, 1 / 3, 1 / 3]] * 2, atol=1e-12)


def test_one_hot_triangle_masses_after_one_step(triangle):
    s = spectral_decompose(triangle)
    field = SimplexField(values=np.eye(3), graph=triangle)
    params = SchemeParams.from_lambda(tau=1e-3, lam=0.5)
    result = multiclass_mass_conserving_step(field, triangle, s, params)
    assert result.converged
    assert np.abs(result.class_masses_out - 1.0).max() <= 1e-8


@pytest.mark.parametrize("stepper", [multiclass_step, multiclass_mass_conserving_step])
def test_lambda_zero_reduces_to_diffusion(triangle_r1, stepper):
    from graphphase import diffuse

    s = spectral_decompose(triangle_r1)
    rng = np.random.default_rng(3)
    field = _random_field(triangle_r1, 3, rng)
    params = SchemeParams(epsilon=math.inf, tau=0.7, lam=0.0)
    result = stepper(field, triangle_r1, s, params)
    assert result.converged
    assert result.iterations == 1
    expected = np.column_stack(
        [diffuse(field.values[:, k], 0.7, s) for k in range(3)]
    )
    assert_allclose(result.u_next.values, expected, atol=1e-12)
    assert np.all(result.subgradient == 0.0)


@pytest.mark.parametrize("stepper", [multiclass_step, multiclass_mass_conserving_step])
@pytest.mark.parametrize("num_classes", [2, 3, 4])
def test_rows_stay_on_simplex(stepper, num_classes):
    # each lambda lies below the steps' bound K / (2 (K - 1)), 2/3 at K = 4
    params = SchemeParams.from_lambda(tau=0.5, lam=0.6 if num_classes == 4 else 0.7)
    for g, s, field in _random_instances(6, num_classes, seed=2_000 + num_classes):
        result = stepper(field, g, s, params)
        assert result.u_next.values.min() >= 0.0
        assert np.abs(result.u_next.values.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.all(result.subgradient.sum(axis=1) == 0.0)


def test_mass_conserving_step_conserves_class_masses():
    params = SchemeParams.from_lambda(tau=0.5, lam=0.6)
    for num_classes in (2, 3, 4):
        for g, s, field in _random_instances(5, num_classes, seed=500 + num_classes):
            result = multiclass_mass_conserving_step(field, g, s, params)
            drift = np.abs(result.class_masses_out - result.class_masses_in).max()
            assert drift <= 1e-9
            assert_allclose(result.class_masses_in, field.class_masses(), rtol=1e-12)


def test_mass_conserving_step_aims_at_the_given_class_masses():
    params = SchemeParams.from_lambda(tau=0.5, lam=0.6)
    g, s, field = _random_instances(1, 3, seed=503)[0]
    target = field.class_masses()[[1, 2, 0]]
    result = multiclass_mass_conserving_step(field, g, s, params, target_mass=target)
    assert_allclose(result.class_masses_out, target, rtol=1e-9)
    assert np.array_equal(result.class_masses_in, target)
    total = float(g.degrees_r.sum())
    for bad in (
        [total, 0.0],
        [total, 0.5, 0.0],
        [total + 1.0, -1.0, 0.0],
        [total, np.nan, 0.0],
    ):
        with pytest.raises(InfeasibleMasses):
            multiclass_mass_conserving_step(field, g, s, params, target_mass=bad)


def test_converged_runs_have_small_residual():
    params = SchemeParams.from_lambda(tau=0.4, lam=0.5)
    checked = 0
    for g, s, field in _random_instances(8, 3, seed=42):
        for stepper in (multiclass_step, multiclass_mass_conserving_step):
            result = stepper(field, g, s, params)
            if result.converged:
                checked += 1
                assert result.residual <= 1e-8
    assert checked >= 8


def test_mass_conserving_constants_identity():
    # class constants satisfy c_k = -λ · avg(f_k + β̃_k) at a converged
    # fixed point, so rebuilding the defect from that identity stays small
    params = SchemeParams.from_lambda(tau=0.4, lam=0.5)
    from graphphase import diffuse

    for g, s, field in _random_instances(5, 3, seed=77):
        result = multiclass_mass_conserving_step(field, g, s, params)
        if not result.converged:
            continue
        final = result.u_next.values
        diffused = np.column_stack(
            [diffuse(field.values[:, k], params.tau, s) for k in range(3)]
        )
        force = well_force(result.u_next, g)
        total = g.degrees_r.sum()
        avg = (force + result.subgradient).T @ g.degrees_r / total
        constants = -params.lam * avg
        defect = (
            final
            - diffused
            - params.lam * force
            - params.lam * result.subgradient
            - constants[None, :]
        )
        assert np.abs(defect).max() <= 1e-8


def test_two_class_reduction_mass_conserving():
    # K=2 columns (u, 1-u): the transportation polytope is the box with a
    # mass plane, so the fixed point is the two-class minimizer
    for lam in (0.2, 0.5, 0.8, 0.95):
        params = SchemeParams.from_lambda(tau=0.4, lam=lam)
        for g, s, field in _random_instances(5, 2, seed=int(lam * 100)):
            u0 = field.values[:, 0].copy()
            result = multiclass_mass_conserving_step(field, g, s, params)
            assert result.converged
            two_class = semi_discrete_step(u0, g, s, params)
            gap = np.abs(result.u_next.values[:, 0] - two_class.u_next).max()
            assert gap <= 1e-10


def test_two_class_reduction_plain():
    # without mass conservation the K=2 fixed point is the pointwise clamp
    # of (diffused - λ/2) / (1-λ)
    from graphphase import diffuse

    for lam in (0.2, 0.5, 0.8):
        params = SchemeParams.from_lambda(tau=0.4, lam=lam)
        for g, s, field in _random_instances(5, 2, seed=900 + int(lam * 10)):
            u0 = field.values[:, 0].copy()
            result = multiclass_step(field, g, s, params)
            assert result.converged
            diffused = diffuse(u0, params.tau, s)
            closed_form = np.clip((diffused - lam / 2) / (1.0 - lam), 0.0, 1.0)
            assert np.abs(result.u_next.values[:, 0] - closed_form).max() <= 1e-6


def test_plain_step_moves_mass_but_conserving_step_does_not():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    s = spectral_decompose(g)
    field = SimplexField(
        values=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), graph=g
    )
    params = SchemeParams.from_lambda(tau=0.6, lam=0.5)
    plain = multiclass_step(field, g, s, params)
    conserving = multiclass_mass_conserving_step(field, g, s, params)
    assert plain.converged and conserving.converged
    initial = mass(field.values[:, 0], g)
    assert abs(mass(conserving.u_next.values[:, 0], g) - initial) <= 1e-9
    assert abs(mass(plain.u_next.values[:, 0], g) - initial) > 1e-6


def test_graph_mismatch_rejected(p2, p2_spectrum, triangle):
    field = _uniform(triangle, 3)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    with pytest.raises(InconsistentInputs):
        multiclass_step(field, p2, p2_spectrum, params)
    with pytest.raises(InconsistentInputs):
        multi_obstacle_energy(field, p2, 1.0)


def test_bare_matrix_rejected(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    with pytest.raises(InconsistentInputs, match="expected a SimplexField"):
        multiclass_step(np.full((2, 2), 0.5), p2, p2_spectrum, params)


def test_negative_start_rejected(p2, p2_spectrum):
    field = SimplexField(values=np.array([[-0.2, 1.2], [0.5, 0.5]]), graph=p2)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    for stepper in (multiclass_step, multiclass_mass_conserving_step):
        with pytest.raises(DomainViolation):
            stepper(field, p2, p2_spectrum, params)
