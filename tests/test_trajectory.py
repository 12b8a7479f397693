"""Trajectory runs, lambda sweeps, and step-size refinement reports."""

import math
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphphase import (
    DomainViolation,
    Graph,
    GraphTooLarge,
    InconsistentInputs,
    LambdaIsOne,
    SchemeParams,
    SimplexField,
    TauExceedsEpsilon,
    build_graph,
    converge_tau,
    ginzburg_landau,
    mbo_step,
    norm,
    run_multiclass_trajectory,
    run_trajectory,
    semi_discrete_step,
    spectral_decompose,
    sweep_lambda,
)
from graphphase import scheme, trajectory
from graphphase.oracles import random_connected_graph
from references import dense_spectrum

TAU_P2 = 0.5 * math.log(2.0)


def test_constant_state_fixes_immediately(triangle):
    s = spectral_decompose(triangle)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    traj = run_trajectory(np.full(3, 0.4), triangle, s, params, max_steps=50)
    assert traj.terminated_reason == "fixed_point"
    assert traj.num_steps == 1
    assert len(traj.log) == 2
    assert_allclose(traj.final_state, 0.4, atol=1e-12)


def test_threshold_fixed_point_on_edge(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=TAU_P2, lam=1.0)
    traj = run_trajectory(
        np.array([1.0, 0.0]), p2, p2_spectrum, params, max_steps=25
    )
    assert traj.terminated_reason == "fixed_point"
    assert traj.num_steps == 1
    assert np.all(traj.final_state == np.array([1.0, 0.0]))
    # threshold multiplier logged as the scalar column
    assert traj.log[1].multiplier == pytest.approx(0.75, rel=1e-12)
    assert traj.log[0].max_change is None
    assert traj.log[0].multiplier is None


def test_log_columns_and_mass_constancy():
    rng = np.random.default_rng(5)
    g = random_connected_graph(10, rng, r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=10)
    params = SchemeParams.from_lambda(tau=0.25, lam=0.5)
    traj = run_trajectory(u0, g, s, params, max_steps=60)
    masses = np.array([entry.mass for entry in traj.log])
    assert np.abs(masses / masses[0] - 1.0).max() <= 1e-9
    H = np.array([entry.H for entry in traj.log])
    assert np.all(np.diff(H) <= 1e-9)
    # squared-change partial sums stay bounded by the initial Lyapunov value
    changes = [
        norm(b - a, g) ** 2 for a, b in zip(traj.states, traj.states[1:])
    ]
    assert (1.0 - params.lam) * sum(changes) <= H[0] + 1e-9
    assert traj.log[-1].H_tau >= 0.0


def test_trajectory_rejects_bad_inputs(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    with pytest.raises(DomainViolation):
        run_trajectory(np.array([1.5, 0.0]), p2, p2_spectrum, params, max_steps=1)
    with pytest.raises(ValueError):
        run_trajectory(np.array([1.0, 0.0]), p2, p2_spectrum, params, max_steps=-1)


def test_snapshot_stride_keeps_ends(p2, p2_spectrum, monkeypatch):
    # growing interior mode: no fixed point inside the 7-step budget; 8
    # states of 2 entries over a budget of 6 entries make the stride 3
    monkeypatch.setattr(trajectory, "STATE_BUDGET", 6)
    params = SchemeParams.from_lambda(tau=0.01, lam=0.2)
    u0 = np.array([0.6, 0.4])
    traj = run_trajectory(u0, p2, p2_spectrum, params, max_steps=7)
    assert traj.state_stride == 3
    assert len(traj.log) == 8
    # stored: step 0, 3, 6, and the final step 7
    assert len(traj.states) == 4
    assert_allclose(traj.states[0], u0, atol=0)


@pytest.mark.parametrize("lam", [0.4, 1.0])
def test_trajectory_diffuses_each_state_once(monkeypatch, lam):
    rng = np.random.default_rng(8)
    g = random_connected_graph(12, rng, r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=12)
    params = SchemeParams.from_lambda(tau=0.3, lam=lam)
    calls = []
    diffuse = scheme.diffuse

    def counted(*args, **kwargs):
        calls.append(args[1])
        return diffuse(*args, **kwargs)

    monkeypatch.setattr(scheme, "diffuse", counted)
    traj = run_trajectory(u0, g, s, params, max_steps=5, fixed_point_tol=-1.0)
    # a state that repeats its predecessor bit for bit keeps its diffusion:
    # the threshold run settles at once and repeats, the relaxed one moves
    new = [a.tobytes() != b.tobytes() for a, b in zip(traj.states, traj.states[1:])]
    assert len(new) == 5 and all(new) == (lam < 1.0)
    assert calls == [params.tau] * (1 + sum(new))
    # the shared diffusion gives the steps exactly what their own would,
    # each step aiming at the starting mass
    monkeypatch.setattr(scheme, "diffuse", diffuse)
    current = traj.states[0]
    target = traj.log[0].mass
    for state in traj.states[1:]:
        if lam == 1.0:
            current = mbo_step(current, g, s, params.tau, target_mass=target).u_next
        else:
            current = semi_discrete_step(
                current, g, s, params, target_mass=target
            ).u_next
        assert np.array_equal(state, current)


@pytest.mark.parametrize("seed, lam, repeats", [
    (8, 1.0, True), (8, 0.6, True), (15, 0.6, False),
])
def test_run_ending_on_a_repeated_state_diffuses_it_once(monkeypatch, seed,
                                                        lam, repeats):
    # the last step of a run that stops on a fixed point returns its input
    # bit for bit (unless the relaxed change is only below 1e-12): that state
    # was diffused for its own log entry, and its diagnostics are reused
    rng = np.random.default_rng(seed)
    g = random_connected_graph(30, rng, r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=30)
    params = SchemeParams.from_lambda(tau=0.3, lam=lam)
    calls = []
    diffuse = scheme.diffuse

    def counted(*args, **kwargs):
        calls.append(None)
        return diffuse(*args, **kwargs)

    monkeypatch.setattr(scheme, "diffuse", counted)
    traj = run_trajectory(u0, g, s, params, max_steps=50)
    monkeypatch.setattr(scheme, "diffuse", diffuse)
    assert traj.terminated_reason == "fixed_point"
    steps = traj.num_steps
    assert steps >= 3
    last, before = traj.states[-1], traj.states[-2]
    assert (last.tobytes() == before.tobytes()) == repeats
    assert len(calls) == steps + (not repeats)
    # the reused entry is the one the state's own diagnostics give
    H, H_tau = scheme.lyapunov_energy(last, g, s, params)
    GL = scheme.ginzburg_landau(last, g, params.epsilon)
    assert traj.log[-1][2:5] == (H, H_tau, GL)


def test_sweep_locks_onto_threshold_step(p2, p2_spectrum):
    rows = sweep_lambda(
        np.array([1.0, 0.0]), p2, p2_spectrum, TAU_P2, [0.9, 0.99, 0.999]
    )
    assert [row.lam for row in rows] == [0.9, 0.99, 0.999]
    for row in rows:
        assert row.sup_distance_to_mbo <= 1e-12


def test_sweep_constant_and_tied_states(p2, p2_spectrum, triangle):
    rows = sweep_lambda(
        np.full(3, 0.7), triangle, spectral_decompose(triangle), 0.4, [0.2, 0.8]
    )
    for row in rows:
        assert row.sup_distance_to_mbo <= 1e-12
    # symmetric tie splits the threshold level uniformly at every lambda
    rows = sweep_lambda(
        np.array([0.5, 0.5]), p2, p2_spectrum, TAU_P2, [0.3, 0.6, 0.95]
    )
    for row in rows:
        assert row.sup_distance_to_mbo <= 1e-12


def test_sweep_distance_decreases_with_lambda():
    rng = np.random.default_rng(21)
    g = random_connected_graph(7, rng, r=0.0)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=7)
    lambdas = [0.05, 0.5, 1.0 - 2.0**-20]
    rows = sweep_lambda(u0, g, s, 0.35, lambdas)
    distances = [row.sup_distance_to_mbo for row in rows]
    assert distances[-1] <= 1e-12
    assert distances[0] >= distances[-1]
    # one shared diffusion and grouping gives what separate steps give
    reference = mbo_step(u0, g, s, 0.35).u_next
    for lam, distance in zip(lambdas, distances):
        params = SchemeParams.from_lambda(tau=0.35, lam=lam)
        out = semi_discrete_step(u0, g, s, params).u_next
        assert distance == float(np.abs(out - reference).max())


def test_sweep_rows_are_the_public_steps_distances():
    # a lambda grid up to the ladder near 1: every row is the distance
    # between the public steps, bit for bit; six leaves on one vertex with
    # one weight and one start value diffuse to exactly equal values, so the
    # grouping takes its stable sort
    rng = np.random.default_rng(22)
    base = random_connected_graph(80, rng, r=0.5)
    leaves = [(0, v, 1.0) for v in range(80, 86)]
    g = build_graph(86, [*base.edges, *leaves], r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=86)
    u0[80:] = 0.5
    assert len(set(scheme.diffuse(u0, 0.1, s)[80:])) == 1
    lambdas = [k / 9 for k in range(1, 9)] + [1.0 - 2.0**-j for j in range(4, 31, 2)]
    rows = sweep_lambda(u0, g, s, 0.1, lambdas)
    reference = mbo_step(u0, g, s, 0.1).u_next
    locked = 0
    for lam, row in zip(lambdas, rows):
        params = SchemeParams.from_lambda(tau=0.1, lam=lam)
        out = semi_discrete_step(u0, g, s, params).u_next
        assert row == (lam, float(np.abs(out - reference).max()))
        locked += row.sup_distance_to_mbo == 0.0
    assert 0 < locked < len(lambdas)


@pytest.mark.parametrize("start", ["zero", "low", "high", "one"])
def test_sweep_rows_with_the_threshold_level_at_an_end(start):
    # a mass at or near 0 or the total puts the threshold level the sweep
    # reads its distance around at the top or the bottom level, or makes one
    # level: each row is still the public steps' distance bit for bit
    rng = np.random.default_rng(27)
    g = random_connected_graph(40, rng, r=0.5)
    s = spectral_decompose(g)
    scale = rng.uniform(0.0, 1.0, size=40)
    u0 = {"zero": 0.0 * scale, "low": 1e-3 * scale, "high": 1.0 - 1e-3 * scale,
          "one": 0.0 * scale + 1.0}[start]
    lambdas = [0.2, 0.6, 0.95, 1.0 - 2.0**-30]
    rows = sweep_lambda(u0, g, s, 0.2, lambdas)
    reference = mbo_step(u0, g, s, 0.2).u_next
    for lam, row in zip(lambdas, rows):
        params = SchemeParams.from_lambda(tau=0.2, lam=lam)
        out = semi_discrete_step(u0, g, s, params).u_next
        assert row == (lam, float(np.abs(out - reference).max()))


def test_seeded_sweep_takes_any_lambda_order():
    # unsorted, repeated (also back to back) and subnormal lambdas: each row
    # is the public step's distance bit for bit, the line through the last
    # two multipliers never divides by zero, and nothing warns
    rng = np.random.default_rng(24)
    g = random_connected_graph(120, rng, r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=120)
    lambdas = [0.9, 0.1, 0.9, 0.5, 0.5, 0.7, 5e-324, 1e-300, 5e-324, 5e-324,
               0.3, 1e-300, 0.999, 1.0 - 2.0**-30, 0.1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sweep_lambda(u0, g, s, 0.1, lambdas)
        reference = mbo_step(u0, g, s, 0.1).u_next
        for lam, row in zip(lambdas, rows):
            params = SchemeParams.from_lambda(tau=0.1, lam=lam)
            out = semi_discrete_step(u0, g, s, params).u_next
            assert row == (lam, float(np.abs(out - reference).max()))


def test_sweep_refuses_where_the_step_refuses(monkeypatch):
    # a solve whose multiplier is off by 0.3 at one lambda: the sweep checks
    # each lambda's step and refuses it with the public step's message
    rng = np.random.default_rng(26)
    g = random_connected_graph(60, rng, r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=60)
    bad = 0.5
    lambdas = [0.25, bad, 0.9]
    sweep_lambda(u0, g, s, 0.1, lambdas)  # certified as solved
    solve = scheme._solve_profile

    def shifted(levels, target, lam, hint=None):
        nu, lo, hi, values = solve(levels, target, lam, hint)
        return (nu + 0.3 if lam == bad else nu), lo, hi, values

    monkeypatch.setattr(scheme, "_solve_profile", shifted)
    params = SchemeParams.from_lambda(tau=0.1, lam=bad)
    with pytest.raises(InconsistentInputs) as step_error:
        semi_discrete_step(u0, g, s, params)
    with pytest.raises(InconsistentInputs) as sweep_error:
        sweep_lambda(u0, g, s, 0.1, lambdas)
    assert str(sweep_error.value) == str(step_error.value)
    assert "subgradient" in str(step_error.value)
    sweep_lambda(u0, g, s, 0.1, [lam for lam in lambdas if lam != bad])


def test_multiplier_hint_never_changes_the_step():
    rng = np.random.default_rng(25)
    g = random_connected_graph(60, rng, r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=60)
    for lam in (5e-324, 0.3, 0.9, 0.999):
        params = SchemeParams.from_lambda(tau=0.1, lam=lam)
        cold = semi_discrete_step(u0, g, s, params)
        for hint in (cold.multiplier, -3.0, 0.42, math.inf, math.nan):
            warm = semi_discrete_step(u0, g, s, params, multiplier_hint=hint)
            assert warm.u_next.tobytes() == cold.u_next.tobytes()
            assert warm.subgradient.tobytes() == cold.subgradient.tobytes()
            assert (warm.multiplier, warm.residual) == (cold.multiplier, cold.residual)


@pytest.mark.parametrize("lam", [0.25, 1.0])
def test_run_checks_inputs_at_public_entry_only(monkeypatch, lam):
    # the run loop's steps and diagnostics each check what they are handed,
    # and their bodies check nothing again: at most 6 calls a step
    rng = np.random.default_rng(23)
    g = random_connected_graph(50, rng, r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=50)
    params = SchemeParams.from_lambda(tau=0.1 if lam < 1.0 else 2.0, lam=lam)
    calls = []
    check = Graph.check_field

    def counted(self, u):
        calls.append(None)
        return check(self, u)

    monkeypatch.setattr(Graph, "check_field", counted)
    traj = run_trajectory(u0, g, s, params, max_steps=20, fixed_point_tol=-1.0)
    assert traj.num_steps == 20
    assert len(calls) <= 6 * traj.num_steps


def test_sweep_validates_lambda(p2, p2_spectrum):
    u0 = np.array([1.0, 0.0])
    with pytest.raises(LambdaIsOne):
        sweep_lambda(u0, p2, p2_spectrum, 0.3, [0.5, 1.0])
    with pytest.raises(ValueError):
        sweep_lambda(u0, p2, p2_spectrum, 0.3, [0.0, 0.5])
    with pytest.raises(ValueError, match="lambda"):
        sweep_lambda(u0, p2, p2_spectrum, 0.3, [])


@pytest.mark.parametrize("tau", [0.0, -1e-3, math.inf, math.nan])
def test_sweep_refuses_a_bad_tau(p2, p2_spectrum, tau):
    with pytest.raises(ValueError, match="tau"):
        sweep_lambda(np.array([1.0, 0.0]), p2, p2_spectrum, tau, [0.5])


@pytest.mark.parametrize("lam", [math.nan, 0.0, -0.5])
def test_sweep_refuses_a_lambda_at_or_below_zero(p2, p2_spectrum, lam):
    # NaN fails every comparison, so it is refused by "not lam > 0"
    with pytest.raises(ValueError, match="lambda"):
        sweep_lambda(np.array([1.0, 0.0]), p2, p2_spectrum, 0.3, [0.5, lam])


@pytest.mark.parametrize("lam", [1.0, 1.5, math.inf])
def test_sweep_refuses_a_lambda_at_or_above_one(p2, p2_spectrum, lam):
    with pytest.raises(LambdaIsOne):
        sweep_lambda(np.array([1.0, 0.0]), p2, p2_spectrum, 0.3, [0.5, lam])


def test_sweep_takes_a_tau_whose_interface_width_rounds(p2, p2_spectrum):
    # tau / 0.9 rounds back to tau at the smallest subnormal, so tau divided
    # by that interface width reads lambda 1; the row is still the public
    # step's distance
    u0 = np.array([1.0, 0.0])
    rows = sweep_lambda(u0, p2, p2_spectrum, 5e-324, [0.9])
    assert len(rows) == 1
    assert rows[0].lam == 0.9
    assert math.isfinite(rows[0].sup_distance_to_mbo)
    params = SchemeParams.from_lambda(tau=5e-324, lam=0.9)
    out = semi_discrete_step(u0, p2, p2_spectrum, params).u_next
    reference = mbo_step(u0, p2, p2_spectrum, 5e-324).u_next
    assert rows[0].sup_distance_to_mbo == float(np.abs(out - reference).max())


def test_sweep_leaves_an_overflowing_tau_to_diffusion(p2, p2_spectrum):
    # tau / 0.5 overflows, but the limit the sweep meets is diffusion's
    with pytest.raises(GraphTooLarge):
        sweep_lambda(np.array([1.0, 0.0]), p2, p2_spectrum, 1.7e308, [0.5])


def test_converge_tau_constant_state(triangle):
    s = spectral_decompose(triangle)
    report = converge_tau(
        np.full(3, 0.5), triangle, s, epsilon=1.0, t_final=0.5,
        taus=[1e-2, 5e-3, 2.5e-3],
    )
    assert report.matched_distances == (0.0, 0.0)
    assert report.gl_max_rise <= 1e-15
    assert report.lipschitz_quotient == 0.0
    assert report.hoelder_ratio == 0.0


def test_converge_tau_edge_self_convergence(p2, p2_spectrum):
    report = converge_tau(
        np.array([1.0, 0.0]), p2, p2_spectrum, epsilon=1.0, t_final=1.0,
        taus=[1e-2, 5e-3, 2.5e-3],
    )
    assert report.step_counts == (100, 200, 400)
    for ratio in report.distance_ratios:
        assert 1.5 <= ratio <= 3.0
    assert report.gl_max_rise <= 1e-8
    assert report.gl_step_min_slack >= -1e-8
    assert report.lipschitz_quotient <= report.lipschitz_bound
    assert report.hoelder_ratio <= 1.0 + 1e-9
    # the Lyapunov-vs-energy gap is controlled spectrally and shrinks with tau
    for gap, bound in zip(report.energy_gaps, report.energy_gap_bounds):
        assert gap <= bound + 1e-12
    assert report.energy_gap_bounds[-1] <= 0.6 * report.energy_gap_bounds[0]


def test_converge_tau_samples_a_t_final_off_the_coarse_grid(p2, p2_spectrum):
    # 0.5 is no multiple of the coarsest step 0.2: the grid takes the
    # multiples 0, 0.2 and 0.4, then t_final itself, where the coarse run,
    # one step past it at 0.6, gives its last state
    u0 = np.array([1.0, 0.0])
    taus = (0.2, 0.1, 0.05)
    report = converge_tau(u0, p2, p2_spectrum, epsilon=1.0, t_final=0.5,
                          taus=taus)
    assert report.grid_times == (0.0, 0.2, 0.4, 0.5)
    assert report.step_counts == (3, 5, 10)
    finals = [
        run_trajectory(
            u0, p2, p2_spectrum, SchemeParams.from_epsilon(epsilon=1.0, tau=tau),
            max_steps=steps, fixed_point_tol=0.0,
        ).states[steps]
        for tau, steps in zip(taus, report.step_counts)
    ]
    assert [row[-1] for row in report.matched_distance_matrix] == [
        float(np.abs(a - b).max()) for a, b in zip(finals, finals[1:])
    ]
    assert report.gl_grid_values[-1] == ginzburg_landau(finals[-1], p2, 1.0)


def test_converge_tau_refuses_decimated_runs(monkeypatch):
    rng = np.random.default_rng(3)
    g = random_connected_graph(20, rng, r=0.5)
    s = spectral_decompose(g)
    u0 = rng.uniform(0.0, 1.0, size=20)
    # the finest run needs 20 * 401 = 8020 state entries
    monkeypatch.setattr(trajectory, "STATE_BUDGET", 8_000)
    with pytest.raises(GraphTooLarge):
        converge_tau(
            u0, g, s, epsilon=1.0, t_final=1.0, taus=[1e-2, 5e-3, 2.5e-3]
        )


def test_converge_tau_validation(p2, p2_spectrum):
    u0 = np.array([1.0, 0.0])
    with pytest.raises(TauExceedsEpsilon):
        converge_tau(u0, p2, p2_spectrum, epsilon=0.05, t_final=1.0, taus=[0.1])
    with pytest.raises(ValueError):
        converge_tau(u0, p2, p2_spectrum, epsilon=1.0, t_final=0.0, taus=[0.1])
    with pytest.raises(ValueError):
        converge_tau(
            u0, p2, p2_spectrum, epsilon=1.0, t_final=1.0, taus=[0.1, 0.2]
        )
    with pytest.raises(ValueError):
        converge_tau(u0, p2, p2_spectrum, epsilon=1.0, t_final=1.0, taus=[])
    # an infinite t_final overflowed the step count and a NaN tau failed to
    # convert it; both are refused by name before any run
    for t_final, taus, named in [
        (math.inf, [0.2, 0.1], "t_final"),
        (math.nan, [0.2, 0.1], "t_final"),
        (1.0, [0.2, math.nan], "step sizes"),
        (1.0, [math.inf, 0.1], "step sizes"),
    ]:
        with pytest.raises(ValueError, match=named):
            converge_tau(u0, p2, p2_spectrum, epsilon=1.0, t_final=t_final,
                         taus=taus)


def test_converge_tau_grid_points_beyond_the_ticks_are_free(
    p2, p2_spectrum, monkeypatch
):
    # t_final / tau_0 = 5 gives six distinct sample times however many grid
    # points are asked for; 1e8 of them took 25 s of set comprehension
    u0 = np.array([1.0, 0.0])
    kwargs = dict(epsilon=1.0, t_final=1.0, taus=[0.2, 0.1])
    monkeypatch.setattr(trajectory, "GRID_POINTS", 6)
    exact = converge_tau(u0, p2, p2_spectrum, **kwargs)
    monkeypatch.setattr(trajectory, "GRID_POINTS", 10**8)
    start = time.perf_counter()
    many = converge_tau(u0, p2, p2_spectrum, **kwargs)
    elapsed = time.perf_counter() - start
    assert repr(many) == repr(exact)
    assert len(many.grid_times) == 6
    assert elapsed < 5.0


def test_multiclass_trajectory_runs(triangle):
    s = spectral_decompose(triangle)
    values = np.array([[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]])
    field = SimplexField(values=values, graph=triangle)
    params = SchemeParams.from_lambda(tau=0.2, lam=0.4)
    traj = run_multiclass_trajectory(field, triangle, s, params, max_steps=8)
    assert traj.converged
    assert traj.log[0].H is None and traj.log[0].H_tau is None
    masses = [entry.mass for entry in traj.log]
    # total measure never moves, even though classes exchange mass
    assert np.abs(np.array(masses) - 3.0).max() <= 1e-9
    assert all(isinstance(state, SimplexField) for state in traj.states)
    assert traj.final_state.in_sigma()
    energies = [entry.GL for entry in traj.log]
    assert all(math.isfinite(value) for value in energies)


def test_multiclass_trajectory_fixed_point(p2, p2_spectrum):
    field = SimplexField(values=np.full((2, 2), 0.5), graph=p2)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    traj = run_multiclass_trajectory(field, p2, p2_spectrum, params, max_steps=10)
    assert traj.terminated_reason == "fixed_point"
    assert traj.num_steps == 1


@pytest.mark.parametrize("tau", [0.01, 0.005, 0.0025, 0.00125])
def test_quadratic_remainder_matches_dense_form(tau):
    # the two instances of acceptance test a09
    rng = np.random.default_rng(20240817)
    g20 = random_connected_graph(
        20, rng, r=0.0, extra_edges=6, weight_range=(0.05, 0.3)
    )
    cases = [
        (build_graph(2, [(0, 1, 1.0)]), np.array([1.0, 0.0])),
        (g20, rng.uniform(0.0, 1.0, size=20)),
    ]
    for g, u in cases:
        dense = dense_spectrum(g)
        coeffs = dense.phi.T @ (dense.scale_fwd * u)
        mu = dense.eigenvalues
        expected = ((np.expm1(-tau * mu) + tau * mu) / tau**2) @ coeffs**2
        got = trajectory._quadratic_remainder(u, tau, g, spectral_decompose(g))
        assert_allclose(got, expected, rtol=1e-9)


def test_threshold_runs_stop_right_after_they_settle():
    # the lambda = 1 runs of acceptance test a01: every step targets the
    # starting mass, so the first step that leaves the state in place ends
    # the run; with each step re-reading its input's mass, rounding-size
    # mass changes kept the r = 1 run moving for all 1000 steps
    rng = np.random.default_rng(20240817)
    for r in (0.0, 0.5, 1.0):
        g = random_connected_graph(50, rng, r=r)
        u0 = rng.uniform(0.0, 1.0, size=50)
        params = SchemeParams.from_lambda(tau=0.1, lam=1.0)
        traj = run_trajectory(u0, g, spectral_decompose(g), params,
                              max_steps=1000, fixed_point_tol=0.0)
        changes = [entry.max_change for entry in traj.log[1:]]
        assert traj.terminated_reason == "fixed_point"
        assert changes[-1] == 0.0
        assert all(change > 0.0 for change in changes[:-1])
