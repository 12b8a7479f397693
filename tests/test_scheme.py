import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphphase import (
    DomainViolation,
    InconsistentInputs,
    LambdaIsOne,
    MassOutOfRange,
    MboMultiplier,
    SchemeParams,
    average,
    build_graph,
    diffuse,
    dirichlet_energy,
    dual_certificate,
    ginzburg_landau,
    inner_product,
    lyapunov_energy,
    mass,
    mbo_step,
    norm,
    random_connected_graph,
    run_trajectory,
    semi_discrete_step,
    spectral_decompose,
    threshold_levels,
)
from graphphase import scheme
from graphphase.scheme import GROUP_TOL
from references import mbo_is_unique

TAU_P2 = 0.5 * math.log(2.0)  # diffuses (1, 0) to (0.75, 0.25) on the edge graph


def _random_cases(num, max_vertices=8, seed=0):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(num):
        n = int(rng.integers(3, max_vertices + 1))
        r = float(rng.choice([0.0, 0.5, 1.0]))
        g = random_connected_graph(n, rng, r=r)
        u0 = rng.random(n)
        tau = float(rng.uniform(0.05, 0.5))
        cases.append((g, spectral_decompose(g), u0, tau))
    return cases


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(epsilon=1.0, tau=0.0, lam=0.0)
    with pytest.raises(ValueError):
        SchemeParams(epsilon=-1.0, tau=0.1, lam=0.1)
    with pytest.raises(ValueError):
        SchemeParams(epsilon=1.0, tau=0.1, lam=0.2)  # tau/epsilon is 0.1
    with pytest.raises(ValueError):
        SchemeParams.from_epsilon(epsilon=0.5, tau=1.0)  # lam above 1
    with pytest.raises(ValueError):
        SchemeParams.from_lambda(tau=0.1, lam=1.5)


def test_params_constructors():
    p = SchemeParams.from_epsilon(epsilon=2.0, tau=1.0)
    assert p.lam == 0.5
    p = SchemeParams.from_epsilon(epsilon=math.inf, tau=1.0)
    assert p.lam == 0.0
    p = SchemeParams.from_lambda(tau=1.0, lam=0.0)
    assert math.isinf(p.epsilon)
    lam = 1.0 - 2.0**-40
    assert SchemeParams.from_lambda(tau=0.3, lam=lam).lam == lam


@pytest.mark.parametrize("tau", [5e-324, 1.5e-323, 1e-310, 3e-308])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.7, 0.9, 1.0 - 2.0**-40])
def test_from_lambda_takes_a_subnormal_tau(tau, lam):
    # tau / (tau / lam) can round far from lam down here, as at
    # tau = 5e-324, lam = 0.9, where the interface width rounds back to tau
    p = SchemeParams.from_lambda(tau=tau, lam=lam)
    assert (p.tau, p.lam) == (tau, lam)


def test_threshold_levels_groups_ties(triangle_r1):
    levels = threshold_levels(np.array([0.9, 0.9, 0.3]), triangle_r1)
    assert_allclose(levels.values, [0.3, 0.9])
    assert_allclose(levels.weights, [2.0, 4.0])
    assert list(levels.labels) == [1, 1, 0]
    assert list(np.bincount(levels.labels)) == [1, 2]


def test_threshold_levels_tolerance_keeps_smallest_member(triangle_r1):
    u = np.array([0.5, 0.5 + 5e-13, 0.1])
    levels = threshold_levels(u, triangle_r1)
    assert levels.num_levels == 2
    assert levels.values[1] == 0.5  # representative is the smallest member
    # gaps below GROUP_TOL chain into one level, though its ends lie further
    # apart than GROUP_TOL; a wider gap starts a new level
    chain = np.array([0.5 + 1.2 * GROUP_TOL, 0.5, 0.5 + 0.6 * GROUP_TOL])
    levels = threshold_levels(chain, triangle_r1)
    assert levels.num_levels == 1
    assert levels.values[0] == 0.5
    assert list(levels.labels) == [0, 0, 0]
    apart = np.array([0.5 + 2.4 * GROUP_TOL, 0.5, 0.5 + 1.2 * GROUP_TOL])
    assert threshold_levels(apart, triangle_r1).num_levels == 3


@pytest.mark.parametrize("group_tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_bad_group_tol_is_rejected(triangle_r1, group_tol):
    # the tie tolerance is the constant GROUP_TOL: neither the grouping nor
    # the steps take another, in any spelling
    g = triangle_r1
    s = spectral_decompose(g)
    u = np.array([0.9, 0.9, 0.3])
    with pytest.raises(TypeError):
        threshold_levels(u, g, group_tol)
    with pytest.raises(TypeError):
        threshold_levels(u, g, group_tol=group_tol)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    with pytest.raises(TypeError):
        semi_discrete_step(u, g, s, params, group_tol=group_tol)
    with pytest.raises(TypeError):
        mbo_step(u, g, s, 0.3, group_tol)


def test_threshold_levels_strictly_ascending(random_graphs_with_spectra):
    rng = np.random.default_rng(3)
    for g, s in random_graphs_with_spectra:
        levels = threshold_levels(diffuse(rng.random(g.num_vertices), 0.2, s), g)
        assert np.all(np.diff(levels.values) > 0)
        assert_allclose(levels.weights.sum(), g.degrees_r.sum(), rtol=1e-14)


def _two_level_fixture():
    g = build_graph(2, [(0, 1, 1.0)])
    levels = threshold_levels(np.array([0.75, 0.25]), g)
    return levels


def test_solve_multiplier_two_levels():
    levels = _two_level_fixture()
    nu, lo, hi, _ = scheme._solve_profile(levels, 1.0, 0.5)
    assert nu == 0.25
    assert lo == hi == 0.25


def test_solve_multiplier_lambda_zero():
    levels = _two_level_fixture()
    # with lam = 0 the balance holds at nu = 0 and the state is untouched
    nu, lo, hi, _ = scheme._solve_profile(levels, 1.0, 0.0)
    assert nu == 0.0
    assert lo <= 0.0 <= hi


def test_solve_multiplier_constant_level():
    g = build_graph(2, [(0, 1, 1.0)])
    levels = threshold_levels(np.array([0.6, 0.6]), g)
    nu, _, _, _ = scheme._solve_profile(levels, 1.2, 0.5)
    assert_allclose(nu, 0.5 * 0.6, rtol=1e-14)


def test_solve_multiplier_full_mass_interval():
    g = build_graph(2, [(0, 1, 1.0)])
    levels = threshold_levels(np.array([1.0, 1.0]), g)
    nu, lo, hi, _ = scheme._solve_profile(levels, 2.0, 0.5)
    assert_allclose(nu, 0.25, rtol=1e-14)  # midpoint of [0, lam]
    # the interval before clipping into [0, lam]: every nu up to hi fills all
    assert lo == -math.inf and hi == 0.5


def test_multiplier_stays_in_scaled_value_range(random_graphs_with_spectra):
    # for masses strictly between empty and full, nu lies in lam * [min, max]
    rng = np.random.default_rng(5)
    for g, s in random_graphs_with_spectra:
        for lam in (0.1, 0.5, 0.9, 0.999):
            u0 = rng.random(g.num_vertices)
            diffused = diffuse(u0, 0.3, s)
            levels = threshold_levels(diffused, g)
            nu, lo, hi, _ = scheme._solve_profile(levels, mass(u0, g), lam)
            assert nu >= lam * levels.values[0] - 1e-12
            assert nu <= lam * levels.values[-1] + 1e-12
            assert lo - 1e-15 <= nu <= hi + 1e-15


def test_balance_equation_holds_at_solution(random_graphs_with_spectra):
    rng = np.random.default_rng(9)
    for g, s in random_graphs_with_spectra:
        for lam in (0.2, 0.7):
            u0 = rng.random(g.num_vertices)
            diffused = diffuse(u0, 0.25, s)
            levels = threshold_levels(diffused, g)
            target = mass(u0, g)
            nu, _, _, _ = scheme._solve_profile(levels, target, lam)
            filled = np.clip((levels.values - nu) / (1.0 - lam), 0.0, 1.0)
            assert_allclose(filled @ levels.weights, target, rtol=1e-9)


def test_semi_discrete_step_edge_graph(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=TAU_P2, lam=0.5)
    result = semi_discrete_step(np.array([1.0, 0.0]), p2, p2_spectrum, params)
    assert_allclose(result.u_next, [1.0, 0.0], atol=1e-12)
    assert_allclose(result.multiplier, 0.25, atol=1e-12)
    assert_allclose(result.subgradient, [0.0, 0.0], atol=1e-12)
    assert result.residual <= 1e-12
    assert result.mass_in == 1.0
    assert_allclose(result.mass_out, 1.0, rtol=1e-12)


def test_semi_discrete_step_lambda_zero_is_diffusion(random_graphs_with_spectra):
    rng = np.random.default_rng(13)
    for g, s in random_graphs_with_spectra:
        u0 = rng.random(g.num_vertices)
        params = SchemeParams.from_lambda(tau=0.4, lam=0.0)
        result = semi_discrete_step(u0, g, s, params)
        assert_allclose(result.u_next, diffuse(u0, 0.4, s), rtol=0, atol=1e-15)
        assert result.multiplier == 0.0
        assert_allclose(result.subgradient, 0.0, atol=0)


def test_semi_discrete_step_fixes_constants(random_graphs_with_spectra):
    for g, s in random_graphs_with_spectra:
        c = 0.37
        params = SchemeParams.from_lambda(tau=0.2, lam=0.6)
        result = semi_discrete_step(c * np.ones(g.num_vertices), g, s, params)
        assert_allclose(result.u_next, c, rtol=0, atol=1e-12)
        assert_allclose(result.multiplier, 0.6 * c, rtol=1e-12)


def test_semi_discrete_step_conserves_mass_and_box():
    for g, s, u0, tau in _random_cases(24, seed=17):
        for lam in (0.1, 0.5, 0.9):
            params = SchemeParams.from_lambda(tau=tau, lam=lam)
            result = semi_discrete_step(u0, g, s, params)
            assert_allclose(result.mass_out, result.mass_in, rtol=1e-12)
            assert result.u_next.min() >= 0.0
            assert result.u_next.max() <= 1.0
            assert result.residual <= 1e-9


def test_semi_discrete_step_respects_symmetry():
    # the 4-cycle swaps opposite vertices; a symmetric state stays symmetric
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    s = spectral_decompose(g)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.7)
    result = semi_discrete_step(np.array([0.9, 0.2, 0.9, 0.2]), g, s, params)
    assert result.u_next[0] == result.u_next[2]
    assert result.u_next[1] == result.u_next[3]


def test_semi_discrete_step_minimizes_objective():
    for g, s, u0, tau in _random_cases(12, seed=19):
        for lam in (0.3, 0.8):
            params = SchemeParams.from_lambda(tau=tau, lam=lam)
            diffused = diffuse(np.clip(u0, 0.0, 1.0), tau, s)

            def objective(v):
                return (1.0 - lam) * inner_product(v, v, g) - 2.0 * inner_product(
                    v, diffused, g
                )

            u_next = semi_discrete_step(u0, g, s, params).u_next
            base = objective(u_next)
            # feasible competitors: blends with the start, threshold profiles
            competitors = [np.clip(u0, 0.0, 1.0), mbo_step(u0, g, s, tau).u_next]
            competitors += [0.5 * u_next + 0.5 * c for c in competitors]
            for v in competitors:
                assert base <= objective(v) + 1e-9


def test_semi_discrete_step_rejects_bad_input(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=0.1, lam=1.0)
    with pytest.raises(LambdaIsOne):
        semi_discrete_step(np.array([1.0, 0.0]), p2, p2_spectrum, params)
    params = SchemeParams.from_lambda(tau=0.1, lam=0.5)
    with pytest.raises(DomainViolation):
        semi_discrete_step(np.array([1.5, -0.5]), p2, p2_spectrum, params)


def test_mbo_step_edge_graph(p2, p2_spectrum):
    result = mbo_step(np.array([1.0, 0.0]), p2, p2_spectrum, TAU_P2)
    assert_allclose(result.u_next, [1.0, 0.0], atol=0)
    assert isinstance(result.multiplier, MboMultiplier)
    assert_allclose(result.multiplier.threshold, 0.75, rtol=1e-12)
    assert result.multiplier.fill == 1.0
    assert_allclose(result.subgradient, [0.0, 0.5], atol=1e-12)
    assert result.residual <= 1e-12


def test_mbo_step_triangle_fixed_point(triangle):
    s = spectral_decompose(triangle)
    result = mbo_step(np.array([1.0, 1.0, 0.0]), triangle, s, 0.2)
    assert_allclose(result.u_next, [1.0, 1.0, 0.0], atol=0)


def test_mbo_step_partial_fill(triangle):
    s = spectral_decompose(triangle)
    result = mbo_step(0.5 * np.ones(3), triangle, s, 0.2)
    # a constant state diffuses to a single level filled at its average
    assert_allclose(result.u_next, 0.5, rtol=1e-12)
    assert result.multiplier.fill == pytest.approx(0.5, rel=1e-12)


def test_mbo_step_constant_states():
    # all-empty and all-full budgets: no level is partly filled
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5)], r=1.0)
    s = spectral_decompose(g)
    zero = mbo_step(np.zeros(3), g, s, 0.3)
    assert np.array_equal(zero.u_next, np.zeros(3))
    assert zero.multiplier == MboMultiplier(level=0, threshold=0.0, fill=0.0)
    assert zero.mass_out == 0.0
    full = mbo_step(np.ones(3), g, s, 0.3)
    assert np.array_equal(full.u_next, np.ones(3))
    # diffusion returns the constant only to rounding; the threshold is the
    # lowest diffused value, which the tie tolerance made one level
    lowest = float(diffuse(np.ones(3), 0.3, s).min())
    assert full.multiplier == MboMultiplier(level=0, threshold=lowest, fill=1.0)
    assert full.mass_out == full.mass_in


def test_mbo_step_rejects_bad_tau(p2, p2_spectrum):
    # tau goes through SchemeParams, like every relaxed step's
    for tau in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="tau must be positive"):
            mbo_step(np.array([1.0, 0.0]), p2, p2_spectrum, tau)


def test_mbo_step_conserves_mass():
    for g, s, u0, tau in _random_cases(24, seed=23):
        result = mbo_step(u0, g, s, tau)
        assert_allclose(result.mass_out, result.mass_in, rtol=1e-12)
        assert result.residual <= 1e-9
        fractional = (result.u_next > 0.0) & (result.u_next < 1.0)
        assert fractional.sum() <= 1  # threshold profiles are nearly binary


def test_steps_aim_at_the_given_target_mass(p2, p2_spectrum):
    u = np.array([0.6, 0.2])
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    for step in (
        lambda **kw: mbo_step(u, p2, p2_spectrum, 0.3, **kw),
        lambda **kw: semi_discrete_step(u, p2, p2_spectrum, params, **kw),
    ):
        result = step(target_mass=1.0)
        assert result.mass_in == 1.0
        assert_allclose(result.mass_out, 1.0, rtol=1e-15)
        assert step().mass_in == mass(u, p2)
        for bad in (-0.1, 2.1):
            with pytest.raises(MassOutOfRange):
                step(target_mass=bad)


def test_mbo_uniqueness_detection(p2, p2_spectrum, triangle):
    # the budget closes the top level exactly
    assert mbo_is_unique(np.array([1.0, 0.0]), p2, p2_spectrum, TAU_P2)
    s = spectral_decompose(triangle)
    # three-way tie, partially filled
    assert not mbo_is_unique(0.5 * np.ones(3), triangle, s, 0.2)
    # a lone vertex takes the partial fill
    assert mbo_is_unique(np.array([1.0, 0.5, 0.0]), triangle, s, 0.2)
    assert mbo_is_unique(np.zeros(3), triangle, s, 0.2)
    assert mbo_is_unique(np.ones(3), triangle, s, 0.2)


def test_subgradient_bounds_and_signs():
    for g, s, u0, tau in _random_cases(20, seed=31):
        for lam in (0.25, 0.75, 1.0):
            if lam == 1.0:
                result = mbo_step(u0, g, s, tau)
            else:
                params = SchemeParams.from_lambda(tau=tau, lam=lam)
                result = semi_discrete_step(u0, g, s, params)
            beta = result.subgradient
            u = result.u_next
            assert beta.min() >= -1.0 and beta.max() <= 1.0
            assert np.all(beta[u == 0.0] >= 0.0)
            assert np.all(beta[u == 1.0] <= 0.0)
            assert np.all(beta[(u > 0.0) & (u < 1.0)] == 0.0)
            ubar = average(u, g)
            if 0.0 < ubar < 1.0:
                centered = beta - average(beta, g)
                assert centered.min() >= ubar - 1.0 - 1e-12
                assert centered.max() <= ubar + 1e-12


def test_update_identity_links_multiplier_and_subgradient():
    # lam * mean(beta) equals nu - lam * mean(u_next) for every relaxed step
    for g, s, u0, tau in _random_cases(10, seed=37):
        params = SchemeParams.from_lambda(tau=tau, lam=0.55)
        result = semi_discrete_step(u0, g, s, params)
        lhs = params.lam * average(result.subgradient, g)
        rhs = result.multiplier - params.lam * average(result.u_next, g)
        assert_allclose(lhs, rhs, atol=1e-12)


def test_step_residual_detects_perturbation(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=TAU_P2, lam=0.5)
    u0 = np.array([1.0, 0.0])
    result = semi_discrete_step(u0, p2, p2_spectrum, params)
    diffused = diffuse(u0, TAU_P2, p2_spectrum)

    def residual(beta):
        return scheme._residual_from_diffused(diffused, result.u_next, beta, p2, params)

    good = residual(result.subgradient)
    assert good == result.residual
    assert good <= 1e-12
    bad = residual(result.subgradient + 0.1)
    assert bad == good  # constant shifts of the subgradient are invisible
    bad = residual(result.subgradient + np.array([0.1, 0.0]))
    assert bad > 1e-3


def test_lyapunov_energy_values(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=0.25, lam=1.0)
    value, scaled = lyapunov_energy(0.5 * np.ones(2), p2, p2_spectrum, params)
    assert_allclose(value, 0.5, rtol=1e-12)
    assert_allclose(scaled, 1.0, rtol=1e-12)


def test_lyapunov_energy_nonnegative():
    for g, s, u0, tau in _random_cases(16, seed=41):
        for lam in (0.0, 0.4, 1.0):
            params = SchemeParams.from_lambda(tau=tau, lam=lam)
            value, scaled = lyapunov_energy(u0, g, s, params)
            assert value >= -1e-12
            assert_allclose(scaled, value / (2.0 * tau), rtol=1e-15)


def test_lyapunov_descent_with_quadratic_gain():
    for g, s, u0, tau in _random_cases(16, seed=43):
        for lam in (0.2, 0.6, 0.95, 1.0):
            params = SchemeParams.from_lambda(tau=tau, lam=lam)
            if lam == 1.0:
                u1 = mbo_step(u0, g, s, tau).u_next
            else:
                u1 = semi_discrete_step(u0, g, s, params).u_next
            h0, _ = lyapunov_energy(np.clip(u0, 0, 1), g, s, params)
            h1, _ = lyapunov_energy(u1, g, s, params)
            gain = (1.0 - lam) * norm(u1 - np.clip(u0, 0, 1), g) ** 2
            assert h0 - h1 >= gain - 1e-9


def test_ginzburg_landau_values(p2):
    assert_allclose(ginzburg_landau(np.array([1.0, 0.0]), p2, 1.0), 0.5)
    assert_allclose(ginzburg_landau(0.5 * np.ones(2), p2, 1.0), 0.25)
    assert ginzburg_landau(np.array([1.2, 0.0]), p2, 1.0) == math.inf
    # the well over an infinite width adds +0.0: the Dirichlet energy's bits
    u = np.array([1.0, 0.0])
    assert ginzburg_landau(u, p2, math.inf) == dirichlet_energy(u, p2)
    with pytest.raises(ValueError):
        ginzburg_landau(np.array([1.0, 0.0]), p2, 0.0)


def test_ginzburg_landau_well_scaling(triangle_r1):
    u = np.array([0.5, 0.25, 0.0])
    e1 = ginzburg_landau(u, triangle_r1, 1.0)
    e2 = ginzburg_landau(u, triangle_r1, 2.0)
    smooth = dirichlet_energy(u, triangle_r1)
    assert_allclose(e1 - smooth, 2.0 * (e2 - smooth), rtol=1e-12)


def test_balanced_profile_is_a_fixed_point_of_the_step(p2, p2_spectrum):
    # at lam = 1 - exp(-2 tau) the diffused profile's contraction towards the
    # mean is undone by the step's expansion by 1 / (1 - lam)
    tau = 0.5
    params = SchemeParams.from_lambda(tau=tau, lam=1.0 - math.exp(-2.0 * tau))
    u = np.array([0.7, 0.3])
    step = semi_discrete_step(u, p2, p2_spectrum, params)
    assert_allclose(step.u_next, u, rtol=0, atol=1e-14)
    traj = run_trajectory(u, p2, p2_spectrum, params, max_steps=5)
    assert (traj.terminated_reason, traj.num_steps) == ("fixed_point", 1)


def test_dual_certificate_edge_graph(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=TAU_P2, lam=0.5)
    u0 = np.array([1.0, 0.0])
    result = semi_discrete_step(u0, p2, p2_spectrum, params)
    cert = dual_certificate(u0, result, p2, p2_spectrum, params)
    assert_allclose(cert.primal, -1.0, rtol=1e-12)
    assert_allclose(cert.dual, -1.0, rtol=1e-12)
    assert abs(cert.gap) <= 1e-12
    assert cert.slack == 0.0
    assert cert.mass_multiplier == result.multiplier


def test_dual_certificate_random_steps():
    for g, s, u0, tau in _random_cases(16, seed=53):
        for lam in (0.15, 0.5, 0.85):
            params = SchemeParams.from_lambda(tau=tau, lam=lam)
            result = semi_discrete_step(u0, g, s, params)
            cert = dual_certificate(u0, result, g, s, params)
            assert cert.lower.min() >= 0.0 and cert.upper.min() >= 0.0
            assert abs(cert.gap) <= 1e-8 * (1.0 + abs(cert.primal))
            assert cert.slack <= 1e-9
        with pytest.raises(LambdaIsOne):
            dual_certificate(
                u0, result, g, s, SchemeParams.from_lambda(tau=tau, lam=1.0)
            )
        with pytest.raises(InconsistentInputs):
            params = SchemeParams.from_lambda(tau=tau, lam=0.5)
            dual_certificate(u0, mbo_step(u0, g, s, tau), g, s, params)


def test_relaxed_step_freezes_onto_threshold_step():
    rng = np.random.default_rng(59)
    for _ in range(5):
        n = int(rng.integers(4, 7))
        g = random_connected_graph(n, rng, r=float(rng.choice([0.0, 1.0])))
        s = spectral_decompose(g)
        u0 = rng.random(n)
        tau = 0.3
        target = mbo_step(u0, g, s, tau).u_next
        agree_from = None
        for j in range(1, 41):
            lam = 1.0 - 2.0**-j
            params = SchemeParams.from_lambda(tau=tau, lam=lam)
            u_sd = semi_discrete_step(u0, g, s, params).u_next
            if np.abs(u_sd - target).max() <= 1e-12:
                if agree_from is None:
                    agree_from = j
            else:
                agree_from = None
        assert agree_from is not None and agree_from <= 40


def test_threshold_fill_clamps_running_sum_gap():
    # the running sum of the level weights from the top can end an ulp below
    # their plain sum; a target between the two fills every level, in the
    # threshold step and in the relaxed solve alike
    rng = np.random.default_rng(4)
    in_gap = 0
    for _ in range(400):
        g = random_connected_graph(
            int(rng.integers(5, 60)), rng, r=float(rng.choice([0.0, 0.5, 1.0]))
        )
        diffused = rng.uniform(0.0, 1.0, size=g.num_vertices)
        levels = threshold_levels(diffused, g)
        running = float(np.cumsum(levels.weights[::-1])[-1])
        target = float(np.nextafter(running, math.inf))
        if target >= float(levels.weights.sum()):
            continue
        in_gap += 1
        assert scheme._threshold_fill(levels, target) == (0, 1.0)
        full = np.ones(levels.num_levels)
        # the level step certifies its profile before returning it
        level_values, multiplier = scheme._level_step(levels, target, 1.0)
        assert np.array_equal(level_values, full)
        assert multiplier.level == 0 and multiplier.fill == 1.0
        for lam in (0.25, 0.9):
            _, lo, hi, values = scheme._solve_profile(levels, target, lam)
            assert lo == -math.inf
            assert hi == float(levels.values[0] - (1.0 - lam))
            assert np.array_equal(values, full)
    assert in_gap >= 20
