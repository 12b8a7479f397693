import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphphase import (
    GraphTooLarge,
    LambdaIsOne,
    MassOutOfRange,
    NoConvergence,
    SchemeParams,
    build_graph,
    diffuse,
    enumerate_extreme_points,
    inner_product,
    mass,
    mbo_oracle,
    mbo_step,
    random_connected_graph,
    semi_discrete_step,
    spectral_decompose,
    variational_oracle,
)
from graphphase import oracles
from graphphase.oracles import _project_box_plane
from references import mbo_is_unique, reference_flow

TAU_P2 = 0.5 * math.log(2.0)


def _sorted_tuples(points):
    return sorted(tuple(np.round(p.values, 12)) for p in points)


def test_enumerate_extreme_points_edge_graph(p2):
    points = enumerate_extreme_points(p2, 1.0)
    assert _sorted_tuples(points) == [(0.0, 1.0), (1.0, 0.0)]
    assert all(p.fractional_vertex is None for p in points)

    points = enumerate_extreme_points(p2, 0.5)
    assert _sorted_tuples(points) == [(0.0, 0.5), (0.5, 0.0)]
    assert {p.fractional_vertex for p in points} == {0, 1}
    assert all(p.fractional_value == 0.5 for p in points)


def test_enumerate_extreme_points_triangle(triangle):
    points = enumerate_extreme_points(triangle, 1.5)
    assert len(points) == 6
    for p in points:
        assert_allclose(sorted(p.values), [0.0, 0.5, 1.0])
        assert p.fractional_value == pytest.approx(0.5)
        assert p.values[p.fractional_vertex] == pytest.approx(0.5)


def test_enumerate_extreme_points_counts_weighted():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)], r=1.0)  # measure (1, 3, 2)
    points = enumerate_extreme_points(g, 3.0)
    masses = [float(np.dot(p.values, g.degrees_r)) for p in points]
    assert_allclose(masses, 3.0)
    binary = [p for p in points if p.fractional_vertex is None]
    assert _sorted_tuples(binary) == [(0.0, 1.0, 0.0), (1.0, 0.0, 1.0)]


def test_enumerate_extreme_points_guards(p2):
    rng = np.random.default_rng(0)
    big = random_connected_graph(13, rng)
    with pytest.raises(GraphTooLarge):
        enumerate_extreme_points(big, 1.0)
    with pytest.raises(MassOutOfRange):
        enumerate_extreme_points(p2, 2.5)
    with pytest.raises(MassOutOfRange):
        enumerate_extreme_points(p2, -0.5)


def test_mbo_oracle_edge_graph(p2, p2_spectrum):
    best, argmax = mbo_oracle(np.array([1.0, 0.0]), p2, p2_spectrum, TAU_P2)
    assert_allclose(best, 0.75, rtol=1e-12)
    assert len(argmax) == 1
    assert_allclose(argmax[0].values, [1.0, 0.0])


def test_mbo_step_attains_oracle_value():
    rng = np.random.default_rng(61)
    for _ in range(15):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(n, rng, r=float(rng.choice([0.0, 0.5, 1.0])))
        s = spectral_decompose(g)
        u0 = rng.random(n)
        tau = float(rng.uniform(0.05, 0.5))
        result = mbo_step(u0, g, s, tau)
        diffused = diffuse(np.clip(u0, 0, 1), tau, s)
        best, argmax = mbo_oracle(u0, g, s, tau)
        attained = inner_product(result.u_next, diffused, g)
        assert attained >= best - 1e-10
        if mbo_is_unique(u0, g, s, tau):
            assert len(argmax) == 1
            assert_allclose(argmax[0].values, result.u_next, atol=1e-10)


def test_projection_returns_nearest_point(triangle):
    # plain alternating projections would settle at (0.5, 0.5, 0) instead
    z = np.array([1.2, 0.9, -2.0])
    out = _project_box_plane(z, triangle, 1.0)
    assert_allclose(out, [0.65, 0.35, 0.0], atol=1e-9)


def test_projection_weighted_metric():
    g = build_graph(2, [(0, 1, 3.0)], r=1.0)  # measure (3, 3)
    out = _project_box_plane(np.array([1.4, 0.2]), g, 3.0)
    # the unconstrained optimum sits past the corner, so the box clips it
    assert_allclose(np.dot(out, g.degrees_r), 3.0, rtol=1e-12)
    assert_allclose(out, [1.0, 0.0], atol=1e-9)


def test_projection_is_identity_on_feasible_points(random_graphs):
    rng = np.random.default_rng(67)
    for g in random_graphs:
        u = rng.random(g.num_vertices)
        out = _project_box_plane(u, g, float(np.dot(u, g.degrees_r)))
        assert_allclose(out, u, atol=1e-11)


def test_variational_oracle_edge_graph(p2, p2_spectrum):
    params = SchemeParams.from_lambda(tau=TAU_P2, lam=0.5)
    u0 = np.array([1.0, 0.0])
    out = variational_oracle(u0, p2, p2_spectrum, params)
    assert_allclose(out, [1.0, 0.0], atol=1e-8)
    diffused = diffuse(u0, TAU_P2, p2_spectrum)
    objective = 0.5 * inner_product(out, out, p2) - 2.0 * inner_product(
        out, diffused, p2
    )
    assert_allclose(objective, -1.0, atol=1e-8)


def test_projection_out_of_rounds_raises(triangle, monkeypatch):
    # a start outside the box takes more than one round to settle
    monkeypatch.setattr(oracles, "PROJECTION_MAX_ROUNDS", 1)
    with pytest.raises(NoConvergence, match="feasibility projection"):
        _project_box_plane(np.array([1.2, 0.9, -2.0]), triangle, 1.0)


def test_variational_oracle_refuses_lambda_one_and_runs_out(p2, p2_spectrum,
                                                            monkeypatch):
    u0 = np.array([0.9, 0.3])
    with pytest.raises(LambdaIsOne):
        variational_oracle(u0, p2, p2_spectrum,
                           SchemeParams.from_lambda(tau=TAU_P2, lam=1.0))
    monkeypatch.setattr(oracles, "DESCENT_MAX_ITERS", 1)
    with pytest.raises(NoConvergence, match="projected gradient did not settle"):
        variational_oracle(u0, p2, p2_spectrum,
                           SchemeParams.from_lambda(tau=TAU_P2, lam=0.1))


def test_relaxed_step_matches_variational_oracle():
    rng = np.random.default_rng(71)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(n, rng, r=float(rng.choice([0.0, 0.5, 1.0])))
        s = spectral_decompose(g)
        u0 = rng.random(n)
        tau = float(rng.uniform(0.05, 0.4))
        for lam in (0.1, 0.5, 0.9):
            params = SchemeParams.from_lambda(tau=tau, lam=lam)
            closed = semi_discrete_step(u0, g, s, params).u_next
            iterated = variational_oracle(u0, g, s, params)
            assert np.abs(closed - iterated).max() <= 1e-6


def test_reference_flow_self_consistent(p2, p2_spectrum):
    u0 = np.array([0.9, 0.3])
    coarse = reference_flow(u0, p2, p2_spectrum, 1.0, 0.2, 1e-2)
    fine = reference_flow(u0, p2, p2_spectrum, 1.0, 0.2, 5e-3)
    assert np.abs(coarse - fine).max() <= 1e-3
    with pytest.raises(ValueError):
        reference_flow(u0, p2, p2_spectrum, 1.0, 0.2, 0.5)


def test_random_connected_graph_reproducible():
    a = random_connected_graph(10, np.random.default_rng(5), r=0.5)
    b = random_connected_graph(10, np.random.default_rng(5), r=0.5)
    assert a.edges == b.edges
    assert len(a.edges) >= 9
