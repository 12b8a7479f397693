"""The exact multiplier solve of the mass-conserving projection.

Checked against Dykstra's alternating corrections in ``references``, which
share no code with it beyond the row-simplex projection, and for two classes
against the box-and-plane projection of the two-class oracle.
"""

import json

import numpy as np
import pytest

from graphphase import (
    NoConvergence,
    SchemeParams,
    SimplexField,
    cli_main,
    multiclass_mass_conserving_step,
    multiclass_step,
    random_connected_graph,
    spectral_decompose,
)
from graphphase import multiclass, oracles
import references

KINDS = ("generic", "ties", "empty", "one_hot")
HARD_KINDS = KINDS[1:]


def _instance(rng, n, num_classes, kind):
    """A graph, a matrix to project and feasible class masses.

    ``ties`` repeats rows and ties two classes in every row; ``empty`` gives
    the last class a mass of zero or 1e-13, so its support is empty at the
    solution; ``one_hot`` projects one-hot rows, half the time onto masses
    of other one-hot rows.
    """
    g = random_connected_graph(n, rng, r=float(rng.choice([0.0, 0.5, 1.0])))
    feasible = rng.dirichlet(np.ones(num_classes), size=n)
    scale = float(rng.choice([0.05, 0.5, 2.0]))
    matrix = feasible + rng.normal(scale=scale, size=(n, num_classes))
    if kind == "ties":
        matrix[:, 1] = matrix[:, 0]
        matrix[: n // 2] = matrix[rng.integers(0, n, size=n // 2)]
    elif kind == "empty":
        feasible[:, 0] += feasible[:, -1]
        feasible[:, -1] = 0.0
        if rng.random() < 0.5:
            feasible[0, -1] = 1e-13
            feasible[0, 0] -= 1e-13
    elif kind == "one_hot":
        matrix = np.eye(num_classes)[rng.integers(0, num_classes, size=n)]
        if rng.random() < 0.5:
            feasible = np.eye(num_classes)[rng.integers(0, num_classes, size=n)]
    return g, matrix, feasible.T @ g.degrees_r


def _project(matrix, g, masses):
    return multiclass._project_transport(
        matrix, g.degrees_r, masses, np.zeros(matrix.shape[1])
    )


def test_projection_matches_dykstra():
    rng = np.random.default_rng(2026)
    for index in range(336):
        num_classes = (2, 3, 4, 5)[index % 4]
        n = (5, 20, 60)[index // 4 % 3]
        kind = KINDS[index // 12 % 4]
        g, matrix, masses = _instance(rng, n, num_classes, kind)
        x, mu, _ = _project(matrix, g, masses)
        # Dykstra creeps: its drift test must be tight for its answer to be
        # within 1e-10 of the nearest point
        reference = references._project_masses(
            matrix, g, masses, tol=1e-13, max_rounds=100_000
        )
        assert np.abs(x - reference).max() <= 1e-10
        assert np.abs(x.T @ g.degrees_r - masses).max() <= 1e-12 * (
            1.0 + masses.max()
        )
        assert x.min() >= 0.0
        assert np.abs(x.sum(axis=1) - 1.0).max() <= 1e-12
        # the multipliers reproduce the rows exactly
        assert np.array_equal(x, multiclass._simplex_rows(matrix + mu))


def test_two_class_projection_is_the_box_plane_projection(monkeypatch):
    # rows (u, 1-u): the nearest such matrix projects (z0 - z1 + 1) / 2 onto
    # the box cut by the mass plane of the first class
    monkeypatch.setattr(oracles, "PROJECTION_TOL", 1e-15)
    rng = np.random.default_rng(77)
    for index in range(60):
        kind = KINDS[index % 4]
        g, matrix, masses = _instance(rng, (5, 20, 60)[index % 3], 2, kind)
        x, _, _ = _project(matrix, g, masses)
        z = 0.5 * (matrix[:, 0] - matrix[:, 1] + 1.0)
        reference = oracles._project_box_plane(z, g, masses[0])
        assert np.abs(x[:, 0] - reference).max() <= 1e-12


def test_dykstra_oracle_reports_exhaustion():
    rng = np.random.default_rng(5)
    g, matrix, masses = _instance(rng, 20, 3, "generic")
    with pytest.raises(NoConvergence):
        references._project_masses(matrix, g, masses, max_rounds=1)


def _spy_newton_steps(monkeypatch):
    steps = []
    solve = multiclass._project_transport

    def counted(*args):
        result = solve(*args)
        steps.append(result[2])
        return result

    monkeypatch.setattr(multiclass, "_project_transport", counted)
    return steps


def _three_class_case():
    rng = np.random.default_rng(10)
    g = random_connected_graph(20, rng, r=0.5)
    raw = rng.uniform(0.0, 1.0, size=(20, 3))
    raw /= raw.sum(axis=1, keepdims=True)
    raw[:, -1] = 1.0 - raw[:, :-1].sum(axis=1)
    params = SchemeParams.from_epsilon(epsilon=0.2, tau=0.1)
    return g, spectral_decompose(g), SimplexField(values=raw, graph=g), params


def test_projection_iterations_reported(monkeypatch):
    g, s, field, params = _three_class_case()
    assert multiclass_step(field, g, s, params).projection_iterations == 0
    steps = _spy_newton_steps(monkeypatch)
    result = multiclass_mass_conserving_step(field, g, s, params)
    assert result.converged
    assert result.projection_iterations == sum(steps) > 0
    # one projection per fixed-point iteration, plus the diffused start
    assert len(steps) == result.iterations + 1


def test_newton_budget_exhaustion_raises(monkeypatch):
    g, s, field, params = _three_class_case()
    steps = _spy_newton_steps(monkeypatch)
    multiclass_mass_conserving_step(field, g, s, params)
    assert max(steps) >= 2
    monkeypatch.setattr(multiclass, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        multiclass_mass_conserving_step(field, g, s, params)


def test_cli_reports_newton_budget_exhaustion(tmp_path, monkeypatch, capsys):
    g, _, field, _ = _three_class_case()
    graph = tmp_path / "g.txt"
    graph.write_text(
        f"vertices {g.num_vertices} r 0.5\n"
        + "".join(f"{i} {j} {w!r}\n" for i, j, w in g.edges)
    )
    init = tmp_path / "u.txt"
    init.write_text(
        "".join(
            f"{i} " + " ".join(repr(float(v)) for v in row) + "\n"
            for i, row in enumerate(field.values)
        )
    )
    args = ["multiclass", "--graph", str(graph), "--init", str(init),
            "--mode", "multiclass-msd", "--eps", "0.2", "--tau", "0.1",
            "--steps", "2"]
    assert cli_main(args + ["--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(multiclass, "NEWTON_MAX_ITER", 1)
    assert cli_main(args + ["--out", str(tmp_path / "fail")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NoConvergence"


def test_projection_converges_on_hard_instances():
    # wide data, tiny graphs, up to seven classes, classes emptied or holding
    # dust, one-hot targets: the line search has to cross flat stretches and
    # bracket kinks, and must still land on the masses
    rng = np.random.default_rng(11)
    for _ in range(600):
        num_classes = int(rng.integers(2, 8))
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, rng, r=float(rng.choice([0.0, 0.5, 1.0])))
        alpha = float(rng.choice([0.05, 1.0, 10.0]))
        feasible = rng.dirichlet(np.full(num_classes, alpha), size=n)
        if rng.random() < 0.3:
            feasible = np.eye(num_classes)[rng.integers(0, num_classes, size=n)]
        if rng.random() < 0.3:
            k = int(rng.integers(0, num_classes))
            feasible[:, (k + 1) % num_classes] += feasible[:, k]
            feasible[:, k] = 0.0
        scale = float(rng.choice([1e-3, 0.1, 1.0, 10.0, 100.0]))
        matrix = rng.normal(scale=scale, size=(n, num_classes))
        if rng.random() < 0.2:
            matrix = np.round(matrix, 1)
        masses = feasible.T @ g.degrees_r
        x, mu, _ = _project(matrix, g, masses)
        assert np.abs(x.T @ g.degrees_r - masses).max() <= 1e-12 * (
            1.0 + masses.max()
        )
        assert np.array_equal(x, multiclass._simplex_rows(matrix + mu))


def _hard_instances(count):
    rng = np.random.default_rng(13)
    for index in range(count):
        num_classes = (2, 3, 4, 5)[index % 4]
        n = (5, 20, 60)[index // 4 % 3]
        kind = HARD_KINDS[index // 12 % 3]
        yield _instance(rng, n, num_classes, kind)


def _checked_step_lengths(monkeypatch):
    """Spy on the line search: each step's ``(t, rounded)`` is appended to
    the returned list, ``rounded`` for a step ended by a shrunk bracket."""
    steps = []
    search = multiclass._step_length

    def checked(matrix, weights, masses, mu, direction, x, balance):
        # the balance handed in and the one handed back belong to their rows
        assert np.array_equal(balance, x.T @ weights - masses)
        reached = search(matrix, weights, masses, mu, direction, x, balance)
        t, rows = reached.t, reached.rows
        assert np.array_equal(reached.balance, rows.T @ weights - masses)

        def slope(rows):
            return float(-(rows.T @ weights - masses) @ direction)

        def reach(t):
            return multiclass._simplex_rows(matrix + (mu + t * direction))

        assert np.array_equal(rows, reach(t))
        rounded = t != 1.0 and not (
            0.0 <= slope(rows) <= multiclass.CURVATURE * slope(x)
        )
        if rounded:
            assert t > 0.0
            assert slope(reach(np.nextafter(t, np.inf))) < 0.0
        steps.append((t, rounded))
        return reached

    monkeypatch.setattr(multiclass, "_step_length", checked)
    return steps


def test_step_length_lands_in_the_band(monkeypatch):
    # every step is the full one, one whose slope lies in the acceptance
    # band, or the last point before a bracket shrunk to adjacent floats;
    # steps shorter than the full one were bisected out of [0, 1]
    steps = _checked_step_lengths(monkeypatch)
    for g, matrix, masses in _hard_instances(360):
        _project(matrix, g, masses)
    assert sum(t < 1.0 for t, _ in steps) >= 100


def test_a_bracket_shrunk_to_rounding_keeps_the_rise_reached(monkeypatch):
    # with no slack the band is a slope of exactly 0, which a bisection in
    # floats seldom meets: the bracket shrinks to adjacent floats first, and
    # its lower end, of positive slope, is the step
    monkeypatch.setattr(multiclass, "CURVATURE", 0.0)
    steps = _checked_step_lengths(monkeypatch)
    for g, matrix, masses in _hard_instances(120):
        x, _, _ = _project(matrix, g, masses)
        assert np.abs(x.T @ g.degrees_r - masses).max() <= 1e-12 * (
            1.0 + masses.max()
        )
    assert sum(rounded for _, rounded in steps) > 0
    # a bracket [0, hi] takes 1074 halvings of [0, 1] to shrink to rounding,
    # so within the budget the lower end has always left 0
    assert multiclass.MAX_LINE_SEARCH < 1074


def test_line_search_budget_exhaustion_raises(monkeypatch):
    # the second hard instance ties two classes in every row; its full
    # Newton step is refused, and one slope evaluation settles no search
    _, (g, matrix, masses) = _hard_instances(2)
    _project(matrix, g, masses)
    monkeypatch.setattr(multiclass, "MAX_LINE_SEARCH", 1)
    with pytest.raises(NoConvergence, match="line search"):
        _project(matrix, g, masses)
