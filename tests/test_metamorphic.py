"""Whole-run metamorphic relations: the same run, described another way.

Scaling every weight by ``c`` scales the degrees by ``c`` and the graph
Laplacian by ``c**(1 - r)``.  Dividing ``tau`` and ``epsilon`` by that factor
leaves the heat operator and ``lam = tau / epsilon`` unchanged, so a run
visits the same states.  Its diagnostics scale: the mass and the Lyapunov
value ``H`` by ``c**r``, the Ginzburg-Landau energy and ``H_tau`` by ``c``;
the multiplier and the step change do not move.  Every factor here is a
power of two, so each scaling is exact in floating point and bits are
compared throughout.  Listing the edges in another order, each either way
round, describes the same graph, and listing a state file's rows in
another order the same start, so the run is the same too.  Time scales
with the Laplacian, so a step-size refinement whose ``epsilon``, ``t_final``
and step sizes all shrink by ``c**(1 - r)`` compares the same states.

Permuting the class columns of a multi-class state permutes every step.
The force multiplies ``1 - U`` over the other classes in column order, so
the permuted run rounds differently and agrees only to rounding.
"""

import csv

import numpy as np
import pytest

from graphphase import (
    SchemeParams,
    SimplexField,
    build_graph,
    cli_main,
    converge_tau,
    multiclass_mass_conserving_step,
    multiclass_step,
    random_connected_graph,
    run_trajectory,
    spectral_decompose,
    sweep_lambda,
)

N = 300
STEPS = 30
SCALINGS = [(0.5, 4.0), (1.0, 2.0), (0.0, 2.0)]  # (r, c): c**(1 - r) is 2 or 1
LAMBDAS = [0.1, 0.5, 0.9, 0.99, 1.0 - 2.0**-12, 1.0 - 2.0**-20]
TIMES = (0.4, 0.4, (0.2, 0.1, 0.05))  # converge_tau's epsilon, t_final, taus


def _instance(r, seed=21):
    rng = np.random.default_rng([seed, int(4 * r)])
    return random_connected_graph(N, rng, r=r, extra_edges=3 * N), rng.random(N)


def _scaled(g, c):
    return build_graph(g.num_vertices, [(i, j, c * w) for i, j, w in g.edges], r=g.r)


def _run(g, mode, u0, shrink=1.0):
    """An sd (lam = 0.25) or mbo run of ``STEPS`` steps, with tau and
    epsilon divided by ``shrink``."""
    if mode == "sd":
        params = SchemeParams.from_epsilon(0.4 / shrink, 0.1 / shrink)
    else:
        params = SchemeParams.from_lambda(2.0 / shrink, 1.0)
        u0 = (u0 > 0.5) * 1.0
    return run_trajectory(u0, g, spectral_decompose(g), params, STEPS)


def _factors(r, c):
    return {"mass": c**r, "H": c**r, "H_tau": c, "GL": c}


@pytest.mark.parametrize("mode", ["sd", "mbo"])
@pytest.mark.parametrize("r,c", SCALINGS)
def test_weight_scaling_keeps_the_run_and_scales_its_energies(r, c, mode):
    g, u0 = _instance(r)
    run = _run(g, mode, u0)
    scaled = _run(_scaled(g, c), mode, u0, shrink=c ** (1.0 - r))
    assert scaled.final_state.tobytes() == run.final_state.tobytes()
    assert scaled.num_steps == run.num_steps
    assert scaled.terminated_reason == run.terminated_reason
    factors = _factors(r, c)
    for entry, other in zip(run.log, scaled.log, strict=True):
        for name, value in entry._asdict().items():
            if value is not None:
                value *= factors.get(name, 1.0)
            assert getattr(other, name) == value, (entry.step, name)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_edge_order_and_orientation_keep_the_run(r):
    g, u0 = _instance(r)
    rng = np.random.default_rng(5)
    edges = [g.edges[k] for k in rng.permutation(len(g.edges))]
    edges = [(j, i, w) if flip else (i, j, w)
             for (i, j, w), flip in zip(edges, rng.random(len(edges)) < 0.5)]
    shuffled = build_graph(N, edges, r=r)
    run, again = _run(g, "sd", u0), _run(shuffled, "sd", u0)
    assert again.final_state.tobytes() == run.final_state.tobytes()
    assert again.log == run.log


@pytest.mark.parametrize("r,c", SCALINGS)
def test_weight_scaling_keeps_the_sweep_rows(r, c):
    g, u0 = _instance(r)
    scaled = _scaled(g, c)
    rows = sweep_lambda(u0, g, spectral_decompose(g), 0.1, LAMBDAS)
    again = sweep_lambda(
        u0, scaled, spectral_decompose(scaled), 0.1 / c ** (1.0 - r), LAMBDAS
    )
    assert again == rows


@pytest.mark.parametrize("r,c", SCALINGS)
def test_weight_scaling_keeps_the_tau_refinement(r, c):
    # the distances between runs stay; the energies and the descent slack
    # (GL against a squared weighted distance over a time) scale by c; the
    # Lipschitz and Hoelder fields mix c**r norms with times and do not
    # scale exactly at every (r, c), so they are left out
    g, u0 = _instance(r)
    scaled = _scaled(g, c)
    shrink = c ** (1.0 - r)
    epsilon, t_final, taus = TIMES
    report = converge_tau(u0, g, spectral_decompose(g), epsilon, t_final, taus)
    again = converge_tau(u0, scaled, spectral_decompose(scaled), epsilon / shrink,
                         t_final / shrink, [tau / shrink for tau in taus])
    assert again.grid_times == tuple(t / shrink for t in report.grid_times)
    for name in ("step_counts", "matched_distance_matrix", "matched_distances",
                 "distance_ratios"):
        assert getattr(again, name) == getattr(report, name), name
    for name in ("gl_grid_values", "energy_gaps", "energy_gap_bounds"):
        assert getattr(again, name) == tuple(
            c * value for value in getattr(report, name)
        ), name
    for name in ("gl_step_min_slack", "gl_max_rise"):
        assert getattr(again, name) == c * getattr(report, name), name


@pytest.mark.parametrize("order", [(1, 2, 0), (0, 2, 1)])
@pytest.mark.parametrize(
    "stepper", [multiclass_step, multiclass_mass_conserving_step]
)
def test_class_permutation_permutes_the_multiclass_steps(stepper, order):
    # a 3-cycle and a swap of the columns; within rounding every step lands
    # on the permuted state with the same fixed-point iteration count
    rng = np.random.default_rng([31, 3])
    n = 60
    g = random_connected_graph(n, rng, r=0.5, extra_edges=3 * n)
    s = spectral_decompose(g)
    params = SchemeParams.from_epsilon(epsilon=0.4, tau=0.2)  # lam = 0.5
    start = rng.dirichlet(np.ones(3), size=n)
    back = np.argsort(order)
    field = SimplexField(values=start, graph=g)
    permuted = SimplexField(values=start[:, order], graph=g)
    for _ in range(8):
        step = stepper(field, g, s, params)
        other = stepper(permuted, g, s, params)
        assert step.converged and other.converged
        assert other.iterations == step.iterations
        for mine, theirs in ((step.u_next.values, other.u_next.values),
                             (step.subgradient, other.subgradient)):
            assert np.abs(theirs[:, back] - mine).max() <= 1e-13
        assert np.abs(
            other.class_masses_out[back] - step.class_masses_out
        ).max() <= 1e-12
        field, permuted = step.u_next, other.u_next


def _write_graph(path, g, edges):
    lines = [f"vertices {g.num_vertices} r {g.r!r}"]
    lines += [f"{i} {j} {format(w, '.17g')}" for i, j, w in edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _cli_run(tmp_path, name, graph, init, epsilon, tau):
    out = tmp_path / name
    code = cli_main(["run", "--mode", "sd", "--graph", graph, "--init", init,
                     "--eps", repr(epsilon), "--tau", repr(tau),
                     "--steps", str(STEPS), "--out", str(out)])
    assert code == 0
    return (out / "log.csv").read_text(), (out / "final_state.txt").read_bytes()


def test_cli_runs_agree_across_weight_scaling_and_edge_order(tmp_path):
    # the parser and the writer sit inside the relations here
    r, c = 0.5, 4.0
    g, u0 = _instance(r, seed=23)
    init = tmp_path / "u.txt"
    init.write_text("".join(f"{v} {format(x, '.17g')}\n" for v, x in enumerate(u0)))
    init = str(init)
    plain = _write_graph(tmp_path / "g.txt", g, g.edges)
    scaled = _write_graph(tmp_path / "gc.txt", g,
                          [(i, j, c * w) for i, j, w in g.edges])
    reordered = _write_graph(tmp_path / "gr.txt", g,
                             [(j, i, w) for i, j, w in g.edges[::-1]])

    log, state = _cli_run(tmp_path, "plain", plain, init, 0.4, 0.1)
    assert _cli_run(tmp_path, "reordered", reordered, init, 0.4, 0.1) == (log, state)
    scaled_log, scaled_state = _cli_run(tmp_path, "scaled", scaled, init, 0.2, 0.05)
    assert scaled_state == state
    factors = _factors(r, c)
    rows = list(csv.DictReader(log.splitlines()))
    scaled_rows = list(csv.DictReader(scaled_log.splitlines()))
    assert len(scaled_rows) == len(rows) == STEPS + 1
    for row, other in zip(rows, scaled_rows):
        for name, text in row.items():
            if name in factors:
                assert float(other[name]) == float(text) * factors[name], name
            else:
                assert other[name] == text, name


def _write_state(path, rows, order, comment):
    lines = [comment] if comment else []
    lines += [" ".join([str(v)] + [format(x, ".17g") for x in rows[v]])
              for v in order]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("classes", [None, 3])
def test_cli_runs_agree_across_state_row_order(tmp_path, classes):
    # rows are placed by their vertex index, so a state file with its rows
    # shuffled and a leading comment line describes the same start
    g, u0 = _instance(0.5, seed=25)
    rng = np.random.default_rng(25)
    rows = u0[:, None] if classes is None else rng.dirichlet(np.ones(3), N)
    graph = _write_graph(tmp_path / "g.txt", g, g.edges)
    if classes is None:
        command = ["run", "--mode", "sd", "--eps", "0.4", "--tau", "0.1",
                   "--steps", str(STEPS)]
    else:
        command = ["multiclass", "--mode", "multiclass-msd", "--eps", "0.4",
                   "--tau", "0.2", "--steps", "5"]
    outputs = []
    for name, order, comment in (("sorted", range(N), None),
                                 ("shuffled", rng.permutation(N), "# rows")):
        init = _write_state(tmp_path / f"{name}.txt", rows, order, comment)
        out = tmp_path / name
        assert cli_main([*command, "--graph", graph, "--init", init,
                         "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes()
                        for f in ("log.csv", "final_state.txt")])
    assert outputs[1] == outputs[0]
