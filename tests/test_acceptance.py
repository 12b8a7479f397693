"""Acceptance suite: one test per shipped guarantee, with pinned tolerances.

Each test prints a single summary line with its measured quantities; the
pass/fail verdict is the test outcome itself.  Shared workloads (long
trajectories, random instance pools) live in module-scoped fixtures so the
later criteria audit exactly the runs the earlier ones timed.
"""

import json
import time

import numpy as np
import pytest

from graphphase import (
    SchemeParams,
    SimplexField,
    average,
    build_graph,
    cli_main,
    converge_tau,
    diffuse,
    dual_certificate,
    inner_product,
    mass,
    mbo_is_unique,
    mbo_oracle,
    mbo_step,
    multiclass_mass_conserving_step,
    multiclass_step,
    norm,
    parse_field_file,
    parse_graph_file,
    random_connected_graph,
    run_multiclass_trajectory,
    run_trajectory,
    semi_discrete_step,
    variational_oracle,
    well_force,
    write_outputs,
)
from graphphase.graph_core import spectral_decompose

LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _report(tag, detail):
    print(f"[{tag}] {detail}")


@pytest.fixture(scope="module")
def conservation_runs():
    """Twelve runs of up to 1000 steps: sd and threshold modes, r in
    {0, .5, 1}, tau in {0.1, 0.5}.

    A zero fixed-point tolerance means a run stops early only when the state
    is exactly stationary, in which case every remaining step would repeat
    it bitwise.  At tau = 0.1 every run settles within 20 steps; the
    lambda = 0.5 runs at tau = 0.5 coarsen slowly, one for all 1000 steps.
    """
    rng = np.random.default_rng(20240817)
    runs = []
    start = time.perf_counter()
    for r in (0.0, 0.5, 1.0):
        g = random_connected_graph(50, rng, r=r)
        s = spectral_decompose(g)
        u0 = rng.uniform(0.0, 1.0, size=50)
        for tau in (0.1, 0.5):
            for lam in (0.5, 1.0):
                params = SchemeParams.from_lambda(tau=tau, lam=lam)
                traj = run_trajectory(
                    u0, g, s, params, max_steps=1000, fixed_point_tol=0.0
                )
                runs.append((r, lam, g, s, params, traj))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def relaxed_instances():
    """108 small random instances covering every lambda in the grid."""
    rng = np.random.default_rng(3)
    instances = []
    start = time.perf_counter()
    for k in range(108):
        n = int(rng.integers(3, 7))
        r = float(rng.choice([0.0, 0.5, 1.0]))
        g = random_connected_graph(n, rng, r=r)
        s = spectral_decompose(g)
        u0 = rng.uniform(0.0, 1.0, size=n)
        tau = float(rng.uniform(0.05, 0.5))
        params = SchemeParams.from_lambda(tau=tau, lam=LAMBDAS[k % 9])
        step = semi_discrete_step(u0, g, s, params)
        instances.append((g, s, u0, tau, params, step))
    return instances, time.perf_counter() - start


@pytest.fixture(scope="module")
def threshold_instances():
    """100 small random instances for the enumeration oracle."""
    rng = np.random.default_rng(4)
    instances = []
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(3, 9))
        r = float(rng.choice([0.0, 0.5, 1.0]))
        g = random_connected_graph(n, rng, r=r)
        s = spectral_decompose(g)
        u0 = rng.uniform(0.0, 1.0, size=n)
        tau = float(rng.uniform(0.05, 0.5))
        step = mbo_step(u0, g, s, tau)
        best, argmax = mbo_oracle(u0, g, s, tau)
        unique = mbo_is_unique(u0, g, s, tau)
        instances.append((g, s, u0, tau, step, best, argmax, unique))
    return instances, time.perf_counter() - start


@pytest.fixture(scope="module")
def ladder_instances():
    """50 instances stepped at lambda = 1 - 2^-j for j = 1..40."""
    rng = np.random.default_rng(6)
    instances = []
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(3, 9))
        r = float(rng.choice([0.0, 0.5, 1.0]))
        g = random_connected_graph(n, rng, r=r)
        s = spectral_decompose(g)
        u0 = rng.uniform(0.0, 1.0, size=n)
        tau = float(rng.uniform(0.05, 0.5))
        reference = mbo_step(u0, g, s, tau)
        rungs = []
        for j in range(1, 41):
            params = SchemeParams.from_lambda(tau=tau, lam=1.0 - 2.0 ** -j)
            rungs.append((j, params, semi_discrete_step(u0, g, s, params)))
        instances.append((g, s, u0, tau, reference, rungs))
    return instances, time.perf_counter() - start


def test_a01_mass_conservation(conservation_runs):
    runs, elapsed = conservation_runs
    worst = 0.0
    for r, lam, g, s, params, traj in runs:
        masses = np.array([entry.mass for entry in traj.log])
        drift = np.abs(masses - masses[0]).max() / abs(masses[0])
        worst = max(worst, drift)
    _report(
        "a01 mass conservation",
        f"runs={len(runs)} worst relative drift={worst:.3e} elapsed={elapsed:.2f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_a02_lyapunov_descent(conservation_runs):
    runs, _ = conservation_runs
    worst_slack = np.inf
    checked = 0
    for r, lam, g, s, params, traj in runs:
        H = [entry.H for entry in traj.log]
        for k in range(len(H) - 1):
            drop = H[k] - H[k + 1]
            change = traj.states[k + 1] - traj.states[k]
            bound = (1.0 - lam) * norm(change, g) ** 2
            worst_slack = min(worst_slack, drop - bound)
            assert drop >= bound - 1e-9
            # strictness is checked above the resolution of H itself;
            # smaller moves drown in the rounding of O(1) energies
            if np.abs(change).max() > 1e-7:
                assert drop > 0.0
            checked += 1
    _report(
        "a02 lyapunov descent",
        f"steps checked={checked} worst slack={worst_slack:.3e}",
    )


def test_a03_relaxed_step_matches_variational_oracle(relaxed_instances):
    instances, gen_elapsed = relaxed_instances
    start = time.perf_counter()
    worst = 0.0
    for g, s, u0, tau, params, step in instances:
        reference = variational_oracle(u0, g, s, params)
        worst = max(worst, float(np.abs(step.u_next - reference).max()))
        assert np.abs(step.u_next - reference).max() <= 1e-6
    elapsed = gen_elapsed + time.perf_counter() - start
    _report(
        "a03 relaxed vs oracle",
        f"instances={len(instances)} worst sup diff={worst:.3e} "
        f"elapsed={elapsed:.2f}s",
    )
    assert elapsed < 30.0


def test_a04_threshold_step_matches_enumeration_oracle(threshold_instances):
    instances, elapsed = threshold_instances
    worst = 0.0
    unique_count = 0
    for g, s, u0, tau, step, best, argmax, unique in instances:
        diffused = diffuse(u0, tau, s)
        achieved = inner_product(step.u_next, diffused, g)
        worst = max(worst, abs(achieved - best))
        assert abs(achieved - best) <= 1e-10
        if unique:
            unique_count += 1
            assert len(argmax) == 1
            assert np.abs(argmax[0].values - step.u_next).max() <= 1e-12
    _report(
        "a04 threshold vs oracle",
        f"instances={len(instances)} unique={unique_count} "
        f"worst objective gap={worst:.3e} elapsed={elapsed:.2f}s",
    )
    assert elapsed < 30.0


def test_a05_duality_certificates(relaxed_instances):
    instances, _ = relaxed_instances
    worst_gap = 0.0
    worst_slack = 0.0
    for g, s, u0, tau, params, step in instances:
        cert = dual_certificate(u0, step, g, s, params)
        scale = 1.0 + abs(cert.primal)
        worst_gap = max(worst_gap, cert.gap / scale)
        worst_slack = max(worst_slack, cert.slack)
        assert cert.gap <= 1e-8 * scale
        assert cert.slack <= 1e-9
    _report(
        "a05 duality certificates",
        f"instances={len(instances)} worst scaled gap={worst_gap:.3e} "
        f"worst slack={worst_slack:.3e}",
    )


def test_a06_lambda_ladder_locks_onto_threshold_step(ladder_instances):
    instances, elapsed = ladder_instances
    worst_j = 0
    for g, s, u0, tau, reference, rungs in instances:
        distances = [
            np.abs(step.u_next - reference.u_next).max()
            for _, _, step in rungs
        ]
        lock = None
        for j in range(len(distances), 0, -1):
            if distances[j - 1] > 1e-12:
                lock = j + 1
                break
        lock = 1 if lock is None else lock
        assert lock <= 40, f"no lock-on within 40 rungs, tail={distances[-3:]}"
        worst_j = max(worst_j, lock)
    _report(
        "a06 lambda ladder",
        f"instances={len(instances)} latest lock-on j={worst_j} "
        f"elapsed={elapsed:.2f}s",
    )
    assert elapsed < 20.0


def test_a07_multiplier_bracket(
    conservation_runs, relaxed_instances, ladder_instances
):
    violations = 0
    checked = 0

    def check(nu, lam, diffused, g, u_mass):
        nonlocal violations, checked
        total = mass(np.ones(g.num_vertices), g)
        if not 0.0 < u_mass < total:
            return
        checked += 1
        if not lam * diffused.min() <= nu <= lam * diffused.max():
            violations += 1

    runs, _ = conservation_runs
    for r, lam, g, s, params, traj in runs:
        if lam == 1.0:
            continue
        u_mass = mass(traj.states[0], g)
        for k in range(len(traj.states) - 1):
            diffused = diffuse(traj.states[k], params.tau, s)
            check(traj.log[k + 1].multiplier, lam, diffused, g, u_mass)
    for g, s, u0, tau, params, step in relaxed_instances[0]:
        check(step.multiplier, params.lam, diffuse(u0, tau, s), g, mass(u0, g))
    for g, s, u0, tau, reference, rungs in ladder_instances[0]:
        for j, params, step in rungs:
            check(
                step.multiplier, params.lam, diffuse(u0, tau, s), g, mass(u0, g)
            )
    _report("a07 multiplier bracket", f"checked={checked} violations={violations}")
    assert checked > 3000
    assert violations == 0


def test_a08_subgradient_recovery(
    conservation_runs, relaxed_instances, threshold_instances, ladder_instances
):
    checked = 0

    def check(step, g):
        nonlocal checked
        checked += 1
        beta = step.subgradient
        u = step.u_next
        assert beta.min() >= -1.0 and beta.max() <= 1.0
        assert np.all(beta[u == 0.0] >= 0.0)
        assert np.all(beta[u == 1.0] <= 0.0)
        assert np.all(beta[(u > 0.0) & (u < 1.0)] == 0.0)
        ubar = average(u, g)
        centered = beta - average(beta, g)
        assert centered.min() >= ubar - 1.0 - 1e-12
        assert centered.max() <= ubar + 1e-12
        assert step.residual <= 1e-9

    for g, s, u0, tau, params, step in relaxed_instances[0]:
        check(step, g)
    for g, s, u0, tau, step, best, argmax, unique in threshold_instances[0]:
        check(step, g)
    for g, s, u0, tau, reference, rungs in ladder_instances[0]:
        for _, _, step in rungs:
            check(step, g)
    runs, _ = conservation_runs
    for r, lam, g, s, params, traj in runs:
        for k in range(0, len(traj.states) - 1, 25):
            if lam == 1.0:
                check(mbo_step(traj.states[k], g, s, params.tau), g)
            else:
                check(semi_discrete_step(traj.states[k], g, s, params), g)
    _report("a08 subgradient recovery", f"step results checked={checked}")
    assert checked > 2200


def test_a09_step_size_refinement():
    start = time.perf_counter()
    taus = (0.01, 0.005, 0.0025, 0.00125)
    rng = np.random.default_rng(20240817)
    cases = []
    g2 = build_graph(2, [(0, 1, 1.0)], r=0.0)
    cases.append(("edge", g2, np.array([1.0, 0.0])))
    g20 = random_connected_graph(
        20, rng, r=0.0, extra_edges=6, weight_range=(0.05, 0.3)
    )
    cases.append(("random20", g20, rng.uniform(0.0, 1.0, size=20)))
    details = []
    for name, g, u0 in cases:
        s = spectral_decompose(g)
        report = converge_tau(
            u0, g, s, epsilon=1.0, t_final=1.0, taus=taus
        )
        for ratio in report.distance_ratios:
            assert 1.5 <= ratio <= 3.0, f"{name}: ratio {ratio}"
        assert report.gl_max_rise <= 1e-8
        assert report.gl_step_min_slack >= -1e-8
        assert report.lipschitz_quotient <= report.lipschitz_bound
        details.append(
            f"{name} ratios={[round(x, 3) for x in report.distance_ratios]} "
            f"lip={report.lipschitz_quotient:.3f}<{report.lipschitz_bound:.2f}"
        )
    elapsed = time.perf_counter() - start
    _report("a09 step size refinement", "; ".join(details) + f" elapsed={elapsed:.2f}s")
    assert elapsed < 60.0


def test_a10_multiclass_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    params = SchemeParams.from_epsilon(epsilon=0.2, tau=0.1)
    unconverged = 0
    agreement_checked = 0
    worst_mass_drift = 0.0
    for index, num_classes in enumerate((2, 2, 3, 3, 4, 4)):
        r = (0.0, 0.5, 1.0)[index % 3]
        g = random_connected_graph(20, rng, r=r)
        s = spectral_decompose(g)
        raw = rng.uniform(0.0, 1.0, size=(20, num_classes))
        raw /= raw.sum(axis=1, keepdims=True)
        raw[:, -1] = 1.0 - raw[:, :-1].sum(axis=1)
        field = SimplexField(values=raw, graph=g)
        for conserve in (False, True):
            traj = run_multiclass_trajectory(
                field, g, s, params, max_steps=8, conserve_masses=conserve
            )
            if not traj.converged:
                unconverged += 1
            for state in traj.states:
                assert state.in_sigma(1e-9)
                assert np.abs(state.values.sum(axis=1) - 1.0).max() <= 1e-9
                force = well_force(state, g)
                assert (force.sum(axis=1) == 0.0).all()
            if conserve:
                masses = np.array([st.class_masses() for st in traj.states])
                drift = np.abs(masses - masses[0]).max()
                worst_mass_drift = max(worst_mass_drift, drift)
                assert drift <= 1e-8
        if num_classes == 2:
            msd = multiclass_mass_conserving_step(field, g, s, params)
            if msd.converged:
                two_class = semi_discrete_step(field.values[:, 0], g, s, params)
                gap = np.abs(msd.u_next.values[:, 0] - two_class.u_next).max()
                assert gap <= 1e-6
                agreement_checked += 1
            else:
                unconverged += 1
            plain = multiclass_step(field, g, s, params)
            if plain.converged:
                drifted = diffuse(field.values[:, 0], params.tau, s)
                clamp = np.clip(
                    (drifted - params.lam / 2.0) / (1.0 - params.lam), 0.0, 1.0
                )
                assert np.abs(plain.u_next.values[:, 0] - clamp).max() <= 1e-6
                agreement_checked += 1
            else:
                unconverged += 1
    elapsed = time.perf_counter() - start
    _report(
        "a10 multiclass invariants",
        f"trajectories=12 unconverged reported={unconverged} "
        f"two-class agreements={agreement_checked} "
        f"worst class-mass drift={worst_mass_drift:.3e} elapsed={elapsed:.2f}s",
    )
    assert elapsed < 30.0


def test_a11_determinism_and_round_trip(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("vertices 4 r 0.5\n0 1 1.0\n1 2 0.5\n2 3 2.0\n0 3 0.25\n")
    init = tmp_path / "u.txt"
    init.write_text("0 1.0\n1 0.75\n2 0.25\n3 0.0\n")
    args = ["run", "--graph", str(graph), "--init", str(init), "--mode", "sd",
            "--eps", "0.4", "--tau", "0.2", "--steps", "25"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("log.csv", "final_state.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()

    sweep = ["sweep-lambda", "--graph", str(graph), "--init", str(init),
             "--tau", "0.2", "--lambdas", "0.1,0.5,0.9"]
    assert cli_main(sweep + ["--out", str(tmp_path / "sa")]) == 0
    assert cli_main(sweep + ["--out", str(tmp_path / "sb")]) == 0
    assert (tmp_path / "sa" / "report.json").read_bytes() == (
        tmp_path / "sb" / "report.json"
    ).read_bytes()

    g = parse_graph_file(str(graph))
    s = spectral_decompose(g)
    params = SchemeParams.from_epsilon(0.4, 0.2)
    back = parse_field_file(str(tmp_path / "a" / "final_state.txt"), g)
    again = run_trajectory(back, g, s, params, max_steps=0)
    write_outputs(again, str(tmp_path / "c"), "sd", {})
    assert (tmp_path / "a" / "final_state.txt").read_bytes() == (
        tmp_path / "c" / "final_state.txt"
    ).read_bytes()
    _report("a11 determinism", "reruns byte-identical, state round trip exact")
