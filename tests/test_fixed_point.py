"""The multi-class fixed point and its safeguarded Newton steps.

Both steps are defined only for lambda < K / (2 (K - 1)): below that bound
the plain map contracts and each Newton system ``M_i = I - lam P_i H_i`` is
invertible for rows on the simplex; on or above it a row can have two
fixed points, and the steps refuse.  Checked against the plain damped
iteration in ``references``, which shares the map (force and projections)
but none of the Newton steps, on seeded instances with one-hot rows, an
empty class, K = 2 to 5 and lambda up to 0.95 of the bound.  The
linearisation is checked against a dense central-difference Jacobian of
the map, and the plain-step fallback for a singular system against the
damped loop.  Plus the instance on which Newton steps overshoot until the
support settles, iteration counts that guard the speed-up without timing
anything, the feasible image a step returns when its iteration budget runs
out, a row with two fixed points above the bound, and the refusal.
"""

import statistics

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphphase import (
    DomainViolation,
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

    Lambda takes 0.2 and 0.5, both below every bound K / (2 (K - 1)) here,
    and 0.8 and 0.95 times that bound, which for K = 2 is 1.  ``one_hot``
    starts every row on a simplex vertex; ``empty`` moves the last class
    onto the first, so it starts with no mass at all.
    """
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        for share in (0.2, 0.5, 0.8, 0.95):
            for num_classes in (2, 3, 4, 5):
                bound = num_classes / (2 * (num_classes - 1))
                lam = share if share <= 0.5 else share * bound
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
            assert fast.converged and reference.converged
            gap = np.abs(fast.u_next.values - reference.u_next.values).max()
            assert gap <= 10.0 * FP_TOL / (1.0 - params.lam)
            assert fast.residual <= 1e-8
            assert fast.u_next.values.min() >= 0.0
            agreed += 1
    assert agreed == 96


def test_well_posed_iterations_stay_few():
    # below lam = K / (2 (K - 1)) the plain map contracts at rate
    # lam * 2 (K - 1) / K and every Newton system is invertible: the 96
    # plain and mass-conserving solves take 422 iterations in all
    iterations = []
    for g, s, field, params in _instances(seed=2609):
        for stepper in STEPPERS:
            result = stepper(field, g, s, params)
            assert result.converged
            iterations.append(result.iterations)
    assert len(iterations) == 96
    assert sum(iterations) <= 540


def test_naive_safeguard_cycle_instance_converges():
    # while the support still changes, Newton steps overshoot here: the
    # first one, and on seed 1005 another, lands on a point that is no new
    # best, and the plain step from it to its own image lands next to the
    # fixed point, so the solves take 4 and 6 iterations (going back to the
    # best point instead cannot see that image; trying Newton again at once
    # from the overshot point cycles with period 4); the damped loop needs
    # ~350
    for seed in (1011, 1005):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        g = random_connected_graph(n, rng, r=1.0)
        s = spectral_decompose(g)
        for lam in (0.2, 0.5, 0.8, 0.95):
            u = rng.uniform(0.0, 1.0, size=n)
        params = SchemeParams.from_lambda(tau=0.4, lam=lam)
        field = SimplexField(values=np.column_stack([u, 1.0 - u]), graph=g)
        result = multiclass_mass_conserving_step(field, g, s, params)
        assert result.converged
        assert result.iterations <= 10
        two_class = semi_discrete_step(u, g, s, params)
        assert np.abs(result.u_next.values[:, 0] - two_class.u_next).max() <= 1e-10
        damped = _damped(multiclass_mass_conserving_step, field, g, s, params)
        assert damped.iterations > 300


def test_msd_trajectory_iterations_per_step():
    # the msd-n200 benchmark's first instance at seed 1, built the same way:
    # n = 200, K = 3, tau = 0.2, epsilon = 0.4 (lambda = 0.5), 8 steps that
    # all aim at the step-0 class masses; the loop takes a median of 6 a
    # step, the damped loop 46
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
    assert statistics.median(iterations) <= 10


def _linearisation_cases(seed):
    """Tiny (kind, lam, point, diffused, weights) cases for the Newton step.

    ``empty`` points carry no mass in the last class, and its diffused
    column is pushed down so the plain image keeps it empty too.
    """
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        for num_classes in (2, 3, 4, 5):
            for lam in (0.3, 0.55):
                n = int(rng.integers(3, 7))
                if kind == "one_hot":
                    point = np.eye(num_classes)[rng.integers(0, num_classes, size=n)]
                else:
                    point = rng.dirichlet(np.ones(num_classes), size=n)
                diffused = rng.dirichlet(np.ones(num_classes), size=n)
                diffused += rng.normal(scale=0.2, size=point.shape)
                if kind == "empty":
                    point[:, 0] += point[:, -1]
                    point[:, -1] = 0.0
                    diffused[:, -1] -= 2.0
                yield kind, lam, point, diffused, rng.uniform(0.5, 2.0, size=n)


def _central_jacobian(G, point, image, step=1e-5):
    """Dense Jacobian of ``G`` at ``point`` by central differences, or
    ``None`` when a probe changes the support of the image."""
    columns = []
    for index in range(point.size):
        shift = np.zeros(point.size)
        shift[index] = step
        ahead = G(point + shift.reshape(point.shape))
        behind = G(point - shift.reshape(point.shape))
        for probe in (ahead, behind):
            if not np.array_equal(probe > 0.0, image > 0.0):
                return None
        columns.append((ahead - behind).ravel() / (2.0 * step))
    return np.column_stack(columns)


def test_newton_step_solves_the_central_difference_linearisation():
    # the map is smooth while the image keeps its support, so there the
    # Newton step must solve (I - J_G) dx = G(x) - x, both without and
    # with the class masses
    checked = 0
    for kind, lam, point, diffused, weights in _linearisation_cases(seed=1818):
        num_classes = point.shape[1]
        if kind == "one_hot":
            # products without division leave one-hot rows exact
            hot = point.astype(bool)
            touches = hot[:, :, None] | hot[:, None, :]
            exact = np.where(np.eye(num_classes, dtype=bool), 0.0, -1.0 * touches)
            assert np.array_equal(multiclass._well_jacobians(point), exact)
        masses = point.T @ weights
        zero = np.zeros(num_classes)
        _, mu, _ = multiclass._project_transport(diffused, weights, masses, zero)

        def plain(x):
            return multiclass._simplex_rows(diffused + lam * multiclass._force(x))

        def conserving(x):
            # started from nearby multipliers the projection ends on the
            # image's own affine piece, so it rounds far below the step
            matrix = diffused + lam * multiclass._force(x)
            return multiclass._project_transport(matrix, weights, masses, mu)[0]

        for G, step_weights in ((plain, None), (conserving, weights)):
            image = G(point)
            if np.array_equal(image, point):
                continue  # a K = 2 point with an empty class is its own image
            jacobian = _central_jacobian(G, point, image)
            if jacobian is None:
                continue
            dx = multiclass._newton_step(point, image, lam, step_weights).ravel()
            residual = (image - point).ravel()
            defect = dx - jacobian @ dx - residual
            assert np.abs(defect).max() <= 1e-6 * np.abs(residual).max()
            checked += 1
    assert checked >= 40


def test_singular_newton_systems_fall_back_to_plain_steps(monkeypatch):
    # a LinAlgError from the Newton solve takes the plain step instead;
    # below lam = K / (2 (K - 1)) plain steps alone still converge to the
    # damped loop's fixed point
    calls = []

    def singular(*args):
        calls.append(args)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(multiclass, "_newton_step", singular)
    checked = 0
    for g, s, field, params in _instances(seed=2609):
        for stepper in STEPPERS:
            plain = stepper(field, g, s, params)
            reference = _damped(stepper, field, g, s, params)
            assert plain.converged and reference.converged
            gap = np.abs(plain.u_next.values - reference.u_next.values).max()
            assert gap <= 10.0 * FP_TOL / (1.0 - params.lam)
            checked += 1
        if field.num_classes == 3:
            # above lam*(3) = 0.75 the steps refuse before any solve
            above = SchemeParams.from_lambda(tau=params.tau, lam=0.9)
            for stepper in STEPPERS:
                with pytest.raises(DomainViolation):
                    stepper(field, g, s, above)
    assert checked == 96
    assert len(calls) >= 96


@pytest.mark.parametrize("stepper", STEPPERS)
def test_a_spent_budget_returns_one_of_its_images(monkeypatch, stepper):
    # three iterations cannot reach a displacement of 1e-16: the step comes
    # back unconverged, and what it returns is one of the projection's images
    monkeypatch.setattr(multiclass, "MAX_ITER", 3)
    monkeypatch.setattr(multiclass, "FP_TOL", 1e-16)
    images = []
    fixed_point = multiclass._fixed_point

    def recorded(project, *args):
        def kept(matrix):
            out = project(matrix)
            images.append(out[0].copy())
            return out

        return fixed_point(kept, *args)

    monkeypatch.setattr(multiclass, "_fixed_point", recorded)
    rng = np.random.default_rng(23)
    g = random_connected_graph(30, rng, r=0.5)
    field = SimplexField(values=rng.dirichlet(np.ones(3), size=30), graph=g)
    params = SchemeParams.from_lambda(tau=0.3, lam=0.5)
    result = stepper(field, g, spectral_decompose(g), params)
    assert result.converged is False
    assert result.iterations == 3
    values = result.u_next.values
    assert values.min() >= 0.0
    assert np.abs(values.sum(axis=1) - 1.0).max() <= 1e-12
    if stepper is multiclass_mass_conserving_step:
        masses = result.class_masses_in
        drift = np.abs(result.class_masses_out - masses).max()
        assert drift <= 1e-10 * (1.0 + masses.max())
    assert len(images) == 4
    assert any(np.array_equal(values, image) for image in images)


def _settle(z, lam, start):
    """Where the damped plain map ``x <- (x + P(z + lam force(x))) / 2``,
    row by row, settles from ``start``."""
    x = start
    for _ in range(20_000):
        image = multiclass._simplex_rows(z + lam * multiclass._force(x))
        if np.abs(image - x).max() <= 1e-13:
            return image
        x = 0.5 * (x + image)
    raise AssertionError("the damped loop did not settle")


def test_above_the_bound_a_row_can_have_two_fixed_points():
    # why the steps refuse lam >= K / (2 (K - 1)): below that bound the
    # plain map contracts, above it the well's curvature wins and a row can
    # keep a vertex of the simplex as a second fixed point, so the answer
    # depends on where the loop starts; 400 fresh K = 3 rows per lambda,
    # each settled from the three vertices and from the row itself
    rng = np.random.default_rng(0)
    for lam, expected in ((0.9, 2), (0.95, 8), (0.74, 0)):
        z = rng.dirichlet(np.ones(3), size=400)
        starts = [np.tile(vertex, (400, 1)) for vertex in np.eye(3)] + [z]
        ends = np.stack([_settle(z, lam, start) for start in starts])
        apart = np.ptp(ends, axis=0).max(axis=1) > 1e-6
        assert apart.sum() == expected
        if lam == 0.9:
            row = np.flatnonzero(apart)[0]
            assert_allclose(z[row], [0.308, 0.274, 0.419], atol=1e-3)
            assert np.array_equal(ends[2, row], [0.0, 0.0, 1.0])
            assert_allclose(ends[3, row], [0.181, 0.134, 0.685], atol=1e-3)


@pytest.mark.parametrize("num_classes", [2, 3, 4, 5])
@pytest.mark.parametrize("stepper", STEPPERS)
def test_steps_refuse_lambda_on_the_bound(monkeypatch, stepper, num_classes):
    # lam*(K) = K / (2 (K - 1)) is refused before the diffusion runs; the
    # float just below it is accepted, converged or not
    bound = num_classes / (2 * (num_classes - 1))
    rng = np.random.default_rng(40 + num_classes)
    g = random_connected_graph(8, rng, r=0.5)
    s = spectral_decompose(g)
    field = SimplexField(values=rng.dirichlet(np.ones(num_classes), size=8), graph=g)
    diffused = []
    diffuse = multiclass.diffuse

    def counted(*args):
        diffused.append(args)
        return diffuse(*args)

    monkeypatch.setattr(multiclass, "diffuse", counted)
    with pytest.raises(DomainViolation, match=f"K = {num_classes}"):
        stepper(field, g, s, SchemeParams.from_lambda(tau=0.3, lam=bound))
    assert diffused == []
    below = SchemeParams.from_lambda(tau=0.3, lam=float(np.nextafter(bound, 0.0)))
    result = stepper(field, g, s, below)
    assert len(diffused) == 1
    assert result.u_next.in_sigma()
