"""The seeded multiplier search, the vectorised level grouping, the
threshold step read off the relaxed profile and the mask-free certificate,
against the full breakpoint scan, the per-vertex loop, the separate
threshold fill and the boolean-masked subgradient they replaced.

Every fast path evaluates the same floating-point expressions as the code it
replaced, so every output must match exactly, not to a tolerance.
"""

import math

import numpy as np
import pytest

from graphphase import (
    InconsistentInputs,
    random_connected_graph,
    run_trajectory,
    spectral_decompose,
    sweep_lambda,
)
from graphphase import scheme
from graphphase.scheme import (
    GROUP_TOL,
    MboMultiplier,
    SchemeParams,
    ThresholdLevels,
    threshold_levels,
)
from references import masked_subgradient

LAMS = (0.25, 0.9, 0.99, 0.999, 0.9999)
INSTANCES = 1200


def loop_threshold_levels(diffused, g):
    """Reference: one pass over the sorted vertices, one level at a time."""
    order = np.argsort(diffused, kind="stable")
    labels = np.empty(g.num_vertices, dtype=int)
    values = []
    weights = []
    previous = None
    for idx in order:
        x = float(diffused[idx])
        if previous is None or x - previous > GROUP_TOL:
            values.append(x)
            weights.append(0.0)
        labels[idx] = len(values) - 1
        weights[-1] += g.degrees_r[idx]
        previous = x
    return ThresholdLevels(
        values=np.asarray(values), weights=np.asarray(weights), labels=labels
    )


def scan_solve_profile(levels, target_mass, lam):
    """Reference: the balance evaluated at every one of the 2L breakpoints.

    Returns the solve and whether it reached the breakpoint scan.  The scan
    raises IndexError when no breakpoint's balance exceeds the target.
    """
    alphas = levels.values
    weights = levels.weights
    count = levels.num_levels
    s = 1.0 - lam
    total = float(weights.sum())

    if target_mass <= 0.0:
        lo, hi = float(alphas[-1]), math.inf
        return (scheme._clip_midpoint(lo, hi, lam), lo, hi, np.zeros(count)), False
    if target_mass >= total:
        lo, hi = -math.inf, float(alphas[0]) - s
        return (scheme._clip_midpoint(lo, hi, lam), lo, hi, np.ones(count)), False

    k, fill = scheme._threshold_fill(levels, target_mass)
    below_ok = k == 0 or alphas[k] - alphas[k - 1] >= s * fill
    above_ok = k == count - 1 or alphas[k + 1] - alphas[k] >= s * (1.0 - fill)
    if below_ok and above_ok:
        values = scheme._fill_profile(count, k, fill)
        if fill < 1.0:
            nu = lo = hi = float(alphas[k] - s * fill)
        else:
            lo = float(alphas[k - 1]) if k else -math.inf
            hi = float(alphas[k] - s)
            nu = scheme._clip_midpoint(lo, hi, lam)
        return (nu, lo, hi, values), False

    def invert(points, rhs, i, m):
        if rhs[i] == rhs[i + 1] or points[i + 1] == points[i]:
            return float(points[i + 1] if rhs[i] > m else points[i])
        t = (rhs[i] - m) / (rhs[i] - rhs[i + 1])
        return float(points[i] + min(max(t, 0.0), 1.0) * (points[i + 1] - points[i]))

    points = np.sort(np.concatenate([alphas - s, alphas]))
    rhs = np.array(
        [float(np.clip((alphas - b) / s, 0.0, 1.0) @ weights) for b in points]
    )
    j0 = int(np.argmax(rhs < target_mass))
    j1 = rhs.size - 1 - int(np.argmax(rhs[::-1] > target_mass))
    lo = invert(points, rhs, j1, target_mass)
    hi = invert(points, rhs, j0 - 1, target_mass)
    hi = max(hi, lo)
    nu = scheme._clip_midpoint(lo, hi, lam)

    values = np.clip((alphas - nu) / s, 0.0, 1.0)
    near_zero = values <= scheme.SNAP_TOL
    near_one = values >= 1.0 - scheme.SNAP_TOL
    fractional = ~near_zero & ~near_one
    if fractional.any():
        values[near_zero] = 0.0
        values[near_one] = 1.0
        deficit = target_mass - float(values @ weights)
        values[fractional] += deficit / float(weights[fractional].sum())
        np.clip(values, 0.0, 1.0, out=values)
    return (nu, lo, hi, values), True


def fill_threshold_step(diffused, levels, mass_in, g, tau):
    """Reference: the threshold step as a fill of its own, apart from the solve."""
    total = float(levels.weights.sum())
    if mass_in <= 0.0:
        k, fill = 0, 0.0
        level_values = np.zeros(levels.num_levels)
    elif mass_in >= total:
        k, fill = 0, 1.0
        level_values = np.ones(levels.num_levels)
    else:
        k, fill = scheme._threshold_fill(levels, mass_in)
        level_values = scheme._fill_profile(levels.num_levels, k, fill)

    u_next = level_values[levels.labels]
    multiplier = MboMultiplier(
        level=k, threshold=float(levels.values[k]), fill=float(fill)
    )
    params = SchemeParams.from_lambda(tau=tau, lam=1.0)
    return scheme._step_result(diffused, u_next, multiplier, mass_in, g, params)


def _diffused(rng, n, lam):
    """Values in [0, 1] with exact ties, sub-tolerance chains and clusters.

    Clusters are spread over about ``1 - lam`` so the threshold profile is
    often inconsistent and the solve has to reach the breakpoint search.
    """
    u = rng.uniform(0.0, 1.0, size=n)
    spread = (1.0 - lam) * rng.uniform(0.5, 4.0)
    cluster = rng.random(n) < 0.5
    u[cluster] = 0.5 + spread * rng.random(cluster.sum())
    ties = rng.random(n) < 0.2
    u[ties] = rng.choice(u, size=ties.sum())
    # a chain of gaps just under the tolerance, anywhere in the vector
    chain = rng.choice(n, size=min(n, int(rng.integers(2, 8))), replace=False)
    u[chain] = u[chain[0]] + GROUP_TOL * 0.999 * np.arange(chain.size)
    return u


def _ulps_from(x, direction, count):
    for _ in range(count):
        x = float(np.nextafter(x, direction))
    return x


def _targets(rng, levels, lam):
    weights = levels.weights
    total = float(weights.sum())
    s = 1.0 - lam
    # the balance at the first breakpoint, where every level is full, and
    # the running sum of the weights from the top can both sit an ulp or two
    # off the plain sum; targets between them reach the breakpoint search or
    # the all-full clamp of the level fill
    first = float(
        np.clip((levels.values - (levels.values[0] - s)) / s, 0.0, 1.0) @ weights
    )
    from_top = float(np.cumsum(weights[::-1])[-1])
    return [
        *(total * rng.random(3)),
        _ulps_from(0.0, 1.0, int(rng.integers(1, 4))),
        _ulps_from(total, 0.0, int(rng.integers(1, 4))),
        first,
        _ulps_from(first, math.inf, 1),
        _ulps_from(from_top, math.inf, 1),
    ]


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(20261018)
    graphs = [
        random_connected_graph(n, rng, r=r)
        for n, r in [(6, 0.0), (11, 0.5), (17, 1.0), (24, 0.5), (40, 0.0)]
    ]
    cases = []
    for index in range(INSTANCES):
        g = graphs[index % len(graphs)]
        lam = LAMS[index // len(graphs) % len(LAMS)]
        cases.append((g, _diffused(rng, g.num_vertices, lam), lam))
    return rng, cases


def test_threshold_levels_match_loop(instances):
    _, cases = instances
    for g, diffused, _ in cases:
        fast = threshold_levels(diffused, g)
        slow = loop_threshold_levels(diffused, g)
        assert np.array_equal(fast.values, slow.values)
        assert np.array_equal(fast.weights, slow.weights)
        assert np.array_equal(fast.labels, slow.labels)


def test_solve_profile_matches_scan(instances):
    rng, cases = instances
    scanned = degenerate = 0
    for g, diffused, lam in cases:
        levels = threshold_levels(diffused, g)
        for target in _targets(rng, levels, lam):
            nu, lo, hi, values = scheme._solve_profile(levels, target, lam)
            try:
                (ref_nu, ref_lo, ref_hi, ref_values), was_scan = (
                    scan_solve_profile(levels, target, lam)
                )
            except IndexError:
                # no breakpoint balance above the target: everything is full
                degenerate += 1
                assert lo == -math.inf
                assert hi == float(np.min(levels.values - (1.0 - lam)))
                assert np.array_equal(values, np.ones(levels.num_levels))
                continue
            scanned += was_scan
            assert (nu, lo, hi) == (ref_nu, ref_lo, ref_hi)
            assert np.array_equal(values, ref_values)
            if lo == -math.inf and target < float(levels.weights.sum()):
                # a target below the plain sum of the weights that rounding
                # lets fill every level, as the scan's IndexError case did
                degenerate += 1
                assert hi == float(np.min(levels.values - (1.0 - lam)))
                assert np.array_equal(values, np.ones(levels.num_levels))
    assert scanned >= INSTANCES
    assert degenerate >= 10


def test_threshold_step_is_the_lambda_one_profile(instances, monkeypatch):
    # the clustered values leave [0, 1], so the subgradient certificate
    # (shared by both paths) would refuse many of them: compare the new
    # state and the multiplier, which are all the two paths differ in
    monkeypatch.setattr(
        scheme, "_step_result", lambda diffused, u_next, mult, *rest: (u_next, mult)
    )
    rng, cases = instances
    filled = clamped = underflow = 0
    for g, diffused, lam in cases:
        levels = threshold_levels(diffused, g)
        total = float(levels.weights.sum())
        # the relaxed targets, which include fills that underflow to 0 just
        # above 0, the clamp at the total and the running-sum gap, plus the
        # full budget
        for target in [*_targets(rng, levels, lam), total]:
            u_next, multiplier = scheme._level_step(levels, target, 1.0)
            ref_u_next, ref_multiplier = fill_threshold_step(
                diffused, levels, target, g, 0.5
            )
            assert np.array_equal(u_next, ref_u_next)
            assert multiplier == ref_multiplier
            assert type(multiplier.level) is int
            filled += 0.0 < multiplier.fill < 1.0
            clamped += 0.0 < target < total and multiplier.fill == 1.0
            underflow += target > 0.0 and multiplier.fill == 0.0
    assert filled >= INSTANCES
    assert clamped >= 10
    assert underflow >= 10


def test_tied_values_are_grouped_in_stable_order():
    # exact duplicates send the grouping to the stable sort: a level's value
    # is its first member in input order (0.0 or -0.0) and its weights are
    # summed in input order, which moves their bits for ties of three or
    # more; the default sort alone would miss both
    rng = np.random.default_rng(77)
    signed = summed = 0
    for _ in range(150):
        n = int(rng.integers(20, 200))
        g = random_connected_graph(n, rng, r=float(rng.choice([0.5, 1.0])))
        pool = np.concatenate([[0.0, -0.0], rng.uniform(-1.0, 1.0, size=4)])
        diffused = rng.uniform(-1.0, 1.0, size=n)
        tied = rng.random(n) < 0.7
        diffused[tied] = rng.choice(pool, size=tied.sum())
        fast = threshold_levels(diffused, g)
        slow = loop_threshold_levels(diffused, g)
        assert fast.values.tobytes() == slow.values.tobytes()
        assert fast.weights.tobytes() == slow.weights.tobytes()
        assert np.array_equal(fast.labels, slow.labels)
        order = np.argsort(diffused)
        ordered = diffused[order]
        starts = np.concatenate([[True], np.diff(ordered) > GROUP_TOL])
        unstable = np.bincount(np.cumsum(starts) - 1, weights=g.degrees_r[order])
        signed += ordered[starts].tobytes() != slow.values.tobytes()
        summed += unstable.tobytes() != slow.weights.tobytes()
    assert signed >= 10
    assert summed >= 10


def _bits(solve):
    nu, lo, hi, values = solve
    return np.array([nu, lo, hi]).tobytes(), values.tobytes()


def _hints(rng, levels, lam, nu):
    s = 1.0 - lam
    points = np.concatenate([levels.values - s, levels.values])
    return [
        None, nu, nu - 10.0, nu + 10.0, math.inf, -math.inf, math.nan,
        *rng.uniform(-1.5, 2.5, size=3),
        *(float(p) for p in rng.choice(points, size=2)),  # on a breakpoint
    ]


def test_solve_profile_is_hint_neutral():
    # every hint, absurd ones included, returns the scan's breakpoints and
    # values bit for bit: the seeded search changes the cost, not the answer
    rng = np.random.default_rng(20261019)
    lams = (5e-324, 0.25, 0.9, 0.999, 1.0 - 2.0**-30, 1.0 - 2.0**-40)
    graphs = [random_connected_graph(n, rng, r=0.5) for n in (7, 16, 33)]
    searched = signed = 0
    for index in range(240):
        g = graphs[index % len(graphs)]
        lam = lams[index // len(graphs) % len(lams)]
        diffused = _diffused(rng, g.num_vertices, min(lam, 0.9999))
        # levels at +-0.0 and at 1 - lam put breakpoints at +-0.0
        picks = rng.choice(g.num_vertices, size=3, replace=False)
        diffused[picks] = [*rng.permutation([0.0, -0.0]), 1.0 - lam]
        levels = threshold_levels(diffused, g)
        points = np.concatenate([levels.values - (1.0 - lam), levels.values])
        zeros = points[points == 0.0]
        signed += np.signbit(zeros).any() and not np.signbit(zeros).all()
        # targets met exactly at a breakpoint, where the balance may be flat
        exact = [
            scheme._balance_at(levels.values, levels.weights, p, 1.0 - lam)
            for p in rng.choice(points, size=2)
        ]
        for target in [*_targets(rng, levels, lam), *exact]:
            cold = scheme._solve_profile(levels, target, lam)
            try:
                expected, was_scan = scan_solve_profile(levels, target, lam)
            except IndexError:  # every level full: the scan has no crossing
                expected, was_scan = cold, False
            assert _bits(cold) == _bits(expected)
            searched += was_scan
            for hint in _hints(rng, levels, lam, cold[0]):
                warm = scheme._solve_profile(levels, target, lam, hint)
                assert _bits(warm) == _bits(expected), (index, target, hint)
    assert searched >= 240
    assert signed >= 20


def _count_evaluations(monkeypatch):
    """Balance evaluations of each solve that evaluated any, in call order."""
    counts = []
    balance, solve = scheme._balance_at, scheme._solve_profile

    def counted_balance(*args):
        counts[-1] += 1
        return balance(*args)

    def counted_solve(*args, **kwargs):
        counts.append(0)
        result = solve(*args, **kwargs)
        if not counts[-1]:
            counts.pop()
        return result

    monkeypatch.setattr(scheme, "_balance_at", counted_balance)
    monkeypatch.setattr(scheme, "_solve_profile", counted_solve)
    return counts


def test_cold_and_far_searches_stay_logarithmic(instances, monkeypatch):
    # without a hint the search is the plain bisection; a hint at either end
    # of the breakpoints costs at most about twice as much
    counts = _count_evaluations(monkeypatch)
    rng, cases = instances
    for g, diffused, lam in cases[::4]:
        levels = threshold_levels(diffused, g)
        bound = math.ceil(math.log2(2 * levels.num_levels)) + 2
        for target in _targets(rng, levels, lam):
            for hint in (None, -math.inf, float(levels.values[-1])):
                del counts[:]
                scheme._solve_profile(levels, target, lam, hint)
                assert sum(counts) <= (bound if hint is None else 2 * bound)


@pytest.fixture(scope="module")
def stepping_instance():
    rng = np.random.default_rng(1107)
    g = random_connected_graph(600, rng, r=0.5, extra_edges=1800)
    return g, spectral_decompose(g), rng.uniform(0.0, 1.0, size=600)


def test_seeded_sweep_averages_few_evaluations(stepping_instance, monkeypatch):
    # the benchmark's grid: 32 even lambdas, then the ladder 1 - 2^-j
    g, s, u0 = stepping_instance
    lambdas = [k / 33 for k in range(1, 33)] + [1.0 - 2.0**-j for j in range(6, 31)]
    assert len(lambdas) == 57
    counts = _count_evaluations(monkeypatch)
    sweep_lambda(u0, g, s, 0.1, lambdas)
    assert len(counts) >= 20
    assert sum(counts) / len(counts) <= 4.0


def test_seeded_run_averages_few_evaluations(stepping_instance, monkeypatch):
    g, s, u0 = stepping_instance
    counts = _count_evaluations(monkeypatch)
    params = SchemeParams.from_epsilon(epsilon=0.4, tau=0.1)
    traj = run_trajectory(u0, g, s, params, max_steps=40, fixed_point_tol=-1.0)
    assert traj.num_steps == 40
    assert len(counts) >= 20
    assert sum(counts) / traj.num_steps <= 4.0


def _outcome(subgradient, diffused, u_next, multiplier, lam):
    try:
        return subgradient(diffused, u_next, multiplier, lam).tobytes()
    except InconsistentInputs as exc:
        return str(exc)


def test_subgradient_matches_the_masked_reference():
    # the mask-free certificate returns the masked one's bits, signed zeros
    # included, and refuses what it refuses with the same message
    rng = np.random.default_rng(4411)
    certified = refused = signed = 0
    for _ in range(400):
        n = int(rng.integers(5, 40))
        lam = float(rng.choice([0.0, 0.25, 0.6, 0.9, 1.0 - 2.0**-30, 1.0]))
        s = 1.0 - lam
        if rng.random() < 0.5:
            # an exact profile around a multiplier of +-0.0: beta is -0.0
            # where diffused is +0.0 and u_next is 0
            nu = float(rng.choice([0.0, -0.0]))
            diffused = rng.choice([0.0, -0.0, 0.5 * s, s, s + 0.5 * lam], size=n)
            if lam == 1.0:
                u_next, multiplier = (diffused > 0.0) * 1.0, MboMultiplier(0, nu, 1.0)
            else:
                u_next, multiplier = np.clip((diffused - nu) / s, 0.0, 1.0), nu
        else:
            g = random_connected_graph(n, rng, r=0.5)
            diffused = rng.uniform(0.0, 1.0, size=n)
            diffused[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            if lam == 0.0:
                u_next, multiplier = np.clip(diffused, 0.0, 1.0), 0.0
            else:
                levels = threshold_levels(diffused, g)
                total = float(levels.weights.sum())
                u_next, multiplier = scheme._level_step(
                    levels, total * rng.random(), lam
                )
        variants = [(u_next, multiplier)]
        bad = u_next.copy()
        flips = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        bad[flips] = rng.choice([0.0, 1.0, 0.5], size=flips.size)
        variants.append((bad, multiplier))
        if isinstance(multiplier, MboMultiplier):
            shifted = multiplier._replace(threshold=multiplier.threshold + 0.3)
        else:
            shifted = multiplier + float(rng.choice([-0.3, 0.3]))
        variants.append((u_next, shifted))
        for state, mult in variants:
            fast = _outcome(scheme._subgradient, diffused, state, mult, lam)
            slow = _outcome(masked_subgradient, diffused, state, mult, lam)
            assert fast == slow
            if isinstance(fast, bytes):
                certified += 1
                beta = np.frombuffer(fast)
                signed += bool((np.signbit(beta) & (beta == 0.0)).any())
            else:
                refused += 1
    assert certified >= 400
    assert refused >= 200
    assert signed >= 20
