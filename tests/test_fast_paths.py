"""The seeded multiplier search, the vectorised level grouping, the
threshold step read off the relaxed profile, the mask-free certificate and
its O(log L) check on the level profile, and the scattered edge flows and
in-place Chebyshev recurrence of the diffusion, against the full
breakpoint scan, the per-vertex loop, the separate threshold fill, the
boolean-masked subgradient, and the ``np.bincount`` kernel and allocating
recurrence they replaced.

Every fast path evaluates the same floating-point expressions as the code it
replaced, so every output must match exactly, not to a tolerance.
"""

import math
import tracemalloc

import numpy as np
import pytest

from graphphase import (
    InconsistentInputs,
    random_connected_graph,
    run_trajectory,
    spectral_decompose,
    sweep_lambda,
)
from graphphase import graph_core, scheme
from graphphase.scheme import (
    GROUP_TOL,
    MboMultiplier,
    SchemeParams,
    ThresholdLevels,
    threshold_levels,
)
from references import allocating_series, bincount_outflow, masked_subgradient

LAMS = (0.25, 0.9, 0.99, 0.999, 0.9999)
INSTANCES = 1200


def loop_threshold_levels(diffused, g):
    """Reference: one pass over the sorted vertices, one level at a time."""
    order = np.argsort(diffused, kind="stable")
    labels = np.empty(g.num_vertices, dtype=int)
    values = []
    tops = []
    weights = []
    previous = None
    for idx in order:
        x = float(diffused[idx])
        if previous is None or x - previous > GROUP_TOL:
            values.append(x)
            tops.append(x)
            weights.append(0.0)
        labels[idx] = len(values) - 1
        tops[-1] = x
        weights[-1] += g.degrees_r[idx]
        previous = x
    return ThresholdLevels(
        values=np.asarray(values),
        tops=np.asarray(tops),
        weights=np.asarray(weights),
        labels=labels,
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
    monkeypatch.setattr(scheme, "_check_profile", lambda *args: None)
    rng, cases = instances
    filled = clamped = underflow = 0
    for g, diffused, lam in cases:
        levels = threshold_levels(diffused, g)
        total = float(levels.weights.sum())
        # the relaxed targets, which include fills that underflow to 0 just
        # above 0, the clamp at the total and the running-sum gap, plus the
        # full budget
        for target in [*_targets(rng, levels, lam), total]:
            level_values, multiplier = scheme._level_step(levels, target, 1.0)
            ref_u_next, ref_multiplier = fill_threshold_step(
                diffused, levels, target, g, 0.5
            )
            assert np.array_equal(level_values[levels.labels], ref_u_next)
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


def test_solve_profile_fills_every_level_below_the_first_breakpoint(monkeypatch):
    # a target an ulp below levels.total that the balance of the first
    # breakpoint, a dot product of the same weights, already meets: the
    # threshold fill leaves the light first level almost full, its 2e-12
    # gap to the next is inconsistent, and the search stops at breakpoint 0
    rng = np.random.default_rng(4)
    rest = np.sort(rng.uniform(0.0, 1.0, size=7))
    values = np.concatenate([[rest[0] - 2e-12], rest])
    weights = np.concatenate([[1e-6], 10.0 ** rng.uniform(0.0, 5.0, size=7)])
    levels = ThresholdLevels(
        values=values, tops=values.copy(), weights=weights, labels=np.arange(8)
    )
    lam = 0.7
    s = 1.0 - lam
    target = math.nextafter(levels.total, -math.inf)
    evaluations = _count_evaluations(monkeypatch)
    cold = scheme._solve_profile(levels, target, lam)
    assert evaluations  # the breakpoint search ran
    nu, lo, hi, profile = cold
    assert lo == -math.inf and hi == values[0] - s
    assert np.array_equal(profile, np.ones(8))
    points = np.concatenate([values - s, values])
    for hint in [*_hints(rng, levels, lam, nu), *(float(p) for p in points)]:
        assert _bits(scheme._solve_profile(levels, target, lam, hint)) == _bits(cold)


def _dyadic_levels(rng, g, s):
    """Levels on the grid of 1/64 around ``s``, itself on it, so that many
    shifted breakpoints ``alpha_l - s`` equal a level exactly; one level is
    -0.0 (its first member in input order) and one is ``s``, whose shifted
    breakpoint is +0.0."""
    n = g.num_vertices
    diffused = rng.integers(-16, 80, size=n) / 64.0
    picks = rng.choice(n, size=3, replace=False)
    diffused[picks] = [-0.0, 0.0, s]
    diffused[picks[1]:picks[0]] = np.where(  # keep -0.0 first of its ties
        diffused[picks[1]:picks[0]] == 0.0, -0.0, diffused[picks[1]:picks[0]]
    )
    return threshold_levels(diffused, g)


def test_breakpoints_read_the_stable_merge_on_ties():
    # the 2L breakpoints are read from their two ascending runs without a
    # merge: at every position, in any order of reading and from any seed,
    # they are the stable merge's bit for bit, the shifted run first on a
    # tie, +0.0 before a level at -0.0 included.  The solve on them returns
    # the full scan's (nu, lo, hi, values) bit for bit from every hint
    rng = np.random.default_rng(20261020)
    graphs = [random_connected_graph(n, rng, r=0.5) for n in (9, 20, 41)]
    ties = signed = searched = 0
    for index in range(36):
        g = graphs[index % len(graphs)]
        s = int(rng.integers(1, 40)) / 64.0
        lam = 1.0 - s
        levels = _dyadic_levels(rng, g, s)
        alphas = levels.values
        merged = np.sort(np.concatenate([alphas - s, alphas]), kind="stable")
        shifted = set((alphas - s).tolist())
        ties += sum(value in shifted for value in alphas.tolist())
        signed += bool(np.signbit(alphas[alphas == 0.0]).any()) and s in alphas
        seeds = [-math.inf, math.inf, *merged.tolist()]  # on every breakpoint
        for seed in seeds:
            points = scheme._Breakpoints(alphas, s)
            points.seed(seed)
            order = rng.permutation(merged.size)
            read = np.array([points.at(int(j)) for j in order])
            assert read.tobytes() == merged[order].tobytes(), (index, seed)
        exact = [
            scheme._balance_at(alphas, levels.weights, p, s)
            for p in rng.choice(merged, size=3)
        ]
        for target in [*_targets(rng, levels, lam), *exact]:
            try:
                expected, was_scan = scan_solve_profile(levels, target, lam)
            except IndexError:  # every level full: the scan has no crossing
                expected, was_scan = scheme._solve_profile(levels, target, lam), False
            searched += was_scan
            for hint in [None, math.nan, *seeds]:
                solved = scheme._solve_profile(levels, target, lam, hint)
                assert _bits(solved) == _bits(expected), (index, target, hint)
    assert ties >= 120
    assert signed >= 30
    assert searched >= 100


def test_searched_solve_allocates_no_merge():
    # a searched solve at L = 2000 holds its new values and one balance's
    # terms, never the 2L merged breakpoints: its peak stays below one
    # 2L-float array, which the merge alone took twice
    rng = np.random.default_rng(2000)
    count = 2000
    values = np.sort(rng.uniform(0.0, 1.0, size=count))
    levels = ThresholdLevels(
        values=values,
        tops=values,
        weights=rng.uniform(0.5, 2.0, size=count),
        labels=np.arange(count),
    )
    target = 0.4 * levels.total
    nu = scheme._solve_profile(levels, target, 0.3)[0]  # fills the caches
    solves = [(0.5, None), (0.5, nu), (0.9, -math.inf)]
    for lam, hint in solves:
        tracemalloc.start()
        try:
            solved = scheme._solve_profile(levels, target, lam, hint)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * count * values.itemsize
        fractional = (solved[3] > 0.0) & (solved[3] < 1.0)
        assert np.count_nonzero(fractional) > 1  # not a threshold fill


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


def _solved(levels, target, lam):
    """The solve's level profile and multiplier, read as the level step
    reads them but not checked."""
    nu, _, _, profile = scheme._solve_profile(levels, target, lam)
    if lam < 1.0:
        return profile, nu
    filled = np.flatnonzero(profile)
    k = int(filled[0]) if filled.size else levels.num_levels - 1
    return profile, MboMultiplier(k, float(levels.values[k]), float(profile[k]))


def _checked_outcome(levels, diffused, profile, multiplier, lam):
    """The level check, then the subgradient of the gathered state, as a
    step makes them: the subgradient's bits or the refusal's message."""
    try:
        if lam > 0.0:  # the plain diffusion of lam = 0 has nothing to check
            scheme._check_profile(levels, profile, multiplier, lam)
    except InconsistentInputs as exc:
        return str(exc)
    return _outcome(
        scheme._subgradient, diffused, profile[levels.labels], multiplier, lam
    )


def _shifted(multiplier, shift):
    if isinstance(multiplier, MboMultiplier):
        return multiplier._replace(threshold=multiplier.threshold + shift)
    return multiplier + shift


def test_subgradient_matches_the_masked_reference():
    # the level check and the mask-free subgradient return the masked
    # subgradient's bits, signed zeros included, and refuse what it refuses
    # with the same message, on ascending profiles: the solved one, one
    # under a shifted multiplier and another target's.  A state that no
    # solve makes, such as a profile with single vertices flipped, is
    # outside the check's contract and no longer compared
    rng = np.random.default_rng(4411)
    certified = refused = signed = 0
    for _ in range(400):
        n = int(rng.integers(5, 40))
        g = random_connected_graph(n, rng, r=0.5)
        lam = float(rng.choice([0.0, 0.25, 0.6, 0.9, 1.0 - 2.0**-30, 1.0]))
        s = 1.0 - lam
        if rng.random() < 0.5:
            # an exact profile around a multiplier of +-0.0: beta is -0.0
            # where diffused is +0.0 and u_next is 0
            nu = float(rng.choice([0.0, -0.0]))
            diffused = rng.choice([0.0, -0.0, 0.5 * s, s, s + 0.5 * lam], size=n)
            levels = threshold_levels(diffused, g)
            if lam == 1.0:
                profile = (levels.values > 0.0) * 1.0
                multiplier = MboMultiplier(0, nu, 1.0)
            else:
                profile, multiplier = np.clip((levels.values - nu) / s, 0.0, 1.0), nu
        else:
            diffused = rng.uniform(0.0, 1.0, size=n)
            diffused[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            levels = threshold_levels(diffused, g)
            if lam == 0.0:
                profile, multiplier = np.clip(levels.values, 0.0, 1.0), 0.0
            else:
                total = float(levels.weights.sum())
                profile, multiplier = _solved(levels, total * rng.random(), lam)
        total = float(levels.weights.sum())
        other, _ = _solved(levels, total * rng.random(), lam)
        variants = [
            (profile, multiplier),
            (profile, _shifted(multiplier, float(rng.choice([-0.3, 0.3])))),
            (other, multiplier),
        ]
        for state, mult in variants:
            fast = _checked_outcome(levels, diffused, state, mult, lam)
            slow = _outcome(
                masked_subgradient, diffused, state[levels.labels], mult, lam
            )
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


def _edge_multipliers(levels, profile, multiplier, lam):
    """For each end the check reads, the multiplier that puts its test
    halfway through the level it reads, between the level's smallest and
    largest member: ``(level, state there, bound of the test)``."""
    zeros = int(profile.searchsorted(0.0, side="right"))
    ones = int(profile.searchsorted(1.0, side="left"))
    count = profile.size
    tol = scheme.SIGN_TOL
    ends = []
    if zeros:
        ends += [(zeros - 1, 0.0, -tol), (0, 0.0, 1.0 + tol)]
    if ones < count:
        ends += [(ones, 1.0, tol), (count - 1, 1.0, -1.0 - tol)]
    if zeros < ones:
        ends += [(zeros, 0.0, tol), (ones - 1, 0.0, -tol)]
    edges = []
    for level, state, bound in ends:
        middle = 0.5 * float(levels.values[level] + levels.tops[level])
        if isinstance(multiplier, MboMultiplier):
            edges.append(multiplier._replace(threshold=bound + middle))
        else:
            edges.append(bound * lam + middle - state * (1.0 - lam))
    return edges


def test_check_profile_refuses_where_the_masked_reference_does(instances):
    # the O(log L) check reads the smallest member (the value) of a set's
    # first level and the largest (the top) of its last.  Chains of
    # sub-tolerance gaps from a signed zero and from 1 make levels whose two
    # members differ, and the edge multipliers put each test the check
    # makes between them, so reading one member where the other is needed
    # is caught
    rng = np.random.default_rng(20261020)
    lams = (5e-324, 0.25, 0.9, 1.0 - 2.0**-30, 1.0)
    graphs = [random_connected_graph(n, rng, r=0.5) for n in (8, 19, 35)]
    messages = {}
    profiles = 0
    for index in range(120):
        g = graphs[index % len(graphs)]
        lam = lams[index // len(graphs) % len(lams)]
        n = g.num_vertices
        diffused = _diffused(rng, n, min(lam, 0.9999))
        shape = index % 4  # unclipped with both chains, or clipped with
        if shape:          # the low chain, the high one or both
            diffused = np.clip(diffused, 0.0, 1.0)  # exact ties at 0 and 1
        chain = GROUP_TOL * 0.999 * np.arange(4)
        picks = rng.choice(n, size=8, replace=False)
        if shape != 2:
            diffused[picks[:4]] = chain
            diffused[picks[0]] = rng.choice([0.0, -0.0])
        if shape != 1:
            diffused[picks[4:]] = 1.0 + chain
        levels = threshold_levels(diffused, g)
        weights, suffix = levels.weights, levels.suffix
        # random targets, and the lowest and the highest level half filled
        targets = [
            *(float(weights.sum()) * rng.random(2)),
            float(suffix[1] + 0.5 * weights[0]),
            float(0.5 * weights[-1]),
        ]
        for target in targets:
            profile, multiplier = _solved(levels, target, lam)
            other, _ = _solved(levels, float(weights.sum()) * rng.random(), lam)
            variants = [
                (profile, multiplier),
                (profile, _shifted(multiplier, float(rng.choice([-0.3, 0.3])))),
                (other, multiplier),
                *(
                    (profile, edge)
                    for edge in _edge_multipliers(levels, profile, multiplier, lam)
                ),
            ]
            for state, mult in variants:
                assert np.all(state[1:] >= state[:-1])
                fast = _checked_outcome(levels, diffused, state, mult, lam)
                with np.errstate(over="ignore"):  # the quotients at 5e-324
                    slow = _outcome(
                        masked_subgradient, diffused, state[levels.labels], mult, lam
                    )
                assert fast == slow, (index, lam, target)
                profiles += 1
                if isinstance(fast, str):
                    messages[fast] = messages.get(fast, 0) + 1
    assert profiles >= 400
    assert len(messages) == 2
    assert min(messages.values()) >= 50
    assert profiles - sum(messages.values()) >= 200  # and many certified
    # every profile a solve returns ascends inside [0, 1], which is what
    # lets the check read only the ends of its sets
    targets_rng = np.random.default_rng(20261021)
    _, cases = instances
    for g, diffused, lam in cases:
        levels = threshold_levels(diffused, g)
        for target in _targets(targets_rng, levels, lam):
            values = scheme._solve_profile(levels, target, lam)[3]
            assert 0.0 <= values[0] and values[-1] <= 1.0
            assert np.all(values[1:] >= values[:-1])
    # a profile that does not, a solver fault, is refused, never certified
    levels = threshold_levels(diffused, g)
    profile, multiplier = _solved(levels, 0.5 * float(levels.weights.sum()), lam)
    for fault in (profile[::-1], profile - 0.5, profile + 0.5):
        with pytest.raises(InconsistentInputs, match="does not ascend"):
            scheme._check_profile(levels, fault, multiplier, lam)


def _signed_spread(rng, shape):
    """Signs at random, magnitudes from 1e-300 to 1e100, and signed zeros."""
    u = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 100, shape)
    u.flat[::5] = 0.0
    u.flat[2::7] = -0.0
    return u


def test_diffusion_keeps_the_bincount_bits(monkeypatch):
    # every vertex sums its flows from +0.0 in edge order, as bincount does,
    # and the in-place recurrence makes the allocating one's products and
    # differences, so the three public operators keep their bits
    rng = np.random.default_rng(20261020)
    cases = []
    for n in (2, 9, 60, 300):
        for r in (0.0, 0.5, 1.0):
            g = random_connected_graph(n, rng, r=r, extra_edges=2 * n)
            fields = [
                _signed_spread(rng, n),
                _signed_spread(rng, (n, 3)),
                rng.random((n, 3)),
                np.full(n, -0.0),
            ]
            cases.append((g, spectral_decompose(g), fields))

    def bits():
        out = []
        for g, s, fields in cases:
            for u in fields:
                if u.ndim == 1:
                    out.append(graph_core.laplacian_apply(u, g).tobytes())
                for t in (1e-6, 0.1, 2.0, 25.0):
                    out.append(graph_core.diffuse(u, t, s).tobytes())
                    out.append(graph_core.heat_remainder(u, t, s).tobytes())
        return out

    fast = bits()
    monkeypatch.setattr(graph_core, "_outflow", bincount_outflow)
    monkeypatch.setattr(graph_core, "_chebyshev_series", allocating_series)
    reference = bits()
    assert len(fast) == 12 * (2 + 4 * 8)  # 1-D fields also through laplacian_apply
    mismatched = [k for k, (a, b) in enumerate(zip(fast, reference)) if a != b]
    assert mismatched == []
