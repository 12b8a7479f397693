"""Mass-conserving two-phase steps: relaxed solve and threshold dynamics.

One step diffuses the state for time ``tau`` and then minimizes

    (1 - lam) <u, u> - 2 <u, diffused>     over  u in [0, 1]^V,  <u, 1> = M,

with ``lam = tau / epsilon``.  For ``lam < 1`` the minimizer is unique and has
the water-filling form ``u_i = clip((diffused_i - nu) / (1 - lam), 0, 1)``
where the scalar ``nu`` balances the mass constraint; the balance equation is
piecewise linear in ``nu`` and is solved exactly here, never by root
bracketing.  For ``lam = 1`` the objective is linear and minimizers are
threshold cuts of the diffused values with one partially filled level.  As
``lam`` approaches 1 the relaxed solution freezes onto that threshold
solution; the solve detects the regime structurally and emits the threshold
profile verbatim, because evaluating the water-filling quotient there would
divide rounding noise by ``1 - lam``.  The threshold step (:func:`mbo_step`)
is the same solve at ``lam = 1``, where that profile is always the answer.

Vertices sharing a diffused value always receive the same new value, so steps
preserve the symmetries of the input exactly.

Inputs are checked once, where they enter a public function; the unchecked
bodies behind those checks are handed only arrays the package made itself.
Diffused values are grouped after numpy's default sort, which orders distinct
values uniquely; only exact ties (``0.0`` and ``-0.0`` included) take the
stable sort, which fixes a level's value and the order its weights are summed.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryState,
    DomainViolation,
    InconsistentInputs,
    LambdaIsOne,
    MassOutOfRange,
)
from .graph_core import Graph, Spectrum, _dirichlet_energy, diffuse, inner_product, mass

__all__ = [
    "SchemeParams",
    "ThresholdLevels",
    "MboMultiplier",
    "StepResult",
    "DualCertificate",
    "threshold_levels",
    "semi_discrete_step",
    "mbo_step",
    "mbo_is_unique",
    "lyapunov_energy",
    "ginzburg_landau",
    "lyapunov_gradient",
    "dual_certificate",
]

GROUP_TOL = 1e-12   # absolute tolerance for tying diffused values
SNAP_TOL = 1e-12    # post-step snap of values this close to 0 or 1
BOX_TOL = 1e-12     # admissible overshoot of [0, 1] on input states
SIGN_TOL = 1e-8     # subgradient sign violations zeroed as rounding


@dataclass(frozen=True)
class SchemeParams:
    """Step parameters ``epsilon`` (interface width), ``tau`` (step time).

    ``lam = tau / epsilon`` in [0, 1] selects the dynamics: 0 is pure
    diffusion (``epsilon = inf``), 1 is pure thresholding, anything between is
    the relaxed mass-conserving step.
    """

    epsilon: float
    tau: float
    lam: float

    def __post_init__(self):
        _check_tau(self.tau)
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if math.isfinite(self.epsilon):
            # |tau/epsilon - lam| <= 1e-12 scaled by epsilon: a subnormal
            # tau / (tau / lam) need not round back to lam, but
            # lam * (tau / lam) rounds back to tau
            off = abs(self.lam * self.epsilon - self.tau) > 1e-12 * self.epsilon
        else:
            off = self.lam > 1e-12
        if off:
            raise ValueError(
                "inconsistent parameters: "
                f"tau/epsilon = {self.tau / self.epsilon}, lam = {self.lam}"
            )

    @classmethod
    def from_epsilon(cls, epsilon: float, tau: float) -> "SchemeParams":
        lam = tau / epsilon if math.isfinite(epsilon) else 0.0
        return cls(epsilon=epsilon, tau=tau, lam=lam)

    @classmethod
    def from_lambda(cls, tau: float, lam: float) -> "SchemeParams":
        """Build params with ``lam`` stored exactly as given."""
        epsilon = tau / lam if lam > 0 else math.inf
        return cls(epsilon=epsilon, tau=tau, lam=lam)


def _check_tau(tau) -> None:
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau}")


@dataclass(frozen=True)
class ThresholdLevels:
    """Distinct diffused values with their vertex measure.

    ``values`` ascend strictly; ``values[l]`` and ``tops[l]`` are the
    smallest and the largest diffused value in level ``l``; ``weights[l]``
    sums ``d_i**r`` over its vertices; ``labels[i]`` is the level of vertex
    ``i``.  Every step's profile over the levels ascends with the level
    index, and the vertices of a run of levels have their extreme diffused
    values at its first level's ``values`` and its last level's ``tops``.
    The O(L) sums a solve needs, ``suffix`` (with its ascending
    ``suffix_key``) and ``total``, are made once per level set and cached,
    so every solve on the same levels finds its threshold fill in O(log L).
    """

    values: np.ndarray
    tops: np.ndarray
    weights: np.ndarray
    labels: np.ndarray

    @property
    def num_levels(self) -> int:
        return self.values.size

    def level_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_levels)

    @functools.cached_property
    def suffix(self) -> np.ndarray:
        """Weight of level ``l`` and all above it at ``l``, then a final 0."""
        return np.concatenate([np.cumsum(self.weights[::-1])[::-1], [0.0]])

    @functools.cached_property
    def suffix_key(self) -> np.ndarray:
        """``-suffix[:-1]``: the suffix weights ascending, as ``searchsorted``
        needs them."""
        return -self.suffix[:-1]

    @functools.cached_property
    def total(self) -> float:
        """The plain sum of the weights, against which targets are tested."""
        return float(self.weights.sum())


class MboMultiplier(NamedTuple):
    """Threshold-step multiplier: the chosen level, its value, its fill."""

    level: int
    threshold: float
    fill: float


@dataclass(frozen=True)
class StepResult:
    """One accepted step with its optimality certificate.

    The certificate is ``multiplier`` (the mass multiplier), ``subgradient``
    (the obstacle subgradient, whose sign pattern at ``u_next`` is checked on
    the ascending level profile by ``_check_profile`` before it is built)
    and ``residual`` (the sup-norm defect of the update equation
    they satisfy).  ``mass_in`` is the mass the step conserves: the mass of
    its input, or the ``target_mass`` it was given.
    """

    u_next: np.ndarray
    multiplier: "float | MboMultiplier"
    subgradient: np.ndarray
    residual: float
    mass_in: float
    mass_out: float


@dataclass(frozen=True)
class DualCertificate:
    """Lagrange multipliers certifying a relaxed step.

    ``lower``/``upper`` are the multipliers of the constraints ``u >= 0`` and
    ``u <= 1``; ``mass_multiplier`` pairs with the mass constraint.  A valid
    step has ``gap`` at rounding size and ``slack`` (largest complementary
    slackness product) near zero.
    """

    lower: np.ndarray
    upper: np.ndarray
    mass_multiplier: float
    primal: float
    dual: float
    gap: float
    slack: float


def _ones_mass(g: Graph) -> float:
    return float(g.degrees_r.sum())


def _check_target(target_mass: float, total: float) -> float:
    """A mass target as a float; refused outside [0, total] beyond 1e-9 slack."""
    target = float(target_mass)
    if not -1e-9 * (1.0 + total) <= target <= total * (1.0 + 1e-9) + 1e-9:
        raise MassOutOfRange(f"target mass {target} outside [0, {total}]")
    return target


def _check_box(u: np.ndarray, g: Graph) -> np.ndarray:
    u = g.check_field(u)
    if u.min() < -BOX_TOL or u.max() > 1.0 + BOX_TOL:
        raise DomainViolation(
            f"state must lie in [0, 1], range is [{u.min()}, {u.max()}]"
        )
    return np.clip(u, 0.0, 1.0)


def threshold_levels(diffused: np.ndarray, g: Graph) -> ThresholdLevels:
    """Group diffused values into ascending levels with summed measure.

    Values whose gap to the previous sorted value is at most ``GROUP_TOL``
    join the same level; the level value is the smallest member, so exact
    ties (the symmetric case) keep their value bit for bit; the largest
    is the level's top.
    """
    diffused = g.check_field(diffused)
    order = np.argsort(diffused)
    ordered = diffused[order]
    if np.any(ordered[1:] == ordered[:-1]):  # ties: see the module docstring
        order = np.argsort(diffused, kind="stable")
        ordered = diffused[order]
    # the gap is taken to the previous value, not to the level's first one,
    # so a chain of small gaps stays one level
    starts = np.concatenate([[True], np.diff(ordered) > GROUP_TOL])
    sorted_labels = np.cumsum(starts) - 1
    labels = np.empty(g.num_vertices, dtype=int)
    labels[order] = sorted_labels
    return ThresholdLevels(
        values=ordered[starts],
        tops=ordered[np.append(starts[1:], True)],
        weights=np.bincount(sorted_labels, weights=g.degrees_r[order]),
        labels=labels,
    )


def _threshold_fill(levels: ThresholdLevels, target_mass: float):
    """Pick the unique level ``k`` whose partial fill meets the mass.

    Requires ``0 < target_mass <= total``.  Returns ``(k, fill)``: every
    level above ``k`` is full, every level below empty, and level ``k``
    carries ``fill`` in (0, 1].  ``(0, 1.0)`` is the all-full profile.
    One binary search over the level set's cached ``suffix_key``: O(log L).
    """
    # last index whose suffix weight still covers the target
    k = int(levels.suffix_key.searchsorted(-target_mass, side="right")) - 1
    if k < 0:
        # the running sum can end an ulp below weights.sum(); a target
        # between the two fills every level
        return 0, 1.0
    fill = (target_mass - levels.suffix.item(k + 1)) / levels.weights.item(k)
    return k, min(fill, 1.0)


def _fill_profile(num_levels: int, k: int, fill: float) -> np.ndarray:
    values = np.zeros(num_levels)
    values[k] = fill
    values[k + 1 :] = 1.0
    return values


def _clip_midpoint(lo: float, hi: float, lam: float) -> float:
    lo_c = max(lo, 0.0)
    hi_c = min(hi, lam)
    if lo_c > hi_c:
        # interval misses [0, lam] by rounding dust; take the nearest point
        anchor = lo if math.isfinite(lo) else hi
        return min(max(anchor, 0.0), lam)
    return 0.5 * (lo_c + hi_c)


def _invert_segment(p0: float, p1: float, r0: float, r1: float, m: float) -> float:
    """Solve the affine piece of the balance between breakpoints ``p0 < p1``,
    whose balances ``r0 > r1`` bracket ``m``: ``0 <= r0 - m <= r0 - r1``
    holds exactly, and rounding is monotone, so the ratio lies in [0, 1]."""
    return float(p0 + (r0 - m) / (r0 - r1) * (p1 - p0))


def _balance_at(alphas, weights, point, s) -> float:
    """``sum_l a_l clip((alpha_l - point)/s, 0, 1)``, non-increasing in
    ``point`` in floating point too: every clipped term is, and the dot
    product sums them in the same order at every point.  One L-length
    buffer, worked in place."""
    terms = alphas - point
    terms /= s
    np.maximum(terms, 0.0, out=terms)
    return float(np.minimum(terms, 1.0, out=terms) @ weights)


def _leading(holds, guess: int, count: int) -> int:
    """How many of the indices ``0 .. count - 1`` lead with ``holds`` true,
    for a predicate that is true and then false along them: a walk from
    ``guess``, a ``searchsorted`` of the same bound in exact arithmetic,
    which rounding puts at most a few distinct levels off."""
    while guess > 0 and not holds(guess - 1):
        guess -= 1
    while guess < count and holds(guess):
        guess += 1
    return guess


class _Breakpoints:
    """The 2L breakpoints ``alphas - s`` and ``alphas`` of the balance, read
    one position at a time in the order a stable sort of their concatenation
    gives, without building it.

    Both runs ascend, so the first ``j`` merged breakpoints are the first
    ``cut(j)`` of the shifted run and the first ``j - cut(j)`` levels.  On
    a tie the shifted run comes first, as the stable sort leaves it, +0.0
    before a level at -0.0 included.  ``cut(j)`` is a binary search between
    the cuts of the nearest positions already read, so a search that reads
    O(log L) positions does O(log^2 L) scalar work and allocates nothing.
    """

    def __init__(self, alphas: np.ndarray, s: float):
        self.alphas = alphas
        self.s = s
        self.count = count = alphas.size
        self.marks = [0, 2 * count]   # ascending positions with a known cut
        self.cuts = {0: 0, 2 * count: count}
        self.read = {}                # breakpoints already read, by position

    def shifted(self, i: int) -> float:
        return self.alphas.item(i) - self.s

    def seed(self, point: float) -> int:
        """The position ``searchsorted`` gives ``point`` (not NaN) among the
        merged breakpoints: the count of those below it, of which the
        shifted ones are that position's cut."""
        alphas = self.alphas
        below = _leading(
            lambda i: self.shifted(i) < point,
            int(alphas.searchsorted(point + self.s)),
            self.count,
        )
        j = below + int(alphas.searchsorted(point))
        if j not in self.cuts:
            self.cuts[j] = below
            bisect.insort(self.marks, j)
        return j

    def cut(self, j: int) -> int:
        """How many shifted breakpoints the first ``j`` merged ones hold."""
        cut = self.cuts.get(j)
        if cut is None:
            k = bisect.bisect(self.marks, j)
            below, above = self.marks[k - 1], self.marks[k]
            low = max(self.cuts[below], self.cuts[above] - (above - j))
            high = min(self.cuts[above], self.cuts[below] + (j - below))
            # the largest i whose shifted breakpoint i - 1 is among the first
            # j: no more than j - i levels lie strictly below it
            alphas, count = self.alphas, self.count
            while low < high:
                i = (low + high + 1) // 2
                if j - i == count or self.shifted(i - 1) <= alphas.item(j - i):
                    low = i
                else:
                    high = i - 1
            self.cuts[j] = cut = low
            self.marks.insert(k, j)
        return cut

    def at(self, j: int) -> float:
        """The breakpoint at merged position ``j``, ``0 <= j < 2L``."""
        point = self.read.get(j)
        if point is None:
            i = self.cut(j)
            level = j - i
            point = self.alphas.item(level) if level < self.count else math.inf
            if i < self.count and self.shifted(i) <= point:
                point = self.shifted(i)
            self.read[j] = point
        return point


def _solve_profile(levels: ThresholdLevels, target_mass: float, lam: float, hint=None):
    """Exact solve of ``sum_l a_l clip((alpha_l - nu)/(1-lam), 0, 1) = M``.

    Returns ``(nu, lo, hi, level_values)`` with ``[lo, hi]`` the full solution
    interval (before clipping into [0, lam]) and ``level_values`` the new
    per-level state.  Level values are produced without dividing by
    ``1 - lam`` whenever the threshold profile is already consistent, which
    keeps the near-threshold regime exact; otherwise the fractional levels
    get a single uniform mass repair so the step conserves mass to rounding.
    The balance is evaluated at O(log L) of the 2L breakpoints: the search
    gallops outward from the breakpoint nearest ``hint``, a guess at ``nu``,
    until it brackets the crossing and then bisects the bracket (all 2L
    without a hint or with one past the last).  A close guess costs two
    evaluations, a far one about twice the bisection's.  The balance is
    non-increasing in the breakpoint index, so any hint, NaN included,
    gives the same result bit for bit.

    Cost: each balance evaluation is O(L), and so are the new level values
    and the mass repair's dot product, which fixes their bits.  All else is
    scalar work on Python floats, O(log L) per item: the threshold fill,
    each breakpoint read, in the stable merge's order, from the two
    ascending runs by ``_Breakpoints`` without merging them, and each end
    of the fractional slice, the only levels whose values are computed.
    It holds one L-length array at a time: a balance's terms, then the new
    values.

    At ``lam = 1`` the threshold profile is always consistent: level values
    rise strictly, so both gaps are at least ``0 = 1 - lam`` times the fill.
    The solve then returns the threshold fill, and the breakpoint search,
    which divides by ``1 - lam``, is never reached.
    """
    alphas = levels.values
    weights = levels.weights
    count = levels.num_levels
    s = 1.0 - lam

    if target_mass <= 0.0:
        lo, hi = alphas.item(-1), math.inf
        return _clip_midpoint(lo, hi, lam), lo, hi, np.zeros(count)
    if target_mass >= levels.total:
        lo, hi = -math.inf, alphas.item(0) - s
        return _clip_midpoint(lo, hi, lam), lo, hi, np.ones(count)

    k, fill = _threshold_fill(levels, target_mass)
    below_ok = k == 0 or alphas.item(k) - alphas.item(k - 1) >= s * fill
    above_ok = k == count - 1 or alphas.item(k + 1) - alphas.item(k) >= s * (1.0 - fill)
    if below_ok and above_ok:
        values = _fill_profile(count, k, fill)
        if fill < 1.0:
            nu = lo = hi = alphas.item(k) - s * fill
        else:
            lo = alphas.item(k - 1) if k else -math.inf
            hi = alphas.item(k) - s
            nu = _clip_midpoint(lo, hi, lam)
        return nu, lo, hi, values

    points = _Breakpoints(alphas, s)
    size = 2 * count
    balances = {}  # by breakpoint: +-0.0 share one, as their balances agree

    def balance(j: int) -> float:
        point = points.at(j)
        value = balances.get(point)
        if value is None:
            value = balances[point] = _balance_at(alphas, weights, point, s)
        return value

    def first(predicate, start=None) -> int:
        # gallop from start, doubling the stride, until the predicate is
        # false at lo and true at hi, then bisect between them
        lo, hi, near, stride = -1, size, start, 1
        while near is not None and lo < near < hi:
            if predicate(near):
                hi, near = near, near - stride
            else:
                lo, near = near, near + stride
            stride *= 2
        return bisect.bisect_left(range(size), True, lo + 1, hi, key=predicate)

    # a NaN hint lies past the last breakpoint, where the gallop never starts
    start = None if hint is None or math.isnan(hint) else points.seed(float(hint))
    above_end = first(lambda j: balance(j) <= target_mass, start)
    if above_end == 0:
        # rounding put the target at or past the balance of the first
        # breakpoint, below which every level is full
        lo, hi = -math.inf, points.at(0)
        return _clip_midpoint(lo, hi, lam), lo, hi, np.ones(count)
    j1 = above_end - 1                              # last balance above target
    j0 = first(lambda j: balance(j) < target_mass, above_end)  # first below it
    lo = _invert_segment(
        points.at(j1), points.at(j1 + 1), balance(j1), balance(j1 + 1), target_mass
    )
    hi = _invert_segment(
        points.at(j0 - 1), points.at(j0), balance(j0 - 1), balance(j0), target_mass
    )
    hi = max(hi, lo)
    nu = _clip_midpoint(lo, hi, lam)

    # the values (alphas - nu) / s, clipped, ascend: the levels snapped to
    # 0 are a prefix, those snapped to 1 a suffix, and the fractional ones
    # the slice between them
    zeros = _leading(
        lambda level: (alphas.item(level) - nu) / s <= SNAP_TOL,
        int(alphas.searchsorted(nu + SNAP_TOL * s, side="right")),
        count,
    )
    ones = _leading(
        lambda level: (alphas.item(level) - nu) / s < 1.0 - SNAP_TOL,
        max(zeros, int(alphas.searchsorted(nu + (1.0 - SNAP_TOL) * s))),
        count,
    )
    if zeros == ones:
        # nothing to repair: the clipped values, dust at either end included
        values = alphas - nu
        values /= s
        return nu, lo, hi, np.clip(values, 0.0, 1.0, out=values)
    # snap boundary dust, then restore the mass on the fractional levels
    values = np.zeros(count)
    values[ones:] = 1.0
    fractional = values[zeros:ones]
    np.subtract(alphas[zeros:ones], nu, out=fractional)
    fractional /= s
    deficit = target_mass - float(values @ weights)
    shift = deficit / float(weights[zeros:ones].sum())
    fractional += shift
    if abs(shift) > SNAP_TOL:
        # within SNAP_TOL the fractional values cannot leave (0, 1)
        fractional.clip(0.0, 1.0, out=fractional)
    return nu, lo, hi, values


def _beta_at(d, multiplier, lam, at_one=False) -> float:
    """:func:`_subgradient` at a vertex with diffused value ``d`` and state
    0, or 1 if ``at_one``, on Python floats: they overflow to inf without
    a warning, as its quotients do under errstate."""
    d = float(d)
    if isinstance(multiplier, MboMultiplier):
        return multiplier.threshold - d
    nu = float(multiplier)
    return (nu - d + (1.0 - lam)) / lam if at_one else (nu - d) / lam


def _check_profile(levels, level_values, multiplier, lam) -> None:
    """Refuse a step whose subgradient certificate fails, before it is built.

    For ``0 < lam <= 1``, makes the refusals the sign pattern and bound of
    :func:`_subgradient` call for on ``level_values[levels.labels]``, with
    the same messages in the same order.  Every profile
    :func:`_solve_profile` returns ascends with the level index inside
    [0, 1]; one that does not is a solver fault, refused by the only O(L)
    test here.  Then the levels at 0, the partly filled ones and those at 1
    are a prefix, a slice and a suffix, and the subgradient does not rise
    with the diffused value, in floating point too, so each test holds on
    a set exactly when it holds at an end of it: two binary searches and
    at most six scalars, O(log L).
    """
    count = level_values.size
    if not (
        level_values[0] >= 0.0
        and level_values[-1] <= 1.0
        and (level_values[1:] >= level_values[:-1]).all()
    ):
        raise InconsistentInputs("step profile does not ascend within [0, 1]")
    zeros = int(level_values.searchsorted(0.0, side="right"))
    ones = int(level_values.searchsorted(1.0, side="left"))
    values, tops = levels.values, levels.tops
    # a wrong sign within rounding is zeroed, so only values of the right
    # sign can leave [-1, 1]: the largest at 0, the most negative at 1
    wrong = leaves = False
    if zeros:
        # >= 0 at 0: least at the top of the prefix, greatest at its bottom
        wrong = _beta_at(tops[zeros - 1], multiplier, lam) < -SIGN_TOL
        leaves = _beta_at(values[0], multiplier, lam) > 1.0 + SIGN_TOL
    if ones < count:
        # <= 0 at 1: greatest at the bottom of the suffix, least at its top
        bottom = _beta_at(values[ones], multiplier, lam, at_one=True)
        top = _beta_at(tops[-1], multiplier, lam, at_one=True)
        wrong = wrong or bottom > SIGN_TOL
        leaves = leaves or -top > 1.0 + SIGN_TOL
    if zeros < ones and isinstance(multiplier, MboMultiplier):
        # 0 on partly filled threshold levels; the relaxed form is built 0
        wrong = wrong or (
            _beta_at(values[zeros], multiplier, lam) > SIGN_TOL
            or _beta_at(tops[ones - 1], multiplier, lam) < -SIGN_TOL
        )
    if wrong:
        raise InconsistentInputs(
            "subgradient sign pattern violates the state beyond rounding"
        )
    if leaves:
        raise InconsistentInputs("subgradient leaves [-1, 1]")


def _subgradient(diffused, u_next, multiplier, lam) -> np.ndarray:
    """The step's subgradient, the obstacle part of its certificate.

    The relaxed form is zero on strictly interior values.  Its sign pattern
    at ``u_next`` and its bound are checked on the ascending level profile
    by :func:`_check_profile` first, so what is left is rounding: sign
    violations are zeroed and the rest is clipped into [-1, 1].
    """
    at_zero = u_next == 0.0
    at_one = u_next == 1.0
    if isinstance(multiplier, MboMultiplier):
        beta = multiplier.threshold - diffused
    elif lam > 0.0:
        nu, s = float(multiplier), 1.0 - lam
        # a quotient that overflows (lam near 0) is zeroed or clipped below
        with np.errstate(over="ignore"):
            low, high = (nu - diffused) / lam, (nu - diffused + s) / lam
        beta = np.where(at_zero, low, np.where(at_one, high, 0.0))
    else:
        beta = np.zeros_like(diffused)
    wrong = (at_zero & (beta < 0.0)) | (at_one & (beta > 0.0))
    if isinstance(multiplier, MboMultiplier):
        # the other forms are built exactly 0 off {0, 1}
        wrong |= (u_next > 0.0) & (u_next < 1.0) & (beta != 0.0)
    beta[wrong] = 0.0
    return np.clip(beta, -1.0, 1.0, out=beta)


def _residual_from_diffused(diffused, u_next, beta, g, params):
    """Sup-norm defect of the update equation ``u_next = diffused + lam (w - avg w)``,
    with ``w = u_next + beta`` and ``avg`` the mean weighted by ``degrees_r``."""
    lam = params.lam
    total = _ones_mass(g)
    avg_next = float(np.dot(u_next, g.degrees_r)) / total
    avg_beta = float(np.dot(beta, g.degrees_r)) / total
    defect = (
        u_next
        - diffused
        - lam * (u_next - avg_next)
        - lam * (beta - avg_beta)
    )
    return float(np.abs(defect).max())


def _diffused_state(u_n, g, s, tau, diffused=None):
    """``u_n`` boxed, its mass, and its diffusion, reusing ``diffused`` if
    given; the caller checks a given ``diffused``."""
    g.check_spectrum(s)
    u_n = _check_box(u_n, g)
    if diffused is None:
        diffused = diffuse(u_n, tau, s)
    return u_n, float(np.dot(u_n, g.degrees_r)), np.asarray(diffused, dtype=float)


def _step_result(diffused, u_next, multiplier, mass_in, g, params) -> StepResult:
    beta = _subgradient(diffused, u_next, multiplier, params.lam)
    return StepResult(
        u_next=u_next,
        multiplier=multiplier,
        subgradient=beta,
        residual=_residual_from_diffused(diffused, u_next, beta, g, params),
        mass_in=mass_in,
        mass_out=float(np.dot(u_next, g.degrees_r)),
    )


def _level_step(levels, mass_in, lam, hint=None):
    """Certified new level values and multiplier for ``0 < lam <= 1``.

    Vertex ``i`` takes ``level_values[levels.labels[i]]``.  The values
    ascend with the level index, and :func:`_check_profile` refuses the
    step on them wherever its subgradient certificate would fail.  At
    ``lam = 1`` the multiplier is read off the threshold profile: the
    lowest level not left empty, its value and its fill; the top level if
    all are empty, as no diffused value lies above its threshold.
    """
    nu, _, _, level_values = _solve_profile(levels, mass_in, lam, hint)
    if lam == 1.0:
        filled = np.flatnonzero(level_values)
        k = int(filled[0]) if filled.size else levels.num_levels - 1
        multiplier = MboMultiplier(
            level=k, threshold=float(levels.values[k]), fill=float(level_values[k])
        )
    else:
        multiplier = nu
    _check_profile(levels, level_values, multiplier, lam)
    return level_values, multiplier


def _step(u_n, g, s, params, diffused, target_mass, hint=None) -> StepResult:
    """Both public steps; ``lam = 0`` is plain diffusion."""
    u_n, mass_in, diffused = _diffused_state(u_n, g, s, params.tau, diffused)
    if target_mass is not None:
        mass_in = _check_target(target_mass, _ones_mass(g))
    if params.lam == 0.0:
        diffused = g.check_field(diffused)  # else threshold_levels checks it
        u_next = np.clip(diffused, 0.0, 1.0)
        return _step_result(diffused, u_next, 0.0, mass_in, g, params)
    levels = threshold_levels(diffused, g)
    level_values, multiplier = _level_step(levels, mass_in, params.lam, hint)
    u_next = level_values[levels.labels]
    return _step_result(diffused, u_next, multiplier, mass_in, g, params)


def semi_discrete_step(
    u_n: np.ndarray,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
    *,
    diffused: np.ndarray | None = None,
    target_mass: float | None = None,
    multiplier_hint: float | None = None,
) -> StepResult:
    """One relaxed mass-conserving step (``lam < 1``).

    Diffuses, solves the multiplier equation exactly, assigns each threshold
    level its solved value, and recovers the subgradient certificate.  With
    ``lam = 0`` the step is plain diffusion.  ``diffused``, if given, must be
    ``diffuse(u_n, params.tau, s)`` and replaces the step's own.  The new
    state has mass ``target_mass``, by default the mass of ``u_n``; a run
    passes its starting mass, so rounding in one step's mass does not move
    the next step's target.  ``multiplier_hint``, a guess at the multiplier
    such as the previous step's, only speeds up the solve: any float, NaN
    and infinities included, gives the same step bit for bit.  Raises
    :class:`~graphphase.errors.LambdaIsOne` for ``lam = 1`` (use
    :func:`mbo_step`) and :class:`~graphphase.errors.DomainViolation` for
    states outside [0, 1].
    """
    if params.lam == 1.0:
        raise LambdaIsOne("semi_discrete_step requires lam < 1")
    return _step(u_n, g, s, params, diffused, target_mass, multiplier_hint)


def mbo_step(
    u_n: np.ndarray,
    g: Graph,
    s: Spectrum,
    tau: float,
    *,
    diffused: np.ndarray | None = None,
    target_mass: float | None = None,
) -> StepResult:
    """One mass-conserving threshold step (``lam = 1``).

    The relaxed step's profile at ``lam = 1``: diffused levels fill from the
    top until the mass budget, ``target_mass`` or else the mass of ``u_n``,
    is spent, and the boundary level is filled uniformly with the leftover
    fraction.  ``diffused``, if given, must be ``diffuse(u_n, tau, s)``.
    """
    params = SchemeParams.from_lambda(tau=tau, lam=1.0)
    return _step(u_n, g, s, params, diffused, target_mass)


def mbo_is_unique(u_n: np.ndarray, g: Graph, s: Spectrum, tau: float) -> bool:
    """Whether the threshold step from ``u_n`` has a single minimizer.

    True when the mass budget closes exactly at a level boundary or when the
    partially filled level holds a single vertex; otherwise the level set
    admits a continuum of equally good fills and :func:`mbo_step` returns the
    uniform one.
    """
    _, mass_in, diffused = _diffused_state(u_n, g, s, tau)
    levels = threshold_levels(diffused, g)
    if mass_in <= 0.0 or mass_in >= levels.total:
        return True
    k, fill = _threshold_fill(levels, mass_in)
    return fill >= 1.0 - 1e-12 or int(levels.level_sizes()[k]) == 1


def lyapunov_energy(
    u: np.ndarray,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
    *,
    diffused: np.ndarray | None = None,
) -> tuple[float, float]:
    """Descent functional of the stepping scheme and its ``1/(2 tau)`` scaling.

    Nonnegative, non-increasing along both step types; the scaled form
    converges to the Ginzburg-Landau energy as ``tau`` shrinks.
    ``diffused``, if given, must be ``diffuse(u, params.tau, s)``.
    """
    u, _, given = _diffused_state(u, g, s, params.tau, diffused)
    diffused = given if diffused is None else g.check_field(given)
    weighted = u * g.degrees_r
    smooth = float(np.dot(weighted, u - diffused))
    obstacle = params.lam * float(np.dot(weighted, 1.0 - u))
    value = obstacle + smooth
    return value, value / (2.0 * params.tau)


def ginzburg_landau(u: np.ndarray, g: Graph, epsilon: float) -> float:
    """Graph Ginzburg-Landau energy with the double-obstacle well.

    Returns ``+inf`` outside the box ``[0, 1]^V``.
    """
    u = g.check_field(u)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if u.min() < -BOX_TOL or u.max() > 1.0 + BOX_TOL:
        return math.inf
    u = np.clip(u, 0.0, 1.0)
    smooth = _dirichlet_energy(u, g)
    well = 0.5 * float(np.dot(g.degrees_r, u * (1.0 - u)))
    if math.isinf(epsilon):
        return smooth
    return smooth + well / epsilon


def lyapunov_gradient(
    u: np.ndarray, g: Graph, s: Spectrum, params: SchemeParams
) -> np.ndarray:
    """Gradient of the descent functional along the fixed-mass plane.

    Defined for strictly interior states only; the result is orthogonal to
    constants in the weighted inner product, so fixed points of the dynamics
    inside the box are exactly its zeros.
    """
    u = g.check_field(u)
    g.check_spectrum(s)
    if u.min() <= 0.0 or u.max() >= 1.0:
        raise BoundaryState("gradient needs a strictly interior state")
    avg = mass(u, g) / _ones_mass(g)
    return (
        2.0 * (u - diffuse(u, params.tau, s))
        - 2.0 * params.lam * u
        + 2.0 * params.lam * avg
    )


def dual_certificate(
    u_n: np.ndarray,
    step: StepResult,
    g: Graph,
    s: Spectrum,
    params: SchemeParams,
) -> DualCertificate:
    """Build the Lagrange certificate for a relaxed step (``lam < 1``).

    The box multipliers are read off the active sets of the new state; a
    correct step makes the dual value meet the primal value (strong duality),
    so the returned ``gap`` measures how close the pair is to optimal.
    """
    if params.lam == 1.0:
        raise LambdaIsOne("dual certificate exists for lam < 1 only")
    if isinstance(step.multiplier, MboMultiplier):
        raise InconsistentInputs("threshold steps carry no scalar multiplier")
    nu = float(step.multiplier)
    _, _, diffused = _diffused_state(u_n, g, s, params.tau)
    u_next = g.check_field(step.u_next)
    s_comp = 1.0 - params.lam

    lower = np.zeros_like(u_next)
    upper = np.zeros_like(u_next)
    at_zero = u_next == 0.0
    at_one = u_next == 1.0
    lower[at_zero] = np.maximum(0.0, 2.0 * nu - 2.0 * diffused[at_zero])
    upper[at_one] = np.maximum(
        0.0, 2.0 * diffused[at_one] - 2.0 * s_comp - 2.0 * nu
    )

    u_star = (2.0 * diffused + lower - upper - 2.0 * nu) / (2.0 * s_comp)
    m = mass(u_next, g)
    primal = s_comp * inner_product(u_next, u_next, g) - 2.0 * inner_product(
        u_next, diffused, g
    )
    dual = -(
        s_comp * inner_product(u_star, u_star, g)
        + mass(upper, g)
        + 2.0 * nu * m
    )
    slack = max(
        float(np.abs(lower * u_next).max(initial=0.0)),
        float(np.abs(upper * (1.0 - u_next)).max(initial=0.0)),
    )
    return DualCertificate(
        lower=lower,
        upper=upper,
        mass_multiplier=float(nu),
        primal=primal,
        dual=dual,
        gap=primal - dual,
        slack=slack,
    )
