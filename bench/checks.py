"""Output checks, each against a computation made apart from the program.

The references here use numpy only: degrees summed from the generated edge
list, a dense heat kernel from their own symmetric eigendecomposition, a
water-filling solve whose multiplier is found by bisection, and a top-down
fill for threshold dynamics.  Properties the method must have (mass
conservation, energy descent, lock-on, simplex rows) are checked as such.
No check compares against a stored copy of earlier output.

Each check function returns a list of failure messages; empty means passed.
"""

import csv
import json
import os

import numpy as np

MASS_DRIFT = 1e-9      # relative mass drift allowed along a run (a01)
DESCENT_TOL = 1e-9     # admissible rise of H between steps (a02)
STEP_TOL = 1e-8        # one relaxed step against the water-filling
OBJECTIVE_TOL = 1e-10  # threshold objective against the top-down fill (a04)
SIMPLEX_TOL = 1e-9     # row sums and negative dust of multi-class rows
CLASS_MASS_TOL = 1e-8  # class-mass drift of mass-conserving runs (a10)
SWEEP_CHECK_MAX = 0.9  # sweep rows compared with the references up to here


class Reference:
    """Vertex measure and heat kernel of one graph, built from its edges."""

    def __init__(self, n: int, edges: np.ndarray, r: float):
        i = edges[:, 0].astype(int)
        j = edges[:, 1].astype(int)
        w = edges[:, 2]
        degrees = np.zeros(n)
        np.add.at(degrees, i, w)
        np.add.at(degrees, j, w)
        self.measure = degrees**r
        self._edges = (i, j, w)
        self._degrees = degrees
        self._r = r
        self._kernel = None

    def mass(self, u: np.ndarray) -> np.ndarray:
        return u.T @ self.measure

    def diffuse(self, u: np.ndarray, t: float) -> np.ndarray:
        """exp(-t L) u with L = d^-r (D - W), through a dense eigh."""
        if self._kernel is None:
            i, j, w = self._edges
            lap = np.diag(self._degrees)
            np.add.at(lap, (i, j), -w)
            np.add.at(lap, (j, i), -w)
            half = self._degrees ** (0.5 * self._r)
            sym = lap / half[:, None] / half[None, :]
            values, vectors = np.linalg.eigh(0.5 * (sym + sym.T))
            self._kernel = (np.maximum(values, 0.0), vectors, half)
        values, vectors, half = self._kernel
        coeffs = vectors.T @ (half * u)
        return (vectors @ (np.exp(-t * values) * coeffs)) / half


def water_fill(diffused, measure, target, lam):
    """argmin of (1-lam)<u,u> - 2<u,diffused> on the box with mass ``target``.

    The minimizer is clip((diffused - nu) / (1 - lam), 0, 1); the mass is
    decreasing in nu, so bisection finds nu to the last bit.
    """
    s = 1.0 - lam

    def mass_at(nu):
        return float(np.clip((diffused - nu) / s, 0.0, 1.0) @ measure)

    lo, hi = float(diffused.min()) - s, float(diffused.max())
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mass_at(mid) > target:
            lo = mid
        else:
            hi = mid
    return np.clip((diffused - 0.5 * (lo + hi)) / s, 0.0, 1.0)


def top_down_fill(diffused, measure, target):
    """Fill vertices from the largest diffused value until the mass is spent."""
    order = np.argsort(-diffused, kind="stable")
    u = np.zeros_like(diffused)
    spent = np.cumsum(measure[order])
    full = int(np.searchsorted(spent, target, side="right"))
    u[order[:full]] = 1.0
    if full < diffused.size:
        left = target - (spent[full - 1] if full else 0.0)
        u[order[full]] = max(0.0, left) / measure[order[full]]
    return u


def read_state(path: str) -> np.ndarray:
    rows = np.loadtxt(path, ndmin=2)
    values = rows[np.argsort(rows[:, 0]), 1:]
    return values[:, 0] if values.shape[1] == 1 else values


def read_log(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {key: np.array([float(row[key] or "nan") for row in rows])
            for key in rows[0]}


def check_run(ref: Reference, init, out_dir: str) -> list:
    """sd and mbo runs: mass along the log and at the end, descent, box."""
    errors = []
    log = read_log(os.path.join(out_dir, "log.csv"))
    final = read_state(os.path.join(out_dir, "final_state.txt"))
    start_mass = float(ref.mass(init))
    drift = np.abs(log["mass"] - log["mass"][0]).max() / abs(log["mass"][0])
    if drift > MASS_DRIFT:
        errors.append(f"log mass drifts by {drift:.3e} relative")
    end_drift = abs(float(ref.mass(final)) - start_mass) / abs(start_mass)
    if end_drift > MASS_DRIFT:
        errors.append(f"final state mass off the start by {end_drift:.3e}")
    rise = float(np.diff(log["H"]).max(initial=-np.inf))
    if rise > DESCENT_TOL:
        errors.append(f"H rises by {rise:.3e}")
    if final.min() < 0.0 or final.max() > 1.0:
        errors.append(f"final state leaves [0, 1]: [{final.min()}, {final.max()}]")
    return errors


def check_next_relaxed(ref: Reference, final, program_next, tau, lam) -> list:
    """One more relaxed step equals the water-filling of the diffused state."""
    diffused = ref.diffuse(final, tau)
    expected = water_fill(diffused, ref.measure, float(ref.mass(final)), lam)
    gap = float(np.abs(program_next - expected).max())
    return [] if gap <= STEP_TOL else [f"next step off water-filling by {gap:.3e}"]


def check_next_threshold(ref: Reference, final, program_next, tau) -> list:
    """One more threshold step reaches the top-down fill's objective."""
    diffused = ref.diffuse(final, tau)
    best = top_down_fill(diffused, ref.measure, float(ref.mass(final)))
    objective = lambda u: float((u * ref.measure) @ diffused)  # noqa: E731
    gap = objective(best) - objective(program_next)
    return [] if gap <= OBJECTIVE_TOL else [
        f"threshold step objective short of the fill by {gap:.3e}"
    ]


def check_sweep(ref: Reference, init, out_dir: str, tau: float, lambdas) -> list:
    """Sweep rows against own solves, and the lock-on of the distances."""
    errors = []
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    table = sorted(
        (float(key), value["sup_distance_to_mbo"]) for key, value in rows.items()
    )
    if [lam for lam, _ in table] != sorted(lambdas):
        errors.append("report rows do not match the lambda grid")
        return errors
    diffused = ref.diffuse(init, tau)
    target = float(ref.mass(init))
    threshold = top_down_fill(diffused, ref.measure, target)
    for lam, distance in table:
        if lam > SWEEP_CHECK_MAX:
            break
        relaxed = water_fill(diffused, ref.measure, target, lam)
        expected = float(np.abs(relaxed - threshold).max())
        if abs(distance - expected) > STEP_TOL:
            errors.append(
                f"distance at lambda {lam} is {distance}, expected {expected}"
            )
    distances = [distance for _, distance in table]
    if 0.0 in distances:
        first = distances.index(0.0)
        if any(distance != 0.0 for distance in distances[first:]):
            errors.append("distance leaves 0 after lock-on")
    return errors


def check_multiclass(ref: Reference, init, out_dir: str) -> list:
    """Simplex rows and conserved class masses of a multiclass-msd run."""
    errors = []
    final = read_state(os.path.join(out_dir, "final_state.txt"))
    if final.min() < -SIMPLEX_TOL:
        errors.append(f"entry {final.min()} below the simplex")
    row_defect = float(np.abs(final.sum(axis=1) - 1.0).max())
    if row_defect > SIMPLEX_TOL:
        errors.append(f"row sums off 1 by {row_defect:.3e}")
    drift = float(np.abs(ref.mass(final) - ref.mass(init)).max())
    if drift > CLASS_MASS_TOL:
        errors.append(f"class masses drift by {drift:.3e}")
    return errors
