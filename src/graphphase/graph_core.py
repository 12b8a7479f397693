"""Weighted-graph function spaces, Laplacian, and diffusion semigroup.

Vertex functions are plain 1-D numpy arrays of length ``num_vertices``.  All
inner products carry vertex weights ``d_i**r`` where ``d_i`` is the weighted
degree and ``r`` is a fixed exponent in [0, 1] chosen at graph construction:

    <u, v> = sum_i u_i v_i d_i**r

The graph Laplacian is ``(L u)_i = d_i**-r * sum_j w_ij (u_i - u_j)``.  It is
self-adjoint and positive semi-definite in this inner product, its kernel on a
connected graph is the constants, and the heat semigroup ``exp(-tL)`` it
generates conserves ``<u, 1>``.  A graph is stored only as its edge arrays.
Diffusion is matrix-free: :func:`spectral_decompose` rescales the Laplacian
onto [-1, 1] once per graph, by the Gershgorin bound on its spectrum, and
:func:`diffuse` applies ``exp(-tL)`` as a Chebyshev series in that operator
(Hammond, Vandergheynst & Gribonval 2011), one sparse product over the 2E
directed edges per term.  The series is cut where its coefficient tail drops
below ``2**-60``, so it is exact to rounding; no n-by-n array is made.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    DomainViolation,
    DuplicateEdge,
    GraphTooLarge,
    IndexOutOfRange,
    NegativeTime,
    NonPositiveWeight,
    SelfLoop,
)

__all__ = [
    "Graph",
    "Spectrum",
    "build_graph",
    "inner_product",
    "norm",
    "mass",
    "average",
    "laplacian_apply",
    "dirichlet_energy",
    "spectral_decompose",
    "diffuse",
    "heat_remainder",
]

TAIL = 2.0**-60          # heat coefficients dropped past the cut sum below this
MAX_DEGREE = 1_000_000   # Chebyshev degree above which diffusion is refused


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph, stored as its edge arrays.

    Attributes:
        num_vertices: number of vertices, at least 2.
        r: vertex-weight exponent in [0, 1].
        degrees: weighted degrees, the sum of ``edge_w`` over the edges at
            each vertex; all positive.
        degrees_r: cached ``degrees**r`` (the vertex measure).
        edge_i, edge_j, edge_w: the edges in canonical order, ``i < j``
            ascending, as arrays of endpoints and weights.  They are the only
            copy of the edges.
    """

    num_vertices: int
    r: float
    degrees: np.ndarray
    degrees_r: np.ndarray
    edge_i: np.ndarray = field(repr=False)
    edge_j: np.ndarray = field(repr=False)
    edge_w: np.ndarray = field(repr=False)

    @property
    def edges(self) -> tuple:
        """Canonical edge list, tuples ``(i, j, w)`` with ``i < j``."""
        return tuple(
            zip(self.edge_i.tolist(), self.edge_j.tolist(), self.edge_w.tolist())
        )

    def check_field(self, u: np.ndarray) -> np.ndarray:
        """Validate a vertex function: right length, finite entries."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.num_vertices,):
            raise DimensionMismatch(
                f"field has shape {u.shape}, expected ({self.num_vertices},)"
            )
        if not np.all(np.isfinite(u)):
            raise DomainViolation("field has non-finite entries")
        return u


def build_graph(num_vertices: int, edges, r: float = 0.0) -> Graph:
    """Build a connected weighted graph from an edge list.

    ``edges`` is an (E, 3) array or a sequence of ``(i, j, w)``, with 0-based
    endpoints and positive weight.  Orientation of each pair is irrelevant;
    repeating a pair is an error.  The graph must come out connected because
    the diffusion kernel and the constant-eigenvector normalization both
    assume a simple zero eigenvalue.  The checks run by category over all
    edges: endpoints whole numbers in range, then self loops, then weights,
    then duplicates; each names the first offending edge in input order.
    """
    if num_vertices < 2:
        raise ValueError("a graph needs at least 2 vertices")
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")

    i, j, w = np.asarray(edges if len(edges) else np.empty((0, 3)), dtype=float).T
    in_range = (np.minimum(i, j) >= 0) & (np.maximum(i, j) < num_vertices)
    in_range &= (i == np.floor(i)) & (j == np.floor(j))
    for bad, error, message in (
        (~in_range, IndexOutOfRange, "edge ({i:.17g}, {j:.17g}) outside 0..{last}"),
        (i == j, SelfLoop, "self loop at vertex {i:.17g}"),
        (~((w > 0) & np.isfinite(w)), NonPositiveWeight,
         "edge ({i:.17g}, {j:.17g}) has weight {w}"),
    ):
        if bad.any():
            k = int(bad.argmax())
            raise error(message.format(i=i[k], j=j[k], w=w[k], last=num_vertices - 1))

    lo, hi = np.minimum(i, j).astype(np.int64), np.maximum(i, j).astype(np.int64)
    order = np.lexsort((hi, lo))  # stable: a repeat sorts after its first
    repeat = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
    if repeat.any():
        k = int(order[1:][repeat].min())
        error = DuplicateEdge(f"edge ({lo[k]}, {hi[k]}) listed twice")
        error.positions = (int(np.argmax((lo == lo[k]) & (hi == hi[k]))), k)
        raise error
    lo, hi, w = lo[order], hi[order], w[order]

    _check_connected(num_vertices, lo, hi)
    degrees = np.bincount(
        np.concatenate([lo, hi]), np.concatenate([w, w]), num_vertices
    )
    graph = Graph(
        num_vertices=num_vertices,
        r=float(r),
        degrees=degrees,
        degrees_r=degrees**r,
        edge_i=lo,
        edge_j=hi,
        edge_w=w,
    )
    for arr in (graph.degrees, graph.degrees_r, graph.edge_i, graph.edge_j,
                graph.edge_w):
        arr.setflags(write=False)
    return graph


def _check_connected(n: int, lo: np.ndarray, hi: np.ndarray) -> None:
    """Reachability from vertex 0, by hooking and pointer jumping.

    After Shiloach & Vishkin 1982: each round every root takes the smallest
    root across its edges, every vertex jumps to its root, and edges inside a
    component drop out.  A component that merges with none has a smaller
    neighbouring root in the next round, so O(log E) rounds of O(E) work.
    Nothing of length n is made: a vertex count far above what the edges can
    connect is refused without allocating for it.  The message lists the
    first ten unreachable vertices and, if there are more, their count.
    """
    touched, index = np.unique(np.concatenate([[0], lo, hi]), return_inverse=True)
    a, b = np.split(index[1:], 2)  # vertex 0 is touched[0] = index[0] = 0
    root = np.arange(len(touched))
    while a.size:
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        a, b = root[a], root[b]
        a, b = a[a != b], b[a != b]
    reached = touched[root == root[0]]
    if reached.size < n:
        # the first ten unreached vertices lie below reached.size + 10
        first = np.arange(min(n, reached.size + 10))
        missing = np.setdiff1d(first, reached)[:10].tolist()
        total = n - reached.size
        more = f" ({total} in all)" if total > len(missing) else ""
        raise DisconnectedGraph(
            f"vertices {missing}{more} unreachable from vertex 0"
        )


def inner_product(u: np.ndarray, v: np.ndarray, g: Graph) -> float:
    """Degree-weighted vertex inner product ``sum_i u_i v_i d_i**r``."""
    u = g.check_field(u)
    v = g.check_field(v)
    return float(np.dot(u * g.degrees_r, v))


def norm(u: np.ndarray, g: Graph) -> float:
    """Norm induced by :func:`inner_product`."""
    u = g.check_field(u)
    return float(np.sqrt(np.dot(u * u, g.degrees_r)))


def mass(u: np.ndarray, g: Graph) -> float:
    """Total mass ``<u, 1>``; conserved by diffusion and by all steps."""
    u = g.check_field(u)
    return float(np.dot(u, g.degrees_r))


def average(u: np.ndarray, g: Graph) -> float:
    """Mass of ``u`` divided by the mass of the constant one function."""
    return mass(u, g) / float(g.degrees_r.sum())


def laplacian_apply(u: np.ndarray, g: Graph) -> np.ndarray:
    """Apply the graph Laplacian ``d**-r (D - W)`` to a vertex function."""
    u = g.check_field(u)
    flow = g.edge_w * (u[g.edge_i] - u[g.edge_j])  # out of edge_i, into edge_j
    n = g.num_vertices
    outflow = np.bincount(g.edge_i, flow, n) - np.bincount(g.edge_j, flow, n)
    return outflow / g.degrees_r


def dirichlet_energy(u: np.ndarray, g: Graph) -> float:
    """Smoothness energy ``(1/4) sum_ij w_ij (u_i - u_j)**2``.

    Summed once per edge; the value equals ``<u, Lu> / 2``, which the tests
    check against :func:`laplacian_apply`.
    """
    u = g.check_field(u)
    diff = u[g.edge_i] - u[g.edge_j]
    return 0.5 * float(g.edge_w @ (diff * diff))


@dataclass(frozen=True)
class Spectrum:
    """The Laplacian rescaled onto [-1, 1], the operator :func:`diffuse` expands.

    ``bound`` is ``b = 2 max_i d_i**(1-r)``, Gershgorin's bound on the
    spectrum of the Laplacian, so ``X = (2/b) L - I`` has its spectrum in
    [-1, 1].  ``X`` is stored in compressed sparse rows over the 2E directed
    edges, with the scalings folded in: ``(X y)_i = diag_i y_i`` minus the
    sum of ``vals[k] y[cols[k]]`` over the row's edges ``k``, which run from
    ``starts[i]`` to ``starts[i + 1]``.  Every row is non-empty because the
    graph is connected.
    """

    bound: float
    diag: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return self.diag.shape[0]


def spectral_decompose(g: Graph) -> Spectrum:
    """Build the rescaled Laplacian of ``g`` once, for every diffusion on it.

    O(E log E) time and O(n + E) memory: the directed edges are sorted into
    rows, and no n-by-n array is made.  The sort relies on ``g``'s canonical
    edge order: with the reversed half first, one stable sort by head leaves
    each row's tails ascending, below the head and then above it.
    """
    heads = np.concatenate([g.edge_j, g.edge_i])
    tails = np.concatenate([g.edge_i, g.edge_j])
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    bound = 2.0 * float((g.degrees / g.degrees_r).max())
    scale = (2.0 / bound) / g.degrees_r
    counts = np.bincount(heads, minlength=g.num_vertices)
    spectrum = Spectrum(
        bound=bound,
        diag=scale * g.degrees - 1.0,
        cols=tails,
        vals=scale[heads] * np.concatenate([g.edge_w, g.edge_w])[order],
        starts=np.cumsum(counts) - counts,
    )
    for arr in (spectrum.diag, spectrum.cols, spectrum.vals, spectrum.starts):
        arr.setflags(write=False)
    return spectrum


def _apply_x(y: np.ndarray, s: Spectrum) -> np.ndarray:
    """``X y``, one column at a time for an (n, K) block."""
    if y.ndim == 2:
        return np.column_stack([_apply_x(column, s) for column in y.T])
    return s.diag * y - np.add.reduceat(s.vals * y[s.cols], s.starts)


def _chebyshev_series(u: np.ndarray, coeffs: np.ndarray, s: Spectrum) -> np.ndarray:
    """``sum_k coeffs[k] T_k(X) u`` by the three-term recurrence."""
    out = coeffs[0] * u
    previous, current = None, u
    for k in range(1, coeffs.size):
        image = _apply_x(current, s)
        previous, current = current, image if k == 1 else 2.0 * image - previous
        out += coeffs[k] * current
    return out


@functools.lru_cache(maxsize=128)
def _heat_coefficients(x: float) -> np.ndarray:
    """Chebyshev coefficients of ``exp(-x (1 + y))`` on [-1, 1].

    ``c_0 = e**-x I_0(x)`` and ``c_k = 2 (-1)**k e**-x I_k(x)``, cut at the
    smallest degree whose coefficient tail is below ``TAIL``.  The Bessel
    ratios come from Miller's backward recurrence, started where the tail
    is below ``TAIL**2``, which is O(sqrt(x)) above the cut: ``e**-x I_k(x)``
    is the law of the difference ``D`` of two Poisson(x/2) counts, so the
    tail past ``k - 1`` is ``2 P(D >= k) <= 2 exp(-k**2 / (2 (x + k/3)))``
    by Bernstein's inequality.  The coefficients are normalised so that
    ``c_0 + 2 sum e**-x I_k = 1``, which makes the series fix constants and
    conserve mass.
    """
    if x <= 0.5 * TAIL:
        coeffs = np.ones(1)  # the tail past degree 0 is about x
    else:
        log_tail = math.log(2.0 / TAIL**2)
        third = log_tail / 3.0
        start = third + math.sqrt(third**2 + 2.0 * log_tail * x)
        if start > MAX_DEGREE:
            raise GraphTooLarge(
                f"diffusion time too large: t * b / 2 = {x:.6g} needs a "
                f"degree-{start:.3g} Chebyshev expansion, over the limit of "
                f"{MAX_DEGREE}"
            )
        start = math.ceil(start)
        ratios = np.ones(start + 1)  # I_k / I_{k-1}, from the top down
        ratio = 0.0
        for k in range(start, 0, -1):
            ratio = 1.0 / (2.0 * k / x + ratio)
            ratios[k] = ratio
        bessel = np.cumprod(ratios)  # I_k / I_0
        tail = 2.0 * np.cumsum(bessel[::-1])[::-1]  # 2 sum_{j >= k} I_j / I_0
        degree = int(np.argmax(tail[1:] < TAIL * (1.0 + tail[1])))
        coeffs = 2.0 * bessel[: degree + 1]
        coeffs[0] = 1.0
        coeffs /= coeffs.sum()
        coeffs[1::2] *= -1.0
    coeffs.setflags(write=False)
    return coeffs


def diffuse(u: np.ndarray, t: float, s: Spectrum) -> np.ndarray:
    """Evolve ``u`` by the heat semigroup for time ``t >= 0``.

    ``u`` is a vertex function or an (n, K) block of them, one per column.
    ``exp(-tL) = exp(-x (1 + X))`` with ``x = t b / 2`` is applied as its
    Chebyshev series in ``X``, exact to rounding: mass is conserved, values
    stay inside ``[min u, max u]``, and for ``t > 0`` positivity spreads to
    every vertex of the connected graph.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[:1] != (s.num_vertices,) or u.ndim > 2:
        raise DimensionMismatch(
            f"field has shape {u.shape}, expected ({s.num_vertices},) or "
            f"({s.num_vertices}, K)"
        )
    if not np.all(np.isfinite(u)):
        raise DomainViolation("field has non-finite entries")
    if not t >= 0:
        raise NegativeTime(f"diffusion time must be >= 0, got {t}")
    if t == 0.0:
        return u.copy()
    return _chebyshev_series(u, _heat_coefficients(0.5 * t * s.bound), s)


def _chebyshev_interpolate(f, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the degree-``degree`` interpolant of ``f``.

    ``f`` is sampled at the ``degree + 1`` Chebyshev points of the first
    kind, and the coefficients are the DCT-II of the samples: one real FFT
    of the samples mirrored to twice their length.  O(N log N) time and O(N)
    memory, where ``chebinterpolate`` builds an N-by-N Vandermonde matrix.
    """
    points = degree + 1
    samples = f(np.cos(np.pi * (np.arange(points) + 0.5) / points))
    spectrum = np.fft.rfft(np.concatenate([samples, samples[::-1]]))[:points]
    shift = np.exp(-0.5j * np.pi * np.arange(points) / points)
    coeffs = (shift * spectrum).real / points
    coeffs[0] *= 0.5
    return coeffs


def heat_remainder(u: np.ndarray, t: float, s: Spectrum) -> np.ndarray:
    """``(exp(-tL) - I + tL) u`` for ``t > 0``, without cancellation.

    The function ``expm1(-t lam) + t lam`` of the Laplacian is applied as
    its Chebyshev series in ``X``, interpolated at the degree of the heat
    series for the same ``t``: past degree 1 the two series have the same
    coefficients, so the cut is the same.  Small eigenvalues contribute
    ``O((t lam)**2)`` with full relative precision, where
    ``diffuse(u) - u + t L u`` would lose it to the O(1) terms.
    """
    half = 0.5 * s.bound

    def weight(y):
        z = t * half * (1.0 + y)
        return np.expm1(-z) + z

    degree = max(_heat_coefficients(t * half).size - 1, 2)
    coeffs = _chebyshev_interpolate(weight, degree)
    return _chebyshev_series(np.asarray(u, dtype=float), coeffs, s)
