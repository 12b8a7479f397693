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
(Hammond, Vandergheynst & Gribonval 2011), one pass over the E edges per
term, the pass :func:`laplacian_apply` makes.  The series is cut where its
coefficient tail drops below ``2**-60``, so it is exact to rounding; no
n-by-n array and no second copy of the edges is made.

The pass builds the edge flows ``w_ij (u_i - u_j)`` in one buffer and
scatters them with two ``np.add.at`` calls, outflows then inflows, each
onto a zeroed vector: every vertex sums its flows one at a time from +0.0
in edge order, which is how ``np.bincount`` sums them, without its scan of
the index array for its range.  The recurrence doubles each image and
subtracts the term before it in place, and adds each term through one
reused buffer.  Doubling is exact and every other operation is the product
or difference the allocating form makes, so the bits are the same.
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
    InconsistentInputs,
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

    def check_spectrum(self, s: "Spectrum") -> None:
        """Refuse a spectrum that was built on another graph."""
        if s.graph is not self:
            raise InconsistentInputs("spectrum was built on another graph")


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
    try:
        bound = float(num_vertices)
    except OverflowError:  # a count past the float range is above every float
        bound = math.inf
    in_range = (np.minimum(i, j) >= 0) & (np.maximum(i, j) < bound)
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

    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if num_vertices > len(lo) + 1:
        # too few edges to connect: number the touched vertices compactly, so
        # no array of the vertex count is made and endpoints past int64 stay
        # exact; a repeat is still reported before the disconnection
        labels, index = np.unique(np.concatenate([[0.0], lo, hi]), return_inverse=True)
        a, b = np.split(index[1:], 2)  # vertex 0 is labels[0]
        _canonical_order(a * len(labels) + b, lo, hi)
        _check_connected(num_vertices, a, b, labels)  # raises
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    order = _canonical_order(lo * num_vertices + hi, lo, hi)
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


def _canonical_order(key, lo, hi) -> np.ndarray:
    """The stable order of the edges by ``key``, one int64 per pair.

    One sort serves the canonical order and the duplicate check: a repeat
    sorts right after its first listing.  A repeat is a
    :class:`DuplicateEdge` naming ``(lo, hi)`` of the first one in input
    order, with the positions of its two listings.
    """
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    repeat = ordered[1:] == ordered[:-1]
    if repeat.any():
        k = int(order[1:][repeat].min())
        error = DuplicateEdge(f"edge ({int(lo[k])}, {int(hi[k])}) listed twice")
        error.positions = (int(np.argmax(key == key[k])), k)
        raise error
    return order


def _check_connected(n: int, a: np.ndarray, b: np.ndarray, labels=None) -> None:
    """Reachability from vertex 0, by hooking and pointer jumping.

    After Shiloach & Vishkin 1982: each round every root takes the smallest
    root across its edges, every vertex jumps to its root, and edges inside a
    component drop out.  A component that merges with none has a smaller
    neighbouring root in the next round, so O(log E) rounds of O(E) work.
    The edges ``(a, b)`` join vertex ids or, given ``labels``, the vertices
    ``labels[a]`` and ``labels[b]``, with ``labels[0]`` vertex 0.
    :func:`build_graph` hooks on ids when ``n <= E + 1``, so nothing longer
    than O(E) is made, and relabels only a graph too sparse to connect.  The
    message lists the first ten unreachable vertices and, if there are more,
    their count.
    """
    root = np.arange(n if labels is None else len(labels))
    while a.size:
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        a, b = root[a], root[b]
        a, b = a[a != b], b[a != b]
    reached = np.flatnonzero(root == root[0])
    if labels is not None:
        reached = labels[reached]
    if reached.size < n:
        # the first ten unreached vertices lie below reached.size + 10
        first = np.arange(min(n, reached.size + 10))
        missing = first[~np.isin(first, reached)][:10].tolist()
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
    return _outflow(g.check_field(u), g) / g.degrees_r


def _outflow(u: np.ndarray, g: Graph) -> np.ndarray:
    """``(D - W) u``: the net flow ``w_ij (u_i - u_j)`` out of each vertex.

    Outflows and inflows are summed apart, from +0.0 in edge order, as
    ``np.bincount`` sums them.
    """
    flow = u[g.edge_i]  # out of edge_i, into edge_j
    flow -= u[g.edge_j]
    flow *= g.edge_w
    out = np.zeros(g.num_vertices)
    np.add.at(out, g.edge_i, flow)
    inflow = np.zeros(g.num_vertices)
    np.add.at(inflow, g.edge_j, flow)
    out -= inflow
    return out


def dirichlet_energy(u: np.ndarray, g: Graph) -> float:
    """Smoothness energy ``(1/4) sum_ij w_ij (u_i - u_j)**2``.

    Summed once per edge; the value equals ``<u, Lu> / 2``, which the tests
    check against :func:`laplacian_apply`.
    """
    return _dirichlet_energy(g.check_field(u), g)


def _dirichlet_energy(u: np.ndarray, g: Graph) -> float:
    diff = u[g.edge_i] - u[g.edge_j]
    return 0.5 * float(g.edge_w @ (diff * diff))


@dataclass(frozen=True)
class Spectrum:
    """The Laplacian rescaled onto [-1, 1], the operator :func:`diffuse` expands.

    ``bound`` is ``b = 2 max_i d_i**(1-r)``, Gershgorin's bound on the
    spectrum of the Laplacian, so ``X = (2/b) L - I`` has its spectrum in
    [-1, 1].  ``X`` is applied over the edge arrays of ``graph``, which is
    held, not copied: ``X y = scale (D - W) y - y`` with the per-vertex
    ``scale = (2/b) / d**r``.
    """

    bound: float
    scale: np.ndarray = field(repr=False)
    graph: Graph = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


def spectral_decompose(g: Graph) -> Spectrum:
    """Build the rescaled Laplacian of ``g`` once, for every diffusion on it.

    O(n) time and memory: the bound and the per-vertex scale are all that is
    made, and the edges stay in ``g``.
    """
    bound = 2.0 * float((g.degrees / g.degrees_r).max())
    scale = (2.0 / bound) / g.degrees_r
    scale.setflags(write=False)
    return Spectrum(bound=bound, scale=scale, graph=g)


def _apply_x(y: np.ndarray, s: Spectrum) -> np.ndarray:
    """``X y`` in a new array, one column at a time for an (n, K) block."""
    if y.ndim == 2:
        return np.column_stack([_apply_x(column, s) for column in y.T])
    out = _outflow(y, s.graph)
    out *= s.scale
    out -= y
    return out


def _chebyshev_series(u: np.ndarray, coeffs: np.ndarray, s: Spectrum) -> np.ndarray:
    """``sum_k coeffs[k] T_k(X) u`` by the three-term recurrence."""
    out = coeffs[0] * u
    term = np.empty_like(out)
    previous, current = None, u
    for k in range(1, coeffs.size):
        image = _apply_x(current, s)
        if k > 1:
            image *= 2.0
            image -= previous
        previous, current = current, image
        np.multiply(current, coeffs[k], out=term)
        out += term
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
    u = _check_heat_input(u, t, s)
    if t == 0.0:
        return u.copy()
    return _chebyshev_series(u, _heat_coefficients(0.5 * t * s.bound), s)


def _check_heat_input(u, t: float, s: Spectrum) -> np.ndarray:
    """``u`` as floats, refused unless it is a finite vertex function or
    (n, K) block on the graph of ``s``; ``t`` refused unless ``t >= 0``."""
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
    return u


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
    """``(exp(-tL) - I + tL) u`` for ``t >= 0``, without cancellation.

    The function ``expm1(-t lam) + t lam`` of the Laplacian is applied as
    its Chebyshev series in ``X``, interpolated at the degree of the heat
    series for the same ``t``: past degree 1 the two series have the same
    coefficients, so the cut is the same.  Small eigenvalues contribute
    ``O((t lam)**2)`` with full relative precision, where
    ``diffuse(u) - u + t L u`` would lose it to the O(1) terms.  ``u`` and
    ``t`` are checked as :func:`diffuse` checks them.
    """
    u = _check_heat_input(u, t, s)
    half = 0.5 * s.bound

    def weight(y):
        z = t * half * (1.0 + y)
        return np.expm1(-z) + z

    degree = max(_heat_coefficients(t * half).size - 1, 2)
    coeffs = _chebyshev_interpolate(weight, degree)
    return _chebyshev_series(u, coeffs, s)
