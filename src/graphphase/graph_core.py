"""Weighted-graph function spaces, Laplacian, and diffusion semigroup.

Vertex functions are plain 1-D numpy arrays of length ``num_vertices``.  All
inner products carry vertex weights ``d_i**r`` where ``d_i`` is the weighted
degree and ``r`` is a fixed exponent in [0, 1] chosen at graph construction:

    <u, v> = sum_i u_i v_i d_i**r

The graph Laplacian is ``(L u)_i = d_i**-r * sum_j w_ij (u_i - u_j)``.  It is
self-adjoint and positive semi-definite in this inner product, its kernel on a
connected graph is the constants, and the heat semigroup ``exp(-tL)`` it
generates conserves ``<u, 1>``.  A graph is stored only as its edge arrays.
Spectral data is computed once per graph via a dense symmetric
eigendecomposition, the one n-by-n computation, and reused by every
diffusion call.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    DomainViolation,
    DuplicateEdge,
    EigensolverFailure,
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
]

# The dense eigendecomposition holds about five n-by-n float64 arrays at once
# (the symmetric conjugate, the eigensolver's copy and workspace, and the
# eigenvectors), ~40 n**2 bytes: 4 GB at this limit, half of an 8 GB machine.
DENSE_VERTEX_LIMIT = 10_000


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

    ``edges`` is an iterable of ``(i, j, w)`` with 0-based endpoints and
    positive weight.  Orientation of each pair is irrelevant; repeating a pair
    is an error.  The graph must come out connected because the diffusion
    kernel and the constant-eigenvector normalization both assume a simple
    zero eigenvalue.  The checks run by category over all edges: endpoints
    whole numbers in range, then self loops, then weights, then duplicates;
    each names the first offending edge in input order.
    """
    if num_vertices < 2:
        raise ValueError("a graph needs at least 2 vertices")
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")

    i, j, w = np.array(list(edges) or np.empty((0, 3)), dtype=float).T
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
        raise DuplicateEdge(f"edge ({lo[k]}, {hi[k]}) listed twice")
    lo, hi, w = lo[order], hi[order], w[order]

    # each edge in both directions: tails[k] is a neighbour of heads[k]
    heads, tails = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    _check_connected(num_vertices, heads, tails)
    degrees = np.bincount(heads, np.concatenate([w, w]), num_vertices)
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


def _check_connected(n: int, heads: np.ndarray, tails: np.ndarray) -> None:
    """Depth-first search from vertex 0 over an adjacency list, O(n + E)."""
    neighbours = tails[np.argsort(heads, kind="stable")].tolist()
    starts = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=n))])
    starts = starts.tolist()
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for u in neighbours[starts[v]:starts[v + 1]]:
            if not seen[u]:
                seen[u] = 1
                stack.append(u)
    if 0 in seen:
        missing = [v for v in range(n) if not seen[v]]
        raise DisconnectedGraph(f"vertices {missing} unreachable from vertex 0")


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
    """Eigendecomposition of the graph Laplacian.

    ``eigenvalues`` ascend and start at exactly 0.  ``phi`` holds the
    orthonormal eigenvectors of the symmetric conjugate
    ``d**(-r/2) (D - W) d**(-r/2)``; together with the ``degrees**(r/2)``
    scalings that is all :func:`diffuse` needs.  The Laplacian's own
    eigenvectors, orthonormal in the weighted inner product, are
    ``scale_back[:, None] * phi``.
    """

    eigenvalues: np.ndarray
    phi: np.ndarray = field(repr=False)
    scale_fwd: np.ndarray = field(repr=False)   # degrees**(r/2)
    scale_back: np.ndarray = field(repr=False)  # degrees**(-r/2)

    @property
    def num_vertices(self) -> int:
        return self.eigenvalues.shape[0]


def spectral_decompose(g: Graph) -> Spectrum:
    """Diagonalize the Laplacian through its symmetric conjugate.

    ``d**(-r/2) (D - W) d**(-r/2)`` is symmetric positive semi-definite and
    shares eigenvalues with the Laplacian; it is assembled from the edge
    arrays.  Eigenvalues within ``1e-12 * max`` of zero are snapped to
    exactly zero so the diffusion semigroup fixes constants for every t.
    Above ``DENSE_VERTEX_LIMIT`` vertices it raises ``GraphTooLarge`` first.
    """
    n = g.num_vertices
    if n > DENSE_VERTEX_LIMIT:
        raise GraphTooLarge(
            f"dense eigendecomposition of {n} vertices exceeds the limit of "
            f"{DENSE_VERTEX_LIMIT}"
        )
    half = g.degrees ** (0.5 * g.r)
    inv_half = 1.0 / half
    sym = np.zeros((n, n))
    coupling = -g.edge_w * inv_half[g.edge_i] * inv_half[g.edge_j]
    sym[g.edge_i, g.edge_j] = coupling
    sym[g.edge_j, g.edge_i] = coupling
    np.fill_diagonal(sym, inv_half * g.degrees * inv_half)
    try:
        eigenvalues, phi = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    if not np.all(np.isfinite(eigenvalues)):
        raise EigensolverFailure("eigensolver returned non-finite eigenvalues")

    mu_max = float(eigenvalues[-1])
    eigenvalues[np.abs(eigenvalues) <= 1e-12 * max(mu_max, 1.0)] = 0.0

    spectrum = Spectrum(
        eigenvalues=eigenvalues,
        phi=phi,
        scale_fwd=half,
        scale_back=inv_half,
    )
    for arr in (spectrum.eigenvalues, spectrum.phi):
        arr.setflags(write=False)
    return spectrum


def diffuse(u: np.ndarray, t: float, s: Spectrum) -> np.ndarray:
    """Evolve ``u`` by the heat semigroup for time ``t >= 0``.

    Mass is conserved exactly up to rounding, values stay inside
    ``[min u, max u]``, and for ``t > 0`` positivity spreads to every vertex
    of the connected graph.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (s.num_vertices,):
        raise DimensionMismatch(
            f"field has shape {u.shape}, expected ({s.num_vertices},)"
        )
    if not np.all(np.isfinite(u)):
        raise DomainViolation("field has non-finite entries")
    if t < 0:
        raise NegativeTime(f"diffusion time must be >= 0, got {t}")
    if t == 0.0:
        return u.copy()
    coeffs = s.phi.T @ (s.scale_fwd * u)
    coeffs *= np.exp(-t * s.eigenvalues)
    return s.scale_back * (s.phi @ coeffs)
