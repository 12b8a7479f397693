"""Weighted-graph function spaces, Laplacian, and diffusion semigroup.

Vertex functions are plain 1-D numpy arrays of length ``num_vertices``.  All
inner products carry vertex weights ``d_i**r`` where ``d_i`` is the weighted
degree and ``r`` is a fixed exponent in [0, 1] chosen at graph construction:

    <u, v> = sum_i u_i v_i d_i**r

The graph Laplacian is ``(L u)_i = d_i**-r * sum_j w_ij (u_i - u_j)``.  It is
self-adjoint and positive semi-definite in this inner product, its kernel on a
connected graph is the constants, and the heat semigroup ``exp(-tL)`` it
generates conserves ``<u, 1>``.  Spectral data is computed once per graph via
a dense symmetric eigendecomposition and reused by every diffusion call.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    DomainViolation,
    DuplicateEdge,
    EigensolverFailure,
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


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph with cached degree powers.

    Attributes:
        num_vertices: number of vertices, at least 2.
        r: vertex-weight exponent in [0, 1].
        weights: dense symmetric weight matrix, zero diagonal.
        degrees: weighted degrees ``weights.sum(axis=1)``, all positive.
        degrees_r: cached ``degrees**r`` (the vertex measure).
        edge_i, edge_j, edge_w: the edges in canonical order, ``i < j``
            ascending, as arrays of endpoints and weights.
    """

    num_vertices: int
    r: float
    weights: np.ndarray
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
    zero eigenvalue.
    """
    if num_vertices < 2:
        raise ValueError("a graph needs at least 2 vertices")
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")

    w = np.zeros((num_vertices, num_vertices))
    canonical = []
    for entry in edges:
        i, j, weight = int(entry[0]), int(entry[1]), float(entry[2])
        if not (0 <= i < num_vertices and 0 <= j < num_vertices):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside 0..{num_vertices - 1}")
        if i == j:
            raise SelfLoop(f"self loop at vertex {i}")
        if weight <= 0 or not np.isfinite(weight):
            raise NonPositiveWeight(f"edge ({i}, {j}) has weight {weight}")
        key = (min(i, j), max(i, j))
        if w[i, j] != 0.0:
            raise DuplicateEdge(f"edge {key} listed twice")
        canonical.append((key[0], key[1], weight))
        w[i, j] = weight
        w[j, i] = weight

    _check_connected(w)

    degrees = w.sum(axis=1)
    canonical.sort()
    graph = Graph(
        num_vertices=num_vertices,
        r=float(r),
        weights=w,
        degrees=degrees,
        degrees_r=degrees**r,
        edge_i=np.array([e[0] for e in canonical], dtype=int),
        edge_j=np.array([e[1] for e in canonical], dtype=int),
        edge_w=np.array([e[2] for e in canonical], dtype=float),
    )
    for arr in (graph.weights, graph.degrees, graph.degrees_r, graph.edge_i,
                graph.edge_j, graph.edge_w):
        arr.setflags(write=False)
    return graph


def _check_connected(w: np.ndarray) -> None:
    n = w.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(w[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    if not seen.all():
        missing = np.nonzero(~seen)[0]
        raise DisconnectedGraph(
            f"vertices {missing.tolist()} unreachable from vertex 0"
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
    return (g.degrees * u - g.weights @ u) / g.degrees_r


def dirichlet_energy(u: np.ndarray, g: Graph) -> float:
    """Smoothness energy ``(1/4) sum_ij w_ij (u_i - u_j)**2``.

    Computed from the edge list rather than through the Laplacian so the two
    routes cross-check each other: the value equals ``<u, Lu> / 2``.
    """
    u = g.check_field(u)
    diff = u[g.edge_i] - u[g.edge_j]
    return 0.5 * float(g.edge_w @ (diff * diff))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of the graph Laplacian.

    ``vectors[:, k]`` is the k-th eigenvector, orthonormal in the weighted
    inner product; ``eigenvalues`` ascend and start at exactly 0.  ``phi``
    holds the eigenvectors of the symmetrized matrix together with the
    ``degrees**(r/2)`` scalings, which is all :func:`diffuse` needs.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    phi: np.ndarray = field(repr=False)
    scale_fwd: np.ndarray = field(repr=False)   # degrees**(r/2)
    scale_back: np.ndarray = field(repr=False)  # degrees**(-r/2)

    @property
    def num_vertices(self) -> int:
        return self.eigenvalues.shape[0]


def spectral_decompose(g: Graph) -> Spectrum:
    """Diagonalize the Laplacian through its symmetric conjugate.

    ``d**(-r/2) (D - W) d**(-r/2)`` is symmetric positive semi-definite and
    shares eigenvalues with the Laplacian; back-scaling the orthonormal
    eigenvectors by ``d**(-r/2)`` makes them orthonormal in the weighted
    inner product.  Eigenvalues within ``1e-12 * max`` of zero are snapped to
    exactly zero so the diffusion semigroup fixes constants for every t.
    """
    half = g.degrees ** (0.5 * g.r)
    inv_half = 1.0 / half
    lap = np.diag(g.degrees) - g.weights
    sym = inv_half[:, None] * lap * inv_half[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        eigenvalues, phi = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    if not np.all(np.isfinite(eigenvalues)):
        raise EigensolverFailure("eigensolver returned non-finite eigenvalues")

    mu_max = float(eigenvalues[-1])
    eigenvalues = eigenvalues.copy()
    eigenvalues[np.abs(eigenvalues) <= 1e-12 * max(mu_max, 1.0)] = 0.0

    spectrum = Spectrum(
        eigenvalues=eigenvalues,
        vectors=inv_half[:, None] * phi,
        phi=phi,
        scale_fwd=half,
        scale_back=inv_half,
    )
    for arr in (spectrum.eigenvalues, spectrum.vectors, spectrum.phi):
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
