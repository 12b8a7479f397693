import time
import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from numpy.testing import assert_allclose

from graphphase import (
    DimensionMismatch,
    DisconnectedGraph,
    DomainViolation,
    DuplicateEdge,
    GraphTooLarge,
    InconsistentInputs,
    IndexOutOfRange,
    NegativeTime,
    NonPositiveWeight,
    SchemeParams,
    SelfLoop,
    SimplexField,
    average,
    build_graph,
    converge_tau,
    diffuse,
    dirichlet_energy,
    dual_certificate,
    inner_product,
    laplacian_apply,
    lyapunov_energy,
    mass,
    mbo_oracle,
    mbo_step,
    multiclass_mass_conserving_step,
    multiclass_step,
    norm,
    random_connected_graph,
    run_multiclass_trajectory,
    run_trajectory,
    semi_discrete_step,
    spectral_decompose,
    sweep_lambda,
    variational_oracle,
)
from graphphase.graph_core import _apply_x, _chebyshev_interpolate, heat_remainder
from references import DENSE_VERTEX_LIMIT, dense_diffuse, dense_spectrum


def _dense_weights(g):
    """Reference dense weight matrix, assembled entry by entry from the edges."""
    w = np.zeros((g.num_vertices, g.num_vertices))
    for i, j, weight in g.edges:
        w[i, j] = weight
        w[j, i] = weight
    return w


def _path_edges(n):
    return [(v, v + 1, 1.0) for v in range(n - 1)]


def test_build_graph_rejects_bad_edges():
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(NonPositiveWeight):
        build_graph(3, [(0, 1, -1.0), (1, 2, 1.0)])
    with pytest.raises(NonPositiveWeight):
        build_graph(3, [(0, 1, 0.0), (1, 2, 1.0)])
    with pytest.raises(IndexOutOfRange):
        build_graph(3, [(0, 3, 1.0), (1, 2, 1.0)])
    with pytest.raises(IndexOutOfRange, match=r"edge \(-1, 2\)"):
        build_graph(3, [(0, 1, 1.0), (-1, 2, 1.0)])
    # endpoints that are not whole numbers were once truncated to vertices
    with pytest.raises(IndexOutOfRange, match=r"edge \(0, 1.5\)"):
        build_graph(3, [(0, 1.5, 1.0), (1, 2, 1.0)])
    with pytest.raises(IndexOutOfRange, match=r"edge \(1, 2.0000000000000004\)"):
        build_graph(3, [(0, 1, 1.0), (1, np.nextafter(2.0, 3.0), 1.0)])
    with pytest.raises(NonPositiveWeight, match="nan"):
        build_graph(3, [(0, 1, np.nan), (1, 2, 1.0)])
    with pytest.raises(NonPositiveWeight, match="inf"):
        build_graph(3, [(0, 1, 1.0), (1, 2, np.inf)])
    with pytest.raises(DuplicateEdge, match=r"edge \(0, 1\) listed twice"):
        build_graph(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])
    # the first edge listed again, in input order, is the one reported
    with pytest.raises(DuplicateEdge, match=r"edge \(1, 2\) listed twice") as caught:
        build_graph(3, [(1, 2, 1.0), (0, 1, 1.0), (2, 1, 1.0), (1, 0, 1.0)])
    # both listings, for a parser to name their lines
    assert caught.value.positions == (0, 2)
    with pytest.raises(DisconnectedGraph, match=r"vertices \[2, 3\] unreachable"):
        build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraph, match=r"vertices \[1, 2\] unreachable"):
        build_graph(3, [])
    # checks go by category over all edges: a bad endpoint anywhere is
    # reported before a bad weight on an earlier edge
    with pytest.raises(IndexOutOfRange):
        build_graph(3, [(0, 1, -1.0), (1, 5, 1.0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        build_graph(1, [])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, 1.0)], r=1.5)


def test_degrees(triangle_r1, random_graphs):
    assert_allclose(triangle_r1.degrees, [2.0, 2.0, 2.0])
    assert_allclose(triangle_r1.degrees_r, [2.0, 2.0, 2.0])
    g = build_graph(2, [(0, 1, 4.0)], r=0.5)
    assert_allclose(g.degrees_r, [2.0, 2.0])
    for g in random_graphs:
        assert_allclose(g.degrees, _dense_weights(g).sum(axis=1), rtol=1e-15)


def _build_within_bounds(n, edges):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        g = build_graph(n, edges)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_i.shape == (n - 1,)
    assert elapsed < 1.0
    assert peak < 20e6


def test_build_graph_is_linear_in_the_edges():
    # a dense n-by-n matrix here would take 3.2 GB and many seconds
    _build_within_bounds(20_001, _path_edges(20_001))


@pytest.mark.parametrize("shape", ["shuffled path", "star"])
def test_connectivity_rounds_stay_few(shape):
    # min-label propagation would take one round per path vertex; hooking
    # with pointer jumping takes O(log n) rounds whatever the vertex order
    n = 20_001
    if shape == "star":  # the centre has the highest index
        edges = [(v, n - 1, 1.0) for v in range(n - 1)]
    else:
        order = np.random.default_rng(5).permutation(n).tolist()
        edges = [(order[v], order[v + 1], 1.0) for v in range(n - 1)]
    _build_within_bounds(n, edges)


def _bfs_message(n, edges):
    """DisconnectedGraph's message from a plain breadth-first search, or None."""
    neighbours = {v: [] for v in range(n)}
    for i, j, _ in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    reached, queue = {0}, deque([0])
    while queue:
        for u in neighbours[queue.popleft()]:
            if u not in reached:
                reached.add(u)
                queue.append(u)
    missing = [v for v in range(n) if v not in reached]
    if not missing:
        return None
    more = f" ({len(missing)} in all)" if len(missing) > 10 else ""
    return f"vertices {missing[:10]}{more} unreachable from vertex 0"


def test_connectivity_matches_breadth_first_search():
    rng = np.random.default_rng(11)
    disconnected = 0
    for _ in range(3_000):
        n = int(rng.integers(2, 41))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        count = min(int(rng.integers(0, 2 * n + 1)), len(pairs))
        picked = rng.choice(len(pairs), size=count, replace=False)
        edges = [
            (*(pairs[k] if rng.random() < 0.5 else pairs[k][::-1]), 1.0)
            for k in picked
        ]
        expected = _bfs_message(n, edges)
        if expected is None:
            build_graph(n, edges)
        else:
            disconnected += 1
            with pytest.raises(DisconnectedGraph) as caught:
                build_graph(n, edges)
            assert str(caught.value) == expected
    # both outcomes are well represented
    assert disconnected > 500 and 3_000 - disconnected > 500


def test_build_graph_takes_an_edge_array():
    listed = [(2, 0, 0.5), (0, 1, 1.0), (1, 2, 2.0)]
    edges = np.array(listed)
    g = build_graph(3, edges, r=0.5)
    assert g.edges == build_graph(3, listed, r=0.5).edges
    assert edges.flags.writeable
    assert_allclose(edges, listed)
    with pytest.raises(DuplicateEdge) as caught:
        build_graph(3, np.array(listed + [(1, 0, 3.0)]))
    assert caught.value.positions == (1, 3)


def test_disconnection_is_found_without_vertex_arrays():
    # n vertices need n - 1 edges: a huge header over one edge allocated a
    # length-n array (22.4 GB here) before finding the graph disconnected
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraph) as caught:
            build_graph(3_000_000_000, [(0, 1, 1.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert str(caught.value) == (
        "vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] (2999999998 in all) "
        "unreachable from vertex 0"
    )
    # vertex 0 without an edge: every other vertex is unreachable
    with pytest.raises(
        DisconnectedGraph, match=r"vertices \[1, 2, 3\] unreachable"
    ):
        build_graph(4, [(1, 2, 1.0), (2, 3, 1.0)])


def test_a_repeat_is_named_before_a_count_the_edges_cannot_connect():
    # five vertices need four edges; the repeated pair is still the error
    with pytest.raises(DuplicateEdge) as caught:
        build_graph(5, [(0, 1, 1.0), (1, 0, 1.0)])
    assert str(caught.value) == "edge (0, 1) listed twice"
    assert caught.value.positions == (0, 1)


def test_build_graph_peaks_under_100_bytes_an_edge():
    # one sort key and the edge arrays; the two-key lexsort and np.unique
    # relabelling took 135 bytes an edge here
    g = random_connected_graph(20_001, np.random.default_rng(3),
                               extra_edges=60_003)
    rng = np.random.default_rng(4)
    edges = np.column_stack([g.edge_i, g.edge_j, g.edge_w])
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip, :2] = edges[flip, 1::-1]
    tracemalloc.start()
    try:
        rebuilt = build_graph(g.num_vertices, edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * len(edges)
    # the degrees are summed in the canonical order, so bit for bit
    for name in ("edge_i", "edge_j", "edge_w", "degrees"):
        assert getattr(rebuilt, name).tobytes() == getattr(g, name).tobytes()


def test_dense_spectrum_refuses_large_graphs():
    g = build_graph(DENSE_VERTEX_LIMIT + 1, _path_edges(DENSE_VERTEX_LIMIT + 1))
    tracemalloc.start()
    try:
        with pytest.raises(GraphTooLarge, match="limit"):
            dense_spectrum(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_diffusion_on_a_large_path_is_linear_in_the_edges():
    # the dense eigendecomposition would need ~16 GB here
    g = build_graph(20_001, _path_edges(20_001))
    u = np.zeros(20_001)
    u[:10_000] = 1.0
    tracemalloc.start()
    try:
        s = spectral_decompose(g)
        out = diffuse(u, 0.5, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert_allclose(mass(out, g), mass(u, g), rtol=1e-12)
    # far from the jump the state has not moved; across it, it has spread
    assert_allclose(out[[0, 5_000, 15_000, 20_000]], [1.0, 1.0, 0.0, 0.0], atol=1e-12)
    assert 0.0 < out[10_000] < out[9_999] < 1.0


def test_check_field_rejects_bad_shapes(p2):
    with pytest.raises(DimensionMismatch):
        p2.check_field(np.zeros(3))
    with pytest.raises(DomainViolation):
        p2.check_field(np.array([np.nan, 0.0]))
    with pytest.raises(DomainViolation):
        p2.check_field(np.array([np.inf, 0.0]))


def test_inner_product_weighted():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], r=0.5)
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([1.0, 1.0, 0.0])
    assert_allclose(inner_product(u, v, g), np.sqrt(2.0), rtol=1e-15)


def test_mass_and_average(triangle_r1):
    u = np.array([1.0, 0.5, 0.0])
    assert_allclose(mass(u, triangle_r1), 3.0)
    assert_allclose(average(u, triangle_r1), 0.5)


def test_laplacian_values(p2, triangle_r1):
    assert_allclose(laplacian_apply(np.array([1.0, 0.0]), p2), [1.0, -1.0])
    assert_allclose(
        laplacian_apply(np.array([1.0, 0.0, 0.0]), triangle_r1),
        [1.0, -0.5, -0.5],
    )


def test_laplacian_matches_dense_reference(random_graphs):
    rng = np.random.default_rng(5)
    for g in random_graphs:
        w = _dense_weights(g)
        u = rng.standard_normal(g.num_vertices)
        dense = (w.sum(axis=1) * u - w @ u) / g.degrees_r
        assert_allclose(laplacian_apply(u, g), dense, rtol=0, atol=1e-13)


def test_laplacian_kills_constants(random_graphs):
    for g in random_graphs:
        ones = np.ones(g.num_vertices)
        assert_allclose(laplacian_apply(ones, g), 0.0, atol=1e-12)


def test_laplacian_self_adjoint_and_psd(random_graphs):
    rng = np.random.default_rng(7)
    for g in random_graphs:
        u = rng.standard_normal(g.num_vertices)
        v = rng.standard_normal(g.num_vertices)
        left = inner_product(laplacian_apply(u, g), v, g)
        right = inner_product(u, laplacian_apply(v, g), g)
        assert_allclose(left, right, rtol=1e-10, atol=1e-12)
        assert inner_product(u, laplacian_apply(u, g), g) >= -1e-12


def test_dirichlet_energy_matches_laplacian_pairing(p2, triangle, random_graphs):
    assert_allclose(dirichlet_energy(np.array([1.0, 0.0]), p2), 0.5)
    assert_allclose(dirichlet_energy(np.array([1.0, 0.0, 0.0]), triangle), 1.0)
    rng = np.random.default_rng(11)
    for g in random_graphs:
        u = rng.standard_normal(g.num_vertices)
        pairing = 0.5 * inner_product(u, laplacian_apply(u, g), g)
        assert_allclose(dirichlet_energy(u, g), pairing, rtol=1e-10, atol=1e-12)
        # the per-edge loop it replaced; only the summation order differs
        loop = 0.0
        for i, j, w in g.edges:
            loop += w * (u[i] - u[j]) ** 2
        assert_allclose(dirichlet_energy(u, g), 0.5 * loop, rtol=1e-12)
        assert not g.edge_w.flags.writeable


def test_spectrum_p2(p2):
    assert_allclose(dense_spectrum(p2).eigenvalues, [0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("r,expected", [(0.0, [0.0, 3.0, 3.0]), (1.0, [0.0, 1.5, 1.5])])
def test_spectrum_triangle(r, expected):
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], r=r)
    assert_allclose(dense_spectrum(g).eigenvalues, expected, atol=1e-12)


def test_spectrum_invariants(random_graphs):
    for g in random_graphs:
        s = dense_spectrum(g)
        n = g.num_vertices
        assert s.eigenvalues[0] == 0.0
        assert np.all(np.diff(s.eigenvalues) >= -1e-12)
        vectors = s.scale_back[:, None] * s.phi
        # ground mode is constant once normalized
        ground = vectors[:, 0]
        assert_allclose(ground, ground[0], atol=1e-10)
        # columns are orthonormal in the weighted inner product
        gram = vectors.T @ (g.degrees_r[:, None] * vectors)
        assert_allclose(gram, np.eye(n), atol=1e-10)
        # each column solves the eigenproblem
        top = max(s.eigenvalues.max(), 1.0)
        for k in range(n):
            defect = laplacian_apply(vectors[:, k], g) - s.eigenvalues[k] * vectors[:, k]
            assert norm(defect, g) <= 1e-8 * top


def test_spectrum_matches_dense_reference(random_graphs):
    for g in random_graphs:
        s = dense_spectrum(g)
        w = _dense_weights(g)
        lap = (np.diag(w.sum(axis=1)) - w) / g.degrees_r[:, None]
        vectors = s.scale_back[:, None] * s.phi
        top = max(s.eigenvalues.max(), 1.0)
        assert_allclose(lap @ vectors, vectors * s.eigenvalues, rtol=0,
                        atol=1e-12 * top)
        half = w.sum(axis=1) ** (0.5 * g.r)
        sym = (np.diag(w.sum(axis=1)) - w) / half[:, None] / half[None, :]
        reference = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert_allclose(s.eigenvalues, reference, rtol=0, atol=1e-12 * top)


def test_spectrum_holds_the_graph_and_no_copy_of_its_edges():
    n = 20_001
    g = build_graph(n, _path_edges(n))
    tracemalloc.start()
    try:
        s = spectral_decompose(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a bound and one scale per vertex; a copy of the 2E directed edges
    # would take 120 bytes a vertex here
    assert peak < 24 * n
    for mine, theirs in zip((s.graph.edge_i, s.graph.edge_j, s.graph.edge_w),
                            (g.edge_i, g.edge_j, g.edge_w)):
        assert np.shares_memory(mine, theirs)


# every public function that takes a graph and a spectrum, called with the
# spectrum s on the case c: state u, its two-class field U, graph g, params p
# and the relaxed step from u
SPECTRUM_USERS = {
    "semi_discrete_step": lambda c, s: semi_discrete_step(c.u, c.g, s, c.p),
    "mbo_step": lambda c, s: mbo_step(c.u, c.g, s, c.p.tau),
    "lyapunov_energy": lambda c, s: lyapunov_energy(c.u, c.g, s, c.p),
    "dual_certificate": lambda c, s: dual_certificate(c.u, c.step, c.g, s, c.p),
    "multiclass_step": lambda c, s: multiclass_step(c.U, c.g, s, c.p),
    "multiclass_mass_conserving_step":
        lambda c, s: multiclass_mass_conserving_step(c.U, c.g, s, c.p),
    "mbo_oracle": lambda c, s: mbo_oracle(c.u, c.g, s, c.p.tau),
    "variational_oracle": lambda c, s: variational_oracle(c.u, c.g, s, c.p),
    "run_trajectory": lambda c, s: run_trajectory(c.u, c.g, s, c.p, 2),
    "run_multiclass_trajectory":
        lambda c, s: run_multiclass_trajectory(c.U, c.g, s, c.p, 2),
    "sweep_lambda": lambda c, s: sweep_lambda(c.u, c.g, s, c.p.tau, [0.5]),
    "converge_tau": lambda c, s: converge_tau(c.u, c.g, s, 0.4, 0.2, [0.2, 0.1]),
}


@pytest.mark.parametrize("name", sorted(SPECTRUM_USERS))
def test_a_spectrum_of_another_graph_is_refused(name):
    # on two graphs of one size a diffusion with the other's spectrum runs
    # and gives a wrong step; each function refuses it instead
    rng = np.random.default_rng(29)
    g, other = (random_connected_graph(8, rng, r=0.5) for _ in range(2))
    u = rng.uniform(0.1, 0.9, size=8)
    p = SchemeParams.from_lambda(tau=0.2, lam=0.5)
    s = spectral_decompose(g)
    case = SimpleNamespace(
        u=u, U=SimplexField(values=np.column_stack([u, 1.0 - u]), graph=g),
        g=g, p=p, step=semi_discrete_step(u, g, s, p),
    )
    SPECTRUM_USERS[name](case, s)
    with pytest.raises(InconsistentInputs, match="another graph"):
        SPECTRUM_USERS[name](case, spectral_decompose(other))


def test_rescaled_laplacian_matches_laplacian_apply():
    # X = (2/b) L - I, applied over the edges; a block goes column by column
    rng = np.random.default_rng(15)
    for k in range(300):
        n = int(rng.integers(2, 40))
        r = (0.0, 0.5, 1.0, float(rng.uniform()))[k % 4]
        g = random_connected_graph(n, rng, r=r,
                                   extra_edges=int(rng.integers(0, 2 * n)))
        s = spectral_decompose(g)
        block = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4)
        out = _apply_x(block, s)
        assert out.shape == block.shape
        for column, image in zip(block.T, out.T):
            single = _apply_x(column, s)
            assert np.array_equal(image, single)
            expected = (2.0 / s.bound) * laplacian_apply(column, g) - column
            assert_allclose(single, expected, rtol=0,
                            atol=1e-15 * np.abs(column).max())


def test_diffuse_zero_time_is_identity(p2, p2_spectrum):
    u = np.array([0.3, 0.9])
    out = diffuse(u, 0.0, p2_spectrum)
    assert_allclose(out, u, rtol=0, atol=0)
    assert out is not u


def test_diffuse_rejects_negative_time(p2_spectrum):
    with pytest.raises(NegativeTime):
        diffuse(np.array([1.0, 0.0]), -0.1, p2_spectrum)


def test_diffuse_extreme_times(p2, p2_spectrum):
    u = np.array([1.0, 0.0])
    assert_allclose(diffuse(u, 1e-300, p2_spectrum), u, rtol=0, atol=0)
    # the expansion degree grows like sqrt(t); past MAX_DEGREE it is refused
    for t in (1e300, np.inf):
        with pytest.raises(GraphTooLarge, match="degree"):
            diffuse(u, t, p2_spectrum)
    with pytest.raises(NegativeTime):
        diffuse(u, np.nan, p2_spectrum)


def test_diffuse_p2_closed_form(p2, p2_spectrum):
    # two vertices relax at rate exp(-2t) toward the shared average
    u = np.array([1.0, 0.0])
    out = diffuse(u, 0.5 * np.log(2.0), p2_spectrum)
    assert_allclose(out, [0.75, 0.25], rtol=1e-14)
    t = 1.7
    out = diffuse(u, t, p2_spectrum)
    expected = 0.5 + 0.5 * np.exp(-2.0 * t) * np.array([1.0, -1.0])
    assert_allclose(out, expected, rtol=1e-13)


def test_diffuse_conserves_mass_and_bounds(random_graphs_with_spectra):
    rng = np.random.default_rng(23)
    for g, s in random_graphs_with_spectra:
        u = rng.random(g.num_vertices)
        for t in (1e-3, 0.1, 1.0, 25.0):
            out = diffuse(u, t, s)
            assert_allclose(mass(out, g), mass(u, g), rtol=1e-12)
            assert out.min() >= u.min() - 1e-12
            assert out.max() <= u.max() + 1e-12


def test_diffuse_semigroup(random_graphs_with_spectra):
    rng = np.random.default_rng(31)
    for g, s in random_graphs_with_spectra:
        u = rng.random(g.num_vertices)
        once = diffuse(u, 0.7, s)
        twice = diffuse(diffuse(u, 0.3, s), 0.4, s)
        assert norm(once - twice, g) <= 1e-9 * max(norm(u, g), 1.0)


def test_diffuse_strictly_positive(random_graphs_with_spectra):
    for g, s in random_graphs_with_spectra:
        u = np.zeros(g.num_vertices)
        u[0] = 1.0
        out = diffuse(u, 0.05, s)
        assert np.all(out > 0.0)


def test_diffuse_fixes_constants(random_graphs_with_spectra):
    for g, s in random_graphs_with_spectra:
        c = 0.37 * np.ones(g.num_vertices)
        assert_allclose(diffuse(c, 2.0, s), c, rtol=0, atol=1e-12)


def test_long_time_limit_is_weighted_average(random_graphs_with_spectra):
    rng = np.random.default_rng(41)
    for g, s in random_graphs_with_spectra:
        u = rng.random(g.num_vertices)
        out = diffuse(u, 1e6, s)
        assert_allclose(out, average(u, g), atol=1e-9)


@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.05, 0.1, 0.2, 0.6, 2.0, 25.0])
def test_diffuse_matches_dense_reference(random_graphs_with_spectra, t):
    rng = np.random.default_rng(53)
    for g, s in random_graphs_with_spectra:
        reference = dense_spectrum(g)
        for u in (rng.random(g.num_vertices), rng.standard_normal(g.num_vertices)):
            assert_allclose(diffuse(u, t, s), dense_diffuse(u, t, reference),
                            rtol=0, atol=1e-12 * np.abs(u).max())


def test_diffuse_block_matches_separate_columns(random_graphs_with_spectra):
    rng = np.random.default_rng(59)
    for g, s in random_graphs_with_spectra:
        block = rng.random((g.num_vertices, 3))
        out = diffuse(block, 0.3, s)
        assert out.shape == block.shape
        for k in range(3):
            assert np.array_equal(out[:, k], diffuse(block[:, k], 0.3, s))
    g, s = random_graphs_with_spectra[0]
    with pytest.raises(DimensionMismatch):
        diffuse(np.zeros((g.num_vertices, 2, 2)), 0.3, s)
    with pytest.raises(DimensionMismatch):
        diffuse(np.zeros((g.num_vertices + 1, 2)), 0.3, s)


@pytest.mark.parametrize("x", [1e-3, 1.0, 100.0])
def test_chebyshev_interpolation_matches_chebinterpolate(x):
    # the FFT form samples at numpy's points; only the summation differs
    def weight(y):
        z = x * (1.0 + y)
        return np.expm1(-z) + z

    for degree in (1, 2, 5, 40, 300):
        expected = chebyshev.chebinterpolate(weight, degree)
        got = _chebyshev_interpolate(weight, degree)
        assert_allclose(got, expected, rtol=0, atol=1e-13 * abs(expected).max())


@pytest.mark.parametrize(
    "field, t, error",
    [
        ("ok", -1.0, NegativeTime),
        ("ok", float("nan"), NegativeTime),
        ("nan", 0.5, DomainViolation),
        ("long", 0.5, DimensionMismatch),
    ],
    ids=["negative-time", "nan-time", "nan-field", "long-field"],
)
def test_heat_remainder_checks_its_inputs_as_diffuse_does(field, t, error):
    # unchecked, a negative time returned values, a NaN field NaN, a long
    # field numpy's broadcast error and a NaN time a conversion error
    rng = np.random.default_rng(8)
    g = random_connected_graph(10, rng, r=0.5)
    s = spectral_decompose(g)
    u = {
        "ok": rng.uniform(0.0, 1.0, size=10),
        "nan": np.where(np.arange(10) == 3, np.nan, 0.5),
        "long": rng.uniform(0.0, 1.0, size=11),
    }[field]
    for apply in (diffuse, heat_remainder):
        with pytest.raises(error):
            apply(u, t, s)


def test_heat_remainder_at_zero_time_is_zero(random_graphs_with_spectra):
    g, s = random_graphs_with_spectra[0]
    u = np.linspace(0.0, 1.0, g.num_vertices)
    assert np.array_equal(heat_remainder(u, 0.0, s), np.zeros(g.num_vertices))


def test_heat_remainder_builds_no_square_matrix(p2, p2_spectrum):
    # t b / 2 = 1e5 needs degree 2,799, whose Vandermonde matrix is 63 MB
    t = 1e5
    tracemalloc.start()
    try:
        out = heat_remainder(np.array([1.0, 0.0]), t, p2_spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    # (1, 0) is half the constant, which the remainder kills, and half the
    # eigenvector (1, -1) of eigenvalue 2
    half = 0.5 * (np.expm1(-2.0 * t) + 2.0 * t)
    assert_allclose(out, [half, -half], rtol=1e-12)
