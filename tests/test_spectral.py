"""Edge adjacency, irreducibility, and the Perron machinery."""

import dataclasses
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from volentropy import (
    build_graph,
    edge_adjacency,
    gog_entropy,
    is_irreducible,
    sample_normalized_metrics,
    spectral_radius,
    volume_entropy,
    weighted_matrix,
)
from volentropy import config, spectral
from volentropy.documents import gog_from_document
from volentropy.errors import ConvergenceError, GraphError
from volentropy.gog import GraphOfGroups
from volentropy.graph import MetricGraph, base_id, reversal_id
from volentropy.spectral import power_iteration, strongly_connected_components

from builders import (
    EDGE_ORDERS_GOG_DOC,
    complete,
    complete_bipartite,
    cycle,
    dumbbell,
    graph_doc,
    path_graph,
    random_cubic,
    single_loop,
    theta,
)
from test_graph import metric_graphs, positive_fractions


def _entry(g, adj, e, f):
    """The adjacency entry of oriented edges e, f, given by id."""
    index = g.edge_index
    return 1 if index[f] in adj[index[e]] else 0


def _adjacency_matrix(adj):
    out = np.zeros((len(adj), len(adj)))
    for i, row in enumerate(adj):
        out[i, list(row)] = 1.0
    return out


def test_theta_adjacency():
    adj = edge_adjacency(theta())
    assert len(adj) == 6
    assert sum(len(row) for row in adj) == 12
    assert all(len(row) == 2 for row in adj)


def test_row_sums_match_branching():
    for g in (theta(), dumbbell(), complete(4), single_loop()):
        adj = edge_adjacency(g)
        for e, row in zip(g.edges, adj):
            assert len(row) == g.k(e.terminus)


def test_loop_follows_itself_but_not_its_reversal():
    g = single_loop()
    adj = edge_adjacency(g)
    assert _entry(g, adj, "e1+", "e1+") == 1
    assert _entry(g, adj, "e1-", "e1-") == 1
    assert _entry(g, adj, "e1+", "e1-") == 0
    assert _entry(g, adj, "e1-", "e1+") == 0


def test_cycle_rows_have_one_entry():
    adj = edge_adjacency(cycle(4))
    assert all(len(row) == 1 for row in adj)


def test_reversal_symmetry():
    for g in (theta(), dumbbell(), complete(4)):
        adj = edge_adjacency(g)
        for e in g.edges:
            for f in g.edges:
                assert _entry(g, adj, e.id, f.id) == _entry(
                    g, adj, g.edge(f.id).reversal, g.edge(e.id).reversal
                )


def test_irreducibility_dichotomy():
    assert is_irreducible(theta()).irreducible
    assert is_irreducible(dumbbell()).irreducible
    report = is_irreducible(cycle(4))
    assert not report.irreducible
    assert len(report.components) == 2
    assert {len(c) for c in report.components} == {4}


def test_irreducible_precondition_errors():
    with pytest.raises(GraphError, match="terminal"):
        is_irreducible(path_graph())


def test_weighted_matrix_values():
    g = theta()
    m0 = weighted_matrix(g, 0.0)
    adj = edge_adjacency(g)
    assert np.array_equal(np.asarray(m0.entries), _adjacency_matrix(adj))
    m1 = weighted_matrix(g, math.log(2))
    nonzero = np.asarray(m1.entries)[np.asarray(m1.entries) > 0]
    assert np.allclose(nonzero, 0.5)
    with pytest.raises(GraphError):
        weighted_matrix(g, -0.1)


def test_weighted_matrix_mixed_lengths():
    g = theta((1, 1, 2))
    m = weighted_matrix(g, 1.0)
    entries = np.asarray(m.entries)
    ids = m.base.edge_ids
    long_cols = [i for i, eid in enumerate(ids) if eid.startswith("e3")]
    for j in range(len(ids)):
        col = entries[:, j][entries[:, j] > 0]
        expected = math.exp(-2.0) if j in long_cols else math.exp(-1.0)
        assert np.allclose(col, expected)


def test_spectral_radius_examples():
    system = spectral.edge_system(theta())
    assert spectral_radius(system, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert set(spectral.perron_at(system, 0.0)[1].tolist()) == {1.0}
    assert spectral_radius(system, math.log(2)) == pytest.approx(1.0, abs=1e-12)
    radius = spectral_radius(spectral.edge_system(complete(4)), 0.0)
    assert radius == pytest.approx(2.0, abs=1e-12)


def test_spectral_radius_rejects_reducible():
    with pytest.raises(GraphError, match="irreducible"):
        spectral_radius(spectral.edge_system(cycle(4)), 0.0)


def test_radius_strictly_decreasing_in_h():
    for g in (theta(), dumbbell(), complete(4), theta((1, 1, 2))):
        system = spectral.edge_system(g)
        radii = [spectral_radius(system, h) for h in (0.0, 0.3, 0.9)]
        assert radii[0] > radii[1] > radii[2]


def test_radius_limits():
    for g in (theta(), dumbbell(), complete(4)):
        system = spectral.edge_system(g)
        assert spectral_radius(system, 0.0) >= 1.0
        big = 10.0 / float(g.l_min)
        assert spectral_radius(system, big) < 0.01


def test_perron_vector_positive():
    system = spectral.edge_system(theta((1, 2, 3)))
    for h in (0.0, 0.5, 2.0):
        vector = spectral.perron_at(system, h)[1]
        assert min(vector) > 0
        assert max(vector) == pytest.approx(1.0)


def test_power_iteration_residual_contract():
    g = theta((1, 1, 2))
    entries = np.asarray(weighted_matrix(g, 0.4).entries)
    radius, vec, _, _ = power_iteration(entries)
    assert np.max(np.abs(entries @ vec - radius * vec)) <= config.POWER_RESIDUAL_TOL


def test_dense_and_sparse_agree(monkeypatch):
    system = spectral.edge_system(complete_bipartite(3, 4))
    dense = spectral_radius(system, 0.7)
    monkeypatch.setattr(config, "DENSE_EDGE_LIMIT", 1)
    sparse_radius = spectral_radius(system, 0.7)
    assert sparse_radius == pytest.approx(dense, abs=1e-12)


def test_spectral_radius_is_the_perron_root(monkeypatch):
    # On either Perron path spectral_radius is perron_at's root, and it
    # agrees with the largest real part of a full eigendecomposition, an
    # independent reference; edge_adjacency's rows are the triplets' support.
    cases = []
    for g in (theta(), dumbbell(), complete(4), theta((1, 1, 2))):
        system = spectral.edge_system(g)
        support = [[] for _ in range(system.order)]
        for i, j in zip(system.rows.tolist(), system.cols.tolist()):
            support[i].append(j)
        assert [list(row) for row in edge_adjacency(g)] == support
        for h in (0.0, 0.3, 0.9, 10.0 / float(g.l_min)):
            entries = weighted_matrix(g, h).entries
            cases.append((system, h, float(np.max(np.linalg.eigvals(entries).real))))
    for limit in (config.DENSE_EDGE_LIMIT, 1):
        monkeypatch.setattr(config, "DENSE_EDGE_LIMIT", limit)
        for system, h, reference in cases:
            radius = spectral_radius(system, h)
            root, _, matrix = spectral.perron_at(system, h)
            assert isinstance(matrix, np.ndarray) == (limit > 1)
            assert radius == root
            assert radius == pytest.approx(reference, rel=1e-13)


def _system_and_root(name):
    if name == "edge-orders-gog":
        gog = gog_from_document(EDGE_ORDERS_GOG_DOC)
        orders = (gog.vertex_order, gog.edge_order)
        return spectral.edge_system(gog.graph, orders), gog_entropy(gog).h
    g = {
        "theta-1:2:3": theta((1, 2, 3)),
        "k4": complete(4),
        "k34": complete_bipartite(3, 4),
        "dumbbell-1:2:1": dumbbell((1, 2, 1)),
    }[name]
    return spectral.edge_system(g), volume_entropy(g).h


@pytest.mark.parametrize(
    "name", ["theta-1:2:3", "k4", "k34", "dumbbell-1:2:1", "edge-orders-gog"]
)
def test_dense_perron_root_against_eigenvalues(name):
    # The eigenvalue of largest real part from a full eigendecomposition is
    # an independent reference for the dense inverse iteration.
    system, solved = _system_and_root(name)
    assert system.order < config.DENSE_EDGE_LIMIT
    for h in (0.0, 0.4, 1.3, solved):
        radius, x, matrix = spectral.perron_at(system, h)
        reference = float(np.max(np.linalg.eigvals(matrix).real))
        assert radius == pytest.approx(reference, rel=1e-13)
        assert np.min(x) > 0
        assert np.max(np.abs(matrix @ x - radius * x)) <= 1e-12


def test_large_graph_uses_sparse_path():
    g = complete_bipartite(5, 7)
    m = weighted_matrix(g, 0.2)
    assert not isinstance(m.entries, np.ndarray)
    assert spectral_radius(m.base, 0.2) > 0


def _wheel(spokes):
    """A hub joined to each vertex of a cycle: valencies ``spokes`` and 3."""
    rim = [f"r{i}" for i in range(spokes)]
    edges = [(f"s{i}", "hub", v, Fraction(i % 3 + 1, 2)) for i, v in enumerate(rim)]
    edges += [
        (f"c{i}", v, rim[(i + 1) % spokes], Fraction(i % 4 + 1, 3)) for i, v in enumerate(rim)
    ]
    return build_graph(graph_doc(["hub", *rim], edges))


def _gather_system(name):
    if name == "edge-orders-gog":
        gog = gog_from_document(EDGE_ORDERS_GOG_DOC)
        return spectral.edge_system(gog.graph, gog.orders)
    if name == "theta-pendant":
        return spectral.edge_system(build_graph(graph_doc(
            ["a", "b", "leaf"],
            [("e1", "a", "b", 1), ("e2", "a", "b", 2), ("e3", "a", "b", 3),
             ("p", "a", "leaf", 1)],
        )))
    return spectral.edge_system({"wheel-16": _wheel(16), "cubic-40": random_cubic(40, 0)}[name])


@pytest.mark.parametrize(
    "name, counts",
    [("wheel-16", [2, 15]), ("theta-pendant", [0, 2, 3]), ("edge-orders-gog", [3, 5]),
     ("cubic-40", [2])],
)
def test_gather_product(name, counts, monkeypatch):
    # Rows grouped by entry count: a hub of valency 16 (64 oriented edges),
    # rows with no entries (into the leaf), multiplicities other than 1 (the
    # graph of groups) and a single group, which needs no scatter.  The
    # product must agree with the dense matrix, and on plain graphs carry the
    # bits of np.bincount over the triplets, in the memo's triplet order and
    # in a shuffled one, whose layout assemble derives from the triplets.
    monkeypatch.setattr(config, "DENSE_EDGE_LIMIT", 1)
    system = _gather_system(name)
    layout = system.layout
    assert [cols.shape[0] for _, cols, _ in layout] == counts
    assert all(not a.flags.writeable for group in layout for a in group if a is not None)
    n, rows, cols, vals, lengths = (
        system.order, system.rows, system.cols, system.vals, system.lengths
    )
    x = np.random.default_rng(0).uniform(0.5, 2.0, n)
    h = 0.37
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals * np.exp(-h * lengths[cols]))
    shuffled = np.random.default_rng(1).permutation(len(rows))
    for r, c, v, given_layout in (
        (rows, cols, vals, layout),
        (rows[shuffled], cols[shuffled], vals[shuffled], None),
    ):
        matrix = spectral.assemble(r, c, v, n, h, lengths, given_layout)
        assert isinstance(matrix, spectral.GatherMatrix)
        assert matrix.nnz == len(v) and matrix.shape == (n, n)
        product = matrix @ x
        np.testing.assert_allclose(product, dense @ x, rtol=1e-14, atol=0)
        if name != "edge-orders-gog":
            reference = np.bincount(r, v * np.exp(-h * lengths[c]) * x[c], minlength=n)
            assert np.array_equal(product, reference)


def test_power_iteration_warm_start():
    # The Perron vector at a nearby h is a better start than the ones vector.
    g = complete_bipartite(5, 7)
    metered = g.with_lengths(next(iter(sample_normalized_metrics(g, 1, seed=0))))
    near = power_iteration(weighted_matrix(metered, 20.01).entries)[1]
    entries = weighted_matrix(metered, 20.0).entries
    cold_radius, _, cold_iterations, _ = power_iteration(entries)
    warm_radius, _, warm_iterations, _ = power_iteration(entries, near)
    assert warm_radius == pytest.approx(cold_radius, abs=1e-12)
    assert warm_iterations < cold_iterations


def test_scc_helper():
    assert strongly_connected_components([[1], [0], [3], [2]]) in (
        [[0, 1], [2, 3]],
        [[2, 3], [0, 1]],
    )
    assert len(strongly_connected_components([[1], [2], [0]])) == 1


@settings(max_examples=60, deadline=None)
@given(metric_graphs())
def test_row_sum_invariant_random(g):
    adj = edge_adjacency(g)
    for e, row in zip(g.edges, adj):
        assert len(row) == g.k(e.terminus)


@settings(max_examples=60, deadline=None)
@given(metric_graphs())
def test_irreducibility_cross_check_random(g):
    assume(all(g.valency(x) >= 2 for x in g.vertices))
    # is_irreducible raises internally if the SCC result and the valency
    # criterion ever disagree
    is_irreducible(g)


def loop_edge_system(g, orders=None):
    """The per-edge loop that built edge systems before the index arrays,
    kept as the reference: (rows, cols, vals, lengths, reversal, orders)."""
    if orders is None:
        vertex_order = dict.fromkeys(g.vertices, 1)
        edge_orders = [1] * len(g.edges)
    else:
        vertex_order, edge_order = orders
        edge_orders = [edge_order[base_id(e.id)] for e in g.edges]
    index = g.edge_index
    lifts = {
        x: [(index[f], vertex_order[x] // edge_orders[index[f]]) for f in g.out_edges(x)]
        for x in g.vertices
    }
    reversal = [index[e.reversal] for e in g.edges]
    rows, cols, vals = [], [], []
    for i, (e, back) in enumerate(zip(g.edges, reversal)):
        for j, m in lifts[e.terminus]:
            if j == back:
                m -= 1
            if m > 0:
                rows.append(i)
                cols.append(j)
                vals.append(m)
    lengths = [float(g.lengths[e.id]) for e in g.edges]
    return rows, cols, vals, lengths, reversal, edge_orders


def assert_matches_loop(g, orders=None):
    system = spectral.edge_system(g, orders)
    parts = ("rows", "cols", "vals", "lengths", "reversal", "edge_orders")
    for part, expected in zip(parts, loop_edge_system(g, orders)):
        got = getattr(system, part)
        assert got.tolist() == expected, part
        assert got.dtype == (np.intp if part in ("rows", "cols", "reversal") else float)


@settings(max_examples=80, deadline=None)
@given(metric_graphs())
def test_edge_system_matches_loop_reference(g):
    assert_matches_loop(g)


def test_ids_sorting_below_the_suffixes():
    # '!' sorts below '+' and ',' between '+' and '-', so the oriented ids
    # of "a" do not sit next to each other.
    g = MetricGraph.from_unoriented(
        ["x", "y"],
        [("a", "x", "y", 1), ("a,", "x", "x", Fraction(1, 2)), ("a!b", "y", "x", 3)],
    )
    assert [e.id for e in g.edges] == ["a!b+", "a!b-", "a+", "a,+", "a,-", "a-"]
    assert g.unoriented_ids == ("a!b", "a", "a,")
    index = g.edge_index
    for e in g.edges:
        back = g.edge(e.reversal)
        assert back.reversal == e.id and e.reversal == reversal_id(e.id)
        assert (back.origin, back.terminus) == (e.terminus, e.origin)
        assert g.topology.reversal[index[e.id]] == index[e.reversal]
    assert g.out_edges("y") == ("a!b+", "a-")
    assert_matches_loop(g)
    system = spectral.edge_system(g)
    assert system.lengths.tolist() == [3.0, 3.0, 1.0, 0.5, 0.5, 1.0]


@st.composite
def graphs_of_groups(draw):
    """A multigraph with vertex orders from divisors of 12 and, per edge, an
    order dividing both endpoint orders: the backtrack multiplicity
    |G_x| / |G_e| - 1 is 0 where the two are equal and at least 1 elsewhere."""
    g = draw(metric_graphs())
    vertex_order = {x: draw(st.sampled_from((1, 2, 3, 4, 6, 12))) for x in g.vertices}
    edge_order = {}
    for eid, u, v, _ in g.unoriented:
        common = math.gcd(vertex_order[u], vertex_order[v])
        edge_order[eid] = draw(st.sampled_from([d for d in range(1, common + 1) if common % d == 0]))
    return g, (vertex_order, edge_order)


@settings(max_examples=80, deadline=None)
@given(graphs_of_groups())
def test_edge_system_of_groups_matches_loop_reference(drawn):
    assert_matches_loop(*drawn)


@pytest.mark.parametrize("edge_orders", [(2, 2, 1, 3), (6, 2, 6, 3)])
def test_edge_system_backtrack_multiplicities(edge_orders):
    # On two vertices of order 6, edge order 6 leaves no lift of the
    # reversal to count (multiplicity 0); orders 1, 2 and 3 leave 5, 2, 1.
    gog = gog_from_document(EDGE_ORDERS_GOG_DOC)
    orders = dict(zip(("e1", "e2", "e3", "e4"), edge_orders))
    assert_matches_loop(gog.graph, (gog.vertex_order, orders))


# Theta with a pendant edge whose first orientation leaves the terminal
# vertex: edge 0 reaches every edge, but its reversal is a sink.
PENDANT_THETA = MetricGraph.from_unoriented(
    ["a", "b", "t"],
    [("e0", "t", "a", 1), ("e1", "a", "b", 1), ("e2", "a", "b", 1), ("e3", "a", "b", 1)],
)


@settings(max_examples=120, deadline=None)
@given(st.one_of(metric_graphs(), graphs_of_groups()))
@example(PENDANT_THETA)
def test_reachability_flag_matches_tarjan(drawn):
    g, orders = drawn if isinstance(drawn, tuple) else (drawn, None)
    system = spectral.edge_system(g, orders)
    successors = [[] for _ in range(system.order)]
    for i, j in zip(system.rows.tolist(), system.cols.tolist()):
        successors[i].append(j)
    assert system.irreducible == (len(strongly_connected_components(successors)) == 1)


# -- the per-topology memo ----------------------------------------------------


def _solved(g, orders):
    """Everything a solve reports, as text, or the error it raised."""
    try:
        if orders is None:
            sol = volume_entropy(g)
        else:
            sol = gog_entropy(GraphOfGroups.create(g, *orders))
    except (GraphError, ConvergenceError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((sol.h, sol.vector, sol.bracket, sol.residual, sol.iterations))


@st.composite
def metric_sequences(draw):
    """A graph, with group orders or None, and one to four metrics on it."""
    g, orders = draw(st.one_of(metric_graphs().map(lambda g: (g, None)), graphs_of_groups()))
    ids = g.unoriented_ids
    metric = st.lists(positive_fractions, min_size=len(ids), max_size=len(ids))
    metrics = draw(st.lists(metric.map(lambda ls: dict(zip(ids, ls))), min_size=1, max_size=4))
    return g, orders, metrics


@settings(max_examples=80, deadline=None)
@given(metric_sequences())
def test_shared_topology_solves_as_fresh_graphs(drawn):
    # Solves through with_lengths share one memo entry, and with it the
    # Perron pair at h = 0 of whichever metric came first; a graph built
    # afresh from the same records has a memo of its own.
    g, orders, metrics = drawn
    for lengths in metrics:
        fresh = MetricGraph.from_unoriented(
            g.vertices, [(eid, u, v, lengths[eid]) for eid, u, v, _ in g.unoriented]
        )
        assert _solved(g.with_lengths(lengths), orders) == _solved(fresh, orders)
    assert len(g.topology.solver_memo) <= 1


def test_memo_keeps_group_orders_apart():
    gog = gog_from_document(EDGE_ORDERS_GOG_DOC)
    g = gog.graph
    orders = (gog.vertex_order, gog.edge_order)
    other = (gog.vertex_order, dict(gog.edge_order, e1=6))
    first = spectral.edge_system(g, orders)
    second = spectral.edge_system(g.with_lengths(dict.fromkeys(g.unoriented_ids, 1)), other)
    plain = spectral.edge_system(g)
    assert len(g.topology.solver_memo) == 3
    assert first.vals.tolist() != second.vals.tolist() != plain.vals.tolist()
    assert spectral.edge_system(g, orders).vals is first.vals
    # Each entry gives what a fresh graph gives.
    for o in (orders, other, None):
        fresh = gog_from_document(EDGE_ORDERS_GOG_DOC).graph
        assert _solved(g, o) == _solved(fresh, o)
    assert len(first.at_zero) == len(second.at_zero) == len(plain.at_zero) == 1
    assert first.at_zero is not second.at_zero


def test_memo_arrays_are_read_only():
    g = theta((1, 2, 3))
    volume_entropy(g)
    system = spectral.edge_system(g)
    ((_, x0),) = system.at_zero.values()
    parts = (system.rows, system.cols, system.vals, system.reversal, system.edge_orders, x0)
    for part in parts:
        with pytest.raises(ValueError, match="read-only"):
            part[0] = part[0]
    # The memo holds no reference back to the topology: dropping the graph
    # frees it without a garbage-collection pass.
    topology = weakref.ref(g.topology)
    del g
    assert topology() is None


def test_memo_values_are_read_only_edge_systems():
    gog = gog_from_document(EDGE_ORDERS_GOG_DOC)
    g = gog.graph
    spectral.edge_system(g)
    gog_entropy(gog)
    assert len(g.topology.solver_memo) == 2
    for system in g.topology.solver_memo.values():
        assert isinstance(system, spectral.EdgeSystem)
        arrays = [getattr(system, f.name) for f in dataclasses.fields(system)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 7
        assert not any(a.flags.writeable for a in arrays)


def test_valency_criterion_is_checked_when_a_plain_system_is_built(monkeypatch):
    # Reachability that contradicts the valency criterion is an
    # implementation bug; the check runs once per topology, when the
    # system is built, and every caller surfaces it.
    built = theta()
    spectral.edge_system(built)
    monkeypatch.setattr(spectral, "_strongly_connected", lambda rows, cols, reversal: False)
    for call in (spectral.edge_system, volume_entropy, is_irreducible):
        with pytest.raises(RuntimeError, match="internal consistency failure"):
            call(theta())
    assert volume_entropy(built.with_lengths({"e1": 1, "e2": 2, "e3": 3})).h > 0
    monkeypatch.setattr(spectral, "_strongly_connected", lambda rows, cols, reversal: True)
    with pytest.raises(RuntimeError, match="internal consistency failure"):
        is_irreducible(cycle(4))
