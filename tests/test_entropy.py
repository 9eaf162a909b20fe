"""Entropy solver against closed forms, hand-derived identities, and the
fixed-point contract."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from volentropy import (
    entropy_volume_product,
    gog_entropy,
    sample_normalized_metrics,
    scale_metric,
    series_reduce,
    verify_fixed_point,
    volume_entropy,
    weighted_matrix,
)
from volentropy import config, spectral
from volentropy.documents import gog_from_document
from volentropy.entropy import solve_unit_radius
from volentropy.errors import GraphError

from builders import (
    EDGE_ORDERS_GOG_DOC,
    circular_ladder,
    complete,
    complete_bipartite,
    cycle,
    dumbbell,
    graph_doc,
    random_cubic,
    theta,
)
from volentropy import MetricGraph, build_graph

LOG2 = math.log(2)


def test_theta_unit():
    sol = volume_entropy(theta())
    assert sol.h == pytest.approx(LOG2, rel=1e-9)
    assert max(sol.vector.values()) == pytest.approx(1.0)
    assert min(sol.vector.values()) == pytest.approx(1.0, rel=1e-9)


def test_theta_third_lengths():
    sol = volume_entropy(theta((Fraction(1, 3),) * 3))
    assert sol.h == pytest.approx(3 * LOG2, rel=1e-9)


def test_theta_112_algebraic_identity():
    # with two unit edges and one of length 2, symmetry reduces the
    # fixed-point system to 2u^3 + u = 1 for u = exp(-h)
    sol = volume_entropy(theta((1, 1, 2)))
    u = math.exp(-sol.h)
    assert 2 * u**3 + u == pytest.approx(1.0, abs=1e-10)


def test_dumbbell_unit_algebraic_identity():
    # loops give x = ux + uy, the bridge y = 2ux, so 2u^2 + u = 1 and u = 1/2
    sol = volume_entropy(dumbbell())
    assert sol.h == pytest.approx(LOG2, rel=1e-9)


def test_k4_unit():
    assert volume_entropy(complete(4)).h == pytest.approx(LOG2, rel=1e-9)


def test_cycle_rejected():
    with pytest.raises(GraphError, match="hypotheses"):
        volume_entropy(cycle(4))


def _plain_theta_123():
    g = theta((1, 2, 3))

    def radius_at(h):
        return spectral.power_iteration(weighted_matrix(g, h).entries)[0]

    return volume_entropy(g), radius_at


def _gog_with_edge_orders():
    gog = gog_from_document(EDGE_ORDERS_GOG_DOC)
    s = _gog_system(gog)

    def radius_at(h):
        matrix = spectral.assemble(s.rows, s.cols, s.vals, s.order, h, s.lengths)
        return spectral.power_iteration(matrix)[0]

    return gog_entropy(gog), radius_at


def _gog_system(gog):
    return spectral.edge_system(gog.graph, (gog.vertex_order, gog.edge_order))


def test_bracket_is_sign_bracketing():
    for solved in (_plain_theta_123, _gog_with_edge_orders):
        sol, radius_at = solved()
        lo, hi = sol.bracket
        assert hi - lo < 1e-11
        assert radius_at(lo) > 1
        assert radius_at(hi) < 1


@pytest.mark.parametrize("h", [0.0, 0.4, 1.3])
def test_left_vector_from_reversal(h):
    system = _gog_system(gog_from_document(EDGE_ORDERS_GOG_DOC))
    radius, x, matrix = spectral.perron_at(system, h)
    y = spectral.left_perron_vector(system, x, h)
    assert np.max(np.abs(matrix.T @ y - radius * y)) <= 1e-12


def test_newton_evaluations_per_solve():
    g = complete_bipartite(3, 4)
    counts = [
        volume_entropy(g.with_lengths(m)).iterations
        for m in sample_normalized_metrics(g, 200, seed=0)
    ]
    assert sum(counts) / len(counts) <= 8


def test_stalled_k34_dirichlet_metric(monkeypatch):
    # The first Dirichlet sample of K3,4 at this seed has length ratio ~509
    # and a periodic edge matrix on which unshifted power iteration near the
    # root stalls for hundreds of thousands of steps.  The second case sends
    # the 24 oriented edges through power iteration instead of the dense
    # inverse iteration.
    g = complete_bipartite(3, 4)
    metered = g.with_lengths(next(iter(sample_normalized_metrics(g, 1, seed=103663338))))
    for dense_edge_limit in (config.DENSE_EDGE_LIMIT, 1):
        monkeypatch.setattr(config, "DENSE_EDGE_LIMIT", dense_edge_limit)
        start = time.perf_counter()
        sol = volume_entropy(metered)
        assert time.perf_counter() - start < 2.0
        assert sol.h == pytest.approx(35.4374, abs=1e-4)
        assert verify_fixed_point(metered, sol.h, sol.vector).max_residual <= 1e-9


def test_long_period_subdivided_theta():
    # Each theta edge becomes a path of 11 edges of lengths 1, 2, 3, 1, ...,
    # 2 (total 21): 66 oriented edges, so the solve takes power iteration,
    # on an edge matrix of period 22.  Subdivision leaves h unchanged.
    vertices = ["a", "b"]
    edges = []
    for path in range(3):
        ends = ["a"] + [f"p{path}_{k}" for k in range(10)] + ["b"]
        vertices += ends[1:-1]
        for k in range(11):
            edges.append((f"e{path}_{k}", ends[k], ends[k + 1], k % 3 + 1))
    g = build_graph(graph_doc(vertices, edges))
    start = time.perf_counter()
    sol = volume_entropy(g)
    assert time.perf_counter() - start < 2.0
    assert sol.h == pytest.approx(LOG2 / 21, rel=1e-12)


def _power_iteration_calls(monkeypatch, full_precision=False):
    """Record (matrix, target, result) of every power iteration; with
    ``full_precision`` the target is dropped, so no evaluation stops early."""
    calls = []
    power_iteration = spectral.power_iteration

    def recorded(matrix, start=None, target=None):
        if full_precision:
            target = None
        result = power_iteration(matrix, start, target)
        calls.append((matrix, target, result))
        return result

    monkeypatch.setattr(spectral, "power_iteration", recorded)
    return calls


# Graphs of at least 64 oriented edges, so each evaluation runs power
# iteration.
STOP_EARLY_GRAPHS = {
    "ladder16": circular_ladder(16, seed=0),
    "cubic-200": random_cubic(200, seed=0),
    **{
        f"k57-{k}": complete_bipartite(5, 7).with_lengths(m)
        for k, m in enumerate(sample_normalized_metrics(complete_bipartite(5, 7), 3, seed=0))
    },
}


@pytest.mark.parametrize("g", STOP_EARLY_GRAPHS.values(), ids=STOP_EARLY_GRAPHS.keys())
def test_newton_evaluations_stop_early(g, monkeypatch):
    # Every one of these has at least 64 oriented edges, so each evaluation
    # runs power iteration; the Newton evaluations pass target 1.  Each
    # solve gets a topology of its own, so both count the h = 0 evaluation.
    assert len(g.edges) >= config.DENSE_EDGE_LIMIT
    full_calls = _power_iteration_calls(monkeypatch, full_precision=True)
    full = volume_entropy(_fresh(g))
    monkeypatch.undo()
    calls = _power_iteration_calls(monkeypatch)
    sol = volume_entropy(_fresh(g))
    assert sol.h == pytest.approx(full.h, rel=1e-12)
    early = 0
    for matrix, target, (radius, x, _, _) in calls:
        if target is None:
            continue
        ratios = (matrix @ x) / x
        lower, upper = float(ratios.min()), float(ratios.max())
        if upper - lower <= 0.1 * max(lower - target, target - upper):
            early += 1
            assert radius == 0.5 * (lower + upper)
            assert (lower > 1.0) == (upper > 1.0) == (radius > 1.0)
    assert early >= 2
    steps = sum(result[2] for _, _, result in calls)
    full_steps = sum(result[2] for _, _, result in full_calls)
    assert steps <= 0.7 * full_steps


def _fresh(g):
    """g on a topology of its own, whose h = 0 Perron pair is not yet solved."""
    return MetricGraph.from_unoriented(g.vertices, g.unoriented)


def test_warm_starts_save_power_steps(monkeypatch):
    # Each evaluation after the first Newton one starts from the secant
    # extrapolation of the last two Perron vectors.  Starting from the last
    # vector alone, these five solves took 844 power steps in all.
    calls = _power_iteration_calls(monkeypatch)
    for g in STOP_EARLY_GRAPHS.values():
        volume_entropy(_fresh(g))
    assert sum(result[2] for _, _, result in calls) <= 760


@pytest.mark.parametrize("dense_edge_limit", [config.DENSE_EDGE_LIMIT, 1])
def test_warm_start_falls_back_on_a_nonpositive_guess(dense_edge_limit, monkeypatch):
    # On this K5 metric (lengths over a ratio of 1e4) the extrapolated vector
    # overshoots below zero where Perron entries are small; those evaluations
    # start from the last Perron vector, on either Perron path, and the solve
    # still reaches the fixed point.
    monkeypatch.setattr(config, "DENSE_EDGE_LIMIT", dense_edge_limit)
    g = list(wide_ratio_metrics(3, seed=0))[2]
    calls = []
    perron_at = spectral.perron_at

    def recorded(system, h, start=None, target=None):
        result = perron_at(system, h, start, target)
        calls.append((h, start, result[1]))
        return result

    monkeypatch.setattr(spectral, "perron_at", recorded)
    sol = volume_entropy(g)
    # The h = 0 evaluation, then the first Newton one from its vector.
    assert calls[0][0] == 0.0 and calls[1][1] is calls[0][2]
    fallbacks = 0
    for (h0, _, x0), (h1, _, x1), (h, start, _) in zip(calls, calls[1:], calls[2:]):
        guess = x1 + (h - h1) / (h1 - h0) * (x1 - x0)
        if guess.min() > 0:
            assert np.array_equal(start, guess / guess.max())
        else:
            assert start is x1
            fallbacks += 1
    assert fallbacks
    assert verify_fixed_point(g, sol.h, sol.vector).max_residual <= 1e-9


@pytest.mark.parametrize(
    "g", [complete_bipartite(3, 4), complete(4), theta(), dumbbell()],
    ids=["k34", "k4", "theta", "dumbbell"],
)
def test_dense_newton_evaluations_stop_early(g, monkeypatch):
    # Under 64 oriented edges each evaluation runs the dense inverse
    # iteration.  With target 1 an intermediate evaluation returns once its
    # Collatz-Wielandt bounds settle the side of 1, so it makes fewer LU
    # solves, and the Newton steps stay as good: no more evaluations.
    assert len(g.edges) < config.DENSE_EDGE_LIMIT
    metrics = list(sample_normalized_metrics(g, 50, seed=0))
    perron_at, solve = spectral.perron_at, np.linalg.solve
    counts = {}
    for full_precision in (True, False):
        base = _fresh(g)
        calls, lu = [], []

        def recorded(system, h, start=None, target=None):
            if full_precision:
                target = None
            result = perron_at(system, h, start, target)
            calls.append((target, result))
            return result

        def counted(*args):
            lu.append(None)
            return solve(*args)

        monkeypatch.setattr(spectral, "perron_at", recorded)
        monkeypatch.setattr(np.linalg, "solve", counted)
        evaluations = sum(volume_entropy(base.with_lengths(m)).iterations for m in metrics)
        counts[full_precision] = evaluations, len(lu), calls
    full_evaluations, full_lu, _ = counts[True]
    evaluations, lu, calls = counts[False]
    assert lu < full_lu
    assert evaluations <= full_evaluations
    early = 0
    for target, (radius, x, matrix) in calls:
        ratios = (matrix @ x) / x
        lower, upper = float(ratios.min()), float(ratios.max())
        if target is not None and upper - lower > config.POWER_RQ_TOL * upper:
            early += 1
            assert radius == 0.5 * (lower + upper)
            assert lower > target or upper < target
    assert early


def test_unit_radius_needs_radius_above_one_at_zero():
    # A weighted 3-cycle has spectral radius 1/2 at h = 0: no positive root.
    idx = np.arange(3)
    system = spectral.EdgeSystem(
        edge_ids=("a", "b", "c"), rows=idx, cols=(idx + 1) % 3, vals=np.full(3, 0.5),
        lengths=np.ones(3), reversal=idx[::-1], edge_orders=np.ones(3),
        irreducible=True,
    )
    with pytest.raises(GraphError, match="must exceed 1"):
        solve_unit_radius(system)


def test_hand_built_system_solves():
    # A rose of two unit loops: each of the 4 oriented edges is followed by
    # the 3 that are not its reversal, so rho(h) = 3 exp(-h) and h = log 3.
    # A system built outside edge_system has an h = 0 slot of its own.
    reversal = np.array([1, 0, 3, 2])
    rows, cols = np.nonzero(np.arange(4) != reversal[:, None])
    system = spectral.EdgeSystem(
        edge_ids=("a+", "a-", "b+", "b-"), rows=rows, cols=cols, vals=np.ones(12),
        lengths=np.ones(4), reversal=reversal, edge_orders=np.ones(4), irreducible=True,
    )
    sol = solve_unit_radius(system)
    assert sol.h == pytest.approx(math.log(3), rel=1e-12)
    assert len(system.at_zero) == 1
    again = solve_unit_radius(system)
    assert (again.h, again.vector, again.iterations) == (sol.h, sol.vector, sol.iterations)
    other = spectral.EdgeSystem(
        edge_ids=system.edge_ids, rows=rows, cols=cols, vals=np.ones(12),
        lengths=np.ones(4), reversal=reversal, edge_orders=np.ones(4), irreducible=True,
    )
    assert other.at_zero == {}


def test_residual_contract():
    for g in (theta(), dumbbell(), complete(4), theta((1, 1, 2))):
        sol = volume_entropy(g)
        assert sol.residual <= 1e-9
        report = verify_fixed_point(g, sol.h, sol.vector)
        assert report.max_residual <= 1e-9


@pytest.mark.parametrize(
    "alpha",
    [Fraction(1, 3), Fraction(1, 2), 2, 5,
     Fraction(1, 10**9), Fraction(1, 10**12), 10**6, 10**12],
)
def test_homogeneity(alpha):
    for g in (theta(), dumbbell((1, 2, 1))):
        base = volume_entropy(g).h
        scaled = volume_entropy(scale_metric(g, alpha)).h
        assert scaled == pytest.approx(base / alpha, rel=1e-9)


def _k4_one_long_edge(ratio):
    g = complete(4)
    return g.with_lengths({eid: ratio if eid == "e1" else 1 for eid in g.unoriented_ids})


@pytest.mark.parametrize(
    "g",
    [_k4_one_long_edge(100), _k4_one_long_edge(300), _k4_one_long_edge(1000),
     dumbbell((1, 1, 5000)), theta((1, 1, 10**4))],
    ids=["k4-100", "k4-300", "k4-1000", "dumbbell-1:1:5000", "theta-1:1:1e4"],
)
def test_length_ratios(g, monkeypatch):
    # At these ratios a full eigendecomposition's Perron vector can be far
    # off (residual 1.0 on K4 at 300:1) although its eigenvalue is right; the
    # dense inverse iteration must reach the fixed point, and the iterative
    # path (every matrix through power iteration) is the reference.
    sol = volume_entropy(g)
    assert verify_fixed_point(g, sol.h, sol.vector).max_residual <= 1e-9
    monkeypatch.setattr(config, "DENSE_EDGE_LIMIT", 1)
    assert sol.h == pytest.approx(volume_entropy(g).h, rel=1e-12)


def test_bracket_closes_to_adjacent_doubles():
    # Scaled to a unit longest edge, the root is about 6.9e4, where adjacent
    # doubles lie 1.5e-11 apart, more than the root tolerance: the bracket
    # can only close to neighbouring doubles.
    short = Fraction(1, 100000)
    g = build_graph(graph_doc(
        ["a", "b"],
        [("e1", "a", "b", short), ("e2", "a", "b", short), ("e3", "a", "b", short),
         ("loop", "a", "a", 1)],
    ))
    sol = volume_entropy(g)
    assert sol.h == pytest.approx(LOG2 * 1e5, rel=1e-12)
    assert verify_fixed_point(g, sol.h, sol.vector).max_residual <= 1e-9
    assert sol.iterations < 10


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_radius_rounding_to_one_does_not_creep(order):
    # At lengths 1 : 44.3 : 1e8, scaled to a longest edge of 1, d log rho / dh
    # is about 3e-6 at the root, so rho(h) evaluates to exactly 1.0 over some
    # 1e-10 of h, tens of thousands of doubles: a Newton step of log 1 = 0
    # would creep down by the margin per evaluation until the cap.  The
    # reference solves sum 1 / (1 + exp(h l)) = 1 (50 digits); the rounded
    # weights leave about 1e-10 of it.
    lengths = (1, 44.3, 1e8)
    g = theta().with_lengths({f"e{k + 1}": lengths[i] for k, i in enumerate(order)})
    sol = volume_entropy(g)
    assert sol.iterations < 60
    assert sol.h == pytest.approx(1.3398522142221559e-07, rel=1e-9)
    assert verify_fixed_point(g, sol.h, sol.vector).max_residual <= 1e-9


@pytest.mark.parametrize("loop", [1, Fraction(3, 2), Fraction(7, 10)])
@pytest.mark.parametrize(
    "d", [10000, 31415, 54321, 77777, 99999, 100000, 100001, 100003, 123457, 1000000]
)
def test_stiff_theta_endgame(d, loop):
    # Theta edges of 1/d set the root at d log 2: 4.9e3 to 1.0e6 scaled to a
    # longest edge of 1, where root_tol / 3 is below the spacing of doubles.
    # The Newton endgame must aim whole ulps short of and past the root, not
    # bisect down from the initial bracket.
    short = Fraction(1, d)
    g = build_graph(graph_doc(
        ["a", "b"],
        [("e1", "a", "b", short), ("e2", "a", "b", short), ("e3", "a", "b", short),
         ("loop", "a", "a", loop)],
    ))
    sol = volume_entropy(g)
    assert sol.iterations <= 12
    assert sol.h == pytest.approx(LOG2 * d, rel=1e-12)
    assert verify_fixed_point(g, sol.h, sol.vector).max_residual <= 1e-9


def wide_ratio_metrics(count, seed):
    """Seeded metrics on six graphs: each edge length log-uniform over a
    ratio of 1e4, all times one log-uniform scale from 1e-12 to 1e12."""
    rng = np.random.default_rng(seed)
    graphs = (theta(), complete(4), complete(5), complete_bipartite(3, 4),
              complete_bipartite(4, 4), dumbbell())
    for k in range(count):
        g = graphs[k % len(graphs)]
        ids = g.unoriented_ids
        lengths = 10.0 ** rng.uniform(0, 4, len(ids)) * 10.0 ** rng.uniform(-12, 12)
        yield g.with_lengths(dict(zip(ids, lengths.tolist())))


def test_wide_ratio_metrics_dense_against_iterative(monkeypatch):
    # The dense inverse iteration hands vectors with Perron entries below
    # rounding of the largest to power iteration; some of these inputs must
    # take that fallback.
    metered = list(wide_ratio_metrics(120, seed=0))
    fallbacks = []
    power_iteration = spectral.power_iteration

    def counted(*args):
        fallbacks.append(args)
        return power_iteration(*args)

    monkeypatch.setattr(spectral, "power_iteration", counted)
    dense = [volume_entropy(g) for g in metered]
    assert fallbacks
    for g, sol in zip(metered, dense):
        assert verify_fixed_point(g, sol.h, sol.vector).max_residual <= 1e-9
    monkeypatch.setattr(config, "DENSE_EDGE_LIMIT", 1)
    for g, sol in zip(metered, dense):
        assert sol.h == pytest.approx(volume_entropy(g).h, rel=1e-12)


def test_reduction_invariance():
    g = build_graph(graph_doc(
        ["a", "b", "m"],
        [("e1", "a", "b", 1), ("e2", "a", "b", 1),
         ("e3a", "a", "m", Fraction(1, 2)), ("e3b", "m", "b", Fraction(1, 2))],
    ))
    reduced, _ = series_reduce(g)
    assert volume_entropy(reduced).h == pytest.approx(volume_entropy(g).h, rel=1e-9)


def test_relabeling_invariance():
    base = theta((1, 2, 3))
    relabeled = build_graph(graph_doc(
        ["q", "p"],
        [("z9", "q", "p", 1), ("a1", "p", "q", 2), ("m5", "q", "p", 3)],
    ))
    assert volume_entropy(relabeled).h == pytest.approx(
        volume_entropy(base).h, rel=1e-9
    )


def test_verify_fixed_point_exact_identity():
    g = theta()
    ones = {e.id: 1.0 for e in g.edges}
    report = verify_fixed_point(g, LOG2, ones)
    assert report.max_residual < 1e-15


def test_verify_fixed_point_perturbation():
    g = theta()
    eps = 1e-6
    x = {e.id: 1.0 for e in g.edges}
    x["e1+"] += eps
    report = verify_fixed_point(g, LOG2, x)
    assert eps / 2 <= report.max_residual <= 2 * eps
    assert report.worst_edge == "e1+"


def test_verify_fixed_point_requires_positive():
    g = theta()
    x = {e.id: 1.0 for e in g.edges}
    x["e1+"] = 0.0
    with pytest.raises(GraphError, match="positive"):
        verify_fixed_point(g, LOG2, x)


def test_entropy_volume_product_dilation_invariant():
    g = theta()
    base = entropy_volume_product(g)
    assert base == pytest.approx(3 * LOG2, rel=1e-9)
    for alpha in (Fraction(1, 3), 2, 7):
        assert entropy_volume_product(scale_metric(g, alpha)) == pytest.approx(
            base, rel=1e-9
        )
    assert entropy_volume_product(complete(4, Fraction(1, 6))) == pytest.approx(
        6 * LOG2, rel=1e-9
    )


def test_float_lengths_supported_by_solver():
    g = theta().with_lengths({"e1": 1 / 3, "e2": 1 / 3, "e3": 1 / 3})
    assert volume_entropy(g).h == pytest.approx(3 * LOG2, rel=1e-9)
