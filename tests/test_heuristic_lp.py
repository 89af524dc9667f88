"""The marking-equation heuristic's cheap paths against its cold solve.

A* takes h of a marking from its parent's LP optimum (the reuse rule) or
warm-starts the simplex from the parent's optimal basis.  Both must give
exactly the value a cold solve gives, and the search must expand and
return exactly what it did when every value was solved cold.
"""

import gc
import json
import math
import pickle
import random
import sys
import threading
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_SEED, build_corpus_models
from flowalign import astar, simplex
from explicit_lp import marking_equation, marking_equation_heuristic, product_net
from flowalign.astar import SearchConfig, astar_align
from flowalign.errors import InvalidInputError
from flowalign.flow import Outcome, lp_align
from flowalign.generator import (
    alphabet_of,
    apply_random_edits,
    block_to_net,
    playout,
    random_block,
)
from flowalign.petri import TAU, PetriNet, Trace, firing_data, incidence_matrices
from flowalign.reachability import build_reachability_graph
from flowalign.simplex import BASIS_CACHE_SIZE, BasisCache, Optimum, solve_min_eq
from flowalign.sync_product import CostConfig, model_relaxation, product_for_trace
from oracles import incidence_rows, oracle_shortest_cost, product_marking_equation

GOLDEN = Path(__file__).parent / "data" / "astar_first_edit_cycle.json"


def random_block_product(rng: random.Random, cost=CostConfig(), outside: tuple[str, ...] = ()):
    """``outside`` adds labels the model lacks to the edits' alphabet."""
    block = random_block(rng, rng.randint(2, 6))
    acts = apply_random_edits(playout(block, rng), rng.randint(0, 3), alphabet_of(block) + outside, rng)
    return product_for_trace(block_to_net(block), Trace("t", acts), cost)


def random_net_product(rng: random.Random, cost=CostConfig(), outside: tuple[str, ...] = ()):
    """A small unstructured net, so the final marking is often out of reach;
    its labels repeat, some are silent, and its trace draws from a, b and
    ``outside``."""
    places = [f"p{i}" for i in range(rng.randint(2, 4))]
    transitions = [f"t{i}" for i in range(rng.randint(1, 4))]
    arcs = []
    for t in transitions:
        for p in places:
            if rng.random() < 0.4:
                arcs.append((p, t))
            if rng.random() < 0.4:
                arcs.append((t, p))
    net = PetriNet.build(
        places,
        transitions,
        arcs,
        {t: rng.choice(["a", "b", None]) for t in transitions},
        {places[0]: 1},
        {places[-1]: 1},
    )
    acts = tuple(rng.choice(("a", "b") + outside) for _ in range(rng.randint(0, 3)))
    return product_for_trace(net, Trace("t", acts), cost)


def enabled_moves(sp, m, cap=8):
    pre, post = firing_data(product_net(sp))
    for j in range(len(sp.moves)):
        if all(m[i] >= w for i, w in pre[j]):
            succ = list(m)
            for i, w in pre[j]:
                succ[i] -= w
            for i, w in post[j]:
                succ[i] += w
            if max(succ) <= cap and tuple(succ) != m:
                yield j, tuple(succ)


def random_edge(sp, rng: random.Random):
    """A marking reached by a short random walk, and one enabled move there."""
    m = sp.initial_marking
    for _ in range(rng.randint(0, 6)):
        options = list(enabled_moves(sp, m))
        if not options:
            break
        m = rng.choice(options)[1]
    options = list(enabled_moves(sp, m))
    if not options:
        return None
    j, child = rng.choice(options)
    return m, j, child


def exact(h, scale):
    return h if h == math.inf else Fraction(h, scale)


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=150, deadline=None)
def test_reuse_and_warm_start_equal_cold_solve(rng, block_model):
    sp = random_block_product(rng) if block_model else random_net_product(rng)
    edge = random_edge(sp, rng)
    if edge is None:
        return
    m, j, child = edge
    h = marking_equation(sp)
    if h(m) == math.inf:
        return
    cold = marking_equation_heuristic(sp, child)
    assert exact(h(child, (m, j)), h.scale) == cold
    assert h.solves + h.reuses == 2

    # The warm start alone, also where the reuse rule answered above.
    rows, costs = h.relaxation.rows, h.relaxation.costs
    (b, _), (b_child, outside) = h.rhs(m), h.rhs(child)
    cache = BasisCache(rows, costs)
    parent = solve_min_eq(rows, b, costs, cache=cache)
    warm = solve_min_eq(rows, b_child, costs, parent.basis, cache)
    assert (math.inf if warm is None else Fraction(warm[0] + outside, h.scale)) == cold


def test_model_relaxation_equals_the_product_marking_equation():
    """h, solved warm from the model's seed or taken by A*'s reuse rule or
    warm start from a parent's optimum, equals the product marking
    equation solved cold on the oracle's rows, at a random-walk marking and
    all its successors, under the default costs and under tau 1/7 and
    deviation 3/2."""
    seen = Counter()
    priced = CostConfig(tau_cost=Fraction(1, 7), deviation_cost=Fraction(3, 2))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from([CostConfig(), priced]))
    def check(rng, block_model, cost):
        sp = (random_block_product if block_model else random_net_product)(rng, cost, ("z",))
        edge = random_edge(sp, rng)
        if edge is None:
            return
        m = edge[0]
        h = marking_equation(sp)
        for key, via in [(m, None)] + [(child, (m, j)) for j, child in enabled_moves(sp, m)]:
            value = exact(h(key, via), h.scale)
            assert value == product_marking_equation(sp, key) == marking_equation_heuristic(sp, key)
            seen["dead_ends"] += value == math.inf
            seen["outside_log_moves"] += via is not None and h.columns[via[1]] is None and h.values[m] < math.inf
        labels = [a for a in sp.process_net.labels if a is not TAU]
        seen["empty_traces"] += not sp.trace_labels
        seen["outside_events"] += "z" in sp.trace_labels
        seen["duplicate_labels"] += len(set(labels)) < len(labels)
        seen["silent_transitions"] += TAU in sp.process_net.labels
        seen["priced"] += cost == priced
        seen["reuses"] += h.reuses
        seen["warm_starts"] += h.solves - 1

    check()
    assert all(seen[k] for k in (
        "dead_ends", "empty_traces", "outside_events", "outside_log_moves", "duplicate_labels",
        "silent_transitions", "priced", "reuses", "warm_starts",
    )), seen


def test_warm_start_detects_dead_end():
    net = PetriNet.build(
        ["p0", "p1", "pd"], ["t", "u"], [("p0", "t"), ("t", "p1"), ("p0", "u"), ("u", "pd")],
        {"t": "a", "u": "b"}, {"p0": 1}, {"p1": 1},
    )
    sp = product_for_trace(net, Trace("x", ("a",)))
    h = marking_equation(sp)
    start = sp.initial_marking
    assert h(start) == 0
    j, dead = next(
        (j, c) for j, c in enabled_moves(sp, start) if sp.moves[j].process_transition == "u"
    )
    assert marking_equation_heuristic(sp, dead) == math.inf
    assert h(dead, (start, j)) == math.inf
    assert h.solves == 2 and h.reuses == 0


@st.composite
def equality_lps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    cell = st.sampled_from([-1, 0, 0, 1, 2, Fraction(1, 2)])
    a = [[draw(cell) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        a[-1] = [x + 2 * y for x, y in zip(a[0], a[1])]  # a dependent row
    c = [draw(st.sampled_from([0, 1, 3, Fraction(1, 10**6)])) for _ in range(n)]
    x0 = [draw(st.integers(0, 3)) for _ in range(n)]
    b = [sum(r[j] * x0[j] for j in range(n)) for r in a]
    if not all(v == int(v) for v in b):
        b = [2 * v for v in b]  # an integer rhs, which a BasisCache takes
    b = [int(v) for v in b]
    b2 = [v + draw(st.integers(-2, 2)) for v in b]
    return a, b, b2, c


@given(equality_lps())
@settings(max_examples=200, deadline=None)
def test_solve_min_eq_warm_start_matches_cold(lp):
    a, b, b2, c = lp
    cache = BasisCache(a, c)
    first = solve_min_eq(a, b, c, cache=cache)
    assert isinstance(first, Optimum) and len(cache) == 1
    cold = solve_min_eq(a, b2, c)
    warm = solve_min_eq(a, b2, c, first.basis, cache)
    assert (warm is None) == (cold is None)
    if cold is not None:
        value, x = warm
        assert value == cold[0]
        assert all(v >= 0 for v in x)
        assert all(sum(r[j] * x[j] for j in range(len(x))) == v for r, v in zip(a, b2))


@st.composite
def lp_chains(draw):
    """An LP and a run of right-hand sides: feasible ones (some negative, so
    a cold tableau negates rows), perturbed ones that may be infeasible,
    and for each later solve the earlier solve whose basis seeds it."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    cell = st.sampled_from([-2, -1, 0, 0, 1, 2, Fraction(1, 2)])
    a = [[draw(cell) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        a[-1] = [x - y for x, y in zip(a[0], a[1])]  # a dependent row
    c = [draw(st.sampled_from([0, 1, 3, Fraction(1, 10**6)])) for _ in range(n)]
    bs = []
    for _ in range(draw(st.integers(2, 12))):
        x0 = [draw(st.integers(0, 3)) for _ in range(n)]
        b = [sum(r[j] * x0[j] for j in range(n)) for r in a]
        if bs and draw(st.booleans()):
            b = [v + draw(st.integers(-2, 2)) for v in b]
        if not all(isinstance(v, int) or v.denominator == 1 for v in b):
            b = [2 * v for v in b]
        bs.append([int(v) for v in b])
    seeds = [draw(st.integers(0, i - 1)) for i in range(1, len(bs))]
    return a, c, bs, seeds


def solve_chain(a, c, bs, seeds, cache):
    """Solve each b through ``cache``: bs[0] cold, then each later b warm
    from the basis of the earlier solve ``seeds`` names (from the cache's
    most recent tableau when that one was infeasible)."""
    results = [solve_min_eq(a, bs[0], c, cache=cache)]
    for b, k in zip(bs[1:], seeds):
        seed = results[k]
        results.append(solve_min_eq(a, b, c, None if seed is None else seed.basis, cache))
        assert len(cache) <= simplex.BASIS_CACHE_SIZE
    return results


@pytest.mark.parametrize("size", [1, 5, BASIS_CACHE_SIZE])
@given(lp_chains())
@settings(max_examples=200, deadline=None)
def test_basis_cache_changes_no_answer(size, chain):
    """Also with room for one or five tableaux, so that warm starts miss,
    start from the most recent tableau and may end at another optimal
    vertex, and tableaux are evicted: every solve gives a cold solve's
    verdict and optimal value, and its x is optimal."""
    a, c, bs, seeds = chain
    with mock.patch.object(simplex, "BASIS_CACHE_SIZE", size):
        cached = solve_chain(a, c, bs, seeds, BasisCache(a, c))
    for b, got in zip(bs, cached):
        cold = solve_min_eq(a, b, c)
        assert (cold is None) == (got is None)
        if cold is not None:
            value, x = got
            assert value == cold[0]
            assert all(v >= 0 for v in x)
            assert all(sum(r[j] * x[j] for j in range(len(x))) == v for r, v in zip(a, b))
            assert sum(cj * xj for cj, xj in zip(c, x)) == value


def nonzeros(b):
    return [(k, v) for k, v in enumerate(b) if v]


@given(equality_lps())
@settings(max_examples=200, deadline=None)
def test_child_cells_in_o_rows_equal_the_rhs_cells_of_the_child(lp):
    """For every column j, b's cells less the tableau's column j are the
    cells of b - a_j on that tableau; where x_j >= 1, ``Optimum.less``
    gives the same cells and a cold solve's value; and a solve given
    ``parent=(optimum, j)`` gives a cold solve's verdict and value."""
    a, b, _, c = lp
    cache = BasisCache(a, c)
    first = solve_min_eq(a, b, c, cache=cache)
    tab, n = first.tableau(), len(c)
    assert tab is cache.find(first.basis)
    assert tab.rhs_cells(n, nonzeros(b)) == first.cells
    for j in range(n):
        child = [v - row[j] for v, row in zip(b, a)]
        cells = tab.less(first.cells, j, cache.costs)
        assert cells == tab.rhs_cells(n, nonzeros(child))
        cold = solve_min_eq(a, child, c)
        reused = first.less(j)
        if reused is not None:
            assert first[1][j] >= 1 and reused.cells == cells
            assert reused.value == first.value - c[j] == cold.value
        else:
            assert first[1][j] < 1
        if all(v == int(v) for v in child):
            warm = solve_min_eq(a, [int(v) for v in child], c, cache=BasisCache(a, c, cache), parent=(first, j))
            assert (warm is None) == (cold is None)
            assert warm is None or warm.value == cold.value


def test_a_step_reusing_dual_solve_equals_one_that_pivots_a_copy():
    """A dual step onto a cached basis reads that tableau instead of
    pivoting a copy; every solve of a chain still returns the same value,
    the same basis and the same pivot count as with that lookup off."""
    steps = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lp_chains(), st.sampled_from([2, 5, BASIS_CACHE_SIZE]))
    def check(chain, size):
        a, c, bs, seeds = chain
        real = simplex.BasisCache.find

        def counted(cache, basis):
            found = real(cache, basis)
            steps["cached"] += found is not None
            return found

        runs = []
        for find in (counted, lambda cache, basis: None):
            cache = BasisCache(a, c)
            work = []
            with mock.patch.object(simplex, "BASIS_CACHE_SIZE", size), mock.patch.object(simplex.BasisCache, "find", find):
                results = [solve_min_eq(a, bs[0], c, cache=cache)]
                for b, k in zip(bs[1:], seeds):
                    seed = results[k]
                    results.append(solve_min_eq(a, b, c, None if seed is None else seed.basis, cache))
                    work.append(cache.pivots)
            runs.append((work, [r if r is None else (r.value, sorted(r.basis)) for r in results]))
        assert runs[0] == runs[1]

    check()
    assert steps["cached"] > 0


def test_basis_cache_seeds_a_warm_start_without_refactoring(monkeypatch):
    a, c = [[1, 1, 0, -1], [0, 1, 1, 0], [1, 0, -1, 2]], [3, 1, 4, 2]
    bs = ([4, 1, 5], [1, 1, 1], [0, 5, -5])
    half = [Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]
    first, *cold = (solve_min_eq(a, b, c) for b in ([2, 3, -1], *bs, half))
    colds = counting_calls(monkeypatch, simplex, "_cold")
    cache = BasisCache(a, c)
    assert solve_min_eq(a, [2, 3, -1], c, cache=cache) == first
    assert len(colds) == 1  # an empty cache solves cold
    for b, expected in zip(bs, cold):
        assert solve_min_eq(a, b, c, first.basis, cache) == expected
    assert len(colds) == 1

    # A rational rhs may need other row scales: it neither reads nor fills the cache.
    entries = len(cache)
    assert solve_min_eq(a, half, c, first.basis, cache) == cold[-1]
    assert len(colds) == 2 and len(cache) == entries

    with pytest.raises(InvalidInputError):
        solve_min_eq([row[:] for row in a], [1, 1, 1], c, first.basis, cache=cache)
    with pytest.raises(InvalidInputError):
        solve_min_eq(a, [1, 1, 1], list(c), first.basis, cache=cache)
    with pytest.raises(InvalidInputError):  # a basis is no warm start without a cache
        solve_min_eq(a, [1, 1, 1], c, first.basis)


def counting_calls(monkeypatch, module, name):
    """Record the arguments of every call of ``module.<name>``."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def counting(monkeypatch, method):
    """Record every call of ``simplex._Tableau.<method>``."""
    calls = []
    real = getattr(simplex._Tableau, method)
    monkeypatch.setattr(simplex._Tableau, method, lambda self, *args: calls.append(args) or real(self, *args))
    return calls


def same_optimum(p, q):
    return (p is None) == (q is None) and (
        p is None or (p[0], p[1], sorted(p.basis)) == (q[0], q[1], sorted(q.basis))
    )


def test_cached_basis_that_stays_optimal_is_neither_copied_nor_pivoted(monkeypatch):
    a, c = [[1, 1, 0, -1], [0, 1, 1, 0], [1, 0, -1, 2]], [3, 1, 4, 2]
    cache = BasisCache(a, c)
    first = solve_min_eq(a, [2, 3, -1], c, cache=cache)
    bs = ([4, 6, -2], [0, 5, -5], [2, 3, -1])
    cold_pivots = cache.pivots
    copies, pivots = counting(monkeypatch, "copy"), counting(monkeypatch, "pivot")
    warm = [solve_min_eq(a, b, c, first.basis, cache=cache) for b in bs]
    assert copies == pivots == [] and cache.pivots == cold_pivots and len(cache) == 1
    for b, got in zip(bs, warm):
        assert same_optimum(got, solve_min_eq(a, b, c))
        assert got.basis == first.basis  # in the cached tableau's row order

    # A b whose basic values go negative still runs the dual simplex on a
    # copy, from a cache that holds no basis the steps reach.
    for b in ([4, 1, 5], [3, 0, 0]):
        del copies[:]
        fresh = BasisCache(a, c, cache)
        got = solve_min_eq(a, b, c, first.basis, cache=fresh)
        assert len(copies) == 1 and fresh.pivots == 1
        assert same_optimum(got, solve_min_eq(a, b, c))
    assert got is None  # [3, 0, 0] is infeasible


def test_a_dual_step_onto_a_cached_basis_reads_that_tableau(monkeypatch):
    """[3, 0, 0]'s one dual step from the first optimum's basis reaches the
    basis of [4, 1, 5]'s optimum: with that tableau cached, the step reads
    it, with no copy and no pivot, yet counts as a pivot, and the solve
    proves the LP infeasible as before."""
    a, c = [[1, 1, 0, -1], [0, 1, 1, 0], [1, 0, -1, 2]], [3, 1, 4, 2]
    cache = BasisCache(a, c)
    first = solve_min_eq(a, [2, 3, -1], c, cache=cache)
    reached = solve_min_eq(a, [4, 1, 5], c, first.basis, cache=cache)
    assert len(cache) == 2 and sorted(cache.find(reached.basis).basis) == sorted(reached.basis)
    copies, pivots = counting(monkeypatch, "copy"), counting(monkeypatch, "pivot")
    before = cache.pivots
    assert solve_min_eq(a, [3, 0, 0], c, first.basis, cache=cache) is None
    assert copies == pivots == [] and cache.pivots == before + 1
    # Started from the reached basis itself, the step is not needed.
    got = solve_min_eq(a, [4, 1, 5], c, first.basis, cache=cache)
    assert copies == pivots == [] and cache.pivots == before + 2 and got.tableau() is cache.find(reached.basis)


def test_inconsistent_rhs_on_a_cached_basis_is_infeasible(monkeypatch):
    a, c = [[1, 1, 0], [0, 1, 1], [1, 2, 1]], [1, 2, 3]  # row 3 = row 1 + row 2
    cache = BasisCache(a, c)
    first = solve_min_eq(a, [1, 1, 2], c, cache=cache)
    copies = counting(monkeypatch, "copy")
    assert solve_min_eq(a, [1, 1, 3], c, first.basis, cache=cache) is None
    assert solve_min_eq(a, [1, 1, 3], c) is None
    assert copies == []


def test_optimum_x_is_int_where_integral():
    value, x = solve_min_eq([[2, 1]], [1], [1, 3])
    assert (value, x) == (Fraction(1, 2), [Fraction(1, 2), 0])
    assert type(x[0]) is Fraction and type(x[1]) is int
    _, x = solve_min_eq([[1, 1]], [2], [1, 3])
    assert x == [2, 0] and all(type(v) is int for v in x)


def test_unusable_basis_starts_from_the_most_recent_tableau(monkeypatch):
    a, c = [[1, 1, 0], [0, 1, 1]], [3, 1, 4]
    cache = BasisCache(a, c)
    used = solve_min_eq(a, [5, 1], c, cache=cache)  # basis {0, 1}
    newest = solve_min_eq(a, [0, 1], c, cache=cache)  # basis {1, 2}, at the old end
    assert len(cache) == 2 and sorted(used.basis) == [0, 1] and sorted(newest.basis) == [1, 2]
    solve_min_eq(a, [5, 1], c, used.basis, cache)  # a hit: {0, 1} is now the most recently used
    starts = []
    real = simplex.BasisCache.get
    monkeypatch.setattr(simplex.BasisCache, "get", lambda cache, basis: starts.append(real(cache, basis)) or starts[-1])
    colds = counting_calls(monkeypatch, simplex, "_cold")
    value = solve_min_eq(a, [2, 3], c)[0]
    del colds[:]
    for basis in (None, (), (0,), (0, 0), (5, 1), (0, 2)):
        assert solve_min_eq(a, [2, 3], c, basis, cache)[0] == value
    assert colds == []
    assert [sorted(tab.basis) for tab in starts] == [[0, 1]] * 6


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_lp_astar_and_oracle_costs_equal(rng):
    sp = random_block_product(rng)
    rg = build_reachability_graph(sp)
    if rg.final_index is None or len(rg.nodes) > 500:
        return
    lp_alignment, lp_stats = lp_align(sp)
    alignment, stats = astar_align(sp)
    assert lp_stats.outcome is Outcome.OPTIMAL and stats.outcome is Outcome.OPTIMAL
    assert lp_alignment.total_cost == alignment.total_cost == oracle_shortest_cost(rg)


def first_edit_cycle(model_ids):
    for model_id, net, block in build_corpus_models():
        if model_id not in model_ids:
            continue
        rng = random.Random(f"{CORPUS_SEED}/{model_id}")
        alphabet = alphabet_of(block)
        for i in range(9):
            acts = apply_random_edits(playout(block, rng), i, alphabet, rng)
            case = f"{model_id}-c{i:03d}-k{i}"
            yield case, product_for_trace(net, Trace(case, acts))


def test_search_order_matches_cold_solves_golden():
    """Expansions and alignments recorded when every h was a cold solve."""
    golden = json.loads(GOLDEN.read_text())
    model_ids = {case.split("-")[0] for case in golden}
    seen = {}
    reuses = 0
    for case, sp in first_edit_cycle(model_ids):
        alignment, stats = astar_align(sp)
        seen[case] = [stats.expansions, [m.move_id for m in alignment.moves]]
        reuses += stats.heuristic_reuses
    assert seen == golden
    assert reuses > 0


def test_every_solve_goes_through_solve_min_eq(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_min_eq(*args, **kwargs)

    monkeypatch.setattr(astar, "solve_min_eq", counting)
    _, sp = next(case for case in first_edit_cycle({"m04"}) if case[0].endswith("k5"))
    alignment, stats = astar_align(sp)
    assert stats.heuristic_calls == len(calls)
    assert stats.heuristic_reuses > 0


def m06_k7():
    """The search of the first edit cycle with the most solves (m06, 7
    edits: 265 solves)."""
    return next(sp for case, sp in first_edit_cycle({"m06"}) if case.endswith("k7"))


def test_basis_cache_holds_every_basis_a_long_search_asks_for(monkeypatch):
    """The longest search's first solve starts from the model's seed and
    every later one from its parent's basis, which its cache holds every
    time; the cache fills to its bound, and nothing is solved cold."""
    sp = m06_k7()
    model_relaxation(sp.process_net, sp.cost)
    colds = counting_calls(monkeypatch, simplex, "_cold")
    bases, hits, sizes = [], [], []

    def watching(a, b, c, cache=None, parent=None):
        basis = None if parent is None else parent[0].basis
        bases.append(basis)
        hits.append(basis is not None and sorted(cache.get(basis).basis) == sorted(basis))
        result = solve_min_eq(a, b, c, cache=cache, parent=parent)
        sizes.append(len(cache))
        return result

    monkeypatch.setattr(astar, "solve_min_eq", watching)
    alignment, stats = astar_align(sp)
    assert stats.outcome is Outcome.OPTIMAL
    assert stats.heuristic_calls == len(bases) == 265
    assert bases[0] is None and sum(hits) == 264
    assert colds == []
    assert max(sizes) == BASIS_CACHE_SIZE


def test_a_search_with_room_for_one_tableau_solves_nothing_cold(monkeypatch):
    """With room for one tableau a parent's tableau is mostly evicted
    before its children ask for it; each such warm start begins from the
    most recent tableau instead.  No solve after the model's seed runs
    cold, every h equals a cold solve, and the search expands and returns
    what it does with the full cache."""
    sp = m06_k7()
    relax = model_relaxation(sp.process_net, sp.cost)
    expected = astar_align(sp)
    searches = []

    class Watched(astar.MarkingEquation):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(astar, "MarkingEquation", Watched)
    monkeypatch.setattr(simplex, "BASIS_CACHE_SIZE", 1)
    colds = counting_calls(monkeypatch, simplex, "_cold")
    alignment, stats = astar_align(sp)
    assert colds == []
    monkeypatch.undo()
    [h] = searches
    assert stats.heuristic_calls == h.solves > 200
    assert (alignment, stats.expansions) == (expected[0], expected[1].expansions)
    for key, value in h.values.items():
        rhs, outside = h.rhs(key)
        cold = solve_min_eq(relax.rows, rhs, relax.costs)
        assert value == (math.inf if cold is None else cold[0] + outside)


def test_no_evicted_tableau_is_kept_alive(monkeypatch):
    """An optimum refers to its tableau weakly: with room for one tableau,
    after every solve of the longest search at most one of the tableaux it
    made is alive, the one its cache holds."""
    sp = m06_k7()
    model_relaxation(sp.process_net, sp.cost)
    made, live = weakref.WeakSet(), []
    real_init = simplex._Tableau.__init__

    def init(tab, *args):
        real_init(tab, *args)
        made.add(tab)

    def watching(*args, **kwargs):
        result = solve_min_eq(*args, **kwargs)
        live.append(len(made))
        return result

    monkeypatch.setattr(simplex._Tableau, "__init__", init)
    monkeypatch.setattr(simplex, "BASIS_CACHE_SIZE", 1)
    monkeypatch.setattr(astar, "solve_min_eq", watching)
    alignment, stats = astar_align(sp)
    assert stats.outcome is Outcome.OPTIMAL and len(live) == stats.heuristic_calls > 200
    assert max(live) == 1


def test_first_edit_cycle_solver_work():
    """The heuristic's work summed over the 108 searches of the corpus's
    first edit cycle: simplex calls, values reused from a parent, and
    primal and dual simplex pivots (the models' seed solves not
    counted).  A faster warm start may change none of
    them."""
    runs = [astar_align(sp)[1] for _, sp in first_edit_cycle({m for m, _, _ in build_corpus_models()})]
    assert len(runs) == 108 and all(s.outcome is Outcome.OPTIMAL for s in runs)
    assert sum(s.heuristic_calls for s in runs) == 1971
    assert sum(s.heuristic_reuses for s in runs) == 993
    assert sum(s.heuristic_pivots for s in runs) == 1553


def fresh_first_edit_cycle():
    """The first edit cycle's 108 products, on unpickled copies of the
    corpus nets: nets that hold no relaxation yet."""
    nets, products = {}, []
    for case, sp in first_edit_cycle({m for m, _, _ in build_corpus_models()}):
        net = nets.setdefault(case.split("-")[0], pickle.loads(pickle.dumps(sp.process_net)))
        assert "_relaxations" not in vars(net)
        products.append((case, product_for_trace(net, Trace(case, sp.trace_labels))))
    return products


def test_one_cold_solve_per_model(monkeypatch):
    """Each of the 12 models solves its seed cold once; all 1,971 of the
    searches' own solves are warm starts, each search's first from its
    model's seed and every later one from a parent's basis."""
    colds, parents = counting_calls(monkeypatch, simplex, "_cold"), []

    def solving(*args, parent=None, **kwargs):
        parents.append(parent)
        return solve_min_eq(*args, parent=parent, **kwargs)

    monkeypatch.setattr(astar, "solve_min_eq", solving)
    products = fresh_first_edit_cycle()
    runs = [astar_align(sp)[1] for _, sp in products]
    assert len(colds) == len({sp.process_net for _, sp in products}) == 12
    assert len(parents) == sum(s.heuristic_calls for s in runs) == 1971
    assert parents.count(None) == len(products)  # one start marking per search


def test_search_counters_do_not_depend_on_other_searches():
    """Per-search solves, reuses and pivots are the same whichever
    searches of the model ran before, also with two threads searching on
    one net at once; every search of a net shares its one relaxation, and
    a pickled net drops it."""

    def counters(products):
        return {case: astar_align(sp)[1] for case, sp in products}

    def work(stats):
        return {case: (s.heuristic_calls, s.heuristic_reuses, s.heuristic_pivots) for case, s in stats.items()}

    forward = work(counters(fresh_first_edit_cycle()))
    assert work(counters(fresh_first_edit_cycle()[::-1])) == forward

    products = fresh_first_edit_cycle()
    results: list[dict] = [{}, {}]
    threads = [
        threading.Thread(target=lambda k=k: results[k].update(counters(products[:: 1 - 2 * k])))
        for k in (0, 1)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert work(results[0]) == work(results[1]) == forward
    for net in {sp.process_net for _, sp in products}:
        assert len(vars(net)["_relaxations"]) == 1
        assert "_relaxations" not in vars(pickle.loads(pickle.dumps(net)))


def test_incidence_rows_equal_the_dense_incidence():
    products = [sp for _, sp in first_edit_cycle({m for m, _, _ in build_corpus_models()})][::9]
    assert len(products) == 12
    net = PetriNet.build(
        ["p0", "p1", "p2"],
        ["t", "u"],
        [("p0", "t"), ("p0", "t"), ("t", "p1", 3), ("t", "p2", 0), ("p1", "u", 2), ("u", "p1"), ("u", "p2")],
        {"t": "a", "u": None},
        {"p0": 2},
        {"p2": 1},
    )
    products += [product_for_trace(net, Trace("t", acts)) for acts in ((), ("a",), ("a", "b", "a"))]
    for sp in products:
        assert incidence_rows(sp) == [list(row) for row in incidence_matrices(product_net(sp)).incidence]
    # Moves (t,t1'), (t,>>), (u,>>), (>>,t1'); places p0..p2, then p0', p1'.
    assert incidence_rows(products[13]) == [
        [-2, -2, 0, 0], [3, 3, -1, 0], [0, 0, 1, 0], [-1, 0, 0, -1], [1, 0, 0, 1]
    ]


def test_aligned_product_is_not_kept_alive():
    block = random_block(random.Random(5), 5)
    net = block_to_net(block)
    sp = product_for_trace(net, Trace("t", playout(block, random.Random(6))))
    astar_align(sp, SearchConfig())
    lp_align(sp)
    ref = weakref.ref(sp)
    del sp
    gc.collect()
    assert ref() is None
