"""The marking-equation heuristic's cheap paths against its cold solve.

A* takes h of a marking from its parent's LP optimum (the reuse rule) or
warm-starts the simplex from the parent's optimal basis.  Both must give
exactly the value a cold solve gives, and the search must expand and
return exactly what it did when every value was solved cold.
"""

import gc
import json
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_SEED, build_corpus_models
from flowalign import astar, simplex
from flowalign.astar import (
    MarkingEquation,
    SearchConfig,
    SearchOutcome,
    astar_align,
    marking_equation_heuristic,
)
from flowalign.errors import InvalidInputError
from flowalign.flow import SolveStatus, lp_align
from flowalign.generator import (
    alphabet_of,
    apply_random_edits,
    block_to_net,
    playout,
    random_block,
)
from flowalign.petri import PetriNet, Trace, firing_data, incidence_matrices
from flowalign.reachability import build_reachability_graph
from flowalign.simplex import BASIS_CACHE_SIZE, BasisCache, Optimum, solve_min_eq
from flowalign.sync_product import incidence_rows, product_for_trace
from oracles import oracle_shortest_cost

GOLDEN = Path(__file__).parent / "data" / "astar_first_edit_cycle.json"


def random_block_product(rng: random.Random):
    block = random_block(rng, rng.randint(2, 6))
    acts = apply_random_edits(playout(block, rng), rng.randint(0, 3), alphabet_of(block), rng)
    return product_for_trace(block_to_net(block), Trace("t", acts))


def random_net_product(rng: random.Random):
    """A small unstructured net, so the final marking is often out of reach."""
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
    acts = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    return product_for_trace(net, Trace("t", acts))


def enabled_moves(sp, m, cap=8):
    pre, post = firing_data(sp.net)
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
    m = sp.net.initial_marking
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
    h = MarkingEquation(sp)
    if h(m) == math.inf:
        return
    cold = marking_equation_heuristic(sp, child)
    assert exact(h(child, (m, j)), h.scale) == cold
    assert h.solves + h.reuses == 2

    # The warm start alone, also where the reuse rule answered above.
    rhs = [f - v for f, v in zip(sp.net.final_marking, child)]
    parent = solve_min_eq(h.rows, [f - v for f, v in zip(sp.net.final_marking, m)], h.costs)
    warm = solve_min_eq(h.rows, rhs, h.costs, basis=parent.basis)
    assert (math.inf if warm is None else Fraction(warm[0], h.scale)) == cold


def test_warm_start_detects_dead_end():
    net = PetriNet.build(
        ["p0", "p1", "pd"], ["t", "u"], [("p0", "t"), ("t", "p1"), ("p0", "u"), ("u", "pd")],
        {"t": "a", "u": "b"}, {"p0": 1}, {"p1": 1},
    )
    sp = product_for_trace(net, Trace("x", ("a",)))
    h = MarkingEquation(sp)
    start = sp.net.initial_marking
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
    b2 = [v + draw(st.integers(-2, 2)) for v in b]
    return a, b, b2, c


@given(equality_lps())
@settings(max_examples=200, deadline=None)
def test_solve_min_eq_warm_start_matches_cold(lp):
    a, b, b2, c = lp
    first = solve_min_eq(a, b, c)
    assert isinstance(first, Optimum)
    cold = solve_min_eq(a, b2, c)
    warm = solve_min_eq(a, b2, c, basis=first.basis)
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


def solve_chain(a, c, bs, seeds, cache=None):
    """Solve bs[0] cold, then each later b warm from the basis of the
    earlier solve ``seeds`` names (cold when that one was infeasible)."""
    results = [solve_min_eq(a, bs[0], c, cache=cache)]
    for b, k in zip(bs[1:], seeds):
        seed = results[k]
        basis = None if seed is None else seed.basis
        results.append(solve_min_eq(a, b, c, basis, cache=cache))
        assert cache is None or len(cache) <= simplex.BASIS_CACHE_SIZE
    return results


@pytest.mark.parametrize("size", [1, 5, BASIS_CACHE_SIZE])
@given(lp_chains())
@settings(max_examples=200, deadline=None)
def test_basis_cache_changes_no_answer(size, chain):
    """Also with room for one or five tableaux, so that warm starts miss
    and tableaux are evicted."""
    a, c, bs, seeds = chain
    plain = solve_chain(a, c, bs, seeds)
    with mock.patch.object(simplex, "BASIS_CACHE_SIZE", size):
        cached = solve_chain(a, c, bs, seeds, BasisCache(a, c))
    for p, q in zip(plain, cached):
        assert (p is None) == (q is None)
        if p is not None:
            assert (q[0], q[1], sorted(q.basis)) == (p[0], p[1], sorted(p.basis))


def test_basis_cache_seeds_a_warm_start_without_refactoring(monkeypatch):
    a, c = [[1, 1, 0, -1], [0, 1, 1, 0], [1, 0, -1, 2]], [3, 1, 4, 2]
    first = solve_min_eq(a, [2, 3, -1], c)
    refactors = []
    real_refactor = simplex._refactor
    monkeypatch.setattr(simplex, "_refactor", lambda *args: refactors.append(1) or real_refactor(*args))
    cache = BasisCache(a, c)
    assert solve_min_eq(a, [2, 3, -1], c, cache=cache) == first
    for b in ([4, 1, 5], [1, 1, 1], [0, 5, -5]):
        cached = solve_min_eq(a, b, c, first.basis, cache=cache)
        assert cached == solve_min_eq(a, b, c)
    assert refactors == []

    # A rational rhs may need other row scales: it neither reads nor fills the cache.
    half = [Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]
    assert solve_min_eq(a, half, c, first.basis, cache=cache) == solve_min_eq(a, half, c)
    assert len(refactors) == 1

    with pytest.raises(InvalidInputError):
        solve_min_eq([row[:] for row in a], [1, 1, 1], c, first.basis, cache=cache)
    with pytest.raises(InvalidInputError):
        solve_min_eq(a, [1, 1, 1], list(c), first.basis, cache=cache)


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

    # A b whose basic values go negative still runs the dual simplex on a copy.
    for b in ([4, 1, 5], [3, 0, 0]):
        del copies[:]
        before = cache.pivots
        got = solve_min_eq(a, b, c, first.basis, cache=cache)
        assert len(copies) == 1 and cache.pivots > before
        assert same_optimum(got, solve_min_eq(a, b, c))
    assert got is None  # [3, 0, 0] is infeasible


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


def test_unusable_basis_falls_back_to_cold():
    a, b, c = [[1, 1, 0], [0, 1, 1]], [2, 3], [3, 1, 4]
    value = solve_min_eq(a, b, c)[0]
    for basis in ((), (0,), (0, 0), (5, 1), (0, 2)):
        assert solve_min_eq(a, b, c, basis=basis)[0] == value


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_lp_astar_and_oracle_costs_equal(rng):
    sp = random_block_product(rng)
    rg = build_reachability_graph(sp)
    if rg.final_index is None or len(rg.nodes) > 500:
        return
    lp_alignment, lp_stats = lp_align(sp)
    alignment, stats = astar_align(sp)
    assert lp_stats.outcome is SolveStatus.OPTIMAL and stats.outcome is SearchOutcome.OPTIMAL
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


def test_basis_cache_spares_most_refactorizations(monkeypatch):
    """The search of the first edit cycle with the most solves (m06, 7
    edits: 271 solves, 270 of them warm from 13 distinct bases) re-factors
    on fewer than one warm start in ten (5 times), and its cache stays
    within bound."""
    refactors = []
    real_refactor = simplex._refactor
    monkeypatch.setattr(simplex, "_refactor", lambda *args: refactors.append(1) or real_refactor(*args))
    warm, sizes = [], []

    def watching(a, b, c, basis=None, cache=None):
        warm.append(basis is not None)
        result = solve_min_eq(a, b, c, basis, cache=cache)
        sizes.append(len(cache))
        return result

    monkeypatch.setattr(astar, "solve_min_eq", watching)
    _, sp = next(case for case in first_edit_cycle({"m06"}) if case[0].endswith("k7"))
    alignment, stats = astar_align(sp)
    assert stats.outcome is SearchOutcome.OPTIMAL
    assert stats.heuristic_calls == len(warm) == 271
    assert 0 < 10 * len(refactors) < sum(warm)
    assert max(sizes) == BASIS_CACHE_SIZE


def test_first_edit_cycle_solver_work():
    """The heuristic's work summed over the 108 searches of the corpus's
    first edit cycle: simplex calls, values reused from a parent, and
    primal and dual simplex pivots (re-factorizations not counted).  A
    faster warm start may change none of them."""
    runs = [astar_align(sp)[1] for _, sp in first_edit_cycle({m for m, _, _ in build_corpus_models()})]
    assert len(runs) == 108 and all(s.outcome is SearchOutcome.OPTIMAL for s in runs)
    assert sum(s.heuristic_calls for s in runs) == 1977
    assert sum(s.heuristic_reuses for s in runs) == 987
    assert sum(s.heuristic_pivots for s in runs) == 3469


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
        assert incidence_rows(sp) == incidence_matrices(sp.net).incidence.tolist()
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
    ref = weakref.ref(sp.net)
    del sp
    gc.collect()
    assert ref() is None
