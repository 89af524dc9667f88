import ast
import pickle
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INSURANCE_TRACE
from explicit_lp import build_trace_model, product_net
import flowalign
from flowalign.errors import InvalidInputError
from flowalign.model_io import parse_pnml
from flowalign.petri import PetriNet, Trace
from flowalign import sync_product
from flowalign.bench import RunConfig, run_engines
from flowalign.flow import lp_align
from oracles import eager_moves, product_to_pnml
from flowalign.sync_product import (
    GAP,
    CostConfig,
    MoveKind,
    _model_moves,
    cost_vector,
    model_relaxation,
    product_for_trace,
)
from test_successor_memo import small_nets

EPS = Fraction(1, 10**6)


class TestBuildSyncProduct:
    def test_toy_move_counts(self, toy_product):
        counts = toy_product.counts()
        assert counts[MoveKind.SYNC] == 3
        assert counts[MoveKind.MODEL] == 5
        assert counts[MoveKind.MODEL_TAU] == 0
        assert counts[MoveKind.LOG] == 3
        assert len(toy_product.moves) == 11

    def test_insurance_move_counts(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        counts = sp.counts()
        assert counts[MoveKind.SYNC] == 5
        assert counts[MoveKind.MODEL] + counts[MoveKind.MODEL_TAU] == 10
        assert counts[MoveKind.MODEL_TAU] == 2
        assert counts[MoveKind.LOG] == 5
        assert len(sp.moves) == 20

    def test_empty_trace_product(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("empty", ()))
        counts = sp.counts()
        assert counts[MoveKind.SYNC] == 0
        assert counts[MoveKind.LOG] == 0
        assert counts[MoveKind.MODEL] == 5

    def test_markings_are_component_concatenation(self, fig_acyclic, toy_product):
        n = len(toy_product.process_net.places)
        assert toy_product.initial_marking[:n] == fig_acyclic.initial_marking
        assert toy_product.initial_marking[n:] == (1, 0, 0, 0)
        assert toy_product.final_marking[:n] == fig_acyclic.final_marking
        assert toy_product.final_marking[n:] == (0, 0, 0, 1)

    def test_id_collision_resolved_by_priming(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("t", ("a", "b", "e")))
        # Trace transitions t1..t3 collide with model ids and get primes.
        assert "(t1,t1')" in {m.move_id for m in sp.moves}
        assert set(product_net(sp).places[6:]) == {"p0'", "p1'", "p2'", "p3'"}

    def test_sync_move_arcs_are_union_of_constituents(self, fig_acyclic, toy_product):
        tm = build_trace_model(Trace("toy", ("a", "b", "e")))
        arcs = set((s, t) for s, t, _ in product_net(toy_product).arcs)
        for move in toy_product.moves:
            expect = set()
            if move.process_transition:
                for s, t, _ in fig_acyclic.arcs:
                    if s == move.process_transition:
                        expect.add((move.move_id, t))
                    if t == move.process_transition:
                        expect.add((s, move.move_id))
            if move.trace_transition:
                raw = move.trace_transition.rstrip("'")
                for s, t, _ in tm.arcs:
                    if s == raw:
                        expect.add((move.move_id, t + "'"))
                    if t == raw:
                        expect.add((s + "'", move.move_id))
            got = {(s, t) for s, t in arcs if s == move.move_id or t == move.move_id}
            assert got == expect, move.move_id

    def test_duplicate_labels_give_full_cross_product(self):
        # k model transitions labeled 'a' and j occurrences in the trace
        # must yield k*j synchronous moves.
        net = PetriNet.build(
            places=["p0", "p1"],
            transitions=["u1", "u2", "u3"],
            arcs=[("p0", "u1"), ("u1", "p1"), ("p0", "u2"), ("u2", "p1"), ("p0", "u3"), ("u3", "p1")],
            labels={"u1": "a", "u2": "a", "u3": "b"},
            initial={"p0": 1},
            final={"p1": 1},
        )
        sp = product_for_trace(net, Trace("t", ("a", "b", "a")))
        assert sp.counts()[MoveKind.SYNC] == 2 * 2 + 1 * 1

    def test_product_net_has_the_moves_and_markings(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        net = product_net(sp)
        assert net.transitions == tuple(m.move_id for m in sp.moves)
        assert (net.initial_marking, net.final_marking) == (sp.initial_marking, sp.final_marking)
        clone = pickle.loads(pickle.dumps(sp))
        assert clone == sp and product_net(clone) == net

    def test_move_invariants(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        for m in sp.moves:
            if m.kind is MoveKind.SYNC:
                assert m.process_transition and m.trace_transition
                assert m.label_pair[0] == m.label_pair[1] != GAP
                assert m.cost == 0
            elif m.kind in (MoveKind.MODEL, MoveKind.MODEL_TAU):
                assert m.trace_transition is None
                assert m.label_pair[1] == GAP
                assert m.cost == (EPS if m.kind is MoveKind.MODEL_TAU else 1)
            else:
                assert m.process_transition is None
                assert m.label_pair[0] == GAP
                assert m.cost == 1

    def test_model_moves_are_built_once_per_cost_config(self, insurance):
        def model_moves(sp):
            return [m for m in sp.moves if m.kind in (MoveKind.MODEL, MoveKind.MODEL_TAU)]

        one = product_for_trace(insurance, INSURANCE_TRACE)
        two = product_for_trace(insurance, Trace("other", ("a",)))
        assert all(a is b for a, b in zip(model_moves(one), model_moves(two), strict=True))
        priced = product_for_trace(insurance, INSURANCE_TRACE, CostConfig(deviation_cost=Fraction(2)))
        expected = [replace(m, cost=2) if m.kind is MoveKind.MODEL else m for m in model_moves(one)]
        assert model_moves(priced) == expected
        syncs = [m for m in [*one.moves, *two.moves] if m.kind is MoveKind.SYNC]
        assert len(syncs) > 1 and len({id(m.cost) for m in syncs}) == 1
        assert "_model_moves" in vars(insurance)
        clone = pickle.loads(pickle.dumps(insurance))
        assert "_model_moves" not in vars(clone) and clone == insurance
        assert product_for_trace(clone, INSURANCE_TRACE) == one


class TestCostVector:
    def test_insurance_matches_published_vector(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        expected = tuple(
            Fraction(v) if v != "e" else EPS
            for v in (0, 0, 0, 0, 0, 1, 1, 1, 1, "e", 1, 1, 1, "e", 1, 1, 1, 1, 1, 1)
        )
        assert cost_vector(sp) == expected

    def test_toy_vector_has_no_epsilon(self, toy_product):
        vec = cost_vector(toy_product)
        assert sorted(vec) == [Fraction(0)] * 3 + [Fraction(1)] * 8

    def test_product_without_silent_transitions_has_no_epsilon(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("t", ("a",)))
        assert all(c in (0, 1) for c in cost_vector(sp))


class TestCostConfig:
    def test_defaults(self):
        cfg = CostConfig()
        assert cfg.tau_cost == EPS
        assert cfg.deviation_cost == 1

    def test_order_enforced(self):
        with pytest.raises(InvalidInputError):
            CostConfig(tau_cost=Fraction(2), deviation_cost=Fraction(1))
        with pytest.raises(InvalidInputError):
            CostConfig(tau_cost=Fraction(0))

    def test_custom_costs_flow_through(self, fig_acyclic):
        cfg = CostConfig(tau_cost=Fraction(1, 100), deviation_cost=Fraction(5))
        sp = product_for_trace(fig_acyclic, Trace("t", ("a",)), cfg)
        assert max(cost_vector(sp)) == 5

    def test_cache_lookups_hash_no_fraction(self, insurance, monkeypatch):
        """The per-net caches look a config up on every trace; its hash is
        kept, and equal configs hash equal, also across a pickle."""
        cfg = CostConfig(Fraction(1, 7), Fraction(3, 2))
        sp = product_for_trace(insurance, INSURANCE_TRACE, cfg)
        lp_align(sp)  # fills the model's caches under cfg
        hashes, fraction_hash = [], Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda q: hashes.append(q) or fraction_hash(q))
        for _ in range(3):
            _model_moves(insurance, cfg)
            model_relaxation(insurance, cfg)
            lp_align(sp)
        assert hashes == []
        twin, clone = CostConfig(Fraction(1, 7), Fraction(3, 2)), pickle.loads(pickle.dumps(cfg))
        assert twin == cfg == clone and hash(twin) == hash(cfg) == hash(clone)
        assert hash(cfg) == hash((Fraction(1, 7), Fraction(3, 2)))
        assert _model_moves(insurance, clone) is _model_moves(insurance, cfg)

    @pytest.mark.parametrize("cfg", [CostConfig(), CostConfig(Fraction(1, 7), Fraction(3, 2))])
    def test_each_move_is_priced_once_in_the_config_units(self, cfg, insurance, fig_acyclic):
        assert cfg.scaled == (cfg.tau_cost * cfg.scaled[2], cfg.deviation_cost * cfg.scaled[2], cfg.scaled[2])
        for net in (insurance, fig_acyclic):
            sp = product_for_trace(net, INSURANCE_TRACE, cfg)
            assert [Fraction(p, cfg.scaled[2]) for p in sp.prices] == list(cost_vector(sp))


@pytest.mark.parametrize(
    "cfg",
    [RunConfig(method="both"), RunConfig(method="hybrid", max_nodes=5)],
    ids=["both", "hybrid_fallback"],
)
def test_one_state_space_per_product(cfg, fig_acyclic, monkeypatch):
    """A* and the flow engine walk the product's own state space, so the
    model's memo is looked up once per product, not once per engine run."""
    calls, lookup = [], sync_product.successor_memo
    monkeypatch.setattr(sync_product, "successor_memo", lambda *args: calls.append(args) or lookup(*args))
    trace = Trace("t", ("a",) + ("x",) * 58 + ("e",))
    result = run_engines(fig_acyclic, trace, cfg, Fraction(9, 10))
    assert len(result.runs) == 2 and result.runs[-1][0] is not None
    assert calls == [(fig_acyclic, cfg.token_cap)]


def test_a_product_pickles_without_its_state_space(insurance):
    sp = product_for_trace(insurance, INSURANCE_TRACE)
    alignment, _ = lp_align(sp)
    clone = pickle.loads(pickle.dumps(sp))
    assert clone == sp and "memo" in vars(sp) and "memo" not in vars(clone)
    assert lp_align(clone)[0].path == alignment.path


def assert_moves_are_the_eager_moves(sp) -> tuple:
    """``sp.moves`` equals the eager builder's moves at every index, in
    ``len`` and in iteration, and ``counts`` counts them."""
    eager = eager_moves(sp)
    assert len(sp.moves) == len(eager)
    assert [sp.moves[k] for k in range(len(eager))] == list(eager)
    assert tuple(sp.moves) == eager and sp.moves == eager
    assert sp.counts() == {kind: sum(m.kind is kind for m in eager) for kind in MoveKind}
    return eager


def test_lazy_moves_equal_the_eager_builder_on_the_corpus(corpus):
    for inst in corpus:
        assert_moves_are_the_eager_moves(inst.sp)


@st.composite
def primed_nets(draw) -> PetriNet:
    """``small_nets`` with some ids given one or two primes, so that the
    trace's primed ids collide with them too."""
    net = draw(small_nets())
    new = {x: x + "'" * draw(st.integers(0, 2)) for x in net.places + net.transitions}
    return PetriNet.build(
        [new[p] for p in net.places],
        [new[t] for t in net.transitions],
        [(new[a], new[b], w) for a, b, w in net.arcs],
        {new[t]: lbl for t, lbl in zip(net.transitions, net.labels)},
        {new[p]: v for p, v in zip(net.places, net.initial_marking)},
        {new[p]: v for p, v in zip(net.places, net.final_marking)},
    )


def test_lazy_moves_equal_the_eager_builder_on_small_nets():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(small_nets(), primed_nets()), st.lists(st.sampled_from("abcd"), max_size=12))
    def check(net, acts):
        sp = product_for_trace(net, Trace("h", tuple(acts)))
        eager = assert_moves_are_the_eager_moves(sp)
        with pytest.raises(IndexError):
            sp.moves[len(eager)]
        seen["double prime"] += any("''" in (m.trace_transition or "") for m in eager)
        seen["sync"] += any(m.kind is MoveKind.SYNC for m in eager)
        seen["two-digit ids"] += len(acts) >= 10

    check()
    assert all(seen[k] for k in ("double prime", "sync", "two-digit ids")), seen


def test_product_debug_pnml_round_trips_structure(toy_product):
    data = product_to_pnml(toy_product)
    assert b"cost" in data and b'kind="sync"' in data
    net = parse_pnml(data)
    assert len(net.transitions) == len(toy_product.moves)


def modules_naming(names: set[str]) -> set[str]:
    """The package modules that name any of ``names``: as a variable,
    attribute, import, definition, parameter or keyword argument."""
    readers = set()
    for path in Path(flowalign.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            fields = ("attr", "id", "name", "arg")
            if any(getattr(node, field, None) in names for field in fields):
                readers.add(path.name)
    return readers


def test_only_sync_product_reads_the_move_layout():
    """The canonical move order is written once, in ``SynchronousProduct.out``:
    no other module reads the synchronous move table or the move offsets."""
    assert modules_naming({"sync_moves_at", "_move_offsets", "offsets"}) == {"sync_product.py"}


def test_engines_read_the_token_cap_only_through_the_product():
    """The cap is ``SynchronousProduct.token_cap``, which the product's
    state space reads: no engine names the cap or the model's successor memo."""
    engines = {"astar.py", "flow.py", "reachability.py"}
    assert not engines & modules_naming({"token_cap", "successor_memo"})
