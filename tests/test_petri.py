import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus_models
from explicit_lp import NotEnabledError, build_trace_model, enabled_transitions, fire, labeling, product_net
from flowalign.errors import InvalidInputError
from flowalign.generator import playout
from flowalign.petri import (
    PetriNet,
    Trace,
    firing_data,
    incidence_matrices,
    successors,
    validate_workflow_net,
)
from flowalign.sync_product import product_for_trace

TABLE_ACYCLIC = np.array(
    [
        [-1, 0, 0, 0, 0],
        [1, -1, 0, -1, 0],
        [1, 0, -1, -1, 0],
        [0, 1, 0, 1, -1],
        [0, 0, 1, 1, -1],
        [0, 0, 0, 0, 1],
    ]
)

TABLE_CYCLIC = np.array(
    [
        [-1, 0, 0, 0, 0],
        [1, -1, 0, 1, 0],
        [1, 0, -1, 1, 0],
        [0, 1, 0, -1, -1],
        [0, 0, 1, -1, -1],
        [0, 0, 0, 0, 1],
    ]
)


class TestEnabledTransitions:
    def test_initial_marking_enables_only_start(self, fig_acyclic):
        assert enabled_transitions(fig_acyclic, (1, 0, 0, 0, 0, 0)) == {"t1"}

    def test_zero_marking_enables_nothing(self, fig_acyclic):
        assert enabled_transitions(fig_acyclic, (0, 0, 0, 0, 0, 0)) == set()

    def test_parallel_marking(self, fig_acyclic):
        assert enabled_transitions(fig_acyclic, (0, 1, 1, 0, 0, 0)) == {"t2", "t3", "t4"}

    def test_dimension_mismatch(self, fig_acyclic):
        with pytest.raises(InvalidInputError):
            enabled_transitions(fig_acyclic, (1, 0, 0))


class TestFire:
    def test_fire_start(self, fig_acyclic):
        assert fire(fig_acyclic, (1, 0, 0, 0, 0, 0), "t1") == (0, 1, 1, 0, 0, 0)

    def test_fire_loop_back(self, fig_cyclic):
        assert fire(fig_cyclic, (0, 0, 0, 1, 1, 0), "t4") == (0, 1, 1, 0, 0, 0)

    def test_token_sum_changes_by_column_sum(self, fig_acyclic):
        tri = incidence_matrices(fig_acyclic)
        m = (0, 1, 1, 0, 0, 0)
        for t in ("t2", "t3", "t4"):
            m2 = fire(fig_acyclic, m, t)
            j = fig_acyclic.transition_index[t]
            assert sum(m2) - sum(m) == np.array(tri.incidence)[:, j].sum()

    def test_disabled_fire_names_deficient_places(self, fig_acyclic):
        with pytest.raises(NotEnabledError) as err:
            fire(fig_acyclic, (0, 1, 0, 0, 0, 0), "t4")
        assert err.value.transition == "t4"
        assert err.value.deficient_places == ["p3"]


class TestIncidenceMatrices:
    def test_acyclic_matches_published_table(self, fig_acyclic):
        tri = incidence_matrices(fig_acyclic)
        assert np.array_equal(tri.incidence, TABLE_ACYCLIC)
        assert np.array_equal(tri.incidence, np.array(tri.w_plus) - np.array(tri.w_minus))

    def test_cyclic_matches_published_table(self, fig_cyclic):
        assert np.array_equal(incidence_matrices(fig_cyclic).incidence, TABLE_CYCLIC)

    def test_net_without_arcs_is_all_zero(self):
        net = PetriNet.build(["p"], ["t"], [], {"t": "a"}, {"p": 1}, {"p": 1})
        incidence = np.array(incidence_matrices(net).incidence)
        assert incidence.shape == (1, 1)
        assert not incidence.any()

    def test_deterministic_under_reserialization(self, fig_acyclic):
        clone = PetriNet.build(
            places=reversed(fig_acyclic.places),
            transitions=reversed(fig_acyclic.transitions),
            arcs=list(reversed(fig_acyclic.arcs)),
            labels=labeling(fig_acyclic),
            initial={"p1": 1},
            final={"p6": 1},
        )
        assert clone.places == fig_acyclic.places
        assert np.array_equal(
            incidence_matrices(clone).incidence, incidence_matrices(fig_acyclic).incidence
        )


class TestTraceModel:
    def test_three_event_trace(self):
        tm = build_trace_model(Trace("c", ("a", "b", "e")))
        assert tm.places == ("p0", "p1", "p2", "p3")
        assert tm.transitions == ("t1", "t2", "t3")
        assert tm.labels == ("a", "b", "e")
        assert tm.initial_marking == (1, 0, 0, 0)
        assert tm.final_marking == (0, 0, 0, 1)

    def test_empty_trace(self):
        tm = build_trace_model(Trace("c", ()))
        assert tm.places == ("p0",)
        assert tm.transitions == ()
        assert tm.initial_marking == tm.final_marking == (1,)

    def test_repeated_activities(self):
        tm = build_trace_model(Trace("c", ("a", "c", "b", "d", "b", "e")))
        assert len(tm.places) == 7
        assert len(tm.transitions) == 6
        assert sorted(tm.labels) == ["a", "b", "b", "c", "d", "e"]

    def test_long_trace_keeps_positional_order(self):
        acts = tuple(f"x{i}" for i in range(12))
        tm = build_trace_model(Trace("c", acts))
        assert tm.labels == acts  # canonical order == positional order

    def test_trace_model_is_a_path(self):
        tm = build_trace_model(Trace("c", ("a", "b", "e")))
        m = tm.initial_marking
        for _ in range(3):
            enabled = enabled_transitions(tm, m)
            assert len(enabled) == 1
            m = fire(tm, m, enabled.pop())
        assert m == tm.final_marking
        assert enabled_transitions(tm, m) == set()


class TestValidateWorkflowNet:
    def test_clean_net_has_no_diagnostics(self, fig_acyclic):
        assert validate_workflow_net(fig_acyclic) == []

    def test_isolated_place(self, fig_acyclic):
        net = PetriNet.build(
            places=list(fig_acyclic.places) + ["p_orphan"],
            transitions=fig_acyclic.transitions,
            arcs=fig_acyclic.arcs,
            labels=labeling(fig_acyclic),
            initial={"p1": 1},
            final={"p6": 1},
        )
        diags = validate_workflow_net(net)
        assert any("unconnected place p_orphan" in d for d in diags)

    def test_duplicate_arc(self, fig_acyclic):
        net = PetriNet.build(
            places=fig_acyclic.places,
            transitions=fig_acyclic.transitions,
            arcs=list(fig_acyclic.arcs) + [("p1", "t1")],
            labels=labeling(fig_acyclic),
            initial={"p1": 1},
            final={"p6": 1},
        )
        assert sum("duplicate arc (p1, t1)" in d for d in validate_workflow_net(net)) == 1

    def test_zero_weight_arc(self):
        net = PetriNet.build(
            ["p", "q"], ["t"], [("p", "t", 0), ("t", "q", 1)], {"t": "a"}, {"p": 1}, {"q": 1}
        )
        assert any("zero-weight arc" in d for d in validate_workflow_net(net))

    def test_multiple_sources_and_sinks(self):
        net = PetriNet.build(
            ["p1", "p2", "q1", "q2"],
            ["t"],
            [("p1", "t"), ("p2", "t"), ("t", "q1"), ("t", "q2")],
            {"t": "a"},
            {"p1": 1, "p2": 1},
            {"q1": 1, "q2": 1},
        )
        diags = validate_workflow_net(net)
        assert any("multiple source places" in d for d in diags)
        assert any("multiple sink places" in d for d in diags)


class TestConstruction:
    def test_place_transition_id_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            PetriNet.build(["x"], ["x"], [], {"x": "a"}, {"x": 1}, {"x": 1})

    def test_place_place_arc_rejected(self):
        with pytest.raises(InvalidInputError):
            PetriNet.build(["p", "q"], ["t"], [("p", "q")], {"t": "a"}, {"p": 1}, {"q": 1})

    def test_negative_marking_rejected(self):
        with pytest.raises(InvalidInputError):
            PetriNet(("p",), ("t",), (), ("a",), (-1,), (0,))


@st.composite
def random_nets_with_markings(draw):
    n_places = draw(st.integers(2, 5))
    n_trans = draw(st.integers(1, 5))
    places = [f"p{i}" for i in range(n_places)]
    transitions = [f"t{i}" for i in range(n_trans)]
    arcs = []
    for t in transitions:
        for p in places:
            if draw(st.booleans()):
                arcs.append((p, t, draw(st.integers(1, 2))))
            if draw(st.booleans()):
                arcs.append((t, p, draw(st.integers(1, 2))))
    marking = tuple(draw(st.integers(0, 3)) for _ in places)
    net = PetriNet.build(
        places,
        transitions,
        arcs,
        {t: draw(st.sampled_from(["a", "b", None])) for t in transitions},
        dict(zip(places, marking)),
        {places[-1]: 1},
    )
    return net, marking


@given(random_nets_with_markings())
@settings(max_examples=60, deadline=None)
def test_firing_preserves_nonnegativity_and_matches_incidence(case):
    net, m = case
    tri = incidence_matrices(net)
    for t in enabled_transitions(net, m):
        m2 = fire(net, m, t)
        assert all(v >= 0 for v in m2)
        j = net.transition_index[t]
        assert np.array_equal(np.array(m2) - np.array(m), np.array(tri.incidence)[:, j])


@given(st.lists(st.sampled_from("abcde"), max_size=12))
@settings(max_examples=40, deadline=None)
def test_trace_model_is_single_path_until_final(activities):
    tm = build_trace_model(Trace("c", tuple(activities)))
    m = tm.initial_marking
    seen = [m]
    while m != tm.final_marking:
        enabled = enabled_transitions(tm, m)
        assert len(enabled) == 1
        m = fire(tm, m, enabled.pop())
        seen.append(m)
    assert enabled_transitions(tm, m) == set()
    assert len(seen) == len(activities) + 1


@functools.cache
def successor_nets() -> tuple[PetriNet, ...]:
    """One product per corpus model, and a net whose ``free`` transition
    has an empty preset and so is enabled at every marking."""
    products = tuple(
        product_net(product_for_trace(net, Trace("t", playout(block, random.Random(k)))))
        for k, (_, net, block) in enumerate(build_corpus_models())
    )
    free = PetriNet.build(
        ["p", "q"],
        ["free", "move"],
        [("free", "q"), ("p", "move"), ("move", "q", 2)],
        {"free": "a", "move": "b"},
        {"p": 1},
        {"q": 1},
    )
    return products + (free,)


@st.composite
def nets_markings_caps(draw):
    net = draw(st.sampled_from(successor_nets()))
    cap = draw(st.integers(1, 3))
    marking = tuple(draw(st.lists(st.integers(0, cap), min_size=len(net.places), max_size=len(net.places))))
    return net, marking, cap


@given(nets_markings_caps())
@settings(max_examples=150, deadline=None)
def test_successors_follow_enabled_transitions_and_fire(case):
    net, m, cap = case
    enabled = enabled_transitions(net, m)
    expected = []
    for j, t in enumerate(net.transitions):
        if t in enabled:
            succ = fire(net, m, t)
            expected.append((j, succ if max(succ) <= cap else None))
    assert list(successors(net, m, cap)) == expected


def test_firing_data_sums_duplicate_arcs_and_drops_zero_weights():
    net = PetriNet.build(
        ["p", "q", "r"],
        ["t"],
        [("r", "t"), ("p", "t"), ("p", "t", 2), ("t", "q", 0), ("t", "r")],
        {"t": "a"},
        {"p": 3},
        {"r": 1},
    )
    assert firing_data(net) == ((((0, 3), (2, 1)),), (((2, 1),),))
    tri = incidence_matrices(net)
    assert np.array(tri.w_minus)[:, 0].tolist() == [3, 0, 1]
    assert np.array(tri.w_plus)[:, 0].tolist() == [0, 0, 1]
    assert np.array(tri.incidence)[:, 0].tolist() == [-3, 0, 0]
