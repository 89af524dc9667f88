"""From synchronous product to reachability graph to unit-flow LP.

Walks through the machinery that demo 01 hides: the product's move
inventory, the bounded breadth-first graph, the node-arc incidence
matrix whose columns are one +1 and one -1 (hence totally unimodular),
and the one-unit flow problem whose basic optimum is integral and spells
out the alignment.
"""

from flowalign import (
    MoveKind,
    PetriNet,
    Trace,
    assemble_flow_problem,
    build_reachability_graph,
    check_tu_column_structure,
    extract_alignment,
    node_arc_incidence,
    product_for_trace,
    solve_min_cost_unit_flow,
    verify_integrality,
)

net = PetriNet.build(
    places=["p1", "p2", "p3", "p4", "p5", "p6"],
    transitions=["t1", "t2", "t3", "t4", "t5"],
    arcs=[
        ("p1", "t1"), ("t1", "p2"), ("t1", "p3"),
        ("p2", "t2"), ("p2", "t4"), ("p3", "t3"), ("p3", "t4"),
        ("t2", "p4"), ("t3", "p5"), ("t4", "p4"), ("t4", "p5"),
        ("p4", "t5"), ("p5", "t5"), ("t5", "p6"),
    ],
    labels={"t1": "a", "t2": "b", "t3": "c", "t4": "d", "t5": "e"},
    initial={"p1": 1},
    final={"p6": 1},
)

product = product_for_trace(net, Trace("demo", ("a", "b", "e")))
counts = product.counts()
print("product moves:")
for kind in MoveKind:
    print(f"  {kind.value:10s} {counts[kind]}")

graph = build_reachability_graph(product)
print(f"\nreachability graph: {len(graph.nodes)} markings, {len(graph.edges)} edges")
print(f"self-loops pruned: {graph.stats.edges_pruned_self_loops}, truncated: {graph.stats.truncated}")

incidence = node_arc_incidence(graph)
print(f"\nincidence matrix: {incidence.rows} x {incidence.cols}")
print("every column one +1 and one -1 (TU):", check_tu_column_structure(incidence))

problem = assemble_flow_problem(graph)
solution = solve_min_cost_unit_flow(problem)
print(f"\nflow objective: {solution.objective} ({solution.status.value})")
print("integral at tolerance 0:", verify_integrality(solution))
print("edges carrying flow:", list(solution.path))

alignment = extract_alignment(graph, product, solution)
print("\nalignment:", [(m.kind.value, m.label_pair) for m in alignment.moves])
