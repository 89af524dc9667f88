"""From synchronous product to reachability graph to unit-flow LP.

Walks through the machinery that demo 01 hides: the product's move
inventory, the size of its reachability graph, and the one-unit flow LP
on that graph's node-arc incidence matrix.  Every column of the matrix
is one +1 and one -1, so it is totally unimodular and the LP's basic
optimum is a single path: the alignment.  ``lp_align`` solves that LP by
label setting one trace position at a time, on the model's own graph,
so it counts the product's graph but never builds it.
"""

from flowalign import MoveKind, PetriNet, Trace, lp_align, product_for_trace

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

alignment, stats = lp_align(product)
print(f"\nreachability graph: {stats.rg_nodes} markings, {stats.rg_edges} edges")
print(f"incidence matrix: {stats.rg_nodes} x {stats.rg_edges}, one +1 and one -1 per column (TU)")
print(f"counted in {stats.rg_build_us} us, solved in {stats.solve_us} us: {stats.outcome.value}")

print(f"\nflow objective: {alignment.total_cost}, one unit on {len(alignment.moves)} edges")
print("alignment:", [(m.kind.value, m.label_pair) for m in alignment.moves])
