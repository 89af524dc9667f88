"""The search baseline: best-first alignment with admissible heuristics.

Compares the uninformed search (zero heuristic, i.e. Dijkstra) against
the marking-equation heuristic, which takes the exact optimum of the
continuous state equation at each expanded marking (solved, or read off
the parent's solution when the move taken is in it).  Both find the same
optimal cost; the informed search expands fewer states, and its
advantage shrinks on noisy traces because swapped activities are
invisible to the order-blind relaxation.
"""

import random
from fractions import Fraction

from flowalign import Heuristic, SearchConfig, Trace, astar_align, product_for_trace
from flowalign.astar import MarkingEquation
from flowalign.generator import (
    alphabet_of,
    apply_random_edits,
    block_to_net,
    parse_block_spec,
    playout,
)

block = parse_block_spec("seq(a, b, c, d, loop(seq(e, f), g), h, i, j, k)")
net = block_to_net(block)
rng = random.Random(11)

clean = playout(block, rng)
noisy = apply_random_edits(clean, 6, alphabet_of(block), rng, kinds=("swap",))

for label, acts in (("clean", clean), ("noisy", noisy)):
    product = product_for_trace(net, Trace(label, acts))
    # The relaxation at the start state (key 0), in units of 1/scale.
    relaxation = MarkingEquation(product)
    h0 = Fraction(relaxation(0), relaxation.scale)
    print(f"{label} trace ({len(acts)} events): relaxation bound at start = {h0}")
    for heuristic in (Heuristic.ZERO, Heuristic.MARKING_EQUATION):
        alignment, stats = astar_align(product, SearchConfig(heuristic=heuristic))
        print(
            f"  {heuristic.value:17s} cost {alignment.total_cost}  "
            f"expansions {stats.expansions}  relaxations solved {stats.heuristic_calls}"
            f"  reused {stats.heuristic_reuses}"
        )
    print()
