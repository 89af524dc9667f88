"""Choosing an engine per trace: fitness, the selection rule, hybrid runs.

The rule sends a trace to the flow-LP engine only when it is long
(length strictly over 20) and enough deviations are expected
((1 - fitness) * length strictly over 1.5); everything else goes to the
search baseline, which shines on short, well-fitting traces.
"""

import random

from flowalign import (
    EventLog,
    Trace,
    hybrid_align,
    select_method,
    token_replay_fitness,
)
from flowalign.bench import RunConfig
from flowalign.generator import (
    alphabet_of,
    apply_random_edits,
    block_to_net,
    parse_block_spec,
    playout,
)

block = parse_block_spec("seq(a, b, c, d, loop(seq(e, f), g), h, i, j, k)")
net = block_to_net(block)
rng = random.Random(3)
alphabet = alphabet_of(block)

traces = []
for i in range(40):
    clean = playout(block, rng, loop_continue=0.7, max_loop_rounds=12)
    edits = rng.randrange(0, 5)
    traces.append(Trace(f"case-{i}", apply_random_edits(clean, edits, alphabet, rng)))
log = EventLog(tuple(traces))

fitness = token_replay_fitness(net, log)
print(f"token-replay fitness of the log: {float(fitness):.4f} (exactly {fitness})\n")

print("selection corners:")
for length, f in ((10, 0.5), (100, 0.99), (30, 0.9), (60, 0.95)):
    expected = (1 - f) * length
    print(f"  L={length:4d} F={f:5.2f} expected deviations={expected:5.2f}"
          f" -> {select_method(length, f).value}")

print("\nhybrid runs (method picked per trace):")
cfg = RunConfig(method="hybrid")
for trace in traces[:8]:
    result = hybrid_align(net, trace, fitness, cfg)
    cost = result.alignment.total_cost if result.alignment else "-"
    print(
        f"  {trace.case_id}: L={len(trace.activities):3d} "
        f"-> {result.method_chosen.value:5s} cost {cost}"
        + ("  (fell back to search)" if result.fell_back_to_astar else "")
    )
