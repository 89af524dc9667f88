"""Token-replay fitness, the length/fitness selection rule, and the hybrid runner.

The selection rule picks the flow-LP method only when a trace is long
enough to amortize reachability-graph construction (length strictly
above ``length_threshold``) and enough deviations are expected for
best-first search to struggle (``(1 - fitness) * length`` strictly above
``deviation_threshold``).  Both comparisons are evaluated in exact
rational arithmetic.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .astar import astar_align
from .errors import InvalidInputError
from .flow import Alignment, Method, Outcome, RunStats, lp_align
from .model_io import EventLog
from .petri import PetriNet, Trace, firing_data
from .sync_product import product_for_trace

if TYPE_CHECKING:
    from .bench import RunConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionThresholds:
    length_threshold: int = 20
    deviation_threshold: Fraction = Fraction(3, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "deviation_threshold", Fraction(self.deviation_threshold))
        if self.length_threshold < 0 or self.deviation_threshold < 0:
            raise InvalidInputError("thresholds must be nonnegative")


@dataclass
class RunResult:
    """Every engine run made on one trace, in order, as ``(alignment,
    RunStats)`` pairs, after ``product_us`` of building the product.

    Under ``hybrid`` it also holds the rule's choice and its exact inputs;
    a flow run that went over budget is then followed by the A* run that
    replaced it.  The last run is the one whose alignment is shown.
    """

    runs: list[tuple[Alignment | None, RunStats]]
    product_us: int
    method_chosen: Method | None = None
    selection_inputs: tuple[int, Fraction, Fraction] | None = None  # (L, F, expected deviations)

    @property
    def alignment(self) -> Alignment | None:
        return self.runs[-1][0]

    @property
    def stats(self) -> RunStats:
        return self.runs[-1][1]

    @property
    def fell_back_to_astar(self) -> bool:
        return self.method_chosen is Method.LP and len(self.runs) == 2


def token_replay_fitness(net: PetriNet, event_log: EventLog) -> Fraction:
    """Token-based replay fitness of ``event_log`` against ``net``.

    Each trace is replayed from the initial marking: the first enabled
    transition carrying the event's label fires (ties broken by the
    canonical transition order); when no carrier is enabled, the first
    carrier in canonical order fires after inserting the missing tokens.
    Events whose label no carrier bears count one missing and one
    remaining token.  At the end the final marking is consumed (deficits
    are missing) and leftovers are remaining.  Fitness is
    ``(1 - missing/consumed)/2 + (1 - remaining/produced)/2`` over the
    whole log, clamped to [0, 1], as an exact ``Fraction``.  An empty log
    is vacuously fit (1).

    Silent transitions are never fired to enable a label (no lookahead);
    absolute values are therefore tool-specific, but internally
    consistent and scale-free.
    """
    if not event_log.traces:
        log.warning("token replay on an empty log: fitness defined as 1")
        return Fraction(1)
    pre, post = firing_data(net)
    carriers: dict[str, list[int]] = {}
    for j, lbl in enumerate(net.labels):
        if lbl is not None:
            carriers.setdefault(lbl, []).append(j)

    missing = consumed = remaining = produced = 0
    for trace in event_log.traces:
        marking = list(net.initial_marking)
        produced += sum(net.initial_marking)
        for act in trace.activities:
            cand = carriers.get(act)
            if not cand:
                missing += 1
                remaining += 1
                continue
            fire_j = None
            for j in cand:
                if all(marking[i] >= w for i, w in pre[j]):
                    fire_j = j
                    break
            if fire_j is None:
                fire_j = cand[0]
                for i, w in pre[fire_j]:
                    deficit = w - marking[i]
                    if deficit > 0:
                        missing += deficit
                        marking[i] += deficit
            for i, w in pre[fire_j]:
                marking[i] -= w
                consumed += w
            for i, w in post[fire_j]:
                marking[i] += w
                produced += w
        for i, want in enumerate(net.final_marking):
            deficit = want - marking[i]
            if deficit > 0:
                missing += deficit
                marking[i] += deficit
            consumed += want
            marking[i] -= want
        remaining += sum(marking)

    half = Fraction(1, 2)
    f_missing = half * (1 - Fraction(missing, consumed)) if consumed else half
    f_remaining = half * (1 - Fraction(remaining, produced)) if produced else half
    fitness = f_missing + f_remaining
    return min(max(fitness, Fraction(0)), Fraction(1))


def select_method(
    length: int, fitness: float | Fraction, thresholds: SelectionThresholds = SelectionThresholds()
) -> Method:
    """LP iff both gates hold strictly: length and expected deviations."""
    if length < 0:
        raise InvalidInputError("trace length must be nonnegative")
    f = Fraction(fitness)
    if not 0 <= f <= 1:
        raise InvalidInputError("fitness must lie in [0, 1]")
    expected = (1 - f) * length
    if length > thresholds.length_threshold and expected > thresholds.deviation_threshold:
        return Method.LP
    return Method.ASTAR


def hybrid_align(net: PetriNet, trace: Trace, fitness: Fraction, cfg: RunConfig) -> RunResult:
    """Run exactly the method the rule selects under ``cfg``'s thresholds;
    fall back to A* only when the flow engine went over a budget.

    Both engines search the product under ``cfg``'s cost, token cap and
    limits, so a capped or infeasible flow verdict is final: A* would
    search the same capped space.
    """
    length = len(trace.activities)
    fitness = Fraction(fitness)
    method = select_method(length, fitness, cfg.thresholds)

    t0 = time.perf_counter_ns()
    sp = product_for_trace(net, trace, cfg.cost, cfg.token_cap)
    product_us = (time.perf_counter_ns() - t0) // 1000

    runs = []
    if method is Method.LP:
        runs.append(lp_align(sp, cfg.limits))
    if method is Method.ASTAR or runs[0][1].outcome is Outcome.OVER_BUDGET:
        runs.append(astar_align(sp, cfg.search_config(), cfg.limits))
    return RunResult(runs, product_us, method, (length, fitness, (1 - fitness) * length))
