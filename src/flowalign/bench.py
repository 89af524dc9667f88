"""Benchmark harness: per-instance records, CSV output, bucket reports.

One record per (trace, model) instance, filled from the engines'
:class:`~flowalign.flow.RunStats`.  All columns except ``lp_win`` and the
four trailing ``*_us`` timing columns are deterministic given inputs and
config, so CSV output diffs cleanly against goldens.  ``lp_win`` compares
one wall-clock sample per engine.  Parallel runs give each worker process
the net once and map the traces to the workers in chunks; the results come
back in input order, so the file is the same as a serial run's (timing
columns and ``lp_win`` aside).
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .astar import Heuristic, SearchConfig, astar_align
from .errors import InvalidInputError, InvalidLimitsError
from .flow import Alignment, Method, Outcome, RunStats, lp_align
from .model_io import EventLog, parse_pnml, parse_xes, read_csv_log
from .petri import PetriNet, Trace, successor_memo
from .reachability import ExplorationLimits
from .selector import RunResult, SelectionThresholds, hybrid_align, token_replay_fitness
from .sync_product import CostConfig, product_for_trace


@dataclass(frozen=True)
class RunConfig:
    method: str = "both"  # astar | lp | hybrid | both
    cost: CostConfig = CostConfig()
    max_nodes: int = 2_000_000
    max_edges: int = 8_000_000
    token_cap: int = 8
    heuristic: Heuristic = Heuristic.MARKING_EQUATION
    timeout_s: float = 30.0  # per-instance search budget
    thresholds: SelectionThresholds = SelectionThresholds()
    parallel: int = 1

    def __post_init__(self) -> None:
        if self.method not in ("astar", "lp", "hybrid", "both"):
            raise InvalidInputError(f"unknown method {self.method!r}")
        if self.timeout_s <= 0 or self.parallel < 1:
            raise InvalidInputError("timeout must be > 0 and parallelism >= 1")
        # Every method rejects the same limits and cap, even with no trace to align.
        self.limits
        if self.token_cap < 1:
            raise InvalidLimitsError(f"token_cap must be >= 1, got {self.token_cap}")

    @property
    def limits(self) -> ExplorationLimits:
        return ExplorationLimits(max_nodes=self.max_nodes, max_edges=self.max_edges)

    def search_config(self) -> SearchConfig:
        return SearchConfig(heuristic=self.heuristic, timeout=self.timeout_s)


@dataclass
class BenchmarkRecord:
    case_id: str
    model_id: str
    trace_length: int
    method_chosen: str = ""
    astar_outcome: str = ""
    lp_outcome: str = ""
    astar_cost: Fraction | None = None
    lp_cost: Fraction | None = None
    costs_agree: bool | None = None
    lp_win: bool | None = None
    rg_nodes: int | None = None
    rg_edges: int | None = None
    astar_expansions: int | None = None
    astar_time_us: int | None = None
    lp_total_time_us: int | None = None
    rg_build_time_us: int | None = None
    lp_solve_time_us: int | None = None


CSV_COLUMNS = (
    "case_id",
    "model_id",
    "trace_length",
    "method_chosen",
    "astar_outcome",
    "lp_outcome",
    "astar_cost",
    "lp_cost",
    "costs_agree",
    "lp_win",
    "rg_nodes",
    "rg_edges",
    "astar_expansions",
    # timing columns are last and excluded from byte-stability guarantees
    "astar_time_us",
    "lp_total_time_us",
    "rg_build_time_us",
    "lp_solve_time_us",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(records: list[BenchmarkRecord], out) -> None:
    """Write records in input order with the frozen column set."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([_cell(getattr(r, col)) for col in CSV_COLUMNS])


def _record_run(
    rec: BenchmarkRecord, product_us: int, alignment: Alignment | None, stats: RunStats
) -> None:
    """Fill the cells of the engine that produced ``stats``."""
    cost = alignment.total_cost if alignment is not None else None
    total_us = product_us + stats.rg_build_us + stats.solve_us
    if stats.method is Method.ASTAR:
        rec.astar_outcome = stats.outcome.value
        rec.astar_cost = cost
        rec.astar_expansions = stats.expansions
        rec.astar_time_us = total_us
    else:
        rec.lp_outcome = stats.outcome.value
        rec.lp_cost = cost
        rec.rg_nodes = stats.rg_nodes
        rec.rg_edges = stats.rg_edges
        rec.rg_build_time_us = stats.rg_build_us
        rec.lp_solve_time_us = stats.solve_us
        rec.lp_total_time_us = total_us


def run_engines(net: PetriNet, trace: Trace, cfg: RunConfig, fitness: Fraction) -> RunResult:
    """Every engine run ``cfg.method`` makes on ``trace``, in order: ``hybrid``
    is :func:`~flowalign.selector.hybrid_align` at log fitness ``fitness``,
    and ``both`` runs A* and then the flow engine on one product."""
    if cfg.method == "hybrid":
        return hybrid_align(net, trace, fitness, cfg)
    t0 = time.perf_counter_ns()
    sp = product_for_trace(net, trace, cfg.cost, cfg.token_cap)
    product_us = (time.perf_counter_ns() - t0) // 1000
    runs = []
    if cfg.method in ("astar", "both"):
        runs.append(astar_align(sp, cfg.search_config(), cfg.limits))
    if cfg.method in ("lp", "both"):
        runs.append(lp_align(sp, cfg.limits))
    return RunResult(runs, product_us)


def run_instance(
    net: PetriNet,
    trace: Trace,
    cfg: RunConfig,
    model_id: str = "model",
    fitness: Fraction = Fraction(1),
) -> BenchmarkRecord:
    """Align one trace against one model with the configured method(s)."""
    rec = BenchmarkRecord(case_id=trace.case_id, model_id=model_id, trace_length=len(trace.activities))
    result = run_engines(net, trace, cfg, fitness)
    if result.method_chosen is not None:
        rec.method_chosen = result.method_chosen.value
    for alignment, stats in result.runs:
        _record_run(rec, result.product_us, alignment, stats)
    if rec.astar_outcome == rec.lp_outcome == Outcome.OPTIMAL.value:
        rec.costs_agree = rec.astar_cost == rec.lp_cost
        rec.lp_win = rec.lp_total_time_us < rec.astar_time_us
    return rec


def _instance_task(
    net: PetriNet, trace: Trace, cfg: RunConfig, model_id: str, fitness: Fraction
) -> BenchmarkRecord:
    try:
        return run_instance(net, trace, cfg, model_id, fitness)
    except Exception as exc:  # single-instance failures never abort a run
        return BenchmarkRecord(
            case_id=trace.case_id,
            model_id=model_id,
            trace_length=len(trace.activities),
            astar_outcome=f"error: {exc}",
            lp_outcome=f"error: {exc}",
        )


# A pool worker's (net, cfg, model_id, fitness), set once by its initializer,
# so that the net's memo and relaxation persist across the worker's traces.
_worker_run: tuple = ()


def _init_worker(net: PetriNet, cfg: RunConfig, model_id: str, fitness: Fraction) -> None:
    global _worker_run
    _worker_run = (net, cfg, model_id, fitness)


def _worker_task(trace: Trace) -> BenchmarkRecord:
    net, cfg, model_id, fitness = _worker_run
    return _instance_task(net, trace, cfg, model_id, fitness)


def run_conformance(
    net: PetriNet, event_log: EventLog, cfg: RunConfig, model_id: str = "model"
) -> list[BenchmarkRecord]:
    """One record per trace, in log order.  A token cap that the memo refuses
    raises :class:`InvalidLimitsError` before any trace runs."""
    successor_memo(net, cfg.token_cap)
    fitness = token_replay_fitness(net, event_log) if cfg.method == "hybrid" else Fraction(1)
    traces = event_log.traces
    if cfg.parallel == 1 or len(traces) <= 1:
        return [_instance_task(net, trace, cfg, model_id, fitness) for trace in traces]
    # Imported here: a serial run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(traces) // (4 * cfg.parallel))
    with ProcessPoolExecutor(
        max_workers=cfg.parallel, initializer=_init_worker, initargs=(net, cfg, model_id, fitness)
    ) as pool:
        return list(pool.map(_worker_task, traces, chunksize=chunksize))


UNSOLVED = (Outcome.INFEASIBLE, Outcome.CAPPED, Outcome.OVER_BUDGET)


@dataclass
class Summary:
    instances: int = 0
    both_optimal: int = 0
    agreement: int = 0
    lp_wins: int = 0
    unsolved: Counter = field(default_factory=Counter)  # rows per outcome in UNSOLVED
    fallbacks: int = 0  # hybrid rows whose flow run A* replaced
    mean_astar_us: float | None = None  # None when no row has that engine's time
    mean_lp_us: float | None = None

    def render(self) -> str:
        def rate(count: int) -> str:  # a share of the rows with both costs
            return f"{100.0 * count / self.both_optimal:.1f}%" if self.both_optimal else "n/a"

        mean = lambda us: "n/a" if us is None else f"{us:.0f} us"

        return (
            f"instances: {self.instances}\n"
            f"both optimal: {self.both_optimal}\n"
            f"cost agreement: {rate(self.agreement)}\n"
            f"lp win rate: {rate(self.lp_wins)}\n"
            f"mean astar time: {mean(self.mean_astar_us)}\n"
            f"mean lp time: {mean(self.mean_lp_us)}\n"
            + "".join(f"{o.value}: {self.unsolved[o]}\n" for o in UNSOLVED)
            + f"fallbacks: {self.fallbacks}\n"
        )


def failed_records(records: list[BenchmarkRecord]) -> list[BenchmarkRecord]:
    """Records whose engines disagree on the optimal cost or that raised."""
    return [
        r
        for r in records
        if r.costs_agree is False
        or r.astar_outcome.startswith("error: ")
        or r.lp_outcome.startswith("error: ")
    ]


def summarize(records: list[BenchmarkRecord]) -> Summary:
    """Each row counts under the outcomes of the engines that produced it: a
    fallback row under its A* run's, and once as a fallback."""
    s = Summary(instances=len(records))
    astar_times = [r.astar_time_us for r in records if r.astar_time_us is not None]
    lp_times = []
    for r in records:
        if r.costs_agree is not None:
            s.both_optimal += 1
            s.agreement += 1 if r.costs_agree else 0
            s.lp_wins += 1 if r.lp_win else 0
        fell_back = r.method_chosen == Method.LP.value and bool(r.astar_outcome)
        s.fallbacks += fell_back
        produced = {r.astar_outcome} if fell_back else {r.astar_outcome, r.lp_outcome}
        s.unsolved.update(o for o in UNSOLVED if o.value in produced)
        if r.lp_total_time_us is not None and not fell_back:
            lp_times.append(r.lp_total_time_us)
    s.mean_astar_us = sum(astar_times) / len(astar_times) if astar_times else None
    s.mean_lp_us = sum(lp_times) / len(lp_times) if lp_times else None
    return s


LENGTH_BUCKETS = ((1, 10), (11, 20), (21, 30), (31, 50), (51, 100), (101, None))


def bucket_label(lo: int, hi: int | None) -> str:
    return f"{lo}-{hi}" if hi is not None else f">{lo - 1}"


def bucket_report(records: list[BenchmarkRecord]) -> str:
    """Aggregate by trace-length bucket: win rate, speedup, time split."""
    lines = ["bucket\tinstances\tlp_win_%\tspeedup\trg_build_us\tlp_solve_us\trg_nodes"]
    for lo, hi in LENGTH_BUCKETS:
        rows = [
            r
            for r in records
            if (r.trace_length >= lo or (lo == 1 and r.trace_length == 0))
            and (hi is None or r.trace_length <= hi)
        ]
        if not rows:
            lines.append(f"{bucket_label(lo, hi)}\t0\t\t\t\t\t")
            continue
        both = [r for r in rows if r.costs_agree is not None]
        wins = sum(1 for r in both if r.lp_win)
        win_rate = f"{100.0 * wins / len(both):.1f}" if both else ""
        astar_t = [r.astar_time_us for r in both]
        lp_t = [r.lp_total_time_us for r in both]
        speedup = (
            f"{(sum(astar_t) / len(astar_t)) / (sum(lp_t) / len(lp_t)):.2f}"
            if both and sum(lp_t)
            else ""
        )
        rg_build = [r.rg_build_time_us for r in rows if r.rg_build_time_us is not None]
        lp_solve = [r.lp_solve_time_us for r in rows if r.lp_solve_time_us is not None]
        rg_nodes = [r.rg_nodes for r in rows if r.rg_nodes is not None]
        mean = lambda xs: f"{sum(xs) / len(xs):.0f}" if xs else ""
        lines.append(
            f"{bucket_label(lo, hi)}\t{len(rows)}\t{win_rate}\t{speedup}"
            f"\t{mean(rg_build)}\t{mean(lp_solve)}\t{mean(rg_nodes)}"
        )
    return "\n".join(lines) + "\n"


def scan_corpus(corpus_dir: str | Path) -> list[tuple[Path, Path]]:
    """(model, log) pairs: every ``*.xes``/``*.csv`` beside each ``*.pnml``;
    raises NotADirectoryError unless ``corpus_dir`` is a directory."""
    root = Path(corpus_dir)
    if not root.is_dir():
        raise NotADirectoryError(f"corpus {str(root)!r} is not an existing directory")
    pairs: list[tuple[Path, Path]] = []
    for model_path in sorted(root.rglob("*.pnml")):
        for log_path in sorted(model_path.parent.glob("*.xes")) + sorted(
            model_path.parent.glob("*.csv")
        ):
            pairs.append((model_path, log_path))
    return pairs


def run_corpus(corpus_dir: str | Path, cfg: RunConfig) -> list[BenchmarkRecord]:
    records: list[BenchmarkRecord] = []
    for model_path, log_path in scan_corpus(corpus_dir):
        net = parse_pnml(model_path)
        if log_path.suffix == ".csv":
            event_log = read_csv_log(log_path)
        else:
            event_log = parse_xes(log_path)
        model_id = str(model_path.relative_to(Path(corpus_dir)))
        log_id = log_path.stem
        recs = run_conformance(net, event_log, cfg, model_id=model_id)
        for r in recs:
            r.case_id = f"{log_id}/{r.case_id}"
        records.extend(recs)
    return records
