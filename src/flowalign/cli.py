"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 infeasible, 4 timeout or
truncated exploration, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .astar import Heuristic, SearchOutcome, astar_align
from .bench import (
    RunConfig,
    bucket_report,
    failed_records,
    run_conformance,
    run_corpus,
    summarize,
    write_csv,
)
from .errors import (
    FlowAlignError,
    InfeasibleError,
    InternalInvariantError,
    InvalidInputError,
    ModelParseError,
    UnreachableFinalError,
)
from .flow import Method, RunStats, SolveStatus, alignment_to_dict, lp_align, move_table
from .generator import alphabet_of, generate_corpus, parse_block_spec
from .model_io import EventLog, NoiseSpec, parse_pnml, parse_xes, read_csv_log
from .petri import Trace
from .reachability import build_reachability_graph, check_tu_column_structure, node_arc_incidence
from .selector import SelectionThresholds, hybrid_align, token_replay_fitness
from .sync_product import CostConfig, MoveKind, product_for_trace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT = 4
EXIT_INVARIANT = 5


def _fraction(text: str) -> Fraction:
    """An exact rational (``3/2``) or decimal (``1e-6``); anything that is
    not a finite number is a usage error."""
    try:
        try:
            return Fraction(text)
        except ValueError:
            return Fraction(Decimal(text))
    except (ArithmeticError, ValueError):
        raise argparse.ArgumentTypeError(f"not a finite rational number: {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=["astar", "lp", "hybrid", "both"], default=None)
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 10**6),
                   help="cost of a silent model move (exact rational or decimal)")
    p.add_argument("--deviation-cost", type=_fraction, default=Fraction(1))
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=2_000_000)
    p.add_argument("--max-edges", type=int, default=8_000_000)
    p.add_argument("--token-cap", type=int, default=8)
    p.add_argument("--timeout-ms", type=int, default=30_000)
    p.add_argument("--heuristic", choices=["zero", "marking-eq"], default="marking-eq")
    p.add_argument("--length-threshold", type=int, default=20)
    p.add_argument("--dev-threshold", type=_fraction, default=Fraction(3, 2))
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)


def _run_config(args, default_method: str) -> RunConfig:
    return RunConfig(
        method=args.method or default_method,
        cost=CostConfig(tau_cost=args.epsilon, deviation_cost=args.deviation_cost),
        max_depth=args.max_depth,
        max_nodes=args.max_nodes,
        max_edges=args.max_edges,
        token_cap=args.token_cap,
        heuristic=Heuristic.ZERO if args.heuristic == "zero" else Heuristic.MARKING_EQUATION,
        timeout_s=args.timeout_ms / 1000.0,
        thresholds=SelectionThresholds(args.length_threshold, args.dev_threshold),
        parallel=args.parallel,
    )


def _parse_trace(text: str) -> Trace:
    acts = tuple(a.strip() for a in text.split(",") if a.strip()) if text else ()
    return Trace("cli-trace", acts)


def _load_log(path: Path) -> EventLog:
    if path.suffix == ".csv":
        return read_csv_log(path)
    return parse_xes(path)


def _engine_runs(cfg: RunConfig, net, trace: Trace):
    """``(alignment, RunStats)`` of each engine ``cfg.method`` runs, in order."""
    if cfg.method == "hybrid":
        fitness = token_replay_fitness(net, EventLog((trace,)))
        result = hybrid_align(net, trace, fitness, cfg.thresholds, limits=cfg.limits_for,
                              search=cfg.search_config(), cost=cfg.cost)
        print(f"hybrid chose {result.method_chosen.value} "
              f"(L={result.selection_inputs[0]}, F={result.selection_inputs[1]:.3f}, "
              f"expected deviations={result.selection_inputs[2]:.3f})"
              + ("  [fell back to astar]" if result.fell_back_to_astar else ""))
        if result.discarded is not None:
            print(_engine_line(None, result.discarded))
        yield result.alignment, result.stats
        return
    sp = product_for_trace(net, trace, cfg.cost)
    if cfg.method in ("astar", "both"):
        yield astar_align(sp, cfg.search_config())
    if cfg.method in ("lp", "both"):
        yield lp_align(sp, cfg.limits_for(sp))


def _engine_line(alignment, stats: RunStats) -> str:
    if stats.method is Method.ASTAR:
        work = (f"expansions {stats.expansions}  solves {stats.heuristic_calls}  "
                f"pivots {stats.heuristic_pivots}  time {stats.solve_us} us")
    else:
        work = (f"rg {stats.rg_nodes} nodes / {stats.rg_edges} edges  "
                f"build {stats.rg_build_us} us  solve {stats.solve_us} us")
    result = f"cost {alignment.total_cost}" if alignment is not None else f"outcome {stats.outcome.value}"
    return f"{stats.method.value}: {result}  {work}"


def cmd_align(args) -> int:
    cfg = _run_config(args, "hybrid")
    net = parse_pnml(args.model)
    trace = _parse_trace(args.trace)

    alignments = {}
    for alignment, stats in _engine_runs(cfg, net, trace):
        if alignment is None:
            print(f"{stats.method.value} outcome: {stats.outcome.value}")
            timed_out = stats.outcome in (SearchOutcome.TIMEOUT, SolveStatus.TRUNCATED_GRAPH)
            return EXIT_TIMEOUT if timed_out else EXIT_INFEASIBLE
        print(_engine_line(alignment, stats))
        alignments[stats.method] = alignment

    shown = alignments.get(Method.LP) or alignments[Method.ASTAR]
    print()
    print(move_table(shown), end="")
    if cfg.method == "both":
        astar_cost = alignments[Method.ASTAR].total_cost
        lp_cost = alignments[Method.LP].total_cost
        print(f"\nverdict: {'AGREE' if astar_cost == lp_cost else 'DISAGREE'}")
        if astar_cost != lp_cost:
            raise InternalInvariantError(
                f"optimal costs disagree: astar {astar_cost} vs lp {lp_cost}"
            )
    if args.out:
        args.out.write_text(json.dumps(alignment_to_dict(shown), indent=2) + "\n")
    return EXIT_OK


def cmd_conformance(args) -> int:
    cfg = _run_config(args, "both")
    net = parse_pnml(args.model)
    event_log = _load_log(args.log)
    records = run_conformance(net, event_log, cfg, model_id=str(args.model))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_csv(records, fh)
    else:
        write_csv(records, sys.stdout)
    print(summarize(records).render(), end="")
    return _batch_exit(records)


def _batch_exit(records) -> int:
    """EXIT_INVARIANT when any record shows a cost disagreement or an error."""
    failed = failed_records(records)
    for r in failed:
        errors = [o for o in (r.astar_outcome, r.lp_outcome) if o.startswith("error: ")]
        reason = errors[0].removeprefix("error: ") if errors else "optimal costs disagree"
        print(f"error: {r.case_id}: {reason}", file=sys.stderr)
    return EXIT_INVARIANT if failed else EXIT_OK


def cmd_bench(args) -> int:
    cfg = _run_config(args, "both")
    records = run_corpus(args.corpus, cfg)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_csv(records, fh)
    else:
        write_csv(records, sys.stdout)
    print(summarize(records).render(), end="")
    print(bucket_report(records), end="")
    return _batch_exit(records)


def cmd_gen(args) -> int:
    block = parse_block_spec(args.spec)
    noise = NoiseSpec(
        insert_prob=args.insert_prob,
        delete_prob=args.delete_prob,
        swap_prob=args.swap_prob,
        alphabet=alphabet_of(block),
        seed=args.seed,
    )
    paths = generate_corpus(block, args.traces, noise, args.seed, args.out or Path("corpus"))
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    cfg = _run_config(args, "lp")
    net = parse_pnml(args.model)
    trace = _parse_trace(args.trace)
    sp = product_for_trace(net, trace, cfg.cost)
    counts = sp.counts()
    print(
        f"product moves: sync={counts[MoveKind.SYNC]} model={counts[MoveKind.MODEL]} "
        f"tau={counts[MoveKind.MODEL_TAU]} log={counts[MoveKind.LOG]} total={len(sp.moves)}"
    )
    rg = build_reachability_graph(sp, cfg.limits_for(sp))
    flags = []
    if rg.stats.truncated:
        flags.append("truncated")
    if rg.stats.cap_prunes:
        flags.append(f"cap_prunes={rg.stats.cap_prunes}")
    print(
        f"RG: {len(rg.nodes)} nodes, {len(rg.edges)} edges; "
        f"final {'reached' if rg.final_index is not None else 'NOT reached'}"
        + (f" [{', '.join(flags)}]" if flags else "")
    )
    ok = check_tu_column_structure(node_arc_incidence(rg))
    print(f"TU column structure: {'OK' if ok else 'VIOLATED'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowalign")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="align one trace against a model")
    p.add_argument("model", type=Path)
    p.add_argument("--trace", default="", help="comma-separated activities")
    _add_common(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("conformance", help="align every trace of a log")
    p.add_argument("model", type=Path)
    p.add_argument("log", type=Path)
    _add_common(p)
    p.set_defaults(func=cmd_conformance)

    p = sub.add_parser("bench", help="run a corpus of (model, log) pairs")
    p.add_argument("corpus", type=Path)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic model + logs")
    p.add_argument("--spec", required=True, help="block term, e.g. seq(a,and(b,c),e)")
    p.add_argument("--traces", type=int, default=10)
    p.add_argument("--insert-prob", type=float, default=0.0)
    p.add_argument("--delete-prob", type=float, default=0.0)
    p.add_argument("--swap-prob", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("inspect", help="structural report for a model (+ optional trace)")
    p.add_argument("model", type=Path)
    p.add_argument("--trace", default="")
    _add_common(p)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnreachableFinalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT if exc.reason in ("truncated", "token_cap") else EXIT_INFEASIBLE
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InternalInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FlowAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
