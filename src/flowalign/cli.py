"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 infeasible (no alignment exists
under any token cap, or none under this cap and the cap pruned nothing),
4 capped or over budget (no alignment under this token cap and the cap
pruned a reachable move, or a node, edge or time budget bound), 5
internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .astar import Heuristic
from .bench import (
    RunConfig,
    bucket_report,
    failed_records,
    run_conformance,
    run_corpus,
    run_engines,
    summarize,
    write_csv,
)
from .errors import (
    FlowAlignError,
    InternalInvariantError,
    InvalidInputError,
    ModelParseError,
)
from .flow import Method, Outcome, RunStats, alignment_to_dict, layered_graph, move_table
from .generator import alphabet_of, generate_corpus, parse_block_spec
from .model_io import EventLog, NoiseSpec, parse_pnml, parse_xes, read_csv_log
from .petri import Trace
from .selector import SelectionThresholds, token_replay_fitness
from .sync_product import CostConfig, MoveKind, product_for_trace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 5
EXIT_CODES = {Outcome.OPTIMAL: EXIT_OK, Outcome.INFEASIBLE: 3, Outcome.CAPPED: 4, Outcome.OVER_BUDGET: 4}


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
    fitness = token_replay_fitness(net, EventLog((trace,))) if cfg.method == "hybrid" else Fraction(1)
    result = run_engines(net, trace, cfg, fitness)
    if result.method_chosen is not None:
        length, f, expected = result.selection_inputs
        print(f"hybrid chose {result.method_chosen.value} "
              f"(L={length}, F={float(f):.3f}, expected deviations={float(expected):.3f})"
              + ("  [fell back to astar]" if result.fell_back_to_astar else ""))

    for k, (alignment, stats) in enumerate(result.runs):
        if alignment is None and not (k == 0 and result.fell_back_to_astar):
            print(f"{stats.method.value} outcome: {stats.outcome.value}")
            return EXIT_CODES[stats.outcome]
        print(_engine_line(alignment, stats))

    shown = result.alignment
    print()
    print(move_table(shown), end="")
    if cfg.method == "both":
        astar_cost, lp_cost = (alignment.total_cost for alignment, _ in result.runs)
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
    return _report(args.out, run_conformance(net, event_log, cfg, model_id=str(args.model)))


def cmd_bench(args) -> int:
    records = run_corpus(args.corpus, _run_config(args, "both"))
    return _report(args.out, records, bucket_report(records))


def _report(out: Path | None, records, *texts: str) -> int:
    """Write ``records`` as CSV to ``out`` or stdout, print their summary
    and ``texts``, and return EXIT_INVARIANT when any record shows a cost
    disagreement or an error."""
    if out:
        with open(out, "w", newline="") as fh:
            write_csv(records, fh)
    else:
        write_csv(records, sys.stdout)
    print(summarize(records).render(), end="")
    for text in texts:
        print(text, end="")
    failed = failed_records(records)
    for r in failed:
        errors = [o for o in (r.astar_outcome, r.lp_outcome) if o.startswith("error: ")]
        reason = errors[0].removeprefix("error: ") if errors else "optimal costs disagree"
        print(f"error: {r.case_id}: {reason}", file=sys.stderr)
    return EXIT_INVARIANT if failed else EXIT_OK


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
    sp = product_for_trace(net, trace, cfg.cost, cfg.token_cap)
    counts = sp.counts()
    print(
        f"product moves: sync={counts[MoveKind.SYNC]} model={counts[MoveKind.MODEL]} "
        f"tau={counts[MoveKind.MODEL_TAU]} log={counts[MoveKind.LOG]} total={len(sp.moves)}"
    )
    limits = cfg.limits
    graph = layered_graph(sp, limits)
    if graph is None:
        print(f"RG: over budget (the model alone has more than {limits.max_nodes} reachable markings)")
    else:
        flags = ["over budget"] if graph.nodes > limits.max_nodes or graph.edges > limits.max_edges else []
        if graph.product.memo.capped:
            flags.append("capped")
        print(
            f"RG: {graph.nodes} nodes, {graph.edges} edges; "
            f"final {'reached' if graph.model.final is not None else 'NOT reached'}"
            + (f" [{', '.join(flags)}]" if flags else "")
        )
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
