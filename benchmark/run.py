"""flowalign benchmark: align one seeded workload and report its metrics.

Usage, from the repository root:

    python3 benchmark/run.py --workload search-me --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a separate traced run.  Every returned cost is checked, as an
exact ``Fraction``, against the other engine; any failed case makes the
command exit 1.  A fuller record (workload properties, provenance, and in
a traced run the spans) goes to ``benchmark/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# The slowest case measured in any workload is a 14 s search-me trace
# (2-vCPU Xeon VM); the package default of 30 s would let a slow spell on
# a shared machine turn it into a timeout.
SEARCH_TIMEOUT_S = 120.0
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import flowalign.bench, flowalign.generator, flowalign.model_io; "
    "print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {
    "traces_per_s": "1/s",
    "trace_p50_ms": "ms",
    "trace_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Outcome:
    """One aligned case, as the package returned it."""

    case_id: str
    model_id: str
    activities: tuple[str, ...]
    cost: Fraction | None
    status: str
    latency_us: float | None
    routed_flow: bool
    rg_nodes: int | None
    failure: str = ""


def load_package() -> bool:
    """Put the checkout's ``src`` first on the path; False if it is missing."""
    if not (SRC / "flowalign" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def run_config(wl):
    from flowalign.bench import RunConfig

    return RunConfig(method=wl.method, timeout_s=SEARCH_TIMEOUT_S)


def _outcome(rec, latency_us) -> Outcome:
    return Outcome(
        case_id=rec.case_id,
        model_id=rec.model_id,
        activities=(),
        cost=rec.lp_cost if rec.lp_outcome else rec.astar_cost,
        status=rec.lp_outcome or rec.astar_outcome,
        latency_us=latency_us,
        routed_flow=rec.method_chosen == "lp" or bool(rec.lp_outcome),
        rg_nodes=rec.rg_nodes,
    )


def run_unit(wl, unit, cfg) -> tuple[list[Outcome], int]:
    """Align one unit of work through the package's public entry points.

    A unit is one case (``run_instance``), or ``None`` for a log
    workload's whole log: parse the model and log bytes, then
    ``run_conformance``.  Module attributes are looked up at call time so
    that tracing wrappers apply.  Returns the outcomes and the wall time.
    """
    import flowalign.bench as fa_bench
    import flowalign.model_io as fa_io

    start = time.perf_counter_ns()
    if wl.is_log:
        net = fa_io.parse_pnml(wl.pnml)
        event_log = fa_io.parse_xes(wl.xes)
        records = fa_bench.run_conformance(net, event_log, cfg, model_id=next(iter(wl.nets)))
        wall = time.perf_counter_ns() - start
        # Per-case latency is the package's own product + engine timing.
        out = [
            _outcome(r, r.astar_time_us if r.astar_time_us is not None else r.lp_total_time_us)
            for r in records
        ]
        for o, case in zip(out, wl.cases):
            o.activities = case.trace.activities
        return out, wall
    try:
        rec = fa_bench.run_instance(wl.nets[unit.model_id], unit.trace, cfg, unit.model_id)
    except Exception as exc:  # one case's error is counted, not fatal
        wall = time.perf_counter_ns() - start
        out = Outcome(
            case_id=unit.trace.case_id,
            model_id=unit.model_id,
            activities=(),
            cost=None,
            status=f"error: {exc!r}",
            latency_us=None,
            routed_flow=False,
            rg_nodes=None,
        )
    else:
        wall = time.perf_counter_ns() - start
        out = _outcome(rec, wall / 1000)
    out.activities = unit.trace.activities
    return [out], wall


def units_of(wl) -> list:
    return [None] if wl.is_log else list(wl.cases)


def timed_run(wl, seconds: float) -> tuple[list[Outcome], int]:
    """Untraced, closed loop, serial: units in order until the deadline."""
    cfg = run_config(wl)
    outcomes: list[Outcome] = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    for unit in units_of(wl):
        if time.perf_counter_ns() >= deadline:
            break
        got, _ = run_unit(wl, unit, cfg)
        outcomes.extend(got)
    return outcomes, time.perf_counter_ns() - start


def traced_run(wl, seconds: float):
    """Each unit once untraced and once traced, alternating which goes
    first so neither side always meets warm caches.  The per-layer numbers
    come from the traced calls; their costs must equal the untraced ones."""
    from layers import Tracer, installed

    cfg = run_config(wl)
    tracer = Tracer()
    outcomes: list[Outcome] = []
    traced_ns = untraced_ns = 0
    deadline = time.perf_counter_ns() + int(2 * seconds * 1e9)
    for k, unit in enumerate(units_of(wl)):
        if time.perf_counter_ns() >= deadline:
            break
        got = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with installed(tracer):
                    got[True], ns = run_unit(wl, unit, cfg)
                traced_ns += ns
            else:
                got[False], ns = run_unit(wl, unit, cfg)
                untraced_ns += ns
        for plain, seen in zip(got[False], got[True]):
            if (plain.cost, plain.status) != (seen.cost, seen.status):
                plain.failure = f"traced run returned {seen.status} {seen.cost}"
        outcomes.extend(got[False])
    return outcomes, tracer, tracer.metrics(len(outcomes), traced_ns, untraced_ns)


def reference_cost(net, trace, engine: str) -> tuple[Fraction | None, int | None]:
    """Cost from an independent engine, plus the RG size when it built one.

    ``flow`` is ``lp_align``; ``search`` is ``astar_align`` with the zero
    heuristic (Dijkstra), which explores the product itself instead of a
    reachability graph and never calls the simplex.
    """
    from flowalign.astar import Heuristic, SearchConfig, astar_align
    from flowalign.flow import lp_align
    from flowalign.sync_product import product_for_trace

    sp = product_for_trace(net, trace)
    if engine == "flow":
        alignment, stats = lp_align(sp)
        return (alignment.total_cost if alignment else None), stats.rg_nodes
    cfg = SearchConfig(heuristic=Heuristic.ZERO, timeout=SEARCH_TIMEOUT_S)
    alignment, _ = astar_align(sp, cfg)
    return (alignment.total_cost if alignment else None), None


def check(wl, outcomes: list[Outcome]) -> list[Outcome]:
    """Compare each case's cost with the engine that did not produce it.

    Also fills in RG sizes for the workload properties.  Returns the
    failed outcomes: not optimal, no reference, or a different cost.
    """
    from flowalign.petri import Trace
    from flowalign.reachability import build_reachability_graph
    from flowalign.sync_product import product_for_trace

    references: dict = {}
    rg_sizes: dict = {}
    for o in outcomes:
        if not o.failure and (o.status != "optimal" or o.cost is None):
            o.failure = f"outcome {o.status!r}"
        if o.failure:
            continue
        net = wl.nets[o.model_id]
        trace = Trace(o.case_id, o.activities)
        engine = "search" if o.routed_flow else "flow"
        key = (o.model_id, o.activities, engine)
        if key not in references:
            references[key] = reference_cost(net, trace, engine)
        ref, rg_nodes = references[key]
        if o.rg_nodes is None:
            o.rg_nodes = rg_nodes
        if o.rg_nodes is None:
            variant = (o.model_id, o.activities)
            if variant not in rg_sizes:
                rg_sizes[variant] = len(build_reachability_graph(product_for_trace(net, trace)).nodes)
            o.rg_nodes = rg_sizes[variant]
        if ref is None:
            o.failure = "reference engine found no alignment"
        elif o.cost != ref:
            o.failure = f"cost {o.cost} != reference {ref}"
    return [o for o in outcomes if o.failure]


def properties(wl, outcomes: list[Outcome]) -> dict:
    n = len(outcomes)
    lengths = [len(o.activities) for o in outcomes]
    nodes = [o.rg_nodes for o in outcomes if o.rg_nodes is not None]
    return {
        "seed": wl.seed,
        "cases": n,
        "distinct_variant_share": len({(o.model_id, o.activities) for o in outcomes}) / n,
        "trace_len_p50": statistics.median(lengths),
        "trace_len_max": max(lengths),
        "rg_nodes_p50": statistics.median(nodes) if nodes else None,
        "rg_nodes_max": max(nodes) if nodes else None,
        "flow_share": sum(o.routed_flow for o in outcomes) / n,
        "search_timeout_s": SEARCH_TIMEOUT_S,
    }


def measure_setup(name: str, seed: int):
    """Median over repeats of (package import in a fresh interpreter +
    generating and serializing the workload).  Returns (seconds, workload)."""
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        start = time.perf_counter()
        wl = workloads.build(name, seed)
        times.append(float(probe.stdout.strip()) + time.perf_counter() - start)
    return statistics.median(times), wl


def provenance() -> dict:
    import numpy

    head = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            head = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            head = None
    return {
        "git_head": head,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics, so
    the estimate moves smoothly when cases near the quantile swap places,
    where the plain sample quantile jumps by the gap between neighbouring
    cases; in a set of about a hundred heavy-tailed latencies those gaps
    are wide.  The Beta CDF is integrated numerically on a grid fine
    enough for n in the thousands.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], t)), cdf))
    return float(weights @ x)


def end_to_end(outcomes: list[Outcome], wall_ns: int, setup_s: float) -> dict[str, float]:
    # Read before the quantile arrays below can raise the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [o.latency_us / 1000 for o in outcomes if o.latency_us is not None] or [0.0]
    return {
        "traces_per_s": len(outcomes) / (wall_ns / 1e9),
        "trace_p50_ms": harrell_davis(latencies, 0.5),
        "trace_p90_ms": harrell_davis(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def run(wl, seconds: float, trace: bool, setup_s: float) -> tuple[dict, dict]:
    """Measure, check and summarize one workload.

    Returns ``(result, record)``: the contract's result object and the
    fuller record written to ``results/``.
    """
    from layers import METRIC_UNITS

    if trace:
        outcomes, tracer, values = traced_run(wl, seconds)
        units = METRIC_UNITS
    else:
        outcomes, wall_ns = timed_run(wl, seconds)
        values = end_to_end(outcomes, wall_ns, setup_s)
        units = END_TO_END_UNITS
    failed = check(wl, outcomes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": wl.name,
        "trace": trace,
        "seconds": seconds,
        "failed_frac": len(failed) / len(outcomes) if outcomes else 1.0,
        "failures": [f"{o.case_id}: {o.failure}" for o in failed],
        "cases": [[o.case_id, o.latency_us, str(o.cost), o.status] for o in outcomes],
        "metrics": metrics,
        "properties": properties(wl, outcomes) if outcomes else {},
        "provenance": provenance(),
    }
    if trace:
        record["spans"] = tracer.spans
    return result, record


def main(argv: list[str] | None = None) -> int:
    if not load_package():
        print(f"flowalign sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setup_s, wl = measure_setup(args.workload, args.seed)
    result, record = run(wl, args.seconds, bool(args.trace), setup_s)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str) + "\n")
    print(f"{wl.name} seed {wl.seed}: {result['attempted']} cases, {result['failed']} failed")
    for line in record["failures"][:20]:
        print(f"  FAILED {line}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  properties {json.dumps(record['properties'])}")
    print(f"  provenance {json.dumps(record['provenance'])}")
    print(f"  record {os.path.relpath(out, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
