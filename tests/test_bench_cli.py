import argparse
import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from flowalign import bench, cli
from flowalign.astar import astar_align
from flowalign.bench import (
    CSV_COLUMNS,
    RunConfig,
    bucket_report,
    run_conformance,
    run_instance,
    summarize,
)
from flowalign.cli import main
from flowalign.errors import InternalInvariantError
from flowalign.flow import Outcome
from flowalign.model_io import EventLog, serialize_pnml, serialize_xes
from flowalign.petri import PetriNet, Trace
from flowalign.selector import token_replay_fitness
from flowalign.sync_product import product_for_trace
from oracles import records_to_csv_text
from test_successor_memo import capped_net


@pytest.fixture()
def toy_files(tmp_path, fig_acyclic):
    model = tmp_path / "model.pnml"
    model.write_bytes(serialize_pnml(fig_acyclic))
    log = tmp_path / "log.xes"
    log.write_bytes(
        serialize_xes(
            EventLog((
                Trace("c1", ("a", "b", "e")),
                Trace("c2", ("a", "d", "e")),
                Trace("c3", ("a", "c", "b", "e")),
            ))
        )
    )
    return model, log


# lp_win compares one wall-clock sample per engine, so it varies like the times.
TIMING_COLUMNS = ("lp_win", "astar_time_us", "lp_total_time_us", "rg_build_time_us", "lp_solve_time_us")


def strip_timings(csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    keep = [i for i, c in enumerate(CSV_COLUMNS) if c not in TIMING_COLUMNS]
    return "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines)


class TestRunInstance:
    def test_both_methods_agree_on_toy(self, fig_acyclic):
        rec = run_instance(fig_acyclic, Trace("c1", ("a", "b", "e")), RunConfig())
        assert rec.astar_outcome == "optimal"
        assert rec.lp_outcome == "optimal"
        assert rec.astar_cost == rec.lp_cost == Fraction(1)
        assert rec.costs_agree is True
        assert rec.rg_nodes == 24 and rec.rg_edges == 50
        assert rec.lp_win in (True, False)

    def test_single_method_leaves_other_blank(self, fig_acyclic):
        rec = run_instance(fig_acyclic, Trace("c", ("a",)), RunConfig(method="lp"))
        assert rec.lp_outcome == "optimal"
        assert rec.astar_outcome == ""
        assert rec.astar_cost is None
        assert rec.costs_agree is None

    def test_hybrid_records_choice(self, fig_acyclic):
        rec = run_instance(fig_acyclic, Trace("c", ("a", "b", "e")), RunConfig(method="hybrid"), fitness=0.5)
        assert rec.method_chosen == "astar"
        assert rec.astar_cost == Fraction(1)

    def test_truncated_instance_is_a_row_not_an_error(self, fig_acyclic):
        cfg = RunConfig(method="both", max_nodes=2)
        rec = run_instance(fig_acyclic, Trace("c", ("a", "b", "e")), cfg)
        assert rec.lp_outcome == "over_budget"
        assert rec.astar_outcome == "optimal"
        assert rec.costs_agree is None

    def test_timed_out_search_is_a_row_not_an_error(self, fig_acyclic):
        cfg = RunConfig(method="astar", timeout_s=1e-9)
        rec = run_instance(fig_acyclic, Trace("c", ("a", "b", "e")), cfg)
        assert rec.astar_outcome == "over_budget"
        assert rec.astar_cost is None


class TestRunConformance:
    def test_three_traces_agree(self, fig_acyclic):
        log = EventLog((
            Trace("c1", ("a", "b", "e")),
            Trace("c2", ("a", "d", "e")),
            Trace("c3", ("a", "c", "b", "e")),
        ))
        records = run_conformance(fig_acyclic, log, RunConfig())
        assert [r.case_id for r in records] == ["c1", "c2", "c3"]
        summary = summarize(records)
        assert summary.instances == 3
        assert summary.both_optimal == 3
        assert summary.agreement == 3

    def test_empty_log_gives_header_only_csv(self, fig_acyclic):
        records = run_conformance(fig_acyclic, EventLog(()), RunConfig())
        text = records_to_csv_text(records)
        assert text == ",".join(CSV_COLUMNS) + "\n"
        assert summarize(records).instances == 0

    def test_csv_stable_excluding_timings(self, fig_acyclic):
        log = EventLog((Trace("c1", ("a", "b", "e")), Trace("c2", ("a", "x", "e"))))
        a = run_conformance(fig_acyclic, log, RunConfig())
        b = run_conformance(fig_acyclic, log, RunConfig())
        assert strip_timings(records_to_csv_text(a)) == strip_timings(records_to_csv_text(b))

    def test_exact_fitness_routes_the_boundary_trace_to_astar(self):
        # p -> t -> p, t labelled a.  Each x misses and leaves one token:
        # 2 of the 40 tokens consumed and produced, so F = 19/20 exactly and
        # the 30-event trace expects exactly 3/2 deviations, not over 3/2.
        net = PetriNet.build(["p"], ["t"], [("p", "t"), ("t", "p")], {"t": "a"}, {"p": 1}, {"p": 1})
        boundary = Trace("c1", ("a",) * 14 + ("x",) * 2 + ("a",) * 14)
        log = EventLog((boundary, Trace("c2", ("a",) * 10)))
        assert token_replay_fitness(net, log) == Fraction(19, 20)
        rows = run_conformance(net, log, RunConfig(method="hybrid"))
        assert [r.method_chosen for r in rows] == ["astar", "astar"]
        assert rows[0].astar_cost == 2

    def test_parallel_matches_serial(self, fig_acyclic):
        log = EventLog(tuple(Trace(f"c{i}", ("a", "b", "e")) for i in range(4)))
        serial = run_conformance(fig_acyclic, log, RunConfig(parallel=1))
        parallel = run_conformance(fig_acyclic, log, RunConfig(parallel=2))
        assert strip_timings(records_to_csv_text(serial)) == strip_timings(
            records_to_csv_text(parallel)
        )


class TestBucketReport:
    def test_bucket_edges(self, fig_acyclic):
        lengths = [1, 10, 11, 20, 21, 30, 31, 50, 51, 100, 101, 150]
        log = EventLog(tuple(Trace(f"c{n}", ("a",) * n) for n in lengths))
        records = run_conformance(fig_acyclic, log, RunConfig(method="lp"))
        report = bucket_report(records)
        lines = report.strip().split("\n")
        assert lines[1].startswith("1-10\t2")
        assert lines[2].startswith("11-20\t2")
        assert lines[3].startswith("21-30\t2")
        assert lines[4].startswith("31-50\t2")
        assert lines[5].startswith("51-100\t2")
        assert lines[6].startswith(">100\t2")


class TestCliAlign:
    def test_lp_alignment_table(self, toy_files, capsys):
        model, _ = toy_files
        code = main(["align", str(model), "--trace", "a,b,e", "--method", "lp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "total\t\t\t1" in out
        assert out.count("sync\t") == 3

    def test_both_prints_agreement(self, toy_files, capsys):
        model, _ = toy_files
        code = main(["align", str(model), "--trace", "a,b,e", "--method", "both"])
        assert code == 0
        assert "verdict: AGREE" in capsys.readouterr().out

    def test_hybrid_short_trace(self, toy_files, capsys):
        model, _ = toy_files
        code = main(["align", str(model), "--trace", "a,b,e"])
        assert code == 0
        assert "hybrid chose astar" in capsys.readouterr().out

    def test_json_output(self, toy_files, tmp_path, capsys):
        model, _ = toy_files
        out_file = tmp_path / "alignment.json"
        code = main(["align", str(model), "--trace", "a,b,e", "--method", "lp", "--out", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["total_cost"] == "1"
        assert [m["kind"] for m in data["moves"]].count("sync") == 3

    def test_astar_line_reports_solves_and_pivots(self, toy_files, fig_acyclic, capsys):
        model, _ = toy_files
        assert main(["align", str(model), "--trace", "a,c,x,e", "--method", "astar"]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("astar: "))
        _, stats = astar_align(product_for_trace(fig_acyclic, Trace("t", ("a", "c", "x", "e"))))
        assert stats.heuristic_pivots > 0
        assert f"  solves {stats.heuristic_calls}  pivots {stats.heuristic_pivots}  " in line

    def test_missing_model_is_parse_error(self, tmp_path, capsys):
        code = main(["align", str(tmp_path / "absent.pnml"), "--trace", "a"])
        assert code == 2

    def test_truncated_graph_is_timeout_code(self, toy_files, capsys):
        model, _ = toy_files
        code = main(["align", str(model), "--trace", "a,b,e", "--method", "lp", "--max-nodes", "2"])
        assert code == 4

    @pytest.mark.parametrize("method", ["astar", "lp", "hybrid", "both"])
    def test_capped_instance_reads_the_same_under_every_method(self, tmp_path, capsys, method):
        model = tmp_path / "capped.pnml"
        model.write_bytes(serialize_pnml(capped_net()))
        args = ["align", str(model), "--trace", "a,a,c", "--method", method]
        assert main([*args, "--token-cap", "2"]) == 0
        capsys.readouterr()
        assert main([*args, "--token-cap", "1"]) == 4
        assert re.search(r"^\w+ outcome: capped$", capsys.readouterr().out, re.M)

    @pytest.mark.parametrize("method", ["astar", "lp", "hybrid", "both"])
    def test_no_alignment_under_any_cap_is_infeasible(self, tmp_path, capsys, method):
        # t puts a token on p1 and keeps p0's, so the cap prunes the model,
        # but no firing count reaches p2: the marking equation is infeasible.
        net = PetriNet.build(
            ["p0", "p1", "p2"], ["t"], [("p0", "t"), ("t", "p0"), ("t", "p1")],
            {"t": "a"}, {"p0": 1}, {"p2": 1},
        )
        model = tmp_path / "growing.pnml"
        model.write_bytes(serialize_pnml(net))
        assert main(["align", str(model), "--trace", "a", "--method", method]) == 3
        assert re.search(r"^\w+ outcome: infeasible$", capsys.readouterr().out, re.M)

    def test_unreachable_final_is_infeasible_code(self, tmp_path, capsys):
        bad = b"""<pnml><net id="n"><page id="g">
          <place id="p0"><initialMarking><text>1</text></initialMarking></place>
          <place id="p1"/><place id="px"/>
          <transition id="t"><name><text>a</text></name></transition>
          <arc id="a1" source="p0" target="t"/>
          <arc id="a2" source="t" target="p1"/>
        </page>
        <finalmarkings><marking><place idref="px"><text>1</text></place></marking></finalmarkings>
        </net></pnml>"""
        path = tmp_path / "bad.pnml"
        path.write_bytes(bad)
        code = main(["align", str(path), "--trace", "a", "--method", "lp"])
        assert code == 3

    def test_epsilon_flag_changes_costs(self, toy_files, tmp_path, capsys):
        model, _ = toy_files
        out_file = tmp_path / "a.json"
        code = main([
            "align", str(model), "--trace", "a,b,e", "--method", "lp",
            "--epsilon", "1/100", "--deviation-cost", "5", "--out", str(out_file),
        ])
        assert code == 0
        assert json.loads(out_file.read_text())["total_cost"] == "5"


class TestCliConformanceAndBench:
    def test_conformance_csv(self, toy_files, tmp_path, capsys):
        model, log = toy_files
        out_file = tmp_path / "records.csv"
        code = main(["conformance", str(model), str(log), "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4
        assert "cost agreement: 100.0%" in capsys.readouterr().out

    def test_gen_then_bench(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main([
            "gen", "--spec", "seq(a, and(b, c), e)", "--traces", "5",
            "--delete-prob", "0.3", "--seed", "11", "--out", str(corpus),
        ])
        assert code == 0
        assert (corpus / "model.pnml").exists()
        assert (corpus / "clean.xes").exists()
        assert (corpus / "noisy.xes").exists()

        out_file = tmp_path / "bench.csv"
        code = main(["bench", str(corpus), "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bucket\tinstances" in out
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 11  # header + 5 clean + 5 noisy

    def test_bench_on_empty_corpus(self, tmp_path, capsys):
        code = main(["bench", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("name", ["missing", "model.pnml"])
    def test_bench_on_a_path_that_is_not_a_directory_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        if path.suffix:
            path.write_text("")
        code = main(["bench", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert captured.out == ""

    def test_inspect_reports_structure(self, toy_files, capsys):
        model, _ = toy_files
        code = main(["inspect", str(model), "--trace", "a,b,e"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RG: 24 nodes, 50 edges; final reached\n" in out
        assert "sync=3 model=5 tau=0 log=3 total=11" in out

    def test_inspect_model_only(self, toy_files, capsys):
        model, _ = toy_files
        code = main(["inspect", str(model)])
        assert code == 0
        assert "sync=0 model=5 tau=0 log=0" in capsys.readouterr().out

    def test_inspect_flags_truncation(self, toy_files, capsys):
        model, _ = toy_files
        code = main(["inspect", str(model), "--trace", "a,b,e", "--max-nodes", "2"])
        assert code == 0
        assert "RG: over budget" in capsys.readouterr().out
        code = main(["inspect", str(model), "--trace", "a,b,e", "--max-edges", "49"])
        assert code == 0
        assert "RG: 24 nodes, 50 edges; final reached [over budget]" in capsys.readouterr().out


    def test_inspect_flags_the_cap(self, tmp_path, capsys):
        model = tmp_path / "capped.pnml"
        model.write_bytes(serialize_pnml(capped_net()))
        assert main(["inspect", str(model), "--trace", "a,a,c", "--token-cap", "1"]) == 0
        assert "final NOT reached [capped]" in capsys.readouterr().out


def test_readme_lists_exactly_the_common_flags():
    """README's "Common flags:" sentence names every long option that
    ``cli._add_common`` registers, and no other."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"Common flags:(.*?)\.\n", readme, re.DOTALL).group(1)
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_common(parser)
    registered = {opt for action in parser._actions for opt in action.option_strings}
    assert set(re.findall(r"`(--[a-z-]+)", listed)) == registered


class TestHybridLimits:
    LONG = Trace("long", ("a",) * 21)  # routed to flow when fitness is 0

    def test_run_instance_passes_limits_to_flow_route(self, fig_acyclic):
        lp = run_instance(fig_acyclic, self.LONG, RunConfig(method="lp", max_nodes=5))
        assert lp.lp_outcome == "over_budget"
        cfg = RunConfig(method="hybrid", max_nodes=5)
        rec = run_instance(fig_acyclic, self.LONG, cfg, fitness=0.0)
        assert rec.method_chosen == "lp"
        assert rec.lp_outcome == "over_budget"  # the refused graph fell back to search
        assert rec.astar_outcome == "optimal"

    def test_default_limits_unchanged(self, fig_acyclic):
        rec = run_instance(fig_acyclic, self.LONG, RunConfig(method="hybrid"), fitness=0.0)
        assert rec.lp_outcome == "optimal"

    def test_cli_align_hybrid_honours_max_nodes(self, toy_files, capsys):
        model, _ = toy_files
        trace = ",".join(self.LONG.activities)
        code = main(["align", str(model), "--trace", trace, "--max-nodes", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hybrid chose lp" in out
        assert "[fell back to astar]" in out

    def test_cli_align_fallback_prints_the_flow_line(self, toy_files, capsys):
        model, _ = toy_files
        trace = ",".join(self.LONG.activities)
        assert main(["align", str(model), "--trace", trace, "--max-nodes", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # The model's 6 markings alone exceed the 5-node budget, so nothing is counted.
        assert lines[1].startswith("lp: outcome over_budget  rg 0 nodes / 0 edges  ")
        assert lines[2].startswith("astar: cost ")


class TestBatchFailures:
    @pytest.mark.parametrize("method, ran, idle", [("astar", "astar", "lp"), ("lp", "lp", "astar")])
    def test_mean_time_is_na_for_an_engine_that_did_not_run(self, fig_acyclic, method, ran, idle):
        log = EventLog((Trace("c1", ("a", "b", "e")),))
        text = summarize(run_conformance(fig_acyclic, log, RunConfig(method=method))).render()
        assert f"mean {idle} time: n/a\n" in text
        assert re.search(rf"mean {ran} time: \d+ us\n", text)

    def test_agreement_is_na_when_nothing_compared(self, fig_acyclic):
        log = EventLog((Trace("c1", ("a", "b", "e")),))
        text = summarize(run_conformance(fig_acyclic, log, RunConfig(method="astar"))).render()
        assert "both optimal: 0" in text
        assert "cost agreement: n/a" in text

    @pytest.mark.parametrize(
        "method, traces", [("astar", 1), ("lp", 1), ("hybrid", 0), ("both", 0)]
    )
    def test_win_rate_is_na_when_nothing_compared(self, fig_acyclic, method, traces):
        log = EventLog((Trace("c1", ("a", "b", "e")),) * traces)
        text = summarize(run_conformance(fig_acyclic, log, RunConfig(method=method))).render()
        assert "both optimal: 0" in text
        assert "lp win rate: n/a" in text

    def test_win_rate_is_a_percentage_when_compared(self, fig_acyclic):
        log = EventLog((Trace("c1", ("a", "b", "e")),))
        text = summarize(run_conformance(fig_acyclic, log, RunConfig(method="both"))).render()
        assert "both optimal: 1" in text
        assert re.search(r"^lp win rate: \d+\.\d%$", text, re.M)

    def test_conformance_error_row_exits_5(self, toy_files, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InternalInvariantError("broken engine")

        monkeypatch.setattr(bench, "run_instance", broken)
        model, log = toy_files
        assert main(["conformance", str(model), str(log)]) == 5
        captured = capsys.readouterr()
        assert "error: broken engine" in captured.out
        assert "c1" in captured.err

    def test_conformance_disagreement_exits_5(self, toy_files, monkeypatch, capsys):
        real = bench.lp_align

        def overpriced(*args, **kwargs):
            alignment, stats = real(*args, **kwargs)
            return dataclasses.replace(alignment, total_cost=alignment.total_cost + 1), stats

        monkeypatch.setattr(bench, "lp_align", overpriced)
        model, log = toy_files
        assert main(["conformance", str(model), str(log)]) == 5
        assert "optimal costs disagree" in capsys.readouterr().err

    def test_bench_error_row_exits_5(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        assert main(["gen", "--spec", "seq(a, b)", "--traces", "2", "--out", str(corpus)]) == 0

        def broken(*args, **kwargs):
            raise InternalInvariantError("broken engine")

        monkeypatch.setattr(bench, "run_instance", broken)
        assert main(["bench", str(corpus)]) == 5


class TestHybridRowCells:
    """A hybrid row carries the same engine cells as that engine's own row."""

    ENGINE_CELLS = ("astar_outcome", "lp_outcome", "astar_cost", "lp_cost",
                    "rg_nodes", "rg_edges", "astar_expansions")

    def cells(self, rec):
        return [getattr(rec, c) for c in self.ENGINE_CELLS]

    def test_flow_route_fills_graph_cells(self, fig_acyclic):
        trace = TestHybridLimits.LONG
        lp = run_instance(fig_acyclic, trace, RunConfig(method="lp"))
        rec = run_instance(fig_acyclic, trace, RunConfig(method="hybrid"), fitness=0.0)
        assert rec.method_chosen == "lp"
        assert (rec.rg_nodes, rec.rg_edges) == (132, 301)
        assert self.cells(rec) == self.cells(lp)
        assert rec.lp_total_time_us is not None

    def test_search_route_fills_expansions(self, fig_acyclic):
        trace = Trace("c", ("a", "b", "e"))
        astar = run_instance(fig_acyclic, trace, RunConfig(method="astar"))
        rec = run_instance(fig_acyclic, trace, RunConfig(method="hybrid"), fitness=1.0)
        assert rec.method_chosen == "astar"
        assert rec.astar_expansions == 4
        assert self.cells(rec) == self.cells(astar)
        assert rec.astar_time_us is not None

    def test_fallback_row_reports_the_search(self, fig_acyclic):
        cfg = RunConfig(method="hybrid", max_nodes=5)
        rec = run_instance(fig_acyclic, TestHybridLimits.LONG, cfg, fitness=0.0)
        lp = run_instance(fig_acyclic, TestHybridLimits.LONG, RunConfig(method="lp", max_nodes=5))
        assert rec.lp_outcome == "over_budget" and rec.rg_nodes == lp.rg_nodes == 0
        assert rec.astar_outcome == "optimal" and rec.astar_expansions > 0

    def test_refused_row_counts_the_graph_the_budget_refused(self, fig_acyclic):
        full = run_instance(fig_acyclic, TestHybridLimits.LONG, RunConfig(method="lp"))
        cut = run_instance(fig_acyclic, TestHybridLimits.LONG, RunConfig(method="lp", max_nodes=100))
        assert (full.lp_outcome, cut.lp_outcome) == ("optimal", "over_budget")
        assert (cut.rg_nodes, cut.rg_edges) == (full.rg_nodes, full.rg_edges) == (132, 301)

    def test_fallback_row_keeps_the_discarded_build(self, fig_acyclic):
        cfg = RunConfig(method="hybrid", max_nodes=5)
        rec = run_instance(fig_acyclic, TestHybridLimits.LONG, cfg, fitness=0.0)
        both = run_instance(fig_acyclic, TestHybridLimits.LONG, RunConfig(method="both", max_nodes=5))
        assert self.cells(rec) == self.cells(both)
        assert None not in (rec.rg_build_time_us, rec.lp_solve_time_us, rec.lp_total_time_us)
        assert rec.lp_total_time_us >= rec.rg_build_time_us + rec.lp_solve_time_us

    def test_summary_counts_a_fallback_as_under_both(self, fig_acyclic):
        counts = lambda s: (s.instances, s.both_optimal, s.agreement, s.lp_wins)
        rows = {}
        for method in ("hybrid", "both"):
            cfg = RunConfig(method=method, max_nodes=5)
            rows[method] = run_instance(fig_acyclic, TestHybridLimits.LONG, cfg, fitness=0.0)
        hybrid, both = summarize([rows["hybrid"]]), summarize([rows["both"]])
        assert counts(hybrid) == counts(both) == (1, 0, 0, 0)
        # A* produced the fallback row; under both, the flow run that went over budget did too.
        assert (hybrid.unsolved[Outcome.OVER_BUDGET], hybrid.fallbacks) == (0, 1)
        assert (both.unsolved[Outcome.OVER_BUDGET], both.fallbacks) == (1, 0)
        assert "over_budget: 0\nfallbacks: 1\n" in hybrid.render()
        assert hybrid.mean_lp_us is None and both.mean_lp_us is not None
