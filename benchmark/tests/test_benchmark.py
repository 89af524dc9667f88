"""The benchmark's own checks, on tiny slices of each workload.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

assert run.load_package()

import layers  # noqa: E402
import workloads  # noqa: E402
from flowalign.model_io import EventLog, serialize_xes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def current_targets() -> dict:
    """The object at every attribute tracing swaps, to check it is restored."""
    return {
        (module_name, attr): getattr(importlib.import_module(module_name), attr)
        for _, module_name, attr in layers.TARGETS
    }


def tiny(name: str, n: int = 6, seed: int = 3) -> workloads.Workload:
    """The first ``n`` short traces of a workload (each aligns in well
    under a second), re-serialized when the workload is a log."""
    wl = workloads.build(name, seed)
    cases = tuple(c for c in wl.cases if len(c.trace.activities) <= 6)[:n]
    xes = serialize_xes(EventLog(tuple(c.trace for c in cases))) if wl.is_log else b""
    return dataclasses.replace(wl, cases=cases, xes=xes)


def test_spec_names_and_units_are_well_formed():
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert len(names) == len(set(names))
        for m in SPEC[group]:
            assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert dict((m["name"], m["unit"]) for m in SPEC["end_to_end"]) == run.END_TO_END_UNITS
    assert dict((m["name"], m["unit"]) for m in SPEC["per_layer"]) == layers.METRIC_UNITS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace):
    result, record = run.run(tiny(name), seconds=60, trace=trace, setup_s=0.5)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    props = record["properties"]
    assert props["cases"] == 6 and props["seed"] == 3 and props["rg_nodes_max"] >= 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_costs_equal_untraced_and_wrappers_are_restored(name):
    wl = tiny(name)
    before = current_targets()
    plain, _ = run.timed_run(wl, seconds=60)
    traced, tracer, values = run.traced_run(wl, seconds=60)
    assert current_targets() == before
    assert [(o.case_id, o.cost, o.status) for o in traced] == [
        (o.case_id, o.cost, o.status) for o in plain
    ]
    assert not any(o.failure for o in traced)
    assert values["bench.cases"] == 6 and values["sync_product.calls"] == 6
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_wrappers_are_restored_when_the_traced_call_raises():
    before = current_targets()
    with pytest.raises(ZeroDivisionError):
        with layers.installed(layers.Tracer()):
            1 / 0
    assert current_targets() == before


def test_a_wrong_reference_cost_makes_the_command_exit_nonzero(monkeypatch, tmp_path, capsys):
    honest = run.reference_cost

    def off_by_one(net, trace, engine):
        cost, nodes = honest(net, trace, engine)
        return cost + 1, nodes

    monkeypatch.setattr(run, "reference_cost", off_by_one)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    code = run.main(["--workload", "flow-rg", "--seed", "3", "--seconds", "0.01", "--trace", "0"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "flow-rg", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    a, b = workloads.build(name, 11), workloads.build(name, 11)
    assert a.cases == b.cases and a.xes == b.xes and a.pnml == b.pnml
    assert len(a.cases) >= 100
