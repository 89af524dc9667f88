"""Malformed input reaches the CLI as exit code 2, never as a traceback."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_fig_acyclic
from flowalign.cli import EXIT_PARSE, main
from flowalign.model_io import EventLog, serialize_pnml, serialize_xes
from flowalign.petri import PetriNet, Trace

VALID_PNML = serialize_pnml(make_fig_acyclic())
VALID_XES = serialize_xes(
    EventLog((Trace("c1", ("a", "b", "c", "e")), Trace("c2", ("a", "d", "x", "e"))))
)
VALID_CSV = b"case_id,activity,order\nc1,a,1\nc1,b,2\nc1,e,3\nc2,a,1\nc2,d,2\nc2,e,3\n"
EXIT_CODES = {0, 2, 3, 4, 5}
BOUNDS = ["--timeout-ms", "2000", "--max-nodes", "20000"]


def run_on(tmp: Path, model: bytes, log: tuple[str, bytes] | None) -> int:
    """``align`` on the model alone, or ``conformance`` of ``log``."""
    model_path = tmp / "model.pnml"
    model_path.write_bytes(model)
    if log is None:
        return main(["align", str(model_path), "--trace", "a,b,c,e", "--method", "both", *BOUNDS])
    suffix, data = log
    log_path = tmp / f"log{suffix}"
    log_path.write_bytes(data)
    out = tmp / "records.csv"
    return main(["conformance", str(model_path), str(log_path), "--out", str(out), *BOUNDS])


MALFORMED = {
    "pnml-marking-not-a-number": (
        VALID_PNML.replace(b"<initialMarking><text>1</text>", b"<initialMarking><text>x</text>"),
        None,
    ),
    "pnml-fractional-inscription": (
        VALID_PNML.replace(
            b'source="p1" target="t1" />',
            b'source="p1" target="t1"><inscription><text>2.5</text></inscription></arc>',
        ),
        None,
    ),
    "gzip-magic-then-garbage": (b"\x1f\x8bgarbage", None),
    "csv-row-without-order": (VALID_PNML, (".csv", b"case_id,activity,order\nc1,a\n")),
    "csv-invalid-utf8": (VALID_PNML, (".csv", b"case_id,activity,order\nc1,\xff\xfe,1\n")),
    # found by the fuzz tests below
    "xml-unknown-encoding": (VALID_PNML.replace(b"utf-8", b"utf-9", 1), None),
    "csv-carriage-return-in-field": (VALID_PNML, (".csv", b"c\rse_id,activity,order\n")),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exits_2(name, tmp_path, capsys):
    model, log = MALFORMED[name]
    assert run_on(tmp_path, model, log) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def mutated(valid: bytes):
    """``valid`` with one to four bytes overwritten, then perhaps truncated."""
    edits = st.lists(
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), min_size=1, max_size=4
    )
    return st.tuples(edits, st.integers(1, len(valid))).map(lambda args: _apply(valid, *args))


def _apply(valid: bytes, edits, keep: int) -> bytes:
    data = bytearray(valid)
    for pos, byte in edits:
        data[pos] = byte
    return bytes(data[:keep])


@settings(max_examples=60, deadline=None)
@given(model=mutated(VALID_PNML))
def test_fuzzed_pnml_gives_an_exit_code(model):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_on(Path(tmp), model, None) in EXIT_CODES


@settings(max_examples=60, deadline=None)
@given(log=mutated(VALID_XES))
def test_fuzzed_xes_gives_an_exit_code(log):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_on(Path(tmp), VALID_PNML, (".xes", log)) in EXIT_CODES


@settings(max_examples=60, deadline=None)
@given(log=mutated(VALID_CSV))
def test_fuzzed_csv_gives_an_exit_code(log):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_on(Path(tmp), VALID_PNML, (".csv", log)) in EXIT_CODES


def command_inputs(command: str, tmp_path: Path, model: bytes) -> list[str]:
    """Arguments of ``command`` on ``model`` and the valid trace or log."""
    model_path = tmp_path / "corpus" / "model.pnml"
    model_path.parent.mkdir()
    model_path.write_bytes(model)
    if command == "align":
        return [str(model_path), "--trace", "a,b,c,e"]
    log = tmp_path / "corpus" / "log.xes"
    log.write_bytes(VALID_XES)
    if command == "bench":
        return [str(model_path.parent), "--out", str(tmp_path / "records.csv")]
    return [str(model_path), str(log), "--out", str(tmp_path / "records.csv")]


@pytest.mark.parametrize("flag", [("--max-nodes", "0"), ("--max-edges", "0"), ("--max-depth", "-1")])
@pytest.mark.parametrize("command", ["align", "conformance"])
@pytest.mark.parametrize("method", ["astar", "lp", "hybrid", "both"])
def test_invalid_limit_flags_exit_2_under_every_method(method, command, flag, tmp_path, capsys):
    inputs = command_inputs(command, tmp_path, VALID_PNML)
    assert main([command, *inputs, "--method", method, *flag]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "inf", "1/0", ""])
@pytest.mark.parametrize("flag", ["--epsilon", "--deviation-cost", "--dev-threshold"])
def test_malformed_rational_flags_exit_2(flag, value, tmp_path, capsys):
    inputs = command_inputs("align", tmp_path, VALID_PNML)
    with pytest.raises(SystemExit) as exc:
        main(["align", *inputs, flag, value])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "not a finite rational number" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["align", "conformance", "bench"])
@pytest.mark.parametrize("method", ["astar", "lp", "hybrid", "both"])
def test_token_cap_below_the_initial_marking_exits_2_under_every_method(
    method, command, tmp_path, capsys
):
    # Two tokens start on one place, so a cap of 1 is invalid before any
    # move; under it, the final marking would also be out of reach.
    twice = PetriNet.build(["p0", "p1"], ["t"], [("p0", "t"), ("t", "p1")], {"t": "a"}, {"p0": 2}, {"p1": 2})
    inputs = command_inputs(command, tmp_path, serialize_pnml(twice))
    assert main([command, *inputs, "--method", method, "--token-cap", "1"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "token_cap=1" in err


def test_negative_trace_count_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--spec", "seq(a, b)", "--traces", "-1", "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()
