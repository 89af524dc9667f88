import gzip
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowalign.errors import InvalidSpecError, ModelParseError, SemanticError
from flowalign.generator import block_to_net, parse_block_spec, playout, random_block
from flowalign.model_io import (
    EventLog,
    NoiseSpec,
    inject_noise,
    parse_pnml,
    parse_xes,
    read_csv_log,
    serialize_pnml,
    serialize_xes,
)
from flowalign.petri import TAU, Trace
from oracles import etree_xes

SMALL_PNML = b"""<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n1" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="pg">
      <place id="p1"><initialMarking><text>1</text></initialMarking></place>
      <place id="p2"/>
      <place id="p3"/>
      <transition id="t1"><name><text>a</text></name></transition>
      <transition id="t2"/>
      <arc id="a1" source="p1" target="t1"/>
      <arc id="a2" source="t1" target="p2"/>
      <arc id="a3" source="p2" target="t2"/>
      <arc id="a4" source="t2" target="p3"/>
    </page>
  </net>
</pnml>
"""


class TestParsePnml:
    def test_round_trip_identity(self, fig_acyclic):
        assert parse_pnml(serialize_pnml(fig_acyclic)) == fig_acyclic

    def test_round_trip_identity_insurance(self, insurance):
        assert parse_pnml(serialize_pnml(insurance)) == insurance

    def test_acyclic_net_markings(self, fig_acyclic):
        net = parse_pnml(serialize_pnml(fig_acyclic))
        assert len(net.places) == 6 and len(net.transitions) == 5
        assert net.initial_marking == (1, 0, 0, 0, 0, 0)
        assert net.final_marking == (0, 0, 0, 0, 0, 1)

    def test_unnamed_transition_is_silent(self):
        net = parse_pnml(SMALL_PNML)
        assert net.label("t1") == "a"
        assert net.label("t2") is TAU

    def test_invisible_marker_is_silent(self):
        data = SMALL_PNML.replace(
            b"<transition id=\"t1\"><name><text>a</text></name></transition>",
            b"<transition id=\"t1\"><name><text>a</text></name>"
            b"<toolspecific tool=\"x\" version=\"1\" activity=\"$invisible$\"/></transition>",
        )
        assert parse_pnml(data).label("t1") is TAU

    def test_final_marking_inferred_from_sinks(self):
        net = parse_pnml(SMALL_PNML)
        assert net.final_marking == (0, 0, 1)  # p3 is the only sink place

    def test_unknown_arc_endpoint(self):
        bad = SMALL_PNML.replace(b'source="p1"', b'source="nope"')
        with pytest.raises(SemanticError, match="nope"):
            parse_pnml(bad)

    def test_malformed_xml_reports_position(self):
        with pytest.raises(ModelParseError, match=r"line \d+, column \d+"):
            parse_pnml(b"<pnml><net></pnml>")

    def test_no_initial_token_is_semantic_error(self):
        bad = SMALL_PNML.replace(b"<initialMarking><text>1</text></initialMarking>", b"")
        with pytest.raises(SemanticError, match="initial"):
            parse_pnml(bad)

    def test_gzip_transparent(self, fig_acyclic, tmp_path):
        path = tmp_path / "net.pnml.gz"
        path.write_bytes(gzip.compress(serialize_pnml(fig_acyclic)))
        assert parse_pnml(path) == fig_acyclic

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelParseError):
            parse_pnml(tmp_path / "absent.pnml")


class TestFinalMarkingInference:
    def test_sink_place_gets_token(self):
        data = b"""<pnml><net id="n"><page id="g">
          <place id="src"><initialMarking><text>1</text></initialMarking></place>
          <place id="snk"/>
          <transition id="t"><name><text>a</text></name></transition>
          <arc id="a1" source="src" target="t"/>
          <arc id="a2" source="t" target="snk"/>
        </page></net></pnml>"""
        net = parse_pnml(data)
        assert net.final_marking == (1, 0)  # places sorted: snk, src

    def test_no_final_derivable(self):
        data = b"""<pnml><net id="n"><page id="g">
          <place id="p"><initialMarking><text>1</text></initialMarking></place>
          <transition id="t"><name><text>a</text></name></transition>
          <arc id="a1" source="p" target="t"/>
          <arc id="a2" source="t" target="p"/>
        </page></net></pnml>"""
        with pytest.raises(SemanticError, match="final"):
            parse_pnml(data)


SMALL_XES = b"""<?xml version="1.0"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="case-1"/>
    <event><string key="concept:name" value="a"/></event>
    <event><string key="concept:name" value="b"/></event>
    <event><string key="concept:name" value="e"/></event>
  </trace>
</log>
"""


class TestParseXes:
    def test_single_trace(self):
        log = parse_xes(SMALL_XES)
        assert len(log) == 1
        assert log.traces[0] == Trace("case-1", ("a", "b", "e"))

    def test_event_without_name_is_skipped(self):
        data = SMALL_XES.replace(
            b'<event><string key="concept:name" value="b"/></event>',
            b'<event><string key="lifecycle:transition" value="complete"/></event>',
        )
        log = parse_xes(data)
        assert log.traces[0].activities == ("a", "e")
        assert log.skipped_events == 1

    def test_traces_in_file_order(self):
        log = parse_xes(serialize_xes(EventLog(tuple(
            Trace(f"c{i}", ("a",) * i) for i in range(3)
        ))))
        assert [t.case_id for t in log.traces] == ["c0", "c1", "c2"]

    def test_empty_log_is_not_an_error(self):
        assert len(parse_xes(b"<log/>")) == 0

    def test_round_trip(self):
        log = EventLog((Trace("x", ("a", "b")), Trace("y", ())), source_name="s")
        back = parse_xes(serialize_xes(log))
        assert back.traces == log.traces

    def test_nested_trace_comes_before_its_holder(self):
        # Traces are read as they close; the outer trace keeps only its own events.
        data = b"""<log>
          <trace><string key="concept:name" value="outer"/>
            <event><string key="concept:name" value="a"/></event>
            <trace><string key="concept:name" value="inner"/>
              <event><string key="concept:name" value="b"/></event>
            </trace>
          </trace>
        </log>"""
        assert parse_xes(data).traces == (Trace("inner", ("b",)), Trace("outer", ("a",)))

    def test_one_string_per_activity(self):
        log = parse_xes(serialize_xes(EventLog((Trace("x", ("step a",)), Trace("y", ("step a",))))))
        assert log.traces[0].activities[0] is log.traces[1].activities[0]


LOG = EventLog((Trace("c1", ("a", "b", "e")), Trace("c2", ("a", "x", "e"))))


class TestLogSources:
    """Every kind of source reads the same log."""

    def test_xes_gzip_bytes(self):
        assert parse_xes(gzip.compress(serialize_xes(LOG))).traces == LOG.traces

    def test_xes_path(self, tmp_path):
        path = tmp_path / "log.xes"
        path.write_bytes(serialize_xes(LOG))
        back = parse_xes(path)
        assert back.traces == LOG.traces and back.source_name == str(path)

    def test_xes_gzip_path(self, tmp_path):
        path = tmp_path / "log.xes.gz"
        path.write_bytes(gzip.compress(serialize_xes(LOG)))
        assert parse_xes(path).traces == LOG.traces

    def test_xes_open_file_stays_open(self, tmp_path):
        path = tmp_path / "log.xes"
        path.write_bytes(serialize_xes(LOG))
        with open(path, "rb") as fh:
            assert parse_xes(fh).traces == LOG.traces
            assert not fh.closed

    def test_csv_gzip_path(self, tmp_path):
        path = tmp_path / "log.csv.gz"
        rows = b"case_id,activity,order\nc1,a,1\nc2,a,1\nc1,e,3\nc2,x,2\nc1,b,2\nc2,e,3\n"
        path.write_bytes(gzip.compress(rows))
        assert read_csv_log(path).traces == LOG.traces


# XML-special characters, control characters the writer escapes, a quote it
# does not, non-ASCII text, and a lone surrogate (written as a character
# reference, which no XML parser accepts).
XES_TEXT = st.one_of(
    st.text(st.sampled_from(["&", "<", ">", '"', "'", "\r", "\n", "\t", "a", " ", "é", "€", "\U0001f600", "\ud800"])),
    st.text(),
)


def _xml_chars(text: str) -> bool:
    return all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
        for c in text
    )


@given(st.lists(st.tuples(XES_TEXT, st.lists(XES_TEXT, max_size=4)), max_size=4))
@settings(max_examples=200, deadline=None)
def test_xes_writer_matches_elementtree(cases):
    log = EventLog(tuple(Trace(cid, tuple(acts)) for cid, acts in cases))
    data = serialize_xes(log)
    assert data == etree_xes(log)
    if all(_xml_chars(cid) and all(map(_xml_chars, acts)) for cid, acts in cases):
        assert parse_xes(data).traces == log.traces


LOOP_BLOCK = parse_block_spec("seq(a, xor(b, seq(c, d)), loop(e, f))")
RNG = random.Random(7)
PLAYOUTS = [playout(LOOP_BLOCK, RNG) for _ in range(50)]
# Transient memory (peak minus the parsed log) of a parse.  A whole-tree
# parse holds about 3.5 KB per case of these logs (14 MB at 4,000 cases).
# An element-per-trace stream that clears each <trace> still leaves the
# emptied element under the root until the parse ends, about 80 bytes per
# case (0.27 MB at 1,000 cases, 0.51 MB at 4,000).  The parse builds no
# element, so only the parser's buffers and one trace's fields are
# transient (about 0.2 MB at either size); what grows with the log is the
# list of traces, copied once into the log's tuple (8 bytes a case).
TRANSIENT_BOUND = 1 << 20
GROWTH_BYTES_PER_CASE = 16


def test_parse_holds_bounded_memory(tmp_path):
    transient = {}
    for cases in (1_000, 4_000):
        path = tmp_path / f"log-{cases}.xes"
        path.write_bytes(serialize_xes(EventLog(tuple(
            Trace(f"case-{k}", PLAYOUTS[k % len(PLAYOUTS)]) for k in range(cases)
        ))))
        tracemalloc.start()
        try:
            log = parse_xes(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) == cases
        transient[cases] = peak - current
    assert max(transient.values()) < TRANSIENT_BOUND, transient
    assert transient[4_000] - transient[1_000] < 3_000 * GROWTH_BYTES_PER_CASE, transient


class TestCsvLog:
    def test_basic(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "case_id,activity,order\nc1,a,1\nc2,x,1\nc1,b,2\nc1,e,3\nc2,y,2\n"
        )
        log = read_csv_log(path)
        assert [t.case_id for t in log.traces] == ["c1", "c2"]
        assert log.traces[0].activities == ("a", "b", "e")
        assert log.traces[1].activities == ("x", "y")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case,act\nc,a\n")
        with pytest.raises(ModelParseError, match="columns"):
            read_csv_log(path)

    def test_invalid_utf8_after_the_first_rows(self):
        rows = b"case_id,activity,order\n" + b"c1,a,1\n" * 10_000 + b"c1,\xff,2\n"
        with pytest.raises(ModelParseError, match="UTF-8"):
            read_csv_log(rows)

    def test_one_string_per_activity(self):
        log = read_csv_log(b"case_id,activity,order\nc1,step a,1\nc2,step a,1\n")
        assert log.traces[0].activities[0] is log.traces[1].activities[0]


class TestInjectNoise:
    def test_zero_probabilities_are_identity(self):
        trace = Trace("c", ("a", "b", "e"))
        out = inject_noise(trace, NoiseSpec(seed=7))
        assert out.activities == trace.activities
        assert out.case_id == "c-noisy"

    def test_delete_all(self):
        out = inject_noise(Trace("c", ("a", "b", "e")), NoiseSpec(delete_prob=1.0, seed=3))
        assert out.activities == ()

    def test_seed_determinism(self):
        spec = NoiseSpec(insert_prob=0.5, alphabet=("x",), seed=42)
        trace = Trace("c", ("a", "b", "e"))
        first = inject_noise(trace, spec)
        assert inject_noise(trace, spec) == first
        assert inject_noise(trace, NoiseSpec(insert_prob=0.5, alphabet=("x",), seed=43)) != first

    def test_insert_needs_alphabet(self):
        with pytest.raises(InvalidSpecError):
            inject_noise(Trace("c", ("a",)), NoiseSpec(insert_prob=0.5, seed=1))

    def test_bad_probability(self):
        with pytest.raises(InvalidSpecError):
            NoiseSpec(delete_prob=1.5)

    @given(st.lists(st.sampled_from("abc"), max_size=20), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_delete_only_output_is_subsequence(self, acts, seed):
        out = inject_noise(Trace("c", tuple(acts)), NoiseSpec(delete_prob=0.5, seed=seed))
        it = iter(acts)
        assert all(any(a == b for b in it) for a in out.activities)


@given(st.integers(0, 10**6), st.integers(2, 10))
@settings(max_examples=30, deadline=None)
def test_pnml_round_trip_on_generated_models(seed, n_act):
    net = block_to_net(random_block(random.Random(seed), n_act))
    assert parse_pnml(serialize_pnml(net)) == net
