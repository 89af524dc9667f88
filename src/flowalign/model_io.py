"""Model and log ingestion (PNML, XES, CSV) plus seeded noise injection.

Supported subsets: plain place/transition PNML (single page, no
hierarchy; unsupported elements are ignored with a warning) and XES
control flow (the ``concept:name`` string attribute of traces and
events; everything else is skipped).  ``.gz`` inputs are decompressed
transparently.  XES and CSV logs are read as a stream, one trace or row
at a time, and XES is written one trace at a time.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import random
import xml.etree.ElementTree as ET
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

from .errors import InvalidSpecError, ModelParseError, SemanticError
from .petri import TAU, PetriNet, Trace

log = logging.getLogger(__name__)

PNML_NS = "http://www.pnml.org/version-2009/grammar/pnml"
GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True)
class EventLog:
    """An ordered collection of traces; case ids need not be unique."""

    traces: tuple[Trace, ...]
    source_name: str = ""
    skipped_events: int = 0

    def __len__(self) -> int:
        return len(self.traces)


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters for :func:`inject_noise`.

    Probabilities apply per decision point: ``delete_prob`` per event,
    ``swap_prob`` per adjacent surviving pair, ``insert_prob`` per gap.
    """

    insert_prob: float = 0.0
    delete_prob: float = 0.0
    swap_prob: float = 0.0
    alphabet: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("insert_prob", "delete_prob", "swap_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidSpecError(f"{name} must be in [0, 1], got {v}")


def _count(text: str, what: str) -> int:
    """An integer cell: a token count or an arc weight."""
    try:
        return int(text)
    except ValueError:
        raise ModelParseError(f"{what} must be an integer, got {text!r}") from None


@contextmanager
def _input_stream(source: bytes | str | Path | IO[bytes]) -> Iterator[IO[bytes]]:
    """``source`` as a binary stream, gunzipped when it starts with the gzip
    magic.  A path is opened here and closed on exit; bytes, and a file
    object that cannot ``peek``, are read from memory.  A read or gzip
    error inside the block becomes :class:`ModelParseError`."""
    with ExitStack() as stack:
        if isinstance(source, (str, Path)):
            try:
                source = stack.enter_context(open(source, "rb"))
            except OSError as exc:
                raise ModelParseError(f"cannot read {source}: {exc}") from exc
        if hasattr(source, "peek"):
            stream, head = source, source.peek(2)[:2]
        else:
            data = source if isinstance(source, (bytes, bytearray)) else source.read()
            stream, head = io.BytesIO(data), data[:2]
        if head == GZIP_MAGIC:
            stream = gzip.GzipFile(fileobj=stream)
        try:
            yield stream
        except (OSError, EOFError, zlib.error) as exc:
            raise ModelParseError(f"unreadable input: {exc}") from exc


@contextmanager
def _xml_errors(what: str) -> Iterator[None]:
    """Parser errors inside the block become :class:`ModelParseError`."""
    try:
        yield
    except ET.ParseError as exc:
        line, col = exc.position
        raise ModelParseError(f"malformed {what} XML at line {line}, column {col}: {exc.msg}") from exc
    except (LookupError, ValueError) as exc:  # e.g. an unknown declared encoding
        raise ModelParseError(f"malformed {what} XML: {exc}") from exc


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _find_local(elem: ET.Element, name: str) -> ET.Element | None:
    for child in elem:
        if _local(child.tag) == name:
            return child
    return None


def _text_of(elem: ET.Element | None) -> str | None:
    if elem is None:
        return None
    t = _find_local(elem, "text")
    if t is not None:
        return (t.text or "").strip()
    return (elem.text or "").strip()


_PNML_KNOWN = {
    "pnml", "net", "page", "place", "transition", "arc", "name", "text",
    "initialMarking", "finalmarkings", "marking", "inscription",
    "toolspecific", "graphics", "position", "dimension", "offset", "fill", "line",
}


def _is_invisible(trans: ET.Element) -> bool:
    if trans.get("invisible", "").lower() == "true":
        return True
    for child in trans.iter():
        if _local(child.tag) == "toolspecific" and child.get("activity") == "$invisible$":
            return True
    return False


def parse_pnml(source: bytes | str | Path | IO[bytes]) -> PetriNet:
    """Read a place/transition net from PNML.

    Transitions whose name is absent, empty, or marked invisible are
    labeled :data:`~flowalign.petri.TAU`.  The final marking comes from a
    ``finalmarkings`` section when present and is otherwise inferred as
    one token in each sink place.
    """
    with _input_stream(source) as stream, _xml_errors("PNML"):
        root = ET.fromstring(stream.read())
    net_elem = None
    for elem in root.iter():
        if _local(elem.tag) == "net":
            net_elem = elem
            break
    if net_elem is None:
        raise SemanticError("PNML file contains no <net> element")

    places: list[str] = []
    initial: dict[str, int] = {}
    labels: dict[str, str | None] = {}
    transitions: list[str] = []
    arcs: list[tuple[str, str, int]] = []
    final: dict[str, int] = {}
    saw_finalmarkings = False
    unknown_tags: set[str] = set()

    # Walk without descending into finalmarkings: its <place idref=...>
    # children are references, not place declarations.
    stack = [net_elem]
    elements: list[ET.Element] = []
    while stack:
        node = stack.pop()
        elements.append(node)
        if _local(node.tag) not in ("finalmarkings", "place", "transition", "arc"):
            stack.extend(reversed(list(node)))

    for elem in elements:
        tag = _local(elem.tag)
        if tag not in _PNML_KNOWN:
            unknown_tags.add(tag)
            continue
        if tag == "place":
            pid = elem.get("id")
            if pid is None:
                raise SemanticError("place without id")
            places.append(pid)
            tokens = _text_of(_find_local(elem, "initialMarking"))
            if tokens:
                initial[pid] = _count(tokens, f"initial marking of {pid!r}")
        elif tag == "transition":
            tid = elem.get("id")
            if tid is None:
                raise SemanticError("transition without id")
            transitions.append(tid)
            name = _text_of(_find_local(elem, "name"))
            if not name or _is_invisible(elem):
                labels[tid] = TAU
            else:
                labels[tid] = name
        elif tag == "arc":
            src, tgt = elem.get("source"), elem.get("target")
            if src is None or tgt is None:
                raise SemanticError(f"arc {elem.get('id')!r} lacks source/target")
            w = _text_of(_find_local(elem, "inscription"))
            arcs.append((src, tgt, _count(w, f"inscription of arc {src!r} -> {tgt!r}") if w else 1))
        elif tag == "finalmarkings":
            saw_finalmarkings = True
            first = _find_local(elem, "marking")
            if first is not None:
                for pl in first:
                    if _local(pl.tag) != "place":
                        continue
                    ref = pl.get("idref")
                    count = _text_of(pl)
                    final[ref] = _count(count, f"final marking of {ref!r}") if count else 1

    if unknown_tags:
        log.warning("ignoring unsupported PNML elements: %s", ", ".join(sorted(unknown_tags)))

    known = set(places) | set(transitions)
    for src, tgt, _ in arcs:
        if src not in known:
            raise SemanticError(f"arc references unknown node id {src!r}")
        if tgt not in known:
            raise SemanticError(f"arc references unknown node id {tgt!r}")

    if not saw_finalmarkings:
        outgoing = {src for src, _, _ in arcs}
        final = {p: 1 for p in places if p not in outgoing}
    if not initial:
        raise SemanticError("no place carries an initial token")
    if not set(places).issuperset(final):
        raise SemanticError("final marking references an unknown place")
    if not final:
        raise SemanticError("no final marking given and none derivable from sink places")

    return PetriNet.build(places, transitions, arcs, labels, initial, final)


def serialize_pnml(net: PetriNet, net_id: str = "net1") -> bytes:
    """Write the supported PNML subset; inverse of :func:`parse_pnml`."""
    root = ET.Element("pnml")
    net_el = ET.SubElement(root, "net", id=net_id, type="http://www.pnml.org/version-2009/grammar/ptnet")
    page = ET.SubElement(net_el, "page", id="page1")
    for p, tokens in zip(net.places, net.initial_marking):
        pl = ET.SubElement(page, "place", id=p)
        if tokens:
            ET.SubElement(ET.SubElement(pl, "initialMarking"), "text").text = str(tokens)
    for t, lbl in zip(net.transitions, net.labels):
        tr = ET.SubElement(page, "transition", id=t)
        if lbl is not TAU:
            ET.SubElement(ET.SubElement(tr, "name"), "text").text = lbl
    for i, (src, tgt, w) in enumerate(net.arcs):
        arc = ET.SubElement(page, "arc", id=f"a{i}", source=src, target=tgt)
        if w != 1:
            ET.SubElement(ET.SubElement(arc, "inscription"), "text").text = str(w)
    fm = ET.SubElement(net_el, "finalmarkings")
    marking = ET.SubElement(fm, "marking")
    for p, tokens in zip(net.places, net.final_marking):
        if tokens:
            pl = ET.SubElement(marking, "place", idref=p)
            ET.SubElement(pl, "text").text = str(tokens)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


_UNNAMED = object()  # an event with no concept:name string read yet


class _XesReader:
    """The parser target of :func:`parse_xes`.

    It keeps no element: only the local names of the open elements, and
    the case id and activities of each open trace and the name of each
    open event read so far.  A ``Trace`` is made when its tag closes.
    """

    def __init__(self) -> None:
        self.root: str | None = None
        self.traces: list[Trace] = []
        self.skipped = 0
        self._open: list[str] = []  # local names of the open elements
        self._traces: list[list] = []  # [case id, activities] per open trace
        self._events: list[list] = []  # [name, child of a trace?] per open event
        self._names: dict[str, str] = {}  # one str per distinct activity
        self._local: dict[str, str] = {}  # tag -> local name

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        name = self._local.get(tag)
        if name is None:
            name = self._local[tag] = _local(tag)
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        if parent is None:
            self.root = name
        if name == "string":
            if attrib.get("key") == "concept:name":
                if parent == "trace":
                    self._traces[-1][0] = attrib.get("value")
                elif parent == "event" and self._events[-1][0] is _UNNAMED:
                    self._events[-1][0] = attrib.get("value")
        elif name == "trace":
            self._traces.append([None, []])
        elif name == "event":
            self._events.append([_UNNAMED, parent == "trace"])

    def end(self, tag: str) -> None:
        name = self._open.pop()
        if name == "trace":
            case_id, activities = self._traces.pop()
            if case_id is None:
                case_id = f"case-{len(self.traces)}"
            self.traces.append(Trace(case_id, tuple(activities)))
        elif name == "event":
            activity, in_trace = self._events.pop()
            if not in_trace:
                return
            if activity is _UNNAMED or activity is None:
                self.skipped += 1
            else:
                self._traces[-1][1].append(self._names.setdefault(activity, activity))


def parse_xes(source: bytes | str | Path | IO[bytes], source_name: str = "") -> EventLog:
    """Read an event log from XES.

    One :class:`Trace` per ``<trace>``, in the order the traces close (file
    order; a nested trace comes before the trace that holds it); the case
    id is the trace's last ``concept:name`` string child and the activity
    the event's first.  Events lacking it are skipped and counted in
    ``EventLog.skipped_events``.  A document whose root is not ``<log>``
    raises :class:`ModelParseError`.  No element tree is built: the parse
    holds one trace's fields at a time.
    """
    if not source_name and isinstance(source, (str, Path)):
        source_name = str(source)
    reader = _XesReader()
    with _input_stream(source) as stream, _xml_errors("XES"):
        parser = ET.XMLParser(target=reader)
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            parser.feed(chunk)
        parser.close()
    if reader.root != "log":
        raise ModelParseError(f"XES root element is <{reader.root}>, not <log>")
    if reader.skipped:
        log.warning("skipped %d events without concept:name", reader.skipped)
    return EventLog(tuple(reader.traces), source_name=source_name, skipped_events=reader.skipped)


_ATTRIB_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)


def _name_attr(value: str) -> str:
    """A ``concept:name`` string attribute, escaped as ElementTree escapes it."""
    return f'<string key="concept:name" value="{value.translate(_ATTRIB_ESCAPES)}" />'


def serialize_xes(event_log: EventLog) -> bytes:
    """Write the supported XES subset; inverse of :func:`parse_xes`.

    The document is written as text, one trace at a time, and is byte for
    byte what ElementTree's ``tostring`` writes for the same tree.
    """
    if not event_log.traces:
        parts = ['<log xes.version="1.0" />']
    else:
        parts = ['<log xes.version="1.0">']
        events: dict[str, str] = {}  # one event element per distinct activity
        for trace in event_log.traces:
            parts.append("<trace>" + _name_attr(trace.case_id))
            for act in trace.activities:
                event = events.get(act)
                if event is None:
                    event = events[act] = f"<event>{_name_attr(act)}</event>"
                parts.append(event)
            parts.append("</trace>")
        parts.append("</log>")
    text = "<?xml version='1.0' encoding='utf-8'?>\n" + "".join(parts)
    return text.encode("utf-8", "xmlcharrefreplace")


def read_csv_log(source: bytes | str | Path | IO[bytes], source_name: str = "") -> EventLog:
    """Read a flat log with columns ``case_id,activity,order``, one row at a time.

    Traces appear in order of first appearance of their case id; events
    within a case are sorted by the numeric ``order`` column.
    """
    if not source_name and isinstance(source, (str, Path)):
        source_name = str(source)
    required = {"case_id", "activity", "order"}
    by_case: dict[str, list[tuple[int, str]]] = {}
    names: dict[str, str] = {}  # one str per distinct activity
    with _input_stream(source) as stream:
        text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
        try:
            reader = csv.DictReader(text)
            fieldnames = reader.fieldnames
            if fieldnames is None or not required.issubset(fieldnames):
                raise ModelParseError(f"CSV log must have columns {sorted(required)}, got {fieldnames}")
            for n, row in enumerate(reader, 1):
                cid, activity, order = row["case_id"], row["activity"], row["order"]
                if None in (cid, activity, order):
                    raise ModelParseError(f"CSV record {n} lacks a cell")
                try:
                    pos = int(order)
                except ValueError as exc:
                    raise ModelParseError(f"non-integer order value {order!r}") from exc
                by_case.setdefault(cid, []).append((pos, names.setdefault(activity, activity)))
        except UnicodeDecodeError as exc:
            raise ModelParseError(f"CSV log is not valid UTF-8: {exc}") from exc
        except csv.Error as exc:
            raise ModelParseError(f"malformed CSV log: {exc}") from exc
        finally:
            text.detach()  # the caller's file object stays open
    traces = tuple(
        Trace(cid, tuple(act for _, act in sorted(events, key=lambda x: x[0])))
        for cid, events in by_case.items()
    )
    return EventLog(traces, source_name=source_name)


def inject_noise(trace: Trace, spec: NoiseSpec) -> Trace:
    """Apply seeded deletions, adjacent swaps, then insertions.

    The random stream is a Mersenne Twister (``random.Random(spec.seed)``)
    consumed in a fixed order, one draw per decision point:

    1. one uniform draw per event, left to right (delete when below
       ``delete_prob``);
    2. one draw per adjacent survivor pair, left to right, skipping past
       a swapped pair (swap when below ``swap_prob``);
    3. one draw per gap (before each survivor and after the last), left
       to right; on insertion one further draw picks the label index in
       ``spec.alphabet``.

    The result's case id gets a ``-noisy`` suffix.
    """
    if spec.insert_prob > 0 and not spec.alphabet:
        raise InvalidSpecError("insert_prob > 0 requires a non-empty alphabet")
    rng = random.Random(spec.seed)

    survivors = [a for a in trace.activities if rng.random() >= spec.delete_prob]

    i = 0
    while i + 1 < len(survivors):
        if rng.random() < spec.swap_prob:
            survivors[i], survivors[i + 1] = survivors[i + 1], survivors[i]
            i += 2
        else:
            i += 1

    out: list[str] = []
    for gap in range(len(survivors) + 1):
        if rng.random() < spec.insert_prob:
            out.append(spec.alphabet[rng.randrange(len(spec.alphabet))])
        if gap < len(survivors):
            out.append(survivors[gap])

    return Trace(trace.case_id + "-noisy", tuple(out))
