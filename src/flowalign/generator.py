"""Block-structured process models: spec parsing, net construction, playout.

A model spec is a nested term over four operators, e.g.
``seq(a, and(b, c), xor(d, loop(e, f)), g)``:

- ``seq(...)``  children in order
- ``xor(...)``  exactly one child
- ``and(...)``  children interleaved (parallel)
- ``loop(body, redo)``  body, then zero or more (redo, body) rounds

Leaves are activity labels.  Nets built from these terms are sound
workflow nets; ``and`` blocks introduce silent split/join transitions.
All randomness (playout, interleaving, loop rounds, edits) flows through
a caller-supplied ``random.Random``, one draw per decision point, so
corpora are reproducible from their seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidInputError, InvalidSpecError
from .model_io import EventLog, NoiseSpec, inject_noise, serialize_pnml, serialize_xes
from .petri import TAU, PetriNet, Trace


@dataclass(frozen=True)
class Act:
    label: str


@dataclass(frozen=True)
class Seq:
    children: tuple


@dataclass(frozen=True)
class Xor:
    children: tuple


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Loop:
    body: object
    redo: object


Block = Act | Seq | Xor | And | Loop

_TOKEN = re.compile(r"\s*([A-Za-z0-9_]+|[(),])")


def parse_block_spec(text: str) -> Block:
    """Parse a block term; labels are ``[A-Za-z0-9_]+`` words."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise InvalidSpecError(f"unexpected character at position {pos}: {text[pos]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    it = iter(range(len(tokens)))

    def parse(at: int) -> tuple[Block, int]:
        if at >= len(tokens):
            raise InvalidSpecError("unexpected end of spec")
        tok = tokens[at]
        if tok in ("(", ")", ","):
            raise InvalidSpecError(f"unexpected {tok!r}")
        if at + 1 < len(tokens) and tokens[at + 1] == "(":
            op = tok.lower()
            children = []
            at += 2
            if at < len(tokens) and tokens[at] == ")":
                raise InvalidSpecError(f"{op}() needs at least one child")
            while True:
                child, at = parse(at)
                children.append(child)
                if at >= len(tokens):
                    raise InvalidSpecError("missing closing parenthesis")
                if tokens[at] == ",":
                    at += 1
                    continue
                if tokens[at] == ")":
                    at += 1
                    break
                raise InvalidSpecError(f"expected ',' or ')', got {tokens[at]!r}")
            if op == "seq":
                return Seq(tuple(children)), at
            if op == "xor":
                return Xor(tuple(children)), at
            if op == "and":
                return And(tuple(children)), at
            if op == "loop":
                if len(children) != 2:
                    raise InvalidSpecError("loop(body, redo) takes exactly two children")
                return Loop(children[0], children[1]), at
            raise InvalidSpecError(f"unknown operator {op!r}")
        return Act(tok), at + 1

    block, at = parse(0)
    if at != len(tokens):
        raise InvalidSpecError(f"trailing tokens after spec: {' '.join(tokens[at:])}")
    if not alphabet_of(block):
        raise InvalidSpecError("spec has an empty activity alphabet")
    return block


def alphabet_of(block: Block) -> tuple[str, ...]:
    """Distinct activity labels in first-appearance order."""
    seen: dict[str, None] = {}

    def walk(b: Block) -> None:
        if isinstance(b, Act):
            seen.setdefault(b.label, None)
        elif isinstance(b, Loop):
            walk(b.body)
            walk(b.redo)
        else:
            for c in b.children:
                walk(c)

    walk(block)
    return tuple(seen)


def block_to_net(block: Block) -> PetriNet:
    """Sound workflow net for a block term.

    Ids are zero-padded counters so the canonical lexicographic order
    equals construction order.
    """
    places: list[str] = []
    transitions: list[str] = []
    labels: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []
    counters = {"p": 0, "t": 0}

    def new_place() -> str:
        pid = f"p{counters['p']:04d}"
        counters["p"] += 1
        places.append(pid)
        return pid

    def new_transition(label: str | None) -> str:
        tid = f"t{counters['t']:04d}"
        counters["t"] += 1
        transitions.append(tid)
        labels[tid] = label
        return tid

    def build(b: Block, entry: str, exit_: str) -> None:
        if isinstance(b, Act):
            t = new_transition(b.label)
            arcs.append((entry, t))
            arcs.append((t, exit_))
        elif isinstance(b, Seq):
            cur = entry
            for i, child in enumerate(b.children):
                nxt = exit_ if i == len(b.children) - 1 else new_place()
                build(child, cur, nxt)
                cur = nxt
        elif isinstance(b, Xor):
            for child in b.children:
                build(child, entry, exit_)
        elif isinstance(b, And):
            split = new_transition(TAU)
            join = new_transition(TAU)
            arcs.append((entry, split))
            arcs.append((join, exit_))
            for child in b.children:
                c_in, c_out = new_place(), new_place()
                arcs.append((split, c_in))
                arcs.append((c_out, join))
                build(child, c_in, c_out)
        elif isinstance(b, Loop):
            build(b.body, entry, exit_)
            build(b.redo, exit_, entry)
        else:
            raise InvalidSpecError(f"unknown block {b!r}")

    source = new_place()
    sink = new_place()
    build(block, source, sink)
    return _fuse_silent_series(
        PetriNet.build(
            places=places,
            transitions=transitions,
            arcs=arcs,
            labels=labels,
            initial={source: 1},
            final={sink: 1},
        )
    )


def _fuse_silent_series(net: PetriNet) -> PetriNet:
    """Fuse series-connected silent transitions into their neighbors.

    Two mirror-image reductions run to a fixpoint: a silent transition
    whose only input is an unmarked place with a single producer melts
    into that producer, and one whose only output is an unmarked place
    with a single consumer melts into that consumer.  Both preserve the
    visible language and soundness; split/join transitions of parallel
    blocks that sit between visible neighbors disappear entirely, so
    executions of such models align at cost exactly zero.
    """
    places = list(net.places)
    transitions = list(net.transitions)
    labels = dict(zip(net.transitions, net.labels))
    weight: dict[tuple[str, str], int] = {}
    for src, tgt, w in net.arcs:
        weight[(src, tgt)] = weight.get((src, tgt), 0) + w
    marked = {
        p
        for p, a, b in zip(net.places, net.initial_marking, net.final_marking)
        if a or b
    }

    def ins(node: str) -> list[tuple[str, int]]:
        return [(s, w) for (s, t), w in weight.items() if t == node]

    def outs(node: str) -> list[tuple[str, int]]:
        return [(t, w) for (s, t), w in weight.items() if s == node]

    changed = True
    while changed:
        changed = False
        for t in list(transitions):
            if labels[t] is not TAU:
                continue
            t_in, t_out = ins(t), outs(t)
            # forward fusion: (u) -> p -> (t)  becomes  u producing t's outputs
            if len(t_in) == 1 and t_in[0][1] == 1:
                p = t_in[0][0]
                if p not in marked and p not in {q for q, _ in t_out}:
                    p_in, p_out = ins(p), outs(p)
                    if len(p_out) == 1 and len(p_in) == 1 and p_in[0][1] == 1:
                        u = p_in[0][0]
                        for q, w in t_out:
                            weight[(u, q)] = weight.get((u, q), 0) + w
                        for key in [(u, p), (p, t)] + [(t, q) for q, _ in t_out]:
                            del weight[key]
                        places.remove(p)
                        transitions.remove(t)
                        del labels[t]
                        changed = True
                        continue
            # backward fusion: (t) -> p -> (v)  becomes  v consuming t's inputs
            if len(t_out) == 1 and t_out[0][1] == 1:
                p = t_out[0][0]
                if p not in marked and p not in {q for q, _ in t_in}:
                    p_in, p_out = ins(p), outs(p)
                    if len(p_in) == 1 and len(p_out) == 1 and p_out[0][1] == 1:
                        v = p_out[0][0]
                        for q, w in t_in:
                            weight[(q, v)] = weight.get((q, v), 0) + w
                        for key in [(t, p), (p, v)] + [(q, t) for q, _ in t_in]:
                            del weight[key]
                        places.remove(p)
                        transitions.remove(t)
                        del labels[t]
                        changed = True

    init = {p: v for p, v in zip(net.places, net.initial_marking) if v and p in places}
    final = {p: v for p, v in zip(net.places, net.final_marking) if v and p in places}
    return PetriNet.build(
        places=places,
        transitions=transitions,
        arcs=[(s, t, w) for (s, t), w in weight.items()],
        labels=labels,
        initial=init,
        final=final,
    )


def playout(
    block: Block,
    rng: random.Random,
    loop_continue: float = 0.3,
    max_loop_rounds: int = 3,
) -> tuple[str, ...]:
    """One random execution of the block.

    Draws, in order: one ``randrange`` per xor choice, one ``random()``
    per potential loop round, and one ``randrange`` per interleaving step
    of an ``and`` block (over children with events remaining).
    """
    if isinstance(block, Act):
        return (block.label,)
    if isinstance(block, Seq):
        out: list[str] = []
        for child in block.children:
            out.extend(playout(child, rng, loop_continue, max_loop_rounds))
        return tuple(out)
    if isinstance(block, Xor):
        child = block.children[rng.randrange(len(block.children))]
        return playout(child, rng, loop_continue, max_loop_rounds)
    if isinstance(block, Loop):
        out = list(playout(block.body, rng, loop_continue, max_loop_rounds))
        rounds = 0
        while rounds < max_loop_rounds and rng.random() < loop_continue:
            out.extend(playout(block.redo, rng, loop_continue, max_loop_rounds))
            out.extend(playout(block.body, rng, loop_continue, max_loop_rounds))
            rounds += 1
        return tuple(out)
    if isinstance(block, And):
        streams = [list(playout(c, rng, loop_continue, max_loop_rounds)) for c in block.children]
        out = []
        while True:
            active = [s for s in streams if s]
            if not active:
                break
            s = active[rng.randrange(len(active))]
            out.append(s.pop(0))
        return tuple(out)
    raise InvalidSpecError(f"unknown block {block!r}")


_EDIT_KINDS = ("insert", "delete", "swap", "substitute")


def apply_random_edits(
    activities: tuple[str, ...],
    n_edits: int,
    alphabet: tuple[str, ...],
    rng: random.Random,
    kinds: tuple[str, ...] = _EDIT_KINDS,
) -> tuple[str, ...]:
    """Apply exactly ``n_edits`` single edits, drawn uniformly from ``kinds``.

    Edits that need material the sequence lacks (deleting from an empty
    sequence, swapping fewer than two events, substituting with a
    one-letter alphabet) degrade to an insertion, keeping the edit count
    exact.
    """
    if not alphabet:
        raise InvalidSpecError("edits require a non-empty alphabet")
    unknown = set(kinds) - set(_EDIT_KINDS)
    if unknown:
        raise InvalidSpecError(f"unknown edit kinds: {sorted(unknown)}")
    seq = list(activities)
    for _ in range(n_edits):
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "delete" and not seq:
            kind = "insert"
        if kind == "swap" and len(seq) < 2:
            kind = "insert"
        if kind == "substitute" and (not seq or len(set(alphabet)) < 2):
            kind = "insert"
        if kind == "insert":
            pos = rng.randrange(len(seq) + 1)
            seq.insert(pos, alphabet[rng.randrange(len(alphabet))])
        elif kind == "delete":
            seq.pop(rng.randrange(len(seq)))
        elif kind == "swap":
            pos = rng.randrange(len(seq) - 1)
            seq[pos], seq[pos + 1] = seq[pos + 1], seq[pos]
        else:  # substitute with a different label
            pos = rng.randrange(len(seq))
            others = [a for a in alphabet if a != seq[pos]]
            seq[pos] = others[rng.randrange(len(others))]
    return tuple(seq)


def random_block(
    rng: random.Random,
    n_activities: int,
    p_loop: float = 0.25,
    p_and: float = 0.35,
) -> Block:
    """A random block tree using each of ``n_activities`` labels once.

    Labels are ``a0, a1, ...``; the alphabet is split recursively across
    operator children, so model size tracks the activity count.
    """
    if n_activities < 1:
        raise InvalidSpecError("need at least one activity")
    labels = [f"a{i}" for i in range(n_activities)]

    def grow(part: list[str]) -> Block:
        if len(part) == 1:
            return Act(part[0])
        if len(part) >= 3 and rng.random() < p_loop:
            cut = 1 + rng.randrange(len(part) - 1)
            body, redo = part[:cut], part[cut:]
            return Loop(grow(body), grow(redo))
        r = rng.random()
        op = And if r < p_and else (Xor if r < p_and + 0.25 else Seq)
        n_children = 2 if len(part) == 2 else 2 + rng.randrange(min(3, len(part) - 1))
        cuts = sorted(rng.sample(range(1, len(part)), n_children - 1))
        pieces = []
        prev = 0
        for c in cuts + [len(part)]:
            pieces.append(part[prev:c])
            prev = c
        return op(tuple(grow(p) for p in pieces))

    return grow(labels)


def generate_corpus(
    block: Block,
    n_traces: int,
    noise: NoiseSpec | None,
    seed: int,
    out_dir: str | Path,
) -> dict[str, Path]:
    """Write ``model.pnml``, ``clean.xes``, and (if noise does anything)
    ``noisy.xes`` under ``out_dir``; reproducible from ``seed``."""
    if n_traces < 0:
        raise InvalidInputError(f"trace count must be >= 0, got {n_traces}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net = block_to_net(block)
    rng = random.Random(seed)
    clean = tuple(
        Trace(f"case-{i}", playout(block, rng)) for i in range(n_traces)
    )
    paths = {"model": out / "model.pnml", "clean": out / "clean.xes"}
    paths["model"].write_bytes(serialize_pnml(net))
    paths["clean"].write_bytes(serialize_xes(EventLog(clean, source_name="clean")))
    if noise is not None and (noise.insert_prob or noise.delete_prob or noise.swap_prob):
        noisy = tuple(
            inject_noise(t, NoiseSpec(
                insert_prob=noise.insert_prob,
                delete_prob=noise.delete_prob,
                swap_prob=noise.swap_prob,
                alphabet=noise.alphabet or alphabet_of(block),
                seed=noise.seed + i,
            ))
            for i, t in enumerate(clean)
        )
        paths["noisy"] = out / "noisy.xes"
        paths["noisy"].write_bytes(serialize_xes(EventLog(noisy, source_name="noisy")))
    return paths
