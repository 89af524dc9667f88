"""The explicit linear-algebra view of alignment, which no engine runs.

The engines solve the flow LP by label setting on a counted graph and
A*'s marking equation on the model.  The tests also check what the paper
says about the matrices themselves, and for that they need the objects
here: single-transition firing, the trace model and the product as Petri
nets, the node-arc incidence matrix as sparse triplets and a flow problem
parsed from it, the 0/1 flow vector, the marking-equation bound at a full
product marking, and the step-indexed MILP with its non-TU witness.

Total unimodularity is decided exactly: ``tu_certificate`` checks a
sparse {0, ±1} matrix with at most two nonzeros per column by the
Heller-Tompkins row-class test, returning the classes or an odd cycle
with |det| = 2.  ``build_milp_matrices`` builds the direct
synchronous-product formulation as int row tuples; its combined
constraint matrix is in general *not* totally unimodular, and
``MilpMatrices.witness`` constructs a 2x2 submatrix with |det| >= 2 that
proves it.  Everything here is exact integer or ``Fraction`` arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from flowalign.astar import MarkingEquation
from flowalign.errors import InternalInvariantError, InvalidInputError
from flowalign.flow import FlowProblem, FlowSolution
from flowalign.petri import IntMatrix, Marking, PetriNet, Trace, firing_data, incidence_matrices, trace_ids
from flowalign.reachability import ReachabilityGraph
from flowalign.simplex import integers
from flowalign.sync_product import MoveKind, SynchronousProduct, _trace_renaming


# Petri nets: firing one transition, the trace model, the product net.


class NotEnabledError(InvalidInputError):
    """A transition was fired at a marking that does not enable it."""

    def __init__(self, transition: str, deficient_places: list[str]):
        self.transition = transition
        self.deficient_places = list(deficient_places)
        super().__init__(
            f"transition {transition!r} is not enabled; "
            f"deficient places: {', '.join(deficient_places) or '(none)'}"
        )


def labeling(net: PetriNet) -> dict[str, str | None]:
    """Each transition's label, as :meth:`PetriNet.build` takes them."""
    return dict(zip(net.transitions, net.labels))


def _check_marking(net: PetriNet, m: Marking) -> None:
    if len(m) != len(net.places):
        raise InvalidInputError(
            f"marking has {len(m)} entries but the net has {len(net.places)} places"
        )


def enabled_transitions(net: PetriNet, m: Marking) -> set[str]:
    """All transitions enabled at ``m``: those with ``m >= w_minus(., t)``."""
    _check_marking(net, m)
    pre, _ = firing_data(net)
    out = set()
    for j, t in enumerate(net.transitions):
        if all(m[i] >= w for i, w in pre[j]):
            out.add(t)
    return out


def fire(net: PetriNet, m: Marking, t: str) -> Marking:
    """Fire ``t`` at ``m`` and return the successor marking.

    Raises :class:`NotEnabledError` (naming the deficient places) if ``t``
    is not enabled.
    """
    _check_marking(net, m)
    if t not in net.transition_index:
        raise InvalidInputError(f"unknown transition {t!r}")
    j = net.transition_index[t]
    pre, post = firing_data(net)
    deficient = [net.places[i] for i, w in pre[j] if m[i] < w]
    if deficient:
        raise NotEnabledError(t, deficient)
    out = list(m)
    for i, w in pre[j]:
        out[i] -= w
    for i, w in post[j]:
        out[i] += w
    return tuple(out)


def build_trace_model(trace: Trace) -> PetriNet:
    """Linear Petri net encoding one trace.

    For an ``n``-event trace: places ``p0..pn`` and transitions ``t1..tn``
    (see :func:`~flowalign.petri.trace_ids`); transition ``ti`` consumes
    ``p(i-1)`` and produces ``pi`` and is labeled with the i-th activity.
    Initial marking ``[p0]``, final marking ``[pn]``.
    """
    n = len(trace.activities)
    places, transitions = trace_ids(n)
    arcs = [(places[i], t) for i, t in enumerate(transitions)]
    arcs += [(t, places[i + 1]) for i, t in enumerate(transitions)]
    labels = dict(zip(transitions, trace.activities))
    return PetriNet.build(places, transitions, arcs, labels, {places[0]: 1}, {places[n]: 1})


def product_net(sp: SynchronousProduct) -> PetriNet:
    """The product as a Petri net: the process places, then the renamed
    places of the trace model (:func:`build_trace_model`); one transition
    per move, named by ``move_id``, with the arcs of its process
    transition, then of its trace transition."""
    sn = sp.process_net
    places, trans = _trace_renaming(sn, len(sp.trace_labels))
    # The trace transition of event pos + 1 moves the token from place pos to pos + 1.
    into = {t: [(places[pos], 1)] for pos, t in enumerate(trans)}
    out = {t: [(places[pos + 1], 1)] for pos, t in enumerate(trans)}
    for src, tgt, w in sn.arcs:
        if src in sn.transition_index:
            out.setdefault(src, []).append((tgt, w))
        else:
            into.setdefault(tgt, []).append((src, w))
    arcs: list[tuple[str, str, int]] = []
    for move in sp.moves:
        for t in (move.process_transition, move.trace_transition):
            if t is not None:
                arcs += [(p, move.move_id, w) for p, w in into.get(t, ())]
                arcs += [(move.move_id, p, w) for p, w in out.get(t, ())]
    return PetriNet(
        places=sn.places + tuple(places),
        transitions=tuple(m.move_id for m in sp.moves),
        arcs=tuple(arcs),
        labels=tuple(m.label_pair[1] if m.kind is MoveKind.LOG else m.label_pair[0] for m in sp.moves),
        initial_marking=sp.initial_marking,
        final_marking=sp.final_marking,
    )


# A*'s marking equation at a full product marking.


class MarkingKeyedProduct(SynchronousProduct):
    """A product whose states are keyed by full product markings."""

    def state(self, m: Marking) -> tuple[Marking, int]:
        """The process marking and trace position of product marking ``m``."""
        width = len(self.process_net.places)
        trace = m[width:]
        if len(m) != len(self.final_marking) or sorted(trace) != [0] * (len(trace) - 1) + [1]:
            raise InvalidInputError("marking does not index the product's places with one trace token")
        return m[:width], trace.index(1)


def marking_equation(sp: SynchronousProduct) -> MarkingEquation:
    """A :class:`~flowalign.astar.MarkingEquation` keyed by full product markings."""
    return MarkingEquation(MarkingKeyedProduct(sp.process_net, sp.trace_labels, sp.cost, sp.token_cap))


def marking_equation_heuristic(sp: SynchronousProduct, m: Marking) -> Fraction | float:
    """Optimal value of the state-equation relaxation from ``m`` to m_f.

    ``math.inf`` when even the relaxation cannot reach m_f (a dead end);
    always a lower bound on the remaining alignment cost.  Raises
    :class:`InvalidInputError` unless ``m`` indexes the product's places
    with exactly one token on the trace part.
    """
    if m == sp.final_marking:
        return Fraction(0)
    relaxation = marking_equation(sp)
    h = relaxation(m)
    return h if h == math.inf else Fraction(h, relaxation.scale)


# The node-arc incidence matrix and the flow LP written on it.


@dataclass(frozen=True, eq=False)
class NodeArcIncidence:
    """A matrix as sparse {0, ±1} triplets ``(row, col, value)``.

    A graph's node-arc incidence has one +1 (the edge's tail row) and one
    -1 (its head row) per column, which makes it totally unimodular.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]


def node_arc_incidence(rg: ReachabilityGraph) -> NodeArcIncidence:
    """One column per edge, +1 at the tail row and -1 at the head row."""
    entries: list[tuple[int, int, int]] = []
    for c, (t, h) in enumerate(zip(rg.tails, rg.heads)):
        entries.append((t, c, 1))
        entries.append((h, c, -1))
    return NodeArcIncidence(rows=len(rg.nodes), cols=len(rg.tails), entries=tuple(entries))


def edge_endpoints(b: NodeArcIncidence) -> tuple[list[int], list[int]]:
    """The tail row (+1) and head row (-1) of every column.

    Raises :class:`InvalidInputError` unless every column holds exactly one
    +1 and one -1 and nothing else, inside the matrix's bounds.
    """
    tails = [-1] * b.cols
    heads = [-1] * b.cols
    for r, c, v in b.entries:
        ends = tails if v == 1 else heads if v == -1 else None
        if ends is None or not (0 <= c < b.cols and 0 <= r < b.rows) or ends[c] != -1:
            raise InvalidInputError(f"incidence entry ({r}, {c}, {v}) breaks the edge-column structure")
        ends[c] = r
    if -1 in tails or -1 in heads:
        raise InvalidInputError("incidence matrix has a column without both endpoints")
    return tails, heads


def check_tu_column_structure(b: NodeArcIncidence) -> bool:
    """True iff every column is exactly one +1 and one -1 (and nothing else)."""
    try:
        edge_endpoints(b)
    except InvalidInputError:
        return False
    return True


def flow_problem(incidence: NodeArcIncidence, costs: Sequence[Fraction], source: int, sink: int) -> FlowProblem:
    """A problem on an explicit incidence matrix, one cost per column.

    Raises :class:`InvalidInputError` unless every column holds exactly
    one +1 and one -1 and there is one cost per column.
    """
    tails, heads = edge_endpoints(incidence)
    if len(costs) != incidence.cols:
        raise InvalidInputError(f"{len(costs)} costs for {incidence.cols} columns")
    move_costs, scale = integers(costs)
    return FlowProblem(incidence.rows, tails, heads, range(incidence.cols), move_costs, scale, source, sink)


def flow_x(sol: FlowSolution) -> tuple[int, ...]:
    """The flow on every edge: 1 on the path, 0 elsewhere."""
    x = [0] * sol.num_edges
    for e in sol.path:
        x[e] = 1
    return tuple(x)


def verify_integrality(x: Sequence[Fraction], tol: Fraction = Fraction(0)) -> bool:
    """True iff every flow value is within ``tol`` of 0 or 1."""
    return all(abs(v) <= tol or abs(v - 1) <= tol for v in x)


# Total unimodularity: the row-class certificate and the MILP's witness.


@dataclass(frozen=True, eq=False)
class MilpMatrices:
    """Constraint blocks of the direct formulation with horizon ``n``.

    Variables are ``x[j,k]`` (transition j fires at step k), laid out
    step-major (``(k-1)*|T| + j``), followed by the ``n`` termination
    indicators ``z_k``.  Equalities: final-marking balance (|P| rows)
    then one-move-or-terminated (n rows).  Inequalities: prefix
    nonnegativity (n*|P| rows, as ``A x <= b``) then termination
    monotonicity (n-1 rows).  Each matrix is a tuple of int row tuples
    and each right-hand side a tuple of ints.
    """

    horizon: int
    num_places: int
    num_transitions: int
    a_eq: IntMatrix
    b_eq: tuple[int, ...]
    a_ub: IntMatrix
    b_ub: tuple[int, ...]
    objective: tuple[Fraction, ...]

    @property
    def num_vars(self) -> int:
        return self.horizon * self.num_transitions + self.horizon

    def combined_matrix(self) -> IntMatrix:
        """The rows of ``a_eq`` followed by those of ``a_ub``."""
        return self.a_eq + self.a_ub

    def witness(self) -> TuWitness | None:
        """A 2x2 submatrix of ``combined_matrix()`` with |det| >= 2, constructed.

        Take the lowest place p whose step-1 incidence has a positive and a
        negative entry, and the first such moves j and l.  The balance row
        of p and the step-1 one-move row (``num_places``) meet their step-1
        columns in [[u, v], [1, 1]] with u > 0 > v, up to column order, so
        the determinant, computed here by ``det_int``, has magnitude
        u - v >= 2.  Returns None when no place has both signs.
        """
        n_p, n_t = self.num_places, self.num_transitions
        for p in range(n_p):
            step1 = self.a_eq[p][:n_t]
            pos = next((j for j, v in enumerate(step1) if v > 0), None)
            neg = next((j for j, v in enumerate(step1) if v < 0), None)
            if pos is not None and neg is not None:
                rows, cols = (p, n_p), tuple(sorted((pos, neg)))
                det = det_int([[self.a_eq[r][c] for c in cols] for r in rows])
                if abs(det) < 2:
                    raise InternalInvariantError(f"MILP witness on rows {rows} has determinant {det}")
                return TuWitness(rows, cols, det)
        return None


def build_milp_matrices(sp: SynchronousProduct, n: int) -> MilpMatrices:
    if n < 1:
        raise InvalidInputError("horizon must be >= 1")
    net = product_net(sp)
    inc = incidence_matrices(net).incidence
    n_p, n_t = len(net.places), len(net.transitions)
    n_vars = n * n_t + n
    z0 = n * n_t  # first z column
    m_i, m_f = net.initial_marking, net.final_marking

    # Balance rows repeat a place's incidence row once per step; row k of
    # the one-move block is 1 on step k's columns and on z_k.
    a_eq = [row * n + (0,) * n for row in inc]
    for k in range(n):
        row = [0] * n_vars
        row[k * n_t : (k + 1) * n_t] = [1] * n_t
        row[z0 + k] = 1
        a_eq.append(tuple(row))
    b_eq = tuple(f - i for f, i in zip(m_f, m_i)) + (1,) * n

    # Prefix row block k: m_i + I * sum_{step<=k} x >= 0, normalized to
    # -I-copies <= m_i, so each block stacks k+1 copies of -I.
    a_ub = [
        tuple(-v for v in row) * (k + 1) + (0,) * (n_vars - (k + 1) * n_t)
        for k in range(n)
        for row in inc
    ]
    for k in range(n - 1):
        row = [0] * n_vars
        row[z0 + k], row[z0 + k + 1] = 1, -1
        a_ub.append(tuple(row))
    b_ub = m_i * n + (0,) * (n - 1)

    objective = tuple(m.cost for m in sp.moves) * n + (Fraction(0),) * n
    return MilpMatrices(
        horizon=n,
        num_places=n_p,
        num_transitions=n_t,
        a_eq=tuple(a_eq),
        b_eq=b_eq,
        a_ub=tuple(a_ub),
        b_ub=b_ub,
        objective=objective,
    )


class TuWitness(NamedTuple):
    """A square submatrix, by sorted row and column indices, whose
    determinant has magnitude >= 2: proof that a matrix is not TU."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    determinant: int


def det_int(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1  # the empty matrix's determinant is 1


def tu_certificate(b: NodeArcIncidence) -> tuple[int, ...] | TuWitness:
    """Decide total unimodularity of a sparse {0, ±1} matrix with at most
    two nonzeros per column: the row classes, or an odd-cycle witness.

    By Heller and Tompkins (1956) such a matrix is TU iff its rows split
    into two classes so that a same-sign column has its two nonzeros in
    different classes and an opposite-sign column in the same one
    (Schrijver, *Theory of Linear and Integer Programming*, ch. 19).  A
    parity BFS over the rows, O(nnz), returns every row's class (0 or 1)
    or, on a conflict, the odd cycle it closed, whose determinant
    ``det_int`` computes from the entries.  The witness is a tuple too:
    tell the verdicts apart with ``isinstance(result, TuWitness)``.

    Raises :class:`InvalidInputError` for a value other than ±1, an index
    out of bounds, a repeated ``(row, col)`` or a column with more than two
    nonzeros; :class:`InternalInvariantError` if the cycle's determinant is
    not ±2.
    """
    ends: list[list[tuple[int, int]]] = [[] for _ in range(b.cols)]
    for r, c, v in b.entries:
        if v not in (1, -1) or not (0 <= r < b.rows and 0 <= c < b.cols):
            raise InvalidInputError(f"entry ({r}, {c}, {v}) is not a ±1 inside the {b.rows}x{b.cols} matrix")
        col = ends[c]
        if len(col) == 2 or (col and col[0][0] == r):
            raise InvalidInputError(f"column {c} repeats row {r} or has more than two nonzeros")
        col.append((r, v))
    adjacent: list[list[int]] = [[] for _ in range(b.rows)]
    for c, col in enumerate(ends):
        if len(col) == 2:
            adjacent[col[0][0]].append(c)
            adjacent[col[1][0]].append(c)

    # side[r]: the row's class; parent[r] and via[r]: the row and column
    # that reached it in the BFS forest (-1 at a root).
    side, parent, via = [-1] * b.rows, [-1] * b.rows, [-1] * b.rows
    for root in range(b.rows):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            for c in adjacent[u]:
                (r0, v0), (r1, v1) = ends[c]
                w = r1 if u == r0 else r0
                want = side[u] ^ (v0 == v1)
                if side[w] == -1:
                    side[w], parent[w], via[w] = want, u, c
                    queue.append(w)
                elif side[w] != want:
                    return _odd_cycle(u, w, c, ends, parent, via)
    return tuple(side)


def _odd_cycle(u: int, w: int, closing: int, ends, parent: list[int], via: list[int]) -> TuWitness:
    """The cycle that ``closing`` makes with the BFS tree paths from ``u``
    and ``w`` up to their lowest common ancestor ``top``."""
    u_path = [u]
    while parent[u_path[-1]] != -1:
        u_path.append(parent[u_path[-1]])
    depth_of = {r: i for i, r in enumerate(u_path)}
    w_path = [w]
    while w_path[-1] not in depth_of:
        w_path.append(parent[w_path[-1]])
    top = w_path.pop()
    cycle = u_path[: depth_of[top] + 1] + w_path
    rows = tuple(sorted(cycle))
    cols = tuple(sorted([via[r] for r in cycle if r != top] + [closing]))

    row_at = {r: i for i, r in enumerate(rows)}
    sub = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for r, v in ends[c]:
            sub[row_at[r]][j] = v
    det = det_int(sub)
    if abs(det) != 2:
        raise InternalInvariantError(f"odd cycle on rows {rows} has determinant {det}, not ±2")
    return TuWitness(rows, cols, det)
