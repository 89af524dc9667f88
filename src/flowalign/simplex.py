"""A small exact simplex over integers for equality-form LPs.

Solves ``min c^T x  s.t.  A x = b, x >= 0``.  On entry every constraint
row ``[a_i | b_i]`` is multiplied by the lcm of its denominators and the
cost vector by the lcm of its own (so a silent-move cost of 1/10^6 becomes
an integer); the tableau then runs on Python ``int`` only.  Tableau rows
are integer cell vectors with one shared positive denominator, so a pivot
costs integer multiply-adds plus a single gcd reduction per row.  The cost
scale is divided out only when the optimal value is read, as an ``int``
unless it is not integral.

There are two ways in:

- **Cold.**  A two-phase primal simplex with Bland's rule (smallest
  eligible index enters, ratio ties broken by the smallest basic index),
  which precludes cycling.
- **Warm, from a cached tableau.**  A :class:`BasisCache` holds optimal
  tableaux of one ``A`` and ``c``.  A tableau's ``B^-1 [A | E]`` and
  reduced costs do not depend on ``b``, so each is dual feasible for every
  ``b``, and block E holds ``B^-1`` times the row scales: from it only
  ``B^-1 b`` and the objective cell are computed, O(m k) for the k
  nonzeros of ``b``, or O(m) from an optimum on the same tableau whose
  ``b`` differs by one column of ``A``.  If every basic value is
  nonnegative the answer is read off with no pivot and no copy; else an
  exact dual simplex with Bland's rule (the infeasible basic variable of
  smallest index leaves; among ratio ties the smallest column index
  enters) either restores primal feasibility or proves the LP
  infeasible.  A step onto a basis the cache holds reads that tableau;
  any other pivots a copy.  A solve starts from the tableau of the basis
  it is given when that one is cached, else from the one the cache used
  last, so the start changes the work done, never the optimal value.

Rows of ``A`` that are combinations of the other rows are dropped from
the tableau.  Every tableau carries the row operations applied so far (a
block ``E`` with one column per constraint row), which yields those
combinations; they are kept, and a ``b`` that does not obey them makes
the LP infeasible.

Intended for the small systems that arise as marking-equation
relaxations, not as a general-purpose solver.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantError, InvalidInputError

#: Most tableaux one :class:`BasisCache` keeps (see there for why 16).
BASIS_CACHE_SIZE = 16


class Unbounded(InternalInvariantError):
    pass


class Optimum:
    """An optimal solve: unpacks as ``(value, x)``, both made when read.

    ``value`` and each entry of ``x`` are an ``int`` where integral and a
    ``Fraction`` only otherwise.  The optimum is kept as its tableau holds
    it: ``basis`` lists the basic columns in the tableau's row order, one
    per constraint row that is not a combination of the others; ``cells``
    holds each row's rhs cell, over that row's denominator in ``dens``,
    then the objective cell, the value times ``-obj_den * scale``.
    ``tableau()`` is that tableau while a :class:`BasisCache` keeps it,
    else None.  Pass ``basis`` back as ``solve_min_eq(a, b2, c, basis,
    cache)``, or the optimum as ``parent=(optimum, j)`` when ``b2`` is
    ``b`` less column j of ``a``, to warm-start a solve of the same ``a``
    and ``c`` from the tableau ``cache`` keeps of it.
    """

    __slots__ = ("cells", "basis", "dens", "obj_den", "costs", "scale", "tableau")

    def __init__(self, cells: list[int], basis: tuple[int, ...], dens: list[int], obj_den: int,
                 costs: list[int], scale: int, tableau: weakref.ref):
        self.cells = cells
        self.basis = basis
        self.dens = dens
        self.obj_den = obj_den
        self.costs = costs
        self.scale = scale
        self.tableau = tableau

    @property
    def value(self) -> int | Fraction:
        num, den = -self.cells[-1], self.obj_den * self.scale
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q

    def __iter__(self):
        x: list[int | Fraction] = [0] * len(self.costs)
        for bi, v, den in zip(self.basis, self.cells, self.dens):
            if v:
                q, r = divmod(v, den)
                x[bi] = Fraction(v, den) if r else q
        return iter((self.value, x))

    def __getitem__(self, i: int):
        return tuple(self)[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, (Optimum, tuple)) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"Optimum{tuple(self)!r}"

    def less(self, j: int) -> "Optimum | None":
        """The optimum at ``b`` less column j of ``a``, read off this one in
        O(rows) when ``x_j >= 1``, else None.  ``x - e_j`` is feasible
        there, and any ``y`` feasible there gives ``y + e_j`` feasible here,
        so it is optimal there, in this basis, at this value less ``c_j``."""
        if j in self.basis:
            i = self.basis.index(j)
            if self.cells[i] >= self.dens[i]:
                cells = self.cells[:]
                cells[i] -= self.dens[i]
                cells[-1] += self.obj_den * self.costs[j]
                return Optimum(cells, self.basis, self.dens, self.obj_den, self.costs, self.scale, self.tableau)
        return None


def integers(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, and that lcm."""
    if set(map(type, values)) <= {int}:
        return list(values), 1
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _normalize(cells: list[int], den: int) -> int:
    """Reduce a row by the gcd of its cells and denominator; keep den > 0."""
    if den == 1:
        return 1
    if den < 0:
        den = -den
        cells[:] = [-v for v in cells]
    g = den
    for v in cells:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return den
    if g > 1:
        cells[:] = [v // g for v in cells]
        den //= g
    return den


def _eliminate(row: list[int], den: int, c: int, prow: list[int], pden: int, support) -> int:
    """Subtract the multiple of ``prow / pden`` (whose column c is 1) that
    clears column c of ``row / den``; return the row's new denominator.
    ``support`` lists the nonzero cells of ``prow`` when ``pden == 1``."""
    f = row[c]
    if support is not None:
        for j, v in support:
            row[j] -= f * v
        return _normalize(row, den)
    row[:] = [a * pden - f * b for a, b in zip(row, prow)]
    return _normalize(row, den * pden)


class _Tableau:
    """Constraint rows plus a maintained reduced-cost row.

    Columns are ``[A | E | rhs]``: the n structural columns, one column per
    constraint row, then the right-hand side.  Tableau row k starts as
    ``scales[k]`` times row k of ``[A | b]`` with E = identity; every row
    operation also applies to E, so row i is the sum over k of
    ``E[i][k] * scales[k]`` times original row k.  ``rows[i][j] / dens[i]``
    is a tableau entry; ``obj[j] / obj_den`` is the reduced cost of column
    j and ``obj[-1] / obj_den`` the negated objective value.  ``basis[i]``
    is row i's basic column.  ``dependent`` holds, per dropped row, the
    weights of a combination of the original rows that vanishes on ``A``.
    ``pivots`` counts the primal simplex pivots made on this tableau (a
    dual step counts on its :class:`BasisCache`).
    """

    def __init__(self, rows: list[list[int]], basis: list[int], scales: list[int]):
        self.rows = rows
        self.dens = [1] * len(rows)
        self.basis = basis
        self.scales = scales
        self.dependent: list[list[int]] = []
        self.obj: list[int] = []
        self.obj_den = 1
        self.pivots = 0

    def set_costs(self, costs: Sequence[int]) -> None:
        """Reduced costs of integer ``costs`` (one per column) under the basis."""
        den = 1
        for i, bi in enumerate(self.basis):
            if costs[bi]:
                den = math.lcm(den, self.dens[i])
        obj = [v * den for v in costs]
        obj.append(0)
        for i, bi in enumerate(self.basis):
            cb = costs[bi]
            if cb:
                f = cb * (den // self.dens[i])
                obj = [v - f * cell if cell else v for v, cell in zip(obj, self.rows[i])]
        self.obj = obj
        self.obj_den = _normalize(obj, den)

    def copy(self) -> "_Tableau":
        tab = _Tableau([row[:] for row in self.rows], self.basis[:], self.scales)
        tab.dens = self.dens[:]
        tab.dependent = self.dependent
        tab.obj = self.obj[:]
        tab.obj_den = self.obj_den
        return tab

    def rhs_cells(self, n: int, nonzeros: Sequence[tuple[int, int]]) -> list[int]:
        """The rhs cell of every row, then the objective cell, for an
        integer ``b`` given by its nonzeros ``(k, b[k])``.

        Row i is the combination ``E[i][k] * scales[k]`` of the original
        rows, and the objective row the combination ``obj[n + k] *
        scales[k]`` of them, so each new cell is those weights times b.
        """
        scaled = [(n + k, self.scales[k] * v) for k, v in nonzeros]
        cells = []
        for row in (*self.rows, self.obj):
            cell = 0
            for j, v in scaled:
                cell += row[j] * v
            cells.append(cell)
        return cells

    def less(self, cells: list[int], j: int, costs: Sequence[int]) -> list[int]:
        """``rhs_cells`` of ``b`` less column j of ``a``, given those of
        ``b``, in O(rows).

        Each row's weights turn column j of ``a`` into the row's cell j, so
        that cell comes off.  The objective row is ``obj_den * costs`` plus
        its weights times ``a``, so its cell drops by ``obj[j] - obj_den *
        costs[j]``.
        """
        new = [v - row[j] for v, row in zip(cells, self.rows)]
        new.append(cells[-1] - (self.obj[j] - self.obj_den * costs[j]))
        return new

    def cells(self) -> list[int]:
        """The rhs column, then the objective cell, as ``rhs_cells`` gives them."""
        return [row[-1] for row in self.rows] + [self.obj[-1]]

    def set_rhs(self, cells: list[int]) -> None:
        """Write ``rhs_cells``' result into the rhs column and objective."""
        for row, v in zip(self.rows, cells):
            row[-1] = v
        self.obj[-1] = cells[-1]

    def consistent(self, nonzeros: Sequence[tuple[int, int | Fraction]]) -> bool:
        """Does ``b``, given by its nonzeros ``(k, b[k])``, obey every
        combination of rows that vanishes on ``A``?"""
        return not any(sum([w[k] * v for k, v in nonzeros]) for w in self.dependent)

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        pden = _normalize(prow, prow[c])
        self.dens[r] = pden
        # Incidence rows are sparse: with a unit pivot only the pivot row's
        # support changes in the other rows.
        support = [(j, v) for j, v in enumerate(prow) if v] if pden == 1 else None
        for i, row in enumerate(self.rows):
            if i != r and row[c]:
                self.dens[i] = _eliminate(row, self.dens[i], c, prow, pden, support)
        if self.obj and self.obj[c]:
            self.obj_den = _eliminate(self.obj, self.obj_den, c, prow, pden, support)
        self.basis[r] = c

    def drop(self, rows: list[int], n: int) -> None:
        """Move rows whose structural part vanishes into ``dependent``."""
        for i in reversed(rows):
            row = self.rows.pop(i)
            self.dependent.append([e * s for e, s in zip(row[n:-1], self.scales)])
            del self.dens[i]
            del self.basis[i]

    def run(self, width: int) -> None:
        """Primal Bland-rule pivoting to optimality over columns [0, width)."""
        while True:
            entering = -1
            for j in range(width):
                if self.obj[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return
            leaving = -1
            best_num = best_den = 0  # ratio best_num / best_den
            for i, row in enumerate(self.rows):
                coef = row[entering]
                if coef > 0:
                    # compare row[-1]/coef with current best by cross product
                    if leaving < 0 or row[-1] * best_den < best_num * coef or (
                        row[-1] * best_den == best_num * coef
                        and self.basis[i] < self.basis[leaving]
                    ):
                        best_num, best_den = row[-1], coef
                        leaving = i
            if leaving < 0:
                raise Unbounded("LP is unbounded below")
            self.pivot(leaving, entering)
            self.pivots += 1

    def optimum(self, cells: list[int], costs: list[int], scale: int) -> Optimum:
        """The optimum at rhs ``cells``, for which this tableau is optimal."""
        return Optimum(cells, tuple(self.basis), self.dens, self.obj_den, costs, scale, weakref.ref(self))


def _cold(a, b, n: int, costs: list[int]) -> tuple[_Tableau, bool]:
    """Two-phase solve: the last tableau, and whether it is optimal (False
    when phase 1 proves the LP infeasible)."""
    m = len(a)
    # Block E doubles as the phase-1 artificial columns: every row of
    # [A | E | b] is scaled to integers and to a nonnegative rhs, so they
    # form a feasible starting basis.
    rows = []
    scales = []
    for i in range(m):
        row, den = integers([*a[i], b[i]])
        if row[-1] < 0:
            row = [-v for v in row]
            den = -den
        row[n:n] = [1 if k == i else 0 for k in range(m)]
        rows.append(row)
        scales.append(den)
    tab = _Tableau(rows, [n + i for i in range(m)], scales)
    tab.set_costs([0] * n + [1] * m)
    tab.run(n + m)
    if tab.obj[-1]:
        return tab, False

    # Drive leftover artificials out of the (degenerate) basis; rows that
    # cannot pivot are combinations of the others and are dropped.
    drop: list[int] = []
    for i in range(m):
        if tab.basis[i] >= n:
            col = next((j for j in range(n) if tab.rows[i][j]), None)
            if col is None:
                drop.append(i)
            else:
                tab.pivot(i, col)
    tab.drop(drop, n)
    tab.set_costs(costs + [0] * m)
    tab.run(n)
    return tab, True


def _dual(
    tab: _Tableau, cells: list[int], n: int, b: Sequence[int], cache: "BasisCache"
) -> tuple[_Tableau, list[int]] | None:
    """Dual Bland-rule pivoting from ``tab``, a tableau ``cache`` holds, at
    rhs ``cells`` (those of ``b``): the optimal tableau and its cells, or
    None when a row proves the LP infeasible, its basic value negative and
    no column able to enter it.

    The steps depend only on the basis, not on which tableau of it is read,
    so a step onto a basis ``cache`` holds reads that tableau and the cells
    of ``b`` on it instead of pivoting; any other step pivots a copy.
    Either counts as one pivot in ``cache.pivots``.  With no step the
    cached tableau is returned, neither copied nor pivoted.
    """
    own = False  # is tab a copy this solve may pivot?
    while True:
        basis, obj = tab.basis, tab.obj
        leaving = -1
        for i, bi in enumerate(basis):
            if cells[i] < 0 and (leaving < 0 or bi < basis[leaving]):
                leaving = i
        if leaving < 0:
            return tab, cells
        row = tab.rows[leaving]
        entering = -1
        best_num = best_den = 0  # ratio obj[j] / -row[j], both over positive dens
        for j in range(n):
            coef = row[j]
            if coef < 0 and (entering < 0 or obj[j] * best_den < best_num * -coef):
                best_num, best_den = obj[j], -coef
                entering = j
        if entering < 0:
            return None
        cache.pivots += 1
        step = cache.find(basis[:leaving] + [entering] + basis[leaving + 1:])
        if step is not None:
            tab, own = step, False
            cells = step.rhs_cells(n, [(k, v) for k, v in enumerate(b) if v])
            continue
        if not own:
            tab, own = tab.copy(), True
            tab.set_rhs(cells)
        tab.pivot(leaving, entering)
        cells = tab.cells()


class BasisCache:
    """Optimal tableaux of one ``a`` and ``c``, keyed by basis as a set.

    Made for the objects ``a`` and ``c`` and passed to
    :func:`solve_min_eq` with exactly those objects; it keeps ``c`` scaled
    to integers once.  It keeps at most :data:`BASIS_CACHE_SIZE` tableaux
    in least-recently-used order: a tableau a warm start reads goes to the
    recent end, since a basis asked for once tends to be asked for again
    (in A*, a parent's basis seeds each of its children); a new optimum
    goes to the other end and stays only if a warm start asks for its
    basis before the next optimum arrives.  Entries are never mutated: a
    warm start reads the answer off a cached tableau when its basis stays
    optimal, and a dual step reads the tableau of its new basis when that
    is cached (:meth:`find`, which leaves the order as it is) and pivots
    a copy otherwise.  An evicted tableau is freed: an :class:`Optimum`
    refers to its tableau weakly.  Only integer right-hand sides
    use the cache: for them every row's scale is the one its row of ``a``
    alone gives (negated where the cold tableau's rhs was negative), so
    block E turns any integer ``b`` into integer cells.  ``pivots`` counts
    the primal and dual simplex pivots of every solve made with the cache.
    A new cache starts with the tableaux of ``seed``, a cache of the same
    ``a`` and ``c``, if given.

    Why 16: an A* search keeps returning to a few bases.  On the corpus's
    first edit cycle (108 seeded searches, 1,863 warm starts from a
    parent's basis) none misses its basis with room for 16 tableaux, so
    every one reads its cells off its parent's in O(rows), and 565 of
    the 1,553 dual steps find their new basis cached.  With room for 8,
    33 miss, 519 steps find theirs and 1,576 steps are taken; with room
    for 5, 75 miss, 403 and 1,590.  A miss starts from the most recently
    used tableau instead.
    """

    def __init__(self, a: Sequence[Sequence[int | Fraction]], c: Sequence[int | Fraction], seed=None):
        self.a = a
        self.c = c
        self.costs, self.scale = integers(c)
        self.pivots = 0
        self._tableaux = OrderedDict() if seed is None else seed._tableaux.copy()

    def __len__(self) -> int:
        return len(self._tableaux)

    def get(self, basis: Sequence[int] | None) -> _Tableau | None:
        """The tableau a warm start reads: that of ``basis``, moved to the
        recent end, when it is cached, else the most recently used one, or
        None while the cache is empty; the caller must not change it."""
        if basis is not None:
            key = tuple(sorted(basis))
            tab = self._tableaux.get(key)
            if tab is not None:
                self._tableaux.move_to_end(key)
                return tab
        return next(reversed(self._tableaux.values()), None)

    def find(self, basis: Sequence[int]) -> _Tableau | None:
        """The cached tableau of ``basis``, or None; the order is kept."""
        return self._tableaux.get(tuple(sorted(basis)))

    def put(self, tab: _Tableau) -> None:
        key = tuple(sorted(tab.basis))
        if key in self._tableaux:
            return
        if len(self._tableaux) == BASIS_CACHE_SIZE:
            self._tableaux.popitem(last=False)
        self._tableaux[key] = tab
        self._tableaux.move_to_end(key, last=False)


def solve_min_eq(
    a: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
    c: Sequence[int | Fraction],
    basis: Sequence[int] | None = None,
    cache: BasisCache | None = None,
    parent: tuple[Optimum, int] | None = None,
) -> Optimum | None:
    """Minimize ``c.x`` subject to ``a x = b`` and ``x >= 0``.

    Returns ``(optimal value, x)`` as an :class:`Optimum`, or ``None``
    when infeasible.  ``cache``, a :class:`BasisCache` made for these
    ``a`` and ``c``, keeps the optimal tableau and warm-starts the solve
    from the tableau :meth:`BasisCache.get` gives for ``basis``, the
    ``Optimum.basis`` of an earlier solve; the solve runs cold while the
    cache is empty, and for a ``b`` that is not all ``int``.  The start
    changes the work done and may change which optimal ``x`` is returned,
    never the optimal value.  A ``basis`` without a ``cache`` is refused.

    ``parent = (optimum, j)`` stands for ``optimum.basis`` and says that
    ``b`` is the optimum's right-hand side less column j of ``a``.  While
    the cache still holds the optimum's own tableau, ``b``'s cells on it
    are the optimum's less that tableau's column j, in O(rows), and ``b``
    needs no check against the dropped rows: their combinations vanish on
    ``a``, so ``b`` obeys them as the optimum's right-hand side did.
    """
    if parent is not None:
        if basis is not None:
            raise InvalidInputError("a warm start takes a basis or a parent, not both")
        basis = parent[0].basis
    if cache is None:
        if basis is not None:
            raise InvalidInputError("a basis warm-starts a solve only through a BasisCache")
    elif cache.a is not a or cache.c is not c:
        raise InvalidInputError("BasisCache used with another a or c than it was made for")
    elif not set(map(type, b)) <= {int}:
        cache = None
    n = len(c)
    costs, scale = integers(c) if cache is None else (cache.costs, cache.scale)
    if len(a) == 0:
        return _Tableau([], [], []).optimum([0], costs, scale)
    tab = None if cache is None else cache.get(basis)
    if tab is None:
        tab, feasible = _cold(a, b, n, costs)
        if cache is not None:
            cache.pivots += tab.pivots
            if feasible:
                cache.put(tab)
        return tab.optimum(tab.cells(), costs, scale) if feasible else None
    if parent is not None and parent[0].tableau() is tab:
        cells = tab.less(parent[0].cells, parent[1], costs)
    else:
        nonzeros = [(k, v) for k, v in enumerate(b) if v]
        if not tab.consistent(nonzeros):
            return None
        cells = tab.rhs_cells(n, nonzeros)
    found = _dual(tab, cells, n, b, cache)
    if found is None:
        return None
    tab, cells = found
    cache.put(tab)
    return tab.optimum(cells, costs, scale)
