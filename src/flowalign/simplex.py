"""A small exact simplex over integers for equality-form LPs.

Solves ``min c^T x  s.t.  A x = b, x >= 0``.  On entry every constraint
row ``[a_i | b_i]`` is multiplied by the lcm of its denominators and the
cost vector by the lcm of its own (so a silent-move cost of 1/10^6 becomes
an integer); the tableau then runs on Python ``int`` only.  Tableau rows
are integer cell vectors with one shared positive denominator, so a pivot
costs integer multiply-adds plus a single gcd reduction per row.  The cost
scale is divided out only when the optimal value leaves the solver.

There are three ways in:

- **Cold.**  A two-phase primal simplex with Bland's rule (smallest
  eligible index enters, ratio ties broken by the smallest basic index),
  which precludes cycling.
- **Warm.**  Given the optimal basis of an earlier solve with the same
  ``A`` and ``c`` but another ``b``, the tableau is re-factored on that
  basis.  Reduced costs do not depend on ``b``, so the basis is still dual
  feasible, and an exact dual simplex with Bland's rule (the infeasible
  basic variable of smallest index leaves; among ratio ties the smallest
  column index enters) either restores primal feasibility or proves the
  new LP infeasible.  A basis that is singular or not dual feasible for
  the given data is ignored and the solve runs cold, so a warm start can
  change the work done but never the answer.
- **Warm from a cached factorization.**  A :class:`BasisCache` keeps a
  few dual-feasible tableaux of one ``A`` and ``c`` (recent optima and
  re-factored warm starts, :data:`BASIS_CACHE_SIZE` at most), keyed by
  their basis as a set.  A tableau's
  ``B^-1 [A | E]`` and its reduced costs do not depend on ``b``, and
  block E holds ``B^-1`` times the row scales, so a warm start from a
  cached basis needs only ``B^-1 b`` and the objective cell: for the k
  nonzeros of ``b`` that is O(m k) multiply-adds, read from the cached
  tableau without writing to it.  When every basic value is nonnegative
  the cached basis is still optimal and the answer is read off with no
  pivot and no copy; otherwise a copy takes the new rhs column and the
  dual simplex runs on it.  Its other cells are kept as they are, not
  re-reduced by their gcd: the ratio tests compare values within one row,
  so a row scaled by a positive factor gives the same pivots, and
  ``pivot`` reduces every row it touches.
  The tableau of a basis is unique up to the order and scaling of its
  rows, and Bland's rules above pick the leaving and entering variables
  by column index, never by row, so the dual simplex then takes the
  pivots it takes after a re-factorization and ends at the same optimum.

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
from collections import OrderedDict
from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantError, InvalidInputError

#: Most tableaux one :class:`BasisCache` keeps (see there for why 16).
BASIS_CACHE_SIZE = 16


class Unbounded(InternalInvariantError):
    pass


class Optimum(tuple):
    """An optimal solve: unpacks as ``(value, x)``.

    ``value`` is a ``Fraction``; ``x`` holds an ``int`` for every integral
    entry and a ``Fraction`` only for the others.  ``basis`` lists the
    basic columns at the optimum, one per constraint row that is not a
    combination of the others.  Pass it back as ``solve_min_eq(a, b2, c,
    basis=...)`` to warm-start a solve of the same ``a`` and ``c`` with
    another right-hand side.
    """

    basis: tuple[int, ...]

    def __new__(cls, value: Fraction, x: list[int | Fraction], basis: tuple[int, ...]) -> "Optimum":
        self = super().__new__(cls, (value, x))
        self.basis = basis
        return self


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
    is row i's basic column, or -1 while a re-factorization has not yet
    pivoted on it.  ``dependent`` holds, per dropped row, the weights of a
    combination of the original rows that vanishes on ``A``.
    ``pivots`` counts the primal and dual simplex pivots made on this
    tableau (not those of a re-factorization).
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

    def run_dual(self, width: int) -> bool:
        """Dual Bland-rule pivoting from a dual-feasible basis.

        Returns False when a row proves the LP infeasible: its basic value
        is negative and no column can enter it.
        """
        obj = self.obj
        while True:
            leaving = -1
            for i, row in enumerate(self.rows):
                if row[-1] < 0 and (leaving < 0 or self.basis[i] < self.basis[leaving]):
                    leaving = i
            if leaving < 0:
                return True
            row = self.rows[leaving]
            entering = -1
            best_num = best_den = 0  # ratio obj[j] / -row[j], both over positive dens
            for j in range(width):
                coef = row[j]
                if coef < 0 and (entering < 0 or obj[j] * best_den < best_num * -coef):
                    best_num, best_den = obj[j], -coef
                    entering = j
            if entering < 0:
                return False
            self.pivot(leaving, entering)
            self.pivots += 1

    def optimum(self, n: int, scale: int, cells: list[int] | None = None) -> Optimum:
        """The optimum this tableau holds, or, given ``rhs_cells``' result
        for a ``b`` it is still optimal for, the optimum of that ``b``."""
        if cells is None:
            cells = [row[-1] for row in self.rows]
            cells.append(self.obj[-1])
        x: list[int | Fraction] = [0] * n
        for bi, v, den in zip(self.basis, cells, self.dens):
            if v:
                x[bi] = v // den if v % den == 0 else Fraction(v, den)
        return Optimum(Fraction(-cells[-1], self.obj_den * scale), x, tuple(self.basis))


def _start(a, b, n: int, signed: bool) -> _Tableau:
    """The tableau ``[A | E | b]`` with E = identity, each row scaled to
    integers and, when ``signed``, to a nonnegative rhs."""
    m = len(a)
    rows = []
    scales = []
    for i in range(m):
        row, den = integers([*a[i], b[i]])
        if signed and row[-1] < 0:
            row = [-v for v in row]
            den = -den
        row[n:n] = [1 if k == i else 0 for k in range(m)]
        rows.append(row)
        scales.append(den)
    return _Tableau(rows, [-1] * m, scales)


def _cold(a, b, n: int, costs: list[int]) -> tuple[_Tableau, bool]:
    """Two-phase solve: the last tableau, and whether it is optimal (False
    when phase 1 proves the LP infeasible)."""
    m = len(a)
    # Block E doubles as the phase-1 artificial columns: every rhs is
    # nonnegative, so they form a feasible starting basis.
    tab = _start(a, b, n, signed=True)
    tab.basis = [n + i for i in range(m)]
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


def _refactor(a, b, n: int, costs: list[int], basis: Sequence[int]) -> _Tableau | None:
    """The tableau of ``basis`` for this ``b``, or None when ``basis`` is
    not a basis of ``a`` or not dual feasible for these costs."""
    if len(set(basis)) != len(basis) or not all(0 <= col < n for col in basis):
        return None
    tab = _start(a, b, n, signed=False)
    for col in basis:
        r = next((r for r, bi in enumerate(tab.basis) if bi < 0 and tab.rows[r][col]), -1)
        if r < 0:
            return None
        tab.pivot(r, col)
    rest = [r for r, bi in enumerate(tab.basis) if bi < 0]
    if any(any(tab.rows[r][:n]) for r in rest):
        return None
    tab.drop(rest, n)
    tab.set_costs(costs + [0] * len(a))
    if any(v < 0 for v in tab.obj[:n]):
        return None
    return tab


class BasisCache:
    """Dual-feasible tableaux of one ``a`` and ``c``, keyed by basis as a set.

    Made for the objects ``a`` and ``c`` and passed to
    :func:`solve_min_eq` with exactly those objects; it keeps ``c`` scaled
    to integers once.  It keeps at most :data:`BASIS_CACHE_SIZE` tableaux
    in least-recently-used order: the tableau a warm start re-factors, and
    a cached one it starts from, go to the recent end, since a basis asked
    for once tends to be asked for again (in A*, a parent's basis seeds
    each of its children); a new optimum goes to the other end and stays
    only if a warm start asks for its basis before the next optimum
    arrives.  Entries are never mutated: a warm start reads the answer off
    a cached tableau when its basis stays optimal and pivots on a copy
    otherwise.  Only integer right-hand sides use the cache: for them every
    row's scale is the one its row of ``a`` alone gives (negated in a cold
    tableau whose rhs was negative), so block E turns any integer ``b``
    into integer cells.  ``pivots`` counts the primal and dual simplex
    pivots of every solve made with the cache.

    Why 16: an A* search keeps returning to a small set of bases, and the
    cache should hold that working set.  On the corpus's first edit cycle
    1,869 warm starts come from 165 bases in 108 searches; with room for
    5 tableaux they re-factor 35 times, with room for 16 only 5 times,
    all in the one search that asks for 13 bases, for about 0.3 MB more
    peak memory.
    """

    def __init__(self, a: Sequence[Sequence[int | Fraction]], c: Sequence[int | Fraction]):
        self.a = a
        self.c = c
        self.costs, self.scale = integers(c)
        self.pivots = 0
        self._tableaux: OrderedDict[tuple[int, ...], _Tableau] = OrderedDict()

    def __len__(self) -> int:
        return len(self._tableaux)

    def get(self, basis: Sequence[int]) -> _Tableau | None:
        """The cached tableau of ``basis``, moved to the recent end; the
        caller must not change it."""
        key = tuple(sorted(basis))
        tab = self._tableaux.get(key)
        if tab is not None:
            self._tableaux.move_to_end(key)
        return tab

    def put(self, tab: _Tableau, recent: bool) -> None:
        key = tuple(sorted(tab.basis))
        if key in self._tableaux:
            return
        if len(self._tableaux) == BASIS_CACHE_SIZE:
            self._tableaux.popitem(last=False)
        self._tableaux[key] = tab
        self._tableaux.move_to_end(key, last=recent)


def solve_min_eq(
    a: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
    c: Sequence[int | Fraction],
    basis: Sequence[int] | None = None,
    cache: BasisCache | None = None,
) -> Optimum | None:
    """Minimize ``c.x`` subject to ``a x = b`` and ``x >= 0``.

    Returns ``(optimal value, x)`` as an :class:`Optimum`, or ``None``
    when infeasible.  ``basis``, the ``Optimum.basis`` of an earlier
    solve with the same ``a`` and ``c``, warm-starts the dual simplex.
    ``cache``, a :class:`BasisCache` made for these ``a`` and ``c``,
    keeps the optimal tableau and seeds later warm starts from the bases
    it holds; it changes the work done, never the answer.
    """
    if cache is not None:
        if cache.a is not a or cache.c is not c:
            raise InvalidInputError("BasisCache used with another a or c than it was made for")
        if not set(map(type, b)) <= {int}:
            cache = None
    n = len(c)
    if len(a) == 0:
        return Optimum(Fraction(0), [0] * n, ())
    costs, scale = integers(c) if cache is None else (cache.costs, cache.scale)
    nonzeros = [(k, v) for k, v in enumerate(b) if v]
    tab = cache.get(basis) if cache is not None and basis is not None else None
    if tab is not None:
        if not tab.consistent(nonzeros):
            return None
        cells = tab.rhs_cells(n, nonzeros)
        if all(v >= 0 for v in cells[:-1]):
            # Still primal feasible, so still optimal: no pivot, no copy.
            return tab.optimum(n, scale, cells)
        tab = tab.copy()
        tab.set_rhs(cells)
        feasible = tab.run_dual(n)
    else:
        tab = None if basis is None else _refactor(a, b, n, costs, basis)
        if tab is None:
            tab, feasible = _cold(a, b, n, costs)
        else:
            if cache is not None:
                cache.put(tab.copy(), recent=True)
            feasible = tab.consistent(nonzeros) and tab.run_dual(n)
    if cache is not None:
        cache.pivots += tab.pivots
        if feasible:
            cache.put(tab, recent=False)
    return tab.optimum(n, scale) if feasible else None
