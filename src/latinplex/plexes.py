"""Validators and exhaustive search engines for transversal-like cell sets.

A transversal hits every row, column and symbol once; a k-plex k times; a
near-transversal is a partial transversal of length n-1; a quasi-transversal
has n+1 cells with exactly one doubled row, doubled column and doubled
symbol (every symbol present).  Quasi-transversals are treated as undefined
below order 3, matching the scope of every statement that uses them.

Search engines are exhaustive and deterministic: a None result certifies
nonexistence, and engines refuse (OrderTooLargeError) rather than return an
uncertified answer.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from itertools import zip_longest
from operator import add, index, le

from .core import MAX_EXHAUSTIVE_ORDER, LatinSquare
from .errors import (
    FormatError,
    InvalidCellSetError,
    InvalidPartialError,
    InvalidPlexError,
    LatinSquareError,
    OrderTooLargeError,
)

log = logging.getLogger(__name__)
# the package logger stays silent unless configured; every module that logs imports this one
logging.getLogger(__package__).addHandler(logging.NullHandler())

KIND_TRANSVERSAL = "transversal"
KIND_PARTIAL = "partial-transversal"
KIND_NEAR = "near-transversal"
KIND_QUASI = "quasi-transversal"
KIND_KPLEX = "k-plex"
KIND_CELLS = "cell-set"  # unconstrained cardinality; used for domination sets

_KINDS = (KIND_TRANSVERSAL, KIND_PARTIAL, KIND_NEAR, KIND_QUASI, KIND_KPLEX, KIND_CELLS)


@dataclass(frozen=True)
class CellSet:
    """A set of (row, column) cells of an order-n square, tagged with intent.

    Cells are 1-based integer pairs, stored sorted row-major; an outside or
    repeated cell raises InvalidCellSetError, a non-integer or bool coordinate
    TypeError.  Cardinality must match the kind: n for a transversal, n-1 near,
    n+1 quasi, n*k for a k-plex; partial-transversal and cell-set are
    unconstrained (up to n / n^2).
    """

    square_order: int
    cells: tuple[tuple[int, int], ...]
    kind: str
    k: int | None = None

    def __post_init__(self):
        n = self.square_order
        cells, bad = _cells(n, self.cells)
        object.__setattr__(self, "cells", cells)
        if self.kind not in _KINDS:
            raise InvalidCellSetError(f"unknown kind {self.kind!r}")
        if bad:
            raise InvalidCellSetError(bad)
        m = len(cells)
        if self.kind == KIND_TRANSVERSAL and m != n:
            raise InvalidCellSetError(f"transversal needs {n} cells, got {m}")
        if self.kind == KIND_NEAR and m != n - 1:
            raise InvalidCellSetError(f"near-transversal needs {n - 1} cells, got {m}")
        if self.kind == KIND_QUASI and m != n + 1:
            raise InvalidCellSetError(f"quasi-transversal needs {n + 1} cells, got {m}")
        if self.kind == KIND_KPLEX:
            if self.k is None or not 0 <= self.k <= n:
                raise InvalidCellSetError(f"k-plex needs 0 <= k <= {n}")
            if m != n * self.k:
                raise InvalidCellSetError(f"{self.k}-plex needs {n * self.k} cells, got {m}")
        if self.kind == KIND_PARTIAL and m > n:
            raise InvalidCellSetError(f"partial transversal cannot exceed {n} cells")

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.k is not None:
            out["k"] = self.k
        out["cells"] = [[r, c] for r, c in self.cells]
        return out

    @classmethod
    def from_json_dict(cls, order: int, obj: dict) -> "CellSet":
        """Parse a cell set; cell coordinates and k must be JSON integers
        (a bool is not one here)."""
        cells = []
        for r, c in obj["cells"]:
            if type(r) is not int or type(c) is not int:
                raise TypeError("cell coordinates must be JSON integers")
            cells.append((r, c))
        k = obj.get("k")
        if k is not None and type(k) is not int:
            raise FormatError(f"k must be a JSON integer, got {k!r}")
        return cls(order, cells, obj["kind"], k)


def _cells(order: int, cells) -> tuple[tuple[tuple[int, int], ...], str | None]:
    """The cells as sorted (row, column) int pairs, and their first defect: a
    cell outside 1..order, else a repeated cell, else None.  A bool
    coordinate, or one without __index__ (a float, a string), raises
    TypeError.  A CellSet of the order passes as it is, neither sorted nor
    checked again."""
    if isinstance(cells, CellSet) and cells.square_order == order:
        return cells.cells, None
    # plain int coordinates, the usual case, are taken as they are
    pairs = [(r, c) if type(r) is int is type(c) else _int_cell(r, c) for r, c in cells]
    pairs.sort()
    cs = tuple(pairs)
    for r, c in cs:
        if not (1 <= r <= order and 1 <= c <= order):
            return cs, f"cell ({r},{c}) outside 1..{order}"
    dup = next((a for a, b in zip(cs, cs[1:]) if a == b), None)
    return cs, None if dup is None else f"duplicate cell {dup}"


def _int_cell(r, c) -> tuple[int, int]:
    """(r, c) as plain ints; a bool or a non-integer coordinate raises TypeError."""
    if type(r) is bool or type(c) is bool:
        raise TypeError(f"cell ({r!r}, {c!r}) has a bool coordinate, not an integer")
    return index(r), index(c)


def _line_counts(square: LatinSquare, cells) -> tuple[list[int], list[int], list[int]]:
    """How often the cells meet each row, column and symbol: three lists
    indexed 1..n (index 0 unused)."""
    n = square.order
    grid = square.cells0
    rows, cols, syms = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for r, c in cells:
        rows[r] += 1
        cols[c] += 1
        syms[grid[r - 1][c - 1] + 1] += 1
    return rows, cols, syms


def check_transversal(square: LatinSquare, cells) -> tuple[bool, str | None]:
    """True iff the cells cover every row, column and symbol exactly once."""
    return check_kplex(square, cells, 1)


def check_kplex(square: LatinSquare, cells, k: int) -> tuple[bool, str | None]:
    """True iff every row, column and symbol occurs exactly k times."""
    n = square.order
    cs, bad = _cells(n, cells)
    if bad:
        return False, bad
    if len(cs) != n * k:
        return False, f"expected {n * k} cells for a {k}-plex of order {n}, got {len(cs)}"
    rows, cols, syms = _line_counts(square, cs)
    for i in range(1, n + 1):
        if rows[i] != k:
            return False, f"row {i} occurs {rows[i]} times, expected {k}"
        if cols[i] != k:
            return False, f"column {i} occurs {cols[i]} times, expected {k}"
        if syms[i] != k:
            return False, f"symbol {i} occurs {syms[i]} times, expected {k}"
    return True, None


def check_partial_transversal(square: LatinSquare, cells) -> tuple[bool, str | None]:
    """True iff rows, columns and symbols are pairwise distinct (any length <= n)."""
    return _partial_scan(square, *_cells(square.order, cells))


def check_near_transversal(square: LatinSquare, cells) -> tuple[bool, str | None]:
    """True iff the cells form a partial transversal of length exactly n-1."""
    n = square.order
    cs, bad = _cells(n, cells)
    if len(cs) != n - 1:
        return False, f"near-transversal needs {n - 1} cells, got {len(cs)}"
    return _partial_scan(square, cs, bad)


def _partial_scan(square: LatinSquare, cs, bad: str | None) -> tuple[bool, str | None]:
    """check_partial_transversal on cells _cells has normalised, with their defect."""
    n = square.order
    if bad:
        return False, bad
    if len(cs) > n:
        return False, f"{len(cs)} cells exceed order {n}"
    grid = square.cells0
    rows, cols, syms = set(), set(), set()
    for r, c in cs:
        s = grid[r - 1][c - 1] + 1
        if r in rows:
            return False, f"row {r} used twice"
        if c in cols:
            return False, f"column {c} used twice"
        if s in syms:
            return False, f"symbol {s} used twice"
        rows.add(r)
        cols.add(c)
        syms.add(s)
    return True, None


def check_quasi_transversal(square: LatinSquare, cells) -> tuple[bool, str | None]:
    """True iff n+1 cells double exactly one row, one column and one symbol.

    All n symbols appear (n-1 once, one twice); likewise rows and columns.
    For order < 3 the notion is treated as vacuous and the check fails with
    a diagnosis rather than an error.
    """
    n = square.order
    if n < 3:
        return False, "quasi-transversal is vacuous below order 3"
    cs, bad = _cells(n, cells)
    if bad:
        return False, bad
    if len(cs) != n + 1:
        return False, f"expected {n + 1} cells, got {len(cs)}"
    grid = square.cells0
    line_of = (lambda r, c: r, lambda r, c: c, lambda r, c: grid[r - 1][c - 1] + 1)
    # n+1 cells on n lines of a kind: unless a line is empty, one is doubled
    for name, cnt, line in zip(("row", "column", "symbol"), _line_counts(square, cs), line_of):
        if 0 in cnt[1:]:
            over = next((line(r, c) for r, c in cs if cnt[line(r, c)] > 2), None)
            if over is not None:
                return False, f"{name} {over} occurs {cnt[over]} times"
            return False, f"{name} {cnt.index(0, 1)} does not occur"
    return True, None


def quasi_profile(square: LatinSquare, cells) -> tuple[int, int, int]:
    """(doubled row, doubled column, doubled symbol) of a valid quasi-transversal."""
    cs, _ = _cells(square.order, cells)
    ok, why = check_quasi_transversal(square, cs)
    if not ok:
        raise InvalidCellSetError(f"not a quasi-transversal: {why}")
    return tuple(cnt.index(2, 1) for cnt in _line_counts(square, cs))


# ---------------------------------------------------------------------------
# row-search kernels: every witness search walks the rows in order, through
# one of these two or _quasi_search, and stops at the first leaf it accepts


def _stop(path) -> bool:
    return True


def _partial_search(grid, rows, visit, skips: int = 0, colmask: int = 0,
                    symmask: int = 0) -> list[int] | None:
    """Extend a partial transversal over `rows`, one cell per row, in order.

    Columns and symbols are used at most once (bitmasks, seeded by colmask
    and symmask).  Each row tries its columns in increasing order and then,
    while `skips` remain, stays empty.  visit runs at every leaf that spent
    all skips, with path[i] the column of rows[i] (-1 if empty); if it
    returns True the search stops and the kernel returns a copy of that
    path, else it returns None.
    """
    depth = len(rows)
    path = [-1] * depth

    def rec(i: int, cm: int, sm: int, skips: int) -> bool:
        if i == depth:
            return not skips and visit(path)
        r = rows[i]
        for c, s in enumerate(grid[r]):
            bit = 1 << c
            if cm & bit:
                continue
            sbit = 1 << s
            if sm & sbit:
                continue
            path[i] = c
            if rec(i + 1, cm | bit, sm | sbit, skips):
                return True
        if skips:
            path[i] = -1
            return rec(i + 1, cm, sm, skips - 1)
        return False

    found = rec(0, colmask, symmask, skips)
    del rec  # rec refers to itself: free its state now, not at the next full collection
    return path[:] if found else None


class _OutOfChecks(Exception):
    """A counted search gave up after max_checks supply checks (args: nodes
    visited, what give_up returned)."""


def _supplies(grid) -> list[list[int]]:
    """sups[r][x]: the symbols (bits n + s) of column x, or the columns of
    symbol x - n, in rows r..n-1; sups[n] is all 0."""
    n = len(grid)
    sups = [[0] * 2 * n]
    for row in reversed(grid):
        sup = sups[-1][:]
        for c, s in enumerate(row):
            x = n + s
            sup[c] |= 1 << x
            sup[x] |= 1 << c
        sups.append(sup)
    sups.reverse()
    return sups


def _counted_search(grid, k: int, max_checks: int | None = None, give_up=None
                    ) -> tuple[list[tuple[int, ...]] | None, int]:
    """The first choice of k cells per row that uses every column and symbol
    exactly k times, rows in order, each through the combinations of its
    usable columns in lexicographic order.  Each line (column, or symbol at
    n + s) with need[x] uses left needs that many later cells on it whose
    other line is open (has uses left); a line meets each row once, so
    they are the popcount of its suffix mask in _supplies and the open
    mask.  A row stops its combinations once it skips a cell that a line
    needs (need above the rows left), as the check fails on all of them.
    Returns chosen (chosen[r] the columns of row r) or None, and the nodes
    (rows entered) visited.  After max_checks supply checks (one per full
    combination: the search's work) it calls give_up() once and raises
    _OutOfChecks if that returns a true value, else it goes on."""
    n = len(grid)
    sups = _supplies(grid)
    need = [k] * 2 * n
    open_ = (1 << 2 * n) - 1  # the lines with uses left
    path: list[int] = []
    nodes = 1
    checks = 0

    def rec(row: int, start: int, left: int) -> bool:
        """Take `left` more cells of row `row` from column `start` on, then
        the rows below."""
        nonlocal nodes, checks, open_
        rest = n - row - 1
        grow, sup = grid[row], sups[row + 1]
        for c in range(start, n - left + 1):
            x = n + grow[c]
            if open_ >> c & open_ >> x & 1:
                need[c] -= 1
                need[x] -= 1
                shut = (need[c] == 0) << c | (need[x] == 0) << x
                open_ ^= shut
                path.append(c)
                if left > 1:
                    if rec(row, c + 1, left - 1):
                        return True
                else:
                    if checks == max_checks and (why := give_up()):
                        raise _OutOfChecks(nodes, why)
                    checks += 1
                    # rows fill the lowest columns first, so the highest lines
                    # fail most: test them first
                    if all(map(le, reversed(need),
                               map(int.bit_count, map(open_.__and__, reversed(sup))))):
                        nodes += 1
                        if not rest or rec(row + 1, 0, k):  # the last row done: a k-plex
                            return True
                path.pop()
                open_ ^= shut
                need[c] += 1
                need[x] += 1
            if need[c] > rest or need[x] > rest:  # no later row can make up this cell
                break
        return False

    try:
        found = rec(0, 0, k)
    finally:
        del rec  # rec refers to itself: free its state now, not at the next full collection
    return ([tuple(path[r:r + k]) for r in range(0, n * k, k)] if found else None), nodes


def _chosen_cells(chosen) -> tuple[tuple[int, int], ...]:
    return tuple((r + 1, c + 1) for r, combo in enumerate(chosen) for c in combo)


# ---------------------------------------------------------------------------
# transversal enumeration


@dataclass(frozen=True)
class PlexCensus:
    """Exact count of an enumeration plus a capped list of witnesses."""

    square_order: int
    kind: str
    count: int
    witnesses: tuple[CellSet, ...] = ()
    truncated: bool = False

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "truncated": self.truncated,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def _column_orbit_maps(grid, n: int) -> list[list[int]]:
    """Column maps of all row-fixing autotopisms, one per image of column 0.

    Mapping column 0 to column j forces the symbol map beta(L[r][0]) = L[r][j]
    and the column map alpha(c) = the row-0 column holding beta(L[0][c]), so
    j is in the orbit of column 0 iff (id, alpha, beta) preserves the grid.
    """
    where0 = {s: c for c, s in enumerate(grid[0])}
    maps = []
    for j in range(n):
        beta = {row[0]: row[j] for row in grid}
        alpha = [where0[beta[s]] for s in grid[0]]
        if all([row[a] for a in alpha] == [beta[s] for s in row] for row in grid):
            maps.append(alpha)
    return maps


def _half_table(grid, n: int, rows, start: int) -> dict[int, int]:
    """Count the partial transversals over `rows` extending `start` by the
    (colmask, symmask) they use, packed as colmask | symmask << n."""
    table = {start: 1}
    for r in rows:
        cells = [1 << c | 1 << (n + s) for c, s in enumerate(grid[r])]
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, mult in table.items():
            for b in cells:
                if not key & b:
                    nxt[key | b] = get(key | b, 0) + mult
        table = nxt
    return table


def _count_transversals(grid, n: int) -> int:
    """0 on a re-checked lattice obstruction (k = 1), else _join_transversals."""
    labels = _obstruction(grid, 1)
    if labels is not None:
        log.debug("transversal count: 0, lattice obstruction mod %d", labels[0])
        return 0
    return _join_transversals(grid, n)


def _join_transversals(grid, n: int) -> int:
    """The orbit size times the sum, over the orbits of row-0 cells, of the
    count through the orbit's first cell: the top half-table (rows 0..h-1
    from that cell) joined with the bottom one (rows h..n-1) on complementary masks."""
    maps = _column_orbit_maps(grid, n)
    # a map fixing a column fixes every symbol, so it is the identity: the maps
    # act freely, every orbit has len(maps) columns, and reps holds the least of each
    reps = [c for c in range(n) if all(alpha[c] >= c for alpha in maps)]
    log.debug("transversal count: column 1 orbit %d of %d, %d per-column counts",
              len(maps), n, len(reps))
    h = min(n, (n + 1) // 2 + 1)
    full = (1 << 2 * n) - 1
    bottom = _half_table(grid, n, range(h, n), 0)
    count = 0
    for c in reps:
        top = _half_table(grid, n, range(1, h), 1 << c | 1 << (n + grid[0][c]))
        count += sum(m * bottom.get(full ^ key, 0) for key, m in top.items())
    return len(maps) * count


def _transversals(grid, cap: int | None = None) -> list[tuple[int, ...]]:
    """The first `cap` transversals (every one when cap is None; else cap >=
    1) as column tuples, in lex order: the row search over all rows."""
    found: list[tuple[int, ...]] = []
    _partial_search(grid, range(len(grid)),
                    lambda path: found.append(tuple(path)) or len(found) == cap)
    return found


def _cols_to_cellset(order: int, cols: tuple[int, ...]) -> CellSet:
    return CellSet(order, tuple((i + 1, c + 1) for i, c in enumerate(cols)), KIND_TRANSVERSAL)


def enumerate_transversals(square: LatinSquare, cap: int = 10, threads: int = 1) -> PlexCensus:
    """Exact transversal count with the first `cap` witnesses in lex order.

    A 0 is certified by a re-checked lattice obstruction when there is one,
    any other count by exhaustion: a meet-in-the-middle join per orbit of
    row-1 cells under the row-fixing autotopisms (one for a group table).
    The witnesses are the first `cap` transversals of the row search, run
    only when the count is positive.
    `threads` is ignored.  A negative cap raises ValueError; orders above
    MAX_EXHAUSTIVE_ORDER are refused.
    """
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    n = square.order
    if n > MAX_EXHAUSTIVE_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds exhaustive limit {MAX_EXHAUSTIVE_ORDER}")
    grid = square.cells0
    count = _count_transversals(grid, n)
    found = _transversals(grid, cap) if count and cap else []
    witnesses = tuple(_cols_to_cellset(n, w) for w in found)
    return PlexCensus(n, KIND_TRANSVERSAL, count, witnesses, truncated=count > len(witnesses))


# ---------------------------------------------------------------------------
# k-plex search


#: supply checks a k-plex search runs before it asks the lattice test (k >= 2)
#: or the transversal count (k = 1)
_LATTICE_AFTER_CHECKS = 1 << 8


def _smith_normal_form(rows, g: int) -> list[tuple[int, list[int]]]:
    """(d_i, column i of V) for U A V = diag(d_1, ..., d_g), d_1 | d_2 | ...,
    the Smith normal form of A, `rows` over g columns; raises if a d_i is 0."""
    a = [list(row) for row in rows]
    v = [[int(i == j) for j in range(g)] for i in range(g)]  # V: takes every column step of a
    for t in range(g):
        while True:  # each pass leaves a nonzero entry below |p| in row t or column t, or stops
            least = min(((abs(row[j]), i, j) for i, row in enumerate(a[t:], t)
                         for j in range(t, g) if row[j]), default=None)
            if least is None:
                raise LatinSquareError("internal error: a cell lattice without full rank")
            _, i, j = least
            a[t], a[i] = a[i], a[t]
            for row in a + v:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for row in a[t + 1:]:
                row[:] = [y - row[t] // p * z for y, z in zip(row, a[t])]
            qs = [y // p for y in a[t][t + 1:]]
            for row in a + v:
                row[t + 1:] = [y - q * row[t] for y, q in zip(row[t + 1:], qs)]
            if any(a[t][t + 1:]):
                continue
            rest = next((row for row in a[t + 1:] if any(y % p for y in row)), None)
            if rest is None:  # column t is clear too, and p divides what is left
                break
            a[t] = [y + z for y, z in zip(a[t], rest)]
    return [(abs(a[t][t]), [row[t] for row in v]) for t in range(g)]


def _cell_labellings(grid) -> list[tuple[int, list[int], list[int], list[int]]]:
    """Labellings that generate all others: labels in Z_m, m > 1, of the
    rows, columns and symbols, (m, row_labels, col_labels, sym_labels)
    indexed from 0, whose three labels sum to 0 on every cell.  Summed over
    a k-plex they give k times the sum of all labels, so one with that sum
    not 0 proves no k-plex exists; by the integer Farkas lemma one does iff
    k times the all-ones vector is outside the lattice of the cells'
    incidence vectors (Euler's parity argument and Hall-Paige are cases).

    Shifting all row, column and symbol labels by a, b and -a-b changes
    neither sum, so row 0 and column 0 take label 0.  With x[c] the label of
    column c and s_r(c) = where0[grid[r][c]], symbol s takes -x[where0[s]],
    row r takes x[s_r(0)], and any other cell asks x[s_r(c)] = x[c] +
    x[s_r(0)].  Substitution: once two of its unit-coefficient terms are
    known, so is the third (a unimodular change of variables); if none is,
    the first unknown column is a new generator.  The Smith normal form of
    the residuals all equations then leave over the generators gives the
    invariant factors d_1 | d_2 | ... (equal on isotopes; full rank makes
    none 0) and, by its column transform, a labelling mod each d_i > 1.
    """
    n = len(grid)
    where0 = sorted(range(n), key=grid[0].__getitem__)  # where0[s]: the column of s in row 0
    eqs = [(c, where0[row[0]], where0[s]) for row in grid[1:] for c, s in enumerate(row) if c]
    x, g = [()] + [None] * (n - 1), 0  # x[c]: the label of column c over the generators
    while None in x:  # a new generator, then passes of substitution while they find any
        x[x.index(None)], g = (0,) * g + (1,), g + 1
        unknown = None
        while unknown != (unknown := x.count(None)) and unknown:
            for a, b, t in eqs:  # x[a] + x[b] = x[t]
                if x[t] is None and x[a] is not None and x[b] is not None:
                    x[t] = tuple(map(sum, zip_longest(x[a], x[b], fillvalue=0)))
                elif x[t] is not None and (x[a] is None) != (x[b] is None):
                    c, known = (b, a) if x[b] is None else (a, b)
                    x[c] = tuple(y - z for y, z in zip_longest(x[t], x[known], fillvalue=0))
    coords = list(zip(*(xc + (0,) * (g - len(xc)) for xc in x)))  # coords[i][c]: x[c] at i
    residuals = set(zip(*([y[a] + y[b] - y[t] for a, b, t in eqs] for y in coords)))
    out = []
    for d, w in _smith_normal_form(residuals - {(0,) * g}, g):
        if d > 1:
            col = [sum(y * z for y, z in zip(xc, w)) % d for xc in zip(*coords)]
            out.append((d, [col[where0[row[0]]] for row in grid], col,
                        [-col[where0[s]] % d for s in range(n)]))
    return out


def _labels_hold(grid, labels) -> bool:
    """Re-check a labelling in O(n^2): every cell's three labels sum to 0 mod m."""
    m, rows, cols, syms = labels
    return (len(rows) == len(cols) == len(syms) == len(grid)
            and all((rows[r] + cols[c] + syms[s]) % m == 0
                    for r, row in enumerate(grid) for c, s in enumerate(row)))


def _obstruction(grid, k: int) -> tuple[int, list[int], list[int], list[int]] | None:
    """The first labelling of _cell_labellings whose label sum times k is not
    0 mod m and that passes _labels_hold: it proves that no k-plex exists.
    None if there is none; as the labellings generate all others (one per
    invariant factor of the residuals' Smith normal form, after
    substitution), that means no labelling obstructs.  The sum is tested
    first, so a k that no labelling obstructs pays no re-check."""
    return next((lab for lab in _cell_labellings(grid)
                 if k * sum(map(sum, lab[1:])) % lab[0] and _labels_hold(grid, lab)), None)


def find_kplex(square: LatinSquare, k: int) -> CellSet | None:
    """Lexicographically least k-plex, or None certified by exhaustion or by
    a re-checked lattice obstruction.

    Rows are processed in order, each choosing k columns, by the counted
    kernel with every count exactly k: quotas, and a supply check that every
    short column and symbol still has enough later cells on it whose other
    line is short too, one popcount of its suffix mask per line.  Pruning
    only removes provably dead branches, so the first solution stays the lex
    least.  A search still running after _LATTICE_AFTER_CHECKS supply checks
    asks for a proof that none exists: for k >= 2 _obstruction, and it stops
    with None only on labels that pass the O(n^2) re-check; for k = 1 the
    transversal count (that lattice test, else the join), and it stops with
    None only on a count of 0.  Otherwise it goes on to the end.
    """
    n = square.order
    if n > 12:
        raise OrderTooLargeError(f"k-plex engine is exhaustive only up to order 12, got {n}")
    if not 1 <= k <= n:
        raise InvalidPlexError(f"k must be in 1..{n}")
    grid = square.cells0
    give_up = ((lambda: not _count_transversals(grid, n)) if k == 1
               else (lambda: _obstruction(grid, k)))
    try:
        chosen, nodes = _counted_search(grid, k, _LATTICE_AFTER_CHECKS, give_up)
    except _OutOfChecks as out:
        nodes, proof = out.args
        log.debug("%d-plex search: %d nodes", k, nodes)
        if k == 1:
            log.debug("1-plex search: transversal count 0 after %d nodes", nodes)
        else:
            log.debug("%d-plex search: lattice obstruction mod %d after %d nodes",
                      k, proof[0], nodes)
        return None
    log.debug("%d-plex search: %d nodes", k, nodes)
    if chosen is None:
        return None
    cells = _chosen_cells(chosen)
    kind = KIND_TRANSVERSAL if k == 1 else KIND_KPLEX
    return CellSet(n, cells, kind, None if k == 1 else k)


def complement_plex(square: LatinSquare, plex: CellSet) -> CellSet:
    """Set complement of a k-plex within the n^2 cells: an (n-k)-plex."""
    n = square.order
    k = 1 if plex.kind == KIND_TRANSVERSAL else plex.k
    if plex.kind not in (KIND_TRANSVERSAL, KIND_KPLEX) or k is None:
        raise InvalidPlexError(f"expected a k-plex cell set, got kind {plex.kind!r}")
    ok, why = check_kplex(square, plex, k)
    if not ok:
        raise InvalidPlexError(f"input is not a valid {k}-plex: {why}")
    used = set(plex.cells)
    rest = tuple(
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if (i, j) not in used
    )
    comp = CellSet(n, rest, KIND_KPLEX, n - k)
    ok, why = check_kplex(square, comp, n - k)
    if not ok:  # impossible by counting; guards implementation bugs
        raise InvalidPlexError(f"complement failed validation: {why}")
    return comp


# ---------------------------------------------------------------------------
# disjoint packing: tau, orthogonal mates, quasi-transversal packing


def _max_packing(what: str, n: int, members, size: int, ceiling: int,
                 floor: int) -> list[int] | None:
    """Ascending indices of a largest family (at most `ceiling`) of pairwise
    disjoint members, or None when none has more than `floor` members.

    Each member yields its `size` 0-based cells r*n + c once and meets every
    row.  First fit in list order seeds the incumbent, and a first fit of
    `ceiling` is returned as it is.  One branch-and-bound pass then seeks
    goal = incumbent + 1 members, raising the goal at each find.  A node
    branches on the free cell in the fewest live members (those inside the
    free cells): one of them covers it, or it becomes a hole.  It is cut
    when fewer live members remain than are still needed, when a row has
    fewer free cells than that, or when fewer free cells remain than the
    needed members cover.
    """
    holders = [0] * (n * n)  # holders[b]: bitmask of the members covering cell b
    masks = []  # masks[i]: bit b for each cell b of member i
    for i, cells in enumerate(members):
        bit, mask = 1 << i, 0
        for b in cells:
            holders[b] |= bit
            mask |= 1 << b
        masks.append(mask)
    best: list[int] = []
    used = 0
    for i, mask in enumerate(masks):
        if len(best) < ceiling and not mask & used:
            best.append(i)
            used |= mask
    goal = max(len(best), floor) + 1
    row_masks = [((1 << n) - 1) << (r * n) for r in range(n)]
    chosen: list[int] = []
    nodes = 0

    def rec(free: int, live: int) -> bool:
        """Extend chosen inside free from live; True once goal passes ceiling."""
        nonlocal best, goal, nodes
        nodes += 1
        if len(chosen) == goal:
            best = sorted(chosen)
            goal += 1
            if goal > ceiling:
                return True
        need = goal - len(chosen)
        if live.bit_count() < need or free.bit_count() < need * size:
            return False
        for row in row_masks:
            if (free & row).bit_count() < need:
                return False
        cell, options, fewest = -1, 0, len(masks) + 1
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            held = holders[b] & live
            count = held.bit_count()
            if count < fewest:
                cell, options, fewest = b, held, count
                if count <= 1:
                    break
        while options:
            low = options & -options
            options ^= low
            i = low.bit_length() - 1
            left, mask = live, masks[i]
            while mask:
                bit = mask & -mask
                left &= ~holders[bit.bit_length() - 1]
                mask ^= bit
            chosen.append(i)
            if rec(free & ~masks[i], left):
                return True
            chosen.pop()
        return rec(free & ~(1 << cell), live & ~holders[cell])

    if len(best) < ceiling:
        rec((1 << n * n) - 1, (1 << len(masks)) - 1)
    del rec  # rec refers to itself: free its state now, not at the next full collection
    if len(best) <= floor:
        best = []
    log.debug("%s packing: %d nodes, stopped at %d of ceiling %d", what, nodes, len(best), ceiling)
    return best or None


def _transversal_packing(square: LatinSquare, what: str, floor: int) -> list[tuple[int, ...]]:
    """The tau family or the mate's transversals as column tuples, lex sorted,
    or [] if none beats `floor`; [] at once on a re-checked lattice
    obstruction.  With n row-fixing autotopisms (a group table or an isotope
    of one) the family is the n images of the lex-least transversal, which
    are pairwise disjoint, or [] when the row search finds none; else it is
    the packing kernel's family over every transversal, as the row search
    lists them (at most 384 at order 8: McKay, McLeod & Wanless 2006)."""
    n, grid = square.order, square.cells0
    if (labels := _obstruction(grid, 1)) is not None:
        log.debug("%s packing: 0, lattice obstruction mod %d", what, labels[0])
        return []
    maps = _column_orbit_maps(grid, n)
    if len(maps) == n:
        if not (first := _transversals(grid, 1)):
            log.debug("%s packing: no transversal (%d row-fixing autotopisms)", what, n)
            return []
        log.debug("%s packing: %d images of the lex-least transversal (%d row-fixing autotopisms)",
                  what, n, n)
        # first starts at column 0 (some image does) and maps[j] sends 0 to j: lex order
        return [tuple(map(alpha.__getitem__, first[0])) for alpha in maps]
    found = _transversals(grid)
    family = _max_packing(what, n, (map(add, range(0, n * n, n), t) for t in found), n, n, floor)
    return [found[i] for i in family or ()]


def max_disjoint_transversals(square: LatinSquare) -> tuple[int, tuple[CellSet, ...]]:
    """Exact maximum family of pairwise-disjoint transversals (tau), listed
    in lex order.

    With n row-fixing autotopisms (a group table or an isotope of one) the
    family is the n images of the lex-least transversal under them, or empty
    when there is none.  Otherwise the row search lists every transversal
    and the packing kernel runs over that list, seeded by first fit in lex
    order: a deterministic first-optimum witness.  Orders above 8 are
    refused.
    """
    n = square.order
    if n > 8:
        raise OrderTooLargeError(f"exact tau packing supports order <= 8, got {n}")
    family = _transversal_packing(square, "transversal", 0)
    return len(family), tuple(_cols_to_cellset(n, t) for t in family)


def find_orthogonal_mate(square: LatinSquare) -> LatinSquare | None:
    """Mate via a full decomposition into n disjoint transversals, an exact
    cover of the cells; symbol k of the mate marks the k-th of them in lex
    order.

    With n row-fixing autotopisms the decomposition is the n images of the
    lex-least transversal, so a mate exists iff a transversal does;
    otherwise the packing kernel looks for n disjoint transversals.  None
    certifies that no decomposition exists.  Orders above 8 are refused.
    """
    n = square.order
    if n > 8:
        raise OrderTooLargeError(f"mate search supports order <= 8, got {n}")
    family = _transversal_packing(square, "mate", n - 1)
    if not family:
        return None
    grid = [[0] * n for _ in range(n)]
    for idx, cols in enumerate(family):
        for r, c in enumerate(cols):
            grid[r][c] = idx + 1
    mate = LatinSquare(grid)
    pairs = {(square.cells0[i][j], mate.cells0[i][j]) for i in range(n) for j in range(n)}
    if len(pairs) != n * n:  # guaranteed by construction; guards bugs
        raise InvalidPlexError("mate failed the pair-distinctness recheck")
    return mate


# ---------------------------------------------------------------------------
# partial transversals and extendibility

COMPLETABLE = "completable"
EXTENDIBLE = "extendible"
NON_EXTENDIBLE = "non_extendible"


def extendibility_report(square: LatinSquare, partial) -> str:
    """Classify a partial transversal by exhaustive extension search."""
    n = square.order
    if n > 8:
        raise OrderTooLargeError(f"extendibility search supports order <= 8, got {n}")
    cs, bad = _cells(n, partial)
    ok, why = _partial_scan(square, cs, bad)
    if not ok:
        raise InvalidPartialError(why)
    grid = square.cells0
    used_rows = {r - 1 for r, _ in cs}
    colmask = sum(1 << (c - 1) for _, c in cs)  # columns and symbols are distinct
    symmask = sum(1 << grid[r - 1][c - 1] for r, c in cs)
    free_rows = [i for i in range(n) if i not in used_rows]
    if _partial_search(grid, free_rows, _stop, colmask=colmask, symmask=symmask) is not None:
        return COMPLETABLE
    for i in free_rows:
        for c in range(n):
            if not (colmask >> c) & 1 and not (symmask >> grid[i][c]) & 1:
                return EXTENDIBLE
    return NON_EXTENDIBLE


def find_near_transversal(square: LatinSquare) -> CellSet | None:
    """First near-transversal in deterministic search order, or None."""
    n = square.order
    if n > MAX_EXHAUSTIVE_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds exhaustive limit {MAX_EXHAUSTIVE_ORDER}")
    path = _partial_search(square.cells0, range(n), _stop, skips=1)
    if path is None:
        return None
    return CellSet(n, tuple((r + 1, c + 1) for r, c in enumerate(path) if c >= 0), KIND_NEAR)


def find_quasi_transversal(square: LatinSquare) -> CellSet | None:
    """First quasi-transversal in deterministic order, or None by exhaustion
    of _quasi_search.  Orders above 12 raise OrderTooLargeError.
    """
    n = square.order
    if n < 3:
        return None
    if n > 12:
        raise OrderTooLargeError(f"exhaustive quasi search supports order <= 12, got {n}")
    chosen = _quasi_search(square.cells0, _stop)
    if chosen is None:
        return None
    cs = CellSet(n, _chosen_cells(chosen), KIND_QUASI)
    ok, why = check_quasi_transversal(square, cs)
    if not ok:  # defensive; search invariants should guarantee this
        raise InvalidCellSetError(f"search produced an invalid quasi: {why}")
    return cs


def _repeat_masks(n: int, labels, d: int) -> tuple[list[int], list[int]]:
    """(symok, colok) for doubled row d: symok[c] holds bit n + s and
    colok[s] bit c iff every labelling (m, R, C, S) in `labels`, T its label
    sum, has T + R[d] + C[c] + S[s] = 0 (mod m), as the labels summed over a
    quasi-transversal doubling row d, column c and symbol s give."""
    symok, colok = [(1 << 2 * n) - (1 << n)] * n, [(1 << n) - 1] * n
    for m, rows, cols, syms in labels:
        t = -rows[d] - sum(rows) - sum(cols) - sum(syms)  # C[c] + S[s] must be t
        col_of, sym_of = {}, {}  # label -> its columns, its symbols
        for x, (c, s) in enumerate(zip(cols, syms)):
            col_of[c % m] = col_of.get(c % m, 0) | 1 << x
            sym_of[s % m] = sym_of.get(s % m, 0) | 1 << n + x
        symok = [ok & sym_of.get((t - c) % m, 0) for ok, c in zip(symok, cols)]
        colok = [ok & col_of.get((t - s) % m, 0) for ok, s in zip(colok, syms)]
    return symok, colok


def _quasi_search(grid, visit) -> list[tuple[int, ...]] | None:
    """Walk the quasi-transversals: for doubled row d = 0, 1, ..., one cell
    per entry of rows 0..d, d, d+1..n-1, the second cell of row d right of
    its first.  mask holds the columns and symbols (bits n..) used, and
    `open` those a later cell may repeat, cut to the pairs of _repeat_masks
    for the labellings of _cell_labellings that pass _labels_hold (the
    lattice cut: it drops no leaf and keeps the branching order).  visit
    runs at every leaf with chosen[r] the columns of row r; if it returns
    True the search stops and returns chosen, else None.  A missing column
    needs a later cell whose symbol is missing or open, and dually."""
    n = len(grid)
    full = (1 << 2 * n) - 1
    cells = [[(c, 1 << c, 1 << n + s, s) for c, s in enumerate(row)] for row in grid] + [[]]
    sups = _supplies(grid)
    labels = [lab for lab in _cell_labellings(grid) if _labels_hold(grid, lab)]
    log.debug("quasi search: %s", "lattice labels mod " + ",".join(str(lab[0]) for lab in labels)
              if labels else "no labels")
    path = [0] * (n + 1)
    nodes = 0

    def chosen() -> list[tuple[int, ...]]:
        return [(c,) for c in path[:d]] + [(path[d], path[d + 1])] + [(c,) for c in path[d + 2:]]

    def rec(i: int, mask: int, open_: int, todo) -> bool:
        nonlocal nodes
        nodes += 1
        if i > n:
            return visit(chosen())
        sup, nxt = sups[rows[i + 1]], cells[rows[i + 1]]
        for j, (c, cb, sb, s) in enumerate(todo):
            after = open_
            if mask & cb:
                if not after & cb:
                    continue
                after &= symok[c]
            if mask & sb:
                if not after & sb:
                    continue
                after &= colok[s]
            if i == d:
                nxt = todo[j + 1:]
            miss = (mask | cb | sb) ^ full
            free = miss | after
            while miss:  # every missing column and symbol keeps a supply
                low = miss & -miss
                if not sup[low.bit_length() - 1] & free:
                    break
                miss ^= low
            if miss:
                continue
            path[i] = c
            if rec(i + 1, mask | cb | sb, after, nxt):
                return True
        return False

    for d in range(n):  # rows[i]: the row of entry i; n past the last, with no cell
        rows = [*range(d + 1), *range(d, n + 1)]
        symok, colok = _repeat_masks(n, labels, d)
        found = any(symok) and rec(0, 0, full, cells[0])  # no pair for the repeats: no leaf
        if found:
            break
    del rec  # rec refers to itself: free the search state now, not at the next full collection
    log.debug("quasi search: %d nodes", nodes)
    return chosen() if found else None


def max_disjoint_quasi_transversals(square: LatinSquare) -> tuple[int, tuple[CellSet, ...]]:
    """Exact maximum family of pairwise-disjoint quasi-transversals.

    The packing kernel runs over the full quasi enumeration up to the
    pigeonhole ceiling floor(n^2/(n+1)), seeded by first fit in enumeration
    order, which is greedy packing with find_quasi_transversal; the family
    is listed in enumeration order.  Supported for order <= 6.
    """
    n = square.order
    if n > 6:
        raise OrderTooLargeError(f"exact quasi packing supports order <= 6, got {n}")
    if n < 3:
        return 0, ()
    quasis = _all_quasis(square)
    members = ((r * n + c for r, combo in enumerate(q) for c in combo) for q in quasis)
    family = _max_packing("quasi", n, members, n + 1, n * n // (n + 1), 0) or []
    return len(family), tuple(CellSet(n, _chosen_cells(quasis[i]), KIND_QUASI) for i in family)


def _all_quasis(square: LatinSquare) -> list[tuple[tuple[int, ...], ...]]:
    """Every quasi-transversal as its rows' 0-based column tuples, in the
    order find_quasi_transversal meets them."""
    found: list[tuple[tuple[int, ...], ...]] = []
    _quasi_search(square.cells0, lambda chosen: found.append(tuple(chosen)))
    return found


# ---------------------------------------------------------------------------
# conjecture sweep


@dataclass(frozen=True)
class SweepRow:
    """Existence flags for one square of the sweep."""

    label: str
    order: int
    near: bool
    quasi: bool
    two_plex: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "square": self.label,
            "order": self.order,
            "near": self.near,
            "quasi": self.quasi,
            "two_plex": self.two_plex,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    counterexample: SweepRow | None = None

    def to_json_dict(self) -> dict:
        out = {"rows": [r.to_json_dict() for r in self.rows]}
        out["counterexample"] = (
            None if self.counterexample is None else self.counterexample.to_json_dict()
        )
        return out


#: the square families sweep_squares knows, by name
SWEEP_GENERATORS = ("cyclic", "qstep", "isotopes")


def sweep_squares(min_order: int, max_order: int, generators, isotopes: int, seed: int):
    """Yield (label, square) for the sweep corpus, deterministically."""
    from .core import Isotopy, apply_isotopy, gen_cyclic, gen_qstep

    rng = random.Random(seed)
    for n in range(min_order, max_order + 1):
        if "cyclic" in generators:
            yield f"cyclic({n})", gen_cyclic(n)
        if "qstep" in generators:
            for m in range(2, n):
                if n % m == 0 and n // m >= 2:
                    yield f"qstep({m},{n // m})", gen_qstep(m, n // m)
        if "isotopes" in generators and isotopes > 0:
            base = gen_cyclic(n)
            for t in range(isotopes):
                iso = Isotopy.random(n, rng)
                yield f"isotope({n})#{t}", apply_isotopy(base, iso)


def conjecture_sweep(
    min_order: int = 2,
    max_order: int = 7,
    generators: tuple[str, ...] = SWEEP_GENERATORS,
    isotopes: int = 0,
    seed: int = 0,
) -> SweepReport:
    """Test near-transversal, quasi-transversal and 2-plex existence per square.

    A square of order >= 3 missing any of the three halts the sweep with a
    counterexample row (none is expected; this probes the Brualdi-Stein-
    Ryser and Rodney conjectures on the generated corpus).  Orders up to 12
    are accepted, the ceiling of the exhaustive quasi and 2-plex engines;
    sweeps above order 8 trade speed for coverage.  A min_order below 1, an
    unknown generator name, a negative isotope count, or an order range that
    yields no square, raises ValueError: an empty report is returned only
    for an empty range (max_order < min_order).
    """
    unknown = [g for g in generators if g not in SWEEP_GENERATORS]
    if unknown:
        choices = ",".join(SWEEP_GENERATORS)
        raise ValueError(f"unknown generator {unknown[0]!r}; choose from {choices}")
    if isotopes < 0:
        raise ValueError(f"isotopes must be at least 0, got {isotopes}")
    if min_order < 1:
        raise ValueError(f"min_order must be at least 1, got {min_order}")
    if max_order < min_order:
        return SweepReport(())
    if max_order > 12:
        raise OrderTooLargeError("sweep engines are exhaustive only up to order 12")
    rows: list[SweepRow] = []
    counterexample = None
    for label, sq in sweep_squares(min_order, max_order, generators, isotopes, seed):
        n = sq.order
        near = find_near_transversal(sq) is not None
        quasi = find_quasi_transversal(sq) is not None
        two = find_kplex(sq, 2) is not None if n >= 2 else False
        note = "quasi-transversal vacuous below order 3" if n < 3 else ""
        row = SweepRow(label, n, near, quasi, two, note)
        rows.append(row)
        if n >= 3 and not (near and quasi and two):
            counterexample = row
            break
    if not rows:
        raise ValueError(f"no square to sweep: {','.join(generators)} at orders "
                         f"{min_order}..{max_order}, {isotopes} isotopes per order")
    return SweepReport(tuple(rows), counterexample)
