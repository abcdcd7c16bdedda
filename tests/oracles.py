"""Independent brute-force oracles kept deliberately naive.

These never share code paths with the engines they check: transversal
counting walks every permutation diagonal, domination checks expand
neighborhoods cell by cell, existence questions scan all subsets.  The one
exception, all_quasi_cellsets, is a helper that lists the quasi engine's
own enumeration for tests of other engines; it checks nothing.
"""

import itertools
from math import gcd

from latinplex.core import MAX_INPUT_ORDER
from latinplex.errors import (
    ColumnRepeatError,
    NotSquareError,
    OrderTooLargeError,
    RowRepeatError,
    SymbolOutOfRangeError,
)


def permutation_diagonal_count(square) -> int:
    """Number of transversals by iterating all n! permutation diagonals."""
    n = square.order
    grid = square.rows()
    count = 0
    for perm in itertools.permutations(range(n)):
        symbols = {grid[i][perm[i]] for i in range(n)}
        if len(symbols) == n:
            count += 1
    return count


def three_loop_cells0(rows):
    """The Latin square validator as three per-cell loops, the reference for
    LatinSquare's set-based check: the same errors for the same defects in
    the same order, else the 0-based grid LatinSquare stores."""
    try:
        grid = [list(r) for r in rows]
    except TypeError:
        raise NotSquareError("rows must be a sequence of sequences") from None
    n = len(grid)
    if n > MAX_INPUT_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds the input limit {MAX_INPUT_ORDER}")
    if n == 0 or any(len(r) != n for r in grid):
        raise NotSquareError(f"expected n rows of n entries, got {[len(r) for r in grid]}")
    for r in grid:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= n:
                raise SymbolOutOfRangeError(f"entry {x!r} outside 1..{n}")
    for i, r in enumerate(grid):
        seen = set()
        for x in r:
            if x in seen:
                raise RowRepeatError(i + 1, x)
            seen.add(x)
    for j in range(n):
        seen = set()
        for i in range(n):
            x = grid[i][j]
            if x in seen:
                raise ColumnRepeatError(j + 1, x)
            seen.add(x)
    return tuple(tuple(x - 1 for x in r) for r in grid)


def neighbors_of(square, cell):
    """Open neighborhood in the Latin square graph, expanded from the rule."""
    n = square.order
    r, c = cell
    s = square.symbol(r, c)
    out = set()
    for j in range(1, n + 1):
        if j != c:
            out.add((r, j))
    for i in range(1, n + 1):
        if i != r:
            out.add((i, c))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if square.symbol(i, j) == s and (i, j) != (r, c):
                out.add((i, j))
    return out


def brute_is_k_dominating(square, cells, k: int) -> bool:
    n = square.order
    in_set = set(cells)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) in in_set:
                continue
            if len(neighbors_of(square, (i, j)) & in_set) < k:
                return False
    return True


def brute_gamma_k(square, k: int) -> int:
    """Smallest k-dominating set size by subset scan; tiny orders only."""
    n = square.order
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for size in range(0, n * n + 1):
        for comb in itertools.combinations(cells, size):
            if brute_is_k_dominating(square, comb, k):
                return size
    raise AssertionError("unreachable")


def brute_near_exists(square) -> bool:
    n = square.order
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for comb in itertools.combinations(cells, n - 1):
        rows = {r for r, _ in comb}
        cols = {c for _, c in comb}
        syms = {square.symbol(r, c) for r, c in comb}
        if len(rows) == len(cols) == len(syms) == n - 1:
            return True
    return False


def brute_quasi_exists(square) -> bool:
    from collections import Counter

    n = square.order
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    target = [1] * (n - 1) + [2]
    for comb in itertools.combinations(cells, n + 1):
        rows = sorted(Counter(r for r, _ in comb).values())
        if rows != target:
            continue
        cols = sorted(Counter(c for _, c in comb).values())
        if cols != target:
            continue
        syms = sorted(Counter(square.symbol(r, c) for r, c in comb).values())
        if syms == target:
            return True
    return False


def brute_max_disjoint_transversals(square) -> int:
    """Exact tau by packing over the brute-force transversal list."""
    n = square.order
    grid = square.rows()
    transversals = []
    for perm in itertools.permutations(range(n)):
        if len({grid[i][perm[i]] for i in range(n)}) == n:
            transversals.append(frozenset((i + 1, perm[i] + 1) for i in range(n)))
    best = 0
    for size in range(len(transversals), 0, -1):
        if size <= best:
            break
        for family in itertools.combinations(transversals, size):
            union = set()
            ok = True
            for t in family:
                if union & t:
                    ok = False
                    break
                union |= t
            if ok:
                best = max(best, size)
                break
    return best


# Search-order oracles.  itertools.product walks the per-row choices in
# lexicographic order, so the first valid candidate is the least one in
# the order the search engines promise.


def brute_first_near(square, missing_row=None, missing_col=None, missing_symbol=None,
                     forbidden=frozenset()):
    """Least near-transversal with rows read top to bottom, each by its
    column, an empty row ranking after every column; None if there is none."""
    n = square.order
    for choice in itertools.product([*range(1, n + 1), None], repeat=n):
        empty = [r for r in range(1, n + 1) if choice[r - 1] is None]
        if len(empty) != 1 or missing_row not in (None, empty[0]):
            continue
        cells = [(r, c) for r, c in zip(range(1, n + 1), choice) if c is not None]
        cols = {c for _, c in cells}
        syms = {square.symbol(r, c) for r, c in cells}
        if (len(cols) == len(syms) == n - 1 and missing_col not in cols
                and missing_symbol not in syms and not forbidden & set(cells)):
            return tuple(cells)
    return None


def brute_quasis(square, forbidden=frozenset()):
    """Every quasi-transversal avoiding `forbidden`, ordered by doubled row,
    then by the rows' column tuples read top to bottom."""
    n = square.order
    grid = [None] + [[None, *row] for row in square.rows()]
    columns = set(range(1, n + 1))
    # the other rows take one column each, any columns; the doubled row's two
    # columns must then be the ones they miss, or the one they miss and any other
    choices = []
    for cols in itertools.product(range(1, n + 1), repeat=n - 1):
        missing = columns.difference(cols)
        if len(missing) == 2:
            choices.append((cols, [sorted(missing)]))
        elif len(missing) == 1:
            choices.append((cols, [sorted((*missing, c)) for c in columns - missing]))
    out = []
    for doubled in range(1, n + 1):
        others = [r for r in range(1, n + 1) if r != doubled]
        row = grid[doubled]
        found = []
        for cols, pairs in choices:
            syms = {grid[r][c] for r, c in zip(others, cols)}
            if len(syms) < n - 2:  # two more cells cannot bring every symbol
                continue
            for a, b in pairs:
                if len(syms | {row[a], row[b]}) == n:
                    cells = tuple(sorted([*zip(others, cols), (doubled, a), (doubled, b)]))
                    if not forbidden & set(cells):
                        found.append(cells)
        out += sorted(found)
    return out


def brute_first_kplex(square, k: int):
    """Lexicographically least k-plex (as a sorted cell tuple), or None."""
    n = square.order
    combos = list(itertools.combinations(range(1, n + 1), k))
    for choice in itertools.product(combos, repeat=n):
        cells = [(r, c) for r, cols in zip(range(1, n + 1), choice) for c in cols]
        col_counts = [0] * (n + 1)
        sym_counts = [0] * (n + 1)
        for r, c in cells:
            col_counts[c] += 1
            sym_counts[square.symbol(r, c)] += 1
        if max(col_counts) == k and max(sym_counts) == k:
            return tuple(cells)
    return None


def brute_b_matching(needs, edges) -> bool:
    """True iff some subset of `edges` (pairs of vertex names) meets every
    vertex v exactly needs[v] times (0 for a vertex not in needs): every
    subset of half the total need is tried."""
    size, odd = divmod(sum(needs.values()), 2)
    if odd:
        return False
    for pick in itertools.combinations(edges, size):
        degree = dict.fromkeys(needs, 0)
        for edge in pick:
            for v in edge:
                degree[v] = degree.get(v, 0) + 1
        if degree == needs:
            return True
    return False


def labels_obstruct(square, k: int, m: int, labels) -> bool:
    """True iff the row, column and symbol labels (three lists indexed from
    0) sum to 0 mod m on every cell while k times the sum of all labels does
    not.  Summed over the cells of a k-plex the labels would give both, so
    then no k-plex exists."""
    rows, cols, syms = labels
    n = square.order
    if not len(rows) == len(cols) == len(syms) == n:
        return False
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if (rows[r - 1] + cols[c - 1] + syms[square.symbol(r, c) - 1]) % m != 0:
                return False
    return k * (sum(rows) + sum(cols) + sum(syms)) % m != 0


def brute_labelling_count(square, m: int) -> int:
    """Labellings of the cells in Z_m with row 1 and column 1 labelled 0,
    counted one by one: every column labelling x with x[1] = 0 in
    Z_m^(n-1); row 1 then fixes each symbol's label and column 1 each row's,
    and x counts iff every cell's three labels sum to 0 mod m.  (Shifting
    the row, column and symbol labels by a, b and -a-b makes any labelling
    one of these.)"""
    n = square.order
    grid = [[square.symbol(r, c) for c in range(1, n + 1)] for r in range(1, n + 1)]
    count = 0
    for rest in itertools.product(range(m), repeat=n - 1):
        cols = (0, *rest)
        syms = {grid[0][c]: -cols[c] for c in range(n)}
        rows = [-syms[row[0]] for row in grid]
        count += all((rows[r] + cols[c] + syms[grid[r][c]]) % m == 0
                     for r in range(1, n) for c in range(1, n))
    return count


def echelon_cell_labellings(grid):
    """The labellings of an n-wide echelon (Hermite) basis of the cell
    equations, kept as a reference for plexes._cell_labellings, in its
    (m, row_labels, col_labels, sym_labels) form: with x[c] the label of
    column c and x[0] = 0, every cell of grid (symbols from 0) but those of
    row 0 and column 0 asks for an integral dot product of x with
    e[lead] + e[c] - e[where0[grid[r][c]]]; for each pivot i of the basis
    b_0, b_1, ... the x with b_j . x = [j == i], zero off the pivots, gives
    the labels m * x, m the least common denominator of x.  The moduli are
    those of the basis, not the lattice's invariant factors."""
    n = len(grid)
    where0 = sorted(range(n), key=grid[0].__getitem__)
    basis = {}  # pivot column -> the basis row whose first nonzero it is
    for row in grid[1:]:
        lead = where0[row[0]]
        for c in range(1, n):
            v = [0] * n
            v[lead] += 1
            v[c] += 1
            v[where0[row[c]]] -= 1
            v[0] = 0
            for p in range(1, n):
                if not v[p]:
                    continue
                b = basis.get(p)
                if b is None:
                    basis[p] = v
                    break
                while v[p]:  # Euclid on the pivot entries
                    q = b[p] // v[p]
                    b, v = v, [x - q * y for x, y in zip(b, v)]
                basis[p] = b
    pivots = sorted(basis)
    out, d = [], 1
    for i, p in enumerate(pivots):
        d *= basis[p][p]  # y = d * x is integral by Cramer's rule
        if abs(d) == 1:
            continue
        y = [0] * n
        for j in range(i, -1, -1):
            b = basis[pivots[j]]
            rest = sum(b[q] * y[q] for q in pivots[j + 1:i + 1])
            y[pivots[j]] = (d * (j == i) - rest) // b[pivots[j]]
        g = gcd(d, *y)
        m = abs(d) // g
        if m > 1:
            col = [v // g % m for v in y]
            out.append((m, [col[where0[row[0]]] for row in grid], col,
                        [-col[where0[s]] % m for s in range(n)]))
    return out


def all_quasi_cellsets(square):
    """Every quasi-transversal of plexes._all_quasis as a validated CellSet,
    in enumeration order."""
    from latinplex.plexes import KIND_QUASI, CellSet, _all_quasis, _chosen_cells

    return [CellSet(square.order, _chosen_cells(q), KIND_QUASI) for q in _all_quasis(square)]
