"""The Latin square graph and its k-domination structure.

Vertices are the n^2 cells; two distinct cells are adjacent when they share
a row, a column, or a symbol.  Two distinct cells share at most one line,
so the graph is strongly regular, (n^2, 3(n-1), n, 6) (Bose, Pacific J.
Math. 13, 1963), and is answered from the cells' lines, with domination
from the set's count on each line.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import cached_property

from .core import MAX_EXHAUSTIVE_ORDER, LatinSquare
from .errors import DimensionMismatchError, OrderTooLargeError
from .plexes import (
    KIND_CELLS,
    CellSet,
    _cells,
    _column_orbit_maps,
    _line_counts,
    check_quasi_transversal,
    check_transversal,
    find_orthogonal_mate,
)

log = logging.getLogger(__name__)


class LatinSquareGraph:
    """L3(L, n): cells of a Latin square, adjacent on shared row/column/symbol.

    Vertex v = i*n + j is the 0-based cell (i, j); cells at the interface
    are 1-based and checked against the square.
    """

    def __init__(self, square: LatinSquare):
        self.square = square
        self.n = square.order
        self.num_vertices = self.n * self.n

    @cached_property
    def _symbol_columns(self) -> list[list[int]]:
        """[i][s]: the 0-based column of 0-based symbol s in row i."""
        table = [[0] * self.n for _ in range(self.n)]
        for where, row in zip(table, self.square.cells0):
            for j, s in enumerate(row):
                where[s] = j
        return table

    @cached_property
    def adj(self) -> list[int]:
        """Neighbour mask of every vertex: its row, column and symbol bits
        without its own.  The list takes n^4/8 bytes, so orders above
        MAX_EXHAUSTIVE_ORDER are refused."""
        n = self.n
        if n > MAX_EXHAUSTIVE_ORDER:
            raise OrderTooLargeError(
                f"adjacency masks support order <= {MAX_EXHAUSTIVE_ORDER}, got {n}"
            )
        row0, col0 = (1 << n) - 1, sum(1 << (i * n) for i in range(n))
        syms = [sum(1 << (i * n + where[s]) for i, where in enumerate(self._symbol_columns))
                for s in range(n)]
        return [(row0 << (i * n) | col0 << j | syms[s]) & ~(1 << (i * n + j))
                for i, row in enumerate(self.square.cells0) for j, s in enumerate(row)]

    def vertex_index(self, i: int, j: int) -> int:
        """Row-major vertex id of cell (i, j), 1-based input.  A cell
        outside the square raises InvalidCellSetError."""
        CellSet(self.n, [(i, j)], KIND_CELLS)
        return (i - 1) * self.n + (j - 1)

    def cell_of(self, v: int) -> tuple[int, int]:
        i, j = divmod(v, self.n)
        return i + 1, j + 1

    def _shared_lines(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Lines the cells share: 3 if a == b, else at most 1."""
        (i, j), (k, m) = (divmod(self.vertex_index(*cell), self.n) for cell in (a, b))
        grid = self.square.cells0
        return (i == k) + (j == m) + (grid[i][j] == grid[k][m])

    def adjacent(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return self._shared_lines(a, b) == 1

    def degree(self, cell: tuple[int, int]) -> int:
        self.vertex_index(*cell)
        return 3 * (self.n - 1)

    def common_neighbor_count(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Strongly regular: 3(n-1) for a cell and itself, n if adjacent, else 6."""
        shared = self._shared_lines(a, b)
        if shared == 3:
            return 3 * (self.n - 1)
        return self.n if shared else 6


def build_graph(square: LatinSquare) -> LatinSquareGraph:
    """The Latin square graph of a validated square; every vertex has
    degree 3(n-1)."""
    return LatinSquareGraph(square)


@dataclass(frozen=True)
class DominationCertificate:
    """Verdict of a (k or (ell,k)) domination check with per-vertex deficiencies.

    `deficient` lists (i, j, count): for vertices outside the set, count is
    the number of dominating neighbors (< k); for vertices inside the set
    under an ell constraint, count is the induced degree (> ell-1).
    """

    k: int
    ell: int | None
    cells: tuple[tuple[int, int], ...]
    verdict: bool
    deficient: tuple[tuple[int, int, int], ...] = ()


def is_k_dominating(graph: LatinSquareGraph, cells, k: int) -> DominationCertificate:
    """Every vertex outside the set needs at least k neighbors inside.
    Cells are taken as a CellSet of the graph's order: an outside or
    repeated cell raises InvalidCellSetError, a non-integer coordinate TypeError.

    An outside cell shares one line with each neighbour, so its neighbours
    in the set number the set's counts on its row, column and symbol; it is
    short only on a line of count <= (k - 1) // 3.  Only those lines' cells
    are checked, row-major: O(|cells| + n + their cells), plus the graph's
    one O(n^2) table once a symbol line is low.
    """
    cs = CellSet(graph.n, cells, KIND_CELLS).cells
    in_set = set(cs)
    rows, cols, syms = _line_counts(graph.square, cs)
    low = (k - 1) // 3
    n = graph.n
    low_cols = [j for j in range(n) if cols[j + 1] <= low]
    low_syms = [s for s in range(n) if syms[s + 1] <= low]
    deficient = []
    for i, row in enumerate(graph.square.cells0):
        if rows[i + 1] <= low:
            js = range(n)
        elif low_syms:
            js = sorted({*low_cols, *(graph._symbol_columns[i][s] for s in low_syms)})
        else:
            js = low_cols
        for j in js:
            cnt = rows[i + 1] + cols[j + 1] + syms[row[j] + 1]
            if cnt < k and (i + 1, j + 1) not in in_set:
                deficient.append((i + 1, j + 1, cnt))
    return DominationCertificate(k, None, cs, not deficient, tuple(deficient))


def induced_degrees(square: LatinSquare, cells) -> dict[tuple[int, int], int]:
    """Degree of each set cell in the subgraph induced by the set.
    Cells outside the square or repeated raise InvalidCellSetError."""
    cs = CellSet(square.order, cells, KIND_CELLS).cells
    rows, cols, syms = _line_counts(square, cs)
    grid = square.cells0
    # each of the three tallies counts the cell itself once
    return {(r, c): rows[r] + cols[c] + syms[grid[r - 1][c - 1] + 1] - 3 for r, c in cs}


def is_lk_independent_dominating(
    graph: LatinSquareGraph, cells, ell: int, k: int
) -> DominationCertificate:
    """k-dominating with induced maximum degree at most ell-1."""
    base = is_k_dominating(graph, cells, k)
    deficient = list(base.deficient)
    for (r, c), d in sorted(induced_degrees(graph.square, base.cells).items()):
        if d > ell - 1:
            deficient.append((r, c, d))
    return DominationCertificate(k, ell, base.cells, not deficient, tuple(deficient))


# ---------------------------------------------------------------------------
# exact k-domination number


def gamma_k_lower_bound(n: int, k: int) -> int:
    """k*N/(k+Delta) rounded up, with N = n^2 and Delta = 3(n-1); 0 when k = 0."""
    return -(-k * n * n // (k + 3 * (n - 1))) if k else 0


def _cell_orbits(grid, n: int) -> list[int]:
    """orbits[v]: the mask of the orbit of cell v = i*n + j under the cell
    maps (i, j) -> (alpha(i), beta(j)), beta a column map of a row-fixing
    autotopism, alpha a row map of a column-fixing one (the same maps of
    the transpose): the row orbit of i times the column orbit of j.

    Each factor sends rows, columns and symbols to lines of the same kind,
    so every such map is a graph automorphism.  Both factors act freely,
    so every orbit has |R|*|C| cells.  On a group table, or any isotope of
    one, both act transitively and every orbit is all n^2 cells.
    """
    betas = _column_orbit_maps(grid, n)
    alphas = _column_orbit_maps(list(zip(*grid)), n)
    cols = [sum(1 << beta[j] for beta in betas) for j in range(n)]
    return [sum(cols[j] << alpha[i] * n for alpha in alphas) for i in range(n) for j in range(n)]


def gamma_k_exact(graph: LatinSquareGraph, k: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact gamma_k by branch-and-bound, orders up to 6 (36 vertices).

    Each node branches on the first vertex outside the set that still has
    fewer than k neighbours in it: either that vertex joins the set or one
    of its undecided neighbours does, tried in order, each marked out once
    tried.  A node is cut when its size plus ceil(D / R) reaches the
    incumbent, D being the total deficit and R the largest deficit one
    undecided vertex can still remove, and the search stops as soon as the
    incumbent meets gamma_k_lower_bound.  The gain of a vertex is the
    deficit it removes on joining the set; the bound's R, each branch and
    the greedy seed of the incumbent all use it, the seed taking at each
    step the first vertex of largest gain until no vertex is short.
    k < 0 raises ValueError; k = 0 gives (0, ()).

    The root marks out the whole orbit of each candidate once tried, from
    _cell_orbits, so a later root candidate in that orbit is skipped.  This
    is sound because the root's out-set stays a union of whole orbits: a
    set that avoids it and meets the orbit of an earlier candidate c maps
    onto a set through c that avoids the same out-set, of the same size,
    which the branch of c has already explored.
    On a cell-transitive square the first root branch is the only one.
    Deeper nodes are not cut: that would need the stabiliser of the set,
    and on a group table the stabiliser of one cell is already trivial.
    The DEBUG line counts the cell orbits, 0 when the greedy set meets the
    lower bound and no search runs.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = graph.n
    if n > 6:
        raise OrderTooLargeError(f"exact gamma_k supports order <= 6, got {n}")
    N = graph.num_vertices
    adj = graph.adj
    lower = gamma_k_lower_bound(n, k)

    neighbors = [tuple(u for u in range(N) if (adj[v] >> u) & 1) for v in range(N)]
    counts = [0] * N

    def gain(u: int, short: int) -> int:
        """The deficit that u removes on joining the set: one per short
        neighbour, plus its own when u is short."""
        g = (adj[u] & short).bit_count()
        return g + k - counts[u] if short >> u & 1 else g

    def take(c: int, short: int) -> int:
        """Count c at each neighbour; short without c and the vertices c completes."""
        short &= ~(1 << c)
        for u in neighbors[c]:
            counts[u] += 1
            if counts[u] == k:
                short &= ~(1 << u)
        return short

    full = (1 << N) - 1
    best_mask, short = 0, full if k else 0
    while short:
        c = max((u for u in range(N) if not best_mask >> u & 1), key=lambda u: gain(u, short))
        best_mask |= 1 << c
        short = take(c, short)
    best_size = best_mask.bit_count()
    counts = [0] * N  # the search starts from the empty set
    nodes = 0

    def rec(S: int, out: int, short: int, size: int, D: int) -> bool:
        """short: the vertices outside S with fewer than k neighbours in S;
        D: their total deficit.  Returns True once the lower bound is met."""
        nonlocal best_size, best_mask, nodes
        nodes += 1
        if not short:
            best_size, best_mask = size, S
            return size <= lower
        free = full & ~(S | out)
        reach = max((gain(u, short) for u in range(N) if free >> u & 1), default=0)
        if not reach or size + -(-D // reach) >= best_size:
            return False
        v = (short & -short).bit_length() - 1
        cands = (adj[v] | 1 << v) & free
        while cands:
            bit = cands & -cands
            cands ^= bit
            c = bit.bit_length() - 1
            stop = rec(S | bit, out, take(c, short), size + 1, D - gain(c, short))
            for u in neighbors[c]:
                counts[u] -= 1
            if stop:
                return True
            out |= bit if S else orbit[c]
            cands &= ~out
        return False

    orbits = 0
    if best_size > lower:
        orbit = _cell_orbits(graph.square.cells0, n)
        orbits = len(set(orbit))
        rec(0, 0, full, 0, k * N)
    log.debug("gamma_%d: %d nodes, stopped at size %d, lower bound %d, %d root orbit%s",
              k, nodes, best_size, lower, orbits, "" if orbits == 1 else "s")
    return best_size, tuple(sorted(graph.cell_of(v) for v in range(N) if (best_mask >> v) & 1))


# ---------------------------------------------------------------------------
# equivalences


@dataclass(frozen=True)
class EquivalenceReport:
    """Independent evaluations of the three transversal-equivalent statements."""

    is_3ds_of_size_n: bool
    is_13_ids_of_size_n: bool
    is_transversal: bool

    @property
    def agree(self) -> bool:
        return self.is_3ds_of_size_n == self.is_13_ids_of_size_n == self.is_transversal


def transversal_equivalence_check(square: LatinSquare, cells) -> EquivalenceReport:
    """Evaluate independently: size-n 3-dominating set, size-n (1,3)-IDS,
    and transversal; the three must agree for every input."""
    n = square.order
    cs, _ = _cells(n, cells)
    if len(cs) != n:
        raise DimensionMismatchError(f"expected {n} cells, got {len(cs)}")
    graph = build_graph(square)
    three_ds = is_k_dominating(graph, cs, 3).verdict
    ids13 = is_lk_independent_dominating(graph, cs, 1, 3).verdict
    trans = check_transversal(square, cs)[0]
    return EquivalenceReport(three_ds, ids13, trans)


@dataclass(frozen=True)
class DomaticReport:
    """Result of verifying a family of disjoint k-dominating sets."""

    k: int
    parts: tuple[tuple[tuple[int, int], ...], ...]
    verdict: bool
    is_partition: bool
    implied_lower_bound: int
    failures: tuple[str, ...] = ()


def verify_domatic_partition(graph: LatinSquareGraph, parts, k: int) -> DomaticReport:
    """Check pairwise disjointness and k-domination of every part.

    A disjoint family is accepted whether or not it covers the vertex set;
    is_partition reports whether the parts exactly partition it (any
    disjoint family of kDS extends to a k-domatic partition of the same
    size, so d_k >= number of parts either way).  Each part's cells are taken
    as by is_k_dominating (InvalidCellSetError, TypeError); a cell in two
    parts is a failure.
    """
    norm = [CellSet(graph.n, p, KIND_CELLS) for p in parts]
    failures: list[str] = []
    seen: dict[tuple[int, int], int] = {}
    for idx, p in enumerate(norm):
        for cell in p:
            if cell in seen:
                failures.append(f"cell {cell} appears in parts {seen[cell]} and {idx}")
            seen[cell] = idx
    covered = len(seen) == graph.num_vertices and not failures
    for idx, p in enumerate(norm):
        cert = is_k_dominating(graph, p, k)
        if not cert.verdict:
            failures.append(
                f"part {idx} is not {k}-dominating (first deficiency {cert.deficient[0]})"
            )
    verdict = not failures
    return DomaticReport(
        k,
        tuple(p.cells for p in norm),
        verdict,
        covered,
        len(norm) if verdict else 0,
        tuple(failures),
    )


def domatic_upper_bound(n: int, gamma_k: int) -> int:
    """d_k <= |V| / gamma_k for any graph; here |V| = n^2."""
    return (n * n) // gamma_k


def has_mate_coloring(square: LatinSquare) -> tuple[bool, dict[tuple[int, int], int] | None]:
    """Whether a proper n-coloring of the graph exists.

    Each row is an n-clique so chi >= n always; an n-coloring exists exactly
    when the square decomposes into n disjoint transversals, i.e. when an
    orthogonal mate exists, whose symbol classes are the color classes.
    """
    n = square.order
    mate = find_orthogonal_mate(square)
    if mate is None:
        return False, None
    coloring = {
        (i, j): mate.symbol(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
    }
    return True, coloring


# ---------------------------------------------------------------------------
# quasi-transversal <-> 3DS correspondence


@dataclass(frozen=True)
class CorrespondenceReport:
    """Forward check plus (small orders) the exhaustive converse scan."""

    is_quasi: bool
    is_3ds: bool
    forward_ok: bool
    scan_total_3ds: int | None = None
    scan_quasi_count: int | None = None
    scan_non_quasi_examples: tuple[tuple[tuple[int, int], ...], ...] = ()


def scan_3ds_sets(square: LatinSquare, size: int):
    """Enumerate every size-`size` 3-dominating set; order <= 5 only.
    Returns the count, how many are quasi-transversals, and up to 5 that
    are not."""
    n = square.order
    if n > 5:
        raise OrderTooLargeError(f"exhaustive 3DS scan supports order <= 5, got {n}")
    graph = build_graph(square)
    adj = graph.adj
    N = graph.num_vertices
    total = 0
    quasi_count = 0
    examples: list[tuple[tuple[int, int], ...]] = []
    for comb in itertools.combinations(range(N), size):
        mask = 0
        for v in comb:
            mask |= 1 << v
        ok = True
        for v in range(N):
            if (mask >> v) & 1:
                continue
            if bin(adj[v] & mask).count("1") < 3:
                ok = False
                break
        if not ok:
            continue
        total += 1
        cells = tuple(graph.cell_of(v) for v in comb)
        if check_quasi_transversal(square, cells)[0]:
            quasi_count += 1
        elif len(examples) < 5:
            examples.append(cells)
    return total, quasi_count, tuple(examples)


def quasi_3ds_correspondence(square: LatinSquare, cells) -> CorrespondenceReport:
    """Forward direction: a quasi-transversal is a 3DS of size n+1 (n >= 3).

    At order <= 4 every (n+1)-subset that 3-dominates is also tested
    against the quasi-transversal validator and disagreements are
    reported, not assumed away.
    """
    n = square.order
    cs, _ = _cells(n, cells)
    if len(cs) != n + 1:
        raise DimensionMismatchError(f"expected {n + 1} cells, got {len(cs)}")
    graph = build_graph(square)
    is_quasi = check_quasi_transversal(square, cs)[0]
    is_3ds = is_k_dominating(graph, cs, 3).verdict
    forward_ok = (not is_quasi) or is_3ds
    if n > 4:
        return CorrespondenceReport(is_quasi, is_3ds, forward_ok)
    total, quasi_count, examples = scan_3ds_sets(square, n + 1)
    return CorrespondenceReport(is_quasi, is_3ds, forward_ok, total, quasi_count, examples)
