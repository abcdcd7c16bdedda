"""Cell sets of a Latin square, checked by counting the lines they meet.

A transversal hits every row, column and symbol once; a k-plex k times; a
near-transversal is a partial transversal of length n-1; a quasi-transversal
has n+1 cells with exactly one doubled row, doubled column and doubled
symbol (every symbol present).  Quasi-transversals are treated as undefined
below order 3, matching the scope of every statement that uses them.  No
check searches: the search engines are in ``plexes``.
"""

from __future__ import annotations

from operator import index, itemgetter

from .core import Frozen, LatinSquare
from .errors import FormatError, InvalidCellSetError, short_repr

KIND_TRANSVERSAL = "transversal"
KIND_NEAR = "near-transversal"
KIND_QUASI = "quasi-transversal"
KIND_KPLEX = "k-plex"
KIND_CELLS = "cell-set"  # unconstrained cardinality; used for domination sets

_KINDS = (KIND_TRANSVERSAL, KIND_NEAR, KIND_QUASI, KIND_KPLEX, KIND_CELLS)


class CellSet(Frozen):
    """A set of (row, column) cells of an order-n square, tagged with intent.

    Cells are 1-based integer pairs, stored sorted row-major; an outside or
    repeated cell raises InvalidCellSetError, a non-integer or bool coordinate
    TypeError.  Cardinality must match the kind: n for a transversal, n-1 near,
    n+1 quasi, n*k for a k-plex; a cell-set takes any number.
    """

    square_order: int
    cells: tuple[tuple[int, int], ...]
    kind: str
    k: int | None = None

    def __init__(self, square_order: int, cells, kind: str, k: int | None = None):
        n = square_order
        cells, bad = _cells(n, cells)
        if kind not in _KINDS:
            raise InvalidCellSetError(f"unknown kind {short_repr(kind)}")
        if bad:
            raise InvalidCellSetError(bad)
        m = len(cells)
        if kind == KIND_TRANSVERSAL and m != n:
            raise InvalidCellSetError(f"transversal needs {n} cells, got {m}")
        if kind == KIND_NEAR and m != n - 1:
            raise InvalidCellSetError(f"near-transversal needs {n - 1} cells, got {m}")
        if kind == KIND_QUASI and m != n + 1:
            raise InvalidCellSetError(f"quasi-transversal needs {n + 1} cells, got {m}")
        if kind == KIND_KPLEX:
            if k is None or not 0 <= k <= n:
                raise InvalidCellSetError(f"k-plex needs 0 <= k <= {n}")
            if m != n * k:
                raise InvalidCellSetError(f"{k}-plex needs {n * k} cells, got {m}")
        vars(self).update(square_order=n, cells=cells, kind=kind, k=k)

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
            raise FormatError(f"k must be a JSON integer, got {short_repr(k)}")
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
            return cs, f"cell ({short_repr(r)},{short_repr(c)}) outside 1..{order}"
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


def _line_issue(square: LatinSquare, cells, size: int | None, hi: int, cover: bool = False):
    """(the cells as _cells normalises them, their _line_counts or None, and
    why they are not `size` cells meeting no line more than hi times and,
    with cover, every line, or None).  A size of None takes any size.

    The first kind of line out of bounds (rows, then columns, then symbols)
    is named as "{kind} {i} occurs {count} times": its line met more than hi
    times that row-major cell order reaches first, else its lowest line not
    met.  Only the side of the bound that the callers' sizes make
    sufficient is tested: with cover, that index 0 holds the one zero count;
    else that every cell lies on lines met exactly hi times, which is at most
    hi when hi is 1 or the size is n*hi.
    """
    cs, bad = _cells(square.order, cells)
    if not bad and size is not None and len(cs) != size:
        bad = f"expected {size} cells, got {len(cs)}"
    if bad:
        return cs, None, bad
    counts = _line_counts(square, cs)
    for j, cnt in enumerate(counts):
        if cnt.count(0) == 1 if cover else cnt.count(hi) * hi == len(cs):
            continue
        grid = square.cells0
        met = map(itemgetter(j), cs) if j < 2 else (grid[r - 1][c - 1] + 1 for r, c in cs)
        i = next((i for i in met if cnt[i] > hi), None) or cnt.index(0, 1)
        return cs, counts, f"{('row', 'column', 'symbol')[j]} {i} occurs {cnt[i]} times"
    return cs, counts, None


def check_transversal(square: LatinSquare, cells) -> tuple[bool, str | None]:
    """True iff the cells cover every row, column and symbol exactly once."""
    return check_kplex(square, cells, 1)


def check_kplex(square: LatinSquare, cells, k: int) -> tuple[bool, str | None]:
    """True iff every row, column and symbol occurs exactly k times: n*k
    cells, none of whose lines is met more than k times."""
    why = _line_issue(square, cells, square.order * k, k)[2]
    return why is None, why


def check_partial_transversal(square: LatinSquare, cells) -> tuple[bool, str | None]:
    """True iff no row, column or symbol is met twice (so at most n cells)."""
    why = _line_issue(square, cells, None, 1)[2]
    return why is None, why


def check_near_transversal(square: LatinSquare, cells) -> tuple[bool, str | None]:
    """True iff the cells form a partial transversal of length exactly n-1."""
    why = _line_issue(square, cells, square.order - 1, 1)[2]
    return why is None, why


def check_quasi_transversal(square: LatinSquare, cells) -> tuple[bool, str | None]:
    """True iff n+1 cells double exactly one row, one column and one symbol.

    All n symbols appear (n-1 once, one twice); likewise rows and columns:
    n+1 cells that meet every line meet exactly one line of each kind twice.
    For order < 3 the notion is treated as vacuous and the check fails with
    a diagnosis rather than an error.
    """
    why = _quasi_issue(square, cells)[2]
    return why is None, why


def _quasi_issue(square: LatinSquare, cells):
    """_line_issue for a quasi-transversal, vacuous below order 3; a line met
    3 times or more is named before the line its kind leaves empty."""
    n = square.order
    if n < 3:
        return (), None, "quasi-transversal is vacuous below order 3"
    return _line_issue(square, cells, n + 1, 2, cover=True)


def quasi_profile(square: LatinSquare, cells) -> tuple[int, int, int]:
    """(doubled row, doubled column, doubled symbol) of a valid quasi-transversal."""
    return _profiled_quasi(square, cells)[1]


def _profiled_quasi(square: LatinSquare, cells):
    """(the cells as _cells normalises them, their quasi_profile)."""
    cs, counts, why = _quasi_issue(square, cells)
    if why:
        raise InvalidCellSetError(f"not a quasi-transversal: {why}")
    return cs, tuple(cnt.index(2, 1) for cnt in counts)
