"""The benchmark's own checks, written without any latinplex code.

Squares are lists of rows of symbols 1..n and cells are 1-based (row, column)
pairs, as in latinplex's public interface.  Every check returns None when
the object is what it claims to be, else a one-line reason.
"""

from __future__ import annotations

from collections import Counter


def cyclic_rows(n: int) -> list[list[int]]:
    """Cayley table of Z_n: symbol (i + j) mod n, relabelled into 1..n."""
    return [[(i + j) % n + 1 for j in range(n)] for i in range(n)]


def qstep_rows(m: int, q: int) -> list[list[int]]:
    """Table of Z_m x Z_q laid out as m x m blocks of cyclic q x q blocks."""
    n = m * q
    return [
        [((r // q + c // q) % m) * q + (r % q + c % q) % q + 1 for c in range(n)]
        for r in range(n)
    ]


def xor_rows(k: int) -> list[list[int]]:
    """Table of the elementary abelian group Z_2^k: symbol i XOR j."""
    n = 1 << k
    return [[(i ^ j) + 1 for j in range(n)] for i in range(n)]


def isotope_rows(rows, f, g, h) -> list[list[int]]:
    """Image M with M[f(i)][g(j)] = h(L[i][j]); f, g, h are 1-based image tuples."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[f[i] - 1][g[j] - 1] = h[rows[i][j] - 1]
    return out


def latin_issue(rows) -> str | None:
    n = len(rows)
    full = set(range(1, n + 1))
    if any(len(r) != n for r in rows):
        return "not an n x n grid"
    for i, r in enumerate(rows):
        if set(r) != full:
            return f"row {i + 1} is not a permutation of 1..{n}"
    for j in range(n):
        if {rows[i][j] for i in range(n)} != full:
            return f"column {j + 1} is not a permutation of 1..{n}"
    return None


def orthogonal_issue(rows, mate) -> str | None:
    bad = latin_issue(mate)
    if bad:
        return f"mate: {bad}"
    n = len(rows)
    pairs = {(rows[i][j], mate[i][j]) for i in range(n) for j in range(n)}
    if len(pairs) != n * n:
        return f"only {len(pairs)} of {n * n} symbol pairs occur"
    return None


def _profile(rows, cells):
    """Row, column and symbol occurrence counts, or a reason the cells are bad."""
    n = len(rows)
    cells = [tuple(c) for c in cells]
    if len(set(cells)) != len(cells):
        return "duplicate cells"
    for r, c in cells:
        if not (1 <= r <= n and 1 <= c <= n):
            return f"cell ({r},{c}) outside 1..{n}"
    return (
        Counter(r for r, _ in cells),
        Counter(c for _, c in cells),
        Counter(rows[r - 1][c - 1] for r, c in cells),
    )


def plex_issue(rows, cells, k: int) -> str | None:
    """k-plex: every row, column and symbol is hit exactly k times."""
    prof = _profile(rows, cells)
    if isinstance(prof, str):
        return prof
    n = len(rows)
    for name, cnt in zip(("row", "column", "symbol"), prof):
        if len(cnt) != n or set(cnt.values()) != {k}:
            return f"{name} counts are not all {k}"
    return None


def near_issue(rows, cells) -> str | None:
    """Near-transversal: n-1 cells, no row, column or symbol twice."""
    prof = _profile(rows, cells)
    if isinstance(prof, str):
        return prof
    n = len(rows)
    if len(cells) != n - 1:
        return f"{len(cells)} cells, expected {n - 1}"
    for name, cnt in zip(("row", "column", "symbol"), prof):
        if max(cnt.values()) > 1:
            return f"a {name} repeats"
    return None


def quasi_issue(rows, cells) -> str | None:
    """Quasi-transversal: n+1 cells covering every row, column and symbol,
    exactly one of each doubled."""
    prof = _profile(rows, cells)
    if isinstance(prof, str):
        return prof
    n = len(rows)
    if len(cells) != n + 1:
        return f"{len(cells)} cells, expected {n + 1}"
    for name, cnt in zip(("row", "column", "symbol"), prof):
        if len(cnt) != n or sorted(cnt.values()) != [1] * (n - 1) + [2]:
            return f"{name} counts are not n-1 ones and one two"
    return None


def dominating_issue(rows, cells, k: int) -> str | None:
    """Every cell outside the set shares a row, column or symbol with at
    least k set cells.  Two distinct cells of a Latin square share at most
    one of the three, so per-class counts add up to the neighbour count."""
    prof = _profile(rows, cells)
    if isinstance(prof, str):
        return prof
    row_cnt, col_cnt, sym_cnt = prof
    in_set = {tuple(c) for c in cells}
    n = len(rows)
    for i in range(1, n + 1):
        row = rows[i - 1]
        ri = row_cnt[i]
        for j in range(1, n + 1):
            if (i, j) in in_set:
                continue
            if ri + col_cnt[j] + sym_cnt[row[j - 1]] < k:
                return f"cell ({i},{j}) has fewer than {k} neighbours in the set"
    return None


def disjoint_issue(families) -> str | None:
    seen: set[tuple[int, int]] = set()
    for idx, cells in enumerate(families):
        cells = {tuple(c) for c in cells}
        if seen & cells:
            return f"part {idx + 1} overlaps an earlier part"
        seen |= cells
    return None
