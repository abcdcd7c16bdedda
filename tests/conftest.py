import os
import random
from pathlib import Path

import pytest

import latinplex
from latinplex.core import (
    Isotopy,
    LatinSquare,
    apply_isotopy,
    gen_cyclic,
    gen_qstep,
    gen_two_step_pow2,
)
from latinplex.plexes import _partial_search

#: nontrivial q-step factorizations with order <= 12
QSTEP_PARAMS = [
    (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
    (2, 5), (5, 2), (3, 4), (4, 3), (2, 6), (6, 2),
]


def build_corpus() -> list[tuple[str, object]]:
    """Deterministic test corpus: cyclic squares, q-step squares, the
    doubling family, and seeded random isotopes of the cyclic squares."""
    corpus = [(f"cyclic({n})", gen_cyclic(n)) for n in range(1, 9)]
    corpus += [(f"qstep({m},{q})", gen_qstep(m, q)) for m, q in QSTEP_PARAMS]
    corpus += [(f"twostep({k})", gen_two_step_pow2(k)) for k in (2, 3)]
    rng = random.Random(20260809)
    for n in range(3, 9):
        base = gen_cyclic(n)
        for t in range(2):
            iso = Isotopy.random(n, rng)
            corpus.append((f"isotope({n})#{t}", apply_isotopy(base, iso)))
    return corpus


CORPUS = build_corpus()


def backtrack_count(grid, n: int) -> int:
    """Transversals counted one by one by the partial-transversal kernel."""
    leaves = []
    _partial_search(grid, range(n), leaves.append)
    return len(leaves)


def cli_env() -> dict[str, str]:
    """Environment for a `python -m latinplex.cli` child process: the
    directory holding the latinplex package this process imported comes
    first on PYTHONPATH, so the child runs the same code from a checkout."""
    paths = [str(Path(latinplex.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


#: an order-6 square with no transversal, and no lattice obstruction for any k
NO_TRANSVERSAL_6 = [[1, 2, 3, 4, 5, 6], [2, 3, 5, 1, 6, 4], [3, 5, 6, 2, 4, 1],
                    [4, 6, 1, 5, 3, 2], [5, 4, 2, 6, 1, 3], [6, 1, 4, 3, 2, 5]]


def non_group_square(orbit: int) -> LatinSquare:
    """An order-6 square that is no group table, whose column 1 has the given
    orbit under the row-fixing autotopisms: 2 is cyclic(6) with the
    intercalate at rows/columns {1,4} switched, 1 has no such autotopism."""
    if orbit == 2:
        rows = gen_cyclic(6).rows()
        for r, c in ((0, 0), (0, 3), (3, 0), (3, 3)):
            rows[r][c] = 4 if rows[r][c] == 1 else 1
    else:
        rows = [[3, 6, 5, 1, 4, 2], [4, 5, 6, 2, 1, 3], [5, 2, 1, 6, 3, 4],
                [2, 1, 4, 3, 5, 6], [1, 3, 2, 4, 6, 5], [6, 4, 3, 5, 2, 1]]
    return LatinSquare(rows)


def conjugate(square: LatinSquare, perm: tuple[int, int, int]) -> LatinSquare:
    """The conjugate whose cell for each (row, column, symbol) triple t of the
    square is (t[perm[0]], t[perm[1]], t[perm[2]]); the six perms of
    (0, 1, 2) give the six conjugates, (1, 0, 2) the transpose."""
    n = square.order
    rows = [[0] * n for _ in range(n)]
    for r, row in enumerate(square.rows(), 1):
        for c, s in enumerate(row, 1):
            t = (r, c, s)
            rows[t[perm[0]] - 1][t[perm[1]] - 1] = t[perm[2]]
    return LatinSquare(rows)


def skewed_partition(n: int, shape: str) -> list[list[tuple[int, int]]]:
    """n-1 disjoint parts covering the order-n square, skewed in size: n-2
    single cells (shape "cells") or n-2 single rows (shape "rows"), then one
    part with every other cell.  Each small part misses most lines, so it has
    of the order of n^2 deficiencies; the last part 3-dominates."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    size = 1 if shape == "cells" else n
    cut = (n - 2) * size
    return [cells[at:at + size] for at in range(0, cut, size)] + [cells[cut:]]


def spy_deficiencies(monkeypatch, module) -> list[int]:
    """Replace module._deficiencies by a wrapper of lsgraph's; the list
    returned holds, per scan started, how many deficiencies were drawn."""
    from latinplex import lsgraph
    real, drawn = lsgraph._deficiencies, []

    def spy(graph, cs, k):
        drawn.append(0)
        for deficiency in real(graph, cs, k):
            drawn[-1] += 1
            yield deficiency

    monkeypatch.setattr(module, "_deficiencies", spy)
    return drawn


def corpus_up_to(max_order: int):
    return [(label, sq) for label, sq in CORPUS if sq.order <= max_order]


@pytest.fixture(scope="session")
def corpus():
    return CORPUS
