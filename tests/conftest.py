import os
import random
from pathlib import Path

import pytest

import latinplex
from latinplex.core import Isotopy, apply_isotopy, gen_cyclic, gen_qstep, gen_two_step_pow2
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


def corpus_up_to(max_order: int):
    return [(label, sq) for label, sq in CORPUS if sq.order <= max_order]


@pytest.fixture(scope="session")
def corpus():
    return CORPUS
