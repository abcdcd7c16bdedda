"""Property-based invariants over randomly generated squares and isotopies."""

import random

from hypothesis import given, settings, strategies as st

from latinplex.core import (
    Isotopy,
    apply_isotopy,
    format_ls,
    gen_cyclic,
    gen_qstep,
    parse_ls,
    validate,
)
from latinplex.plexes import (
    KIND_KPLEX,
    CellSet,
    check_kplex,
    check_transversal,
    complement_plex,
    enumerate_transversals,
    find_kplex,
)

from oracles import permutation_diagonal_count

orders = st.integers(min_value=1, max_value=7)


def random_square(n: int, seed: int):
    rng = random.Random(seed)
    return apply_isotopy(gen_cyclic(n), Isotopy.random(n, rng))


square_strategy = st.builds(
    random_square, st.integers(min_value=2, max_value=7), st.integers(0, 10_000)
)


@given(square_strategy)
@settings(max_examples=60, deadline=None)
def test_validator_idempotence(sq):
    assert validate(sq.rows()) == sq


@given(square_strategy, st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_isotopy_closure(sq, seed):
    rng = random.Random(seed)
    image = apply_isotopy(sq, Isotopy.random(sq.order, rng))
    assert validate(image.rows()) == image


@given(square_strategy)
@settings(max_examples=60, deadline=None)
def test_ls_text_round_trip(sq):
    assert parse_ls(format_ls(sq)) == sq


@given(st.integers(min_value=1, max_value=5), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_oracle_count_agreement(n, seed):
    sq = random_square(n, seed)
    assert enumerate_transversals(sq, cap=0).count == permutation_diagonal_count(sq)


@given(st.integers(min_value=2, max_value=4), st.integers(0, 2), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_cyclic_equals_qstep_factorizations(m, extra, seed):
    q = m + extra
    assert gen_qstep(1, m * q) == gen_cyclic(m * q)
    sq = gen_qstep(m, q)
    assert validate(sq.rows()) == sq


@given(square_strategy, st.data())
@settings(max_examples=40, deadline=None)
def test_random_cellsets_agree_with_kplex_k1(sq, data):
    n = sq.order
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    pick = data.draw(st.permutations(cells)).copy()[:n]
    assert check_transversal(sq, pick)[0] == check_kplex(sq, pick, 1)[0]


@given(st.integers(min_value=2, max_value=6), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_complement_involution(n, seed):
    sq = random_square(n, seed)
    plex = find_kplex(sq, 2) if n >= 2 else None
    if plex is None:
        return
    comp = complement_plex(sq, plex)
    assert comp.k == n - 2
    assert complement_plex(sq, comp) == plex


@given(st.integers(min_value=3, max_value=6), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_whole_square_complement_is_empty(n, seed):
    sq = random_square(n, seed)
    whole = CellSet(
        n, tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1)), KIND_KPLEX, n
    )
    assert len(complement_plex(sq, whole)) == 0
