import gc
import itertools
import logging
import math
import random
import re

import pytest

from latinplex.core import (
    Isotopy,
    LatinSquare,
    apply_isotopy,
    gen_cyclic,
    gen_qstep,
    gen_two_step_pow2,
    validate,
)
from latinplex.errors import (
    InvalidCellSetError,
    InvalidPartialError,
    InvalidPlexError,
    LatinSquareError,
    OrderTooLargeError,
)
from latinplex.plexes import (
    COMPLETABLE,
    EXTENDIBLE,
    KIND_CELLS,
    KIND_KPLEX,
    KIND_NEAR,
    KIND_QUASI,
    KIND_TRANSVERSAL,
    NON_EXTENDIBLE,
    CellSet,
    check_kplex,
    check_near_transversal,
    check_partial_transversal,
    check_quasi_transversal,
    check_transversal,
    complement_plex,
    conjecture_sweep,
    enumerate_transversals,
    extendibility_report,
    find_kplex,
    find_near_transversal,
    find_orthogonal_mate,
    find_quasi_transversal,
    max_disjoint_quasi_transversals,
    max_disjoint_transversals,
    quasi_profile,
    sweep_squares,
)
from latinplex import cellsets, plexes
from latinplex.plexes import _counted_search, _labels_hold, _obstruction

from conftest import (
    CORPUS,
    NO_TRANSVERSAL_6,
    QSTEP_PARAMS,
    backtrack_count,
    corpus_up_to,
    non_group_square,
)
from oracles import (
    all_quasi_cellsets,
    brute_b_matching,
    brute_first_kplex,
    brute_first_near,
    brute_labelling_count,
    brute_max_disjoint_transversals,
    brute_quasis,
    echelon_cell_labellings,
    labels_obstruct,
    permutation_diagonal_count,
)


class TestCellSet:
    def test_cells_sorted_and_deduped(self):
        cs = CellSet(3, ((3, 1), (1, 2), (2, 3)), KIND_TRANSVERSAL)
        assert cs.cells == ((1, 2), (2, 3), (3, 1))

    def test_duplicate_cells_rejected(self):
        with pytest.raises(InvalidCellSetError, match=r"duplicate cell \(1, 1\)"):
            CellSet(3, ((1, 1), (1, 1), (2, 2)), KIND_TRANSVERSAL)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidCellSetError):
            CellSet(3, ((1, 4), (2, 2), (3, 3)), KIND_TRANSVERSAL)

    @pytest.mark.parametrize(
        "kind,count",
        [(KIND_TRANSVERSAL, 3), (KIND_NEAR, 2), (KIND_QUASI, 4)],
    )
    def test_cardinality_enforced(self, kind, count):
        cells = tuple((i, i) for i in range(1, count))  # one short
        with pytest.raises(InvalidCellSetError):
            CellSet(3, cells, kind)

    def test_kplex_needs_k(self):
        with pytest.raises(InvalidCellSetError):
            CellSet(2, ((1, 1), (2, 2)), KIND_KPLEX)

    def test_json_round_trip(self):
        cs = CellSet(4, ((1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 1), (3, 4), (4, 3)),
                     KIND_KPLEX, 2)
        assert CellSet.from_json_dict(4, cs.to_json_dict()) == cs

    @pytest.mark.parametrize("cells", [
        [(1.9, 1), (2, 3)], [(1, 1), ("2", 3)], [(1, 1.0), (2, 2)],
        [(True, True), (2, 3), (3, 2)],  # read as (1, 1), a transversal of cyclic(3)
    ], ids=["float-row", "str-row", "integral-float-column", "bool-cell"])
    def test_non_integer_coordinate_raises_type_error(self, cells):
        with pytest.raises(TypeError):
            CellSet(3, cells, KIND_CELLS)

    def test_int_subclass_coordinates_become_plain_ints(self):
        class Coordinate(int):
            pass

        cs = CellSet(3, [(Coordinate(2), 3), (1, Coordinate(1))], KIND_CELLS)
        assert cs.cells == ((1, 1), (2, 3))
        assert {type(x) for cell in cs.cells for x in cell} == {int}


class TestCheckers:
    @pytest.mark.parametrize("check", [
        check_transversal, check_near_transversal, check_partial_transversal,
        check_quasi_transversal, lambda sq, cells: check_kplex(sq, cells, 1),
    ], ids=["transversal", "near", "partial", "quasi", "kplex"])
    @pytest.mark.parametrize("first", [(1.5, 1), (True, True)], ids=["float", "bool"])
    def test_non_integer_coordinate_raises_type_error(self, check, first):
        # read as (1, 1), these cells would be the main diagonal, a transversal
        with pytest.raises(TypeError):
            check(gen_cyclic(3), [first, (2, 2), (3, 3)])

    def test_constant_symbol_diagonal_rejected(self):
        # cells (1,1),(2,3),(3,2) of the cyclic square all carry symbol 1
        sq = gen_cyclic(3)
        ok, why = check_transversal(sq, [(1, 1), (2, 3), (3, 2)])
        assert not ok
        assert "symbol 1" in why

    def test_main_diagonal_odd_cyclic(self):
        ok, why = check_transversal(gen_cyclic(3), [(1, 1), (2, 2), (3, 3)])
        assert ok, why

    def test_empty_set_fails(self):
        ok, why = check_transversal(gen_cyclic(3), [])
        assert not ok
        assert "expected 3" in why

    def test_whole_square_is_n_plex(self):
        for _, sq in corpus_up_to(5):
            n = sq.order
            cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            assert check_kplex(sq, cells, n)[0]

    def test_kplex_matches_transversal_at_k1(self):
        rng = random.Random(1)
        for _, sq in corpus_up_to(6):
            n = sq.order
            cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            for _ in range(50):
                pick = rng.sample(cells, n)
                assert check_transversal(sq, pick)[0] == check_kplex(sq, pick, 1)[0]

    def test_found_two_plex_validates(self):
        sq = gen_cyclic(4)
        plex = find_kplex(sq, 2)
        assert plex is not None
        assert check_kplex(sq, plex, 2)[0]

    def test_order3_quasi_exists_and_validates(self):
        sq = gen_cyclic(3)
        quasi = find_quasi_transversal(sq)
        assert quasi is not None
        assert check_quasi_transversal(sq, quasi)[0]

    def test_transversal_plus_duplicate_cell_is_not_quasi(self):
        sq = gen_cyclic(3)
        cells = [(1, 1), (2, 2), (3, 3), (1, 1)]
        ok, why = check_quasi_transversal(sq, cells)
        assert not ok
        assert "duplicate" in why

    @pytest.mark.parametrize("cells,why", [
        ([(1, 4), (2, 2), (3, 4), (4, 2), (5, 4), (5, 2)], "column 4 occurs 3 times"),
        ([(1, 2), (2, 1), (2, 5), (3, 4), (4, 3), (5, 3)], "symbol 2 occurs 3 times"),
    ], ids=["columns", "symbols"])
    def test_quasi_names_the_tripled_line_met_first(self, cells, why):
        # two lines of a kind occur 3 times: the message names the one met
        # first in row-major cell order, whatever order the cells come in
        assert check_quasi_transversal(gen_cyclic(5), cells[::-1]) == (False, why)

    def test_quasi_vacuous_below_order_3(self):
        sq = validate([[1, 2], [2, 1]])
        ok, why = check_quasi_transversal(sq, [(1, 1), (1, 2), (2, 1)])
        assert not ok
        assert "vacuous" in why

    def test_near_from_dropped_transversal_cell(self):
        sq = gen_cyclic(5)
        t = find_kplex(sq, 1)
        for drop in t.cells:
            rest = [c for c in t.cells if c != drop]
            assert check_near_transversal(sq, rest)[0]

    def test_near_search_on_cyclic4(self):
        sq = gen_cyclic(4)
        near = find_near_transversal(sq)
        assert near is not None
        assert check_near_transversal(sq, near)[0]

    def test_repeated_symbol_not_near(self):
        sq = gen_cyclic(4)
        ok, why = check_near_transversal(sq, [(1, 1), (2, 4), (3, 3)])
        assert not ok  # symbols 1,1,1

    def test_quasi_profile(self):
        sq = gen_cyclic(4)
        quasi = find_quasi_transversal(sq)
        dr, dc, ds = quasi_profile(sq, quasi)
        rows = [r for r, _ in quasi.cells]
        assert rows.count(dr) == 2
        syms = [sq.symbol(r, c) for r, c in quasi.cells]
        assert syms.count(ds) == 2

    @pytest.mark.parametrize("check", [
        check_quasi_transversal, check_partial_transversal, check_near_transversal,
        lambda sq, cells: check_kplex(sq, cells, 1), quasi_profile,
    ], ids=["quasi", "partial", "near", "kplex", "quasi_profile"])
    def test_one_pass_iterable_reads_like_a_list(self, check):
        # each function reads the cells once, so an iterator answers as a list does
        sq = gen_cyclic(5)
        cells = list(find_quasi_transversal(sq).cells)
        assert check(sq, iter(cells)) == check(sq, cells)


# Hall-Paige: the table of an abelian group of even order has a k-plex for
# odd k only if its Sylow 2-subgroup is not cyclic; Z_m x Z_q has a cyclic
# one unless m and q are both even, Z_2^k never does
HALL_PAIGE_CASES = (
    [(f"cyclic({n})", gen_cyclic(n), n % 2 == 0) for n in range(2, 13)]
    + [(f"qstep({m},{q})", gen_qstep(m, q), m * q % 2 == 0 and 1 in (m % 2, q % 2))
       for m, q in QSTEP_PARAMS]
    + [(f"twostep({k})", gen_two_step_pow2(k), False) for k in (2, 3)]
)


#: squares with no transversal by Hall-Paige: even cyclic orders to the
#: exhaustive limit, and the q-step squares with a cyclic Sylow 2-subgroup
ZERO_COUNT_CASES = (
    [(f"cyclic({n})", gen_cyclic(n)) for n in range(2, 17, 2)]
    + [(label, sq) for label, sq, cyclic_sylow2 in HALL_PAIGE_CASES
       if cyclic_sylow2 and label.startswith("qstep")]
)


class TestEnumeration:
    @pytest.mark.parametrize(
        "square,count",
        [
            (gen_cyclic(3), 3),
            (gen_cyclic(4), 0),
            (gen_two_step_pow2(2), 8),
            (gen_cyclic(5), 15),
        ],
    )
    def test_frozen_counts(self, square, count):
        # values independently derived from the permutation-diagonal oracle
        assert enumerate_transversals(square).count == count
        assert permutation_diagonal_count(square) == count

    def test_oracle_equivalence_corpus(self):
        for label, sq in corpus_up_to(5):
            assert (
                enumerate_transversals(sq).count == permutation_diagonal_count(sq)
            ), label

    def test_even_order_parity(self):
        for label, sq in corpus_up_to(6):
            if sq.order in (4, 6):
                assert enumerate_transversals(sq).count % 2 == 0, label

    def test_witness_cap_and_truncation(self):
        census = enumerate_transversals(gen_cyclic(5), cap=4)
        assert census.count == 15
        assert len(census.witnesses) == 4
        assert census.truncated
        full = enumerate_transversals(gen_cyclic(5), cap=100)
        assert len(full.witnesses) == 15
        assert not full.truncated

    def test_negative_cap_raises(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_transversals(gen_cyclic(5), cap=-1)

    def test_witnesses_are_valid_and_lex_ordered(self):
        census = enumerate_transversals(gen_cyclic(7), cap=50)
        cols = [tuple(c for _, c in w.cells) for w in census.witnesses]
        assert cols == sorted(cols)
        for w in census.witnesses:
            assert check_transversal(gen_cyclic(7), w)[0]

    def test_mitm_agrees_with_dfs(self):
        # the per-orbit meet-in-the-middle join against plain backtracking,
        # also on the isotope of cyclic(8), which the lattice test answers
        from latinplex.plexes import _join_transversals

        rng = random.Random(11)
        squares = [gen_cyclic(9), gen_two_step_pow2(3), gen_qstep(3, 3)]
        squares += [apply_isotopy(sq, Isotopy.random(sq.order, rng))
                    for sq in (gen_cyclic(7), gen_cyclic(8), gen_cyclic(9), gen_two_step_pow2(3))]
        for sq in squares:
            grid = sq.cells0
            assert _join_transversals(grid, sq.order) == backtrack_count(grid, sq.order)

    @pytest.mark.parametrize("orbit", [2, 1])
    def test_non_group_squares_count_several_orbits(self, orbit):
        # no group table: column 1 has a proper orbit, so several orbits are counted
        from latinplex.plexes import _column_orbit_maps

        sq = non_group_square(orbit)
        assert len(_column_orbit_maps(sq.cells0, 6)) == orbit
        count = enumerate_transversals(sq, cap=0).count
        assert count == backtrack_count(sq.cells0, 6) == permutation_diagonal_count(sq)

    def test_cyclic_13_published_count(self):
        # OEIS A006717: transversals of the cyclic square of order 13
        assert enumerate_transversals(gen_cyclic(13), cap=0).count == 1_030_367

    def test_count_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            enumerate_transversals(gen_cyclic(11), cap=0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_count_logs_orbits_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            enumerate_transversals(gen_cyclic(7), cap=0)
        assert "column 1 orbit 7 of 7, 1 per-column counts" in caplog.text

    @pytest.mark.parametrize("label,sq", corpus_up_to(8), ids=[label for label, _ in corpus_up_to(8)])
    def test_count_equals_backtracking_corpus(self, label, sq):
        # whichever path answers, the lattice test or the join
        assert enumerate_transversals(sq, cap=0).count == backtrack_count(sq.cells0, sq.order)

    @pytest.mark.parametrize("label,sq", ZERO_COUNT_CASES, ids=[label for label, _ in ZERO_COUNT_CASES])
    def test_hall_paige_zero_counts(self, label, sq):
        # the join alone takes 21 s and 0.66 GB on cyclic(16)
        assert enumerate_transversals(sq, cap=0).count == 0

    def test_zero_count_logs_lattice_obstruction_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            enumerate_transversals(gen_cyclic(12), cap=0)
        assert re.search(r"transversal count: 0, lattice obstruction mod \d+", caplog.text)
        assert "column 1 orbit" not in caplog.text

    @pytest.mark.parametrize("n,count", [(7, 133), (8, 0)])
    def test_labels_failing_the_recheck_never_count_0(self, monkeypatch, caplog, n, count):
        # a wrong labelling from the normal-form code must not become a 0:
        # its sum obstructs, the re-check rejects it, the count falls through to the join
        bogus = (3, [1] + [0] * (n - 1), [0] * n, [0] * n)
        assert not _labels_hold(gen_cyclic(n).cells0, bogus)
        asked = []
        monkeypatch.setattr(plexes, "_cell_labellings", lambda grid: asked.append(1) or [bogus])
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            assert enumerate_transversals(gen_cyclic(n), cap=0).count == count
        assert asked == [1]
        assert f"column 1 orbit {n} of {n}" in caplog.text
        assert "lattice obstruction" not in caplog.text

    def test_threads_match_sequential(self):
        for sq in (gen_cyclic(5), gen_two_step_pow2(3)):
            seq = enumerate_transversals(sq, cap=10, threads=1)
            par = enumerate_transversals(sq, cap=10, threads=4)
            assert seq == par

    def test_order_refusal(self):
        with pytest.raises(OrderTooLargeError):
            enumerate_transversals(gen_cyclic(17))

    def test_determinism(self):
        a = enumerate_transversals(gen_cyclic(7), cap=20)
        b = enumerate_transversals(gen_cyclic(7), cap=20)
        assert a == b


#: a transversal-free square with no lattice obstruction for k = 1, like
#: NO_TRANSVERSAL_6 (which has none for any k)
NO_TRANSVERSAL_10 = [[1, 2, 7, 4, 5, 6, 3, 8, 9, 10], [2, 7, 4, 5, 6, 3, 8, 9, 10, 1],
                     [10, 4, 5, 6, 7, 8, 9, 3, 1, 2], [4, 5, 6, 7, 8, 9, 10, 1, 2, 3],
                     [5, 6, 10, 8, 9, 7, 1, 2, 3, 4], [6, 3, 8, 9, 10, 1, 2, 7, 4, 5],
                     [3, 8, 9, 10, 1, 2, 7, 4, 5, 6], [8, 9, 3, 1, 2, 10, 4, 5, 6, 7],
                     [9, 10, 1, 2, 3, 4, 5, 6, 7, 8], [7, 1, 2, 3, 4, 5, 6, 10, 8, 9]]
#: a Jacobson-Matthews random square of order 9 (seed 91): no lattice labels,
#: and its transversal search runs past the proof stage before it finds one
JM_9_91 = [[4, 3, 2, 7, 1, 9, 5, 6, 8], [6, 7, 3, 8, 9, 1, 4, 5, 2], [1, 8, 5, 3, 7, 2, 6, 4, 9],
           [3, 9, 7, 2, 4, 6, 1, 8, 5], [9, 2, 6, 4, 5, 8, 3, 1, 7], [2, 5, 8, 6, 3, 4, 9, 7, 1],
           [8, 1, 4, 5, 6, 7, 2, 9, 3], [5, 4, 1, 9, 8, 3, 7, 2, 6], [7, 6, 9, 1, 2, 5, 8, 3, 4]]


def _spy_on_join(monkeypatch) -> list[int]:
    """Record the order of every _join_transversals call from now on."""
    calls: list[int] = []
    join = plexes._join_transversals
    monkeypatch.setattr(plexes, "_join_transversals",
                        lambda grid, n: calls.append(n) or join(grid, n))
    return calls


class TestKPlexSearch:
    def test_cyclic4_two_plex_found(self):
        assert find_kplex(gen_cyclic(4), 2) is not None

    def test_cyclic4_transversal_not_found(self):
        assert find_kplex(gen_cyclic(4), 1) is None

    def test_cyclic4_three_plex_not_found(self):
        # complement of a 3-plex would be a transversal, so none can exist
        assert find_kplex(gen_cyclic(4), 3) is None

    def test_qstep23_three_plex_not_found(self):
        # odd q, odd k, even m: no k-transversal
        assert find_kplex(gen_qstep(2, 3), 3) is None

    def test_cyclic6_three_plex_not_found(self):
        # Euler's parity argument: the cells of a k-plex of the cyclic square
        # have (row + column) summing to k*n(n-1) = 0 mod n, so their symbols
        # would too, but they sum to k*n(n-1)/2 = n/2 mod n for n even, k odd
        assert find_kplex(gen_cyclic(6), 3) is None

    def test_logs_nodes_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            find_kplex(gen_cyclic(6), 3)
        assert any(re.fullmatch(r"3-plex search: [1-9]\d* nodes", m) for m in caplog.messages)

    def test_logs_lattice_obstruction_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            assert find_kplex(gen_cyclic(8), 3) is None
        assert re.search(r"3-plex search: lattice obstruction mod \d+ after \d+ nodes",
                         caplog.text)

    def test_lexicographically_least(self):
        plex = find_kplex(gen_cyclic(4), 2)
        again = find_kplex(gen_cyclic(4), 2)
        assert plex == again
        assert plex.cells[0] == (1, 1)

    def test_cyclic12_transversal_not_found(self):
        # even cyclic order: no transversal; the search reaches the proof
        # stage, and the lattice test proves the None
        assert find_kplex(gen_cyclic(12), 1) is None

    def test_transversal_search_logs_the_stage_at_debug(self, monkeypatch, caplog):
        # the path of the benchmark's k = 1 witness searches: the stage, then labels
        joins = _spy_on_join(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            assert find_kplex(gen_cyclic(8), 1) is None
        assert caplog.messages == ["1-plex search: lattice obstruction mod 8 after 117 nodes",
                                   "1-plex search: 117 nodes"]
        assert joins == []

    def test_transversal_search_stops_at_the_stage_on_labels(self, monkeypatch, caplog):
        sq = LatinSquare(NO_TRANSVERSAL_10)
        monkeypatch.setattr(plexes, "_obstruction", lambda grid, k: (2, [0] * 10, [0] * 10, [1] * 10))
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            assert find_kplex(sq, 1) is None
        assert "1-plex search: lattice obstruction mod 2 after 153 nodes" in caplog.messages

    def test_transversal_search_without_labels_goes_on_with_the_lookahead(self, monkeypatch,
                                                                          caplog):
        # no labels and no transversal: the exhausted search is the proof; the
        # node count pins the lookahead's cut
        sq = LatinSquare(NO_TRANSVERSAL_10)
        assert _obstruction(sq.cells0, 1) is None
        joins = _spy_on_join(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            assert find_kplex(sq, 1) is None
        assert joins == []
        assert caplog.messages == [
            "1-plex search: no nonexistence proof after 256 checks, matching lookahead on",
            "1-plex search: 22360 nodes"]

    def test_transversal_search_exhausted_within_checks(self, monkeypatch):
        sq = LatinSquare(NO_TRANSVERSAL_6)
        assert all(_obstruction(sq.cells0, k) is None for k in range(1, 7))
        chosen, nodes = _counted_search(sq.cells0, 1, 256)
        assert chosen is None and nodes == 75
        joins = _spy_on_join(monkeypatch)
        assert find_kplex(sq, 1) is None
        assert joins == []
        assert permutation_diagonal_count(sq) == 0

    @pytest.mark.parametrize("sq", [gen_cyclic(11), gen_qstep(2, 6), LatinSquare(JM_9_91)],
                             ids=["cyclic(11)", "qstep(2,6)", "jm(9,91)"])
    def test_found_transversal_needs_no_join(self, monkeypatch, sq):
        least = enumerate_transversals(sq, cap=1).witnesses[0]
        joins = _spy_on_join(monkeypatch)
        assert find_kplex(sq, 1).cells == least.cells
        assert joins == []

    def test_refuses_large_order(self):
        with pytest.raises(OrderTooLargeError):
            find_kplex(gen_cyclic(13), 2)

    def test_bad_k(self):
        with pytest.raises(InvalidPlexError):
            find_kplex(gen_cyclic(4), 5)


def _matching_instances(count: int, seed: int):
    """Seeded column-symbol graphs of orders 1-4 as _matchable takes them,
    (n, need, sup, open_), with equal column and symbol need totals."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        sup = [0] * 2 * n
        for c, s in itertools.product(range(n), repeat=2):
            if rng.random() < 0.6:
                sup[c] |= 1 << n + s
                sup[n + s] |= 1 << c
        need = [rng.randint(0, 2) for _ in range(n)] + [0] * n
        for _ in range(sum(need)):
            need[n + rng.randrange(n)] += 1
        yield n, need, sup, sum(1 << x for x, left in enumerate(need) if left)


#: the lex-least 2-plex of qstep(2,6), as the search found it before the matching lookahead
QSTEP_2_6_TWO_PLEX = (
    (1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 7), (4, 8), (5, 7), (5, 8), (6, 9), (6, 10),
    (7, 3), (7, 4), (8, 5), (8, 6), (9, 5), (9, 6), (10, 9), (10, 10), (11, 11), (11, 12),
    (12, 11), (12, 12))
#: q-step squares of orders 10-12; the 2-plex searches of the first two run past the proof stage
STAGED_TWO_PLEX = [(f"qstep({m},{q})", gen_qstep(m, q)) for m, q in ((2, 5), (3, 4), (4, 3))]


class TestMatchingLookahead:
    """The b-matching test _counted_search adds once its proof stage fails."""

    def test_matcher_agrees_with_brute_force(self):
        answers = []
        for n, need, sup, open_ in _matching_instances(300, 37):
            edges = [(c, x) for c in range(n) for x in range(n, 2 * n) if sup[c] >> x & 1]
            want = brute_b_matching(dict(enumerate(need)), edges)
            assert plexes._matchable(n, need, sup, open_) == want, (n, need, sup)
            answers.append(want)
        assert 50 < sum(answers) < 250  # feasible and infeasible instances alike

    def test_matcher_moves_a_matched_column(self):
        # column 0 takes symbol 0 first; column 1 can only have it if 0 moves to symbol 1
        n, sup = 2, [0b1100, 0b0100, 0b0011, 0b0001]
        assert plexes._matchable(n, [1, 1, 1, 1], sup, 0b1111)
        assert not plexes._matchable(n, [1, 1, 0, 2], sup, 0b1011)

    @pytest.mark.parametrize("label,sq", corpus_up_to(7) + STAGED_TWO_PLEX,
                             ids=[label for label, _ in corpus_up_to(7) + STAGED_TWO_PLEX])
    def test_staged_search_equals_unstaged(self, monkeypatch, label, sq):
        # find_kplex, and the kernel with the lookahead on from its first
        # check, return the unstaged search's leaf for every k
        grid = sq.cells0
        for k in range(1, sq.order + 1) if sq.order <= 7 else (2,):
            chosen = _counted_search(grid, k)[0]
            want = None if chosen is None else plexes._chosen_cells(chosen)
            assert _cells(find_kplex(sq, k)) == want, k
            with monkeypatch.context() as m:
                m.setattr(plexes, "_obstruction", lambda grid, k: None)
                assert _counted_search(grid, k, 0)[0] == chosen, k

    def test_unstaged_search_never_matches(self, monkeypatch):
        monkeypatch.setattr(plexes, "_matchable", None)
        monkeypatch.setattr(plexes, "_obstruction", None)
        assert _counted_search(gen_qstep(2, 5).cells0, 2)[1] == 1560

    def test_qstep_2_6_two_plex_is_pinned(self):
        assert find_kplex(gen_qstep(2, 6), 2).cells == QSTEP_2_6_TWO_PLEX

    def test_lookahead_logs_and_cuts_at_debug(self, caplog):
        # a lookahead that always answers yes leaves the 1,560 nodes of the unstaged search
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            assert find_kplex(gen_qstep(2, 5), 2) is not None
        assert caplog.messages == [
            "2-plex search: no nonexistence proof after 256 checks, matching lookahead on",
            "2-plex search: 68 nodes"]


class TestLatticeObstruction:
    @pytest.mark.parametrize("label,sq,cyclic_sylow2", HALL_PAIGE_CASES,
                             ids=[label for label, _, _ in HALL_PAIGE_CASES])
    def test_hall_paige_agreement(self, label, sq, cyclic_sylow2):
        for k in (1, 2, 3):
            labels = _obstruction(sq.cells0, k)
            assert (labels is not None) == (cyclic_sylow2 and k % 2 == 1), k
            if labels is not None:
                m, *lists = labels
                assert labels_obstruct(sq, k, m, lists), k

    @pytest.mark.parametrize("label,sq", corpus_up_to(8), ids=[label for label, _ in corpus_up_to(8)])
    def test_labels_pass_naive_oracle(self, label, sq):
        for k in range(1, sq.order + 1):
            labels = _obstruction(sq.cells0, k)
            if labels is not None:
                m, *lists = labels
                assert labels_obstruct(sq, k, m, lists), k

    def test_sound_against_brute_force_to_order_5(self):
        obstructed = 0
        for label, sq in corpus_up_to(5):
            for k in range(1, sq.order + 1):
                if _obstruction(sq.cells0, k) is not None:
                    obstructed += 1
                    assert brute_first_kplex(sq, k) is None, (label, k)
        assert obstructed

    def test_sound_against_unstaged_search_at_order_6(self):
        obstructed = 0
        for label, sq in corpus_up_to(6):
            if sq.order != 6:
                continue
            for k in range(1, 7):
                if _obstruction(sq.cells0, k) is not None:
                    obstructed += 1
                    assert _counted_search(sq.cells0, k)[0] is None, (label, k)
        assert obstructed

    def test_one_changed_label_is_rejected(self):
        grid = gen_cyclic(6).cells0
        m, *lists = _obstruction(grid, 3)
        assert _labels_hold(grid, (m, *lists))
        for which in range(3):
            for i in range(6):
                tampered = [list(labels) for labels in lists]
                tampered[which][i] = (tampered[which][i] + 1) % m
                assert not _labels_hold(grid, (m, *tampered)), (which, i)

    def test_labels_failing_the_recheck_only_cost_time(self, monkeypatch):
        # a wrong labelling from the normal-form code must not become a None
        sq = gen_qstep(2, 5)  # its 2-plex search runs past the allowance
        expected = find_kplex(sq, 2)
        bogus = (3, [1] + [0] * 9, [0] * 10, [0] * 10)  # its sum obstructs k = 2
        assert not _labels_hold(sq.cells0, bogus)
        asked = []
        monkeypatch.setattr(plexes, "_cell_labellings", lambda grid: asked.append(1) or [bogus])
        assert expected is not None and find_kplex(sq, 2) == expected
        assert asked == [1]


def _with_isotopes(cases, count: int, seed: int):
    """cases, then `count` seeded full isotopes of each."""
    rng = random.Random(seed)
    return cases + [(f"{label} isotope {t}", apply_isotopy(sq, Isotopy.random(sq.order, rng)))
                    for label, sq in cases for t in range(count)]


#: the cyclic and q-step squares of orders 1-12
GROUP_CASES = list(sweep_squares(1, 12, ("cyclic", "qstep"), 0, 0))
#: squares whose labellings are compared with the echelon-basis reference
DIFFERENTIAL_CASES = _with_isotopes(
    GROUP_CASES + [(f"twostep({k})", gen_two_step_pow2(k)) for k in (2, 3)]
    + [("no-transversal-6", LatinSquare(NO_TRANSVERSAL_6)),
       ("no-transversal-10", LatinSquare(NO_TRANSVERSAL_10))], 3, 18
) + [(f"non-group-orbit-{orbit}", non_group_square(orbit)) for orbit in (1, 2)]
#: squares whose labellings mod every m are counted one by one
COUNTED_CASES = corpus_up_to(5) + [
    ("no-transversal-6", LatinSquare(NO_TRANSVERSAL_6)),
    *((f"non-group-orbit-{orbit}", non_group_square(orbit)) for orbit in (1, 2))]


def _moduli(sq) -> list[int]:
    return [labels[0] for labels in plexes._cell_labellings(sq.cells0)]


class TestCellLabellings:
    """_cell_labellings: one labelling mod each invariant factor d > 1 of the
    cells' lattice, from substitution and a Smith normal form."""

    @pytest.mark.parametrize("label,sq", COUNTED_CASES, ids=[label for label, _ in COUNTED_CASES])
    def test_moduli_count_every_labelling(self, label, sq):
        labellings = plexes._cell_labellings(sq.cells0)
        moduli = [labels[0] for labels in labellings]
        assert all(b % a == 0 for a, b in zip(moduli, moduli[1:])), moduli
        assert all(plexes._labels_hold(sq.cells0, labels) for labels in labellings)
        for m in range(2, sq.order + 1):
            assert brute_labelling_count(sq, m) == math.prod(math.gcd(m, d) for d in moduli), m

    def test_edge_orders(self):
        assert plexes._cell_labellings(gen_cyclic(1).cells0) == []
        assert _moduli(gen_cyclic(2)) == [2]

    @pytest.mark.parametrize("label,sq", DIFFERENTIAL_CASES,
                             ids=[label for label, _ in DIFFERENTIAL_CASES])
    def test_agrees_with_echelon_reference(self, label, sq):
        n, grid = sq.order, sq.cells0
        new, old = plexes._cell_labellings(grid), echelon_cell_labellings(grid)
        for k in range(1, n + 1):
            assert (_obstruction(grid, k) is None) == all(
                k * sum(map(sum, lists)) % m == 0 for m, *lists in old), k
        for d in range(n):
            assert plexes._repeat_masks(n, new, d) == plexes._repeat_masks(n, old, d), d

    @pytest.mark.parametrize("label,sq", GROUP_CASES, ids=[label for label, _ in GROUP_CASES])
    def test_moduli_are_isotopy_invariant(self, label, sq):
        moduli = _moduli(sq)
        for iso_label, iso in _with_isotopes([(label, sq)], 3, sq.order)[1:]:
            assert _moduli(iso) == moduli, iso_label

    def test_isotope_logs_invariant_factors(self, caplog):
        iso = _with_isotopes([("qstep(2,6)", gen_qstep(2, 6))], 3, 18)[3][1]
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            find_quasi_transversal(iso)
        assert "quasi search: lattice labels mod 2,6\n" in caplog.text

    def test_smith_normal_form(self):
        # diag(4, 6) ~ diag(2, 12); the columns of V map the generators onto them
        (d1, v1), (d2, v2) = plexes._smith_normal_form({(4, 0), (0, 6)}, 2)
        assert (d1, d2) == (2, 12)
        assert all((4 * v[0]) % d == 0 and (6 * v[1]) % d == 0 for d, v in ((d1, v1), (d2, v2)))
        assert abs(v1[0] * v2[1] - v1[1] * v2[0]) == 1
        with pytest.raises(LatinSquareError, match="full rank"):
            plexes._smith_normal_form({(2, 4)}, 2)


class TestComplement:
    def test_transversal_complement_is_2plex(self):
        sq = gen_cyclic(3)
        t = find_kplex(sq, 1)
        comp = complement_plex(sq, t)
        assert comp.k == 2
        assert check_kplex(sq, comp, 2)[0]

    def test_involution(self):
        sq = gen_cyclic(4)
        plex = find_kplex(sq, 2)
        assert complement_plex(sq, complement_plex(sq, plex)) == plex

    def test_whole_square_complement_empty(self):
        sq = gen_cyclic(3)
        whole = CellSet(3, tuple((i, j) for i in range(1, 4) for j in range(1, 4)),
                        KIND_KPLEX, 3)
        comp = complement_plex(sq, whole)
        assert comp.k == 0
        assert len(comp) == 0

    def test_invalid_input_rejected(self):
        sq = gen_cyclic(4)
        bad = CellSet(4, ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)),
                      KIND_KPLEX, 2)
        with pytest.raises(InvalidPlexError):
            complement_plex(sq, bad)


#: an order-6 square with tau = 2 and one row-fixing autotopism
TAU2_ROWS = [[3, 6, 5, 4, 1, 2], [1, 4, 6, 2, 5, 3], [2, 1, 3, 6, 4, 5], [5, 2, 1, 3, 6, 4],
             [4, 5, 2, 1, 3, 6], [6, 3, 4, 5, 2, 1]]


class TestPacking:
    def test_twostep2_tau_4(self):
        tau, family = max_disjoint_transversals(gen_two_step_pow2(2))
        assert tau == 4
        used = set()
        for t in family:
            assert check_transversal(gen_two_step_pow2(2), t)[0]
            assert not used & set(t.cells)
            used |= set(t.cells)

    def test_cyclic4_tau_0(self):
        assert max_disjoint_transversals(gen_cyclic(4))[0] == 0

    def test_cyclic3_tau_3(self):
        # group table: one transversal forces a full decomposition
        assert max_disjoint_transversals(gen_cyclic(3))[0] == 3

    def test_tau_bounds_and_mate_equivalence(self):
        for label, sq in corpus_up_to(6):
            tau, _ = max_disjoint_transversals(sq)
            assert 0 <= tau <= sq.order, label
            mate = find_orthogonal_mate(sq)
            assert (mate is not None) == (tau == sq.order), label

    @pytest.mark.parametrize("rows, want", [
        ([[3, 1, 4, 5, 2], [4, 3, 1, 2, 5], [5, 4, 2, 3, 1], [2, 5, 3, 1, 4], [1, 2, 5, 4, 3]], 1),
        (TAU2_ROWS, 2),
        ([[4, 3, 6, 1, 5, 2], [3, 5, 2, 4, 1, 6], [2, 6, 3, 5, 4, 1], [1, 2, 4, 6, 3, 5],
          [6, 1, 5, 3, 2, 4], [5, 4, 1, 2, 6, 3]], 4),
    ], ids=["tau1", "tau2", "tau4"])
    def test_tau_strictly_between_0_and_n(self, rows, want):
        sq = LatinSquare(rows)
        tau, family = max_disjoint_transversals(sq)
        assert tau == len(family) == brute_max_disjoint_transversals(sq) == want
        used = set()
        for t in family:
            assert check_transversal(sq, t)[0]
            assert not used & set(t.cells)
            used |= set(t.cells)
        assert find_orthogonal_mate(sq) is None

    def test_logs_nodes_at_debug(self, caplog):
        # one row-fixing autotopism, so the packing kernel runs
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            max_disjoint_transversals(LatinSquare(TAU2_ROWS))
        assert re.search(r"transversal packing: \d+ nodes, stopped at 2 of ceiling 6", caplog.text)

    def test_refusal_above_8(self):
        with pytest.raises(OrderTooLargeError):
            max_disjoint_transversals(gen_cyclic(9))


class TestMate:
    def test_twostep2_mate(self):
        sq = gen_two_step_pow2(2)
        mate = find_orthogonal_mate(sq)
        assert mate is not None
        pairs = {
            (sq.symbol(i, j), mate.symbol(i, j))
            for i in range(1, 5)
            for j in range(1, 5)
        }
        assert len(pairs) == 16

    def test_cyclic4_no_mate(self):
        assert find_orthogonal_mate(gen_cyclic(4)) is None

    def test_order1_mate(self):
        assert find_orthogonal_mate(gen_cyclic(1)).rows() == [[1]]

    def test_deterministic(self):
        assert find_orthogonal_mate(gen_cyclic(5)) == find_orthogonal_mate(gen_cyclic(5))

    def test_refusal_above_8(self):
        with pytest.raises(OrderTooLargeError):
            find_orthogonal_mate(gen_cyclic(9))


def permutation_diagonals(sq: LatinSquare) -> list[tuple[int, ...]]:
    """Every transversal as a column tuple, in lex order, without the row
    search: the permutations of the columns whose cells hold n symbols."""
    grid, n = sq.cells0, sq.order
    return [p for p in itertools.permutations(range(n))
            if len({grid[r][c] for r, c in enumerate(p)}) == n]


def switched_twostep3() -> LatinSquare:
    """twostep(3) with the intercalate at rows 1-2, columns 1-2 switched: 2
    row-fixing autotopisms, tau = 6, no mate."""
    rows = gen_two_step_pow2(3).rows()
    rows[0][:2], rows[1][:2] = rows[0][1::-1], rows[1][1::-1]
    return LatinSquare(rows)


def packed(sq: LatinSquare, floor: int) -> list[tuple[int, ...]]:
    """The packing kernel's family over the full row list, as column tuples."""
    n = sq.order
    found = plexes._transversals(sq.cells0)
    family = plexes._max_packing("reference", n, [[r * n + c for r, c in enumerate(t)] for t in found],
                                 n, n, floor)
    return [found[i] for i in family or ()]


def lex_least_images(sq: LatinSquare) -> list[tuple[int, ...]]:
    """The lex-least transversal's images under the square's row-fixing
    autotopisms, lex sorted; [] if it has no transversal."""
    maps = plexes._column_orbit_maps(sq.cells0, sq.order)
    first = plexes._transversals(sq.cells0, 1)
    return sorted(tuple(alpha[c] for c in t) for alpha in maps for t in first)


def family_cols(family) -> list[tuple[int, ...]]:
    return [tuple(c - 1 for _, c in w.cells) for w in family]


def mate_from(family: list[tuple[int, ...]], n: int) -> list[list[int]] | None:
    if not family:
        return None
    rows = [[0] * n for _ in range(n)]
    for idx, t in enumerate(family):
        for r, c in enumerate(t):
            rows[r][c] = idx + 1
    return rows


#: the corpus to order 8 (cyclic(1) and cyclic(2) among it; the full row
#: search serves orders <= 8, and the oracle walks n! permutations), the
#: non-group squares with orbits 2 and 1, a transversal-free square with no
#: lattice obstruction, and an order-8 square with 2 row-fixing autotopisms
COLLECTION_CASES = corpus_up_to(8) + [
    ("orbit-2", non_group_square(2)), ("orbit-1", non_group_square(1)),
    ("no-transversal-6", LatinSquare(NO_TRANSVERSAL_6)),
    ("twostep(3) switched", switched_twostep3()),
]


#: squares with n row-fixing autotopisms: the corpus to order 8, every
#: order-5 to order-8 group table and seeded full isotopes of each
N_MAPS_CASES = corpus_up_to(8) + _with_isotopes(
    [(label, sq) for label, sq in GROUP_CASES if 5 <= sq.order <= 8]
    + [("twostep(3)", gen_two_step_pow2(3))], 5, 28)


class TestTransversalCollection:
    @pytest.mark.parametrize("label,sq", COLLECTION_CASES, ids=[label for label, _ in COLLECTION_CASES])
    def test_row_search_lists_the_permutation_diagonals(self, label, sq):
        want = permutation_diagonals(sq)
        assert plexes._transversals(sq.cells0) == want
        assert len(want) == plexes._join_transversals(sq.cells0, sq.order)
        for cap in filter(None, (1, 3, len(want), len(want) + 5)):  # the lister takes cap >= 1
            assert plexes._transversals(sq.cells0, cap) == want[:cap]

    @pytest.mark.parametrize("label,sq", N_MAPS_CASES, ids=[label for label, _ in N_MAPS_CASES])
    def test_n_maps_family_is_the_images_of_the_lex_least_transversal(self, label, sq):
        n = sq.order
        tau, family = max_disjoint_transversals(sq)
        cols = family_cols(family)
        assert cols == lex_least_images(sq)
        assert len(cols) == n * len(plexes._transversals(sq.cells0, 1))
        used = set()
        for t in family:
            assert check_transversal(sq, t)[0]
            assert not used & set(t.cells)
            used |= set(t.cells)
        assert tau == len(packed(sq, 0))
        mate = find_orthogonal_mate(sq)
        assert (mate and mate.rows()) == mate_from(cols, n)

    @pytest.mark.parametrize("label,sq,want", [
        ("orbit-1", non_group_square(1), 4), ("orbit-2", non_group_square(2), 4),
        ("no-transversal-6", LatinSquare(NO_TRANSVERSAL_6), 0),
        ("twostep(3) switched", switched_twostep3(), 6)])
    def test_squares_without_n_maps_take_the_packing_kernel(self, caplog, label, sq, want):
        n = sq.order
        assert len(plexes._column_orbit_maps(sq.cells0, n)) < n
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            tau, family = max_disjoint_transversals(sq)
            mate = find_orthogonal_mate(sq)
        assert "row-fixing autotopisms" not in caplog.text
        assert "transversal packing: " in caplog.text and "mate packing: " in caplog.text
        assert family_cols(family) == packed(sq, 0) and tau == len(family) == want
        assert (mate and mate.rows()) == mate_from(packed(sq, n - 1), n)
        assert mate is None  # tau < n on every input here

    @pytest.mark.parametrize("search", [max_disjoint_transversals, find_orthogonal_mate],
                             ids=["tau", "mate"])
    def test_n_maps_log_the_images(self, caplog, search):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            search(gen_two_step_pow2(3))
        what = "transversal" if search is max_disjoint_transversals else "mate"
        assert (f"{what} packing: 8 images of the lex-least transversal (8 row-fixing "
                "autotopisms)") in caplog.text

    @pytest.mark.parametrize("search", [max_disjoint_transversals, find_orthogonal_mate],
                             ids=["tau", "mate"])
    def test_n_maps_log_no_transversal(self, caplog, monkeypatch, search):
        # a group table without a transversal is obstructed by the lattice
        # test; without it, the row search certifies the empty family
        monkeypatch.setattr(plexes, "_obstruction", lambda grid, k: None)
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            result = search(gen_cyclic(6))
        assert result == ((0, ()) if search is max_disjoint_transversals else None)
        what = "transversal" if search is max_disjoint_transversals else "mate"
        assert f"{what} packing: no transversal (6 row-fixing autotopisms)" in caplog.text

    def test_transversal_free_square_lists_none(self):
        # no lattice obstruction here, so the row search itself returns []
        sq = LatinSquare(NO_TRANSVERSAL_6)
        assert plexes._obstruction(sq.cells0, 1) is None
        assert plexes._transversals(sq.cells0) == []

    @pytest.mark.parametrize("label,sq", CORPUS, ids=[label for label, _ in CORPUS])
    def test_column_maps_act_freely(self, label, sq):
        # each transversal is mapped out exactly once only if no map but the
        # identity fixes a column; then every orbit has len(maps) columns
        n = sq.order
        maps = plexes._column_orbit_maps(sq.cells0, n)
        identity = list(range(n))
        assert identity in maps
        for alpha in maps:
            assert alpha == identity or all(alpha[c] != c for c in range(n))
        reps = {min(alpha[c] for alpha in maps) for c in range(n)}  # the least column of each orbit
        assert len(reps) * len(maps) == n

    @pytest.mark.parametrize("search", [max_disjoint_transversals, find_orthogonal_mate],
                             ids=["tau", "mate"])
    def test_collection_leaves_no_reference_cycles(self, search):
        # twostep(3) takes the images of one transversal; the other two have
        # fewer than n maps, so the full row search and the kernel run
        gc.collect()
        gc.disable()
        try:
            for sq in (gen_two_step_pow2(3), LatinSquare(TAU2_ROWS), non_group_square(1)):
                search(sq)
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_obstructed_square_logs_the_obstruction(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            assert max_disjoint_transversals(gen_cyclic(8)) == (0, ())
        assert "transversal packing: 0, lattice obstruction mod 8" in caplog.text


class TestExtendibility:
    def test_empty_partial_completable_in_cyclic3(self):
        assert extendibility_report(gen_cyclic(3), []) == COMPLETABLE

    def test_full_transversal_completable(self):
        t = find_kplex(gen_cyclic(3), 1)
        assert extendibility_report(gen_cyclic(3), t) == COMPLETABLE

    def test_near_in_cyclic4_never_completable(self):
        sq = gen_cyclic(4)
        near = find_near_transversal(sq)
        # length n-1 with no transversal in the square: the one candidate
        # extension cell cannot work
        assert extendibility_report(sq, near) == NON_EXTENDIBLE

    def test_all_nears_of_cyclic4_not_completable(self):
        # the square has no transversal, so every length-3 partial is stuck
        import itertools

        sq = gen_cyclic(4)
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        nears = [
            comb
            for comb in itertools.combinations(cells, 3)
            if check_near_transversal(sq, comb)[0]
        ]
        assert nears
        for near in nears:
            assert extendibility_report(sq, near) == NON_EXTENDIBLE

    def test_extendible_middle_state(self):
        sq = gen_cyclic(4)
        report = extendibility_report(sq, [(1, 1)])
        assert report == EXTENDIBLE

    def test_invalid_partial_rejected(self):
        with pytest.raises(InvalidPartialError):
            extendibility_report(gen_cyclic(4), [(1, 1), (1, 2)])


    def test_refusal_above_8(self):
        with pytest.raises(OrderTooLargeError):
            extendibility_report(gen_cyclic(9), [])

    def test_cells_are_normalised_once(self, monkeypatch):
        normalise = cellsets._cells
        calls = []
        monkeypatch.setattr(cellsets, "_cells",
                            lambda order, cells: calls.append(cells) or normalise(order, cells))
        assert extendibility_report(gen_cyclic(4), [(1, 1)]) == EXTENDIBLE
        assert len(calls) == 1
        with pytest.raises(InvalidPartialError, match="row 1 occurs 2 times"):
            extendibility_report(gen_cyclic(4), [(1, 2), (1, 1)])
        assert len(calls) == 2

class TestQuasiNearSearch:
    def test_quasi_below_order3_is_none(self):
        assert find_quasi_transversal(validate([[1, 2], [2, 1]])) is None

    def test_quasi_deterministic(self):
        a = find_quasi_transversal(gen_cyclic(6))
        b = find_quasi_transversal(gen_cyclic(6))
        assert a == b

    def test_quasi_logs_nodes_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            find_quasi_transversal(gen_qstep(3, 4))
        assert len(re.findall(r"quasi search: \d+ nodes", caplog.text)) == 1

    @pytest.mark.parametrize("seed", [None, 11])
    def test_cyclic6_quasi_count(self, seed):
        # an isotopy maps quasi-transversals onto quasi-transversals
        from latinplex.plexes import _all_quasis

        sq = gen_cyclic(6)
        if seed is not None:
            sq = apply_isotopy(sq, Isotopy.random(6, random.Random(seed)))
        assert len(_all_quasis(sq)) == 1872

    @pytest.mark.parametrize("search", [lambda: find_quasi_transversal(gen_qstep(3, 4)),
                                        lambda: find_quasi_transversal(gen_cyclic(12)),
                                        lambda: find_kplex(gen_cyclic(6), 3),
                                        lambda: find_kplex(gen_cyclic(8), 3),
                                        lambda: find_near_transversal(gen_cyclic(6)),
                                        lambda: enumerate_transversals(gen_cyclic(7), cap=10),
                                        lambda: max_disjoint_transversals(gen_cyclic(7))],
                             ids=["quasi", "quasi-staged", "kplex", "kplex-obstructed", "near",
                                  "enumerate", "tau"])
    def test_search_leaves_no_reference_cycles(self, search):
        # search state left in a cycle lives until a full collection
        gc.collect()
        gc.disable()
        try:
            search()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n", [13, 14])
    def test_exhaustive_refusal_above_12(self, n):
        with pytest.raises(OrderTooLargeError):
            find_quasi_transversal(gen_cyclic(n))

    def test_near_refusal_above_16(self):
        with pytest.raises(OrderTooLargeError):
            find_near_transversal(gen_cyclic(17))


def _cells(found):
    return None if found is None else found.cells


NEAR_CASES = corpus_up_to(6)
QUASI_CASES = [(label, sq) for label, sq in corpus_up_to(5) if sq.order >= 3]
KPLEX_CASES = [(label, sq) for label, sq in corpus_up_to(5) if sq.order >= 2]
THREE_PLEX_CASES = [(label, sq) for label, sq in KPLEX_CASES if sq.order >= 3]
FOUR_PLEX_CASES = [(label, sq) for label, sq in KPLEX_CASES if sq.order >= 4]
#: order-6 squares that are no group table; the first two have no lattice labelling, so
#: their quasi search runs uncut; brute force is quick for quasis and for k = 1, 5, 6 only
ORDER_SIX_CASES = [("no-transversal-6", LatinSquare(NO_TRANSVERSAL_6)),
                   ("non-group-orbit-1", non_group_square(1)),
                   ("non-group-orbit-2", non_group_square(2))]


class TestSearchOrder:
    """The witness each engine returns is the least one in its promised
    order, checked against brute force over every candidate."""

    @pytest.mark.parametrize("label,sq", NEAR_CASES, ids=[label for label, _ in NEAR_CASES])
    def test_near_is_least_in_skip_last_order(self, label, sq):
        assert _cells(find_near_transversal(sq)) == brute_first_near(sq)

    @pytest.mark.parametrize("label,sq", QUASI_CASES + ORDER_SIX_CASES,
                             ids=[label for label, _ in QUASI_CASES + ORDER_SIX_CASES])
    def test_quasi_is_least_by_doubled_row_then_rows(self, label, sq):
        every = brute_quasis(sq)
        assert [q.cells for q in all_quasi_cellsets(sq)] == every
        assert find_quasi_transversal(sq).cells == every[0]

    @pytest.mark.parametrize("label,sq", KPLEX_CASES, ids=[label for label, _ in KPLEX_CASES])
    def test_two_plex_is_lex_least(self, label, sq):
        assert _cells(find_kplex(sq, 2)) == brute_first_kplex(sq, 2)

    @pytest.mark.parametrize("label,sq", KPLEX_CASES, ids=[label for label, _ in KPLEX_CASES])
    def test_transversal_is_lex_least(self, label, sq):
        assert _cells(find_kplex(sq, 1)) == brute_first_kplex(sq, 1)

    @pytest.mark.parametrize("label,sq", THREE_PLEX_CASES,
                             ids=[label for label, _ in THREE_PLEX_CASES])
    def test_three_plex_is_lex_least(self, label, sq):
        assert _cells(find_kplex(sq, 3)) == brute_first_kplex(sq, 3)

    @pytest.mark.parametrize("label,sq", FOUR_PLEX_CASES,
                             ids=[label for label, _ in FOUR_PLEX_CASES])
    def test_larger_kplex_is_lex_least(self, label, sq):
        for k in range(4, sq.order + 1):
            assert _cells(find_kplex(sq, k)) == brute_first_kplex(sq, k), k

    @pytest.mark.parametrize("label,sq", ORDER_SIX_CASES,
                             ids=[label for label, _ in ORDER_SIX_CASES])
    @pytest.mark.parametrize("k", [1, 5, 6])
    def test_kplex_is_lex_least_at_order_six(self, label, sq, k):
        assert _cells(find_kplex(sq, k)) == brute_first_kplex(sq, k)


#: squares whose cell lattice has no torsion, so no labelling cuts their quasi search
UNLABELLED = [("no-transversal-6", LatinSquare(NO_TRANSVERSAL_6)),
              ("no-transversal-10", LatinSquare(NO_TRANSVERSAL_10)),
              ("non-group-orbit-1", non_group_square(1))]
LEMMA_CASES = QUASI_CASES + UNLABELLED[:1] + [
    (f"non-group-orbit-{orbit}", non_group_square(orbit)) for orbit in (1, 2)]
#: the sweep squares of orders 3-12 and two seeded full isotopes per order 10-12
SWEEP_CASES = [*sweep_squares(3, 12, ("cyclic", "qstep"), 0, 0),
               *sweep_squares(10, 12, ("isotopes",), 2, 17)]
ENUMERATION_CASES = [(label, sq) for label, sq in corpus_up_to(6) if sq.order >= 3] + LEMMA_CASES[-2:]


class TestSupplies:
    """The suffix masks the k-plex and quasi searches read their supplies from."""

    @pytest.mark.parametrize("label,sq", corpus_up_to(6) + UNLABELLED,
                             ids=[label for label, _ in corpus_up_to(6) + UNLABELLED])
    def test_suffix_masks_match_their_definition(self, label, sq):
        n = sq.order
        sups = plexes._supplies(sq.cells0)
        assert len(sups) == n + 1
        for r in range(n + 1):
            below = [(c, s) for row in sq.cells0[r:] for c, s in enumerate(row)]
            symbols_of = [sum(1 << n + s for c, s in below if c == x) for x in range(n)]
            columns_of = [sum(1 << c for c, s in below if s == x) for x in range(n)]
            assert sups[r] == symbols_of + columns_of, r
        assert sups[n] == [0] * 2 * n


def _quasis(grid) -> list[list[tuple[int, ...]]]:
    """Every leaf of _quasi_search, in its order."""
    found: list[list[tuple[int, ...]]] = []
    plexes._quasi_search(grid, found.append)
    return found


class TestQuasiLatticeCut:
    """The congruence T + R[d] + C[c*] + S[s*] = 0 (mod m) that every cell
    labelling imposes on a quasi-transversal, and the search cut built on it."""

    @pytest.mark.parametrize("label,sq", LEMMA_CASES, ids=[label for label, _ in LEMMA_CASES])
    def test_every_quasi_meets_every_labelling(self, label, sq):
        n = sq.order
        labellings = plexes._cell_labellings(sq.cells0)
        assert all(plexes._labels_hold(sq.cells0, labels) for labels in labellings)
        for cells in brute_quasis(sq):
            d, c, s = (x - 1 for x in quasi_profile(sq, cells))
            for m, rows, cols, syms in labellings:
                total = sum(rows) + sum(cols) + sum(syms)
                assert (total + rows[d] + cols[c] + syms[s]) % m == 0, (cells, m)
            symok, colok = plexes._repeat_masks(n, labellings, d)
            assert symok[c] >> n + s & 1 and colok[s] >> c & 1, cells

    def test_the_lemma_cases_include_labelled_squares(self):
        labelled = [label for label, sq in LEMMA_CASES if plexes._cell_labellings(sq.cells0)]
        assert len(labelled) > len(LEMMA_CASES) // 2

    @pytest.mark.parametrize("label,sq", UNLABELLED, ids=[label for label, _ in UNLABELLED])
    def test_torsion_free_squares_have_no_labelling(self, label, sq):
        assert plexes._cell_labellings(sq.cells0) == []

    def test_labelled_and_unlabelled_first_witness_agree(self, monkeypatch):
        labelled = [plexes._quasi_search(sq.cells0, plexes._stop) for _, sq in SWEEP_CASES]
        for (label, sq), first in zip(SWEEP_CASES, labelled):
            assert find_quasi_transversal(sq).cells == plexes._chosen_cells(first), label
        monkeypatch.setattr(plexes, "_cell_labellings", lambda grid: [])
        for (label, sq), first in zip(SWEEP_CASES, labelled):
            assert plexes._quasi_search(sq.cells0, plexes._stop) == first, label

    @pytest.mark.parametrize("label,sq", ENUMERATION_CASES,
                             ids=[label for label, _ in ENUMERATION_CASES])
    def test_labelled_and_unlabelled_enumerations_agree(self, monkeypatch, label, sq):
        every = _quasis(sq.cells0)
        assert plexes._all_quasis(sq) == [tuple(q) for q in every]
        monkeypatch.setattr(plexes, "_cell_labellings", lambda grid: [])
        assert _quasis(sq.cells0) == every

    @pytest.mark.parametrize("square,moduli,nodes", [(gen_cyclic(12), "12", 18),
                                                     (gen_qstep(2, 6), "2,6", 98)],
                             ids=["cyclic(12)", "qstep(2,6)"])
    def test_cut_logs_its_labels_at_debug(self, caplog, square, moduli, nodes):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            find_quasi_transversal(square)
        assert caplog.messages[0] == f"quasi search: lattice labels mod {moduli}"
        assert caplog.messages[1] == f"quasi search: {nodes} nodes"
        assert len(caplog.messages) == 2

    def test_labels_failing_the_recheck_are_never_used(self, monkeypatch, caplog):
        sq = gen_cyclic(12)
        expected = find_quasi_transversal(sq)
        n = sq.order
        d, c, s = (x - 1 for x in quasi_profile(sq, expected))
        cols = [int(x == c) for x in range(n)]
        bogus = (3, [0] * n, cols, [0] * n)  # would forbid doubling column c with any symbol
        assert not plexes._labels_hold(sq.cells0, bogus)
        assert plexes._repeat_masks(n, [bogus], d)[0][c] == 0
        asked = []
        monkeypatch.setattr(plexes, "_cell_labellings", lambda grid: asked.append(1) or [bogus])
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            assert find_quasi_transversal(sq) == expected
        assert asked == [1]
        assert caplog.messages[0] == "quasi search: no labels"
        # the uncut search: 4,330 nodes against 18 with the square's own labels
        assert caplog.messages[1] == "quasi search: 4330 nodes"


class TestDisjointQuasis:
    def test_cyclic4_reaches_pigeonhole_bound(self):
        count, family = max_disjoint_quasi_transversals(gen_cyclic(4))
        assert count == 3  # floor(16/5)
        used = set()
        for q in family:
            assert check_quasi_transversal(gen_cyclic(4), q)[0]
            assert not used & set(q.cells)
            used |= set(q.cells)

    @pytest.mark.parametrize("sq", [gen_cyclic(6), gen_qstep(2, 3), gen_qstep(3, 2)],
                             ids=["cyclic(6)", "qstep(2,3)", "qstep(3,2)"])
    def test_order6_reaches_ceiling(self, sq):
        count, family = max_disjoint_quasi_transversals(sq)
        assert count == len(family) == 5  # floor(36/7)
        used = set()
        for q in family:
            assert check_quasi_transversal(sq, q)[0]
            assert not used & set(q.cells)
            used |= set(q.cells)

    def test_logs_nodes_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            max_disjoint_quasi_transversals(gen_cyclic(6))
        assert re.search(r"quasi packing: \d+ nodes, stopped at 5 of ceiling 5", caplog.text)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_never_exceeds_bound(self, n):
        sq = gen_cyclic(n)
        count, _ = max_disjoint_quasi_transversals(sq)
        assert count <= (n * n) // (n + 1)

    def test_refusal_above_6(self):
        with pytest.raises(OrderTooLargeError):
            max_disjoint_quasi_transversals(gen_cyclic(7))


class TestSweep:
    def test_cyclic_orders_2_to_8(self):
        report = conjecture_sweep(2, 8, generators=("cyclic",))
        assert report.counterexample is None
        by_order = {row.order: row for row in report.rows}
        assert by_order[2].near and by_order[2].two_plex and not by_order[2].quasi
        for n in range(3, 9):
            row = by_order[n]
            assert row.near and row.quasi and row.two_plex

    def test_qstep23_row(self):
        report = conjecture_sweep(6, 6, generators=("qstep",))
        labels = [r.label for r in report.rows]
        assert "qstep(2,3)" in labels
        assert all(r.near and r.quasi and r.two_plex for r in report.rows)

    def test_qstep_sweep_to_order_12(self):
        report = conjecture_sweep(4, 12, generators=("qstep",))
        labels = [r.label for r in report.rows]
        for expected in ("qstep(2,3)", "qstep(4,3)", "qstep(2,5)"):
            assert expected in labels
        assert report.counterexample is None

    def test_sweep_refusal_above_12(self):
        with pytest.raises(OrderTooLargeError):
            conjecture_sweep(13, 13)

    @pytest.mark.parametrize("kwargs", [{"generators": ("foo",)}, {"generators": ("isotopes",)},
                                        {"min_order": 0, "max_order": 3},
                                        {"min_order": 0, "max_order": -1}],
                             ids=["unknown", "isotopes-zero", "min-order-0",
                                  "min-order-0-empty-range"])
    def test_sweep_without_squares_is_refused(self, kwargs):
        with pytest.raises(ValueError):
            conjecture_sweep(**kwargs)

    def test_empty_range_is_an_empty_report(self):
        assert conjecture_sweep(5, 4).rows == ()

    def test_isotopes_of_cyclic7(self):
        report = conjecture_sweep(7, 7, generators=("isotopes",), isotopes=20, seed=0)
        assert len(report.rows) == 20
        assert report.counterexample is None
        assert all(r.near and r.quasi and r.two_plex for r in report.rows)

    def test_deterministic(self):
        a = conjecture_sweep(3, 5, isotopes=3, seed=7)
        b = conjecture_sweep(3, 5, isotopes=3, seed=7)
        assert a == b

    def test_counterexample_halts(self, monkeypatch):
        # no real counterexample exists; force one to exercise the halt path
        import latinplex.plexes as plexes_mod

        monkeypatch.setattr(plexes_mod, "find_near_transversal", lambda sq, **kw: None)
        report = plexes_mod.conjecture_sweep(3, 5, generators=("cyclic",))
        assert report.counterexample is not None
        assert report.counterexample.order == 3
        assert report.rows[-1] == report.counterexample
