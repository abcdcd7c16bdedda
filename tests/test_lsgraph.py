import itertools
import logging
import random
import re
import tracemalloc

import pytest

from latinplex import lsgraph, plexes
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
    DimensionMismatchError,
    InvalidCellSetError,
    OrderTooLargeError,
)
from latinplex.lsgraph import (
    _cell_orbits,
    build_graph,
    domatic_upper_bound,
    gamma_k_exact,
    gamma_k_lower_bound,
    has_mate_coloring,
    induced_degrees,
    is_k_dominating,
    is_lk_independent_dominating,
    quasi_3ds_correspondence,
    scan_3ds_sets,
    transversal_equivalence_check,
    verify_domatic_partition,
)
from latinplex.plexes import (
    KIND_CELLS,
    CellSet,
    _column_orbit_maps,
    check_kplex,
    check_near_transversal,
    check_partial_transversal,
    check_quasi_transversal,
    check_transversal,
    enumerate_transversals,
    find_kplex,
    find_quasi_transversal,
    find_orthogonal_mate,
    max_disjoint_transversals,
)
from latinplex.constructions import domatic_family_cells

from conftest import NO_TRANSVERSAL_6, conjugate, corpus_up_to, non_group_square
from oracles import brute_is_k_dominating, neighbors_of


def all_cells(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def _group_tables():
    """Cyclic 1-6, the q-steps to order 6 and twostep(2), each with two
    seeded full isotopes: every one is cell-transitive."""
    bases = [(f"cyclic({n})", gen_cyclic(n)) for n in range(1, 7)]
    bases += [(f"qstep({m},{q})", gen_qstep(m, q)) for m, q in ((2, 2), (2, 3), (3, 2))]
    bases.append(("twostep(2)", gen_two_step_pow2(2)))
    rng = random.Random(20261019)
    tables = []
    for label, sq in bases:
        tables.append((label, sq))
        tables += [(f"{label}#{t}", apply_isotopy(sq, Isotopy.random(sq.order, rng)))
                   for t in range(2)]
    return tables


GROUP_TABLES = _group_tables()
NON_GROUP = [("non-group-orbit-1", non_group_square(1)), ("non-group-orbit-2", non_group_square(2)),
             ("no-transversal-6", LatinSquare(NO_TRANSVERSAL_6))]
#: squares where gamma_k_exact must give the same (value, cells) with and
#: without the root orbit cut
UNCUT_CASES = corpus_up_to(6) + NON_GROUP


class TestGraphStructure:
    def test_order1_is_k1(self):
        g = build_graph(gen_cyclic(1))
        assert g.num_vertices == 1
        assert g.degree((1, 1)) == 0

    def test_order2_is_complete(self):
        g = build_graph(validate([[1, 2], [2, 1]]))
        cells = all_cells(2)
        for a in cells:
            for b in cells:
                if a != b:
                    assert g.adjacent(a, b)
        assert all(g.degree(c) == 3 for c in cells)

    def test_order4_degree_9(self):
        g = build_graph(gen_cyclic(4))
        assert all(g.degree(c) == 9 for c in all_cells(4))

    def test_regularity_corpus(self):
        for label, sq in corpus_up_to(12):
            g = build_graph(sq)
            expected = 3 * (sq.order - 1)
            assert all(g.degree(c) == expected for c in all_cells(sq.order)), label

    def test_common_neighbors_row_pair_order4(self):
        g = build_graph(gen_cyclic(4))
        assert g.common_neighbor_count((1, 1), (1, 2)) == 4

    def test_common_neighbors_all_pairs(self):
        # the expected counts come from neighbourhoods expanded cell by cell,
        # so the strongly regular parameters (n^2, 3(n-1), n, 6) are checked,
        # not assumed: every ordered pair, a == b and non-adjacent ones too
        for label, sq in corpus_up_to(8):
            g = build_graph(sq)
            cells = all_cells(sq.order)
            nbrs = {c: neighbors_of(sq, c) for c in cells}
            for a in cells:
                assert g.degree(a) == len(nbrs[a]), (label, a)
                for b in cells:
                    assert g.adjacent(a, b) == (b in nbrs[a]), (label, a, b)
                    assert g.common_neighbor_count(a, b) == len(nbrs[a] & nbrs[b]), (label, a, b)

    def test_adjacency_matches_oracle(self):
        sq = gen_qstep(2, 3)
        g = build_graph(sq)
        for cell in all_cells(6):
            expected = neighbors_of(sq, cell)
            actual = {u for u in all_cells(6) if g.adjacent(cell, u)}
            assert actual == expected

    def test_adjacency_masks_match_oracle(self):
        for label, sq in corpus_up_to(8):
            n = sq.order
            g = build_graph(sq)
            for v, mask in enumerate(g.adj):
                got = {g.cell_of(u) for u in range(n * n) if mask >> u & 1}
                assert got == neighbors_of(sq, g.cell_of(v)), (label, v)

    def test_queries_build_no_line_tables(self):
        g = build_graph(gen_cyclic(256))
        tracemalloc.start()
        try:
            assert g.degree((3, 5)) == 765
            assert g.adjacent((1, 1), (2, 256))
            assert g.common_neighbor_count((1, 1), (2, 3)) == 6
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_materialized_refusal(self):
        with pytest.raises(OrderTooLargeError):
            build_graph(gen_cyclic(17)).adj

    def test_implicit_mode_large_order(self):
        g = build_graph(gen_qstep(4, 9))
        assert g.degree((1, 1)) == 3 * 35
        # (1,1) and (1,2) share row 1; adjacent cells have n common neighbours
        assert g.adjacent((1, 1), (1, 2))
        assert g.common_neighbor_count((1, 1), (1, 2)) == 36

    @pytest.mark.parametrize("order,query,cells,message", [
        (4, "degree", [(0, 1)], r"cell \(0,1\) outside 1..4"),
        (4, "common_neighbor_count", [(0, 0), (1, 1)], r"cell \(0,0\) outside 1..4"),
        (4, "degree", [(5, 1)], r"cell \(5,1\) outside 1..4"),
        (20, "adjacent", [(21, 1), (1, 1)], r"cell \(21,1\) outside 1..20"),
    ], ids=["degree-row0", "common-row0", "degree-row5", "adjacent-row21"])
    def test_cells_outside_the_square_rejected(self, order, query, cells, message):
        g = build_graph(gen_cyclic(order))
        with pytest.raises(InvalidCellSetError, match=message):
            getattr(g, query)(*cells)


class TestDomination:
    def test_whole_vertex_set_dominates(self):
        for k in (1, 3, 9):
            g = build_graph(gen_cyclic(3))
            cert = is_k_dominating(g, all_cells(3), k)
            assert cert.verdict and not cert.deficient

    def test_transversal_is_3_dominating(self):
        sq = gen_two_step_pow2(2)
        g = build_graph(sq)
        t = find_kplex(sq, 1)
        assert is_k_dominating(g, t, 3).verdict

    def test_cyclic4_diagonal_not_3_dominating(self):
        sq = gen_cyclic(4)
        g = build_graph(sq)
        cert = is_k_dominating(g, [(i, i) for i in range(1, 5)], 3)
        assert not cert.verdict
        i, j, count = cert.deficient[0]
        assert count < 3

    def test_counts_match_oracle(self):
        rng = random.Random(3)
        for label, sq in corpus_up_to(5):
            n = sq.order
            g = build_graph(sq)
            cells = all_cells(n)
            for _ in range(20):
                pick = rng.sample(cells, rng.randint(1, min(n + 1, n * n)))
                for k in (1, 3):
                    assert (
                        is_k_dominating(g, pick, k).verdict
                        == brute_is_k_dominating(sq, pick, k)
                    ), label

    def test_deficient_and_induced_degrees_match_oracle(self):
        rng = random.Random(9)
        for label, sq in corpus_up_to(7):
            n = sq.order
            if n < 3:
                continue
            g = build_graph(sq)
            cells = all_cells(n)
            for _ in range(4):
                pick = set(rng.sample(cells, rng.randint(1, 2 * n)))
                meets = {v: len(neighbors_of(sq, v) & pick) for v in cells}
                # thresholds (k - 1) // 3 from -1 to 2
                for k in (0, 1, 3, 4, 7):
                    expected = [(i, j, meets[i, j]) for i, j in cells
                                if (i, j) not in pick and meets[i, j] < k]
                    assert list(is_k_dominating(g, pick, k).deficient) == expected, label
                assert induced_degrees(sq, pick) == {v: meets[v] for v in pick}, label

    @pytest.mark.parametrize("cells,message", [
        ([(0, 1), (-1, 2)], r"cell \(-1,2\) outside 1..4"),
        ([(5, 1)], r"cell \(5,1\) outside 1..4"),
        ([(1, 1), (1, 1), (2, 3)], r"duplicate cell \(1, 1\)"),
    ], ids=["row-0-and-row--1", "row-5", "repeated-cell"])
    @pytest.mark.parametrize("check", [
        lambda sq, cells: is_k_dominating(build_graph(sq), cells, 1),
        induced_degrees,
    ], ids=["is_k_dominating", "induced_degrees"])
    def test_cells_outside_the_square_or_repeated_rejected(self, check, cells, message):
        with pytest.raises(InvalidCellSetError, match=message):
            check(gen_cyclic(4), cells)

    def test_cellset_of_the_order_is_not_checked_again(self, monkeypatch):
        sq = gen_cyclic(6)
        g = build_graph(sq)
        cs = CellSet(6, ((4, 5), (1, 1), (2, 3)), KIND_CELLS)
        assert plexes._cells(6, cs) == (cs.cells, None)
        assert plexes._cells(6, cs)[0] is cs.cells
        normalise = plexes._cells
        passed = []

        def spy(order, cells):
            out = normalise(order, cells)
            if cells is cs:
                passed.append(out[0] is cs.cells)
            return out

        monkeypatch.setattr(plexes, "_cells", spy)
        for check in (check_transversal, check_partial_transversal, check_near_transversal,
                      check_quasi_transversal, lambda sq, cells: check_kplex(sq, cells, 1)):
            check(sq, cs)
        assert passed == [True] * 5
        assert is_k_dominating(g, cs, 2).cells is cs.cells
        assert is_k_dominating(g, cs, 2) == is_k_dominating(g, list(cs.cells), 2)
        # a CellSet made for another order is checked against this one
        with pytest.raises(InvalidCellSetError, match=r"cell \(7,7\) outside 1..6"):
            is_k_dominating(g, CellSet(8, ((7, 7),), KIND_CELLS), 1)
        assert check_transversal(sq, CellSet(8, ((7, 7),), KIND_CELLS)) == (
            False, "cell (7,7) outside 1..6")

    def test_non_integer_coordinate_raises_type_error(self):
        # truncated, these cells would be the main diagonal, a 3-dominating set
        with pytest.raises(TypeError):
            is_k_dominating(build_graph(gen_cyclic(3)), [(1.5, 1), (2, 2.2), (3, 3)], 3)


class TestIndependentDomination:
    def test_transversal_is_13_ids(self):
        for label, sq in corpus_up_to(6):
            census = enumerate_transversals(sq, cap=5)
            g = build_graph(sq)
            for t in census.witnesses:
                assert is_lk_independent_dominating(g, t, 1, 3).verdict, label

    def test_two_cells_one_row_not_1_independent(self):
        g = build_graph(gen_cyclic(4))
        cert = is_lk_independent_dominating(g, [(1, 1), (1, 2)], 1, 9)
        assert not cert.verdict

    def test_quasi_of_cyclic4_is_33_ids_not_23(self):
        # every quasi-transversal of the order-4 cyclic square has induced
        # maximum degree exactly 2: its three doubled pairs interlock, so it
        # is a (3,3)-IDS but never a (2,3)-IDS
        sq = gen_cyclic(4)
        g = build_graph(sq)
        quasi = find_quasi_transversal(sq)
        assert is_lk_independent_dominating(g, quasi, 3, 3).verdict
        assert not is_lk_independent_dominating(g, quasi, 2, 3).verdict
        assert max(induced_degrees(sq, quasi.cells).values()) == 2

    def test_some_quasi_of_qstep23_is_23_ids(self):
        # at order 6 quasi-transversals with pairwise-disjoint doubled pairs
        # exist and those are (2,3)-independent dominating
        sq = gen_qstep(2, 3)
        g = build_graph(sq)
        from oracles import all_quasi_cellsets

        assert any(
            is_lk_independent_dominating(g, q, 2, 3).verdict
            for q in all_quasi_cellsets(sq)
        )


class TestGammaExact:
    def test_cyclic4_gamma3_is_5(self):
        g = build_graph(gen_cyclic(4))
        value, witness = gamma_k_exact(g, 3)
        assert value == 5
        assert is_k_dominating(g, witness, 3).verdict

    def test_twostep2_gamma3_is_4(self):
        g = build_graph(gen_two_step_pow2(2))
        value, witness = gamma_k_exact(g, 3)
        assert value == 4
        assert is_k_dominating(g, witness, 3).verdict

    def test_cyclic3_gamma3_is_3(self):
        g = build_graph(gen_cyclic(3))
        assert gamma_k_exact(g, 3)[0] == 3

    def test_lower_bound_formula(self):
        assert gamma_k_lower_bound(4, 3) == 4  # ceil(48/12)
        assert gamma_k_lower_bound(6, 3) == 6  # ceil(108/18)
        assert gamma_k_lower_bound(1, 0) == 0  # 0/0 at order 1

    def test_matches_brute_force_tiny(self):
        from oracles import brute_gamma_k

        for _, sq in corpus_up_to(4):  # with two seeded full isotopes of cyclic(3), (4)
            g = build_graph(sq)
            for k in (1, 2, 3):
                value, witness = gamma_k_exact(g, k)
                assert value == len(witness) == brute_gamma_k(sq, k)
                assert is_k_dominating(g, witness, k).verdict

    @pytest.mark.parametrize("sq, gammas", [
        (gen_cyclic(5), (3, 5, 5)),
        (gen_cyclic(6), (3, 6, 7)),
        (gen_qstep(2, 3), (3, 6, 7)),
        (gen_qstep(3, 2), (3, 6, 7)),
    ], ids=["cyclic(5)", "cyclic(6)", "qstep(2,3)", "qstep(3,2)"])
    def test_gamma_1_2_3_orders_5_6(self, sq, gammas):
        g = build_graph(sq)
        for k, want in zip((1, 2, 3), gammas):
            value, witness = gamma_k_exact(g, k)
            assert value == len(witness) == want
            assert is_k_dominating(g, witness, k).verdict

    def test_hint_cells_accepted(self):
        # a quasi-transversal of cyclic(4) is a 3-dominating set of size gamma_3
        sq = gen_cyclic(4)
        g = build_graph(sq)
        quasi = find_quasi_transversal(sq)
        assert is_k_dominating(g, quasi.cells, 3).verdict
        value, _ = gamma_k_exact(g, 3)
        assert value == len(quasi.cells) == 5
        with pytest.raises(TypeError):
            gamma_k_exact(g, 3, upper_hint=5, hint_cells=quasi.cells)

    def test_logs_nodes_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            gamma_k_exact(build_graph(gen_cyclic(4)), 3)
        assert re.search(r"gamma_3: \d+ nodes, stopped at size 5, lower bound 4", caplog.text)

    @pytest.mark.parametrize("sq, k, field, seed", [
        (gen_cyclic(6), 2, "868 nodes, stopped at size 6, lower bound 5, 1 root orbit", None),
        (non_group_square(1), 2, "5485 nodes, stopped at size 6, lower bound 5, 36 root orbits", None),
        (gen_cyclic(6), 3, "267 nodes, stopped at size 7, lower bound 6, 1 root orbit", None),
        # no node runs, so the witness is the greedy seed, which takes at
        # each step the first vertex of largest gain
        (gen_qstep(2, 2), 3, "0 nodes, stopped at size 4, lower bound 4, 0 root orbits",
         ((1, 1), (2, 3), (3, 4), (4, 2))),
    ], ids=["cyclic(6)", "non-group-orbit-1", "cyclic(6)-gamma3", "qstep(2,2)-gamma3"])
    def test_logs_root_orbits(self, caplog, sq, k, field, seed):
        with caplog.at_level(logging.DEBUG, logger="latinplex"):
            _, witness = gamma_k_exact(build_graph(sq), k)
        assert f"gamma_{k}: {field}\n" in caplog.text
        assert seed in (None, witness)

    def test_negative_k_refused(self):
        for n in (1, 3):  # at order 1 the lower bound for k = 0 is 0/0
            g = build_graph(gen_cyclic(n))
            with pytest.raises(ValueError):
                gamma_k_exact(g, -1)
            assert gamma_k_exact(g, 0) == (0, ())

    @pytest.mark.parametrize("sq", [sq for _, sq in corpus_up_to(5)] + [LatinSquare(NO_TRANSVERSAL_6)],
                             ids=[label for label, _ in corpus_up_to(5)] + ["no-transversal-6"])
    def test_gamma_agrees_on_all_six_conjugates(self, sq):
        # all six conjugates have the same graph, so gamma_k cannot differ
        gammas = {perm: tuple(gamma_k_exact(build_graph(conjugate(sq, perm)), k)[0] for k in (1, 2, 3))
                  for perm in itertools.permutations(range(3))}
        assert len(set(gammas.values())) == 1, gammas

    def test_root_orbit_cut_changes_no_answer(self, monkeypatch):
        # the cut only skips root branches that re-prove an earlier one, so
        # the search with the identity group alone returns the same sets
        cut = {(label, k): gamma_k_exact(build_graph(sq), k)
               for label, sq in UNCUT_CASES for k in (1, 2, 3)}
        monkeypatch.setattr(lsgraph, "_cell_orbits", lambda grid, n: [1 << v for v in range(n * n)])
        uncut = {(label, k): gamma_k_exact(build_graph(sq), k)
                 for label, sq in UNCUT_CASES for k in (1, 2, 3)}
        assert cut == uncut

    def test_refusal_above_6(self):
        g = build_graph(gen_cyclic(7))
        with pytest.raises(OrderTooLargeError):
            gamma_k_exact(g, 3)


def _cell_maps(grid, n: int) -> list[list[int]]:
    """The cell maps (i, j) -> (alpha(i), beta(j)) as permutations of the
    vertex ids: beta a column map of a row-fixing autotopism, alpha one of a
    column-fixing autotopism (a column map of the transpose)."""
    betas = _column_orbit_maps(grid, n)
    alphas = _column_orbit_maps([list(col) for col in zip(*grid)], n)
    return [[a * n + b for a in alpha for b in beta] for alpha in alphas for beta in betas]


class TestCellAutomorphisms:
    @pytest.mark.parametrize("label,sq", GROUP_TABLES + NON_GROUP,
                             ids=[label for label, _ in GROUP_TABLES + NON_GROUP])
    def test_maps_are_free_graph_automorphisms(self, label, sq):
        # free: only the identity fixes a cell, so every orbit has len(group)
        # cells, which the DEBUG line's orbit count assumes
        n = sq.order
        adj = build_graph(sq).adj
        group = _cell_maps(sq.cells0, n)
        assert len({tuple(p) for p in group}) == len(group)
        for p in group:
            assert p == list(range(n * n)) or all(p[v] != v for v in range(n * n))
            for v in range(n * n):
                image = sum(1 << p[u] for u in range(n * n) if adj[v] >> u & 1)
                assert image == adj[p[v]]
        assert _cell_orbits(sq.cells0, n) == [
            sum(1 << u for u in {p[v] for p in group}) for v in range(n * n)]

    @pytest.mark.parametrize("label,sq", GROUP_TABLES, ids=[label for label, _ in GROUP_TABLES])
    def test_transitive_on_group_tables(self, label, sq):
        n = sq.order
        assert {p[0] for p in _cell_maps(sq.cells0, n)} == set(range(n * n))
        assert _cell_orbits(sq.cells0, n) == [(1 << n * n) - 1] * (n * n)

    def test_identity_alone_without_autotopisms(self):
        assert _cell_maps(non_group_square(1).cells0, 6) == [list(range(36))]
        assert _cell_orbits(non_group_square(1).cells0, 6) == [1 << v for v in range(36)]


class TestEquivalence:
    def test_all_transversals_of_cyclic5(self):
        sq = gen_cyclic(5)
        census = enumerate_transversals(sq, cap=100)
        for t in census.witnesses:
            report = transversal_equivalence_check(sq, t)
            assert report.agree
            assert report.is_transversal

    def test_random_sets_agree(self):
        rng = random.Random(11)
        for label, sq in corpus_up_to(5):
            n = sq.order
            cells = all_cells(n)
            for _ in range(200):
                pick = rng.sample(cells, n)
                report = transversal_equivalence_check(sq, pick)
                assert report.agree, (label, pick)

    def test_cyclic4_diagonal_all_false(self):
        report = transversal_equivalence_check(gen_cyclic(4), [(i, i) for i in range(1, 5)])
        assert report.agree
        assert not report.is_transversal

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatchError):
            transversal_equivalence_check(gen_cyclic(4), [(1, 1)])


class TestDomaticVerification:
    def test_twostep2_decomposition_is_domatic(self):
        sq = gen_two_step_pow2(2)
        g = build_graph(sq)
        tau, family = max_disjoint_transversals(sq)
        assert tau == 4
        report = verify_domatic_partition(g, family, 3)
        assert report.verdict and report.is_partition
        assert report.implied_lower_bound == 4
        assert report.parts == tuple(t.cells for t in family)
        # equality: d_3 <= floor(16/4) = 4 once gamma_3 = 4 is known
        assert domatic_upper_bound(4, 4) == 4

    def test_domatic_family_cyclic4(self):
        sq = gen_cyclic(4)
        g = build_graph(sq)
        parts = domatic_family_cells(4)
        report = verify_domatic_partition(g, parts, 3)
        assert report.verdict and report.is_partition
        assert report.implied_lower_bound == 3

    def test_single_part_whole_vertex_set(self):
        g = build_graph(gen_cyclic(3))
        report = verify_domatic_partition(g, [all_cells(3)], 3)
        assert report.verdict and report.is_partition

    def test_overlap_rejected(self):
        g = build_graph(gen_cyclic(3))
        report = verify_domatic_partition(g, [all_cells(3), [(1, 1)]], 1)
        assert not report.verdict and not report.is_partition

    @pytest.mark.parametrize("parts,message", [
        ([[(1, 1), (1, 1), (2, 2)]], r"duplicate cell \(1, 1\)"),
        ([[(1, 1)], [(2, 2), (5, 1)]], r"cell \(5,1\) outside 1..4"),
    ], ids=["repeated-cell", "cell-outside"])
    def test_bad_cells_rejected(self, parts, message):
        with pytest.raises(InvalidCellSetError, match=message):
            verify_domatic_partition(build_graph(gen_cyclic(4)), parts, 3)

    def test_partial_family_flagged(self):
        sq = gen_two_step_pow2(2)
        g = build_graph(sq)
        _, family = max_disjoint_transversals(sq)
        report = verify_domatic_partition(g, family[:2], 3)
        assert report.verdict
        assert not report.is_partition
        assert report.implied_lower_bound == 2


class TestMateColoring:
    def test_twostep2_colorable(self):
        sq = gen_two_step_pow2(2)
        ok, coloring = has_mate_coloring(sq)
        assert ok
        g = build_graph(sq)
        for a in all_cells(4):
            for b in all_cells(4):
                if a != b and g.adjacent(a, b):
                    assert coloring[a] != coloring[b]
        assert len(set(coloring.values())) == 4

    def test_cyclic4_not_n_colorable(self):
        ok, coloring = has_mate_coloring(gen_cyclic(4))
        assert not ok and coloring is None

    def test_order1(self):
        assert has_mate_coloring(gen_cyclic(1))[0]

    def test_matches_tau_and_mate(self):
        for label, sq in corpus_up_to(6):
            tau, _ = max_disjoint_transversals(sq)
            mate = find_orthogonal_mate(sq)
            colorable, _ = has_mate_coloring(sq)
            assert colorable == (tau == sq.order) == (mate is not None), label


class TestQuasi3dsCorrespondence:
    def test_quasi_of_cyclic4_is_3ds_of_size_5(self):
        sq = gen_cyclic(4)
        quasi = find_quasi_transversal(sq)
        report = quasi_3ds_correspondence(sq, quasi)
        assert report.is_quasi and report.is_3ds and report.forward_ok

    def test_every_quasi_is_3ds_small_orders(self):
        from oracles import all_quasi_cellsets

        for n in (3, 4, 5):
            sq = gen_cyclic(n)
            g = build_graph(sq)
            for q in all_quasi_cellsets(sq):
                assert is_k_dominating(g, q, 3).verdict, (n, q.cells)

    def test_exhaustive_scan_cyclic4(self):
        # every 5-cell 3-dominating set of the order-4 cyclic square turns
        # out to be a quasi-transversal (96 of each); reported, not assumed
        total, quasi_count, examples = scan_3ds_sets(gen_cyclic(4), 5)
        assert total == 96
        assert quasi_count == 96
        assert examples == ()

    def test_order3_quasi_is_3ds_of_size_4(self):
        sq = gen_cyclic(3)
        quasi = find_quasi_transversal(sq)
        report = quasi_3ds_correspondence(sq, quasi)
        assert report.is_quasi and report.is_3ds
        assert report.scan_total_3ds is not None  # auto scan at order <= 4

    def test_scan_refusal_above_5(self):
        with pytest.raises(OrderTooLargeError):
            scan_3ds_sets(gen_cyclic(6), 7)

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatchError):
            quasi_3ds_correspondence(gen_cyclic(4), [(1, 1), (2, 2)])


class TestBoundChain:
    @pytest.mark.parametrize("n", [4, 6])
    def test_cyclic_even_gamma_chain(self, n):
        # no transversal -> no 3DS of size n (equivalence) -> gamma_3 >= n+1,
        # and the explicit quasi witness gives gamma_3 <= n+1
        sq = gen_cyclic(n)
        assert enumerate_transversals(sq, cap=0).count == 0
        quasi = find_quasi_transversal(sq)
        g = build_graph(sq)
        assert is_k_dominating(g, quasi, 3).verdict
        if n == 4:
            assert gamma_k_exact(g, 3)[0] == n + 1

    def test_dk_upper_bound_consistency(self):
        # family size never exceeds floor(n^2/gamma_k) when gamma is known
        sq = gen_cyclic(4)
        g = build_graph(sq)
        gamma, _ = gamma_k_exact(g, 3)
        parts = domatic_family_cells(4)
        report = verify_domatic_partition(g, parts, 3)
        assert report.implied_lower_bound <= domatic_upper_bound(4, gamma)
