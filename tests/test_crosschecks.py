"""Cross-engine consistency checks: invariants that tie independent code
paths together (counts under isotopy, join vs. backtracking counters,
fallback search paths that the literal index formulas never exercise)."""

import itertools
import random

import pytest

from latinplex.constructions import (
    PROVENANCE_SEARCH,
    _as_quasi,
    _as_two_plex,
    _fallback_two_plex,
    _formula_else_search,
    _search_quasi,
    _two_plex_parts,
    square_descriptor,
)
from latinplex.core import Isotopy, apply_isotopy, gen_cyclic, gen_qstep, validate
from latinplex.errors import OrderTooLargeError
from latinplex.lsgraph import build_graph, gamma_k_exact, is_k_dominating
from latinplex.plexes import (
    _join_transversals,
    check_kplex,
    check_near_transversal,
    check_quasi_transversal,
    enumerate_transversals,
    max_disjoint_transversals,
)

from conftest import backtrack_count
from oracles import brute_gamma_k, permutation_diagonal_count


class TestIsotopyInvariance:
    def test_transversal_count_invariant(self):
        rng = random.Random(5)
        for n in range(2, 7):
            base = gen_cyclic(n)
            count = enumerate_transversals(base, cap=0).count
            for _ in range(5):
                image = apply_isotopy(base, Isotopy.random(n, rng))
                assert enumerate_transversals(image, cap=0).count == count, n

    def test_tau_invariant(self):
        rng = random.Random(6)
        for n in range(2, 6):
            base = gen_cyclic(n)
            tau = max_disjoint_transversals(base)[0]
            for _ in range(3):
                image = apply_isotopy(base, Isotopy.random(n, rng))
                assert max_disjoint_transversals(image)[0] == tau, n


class TestCounterConsistency:
    def test_mitm_equals_dfs_on_isotopes_order_10_11(self):
        # the join itself: the lattice test answers the order-10 isotope first
        rng = random.Random(7)
        for n in (10, 11):
            image = apply_isotopy(gen_cyclic(n), Isotopy.random(n, rng))
            grid = image.cells0
            assert _join_transversals(grid, n) == backtrack_count(grid, n), n

    def test_even_order_counts_even_through_8(self):
        rng = random.Random(8)
        for n in (4, 6, 8):
            assert enumerate_transversals(gen_cyclic(n), cap=0).count % 2 == 0
            image = apply_isotopy(gen_cyclic(n), Isotopy.random(n, rng))
            assert enumerate_transversals(image, cap=0).count % 2 == 0

    def test_oracle_on_order_6_sample(self):
        # one order-6 square beyond the standing <=5 oracle corpus
        sq = gen_qstep(2, 3)
        assert enumerate_transversals(sq, cap=0).count == permutation_diagonal_count(sq)


class TestGammaOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gamma3_matches_subset_scan(self, n):
        sq = gen_cyclic(n)
        g = build_graph(sq)
        k = min(3, 3 * (n - 1) + 1)  # k-domination needs delta >= k-1
        if 3 * (n - 1) < 2:
            k = 1
        assert gamma_k_exact(g, k)[0] == brute_gamma_k(sq, k)

    def test_gamma1_matches_subset_scan_order4(self):
        sq = gen_cyclic(4)
        g = build_graph(sq)
        assert gamma_k_exact(g, 1)[0] == brute_gamma_k(sq, 1)


class TestFallbackPaths:
    def test_3ds_fallback_engages_on_bad_cells(self):
        # feed deliberately wrong formula output; the certificate must switch
        # to search, record the discrepancy, and still validate; a repeated
        # cell is one more discrepancy, not an error
        sq = gen_cyclic(4)
        g = build_graph(sq)
        for bad in (tuple((1, j) for j in range(1, 5)) + ((2, 1),),
                    ((1, 1), (1, 1), (2, 2), (3, 3), (4, 4))):
            cert = _formula_else_search(
                "3ds-q1", sq, square_descriptor("cyclic", n=4), (bad,),
                _as_quasi, lambda: _search_quasi(sq),
            )
            assert cert.verdict
            assert cert.provenance == PROVENANCE_SEARCH
            assert any("fail" in note for note in cert.notes)
            assert check_quasi_transversal(sq, cert.witness)[0]
            assert is_k_dominating(g, cert.witness.cells, 3).verdict

    def test_2plex_fallback_engages_on_bad_cells(self):
        sq = gen_cyclic(6)
        bad_s = tuple((1, j) for j in range(1, 8))  # seven cells in one row
        bad_sp = tuple((2, j) for j in range(1, 6))
        cert = _formula_else_search(
            "2plex-q1", sq, square_descriptor("cyclic", n=6), _two_plex_parts(bad_s, bad_sp),
            _as_two_plex, lambda: _fallback_two_plex(sq),
        )
        assert cert.verdict
        assert cert.provenance == PROVENANCE_SEARCH
        quasi, near, union = cert.witness_list()
        assert check_quasi_transversal(sq, quasi)[0]
        assert check_near_transversal(sq, near)[0]
        assert check_kplex(sq, union, 2)[0]

    @pytest.mark.parametrize("claim,wrap,search", [
        ("3ds-q1", _as_quasi, _search_quasi),
        ("2plex-q1", _as_two_plex, _fallback_two_plex),
    ], ids=["3ds-q1", "2plex-q1"])
    def test_fallback_refuses_above_order_12(self, claim, wrap, search):
        # the fallbacks are exhaustive, so a failing formula above order 12
        # is refused, never answered by an uncertified search
        sq = gen_cyclic(14)
        bad = tuple((1, j) for j in range(1, 15)) + ((2, 1),)
        parts = (bad,) if claim == "3ds-q1" else _two_plex_parts(bad, bad[:13])
        with pytest.raises(OrderTooLargeError):
            _formula_else_search(claim, sq, square_descriptor("cyclic", n=14), parts,
                                 wrap, lambda: search(sq))

    def test_fallback_pairing_respects_profile(self):
        # the structured fallback pairs a quasi with a near missing exactly
        # the doubled row/column/symbol, so their union is a 2-plex
        from latinplex.plexes import quasi_profile

        sq = gen_qstep(2, 5)
        (quasi, near, _), _ = _fallback_two_plex(sq)
        assert quasi is not None and near is not None
        dr, dc, ds = quasi_profile(sq, quasi)
        rows = {r for r, _ in near.cells}
        cols = {c for _, c in near.cells}
        syms = {sq.symbol(r, c) for r, c in near.cells}
        assert dr not in rows and dc not in cols and ds not in syms
        union = tuple(sorted(set(quasi.cells) | set(near.cells)))
        assert check_kplex(sq, union, 2)[0]


class TestLargeOrderStepType:
    def test_order_36_qstep_validates(self):
        from latinplex.core import StepTypeSpec, is_qstep_type

        sq = gen_qstep(4, 9)
        ok, why = is_qstep_type(sq, StepTypeSpec(4, 9))
        assert ok, why

    def test_order_36_not_3step(self):
        from latinplex.core import StepTypeSpec, is_qstep_type

        sq = gen_qstep(4, 9)
        ok, _ = is_qstep_type(sq, StepTypeSpec(12, 3))
        assert not ok


class TestSmallOrderEdges:
    def test_order1_everything(self):
        sq = gen_cyclic(1)
        assert enumerate_transversals(sq).count == 1
        assert max_disjoint_transversals(sq)[0] == 1
        g = build_graph(sq)
        assert gamma_k_exact(g, 1)[0] == 1

    def test_order2_no_transversal(self):
        sq = validate([[1, 2], [2, 1]])
        assert enumerate_transversals(sq).count == 0
        assert max_disjoint_transversals(sq)[0] == 0

    def test_order2_whole_square_is_2plex(self):
        sq = validate([[1, 2], [2, 1]])
        cells = [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert check_kplex(sq, cells, 2)[0]
