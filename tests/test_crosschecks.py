"""Cross-engine consistency checks: invariants that tie independent code
paths together (counts under isotopy, join vs. backtracking counters), and
the claim rule every formula builder holds its cells to."""

import itertools
import random

import pytest

from latinplex import constructions, plexes
from latinplex.constructions import CLAIMS
from latinplex.core import (
    Isotopy,
    apply_isotopy,
    gen_cyclic,
    gen_qstep,
    square_descriptor,
    validate,
)
from latinplex.errors import ValidationFailureError
from latinplex.lsgraph import build_graph, gamma_k_exact
from latinplex.plexes import (
    KIND_NEAR,
    CellSet,
    _join_transversals,
    check_kplex,
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

    @pytest.mark.parametrize("n,k,gamma", [(5, 1, 3), (5, 2, 5), (6, 1, 3)],
                             ids=["cyclic(5)-1", "cyclic(5)-2", "cyclic(6)-1"])
    def test_root_orbit_cut_matches_subset_scan(self, n, k, gamma):
        # a cyclic square is cell-transitive, so the root of gamma_k_exact
        # tries one cell; the scan tries every set of each size up to gamma.
        # At order 5 the greedy set already has size gamma; at order 6, k = 1
        # it has 4, so only a sound root cut finds the 3
        sq = gen_cyclic(n)
        assert gamma_k_exact(build_graph(sq), k)[0] == brute_gamma_k(sq, k) == gamma


def _row_major(n: int, start: int, stop: int):
    """Cells start..stop-1 of an order-n square in row-major order: row 1 first."""
    return tuple((i // n + 1, i % n + 1) for i in range(start, stop))


def _repeat_first(cells):
    """The cells with the last one replaced by the first."""
    return (*cells[:-1], cells[0])


#: claim -> (the formula its builder evaluates, the builder's arguments, the order)
FORMULAS = {
    "twostep-decomp": ("_decompose_perms", (3,), 8),
    "3ds-q1": ("_rodney1_cells", (6,), 6),
    "3ds-qgen": ("_case2_cells", (2, 3), 6),
    "domatic-cyclic": ("domatic_family_cells", (6,), 6),
    "2plex-q1": ("_rodney1_cells", (6,), 6),
    "2plex-m2": ("_rodney2_cells", (3,), 6),
    "2plex-gen": ("_rodney3_cells", (4, 3), 12),
    "qt-nt-transforms": ("near_from_quasi", (square_descriptor("cyclic", n=6),), 6),
}


def _broken(name: str, out, n: int, case: str):
    """Formula `name`'s output `out` with a cell of its first set repeated
    ("repeated-cell") or outside the square ("outside-cell"), or its first
    sets moved onto row 1 ("wrong-set")."""
    repeat = case == "repeated-cell"
    if name == "_decompose_perms":  # a permutation repeats no cell: column n+1 in row 1,
        # or column 1 in every row
        return [[n, *out[0][1:]] if case == "outside-cell" else [0] * n, *out[1:]]
    if name == "near_from_quasi":
        return CellSet(n, _row_major(n, 0, n - 1), KIND_NEAR)
    if name == "_case2_cells":
        return _repeat_first(out) if repeat else _row_major(n, 0, len(out))
    if name == "domatic_family_cells":
        return [_repeat_first(out[0]) if repeat else _row_major(n, 0, len(out[0])), *out[1:]]
    s, sp = out  # quasi S and near S': S is row 1 and (2, 1), S' the rest of row 2
    return (_repeat_first(s), sp) if repeat else (_row_major(n, 0, n + 1),
                                                  _row_major(n, n + 1, 2 * n))


class TestFormulaRule:
    @pytest.mark.parametrize("claim,case", [
        *((claim, case) for claim in ("3ds-q1", "2plex-q1")
          for case in ("wrong-set", "repeated-cell", "order-14")),
        *((claim, case) for claim in ("3ds-qgen", "domatic-cyclic", "2plex-m2", "2plex-gen")
          for case in ("wrong-set", "repeated-cell")),
        ("twostep-decomp", "wrong-set"), ("twostep-decomp", "outside-cell"),
        ("qt-nt-transforms", "wrong-set"),
    ], ids=lambda v: v)
    def test_bad_formula_cells_raise(self, monkeypatch, claim, case):
        # no builder searches: formula cells failing the claim's rule are an
        # error naming the claim, never a certificate, at every order
        name, args, n = FORMULAS[claim]
        if case == "order-14":
            args, n = (14,), 14
        formula = getattr(constructions, name)
        monkeypatch.setattr(constructions, name, lambda *a: _broken(name, formula(*a), n, case))
        _, build, _ = CLAIMS[claim]
        with pytest.raises(ValidationFailureError, match=f"^{claim}: formula fails the claim's rule"):
            build(*args)

    @pytest.mark.parametrize("claim,args,count", [
        ("domatic-cyclic", (8,), 7), ("2plex-q1", (8,), 3), ("3ds-q1", (8,), 1),
        ("twostep-decomp", (3,), 8), ("3ds-qgen", (2, 3), 1), ("2plex-m2", (3,), 3),
        ("2plex-gen", (4, 3), 3),
    ], ids=lambda v: v)
    def test_each_shipped_cell_set_is_normalised_once(self, monkeypatch, claim, args, count):
        # the builder's rule runs on the CellSets it ships, which _cells passes through
        normalise = plexes._cells
        normalised = []

        def spy(order, cells):
            if not (isinstance(cells, CellSet) and cells.square_order == order):
                normalised.append(cells)
            return normalise(order, cells)

        monkeypatch.setattr(plexes, "_cells", spy)
        _, build, _ = CLAIMS[claim]
        cert = build(*args)
        assert len(normalised) == len(cert.witness_list()) == count


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
