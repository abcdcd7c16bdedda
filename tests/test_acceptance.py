"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Budgets are wall-clock upper bounds; every numeric
tolerance is exact (these are combinatorial counts and verdicts).
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from latinplex.constructions import (
    build_2plex_general,
    build_2plex_m2,
    build_2plex_q1,
    build_3ds_q1,
    build_3ds_qgen,
    build_domatic_partition_cyclic,
    build_qt_nt_transforms,
    construct_twostep_decomposition,
    decompose_two_step,
    verify_certificate,
    WitnessCertificate,
)
from latinplex.core import gen_cyclic, gen_qstep, gen_two_step_pow2
from latinplex.lsgraph import (
    build_graph,
    domatic_upper_bound,
    gamma_k_exact,
    has_mate_coloring,
    is_k_dominating,
    transversal_equivalence_check,
    verify_domatic_partition,
)
from latinplex.plexes import (
    check_kplex,
    check_near_transversal,
    check_quasi_transversal,
    check_transversal,
    conjecture_sweep,
    enumerate_transversals,
    find_orthogonal_mate,
    max_disjoint_transversals,
)

from conftest import cli_env, corpus_up_to
from oracles import neighbors_of, permutation_diagonal_count


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] FAIL {description}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"[criterion {num:>2}] PASS {description} ({elapsed:.2f}s)")


def test_criterion_01_twostep_decomposition():
    with criterion(1, "doubling family decomposes into n disjoint transversals "
                      "(orders 4, 8, 16)", budget=5.0):
        for k in (2, 3, 4):
            sq = gen_two_step_pow2(k)
            n = sq.order
            parts = decompose_two_step(sq)
            assert len(parts) == n
            used = set()
            for t in parts:
                ok, why = check_transversal(sq, t)
                assert ok, why
                assert not used & set(t.cells)
                used |= set(t.cells)
            assert len(used) == n * n


def test_criterion_02_no_transversal_family():
    with criterion(2, "zero transversals, certified by exhaustion "
                      "(cyclic 4,6,8,10; qstep (2,3),(4,3),(2,5))", budget=30.0):
        squares = [gen_cyclic(n) for n in (4, 6, 8, 10)]
        squares += [gen_qstep(2, 3), gen_qstep(4, 3), gen_qstep(2, 5)]
        for sq in squares:
            assert enumerate_transversals(sq, cap=0).count == 0, f"order {sq.order}"


def test_criterion_03_gamma3_equals_n_plus_1():
    with criterion(3, "gamma_3 = n+1 for the no-transversal family", budget=120.0):
        for n in (4, 6):
            sq = gen_cyclic(n)
            cert = build_3ds_q1(n)
            assert cert.verdict and len(cert.witness.cells) == n + 1
            g = build_graph(sq)
            assert is_k_dominating(g, cert.witness.cells, 3).verdict
            value, witness = gamma_k_exact(g, 3)
            assert value == n + 1
            assert is_k_dominating(g, witness, 3).verdict
        for m, q in ((2, 3), (4, 3)):
            sq = gen_qstep(m, q)
            n = m * q
            cert = build_3ds_qgen(m, q)
            assert cert.verdict and len(cert.witness.cells) == n + 1
            g = build_graph(sq)
            assert is_k_dominating(g, cert.witness.cells, 3).verdict
            # no 3DS of size n: a size-n 3DS would be a transversal by the
            # three-way equivalence, and the transversal count is zero
            assert enumerate_transversals(sq, cap=0).count == 0
            # hence gamma_3 >= n+1 while the witness gives <= n+1


def test_criterion_04_domatic_number_closure():
    with criterion(4, "d_3 = floor(n^2/(n+1)) via the S_j family "
                      "(cyclic 4, 6, 10)", budget=10.0):
        for n in (4, 6, 10):
            cert = build_domatic_partition_cyclic(n)
            assert cert.verdict
            parts = cert.witness_list()
            assert len(parts) == n - 1
            g = build_graph(gen_cyclic(n))
            report = verify_domatic_partition(g, parts, 3)
            assert report.verdict and report.is_partition
            assert report.implied_lower_bound == n - 1
            assert domatic_upper_bound(n, n + 1) == n - 1  # (2.1) closes equality


def test_criterion_05_rodney_two_plexes():
    with criterion(5, "validated 2-plex certificates with disjoint quasi/near "
                      "sub-witnesses (cases 1, 2, 3)", budget=30.0):
        certs = [build_2plex_q1(n) for n in (4, 6, 10)]
        certs += [build_2plex_m2(q) for q in (3, 5)]
        certs += [build_2plex_general(m, q) for m, q in ((4, 3), (6, 3), (4, 5))]
        for cert in certs:
            assert cert.verdict, cert.claim
            from latinplex.constructions import square_from_descriptor

            sq = square_from_descriptor(cert.square)
            quasi, near, union = cert.witness_list()
            assert check_quasi_transversal(sq, quasi)[0]
            assert check_near_transversal(sq, near)[0]
            assert not set(quasi.cells) & set(near.cells)
            assert check_kplex(sq, union, 2)[0]
            assert set(union.cells) == set(quasi.cells) | set(near.cells)


def test_criterion_06_equivalence_suite():
    with criterion(6, "three-way equivalence + mate/tau/coloring agreement, "
                      "corpus order <= 6, zero disagreements"):
        rng = random.Random(0)
        for label, sq in corpus_up_to(6):
            n = sq.order
            census = enumerate_transversals(sq, cap=10_000)
            assert not census.truncated
            for t in census.witnesses:
                report = transversal_equivalence_check(sq, t)
                assert report.agree and report.is_transversal, label
            cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            for _ in range(200):
                pick = rng.sample(cells, n)
                assert transversal_equivalence_check(sq, pick).agree, (label, pick)
            tau, _ = max_disjoint_transversals(sq)
            mate = find_orthogonal_mate(sq)
            colorable, _ = has_mate_coloring(sq)
            assert (mate is not None) == (tau == n) == colorable, label


def test_criterion_07_oracle_equivalence():
    with criterion(7, "search counts equal the permutation-diagonal oracle "
                      "(corpus order <= 5; 3 / 8 / 15 frozen)"):
        expected = {
            "cyclic(3)": 3,
            "twostep(2)": 8,
            "cyclic(5)": 15,
        }
        seen = {}
        for label, sq in corpus_up_to(5):
            count = enumerate_transversals(sq, cap=0).count
            assert count == permutation_diagonal_count(sq), label
            seen[label] = count
        for label, value in expected.items():
            assert seen[label] == value, (label, seen[label])


def test_criterion_08_graph_invariants():
    with criterion(8, "degree, adjacency and common neighbours equal the oracle's "
                      "neighbourhoods on every ordered pair, corpus order <= 8"):
        for label, sq in corpus_up_to(8):
            n = sq.order
            g = build_graph(sq)
            cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            nbrs = {c: neighbors_of(sq, c) for c in cells}
            for a in cells:
                assert g.degree(a) == len(nbrs[a]) == 3 * (n - 1), label
                for b in cells:
                    assert g.adjacent(a, b) == (b in nbrs[a]), (label, a, b)
                    assert g.common_neighbor_count(a, b) == len(nbrs[a] & nbrs[b]), (label, a, b)


def test_criterion_09_conjecture_sweep():
    with criterion(9, "near/quasi/2-plex exist for every square, orders 3..7 "
                      "plus 20 isotopes per order", budget=120.0):
        report = conjecture_sweep(
            min_order=3,
            max_order=7,
            generators=("cyclic", "qstep", "isotopes"),
            isotopes=20,
            seed=0,
        )
        assert report.counterexample is None
        isotope_rows = [r for r in report.rows if r.label.startswith("isotope")]
        assert len(isotope_rows) == 100  # 20 per order, 5 orders
        for row in report.rows:
            assert row.near and row.quasi and row.two_plex, row.label


def test_criterion_10_determinism_and_serialization():
    with criterion(10, "certificates re-validate after a JSON round trip; "
                       "CLI runs are byte-identical"):
        certs = [
            construct_twostep_decomposition(3),
            build_3ds_q1(6),
            build_3ds_qgen(2, 3),
            build_domatic_partition_cyclic(6),
            build_2plex_q1(4),
            build_2plex_m2(3),
            build_2plex_general(4, 3),
            build_qt_nt_transforms(gen_cyclic(4)),
        ]
        for cert in certs:
            assert cert.verdict, cert.claim
            blob = json.dumps(cert.to_json_dict())
            again = WitnessCertificate.from_json_dict(json.loads(blob))
            ok, issues = verify_certificate(again)
            assert ok, (cert.claim, issues)
        commands = [
            ["gen", "cyclic", "7", "--format", "json"],
            ["construct", "domatic-cyclic", "--n", "10"],
            ["sweep", "--min-order", "3", "--max-order", "5", "--isotopes", "3",
             "--seed", "0", "--format", "json"],
        ]
        for cmd in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "latinplex.cli", *cmd],
                    capture_output=True,
                    timeout=300,
                    env=cli_env(),
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stderr == b"" and runs[1].stderr == b""
