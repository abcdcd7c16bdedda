import hashlib
import itertools
import json
import time
from collections import Counter

import pytest

from latinplex.constructions import (
    BASE4_DECOMPOSITION,
    CLAIMS,
    PROVENANCE_FORMULA,
    WitnessCertificate,
    build_2plex_general,
    build_2plex_m2,
    build_2plex_q1,
    build_3ds_q1,
    build_3ds_qgen,
    build_domatic_partition_cyclic,
    build_qt_nt_transforms,
    construct_twostep_decomposition,
    decompose_two_step,
    domatic_family_cells,
    near_from_quasi,
    quasi_from_near,
    quasi_from_transversal,
    square_descriptor,
    square_from_descriptor,
    transversal_in_quasi,
    verify_certificate,
)
from latinplex.core import Isotopy, apply_isotopy, gen_cyclic, gen_qstep, gen_two_step_pow2
from latinplex.errors import (
    NotConstructibleError,
    OrderTooLargeError,
    StructureMismatchError,
    SymbolOutOfRangeError,
)
from latinplex.lsgraph import build_graph, gamma_k_exact, is_k_dominating
from latinplex.plexes import (
    check_kplex,
    check_near_transversal,
    check_quasi_transversal,
    check_transversal,
    complement_plex,
    find_kplex,
    find_near_transversal,
    find_quasi_transversal,
    quasi_profile,
)


class TestTwoStepDecomposition:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_full_decomposition(self, k):
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

    def test_base_constant_rederived(self):
        # the embedded order-4 decomposition must match a fresh exhaustive
        # search: enumerate all transversals, then exact cover, lex-first
        sq = gen_two_step_pow2(2)
        grid = sq.rows()
        transversals = sorted(
            perm
            for perm in itertools.permutations(range(4))
            if len({grid[i][perm[i]] for i in range(4)}) == 4
        )
        masks = []
        for p in transversals:
            m = 0
            for r, c in enumerate(p):
                m |= 1 << (r * 4 + c)
            masks.append(m)

        def cover(used, chosen):
            if len(chosen) == 4:
                return list(chosen)
            v = (~used & (used + 1)).bit_length() - 1
            for idx, m in enumerate(masks):
                if (m >> v) & 1 and not (m & used):
                    res = cover(used | m, chosen + [idx])
                    if res:
                        return res
            return None

        solution = cover(0, [])
        assert tuple(transversals[i] for i in solution) == BASE4_DECOMPOSITION

    def test_structure_mismatch_rejected(self):
        squares = [gen_cyclic(4), gen_cyclic(8), gen_cyclic(6)]
        # a symbol- or row-permuted doubling square is no longer the XOR table,
        # and no isotope of Z_2 x Z_4 or Z_4 x Z_4 ever is
        for base in (gen_two_step_pow2(3), gen_two_step_pow2(4), gen_qstep(2, 4), gen_qstep(4, 4)):
            n = base.order
            ident, shift = tuple(range(1, n + 1)), (*range(2, n + 1), 1)
            squares += [apply_isotopy(base, Isotopy(ident, ident, shift)),
                        apply_isotopy(base, Isotopy(shift, ident, ident))]
        for sq in squares:
            with pytest.raises(StructureMismatchError):
                decompose_two_step(sq)

    def test_certificate(self):
        cert = construct_twostep_decomposition(3)
        assert cert.verdict
        assert cert.claim == "twostep-decomp"
        ok, issues = verify_certificate(cert)
        assert ok, issues


class TestThreeDominatingSets:
    def test_q1_n4_explicit_cells(self):
        cert = build_3ds_q1(4)
        assert cert.provenance == PROVENANCE_FORMULA
        assert set(cert.witness.cells) == {(1, 1), (2, 2), (3, 3), (3, 4), (4, 1)}

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_q1_sizes_and_validation(self, n):
        cert = build_3ds_q1(n)
        assert cert.verdict and cert.provenance == PROVENANCE_FORMULA
        assert len(cert.witness.cells) == n + 1
        sq = gen_cyclic(n)
        assert check_quasi_transversal(sq, cert.witness)[0]
        g = build_graph(sq)
        assert is_k_dominating(g, cert.witness.cells, 3).verdict

    def test_q1_n6_gamma_confirmed(self):
        cert = build_3ds_q1(6)
        sq = gen_cyclic(6)
        g = build_graph(sq)
        value, _ = gamma_k_exact(g, 3)
        assert value == 7
        assert len(cert.witness.cells) == value

    def test_q1_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            build_3ds_q1(5)
        with pytest.raises(ValueError):
            build_3ds_q1(2)

    @pytest.mark.parametrize("m,q", [(2, 3), (4, 3), (2, 5)])
    def test_qgen_formula_validates(self, m, q):
        cert = build_3ds_qgen(m, q)
        n = m * q
        assert cert.verdict
        assert cert.provenance == PROVENANCE_FORMULA
        assert len(cert.witness.cells) == n + 1
        sq = gen_qstep(m, q)
        assert check_quasi_transversal(sq, cert.witness)[0]

    def test_qgen_23_gamma_crosscheck(self):
        cert = build_3ds_qgen(2, 3)
        sq = gen_qstep(2, 3)
        g = build_graph(sq)
        value, _ = gamma_k_exact(g, 3)
        assert value == 7
        assert len(cert.witness.cells) == value

    def test_qgen_large_order_validator_only(self):
        cert = build_3ds_qgen(4, 9)
        assert cert.verdict
        assert len(cert.witness.cells) == 37
        sq = gen_qstep(4, 9)
        g = build_graph(sq)
        assert is_k_dominating(g, cert.witness.cells, 3).verdict


class TestDomaticPartition:
    @pytest.mark.parametrize("n,parts", [(4, 3), (6, 5), (8, 7), (10, 9), (12, 11)])
    def test_family_sizes(self, n, parts):
        cert = build_domatic_partition_cyclic(n)
        assert cert.verdict and cert.provenance == PROVENANCE_FORMULA
        family = cert.witness_list()
        assert len(family) == parts
        sizes = sorted(len(p.cells) for p in family)
        assert sizes == [n + 1] * (n - 2) + [n + 2]

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_parts_partition_and_dominate(self, n):
        cert = build_domatic_partition_cyclic(n)
        assert cert.provenance == PROVENANCE_FORMULA
        sq = gen_cyclic(n)
        g = build_graph(sq)
        seen = set()
        for part in cert.witness_list():
            assert not seen & set(part.cells)
            seen |= set(part.cells)
            assert is_k_dominating(g, part.cells, 3).verdict
        assert len(seen) == n * n

    def test_equality_note_present(self):
        cert = build_domatic_partition_cyclic(6)
        assert any("d_3 = 5" in note for note in cert.notes)

    def test_literal_formula_collides(self):
        # the printed last extra cell (1, n/2) always lands inside T_{n/2};
        # kept here as documentation of the repaired defect
        for n in (4, 6, 10):
            parts = domatic_family_cells(n)
            parts[-1] = tuple(sorted({*parts[-1]} - {(1, n)} | {(1, n // 2)}))
            flat = [c for p in parts for c in p]
            assert len(flat) != len(set(flat))
            assert (1, n // 2) in parts[n // 2 - 1]  # T-cell of S_{n/2}
            assert (1, n // 2) in parts[-1]          # literal extra of S_{n-1}

    def test_repaired_cell_is_forced(self):
        # row 1 of the T-families covers columns 1..n-1, so only (1, n)
        # can complete the partition
        n = 6
        parts = domatic_family_cells(n)
        row1 = sorted(c for p in parts for (r, c) in p if r == 1)
        assert row1 == list(range(1, n + 1))

    def test_quasi_structure_of_regular_parts(self):
        n = 6
        sq = gen_cyclic(n)
        parts = domatic_family_cells(n)
        for p in parts[:-1]:
            assert check_quasi_transversal(sq, p)[0]
        assert not check_quasi_transversal(sq, parts[-1])[0]  # size n+2


class TestTwoPlexes:
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_case1(self, n):
        cert = build_2plex_q1(n)
        assert cert.verdict and cert.provenance == PROVENANCE_FORMULA
        quasi, near, union = cert.witness_list()
        sq = gen_cyclic(n)
        assert check_quasi_transversal(sq, quasi)[0]
        assert check_near_transversal(sq, near)[0]
        assert not set(quasi.cells) & set(near.cells)
        assert check_kplex(sq, union, 2)[0]

    def test_case1_n10_complement_is_8plex(self):
        cert = build_2plex_q1(10)
        union = cert.witness_list()[2]
        comp = complement_plex(gen_cyclic(10), union)
        assert comp.k == 8
        assert check_kplex(gen_cyclic(10), comp, 8)[0]

    @pytest.mark.parametrize("q", [3, 5])
    def test_case2(self, q):
        cert = build_2plex_m2(q)
        assert cert.verdict and cert.provenance == PROVENANCE_FORMULA
        sq = gen_qstep(2, q)
        quasi, near, union = cert.witness_list()
        assert check_kplex(sq, union, 2)[0]

    def test_case2_doubled_symbol_is_n(self):
        cert = build_2plex_m2(3)
        sq = gen_qstep(2, 3)
        quasi = cert.witness_list()[0]
        _, _, doubled_symbol = quasi_profile(sq, quasi)
        assert doubled_symbol == 6

    @pytest.mark.parametrize("m,q", [(4, 3), (6, 3), (4, 5)])
    def test_case3(self, m, q):
        cert = build_2plex_general(m, q)
        assert cert.verdict and cert.provenance == PROVENANCE_FORMULA
        sq = gen_qstep(m, q)
        quasi, near, union = cert.witness_list()
        assert check_quasi_transversal(sq, quasi)[0]
        assert check_near_transversal(sq, near)[0]
        assert not set(quasi.cells) & set(near.cells)
        assert check_kplex(sq, union, 2)[0]
        assert len(union.cells) == 2 * m * q

    def test_complement_of_every_case_is_n_minus_2_plex(self):
        for cert, sq in (
            (build_2plex_q1(6), gen_cyclic(6)),
            (build_2plex_m2(3), gen_qstep(2, 3)),
            (build_2plex_general(4, 3), gen_qstep(4, 3)),
        ):
            union = cert.witness_list()[2]
            comp = complement_plex(sq, union)
            assert comp.k == sq.order - 2
            assert check_kplex(sq, comp, sq.order - 2)[0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_2plex_q1(5)
        with pytest.raises(ValueError):
            build_2plex_m2(4)
        with pytest.raises(ValueError):
            build_2plex_general(3, 3)


class TestTransforms:
    def test_quasi_from_transversal_cyclic3(self):
        # every transversal extends: any added cell doubles its own row,
        # column and symbol exactly once, so the least absent cell is added
        from conftest import corpus_up_to
        from latinplex.plexes import enumerate_transversals

        for label, sq in corpus_up_to(7):
            if sq.order < 3:
                continue
            n = sq.order
            for t in enumerate_transversals(sq, cap=n ** n).witnesses:
                quasi = quasi_from_transversal(sq, t)
                least = min(set(itertools.product(range(1, n + 1), repeat=2)) - set(t.cells))
                assert quasi.cells == tuple(sorted(t.cells + (least,))), label
                assert check_quasi_transversal(sq, quasi)[0], label

    def test_round_trip_on_cyclic4(self):
        # quasi_from_near always yields the interlocking shape, so the
        # round trip recovers the exact starting cells
        sq = gen_cyclic(4)
        start = find_near_transversal(sq)
        quasi = quasi_from_near(sq, start)
        near = near_from_quasi(sq, quasi)
        assert check_near_transversal(sq, near)[0]
        assert near.cells == start.cells
        back = quasi_from_near(sq, near)
        assert back.cells == quasi.cells

    def test_near_from_quasi_removes_doubled_symbol_pair(self):
        sq = gen_cyclic(6)
        quasi = quasi_from_near(sq, find_near_transversal(sq))
        _, _, ds = quasi_profile(sq, quasi)
        near = near_from_quasi(sq, quasi)
        removed = set(quasi.cells) - set(near.cells)
        assert len(removed) == 2
        assert all(sq.symbol(r, c) == ds for r, c in removed)

    def test_near_from_quasi_rejects_disjoint_pairs(self):
        # quasi-transversals whose doubled row, column and symbol pairs are
        # pairwise disjoint admit no two-cell deletion to a near-transversal
        from latinplex.lsgraph import induced_degrees
        from oracles import all_quasi_cellsets

        sq = gen_cyclic(5)
        bad = next(
            q
            for q in all_quasi_cellsets(sq)
            if max(induced_degrees(sq, q.cells).values()) == 1
        )
        with pytest.raises(NotConstructibleError):
            near_from_quasi(sq, bad)
        assert transversal_in_quasi(sq, bad) is None

    def test_quasi_from_near_adds_missing_symbol_twice(self):
        sq = gen_cyclic(4)
        near = find_near_transversal(sq)
        syms = {sq.symbol(r, c) for r, c in near.cells}
        missing = next(s for s in range(1, 5) if s not in syms)
        quasi = quasi_from_near(sq, near)
        added = set(quasi.cells) - set(near.cells)
        assert len(added) == 2
        assert all(sq.symbol(r, c) == missing for r, c in added)

    def test_quasi_from_near_completable_case(self):
        # in the odd cyclic square the near-transversal obtained from the
        # main diagonal minus a cell completes at the removed cell
        sq = gen_cyclic(3)
        near_cells = [(1, 1), (2, 2)]
        with pytest.raises(NotConstructibleError) as exc:
            quasi_from_near(sq, near_cells)
        assert "completable" in str(exc.value)

    def test_transversal_in_quasi_none_for_cyclic4(self):
        sq = gen_cyclic(4)
        from oracles import all_quasi_cellsets

        for quasi in all_quasi_cellsets(sq)[:25]:
            assert transversal_in_quasi(sq, quasi) is None

    def test_transversal_in_quasi_found_when_seeded(self):
        sq = gen_cyclic(5)
        t = find_kplex(sq, 1)
        quasi = quasi_from_transversal(sq, t)
        inner = transversal_in_quasi(sq, quasi)
        assert inner is not None
        assert check_transversal(sq, inner)[0]
        assert set(inner.cells) <= set(quasi.cells)

    def test_every_corpus_near_lifts_or_completes(self):
        # the missing symbol sits at unique cells of the empty row and empty
        # column; distinct cells give a quasi-transversal, a coincident cell
        # completes the near-transversal to a transversal instead
        from conftest import corpus_up_to

        for label, sq in corpus_up_to(8):
            if sq.order < 3:
                continue
            near = find_near_transversal(sq)
            if near is None:
                continue
            try:
                quasi = quasi_from_near(sq, near)
            except NotConstructibleError as exc:
                assert "completable" in str(exc)
                # the first near-transversal completes to the least transversal
                (mr,) = set(range(1, sq.order + 1)) - {r for r, _ in near.cells}
                (mc,) = set(range(1, sq.order + 1)) - {c for _, c in near.cells}
                assert tuple(sorted(near.cells + ((mr, mc),))) == find_kplex(sq, 1).cells, label
            else:
                assert check_quasi_transversal(sq, quasi)[0], label
                assert set(near.cells) <= set(quasi.cells)

    def test_transversal_in_quasi_matches_brute_force(self):
        # a contained transversal is the quasi-transversal minus one cell
        from conftest import corpus_up_to
        from oracles import brute_quasis

        def is_transversal(sq, cells):
            n = sq.order
            return len({r for r, _ in cells}) == len({c for _, c in cells}) == n == len(
                {sq.symbol(r, c) for r, c in cells})

        for label, sq in corpus_up_to(6):
            if sq.order < 3:
                continue
            for quasi in brute_quasis(sq):
                inner = [quasi[:i] + quasi[i + 1:] for i in range(len(quasi))]
                expected = next((t for t in inner if is_transversal(sq, t)), None)
                found = transversal_in_quasi(sq, quasi)
                assert (found and found.cells) == expected, (label, quasi)

    def test_quasi_from_near_refused_below_order3(self):
        sq = gen_cyclic(2)
        with pytest.raises(NotConstructibleError):
            quasi_from_near(sq, find_near_transversal(sq))

    def test_transforms_certificate(self):
        cert = build_qt_nt_transforms(gen_cyclic(4))
        assert cert.verdict
        ok, issues = verify_certificate(cert)
        assert ok, issues


def _near_meeting_quasi(obj: dict) -> None:
    """Swap a 2-plex certificate's near sub-witness for the square's first
    near-transversal, which on cyclic(6) lies inside the formula's quasi."""
    obj["witness"][1] = find_near_transversal(square_from_descriptor(obj["square"])).to_json_dict()


class TestCertificates:
    def certs(self):
        return [
            construct_twostep_decomposition(2),
            build_3ds_q1(4),
            build_3ds_qgen(2, 3),
            build_domatic_partition_cyclic(4),
            build_2plex_q1(6),
            build_2plex_m2(3),
            build_2plex_general(4, 3),
            build_qt_nt_transforms(gen_cyclic(4)),
        ]

    def test_json_round_trip_revalidates(self):
        for cert in self.certs():
            blob = json.dumps(cert.to_json_dict())
            again = WitnessCertificate.from_json_dict(json.loads(blob))
            ok, issues = verify_certificate(again)
            assert ok, (cert.claim, issues)
            assert again.to_json_dict() == cert.to_json_dict()

    def test_square_descriptor_reconstruction(self):
        cert = build_3ds_qgen(2, 3)
        assert square_from_descriptor(cert.square) == gen_qstep(2, 3)

    def test_tampered_witness_rejected(self):
        cert = build_3ds_q1(4)
        obj = cert.to_json_dict()
        obj["witness"]["cells"][0] = [2, 1]  # break the quasi structure
        tampered = WitnessCertificate.from_json_dict(obj)
        ok, issues = verify_certificate(tampered)
        assert not ok
        assert issues

    def test_verify_reuses_the_parsed_square(self, monkeypatch):
        import latinplex.constructions as cons
        cert = WitnessCertificate.from_json_dict(build_3ds_q1(8).to_json_dict())
        monkeypatch.setattr(cons, "square_from_descriptor", lambda desc: pytest.fail("rebuilt"))
        assert verify_certificate(cert) == (True, [])

    @pytest.mark.parametrize("build, change", [
        (lambda: build_3ds_qgen(2, 3), lambda sq: sq["params"].update(m=3, q=2)),
        (lambda: build_3ds_q1(8), lambda sq: sq.update(generator="twostep", params={"k": 3})),
    ], ids=["params", "generator"])
    def test_verify_sees_a_descriptor_changed_after_parsing(self, build, change):
        cert = WitnessCertificate.from_json_dict(build().to_json_dict())
        change(cert.square)
        fresh = WitnessCertificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
        assert verify_certificate(cert) == verify_certificate(fresh)
        assert not verify_certificate(cert)[0]

    def test_verify_sees_inline_rows_changed_after_parsing(self):
        # True == 1, so an equality test would miss this change
        cert = WitnessCertificate.from_json_dict(build_qt_nt_transforms(gen_cyclic(5)).to_json_dict())
        cert.square["rows"][0][0] = True
        with pytest.raises(SymbolOutOfRangeError):
            verify_certificate(cert)

    #: a valid value for every builder parameter name in the claim table
    SAMPLE_PARAMS = {"n": 6, "m": 4, "q": 3, "k": 3,
                     "square": square_descriptor("cyclic", n=6)}

    @pytest.mark.parametrize("claim", sorted(CLAIMS))
    def test_claim_rule_accepts_built_and_rejects_moved_cell(self, claim):
        _, build, names = CLAIMS[claim]
        cert = build(*(self.SAMPLE_PARAMS[p] for p in names))
        assert cert.claim == claim
        obj = json.loads(json.dumps(cert.to_json_dict()))
        assert verify_certificate(WitnessCertificate.from_json_dict(obj)) == (True, [])
        # move a cell out of a row it holds alone: a cell moved within the
        # doubled row of a quasi-transversal can leave a valid witness
        n = square_from_descriptor(obj["square"]).order
        part = obj["witness"] if isinstance(obj["witness"], dict) else obj["witness"][0]
        rows = Counter(r for r, _ in part["cells"])
        idx, (row, _) = next((i, c) for i, c in enumerate(part["cells"]) if rows[c[0]] == 1)
        taken = {tuple(c) for c in part["cells"]}
        part["cells"][idx] = next(
            [i, j] for i in range(1, n + 1) for j in range(1, n + 1)
            if i != row and (i, j) not in taken
        )
        ok, issues = verify_certificate(WitnessCertificate.from_json_dict(obj))
        assert not ok and issues

    def test_domatic_parts_must_cover_every_cell(self):
        # without the repaired cell (1, n) every part is still 3-dominating,
        # but the family no longer partitions the square
        obj = build_domatic_partition_cyclic(6).to_json_dict()
        obj["witness"][-1]["cells"].remove([1, 6])
        ok, issues = verify_certificate(WitnessCertificate.from_json_dict(obj))
        assert not ok
        assert issues == ["parts do not cover the square"]

    @pytest.mark.parametrize("build, tamper, issues", [
        pytest.param(lambda: build_3ds_q1(6), lambda obj: obj.update(witness=[obj["witness"]] * 2),
                     ["expected a single witness set"], id="3ds-two-sets"),
        pytest.param(lambda: build_2plex_q1(6), lambda obj: obj.update(witness=obj["witness"][:2]),
                     ["expected 1 or 3 witness sets, got 2"], id="2plex-two-parts"),
        pytest.param(lambda: build_2plex_q1(6), _near_meeting_quasi,
                     ["sub-witnesses intersect", "union witness differs from S union S'"],
                     id="2plex-near-meets-quasi"),
        pytest.param(lambda: build_qt_nt_transforms(gen_cyclic(4)),
                     lambda obj: obj.update(witness=obj["witness"][:2]),
                     ["expected (near, quasi, near) witnesses"], id="qt-nt-two-parts"),
        # parts that cannot partition the square are not checked for domination
        pytest.param(lambda: build_domatic_partition_cyclic(6),
                     lambda obj: obj["witness"].append({"kind": "cell-set", "cells": []}),
                     ["expected 5 parts, got 6"], id="domatic-extra-empty-part"),
    ])
    def test_shape_rejections(self, build, tamper, issues):
        obj = json.loads(json.dumps(build().to_json_dict()))
        tamper(obj)
        assert verify_certificate(WitnessCertificate.from_json_dict(obj)) == (False, issues)

    def test_kind_cardinality_mismatch_rejected(self):
        cert = build_2plex_q1(4)
        obj = cert.to_json_dict()
        del obj["witness"][0]["cells"][0]
        with pytest.raises(Exception):
            WitnessCertificate.from_json_dict(obj)


#: the certify benchmark's builds, in its order (bench/corpus.py), then the
#: transforms on cyclic(7)
GOLDEN_BUILDS = (
    [("twostep-decomp", (k,)) for k in (2, 3, 4, 5, 6)]
    + [(claim, (n,)) for n in (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)
       for claim in ("3ds-q1", "domatic-cyclic", "2plex-q1")]
    + [(claim, (m, q)) for m in (2, 4, 6, 8) for q in (3, 5, 7, 9) if m * q <= 64
       for claim in ("3ds-qgen", "2plex-gen") if claim == "3ds-qgen" or m >= 4]
    + [("2plex-m2", (q,)) for q in (3, 5, 7, 9, 11, 13, 21, 31)]
    + [("qt-nt-transforms", (square_descriptor("cyclic", n=7),))]
)


class TestCertificateBytes:
    def test_certificate_bytes_are_pinned(self):
        """The indented JSON of every build, each followed by a newline,
        hashes to the value the builders have written since they were pinned."""
        digest = hashlib.sha256()
        for claim, args in GOLDEN_BUILDS:
            cert = CLAIMS[claim][1](*args)
            digest.update(json.dumps(cert.to_json_dict(), indent=2).encode() + b"\n")
        assert len(GOLDEN_BUILDS) == 76
        assert digest.hexdigest() == (
            "77f463e72553e060e284bb8fcb35778bc0993f65201fcccf2bf84bdf078fe383")


class TestBuilderRefusals:
    @pytest.mark.parametrize("claim, args", [
        ("3ds-q1", (10 ** 6,)),
        ("3ds-qgen", (2, 10 ** 6 + 1)),
        ("domatic-cyclic", (10 ** 6,)),
        ("2plex-q1", (10 ** 6,)),
        ("2plex-m2", (10 ** 6 + 1,)),
        ("2plex-gen", (4, 10 ** 6 + 1)),
        ("twostep-decomp", (40,)),
    ])
    def test_oversized_square_refused_before_any_cell(self, claim, args):
        # the formula's cells at these orders would take minutes and gigabytes
        start = time.perf_counter()
        with pytest.raises(OrderTooLargeError, match="exceeds the input limit 1024"):
            CLAIMS[claim][1](*args)
        assert time.perf_counter() - start < 1.0
