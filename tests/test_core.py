import enum
import json
import random

import pytest

from latinplex.core import (
    Isotopy,
    LatinSquare,
    StepTypeSpec,
    apply_isotopy,
    format_ls,
    gen_cyclic,
    gen_qstep,
    gen_two_step_pow2,
    is_qstep_type,
    load_square_text,
    parse_ls,
    square_from_json_dict,
    square_to_json_dict,
    validate,
)
from latinplex.errors import (
    ColumnRepeatError,
    DimensionMismatchError,
    FormatError,
    NotAPermutationError,
    NotSquareError,
    OrderTooSmallError,
    RowRepeatError,
    SymbolOutOfRangeError,
)

from conftest import CORPUS, corpus_up_to
from oracles import three_loop_cells0


class Sym(enum.IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


def validator_outcome(fn, rows):
    """(error type, message, row/column/symbol with their types), or the cells."""
    try:
        cells = fn(rows)
    except Exception as exc:
        attrs = [(a, type(getattr(exc, a)), getattr(exc, a))
                 for a in ("row", "column", "symbol") if hasattr(exc, a)]
        return type(exc), str(exc), attrs
    return cells


class TestValidate:
    def test_order_one(self):
        assert validate([[1]]).order == 1

    def test_order_two(self):
        sq = validate([[1, 2], [2, 1]])
        assert sq.rows() == [[1, 2], [2, 1]]

    def test_column_repeat_reported(self):
        with pytest.raises(ColumnRepeatError) as exc:
            validate([[1, 2], [1, 2]])
        assert exc.value.column == 1
        assert exc.value.symbol == 1

    def test_row_repeat_reported(self):
        with pytest.raises(RowRepeatError) as exc:
            validate([[1, 1], [2, 2]])
        assert exc.value.row == 1
        assert exc.value.symbol == 1

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate([[1, 2], [2]])
        with pytest.raises(NotSquareError):
            validate([])

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRangeError):
            validate([[1, 2], [2, 3]])
        with pytest.raises(SymbolOutOfRangeError):
            validate([[0, 1], [1, 0]])

    # a set treats True == 1 == 1.0, so these must be refused entry by entry
    @pytest.mark.parametrize("rows", [
        [[True, 2], [2, 1]],
        [[1.0, 2], [2, 1]],
        [[1, None], [2, 1]],
        [[1, 2], [2, [1]]],
    ], ids=["bool", "float", "None", "unhashable"])
    def test_set_equal_entries_refused(self, rows):
        with pytest.raises(SymbolOutOfRangeError):
            validate(rows)

    def test_int_enum_entries_accepted_as_plain_ints(self):
        sq = validate([[Sym.ONE, Sym.TWO, Sym.THREE], [Sym.TWO, Sym.THREE, Sym.ONE],
                       [Sym.THREE, Sym.ONE, Sym.TWO]])
        assert sq == gen_cyclic(3)
        assert {type(x) for r in sq.cells0 for x in r} == {int}

    def test_range_defect_reported_before_an_earlier_row_repeat(self):
        with pytest.raises(SymbolOutOfRangeError, match="entry 4 outside 1..3"):
            validate([[1, 1, 3], [2, 3, 1], [3, 1, 4]])

    def test_row_repeat_reported_before_an_earlier_column_repeat(self):
        with pytest.raises(RowRepeatError) as exc:
            validate([[1, 2, 3], [1, 2, 3], [3, 1, 1]])
        assert (exc.value.row, exc.value.symbol) == (3, 1)

    def test_matches_the_three_loop_reference(self):
        # seeded grids of orders 1-5: Latin squares with a few entries
        # replaced or swapped within a row or a column, some made IntEnum
        rng = random.Random(20261020)
        odd = [True, False, 1.0, 2.5, None, "1", [1], 0, -1, 6, Sym.ONE, Sym.THREE]
        for _ in range(3000):
            n = rng.randint(1, 5)
            rows = apply_isotopy(gen_cyclic(n), Isotopy.random(n, rng)).rows()
            for _ in range(rng.randint(0, 3)):
                i, i2, j, j2 = (rng.randrange(n) for _ in range(4))
                kind = rng.randrange(4)
                if kind == 0:
                    rows[i][j] = rng.randint(1, n)
                elif kind == 1:
                    rows[i][j] = rng.choice(odd)
                elif kind == 2:
                    rows[i][j], rows[i][j2] = rows[i][j2], rows[i][j]
                else:
                    rows[i][j], rows[i2][j] = rows[i2][j], rows[i][j]
            if rng.random() < 0.2:
                rows = [[Sym(x) if type(x) is int and 1 <= x <= 3 else x for x in r]
                        for r in rows]
            got = validator_outcome(lambda g: LatinSquare(g).cells0, rows)
            assert got == validator_outcome(three_loop_cells0, rows), rows

    def test_idempotent_on_accepted(self):
        for _, sq in corpus_up_to(6):
            again = validate(sq.rows())
            assert again == sq


class TestGenerators:
    def test_cyclic_3(self):
        assert gen_cyclic(3).rows() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]

    def test_cyclic_1(self):
        assert gen_cyclic(1).rows() == [[1]]

    def test_cyclic_4(self):
        assert gen_cyclic(4).rows() == [
            [1, 2, 3, 4],
            [2, 3, 4, 1],
            [3, 4, 1, 2],
            [4, 1, 2, 3],
        ]

    def test_qstep_single_block_is_cyclic(self):
        assert gen_qstep(1, 3) == gen_cyclic(3)

    def test_qstep_unit_blocks_is_cyclic(self):
        assert gen_qstep(4, 1) == gen_cyclic(4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cyclic_equals_degenerate_qsteps(self, n):
        assert gen_cyclic(n) == gen_qstep(1, n) == gen_qstep(n, 1)

    def test_qstep_2_3_block_symbol_sets(self):
        # checkerboard of {1,2,3} and {4,5,6} over the four 3x3 blocks
        sq = gen_qstep(2, 3)
        low, high = {1, 2, 3}, {4, 5, 6}
        for bi in range(2):
            for bj in range(2):
                block = {
                    sq.symbol(bi * 3 + s, bj * 3 + t)
                    for s in range(1, 4)
                    for t in range(1, 4)
                }
                assert block == (low if (bi + bj) % 2 == 0 else high)

    def test_twostep_base(self):
        assert gen_two_step_pow2(2).rows() == [
            [1, 2, 3, 4],
            [2, 1, 4, 3],
            [3, 4, 1, 2],
            [4, 3, 2, 1],
        ]

    def test_twostep_base_top_left_block(self):
        sq = gen_two_step_pow2(2)
        assert [[sq.symbol(1, 1), sq.symbol(1, 2)], [sq.symbol(2, 1), sq.symbol(2, 2)]] == [
            [1, 2],
            [2, 1],
        ]

    def test_twostep_order8_quadrants(self):
        # orders 8 to 64: each doubling step maps A to [[A, A + h], [A + h, A]]
        for k in range(3, 7):
            h = 1 << (k - 1)
            rows = gen_two_step_pow2(k).rows()
            a = [r[:h] for r in rows[:h]]
            assert a == gen_two_step_pow2(k - 1).rows()
            sigma = [[x + h for x in r] for r in a]
            assert [r[h:] for r in rows[:h]] == sigma
            assert [r[:h] for r in rows[h:]] == sigma
            assert [r[h:] for r in rows[h:]] == a

    @pytest.mark.parametrize("k", range(2, 11))
    def test_twostep_is_the_xor_table(self, k):
        # decompose_two_step recognizes the doubling square by this identity
        n = 1 << k
        assert gen_two_step_pow2(k).cells0 == tuple(
            tuple(i ^ j for j in range(n)) for i in range(n))

    def test_cyclic_is_the_sum_table(self):
        for n in range(1, 65):
            assert gen_cyclic(n).cells0 == tuple(
                tuple((i + j) % n for j in range(n)) for i in range(n)), n

    def test_qstep_is_the_block_sum_table(self):
        # the interval relabelling of Z_m x Z_q: block class (i//q + j//q) mod m,
        # offset (i + j) mod q inside it
        for m in range(1, 65):
            for q in range(1, 64 // m + 1):
                assert gen_qstep(m, q).cells0 == tuple(
                    tuple(((i // q + j // q) % m) * q + (i + j) % q for j in range(m * q))
                    for i in range(m * q)), (m, q)

    def test_twostep_too_small(self):
        with pytest.raises(OrderTooSmallError):
            gen_two_step_pow2(1)

    def test_generators_validate(self):
        # constructor re-checks the Latin property for every generator
        for _, sq in CORPUS:
            assert validate(sq.rows()) == sq


class TestStepType:
    def test_cyclic_is_one_step(self):
        ok, why = is_qstep_type(gen_cyclic(6), StepTypeSpec(6, 1))
        assert ok, why

    def test_generator_contract(self):
        ok, why = is_qstep_type(gen_qstep(2, 3), StepTypeSpec(2, 3))
        assert ok, why

    def test_cyclic4_not_two_step(self):
        ok, why = is_qstep_type(gen_cyclic(4), StepTypeSpec(2, 2))
        assert not ok
        assert "block" in why

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_qstep_type(gen_cyclic(4), StepTypeSpec(2, 3))

    @pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (3, 2), (4, 3), (2, 5)])
    def test_qstep_generator_always_passes(self, m, q):
        ok, why = is_qstep_type(gen_qstep(m, q), StepTypeSpec(m, q))
        assert ok, why

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_twostep_is_halforder_step_type(self, k):
        sq = gen_two_step_pow2(k)
        ok, why = is_qstep_type(sq, StepTypeSpec(2, 2 ** (k - 1)))
        assert ok, why

    def test_twostep_base_is_two_step(self):
        ok, why = is_qstep_type(gen_two_step_pow2(2), StepTypeSpec(2, 2))
        assert ok, why

    @pytest.mark.parametrize("k", [3, 4])
    def test_doubling_is_not_strictly_two_step_above_order_4(self, k):
        # the doubled squares repeat 2-symbol block sets across distinct
        # (i+j) mod m classes, so the strict block condition fails; they
        # are half-order-step type instead (previous test)
        sq = gen_two_step_pow2(k)
        ok, why = is_qstep_type(sq, StepTypeSpec(2 ** (k - 1), 2))
        assert not ok
        assert "class" in why


class TestIsotopy:
    def test_identity(self):
        sq = gen_cyclic(5)
        assert apply_isotopy(sq, Isotopy.identity(5)) == sq

    def test_symbol_shift_still_latin(self):
        sq = gen_cyclic(4)
        h = tuple(((i + 2 - 1) % 4) + 1 for i in range(1, 5))
        ident = tuple(range(1, 5))
        out = apply_isotopy(sq, Isotopy(ident, ident, h))
        assert validate(out.rows()) == out

    def test_row_swap(self):
        sq = validate([[1, 2], [2, 1]])
        out = apply_isotopy(sq, Isotopy((2, 1), (1, 2), (1, 2)))
        assert out.rows() == [[2, 1], [1, 2]]

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutationError):
            Isotopy((1, 1), (1, 2), (1, 2))

    def test_order_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_isotopy(gen_cyclic(3), Isotopy.identity(4))

    def test_image_by_definition(self):
        # M[f(i)][g(j)] = h(L[i][j]) for every cell
        rng = random.Random(7)
        for _, sq in corpus_up_to(8):
            n = sq.order
            iso = Isotopy.random(n, rng)
            out = apply_isotopy(sq, iso)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert out.symbol(iso.f[i - 1], iso.g[j - 1]) == iso.h[sq.symbol(i, j) - 1]

    def test_random_isotopies_preserve_latin(self):
        rng = random.Random(0)
        for n in range(3, 9):
            base = gen_cyclic(n)
            for _ in range(100):
                out = apply_isotopy(base, Isotopy.random(n, rng))
                assert validate(out.rows()) == out


class TestSerialization:
    def test_ls_round_trip(self):
        for _, sq in corpus_up_to(8):
            assert parse_ls(format_ls(sq)) == sq

    def test_ls_format_shape(self):
        text = format_ls(gen_cyclic(5))
        lines = text.strip().split("\n")
        assert lines[0] == "5"
        assert len(lines) == 6

    def test_trailing_garbage_rejected(self):
        text = format_ls(gen_cyclic(3)) + "stray\n"
        with pytest.raises(FormatError):
            parse_ls(text)

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_ls("x\n1\n")

    @pytest.mark.parametrize("token", ["1.5", "x"])
    def test_non_integer_token(self, token):
        with pytest.raises(FormatError, match="row 2 contains a non-integer token"):
            parse_ls(f"2\n1 2\n{token} 1\n")

    def test_missing_rows(self):
        with pytest.raises(FormatError):
            parse_ls("3\n1 2 3\n")

    def test_json_round_trip(self):
        sq = gen_qstep(2, 3)
        obj = json.loads(json.dumps(square_to_json_dict(sq)))
        assert square_from_json_dict(obj) == sq

    def test_json_order_mismatch(self):
        with pytest.raises(FormatError):
            square_from_json_dict({"order": 3, "rows": [[1, 2], [2, 1]]})

    @pytest.mark.parametrize("order", [True, "1", 1.0], ids=["bool", "string", "float"])
    def test_json_order_must_be_an_integer(self, order):
        # True == 1 and 1.0 == 1, and "1" printed as 1 in the mismatch message
        with pytest.raises(FormatError, match=f"order must be a JSON integer, got {order!r}"):
            square_from_json_dict({"order": order, "rows": [[1]]})

    def test_load_sniffs_format(self):
        sq = gen_cyclic(4)
        assert load_square_text(format_ls(sq)) == sq
        assert load_square_text(json.dumps(square_to_json_dict(sq))) == sq
