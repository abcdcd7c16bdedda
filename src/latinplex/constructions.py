"""Executable constructions: explicit witness formulas with validated output.

Every builder evaluates its index formula (row/column indices reduced mod n
into 1..n) into the CellSets its certificate ships, and runs its claim's rule
on them: it returns the certificate only when the rule passes and raises
ValidationFailureError otherwise.  No builder searches; the transforms of
qt-nt-transforms start from the first near-transversal the exhaustive search
finds.  verify_certificate runs the same rule (see CLAIMS) on the same
CellSets, parsed back from the certificate.

Known defect handled here: the cyclic domatic family S_j pins its last
extra cell at (1, n/2), which always collides with the T-family of
j = n/2; the unique cell completing the partition is (1, n) and is used
instead, with the discrepancy recorded on the certificate.
"""

from __future__ import annotations

from .core import (
    GENERATORS,
    Frozen,
    LatinSquare,
    square_descriptor,
    square_from_descriptor,
)
from .errors import (
    FormatError,
    InvalidCellSetError,
    NoWitnessFoundError,
    NotConstructibleError,
    StructureMismatchError,
    ValidationFailureError,
    short_repr,
)
from .cellsets import (
    KIND_CELLS, KIND_KPLEX, KIND_NEAR, KIND_QUASI, KIND_TRANSVERSAL, CellSet, _line_counts,
    _line_issue, _profiled_quasi, check_kplex, check_near_transversal, check_quasi_transversal,
    check_transversal,
)
from .lsgraph import _deficiencies, _overlaps, build_graph, domatic_upper_bound

#: plain (row, column) cells, 1-based
Cells = tuple[tuple[int, int], ...]

PROVENANCE_FORMULA = "paper-formula"


class WitnessCertificate(Frozen):
    """A claim, its witness cells, where they came from, and the verdict.

    Certificates are self-contained: the square descriptor is either a
    generator spec or inline rows, so re-validation needs nothing beyond
    the serialized form.
    """

    claim: str
    square: dict
    witness: CellSet | tuple[CellSet, ...]
    provenance: str
    verdict: bool
    notes: tuple[str, ...] = ()
    #: (repr of the square descriptor, the square from_json_dict built from it)
    _parsed: tuple[str, LatinSquare] | None = None

    def witness_list(self) -> tuple[CellSet, ...]:
        if isinstance(self.witness, CellSet):
            return (self.witness,)
        return tuple(self.witness)

    def to_json_dict(self) -> dict:
        wit = [w.to_json_dict() for w in self.witness_list()]
        return {
            "claim": self.claim,
            "square": self.square,
            "provenance": self.provenance,
            "witness": wit[0] if isinstance(self.witness, CellSet) else wit,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WitnessCertificate":
        """Parse a certificate; a missing key or a wrong type is a FormatError."""
        try:
            sq = square_from_descriptor(obj["square"])
            n = sq.order
            raw = obj["witness"]
            if isinstance(raw, dict):
                wit: CellSet | tuple[CellSet, ...] = CellSet.from_json_dict(n, raw)
            else:
                wit = tuple(CellSet.from_json_dict(n, w) for w in raw)
            if not isinstance(obj["verdict"], bool):
                raise TypeError(f"verdict must be a JSON boolean, got {short_repr(obj['verdict'])}")
            cert = cls(obj["claim"], obj["square"], wit, obj["provenance"], obj["verdict"],
                       tuple(obj.get("notes", ())))
        except (KeyError, TypeError, AttributeError, ValueError, FormatError) as exc:
            raise FormatError(f"malformed certificate: {type(exc).__name__}: {exc}") from None
        object.__setattr__(cert, "_parsed", (repr(cert.square), sq))
        return cert


def _wrap(x: int, n: int) -> int:
    return ((x - 1) % n) + 1


def _wrap_cells(cells, n: int) -> Cells:
    return tuple((_wrap(r, n), _wrap(c, n)) for r, c in cells)


def _certificate(claim: str, square: LatinSquare, desc: dict,
                 witness: CellSet | tuple[CellSet, ...], notes: tuple[str, ...] = ()
                 ) -> WitnessCertificate:
    """The certificate of `claim` on `square` (described by `desc`) with this
    witness, once the claim's rule passes on its witness_list(), the call
    verify_certificate makes; a failing rule raises ValidationFailureError."""
    cert = WitnessCertificate(claim, desc, witness, PROVENANCE_FORMULA, True, notes)
    rule, _, _ = CLAIMS[claim]
    issues = rule(square, cert.witness_list())
    if issues:
        raise ValidationFailureError(f"{claim}: formula fails the claim's rule: {issues[0]}")
    return cert


def _formula_certificate(claim: str, desc: dict, formula, notes=lambda n: ()
                         ) -> WitnessCertificate:
    """Certify `claim` on the square of `desc`, built as verify_certificate
    builds it and refused above MAX_INPUT_ORDER before a cell is made, with
    the witness CellSets `formula(n)` returns and the notes `notes(n)`, n the
    square's order.  A cell the CellSets refuse fails the rule too."""
    square = square_from_descriptor(desc)
    n = square.order
    try:
        witness = formula(n)
    except InvalidCellSetError as exc:
        raise ValidationFailureError(f"{claim}: formula fails the claim's rule: {exc}") from None
    return _certificate(claim, square, desc, witness, notes(n))


# ---------------------------------------------------------------------------
# doubling decomposition into disjoint transversals

#: the order-4 base decomposition (column of each row, 0-based), found once
#: by exhaustive search over the elementary abelian table; the derivation is
#: re-run in the test suite.
BASE4_DECOMPOSITION = ((0, 2, 3, 1), (1, 3, 2, 0), (2, 0, 1, 3), (3, 1, 0, 2))


def _decompose_perms(n: int) -> list[tuple[int, ...]]:
    """Disjoint transversals of the order-n doubling square, as column-permutations.

    Each transversal T of the half square lifts to the pair
    T1 = T'_11 + T''_22 + X''_12 + X'_21 and T2 with the roles swapped,
    where X row-swaps the halves of T so the column sets complement.
    """
    if n == 4:
        return [list(p) for p in BASE4_DECOMPOSITION]
    h = n // 2
    out = []
    for t in _decompose_perms(h):
        x = [0] * h
        for r in range(h):
            x[(r + h // 2) % h] = t[r]
        t1 = [0] * n
        t2 = [0] * n
        for r in range(h):
            in_top = r < h // 2
            # T in quadrant 11 and (shifted) 22; X in quadrants 12 and 21
            if in_top:
                t1[r] = t[r]            # T'_11
                t2[r] = x[r] + h        # X'_12
                t1[r + h] = x[r]        # X'_21
                t2[r + h] = t[r] + h    # T'_22
            else:
                t1[r] = x[r] + h        # X''_12
                t2[r] = t[r]            # T''_11
                t1[r + h] = t[r] + h    # T''_22
                t2[r + h] = x[r]        # X''_21
        out.append(t1)
        out.append(t2)
    return out


def _two_step_parts(n: int) -> tuple[CellSet, ...]:
    """The n disjoint transversals of the order-n doubling square."""
    return tuple(CellSet(n, tuple((r, c + 1) for r, c in enumerate(p, 1)), KIND_TRANSVERSAL)
                 for p in _decompose_perms(n))


def decompose_two_step(square: LatinSquare) -> tuple[CellSet, ...]:
    """Full decomposition of a doubling-family square into n disjoint transversals.

    The doubling square of order 2^k is the table of Z_2^k, cell (i, j)
    holding symbol i XOR j, all 0-based; any other square raises
    StructureMismatchError.
    """
    n = square.order
    if n < 4 or n & (n - 1):
        raise StructureMismatchError(f"order {n} is not a power of two >= 4")
    if any(s != i ^ j for i, row in enumerate(square.cells0) for j, s in enumerate(row)):
        raise StructureMismatchError(f"square is not the doubling square of order {n}")
    return _two_step_parts(n)


def construct_twostep_decomposition(k: int) -> WitnessCertificate:
    return _formula_certificate(
        "twostep-decomp", square_descriptor("twostep", k=k), _two_step_parts,
        lambda n: (f"tau = {n} disjoint transversals of order {n}",))


# ---------------------------------------------------------------------------
# 3-dominating sets of size n+1


def _qstep_block_cells(m: int, q: int) -> list[tuple[int, int]]:
    """The block-diagonal cells that open both q-step witnesses S (the
    3-dominating set and the 2-plex quasi-transversal), before wrapping."""
    h = m * q // 2
    cells = []
    for j in range(m // 2):
        for i in range((q - 1) // 2 + 1):
            cells.append((q * j + 2 * i + 1, q * j + 2 * i + 1))
    for j in range(m // 2 - 1):
        for i in range((q - 1) // 2 + 1):
            cells.append((q * j + 2 * i + 1 + h, q * (j + 1) + 2 * i + 1 + h))
    for j in range(m // 2 - 1):
        for i in range((q - 3) // 2 + 1):
            cells.append((q * j + 2 * i + 2, q * (j + 1) + 2 * i + 2))
    for j in range(m // 2):
        for i in range((q - 3) // 2 + 1):
            cells.append((q * j + 2 * i + 2 + h, q * j + 2 * i + 2 + h))
    for i in range((q - 3) // 2 + 1):
        cells.append((2 * i + 2 - q + h, 2 * i + 1 + h))
    return cells


def _case2_cells(m: int, q: int) -> tuple[tuple[int, int], ...]:
    n = m * q
    h = n // 2
    cells = _qstep_block_cells(m, q)
    for i in range((q - 5) // 2 + 1):
        cells.append((2 * i + 1 - q + n, 2 * i + 4))
    cells += [(h - 1, h + q), (n - 2, 2), (n, 1)]
    return _wrap_cells(cells, n)


def build_3ds_q1(n: int) -> WitnessCertificate:
    """Size-(n+1) 3-dominating set of the cyclic square, n even >= 4.

    The diagonal/offset-diagonal cell family; validated both as a
    quasi-transversal and as a 3-dominating set.
    """
    if n < 4 or n % 2:
        raise ValueError(f"construction needs even n >= 4, got {n}")
    return _formula_certificate(
        "3ds-q1", square_descriptor("cyclic", n=n),
        lambda n: CellSet(n, _rodney1_cells(n)[0], KIND_QUASI))


def build_3ds_qgen(m: int, q: int) -> WitnessCertificate:
    """Size-(n+1) 3DS for the canonical q-step square, m even, q odd >= 3."""
    if m < 2 or m % 2 or q < 3 or q % 2 == 0:
        raise ValueError(f"construction needs even m >= 2 and odd q >= 3, got ({m},{q})")
    return _formula_certificate(
        "3ds-qgen", square_descriptor("qstep", m=m, q=q),
        lambda n: CellSet(n, _case2_cells(m, q), KIND_QUASI))


# ---------------------------------------------------------------------------
# cyclic domatic family


def domatic_family_cells(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The n-1 sets S_j for the cyclic square of even order n.

    T_j pairs the offset-(j-1) diagonal of the top half of the rows with
    the offset-j diagonal of the bottom half; each S_j adds one cell (two
    for the last).  The printed last extra cell (1, n/2) collides with
    T_{n/2}; it is replaced with (1, n), the unique cell completing the
    partition of all n^2 cells.
    """
    parts = []
    for j in range(1, n):
        tj = [(i, i + j - 1) for i in range(1, n // 2 + 1)]
        tj += [(i + n // 2, i + n // 2 + j) for i in range(1, n // 2 + 1)]
        if j <= n // 2:
            extra = [(j + n // 2, j + n // 2)]
        elif j < n - 1:
            extra = [(j + n // 2 + 1, j + n // 2)]
        else:
            extra = [(n // 2, n // 2 - 1), (1, n)]
        parts.append(_wrap_cells(tj + extra, n))
    return parts


def build_domatic_partition_cyclic(n: int) -> WitnessCertificate:
    """n-1 pairwise-disjoint 3-dominating sets of the cyclic square, n even.

    Combined with d_3 <= n^2/gamma_3 = n^2/(n+1) this closes
    d_3 = floor(n^2/(n+1)) = n-1.
    """
    if n < 4 or n % 2:
        raise ValueError(f"construction needs even n >= 4, got {n}")
    return _formula_certificate(
        "domatic-cyclic", square_descriptor("cyclic", n=n),
        lambda n: tuple(CellSet(n, p, KIND_CELLS) for p in domatic_family_cells(n)),
        lambda n: (
            "printed extra cell (1, n/2) of the last part collides with the j=n/2 part; "
            "using (1, n), the unique cell completing the partition",
            f"d_3 >= {n - 1} from the family; d_3 <= floor({n * n}/{n + 1}) = "
            f"{domatic_upper_bound(n, n + 1)}; hence d_3 = {n - 1}",
        ))


# ---------------------------------------------------------------------------
# 2-plex constructions (quasi-transversal + disjoint near-transversal)


def _rodney1_cells(n: int):
    h = n // 2
    s = [(i, i) for i in range(1, h + 1)]
    s += [(i, i + 1) for i in range(h + 1, n + 1)]
    s += [(h + 1, h + 1)]
    sp = [(i, i + 1) for i in range(1, h + 1)]
    sp += [(i, i) for i in range(h + 2, n + 1)]
    return _wrap_cells(s, n), _wrap_cells(sp, n)


def _rodney2_cells(q: int):
    n = 2 * q
    h = n // 2
    s = [(2 * i + 1, 2 * i + 1) for i in range(q)]
    s += [(2 * i + 2, 2 * i + 3 + h) for i in range((q - 3) // 2 + 1)]
    s += [(2 * i + 1 + h, 2 * i + 2) for i in range((q - 3) // 2 + 1)]
    s += [(h, h + 1), (n, 1)]
    sp = [(2 * i + 2, 2 * i + 2) for i in range(q)]
    sp += [(2 * i + 1, 2 * i + 2 + h) for i in range((q - 3) // 2 + 1)]
    sp += [(2 * i + 2 + h, 2 * i + 3) for i in range((q - 3) // 2 + 1)]
    return _wrap_cells(s, n), _wrap_cells(sp, n)


def _rodney3_cells(m: int, q: int):
    n = m * q
    h = n // 2
    s = _qstep_block_cells(m, q)
    for i in range((q - 3) // 2 + 1):
        s.append((n - 2 * i, q - (2 * i + 1)))
    s += [(h + 1 - q, h + q), (n - q + 1, q)]
    sp = []
    for j in range(m // 2):
        for i in range((q - 3) // 2 + 1):
            sp.append((q * j + 2 * i + 2, q * j + 2 * i + 2))
    for j in range(m // 2):
        for i in range((q - 1) // 2 + 1):
            sp.append((q * j + 2 * i + 1 + h, q * j + 2 * i + 1 + h))
    for j in range(m // 2 - 1):
        for i in range((q - 1) // 2 + 1):
            sp.append((q * j + 2 * i + 1, q * (j + 1) + 2 * i + 1))
    for j in range(m // 2 - 1):
        for i in range((q - 3) // 2 + 1):
            sp.append((q * j + 2 * i + 2 + h, q * (j + 1) + 2 * i + 2 + h))
    for i in range((q - 3) // 2 + 1):
        sp.append((2 * i + 3 - q + h, 2 * i + 2 + h))
    for i in range((q - 3) // 2 + 1):
        sp.append((n - (2 * i + 1), q - (2 * i + 2)))
    return _wrap_cells(s, n), _wrap_cells(sp, n)


def _two_plex(n: int, s: Cells, sp: Cells) -> tuple[CellSet, CellSet, CellSet]:
    """(quasi S, near S', their union): the 2-plex claims' witness."""
    return (CellSet(n, s, KIND_QUASI), CellSet(n, sp, KIND_NEAR),
            CellSet(n, {*s, *sp}, KIND_KPLEX, 2))


def build_2plex_q1(n: int) -> WitnessCertificate:
    """2-plex of the cyclic square, n even >= 4, as quasi + disjoint near."""
    if n < 4 or n % 2:
        raise ValueError(f"construction needs even n >= 4, got {n}")
    return _formula_certificate(
        "2plex-q1", square_descriptor("cyclic", n=n), lambda n: _two_plex(n, *_rodney1_cells(n)))


def build_2plex_m2(q: int) -> WitnessCertificate:
    """2-plex of the canonical 2-block-row q-step square, q odd >= 3."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"construction needs odd q >= 3, got {q}")
    return _formula_certificate(
        "2plex-m2", square_descriptor("qstep", m=2, q=q),
        lambda n: _two_plex(n, *_rodney2_cells(q)))


def build_2plex_general(m: int, q: int) -> WitnessCertificate:
    """2-plex of the canonical q-step square, m even >= 4, q odd >= 3."""
    if m < 4 or m % 2 or q < 3 or q % 2 == 0:
        raise ValueError(f"construction needs even m >= 4 and odd q >= 3, got ({m},{q})")
    return _formula_certificate(
        "2plex-gen", square_descriptor("qstep", m=m, q=q),
        lambda n: _two_plex(n, *_rodney3_cells(m, q)))


# ---------------------------------------------------------------------------
# transversal / quasi / near transforms


def quasi_from_transversal(square: LatinSquare, transversal) -> CellSet:
    """Add the lexicographically least absent cell: any extra cell doubles
    its row, column and symbol exactly once, so the least one is taken.
    That cell is (1, 1), or (1, 2) when the transversal holds (1, 1)."""
    n = square.order
    if n < 3:
        raise NotConstructibleError("no extension cell yields a quasi-transversal: "
                                    "quasi-transversal is vacuous below order 3")
    cells, _, why = _line_issue(square, transversal, n, 1)
    if why:
        raise NotConstructibleError(f"input is not a transversal: {why}")
    extra = (1, 2) if (1, 1) in cells else (1, 1)
    quasi = CellSet(n, cells + (extra,), KIND_QUASI)
    ok, why = check_quasi_transversal(square, quasi)
    if not ok:
        raise NotConstructibleError(f"no extension cell yields a quasi-transversal: {why}")
    return quasi


def near_from_quasi(square: LatinSquare, quasi) -> CellSet:
    """Drop both cells of the doubled symbol, leaving a near-transversal.

    This works exactly when the doubled-symbol pair interlocks with the
    doubled row and the doubled column (one pair cell in each), which is
    the shape quasi_from_near always produces.  Quasi-transversals whose
    three doubled pairs are pairwise disjoint also exist; for those no
    two-cell deletion yields a near-transversal and the operation reports
    NotConstructible with a diagnosis.
    """
    n = square.order
    cells, (_, _, ds) = _profiled_quasi(square, quasi)
    grid = square.cells0
    near = CellSet(n, [c for c in cells if grid[c[0] - 1][c[1] - 1] + 1 != ds], KIND_NEAR)
    ok, why = check_near_transversal(square, near)
    if not ok:
        raise NotConstructibleError(
            f"doubled-symbol pair does not meet the doubled row/column: {why}"
        )
    return near


def _missing_parts(counts) -> tuple[int, int, int]:
    """(missing row, missing column, missing symbol) of a near-transversal's _line_counts."""
    return tuple(cnt.index(0, 1) for cnt in counts)


def quasi_from_near(square: LatinSquare, near) -> CellSet:
    """Add the missing symbol twice: once in the empty row, once in the
    empty column.  Those cells are unique by the Latin property; if they
    coincide the near-transversal completes to a transversal instead."""
    n = square.order
    if n < 3:
        raise NotConstructibleError("quasi-transversal is vacuous below order 3")
    cells, counts, why = _line_issue(square, near, n - 1, 1)
    if why:
        raise NotConstructibleError(f"input is not a near-transversal: {why}")
    mr, mc, ms = _missing_parts(counts)
    grid = square.cells0
    row_cell = (mr, next(j for j in range(1, n + 1) if grid[mr - 1][j - 1] + 1 == ms))
    col_cell = (next(i for i in range(1, n + 1) if grid[i - 1][mc - 1] + 1 == ms), mc)
    if row_cell == col_cell:
        raise NotConstructibleError(
            f"near-transversal is completable at this cell {row_cell}; "
            "adding it once yields a transversal, not a quasi-transversal"
        )
    quasi = CellSet(n, cells + (row_cell, col_cell), KIND_QUASI)
    ok, why = check_quasi_transversal(square, quasi)
    if not ok:
        raise ValidationFailureError(f"extension failed the quasi checker: {why}")
    return quasi


def transversal_in_quasi(square: LatinSquare, quasi) -> CellSet | None:
    """Transversal contained in the quasi-transversal, when one exists.

    A transversal inside an (n+1)-cell quasi-transversal means one removed
    cell undoes all three doublings, so that cell sits in the doubled row
    and column and carries the doubled symbol.  The quasi-transversal minus
    that cell is the transversal; without such a cell there is none.
    """
    n = square.order
    cells, (dr, dc, ds) = _profiled_quasi(square, quasi)
    if (dr, dc) not in cells or square.symbol(dr, dc) != ds:
        return None
    kept = CellSet(n, [c for c in cells if c != (dr, dc)], KIND_TRANSVERSAL)
    ok, why = check_transversal(square, kept)
    if not ok:
        raise ValidationFailureError(f"quasi minus {(dr, dc)} failed the transversal checker: {why}")
    return kept


def build_qt_nt_transforms(square: LatinSquare, desc: dict | None = None) -> WitnessCertificate:
    """Round-trip certificate: near -> quasi -> near recovers the start.

    Quasi-transversals exist from order 3 on; smaller squares raise
    ValueError, and orders above 16 are refused by the near search.
    """
    if square.order < 3:
        raise ValueError(f"qt-nt-transforms needs order >= 3, got {square.order}")
    if desc is None:
        desc = {"rows": square.rows()}
    from .plexes import find_near_transversal

    near = find_near_transversal(square)
    if near is None:
        raise NoWitnessFoundError("square has no near-transversal to transform")
    notes = []
    try:
        quasi = quasi_from_near(square, near)
    except NotConstructibleError:
        # completable near: seed the quasi from its completion, a transversal
        mr, mc, _ = _missing_parts(_line_counts(square, near))
        quasi = quasi_from_transversal(square, near.cells + ((mr, mc),))
        notes.append("first near-transversal was completable; quasi seeded from a transversal")
        near = near_from_quasi(square, quasi)
    back = near_from_quasi(square, quasi)
    return _certificate("qt-nt-transforms", square, desc, (near, quasi, back), tuple(notes))


# ---------------------------------------------------------------------------
# claim rules: what a certificate of each claim must show of its witness
# CellSets.  A builder ships them only if the rule passes (_certificate), and
# verify_certificate re-runs the same rule on the parsed CellSets.


def _failed(label: str, result: tuple[bool, str | None]) -> list[str]:
    ok, why = result
    return [] if ok else [f"{label}: {why}"]


def _not_3_dominating(graph, label: str, cells: CellSet) -> list[str]:
    try:  # a repeated or out-of-range cell is an issue the rule reports, not an error
        cs = CellSet(graph.n, cells, KIND_CELLS).cells
    except InvalidCellSetError as exc:
        return [f"{label}: {exc}"]
    first = next(_deficiencies(graph, cs, 3), None)
    return [f"{label} not 3-dominating at {(first,)}"] if first else []


def _twostep_issues(square: LatinSquare, parts: tuple[CellSet, ...]) -> list[str]:
    """n transversals partitioning the cells."""
    n = square.order
    issues = [] if len(parts) == n else [f"expected {n} transversals, got {len(parts)}"]
    for idx, cells in enumerate(parts):
        issues += _failed(f"part {idx + 1}", check_transversal(square, cells))
    overlaps, held = _overlaps(parts)
    return issues + overlaps + ([] if held == n * n else ["parts do not cover the square"])


def _domatic_issues(square: LatinSquare, parts: tuple[CellSet, ...]) -> list[str]:
    """n-1 3-dominating sets partitioning the cells; domination is checked
    only on n-1 parts that partition the cells, each part's scan stopping
    at its first deficiency."""
    n = square.order
    issues = [] if len(parts) == n - 1 else [f"expected {n - 1} parts, got {len(parts)}"]
    overlaps, held = _overlaps(parts)
    issues += overlaps + ([] if held == n * n else ["parts do not cover the square"])
    if issues:
        return issues
    graph = build_graph(square)
    for idx, cells in enumerate(parts):
        issues += _not_3_dominating(graph, f"part {idx + 1}", cells)
    return issues


def _3ds_issues(square: LatinSquare, parts: tuple[CellSet, ...]) -> list[str]:
    """One set of n+1 cells that is a quasi-transversal and 3-dominating."""
    if len(parts) != 1:
        return ["expected a single witness set"]
    (cells,) = parts  # the quasi check reports a wrong size
    return (_failed("quasi check", check_quasi_transversal(square, cells))
            + _not_3_dominating(build_graph(square), "set", cells))


def _two_plex_issues(square: LatinSquare, parts: tuple[CellSet, ...]) -> list[str]:
    """A 2-plex, either bare or as (quasi S, disjoint near S', S union S')."""
    if len(parts) not in (1, 3):
        return [f"expected 1 or 3 witness sets, got {len(parts)}"]
    issues = []
    if len(parts) == 3:
        quasi, near, union = parts
        issues += _failed("quasi sub-witness", check_quasi_transversal(square, quasi))
        issues += _failed("near sub-witness", check_near_transversal(square, near))
        if set(quasi) & set(near):
            issues.append("sub-witnesses intersect")
        if set(union) != set(quasi) | set(near):
            issues.append("union witness differs from S union S'")
    return issues + _failed("2-plex check", check_kplex(square, parts[-1], 2))


def _qt_nt_issues(square: LatinSquare, parts: tuple[CellSet, ...]) -> list[str]:
    """(near, quasi, near): the quasi extends the near, and the round trip
    back to a near-transversal recovers the first one."""
    if len(parts) != 3:
        return ["expected (near, quasi, near) witnesses"]
    near, quasi, back = parts
    issues = _failed("near", check_near_transversal(square, near))
    issues += _failed("quasi", check_quasi_transversal(square, quasi))
    issues += _failed("recovered near", check_near_transversal(square, back))
    if not set(near) <= set(quasi):
        issues.append("near is not contained in quasi")
    if set(back) != set(near):
        issues.append("round trip does not recover the near-transversal")
    return issues


def _qt_nt_on_descriptor(desc: dict) -> WitnessCertificate:
    return build_qt_nt_transforms(square_from_descriptor(desc), desc)


#: claim name -> (rule(square, parts) -> issues, builder, the builder's
#: parameter names in call order; "square" is a square descriptor)
CLAIMS = {
    "twostep-decomp": (_twostep_issues, construct_twostep_decomposition, ("k",)),
    "3ds-q1": (_3ds_issues, build_3ds_q1, ("n",)),
    "3ds-qgen": (_3ds_issues, build_3ds_qgen, ("m", "q")),
    "domatic-cyclic": (_domatic_issues, build_domatic_partition_cyclic, ("n",)),
    "2plex-q1": (_two_plex_issues, build_2plex_q1, ("n",)),
    "2plex-m2": (_two_plex_issues, build_2plex_m2, ("q",)),
    "2plex-gen": (_two_plex_issues, build_2plex_general, ("m", "q")),
    "qt-nt-transforms": (_qt_nt_issues, _qt_nt_on_descriptor, ("square",)),
}


def verify_certificate(cert: WitnessCertificate) -> tuple[bool, list[str]]:
    """Re-validate a certificate from its serialized content alone, with
    the rule its builder applied."""
    parsed = cert._parsed  # from_json_dict's square, unless the descriptor changed since
    square = (parsed[1] if parsed and parsed[0] == repr(cert.square)
              else square_from_descriptor(cert.square))
    if not isinstance(cert.claim, str) or cert.claim not in CLAIMS:
        return False, [f"unknown claim {short_repr(cert.claim)}"]
    rule, _, _ = CLAIMS[cert.claim]
    issues = rule(square, cert.witness_list())
    return not issues, issues
