"""Latin squares: representation, validation, generators, and transforms.

Symbols are 1..n at every interface; storage is 0-based.  Every type here
is immutable after construction, so concurrent read-only use is safe.
MAX_EXHAUSTIVE_ORDER, 16, is the ceiling of the transversal counter, the
near-transversal search and the graph's adjacency masks; the other search
engines stop lower, down to order 5.  The generators and LatinSquare refuse
orders above MAX_INPUT_ORDER, so neither a short descriptor nor a parsed
grid can ask for millions of cells.
"""

from __future__ import annotations

import json
import random
import sys

from .errors import (
    ColumnRepeatError,
    DimensionMismatchError,
    FormatError,
    NotAPermutationError,
    NotSquareError,
    OrderTooLargeError,
    OrderTooSmallError,
    RowRepeatError,
    StructureMismatchError,
    SymbolOutOfRangeError,
    short_repr,
)

MAX_EXHAUSTIVE_ORDER = 16

#: largest order a generator builds or LatinSquare accepts (the
#: constructions and validators are exercised to order 256)
MAX_INPUT_ORDER = 1024


class Frozen:
    """Base of the package's immutable value types.  The fields are the
    annotated names of the class and its bases, in order, less ``_private``
    ones; the constructor binds them by position or keyword, a class
    attribute being the default, then calls ``__post_init__``.  Instances
    compare (within one class), hash and print by their fields, and refuse
    assignment and deletion."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        inherited = getattr(cls, "_fields", ())
        cls._fields = inherited + tuple(name for name in cls.__annotations__
                                        if not name.startswith("_") and name not in inherited)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        given = len(values)  # fewer than passed: too many, or a field given twice
        if given < len(names):
            values = {**self._defaults, **values}
        if given != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(names)}), "
                            f"got {len(args)} by position and {sorted(kwargs)} by keyword")
        vars(self).update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check the bound fields; a subclass raises on a bad value."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LazyLogger:
    """logging.getLogger(name), looked up once the application has imported
    logging: a debug line before that is dropped, as no handler exists yet."""

    def __init__(self, name: str):
        self.name, self._logger = name, None

    def debug(self, msg: str, *args) -> None:
        if self._logger is None and "logging" in sys.modules:
            self._logger = sys.modules["logging"].getLogger(self.name)
        if self._logger is not None:
            self._logger.debug(msg, *args, stacklevel=2)  # the record names the caller


class LatinSquare:
    """An order-n Latin square over symbols 1..n.

    Construction refuses more than MAX_INPUT_ORDER rows before it looks at
    any entry, then raises for the first defect: every entry must be an int
    (not a bool) in 1..n, then every row, then every column, must hold each
    symbol once, and the error names the first failing entry, row or
    column.  Accepting a grid costs O(n^2) work in a few C-level set passes.
    Instances are immutable and hashable.
    """

    __slots__ = ("_cells", "_order")

    def __init__(self, rows):
        try:
            grid = [list(r) for r in rows]
        except TypeError:
            raise NotSquareError("rows must be a sequence of sequences") from None
        n = len(grid)
        _refuse_above_input_limit(n)
        if n == 0 or any(len(r) != n for r in grid):
            raise NotSquareError(f"expected n rows of n entries, got {[len(r) for r in grid]}")
        # exact types first, as 1 == 1.0 == True in a set; a refused grid is
        # diagnosed line by line, scanning entries only in a failing line
        symbols = set(range(1, n + 1))
        if not (all(set(map(type, r)) == {int} and set(r) == symbols for r in grid)
                and all(len(set(c)) == n for c in zip(*grid))):
            for r in grid:
                if set(map(type, r)) != {int} or not symbols.issuperset(r):
                    for x in r:  # an int subclass such as an IntEnum member passes
                        if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= n:
                            raise SymbolOutOfRangeError(f"entry {short_repr(x)} outside 1..{n}")
            for i, r in enumerate(grid):
                if len(set(r)) != n:
                    raise RowRepeatError(i + 1, _first_repeat(r))
            for j, c in enumerate(zip(*grid)):
                if len(set(c)) != n:
                    raise ColumnRepeatError(j + 1, _first_repeat(c))
        self._order = n
        self._cells = tuple(tuple([x - 1 for x in r]) for r in grid)

    @property
    def order(self) -> int:
        return self._order

    @property
    def cells0(self) -> tuple[tuple[int, ...], ...]:
        """Internal 0-based grid; engines index this directly."""
        return self._cells

    def symbol(self, i: int, j: int) -> int:
        """Symbol at row i, column j (all 1-based)."""
        return self._cells[i - 1][j - 1] + 1

    def rows(self) -> list[list[int]]:
        """1-based copy of the grid."""
        return [[x + 1 for x in r] for r in self._cells]

    def __eq__(self, other) -> bool:
        return isinstance(other, LatinSquare) and self._cells == other._cells

    def __hash__(self) -> int:
        return hash(self._cells)

    def __repr__(self) -> str:
        return f"LatinSquare(order={self._order})"

    def __str__(self) -> str:
        w = len(str(self._order))
        return "\n".join(" ".join(str(x + 1).rjust(w) for x in r) for r in self._cells)


def _first_repeat(line):
    seen = set()
    for x in line:
        if x in seen:
            return x
        seen.add(x)


def validate(grid) -> LatinSquare:
    """Validate a 1-based grid, returning the square or raising the first defect."""
    return LatinSquare(grid)


class StepTypeSpec(Frozen):
    """Parameters of a q-step-type layout: m block-rows of q-by-q blocks."""

    m: int
    q: int

    def __post_init__(self):
        if self.m < 1 or self.q < 1:
            raise DimensionMismatchError("m and q must be positive")

    @property
    def order(self) -> int:
        return self.m * self.q


def _refuse_above_input_limit(order: int) -> None:
    if order > MAX_INPUT_ORDER:
        raise OrderTooLargeError(f"order {order} exceeds the input limit {MAX_INPUT_ORDER}")


def gen_cyclic(n: int) -> LatinSquare:
    """Cayley table of the additive cyclic group: symbol(i,j) = ((i+j-2) mod n) + 1."""
    if n < 1:
        raise OrderTooSmallError("order must be at least 1")
    _refuse_above_input_limit(n)
    base = list(range(1, n + 1)) * 2
    return LatinSquare([base[i:i + n] for i in range(n)])


def gen_qstep(m: int, q: int) -> LatinSquare:
    """Canonical q-step-type square of order m*q with cyclic q-by-q blocks.

    Block (i,j) carries the symbol interval for class (i+j-2) mod m, so the
    block symbol-set condition holds by construction.  Equals the Cayley
    table of Z_m x Z_q under interval relabelling.
    """
    if m < 1 or q < 1:
        raise OrderTooSmallError("m and q must be positive")
    n = m * q
    _refuse_above_input_limit(n)
    # strips[s]: row s of the q-by-q blocks of classes 0..m-1, written twice;
    # row i*q + s is that row rotated left by i blocks
    base = list(range(1, q + 1)) * 2
    strips = [[k * q + x for k in range(m) for x in base[s:s + q]] * 2 for s in range(q)]
    return LatinSquare([strips[s][i * q:i * q + n] for i in range(m) for s in range(q)])


#: order-4 table of the elementary abelian group, the doubling base.
TWO_STEP_BASE_ROWS = ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))


def gen_two_step_pow2(k: int) -> LatinSquare:
    """Order-2^k square built by block doubling from the order-4 base.

    Each step maps A to [[A, s(A)], [s(A), A]] with s(x) = x + 2^(k-1).
    The output is 2^(k-1)-step type (two half-order blocks); its full
    disjoint-transversal decomposition is produced by
    constructions.decompose_two_step.
    """
    if k < 2:
        raise OrderTooSmallError("doubling construction needs order 2^k >= 4")
    if k >= MAX_INPUT_ORDER.bit_length():  # exactly when 2^k > MAX_INPUT_ORDER
        raise OrderTooLargeError(f"order 2^{k} exceeds the input limit {MAX_INPUT_ORDER}")
    grid = [list(r) for r in TWO_STEP_BASE_ROWS]
    for level in range(3, k + 1):
        half = 1 << (level - 1)
        shifted = [[x + half for x in row] for row in grid]
        grid = [a + b for a, b in zip(grid, shifted)] + [b + a for a, b in zip(grid, shifted)]
    return LatinSquare(grid)


def is_qstep_type(square: LatinSquare, spec: StepTypeSpec) -> tuple[bool, str | None]:
    """Decide whether the square is q-step type for the given (m, q).

    Requires every aligned q-by-q block to be a Latin subsquare on a
    q-symbol set, and two blocks to share a symbol set exactly when their
    block coordinates satisfy i+j = i'+j' (mod m): each block must hold the
    set of the first block of its class i+j (mod m).  The diagnosis names
    the first failing block.
    """
    m, q = spec.m, spec.q
    n = square.order
    if m * q != n:
        raise DimensionMismatchError(f"spec order {m * q} != square order {n}")
    cells = square.cells0
    sets: dict[tuple[int, int], frozenset[int]] = {}
    for bi in range(m):
        for bj in range(m):
            syms = frozenset(cells[bi * q + s][bj * q + t] for s in range(q) for t in range(q))
            if len(syms) != q:
                return False, f"block ({bi + 1},{bj + 1}) is not on a {q}-symbol set"
            sets[(bi, bj)] = syms
    # a block on q symbols is a Latin subsquare, as each of its rows and columns
    # holds q distinct symbols; block row 0 gives the m classes pairwise disjoint
    # sets, so a block that agrees with its class shares no other class's set
    class_set: dict[int, frozenset[int]] = {}
    for (bi, bj), syms in sorted(sets.items()):
        cls = (bi + bj) % m
        if class_set.setdefault(cls, syms) != syms:
            return False, (
                f"block ({bi + 1},{bj + 1}) disagrees with its class {cls}: "
                f"same i+j (mod {m}) but different symbols"
            )
    return True, None


class Isotopy(Frozen):
    """Row, column and symbol permutations of 1..n, stored as image tuples."""

    f: tuple[int, ...]
    g: tuple[int, ...]
    h: tuple[int, ...]

    def __post_init__(self):
        n = len(self.f)
        for name, p in (("f", self.f), ("g", self.g), ("h", self.h)):
            if len(p) != n or sorted(p) != list(range(1, n + 1)):
                raise NotAPermutationError(f"component {name} is not a permutation of 1..{n}")

    @property
    def order(self) -> int:
        return len(self.f)

    @classmethod
    def identity(cls, n: int) -> "Isotopy":
        ident = tuple(range(1, n + 1))
        return cls(ident, ident, ident)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "Isotopy":
        perms = []
        for _ in range(3):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            perms.append(tuple(p))
        return cls(*perms)


def apply_isotopy(square: LatinSquare, iso: Isotopy) -> LatinSquare:
    """Image square M with M[f(i)][g(j)] = h(L[i][j])."""
    n = square.order
    if iso.order != n:
        raise DimensionMismatchError(f"isotopy on 1..{iso.order} applied to order {n}")
    h = iso.h
    cols = sorted(range(n), key=iso.g.__getitem__)  # cols[c]: the j with g(j) = c + 1
    grid = [None] * n
    for fi, row in zip(iso.f, square.cells0):
        grid[fi - 1] = [h[row[j]] for j in cols]
    return LatinSquare(grid)


# ---------------------------------------------------------------------------
# serialization

def format_ls(square: LatinSquare) -> str:
    """Text format: first line n, then n rows of space-separated symbols."""
    n = square.order
    lines = [str(n)]
    lines += [" ".join(str(x + 1) for x in row) for row in square.cells0]
    return "\n".join(lines) + "\n"


def parse_ls(text: str) -> LatinSquare:
    """Parse the .ls text format; trailing garbage is rejected."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise FormatError("empty input")
    try:
        n = int(lines[idx].strip())
    except ValueError:
        raise FormatError(f"first line must be the order, got {short_repr(lines[idx])}") from None
    if n < 1:
        raise FormatError(f"order must be positive, got {n}")
    grid = []
    idx += 1
    for r in range(n):
        if idx >= len(lines):
            raise FormatError(f"expected {n} rows, found {r}")
        parts = lines[idx].split()
        try:
            grid.append(list(map(int, parts)))
        except ValueError:
            raise FormatError(f"row {r + 1} contains a non-integer token") from None
        idx += 1
    for rest in lines[idx:]:
        if rest.strip():
            raise FormatError(f"trailing garbage after row {n}: {short_repr(rest)}")
    return LatinSquare(grid)


def square_to_json_dict(square: LatinSquare) -> dict:
    return {"order": square.order, "rows": square.rows()}


def square_from_json_dict(obj: dict) -> LatinSquare:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise FormatError("square JSON needs a 'rows' field")
    sq = LatinSquare(obj["rows"])
    if "order" in obj and type(obj["order"]) is not int:  # a bool is not an int here
        raise FormatError(f"order must be a JSON integer, got {short_repr(obj['order'])}")
    if "order" in obj and obj["order"] != sq.order:
        raise FormatError(f"declared order {short_repr(obj['order'])} != grid order {sq.order}")
    return sq


#: square generator name -> (generator, its parameter names in call order)
GENERATORS = {
    "cyclic": (gen_cyclic, ("n",)),
    "qstep": (gen_qstep, ("m", "q")),
    "twostep": (gen_two_step_pow2, ("k",)),
}

#: the square families of plexes.conjecture_sweep, by name
SWEEP_GENERATORS = ("cyclic", "qstep", "isotopes")


def square_descriptor(generator: str, **params) -> dict:
    return {"generator": generator, "params": dict(sorted(params.items()))}


def square_from_descriptor(desc: dict) -> LatinSquare:
    """Rebuild the square of a certificate from its descriptor.

    The descriptor is untrusted input: it must be an object holding either
    inline ``rows`` or a known generator with integer parameters.  Orders
    above MAX_INPUT_ORDER are refused by the generators.
    """
    if not isinstance(desc, dict):
        raise FormatError(f"square descriptor must be an object, got {type(desc).__name__}")
    if "rows" in desc:
        return LatinSquare(desc["rows"])
    name = desc.get("generator")
    if not isinstance(name, str) or name not in GENERATORS:
        raise StructureMismatchError(f"unknown square descriptor {short_repr(desc)}")
    params = desc.get("params")
    if not isinstance(params, dict):
        raise FormatError(f"square generator {name!r} needs a 'params' object")
    generator, names = GENERATORS[name]
    for p in names:
        if type(params.get(p)) is not int:  # refuses bool and None as well
            raise FormatError(f"square generator {name!r} needs an integer parameter {p!r}, "
                              f"got {short_repr(params.get(p))}")
    return generator(*(params[p] for p in names))


def load_square_text(text: str) -> LatinSquare:
    """Sniff JSON vs .ls and parse accordingly."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
            raise FormatError(f"bad JSON: {exc}") from None
        return square_from_json_dict(obj)
    return parse_ls(text)
