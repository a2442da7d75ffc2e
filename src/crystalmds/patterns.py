"""Littelmann patterns: shapes, cone and polytope constraints, enumeration.

A pattern is a ragged array of nonnegative integers, one entry per letter of
the family's distinguished long word.  Row i spans flat column indices
``i .. row_end(i)``; reads outside the shape return 0.  The barred accessor
mirrors a column across the centre of a B/C/D row.

Enumeration walks slots row by row from the top, right to left inside each
row.  Under that order the cone gives an exact lower bound and the polytope
an exact upper bound for the next entry from already-placed entries alone,
so the search prunes at the first violated constraint and every leaf is a
crystal element.  The same walk marks each entry that meets one of its
bounds, which is all the circling and boxing masks need.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .conventions import DEFAULT, Conventions
from .roots import CartanSpec, RootSystem, build_root_system, is_dominant
from .weightpoly import Weight

Position = tuple[int, int]  # (row index, flat column index), both 1-based


def row_end(spec: CartanSpec, i: int) -> int:
    r = spec.rank
    if spec.family == "A":
        return r
    if spec.family == "D":
        return 2 * r - 1 - i
    return 2 * r - i


def row_count(spec: CartanSpec) -> int:
    return spec.rank - 1 if spec.family == "D" else spec.rank


def pattern_shape(spec: CartanSpec) -> list[int]:
    """Row lengths, top row first; the total is the positive-root count."""
    lengths = [row_end(spec, i) - i + 1 for i in range(1, row_count(spec) + 1)]
    assert sum(lengths) == spec.positive_root_count()
    return lengths


def column_letter(spec: CartanSpec, j: int) -> int:
    """Simple-root index whose climbing segments fill flat column j."""
    r = spec.rank
    if spec.family == "A":
        return r - j + 1
    if spec.family in ("B", "C"):
        return r - j + 1 if j <= r else j - r + 1
    if j <= r - 2:
        return r - j + 1
    if j == r - 1:
        return 1
    if j == r:
        return 2
    return j - r + 2


class _RowAccess:
    """Entry access shared by finished patterns and the walk's buffer."""

    __slots__ = ()

    def a(self, i: int, j: int) -> int:
        """Entry at row i, flat column j; 0 outside the shape."""
        if not 1 <= i <= len(self.rows):
            return 0
        if not i <= j <= row_end(self.spec, i):
            return 0
        return self.rows[i - 1][j - i]

    def abar(self, i: int, j: int) -> int:
        r = self.spec.rank
        if self.spec.family == "D":
            return self.a(i, 2 * r - 1 - j)
        return self.a(i, 2 * r - j)


@dataclass(frozen=True)
class LittelmannPattern(_RowAccess):
    spec: CartanSpec
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = pattern_shape(self.spec)
        if [len(row) for row in self.rows] != shape:
            raise ValueError(f"rows do not fit the {self.spec} shape {shape}")
        if any(v < 0 for row in self.rows for v in row):
            raise ValueError("pattern entries must be nonnegative")

    def entries(self) -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(self.rows, start=1):
            for off, v in enumerate(row):
                yield i, i + off, v

    def positions(self) -> Iterator[Position]:
        for i, row in enumerate(self.rows, start=1):
            for off in range(len(row)):
                yield i, i + off

    def to_text(self) -> str:
        return ";".join(",".join(str(v) for v in row) for row in self.rows)

    @staticmethod
    def from_text(spec: CartanSpec, text: str) -> "LittelmannPattern":
        rows = tuple(tuple(int(v) for v in part.split(",")) for part in text.strip().split(";"))
        return LittelmannPattern(spec, rows)


# ---------------------------------------------------------------------------
# Cone chain
# ---------------------------------------------------------------------------

def _chain_lower_bound(a, spec: CartanSpec, i: int, j: int):
    """Lower bound imposed on slot (i, j) by the row chain; entries beyond the
    row read 0.  Exact value (a Fraction for the halved case in type B)."""
    r = spec.rank
    fam = spec.family
    if fam == "B":
        if j == r - 1:
            return Fraction(a(i, r), 2)
        if j == r:
            return 2 * a(i, r + 1)
    elif fam == "D":
        if j == r - 2:
            return max(a(i, r - 1), a(i, r))
        if j == r - 1:
            return a(i, r + 1)
    return a(i, j + 1)


def cone_satisfied(L: LittelmannPattern) -> bool:
    """Row chains hold: weakly decreasing with the family's central variants
    (doubled comparisons in B, incomparable central pair in D)."""
    return all(L.a(i, j) >= _chain_lower_bound(L.a, L.spec, i, j)
               for i, j in L.positions())


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

class PatternAggregates:
    """Partial column sums entering the polytope bounds.

    ``s(i, j)`` sums rows 1..i of column j, pairing a column with its mirror
    in types B/C/D away from the middle; the middle column follows the
    family rule (plain in B, doubled in C, both central columns together in
    D under the resolved reading).  ``sbar`` shifts the split between row i
    and the rows above it; ``t`` is a plain column prefix sum (type D).
    """

    def __init__(self, L: LittelmannPattern, conv: Conventions = DEFAULT):
        self.L = L
        self.conv = conv

    def s(self, i: int, j: int) -> int:
        L, spec = self.L, self.L.spec
        r = spec.rank
        fam = spec.family
        if fam == "A":
            return sum(L.a(k, j) for k in range(1, i + 1))
        if fam in ("B", "C") and j == r:
            scale = 2 if fam == "C" else 1
            return scale * sum(L.a(k, r) for k in range(1, i + 1))
        if fam == "D" and j in (r - 1, r):
            if self.conv.d_middle_aggregate == "paired":
                return sum(L.a(k, r - 1) + L.a(k, r) for k in range(1, i + 1))
            return 2 * sum(L.a(k, r - 1) for k in range(1, i + 1))
        return sum(L.a(k, j) + L.abar(k, j) for k in range(1, i + 1))

    def sbar(self, i: int, j: int) -> int:
        spec = self.L.spec
        r = spec.rank
        fam = spec.family
        if fam == "A":
            raise ValueError("type A has no barred aggregate")
        if fam == "D" and j in (r - 1, r):
            return self.s(i, j)
        if fam == "B" and j == r:
            return self.L.abar(i, j) + 2 * self.s(i - 1, j)
        return self.L.abar(i, j) + self.s(i - 1, j)

    def t(self, i: int, col: int) -> int:
        return sum(self.L.a(k, col) for k in range(1, i + 1))


def aggregates(L: LittelmannPattern, conv: Conventions = DEFAULT) -> PatternAggregates:
    return PatternAggregates(L, conv)


# ---------------------------------------------------------------------------
# Polytope bounds
# ---------------------------------------------------------------------------

def polytope_upper_bound(L: LittelmannPattern, lam: Weight, pos: Position,
                         conv: Conventions = DEFAULT) -> int:
    """Right-hand side of the unique highest-weight inequality bounding the
    entry at ``pos``.

    The bound depends only on entries above the slot's row and to its right
    within the row, which is what makes right-to-left, top-down enumeration
    prune exactly.
    """
    i, j = pos
    spec = L.spec
    if not (1 <= i <= len(L.rows) and i <= j <= row_end(spec, i)):
        raise ValueError(f"position {pos} is outside the {spec} shape")
    return _upper_bound_agg(PatternAggregates(L, conv), tuple(lam), i, j)


def _upper_bound_agg(agg: PatternAggregates, lam: tuple[int, ...], i: int, j: int) -> int:
    spec = agg.L.spec
    r = spec.rank
    fam = spec.family

    def m(k: int) -> int:
        return lam[k - 1]

    if fam == "A":
        return m(r - j + 1) + agg.s(i - 1, j - 1) - 2 * agg.s(i - 1, j) + agg.s(i, j + 1)

    if fam in ("B", "C"):
        if j < r:
            return m(r - j + 1) + agg.sbar(i, j - 1) - 2 * agg.sbar(i, j) + agg.s(i, j + 1)
        if j == r:
            d = agg.conv.middle_bound_scale_b if fam == "B" else agg.conv.middle_bound_scale_c
            return m(1) + d * agg.sbar(i, r - 1) - d * agg.s(i - 1, r)
        jj = 2 * r - j  # barred column index
        return m(r - jj + 1) + agg.sbar(i, jj - 1) - 2 * agg.s(i - 1, jj) + agg.s(i - 1, jj + 1)

    # family D
    if j <= r - 2:
        return m(r - j + 1) + agg.sbar(i, j - 1) - 2 * agg.sbar(i, j) + agg.s(i, j + 1)
    if j == r - 1:
        return m(1) + agg.sbar(i, r - 2) - 2 * agg.t(i - 1, r - 1)
    if j == r:
        return m(2) + agg.sbar(i, r - 2) - 2 * agg.t(i - 1, r)
    jj = 2 * r - 1 - j
    return m(r - jj + 1) + agg.sbar(i, jj - 1) - 2 * agg.s(i - 1, jj) + agg.s(i - 1, jj + 1)


def polytope_satisfied(L: LittelmannPattern, lam: Weight,
                       conv: Conventions = DEFAULT) -> bool:
    """Membership in the highest-weight polytope: the cone chain plus every
    entry at or under its upper bound."""
    if not cone_satisfied(L):
        return False
    agg = PatternAggregates(L, conv)
    lam = tuple(lam)
    return all(v <= _upper_bound_agg(agg, lam, i, j) for i, j, v in L.entries())


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class _Partial(_RowAccess):
    """Mutable pattern under construction; quacks like LittelmannPattern for
    the aggregate helpers."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: CartanSpec, rows: list[list[int]]):
        self.spec = spec
        self.rows = rows


def enumeration_slots(spec: CartanSpec) -> list[Position]:
    """Slot order used by the enumerator: rows top to bottom, right to left."""
    return [(i, j)
            for i in range(1, row_count(spec) + 1)
            for j in range(row_end(spec, i), i - 1, -1)]


def _walk(spec: CartanSpec, lam: tuple[int, ...], conv: Conventions = DEFAULT,
          pinned: tuple[tuple[int, ...], ...] | None = None,
          fold: Callable | None = None, seed=None
          ) -> Iterator[tuple[list, list, list, object]]:
    """The slot walk: the one place that evaluates the bounds of a slot.

    Slots are visited in ``enumeration_slots`` order.  Each node evaluates
    the slot's cone lower bound and polytope upper bound once, from the
    entries already placed, and every value placed there records its marks:
    circled when it equals the lower bound (in the halved B slot, when twice
    it equals a(i, r)), boxed when it equals the upper bound.  Each leaf
    yields the shared ``(rows, circled, boxed)`` buffers, which change when
    the walk resumes, so a consumer copies what it keeps, followed by the
    leaf's accumulator.

    The accumulator starts as ``seed`` at the root.  With ``fold``, every
    value placed at slot k turns the parent's accumulator into the child's
    as ``fold(k, acc, row, crow, brow)``: the row buffers of the slot's row
    (values, circled, boxed) with the value and its marks in place.  A None
    result skips the value and its whole subtree.

    With ``pinned`` rows the walk follows that one pattern and raises
    ValueError at the first entry outside its bounds.
    """
    shape = pattern_shape(spec)
    rows = [[0] * n for n in shape]
    circled = [[False] * n for n in shape]
    boxed = [[False] * n for n in shape]
    partial = _Partial(spec, rows)
    agg = PatternAggregates(partial, conv)
    slots = enumeration_slots(spec)
    r = spec.rank
    halved = r - 1 if spec.family == "B" else 0  # column whose bound is a(i, r)/2

    def dfs(k: int, acc):
        if k == len(slots):
            yield rows, circled, boxed, acc
            return
        i, j = slots[k]
        off = j - i
        if j == halved:
            twice = partial.a(i, r)
            lo, tight = (twice + 1) // 2, (None if twice % 2 else twice // 2)
        else:
            lo = tight = _chain_lower_bound(partial.a, spec, i, j)
        hi = _upper_bound_agg(agg, lam, i, j)
        if pinned is None:
            values = range(lo, hi + 1)
        else:
            v = pinned[i - 1][off]
            if not lo <= v <= hi:
                raise ValueError(f"entry {v} at {(i, j)} lies outside the "
                                 f"highest-weight polytope (bounds {lo}..{hi})")
            values = (v,)
        row, crow, brow = rows[i - 1], circled[i - 1], boxed[i - 1]
        for v in values:
            row[off] = v
            crow[off] = v == tight
            brow[off] = v == hi
            if fold is None:
                yield from dfs(k + 1, acc)
            else:
                child = fold(k, acc, row, crow, brow)
                if child is not None:
                    yield from dfs(k + 1, child)
        row[off] = 0

    return dfs(0, seed)


def _crystal_walk(rs: RootSystem, lam: Weight, conv: Conventions = DEFAULT,
                  fold: Callable | None = None, seed=None) -> Iterator[tuple[list, list, list, object]]:
    """``_walk`` over the whole crystal of highest weight ``lam``."""
    lam = tuple(lam)
    if len(lam) != rs.rank:
        raise ValueError("highest weight has wrong rank")
    if not is_dominant(lam):
        raise ValueError(f"enumeration requires a dominant weight, got {lam}")
    return _walk(rs.spec, lam, conv, fold=fold, seed=seed)


def _freeze(rows: list[list]) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in rows)


def enumerate_patterns(rs: RootSystem, lam: Weight,
                       conv: Conventions = DEFAULT) -> Iterator[LittelmannPattern]:
    """All patterns of the highest-weight crystal, each exactly once.

    Deterministic order: lexicographic in the slot sequence of
    ``enumeration_slots`` (rows top to bottom, right to left), values
    ascending.
    """
    spec = rs.spec
    for rows, _, _, _ in _crystal_walk(rs, lam, conv):
        yield LittelmannPattern(spec, _freeze(rows))


# ---------------------------------------------------------------------------
# Weights of patterns
# ---------------------------------------------------------------------------

def pattern_weight(L: LittelmannPattern) -> tuple[int, ...]:
    """Column sums grouped by edge color: component k counts the climbing
    steps along the k-th simple root."""
    s = [0] * L.spec.rank
    for _, j, v in L.entries():
        s[column_letter(L.spec, j) - 1] += v
    return tuple(s)


def slot_drops(rs: RootSystem) -> list[Weight]:
    """Per slot of ``enumeration_slots``, the weight lost per unit placed
    there: the simple root (Cartan column) of the slot's column letter."""
    spec = rs.spec
    return [rs.simple_root(column_letter(spec, j)) for _, j in enumeration_slots(spec)]


def pattern_wt(L: LittelmannPattern, lam: Weight) -> Weight:
    """Crystal weight of the pattern: lam minus the counted simple roots,
    in fundamental-weight coordinates."""
    rs = build_root_system(L.spec)
    s = pattern_weight(L)
    lam = tuple(lam)
    return tuple(lam[i] - sum(s[k] * rs.cartan[i][k] for k in range(rs.rank))
                 for i in range(rs.rank))


# ---------------------------------------------------------------------------
# Path strings
# ---------------------------------------------------------------------------

def fill_slots(spec: CartanSpec) -> list[Position]:
    """Slot order of the path bijection: bottom row first, left to right."""
    return [(i, j)
            for i in range(row_count(spec), 0, -1)
            for j in range(i, row_end(spec, i) + 1)]


def bzl_to_pattern(spec: CartanSpec, string: tuple[int, ...]) -> LittelmannPattern:
    """Arrange a climbing string into the family shape."""
    slots = fill_slots(spec)
    if len(string) != len(slots):
        raise ValueError(
            f"string length {len(string)} does not match {spec} ({len(slots)} letters)")
    rows: list[list[int]] = [[0] * n for n in pattern_shape(spec)]
    for (i, j), v in zip(slots, string):
        rows[i - 1][j - i] = v
    return LittelmannPattern(spec, tuple(tuple(row) for row in rows))


def pattern_to_bzl(L: LittelmannPattern) -> tuple[int, ...]:
    return tuple(L.a(i, j) for i, j in fill_slots(L.spec))
