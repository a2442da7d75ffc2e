"""Littelmann patterns: shapes, the slot walk, enumeration and weights.

A pattern is a ragged array of nonnegative integers, one entry per letter of
the family's distinguished long word.  Row i spans flat column indices
``i .. row_end(i)``; reads outside the shape return 0.

The slot walk ``_walk`` is the one place that evaluates a pattern's cone and
string-polytope bounds.  It visits slots row by row from the top, right to
left inside each row.  Under that order the cone gives an exact lower bound
and the polytope an exact upper bound for the next entry from already-placed
entries alone, so the search prunes at the first violated constraint and
every leaf is a crystal element.  The lower bound reads only the slot's own
row, to its right; the upper bound is one coordinate of the weight of the
entries already placed, which the walk carries along as one packed int.
The same walk marks each entry that meets one of its bounds, which is all the
circling and boxing masks need.  Membership of a single pattern is the walk
pinned to it (``decorations.decorate``), which raises at the first entry out
of bounds.  ``walk_plan`` builds the walk's set-up once per crystal, and the
walk's one-row mode fills a single row from the packed weight of the rows
above it.  Its fillings depend on that weight only through the fields the
row reads, which the plan records per row, so ``series`` sums a crystal
forward a row at a time and walks each row once per distinct set of them.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterator, NamedTuple

from .coefficients import CoeffElement
from .roots import (CartanSpec, RootSystem, _checked_weight, build_root_system,
                    is_dominant)
from .weightpoly import Weight, WeightCodec, weight_codec


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


class _PatternFields(NamedTuple):
    spec: CartanSpec
    rows: tuple[tuple[int, ...], ...]


class LittelmannPattern(_PatternFields):
    """A pattern's rows, checked against the spec's shape on every
    construction: by call, ``_make`` and ``_replace``."""
    __slots__ = ()

    def __new__(cls, spec: CartanSpec, rows: tuple[tuple[int, ...], ...]):
        shape = pattern_shape(spec)
        if [len(row) for row in rows] != shape:
            raise ValueError(f"rows do not fit the {spec} shape {shape}")
        if any(v < 0 for row in rows for v in row):
            raise ValueError("pattern entries must be nonnegative")
        return super().__new__(cls, spec, rows)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def a(self, i: int, j: int) -> int:
        """Entry at row i, flat column j; 0 outside the shape."""
        if not 1 <= i <= len(self.rows):
            return 0
        if not i <= j <= row_end(self.spec, i):
            return 0
        return self.rows[i - 1][j - i]

    def entries(self) -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(self.rows, start=1):
            for off, v in enumerate(row):
                yield i, i + off, v

    def positions(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows, start=1):
            for off in range(len(row)):
                yield i, i + off

    def to_text(self) -> str:
        return _rows_text(self.rows)


def _rows_text(rows) -> str:
    """Pattern text: rows separated by ';', entries by ','."""
    return ";".join(",".join(map(str, row)) for row in rows)


# ---------------------------------------------------------------------------
# Cone chain
# ---------------------------------------------------------------------------

def _chain_lower_bound(row, spec: CartanSpec, i: int, j: int) -> int:
    """Lower bound imposed on slot (i, j) by the chain of row ``i``, given as
    its values left to right; entries past the row end read 0.  The halved
    column of type B (j = r - 1, bounded by a(i, r)/2) is the walk's own
    case."""
    r = spec.rank
    fam = spec.family
    off = j + 1 - i  # the right neighbour
    scale = 1
    if fam == "B" and j == r:
        scale = 2
    elif fam == "D":
        if j == r - 2:
            return max(row[off], row[off + 1])
        if j == r - 1:
            off += 1
    return scale * row[off] if off < len(row) else 0


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumeration_slots(spec: CartanSpec) -> list[tuple[int, int]]:
    """Slot order used by the enumerator: rows top to bottom, right to left."""
    return [(i, j)
            for i in range(1, row_count(spec) + 1)
            for j in range(row_end(spec, i), i - 1, -1)]


class WalkPlan(NamedTuple):
    """The slot walk's set-up for one crystal, built once by ``walk_plan``
    and shared by every walk over it.  Walks on one plan share its row
    buffers, so two walks that place entries in the same row must not be
    interleaved.

    ``reads[i - 1]`` masks the packed-weight fields that the slots of rows
    i and below read, those of their column letters.  Row i reads letters
    1..r-i+1 in every family, so that is row i's own fields: the key under
    which ``series`` caches row i's fillings, and under which
    ``branch_decompose`` shares the sum of the rows below row 1."""
    spec: CartanSpec
    codec: WeightCodec
    top: int                          # the highest weight, packed
    buffers: tuple[list, list, list]  # rows, circled and boxed marks
    frames: list                      # one per slot, in enumeration order
    starts: tuple[int, ...]           # row i's slots are frames[starts[i-1]:starts[i]]
    reads: tuple[int, ...]            # reads[i-1]: the weight fields rows >= i read
    halved: int                       # column whose bound is a(i, r)/2, else 0


def walk_plan(spec: CartanSpec, lam: Weight) -> WalkPlan:
    """Codec, row buffers and per-slot frames of the walk over the crystal of
    ``lam``, which must be dominant, as the codec's bound requires; otherwise
    ValueError."""
    lam = _checked_weight(spec, lam)
    if not is_dominant(lam):
        raise ValueError(f"enumeration requires a dominant weight, got {lam}")
    shape = pattern_shape(spec)
    rows = [[0] * n for n in shape]
    circled = [[False] * n for n in shape]
    boxed = [[False] * n for n in shape]
    codec = weight_codec(lam, build_root_system(spec).cartan)
    field = (1 << codec.width) - 1
    # per slot: position, its row's buffers, offset in the row, and the field
    # shift and packed simple root of its column letter
    frames = []
    for i, j in enumeration_slots(spec):
        c = column_letter(spec, j) - 1
        frames.append((i, j, rows[i - 1], circled[i - 1], boxed[i - 1], j - i,
                       c * codec.width, codec.roots[c]))
    starts = tuple(accumulate(shape, initial=0))
    # a slot's upper bound reads the field of its column letter, and nothing
    # else of the weight: gather those fields from the bottom row up
    reads = [0] * (len(shape) + 1)
    for i, _, _, _, _, _, shift, _ in reversed(frames):
        reads[i - 1] |= reads[i] | field << shift
    return WalkPlan(spec, codec, codec.pack(lam), (rows, circled, boxed), frames,
                    starts, tuple(reads[:-1]), spec.rank - 1 if spec.family == "B" else 0)


def _walk(plan: WalkPlan, pinned: tuple[tuple[int, ...], ...] | None = None,
          factor: Callable | None = None, row: int | None = None,
          wt: int | None = None) -> Iterator[tuple[list, list, list, int, object]]:
    """The slot walk: the one place that evaluates the bounds of a slot.

    Slots are visited in ``enumeration_slots`` order, the reverse of the long
    word, and the walk carries the weight lam - sum v * alpha(letter) of the
    entries already placed, packed into one int by the plan's codec: placing
    a value subtracts its packed root.  Each node evaluates the slot's cone
    lower bound from the entries of its row buffer and reads its polytope
    upper bound off that weight: the field of the slot's column letter.
    Every value placed there records its marks: circled when it equals the
    lower bound (in the halved B slot, when twice it equals a(i, r)), boxed
    when it equals the upper bound.  Each leaf yields the plan's shared
    ``(rows, circled, boxed)`` buffers, which change when the walk resumes,
    so a consumer copies what it keeps, followed by the leaf's packed weight
    (an int key; the codec's ``decode`` gives the weight) and coefficient.

    Without ``factor`` every leaf's coefficient is 1.  With it, a slot table
    (``coefficients.slot_table``), the coefficient is the product of the
    leaf's slot factors, carried as a prefix product: every value placed at
    slot (i, j) multiplies the parent's product by ``factor(i, j, row, crow,
    brow)``, read off the row buffers of row i (values, circled, boxed) with
    the value and its marks in place.  A zero factor skips the value and its
    whole subtree, so every leaf's coefficient is nonzero.

    With ``row`` the walk is one row's: it places the slots of that row only,
    starting from the packed weight ``wt`` of the entries in the rows above,
    and each leaf is a filling of the row; the buffers of the other rows are
    not read.  A row's bounds and marks read its own entries and the weight
    fields of its column letters only (``WalkPlan.reads``), so its fillings,
    their marks and the weight each drops depend on nothing else of ``wt``,
    and ``series._row_sums`` walks it once per distinct set of those fields.
    Without ``row`` the walk runs over every row from the highest weight.
    With ``pinned`` rows it follows that one pattern and raises ValueError
    at the first entry outside its bounds.

    The walk runs in one generator frame: an explicit per-slot stack holds
    each slot's remaining values, bounds, weight and coefficient, and every
    leaf is yielded once, directly.  So the rank meets no recursion limit.
    """
    r = plan.spec.rank
    halved = plan.halved
    coord = plan.codec.coord
    if row is None:
        frames, wt = plan.frames, plan.top
    else:
        frames = plan.frames[plan.starts[row - 1]:plan.starts[row]]
    rows, circled, boxed = plan.buffers
    last = len(frames) - 1
    # the stack, one entry per slot of the current path: the values still to
    # try with the bounds they are marked against, and the weight and
    # coefficient of the entries placed before the slot.  Sibling weights
    # step by one root from wts[k + 1], which starts one step above the
    # first nonzero value at k.
    tries: list = [None] * len(frames)
    wts = [wt] * (len(frames) + 1)
    accs = [1 if factor is None else CoeffElement.one()] * len(frames)
    k = 0
    while k >= 0:
        i, j, vals, crow, brow, off, shift, drop = frames[k]
        if tries[k] is None:  # first visit: evaluate the slot's bounds
            if j == halved:
                twice = vals[r - i]
                # with a(i, r) odd, tight falls below lo and circles nothing
                lo, tight = (twice + 1) // 2, twice // 2
            else:
                lo = tight = _chain_lower_bound(vals, plan.spec, i, j)
            wt = wts[k]
            hi = coord(wt, shift)
            first = lo if pinned is None else pinned[i - 1][off]
            if pinned is not None and not lo <= first <= hi:
                raise ValueError(f"entry {first} at {(i, j)} lies outside the "
                                 f"highest-weight polytope (bounds {lo}..{hi})")
            top = hi if pinned is None else first
            tries[k] = iter(range(first, top + 1)), tight, hi
            wts[k + 1] = wt if first <= 1 else wt - (first - 1) * drop
        it, tight, hi = tries[k]
        acc, child_wt = accs[k], wts[k + 1]
        for v in it:
            vals[off] = v
            crow[off] = v == tight
            brow[off] = v == hi
            if v:
                child_wt -= drop
            if factor is None:
                child = acc
            else:
                f = factor(i, j, vals, crow, brow)
                if f.is_zero():
                    continue
                child = acc * f
            if k == last:
                yield rows, circled, boxed, child_wt, child
            else:
                k += 1
                wts[k], accs[k] = child_wt, child
                break
        else:  # every value tried: clear the slot and go back up
            vals[off] = 0
            tries[k] = None
            k -= 1


def _freeze(rows: list[list]) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in rows)


def enumerate_patterns(rs: RootSystem, lam: Weight) -> Iterator[LittelmannPattern]:
    """All patterns of the highest-weight crystal, each exactly once.

    Deterministic order: lexicographic in the slot sequence of
    ``enumeration_slots`` (rows top to bottom, right to left), values
    ascending.
    """
    spec = rs.spec
    for rows, _, _, _, _ in _walk(walk_plan(spec, lam)):
        yield LittelmannPattern(spec, _freeze(rows))


# ---------------------------------------------------------------------------
# Weights of patterns
# ---------------------------------------------------------------------------

def rows_weight(spec: CartanSpec, rows) -> tuple[int, ...]:
    """Column sums grouped by edge color: component k counts the climbing
    steps along the k-th simple root.  ``rows`` are taken as they are, with
    row i starting at flat column i; nothing is validated."""
    s = [0] * spec.rank
    for i, row in enumerate(rows, start=1):
        for j, v in enumerate(row, start=i):
            s[column_letter(spec, j) - 1] += v
    return tuple(s)


def pattern_wt(L: LittelmannPattern, lam: Weight) -> Weight:
    """Crystal weight of the pattern: lam minus the counted simple roots,
    in fundamental-weight coordinates."""
    rs = build_root_system(L.spec)
    s = rows_weight(L.spec, L.rows)
    lam = tuple(lam)
    return tuple(lam[i] - sum(s[k] * rs.cartan[i][k] for k in range(rs.rank))
                 for i in range(rs.rank))
