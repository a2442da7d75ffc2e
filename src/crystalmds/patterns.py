"""Littelmann patterns: shapes, the slot walk, enumeration, decorations and
weights.

A pattern is a ragged array of nonnegative integers, one entry per letter of
the family's distinguished long word.  The word comes in blocks, one per
rank (``roots.long_word_blocks``), and row i holds the block i-th from the
end: its length is row i's, and its letters are those of flat columns
i, i+1, ... in turn, the same letter in every row that reaches a column.

The slot walk ``_walk`` is the one place that evaluates a pattern's cone and
string-polytope bounds.  It visits slots row by row from the top, right to
left inside each row.  Under that order the cone gives an exact lower bound
and the polytope an exact upper bound for the next entry from already-placed
entries alone, so the search prunes at the first violated constraint and
every leaf is a crystal element.  The lower bound reads only the slot's own
row, to its right, at offsets and a scale that ``walk_plan`` states once per
slot; the upper bound is one coordinate of the weight of the entries already
placed, which the walk carries along as one packed int.
The same walk marks each entry that meets one of its bounds, which is all the
circling and boxing masks need.  Membership of a single pattern is the walk
pinned to it (``decorate``), which raises at the first entry out of bounds.
``walk_plan`` builds the walk's set-up once per crystal, and the walk's
one-row mode fills a single row from the packed weight of the rows above it.
Its fillings depend on that weight only through the fields the row reads,
which the plan records per row, so ``series`` sums a crystal forward a row
at a time and walks each row once per distinct set of them.

A decorated pattern is a pattern with its masks.  An entry is circled when it
sits on its cone hyperplane (the row-chain lower bound is tight) and boxed
when it sits on its polytope hyperplane (the highest-weight upper bound is
tight).  An entry may carry both marks; the coefficient rules send that case
to zero.  Those rules, including the type-D partition of each row into
components, live in ``coefficients``.
"""
from __future__ import annotations

from itertools import accumulate, chain
from typing import Callable, Iterator, NamedTuple

from .coefficients import _integer
from .roots import (CartanSpec, RootSystem, _highest_weight, build_root_system,
                    long_word_blocks)
from .weightpoly import Weight, WeightCodec, weight_codec


def pattern_shape(spec: CartanSpec) -> list[int]:
    """Row lengths, top row first: row i holds the strings along the block
    i-th from the end of the long word."""
    return [len(block) for block in reversed(long_word_blocks(spec))]


class _PatternFields(NamedTuple):
    spec: CartanSpec
    rows: tuple[tuple[int, ...], ...]


class LittelmannPattern(_PatternFields):
    """A pattern's rows, checked against the spec's shape, and for integer,
    nonnegative entries, on every construction: by call, ``_make`` and
    ``_replace``."""
    __slots__ = ()

    def __new__(cls, spec: CartanSpec, rows: tuple[tuple[int, ...], ...]):
        shape = pattern_shape(spec)
        if [len(row) for row in rows] != shape:
            raise ValueError(f"rows do not fit the {spec} shape {shape}")
        low = min((_integer("pattern entry", v) for v in chain.from_iterable(rows)),
                  default=0)
        if low < 0:
            raise ValueError("pattern entries must be nonnegative")
        return super().__new__(cls, spec, rows)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def entries(self) -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(self.rows, start=1):
            for off, v in enumerate(row):
                yield i, i + off, v

    def to_text(self) -> str:
        """Pattern text: rows separated by ';', entries by ','."""
        return ";".join(",".join(map(str, row)) for row in self.rows)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _slot_cone(spec: CartanSpec, i: int, j: int, n: int) -> tuple[int, int, int, int]:
    """The cone's lower bound on slot (i, j) of a row of n entries, as
    ``(a, b, up, down)``: the larger of the row's entries at offsets a and b
    times up/down.  The right neighbour bounds a slot, doubled at B's column
    r and halved at B's column r-1; D's column r-2 takes the larger of the
    central pair r-1, r, which are incomparable, so D's column r-1 is bounded
    one entry over, by column r+1.  An entry past the row end reads 0, so
    such a bound is (0, 0, 0, 1)."""
    r, fam = spec.rank, spec.family
    a = b = j + 1 - i
    up, down = 1, 1
    if fam == "B" and j == r:
        up = 2
    elif fam == "B" and j == r - 1:
        down = 2
    elif fam == "D" and j == r - 2:
        b += 1
    elif fam == "D" and j == r - 1:
        a = b = a + 1
    if b >= n:
        return 0, 0, 0, 1
    return a, b, up, down


class WalkPlan(NamedTuple):
    """The slot walk's set-up for one crystal, built once by ``walk_plan``
    and shared by every walk over it.  Walks on one plan share its row
    buffers, so two walks that place entries in the same row must not be
    interleaved.

    Each frame holds a slot's position, its row's buffers and its offset in
    the row, the field shift and packed root of its column letter, and its
    cone ``(a, b, up, down)`` from ``_slot_cone``.

    ``reads[i - 1]`` masks the packed-weight fields that the slots of rows
    i and below read, those of their column letters.  Row i reads letters
    1..r-i+1 in every family, so that is row i's own fields: the key under
    which ``series`` caches row i's fillings."""
    codec: WeightCodec
    top: int                          # the highest weight, packed
    buffers: tuple[list, list, list]  # rows, circled and boxed marks
    frames: list                      # one per slot, in enumeration order
    starts: tuple[int, ...]           # row i's slots are frames[starts[i-1]:starts[i]]
    reads: tuple[int, ...]            # reads[i-1]: the weight fields rows >= i read


def walk_plan(spec: CartanSpec, lam: Weight) -> WalkPlan:
    """Codec, row buffers and per-slot frames of the walk over the crystal of
    ``lam``, which must be dominant, as the codec's bound requires; otherwise
    ValueError."""
    lam = _highest_weight(spec, lam)
    shape = pattern_shape(spec)
    rows = [[0] * n for n in shape]
    circled = [[False] * n for n in shape]
    boxed = [[False] * n for n in shape]
    codec = weight_codec(lam, build_root_system(spec).cartan)
    frames = []
    for i, block in enumerate(reversed(long_word_blocks(spec)), start=1):
        for off in range(len(block) - 1, -1, -1):
            c, j = block[off] - 1, i + off
            frames.append((i, j, rows[i - 1], circled[i - 1], boxed[i - 1], off, c * codec.width,
                           codec.roots[c], _slot_cone(spec, i, j, len(block))))
    starts = tuple(accumulate(shape, initial=0))
    # a slot's upper bound reads the field of its column letter, and nothing
    # else of the weight: gather those fields from the bottom row up
    reads = [0] * (len(shape) + 1)
    for i, _, _, _, _, _, shift, _, _ in reversed(frames):
        reads[i - 1] |= reads[i] | codec.mask << shift
    return WalkPlan(codec, codec.pack(lam), (rows, circled, boxed), frames, starts,
                    tuple(reads[:-1]))


def _walk(plan: WalkPlan, pinned: tuple[tuple[int, ...], ...] | None = None,
          factor: Callable | None = None, row: int | None = None,
          wt: int | None = None) -> Iterator[tuple[list, list, list, int, object]]:
    """The slot walk: the one place that evaluates the bounds of a slot.

    Slots are visited in frame order, the reverse of the long word, and
    the walk carries the weight lam - sum v * alpha(letter) of the
    entries already placed, packed into one int by the plan's codec: placing
    v subtracts v times its packed root.  Each node evaluates the slot's cone
    bound from its row buffer at the frame's offsets and scale, rounded up
    to the lower bound, and reads its polytope upper bound off that weight:
    the field of the slot's column letter, through the codec's mask and
    bias.  Every value placed there records its marks: circled when it
    equals the cone bound (so never under a bound of a half, as B's column
    r-1 has when a(i, r) is odd), boxed when it equals the upper bound.  Each leaf yields the plan's shared
    ``(rows, circled, boxed)`` buffers, which change when the walk resumes,
    so a consumer copies what it keeps, followed by the leaf's packed weight
    (an int key; the codec's ``decode`` gives the weight) and coefficient.

    Without ``factor`` every leaf's coefficient is 1.  With it, a slot table
    (``coefficients.slot_table``), the coefficient is the product of the
    leaf's slot factors in the table's ring, carried as a prefix product
    from the table's ``one``: every value placed at
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
    mask, bias = plan.codec.mask, plan.codec.bias
    if row is None:
        frames, wt = plan.frames, plan.top
    else:
        frames = plan.frames[plan.starts[row - 1]:plan.starts[row]]
    rows, circled, boxed = plan.buffers
    last = len(frames) - 1
    # the stack, one entry per slot of the current path: the values still to
    # try with the bounds they are marked against, and the weight and
    # coefficient of the entries placed before the slot
    tries: list = [None] * len(frames)
    wts = [wt] * len(frames)
    accs = [1 if factor is None else factor.one] * len(frames)
    k = 0
    while k >= 0:
        i, j, vals, crow, brow, off, shift, drop, (a, b, up, down) = frames[k]
        wt = wts[k]
        if tries[k] is None:  # first visit: evaluate the slot's bounds
            # the cone's bound, rounded up for lo; a half is tight for no
            # integer, and its floor falls below lo, so it circles nothing
            x, y = vals[a], vals[b]
            bound = up * (x if x >= y else y)
            lo, tight = -(-bound // down), bound // down
            hi = (wt >> shift & mask) - bias
            if pinned is None:
                first, top = lo, hi
            else:
                first = top = pinned[i - 1][off]
                if not lo <= first <= hi:
                    raise ValueError(f"entry {first} at {(i, j)} lies outside the "
                                     f"highest-weight polytope (bounds {lo}..{hi})")
            tries[k] = iter(range(first, top + 1)), tight, hi
        it, tight, hi = tries[k]
        acc = accs[k]
        for v in it:
            vals[off] = v
            crow[off] = v == tight
            brow[off] = v == hi
            if factor is None:
                child = acc
            else:
                f = factor(i, j, vals, crow, brow)
                if not f:
                    continue
                child = acc * f
            if k == last:
                yield rows, circled, boxed, wt - v * drop, child
            else:
                k += 1
                wts[k], accs[k] = wt - v * drop, child
                break
        else:  # every value tried: clear the slot and go back up
            vals[off] = 0
            tries[k] = None
            k -= 1


def _freeze(rows: list[list]) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in rows)


def enumerate_patterns(rs: RootSystem, lam: Weight) -> Iterator[LittelmannPattern]:
    """All patterns of the highest-weight crystal, each exactly once: the
    patterns of ``decorated_crystal``, in its order.

    Deterministic order: lexicographic in the slot sequence of the walk
    plan's frames (rows top to bottom, right to left), values ascending.
    """
    return (dp.pattern for dp in decorated_crystal(rs, lam))


# ---------------------------------------------------------------------------
# Decorations
# ---------------------------------------------------------------------------

class DecoratedPattern(NamedTuple):
    pattern: LittelmannPattern
    circled: tuple[tuple[bool, ...], ...]
    boxed: tuple[tuple[bool, ...], ...]

    def is_circled(self, i: int, j: int) -> bool:
        return self.circled[i - 1][j - i]

    def is_boxed(self, i: int, j: int) -> bool:
        return self.boxed[i - 1][j - i]


def decorate(L: LittelmannPattern, lam: Weight) -> DecoratedPattern:
    """Attach circling/boxing masks for a pattern inside the ``lam`` polytope.

    Runs the enumeration walk pinned to ``L``: one bound evaluation per
    entry, and ValueError at the first entry outside the polytope.
    """
    ((_, circled, boxed, _, _),) = _walk(walk_plan(L.spec, lam), pinned=L.rows)
    return DecoratedPattern(L, _freeze(circled), _freeze(boxed))


def decorated_crystal(rs: RootSystem, lam: Weight) -> Iterator[DecoratedPattern]:
    """Every pattern of the highest-weight crystal, decorated, in enumeration
    order; the masks are read off the bounds the enumeration walk already
    evaluated."""
    spec = rs.spec
    for rows, circled, boxed, _, _ in _walk(walk_plan(spec, lam)):
        yield DecoratedPattern(LittelmannPattern(spec, _freeze(rows)), _freeze(circled),
                               _freeze(boxed))


def render(dp: DecoratedPattern) -> str:
    """Fixed-width grid with (x) for circled, [x] for boxed, [(x)] for both."""
    cells: list[list[str]] = []
    for row, crow, brow in zip(dp.pattern.rows, dp.circled, dp.boxed):
        line = []
        for v, circled, boxed in zip(row, crow, brow):
            tok = f"({v})" if circled else str(v)
            line.append(f"[{tok}]" if boxed else tok)
        cells.append(line)
    width = max(len(tok) for line in cells for tok in line)
    lines = []
    for i, line in enumerate(cells):
        pad = " " * (i * (width + 1))
        lines.append(pad + " ".join(tok.rjust(width) for tok in line))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Weights of patterns
# ---------------------------------------------------------------------------

def rows_weight(spec: CartanSpec, rows) -> tuple[int, ...]:
    """Column sums grouped by edge color: component k counts the climbing
    steps along the k-th simple root.  ``rows`` are taken as they are, row i
    read along the letters of its block; nothing is validated."""
    s = [0] * spec.rank
    for row, block in zip(rows, reversed(long_word_blocks(spec))):
        for v, c in zip(row, block):
            s[c - 1] += v
    return tuple(s)


def pattern_wt(L: LittelmannPattern, lam: Weight) -> Weight:
    """Crystal weight of the pattern: lam minus the counted simple roots,
    in fundamental-weight coordinates; ``lam`` is checked as a highest
    weight of the pattern's rank."""
    rs = build_root_system(L.spec)
    s = rows_weight(L.spec, L.rows)
    lam = _highest_weight(L.spec, lam)
    return tuple(lam[i] - sum(s[k] * rs.cartan[i][k] for k in range(rs.rank))
                 for i in range(rs.rank))
