import itertools
import math
import random

import pytest

from crystalmds import (CartanSpec, LittelmannPattern, build_root_system,
                        character_dimension, decorate,
                        enumerate_patterns, nice_long_word, pattern_shape, pattern_wt,
                        branch_decompose, weyl_character, weyl_dimension)
from crystalmds.patterns import _freeze, _walk, decorated_crystal, rows_weight, walk_plan
from crystalmds.roots import _MIN_RANK, long_word_blocks
from crystalmds.series import character_via_patterns
from crystalmds.weightpoly import weight_codec
from oracles import (_row_spans, chain_lower_bound, demazure_product, from_text, greedy_bound,
                     long_word, oracle_masks, prefix_weights, string_fill_slots, word_positions)

SMALL_SPECS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
               ("C", 2), ("C", 3), ("D", 3), ("D", 4)]


def rs(family, rank):
    return build_root_system(CartanSpec(family, rank))


def P(family, rank, rows):
    return LittelmannPattern(CartanSpec(family, rank), tuple(tuple(r) for r in rows))


def walk_accepts(L, lam):
    """Membership by the walk: decorate raises at the first entry outside
    the polytope."""
    try:
        decorate(L, lam)
    except ValueError:
        return False
    return True


def oracle_member(L, lam):
    return oracle_masks(L.spec.family, L.spec.rank, L.rows, lam)[0]


# ---------------------------------------------------------------------------
# shapes and accessors
# ---------------------------------------------------------------------------

def test_shapes():
    assert pattern_shape(CartanSpec("A", 3)) == [3, 2, 1]
    assert pattern_shape(CartanSpec("C", 2)) == [3, 1]
    assert pattern_shape(CartanSpec("D", 3)) == [4, 2]
    assert pattern_shape(CartanSpec("B", 3)) == [5, 3, 1]


@pytest.mark.parametrize("family,rank", SMALL_SPECS)
def test_shape_total_is_positive_root_count(family, rank):
    spec = CartanSpec(family, rank)
    assert sum(pattern_shape(spec)) == spec.positive_root_count()


@pytest.mark.parametrize("family", "ABCD")
def test_layout_matches_the_string_path(family):
    # the oracle states the layout as row spans and a string path, bottom
    # row first, whose h-th slot is the string along the h-th letter of its
    # own copy of the long word
    for rank in range(_MIN_RANK[family], 13):
        spec = CartanSpec(family, rank)
        spans = _row_spans(family, rank)
        path = string_fill_slots(family, rank)
        word = long_word(family, rank)
        letter = dict(zip(path, word))
        assert nice_long_word(spec) == tuple(word), rank
        assert pattern_shape(spec) == [last - first + 1 for _, (first, last)
                                       in sorted(spans.items())], rank
        # a flat column has one letter, in row 1 and every row below
        plan = walk_plan(spec, (1,) * rank)
        assert [frame[:2] for frame in plan.frames] == path[::-1], rank
        assert [frame[6] for frame in plan.frames] == \
            [(letter[slot] - 1) * plan.codec.width for slot in path[::-1]], rank


def test_shape_validation():
    with pytest.raises(ValueError):
        P("A", 2, [[1, 2, 3], [1]])
    with pytest.raises(ValueError):
        P("A", 2, [[1, -1], [0]])


def test_text_round_trip():
    L = P("A", 2, [[1, 0], [0]])
    assert L.to_text() == "1,0;0"
    assert from_text(CartanSpec("A", 2), "1,0;0") == L


# ---------------------------------------------------------------------------
# cone
# ---------------------------------------------------------------------------

def test_cone_examples():
    def cone(L):
        return all(v >= chain_lower_bound(L.spec.family, L.spec.rank, L.rows, (i, j))
                   for i, j, v in L.entries())

    examples = [
        (P("A", 2, [[0, 0], [0]]), True),
        (P("A", 2, [[1, 2], [0]]), False),
        # doubled comparisons around the middle entry: 2*1 >= 2 and 2 >= 2*0
        (P("B", 2, [[1, 2, 0], [0]]), True),
        (P("B", 2, [[1, 3, 0], [0]]), False),
        # the two central entries of a type-D row are unconstrained against
        # each other
        (P("D", 3, [[2, 0, 2, 0], [0, 1]]), True),
    ]
    for L, holds in examples:
        assert cone(L) == holds, L.to_text()
        # no upper bound binds at this weight, so the walk rejects exactly
        # the cone violations, at the first entry read
        lam = (6,) * L.spec.rank
        assert all(v <= greedy_bound(L.spec.family, L.spec.rank, L.rows, lam, (i, j))
                   for i, j, v in L.entries())
        assert walk_accepts(L, lam) == holds, L.to_text()
    with pytest.raises(ValueError, match=r"entry 1 at \(1, 1\) .*bounds 2\.\.8"):
        decorate(P("A", 2, [[1, 2], [0]]), (6, 6))


@pytest.mark.parametrize("family", "ABCD")
def test_plan_cone_is_the_chain_bound(family):
    # each frame's cone, evaluated on random rows as the walk evaluates it:
    # lo is the oracle's chain bound rounded up; tight is that bound when it
    # is an integer, and lies below lo, circling nothing, when it is a half
    rng = random.Random(28)
    halves = {0: 0, 1: 0}
    for rank in range(max(2, _MIN_RANK[family]), 9):
        spec = CartanSpec(family, rank)
        plan = walk_plan(spec, (1,) * rank)
        for _ in range(30):
            rows = [[rng.randrange(6) for _ in range(n)] for n in pattern_shape(spec)]
            for i, j, _, _, _, _, _, _, (a, b, up, down) in plan.frames:
                row = rows[i - 1]
                bound = up * max(row[a], row[b])
                lo, tight = -(-bound // down), bound // down
                want = chain_lower_bound(family, rank, rows, (i, j))
                assert lo == math.ceil(want), (rank, rows, i, j)
                if want == int(want):
                    assert tight == want, (rank, rows, i, j)
                else:
                    assert tight < lo, (rank, rows, i, j)
                if family == "B" and j == rank - 1:
                    halves[row[rank - i] % 2] += 1
    if family == "B":
        assert halves[0] and halves[1]


# ---------------------------------------------------------------------------
# polytope bounds
# ---------------------------------------------------------------------------

def test_bound_rank_one():
    for m in (0, 1, 5):
        assert greedy_bound("A", 1, [[0]], (m,), (1, 1)) == m
        assert decorate(P("A", 1, [[m]]), (m,)).is_boxed(1, 1)
        with pytest.raises(ValueError, match=f"bounds 0\\.\\.{m}"):
            decorate(P("A", 1, [[m + 1]]), (m,))


def test_bound_a2_zero_pattern():
    assert greedy_bound("A", 2, [[0, 0], [0]], (1, 1), (1, 2)) == 1
    # (1, 2) is the first slot the walk reads, so its bound is lam's first
    # coordinate whatever the other entries are
    assert decorate(P("A", 2, [[1, 1], [0]]), (1, 1)).is_boxed(1, 2)
    assert not decorate(P("A", 2, [[0, 0], [0]]), (1, 1)).is_boxed(1, 2)
    with pytest.raises(ValueError, match=r"at \(1, 2\)"):
        decorate(P("A", 2, [[2, 2], [0]]), (1, 1))


def test_bound_d3_central_columns():
    # column r-1 carries the first fundamental coordinate, column r the
    # second (matching the letters of the long word)
    zero = [[0, 0, 0, 0], [0, 0]]
    for lam, bounds in (((1, 0, 0), (1, 0)), ((0, 1, 0), (0, 1))):
        got = tuple(greedy_bound("D", 3, zero, lam, (1, j)) for j in (2, 3))
        assert got == bounds
        dp = decorate(P("D", 3, zero), lam)
        assert (dp.is_boxed(1, 2), dp.is_boxed(1, 3)) == (not bounds[0], not bounds[1])
    assert decorate(P("D", 3, [[1, 1, 0, 0], [0, 0]]), (1, 0, 0)).is_boxed(1, 2)
    with pytest.raises(ValueError, match=r"at \(1, 3\)"):
        decorate(P("D", 3, [[0, 0, 1, 0], [0, 0]]), (1, 0, 0))


@pytest.mark.parametrize("family,rank", SMALL_SPECS)
def test_bounds_match_string_oracle(family, rank):
    # membership by the walk (decorate) against the oracle cone and greedy
    # bounds, on random patterns and on members of the crystal
    rng = random.Random(f"{family}{rank}")  # str seeds are not salted per process
    spec = CartanSpec(family, rank)
    shape = pattern_shape(spec)
    outcomes = set()
    for _ in range(40):
        rows = [[rng.randrange(0, 5) for _ in range(n)] for n in shape]
        L = LittelmannPattern(spec, tuple(tuple(r) for r in rows))
        lam = tuple(rng.randrange(0, 4) for _ in range(rank))
        member = oracle_member(L, lam)
        assert walk_accepts(L, lam) == member, (L.to_text(), lam)
        outcomes.add(member)
    lam = (1,) * rank
    members = list(enumerate_patterns(rs(family, rank), lam))
    for L in rng.sample(members, min(20, len(members))):
        assert oracle_member(L, lam) and walk_accepts(L, lam), L.to_text()
        outcomes.add(True)
    assert outcomes == {True, False}


@pytest.mark.parametrize("call", [
    lambda L: decorate(L, (1, 1, 5)),
    lambda L: decorate(L, (1,)),
    lambda L: weyl_dimension(rs("A", 2), (1, 0, 7)),
    lambda L: weyl_dimension(rs("A", 2), (1,)),
    lambda L: pattern_wt(L, (1, 1, 5)),
    lambda L: pattern_wt(L, (1,)),
], ids=["decorate-long", "decorate-short", "dimension-long", "dimension-short",
        "pattern-wt-long", "pattern-wt-short"])
def test_wrong_rank_highest_weight_rejected(call):
    # a weight with the wrong number of coordinates is an error, not a weight
    # read short, padded or cut to the rank
    with pytest.raises(ValueError, match="coordinates, rank is 2"):
        call(P("A", 2, [[0, 0], [0]]))


@pytest.mark.parametrize("call", [
    lambda: decorate(P("A", 2, [[0, 0], [0]]), (2, -1)),
    lambda: list(enumerate_patterns(rs("B", 2), (-1, 3))),
    lambda: list(decorated_crystal(rs("D", 3), (0, 2, -1))),
    lambda: pattern_wt(P("A", 2, [[0, 0], [0]]), (2, -1)),
], ids=["decorate", "enumerate", "decorated-crystal", "pattern-wt"])
def test_walk_rejects_non_dominant_highest_weight(call):
    # the packed weights are proven to fit their fields for dominant lambda
    # only, so the walk accepts no other
    with pytest.raises(ValueError, match="dominant"):
        call()


def test_polytope_satisfied_examples():
    assert oracle_member(P("A", 1, [[2]]), (2,)) and walk_accepts(P("A", 1, [[2]]), (2,))
    assert not oracle_member(P("A", 1, [[3]]), (2,))
    assert not walk_accepts(P("A", 1, [[3]]), (2,))
    for family, rank in SMALL_SPECS:
        spec = CartanSpec(family, rank)
        zero = LittelmannPattern(spec, tuple(tuple([0] * n) for n in pattern_shape(spec)))
        assert oracle_member(zero, (1,) * rank) and walk_accepts(zero, (1,) * rank)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_zero_weight():
    r = rs("B", 2)
    got = list(enumerate_patterns(r, (0, 0)))
    assert len(got) == 1 and all(v == 0 for _, _, v in got[0].entries())


def test_enumerate_rank_one():
    r = rs("A", 1)
    for m in range(5):
        got = list(enumerate_patterns(r, (m,)))
        assert [L.rows[0][0] for L in got] == list(range(m + 1))


def test_enumerate_a2_adjoint():
    assert sum(1 for _ in enumerate_patterns(rs("A", 2), (1, 1))) == 8


@pytest.mark.parametrize("family,rank", SMALL_SPECS)
def test_enumeration_counts_and_membership(family, rank):
    r = rs(family, rank)
    for lam in itertools.product((0, 1, 2), repeat=rank):
        dim = weyl_dimension(r, lam)
        if dim > 150:
            continue
        seen = set()
        for L in enumerate_patterns(r, lam):
            assert oracle_member(L, lam), (L.to_text(), lam)
            assert L.rows not in seen
            seen.add(L.rows)
        assert len(seen) == dim


def test_enumeration_deterministic_and_ordered():
    # branch_decompose groups and export's patterns.txt rely on this order:
    # lexicographic in the slot sequence, values ascending, no repeats
    for family, rank, lam in [("C", 2, (2, 1)), ("A", 3, (1, 2, 1)),
                              ("B", 3, (1, 1, 1)), ("D", 4, (1, 1, 1, 1))]:
        r = rs(family, rank)
        runs = [[L.rows for L in enumerate_patterns(r, lam)] for _ in range(2)]
        assert runs[0] == runs[1]
        slots = [frame[:2] for frame in walk_plan(r.spec, lam).frames]
        keys = [tuple(rows[i - 1][j - i] for i, j in slots) for rows in runs[0]]
        assert keys == sorted(set(keys)), (family, rank, lam)
        assert len(keys) == weyl_dimension(r, lam)


def test_walk_large_rank():
    # the walk holds one frame for all 1275 slots of A50, so rank meets no
    # recursion limit; the standard representation has 51 patterns
    r = rs("A", 50)
    lam = (1,) + (0,) * 49
    patterns = list(enumerate_patterns(r, lam))
    assert len(patterns) == 51 == len(set(L.rows for L in patterns))
    assert decorate(patterns[-1], lam) == list(decorated_crystal(r, lam))[-1]


@pytest.mark.parametrize("family,rank,lam", [("A", 3, (2, 1, 2)), ("B", 3, (1, 1, 1)),
                                             ("C", 3, (2, 1, 1)), ("D", 4, (1, 1, 1, 1))])
def test_row_walks_chain_to_the_full_walk(family, rank, lam):
    # the one-row mode, started from the weight at which each filling of the
    # row above ends, meets every leaf of the full walk in the same order,
    # with the same entries, marks and weight
    plan = walk_plan(CartanSpec(family, rank), lam)
    last = len(plan.starts) - 1

    def chain(i, wt, above):
        for rows, circled, boxed, w, _ in _walk(plan, row=i, wt=wt):
            here = above + ((tuple(rows[i - 1]), tuple(circled[i - 1]), tuple(boxed[i - 1])),)
            yield from chain(i + 1, w, here) if i < last else [(here, w)]

    full = [(tuple(zip(_freeze(rows), _freeze(circled), _freeze(boxed))), w)
            for rows, circled, boxed, w, _ in _walk(plan)]
    assert list(chain(1, plan.top, ())) == full
    assert len(full) == weyl_dimension(rs(family, rank), lam)


@pytest.mark.parametrize("family", "ABCD")
def test_each_row_reads_the_fields_of_the_rows_below(family):
    # row i reads the fields of letters 1..r-i+1 and no others, in every
    # family: so rows i and below read exactly row i's own fields, the key
    # of row i's fillings in the row sums
    for rank in range(3, 9):
        spec = CartanSpec(family, rank)
        plan = walk_plan(spec, (1,) * rank)
        w = plan.codec.width
        for i, mask in enumerate(plan.reads, start=1):
            frames = plan.frames[plan.starts[i - 1]:plan.starts[i]]
            own = {frame[6] // w + 1 for frame in frames}
            assert own == set(range(1, rank - i + 2)), (rank, i)
            assert mask == sum(((1 << w) - 1) << (c - 1) * w for c in own), (rank, i)


def test_monotone_inclusion_in_lambda():
    r = rs("B", 2)
    for lam in [(0, 0), (1, 0), (1, 1)]:
        base = {L.rows for L in enumerate_patterns(r, lam)}
        for k in range(2):
            bigger = tuple(c + int(i == k) for i, c in enumerate(lam))
            sup = {L.rows for L in enumerate_patterns(r, bigger)}
            assert base <= sup


def test_top_rows_match_enumeration():
    # the branching groups partition the crystal, in enumeration order
    for family, rank, lam in [("A", 2, (1, 1)), ("A", 3, (1, 2, 1)),
                              ("B", 3, (1, 1, 1)), ("C", 3, (1, 0, 1))]:
        r = rs(family, rank)
        groups = branch_decompose(r, lam, 1).groups
        first_seen = list(dict.fromkeys(L.rows[0] for L in enumerate_patterns(r, lam)))
        assert [g.top_row for g in groups] == first_seen
        assert sum(g.size for g in groups) == weyl_dimension(r, lam)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_pattern_weight_zero():
    for family, rank in SMALL_SPECS:
        spec = CartanSpec(family, rank)
        zero = LittelmannPattern(spec, tuple(tuple([0] * n) for n in pattern_shape(spec)))
        assert rows_weight(spec, zero.rows) == (0,) * rank
        assert pattern_wt(zero, (1,) * rank) == (1,) * rank


def test_pattern_weight_a2():
    L = P("A", 2, [[1, 0], [0]])
    assert rows_weight(L.spec, L.rows) == (0, 1)
    r = rs("A", 2)
    alpha2 = [row[1] for row in r.cartan]  # column 2 of the Cartan matrix
    assert pattern_wt(L, (1, 1)) == tuple(1 - a for a in alpha2)


def test_pattern_weight_d3():
    L = P("D", 3, [[0, 1, 0, 0], [0, 0]])
    assert rows_weight(L.spec, L.rows) == (1, 0, 0)


def test_character_via_weights_small():
    r = rs("C", 2)
    lam = (1, 1)
    table = {}
    for L in enumerate_patterns(r, lam):
        w = pattern_wt(L, lam)
        table[w] = table.get(w, 0) + 1
    chi = weyl_character(r, lam)
    assert table == {w: c.monomials()[0][0] for w, c in chi.terms.items()}


# ---------------------------------------------------------------------------
# Demazure prefixes of the long word (ROADMAP item 20)
# ---------------------------------------------------------------------------

def test_word_positions_cover_the_long_word():
    for family, rank in SMALL_SPECS:
        spec = CartanSpec(family, rank)
        positions = word_positions(spec)
        assert list(map(len, positions)) == pattern_shape(spec)
        assert sorted(p for span in positions for p in span) == list(
            range(len(nice_long_word(spec))))
        for span, block in zip(positions, reversed(long_word_blocks(spec))):
            assert tuple(nice_long_word(spec)[p] for p in span) == block


def _first_difference(a, b):
    return min(w for w in a.keys() | b.keys() if a[w] != b[w])


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 3, (2, 1, 2)), ("A", 4, (1, 2, 1, 1)), ("B", 2, (2, 3)), ("B", 3, (1, 1, 1)),
    ("C", 3, (2, 1, 1)), ("D", 3, (2, 1, 2)), ("D", 4, (1, 1, 1, 1)),
    ("D", 4, (2, 1, 1, 1))])
def test_prefix_patterns_are_demazure_crystals(family, rank, lam):
    # Littelmann's string parametrization along i_1 ... i_N: the patterns
    # with no nonzero entry past the first k letters are the Demazure crystal
    # of s_{i_1} ... s_{i_k} (Kashiwara), whose character is
    # pi_{i_1}(...pi_{i_k}(x^lam)) by the Demazure character formula
    r = rs(family, rank)
    word = nice_long_word(r.spec)
    prefixes = prefix_weights(r, lam)
    for k, found in enumerate(prefixes):
        expected = demazure_product(r, lam, word[:k][::-1])
        assert found == expected, (k, _first_difference(found, expected))
    # the check has teeth: with i_1 applied first, an interior k disagrees
    assert any(prefixes[k] != demazure_product(r, lam, word[:k])
               for k in range(1, len(word)))


# ---------------------------------------------------------------------------
# packed weights
# ---------------------------------------------------------------------------

# one lopsided highest weight per family: a single large coordinate puts the
# walk's and the Demazure tables' weights far out along one field
LOPSIDED = [("A", 1, (1000,)), ("A", 2, (40, 1)), ("B", 2, (1, 30)),
            ("C", 2, (30, 1)), ("D", 3, (1, 1, 25))]


@pytest.mark.parametrize("family,rank,lam", LOPSIDED)
def test_weight_codec_round_trip_at_bound(family, rank, lam):
    # every coordinate at -2 * sum(lam), 0 or 2 * sum(lam) packs and decodes
    # back, one at a time and all at once, reads back field by field, and
    # steps by the packed simple roots
    r = rs(family, rank)
    codec = weight_codec(lam, r.cartan)
    bound = 2 * sum(lam)
    grid = list(itertools.product((-bound, -1, 0, 1, bound), repeat=rank))
    assert list(codec.decode_all([codec.pack(w) for w in grid])) == grid
    for w in grid:
        x = codec.pack(w)
        assert codec.decode(x) == w
        assert [(x >> i * codec.width & codec.mask) - codec.bias
                for i in range(rank)] == list(w)
        for root, alpha in zip(codec.roots, zip(*r.cartan)):
            step = tuple(a - b for a, b in zip(w, alpha))
            if all(abs(c) <= bound for c in step):
                assert codec.decode(x - root) == step


@pytest.mark.parametrize("family,rank,lam", LOPSIDED)
def test_walk_leaf_weights_decode_to_pattern_wt(family, rank, lam):
    r = rs(family, rank)
    decode = weight_codec(lam, r.cartan).decode
    count = 0
    for rows, _, _, w, _ in _walk(walk_plan(r.spec, lam)):
        L = LittelmannPattern(r.spec, _freeze(rows))
        assert decode(w) == pattern_wt(L, lam), L.to_text()
        count += 1
    assert count == weyl_dimension(r, lam)


@pytest.mark.parametrize("family,rank,lam", LOPSIDED)
def test_lopsided_characters_agree(family, rank, lam):
    r = rs(family, rank)
    chi = weyl_character(r, lam)
    assert chi == character_via_patterns(r, lam)
    assert character_dimension(chi) == weyl_dimension(r, lam)
