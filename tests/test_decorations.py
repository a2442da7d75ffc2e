import itertools
from fractions import Fraction

import pytest

from crystalmds import (CartanSpec, LittelmannPattern,
                        build_root_system, decorate, enumerate_patterns,
                        pattern_shape, render, row_components, weyl_dimension)
from crystalmds.decorations import decorated_crystal
from crystalmds.verification import CHARACTER_BATTERY
from oracles import chain_lower_bound, oracle_masks


def P(family, rank, rows):
    return LittelmannPattern(CartanSpec(family, rank), tuple(tuple(r) for r in rows))


def zero_pattern(family, rank):
    spec = CartanSpec(family, rank)
    return LittelmannPattern(spec, tuple(tuple([0] * n) for n in pattern_shape(spec)))


# ---------------------------------------------------------------------------
# circling bounds
# ---------------------------------------------------------------------------

def test_row_end_bound_is_zero():
    rows = [[3, 1], [2]]
    assert chain_lower_bound("A", 2, rows, (1, 2)) == 0
    assert chain_lower_bound("A", 2, rows, (2, 2)) == 0
    # the walk circles a row end exactly when it is 0
    assert decorate(P("A", 2, rows), (1, 2)).circled == ((False, False), (False,))
    assert decorate(P("A", 2, [[3, 0], [0]]), (1, 3)).circled == ((False, True), (True,))


def test_b2_middle_bounds():
    rows = [[0, 2, 1], [0]]
    assert chain_lower_bound("B", 2, rows, (1, 2)) == 2       # doubled right neighbour
    assert chain_lower_bound("B", 2, rows, (1, 1)) == Fraction(1)  # half the middle
    # 0 < 2/2, so the walk stops at (1, 1); raising it to the half circles it
    with pytest.raises(ValueError, match=r"entry 0 at \(1, 1\) .*bounds 1\."):
        decorate(P("B", 2, rows), (6, 6))
    dp = decorate(P("B", 2, [[1, 2, 1], [0]]), (0, 1))
    assert dp.is_circled(1, 2) and dp.is_circled(1, 1)


def test_d3_fork_bound():
    rows = [[3, 1, 2, 0], [0, 0]]
    assert chain_lower_bound("D", 3, rows, (1, 1)) == 2       # max of the central pair
    assert chain_lower_bound("D", 3, rows, (1, 2)) == 0       # skips over the other centre
    assert chain_lower_bound("D", 3, rows, (1, 3)) == 0
    assert decorate(P("D", 3, rows), (1, 2, 0)).circled[0] == (False, False, False, True)
    # (1, 1) meets the larger central entry; (1, 2) = 1 is not circled
    # against (1, 3) = 2, which it is not compared with
    dp = decorate(P("D", 3, [[2, 1, 2, 0], [0, 0]]), (1, 2, 0))
    assert dp.circled[0] == (True, False, False, True)
    with pytest.raises(ValueError, match=r"at \(1, 1\)"):
        decorate(P("D", 3, [[1, 1, 2, 0], [0, 0]]), (6, 6, 6))


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def test_zero_pattern_fully_circled_unboxed():
    for family, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]:
        Z = zero_pattern(family, rank)
        dp = decorate(Z, (1,) * rank)
        for i, j, _ in Z.entries():
            assert dp.is_circled(i, j) and not dp.is_boxed(i, j)


def test_rank_one_decorations():
    dp = decorate(P("A", 1, [[2]]), (2,))
    assert dp.is_boxed(1, 1) and not dp.is_circled(1, 1)
    dp = decorate(P("A", 1, [[1]]), (1,))
    assert dp.is_boxed(1, 1) and not dp.is_circled(1, 1)
    dp = decorate(P("A", 1, [[0]]), (1,))
    assert dp.is_circled(1, 1) and not dp.is_boxed(1, 1)


def test_circled_and_boxed_possible():
    dp = decorate(P("A", 1, [[0]]), (0,))
    assert dp.is_circled(1, 1) and dp.is_boxed(1, 1)


def test_decorate_rejects_outside_polytope():
    with pytest.raises(ValueError):
        decorate(P("A", 1, [[3]]), (2,))
    with pytest.raises(ValueError):  # cone: 1 < 3/2, half the middle entry
        decorate(P("B", 2, [[1, 3, 0], [0]]), (2, 2))


def test_b_factor_two_circling():
    # middle circled when exactly twice its barred neighbour
    dp = decorate(P("B", 2, [[1, 2, 1], [0]]), (2, 2))
    assert dp.is_circled(1, 2)       # 2 == 2*1
    assert dp.is_circled(1, 1)       # 2*1 == 2
    dp = decorate(P("B", 2, [[1, 1, 0], [0]]), (2, 2))
    assert not dp.is_circled(1, 1)   # 2*1 != 1


def test_walk_masks_match_decorate_and_definitions():
    # the masks p_part reads off the enumeration walk, against the pinned walk
    # (decorate) and against the oracle bounds
    odd_halved = 0
    for family, rank in CHARACTER_BATTERY + (("D", 3),):
        rs = build_root_system(CartanSpec(family, rank))
        for lam in itertools.product(range(3), repeat=rank):
            if weyl_dimension(rs, lam) > 400:
                continue
            for dp in decorated_crystal(rs, lam):
                L = dp.pattern
                ref = decorate(L, lam)
                assert (dp.circled, dp.boxed) == (ref.circled, ref.boxed), L.to_text()
                assert oracle_masks(family, rank, L.rows, lam) == \
                    (True, dp.circled, dp.boxed), L.to_text()
                if family == "B":
                    odd_halved += sum(L.rows[i - 1][rank - i] % 2 for i in range(1, rank))
    assert odd_halved > 0


# ---------------------------------------------------------------------------
# type-D components
# ---------------------------------------------------------------------------

def comps_for(rows, rank=3):
    """Components of the top row of a type-D pattern."""
    return row_components(CartanSpec("D", rank), 1, rows[0])


def test_zero_row_is_sml():
    comps = comps_for([[0, 0, 0, 0], [0, 0]])
    assert len(comps) == 1
    c = comps[0]
    assert c.kind == "sml" and c.value == 0 and c.length == 2
    # bottom row of a type-D pattern consists of the two central columns
    bottom = row_components(CartanSpec("D", 3), 2, zero_pattern("D", 3).rows[1])
    assert len(bottom) == 1 and bottom[0].kind == "sml" and bottom[0].length == 1


def test_central_pair_run_is_sml():
    comps = comps_for([[2, 1, 1, 0], [0, 0]])
    spans = {(c.j1, c.j2): c for c in comps}
    assert set(spans) == {(1, 1), (2, 3), (4, 4)}
    middle = spans[(2, 3)]
    assert middle.kind == "sml" and middle.length == 1 and middle.value == 1


def test_unequal_central_entries_stay_apart():
    comps = comps_for([[2, 1, 0, 0], [0, 0]])
    spans = sorted((c.j1, c.j2) for c in comps)
    assert spans == [(1, 1), (2, 2), (3, 4)]
    assert all(c.kind == "generic" for c in comps)


def test_asymmetric_multiple_leaner():
    comps = comps_for([[1, 1, 1, 0], [0, 0]])
    spans = {(c.j1, c.j2): c for c in comps}
    ml = spans[(1, 3)]
    assert ml.kind == "ml" and ml.shorter_leg_col == 3


def test_components_partition_rows():
    rs = build_root_system(CartanSpec("D", 4))
    lam = (1, 1, 1, 1)
    count = 0
    for L in enumerate_patterns(rs, lam):
        covered = {}
        for i, row in enumerate(L.rows, start=1):
            for c in row_components(rs.spec, i, row):
                if c.kind == "sml":
                    assert c.j1 + c.j2 == 2 * 4 - 1 and c.length >= 1
                for j in range(c.j1, c.j2 + 1):
                    assert (i, j) not in covered
                    covered[(i, j)] = c
                    assert L.rows[i - 1][j - i] == c.value
        assert set(covered) == {(i, j) for i, j, _ in L.entries()}
        count += 1
        if count > 400:
            break


# ---------------------------------------------------------------------------
# truncation consistency of masks (type A)
# ---------------------------------------------------------------------------

def test_masks_descend_to_truncated_pattern():
    rs3 = build_root_system(CartanSpec("A", 3))
    sub = CartanSpec("A", 2)
    lam = (1, 2, 1)
    by_top = {}
    for L in enumerate_patterns(rs3, lam):
        by_top.setdefault(L.rows[0], []).append(L)
    for top, members in by_top.items():
        zero_below = LittelmannPattern(
            rs3.spec, (top,) + tuple(tuple([0] * len(r)) for r in members[0].rows[1:]))
        from crystalmds import pattern_wt
        mu = pattern_wt(zero_below, lam)[:2]
        for L in members:
            Lp = LittelmannPattern(sub, L.rows[1:])
            dp = decorate(L, lam)
            dpp = decorate(Lp, mu)
            for i, j, _ in Lp.entries():
                assert dp.is_circled(i + 1, j + 1) == dpp.is_circled(i, j)
                assert dp.is_boxed(i + 1, j + 1) == dpp.is_boxed(i, j)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_marks():
    dp = decorate(P("A", 2, [[1, 0], [1]]), (2, 1))
    text = render(dp)
    assert "[1]" in text and "(0)" in text
    lines = text.splitlines()
    assert len(lines) == 2 and lines[1].startswith(" ")


def test_render_both_marks():
    dp = decorate(P("A", 1, [[0]]), (0,))
    assert render(dp).strip() == "[(0)]"
