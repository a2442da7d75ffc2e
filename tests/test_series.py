import collections
import hashlib
import itertools
import json

import pytest

from crystalmds import cli, series
from crystalmds import (DEFAULT, CartanSpec, CoeffElement, Conventions,
                        LittelmannPattern, WeightPolynomial, build_root_system,
                        branch_decompose,
                        character_via_patterns, decorate, enumerate_patterns,
                        p_part, pattern_coefficient, pattern_wt,
                        polynomial_json_obj, specialize_n1, tokuyama_quotient,
                        twisted_character, weight_in_hull, weyl_character,
                        weyl_dimension)
from crystalmds.decorations import decorated_crystal
from crystalmds.series import specialize_poly_n1
from crystalmds.verification import CHARACTER_BATTERY
from crystalmds.weightpoly import poly_from_int_terms
from oracles import full_denominator_character

Q = CoeffElement.q_power


def rs(family, rank):
    return build_root_system(CartanSpec(family, rank))


# ---------------------------------------------------------------------------
# the crystal sum
# ---------------------------------------------------------------------------

def per_leaf_p_part(r, lam, degrees, conv):
    """Reference sum, one pattern at a time: the coefficient of each
    decorated leaf at its weight, for every cover degree in ``degrees``."""
    acc = {n: {} for n in degrees}
    for L in enumerate_patterns(r, lam):
        dp = decorate(L, lam)
        w = pattern_wt(L, lam)
        for n in degrees:
            c = pattern_coefficient(dp, n, conv)
            acc[n][w] = acc[n][w] + c if w in acc[n] else c
    return {n: WeightPolynomial(r.height_vec, terms).terms for n, terms in acc.items()}


D_FLAG_SETTINGS = [Conventions(ml_span_rule=span, d_component_rule=rule)
                   for span in ("centrals", "legs") for rule in ("runs", "strict")]


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                         ("B", 3), ("C", 2), ("C", 3), ("D", 3),
                                         ("D", 4)])
def test_p_part_matches_per_leaf_sum(family, rank):
    # p_part reads slot factors from a table keyed by each slot's local state
    # and skips subtrees under a zero factor; it must agree with the
    # per-leaf definition.  lambda in {1,2}^r with dimension <= 3000,
    # n = 1..4, and every type-D component/span flag setting.  No D4 weight
    # passes the cap, so D4 runs rho at n = 2 under the default flags and
    # under strict components with leg spans.
    r = rs(family, rank)
    if (family, rank) == ("D", 4):
        lams, degrees = [(1, 1, 1, 1)], (2,)
        convs = [DEFAULT, Conventions(ml_span_rule="legs", d_component_rule="strict")]
    else:
        lams = [lam for lam in itertools.product((1, 2), repeat=rank)
                if weyl_dimension(r, lam) <= 3000]
        degrees = (1, 2, 3, 4)
        convs = D_FLAG_SETTINGS if family == "D" else [DEFAULT]
    cases = 0
    for lam in lams:
        for conv in convs:
            ref = per_leaf_p_part(r, lam, degrees, conv)
            for n in degrees:
                assert p_part(r, lam, n, conv).terms == ref[n], (lam, n, conv)
                cases += 1
    assert cases == DIFFERENTIAL_CASES[family, rank]


# (lambda, n, flags) cases per group above: 250 in all
DIFFERENTIAL_CASES = {("A", 1): 8, ("A", 2): 16, ("A", 3): 32, ("B", 2): 16,
                      ("B", 3): 16, ("C", 2): 16, ("C", 3): 16, ("D", 3): 128,
                      ("D", 4): 2}


def test_p_part_rank_one_by_hand():
    # two crystal elements: the highest (circled, factor 1) and the boxed
    # extreme (a single unexpanded sum that degree-1 evaluation sends to -1)
    P = specialize_poly_n1(p_part(rs("A", 1), (1,), 1))
    assert dict(P.terms) == {(1,): CoeffElement.from_int(1),
                             (-1,): CoeffElement.from_int(-1)}


def test_p_part_interior_entries():
    P = specialize_poly_n1(p_part(rs("A", 1), (3,), 1))
    assert P.coeff((3,)).is_one()
    assert P.coeff((1,)) == Q(1) - Q(0)      # q - 1
    assert P.coeff((-1,)) == Q(2) - Q(1)     # (q-1) q
    assert P.coeff((-3,)) == Q(2, -1)        # -q^2


def test_p_part_coefficient_at_highest_weight():
    for family, rank in [("A", 2), ("C", 2), ("A", 3), ("C", 3)]:
        lam = (1,) * rank
        for n in (1, 2, 3):
            assert p_part(rs(family, rank), lam, n).coeff(lam).is_one()


def test_p_part_term_count_bounded_by_crystal():
    r = rs("B", 2)
    lam = (2, 1)
    P = p_part(r, lam, 2)
    assert len(P) <= weyl_dimension(r, lam)


def test_p_part_preconditions():
    with pytest.raises(ValueError):
        p_part(rs("A", 2), (1, 0), 1)
    assert p_part(rs("A", 2), (1, 0), 1, allow_dominant=True) is not None
    with pytest.raises(ValueError):
        p_part(rs("A", 2), (1, 1), 0)


def test_p_part_support_constraints():
    r = rs("C", 2)
    lam = (2, 1)
    P = p_part(r, lam, 3)
    for w in P.terms:
        assert weight_in_hull(r, lam, w)
        drop = r.root_coordinates(tuple(a - b for a, b in zip(lam, w)))
        assert all(c >= 0 and c.denominator == 1 for c in drop)


def test_character_via_patterns_matches():
    # the rank-8 and rank-10 cases have Weyl groups of 5 to 40 million
    # elements, out of reach of an orbit sum but not of Demazure operators
    for family, rank, lam in [("A", 2, (1, 0)), ("D", 4, (1, 0, 0, 0)),
                              ("B", 2, (0, 1)), ("C", 3, (1, 0, 0)),
                              ("A", 10, (1,) + (0,) * 9), ("A", 10, (0, 1) + (0,) * 8),
                              ("B", 8, (1,) + (0,) * 7), ("D", 8, (1,) + (0,) * 7)]:
        r = rs(family, rank)
        assert character_via_patterns(r, lam) == weyl_character(r, lam)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                         ("B", 3), ("C", 2), ("C", 3), ("D", 3),
                                         ("D", 4)])
def test_character_via_patterns_matches_per_leaf(family, rank):
    # character_via_patterns counts the weights the slot walk carries to its
    # leaves; it must agree with x^pattern_wt summed over the enumerated
    # patterns.  lambda in {0,1,2}^r with dimension <= 600.
    r = rs(family, rank)
    for lam in itertools.product((0, 1, 2), repeat=rank):
        if weyl_dimension(r, lam) > 600:
            continue
        ref = collections.Counter(pattern_wt(L, lam) for L in enumerate_patterns(r, lam))
        via = character_via_patterns(r, lam)
        assert via.terms == poly_from_int_terms(r.height_vec, ref).terms, lam


WEYL_POOL_CASES = [("A", 4, (2, 1, 1, 2)), ("A", 4, (2, 2, 2, 2)), ("B", 3, (2, 2, 2)),
                   ("C", 3, (2, 2, 2)), ("D", 4, (1, 1, 1, 1)), ("D", 4, (2, 1, 1, 1))]


def test_weyl_character_matches_full_denominator():
    # weyl_character applies Demazure operators along the long word; it must
    # equal the Weyl character formula (the alternating orbit sum of
    # lambda + rho divided by that of rho), over the character battery
    # (lambda in {0,1,2}^r, dimension <= 1000) and the benchmark's character
    # cases.
    cases = [(family, rank, lam) for family, rank in CHARACTER_BATTERY
             for lam in itertools.product((0, 1, 2), repeat=rank)
             if weyl_dimension(rs(family, rank), lam) <= 1000] + WEYL_POOL_CASES
    for family, rank, lam in cases:
        r = rs(family, rank)
        ref = poly_from_int_terms(r.height_vec, full_denominator_character(r, lam))
        assert weyl_character(r, lam).terms == ref.terms, (family, rank, lam)
    assert len(cases) == 130


def test_character_d4_spinor_has_eight_unit_terms():
    chi = character_via_patterns(rs("D", 4), (1, 0, 0, 0))
    assert len(chi) == 8 and all(c.is_one() for _, c in chi)


# ---------------------------------------------------------------------------
# deformed denominator factorization
# ---------------------------------------------------------------------------

def test_tokuyama_quotient_lambda_independent():
    r = rs("A", 2)
    quotients = []
    for lam in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        res = tokuyama_quotient(r, lam)
        assert res.ok, (lam, res.reason)
        quotients.append(res.quotient)
    assert all(q.terms == quotients[0].terms for q in quotients)


def test_tokuyama_quotient_times_divisor_reconstructs():
    r = rs("A", 2)
    lam = (2, 1)
    res = tokuyama_quotient(r, lam)
    product = res.quotient * twisted_character(r, (1, 0))
    P = specialize_poly_n1(p_part(r, lam, 1))
    assert product.terms == P.terms


def test_tokuyama_rank_one_closed_form():
    res = tokuyama_quotient(rs("A", 1), (3,))
    assert res.ok
    assert dict(res.quotient.terms) == {(1,): CoeffElement.from_int(1),
                                        (-1,): CoeffElement.from_int(-1)}


def test_tokuyama_requires_type_a_and_strong_dominance():
    with pytest.raises(ValueError):
        tokuyama_quotient(rs("B", 2), (1, 1))
    with pytest.raises(ValueError):
        tokuyama_quotient(rs("A", 2), (1, 0))


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------

def test_branch_groups_cover_the_crystal():
    r = rs("A", 2)
    bd = branch_decompose(r, (1, 0), 1)
    assert sum(g.size for g in bd.groups) == 3
    assert bd.all_ok


def test_branch_zero_top_row_group():
    r = rs("A", 2)
    bd = branch_decompose(r, (2, 1), 1)
    zero_group = next(g for g in bd.groups if all(v == 0 for v in g.top_row))
    # deleting no boxes: the branch weight is the restriction of lambda
    assert zero_group.mu == (2,)
    assert zero_group.truncation_ok


def test_branch_terms_are_single_monomials():
    r = rs("A", 3)
    bd = branch_decompose(r, (1, 1, 1), 2)
    assert bd.all_ok
    for g in bd.groups:
        assert len(g.mu) == 2 and len(g.shift) == 3
        assert len(g.scalar.monomials()) <= 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_branch_identity_and_factorization_a2(n):
    bd = branch_decompose(rs("A", 2), (2, 2), n)
    assert bd.identity_ok and bd.all_ok


def test_branch_report_only_families():
    # asserted beyond type A too, as in the branching suite
    bd = branch_decompose(rs("D", 4), (1, 0, 0, 1), 1)
    assert bd.identity_ok and bd.all_ok


def test_branch_missing_truncation_is_recorded(monkeypatch):
    # a truncation missing from the branch crystal fails to factor, with its
    # pattern as witness, and raises nothing
    dropped = {}

    def lossy(r, lam):
        leaves = list(decorated_crystal(r, lam))
        if r.rank == 3:
            return leaves
        dropped[lam] = leaves[-1].pattern.rows
        return leaves[:-1]

    monkeypatch.setattr(series, "decorated_crystal", lossy)
    bd = branch_decompose(rs("A", 3), (1, 1, 1), 1)
    bad = [g for g in bd.groups if not g.factorization_ok]
    assert bad and not bd.all_ok
    for g in bad:
        assert not g.truncation_ok and g.s_additivity_ok
        L = LittelmannPattern.from_text(CartanSpec("A", 3), g.witness)
        assert L.rows[1:] == dropped[g.mu]


def test_branch_rank_restrictions():
    with pytest.raises(ValueError):
        branch_decompose(rs("B", 2), (1, 1), 1)
    with pytest.raises(ValueError):
        branch_decompose(rs("D", 3), (1, 1, 1), 1)


def test_branch_s_additivity_entrywise():
    from crystalmds import pattern_weight
    from crystalmds.series import _truncate
    r = rs("A", 3)
    lam = (1, 1, 1)
    sub = CartanSpec("A", 2)
    by_top = {}
    for L in enumerate_patterns(r, lam):
        by_top.setdefault(L.rows[0], []).append(L)
    for top, members in by_top.items():
        from crystalmds import LittelmannPattern
        toponly = LittelmannPattern(
            r.spec, (top,) + tuple(tuple([0] * len(x)) for x in members[0].rows[1:]))
        s_top = pattern_weight(toponly)
        for L in members:
            s_full = pattern_weight(L)
            s_sub = pattern_weight(_truncate(L, sub))
            assert s_full[:2] == tuple(a + b for a, b in zip(s_top[:2], s_sub))
            assert s_full[2] == s_top[2]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_polynomial_json_schema():
    r = rs("C", 2)
    P = p_part(r, (2, 1), 3)
    obj = polynomial_json_obj(P, "C", 2, 3, (2, 1))
    assert list(obj) == ["family", "rank", "n", "lambda", "terms"]
    assert obj["family"] == "C" and obj["lambda"] == [2, 1]
    blob = json.dumps(obj)
    assert json.loads(blob) == obj
    wts = [tuple(t["wt"]) for t in obj["terms"]]
    keys = [P.order_key(w) for w in wts]
    assert keys == sorted(keys, reverse=True)
    for t in obj["terms"]:
        mono = t["coeff"]["monomials"]
        assert mono == sorted(mono, key=lambda m: (m["q"], json.dumps(m["gauss"])))


# SHA-256 of json.dumps(polynomial_json_obj(p_part(...))) on the fixed case
# set; a change here must be a deliberate, documented change of the output.
FIXED_CASE_SHA256 = {
    "A3-222-n3": ("A", 3, (2, 2, 2), 3,
                  "fed372e4c0ba47f42a888367da694c92672455619ea4ddfdd97024a6810eb6a0"),
    "C3-211-n3": ("C", 3, (2, 1, 1), 3,
                  "6b5c8d9c119b12bdeb0dc5aea6f08c907e6f12c9eebc1f620fc2dbdc44632613"),
    "B3-rho-n2": ("B", 3, (1, 1, 1), 2,
                  "2137d5444e7a40abc9f091bda21ee4a0dd1523ff8ef4db74915a3d3ab48c0319"),
    "D4-rho-n2": ("D", 4, (1, 1, 1, 1), 2,
                  "7f017bbc003c838294c7546fbd57258aab18f631c16a602ee984130b5dd31ee5"),
    "A3-333-n1": ("A", 3, (3, 3, 3), 1,
                  "1b338399030047edce1e32278aa9991d526dd07b1434e65afc69c31e681e9992"),
    "D4-2111-n3": ("D", 4, (2, 1, 1, 1), 3,
                   "ab70ca0850ff48b31e2d452f97b9d316750337902368165a68da15015d2b26f8"),
}


@pytest.mark.parametrize("case", FIXED_CASE_SHA256)
def test_fixed_case_json_bytes(case):
    family, rank, lam, n, digest = FIXED_CASE_SHA256[case]
    poly = p_part(rs(family, rank), lam, n)
    text = json.dumps(polynomial_json_obj(poly, family, rank, n, lam))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of the stdout of `crystalmds compute --character --json`.
CHARACTER_JSON_SHA256 = {
    "A4-2222": ("A", 4, "2,2,2,2",
                "e1c832903c29087eb4d87718b2924c56506c61b476b2e66d457a966603e50c9d"),
    "D4-2111": ("D", 4, "2,1,1,1",
                "338de802cccd2d96adb1f07d5ab909d9482a41c89be4818d65fe9ee117a9a94b"),
}


@pytest.mark.parametrize("case", CHARACTER_JSON_SHA256)
def test_character_json_bytes(case, capsys):
    family, rank, lam, digest = CHARACTER_JSON_SHA256[case]
    assert cli.main(["compute", "--family", family, "--rank", str(rank),
                     "--lambda", lam, "--character", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
