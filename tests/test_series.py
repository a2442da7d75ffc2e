import collections
import gc
import hashlib
import itertools
import json

import pytest

from crystalmds import cli, coefficients, series, verification
from crystalmds import (CartanSpec, CoeffElement, LittelmannPattern,
                        WeightPolynomial, build_root_system, branch_decompose,
                        character_via_patterns, decorate, enumerate_patterns,
                        p_part, pattern_coefficient, pattern_wt,
                        polynomial_json_obj, tokuyama_quotient,
                        twisted_character, weyl_character, weyl_dimension)
from crystalmds.coefficients import GaussSymbol, _component_factor, entry_factor, slot_table
from crystalmds.patterns import _freeze, _walk, rows_weight, walk_plan
from crystalmds.series import _p_sums
from crystalmds.verification import _BRANCHING_BATTERY, CHARACTER_BATTERY
from crystalmds.weightpoly import poly_from_int_terms, poly_from_packed, weight_codec
from oracles import (dominant_representative, full_denominator_character, reflect,
                     weight_in_hull)

Q = CoeffElement.q_power


def rs(family, rank):
    return build_root_system(CartanSpec(family, rank))


# ---------------------------------------------------------------------------
# the crystal sum
# ---------------------------------------------------------------------------

def per_leaf_p_part(r, lam, degrees):
    """Reference sum, one pattern at a time: the coefficient of each
    decorated leaf at its weight, for every cover degree in ``degrees``."""
    acc = {n: {} for n in degrees}
    for L in enumerate_patterns(r, lam):
        dp = decorate(L, lam)
        w = pattern_wt(L, lam)
        for n in degrees:
            c = pattern_coefficient(dp, n)
            acc[n][w] = acc[n][w] + c if w in acc[n] else c
    return {n: WeightPolynomial(r.height_vec, terms).terms for n, terms in acc.items()}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                         ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                                         ("D", 3), ("D", 4)])
def test_p_part_matches_per_leaf_sum(family, rank):
    # p_part reads slot factors from a table keyed by each slot's local state
    # and skips subtrees under a zero factor; it must agree with the
    # per-leaf definition.  lambda in {1,2}^r with dimension <= 3000 and
    # n = 1..4.  No D4 weight passes the cap, so D4 runs rho at n = 2.  A4
    # runs the benchmark's densest case, (2,1,1,2) at n = 1 and 2, where
    # most row-sum merges land on coefficients of several monomials.
    r = rs(family, rank)
    if (family, rank) == ("D", 4):
        lams, degrees = [(1, 1, 1, 1)], (2,)
    elif (family, rank) == ("A", 4):
        lams, degrees = [(2, 1, 1, 2)], (1, 2)
    else:
        lams = [lam for lam in itertools.product((1, 2), repeat=rank)
                if weyl_dimension(r, lam) <= 3000]
        degrees = (1, 2, 3, 4)
    cases = 0
    for lam in lams:
        ref = per_leaf_p_part(r, lam, degrees)
        for n in degrees:
            assert p_part(r, lam, n).terms == ref[n], (lam, n)
            cases += 1
    assert cases == DIFFERENTIAL_CASES[family, rank]


# (lambda, n) cases per group above: 155 in all
DIFFERENTIAL_CASES = {("A", 1): 8, ("A", 2): 16, ("A", 3): 32, ("A", 4): 2,
                      ("B", 2): 16, ("B", 3): 16, ("C", 2): 16, ("C", 3): 16,
                      ("D", 3): 32, ("D", 4): 1}


@pytest.mark.parametrize("family,rank,lam,other,n", [
    ("A", 3, (3, 3, 3), (2, 2, 2), 1), ("B", 3, (1, 1, 1), (2, 1, 1), 2),
    ("D", 4, (1, 1, 1, 1), (2, 1, 1, 1), 2)])
def test_p_part_leaves_shared_dicts_alone(family, rank, lam, other, n):
    # the row sums multiply into packed dicts of their own: the memoized
    # lower sums and the packed() dicts of the slot values, the ring's one
    # among them, are only read.  A write into any of them would show in a
    # later call, the same lambda's or another's of the same (spec, n).
    r = rs(family, rank)
    first, second = p_part(r, lam, n), p_part(r, other, n)
    assert p_part(r, lam, n) == first
    assert p_part(r, other, n) == second
    assert p_part(r, lam, n) == first
    assert CoeffElement.one().packed() == {0: 1}


@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (3, 3, 3), 1), ("B", 3, (1, 1, 1), 2),
                                               ("C", 3, (2, 1, 1), 3), ("D", 3, (1, 1, 3), 2),
                                               ("D", 4, (1, 1, 1, 2), 2)])
def test_row_sums_hold_no_zero(family, rank, lam, n):
    # each row of the row loop drops the zeros that cancellation leaves, and
    # the weights it empties, when it completes: the table the loop returns
    # after any number of rows holds none; the type-D cases cancel inside
    # the merges of the row sums (see the witness below)
    r = rs(family, rank)
    factor = slot_table(r.spec, n)
    plan = walk_plan(r.spec, lam)
    for i in range(1, len(plan.starts)):
        upto = plan._replace(starts=plan.starts[:i + 1])
        sums = series._row_sums(upto, factor)
        assert sums and all(t and 0 not in t.values() for t in sums.values()), i
    P = p_part(r, lam, n)
    assert P.terms.keys() == set(plan.codec.decode_all(sums))
    assert all(0 not in c.packed().values() for c in P.terms.values())


@pytest.mark.parametrize("family,rank,lam,n,leaves", [("B", 3, (1, 1, 1), 2, 22),
                                                      ("D", 4, (1, 1, 1, 1), 2, 52),
                                                      ("A", 3, (2, 1, 2), 3, 18)])
def test_lower_sums_leave_a_row_one_walk_alone(family, rank, lam, n, leaves):
    # branch_decompose sums rows 2 and below at each leaf of a row-1 walk on
    # the same plan: those sums must leave row 1's values and marks, the
    # leaf's weight and the walk's course as they were
    r = rs(family, rank)
    factor, plan = slot_table(r.spec, n), walk_plan(r.spec, lam)

    def leaf(rows, circled, boxed, w):
        return tuple(rows[0]), tuple(circled[0]), tuple(boxed[0]), w

    plain = [leaf(*x[:4]) for x in _walk(plan, row=1, wt=plan.top)]
    interleaved = []
    for rows, circled, boxed, w, _ in _walk(plan, row=1, wt=plan.top):
        before = leaf(rows, circled, boxed, w)
        series._row_sums(plan, factor, 2, w)
        assert leaf(rows, circled, boxed, w) == before
        interleaved.append(before)
    assert interleaved == plain and len(plain) == leaves


@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (2, 1, 2), 2), ("B", 3, (1, 1, 1), 2),
                                               ("C", 3, (2, 1, 1), 2), ("D", 4, (1, 1, 1, 1), 2),
                                               ("D", 3, (2, 1, 2), 60)])
def test_walk_yields_each_nonzero_coefficient(family, rank, lam, n):
    # the full walk over the slot table prunes under a zero factor and
    # carries the prefix product: it must yield exactly the crystal elements
    # of nonzero coefficient, each at its weight with pattern_coefficient's
    # value.  D3 (2,1,2) at n = 60 is the type-D support witness (ROADMAP
    # item 3).
    r = rs(family, rank)
    plan = walk_plan(r.spec, lam)
    got = {_freeze(rows): (plan.codec.decode(w), c)
           for rows, _, _, w, c in _walk(plan, factor=slot_table(r.spec, n))}
    want, size = {}, 0
    for L in enumerate_patterns(r, lam):
        size += 1
        c = pattern_coefficient(decorate(L, lam), n)
        if not c.is_zero():
            want[L.rows] = (pattern_wt(L, lam), c)
    assert got == want
    assert 0 < len(want) < size  # some subtree was pruned


@pytest.mark.parametrize("coarsen", ["every field", "top field"])
@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (2, 1, 2), 2),
                                               ("B", 3, (1, 1, 1), 2)])
def test_coarse_row_key_is_caught(monkeypatch, family, rank, lam, n, coarsen):
    # each row's fillings are cached by the weight fields the row reads; a
    # key without them, or without only the highest of them, hands some
    # weights the fillings of another, and both crystal sums leave their
    # references
    r = rs(family, rank)
    ref_p, ref_chi = per_leaf_p_part(r, lam, (n,))[n], weyl_character(r, lam).terms
    assert p_part(r, lam, n).terms == ref_p
    assert character_via_patterns(r, lam).terms == ref_chi
    plan_of = series.walk_plan

    def coarse(spec, mu):
        plan = plan_of(spec, mu)
        w = plan.codec.width
        if coarsen == "every field":
            return plan._replace(reads=(0,) * len(plan.reads))
        # clear the field of the highest letter that each row reads
        return plan._replace(reads=tuple(
            m & ~(((1 << w) - 1) << (m.bit_length() - 1) // w * w) for m in plan.reads))

    monkeypatch.setattr(series, "walk_plan", coarse)
    assert p_part(r, lam, n).terms != ref_p
    assert character_via_patterns(r, lam).terms != ref_chi


def test_cancelled_monomial_leaves_p():
    # pinned witness, found against per_leaf_p_part: at weight (-1,-1,1) of
    # D3 (1,1,3) at n = 2, two of the three nonzero leaf coefficients hold
    # -q^-5 g_1(1)^2 and +q^-5 g_1(1)^2, and the row sums add them in the
    # same packed dict, where they cancel
    r, lam, w, n = rs("D", 3), (1, 1, 3), (-1, -1, 1), 2
    g = CoeffElement.symbol(GaussSymbol(1, 1, 2))
    (k,) = (Q(-5) * g * g).packed()
    leaves = [pattern_coefficient(decorate(L, lam), n) for L in enumerate_patterns(r, lam)
              if pattern_wt(L, lam) == w]
    assert sorted(c.packed()[k] for c in leaves if k in c.packed()) == [-1, 1]
    P = p_part(r, lam, n)
    assert P.coeff(w) == per_leaf_p_part(r, lam, (n,))[n][w]
    assert k not in P.coeff(w).packed()


def assert_canonical(poly, rank, n):
    # tuple keys of length rank, no zero coefficient, and the same terms,
    # each weight and element rebuilt, through the public constructor; n is
    # the degree of the Gauss symbols, which symbol-free terms never read
    assert all(type(w) is tuple and len(w) == rank and all(type(x) is int for x in w)
               for w in poly.terms)
    assert all(c.packed() and 0 not in c.packed().values() for c in poly.terms.values())
    rebuilt = {tuple(map(int, w)): CoeffElement.from_json_obj(c.to_json_obj(), n)
               for w, c in poly.terms.items()}
    assert WeightPolynomial(poly.height_vec, rebuilt).terms == poly.terms


@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (2, 1, 2), 2), ("B", 3, (2, 1, 1), 2),
                                               ("C", 3, (2, 1, 1), 3), ("D", 4, (2, 1, 1, 1), 2)])
def test_producers_return_canonical_terms(family, rank, lam, n):
    # the engines' packed tables become polynomials without the
    # constructor's zero scan, so each must arrive canonical
    r = rs(family, rank)
    P = p_part(r, lam, n)
    chi, via = weyl_character(r, lam), character_via_patterns(r, lam)
    twisted = twisted_character(r, tuple(c - 1 for c in lam))
    quot, rem = P.divide(twisted)
    for poly in (P, chi, via, twisted, quot, rem):
        assert_canonical(poly, rank, n)
    assert not quot.is_zero() and not rem.is_zero()
    assert via == chi
    # equal multiplicities of one character share one element
    for poly in (chi, via):
        assert len({id(c) for c in poly.terms.values()}) == len(set(poly.terms.values()))


def weyl_orbit(r, lam):
    orbit, todo = {lam}, [lam]
    while todo:
        w = todo.pop()
        for k in range(1, r.rank + 1):
            v = reflect(r, w, k)
            if v not in orbit:
                orbit.add(v)
                todo.append(v)
    return orbit


_TYPE_D_STABLE = ("ROADMAP item 3: the type-D rule gives non-orbit terms in the "
                  "stable range; witness pattern {} at weight {}")


@pytest.mark.parametrize("family,rank,lam,order", [
    ("A", 3, (1, 1, 1), 24), ("A", 3, (2, 1, 2), 24), ("A", 3, (3, 1, 2), 24),
    ("B", 3, (1, 1, 1), 48), ("B", 3, (2, 1, 2), 48), ("B", 3, (3, 1, 2), 48),
    ("C", 3, (1, 1, 1), 48), ("C", 3, (2, 1, 2), 48), ("C", 3, (3, 1, 2), 48),
    pytest.param("D", 3, (2, 1, 2), 24, marks=pytest.mark.xfail(
        strict=True, reason=_TYPE_D_STABLE.format("2,1,1,1;0,0", "(3,2,-2)"))),
    pytest.param("D", 4, (1, 1, 1, 1), 192, marks=pytest.mark.xfail(
        strict=True, reason=_TYPE_D_STABLE.format("1,0,0,0,0,0;2,1,1,1;0,0",
                                                  "(2,2,-2,2)")))])
def test_stable_case_support_is_the_orbit(family, rank, lam, order):
    # Brubaker-Bump-Friedberg: for n above every <lam, alpha^vee>, P is
    # supported on W.lam, a regular orbit of |W| points for strongly
    # dominant lam, and each coefficient is one monomial
    r = rs(family, rank)
    P = p_part(r, lam, 60)
    orbit = weyl_orbit(r, lam)
    assert len(orbit) == order
    assert all(dominant_representative(r, w) == lam for w in P.terms)
    assert P.terms.keys() == orbit
    assert all(len(c.packed()) == 1 for c in P.terms.values())


def test_p_part_rank_one_by_hand():
    # two crystal elements: the highest (circled, factor 1) and the boxed
    # extreme (a single Gauss sum, which is -1 at degree 1)
    P = p_part(rs("A", 1), (1,), 1)
    assert dict(P.terms) == {(1,): CoeffElement.from_int(1),
                             (-1,): CoeffElement.from_int(-1)}


@pytest.mark.parametrize("family,rank,lam", [("A", 3, (2, 1, 2)), ("B", 3, (1, 1, 1)),
                                             ("C", 3, (2, 1, 1)), ("D", 4, (1, 1, 1, 1))])
def test_degree_one_coefficients_carry_no_symbols(family, rank, lam):
    # g is evaluated at degree 1 where it is built: every coefficient of P
    # is a Laurent polynomial in q
    P = p_part(rs(family, rank), lam, 1)
    assert P.terms
    for c in P.terms.values():
        assert all(not gauss for _, _, gauss in c.monomials())


def test_p_part_interior_entries():
    P = p_part(rs("A", 1), (3,), 1)
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
    # a float is no integer: not a degree of its symbols, nor a coordinate
    with pytest.raises(ValueError, match="cover degree n must be an integer, got 2.0"):
        p_part(rs("A", 2), (1, 1), 2.0)
    with pytest.raises(ValueError, match="weight coordinate must be an integer, got 1.0"):
        p_part(rs("A", 2), (1.0, 1), 2)


def test_p_part_allow_dominant_is_keyword_only():
    # a fourth positional argument must not land on allow_dominant
    with pytest.raises(TypeError):
        p_part(rs("A", 2), (1, 0), 1, True)


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
                              ("B", 8, (1,) + (0,) * 7), ("D", 8, (1,) + (0,) * 7),
                              # 43,046,721 elements on 30,249 weights: a walk
                              # over every leaf takes 38 s, the row sums share
                              # the branch crystals below each row
                              ("B", 4, (2, 2, 2, 2))]:
        r = rs(family, rank)
        assert character_via_patterns(r, lam) == weyl_character(r, lam)


@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (2, 1, 2), 2), ("B", 3, (1, 1, 1), 3),
                                               ("C", 3, (2, 1, 1), 3), ("D", 4, (1, 1, 1, 1), 2)])
def test_crystal_sums_leave_no_cyclic_garbage(family, rank, lam, n):
    # the memo of the row sums must die with the call, by reference counts
    # alone: a reference cycle would keep it alive until the cyclic
    # collector runs
    r = rs(family, rank)
    gc.collect()
    gc.disable()
    try:
        p_part(r, lam, n)
        after_p_part = gc.collect()
        character_via_patterns(r, lam)
        after_character = gc.collect()
    finally:
        gc.enable()
    assert (after_p_part, after_character) == (0, 0)


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
    P = p_part(r, lam, 1)
    assert product.terms == P.terms


def test_tokuyama_rank_one_closed_form():
    res = tokuyama_quotient(rs("A", 1), (3,))
    assert res.ok
    assert dict(res.quotient.terms) == {(1,): CoeffElement.from_int(1),
                                        (-1,): CoeffElement.from_int(-1)}


def _patch_p_sums(monkeypatch, change):
    """Pass the terms of every sum that ``series._p_sums`` returns, as a
    weight -> CoeffElement dict, through ``change(r, lam, terms)``, which
    returns new terms or a false value to leave them."""
    def wrapped(spec, lam, factor):
        plan, sums = _p_sums(spec, lam, factor)
        r = rs(spec.family, spec.rank)
        terms = poly_from_packed(r.height_vec, plan.codec, sums).terms
        new = change(r, lam, dict(terms))
        if not new:
            return plan, sums
        return plan, {plan.codec.pack(w): c.packed() for w, c in new.items()}

    monkeypatch.setattr(series, "_p_sums", wrapped)


@pytest.mark.parametrize("where", ["top", "below"])
def test_tokuyama_stray_term_is_an_inexact_division(monkeypatch, where):
    # one stray term in the numerator P makes the division inexact, whether
    # it changes the leading coefficient or sits below every weight of P
    def with_stray(r, lam, terms):
        low = WeightPolynomial(r.height_vec, terms).sorted_weights()[-1]
        w = lam if where == "top" else tuple(c - 3 for c in low)
        terms[w] = terms.get(w, CoeffElement.zero()) + Q(2)
        return terms

    _patch_p_sums(monkeypatch, with_stray)
    res = tokuyama_quotient(rs("A", 2), (2, 1))
    assert not res.ok and res.quotient is None
    assert res.remainder is not None and not res.remainder.is_zero()
    assert res.reason == "inexact division"


def test_tokuyama_suite_checks_the_quotient_against_the_closed_form(monkeypatch):
    # one quotient shared by every lambda of a rank still fails the suite
    # when it is not x^rho prod_(a>0) (1 - q^(ht a - 1) x^-a)
    def wrong(r, lam):
        res = tokuyama_quotient(r, lam)
        terms = dict(res.quotient.terms)
        w = res.quotient.sorted_weights()[-1]
        terms[w] = terms[w] * Q(1)
        return res._replace(quotient=WeightPolynomial(r.height_vec, terms))

    monkeypatch.setattr(verification, "tokuyama_quotient", wrong)
    rep = verification.run_tokuyama_suite([(1, 1), (2, 1)])
    assert [(c["name"], c["status"]) for c in rep["cases"]] == [
        ("rank=2: divisible and quotient identical", "pass"),
        ("rank 2: quotient is the deformed Weyl denominator", "fail")]


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
    for family, rank, lam, n in [("D", 4, (1, 0, 0, 1), 1), ("B", 4, (1, 2, 1, 1), 3),
                                 ("D", 5, (1, 1, 1, 1, 1), 2)]:
        bd = branch_decompose(rs(family, rank), lam, n)
        assert bd.identity_ok and bd.all_ok, (family, rank, lam, n)


def _corrupt_branch_parts(monkeypatch, corrupt, lam=(1, 1, 1), n=1):
    """Make ``branch_decompose``'s nonzero P_mu of A3 ``lam`` pass through
    ``corrupt``, which returns the new terms and the first weight at which
    they differ, or a false value to leave them; returns the decomposition
    and that weight per corrupted mu."""
    changed = {}

    def change(r, mu, terms):
        new = r.rank == 2 and terms and corrupt(r, mu, terms)
        if not new:
            return None
        terms, changed[mu] = new
        return terms

    _patch_p_sums(monkeypatch, change)
    return branch_decompose(rs("A", 3), lam, n), changed


def _assert_recorded(bd, changed):
    # the groups of a corrupted P_mu fail truncation and factorization at the
    # differing weight; the lower sums stay additive, and the other groups pass
    bad = [g for g in bd.groups if g.mu in changed]
    assert bad and not bd.all_ok and not bd.identity_ok
    for g in bd.groups:
        if g.mu in changed:
            assert not g.truncation_ok and not g.factorization_ok and g.s_additivity_ok
            assert g.witness == str(changed[g.mu])
        else:
            assert g.truncation_ok and g.factorization_ok and g.s_additivity_ok
            assert g.witness is None


def test_branch_missing_truncation_is_recorded(monkeypatch):
    # a P_mu that lost its lowest term misses a truncation of every group of
    # that mu, and nothing is raised
    def drop(r, lam, terms):
        low = min(terms)
        del terms[low]
        return terms, low

    _assert_recorded(*_corrupt_branch_parts(monkeypatch, drop))


def test_branch_wrong_weight_is_recorded(monkeypatch):
    # P_mu's top term moved up by a simple root lies at a weight that no
    # truncation has, so it also has no lift into the crystal; the first
    # differing weight is mu itself, and nothing is raised
    def move(r, mu, terms):
        up = tuple(a + b for a, b in zip(mu, r.simple_root(1)))
        terms[up] = terms.pop(mu)
        return terms, min(mu, up)

    _assert_recorded(*_corrupt_branch_parts(monkeypatch, move))
    # every group of mu = (2, 2) in A3 (1,2,1) n=2 has scalar 0, so moving
    # its top term changes no sum: the missing lift alone breaks the identity
    bd, changed = _corrupt_branch_parts(
        monkeypatch, lambda r, mu, terms: mu == (2, 2) and move(r, mu, terms), (1, 2, 1), 2)
    assert list(changed) == [(2, 2)]
    assert all(g.scalar.is_zero() for g in bd.groups if g.mu == (2, 2))
    _assert_recorded(bd, changed)


@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (2, 1, 2), 2),
                                               ("B", 3, (1, 1, 1), 2)])
def test_branch_coarse_memo_key_is_caught(monkeypatch, family, rank, lam, n):
    # with row 2's key, which also keys the lower sums, set to nothing,
    # every group reads the first group's lower sum, whose own row loop
    # starts from one weight and so stays right: the groups of another mu
    # fail to factor, those of its mu pass
    plan_of = series.walk_plan

    def coarse(spec, mu):
        plan = plan_of(spec, mu)
        if spec.rank < rank:
            return plan
        return plan._replace(reads=(plan.reads[0], 0) + plan.reads[2:])

    monkeypatch.setattr(series, "walk_plan", coarse)
    groups = branch_decompose(rs(family, rank), lam, n).groups
    first = groups[0].mu
    assert any(g.mu != first for g in groups)
    for g in groups:
        assert g.factorization_ok == (g.mu == first), g


# SHA-256 of each decomposition's groups (top row, mu, shift, scalar JSON,
# size, the three checks, witness) and identity_ok, recorded while the checks
# still rebuilt every pattern; a change must be deliberate and documented.
BRANCH_SHA256 = {
    "A3-212-n1": ("A", 3, (2, 1, 2), 1,
                  "0b0631f2a0da2516ca1a2ddc159c42c83c74826c8a7d97aa22e7a383fd3fccba"),
    "A3-212-n2": ("A", 3, (2, 1, 2), 2,
                  "6c1cf9ab69656db6aba196b42813679e781b68fcdd74cfdc903b3b9a0dc25437"),
    "A3-212-n3": ("A", 3, (2, 1, 2), 3,
                  "10bb5f35c04b8ee2b611e5d43d4b93cee7b71b2e856b40b0612d17c2abb25d8a"),
    "B3-rho-n2": ("B", 3, (1, 1, 1), 2,
                  "44c6a726b39e270f14a4bc7adebcbcfc0288ddb6188515808686928e87559f94"),
    "C3-211-n3": ("C", 3, (2, 1, 1), 3,
                  "93762bc5c4db72721c024fb30fb133eb3e5f9003ba12bee5cfc5b53540034050"),
    "D4-rho-n2": ("D", 4, (1, 1, 1, 1), 2,
                  "2aed76d6b4313e752ae10c31180591b871c47bb99596325ab0dfa0a2a89d7749"),
}


@pytest.mark.parametrize("case", BRANCH_SHA256)
def test_branch_decomposition_bytes(case):
    family, rank, lam, n, digest = BRANCH_SHA256[case]
    bd = branch_decompose(rs(family, rank), lam, n)
    obj = {"groups": [[list(g.top_row), list(g.mu), list(g.shift), g.scalar.to_json_obj(),
                       g.size, g.truncation_ok, g.s_additivity_ok, g.factorization_ok,
                       g.witness] for g in bd.groups],
           "identity_ok": bd.identity_ok}
    text = json.dumps(obj)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (2, 1, 2), 2), ("B", 3, (1, 1, 1), 2),
                                               ("D", 4, (1, 1, 1, 1), 2)])
def test_branch_computes_each_slot_factor_once(monkeypatch, family, rank, lam, n):
    # one slot table per rank for the call: the whole crystal's P, the walk
    # of row 1 and the P_mu of every branch crystal read their factors from
    # it, so each distinct entry key and run key is computed once per table
    tables, entries, runs, table = [], [], [], [None]

    def counted_table(spec, n):
        tables.append(spec)
        factor = slot_table(spec, n)

        def tagged(*slot):
            table[0] = spec
            return factor(*slot)
        return tagged

    def counted_entry(family, a, circled, boxed, middle, n):
        entries.append((table[0], a, circled, boxed, middle))
        return entry_factor(family, a, circled, boxed, middle, n)

    def counted_run(comp, i, crow, brow, entry):
        cols = slice(comp.j1 - i, comp.j2 - i + 1)
        runs.append((table[0], comp.j1, comp.value, tuple(crow[cols]), tuple(brow[cols])))
        return _component_factor(comp, i, crow, brow, entry)

    monkeypatch.setattr(series, "slot_table", counted_table)
    monkeypatch.setattr(coefficients, "entry_factor", counted_entry)
    monkeypatch.setattr(coefficients, "_component_factor", counted_run)
    assert branch_decompose(rs(family, rank), lam, n).all_ok
    assert sorted(spec.rank for spec in tables) == [rank - 1, rank]
    assert len(entries) == len(set(entries)) and len(runs) == len(set(runs))
    assert {spec.rank for spec, *_ in entries} == {rank, rank - 1}
    assert bool(runs) == (family == "D")


def test_p_part_computes_each_run_factor_once(monkeypatch):
    # a type-D table keys each run's factor by the run alone, with no row
    # index and no partner run: one D4 rho p_part call computes each distinct
    # run's factor once, 160 of them
    runs = []

    def counted(comp, i, crow, brow, entry):
        cols = slice(comp.j1 - i, comp.j2 - i + 1)
        runs.append((comp, tuple(crow[cols]), tuple(brow[cols])))
        return _component_factor(comp, i, crow, brow, entry)

    monkeypatch.setattr(coefficients, "_component_factor", counted)
    p_part(rs("D", 4), (1, 1, 1, 1), 2)
    assert len(runs) == len(set(runs)) == 160


def test_slot_table_builds_each_entry_factor_once(monkeypatch):
    # a slot table holds each distinct entry's factor, and type-D component
    # factors read their entries through it: one entry_factor call per
    # distinct (value, circled, boxed, middle) per table, so per p_part call
    calls = []

    def counted(family, a, circled, boxed, middle, n):
        calls.append((a, circled, boxed, middle))
        return entry_factor(family, a, circled, boxed, middle, n)

    monkeypatch.setattr(coefficients, "entry_factor", counted)
    r = rs("D", 4)
    for _ in range(2):
        calls.clear()
        p_part(r, (1, 1, 1, 1), 2)
        assert calls and len(calls) == len(set(calls))


def test_branch_rank_restrictions():
    with pytest.raises(ValueError):
        branch_decompose(rs("B", 2), (1, 1), 1)
    with pytest.raises(ValueError):
        branch_decompose(rs("D", 3), (1, 1, 1), 1)
    with pytest.raises(ValueError):
        branch_decompose(rs("A", 3), (1, 1, 1), 0)
    with pytest.raises(ValueError):
        branch_decompose(rs("A", 3), (1, -1, 1), 1)


def test_branch_s_additivity_entrywise():
    r = rs("A", 3)
    lam = (1, 1, 1)
    sub = CartanSpec("A", 2)
    by_top = {}
    for L in enumerate_patterns(r, lam):
        by_top.setdefault(L.rows[0], []).append(L)
    for top, members in by_top.items():
        toponly = LittelmannPattern(
            r.spec, (top,) + tuple(tuple([0] * len(x)) for x in members[0].rows[1:]))
        s_top = rows_weight(r.spec, toponly.rows)
        for L in members:
            s_full = rows_weight(r.spec, L.rows)
            s_sub = rows_weight(sub, L.rows[1:])
            assert s_full[:2] == tuple(a + b for a, b in zip(s_top[:2], s_sub))
            assert s_full[2] == s_top[2]


def test_branch_leaf_drop_is_root_coordinates():
    # every leaf of every branch crystal in the branching battery lies below
    # its mu by its column sums (``rows_weight``, which ``pattern_wt`` reads):
    # the walk's weight taken to simple-root coordinates by the Fraction
    # inverse Cartan matrix must give the same integers
    battery = [("A", rank, lam) for rank in (2, 3)
               for lam in itertools.product((1, 2), repeat=rank)]
    battery += [(family, rank, lam) for family, rank, lam, _ in _BRANCHING_BATTERY]
    for family, rank, lam in battery:
        sub = rs(family, rank - 1)
        for mu in {g.mu for g in branch_decompose(rs(family, rank), lam, 1).groups}:
            decode = weight_codec(mu, sub.cartan).decode
            count = 0
            for rows, _, _, w, _ in _walk(walk_plan(sub.spec, mu)):
                drop = rows_weight(sub.spec, rows)
                want = sub.root_coordinates(tuple(a - b for a, b in zip(mu, decode(w))))
                assert drop == want, (family, rank, mu, rows)
                count += 1
            assert count == weyl_dimension(sub, mu)


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
                  "ed7c7082b6b68444cde2817831af7e8008a58bb297ccbc304d39d26b47378ae6"),
    "D4-2111-n3": ("D", 4, (2, 1, 1, 1), 3,
                   "ab70ca0850ff48b31e2d452f97b9d316750337902368165a68da15015d2b26f8"),
    "D3-212-n2": ("D", 3, (2, 1, 2), 2,
                  "cc0d58a326a76664666d296420b6aef46b51c7e7e9235215cb5d48a3cbb22e2a"),
    # the stretch case: 7,878 terms, recorded before the forward row loop
    "D5-rho-n2": ("D", 5, (1, 1, 1, 1, 1), 2,
                  "9152889e765e82972d8c4c7bd1463688ab2960b989112873a5dadbf569e544fc"),
    # many ml and sml components (1.20 per pattern) at an odd degree: 457 terms
    "D4-1121-n3": ("D", 4, (1, 1, 2, 1), 3,
                   "769f2ac8d69724f82e4d8e8939d9061ea4401a5f40d0cfb974b0ad97e38d6bfb"),
    # the stable-range witness crystal of ROADMAP item 3: 28 terms, 4 off the orbit
    "D3-212-n60": ("D", 3, (2, 1, 2), 60,
                   "de0eadb4d0285a528a4eabc1fd456b3799d1a03dffe22e3748f6f2c243c9ed97"),
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
