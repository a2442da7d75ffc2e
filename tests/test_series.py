import collections
import gc
import hashlib
import itertools
import json
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from crystalmds import cli, coefficients, series, verification, weightpoly
from crystalmds import (CartanSpec, CoeffElement, LittelmannPattern,
                        WeightPolynomial, build_root_system, branch_decompose,
                        character_dimension, character_via_patterns, decorate,
                        enumerate_patterns, p_part, pattern_coefficient, pattern_wt,
                        polynomial_json_obj, tokuyama_quotient, weyl_character,
                        weyl_dimension)
from crystalmds.coefficients import (GaussSymbol, _component_factor, entry_factor,
                                     kronecker_decode, kronecker_encode, mul_into, slot_table)
from crystalmds.patterns import _freeze, _walk, decorated_crystal, rows_weight, walk_plan
from crystalmds.series import _p_sums
from crystalmds.verification import _BRANCHING_BATTERY, CHARACTER_BATTERY
from crystalmds.weightpoly import poly_from_int_terms, poly_from_packed, weight_codec
import oracles
from oracles import (deformed_denominator, dominant_representative, element,
                     full_denominator_character, poly_product, reflect, twisted_character,
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
    # a row leaves the zeros that cancellation makes in its table; the
    # loop's one zero filter, after its last row, drops them and the
    # weights they empty, so the table it returns after any number of rows
    # holds none; the type-D cases cancel inside the merges of the row sums
    # (see the witness below)
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


def _at_two(el) -> Fraction:
    return sum(c * Fraction(2) ** e for e, c in el.packed().items())


@pytest.mark.parametrize("family,rank,lam", [("A", 3, (2, 1, 2)), ("B", 3, (1, 1, 1)),
                                             ("C", 3, (2, 1, 1)), ("D", 4, (1, 1, 1, 1)),
                                             ("D", 3, (2, 1, 2))])
def test_row_sums_run_in_the_ring_of_a_mapped_slot_table(family, rank, lam):
    # a slot table mapped into another ring, here the rationals by q = 2,
    # runs the walk and the row loop's int path there: its products start
    # from the map's one, type D's closing products too, and the sums are
    # P's coefficients at q = 2, weight by weight, without the zeros
    r = rs(family, rank)
    plan = walk_plan(r.spec, lam)
    factor = slot_table(r.spec, 1, _at_two)
    assert factor.one == 1 and isinstance(factor.one, Fraction)
    sums = series._row_sums(plan, factor)
    want = {w: _at_two(c) for w, c in p_part(r, lam, 1, allow_dominant=True).terms.items()}
    assert dict(zip(plan.codec.decode_all(sums), sums.values())) == \
        {w: v for w, v in want.items() if v}
    assert 0 not in sums.values()


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_tokuyama_int_path_decodes_to_p_part(monkeypatch, rank):
    # the sum that tokuyama_quotient takes, P at t = 1/q = 2^B on the row
    # loop's int path with the unit q^-a and each q^-k read as t^k, decodes
    # digit by digit, its t-digits counted down from q^ht(lam - w), to
    # p_part's terms; B bounds every coefficient of P and of D * chi~ from
    # the oracles with room to spare
    seen = []
    monkeypatch.setattr(series, "_p_sums", lambda *a: seen.append(_p_sums(*a)) or seen[-1])
    r = rs("A", rank)
    rho = (1,) * rank
    lams = {rho, (2,) + rho[1:]} | ({(3, 3, 3)} if rank == 3 else set())
    for lam in lams:
        seen.clear()
        assert tokuyama_quotient(r, lam).ok
        (plan, sums), = seen
        bits, top = _q_bits(r, lam), sum(map(mul, r.height_vec, lam))
        assert all(isinstance(v, int) and v for v in sums.values())
        P = p_part(r, lam, 1)
        assert _t_digits_poly(r, plan.codec, bits, top, sums).terms == P.terms
        product = poly_product(deformed_denominator(r),
                               twisted_character(r, tuple(c - 1 for c in lam)))
        assert product == P
        assert max(_largest_coefficient(P), _largest_coefficient(product)) < 1 << (bits - 1)


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


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_row_sums_stay_zero_free_when_fillings_cancel(monkeypatch, family, rank):
    # an entry rule of -1 for a boxed entry, 1 + q for a circled one and 1
    # otherwise makes fillings that meet at one weight cancel in the row
    # loop's merge: a monomial of a dict, and a whole dict.  ``mul_into``
    # deletes each as it cancels, so every packed dict returned is
    # zero-free, and P is still the sum of the pattern coefficients
    def entry(family, a, circled, boxed, middle, n):
        return Q(0, -1) if boxed else (Q(1) + Q(0) if circled else Q(0))

    cancelled = collections.Counter()

    def recording(acc, a, b):
        before = list(acc)
        mul_into(acc, a, b)
        cancelled["monomial" if any(acc.values()) else "dict"] += any(
            not acc.get(k) for k in before)
        return acc

    monkeypatch.setattr(coefficients, "entry_factor", entry)
    monkeypatch.setattr(series, "mul_into", recording)
    r, lam, n = rs(family, rank), (1,) * rank, 2
    _, sums = _p_sums(r.spec, lam, slot_table(r.spec, n))
    assert cancelled["monomial"] and cancelled["dict"]
    assert all(t and 0 not in t.values() for t in sums.values())
    want: dict = {}
    for dp in decorated_crystal(r, lam):
        w = pattern_wt(dp.pattern, lam)
        want[w] = want.get(w, CoeffElement.zero()) + pattern_coefficient(dp, n)
    assert p_part(r, lam, n) == WeightPolynomial(r.height_vec, want)


def assert_canonical(poly, rank):
    # tuple keys of length rank, no zero coefficient, and the same terms,
    # each weight and element rebuilt, through the public constructors
    assert all(type(w) is tuple and len(w) == rank and all(type(x) is int for x in w)
               for w in poly.terms)
    assert all(c.packed() and 0 not in c.packed().values() for c in poly.terms.values())
    rebuilt = {tuple(map(int, w)): element({(e, g): k for k, e, g in c.monomials()})
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
        assert_canonical(poly, rank)
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


# ---------------------------------------------------------------------------
# Gauss parts in the normal form of the Gauss relations (ROADMAP item 19)
# ---------------------------------------------------------------------------

def test_gauss_normal_form_by_hand():
    # each relation on its own at n = 4, and g(c) g(-c) = q
    def sym(t, r, e=0, c=1):
        return CoeffElement.symbol(GaussSymbol(t, r, 4), q_exp=e, coeff=c)

    nf = oracles.gauss_normal_form
    assert nf(sym(1, 0, 1, 3), 4) == {(): {2: -3}}            # g_1(0) = -1
    assert nf(sym(2, 2), 4) == {(): {0: -1}}                  # 4 | 2 * 2
    assert nf(sym(2, 1), 4) == nf(sym(1, 2), 4) == {(): {1: 1}}  # g_1(2) = sqrt q
    assert nf(sym(1, 3, -1), 4) == {((1, -1),): {0: 1}}       # q g_1(1)^-1
    assert nf(sym(1, 1) * sym(1, 3) - Q(1), 4) == {}
    assert nf(sym(1, 1) * sym(1, 1) + sym(1, 1, 2), 4) == {((1, 1),): {4: 1},
                                                            ((1, 2),): {0: 1}}


@pytest.mark.parametrize("family,rank,lam,n,count", [
    ("B", 3, (1, 1, 1), 2, 112), ("C", 3, (2, 1, 1), 3, 108),
    ("D", 4, (1, 1, 1, 1), 2, 343), ("A", 3, (2, 2, 2), 3, 64)])
def test_gauss_normal_form_term_counts(family, rank, lam, n, count):
    # ROADMAP item 1's counts of the weights whose coefficient is not zero
    # under the relations
    P = p_part(rs(family, rank), lam, n)
    assert sum(1 for w in P.sorted_weights()
               if oracles.gauss_normal_form(P.coeff(w), n)) == count


def test_one_gauss_part_per_weight():
    # measured, not proved: in types A, B and C every weight's coefficient
    # is one Gauss monomial times a Laurent polynomial in sqrt(q), on every
    # crystal of dimension at most 60,000 in the grid
    crystals = [(family, rank, lam) for family in "ABC" for rank in (2, 3)
                for lam in itertools.product((1, 2, 3), repeat=rank)]
    crystals += [("A", 4, lam) for lam in itertools.product((1, 2), repeat=4)]
    crystals = [c for c in crystals if weyl_dimension(rs(*c[:2]), c[2]) <= 60_000]
    cases = [(*c, n) for c in crystals for n in range(3, 8)]
    assert len(cases) == 570
    mixed = {}
    for family, rank, lam, n in cases:
        found = oracles.first_mixed_weight(p_part(rs(family, rank), lam, n), n)
        if found:
            mixed[family, lam, n] = found
    assert not mixed


@pytest.mark.parametrize("family,rank,lam,n,count", [
    ("A", 3, (2, 2, 2), 3, 64), ("A", 3, (2, 1, 2), 5, 24), ("A", 4, (2, 1, 1, 2), 4, 130),
    ("C", 3, (2, 1, 1), 3, 108), ("C", 3, (1, 2, 1), 6, 72), ("C", 4, (1, 2, 1, 1), 5, 624),
    ("B", 2, (2, 3), 5, 10), ("B", 3, (1, 1, 1), 2, 112), ("B", 3, (1, 1, 1), 3, 62),
    ("B", 3, (1, 1, 1), 4, 64), ("B", 3, (1, 1, 1), 6, 56), ("B", 4, (2, 1, 1, 1), 3, 1216),
    ("D", 3, (1, 1, 2), 3, 28), ("D", 3, (2, 1, 2), 4, 30), ("D", 4, (1, 1, 1, 1), 2, 343),
    ("D", 4, (1, 1, 1, 1), 3, 216), ("D", 4, (1, 1, 1, 1), 5, 200),
    ("D", 5, (1, 1, 1, 1, 1), 3, 3835)])
def test_row_sums_run_in_the_gauss_normal_form(monkeypatch, family, rank, lam, n, count):
    # ROADMAP item 18 stage A: each slot factor mapped to its normal form,
    # one int per Gauss key at sqrt(q) = 2^B, runs on the row loop's int
    # path unchanged, and decodes to the normal form of P, weight by weight.
    # Types A and C have no negative power of sqrt(q) to shift away.  B and
    # D, whose factors carry q^-a, are shifted in the factors, not in the
    # ring map, which would shift the ring's one too: each type-B entry
    # factor times q, each type-D run of L entries times q^L.  Every pattern
    # has N entries, so each coefficient then carries q^N, sqrt(q)^(2N),
    # which the decode takes off.  The counts are of the weights whose
    # normal form is not zero.
    r = rs(family, rank)
    want = {w: oracles.gauss_normal_form(c, n) for w, c in p_part(r, lam, n).terms.items()}
    entry, component = coefficients.entry_factor, coefficients._component_factor
    shift = 0 if family in "AC" else 2 * len(r.positive_roots)
    if family == "B":
        monkeypatch.setattr(coefficients, "entry_factor",
                            lambda family, *args: entry(family, *args) * Q(1))
    elif family == "D":
        monkeypatch.setattr(coefficients, "_component_factor",
                            lambda comp, *args: component(comp, *args) * Q(comp.j2 - comp.j1 + 1))
    bits = (weyl_dimension(r, lam) << len(r.positive_roots) + 2).bit_length() + 2
    plan = walk_plan(r.spec, lam)
    sums = series._row_sums(plan, slot_table(r.spec, n, oracles.gauss_ints_map(n, bits)))
    got = {w: {key: {e - shift: x for e, x in kronecker_decode(v, bits).items()}
               for key, v in c.parts.items()}
           for w, c in zip(plan.codec.decode_all(sums), sums.values())}
    assert got == {w: nf for w, nf in want.items() if nf}
    assert len(got) == count


def test_a3_flip_reverses_every_weight():
    # ROADMAP item 2: the diagram automorphism of A3 reverses the simple
    # roots, so P of reversed lambda is P of lambda with every weight
    # reversed, in the normal form of the Gauss relations.  The raw ring
    # tells equal numbers apart, and there the two agree on 10 pairs only.
    r = rs("A", 3)
    cases = [(lam, n) for lam in itertools.product((1, 2, 3), repeat=3)
             if lam < lam[::-1] for n in range(1, 5)]
    assert len(cases) == 36

    def normal_form(lam, n, flip):
        return {w[::-1] if flip else w: nf for w, c in p_part(r, lam, n).terms.items()
                if (nf := oracles.gauss_normal_form(c, n))}

    differ = [(lam, n) for lam, n in cases
              if normal_form(lam, n, True) != normal_form(lam[::-1], n, False)]
    assert not differ


class MixedGaussParts(AssertionError):
    """A weight whose coefficient has two Gauss keys in the normal form."""


def _type_d_mixed(rank, lam, n, weight, keys, names):
    reason = (f"ROADMAP item 19: D{rank} {lam} n={n} gives weight {weight} "
              f"the Gauss parts {names}")
    return pytest.param(rank, lam, n, weight, keys, marks=pytest.mark.xfail(
        strict=True, raises=MixedGaussParts, reason=reason))


@pytest.mark.parametrize("rank,lam,n,weight,keys", [
    _type_d_mixed(3, (1, 1, 2), 3, (2, 2, -2), ((((1, -1),), ((1, 2),))),
                  "g_1(1)^-1 and g_1(1)^2"),
    _type_d_mixed(3, (2, 1, 2), 4, (-3, 2, 1), ((), ((1, -1),)), "1 and g_1(1)^-1"),
    _type_d_mixed(3, (1, 2, 2), 4, (2, -3, 1), ((), ((1, -1),)), "1 and g_1(1)^-1"),
    _type_d_mixed(4, (1, 1, 1, 1), 3, (2, 2, -2, 2), ((), ((1, 3),)), "1 and g_1(1)^3")])
def test_type_d_one_gauss_part_per_weight(rank, lam, n, weight, keys):
    # D3 = A3 says these are defects: D3 (1,1,2)'s partner A3 (1,2,1) has
    # one Gauss part per weight at n = 3.  A first mixed weight other than
    # the recorded one fails outright, since the defect has changed.
    found = oracles.first_mixed_weight(p_part(rs("D", rank), lam, n), n)
    if found:
        assert found == (weight, keys)
        raise MixedGaussParts(f"weight {weight} has Gauss keys {keys}")


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
    assert P.coeff((3,)) == CoeffElement.one()
    assert P.coeff((1,)) == Q(1) - Q(0)      # q - 1
    assert P.coeff((-1,)) == Q(2) - Q(1)     # (q-1) q
    assert P.coeff((-3,)) == Q(2, -1)        # -q^2


def test_p_part_coefficient_at_highest_weight():
    for family, rank in [("A", 2), ("C", 2), ("A", 3), ("C", 3)]:
        lam = (1,) * rank
        for n in (1, 2, 3):
            assert p_part(rs(family, rank), lam, n).coeff(lam) == CoeffElement.one()


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
    # the slot table owns n, so every path that builds one checks it: also
    # pattern_coefficient on a pattern whose entries reach no Gauss sum
    dp = decorate(LittelmannPattern(CartanSpec("A", 2), ((0, 0), (0,))), (1, 1))
    assert all(map(all, dp.circled)) and pattern_coefficient(dp, 1) == CoeffElement.one()
    for n, message in ((0, ">= 1"), (-3, ">= 1"), (2.0, "an integer, got 2.0")):
        with pytest.raises(ValueError, match=f"cover degree n must be {message}"):
            pattern_coefficient(dp, n)
    with pytest.raises(ValueError, match="cover degree n must be >= 1"):
        slot_table(CartanSpec("A", 2), 0)


def test_p_part_rejects_a_non_dominant_weight():
    # allow_dominant admits boundary weights, never a negative coordinate
    for kwargs in ({}, {"allow_dominant": True}):
        with pytest.raises(ValueError, match=r"highest weight must be dominant, got \(1, -1\)"):
            p_part(rs("A", 2), (1, -1), 2, **kwargs)


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
    assert len(chi) == 8 and all(c == CoeffElement.one() for c in chi.terms.values())


def undecoded(poly):
    return poly._packed is not None


def test_character_check_compares_packed_tables():
    # the two character sums over one codec compare as packed tables: the
    # check decodes neither side
    for family, rank, lam in WEYL_POOL_CASES:
        r = rs(family, rank)
        via, chi = character_via_patterns(r, lam), weyl_character(r, lam)
        assert via == chi and undecoded(via) and undecoded(chi), (family, rank, lam)
        assert via.terms == chi.terms


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_packed_equality_agrees_with_terms_across_weights(family, rank):
    # different lambda whose codecs share a width share the packing too: the
    # packed comparison must give the answer the decoded terms give
    r = rs(family, rank)
    lams = list(itertools.product((0, 1, 2), repeat=rank))
    width = {lam: weight_codec(lam, r.cartan).width for lam in lams}
    pairs = [(a, b) for a in lams for b in lams if a != b and width[a] == width[b]]
    assert pairs
    for a, b in pairs:
        via, chi = character_via_patterns(r, a), weyl_character(r, b)
        packed = via == chi
        assert undecoded(via) and undecoded(chi), (a, b)
        assert packed == (via.terms == chi.terms), (a, b)


@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (2, 1, 2), 2), ("B", 3, (1, 1, 1), 3),
                                               ("C", 2, (2, 1), 4), ("D", 4, (1, 1, 1, 1), 2)])
def test_p_part_equality_packed_and_decoded(family, rank, lam, n):
    r = rs(family, rank)
    P, again = p_part(r, lam, n), p_part(r, lam, n)
    assert P == again and undecoded(P) and undecoded(again)
    # a packed monomial table against an int table, and against tuple terms,
    # compares the terms
    assert P != character_via_patterns(r, lam)
    assert P == WeightPolynomial(r.height_vec, P.terms)
    assert not undecoded(P)


@pytest.mark.parametrize("make", [
    lambda r: character_via_patterns(r, (2, 1, 1)),
    lambda r: weyl_character(r, (1, 2, 1)),
    lambda r: p_part(r, (2, 1, 1), 2),
    lambda r: p_part(r, (1, 1, 1), 1),
    lambda r: poly_from_packed(r.height_vec, weight_codec((1, 1, 1), r.cartan), {}),
])
def test_structure_reads_the_same_before_and_after_decoding(make):
    # each comparison against a fresh operand: one of the same packing and
    # kind, one of each kind of packed table, and the zero polynomial
    r = rs("B", 3)
    others = [make, lambda r: character_via_patterns(r, (2, 1, 1)),
              lambda r: p_part(r, (2, 1, 1), 2), WeightPolynomial]
    poly = make(r)
    before = (len(poly), poly.is_zero(), [make(r) == o(r) for o in others])
    assert undecoded(poly) and before[2][0]
    assert len(poly.terms) == before[0] and not undecoded(poly)
    assert (len(poly), poly.is_zero(), [poly == o(r) for o in others]) == before


def test_character_dimension_reads_either_table_kind():
    r = rs("B", 2)
    chi = weyl_character(r, (1, 1))
    assert character_dimension(chi) == 16 and undecoded(chi)
    _, table, _ = chi._packed
    codec = weight_codec((1, 1), r.cartan)
    constants = poly_from_packed(r.height_vec, codec, {w: {0: c} for w, c in table.items()})
    assert character_dimension(constants) == 16
    assert constants == chi and not undecoded(constants) and character_dimension(constants) == 16
    assert character_dimension(chi) == 16 and chi.terms and character_dimension(chi) == 16
    P = p_part(r, (1, 1), 2)
    with pytest.raises(ValueError, match="non-constant coefficients"):
        character_dimension(P)
    assert P.terms
    with pytest.raises(ValueError, match="non-constant coefficients"):
        character_dimension(P)


# ---------------------------------------------------------------------------
# deformed denominator factorization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,rank,lams", [
    ("A", 2, [(1, 1), (2, 1), (1, 2), (2, 2), (2, 0)]),
    ("A", 3, [(1, 1, 1), (2, 1, 1), (1, 2, 1)]),
    ("C", 2, [(1, 1), (2, 1), (1, 2), (0, 2)]),
    ("C", 3, [(1, 1, 1), (2, 1, 1)])])
def test_the_unit_q_to_the_minus_a_gives_tokuyamas_weights(family, rank, lams):
    # with the unit q^-a in every family, a pattern's n = 1 coefficient is
    # Tokuyama's weight in t = 1/q, the product over its entries of 1
    # circled, -t boxed, 1 - t unmarked and 0 circled and boxed, so the row
    # sums are those weights summed by pattern weight; t^k is q^-k
    r = rs(family, rank)
    for lam in lams:
        want = collections.defaultdict(collections.Counter)
        for dp in decorated_crystal(r, lam):
            weight = {0: 1}
            for circled, boxed in zip(itertools.chain(*dp.circled), itertools.chain(*dp.boxed)):
                entry = ({} if circled and boxed else {0: 1} if circled else
                         {1: -1} if boxed else {0: 1, 1: -1})
                product = collections.Counter()
                for (i, x), (j, y) in itertools.product(weight.items(), entry.items()):
                    product[i + j] += x * y
                weight = product
            want[pattern_wt(dp.pattern, lam)].update(weight)
        want = {w: {-k: c for k, c in poly.items() if c} for w, poly in want.items()}
        plan = walk_plan(r.spec, lam)
        sums = series._row_sums(plan, slot_table(r.spec, 1, normalized=True))
        assert dict(zip(plan.codec.decode_all(sums), sums.values())) == \
            {w: poly for w, poly in want.items() if poly}, (family, rank, lam)


def test_the_unit_choice_leaves_b_and_d_alone():
    # B and D take the unit q^-a already: asking for it changes no entry
    # factor and no row sum
    for family in "BD":
        for a, circled, boxed, middle, n in itertools.product(
                range(1, 4), (False, True), (False, True), (False, True), (1, 2, 3)):
            assert entry_factor(family, a, circled, boxed, middle, n, normalized=True) == \
                entry_factor(family, a, circled, boxed, middle, n)
    for family, rank, lam, n in [("B", 3, (1, 1, 1), 2), ("B", 2, (2, 1), 1),
                                 ("D", 4, (1, 1, 1, 1), 2), ("D", 3, (2, 1, 2), 1)]:
        spec = CartanSpec(family, rank)
        plan = walk_plan(spec, lam)
        assert series._row_sums(plan, slot_table(spec, n, normalized=True)) == \
            series._row_sums(plan, slot_table(spec, n))


def test_tokuyama_quotient_lambda_independent():
    # one D, expanded from the model's roots, factors every P of the rank:
    # P = D * chi~ through the term-by-term product, and D is the quotient
    r = rs("A", 2)
    D = deformed_denominator(r)
    for lam in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        res = tokuyama_quotient(r, lam)
        assert res.ok, (lam, res.reason)
        assert res.quotient == D
        chi = twisted_character(r, tuple(c - 1 for c in lam))
        assert poly_product(D, chi) == p_part(r, lam, 1)


def test_tokuyama_quotient_times_divisor_reconstructs():
    r = rs("A", 2)
    lam = (2, 1)
    res = tokuyama_quotient(r, lam)
    product = poly_product(res.quotient, twisted_character(r, (1, 0)))
    P = p_part(r, lam, 1)
    assert product.terms == P.terms


def test_tokuyama_rank_one_closed_form():
    res = tokuyama_quotient(rs("A", 1), (3,))
    assert res.ok
    assert dict(res.quotient.terms) == {(1,): CoeffElement.from_int(1),
                                        (-1,): CoeffElement.from_int(-1)}


TYPE_C_TOKUYAMA_CASES = ([(2, lam) for lam in itertools.product(range(1, 6), repeat=2)]
                         + [(3, lam) for lam in itertools.product(range(1, 4), repeat=3)]
                         + [(4, lam) for lam in itertools.product((1, 2), repeat=4)]
                         + [(5, (1,) * 5)])


def test_tokuyama_factorization_holds_in_type_c():
    # at n = 1 type C factors as type A does, over its own positive roots
    # (Casselman-Shalika): P = D * chi~, and below rank 5 the quotient is
    # the model's D, expanded from C's roots in the unit-vector model
    assert len(TYPE_C_TOKUYAMA_CASES) == 69
    denominators = {}
    for rank, lam in TYPE_C_TOKUYAMA_CASES:
        r = rs("C", rank)
        res = tokuyama_quotient(r, lam)
        assert res.ok, (lam, res.reason)
        if rank < 5:
            if rank not in denominators:
                denominators[rank] = deformed_denominator(r)
            assert res.quotient == denominators[rank], lam


def _q_bits(r, lam):
    """The digit width of ``tokuyama_quotient`` at ``lam``, from the Weyl
    dimension of lam - rho."""
    return series._q_bits(r, weyl_dimension(r, tuple(c - 1 for c in lam)))


def _t_digits_poly(r, codec, bits, top, table):
    """The q-form polynomial of an int table at t = 1/q = 2^bits whose
    t-digits count down from the height ``top``: the value sum c_k 2^(bits k)
    at weight w is sum c_k q^((top - h.w)/2 - k), h = ``r.height_vec``."""
    terms = {}
    for w, v in zip(codec.decode_all(table), table.values()):
        ht, odd = divmod(top - sum(map(mul, r.height_vec, w)), 2)
        assert not odd, w
        terms[w] = sum((Q(ht - k, c) for k, c in kronecker_decode(v, bits).items()),
                       CoeffElement.zero())
    return WeightPolynomial(r.height_vec, terms)


def _largest_coefficient(poly) -> int:
    return max(abs(c) for el in poly.terms.values() for c, _, _ in el.monomials())


@pytest.mark.parametrize("family,rank", [pytest.param("A", k, id=str(k)) for k in range(1, 6)]
                         + [pytest.param("C", k, id=f"C{k}") for k in range(2, 5)])
def test_tokuyama_partial_products_stay_inside_the_codec(monkeypatch, family, rank):
    # every partial product, of x^rho * chi and then of x^rho alone with D's
    # binomials, an int table at t = 1/q = 2^B, taken to q by the height rule
    # (times q^ht(lam - w), and q^ht(rho - w) for D's), is the same product of
    # x^rho * chi~ or x^rho with D's binomials in q on tuple weights: its
    # coefficients stay below 2^(B-1), inside the digit codec,
    # and its coordinates <w, alpha_i^vee> within the largest <lam, beta^vee>
    # over positive coroots, sum(lam) in type A and at most 2 * sum(lam) in
    # type C, inside the weight codec's field bound 4 * sum(lam); the
    # quotient is the model's D
    r = rs(family, rank)
    tables, add = [], series.add_into

    def recording(acc, b, scale=1, drop=0):
        tables.append(add(acc, b, scale, drop))
        return tables[-1]

    monkeypatch.setattr(series, "add_into", recording)
    binomials = [WeightPolynomial(r.height_vec, {(0,) * rank: CoeffElement.one(),
                                                 tuple(-c for c in root): Q(sum(coords) - 1, -1)})
                 for root, coords in zip(r.positive_roots, r.positive_roots_root_coords)]
    rho = (1,) * rank
    for lam in {rho, (2,) + rho[1:], rho[:-1] + (2,)}:
        tables.clear()
        res = tokuyama_quotient(r, lam)
        assert res.ok and res.quotient == deformed_denominator(r)
        codec, bits = walk_plan(r.spec, lam).codec, _q_bits(r, lam)
        tops = [sum(map(mul, r.height_vec, top)) for top in (lam, rho)]
        cap = max(sum(map(mul, lam, coroot)) for coroot in r.positive_coroots)
        assert cap <= (1 if family == "A" else 2) * sum(lam) and 4 * sum(lam) < codec.bias
        chi = twisted_character(r, tuple(c - 1 for c in lam))
        want = []
        for start in (poly_product(chi, WeightPolynomial(r.height_vec, {rho: CoeffElement.one()})),
                      WeightPolynomial(r.height_vec, {rho: CoeffElement.one()})):
            for binomial in binomials:
                start = poly_product(start, binomial)
                want.append(start)
        assert len(tables) == len(want) == 2 * len(binomials)
        for k, (table, poly) in enumerate(zip(tables, want)):
            assert all(isinstance(v, int) and v for v in table.values())
            top = tops[k >= len(binomials)]
            assert _t_digits_poly(r, codec, bits, top, table) == poly
            assert _largest_coefficient(poly) < 1 << (bits - 1)
            assert all(abs(c) <= cap for w in poly.terms for c in w)


def _patch_p_sums(monkeypatch, change):
    """Pass the terms of every sum that ``series._p_sums`` returns, as a
    weight -> CoeffElement dict, through ``change(r, lam, terms)``, which
    returns new terms or a false value to leave them.  An int table, the
    Tokuyama check's values at t = 1/q = 2^B, is decoded and encoded again
    with that check's B, in t: the coefficient at w counts its t-digits down
    from q^ht(lam - w)."""
    def wrapped(spec, lam, factor):
        plan, sums = _p_sums(spec, lam, factor)
        r = rs(spec.family, spec.rank)
        top = sum(map(mul, r.height_vec, lam))
        if isinstance(factor.one, int):
            bits = _q_bits(r, lam)
            terms = _t_digits_poly(r, plan.codec, bits, top, sums).terms
        else:
            terms = poly_from_packed(r.height_vec, plan.codec, sums).terms
        new = change(r, lam, dict(terms))
        if not new:
            return plan, sums
        if isinstance(factor.one, int):
            def at_t(w, c):
                ht = (top - sum(map(mul, r.height_vec, w))) // 2
                return kronecker_encode({ht - e: x for e, x in c.packed().items()}, bits)
            return plan, {plan.codec.pack(w): at_t(w, c) for w, c in new.items()}
        return plan, {plan.codec.pack(w): c.packed() for w, c in new.items()}

    monkeypatch.setattr(series, "_p_sums", wrapped)


@pytest.mark.parametrize("where", ["top", "below"])
def test_tokuyama_stray_term_is_an_inexact_division(monkeypatch, where):
    # one stray term in P, whether it changes the leading coefficient or
    # sits below every weight of P, is all of P - D * chi~.  The stray is
    # q^-2: the check runs in t = 1/q, where a coefficient at x^lam holds no
    # positive power of q
    stray = {}

    def with_stray(r, lam, terms):
        low = WeightPolynomial(r.height_vec, terms).sorted_weights()[-1]
        w = lam if where == "top" else tuple(c - 3 for c in low)
        stray[lam] = w
        terms[w] = terms.get(w, CoeffElement.zero()) + Q(-2)
        return terms

    _patch_p_sums(monkeypatch, with_stray)
    r = rs("A", 2)
    res = tokuyama_quotient(r, (2, 1))
    assert not res.ok and res.quotient is None
    w = stray[(2, 1)]
    assert res.remainder == WeightPolynomial(r.height_vec, {w: Q(-2)})
    assert res.reason.endswith(f"leading weight is {list(w)}")


def _drop_term(r, lam, terms):
    w = WeightPolynomial(r.height_vec, terms).sorted_weights()[len(terms) // 2]
    del terms[w]
    return terms


def _move_q_exponent(r, lam, terms):
    w = WeightPolynomial(r.height_vec, terms).sorted_weights()[len(terms) // 2]
    c, e, _ = terms[w].monomials()[0]
    terms[w] = terms[w] - Q(e, c) + Q(e + 1, c)
    return terms


_TOKUYAMA_MUTANT_LAMBDAS = [(1, 1), (2, 1), (1, 1, 1), (2, 1, 2)]


def _differences(mutate_p, denominator) -> dict:
    """Per lambda of ``_TOKUYAMA_MUTANT_LAMBDAS``, P' - D' * chi~ on tuple
    weights: P' is P's terms passed through ``mutate_p(r, lam, terms)``, and
    D' is ``denominator(r)``.  Taken before any patch."""
    out = {}
    for lam in _TOKUYAMA_MUTANT_LAMBDAS:
        r = rs("A", len(lam))
        P = WeightPolynomial(r.height_vec, mutate_p(r, lam, dict(p_part(r, lam, 1).terms)))
        product = poly_product(denominator(r), twisted_character(r, tuple(c - 1 for c in lam)))
        out[lam] = WeightPolynomial(r.height_vec, {w: P.coeff(w) - product.coeff(w)
                                                   for w in P.terms.keys() | product.terms.keys()})
    return out


def _assert_mutant_fails(want: dict):
    """Each lambda's result fails with remainder ``want[lam]`` and its
    leading weight named, and so does the suite's case of its rank, with
    the first one's reason as witness."""
    rep = verification.run_tokuyama_suite(list(want))
    assert not rep["ok"]
    for case in rep["cases"]:
        mine = [lam for lam in want if case["name"].startswith(f"rank={len(lam)}:")]
        assert case["status"] == "fail" and case["failed"] == [list(lam) for lam in mine]
        for lam in mine:
            res = tokuyama_quotient(rs("A", len(lam)), lam)
            assert not res.ok and res.quotient is None
            assert res.remainder == want[lam]
            assert res.reason.endswith(f"leading weight is {list(want[lam].sorted_weights()[0])}")
        assert case["witness"] == tokuyama_quotient(rs("A", len(mine[0])), mine[0]).reason
    assert len(rep["cases"]) == 2


@pytest.mark.parametrize("mutate", [_drop_term, _move_q_exponent], ids=["drop", "move-q"])
def test_tokuyama_mutated_p_fails_with_its_first_differing_weight(monkeypatch, mutate):
    want = _differences(mutate, deformed_denominator)
    _patch_p_sums(monkeypatch, mutate)
    _assert_mutant_fails(want)


def test_tokuyama_suite_checks_the_quotient_against_the_closed_form(monkeypatch):
    # D with the highest root's binomial at q^(ht a), not q^(ht a - 1), that
    # is at t^0, not t: (1 - x^-a), factors no P, and every rank's case
    # fails with its witness
    def shifted(r, codec, bits, table):
        for coords in r.positive_roots_root_coords:
            e = coords != r.positive_roots_root_coords[-1]
            table = series.add_into(dict(table), table, -1 << bits * e,
                                    sum(map(mul, coords, codec.roots)))
        return table

    want = _differences(lambda r, lam, terms: terms,
                        lambda r: deformed_denominator(r, r.positive_roots[-1]))
    monkeypatch.setattr(series, "_times_denominator", shifted)
    _assert_mutant_fails(want)


def test_tokuyama_suite_refuses_an_empty_selection():
    # None runs the defaults; an empty list selects no case, as in every suite
    with pytest.raises(ValueError, match="selected no cases"):
        verification.run_tokuyama_suite([])
    assert len(verification.run_tokuyama_suite(None)["cases"]) == 5


def test_tokuyama_requires_type_a_and_strong_dominance():
    # type C is asserted too; B and D are refused, by a message naming both
    for family, rank in (("B", 2), ("B", 3), ("D", 3), ("D", 4)):
        with pytest.raises(ValueError, match="asserted for types A and C only"):
            tokuyama_quotient(rs(family, rank), (1,) * rank)
    for family in "AC":
        with pytest.raises(ValueError, match="strongly dominant"):
            tokuyama_quotient(rs(family, 2), (1, 0))
    # lambda is checked before anything packs it, and the error names
    # lambda, not lambda - rho
    with pytest.raises(ValueError, match="weight coordinate must be an integer, got 2.0"):
        tokuyama_quotient(rs("A", 3), (2.0, 2, 2))
    with pytest.raises(ValueError, match=r"weight \(2, 2\) has 2 coordinates, rank is 3"):
        tokuyama_quotient(rs("A", 3), (2, 2))


def test_tokuyama_results_are_decoded_on_first_read(monkeypatch):
    # the check decodes no value: the quotient comes back as its table at
    # t = 1/q = 2^B, counted down from h . rho, and the first read of its
    # terms decodes each of D's values once, to the quotient that a decode
    # of every value gives; its weights in the fixed order are read off the
    # keys alone, and so is the leading weight that a failing check names,
    # so its remainder decodes nothing until its terms are read
    assert not hasattr(series, "_decoded") and not hasattr(series, "kronecker_decode")
    calls, decode = [], weightpoly.kronecker_decode
    monkeypatch.setattr(weightpoly, "kronecker_decode",
                        lambda v, bits: calls.append(v) or decode(v, bits))
    r, lam = rs("A", 3), (3, 3, 3)
    res = tokuyama_quotient(r, lam)
    order = res.quotient.sorted_weights()
    assert res.ok and not calls
    codec, table, (bits, top) = res.quotient._packed
    assert bits == _q_bits(r, lam) and all(isinstance(v, int) for v in table.values())
    assert top == sum(r.height_vec)
    want = _t_digits_poly(r, codec, bits, top, dict(table))
    # the order that the weights of packed_items, which reads every value, give
    assert order == [w for w, _ in want.packed_items()]
    assert res.quotient.terms == want.terms == deformed_denominator(r).terms
    assert sorted(calls) == sorted(table.values()) and len(calls) == len(want)
    res.quotient.packed_items()
    assert len(calls) == len(want)

    calls.clear()
    stray = []

    def with_strays(r, lam, terms):
        low = WeightPolynomial(r.height_vec, terms).sorted_weights()[-1]
        stray.extend(tuple(c - k for c in low) for k in (4, 3))
        terms.update(zip(stray, (Q(2), Q(1, -1))))
        return terms

    _patch_p_sums(monkeypatch, with_strays)
    res = tokuyama_quotient(rs("A", 2), (2, 1))
    order = res.remainder.sorted_weights()
    assert not res.ok and not calls
    assert res.remainder.terms == dict(zip(stray, (Q(2), Q(1, -1)))) and len(calls) == 2
    assert order == [w for w, _ in res.remainder.packed_items()] == stray[::-1]
    assert res.reason.endswith(f"leading weight is {list(order[0])}")


def test_tokuyama_check_decodes_no_weight(monkeypatch):
    # nothing reads a polynomial's terms on the success path: the character
    # stays a packed table from the Demazure loop to the comparison with P,
    # and the quotient comes back undecoded, still the model's D
    reads = []
    terms = WeightPolynomial.terms
    monkeypatch.setattr(WeightPolynomial, "terms",
                        property(lambda poly: reads.append(poly) or terms.fget(poly)))
    results = [tokuyama_quotient(rs("A", len(lam)), lam)
               for lam in [(2, 1), (3, 3, 3), (2, 1, 1, 2)]]
    assert not reads
    monkeypatch.undo()
    for res in results:
        assert res.ok and undecoded(res.quotient)
        assert res.quotient == deformed_denominator(rs("A", len(res.lam)))


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------

def test_branch_groups_cover_the_crystal():
    r = rs("A", 2)
    bd = branch_decompose(r, (1, 0), 1)
    assert sum(g.size for g in bd.groups) == 3
    assert bd.all_ok


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 3, (1, 1, 1)), ("A", 3, (2, 1, 3)), ("B", 3, (1, 1, 1)), ("B", 3, (2, 1, 1)),
    ("C", 3, (1, 1, 1)), ("C", 3, (1, 2, 1)), ("D", 4, (1, 1, 1, 1)), ("D", 4, (2, 1, 1, 1)),
    ("B", 4, (1, 1, 1, 1)), ("C", 4, (2, 1, 1, 1)), ("D", 5, (1, 1, 1, 1, 1))])
def test_top_rows_count_the_levi_components(family, rank, lam):
    # ROADMAP item 23 stage 1: B(lam) restricted to the Levi on nodes
    # 1..r-1 splits into crystals B(mu), one per filling of row 1 with
    # branch weight mu (Kashiwara), so the fillings of each mu number the
    # multiplicity of the Levi's V(mu) in V(lam), read off the characters
    r = rs(family, rank)
    plan = walk_plan(r.spec, lam)
    tops = collections.Counter(plan.codec.decode(w)[:-1]
                               for _, _, _, w, _ in _walk(plan, row=1, wt=plan.top))
    assert tops == oracles.levi_multiplicities(r, rs(family, rank - 1), lam)


def test_branch_reads_lambda_before_it_builds_the_branch_root_system(monkeypatch):
    # lambda is read through the one highest-weight check, before the
    # rank-(r-1) root system and its slot tables are built, and the report
    # holds the checked ints; any dominant lambda is summed, as p_part's
    # allow_dominant does
    def fail(spec):
        raise RuntimeError(f"root system of {spec} built before the lambda check")
    monkeypatch.setattr(series, "build_root_system", fail)
    with pytest.raises(ValueError, match=r"weight \(1, 1\) has 2 coordinates, rank is 3"):
        branch_decompose(rs("A", 3), (1, 1), 1)
    with pytest.raises(ValueError, match=r"highest weight must be dominant, got \(1, -1, 1\)"):
        branch_decompose(rs("A", 3), (1, -1, 1), 1)
    monkeypatch.undo()
    bd = branch_decompose(rs("A", 2), [True, 0], 1)
    assert bd.lam == (1, 0) and all(type(c) is int for c in bd.lam) and bd.all_ok


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
        up = tuple(a + b for a, b in zip(mu, (row[0] for row in r.cartan)))
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


def test_branch_lower_sum_clash_is_recorded(monkeypatch):
    # a lower sum with two weights of one prefix (first r - 1 coordinates)
    # is no sum over the branch crystal: every group of that mu records it,
    # with the prefix as witness, and nothing is raised
    row_sums, clashed = series._row_sums, {}

    def with_clash(plan, factor=None, row=1, wt=None):
        sums = row_sums(plan, factor, row, wt)
        if row == 2 and sums:
            codec = plan.codec
            x, c = next(iter(sums.items()))
            *prefix, _ = codec.decode(x)
            clashed[codec.decode(wt)[:-1]] = tuple(prefix)
            # the same prefix, one more in the last coordinate
            sums[x + (1 << len(prefix) * codec.width)] = c
        return sums

    monkeypatch.setattr(series, "_row_sums", with_clash)
    bd = branch_decompose(rs("A", 3), (1, 1, 1), 1)
    assert clashed and not bd.all_ok
    for g in bd.groups:
        assert g.truncation_ok and g.factorization_ok
        assert g.s_additivity_ok == (g.mu not in clashed)
        assert g.witness == (str(clashed[g.mu]) if g.mu in clashed else None)


@pytest.mark.parametrize("family,rank,lam,n", [("A", 3, (2, 1, 2), 2), ("B", 3, (1, 1, 1), 2),
                                               ("D", 4, (1, 1, 1, 1), 2)])
def test_branch_coarse_memo_key_is_caught(monkeypatch, family, rank, lam, n):
    # with row 2's key set to nothing, the whole crystal's row loop reads
    # every row-2 state's fillings from the first one's, so its P is wrong;
    # each lower sum starts from one weight and so stays right, and every
    # group factors: the identity alone catches it
    plan_of = series.walk_plan

    def coarse(spec, mu):
        plan = plan_of(spec, mu)
        if spec.rank < rank:
            return plan
        return plan._replace(reads=(plan.reads[0], 0) + plan.reads[2:])

    monkeypatch.setattr(series, "walk_plan", coarse)
    bd = branch_decompose(rs(family, rank), lam, n)
    assert len({g.mu for g in bd.groups}) > 1
    assert all(g.factorization_ok for g in bd.groups)
    assert not bd.identity_ok


@pytest.mark.parametrize("family,rank,lam", [("A", 3, (2, 1, 2)), ("B", 3, (1, 1, 1)),
                                             ("D", 4, (1, 1, 1, 1))])
def test_lower_sums_depend_on_the_branch_weight_alone(monkeypatch, family, rank, lam):
    # rows 2 and below read only the fields of letters 1..r-1, which hold
    # mu: every top row's lower sum, as offsets from its shift, is the first
    # top row's of the same mu, so branch_decompose takes it, P_mu and the
    # dimension of mu's crystal once per mu
    r, n = rs(family, rank), 2
    factor, plan = slot_table(r.spec, n), walk_plan(r.spec, lam)
    first, tops = {}, 0
    for *_, w, _ in _walk(plan, row=1, wt=plan.top):
        shift = plan.codec.decode(w)
        terms = series._row_sums(plan, factor, 2, w)
        offsets = {tuple(a - b for a, b in zip(x, shift)): t
                   for x, t in zip(plan.codec.decode_all(terms), terms.values())}
        assert first.setdefault(shift[:rank - 1], offsets) == offsets, shift
        tops += 1
    assert tops > len(first) > 1

    calls = []

    def counted(name, key):
        fn = getattr(series, name)

        def wrapped(*args):
            calls.append((name, key(*args)))
            return fn(*args)
        monkeypatch.setattr(series, name, wrapped)

    counted("_row_sums", lambda plan, factor=None, row=1, wt=None: row)
    counted("_p_sums", lambda spec, lam, factor: spec.rank)
    counted("weyl_dimension", lambda r, mu: r.rank)
    assert branch_decompose(r, lam, n).all_ok
    for call in [("_row_sums", 2), ("_p_sums", rank - 1), ("weyl_dimension", rank - 1)]:
        assert calls.count(call) == len(first), call


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
        tagged.one = factor.one
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


# monomials: q exponents of either sign, symbols of degrees 2..5 with powers
# up to 3, several to an element
element_strategy = st.dictionaries(
    st.tuples(st.integers(-6, 6),
              st.lists(st.tuples(st.sampled_from((1, 2)), st.integers(0, 4),
                                 st.integers(2, 5), st.integers(1, 3)), max_size=3).map(tuple)),
    st.integers(-5, 5).filter(bool), min_size=1, max_size=4).map(
    lambda mons: element({(e, tuple(((t, r % d, d), m) for t, r, d, m in g)): c
                          for (e, g), c in mons.items()})).filter(bool)


@st.composite
def polynomials(draw):
    """(polynomial, kind): an undecoded int or packed-dict table, or decoded
    terms, over C2's weights within [-6, 6]^2; possibly empty."""
    r = rs("C", 2)
    kind = draw(st.sampled_from(("int", "dict", "decoded")))
    value = st.integers(-10**20, 10**20).filter(bool) if kind == "int" else element_strategy
    terms = draw(st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), value,
                                 max_size=10))
    if kind == "decoded":
        return WeightPolynomial(r.height_vec, terms), kind
    codec = weight_codec((3, 3), r.cartan)
    return poly_from_packed(r.height_vec, codec, {
        codec.pack(w): c if kind == "int" else dict(c.packed()) for w, c in terms.items()}), kind


@settings(max_examples=300, deadline=None)
@given(polynomials())
def test_polynomial_json_matches_the_decoded_reference(drawn):
    # the packed reader and the per-part cache against the terms decoded and
    # rendered one fresh dict at a time; an undecoded table stays undecoded
    poly, kind = drawn
    text = json.dumps(polynomial_json_obj(poly, "C", 2, 3, (2, 1)))
    assert undecoded(poly) == (kind != "decoded")
    assert text == json.dumps(oracles.polynomial_json_obj(poly, "C", 2, 3, (2, 1)))
    for c in poly.terms.values():
        assert repr(c) == oracles.coeff_text(c)


def test_json_leaves_engine_results_undecoded():
    r = rs("B", 3)
    for poly, n, lam in [(p_part(r, (1, 1, 1), 2), 2, (1, 1, 1)),
                         (character_via_patterns(r, (2, 1, 1)), 1, (2, 1, 1))]:
        assert undecoded(poly)
        polynomial_json_obj(poly, "B", 3, n, lam)
        assert undecoded(poly)


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


# SHA-256 of the stdout of `crystalmds compute` (text) on the fixed case set,
# recorded before the text read packed values.
TEXT_SHA256 = {
    "A3-222-n3": ("A", 3, "2,2,2", 3,
                  "1c3177fd7dcf74c68c98f2a6157102513cfb6cb52ba5d39c32f525f49706fa8b"),
    "C3-211-n3": ("C", 3, "2,1,1", 3,
                  "2242e8b1f0b4a0ce6498c62b926a583cab2e817d28a36e459c431fb5f954144c"),
    "B3-rho-n2": ("B", 3, "1,1,1", 2,
                  "a5dc4070cda66c2c316e147745e95514978e98cc71ac6235723f30ba30273597"),
    "D4-rho-n2": ("D", 4, "1,1,1,1", 2,
                  "1f892a47e34a290861ab62309a83913606f55e170188dfed01c77fdc3f292c1f"),
}


@pytest.mark.parametrize("case", TEXT_SHA256)
def test_fixed_case_text_bytes(case, capsys):
    family, rank, lam, n, digest = TEXT_SHA256[case]
    assert cli.main(["compute", "--family", family, "--rank", str(rank),
                     "--lambda", lam, "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
