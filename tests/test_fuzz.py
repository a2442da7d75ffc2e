"""A shrinking fuzzer over cheap theorem oracles (ROADMAP item 22).

Each property draws crystals (family, rank, lambda) with lambda in
{low..3}^rank and dim V(lambda) below ``MAX_DIM``, and checks the package
against an oracle of ``tests/oracles.py``, or, for Tokuyama's
factorization, through the package's own multiplied-out check, with its
quotient read back against the oracle's D.  The draws are derandomized
and their number fixed, so every run tests the same cases; a failing draw
shrinks toward the first family, the least rank, the least lambda and the
least n, the smallest witness.  Type D is drawn only for the properties
that hold there; ``tests/findings.py`` pins the ones that fail in type D.
Tokuyama's factorization is drawn in types A and C, the two families whose
n = 1 sums it covers.
"""
import collections
from functools import lru_cache

from hypothesis import assume, given, settings, strategies as st

from crystalmds import (CartanSpec, build_root_system, character_via_patterns, p_part,
                        tokuyama_quotient)
from crystalmds.patterns import _walk, walk_plan
from crystalmds.roots import _MIN_RANK, weyl_dimension
from oracles import (_signed_orbit, deformed_denominator, first_mixed_weight,
                     freudenthal_multiplicities, gauss_normal_form, levi_multiplicities)

MAX_DIM = 3_000
TOP_RANK = 4


def fuzz(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


def rs(family, rank):
    return build_root_system(CartanSpec(family, rank))


@st.composite
def crystals(draw, families: str, low: int, rank_over_min: int = 0):
    """(family, rank, lambda), rank from the family's least plus
    ``rank_over_min`` up to ``TOP_RANK``."""
    family = draw(st.sampled_from(families))
    rank = draw(st.integers(_MIN_RANK[family] + rank_over_min, TOP_RANK))
    lam = draw(st.tuples(*[st.integers(low, 3)] * rank))
    assume(weyl_dimension(rs(family, rank), lam) < MAX_DIM)
    return family, rank, lam


@fuzz(25)
@given(crystals("ABCD", low=0))
def test_character_via_patterns_is_freudenthal(case):
    family, rank, lam = case
    chi = character_via_patterns(rs(family, rank), lam)
    assert {w: v[0] for w, v in chi.packed_items()} == freudenthal_multiplicities(*case)


@fuzz(300)
@given(crystals("ABCD", low=0, rank_over_min=1))
def test_top_rows_count_the_levi_multiplicities(case):
    # the fillings of row 1 by branch weight mu number the Levi's V(mu)
    family, rank, lam = case
    r = rs(family, rank)
    plan = walk_plan(r.spec, lam)
    tops = collections.Counter(plan.codec.decode(w)[:-1]
                               for _, _, _, w, _ in _walk(plan, row=1, wt=plan.top))
    assert tops == levi_multiplicities(r, rs(family, rank - 1), lam)


@fuzz(300)
@given(crystals("ABC", low=1), st.integers(3, 7))
def test_one_gauss_part_per_weight(case, n):
    family, rank, lam = case
    assert first_mixed_weight(p_part(rs(family, rank), lam, n), n) is None


@fuzz(300)
@given(crystals("ABC", low=1))
def test_stable_range_support_is_the_orbit(case):
    # Brubaker-Bump-Friedberg: above every <lambda, alpha^vee>, P is
    # supported on W.lambda
    family, rank, lam = case
    r = rs(family, rank)
    assert p_part(r, lam, 60).terms.keys() == _signed_orbit(r, lam).keys()


@fuzz(300)
@given(crystals("A", low=1, rank_over_min=1), st.integers(1, 6))
def test_a_flip_reverses_every_weight(case, n):
    # the diagram automorphism of A_r reverses the simple roots, so P of
    # reversed lambda is P of lambda with every weight reversed, in the
    # normal form of the Gauss relations
    family, rank, lam = case
    r = rs(family, rank)

    def normal_form(lam, flip):
        return {w[::-1] if flip else w: nf for w, c in p_part(r, lam, n).terms.items()
                if (nf := gauss_normal_form(c, n))}

    assert normal_form(lam, True) == normal_form(lam[::-1], False)


@lru_cache(maxsize=None)
def _denominator(family, rank):
    return deformed_denominator(rs(family, rank))


@fuzz(100)
@given(crystals("A", low=1))
def test_tokuyama_factorization_holds(case):
    # at n = 1, P is the deformed Weyl denominator times the twisted
    # character of lambda - rho (Tokuyama), and the quotient, checked in
    # t = 1/q, reads back in q as the model's D
    family, rank, lam = case
    res = tokuyama_quotient(rs(family, rank), lam)
    assert res.ok and res.quotient == _denominator(family, rank)


@fuzz(100)
@given(crystals("C", low=1))
def test_type_c_tokuyama_factorization_holds(case):
    # at n = 1, type C factors as type A does, over C's own positive roots
    # (Casselman-Shalika), with the model's D as quotient
    family, rank, lam = case
    res = tokuyama_quotient(rs(family, rank), lam)
    assert res.ok and res.quotient == _denominator(family, rank)
