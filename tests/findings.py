"""Measured findings as code: each function regenerates one table that
ROADMAP reports, as rows of (check, family, lambda, n, status,
differing-weight count, first differing weight, sigma).  A row's status is
"agree" or "differ"; an agreeing row has count 0 and no first weight.
``sigma`` names the map a row applies, for the checks that take one.

``d3_a3_rows`` is ROADMAP item 17's first table, the D3 = A3 arbiter for
the type-D rule (item 3).  The index map D(1,2,3) -> A(1,3,2) identifies
the two root data, so P of D3 lambda should equal P of A3 at the mapped
lambda, with every weight mapped the same way, once D's coefficient at w is
twisted by q^ht, ht = h . (lambda - w) / 2 the height of the drop
(h = D3's ``height_vec``).  Both sides are compared weight by weight in
``oracles.gauss_normal_form``, and the first differing weight is the
highest in A3's fixed order, in A3's coordinates.

``d4_automorphism_rows`` is item 2's check of the D4 diagram automorphisms
that fix lambda: the fork swap (w1 <-> w2) and 1 <-> 4 (w1 <-> w4; the
repo's D4 has fork nodes 1, 2 and 4 around centre 3).  Such a sigma carries
the root datum to itself, so P(lambda) at w should equal P(lambda) at
sigma w, with no twist.  Each weight is compared in ``gauss_normal_form``,
and the first differing weight is the highest by (h . w, w), h = D4's
``height_vec``, as in ``d3_a3_row``.

``one_gauss_part_rows`` is item 19's type-D table: a row differs where
some weight's coefficient has more than one Gauss key in
``gauss_normal_form``.  The count is the number of such weights, and the
first is ``oracles.first_mixed_weight``'s, the first in the fixed order.

``stable_range_rows`` is item 17's stable-range table: at n = 60, above
every <lambda, alpha^vee> of its lambdas, Brubaker-Bump-Friedberg give P
supported on the Weyl orbit W.lambda.  A row counts the weights where P's
support and W.lambda differ, and the first is the highest of them by
(h . w, w).  In every row measured the orbit lies in the support, so the
count is P's term count less |W.lambda|.

``type_d_n1_rows`` is ROADMAP item 24's type-D table at n = 1, where every
coefficient is a Laurent polynomial in q.  D is simply laced, so
Casselman-Shalika give type A's form over D's own roots: D's coefficient at
w, twisted by q^ht as in ``d3_a3_row``, should be the coefficient at w of
x^rho prod_(a>0) (1 - q^(ht a - 1) x^-a) times the twisted character of
lambda - rho (``oracles.deformed_denominator`` times
``oracles.twisted_character``).  Elements are compared as they are, and the
first differing weight is the highest by (h . w, w) in D's coordinates.  On
D3 it is the D3 = A3 arbiter again, with the same count as ``d3_a3_row`` at
n = 1 for every lambda, and it reaches every rank.

``b_rho_n2_rows`` is item 24's type-B table at n = 2, a measured table
rather than a theorem check: P of B_r rho, twisted by q^ht as in
``d3_a3_row``, against the product over B's positive roots
x^rho prod_long (1 - q^(ht a - 1) x^-a) prod_short (1 + g_1(1) q^(ht a - 1)
x^-a) of ``oracles.b_rho_n2_form``, g_1(1) = sqrt(q) at n = 2, compared in
``gauss_normal_form``.  The first differing weight is the highest by
(h . w, w).  It runs on B2-B5; B5 takes seconds, so tier-1 pins B2-B4.

``rule_screen`` runs a candidate type-D component rule through the type-D
tables above (homogeneity, stable range, D3 = A3, the n = 1 form), for item
3: it swaps ``coefficients._component_factor`` for the candidate while the
rows are computed, and restores it after, so a candidate's table can be set
beside today's with no engine option.

Run as a script (``python tests/findings.py``, with the package importable)
it prints every row as one JSON object per line.  The tier-1 tests pin
each row's status (``tests/test_findings.py``).
"""
from __future__ import annotations

import itertools
import json
from operator import mul, sub
from typing import NamedTuple

from crystalmds import CartanSpec, CoeffElement, build_root_system, coefficients, p_part
from oracles import (_signed_orbit, b_rho_n2_form, deformed_denominator, first_mixed_weight,
                     gauss_normal_form, twisted_character)


class Row(NamedTuple):
    check: str
    family: str
    lam: tuple[int, ...]
    n: int
    status: str                         # "agree" or "differ"
    count: int                          # weights at which the sides differ
    first: tuple[int, ...] | None       # the highest of them, None if none
    sigma: str | None = None            # the map the check applies, if any


def _highest(height_vec, weights):
    """The highest of ``weights`` by (h . w, w), None if there are none."""
    return max(weights, key=lambda w: (sum(map(mul, height_vec, w)), w), default=None)


def _twisted_normal_forms(rs, lam: tuple[int, ...], n: int) -> dict:
    """P of ``lam`` at cover degree ``n`` in ``gauss_normal_form``, the
    coefficient at w twisted by q^ht, ht = h . (lam - w) / 2."""
    out = {}
    for w, c in p_part(rs, lam, n).terms.items():
        # q^ht is sqrt(q)^(h . (lam - w)) in the normal form's exponents
        half = sum(map(mul, rs.height_vec, map(sub, lam, w)))
        out[w] = {key: {e + half: x for e, x in part.items()}
                  for key, part in gauss_normal_form(c, n).items()}
    return out


D3_A3_LAMBDAS = tuple(itertools.product((1, 2, 3), repeat=3))
D3_A3_DEGREES = range(1, 6)


def _d3_to_a3(v):
    return v[0], v[2], v[1]


def d3_a3_row(lam: tuple[int, ...], n: int) -> Row:
    """P of D3 ``lam``, twisted by q^ht and mapped to A3, against P of A3 at
    the mapped lambda, in ``gauss_normal_form`` weight by weight."""
    d3, a3 = build_root_system(CartanSpec("D", 3)), build_root_system(CartanSpec("A", 3))
    want = {w: gauss_normal_form(c, n)
            for w, c in p_part(a3, _d3_to_a3(lam), n).terms.items()}
    got = {_d3_to_a3(w): nf for w, nf in _twisted_normal_forms(d3, lam, n).items()}
    diff = [w for w in got.keys() | want.keys() if got.get(w, {}) != want.get(w, {})]
    return Row("d3_a3", "D", tuple(lam), n, "differ" if diff else "agree", len(diff),
               _highest(a3.height_vec, diff))


def d3_a3_rows() -> list[Row]:
    """``d3_a3_row`` for lambda in {1,2,3}^3 and n = 1..5."""
    return [d3_a3_row(lam, n) for lam in D3_A3_LAMBDAS for n in D3_A3_DEGREES]


# sigma -> the pair of fundamental-weight coordinates it swaps
D4_AUTOMORPHISMS = {"1<->2": (0, 1), "1<->4": (0, 3)}
D4_AUTOMORPHISM_LAMBDAS = ((1, 1, 1, 1), (1, 1, 2, 1), (2, 2, 1, 2))
D4_AUTOMORPHISM_DEGREES = range(1, 7)


def d4_automorphism_row(sigma: str, lam: tuple[int, ...], n: int) -> Row:
    """P of D4 ``lam`` at w against P at sigma w, for a ``sigma`` of
    ``D4_AUTOMORPHISMS`` that fixes ``lam``, in ``gauss_normal_form``."""
    i, j = D4_AUTOMORPHISMS[sigma]

    def swap(v):
        v = list(v)
        v[i], v[j] = v[j], v[i]
        return tuple(v)

    assert swap(lam) == tuple(lam), f"{sigma} moves lambda {lam}"
    d4 = build_root_system(CartanSpec("D", 4))
    nf = {w: gauss_normal_form(c, n) for w, c in p_part(d4, lam, n).terms.items()}
    diff = [w for w in nf.keys() | set(map(swap, nf)) if nf.get(w, {}) != nf.get(swap(w), {})]
    return Row("d4_automorphism", "D", tuple(lam), n, "differ" if diff else "agree",
               len(diff), _highest(d4.height_vec, diff), sigma)


def d4_automorphism_rows() -> list[Row]:
    """``d4_automorphism_row`` for both maps, lambda in
    ``D4_AUTOMORPHISM_LAMBDAS`` and n = 1..6."""
    return [d4_automorphism_row(sigma, lam, n) for sigma in D4_AUTOMORPHISMS
            for lam in D4_AUTOMORPHISM_LAMBDAS for n in D4_AUTOMORPHISM_DEGREES]


# (rank, lambdas) of type D, each at n = 3..7
ONE_GAUSS_PART_CASES = ((3, tuple(itertools.product((1, 2, 3), repeat=3))),
                        (4, tuple(itertools.product((1, 2), repeat=4))))
ONE_GAUSS_PART_DEGREES = range(3, 8)


def one_gauss_part_row(rank: int, lam: tuple[int, ...], n: int) -> Row:
    """The weights of P of D``rank`` ``lam`` whose coefficient has more than
    one Gauss key in ``gauss_normal_form``."""
    P = p_part(build_root_system(CartanSpec("D", rank)), lam, n)
    count = sum(len(gauss_normal_form(c, n)) > 1 for c in P.terms.values())
    found = first_mixed_weight(P, n)
    return Row("one_gauss_part", "D", tuple(lam), n, "differ" if count else "agree", count,
               found and found[0])


def one_gauss_part_rows() -> list[Row]:
    """``one_gauss_part_row`` for D3 lambda in {1,2,3}^3 and D4 lambda in
    {1,2}^4, at n = 3..7."""
    return [one_gauss_part_row(rank, lam, n) for rank, lams in ONE_GAUSS_PART_CASES
            for lam in lams for n in ONE_GAUSS_PART_DEGREES]


STABLE_RANGE_SPECS = (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                      ("D", 3), ("D", 4))
STABLE_RANGE_N = 60


def stable_range_row(family: str, rank: int, lam: tuple[int, ...]) -> Row:
    """The weights where the support of P of ``lam`` (strongly dominant) at
    n = ``STABLE_RANGE_N``, in the root system ``family`` ``rank``, and the
    orbit W.lam differ."""
    rs = build_root_system(CartanSpec(family, rank))
    diff = p_part(rs, lam, STABLE_RANGE_N).terms.keys() ^ _signed_orbit(rs, lam).keys()
    return Row("stable_range", family, tuple(lam), STABLE_RANGE_N,
               "differ" if diff else "agree", len(diff), _highest(rs.height_vec, diff))


def stable_range_cases(families: str = "ABCD") -> list[tuple]:
    """(family, rank, lambda) for each spec of ``STABLE_RANGE_SPECS`` in
    ``families``, with lambda in {1,2}^rank."""
    return [(family, rank, lam) for family, rank in STABLE_RANGE_SPECS if family in families
            for lam in itertools.product((1, 2), repeat=rank)]


def stable_range_rows(families: str = "ABCD") -> list[Row]:
    """``stable_range_row`` for each of ``stable_range_cases(families)``."""
    return [stable_range_row(*case) for case in stable_range_cases(families)]


# (rank, lambdas) of type D, each at n = 1
TYPE_D_N1_CASES = ((3, tuple(itertools.product((1, 2, 3), repeat=3))),
                   (4, tuple(itertools.product((1, 2), repeat=4))),
                   (5, ((1,) * 5,)))


def type_d_n1_row(rank: int, lam: tuple[int, ...]) -> Row:
    """The weights where P of D``rank`` ``lam`` at n = 1, twisted by q^ht,
    and the type-A form over D's roots differ."""
    rs = build_root_system(CartanSpec("D", rank))
    want = deformed_denominator(rs, times=twisted_character(rs, tuple(c - 1 for c in lam))).terms
    got = {}
    for w, c in p_part(rs, lam, 1).terms.items():
        ht, odd = divmod(sum(map(mul, rs.height_vec, map(sub, lam, w))), 2)
        assert not odd, f"weight {w} outside the root lattice shift"
        got[w] = c * CoeffElement.q_power(ht)
    diff = [w for w in got.keys() | want.keys() if got.get(w) != want.get(w)]
    return Row("type_d_n1", "D", tuple(lam), 1, "differ" if diff else "agree", len(diff),
               _highest(rs.height_vec, diff))


def type_d_n1_rows() -> list[Row]:
    """``type_d_n1_row`` for D3 lambda in {1,2,3}^3, D4 lambda in {1,2}^4
    and D5 rho."""
    return [type_d_n1_row(rank, lam) for rank, lams in TYPE_D_N1_CASES for lam in lams]


B_RHO_N2_RANKS = range(2, 6)


def b_rho_n2_row(rank: int) -> Row:
    """The weights where P of B``rank`` rho at n = 2, twisted by q^ht, and
    ``oracles.b_rho_n2_form`` differ, in ``gauss_normal_form``."""
    rs = build_root_system(CartanSpec("B", rank))
    lam = (1,) * rank
    got, want = _twisted_normal_forms(rs, lam, 2), b_rho_n2_form(rank)
    diff = [w for w in got.keys() | want.keys() if got.get(w, {}) != want.get(w, {})]
    return Row("b_rho_n2", "B", lam, 2, "differ" if diff else "agree", len(diff),
               _highest(rs.height_vec, diff))


def b_rho_n2_rows() -> list[Row]:
    """``b_rho_n2_row`` for B2-B5."""
    return [b_rho_n2_row(rank) for rank in B_RHO_N2_RANKS]


def rule_screen(component_factor) -> list[Row]:
    """``one_gauss_part_rows``, the type-D ``stable_range_rows``,
    ``d3_a3_rows`` and ``type_d_n1_rows``, with ``component_factor`` in
    place of ``coefficients._component_factor``, which is restored
    afterwards."""
    today = coefficients._component_factor
    coefficients._component_factor = component_factor
    try:
        return (one_gauss_part_rows() + stable_range_rows("D") + d3_a3_rows()
                + type_d_n1_rows())
    finally:
        coefficients._component_factor = today


if __name__ == "__main__":
    for row in (d3_a3_rows() + d4_automorphism_rows() + one_gauss_part_rows()
                + stable_range_rows() + type_d_n1_rows() + b_rho_n2_rows()):
        print(json.dumps(row._asdict()))
