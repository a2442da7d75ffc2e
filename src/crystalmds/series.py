"""Crystal sums: characters, prime-power parts, deformation quotient, branching.

``p_part`` assembles the polynomial P over a highest-weight crystal: each
pattern contributes its Gauss-sum coefficient at its weight.  The
coefficient is a product of slot factors, each read from a
``coefficients.slot_table`` that lives for the call, so every distinct local
state is computed once, and a zero factor skips its whole subtree.  With
every coefficient replaced by 1 the same sum is the Weyl character, which
gives the primary cross-check against the character that
``roots.weyl_character`` builds with Demazure operators.

Both sums run forward, one row at a time (``_row_sums``), as a row-transfer
matrix does: a table maps each packed weight to the partial sum of every
filling of the rows so far that ends there, and each row takes the table to
the next.  A slot's bounds, marks and factor read its own row and the weight
fields of its column letters, nothing else, so a row's fillings, summed by
the weight they drop, depend only on the weight fields that row reads
(``WalkPlan.reads``).  Each distinct set of them is walked once per row, and
every prefix that reaches a weight is merged into one partial sum before the
next row applies.  The last table is keyed by packed weight, and
``weightpoly.poly_from_packed`` turns it into the polynomial in one step: all
weights decoded a field at a time, and the values taken as they are, since
no table keeps a zero.  ``p_part``'s tables hold packed monomial dicts
(``CoeffElement.packed``), not ring elements: each product of a partial sum
and a filling value is added into the next table's dict in place, and the
polynomial wraps each last dict as an element once, without a copy.  A row
writes only the dicts it created; the ``packed()`` dicts of slot values,
which the slot table and the ring's one share, are read-only.

``tokuyama_quotient`` factors P at degree 1, where every coefficient is a
Laurent polynomial in q (``g_value`` evaluates g there), as a
lambda-independent deformed denominator times a character.  The divisor is
the character with each coefficient twisted by q to the height drop of its
weight; this is the variable normalization under which the factorization is
exact in the weight-polynomial ring (see README notes).  Both operands stay
packed monomial dicts: the numerator is P's row sums (``_p_sums``, the one
sum behind ``p_part`` too), each weight decoded once, and the divisor the
character's terms twisted in place (``_twist``, shared with
``twisted_character``); ``weightpoly.divide_terms`` divides them as they are,
and only the quotient, or the remainder of a failed division, becomes ring
elements.

``branch_decompose`` splits the crystal by top rows into rank-(r-1) crystals
and verifies that both weights and coefficients factor through the split.
The split is the row loop's own: the rows below a filling of row 1 sum over
that group's branch crystal, so each group's lower sum, the same loop started
at row 2 from the group's end, is compared with P of the branch crystal, and
nothing is walked leaf by leaf.  Each rank has one slot table for the call:
the whole crystal's sum and the top rows' factors share one, and the branch
crystals of every mu the other.
"""
from __future__ import annotations

from functools import reduce
from operator import add, mul, sub
from typing import NamedTuple

from .coefficients import CoeffElement, _integer, slot_table
from .patterns import WalkPlan, _walk, walk_plan
from .roots import (CartanSpec, RootSystem, _checked_weight, build_root_system, is_dominant,
                    is_strongly_dominant, weyl_character, weyl_dimension)
from .weightpoly import (Weight, WeightPolynomial, divide_terms, poly_from_packed,
                         poly_from_packed_terms)

__all__ = [
    "WeightPolynomial", "character_via_patterns", "p_part",
    "TokuyamaResult", "tokuyama_quotient",
    "BranchGroupReport", "BranchDecomposition", "branch_decompose",
    "polynomial_json_obj",
]


def _row_sums(plan: WalkPlan, factor=None, row: int = 1, wt: int | None = None) -> dict:
    """The crystal sum from row ``row`` down, below placed rows of packed
    weight ``wt`` (by default the highest weight, above row 1): over every
    filling of those rows, its coefficient (``_walk``'s, the product of its
    factors from the slot table ``factor``, or 1 without one), summed by the
    packed weight it ends at.  Values are ints without ``factor``; with it,
    zero-free packed monomial dicts (``CoeffElement.packed``), which the
    caller owns.

    The table of partial sums starts at ``wt`` with 1.  Row i pops each
    (weight, partial sum) state as it consumes it and reads the row's
    fillings from there, summed by weight drop, from a cache of the row
    keyed by the weight fields the row reads (``WalkPlan.reads``), so each
    distinct key is walked once.  The partial sum times each filling value
    goes into the next table at the weight plus the drop.  Products of packed
    dicts accumulate in place into dicts the next table created, and the
    zeros that cancellation leaves are dropped once per row.
    """
    packed = factor is not None
    sums = {plan.top if wt is None else wt: dict(CoeffElement.one().packed()) if packed else 1}
    for i in range(row, len(plan.starts)):
        mask, cache, out = plan.reads[i - 1], {}, {}
        get = out.get
        while sums:
            wt, s = sums.popitem()
            key = wt & mask
            fills = cache.get(key)
            if fills is None:
                fills = cache[key] = _row_fills(plan, i, wt, factor)
            if not packed:
                for d, c in fills:
                    out[wt + d] = get(wt + d, 0) + s * c
                continue
            for d, f in fills:
                x = wt + d
                t = get(x)
                if t is None:
                    if len(f) == 1:  # nothing to merge: one shifted copy
                        (k0, c0), = f.items()
                        out[x] = {k0 + k: c0 * v for k, v in s.items()}
                        continue
                    t = out[x] = {}
                tget = t.get
                for k1, c1 in f.items():
                    for k, v in s.items():
                        k += k1
                        t[k] = tget(k, 0) + c1 * v
        if packed:
            for x in [x for x, t in out.items() if 0 in t.values()]:
                t = out[x]
                for k in [k for k, c in t.items() if not c]:
                    del t[k]
                if not t:
                    del out[x]
        sums = out
    return sums


def _row_fills(plan: WalkPlan, i: int, wt: int, factor) -> list[tuple[int, object]]:
    """Row i's fillings below placed rows of packed weight ``wt``, summed by
    the weight they drop: (drop, value) pairs, the drop a packed offset and
    the value the sum of the fillings' coefficients from ``_walk``, an int
    without the slot table ``factor`` and a nonempty packed monomial dict,
    only to be read, with it."""
    ends: dict = {}
    for _, _, _, w, f in _walk(plan, factor=factor, row=i, wt=wt):
        ends[w] = ends[w] + f if w in ends else f
    if factor is None:
        return [(w - wt, c) for w, c in ends.items()]
    return [(w - wt, f.packed()) for w, f in ends.items() if not f.is_zero()]


def _p_sums(spec: CartanSpec, lam: Weight, factor) -> tuple[WalkPlan, dict]:
    """The walk plan of ``lam``'s crystal and ``_row_sums`` of P over it,
    with the factors of the slot table ``factor`` (``coefficients.slot_table``),
    so each packed weight maps to a zero-free packed monomial dict, which the
    caller owns.  The one sum behind ``p_part``, the Tokuyama numerator and
    the sums that ``branch_decompose`` compares."""
    plan = walk_plan(spec, lam)
    return plan, _row_sums(plan, factor)


def character_via_patterns(rs: RootSystem, lam: Weight) -> WeightPolynomial:
    """Sum of x^wt over the crystal; must equal the Weyl character exactly.

    Counts the leaf weights of the slot walk, one row at a time: the
    fillings of each row are counted once per distinct set of weight fields
    the row reads, and every prefix that reaches a weight once
    (``_row_sums``), not once per leaf.
    """
    plan = walk_plan(rs.spec, lam)
    return poly_from_packed(rs.height_vec, plan.codec, _row_sums(plan))


def p_part(rs: RootSystem, lam: Weight, n: int, *,
           allow_dominant: bool = False) -> WeightPolynomial:
    """The prime-power-coefficient polynomial P at cover degree ``n``.

    ``lam`` is the crystal's highest weight.  It must be strongly dominant
    for p-part semantics; pass ``allow_dominant`` for exploratory sums over
    crystals with boundary weights.

    A pattern's coefficient is the product of its slot factors, and a slot's
    factor reads only its own row's values and marks.  So the coefficients
    of a row, like its bounds, depend only on the weight fields the row
    reads, and ``_row_sums`` walks the row once per such set of fields.
    """
    if _integer("cover degree n", n) < 1:
        raise ValueError("cover degree n must be >= 1")
    lam = _checked_weight(rs.spec, lam)
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    if not is_strongly_dominant(lam) and not allow_dominant:
        raise ValueError(
            f"p-part semantics require a strongly dominant weight, got {lam}; "
            "pass allow_dominant=True to sum anyway")
    plan, sums = _p_sums(rs.spec, lam, slot_table(rs.spec, n))
    return poly_from_packed(rs.height_vec, plan.codec, sums)


def specialize_poly_n1(poly: WeightPolynomial) -> WeightPolynomial:
    """The identity.  Degree-1 coefficients carry no Gauss symbols (see
    ``coefficients.g_value``), so there is nothing left to specialize; kept
    only because ``perfbench/workloads.py`` imports it, and it goes when that
    benchmark is rebuilt (ROADMAP item 9)."""
    return poly


# ---------------------------------------------------------------------------
# Deformed Weyl-denominator factorization (degree 1)
# ---------------------------------------------------------------------------

class TokuyamaResult(NamedTuple):
    lam: Weight
    shift: str      # always "minus_rho" (divisor at lam - rho); kept for positional callers
    ok: bool
    quotient: WeightPolynomial | None
    remainder: WeightPolynomial | None
    reason: str = ""


def twisted_character(rs: RootSystem, lam_prime: Weight) -> WeightPolynomial:
    """Character of ``lam_prime`` with each coefficient multiplied by q to the
    height of the drop from the highest weight: the height functional's value
    on the drop over its value on a simple root."""
    chi = weyl_character(rs, lam_prime)
    return poly_from_packed_terms(rs.height_vec, _twist(rs, lam_prime, chi.terms))


def _twist(rs: RootSystem, lam_prime: Weight, terms: dict) -> dict[Weight, dict[int, int]]:
    """The terms of ``lam_prime``'s character, twisted in place: each
    multiplicity c at weight w becomes {ht: c}, the packed monomial dict of
    c * q^ht for the height ht of the drop lam_prime - w.  Returns ``terms``."""
    h = rs.height_vec
    unit = sum(map(mul, h, rs.simple_root(1)))
    top = sum(map(mul, h, lam_prime))
    for w, c in terms.items():
        ht, frac = divmod(top - sum(map(mul, h, w)), unit)
        if frac:
            raise AssertionError("character weight outside the root lattice shift")
        terms[w] = {ht: c.packed()[0]}
    return terms


def tokuyama_quotient(rs: RootSystem, lam: Weight) -> TokuyamaResult:
    """Exact division of the degree-1 sum by the q-twisted character of
    lam - rho.

    On success the quotient is the deformed Weyl denominator and does not
    depend on ``lam``; a failed division returns the remainder as witness.
    Both operands go to ``divide_terms`` as packed monomial dicts: the row
    sums of P, each weight decoded once, and the twisted terms of the
    character; only the result becomes ring elements.
    """
    if rs.family != "A":
        raise ValueError("the deformation factorization is asserted for type A only")
    lam = tuple(lam)
    if not is_strongly_dominant(lam):
        raise ValueError(f"need a strongly dominant highest weight, got {lam}")
    plan, sums = _p_sums(rs.spec, lam, slot_table(rs.spec, 1))
    numer = dict(zip(plan.codec.decode_all(sums), sums.values()))
    lam_prime = tuple(c - 1 for c in lam)
    divisor = _twist(rs, lam_prime, weyl_character(rs, lam_prime).terms)
    quot, rem = divide_terms(rs.height_vec, numer, divisor)
    poly = poly_from_packed_terms(rs.height_vec, rem or quot)
    if not rem:
        return TokuyamaResult(lam, "minus_rho", True, poly, None)
    return TokuyamaResult(lam, "minus_rho", False, None, poly, reason="inexact division")


# ---------------------------------------------------------------------------
# Branching through the top row
# ---------------------------------------------------------------------------

class BranchGroupReport(NamedTuple):
    """One top row of the crystal: its rank-(r-1) branch weight ``mu``, and
    the rank-r weight shift and scalar with which P_mu enters P_lambda, as
    in P_lambda = sum over groups of scalar * x^shift * P_mu; then the
    group's checks, and as witness the first rank-(r-1) weight at which its
    lower sum and P_mu differ."""
    top_row: tuple[int, ...]
    mu: Weight
    shift: Weight
    scalar: CoeffElement
    size: int
    truncation_ok: bool
    s_additivity_ok: bool
    factorization_ok: bool
    witness: str | None = None


class BranchDecomposition(NamedTuple):
    lam: Weight
    n: int
    groups: tuple[BranchGroupReport, ...]
    identity_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.identity_ok and all(
            g.truncation_ok and g.s_additivity_ok and g.factorization_ok
            for g in self.groups)


def branch_decompose(rs: RootSystem, lam: Weight, n: int) -> BranchDecomposition:
    """Group the crystal by top row, recover each branch highest weight, and
    check that weights and coefficients factor through top-row deletion.

    A group is one filling of row 1, walked without a factor: its end
    weight is the shift, its first r-1 coordinates the branch weight mu, and
    the product of its slot factors, taken at the leaf, its part of the
    scalar.  Its lower sum is ``p_part``'s row loop started at row 2 from
    that end (``_row_sums``).  The rows below row 1 read only the weight
    fields in ``plan.reads[1]``, so the sum is taken and decoded once per
    distinct set of them, as weight offsets from the end, and every group's
    is compared with P_mu, taken once per mu by ``_p_sums``.  The whole
    crystal's P and the top rows share one slot table, and every P_mu the
    rank-(r-1) one, so each distinct slot state's factor is computed once
    per call.
    All checks are recorded per group rather than raised; the factorization
    is a theorem in type A and checked on a fixed battery elsewhere.
    """
    lam = tuple(lam)
    spec = rs.spec
    r = spec.rank
    # truncation must stay in-family: A_1 exists, B_1/C_1/D_2 do not, and
    # their spec raises ValueError
    sub_rs = build_root_system(CartanSpec(spec.family, r - 1))
    if _integer("cover degree n", n) < 1:
        raise ValueError("cover degree n must be >= 1")
    factor, sub_factor = slot_table(spec, n), slot_table(sub_rs.spec, n)
    plan, sums = _p_sums(spec, lam, factor)
    whole = poly_from_packed(rs.height_vec, plan.codec, sums)
    branches: dict[Weight, tuple[dict, int]] = {}
    lower: dict[int, dict[Weight, CoeffElement]] = {}
    reports: list[BranchGroupReport] = []
    rebuilt: dict[Weight, CoeffElement] = {}
    origin = (0,) * r
    lifts_ok = True
    # each top row, walked alone: the lower sums walk rows 2 and below only,
    # so they leave row 1's buffers as this walk placed them
    for rows, circled, boxed, w, _ in _walk(plan, row=1, wt=plan.top):
        # the product of the row's slot factors, taken at the leaf, where
        # the row is complete
        row, crow, brow = rows[0], circled[0], boxed[0]
        top_scalar = reduce(mul, [factor(1, j, row, crow, brow)
                                  for j in range(len(row), 0, -1)])
        shift = plan.codec.decode(w)
        mu = shift[:r - 1]
        if not is_dominant(mu):
            raise AssertionError(f"branch weight {mu} is not dominant")
        if mu not in branches:
            sub_plan, sub_sums = _p_sums(sub_rs.spec, mu, sub_factor)
            branches[mu] = (poly_from_packed(sub_rs.height_vec, sub_plan.codec, sub_sums).terms,
                            weyl_dimension(sub_rs, mu))
        want, size = branches[mu]
        key = w & plan.reads[1]
        below = lower.get(key)
        if below is None:
            # decoded once per key, as offsets from this group's shift
            terms = poly_from_packed(rs.height_vec, plan.codec,
                                     _row_sums(plan, factor, 2, w)).terms
            below = lower[key] = {tuple(map(sub, x, shift)): c for x, c in terms.items()}
        # the lower sum's rank-r weights by their first r-1 coordinates
        lift, got, clash = {}, {}, []
        for off, c in below.items():
            wt = tuple(map(add, shift, off))
            u = wt[:r - 1]
            if u in lift:
                clash.append(u)
            lift[u], got[u] = wt, c
        diff = sorted(u for u in got.keys() | want.keys() if got.get(u) != want.get(u))
        witness = next(map(str, clash + diff), None)
        scalar = top_scalar * below.get(origin, CoeffElement.zero())
        reports.append(BranchGroupReport(
            tuple(row), mu=mu, shift=shift, scalar=scalar, size=size,
            truncation_ok=got.keys() == want.keys(), s_additivity_ok=not clash,
            factorization_ok=got == want, witness=witness))

        # accumulate scalar * P_mu, each weight lifted through the lower sum
        for u, c in want.items():
            wt = lift.get(u)
            if wt is None:
                lifts_ok = False
                continue
            term = c * scalar
            rebuilt[wt] = rebuilt[wt] + term if wt in rebuilt else term

    identity_ok = lifts_ok and WeightPolynomial(rs.height_vec, rebuilt) == whole
    return BranchDecomposition(lam=lam, n=n, groups=tuple(reports),
                               identity_ok=identity_ok)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def polynomial_json_obj(poly: WeightPolynomial, family: str, rank: int,
                        n: int, lam: Weight) -> dict:
    """Schema: family, rank, n, lambda, then terms in the fixed weight order."""
    return {
        "family": family,
        "rank": rank,
        "n": n,
        "lambda": list(lam),
        "terms": [{"wt": list(w), "coeff": poly.terms[w].to_json_obj()}
                  for w in poly.sorted_weights()],
    }
