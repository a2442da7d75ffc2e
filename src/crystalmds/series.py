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
``weightpoly.poly_from_packed`` keeps it as the polynomial; the first read of
its terms decodes all weights a field at a time, and takes the values as
they are, since no table keeps a zero.  ``p_part``'s tables hold packed
monomial dicts (``CoeffElement.packed``), not ring elements: each product of
a partial sum and a filling value is added into the next table's dict in
place, and the polynomial wraps each last dict as an element once, without a
copy.  A row writes only the dicts it created; the ``packed()`` dicts of slot
values, which the slot table and the ring's one share, are read-only.

``tokuyama_quotient`` checks Tokuyama's factorization of P at degree 1,
where every coefficient is a Laurent polynomial in q (``g_value`` evaluates g
there): P is the lambda-independent deformed Weyl denominator D times the
character of lambda - rho with each coefficient twisted by q to the height
drop of its weight, the variable normalization under which the
factorization is exact (see README notes).  Nothing is divided.  The twisted
character (``_twist``, shared with ``twisted_character``), times x^rho, is
packed with the codec of P's walk plan and multiplied by D's binomials one at
a time, and the product is compared with P's row sums (``_p_sums``, the one
sum behind ``p_part`` too) as packed tables; neither side is decoded.

``branch_decompose`` splits the crystal by top rows into rank-(r-1) crystals
and verifies that both weights and coefficients factor through the split.
The split is the row loop's own: the rows below a filling of row 1 sum over
that group's branch crystal, so a group's lower sum, the same loop started
at row 2 from the group's end, is compared with P of the branch crystal, and
nothing is walked leaf by leaf.  Those rows read only the weight fields of
letters 1..r-1, which hold the branch weight mu, so the lower sum, as
offsets from the group's end, and every verdict on it depend on mu alone and
are taken once per mu.  Each rank has one slot table for the call: the whole
crystal's sum and the top rows' factors share one, and the branch crystals
of every mu the other.
"""
from __future__ import annotations

from functools import reduce
from operator import add, mul, sub
from typing import NamedTuple

from .coefficients import CoeffElement, _integer, slot_table
from .patterns import WalkPlan, _walk, walk_plan
from .roots import (CartanSpec, RootSystem, _checked_weight, build_root_system, is_dominant,
                    is_strongly_dominant, weyl_character, weyl_dimension)
from .weightpoly import Weight, WeightPolynomial, poly_from_packed

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
    dicts accumulate in place, through one merge loop, into dicts the next
    table created; the zeros that cancellation leaves go once per row.
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
    caller owns.  The one sum behind ``p_part``, the Tokuyama check and the
    sums that ``branch_decompose`` compares."""
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
    shift: str      # always "minus_rho" (chi~ at lam - rho); kept for positional callers
    ok: bool
    quotient: WeightPolynomial | None
    remainder: WeightPolynomial | None
    reason: str = ""


def twisted_character(rs: RootSystem, lam_prime: Weight) -> WeightPolynomial:
    """Character of ``lam_prime`` with each coefficient multiplied by q to the
    height of the drop from the highest weight: the height functional's value
    on the drop over its value on a simple root."""
    twisted = _twist(rs, lam_prime, weyl_character(rs, lam_prime).terms)
    return WeightPolynomial(rs.height_vec, {w: CoeffElement.from_packed(t)
                                            for w, t in twisted.items()})


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
    """Tokuyama's factorization P = D * chi~ of the degree-1 sum, checked by
    multiplying out.  D = x^rho prod_(a>0) (1 - q^(ht a - 1) x^-a) is the
    deformed Weyl denominator, the same for every ``lam``, and chi~ the
    twisted character of lam - rho (``_twist``).

    x^rho * chi~ is packed with the codec of P's walk plan, multiplied by
    each binomial in turn (``_times_denominator``) and compared with P's row
    sums (``_p_sums``) as packed tables.  On success the quotient is D,
    built by the same loop from x^rho.  On failure the remainder is
    P - D * chi~, and the reason names its leading weight.

    No field overflows.  In type A every weight of every partial product
    lies in conv(W lam), where |<w, alpha_i^vee>| <= <lam, theta^vee> =
    sum(lam), inside the codec's 4 * sum(lam): it is a weight of chi~, in
    conv(W(lam - rho)), plus rho minus distinct positive roots, a weight of
    V(rho), whose character is prod_(a>0) (x^(a/2) + x^(-a/2)).
    """
    if rs.family != "A":
        raise ValueError("the deformation factorization is asserted for type A only")
    lam = tuple(lam)
    if not is_strongly_dominant(lam):
        raise ValueError(f"need a strongly dominant highest weight, got {lam}")
    plan, sums = _p_sums(rs.spec, lam, slot_table(rs.spec, 1))
    codec = plan.codec
    rho = (1,) * rs.rank
    lam_prime = tuple(map(sub, lam, rho))
    chi = _twist(rs, lam_prime, weyl_character(rs, lam_prime).terms)
    product = _times_denominator(
        rs, codec, {codec.pack(tuple(map(add, w, rho))): t for w, t in chi.items()})
    if product == sums:
        quot = _times_denominator(rs, codec, {codec.pack(rho): {0: 1}})
        return TokuyamaResult(lam, "minus_rho", True,
                              poly_from_packed(rs.height_vec, codec, quot), None)
    rem = poly_from_packed(rs.height_vec, codec, _minus(sums, product))
    return TokuyamaResult(lam, "minus_rho", False, None, rem,
                          reason=f"P - D * chi~ is nonzero; its leading weight is "
                                 f"{list(rem.sorted_weights()[0])}")


def _times_denominator(rs: RootSystem, codec, table: dict) -> dict:
    """``table`` times (1 - q^(ht a - 1) x^-a) for each positive root a, one
    factor at a time, each a ``_minus`` of the table and its shifted self."""
    for coords in rs.positive_roots_root_coords:
        table = _minus(table, table, sum(map(mul, coords, codec.roots)), sum(coords) - 1)
    return table


def _minus(a: dict, b: dict, drop: int = 0, e: int = 0) -> dict:
    """a - q^e x^-drop * b, for tables from packed weight to zero-free packed
    monomial dict and a packed offset ``drop``: a new table of that form,
    which shares the dicts of ``a`` that ``b`` leaves alone.  ``a`` and
    ``b`` are only read."""
    out = dict(a)
    for x, t in b.items():
        y = x - drop
        s = out.get(y)
        u = s.copy() if s else {}
        for k, c in t.items():
            k += e
            v = u.get(k, 0) - c
            if v:
                u[k] = v
            else:
                del u[k]
        if u:
            out[y] = u
        else:
            del out[y]
    return out


# ---------------------------------------------------------------------------
# Branching through the top row
# ---------------------------------------------------------------------------

class BranchGroupReport(NamedTuple):
    """One top row of the crystal: its rank-(r-1) branch weight ``mu``, and
    the rank-r weight shift and scalar with which P_mu enters P_lambda, as
    in P_lambda = sum over groups of scalar * x^shift * P_mu; then the
    group's checks, and as witness the first rank-(r-1) weight at which its
    lower sum and P_mu differ.  The fields from ``size`` on depend on ``mu``
    alone, and every group of one mu shares them."""
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
    weight is the shift, its first r-1 coordinates the branch weight mu.
    Its lower sum is ``p_part``'s row loop started at row 2 from that end
    (``_row_sums``).  Rows 2 and below read only the fields of letters
    1..r-1, which hold mu, so the first group of each mu takes the lower
    sum, as weight offsets from the shift, P_mu (``_p_sums``) and the
    verdicts, and the other groups of that mu share them.  A group's scalar
    is the product of its slot factors, taken at the leaf, times the lower
    sum's coefficient at the shift.  The whole crystal's P and the top rows
    share one slot table, and every P_mu the rank-(r-1) one, so each
    distinct slot state's factor is computed once per call.
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
    # per mu: P_mu's terms paired with their lower-sum offsets, the lower
    # sum's coefficient at the shift, and the report's fields from size on
    branches: dict[Weight, tuple[list, CoeffElement, tuple]] = {}
    reports: list[BranchGroupReport] = []
    rebuilt: dict[Weight, CoeffElement] = {}
    lifts_ok = True
    # each top row, walked alone: the lower sums walk rows 2 and below only,
    # so they leave row 1's buffers as this walk placed them
    for rows, circled, boxed, w, _ in _walk(plan, row=1, wt=plan.top):
        shift = plan.codec.decode(w)
        mu = shift[:r - 1]
        if mu not in branches:
            if not is_dominant(mu):
                raise AssertionError(f"branch weight {mu} is not dominant")
            sub_plan, sub_sums = _p_sums(sub_rs.spec, mu, sub_factor)
            want = poly_from_packed(sub_rs.height_vec, sub_plan.codec, sub_sums).terms
            below = poly_from_packed(rs.height_vec, plan.codec,
                                     _row_sums(plan, factor, 2, w)).terms
            # the lower sum's rank-r weights by their first r-1 coordinates
            lift, got, clash = {}, {}, []
            for x, c in below.items():
                u = x[:r - 1]
                if u in lift:
                    clash.append(u)
                lift[u], got[u] = tuple(map(sub, x, shift)), c
            diff = sorted(u for u in got.keys() | want.keys() if got.get(u) != want.get(u))
            lifts_ok = lifts_ok and want.keys() <= lift.keys()
            branches[mu] = (
                [(lift[u], c) for u, c in want.items() if u in lift],
                below.get(shift, CoeffElement.zero()),
                (weyl_dimension(sub_rs, mu), got.keys() == want.keys(), not clash,
                 got == want, next(map(str, clash + diff), None)))
        lifted, at_shift, checks = branches[mu]
        # the product of the row's slot factors, taken at the leaf, where
        # the row is complete, times the lower sum's coefficient at the shift
        row, crow, brow = rows[0], circled[0], boxed[0]
        scalar = reduce(mul, [factor(1, j, row, crow, brow)
                              for j in range(len(row), 0, -1)]) * at_shift
        reports.append(BranchGroupReport(tuple(row), mu, shift, scalar, *checks))
        # accumulate scalar * P_mu, each weight lifted through the lower sum
        for off, c in lifted:
            wt = tuple(map(add, shift, off))
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
    terms = poly.terms
    return {
        "family": family,
        "rank": rank,
        "n": n,
        "lambda": list(lam),
        "terms": [{"wt": list(w), "coeff": terms[w].to_json_obj()}
                  for w in poly.sorted_weights()],
    }
