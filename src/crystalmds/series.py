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
they are: the row loop's one zero filter, after its last row, leaves none.
``p_part``'s tables hold packed monomial dicts (``CoeffElement.packed``),
not ring elements: the ring's own product (``coefficients.mul_into``) adds
each partial sum times a filling value into the next table's dict in place,
zero-free, and the polynomial wraps each last dict as an element once,
without a copy.  A row writes only the dicts it created; the ``packed()``
dicts of slot values, which the slot table and the ring's one share, are
read-only.

The walk and the row loop take their ring from the slot table: its
``one`` seeds every product, and a table mapped into the ints
(``coefficients.slot_table``'s ``ring_map``) runs on the int path, the
character's, where each product is one int multiply.

``tokuyama_quotient`` checks Tokuyama's factorization of P at degree 1,
where every coefficient is a Laurent polynomial in q (``g_value`` evaluates g
there), in Tokuyama's own variable t = 1/q: with the unit q^-a in every
family (``slot_table``'s ``normalized``), P_t is x^rho prod_(a>0)
(1 - t x^-a) times the character of lambda - rho, asserted in types A and
C.  In q this is P = D * chi~, the lambda-independent deformed Weyl
denominator D times the character twisted by q to the height drop of each
weight (see README notes).  Nothing is divided.  Both sides are polynomials
in t, so the check evaluates them at t = 2^B (Kronecker substitution), with
B wide enough that the evaluation is injective on every coefficient either
side can have; the proof is in ``tokuyama_quotient``.  P's row sums
(``_p_sums``, the one sum behind ``p_part`` too) run on the int path; the
character of lambda - rho is built by the Demazure operators on the codec of
P's walk plan, shifted by rho, then multiplied by the binomials one at a
time, and the two int tables are compared.  Each binomial, and the
remainder on failure, is one ``coefficients.add_into``, the ring's own
cancelling sum: -2^B times the table, its keys lowered by the root, added
to a copy.  The quotient or remainder that is returned is its table, with
the height its t-digits count down from, decoded to q on first read.

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

from .coefficients import (CoeffElement, add_into, json_monomials, kronecker_encode, mul_into,
                           slot_table)
from .patterns import WalkPlan, _walk, walk_plan
from .roots import (CartanSpec, RootSystem, _highest_weight, build_root_system, is_dominant,
                    packed_character, weyl_dimension)
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
    packed weight it ends at, without zeros.  Values are ints without
    ``factor`` or with a table whose ring is the ints (one mapped by
    ``coefficients.kronecker_encode``); with a table of ring elements,
    zero-free packed monomial dicts (``CoeffElement.packed``), which the
    caller owns.

    The table of partial sums starts at ``wt`` with the ring's one.  Row i
    pops each (weight, partial sum) state as it consumes it and reads the
    row's fillings from there (``_walk``), summed by weight drop, from a
    cache of the row keyed by the weight fields the row reads
    (``WalkPlan.reads``), so each distinct key is walked once.  The partial
    sum times each filling value goes into the next table at the weight
    plus the drop.  Products of packed dicts accumulate in place, by the
    ring's ``mul_into``, into dicts the next table created, which it keeps
    zero-free.  A sum that cancels, a zero int or a dict emptied to ``{}``,
    stays in its table and is carried on as a zero; the one zero filter
    runs after the last row, for ints and dicts alike."""
    one = 1 if factor is None else factor.one
    packed = isinstance(one, CoeffElement)
    sums = {plan.top if wt is None else wt: dict(one.packed()) if packed else one}
    for i in range(row, len(plan.starts)):
        mask, cache, out = plan.reads[i - 1], {}, {}
        get = out.get
        while sums:
            wt, s = sums.popitem()
            key = wt & mask
            fills = cache.get(key)
            if fills is None:
                ends: dict = {}
                for _, _, _, w, f in _walk(plan, factor=factor, row=i, wt=wt):
                    ends[w] = ends[w] + f if w in ends else f
                fills = cache[key] = [(w - wt, f.packed() if packed else f)
                                      for w, f in ends.items()]
            if not packed:
                for d, c in fills:
                    x = wt + d
                    out[x] = get(x, 0) + s * c
                continue
            for d, f in fills:
                x = wt + d
                t = get(x)
                if t is None:
                    t = out[x] = {}
                mul_into(t, f, s)
        sums = out
    if not all(sums.values()):
        sums = {x: t for x, t in sums.items() if t}
    return sums


def _p_sums(spec: CartanSpec, lam: Weight, factor) -> tuple[WalkPlan, dict]:
    """The walk plan of ``lam``'s crystal and ``_row_sums`` over it, with
    the factors of the slot table ``factor`` (``coefficients.slot_table``),
    or of 1 for None, the values as ``_row_sums`` gives them.  The one sum
    behind ``character_via_patterns``, ``p_part``, the Tokuyama check and
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
    plan, sums = _p_sums(rs.spec, lam, None)
    return poly_from_packed(rs.height_vec, plan.codec, sums)


def p_part(rs: RootSystem, lam: Weight, n: int, *,
           allow_dominant: bool = False) -> WeightPolynomial:
    """The prime-power-coefficient polynomial P at cover degree ``n``.

    ``lam`` is the crystal's highest weight, read through
    ``roots._highest_weight``: it must be strongly dominant, lam = lam' +
    rho, for p-part semantics; ``allow_dominant`` takes any dominant ``lam``
    for exploratory sums over crystals with boundary weights.

    A pattern's coefficient is the product of its slot factors, and a slot's
    factor reads only its own row's values and marks.  So the coefficients
    of a row, like its bounds, depend only on the weight fields the row
    reads, and ``_row_sums`` walks the row once per such set of fields.
    """
    lam = _highest_weight(rs.spec, lam, strong=not allow_dominant)
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


def tokuyama_quotient(rs: RootSystem, lam: Weight) -> TokuyamaResult:
    """Tokuyama's factorization of the degree-1 sum, checked in t = 1/q by
    multiplying out at t = 2^B: P_t = x^rho prod_(a>0) (1 - t x^-a) * chi,
    chi the character of lam - rho.  With the unit q^-a in every family
    (``slot_table``'s ``normalized``) an entry's n = 1 factor is Tokuyama's
    weight: 1 circled, -t boxed, 1 - t neither, 0 circled and boxed.  A
    pattern's entries sum to the height drop ht(lam - w) of its weight w, so
    its coefficient in P_t is its coefficient in P times q^-ht(lam - w).  In
    q the check is P = D * chi~, with D = x^rho prod_(a>0) (1 - q^(ht a - 1)
    x^-a) the deformed Weyl denominator, the same for every ``lam``, and
    chi~ the character of lam - rho with each multiplicity c at weight w
    twisted to c * q^ht(lam - rho - w): D's coefficient at w is q^ht(rho - w)
    times that of D_t = x^rho prod_(a>0) (1 - t x^-a).

    Both sides are int tables on the packed weights of P's walk plan.  P's
    row sums (``_p_sums``) run on a slot table mapped by
    ``coefficients.kronecker_encode`` with each q^-k read as t^k, so every
    factor, partial sum and coefficient is its value at t = 2^B, and x^rho *
    chi is multiplied by each binomial in turn (``_times_denominator``),
    each one ``coefficients.add_into`` of -2^B times the table, its keys
    lowered by the root, and P - D * chi~ is one more.
    What is returned is returned undecoded, with the height its t-digits
    count down from, and decoded on first read to the q-form polynomial
    (``poly_from_packed``): on success the quotient D, built by the same
    loop from x^rho (top h . rho), and on failure the remainder
    P - D * chi~, whose keys name the leading weight (top h . lam; h =
    ``rs.height_vec`` pairs every simple root to 2, so ht(lam - w) is
    h . (lam - w) / 2).

    Types A and C are asserted; C's form is type A's over C's own roots,
    the Casselman-Shalika formula at n = 1 for the group whose dual is
    Sp(2r).  B and D raise ValueError.  After that guard ``lam`` is read
    through ``roots._highest_weight``, which refuses a ``lam`` that is not
    strongly dominant, as ``p_part`` does.

    The evaluation is injective.  In types A and C at n = 1 every slot
    factor is 1, -t or 1 - t, so every coefficient of either side is a
    polynomial in t of degree at most N, the number of positive roots and
    of entries of a pattern.  With d = dim V(lam - rho)
    (``roots.weyl_dimension``), B = (d * 4^N).bit_length() + 2
    (``_q_bits``):
    - a pattern's factors have 1-norm at most 2 each, so
      ||P_t,mu||_1 <= mult_lam(mu) * 2^N <= dim V(lam) * 2^N;
    - dim V(lam) <= dim V(lam - rho) * dim V(rho), as V(lam) is a summand
      of V(lam - rho) (x) V(rho), and dim V(rho) = 2^N, so
      ||P_t,mu||_1 <= d * 4^N;
    - D_t's coefficients have 1-norms summing to at most 2^N, and so do
      those of each partial product of its binomials, so every partial
      product of x^rho * chi has ||.||_1 <= d * 2^N at each weight;
    - so every coefficient of either side, and of their difference, is
      below 2 * d * 4^N < 2^(B - 1) in size, and two polynomials in t with
      the same value at 2^B are equal, digit by digit.

    The character is built on the codec of P's walk plan, and its keys stay
    packed up to the comparison.  lam - rho <= lam and both are dominant, so
    conv(W(lam - rho)) lies in conv(W lam), and every Demazure table of
    lam - rho (``roots.packed_character``) stays inside the margin of lam's
    codec (``weightpoly.weight_codec``), the one the plan packs with.  The
    shift by rho, packing being linear, is one addition of rho's packed
    offset per key.

    No field overflows.  Every weight of every partial product is a weight
    of chi, in conv(W(lam - rho)), plus rho minus distinct positive roots,
    a weight of V(rho) (character prod_(a>0) (x^(a/2) + x^(-a/2))), so it
    lies in conv(W(lam - rho)) + conv(W rho) = conv(W lam).  There
    |<w, alpha_i^vee>| <= <lam, beta^vee> for a positive coroot beta^vee:
    sum(lam) in type A, at most 2 * sum(lam) in type C (its coroots are of
    type B), inside the codec's 4 * sum(lam).
    """
    if rs.family not in ("A", "C"):
        raise ValueError("the deformation factorization is asserted for types A and C only")
    lam = _highest_weight(rs.spec, lam, strong=True)
    rho = (1,) * rs.rank
    lam_prime = tuple(map(sub, lam, rho))
    bits = _q_bits(rs, weyl_dimension(rs, lam_prime))
    plan, sums = _p_sums(rs.spec, lam, slot_table(
        rs.spec, 1, lambda f: kronecker_encode({-e: c for e, c in f.packed().items()}, bits),
        normalized=True))
    codec, h = plan.codec, rs.height_vec
    offset = codec.pack(rho) - codec.pack((0,) * rs.rank)
    chi = packed_character(rs, lam_prime, codec)
    product = _times_denominator(rs, codec, bits, {x + offset: c for x, c in chi.items()})
    if product == sums:
        quot = _times_denominator(rs, codec, bits, {codec.pack(rho): 1})
        return TokuyamaResult(lam, "minus_rho", True,
                              poly_from_packed(h, codec, quot, (bits, sum(h))), None)
    rem = poly_from_packed(h, codec, add_into(sums, product, -1), (bits, sum(map(mul, h, lam))))
    return TokuyamaResult(lam, "minus_rho", False, None, rem,
                          reason=f"P - D * chi~ is nonzero; its leading weight is "
                                 f"{list(rem.sorted_weights()[0])}")


def _q_bits(rs: RootSystem, dim: int) -> int:
    """B = (dim * 4^N).bit_length() + 2 for the N positive roots of ``rs``:
    the digit width at which ``tokuyama_quotient`` evaluates t = 1/q, given
    the dimension ``dim`` of V(lam - rho)."""
    return (dim << 2 * len(rs.positive_roots)).bit_length() + 2


def _times_denominator(rs: RootSystem, codec, bits: int, table: dict) -> dict:
    """``table``, from packed weight to nonzero int, times (1 - t x^-a) for
    each positive root a, one factor at a time, at t = 2^``bits``: each a
    new table, a copy of the last plus -2^bits times it with its keys
    lowered by a's packed offset (``coefficients.add_into``), so no table
    is changed once built and none holds a zero."""
    scale = -1 << bits
    for coords in rs.positive_roots_root_coords:
        table = add_into(dict(table), table, scale, sum(map(mul, coords, codec.roots)))
    return table


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

    ``lam`` is read through ``roots._highest_weight`` before anything is
    built, and may be any dominant weight: like ``p_part(...,
    allow_dominant=True)``, the sums run over the crystal of ``lam`` whether
    or not it is strongly dominant, as the branching suite's D4 (1, 0, 0, 1)
    case needs.
    """
    spec = rs.spec
    lam = _highest_weight(spec, lam)
    r = spec.rank
    # truncation must stay in-family: A_1 exists, B_1/C_1/D_2 do not, and
    # their spec raises ValueError
    sub_rs = build_root_system(CartanSpec(spec.family, r - 1))
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
    """Schema: family, rank, n, lambda, then terms in the fixed weight order.

    Read straight from the polynomial's packed values
    (``WeightPolynomial.packed_items``), so an undecoded polynomial stays
    undecoded.  The tree is read-only: every monomial of one Gauss part
    shares that part's ``gauss`` list, the decode cache's own
    (``coefficients.json_monomials``)."""
    return {
        "family": family,
        "rank": rank,
        "n": n,
        "lambda": list(lam),
        "terms": [{"wt": list(w), "coeff": {"monomials": json_monomials(v)}}
                  for w, v in poly.packed_items()],
    }
