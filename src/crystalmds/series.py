"""Crystal sums: characters, prime-power parts, deformation quotient, branching.

``p_part`` assembles the polynomial P over a highest-weight crystal: each
pattern contributes its Gauss-sum coefficient at its weight.  The
enumeration walk carries the weight, and the coefficient is built as a prefix
product of ``coefficients.slot_factor`` along it, so patterns sharing their
top entries share those factors, and a zero factor skips its whole subtree.  With every coefficient replaced
by 1 the same sum is the Weyl character, which gives the primary cross-check
against the alternating-sum character.

``tokuyama_quotient`` factors the degree-1 specialization of P as a
lambda-independent deformed denominator times a character.  The divisor is
the character with each coefficient twisted by q to the height drop of its
weight; this is the variable normalization under which the factorization is
exact in the weight-polynomial ring (see README notes).

``branch_decompose`` splits the crystal by top rows into rank-(r-1) crystals
and verifies that both weights and coefficients factor through the split;
groups sharing a branch weight share one walk of its crystal.
"""
from __future__ import annotations

from dataclasses import dataclass

from .coefficients import (CoeffElement, pattern_coefficient, slot_factor,
                           specialize_n1)
from .conventions import DEFAULT, Conventions
from .decorations import DecoratedPattern, decorate, decorated_crystal
from .patterns import (LittelmannPattern, _crystal_walk, enumeration_slots,
                       pattern_weight, pattern_wt)
from .roots import (CartanSpec, RootSystem, build_root_system, is_dominant,
                    is_strongly_dominant, weyl_character)
from .weightpoly import Weight, WeightPolynomial, poly_from_int_terms

__all__ = [
    "WeightPolynomial", "character_via_patterns", "p_part",
    "TokuyamaResult", "tokuyama_quotient",
    "BranchGroupReport", "BranchDecomposition", "branch_decompose",
    "polynomial_json_obj",
]


def character_via_patterns(rs: RootSystem, lam: Weight) -> WeightPolynomial:
    """Sum of x^wt over the crystal; must equal the Weyl character exactly.

    Counts the leaf weights that the slot walk carries along each path.
    """
    lam = tuple(lam)
    table: dict[Weight, int] = {}
    for _, _, _, w, _ in _crystal_walk(rs, lam):
        table[w] = table.get(w, 0) + 1
    meta = {"family": rs.family, "rank": rs.rank, "lambda": list(lam)}
    return poly_from_int_terms(rs.height_vec, table, meta)


def p_part(rs: RootSystem, lam: Weight, n: int, conv: Conventions = DEFAULT,
           allow_dominant: bool = False) -> WeightPolynomial:
    """The prime-power-coefficient polynomial P at cover degree ``n``.

    ``lam`` is the crystal's highest weight.  It must be strongly dominant
    for p-part semantics; pass ``allow_dominant`` for exploratory sums over
    crystals with boundary weights.
    """
    lam = tuple(lam)
    if n < 1:
        raise ValueError("cover degree n must be >= 1")
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    if not is_strongly_dominant(lam) and not allow_dominant:
        raise ValueError(
            f"p-part semantics require a strongly dominant weight, got {lam}; "
            "pass allow_dominant=True to sum anyway")

    # The walk carries the coefficient as a prefix product along the path: a
    # value at slot k multiplies it by the slot's factor, read off the slot's
    # row as the walk has filled it so far.  A zero factor
    # leaves only zero coefficients below, so the subtree is skipped.
    spec = rs.spec
    slots = enumeration_slots(spec)
    one = CoeffElement.one()

    def fold(k, coeff, row, crow, brow):
        i, j = slots[k]
        f = slot_factor(spec, i, j, row, crow, brow, n, conv)
        return None if f.is_zero() else coeff * f

    acc: dict[Weight, CoeffElement] = {}
    for _, _, _, w, c in _crystal_walk(rs, lam, fold, one):
        acc[w] = acc[w] + c if w in acc else c
    meta = {"family": rs.family, "rank": rs.rank, "n": n, "lambda": list(lam)}
    return WeightPolynomial(rs.height_vec, acc, meta)


def specialize_poly_n1(poly: WeightPolynomial) -> WeightPolynomial:
    return WeightPolynomial(
        poly.height_vec,
        {w: specialize_n1(c) for w, c in poly.terms.items()},
        poly.meta,
    )


# ---------------------------------------------------------------------------
# Deformed Weyl-denominator factorization (degree 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokuyamaResult:
    lam: Weight
    shift: str      # always "minus_rho" (divisor at lam - rho); kept for positional callers
    ok: bool
    quotient: WeightPolynomial | None
    remainder: WeightPolynomial | None
    reason: str = ""


def twisted_character(rs: RootSystem, lam_prime: Weight) -> WeightPolynomial:
    """Character of ``lam_prime`` with each coefficient multiplied by q to the
    height of the drop from the highest weight."""
    chi = weyl_character(rs, lam_prime)
    terms: dict[Weight, CoeffElement] = {}
    for w, c in chi.terms.items():
        drop = rs.root_coordinates(tuple(a - b for a, b in zip(lam_prime, w)))
        ht = sum(drop)
        if ht.denominator != 1:
            raise AssertionError("character weight outside the root lattice shift")
        terms[w] = c * CoeffElement.q_power(int(ht))
    return WeightPolynomial(rs.height_vec, terms, chi.meta)


def tokuyama_quotient(rs: RootSystem, lam: Weight) -> TokuyamaResult:
    """Exact division of the degree-1 sum by the q-twisted character of
    lam - rho.

    On success the quotient is the deformed Weyl denominator and does not
    depend on ``lam``; a failed division returns the remainder as witness.
    """
    if rs.family != "A":
        raise ValueError("the deformation factorization is asserted for type A only")
    lam = tuple(lam)
    if not is_strongly_dominant(lam):
        raise ValueError("need a strongly dominant highest weight")
    P = specialize_poly_n1(p_part(rs, lam, 1))
    divisor = twisted_character(rs, tuple(c - 1 for c in lam))
    quot, rem = P.divide(divisor)
    if rem.is_zero():
        return TokuyamaResult(lam, "minus_rho", True, quot, None)
    return TokuyamaResult(lam, "minus_rho", False, None, rem, reason="inexact division")


# ---------------------------------------------------------------------------
# Branching through the top row
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchGroupReport:
    """One top row of the crystal: its rank-(r-1) branch weight ``mu``, and
    the rank-r weight shift and scalar with which P_mu enters P_lambda, as
    in P_lambda = sum over groups of scalar * x^shift * P_mu; then the
    group's checks."""
    top_row: tuple[int, ...]
    mu: Weight
    shift: Weight
    scalar: CoeffElement
    size: int
    truncation_ok: bool
    s_additivity_ok: bool
    factorization_ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class BranchDecomposition:
    lam: Weight
    n: int
    groups: tuple[BranchGroupReport, ...]
    identity_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.identity_ok and all(
            g.truncation_ok and g.s_additivity_ok and g.factorization_ok
            for g in self.groups)


def _truncate(L: LittelmannPattern, sub_spec: CartanSpec) -> LittelmannPattern:
    return LittelmannPattern(sub_spec, L.rows[1:])


def branch_decompose(rs: RootSystem, lam: Weight, n: int) -> BranchDecomposition:
    """Group the crystal by top row, recover each branch highest weight, and
    check that weights and coefficients factor through top-row deletion.

    All checks are recorded per group rather than raised, a truncation
    missing from the branch crystal included; the factorization is a theorem
    in type A and checked on a fixed battery elsewhere.  Each distinct
    branch crystal is walked, and its p-part computed, once.
    """
    lam = tuple(lam)
    spec = rs.spec
    # truncation must stay in-family: A_1 exists, B_1/C_1/D_2 do not
    min_rank = {"A": 2, "B": 3, "C": 3, "D": 4}[spec.family]
    if spec.rank < min_rank:
        raise ValueError(
            f"branching within family {spec.family} needs rank >= {min_rank}")
    sub_spec = CartanSpec(spec.family, spec.rank - 1)
    sub_rs = build_root_system(sub_spec)
    r = spec.rank

    groups: dict[tuple[int, ...], list[DecoratedPattern]] = {}
    for dp in decorated_crystal(rs, lam):
        groups.setdefault(dp.pattern.rows[0], []).append(dp)

    # per branch weight: the coefficients of its crystal's leaves keyed by
    # rows, and its p-part
    branches: dict[Weight, tuple[dict, WeightPolynomial]] = {}
    reports: list[BranchGroupReport] = []
    reconstructed: dict[Weight, CoeffElement] = {}

    for top, members in groups.items():
        zero_rows = tuple(tuple([0] * len(row)) for row in members[0].pattern.rows[1:])
        top_only = LittelmannPattern(spec, (top,) + zero_rows)
        s_top = pattern_weight(top_only)
        shift = pattern_wt(top_only, lam)
        mu = shift[:r - 1]
        if not is_dominant(mu):
            raise AssertionError(f"branch weight {mu} is not dominant")
        scalar = pattern_coefficient(decorate(top_only, lam), n)
        if mu not in branches:
            branches[mu] = ({dp.pattern.rows: pattern_coefficient(dp, n)
                             for dp in decorated_crystal(sub_rs, mu)},
                            p_part(sub_rs, mu, n, allow_dominant=True))
        sub, sub_poly = branches[mu]

        truncs = {dp.pattern.rows[1:] for dp in members}
        truncation_ok = (set(sub) == truncs
                         and top_only.rows in {dp.pattern.rows for dp in members})

        s_add_ok = True
        fact_ok = True
        witness = None
        for dp in members:
            L = dp.pattern
            Lp = _truncate(L, sub_spec)
            s_full = pattern_weight(L)
            s_sub = pattern_weight(Lp)
            expect = tuple(s_top[k] + s_sub[k] for k in range(r - 1)) + (s_top[r - 1],)
            if s_full != expect:
                s_add_ok = False
                witness = witness or L.to_text()
            # a truncation missing from the branch crystal fails to factor
            c_sub = sub.get(Lp.rows)
            if c_sub is None or pattern_coefficient(dp, n) != scalar * c_sub:
                fact_ok = False
                witness = witness or L.to_text()

        reports.append(BranchGroupReport(
            top, mu=mu, shift=shift, scalar=scalar, size=len(members),
            truncation_ok=truncation_ok, s_additivity_ok=s_add_ok,
            factorization_ok=fact_ok, witness=witness))

        # accumulate p(mu) * P_mu embedded along the simple-root identification
        for wprime, c in sub_poly.terms.items():
            drop = sub_rs.root_coordinates(tuple(a - b for a, b in zip(mu, wprime)))
            if any(x.denominator != 1 for x in drop):
                raise AssertionError("branch weight drop is not in the root lattice")
            w = list(shift)
            for k in range(r - 1):
                ck = int(drop[k])
                if ck:
                    for idx in range(r):
                        w[idx] -= ck * rs.cartan[idx][k]
            key = tuple(w)
            add = c * scalar
            reconstructed[key] = reconstructed[key] + add if key in reconstructed else add

    total = WeightPolynomial(rs.height_vec, reconstructed)
    direct = p_part(rs, lam, n, allow_dominant=True)
    identity_ok = total == WeightPolynomial(rs.height_vec, direct.terms)

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
