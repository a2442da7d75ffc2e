"""Verification suites: every check the package promises, in report form.

Each suite returns ``{"suite": name, "ok": bool, "cases": [...]}`` where a
case carries ``status`` "pass"/"fail" for asserted checks or "info" for
recorded findings.  The command-line front end prints these reports; the
acceptance tests assert on them.
"""
from __future__ import annotations

import itertools
from functools import partial
from typing import Sequence

from .coefficients import (CoeffElement, _component_factor, count_forced_sigma,
                           entry_factor, g_value, gauss_numeric, h_value, row_components)
from .decorations import decorate, decorated_crystal
from .patterns import enumerate_patterns
from .roots import (CartanSpec, build_root_system, character_dimension,
                    is_strongly_dominant, weyl_character, weyl_dimension)
from .series import branch_decompose, character_via_patterns, p_part, tokuyama_quotient
from .weightpoly import WeightPolynomial

CHARACTER_BATTERY = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                     ("C", 2), ("C", 3), ("D", 4))


def _case(name: str, ok: bool | None, **extra) -> dict:
    status = "info" if ok is None else ("pass" if ok else "fail")
    return {"name": name, "status": status, **extra}


def _finish(suite: str, cases: list[dict]) -> dict:
    if not cases:
        raise ValueError(f"the {suite} suite selected no cases")
    return {"suite": suite,
            "ok": all(c["status"] != "fail" for c in cases),
            "cases": cases}


# ---------------------------------------------------------------------------
# Character suite
# ---------------------------------------------------------------------------

def run_character_suite(max_dim: int = 5000) -> dict:
    """Pattern enumeration against the Weyl character from Demazure
    operators, all families, weight coordinates in {0, 1, 2}, dimension
    capped."""
    cases = []
    for family, rank in CHARACTER_BATTERY:
        rs = build_root_system(CartanSpec(family, rank))
        for lam in itertools.product((0, 1, 2), repeat=rank):
            dim = weyl_dimension(rs, lam)
            if dim > max_dim:
                continue
            via = character_via_patterns(rs, lam)
            count = character_dimension(via)
            equal = via == weyl_character(rs, lam)
            cases.append(_case(f"{family}{rank} lambda={lam}",
                               count == dim and equal,
                               dimension=dim, enumerated=count, character_equal=equal))
    return _finish("character", cases)


# ---------------------------------------------------------------------------
# Gauss suite
# ---------------------------------------------------------------------------

def _eval_laurent_q(coeff, q: int) -> complex:
    total = 0.0
    for c, e, gauss in coeff.monomials():
        if gauss:
            raise ValueError("cannot evaluate an unexpanded symbol numerically")
        total += c * float(q) ** e
    return complex(total)


# relative tolerance of a numeric Gauss sum against its closed form
_REL_TOL = 1e-6


def _rel_close(x: complex, y: complex) -> bool:
    return abs(x - y) <= _REL_TOL * max(1.0, abs(x), abs(y))


# a numeric Gauss sum with modulus p**c_exp adds p**c_exp terms
_TERM_BUDGET = 10 ** 7


def _exp_cap(p: int) -> int:
    """Largest c_exp with p**c_exp within ``_TERM_BUDGET`` (p >= 2)."""
    c = 0
    while p ** (c + 1) <= _TERM_BUDGET:
        c += 1
    return c


def run_gauss_suite(primes: tuple[int, ...] = (5, 7, 13),
                    degrees: tuple[int, ...] = (1, 2, 3, 4)) -> dict:
    """Numeric character sums against the stored closed forms."""
    if any(n < 1 for n in degrees):
        raise ValueError(f"cover degrees must be >= 1, got {list(degrees)}")
    if any(p < 2 for p in primes):
        raise ValueError(f"primes must be >= 2, got {list(primes)}")
    cases = []
    for n in degrees:
        for p in primes:
            if (p - 1) % n:
                continue
            cap = _exp_cap(p)
            exponents = range(1, min(cap, 6) + 1)
            for t in (1, 2):
                for a in exponents:
                    num = gauss_numeric(t, a, a, p, n)
                    sym = _eval_laurent_q(h_value(t, a, n), p)
                    cases.append(_case(f"h_{t}({a}) n={n} p={p}",
                                       _rel_close(num, sym),
                                       numeric=[num.real, num.imag],
                                       symbolic=[sym.real, sym.imag]))
            if n == 1:
                # the character is trivial: g_value gives -q^(a-1) for t = 1, 2
                for t, name in ((1, "g({a}) n=1 p={p} specialization"),
                                (2, "g_2({a}) n=1 p={p}")):
                    for a in exponents:
                        num = gauss_numeric(t, a - 1, a, p, 1)
                        sym = _eval_laurent_q(g_value(t, a, 1), p)
                        cases.append(_case(name.format(a=a, p=p),
                                           _rel_close(num, sym),
                                           numeric=[num.real, num.imag],
                                           symbolic=[sym.real, sym.imag]))
            # residue-class dependence: unit-scale values repeat with period n
            for t in (1, 2):
                for a in exponents:
                    if a + n > cap:
                        continue
                    v1 = gauss_numeric(t, a - 1, a, p, n) / p ** (a - 1)
                    v2 = gauss_numeric(t, a + n - 1, a + n, p, n) / p ** (a + n - 1)
                    cases.append(_case(
                        f"g_{t} residue period: a={a} vs {a + n}, n={n} p={p}",
                        _rel_close(v1, v2)))
    return _finish("gauss", cases)


# ---------------------------------------------------------------------------
# Tokuyama suite
# ---------------------------------------------------------------------------

DEFAULT_TOKUYAMA_LAMBDAS: tuple[tuple[int, ...], ...] = (
    (2,), (3,), (4,),
    (1, 1), (2, 1), (2, 2),
    (1, 1, 1), (2, 1, 1), (1, 1, 2),
)


def run_tokuyama_suite(lambdas: Sequence[tuple[int, ...]] | None = None) -> dict:
    """Degree-1 factorization: at each rank, every lambda's sum divides
    exactly by the twisted character of lambda - rho, with one quotient, and
    that quotient is Tokuyama's deformed Weyl denominator
    x^rho prod_(a>0) (1 - q^(ht a - 1) x^-a).

    The lambdas are grouped by rank, the ranks run in ascending order, and
    each rank keeps the input order."""
    by_rank: dict[int, list] = {}
    for lam in lambdas or DEFAULT_TOKUYAMA_LAMBDAS:
        by_rank.setdefault(len(lam), []).append(lam)
    cases = []
    for rank, lams in sorted(by_rank.items()):
        rs = build_root_system(CartanSpec("A", rank))
        results = [tokuyama_quotient(rs, lam) for lam in lams]
        divisible = all(r.ok for r in results)
        identical = divisible and all(r.quotient == results[0].quotient for r in results)
        cases.append(_case(f"rank={rank}: divisible and quotient identical",
                           identical, divisible=divisible,
                           failed=[list(r.lam) for r in results if not r.ok]))
        cases.append(_case(f"rank {rank}: quotient is the deformed Weyl denominator",
                           divisible and results[0].quotient == _deformed_denominator(rs)))
    return _finish("tokuyama", cases)


def _deformed_denominator(rs) -> WeightPolynomial:
    """x^rho prod_(a>0) (1 - q^(ht a - 1) x^-a), expanded from the positive
    roots and their heights."""
    one = CoeffElement.one()
    out = WeightPolynomial(rs.height_vec, {(1,) * rs.rank: one})
    for root, coords in zip(rs.positive_roots, rs.positive_roots_root_coords):
        neg = tuple(-c for c in root)
        out = out * WeightPolynomial(
            rs.height_vec, {(0,) * rs.rank: one, neg: CoeffElement.q_power(sum(coords) - 1, -1)})
    return out


# ---------------------------------------------------------------------------
# Branching suite
# ---------------------------------------------------------------------------

# B, C and D beyond type A: the factorization is no theorem there, so it is
# asserted on this fixed battery of (family, rank, lambda, cover degrees)
_BRANCHING_BATTERY = (("B", 3, (1, 1, 1), (1, 2, 3)), ("C", 3, (1, 1, 1), (1, 2, 3)),
                      ("D", 4, (1, 0, 0, 1), (1, 2, 3)), ("D", 4, (1, 1, 1, 1), (2,)))


def run_branching_suite() -> dict:
    """Top-row branching in every family: type A at ranks 2..3 with
    coordinates in {1,2} and n in 1..3, then B3, C3 and D4 on
    ``_BRANCHING_BATTERY``."""
    battery = [("A", rank, lam, (1, 2, 3)) for rank in (2, 3)
               for lam in itertools.product((1, 2), repeat=rank)]
    cases = []
    for family, rank, lam, degrees in battery + list(_BRANCHING_BATTERY):
        rs = build_root_system(CartanSpec(family, rank))
        for n in degrees:
            bd = branch_decompose(rs, lam, n)
            bad = [g for g in bd.groups
                   if not (g.truncation_ok and g.s_additivity_ok and g.factorization_ok)]
            cases.append(_case(
                f"{family}{rank} lambda={lam} n={n}", bd.all_ok,
                groups=len(bd.groups), identity=bd.identity_ok,
                witness=bad[0].witness if bad else None))
    return _finish("branching", cases)


# ---------------------------------------------------------------------------
# Decorations suite
# ---------------------------------------------------------------------------

_DECORATION_BATTERY = (("A", 2, (2, 1)), ("A", 3, (1, 1, 1)), ("B", 2, (1, 2)),
                       ("C", 2, (2, 1)), ("D", 3, (1, 1, 1)), ("D", 4, (1, 1, 1, 1)))


def run_decorations_suite() -> dict:
    """Zero-pattern decoration and the type-D component rules."""
    cases = []
    for family, rank, lam in _DECORATION_BATTERY:
        rs = build_root_system(CartanSpec(family, rank))
        zero = next(iter(enumerate_patterns(rs, tuple([0] * rank))))
        if is_strongly_dominant(lam):
            dzp = decorate(zero, lam)
            fully = all(dzp.is_circled(i, j) and not dzp.is_boxed(i, j)
                        for i, j, _ in zero.entries())
            cases.append(_case(f"{family}{rank} zero pattern fully circled, unboxed",
                               fully))

    # type-D sigma rules over complete crystals
    rs4 = build_root_system(CartanSpec("D", 4))
    d_entry = partial(entry_factor, "D", n=1)
    for lam in ((1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1)):
        sml_zero_ok = True
        zeroing_ok = True
        forced = 0
        P = p_part(rs4, lam, 1, allow_dominant=True)
        for dp in decorated_crystal(rs4, lam):
            forced += count_forced_sigma(dp)
            for i, row in enumerate(dp.pattern.rows, start=1):
                for comp in row_components(rs4.spec, i, row):
                    has_cb = any(dp.is_circled(i, j) and dp.is_boxed(i, j)
                                 for j in range(comp.j1, comp.j2 + 1))
                    val = _component_factor(comp, i, dp.circled[i - 1],
                                            dp.boxed[i - 1], d_entry)
                    if has_cb and not val.is_zero():
                        zeroing_ok = False
                    if (comp.kind == "sml" and comp.value == 0 and not has_cb
                            and not val.is_one()):
                        sml_zero_ok = False
        # every crystal weight lies in lam + Q, where the orbit hull's lattice
        # points are exactly the character's support
        in_hull = set(P.terms) <= set(weyl_character(rs4, lam).terms)
        cases.append(_case(f"D4 lambda={lam} zero-run sml components contribute 1",
                           sml_zero_ok))
        cases.append(_case(f"D4 lambda={lam} circled-and-boxed member zeroes component",
                           zeroing_ok))
        cases.append(_case(f"D4 lambda={lam} support inside the orbit hull", in_hull,
                           terms=len(P.terms)))
        cases.append(_case(f"D4 lambda={lam} forced circled-unboxed sigma evaluations",
                           None, count=forced))
    return _finish("decorations", cases)


SUITES = {
    "character": run_character_suite,
    "gauss": run_gauss_suite,
    "tokuyama": run_tokuyama_suite,
    "branching": run_branching_suite,
    "decorations": run_decorations_suite,
}
