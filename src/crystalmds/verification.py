"""Verification suites: every check the package promises, in report form.

Each suite returns ``{"suite": name, "ok": bool, "cases": [...]}`` where a
case carries ``status`` "pass"/"fail" for asserted checks or "info" for
recorded findings.  The command-line front end prints these reports; the
acceptance tests assert on them.  The decorations suite reads each crystal
in one ``decorated_crystal`` walk and evaluates each type-D component once.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .coefficients import (CoeffElement, _component_factor, entry_factor, g_value, h_value,
                           row_components)
from .patterns import decorated_crystal
from .roots import (CartanSpec, build_root_system, is_strongly_dominant, weyl_character,
                    weyl_dimension)
from .series import branch_decompose, character_via_patterns, p_part, tokuyama_quotient
from .weightpoly import character_dimension

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

# Every modulus p^c of an exact sum is below 2^32.  Miller-Rabin with the
# bases 2..41 decides primality of every m < 3.3 * 10^24.
_MODULUS_LIMIT = 1 << 32
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin with the bases ``_MR_BASES``."""
    if m < 2 or any(m % b == 0 for b in _MR_BASES):
        return m in _MR_BASES
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (m - 1) >> s, m)
        if x != 1 and m - 1 not in (pow(x, 1 << i, m) for i in range(s)):
            return False
    return True


def _element_of_order(order: int, modulus: int, factors: list[int]) -> int:
    """The first x^((modulus - 1) / order), x = 1, 2, ..., of multiplicative
    order exactly ``order`` mod the prime ``modulus``; ``factors`` are the
    primes dividing ``order``.  At order modulus - 1: the least primitive
    root."""
    for x in itertools.count(1):
        y = pow(x, (modulus - 1) // order, modulus)
        if all(pow(y, order // f, modulus) != 1 for f in factors):
            return y


@lru_cache(maxsize=None)
def gauss_field(p: int) -> tuple[int, int, int, int]:
    """The field of every exact Gauss sum at the prime p, as (ell, z, top, g):
    top = p^C is the largest power of p below 2^32, ell the first prime above
    2^61 with ell = 1 mod (p-1) * top, z an element of order (p-1) * top in
    F_ell and g the least primitive root mod p.  z^top has order p - 1 and
    z^((p-1) * top / p^c) order p^c, so the characters of every modulus p^c,
    c <= C, take their values in this one field."""
    if not 2 <= p < _MODULUS_LIMIT or not _is_prime(p):
        raise ValueError(f"{p} is not a prime below 2^32")
    top = p
    while top * p < _MODULUS_LIMIT:
        top *= p
    order = (p - 1) * top
    ell = ((1 << 61) // order + 1) * order + 1
    while not _is_prime(ell):
        ell += order
    factors, m, d = [], p - 1, 2  # the primes dividing p - 1, by trial division
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    return (ell, _element_of_order(order, ell, factors + [p]), top,
            _element_of_order(p - 1, p, factors))


def gauss_exact(t: int, a_exp: int, c_exp: int, p: int, n: int) -> int:
    """The Gauss sum with modulus p^c_exp as a residue in the field of
    ``gauss_field(p)``: the image of the complex sum under the ring map that
    sends e^(2 pi i / ((p-1) * top)) to z.

    Sums chi(d)^(t*c_exp) * psi(d * p^a_exp) over units d mod p^c_exp, with
    chi(g) = z^(top * (p-1) / n) the order-n character mod p and
    psi(1) = z^((p-1) * top / p^c_exp); the power t*c_exp realises the
    order-n residue symbol of the full modulus applied t times.  With
    d = u + p*k, chi reads u alone and psi is additive, so the sum is
    sum_u chi(u)^(t*c_exp) psi(u p^a_exp) times sum_k psi(k p^(a_exp+1)),
    k < p^(c_exp-1), each summed term by term.
    """
    if t not in (1, 2) or c_exp < 1 or a_exp < 0 or n < 1:
        raise ValueError("need t in (1, 2), c_exp >= 1, a_exp >= 0 and n >= 1")
    if c_exp >= 32 or p ** c_exp >= _MODULUS_LIMIT:
        raise ValueError(f"need p^c_exp < 2^32, got p={p}, c_exp={c_exp}")
    if (p - 1) % n != 0:
        raise ValueError(f"need p = 1 mod n, got p={p}, n={n}")
    ell, z, top, g = gauss_field(p)
    mod = p ** c_exp
    chi = pow(z, top * ((p - 1) // n) * t * c_exp, ell)  # chi(g)^(t*c_exp)
    psi = pow(z, (p - 1) * (top // mod), ell)             # psi(1)
    shift = pow(p, a_exp, mod)
    outer, u, chi_u = 0, 1, 1
    for _ in range(p - 1):
        outer += chi_u * pow(psi, u * shift % mod, ell)
        u, chi_u = u * g % p, chi_u * chi % ell
    step, inner, x = pow(psi, shift * p % mod, ell), 0, 1
    for _ in range(mod // p):
        inner += x
        x = x * step % ell
    return outer * inner % ell


# the cases stop at moduli p**c_exp within this budget
_TERM_BUDGET = 10 ** 7


def _exp_cap(p: int) -> int:
    """Largest c_exp with p**c_exp within ``_TERM_BUDGET`` (p >= 2)."""
    c = 0
    while p ** (c + 1) <= _TERM_BUDGET:
        c += 1
    return c


def run_gauss_suite(primes: tuple[int, ...] = (5, 7, 13),
                    degrees: tuple[int, ...] = (1, 2, 3, 4)) -> dict:
    """Exact character sums (``gauss_exact``) against the stored closed forms.

    The h and the n = 1 g cases are integer-exact: chi^(t*c) or psi is
    trivial there, so the sum is a rational integer of absolute value at
    most p^c < ell/2, and its residue lifted to (-ell/2, ell/2] is the
    integer itself, which ``numeric`` reports beside the closed form's
    ``symbolic`` value.  The residue-period and relation cases are
    equalities in F_ell, under ``gauss_exact``'s one ring map from Z[zeta].
    """
    if any(n < 1 for n in degrees):
        raise ValueError(f"cover degrees must be >= 1, got {list(degrees)}")
    if any(p < 2 for p in primes):
        raise ValueError(f"primes must be >= 2, got {list(primes)}")
    cases = []
    for n in degrees:
        for p in primes:
            if (p - 1) % n:
                continue
            ell = gauss_field(p)[0]
            cap = _exp_cap(p)
            exponents = range(1, min(cap, 6) + 1)
            exact = [(f"h_{t}({a}) n={n} p={p}", t, a, a, h_value(t, a, n))
                     for t in (1, 2) for a in exponents]
            if n == 1:
                # the character is trivial: g_value gives -q^(a-1) for t = 1, 2
                exact += [(name.format(a=a, p=p), t, a - 1, a, g_value(t, a, 1))
                          for t, name in ((1, "g({a}) n=1 p={p} specialization"),
                                          (2, "g_2({a}) n=1 p={p}"))
                          for a in exponents]
            for name, t, a_exp, c_exp, closed in exact:
                num = gauss_exact(t, a_exp, c_exp, p, n)
                num -= ell if 2 * num > ell else 0  # lifted to (-ell/2, ell/2]
                mons = closed.monomials()
                if any(gauss or e < 0 for _, e, gauss in mons):
                    raise ValueError(f"{name}: the closed form is no polynomial in q")
                sym = sum(c * p ** e for c, e, _ in mons)
                cases.append(_case(name, num == sym, numeric=num, symbolic=sym))
            # residue-class dependence: unit-scale values repeat with period n
            for t in (1, 2):
                for a in exponents:
                    if a + n > cap:
                        continue
                    v1 = gauss_exact(t, a - 1, a, p, n)
                    v2 = gauss_exact(t, a + n - 1, a + n, p, n)
                    cases.append(_case(
                        f"g_{t} residue period: a={a} vs {a + n}, n={n} p={p}",
                        v1 * p ** n % ell == v2))
            if n <= cap:
                cases += _gauss_relations(p, n, ell)
    return _finish("gauss", cases)


def _gauss_relations(p: int, n: int, ell: int) -> list[dict]:
    """The relations a normal form of the ring would apply, on unit-scale
    values g_t(c) = G(t, a-1, a) / p^(a-1), a the least positive exponent of
    residue c: g_t(c) = -1 when n | t*c, g_2(c) = g_1(2c mod n), and
    g(c) g(-c) = q for c != 0, which needs chi(-1) = 1, so it is asserted
    only for p = 1 mod 2n."""
    g = {(t, c): gauss_exact(t, a - 1, a, p, n) * pow(p, 1 - a, ell) % ell
         for t in (1, 2) for c in range(n) for a in (c or n,)}
    cases = [_case(f"g_{t}({c}) = -1 as n | {t}*{c}, n={n} p={p}", v == ell - 1)
             for (t, c), v in g.items() if t * c % n == 0]
    cases += [_case(f"g_2({c}) = g_1({2 * c % n}), n={n} p={p}",
                    g[2, c] == g[1, 2 * c % n]) for c in range(n)]
    if (p - 1) % (2 * n) == 0:
        cases += [_case(f"g({c}) g({n - c}) = q as p = 1 mod 2n, n={n} p={p}",
                        g[1, c] * g[1, n - c] % ell == p) for c in range(1, n)]
    return cases


# ---------------------------------------------------------------------------
# Tokuyama suite
# ---------------------------------------------------------------------------

DEFAULT_TOKUYAMA_LAMBDAS: tuple[tuple[int, ...], ...] = (
    (2,), (3,), (4,),
    (1, 1), (2, 1), (2, 2),
    (1, 1, 1), (2, 1, 1), (1, 1, 2),
)


def run_tokuyama_suite(lambdas: Sequence[tuple[int, ...]] | None = None) -> dict:
    """Degree-1 factorization, one case per rank: every lambda's sum P equals
    D * chi~, Tokuyama's deformed Weyl denominator
    D = x^rho prod_(a>0) (1 - q^(ht a - 1) x^-a) times the twisted character
    of lambda - rho, multiplied out (``series.tokuyama_quotient``).  A failed
    case names each failing lambda, and as witness the leading weight of the
    first one's P - D * chi~.

    ``None`` runs ``DEFAULT_TOKUYAMA_LAMBDAS``.  The lambdas are grouped by
    rank, the ranks run in ascending order, and each rank keeps the input
    order."""
    by_rank: dict[int, list] = {}
    for lam in DEFAULT_TOKUYAMA_LAMBDAS if lambdas is None else lambdas:
        by_rank.setdefault(len(lam), []).append(lam)
    cases = []
    for rank, lams in sorted(by_rank.items()):
        rs = build_root_system(CartanSpec("A", rank))
        failed = [r for r in (tokuyama_quotient(rs, lam) for lam in lams) if not r.ok]
        cases.append(_case(f"rank={rank}: P = D * chi~ for every lambda", not failed,
                           failed=[list(r.lam) for r in failed],
                           witness=failed[0].reason if failed else None))
    return _finish("tokuyama", cases)


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
    """Zero-pattern decoration and the type-D component rules, each crystal
    read in one walk and each component evaluated once."""
    cases = []
    for family, rank, lam in _DECORATION_BATTERY:
        if is_strongly_dominant(lam):
            # the walk's first leaf takes every lower bound: the zero pattern
            dzp = next(decorated_crystal(build_root_system(CartanSpec(family, rank)), lam))
            fully = (not any(map(any, dzp.pattern.rows))
                     and all(all(crow) and not any(brow)
                             for crow, brow in zip(dzp.circled, dzp.boxed)))
            cases.append(_case(f"{family}{rank} zero pattern fully circled, unboxed",
                               fully))

    # type-D sigma rules over complete crystals; one entry rule, cached for
    # the call, counts the circled-and-unboxed reads the published rule
    # leaves open
    rs4 = build_root_system(CartanSpec("D", 4))
    cached_entry = lru_cache(maxsize=None)(entry_factor)

    def d_entry(a, circled, boxed, middle):
        nonlocal forced
        forced += circled and not boxed
        return cached_entry("D", a, circled, boxed, middle, 1)

    for lam in ((1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1)):
        sml_zero_ok = True
        zeroing_ok = True
        forced = 0
        P = p_part(rs4, lam, 1, allow_dominant=True)
        for dp in decorated_crystal(rs4, lam):
            for i, (row, crow, brow) in enumerate(zip(dp.pattern.rows, dp.circled,
                                                      dp.boxed), start=1):
                for comp in row_components(rs4.spec, i, row):
                    has_cb = any(crow[j - i] and brow[j - i]
                                 for j in range(comp.j1, comp.j2 + 1))
                    val = _component_factor(comp, i, crow, brow, d_entry)
                    if has_cb and not val.is_zero():
                        zeroing_ok = False
                    if (comp.kind == "sml" and comp.value == 0 and not has_cb
                            and val != CoeffElement.one()):
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
