import cmath
import random

import pytest
from hypothesis import given, settings, strategies as st

from crystalmds import (CoeffElement, GaussSymbol, entry_factor, g_value,
                        gauss_numeric, h_value, sigma_entry, specialize_n1)
from crystalmds.coefficients import POW_LIMIT, Q_EXP_LIMIT
from oracles import RefCoeff

Q = CoeffElement.q_power
ONE = CoeffElement.one()
ZERO = CoeffElement.zero()


def q_minus_one():
    return Q(1) - ONE


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

def small_elements(rng, count):
    syms = [GaussSymbol(1, 0, 2), GaussSymbol(1, 1, 2), GaussSymbol(2, 1, 3)]
    out = []
    for _ in range(count):
        el = ZERO
        for _ in range(rng.randrange(0, 4)):
            term = CoeffElement.q_power(rng.randrange(-3, 4), rng.randrange(-3, 4))
            if rng.random() < 0.5:
                term = term * CoeffElement.symbol(rng.choice(syms))
            el = el + term
        out.append(el)
    return out


def test_ring_laws_bulk_randomized():
    rng = random.Random(20240817)
    els = small_elements(rng, 40)
    for _ in range(10_000):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


coeff_strategy = st.builds(
    lambda picks: sum(
        (CoeffElement.q_power(e, k) * (CoeffElement.symbol(GaussSymbol(t, r % n, n))
                                       if use_sym else ONE)
         for (e, k, t, r, n, use_sym) in picks), ZERO),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5), st.sampled_from((1, 2)),
                       st.integers(0, 3), st.sampled_from((1, 2, 4)), st.booleans()),
             max_size=4))


@settings(max_examples=200, deadline=None)
@given(coeff_strategy, coeff_strategy, coeff_strategy)
def test_ring_laws_hypothesis(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert (a * ONE) == a and (a * ZERO).is_zero()


def monomial_specs(degrees):
    """Sums of c * q^e * symbol powers, as (c, e, [(t, residue, degree, k)])
    lists, with q exponents of either sign and powers up to 3."""
    symbol = st.tuples(st.sampled_from((1, 2)), st.integers(0, 3),
                       st.sampled_from(degrees), st.integers(1, 3))
    return st.lists(st.tuples(st.integers(-5, 5), st.integers(-40, 40),
                              st.lists(symbol, max_size=3)), max_size=4)


def build(spec):
    """The same element built in the package's ring and in the reference."""
    el, ref = ZERO, RefCoeff()
    for c, e, powers in spec:
        powers = [((t, r % d, d), k) for t, r, d, k in powers]
        mon = CoeffElement.q_power(e, c)
        for sym, k in powers:
            for _ in range(k):
                mon = mon * CoeffElement.symbol(GaussSymbol(*sym))
        el = el + mon
        ref = ref + RefCoeff.monomial(c, e, powers)
    return el, ref


def as_ref(el):
    return [(c, e, tuple(((s.t, s.residue, s.degree), k) for s, k in g))
            for c, e, g in el.monomials()]


def from_ref(ref):
    return CoeffElement({(e, tuple((GaussSymbol(*s), k) for s, k in g)): c
                         for (e, g), c in ref.terms.items()})


@settings(max_examples=300, deadline=None)
@given(monomial_specs((1, 2, 4)), monomial_specs((1, 2, 4)),
       st.sampled_from((1, -1)), st.integers(-10 ** 6, 10 ** 6))
def test_ring_matches_reference_ring(sa, sb, sign, e):
    a, ra = build(sa)
    b, rb = build(sb)
    for got, want in [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                      (-a, -ra), (a.times_unit(sign, e), ra.times_unit(sign, e))]:
        assert as_ref(got) == want.monomials()
        assert got.to_json_obj() == want.to_json_obj()
        assert got.as_unit_monomial() == want.as_unit_monomial()
        assert got == from_ref(want) and hash(got) == hash(from_ref(want))
    try:
        want = ra.specialize_n1()
    except ValueError:
        with pytest.raises(ValueError):
            specialize_n1(a)
    else:
        assert as_ref(specialize_n1(a)) == want.monomials()


@settings(max_examples=100, deadline=None)
@given(monomial_specs((1,)), monomial_specs((1,)))
def test_specialize_matches_reference_ring(sa, sb):
    a, ra = build(sa)
    b, rb = build(sb)
    assert as_ref(specialize_n1(a * b)) == (ra * rb).specialize_n1().monomials()


@settings(max_examples=200, deadline=None)
@given(monomial_specs((1, 5, 6, 7)), monomial_specs((5, 6, 7)))
def test_decoding_survives_new_symbols(sa, sb):
    # Decoding caches the sorted Gauss part of each packed symbol-bits
    # value.  Symbols of degrees 5-7 interned after an element was decoded
    # take new fields; the element must decode as before, and elements over
    # old and new fields alike must match the reference ring.
    a, ra = build(sa)
    first = a.monomials(), a.to_json_obj()
    b, rb = build(sb)
    for got, want in [(a, ra), (b, rb), (a * b, ra * rb), (a + b, ra + rb)]:
        assert as_ref(got) == want.monomials()
        assert got.to_json_obj() == want.to_json_obj()
    assert (a.monomials(), a.to_json_obj()) == first


def test_json_obj_is_fresh_on_every_call():
    el = (CoeffElement.symbol(GaussSymbol(2, 1, 5), q_exp=3, coeff=-2)
          * CoeffElement.symbol(GaussSymbol(1, 4, 5)) + Q(1, 7))
    want = {"monomials": [
        {"int": 7, "q": 1, "gauss": []},
        {"int": -2, "q": 3, "gauss": [{"t": 1, "c": 4, "pow": 1},
                                      {"t": 2, "c": 1, "pow": 1}]}]}
    obj = el.to_json_obj()
    assert obj == want
    obj["monomials"][1]["gauss"][0]["pow"] = 99
    obj["monomials"][1]["gauss"].append({"t": 1, "c": 0, "pow": 1})
    obj["monomials"][0]["gauss"].append({"t": 1, "c": 0, "pow": 1})
    obj["monomials"][0]["q"] = -1
    obj["monomials"].pop()
    assert el.to_json_obj() == want


def test_high_symbol_power_serializes():
    sym = GaussSymbol(2, 1, 3)
    el = ONE
    for _ in range(200):
        el = el * CoeffElement.symbol(sym)
    assert el.to_json_obj() == {"monomials": [
        {"int": 1, "q": 0, "gauss": [{"t": 2, "c": 1, "pow": 200}]}]}
    assert el == CoeffElement({(0, ((sym, 200),)): 1})


@pytest.mark.parametrize("e", [10 ** 6, -10 ** 6, Q_EXP_LIMIT - 1, 1 - Q_EXP_LIMIT])
def test_large_q_exponents_round_trip(e):
    sym = GaussSymbol(1, 3, 4)
    el = Q(e, 2) + CoeffElement.symbol(sym, q_exp=e, coeff=-1)
    obj = el.to_json_obj()
    assert [m["q"] for m in obj["monomials"]] == [e, e]
    assert CoeffElement.from_json_obj(obj, 4) == el
    assert Q(e).as_unit_monomial() == (1, e)


def test_inputs_outside_the_field_bounds_are_rejected():
    sym = GaussSymbol(1, 1, 2)
    for e in (Q_EXP_LIMIT, -Q_EXP_LIMIT):
        with pytest.raises(ValueError):
            Q(e)
        with pytest.raises(ValueError):
            CoeffElement.symbol(sym, q_exp=e)
        with pytest.raises(ValueError):
            ONE.times_unit(1, e)
        with pytest.raises(ValueError):
            CoeffElement.from_json_obj({"monomials": [{"int": 1, "q": e, "gauss": []}]}, 2)
    for k in (0, -1, POW_LIMIT):
        with pytest.raises(ValueError):
            CoeffElement({(0, ((sym, k),)): 1})
        with pytest.raises(ValueError):
            CoeffElement.from_json_obj(
                {"monomials": [{"int": 1, "q": 0, "gauss": [{"t": 1, "c": 1, "pow": k}]}]}, 2)
    assert CoeffElement({(0, ((sym, POW_LIMIT - 1),)): 1}).monomials() == [
        (1, 0, ((sym, POW_LIMIT - 1),))]


def test_canonical_merging_and_zero_dropping():
    a = Q(2) + Q(2)
    assert a == Q(2, 2)
    assert (Q(2) - Q(2)).is_zero()
    s = CoeffElement.symbol(GaussSymbol(1, 1, 3))
    assert s * s == CoeffElement({(0, ((GaussSymbol(1, 1, 3), 2),)): 1})


def test_gauss_symbol_value_semantics():
    # symbols are dict keys (the field of each symbol); the hash is the value hash
    a, b = GaussSymbol(2, 1, 3), GaussSymbol(2, 1, 3)
    assert a == b and a is not b and hash(a) == hash(b) == hash((2, 1, 3))
    assert {a: 1}[b] == 1
    assert sorted([a, GaussSymbol(1, 2, 3), GaussSymbol(2, 0, 3)]) == [
        GaussSymbol(1, 2, 3), GaussSymbol(2, 0, 3), a]
    assert repr(a) == "GaussSymbol(t=2, residue=1, degree=3)"
    with pytest.raises(AttributeError):
        a.residue = 2


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_h_value_cases():
    assert h_value(1, 1, 1) == q_minus_one()
    assert h_value(1, 1, 3).is_zero()
    assert h_value(2, 1, 2) == q_minus_one()
    assert h_value(1, 3, 3) == Q(3) - Q(2)
    with pytest.raises(ValueError):
        h_value(1, 0, 1)


def test_g_value_symbolic_and_specialized():
    g1 = g_value(1, 1, 2)
    assert g1 == CoeffElement.symbol(GaussSymbol(1, 1, 2))
    assert specialize_n1(g_value(1, 1, 1)) == CoeffElement.from_int(-1)
    for a in range(1, 7):
        assert specialize_n1(g_value(1, a, 1)) == Q(a - 1, -1)


def test_specialize_product():
    el = g_value(1, 2, 1) * h_value(1, 1, 1)
    # (-q) * (q - 1)
    assert specialize_n1(el) == (Q(1, -1)) * q_minus_one()
    assert specialize_n1(ONE) == ONE
    with pytest.raises(ValueError):
        specialize_n1(g_value(1, 1, 2))


def test_json_round_trip_and_order():
    el = Q(2, 3) + Q(-1, 5) + CoeffElement.symbol(GaussSymbol(2, 1, 3), q_exp=2)
    obj = el.to_json_obj()
    qs = [m["q"] for m in obj["monomials"]]
    assert qs == sorted(qs)
    assert CoeffElement.from_json_obj(obj, 3) == el


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------

def _prime(x):
    return x > 1 and all(x % d for d in range(2, int(x ** 0.5) + 1))


def direct_sum(t, a_exp, c_exp, p, n):
    """Independent evaluator: chi(g^k) = exp(2 pi i k / n) for the smallest
    primitive root g, residue symbol of the full modulus = chi^(c_exp)."""
    facts = {f for f in range(2, p) if (p - 1) % f == 0 and _prime(f)}
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in facts))
    ind, acc = {}, 1
    for k in range(p - 1):
        ind[acc] = k
        acc = acc * g % p
    mod = p ** c_exp
    tot = 0j
    for d in range(1, mod):
        if d % p == 0:
            continue
        tot += cmath.exp(2j * cmath.pi * (ind[d % p] * t * c_exp / n + d * p ** a_exp / mod))
    return tot


def test_gauss_numeric_spot_values():
    assert abs(gauss_numeric(1, 0, 1, 5, 1) - (-1)) < 1e-9
    assert abs(gauss_numeric(1, 1, 1, 5, 1) - 4) < 1e-9
    assert abs(abs(gauss_numeric(1, 0, 1, 5, 2)) - 5 ** 0.5) < 1e-9


def test_gauss_numeric_matches_independent_sum():
    for (t, a, c, p, n) in [(1, 0, 1, 7, 3), (1, 2, 2, 5, 2), (2, 1, 2, 13, 4), (1, 3, 3, 5, 1)]:
        got = gauss_numeric(t, a, c, p, n)
        want = direct_sum(t, a, c, p, n)
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_gauss_numeric_validates_input():
    with pytest.raises(ValueError):
        gauss_numeric(1, 0, 1, 6, 1)
    with pytest.raises(ValueError):
        gauss_numeric(1, 0, 1, 7, 4)  # 7 != 1 mod 4


def eval_q(el, q):
    tot = 0.0
    for c, e, gauss in el.monomials():
        assert not gauss
        tot += c * (q ** e)
    return tot


@pytest.mark.parametrize("n,p", [(1, 5), (2, 5), (3, 7), (4, 5)])
def test_h_pinned_by_numeric_oracle(n, p):
    for t in (1, 2):
        for a in range(1, 5):
            num = gauss_numeric(t, a, a, p, n)
            sym = eval_q(h_value(t, a, n), p)
            assert abs(num - sym) < 1e-6 * max(1.0, abs(sym))


def test_g_residue_class_only():
    # unit-scale values agree for arguments congruent mod n
    n, p, t = 3, 7, 1
    v1 = gauss_numeric(t, 0, 1, p, n)
    v2 = gauss_numeric(t, 3, 4, p, n) / p ** 3
    assert abs(v1 - v2) < 1e-6 * max(1.0, abs(v1))
    assert g_value(t, 1, n) == CoeffElement.symbol(GaussSymbol(t, 1, n))
    assert g_value(t, 4, n) == CoeffElement.symbol(GaussSymbol(t, 1, n), q_exp=3)


# ---------------------------------------------------------------------------
# decorated-entry factors
# ---------------------------------------------------------------------------

def test_entry_factor_circled_and_boxed_is_zero():
    for fam in "ABC":
        assert entry_factor(fam, 2, True, True, False, 2).is_zero()


def test_entry_factor_type_a():
    assert entry_factor("A", 0, True, False, False, 1) == ONE
    assert entry_factor("A", 2, True, False, False, 1) == Q(2)
    assert entry_factor("A", 2, False, True, False, 1) == g_value(1, 2, 1)
    assert entry_factor("A", 2, False, False, False, 1) == h_value(1, 2, 1)


def test_entry_factor_type_b_subscripts():
    # circled contributes 1; the middle column uses t=1, others t=2
    assert entry_factor("B", 3, True, False, True, 2) == ONE
    assert entry_factor("B", 2, False, True, True, 3) == g_value(1, 2, 3).times_unit(1, -2)
    assert entry_factor("B", 2, False, True, False, 3) == g_value(2, 2, 3).times_unit(1, -2)
    assert entry_factor("B", 2, False, False, False, 2) == h_value(2, 2, 2).times_unit(1, -2)


def test_entry_factor_type_c():
    assert entry_factor("C", 2, False, False, False, 3).is_zero()  # 3 does not divide 2
    assert entry_factor("C", 3, False, False, False, 3) == h_value(1, 3, 3)
    assert entry_factor("C", 1, False, True, True, 2) == g_value(2, 1, 2)
    assert entry_factor("C", 1, True, False, False, 4) == Q(1)


def test_entry_factor_rejects_type_d():
    with pytest.raises(ValueError):
        entry_factor("D", 1, False, False, False, 1)


def test_sigma_entry_cases():
    assert sigma_entry(1, True, True, 1).is_zero()
    assert sigma_entry(1, False, False, 1) == ONE - Q(-1)  # (q-1)/q
    assert sigma_entry(2, False, True, 2) == g_value(1, 2, 2).times_unit(1, -2)
    # circled-and-unboxed: completed as the unit factor
    assert sigma_entry(3, True, False, 2) == ONE
