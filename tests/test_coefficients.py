import random
import time
from functools import partial, reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from crystalmds import (CartanSpec, CoeffElement, GaussSymbol, entry_factor, g_value,
                        h_value, pattern_shape, row_components)
from crystalmds import coefficients
from crystalmds.coefficients import (Q_EXP_LIMIT, _component_factor, kronecker_decode,
                                     kronecker_encode, slot_table)
from crystalmds.verification import gauss_exact, gauss_field
from oracles import RefCoeff, element

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
                       st.integers(0, 3), st.sampled_from((2, 3, 4)), st.booleans()),
             max_size=4))


@settings(max_examples=200, deadline=None)
@given(coeff_strategy, coeff_strategy, coeff_strategy)
def test_ring_laws_hypothesis(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert (a * ONE) == a and (a * ZERO).is_zero()


@st.composite
def digit_polynomials(draw):
    """(B, packed dict) of a polynomial in q whose coefficients, of either
    sign, lie within +-(2^(B-1) - 1), the extremes drawn often."""
    bits = draw(st.integers(2, 140))
    top = (1 << (bits - 1)) - 1
    coeff = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top).filter(bool))
    return bits, draw(st.dictionaries(st.integers(0, 30), coeff, max_size=8))


@settings(max_examples=300, deadline=None)
@given(digit_polynomials(), digit_polynomials())
def test_kronecker_digits_round_trip(a, b):
    # encode is evaluation at q = 2^B, a ring map on polynomials in q; decode
    # reads the signed base-2^B digits back, exactly while every coefficient
    # stays strictly inside +-2^(B-1)
    bits, packed = a
    v = kronecker_encode(packed, bits)
    assert v == sum(c * 2 ** (bits * e) for e, c in packed.items())
    assert kronecker_decode(v, bits) == packed
    assert kronecker_decode(-v, bits) == (-CoeffElement.from_packed(dict(packed))).packed()
    x, y = CoeffElement.from_packed(dict(packed)), CoeffElement.from_packed(dict(b[1]))
    ex, ey = kronecker_encode(x.packed(), bits), kronecker_encode(y.packed(), bits)
    assert kronecker_encode((x + y).packed(), bits) == ex + ey
    assert kronecker_encode((x * y).packed(), bits) == ex * ey


def test_kronecker_map_refuses_what_is_no_polynomial_in_q():
    # a negative q exponent, alone or beside others, and a Gauss symbol have
    # no value at q = 2^B
    for el in (Q(-1), Q(3) + Q(-2, 5), CoeffElement.symbol(GaussSymbol(1, 1, 2))):
        with pytest.raises(ValueError, match="negative q exponent or a Gauss symbol"):
            kronecker_encode(el.packed(), 8)
    # the slot table's map raises where a factor has one: type B divides by q^a
    factor = slot_table(CartanSpec("B", 2), 1, lambda f: kronecker_encode(f.packed(), 8))
    with pytest.raises(ValueError, match="negative q exponent"):
        factor(1, 2, [1, 1, 0], [False, False, False], [False, False, False])
    assert not ZERO and ONE and Q(-3) and not (Q(1) - Q(1))


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
        el = el + element({(e, tuple(powers)): c})
        ref = ref + RefCoeff.monomial(c, e, powers)
    return el, ref


def as_ref(el):
    return [(c, e, tuple(((s.t, s.residue, s.degree), k) for s, k in g))
            for c, e, g in el.monomials()]


@settings(max_examples=300, deadline=None)
@given(monomial_specs((2, 3, 4)), monomial_specs((2, 3, 4)),
       st.sampled_from((1, -1)), st.integers(-10 ** 6, 10 ** 6))
def test_ring_matches_reference_ring(sa, sb, sign, e):
    a, ra = build(sa)
    b, rb = build(sb)
    for got, want in [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                      (-a, -ra), (a * Q(e, sign), ra.times_unit(sign, e))]:
        assert as_ref(got) == want.monomials()
        assert got.to_json_obj() == want.to_json_obj()
        assert got == element(want.terms) and hash(got) == hash(element(want.terms))


@settings(max_examples=200, deadline=None)
@given(monomial_specs((2, 5, 6, 7)), monomial_specs((5, 6, 7)))
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
    assert el.monomials() == [(1, 0, ((sym, 200),))]


@pytest.mark.parametrize("e", [10 ** 6, -10 ** 6, Q_EXP_LIMIT - 1, 1 - Q_EXP_LIMIT])
def test_large_q_exponents_round_trip(e):
    sym = GaussSymbol(1, 3, 4)
    el = Q(e, 2) + CoeffElement.symbol(sym, q_exp=e, coeff=-1)
    obj = el.to_json_obj()
    assert [m["q"] for m in obj["monomials"]] == [e, e]
    assert element({(q, g): c for c, q, g in el.monomials()}) == el


def test_inputs_outside_the_field_bounds_are_rejected():
    sym = GaussSymbol(1, 1, 2)
    for e in (Q_EXP_LIMIT, -Q_EXP_LIMIT):
        with pytest.raises(ValueError):
            Q(e)
        with pytest.raises(ValueError):
            CoeffElement.symbol(sym, q_exp=e)
        with pytest.raises(ValueError):
            ONE * Q(e, 1)


_SYM = GaussSymbol(1, 1, 2)


@pytest.mark.parametrize("make,field", [
    (partial(CoeffElement.from_int, 0.5), "coefficient"),
    (partial(CoeffElement.from_int, 2.0), "coefficient"),
    (partial(Q, 2, 0.5), "coefficient"),
    (partial(Q, 1.5), "q exponent"),
    (partial(CoeffElement.symbol, _SYM, q_exp=0.9), "q exponent"),
    (partial(CoeffElement.symbol, _SYM, coeff=3.9), "coefficient"),
])
def test_the_ring_takes_integers_only(make, field):
    # a float exponent or coefficient, even an integral one, is a
    # ValueError naming its field in every constructor
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        make()


def test_elements_come_only_from_the_constructors():
    # the class itself builds nothing, from no argument or from a dict of
    # terms: each element comes from zero, one, from_int, q_power, symbol or
    # from_packed
    for args in [(), ({},), ({(0, ()): 1},)]:
        with pytest.raises(TypeError, match="zero, one, from_int, q_power, symbol or from_packed"):
            CoeffElement(*args)


def test_canonical_merging_and_zero_dropping():
    a = Q(2) + Q(2)
    assert a == Q(2, 2)
    assert (Q(2) - Q(2)).is_zero()
    s = CoeffElement.symbol(GaussSymbol(1, 1, 3))
    assert (s * s).monomials() == [(1, 0, ((GaussSymbol(1, 1, 3), 2),))]


def test_mul_into_keeps_the_accumulator_zero_free():
    # a monomial whose sum reaches 0 is deleted as it cancels, and a dict
    # whose every monomial cancels is left empty, in place
    g = CoeffElement.symbol(GaussSymbol(1, 1, 3))
    acc = dict((Q(1) + g).packed())
    assert coefficients.mul_into(acc, Q(1, -1).packed(), ONE.packed()) is acc
    assert acc == g.packed()
    acc = dict((Q(1) - ONE).packed())
    assert coefficients.mul_into(acc, ONE.packed(), (ONE - Q(1)).packed()) == {}
    # and the same through the ring's product: (1 + q)(1 - q) = 1 - q^2
    assert ((ONE + Q(1)) * (ONE - Q(1))).packed() == (ONE - Q(2)).packed()


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
    # an integral float is still no integer, in any argument of either sum
    for t, a, n in ((1.0, 1, 2), (1, 2.0, 3), (1, 1, 2.0)):
        for value in (h_value, g_value):
            with pytest.raises(ValueError, match="must be an integer"):
                value(t, a, n)


def test_g_value_symbolic_and_specialized():
    # symbolic from degree 2 on; at degree 1 the character is trivial and
    # g_t(a) is the Laurent monomial -q^(a-1) itself
    g1 = g_value(1, 1, 2)
    assert g1 == CoeffElement.symbol(GaussSymbol(1, 1, 2))
    assert g_value(1, 1, 1) == CoeffElement.from_int(-1)
    for t in (1, 2):
        for a in range(1, 7):
            assert g_value(t, a, 1) == Q(a - 1, -1)


def test_specialize_product():
    # a degree-1 product is a Laurent polynomial in q: (-q) * (q - 1)
    el = g_value(1, 2, 1) * h_value(1, 1, 1)
    assert el == (Q(1, -1)) * q_minus_one()


def test_degree_one_symbols_do_not_exist():
    for t in (1, 2):
        with pytest.raises(ValueError):
            GaussSymbol(t, 0, 1)
    with pytest.raises(ValueError):
        GaussSymbol(1, 0, 0)


def test_json_round_trip_and_order():
    el = Q(2, 3) + Q(-1, 5) + CoeffElement.symbol(GaussSymbol(2, 1, 3), q_exp=2)
    obj = el.to_json_obj()
    qs = [m["q"] for m in obj["monomials"]]
    assert qs == sorted(qs)
    assert element({(m["q"], tuple(((d["t"], d["c"], 3), d["pow"]) for d in m["gauss"])): m["int"]
                    for m in obj["monomials"]}) == el


# ---------------------------------------------------------------------------
# exact oracle: Gauss sums in the prime field of gauss_field(p)
# ---------------------------------------------------------------------------

def _prime(x):
    return x > 1 and all(x % d for d in range(2, int(x ** 0.5) + 1))


def direct_sum(t, a_exp, c_exp, p, n):
    """Independent evaluator in the same field, term by term over every unit
    d mod p^c_exp with no grouping: chi(g^k) = zeta_n^k for the smallest
    primitive root g, residue symbol of the full modulus = chi^(c_exp), and
    psi(x) = zeta_(p^c_exp)^x, both roots powers of the field's z."""
    ell, z, top, _ = gauss_field(p)
    facts = {f for f in range(2, p) if (p - 1) % f == 0 and _prime(f)}
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in facts))
    ind, acc = {}, 1
    for k in range(p - 1):
        ind[acc] = k
        acc = acc * g % p
    mod = p ** c_exp
    zeta_n = pow(z, top * (p - 1) // n, ell)
    zeta_mod = pow(z, (p - 1) * top // mod, ell)
    tot = 0
    for d in range(1, mod):
        if d % p == 0:
            continue
        tot += pow(zeta_n, ind[d % p] * t * c_exp, ell) * pow(zeta_mod, d * p ** a_exp, ell)
    return tot % ell


def lifted(x, p):
    ell = gauss_field(p)[0]
    return x - ell if 2 * x > ell else x


def test_gauss_numeric_spot_values():
    assert lifted(gauss_exact(1, 0, 1, 5, 1), 5) == -1
    assert lifted(gauss_exact(1, 1, 1, 5, 1), 5) == 4
    # the quadratic character mod 5 is even and real: g^2 = |g|^2 = 5
    assert gauss_exact(1, 0, 1, 5, 2) ** 2 % gauss_field(5)[0] == 5
    # p = 2 has the primitive root 1: the one unit mod 2 gives psi(1) = -1
    assert lifted(gauss_exact(1, 0, 1, 2, 1), 2) == -1


def test_gauss_numeric_matches_independent_sum():
    for (t, a, c, p, n) in [(1, 0, 1, 7, 3), (1, 2, 2, 5, 2), (2, 1, 2, 13, 4), (1, 3, 3, 5, 1)]:
        assert gauss_exact(t, a, c, p, n) == direct_sum(t, a, c, p, n)


def test_gauss_numeric_validates_input():
    with pytest.raises(ValueError):
        gauss_exact(1, 0, 1, 6, 1)
    with pytest.raises(ValueError):
        gauss_exact(1, 0, 1, 7, 4)  # 7 != 1 mod 4
    start = time.perf_counter()
    with pytest.raises(ValueError):
        gauss_exact(1, 0, 1, 2 ** 61 - 1, 1)  # p^c >= 2^32, refused before any factoring
    assert time.perf_counter() - start < 1.0


def eval_q(el, q):
    tot = 0
    for c, e, gauss in el.monomials():
        assert not gauss
        tot += c * (q ** e)
    return tot


@pytest.mark.parametrize("n,p", [(1, 5), (2, 5), (3, 7), (4, 5)])
def test_h_pinned_by_numeric_oracle(n, p):
    for t in (1, 2):
        for a in range(1, 5):
            num = gauss_exact(t, a, a, p, n)
            sym = eval_q(h_value(t, a, n), p)
            assert lifted(num, p) == sym


def test_g_residue_class_only():
    # unit-scale values agree for arguments congruent mod n
    n, p, t = 3, 7, 1
    v1 = gauss_exact(t, 0, 1, p, n)
    v2 = gauss_exact(t, 3, 4, p, n)
    assert v1 * p ** 3 % gauss_field(p)[0] == v2
    assert g_value(t, 1, n) == CoeffElement.symbol(GaussSymbol(t, 1, n))
    assert g_value(t, 4, n) == CoeffElement.symbol(GaussSymbol(t, 1, n), q_exp=3)


def unit_gauss(t, c, p, n):
    """g_t(c) at unit scale in the field: the sum of modulus p^a over
    p^(a-1), for a the least positive exponent of residue c mod n."""
    a = c % n or n
    ell = gauss_field(p)[0]
    return gauss_exact(t, a - 1, a, p, n) * pow(p, 1 - a, ell) % ell


@pytest.mark.parametrize("n,p", [(2, 13), (3, 13), (4, 17), (6, 13)])
def test_gauss_relations_pinned_by_numeric_oracle(n, p):
    # the relations a normal form of the ring would apply (ROADMAP item 1),
    # for every residue, as equalities in F_ell; p = 1 mod 2n in each case
    ell = gauss_field(p)[0]
    g = {(t, c): unit_gauss(t, c, p, n) for t in (1, 2) for c in range(n)}
    for (t, c), v in g.items():
        if t * c % n == 0:
            assert v == ell - 1, (t, c)
        if t == 2:
            assert v == g[1, 2 * c % n], c
    for c in range(1, n):
        assert g[1, c] * g[1, -c % n] % ell == p, c


# ---------------------------------------------------------------------------
# decorated-entry factors
# ---------------------------------------------------------------------------

def test_entry_factor_circled_and_boxed_is_zero():
    for fam in "ABCD":
        assert entry_factor(fam, 2, True, True, False, 2).is_zero()


def test_entry_factor_type_a():
    assert entry_factor("A", 0, True, False, False, 1) == ONE
    assert entry_factor("A", 2, True, False, False, 1) == Q(2)
    assert entry_factor("A", 2, False, True, False, 1) == g_value(1, 2, 1)
    assert entry_factor("A", 2, False, False, False, 1) == h_value(1, 2, 1)


def test_entry_factor_type_b_subscripts():
    # circled contributes 1; the middle column uses t=1, others t=2
    assert entry_factor("B", 3, True, False, True, 2) == ONE
    assert entry_factor("B", 2, False, True, True, 3) == g_value(1, 2, 3) * Q(-2)
    assert entry_factor("B", 2, False, True, False, 3) == g_value(2, 2, 3) * Q(-2)
    assert entry_factor("B", 2, False, False, False, 2) == h_value(2, 2, 2) * Q(-2)


def test_entry_factor_type_c():
    assert entry_factor("C", 2, False, False, False, 3).is_zero()  # 3 does not divide 2
    assert entry_factor("C", 3, False, False, False, 3) == h_value(1, 3, 3)
    assert entry_factor("C", 1, False, True, True, 2) == g_value(2, 1, 2)
    assert entry_factor("C", 1, True, False, False, 4) == Q(1)


def test_entry_factor_rejects_an_unknown_family():
    for circled, boxed in ((False, False), (True, False), (False, True), (True, True)):
        with pytest.raises(ValueError):
            entry_factor("E", 1, circled, boxed, False, 1)


def test_entry_factor_type_d():
    # type D applies the rule to the entries a component reads (sigma)
    assert entry_factor("D", 1, True, True, False, 1).is_zero()
    assert entry_factor("D", 1, False, False, False, 1) == ONE - Q(-1)  # (q-1)/q
    assert entry_factor("D", 2, False, True, False, 2) == g_value(1, 2, 2) * Q(-2)
    # circled-and-unboxed: completed as the unit factor
    assert entry_factor("D", 3, True, False, False, 2) == ONE


def test_circled_entry_is_the_rings_one_under_normalization():
    # in types B and D a circled entry's q^a meets the q^-a normalization;
    # the factor is the ring's one itself, which products pass through
    for fam in "BD":
        for middle in (False, True):
            assert entry_factor(fam, 3, True, False, middle, 2) is ONE


# ---------------------------------------------------------------------------
# type-D slot factors, one per closing component
# ---------------------------------------------------------------------------

@st.composite
def type_d_rows(draw):
    """A type-D spec of rank 3..6, a row index of its shape, and random
    values (few, so that runs form) and marks for that row.  A zero is
    circled, as in every pattern: its cone bound is 0."""
    spec = CartanSpec("D", draw(st.integers(3, 6)))
    shape = pattern_shape(spec)
    i = draw(st.integers(1, len(shape)))
    width = shape[i - 1]
    row = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
    crow = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    brow = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    return spec, i, row, [c or not v for c, v in zip(crow, row)], brow


@settings(max_examples=300, deadline=None)
@given(type_d_rows(), st.integers(1, 4))
def test_type_d_slot_factors_are_the_row_components(case, n):
    # each component closes at exactly one slot of its row: walking the row
    # in slot order, right to left, with columns left of the slot not yet
    # placed, a fresh table per slot hands _component_factor exactly the
    # row_components with their mark slices, each once; so the product of
    # the row's slot factors is the product of the component factors
    spec, i, row, crow, brow = case

    def marks(comp, start, crow, brow):
        cols = slice(comp.j1 - start, comp.j2 - start + 1)
        return comp, tuple(crow[cols]), tuple(brow[cols])

    handed = []

    def recording(comp, start, crow, brow, entry):
        handed.append(marks(comp, start, crow, brow))
        return _component_factor(comp, start, crow, brow, entry)

    def walk(table):
        # the row's slot factors in slot order, each from table(), over
        # columns placed so far
        width = len(row)
        vals, cmarks, bmarks = [None] * width, [None] * width, [None] * width
        out = ONE
        for j in range(i + width - 1, i - 1, -1):
            off = j - i
            vals[off], cmarks[off], bmarks[off] = row[off], crow[off], brow[off]
            out = out * table()(i, j, vals, cmarks, bmarks)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coefficients, "_component_factor", recording)
        by_fresh_slot = walk(lambda: slot_table(spec, n))
    comps = row_components(spec, i, row)
    assert sorted(handed, key=lambda m: m[0].j1) == [marks(c, i, crow, brow) for c in comps]
    shared = slot_table(spec, n)
    by_slot = walk(lambda: shared)
    entry = partial(entry_factor, "D", n=n)
    by_component = reduce(mul, (_component_factor(c, i, crow, brow, entry) for c in comps), ONE)
    assert by_slot == by_fresh_slot == by_component
