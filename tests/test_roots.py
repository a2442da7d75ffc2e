import itertools
import random
from operator import mul

import pytest

from crystalmds import (CartanSpec, CoeffElement, GaussSymbol, LittelmannPattern,
                        WeightPolynomial, build_root_system, character_dimension,
                        is_dominant, is_strongly_dominant, nice_long_word,
                        weyl_character, weyl_dimension)
from crystalmds.roots import MAX_RANK, _demazure
from crystalmds.weightpoly import divide_terms, weight_codec
from oracles import (ModelRootSystem, freudenthal_multiplicities,
                     invert_fraction_matrix, reflect, rho)
from oracles import divide_terms as reference_divide_terms

ALL_SPECS = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4),
             ("D", 3), ("D", 4)]


def rs(family, rank):
    return build_root_system(CartanSpec(family, rank))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_rank_constraints_rejected():
    with pytest.raises(ValueError):
        CartanSpec("D", 2)
    with pytest.raises(ValueError):
        CartanSpec("B", 1)
    with pytest.raises(ValueError):
        CartanSpec("C", 1)
    with pytest.raises(ValueError):
        CartanSpec("E", 6)
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        CartanSpec("A", MAX_RANK + 1)
    assert CartanSpec("D", MAX_RANK).rank == MAX_RANK


# a valid record, a field to break, the bad value and the error it raises
_VALIDATED = [
    (CartanSpec("A", 3), "family", "E", "unknown family 'E'"),
    (CartanSpec("B", 3), "rank", 1, "family B needs rank >= 2, got 1"),
    (CartanSpec("A", 3), "rank", MAX_RANK + 1, "exceeds the supported maximum"),
    (GaussSymbol(1, 2, 3), "t", 3, "symbol subscript t must be 1 or 2, got 3"),
    (GaussSymbol(1, 2, 3), "degree", 1, "needs cover degree >= 2, got 1"),
    (GaussSymbol(1, 2, 3), "residue", 3, "residue must be reduced modulo the degree"),
    (LittelmannPattern(CartanSpec("A", 2), ((1, 0), (0,))), "rows", ((1,), (0,)),
     r"rows do not fit the CartanSpec\(family='A', rank=2\) shape \[2, 1\]"),
    (LittelmannPattern(CartanSpec("A", 2), ((1, 0), (0,))), "rows", ((1, -1), (0,)),
     "pattern entries must be nonnegative"),
    # integer fields take integers only, not floats of integral value
    (CartanSpec("A", 2), "rank", 2.0, "rank must be an integer, got 2.0"),
    (GaussSymbol(1, 1, 2), "t", 1.0, "symbol t must be an integer, got 1.0"),
    (GaussSymbol(1, 1, 2), "residue", 0.5, "symbol residue must be an integer, got 0.5"),
    (GaussSymbol(1, 1, 2), "degree", 2.0, "symbol degree must be an integer, got 2.0"),
    (LittelmannPattern(CartanSpec("A", 2), ((1, 0), (0,))), "rows", ((1.0, 0), (0,)),
     "pattern entries must be integers"),
]


@pytest.mark.parametrize("record,field,bad,message", _VALIDATED)
def test_validated_records_check_every_construction(record, field, bad, message):
    # the call, by position or keyword, and _make and _replace run one check
    fields = record._asdict()
    fields[field] = bad
    cls = type(record)
    for build in (lambda: cls(*fields.values()), lambda: cls(**fields),
                  lambda: cls._make(fields.values()), lambda: record._replace(**{field: bad})):
        with pytest.raises(ValueError, match=message):
            build()
    assert record._replace(**{field: getattr(record, field)}) == record


def test_records_keep_repr_order_and_immutability():
    spec = CartanSpec("A", 3)
    assert repr(spec) == "CartanSpec(family='A', rank=3)"
    assert repr(GaussSymbol(2, 1, 3)) == "GaussSymbol(t=2, residue=1, degree=3)"
    symbols = [GaussSymbol(t, c, n) for n in (3, 2) for c in range(n) for t in (2, 1)]
    assert sorted(symbols) == sorted(symbols, key=lambda s: (s.t, s.residue, s.degree))
    assert sorted(symbols)[:3] == [GaussSymbol(1, 0, 2), GaussSymbol(1, 0, 3),
                                   GaussSymbol(1, 1, 2)]
    with pytest.raises(AttributeError):
        spec.rank = 4
    with pytest.raises(AttributeError):
        spec.extra = 1


@pytest.mark.parametrize("family", "ABCD")
def test_closed_form_cartan_inverse_matches_gauss_jordan(family):
    for rank in range(3 if family == "D" else 2, 13):
        model = ModelRootSystem(family, rank)
        want = invert_fraction_matrix(model.cartan_matrix())
        assert [list(row) for row in rs(family, rank).cartan_inverse] == want, rank


def _model_rho(family, rank):
    """Half the sum of the model's positive roots, in fundamental-weight
    coordinates: its pairings with the simple coroots."""
    model = ModelRootSystem(family, rank)
    return model.weight_coords([sum(col) / 2 for col in zip(*model.positive)])


def test_a1_single_root_rho_is_fundamental():
    r = rs("A", 1)
    assert r.positive_roots == ((2,),)
    assert _model_rho("A", 1) == (1,) == rho(r)


def test_a3_six_positive_roots():
    assert len(rs("A", 3).positive_roots) == 6


def test_d4_twelve_positive_roots_fork_orthogonal():
    r = rs("D", 4)
    assert len(r.positive_roots) == 12
    assert r.cartan[0][1] == 0 and r.cartan[1][0] == 0


@pytest.mark.parametrize("family,rank", ALL_SPECS)
def test_positive_roots_match_coordinate_model(family, rank):
    model = ModelRootSystem(family, rank)
    r = rs(family, rank)
    assert set(r.positive_roots) == model.positive_roots_weight_coords()
    assert [list(row) for row in r.cartan] == model.cartan_matrix()


@pytest.mark.parametrize("family,rank", ALL_SPECS)
def test_cartan_shape_and_rho_pairings(family, rank):
    r = rs(family, rank)
    for i in range(rank):
        assert r.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert r.cartan[i][j] <= 0
    # half the sum of the positive roots pairs to 1 with every simple coroot
    assert _model_rho(family, rank) == (1,) * rank == rho(r)


# ---------------------------------------------------------------------------
# long words
# ---------------------------------------------------------------------------

def test_nice_long_word_values():
    assert nice_long_word(CartanSpec("A", 3)) == (1, 2, 1, 3, 2, 1)
    assert nice_long_word(CartanSpec("B", 2)) == (1, 2, 1, 2)
    assert nice_long_word(CartanSpec("D", 3)) == (1, 2, 3, 1, 2, 3)


@pytest.mark.parametrize("family,rank", ALL_SPECS)
def test_long_word_length_is_positive_root_count(family, rank):
    spec = CartanSpec(family, rank)
    assert len(nice_long_word(spec)) == spec.positive_root_count()


@pytest.mark.parametrize("family,rank", ALL_SPECS)
def test_long_word_prefix_property(family, rank):
    spec = CartanSpec(family, rank)
    from crystalmds.roots import _MIN_RANK
    if rank == _MIN_RANK[family]:
        return
    sub = nice_long_word(CartanSpec(family, rank - 1))
    assert nice_long_word(spec)[:len(sub)] == sub


@pytest.mark.parametrize("family,rank", ALL_SPECS)
def test_long_word_is_reduced(family, rank):
    # a word is reduced for the long element iff applying it sends every
    # positive root negative, counted without repetition
    spec = CartanSpec(family, rank)
    r = rs(family, rank)
    word = nice_long_word(spec)
    flipped = 0
    for root in r.positive_roots:
        v = root
        for k in reversed(word):
            v = reflect(r, v, k)
        rc = r.root_coordinates(v)
        assert all(c <= 0 for c in rc) or all(c >= 0 for c in rc)
        flipped += all(c <= 0 for c in rc)
    assert flipped == len(r.positive_roots) == len(word)


# ---------------------------------------------------------------------------
# characters and dimensions
# ---------------------------------------------------------------------------

def test_character_trivial_weight():
    r = rs("B", 2)
    chi = weyl_character(r, (0, 0))
    assert len(chi) == 1 and chi.coeff((0, 0)).is_one()


def test_character_a1_string():
    chi = weyl_character(rs("A", 1), (2,))
    assert {w: c.monomials()[0][0] for w, c in chi.terms.items()} == {
        (2,): 1, (0,): 1, (-2,): 1}


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (1, 1)), ("A", 1, (3,)), ("B", 2, (1, 1)), ("B", 2, (0, 1)),
    ("C", 2, (1, 0)), ("D", 3, (0, 0, 1)), ("A", 3, (1, 0, 1)),
])
def test_character_matches_freudenthal(family, rank, lam):
    chi = weyl_character(rs(family, rank), lam)
    engine = {w: c.monomials()[0][0] for w, c in chi.terms.items()}
    assert engine == freudenthal_multiplicities(family, rank, lam)


def test_character_a2_adjoint_shape():
    fr = freudenthal_multiplicities("A", 2, (1, 1))
    assert fr[(0, 0)] == 2
    assert sorted(m for w, m in fr.items() if w != (0, 0)) == [1] * 6


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        weyl_character(rs("A", 2), (1, -1))
    with pytest.raises(ValueError):
        weyl_dimension(rs("A", 2), (-1, 0))


def test_weyl_dimension_values():
    assert weyl_dimension(rs("A", 2), (0, 0)) == 1
    assert weyl_dimension(rs("A", 2), (1, 0)) == 3
    # 2^(number of positive roots) at the Weyl vector
    assert weyl_dimension(rs("B", 2), (1, 1)) == 16
    assert character_dimension(weyl_character(rs("B", 2), (1, 1))) == 16


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_character_sum_equals_dimension(family, rank):
    r = rs(family, rank)
    for lam in itertools.product((0, 1, 2), repeat=rank):
        if weyl_dimension(r, lam) > 200:
            continue
        assert character_dimension(weyl_character(r, lam)) == weyl_dimension(r, lam)


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (2, 1)), ("B", 2, (1, 1)), ("C", 2, (2, 0)), ("D", 3, (1, 0, 1)),
])
def test_character_weyl_invariance(family, rank, lam):
    r = rs(family, rank)
    chi = weyl_character(r, lam)
    for k in range(1, rank + 1):
        reflected = {reflect(r, w, k): c for w, c in chi.terms.items()}
        assert reflected == chi.terms


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_root_string_division_matches_heap_division(family, rank):
    # random exact products g * (1 - x^-alpha) over every positive root,
    # divided back by the leading-term division: g returns with no remainder
    r = rs(family, rank)
    rng = random.Random(f"{family}{rank}")
    zero = (0,) * rank
    for alpha in r.positive_roots:
        minus = tuple(-a for a in alpha)
        for _ in range(6):
            g = {tuple(rng.randrange(-3, 4) for _ in range(rank)): rng.choice((-2, -1, 1, 3))
                 for _ in range(rng.randrange(1, 12))}
            f = dict(g)
            for w, c in g.items():
                low = tuple(a + b for a, b in zip(w, minus))
                f[low] = f.get(low, 0) - c
            f = {w: {0: c} for w, c in f.items() if c}
            quot, rem = divide_terms(r.height_vec, f, {zero: {0: 1}, minus: {0: -1}})
            assert not rem
            assert quot == {w: {0: c} for w, c in g.items()}


def test_root_string_division_rejects_inexact_table():
    # tables that (1 - x^-alpha) does not divide leave a nonzero remainder
    r = rs("A", 2)
    alpha = r.positive_roots[0]
    factor = {(0, 0): {0: 1}, tuple(-a for a in alpha): {0: -1}}  # 1 - x^-alpha
    assert divide_terms(r.height_vec, factor, factor) == ({(0, 0): {0: 1}}, {})
    for table in ({(0, 0): {0: 1}}, {**factor, (3, 1): {0: 2}}):
        assert divide_terms(r.height_vec, table, factor)[1]


def test_division_stops_at_once_outside_the_box():
    # a single term over a two-term divisor: the Newton box of an exact
    # quotient is empty, so the first popped key stops the division
    r = rs("A", 2)
    factor = {(0, 0): {0: 1}, (-1, 2): {0: -1}}
    for w in [(0, 0), (5, -7), (-10**6, 10**6)]:
        assert divide_terms(r.height_vec, {w: {0: 3}}, factor) == ({}, {w: {0: 3}})
    # a stray term below an exact product is popped last, its quotient key
    # leaves the box, and it alone stays in the remainder
    numer = {(0, 0): {0: 1}, (-1, 2): {0: -1}, (-9, 1): {0: 4}}
    assert divide_terms(r.height_vec, numer, factor) == ({(0, 0): {0: 1}}, {(-9, 1): {0: 4}})


def test_division_rejects_a_non_unit_leading_coefficient():
    r = rs("A", 2)
    with pytest.raises(ValueError):
        divide_terms(r.height_vec, {(0, 0): {0: 4}}, {(0, 0): {0: 2}, (-2, 1): {0: 1}})
    one, two, q = CoeffElement.one(), CoeffElement.from_int(2), CoeffElement.q_power(1)
    g = CoeffElement.symbol(GaussSymbol(1, 1, 2))
    numer = WeightPolynomial(r.height_vec, {(0, 0): one})
    for lead in (two, q + one, g, -g):
        divisor = WeightPolynomial(r.height_vec, {(0, 0): lead, (-2, 1): one})
        with pytest.raises(ValueError):
            numer.divide(divisor)
    with pytest.raises(ZeroDivisionError):
        numer.divide(WeightPolynomial(r.height_vec, {}))


_SYMBOLS = [GaussSymbol(t, c, d) for d in (2, 3) for t in (1, 2) for c in range(d)]


def _random_coeff(rng: random.Random) -> CoeffElement:
    """A sum of monomials with negative and positive q exponents and up to
    three symbols of degree 2 and 3 to powers 1..3."""
    return CoeffElement({
        (rng.randrange(-6, 4), tuple((s, rng.randrange(1, 4))
                                     for s in rng.sample(_SYMBOLS, rng.randrange(4)))):
            rng.choice((-3, -1, 1, 2))
        for _ in range(rng.randrange(1, 4))})


def _random_poly(rng: random.Random, r, size: int, near: int) -> WeightPolynomial:
    """Weights within 3 of a corner in {-near, 0, near}^rank."""
    corners = [tuple(rng.choice((-near, 0, near)) for _ in range(r.rank)) for _ in range(2)]
    return WeightPolynomial(r.height_vec, {
        tuple(c + rng.randrange(-3, 4) for c in rng.choice(corners)): _random_coeff(rng)
        for _ in range(size)})


def _plus(a: WeightPolynomial, b: WeightPolynomial) -> WeightPolynomial:
    terms = dict(a.terms)
    for w, c in b.terms.items():
        terms[w] = terms[w] + c if w in terms else c
    return WeightPolynomial(a.height_vec, terms)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("D", 4)])
def test_symbolic_division_round_trips_exact_products(family, rank):
    # N = g * d for random symbolic g and d, d led by a unit +-q^e; the
    # quotient is g again, and Q * D == N through the term-by-term product.
    # Coordinates reach 10^6 from both sides, so the packed fields are wide.
    r = rs(family, rank)
    rng = random.Random(f"divide {family}{rank}")
    for trial in range(8):
        near = rng.choice((0, 10**6))
        g = _random_poly(rng, r, rng.randrange(1, 8), near)
        d = _random_poly(rng, r, rng.randrange(2, 6), near)
        if len(d) < 2:
            continue
        lead = d.leading()[0]
        d = WeightPolynomial(r.height_vec, {**d.terms, lead: CoeffElement.q_power(
            rng.randrange(-5, 5), rng.choice((1, -1)))})
        numer = g * d
        quot, rem = numer.divide(d)
        assert rem.is_zero(), trial
        assert quot == g, trial
        assert quot * d == numer, trial
        # a perturbed numerator leaves a nonzero remainder, and still
        # N == Q * D + R
        w = rng.choice(list(numer.terms))
        bumped = WeightPolynomial(r.height_vec, {**numer.terms,
                                                 w: numer.terms[w] + _random_coeff(rng)})
        if bumped == numer:
            continue
        quot, rem = bumped.divide(d)
        assert not rem.is_zero(), trial
        assert _plus(quot * d, rem) == bumped, trial


def _flat(table: dict) -> dict:
    """The reference division's form of a weight -> packed monomial dict
    table: one (weight + (monomial key,)) -> int entry per monomial."""
    return {w + (k,): c for w, t in table.items() for k, c in t.items()}


def _packed(poly: WeightPolynomial) -> dict:
    return {w: dict(c.packed()) for w, c in poly.terms.items()}


def _assert_divides_like_the_reference(height_vec, numer: dict, denom: dict):
    quot, rem = divide_terms(height_vec, numer, denom)
    assert all(t and 0 not in t.values() for t in (*quot.values(), *rem.values()))
    assert (_flat(quot), _flat(rem)) == reference_divide_terms(height_vec, _flat(numer),
                                                               _flat(denom))


def test_division_matches_the_reference_division():
    # the division that packs each weight once and the tuple-keyed one of
    # ``oracles`` give the same quotient and remainder on exact and
    # perturbed products, on plain integer tables, and on symbolic
    # coefficients of degree 2 and 3 with coordinates near 0 and +-10^6; a
    # divisor whose leading weight holds more monomials than the unit
    # leading one, both refuse
    rng = random.Random("reference division")
    for family, rank in [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        r = rs(family, rank)
        h = r.height_vec
        for trial in range(10):
            near = rng.choice((0, 10**6, -10**6))
            g = _random_poly(rng, r, rng.randrange(1, 8), near)
            d = _packed(_random_poly(rng, r, rng.randrange(1, 6), near))
            if trial % 2:  # plain integers: one monomial, key 0, per weight
                g = WeightPolynomial(h, {w: CoeffElement.from_int(c.monomials()[0][0])
                                         for w, c in g.terms.items()})
                d = {w: {0: t[max(t)]} for w, t in d.items()}
            lead = max(d, key=lambda w: (sum(map(mul, h, w)), w))
            d[lead][max(d[lead])] = rng.choice((1, -1))
            numer = g * WeightPolynomial(h, {w: CoeffElement.from_packed(dict(t))
                                             for w, t in d.items()})
            if len(d[lead]) > 1:
                _assert_both_refuse(h, _packed(numer), d)
                continue
            bumped = _plus(numer, WeightPolynomial(h, {rng.choice(list(g.terms)):
                                                       _random_coeff(rng)}))
            for table in (numer, bumped, g):
                _assert_divides_like_the_reference(h, _packed(table), d)
    # the stop-at-once cases: an empty quotient box, and a stray term below
    # an exact product
    h = rs("A", 2).height_vec
    factor = {(0, 0): {0: 1}, (-1, 2): {0: -1}}
    for w in [(0, 0), (5, -7), (-10**6, 10**6)]:
        _assert_divides_like_the_reference(h, {w: {0: 3}}, factor)
    _assert_divides_like_the_reference(
        h, {(0, 0): {0: 1}, (-1, 2): {0: -1}, (-9, 1): {0: 4}}, factor)


def _assert_both_refuse(height_vec, numer: dict, denom: dict):
    with pytest.raises(ValueError, match="leading weight"):
        divide_terms(height_vec, numer, denom)
    with pytest.raises(ValueError, match="leading weight"):
        reference_divide_terms(height_vec, _flat(numer), _flat(denom))


def test_division_refuses_a_leading_weight_of_several_monomials():
    # the divisor's one weight holds g_1(1) and q^-1 g_1(1), each of
    # coefficient 1; a check of the leading monomial's coefficient alone
    # lets it through, and dividing 1 + g_1(1)^2 by it then runs on without
    # end
    kg, = CoeffElement.symbol(GaussSymbol(1, 1, 2)).packed()
    _assert_both_refuse((1, 1), {(1, 0): {0: 1, 2 * kg: 1}}, {(1, 0): {kg: 1, kg - 1: 1}})


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_demazure_operator_is_idempotent(family, rank):
    # D_k o D_k = D_k on random integer tables, for every simple root,
    # compared without the zeros that D_k leaves where terms cancel.  The
    # tables' coordinates stay within 4 + 4 * 2 = 12 = 2 * sum(lam), inside
    # the codec's bound.
    def nonzero(table):
        return {w: c for w, c in table.items() if c}

    r = rs(family, rank)
    codec = weight_codec((6,) + (0,) * (rank - 1), r.cartan)
    rng = random.Random(f"demazure-{family}{rank}")
    for k in range(1, rank + 1):
        for _ in range(5):
            table = {codec.pack([rng.randrange(-4, 5) for _ in range(rank)]):
                     rng.choice((-2, -1, 1, 3))
                     for _ in range(rng.randrange(1, 10))}
            once = nonzero(_demazure(codec, table, k))
            assert nonzero(_demazure(codec, once, k)) == once


def test_dominance_predicates():
    assert is_dominant((0, 2)) and not is_strongly_dominant((0, 2))
    assert is_strongly_dominant((1, 1)) and not is_dominant((-1, 2))
