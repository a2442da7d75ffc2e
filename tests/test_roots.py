import itertools
import random
from operator import mul

import pytest

from crystalmds import (CartanSpec, CoeffElement, GaussSymbol, LittelmannPattern,
                        WeightPolynomial, build_root_system, character_dimension,
                        is_dominant, is_strongly_dominant, nice_long_word,
                        weyl_character, weyl_dimension)
from crystalmds.roots import _MIN_RANK, MAX_RANK, _cartan_inverse, _demazure, packed_character
from crystalmds.weightpoly import poly_from_packed, weight_codec
from oracles import (ModelRootSystem, demazure_by_terms, element, freudenthal_multiplicities,
                     invert_fraction_matrix, poly_product, reflect, rho)
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
     "pattern entry must be an integer, got 1.0"),
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
        assert [list(row) for row in _cartan_inverse(CartanSpec(family, rank))] == want, rank


@pytest.mark.parametrize("family", "ABCD")
def test_coroots_heights_and_dimensions_match_the_model(family):
    # the coroot 2b/(b, b) of each model root b, in simple-coroot coordinates
    # c, from its pairings p_j = <alpha_j, b^vee> = sum_i c_i A[i][j]
    for rank in range(_MIN_RANK[family], 9):
        model, r = ModelRootSystem(family, rank), rs(family, rank)
        ainv = invert_fraction_matrix(model.cartan_matrix())
        want = set()
        for b in model.positive:
            norm = sum(map(mul, b, b))
            p = [2 * sum(map(mul, b, a)) / norm for a in model.simple]
            c = [sum(p[j] * ainv[j][i] for j in range(rank)) for i in range(rank)]
            assert all(x.denominator == 1 for x in c)
            want.add(tuple(int(x) for x in c))
        assert len(r.positive_coroots) == len(want) and set(r.positive_coroots) == want
        # positive_coroots[j] belongs to positive_roots[j]: <b, b^vee> = 2
        for b, coroot in zip(r.positive_roots, r.positive_coroots):
            assert sum(map(mul, b, coroot)) == 2
        if family in "BC":
            dual = rs("C" if family == "B" else "B", rank)
            assert set(r.positive_coroots) == set(dual.positive_roots_root_coords)
        # h_i = <omega_i, 2 rho^vee>, rho^vee = sum_j 2 omega_j / (alpha_j, alpha_j)
        gram = model.gram()
        half_norms = [sum(map(mul, a, a)) / 2 for a in model.simple]
        rho_vee = [sum(gram[i][j] / half_norms[j] for j in range(rank)) for i in range(rank)]
        assert all(h > 0 for h in r.height_vec)
        assert [2 * x for x in rho_vee] == list(r.height_vec), rank


@pytest.mark.parametrize("family", "ABCD")
def test_height_vec_pairs_every_simple_root_to_two(family):
    # h . alpha_k = <alpha_k, 2 rho^vee> = 2, the unit in which the Tokuyama
    # check reads a drop's height; alpha_k is column k of the Cartan matrix
    for rank in range(_MIN_RANK[family], 9):
        r = rs(family, rank)
        assert [sum(map(mul, r.height_vec, alpha)) for alpha in zip(*r.cartan)] == [2] * rank


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (2, 1)), ("A", 3, (1, 1, 1)), ("A", 4, (1, 0, 0, 1)),
    ("B", 2, (2, 1)), ("B", 3, (1, 0, 1)), ("B", 4, (1, 0, 0, 0)),
    ("C", 2, (1, 2)), ("C", 3, (0, 1, 1)), ("C", 4, (0, 0, 0, 1)),
    ("D", 3, (1, 1, 0)), ("D", 4, (1, 0, 0, 1)), ("D", 5, (1, 0, 0, 0, 0)),
    ("A", 5, (0, 0, 1, 0, 0)),
])
def test_weyl_dimension_is_the_freudenthal_sum(family, rank, lam):
    dim = weyl_dimension(rs(family, rank), lam)
    assert type(dim) is int
    assert dim == sum(freudenthal_multiplicities(family, rank, lam).values())


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
    assert len(chi) == 1 and chi.coeff((0, 0)) == CoeffElement.one()


def test_character_a1_string():
    chi = weyl_character(rs("A", 1), (2,))
    assert {w: c.monomials()[0][0] for w, c in chi.terms.items()} == {
        (2,): 1, (0,): 1, (-2,): 1}


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (1, 1)), ("A", 1, (3,)), ("B", 2, (1, 1)), ("B", 2, (0, 1)),
    ("C", 2, (1, 0)), ("D", 3, (0, 0, 1)), ("A", 3, (1, 0, 1)),
    ("D", 5, (1, 0, 0, 0, 0)), ("A", 5, (0, 0, 1, 0, 0)), ("D", 4, (1, 0, 0, 1)),
    # alpha-strings of up to 22 points (14 in B2 and C2), many terms on each
    ("A", 2, (12, 9)), ("B", 2, (5, 4)), ("C", 2, (4, 5)),
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
    # alpha-strings of up to 801 points: writing each term's whole interval
    # of its string takes about 17 s (2 vCPUs), one pass per string 0.4 s
    r = rs("A", 2)
    assert character_dimension(weyl_character(r, (400, 400))) == weyl_dimension(r, (400, 400))


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


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 3, (2, 1, 2)), ("B", 3, (2, 1, 1)), ("C", 3, (1, 2, 1)), ("D", 4, (1, 2, 1, 1)),
])
def test_packed_character_on_a_wider_codec(family, rank, lam):
    # the table of a dominant mu <= lam on lam's codec is zero-free and, kept
    # as a polynomial, is mu's character: mu runs over lam - rho and the
    # dominant weights of V(lam), the dominant mu <= lam of lam's coset
    r = rs(family, rank)
    codec = weight_codec(lam, r.cartan)
    mus = {tuple(c - 1 for c in lam)} | {w for w in weyl_character(r, lam).terms
                                         if is_dominant(w)}
    assert len(mus) > 2
    for mu in mus:
        table = packed_character(r, mu, codec)
        assert table and 0 not in table.values()
        assert poly_from_packed(r.height_vec, codec, table) == weyl_character(r, mu)


def _ints(r, table: dict) -> WeightPolynomial:
    return WeightPolynomial(r.height_vec, {w: CoeffElement.from_int(c) for w, c in table.items()})


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
            quot, rem = _ints(r, f).divide(_ints(r, {zero: 1, minus: -1}))
            assert rem.is_zero()
            assert quot == _ints(r, g)


def test_root_string_division_rejects_inexact_table():
    # tables that (1 - x^-alpha) does not divide leave a nonzero remainder
    r = rs("A", 2)
    minus = tuple(-a for a in r.positive_roots[0])
    factor = _ints(r, {(0, 0): 1, minus: -1})  # 1 - x^-alpha
    quot, rem = factor.divide(factor)
    assert quot == _ints(r, {(0, 0): 1}) and rem.is_zero()
    for table in ({(0, 0): 1}, {(0, 0): 1, minus: -1, (3, 1): 2}):
        assert not _ints(r, table).divide(factor)[1].is_zero()


def test_division_stops_at_once_outside_the_box():
    # a single term over a two-term divisor: the Newton box of an exact
    # quotient is empty, so the first leading weight stops the division
    r = rs("A", 2)
    factor = _ints(r, {(0, 0): 1, (-1, 2): -1})
    for w in [(0, 0), (5, -7), (-10**6, 10**6)]:
        quot, rem = _ints(r, {w: 3}).divide(factor)
        assert quot.is_zero() and rem == _ints(r, {w: 3})
    # a stray term below an exact product is taken last, its quotient
    # weight leaves the box, and it alone stays in the remainder
    quot, rem = _ints(r, {(0, 0): 1, (-1, 2): -1, (-9, 1): 4}).divide(factor)
    assert quot == _ints(r, {(0, 0): 1}) and rem == _ints(r, {(-9, 1): 4})


def test_division_rejects_a_non_unit_leading_coefficient():
    r = rs("A", 2)
    one, two, q = CoeffElement.one(), CoeffElement.from_int(2), CoeffElement.q_power(1)
    g = CoeffElement.symbol(GaussSymbol(1, 1, 2))
    numer = WeightPolynomial(r.height_vec, {(0, 0): one})
    for lead in (two, q + one, g, -g, two * q, q * g):
        divisor = WeightPolynomial(r.height_vec, {(0, 0): lead, (-2, 1): one})
        with pytest.raises(ValueError):
            numer.divide(divisor)
    # a unit lead +-q^e divides exactly, whatever the sign of e
    quot = WeightPolynomial(r.height_vec, {(1, 0): g, (0, 0): two, (-1, 1): q})
    for lead in (CoeffElement.q_power(3, -1), CoeffElement.q_power(-2)):
        divisor = WeightPolynomial(r.height_vec, {(0, 0): lead, (-2, 1): one + g})
        assert (poly_product(quot, divisor).divide(divisor)
                == (quot, WeightPolynomial(r.height_vec)))
    with pytest.raises(ZeroDivisionError):
        numer.divide(WeightPolynomial(r.height_vec, {}))


_SYMBOLS = [GaussSymbol(t, c, d) for d in (2, 3) for t in (1, 2) for c in range(d)]


def _random_coeff(rng: random.Random) -> CoeffElement:
    """A sum of monomials with negative and positive q exponents and up to
    three symbols of degree 2 and 3 to powers 1..3."""
    return element({
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
    # quotient is g again, and Q * D == N through the term-by-term product
    # (``oracles.poly_product``).
    # Coordinates reach 10^6 from both sides, so the packed fields are wide.
    r = rs(family, rank)
    rng = random.Random(f"divide {family}{rank}")
    for trial in range(8):
        near = rng.choice((0, 10**6))
        g = _random_poly(rng, r, rng.randrange(1, 8), near)
        d = _random_poly(rng, r, rng.randrange(2, 6), near)
        if len(d) < 2:
            continue
        lead = d.sorted_weights()[0]
        d = WeightPolynomial(r.height_vec, {**d.terms, lead: CoeffElement.q_power(
            rng.randrange(-5, 5), rng.choice((1, -1)))})
        numer = poly_product(g, d)
        quot, rem = numer.divide(d)
        assert rem.is_zero(), trial
        assert quot == g, trial
        assert poly_product(quot, d) == numer, trial
        # a perturbed numerator leaves a nonzero remainder, and still
        # N == Q * D + R
        w = rng.choice(list(numer.terms))
        bumped = WeightPolynomial(r.height_vec, {**numer.terms,
                                                 w: numer.terms[w] + _random_coeff(rng)})
        if bumped == numer:
            continue
        quot, rem = bumped.divide(d)
        assert not rem.is_zero(), trial
        assert _plus(poly_product(quot, d), rem) == bumped, trial


def _flat(table: dict) -> dict:
    """The reference division's form of a weight -> packed monomial dict
    table: one (weight + (monomial key,)) -> int entry per monomial."""
    return {w + (k,): c for w, t in table.items() for k, c in t.items()}


def _packed(poly: WeightPolynomial) -> dict:
    return {w: dict(c.packed()) for w, c in poly.terms.items()}


def _poly(height_vec, table: dict) -> WeightPolynomial:
    return WeightPolynomial(height_vec, {w: CoeffElement.from_packed(dict(t))
                                         for w, t in table.items()})


def _assert_divides_like_the_reference(height_vec, numer: dict, denom: dict):
    quot, rem = _poly(height_vec, numer).divide(_poly(height_vec, denom))
    assert (_flat(_packed(quot)), _flat(_packed(rem))) == reference_divide_terms(
        height_vec, _flat(numer), _flat(denom))


def test_division_matches_the_reference_division():
    # ``WeightPolynomial.divide`` and the term-level division of ``oracles``
    # give the same quotient and remainder on exact products with symbolic
    # coefficients of degree 2 and 3, and on plain integer tables, exact,
    # perturbed or not divisible, with coordinates near 0 and +-10^6; a
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
            # a unit +-q^e leads d, alone or, every third trial, beside the
            # leading weight's own monomials
            lead = max(d, key=lambda w: (sum(map(mul, h, w)), w))
            unit = {rng.randrange(-5, 5) if trial % 2 == 0 else 0: rng.choice((1, -1))}
            d[lead] = {**d[lead], **unit} if trial % 3 == 0 else unit
            numer = poly_product(g, _poly(h, d))
            if len(d[lead]) > 1:
                _assert_both_refuse(h, _packed(numer), d)
                continue
            bumped = _plus(numer, WeightPolynomial(h, {rng.choice(list(g.terms)):
                                                       _random_coeff(rng)}))
            # the weight-level elimination and the reference's term-level one
            # agree on exact products, and on integer tables whatever the
            # remainder
            for table in (numer, bumped, g) if trial % 2 else (numer,):
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
    with pytest.raises(ValueError, match="unit monomial"):
        _poly(height_vec, numer).divide(_poly(height_vec, denom))
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
    # D_k o D_k = D_k on random integer tables, for every simple root.  The
    # tables' coordinates stay within 4 + 4 * 2 = 12 = 2 * sum(lam), inside
    # the codec's bound.
    r = rs(family, rank)
    codec = weight_codec((6,) + (0,) * (rank - 1), r.cartan)
    rng = random.Random(f"demazure-{family}{rank}")
    for k in range(1, rank + 1):
        for _ in range(5):
            table = {codec.pack([rng.randrange(-4, 5) for _ in range(rank)]):
                     rng.choice((-2, -1, 1, 3))
                     for _ in range(rng.randrange(1, 10))}
            once = _demazure(codec, table, k)
            assert _demazure(codec, once, k) == once


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_demazure_matches_the_per_term_operator(family, rank):
    # Random tables of a few alpha_k-strings each, for every k: several terms
    # on one string, at pairings of every sign from -19 to 17, so -1 and long
    # strings, and terms whose images cancel, wholly (x^mu beside
    # x^(mu - (m + 1) alpha_k), whose image is the opposite) or on the inner
    # levels (x^mu beside -x^(mu -+ alpha_k), one step nearer the centre).
    # The one pass per string equals the per-term operator with its zeros
    # dropped, and keeps no zero itself.  Every point lies on a string through
    # a base point of coordinates within 5, at most 12 steps from it, so
    # within 5 + 2 * 12 = 29 < 4 * 20, inside the codec's fields.
    def nonzero(table):
        return {w: c for w, c in table.items() if c}

    r = rs(family, rank)
    codec = weight_codec((20,) + (0,) * (rank - 1), r.cartan)
    rng = random.Random(f"demazure-strings-{family}{rank}")
    cancelled = 0
    for k in range(1, rank + 1):
        alpha = codec.roots[k - 1]
        for _ in range(40):
            table = {}
            for _ in range(rng.randrange(1, 5)):
                base = codec.pack([rng.randrange(-5, 6) for _ in range(rank)])
                string = [base + j * alpha for j in rng.sample(range(-6, 7), rng.randrange(1, 6))]
                for mu in string:
                    table[mu] = rng.choice((-3, -1, 1, 2, 5))
                mu = rng.choice(string)
                m = codec.decode(mu)[k - 1]
                if rng.random() < 0.5:
                    table[mu - (m + 1) * alpha] = table[mu]
                elif m >= 1 or m <= -3:
                    table[mu - alpha if m > 0 else mu + alpha] = -table[mu]
            reference = demazure_by_terms(codec, table, k)
            out = _demazure(codec, table, k)
            assert out == nonzero(reference)
            assert 0 not in out.values()
            cancelled += len(reference) > len(out)
    assert cancelled > 20 * rank


def test_dominance_predicates():
    assert is_dominant((0, 2)) and not is_strongly_dominant((0, 2))
    assert is_strongly_dominant((1, 1)) and not is_dominant((-1, 2))
