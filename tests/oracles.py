"""Independent oracles for the test suite.

Everything here is derived from classical coordinate models of the root
systems (unit-vector realizations), not from the package's hard-coded Cartan
data, so agreement is a genuine cross-check.  The greedy bound reconstructs
polytope membership straight from the long word and the Cartan pairings.
The full-denominator character is the Weyl character formula itself, an
alternating orbit sum divided by the Weyl denominator, as a reference for the
package's Demazure-operator character; it divides with ``divide_terms``, the
tuple-keyed, one-int-per-term division that is also the reference for
``WeightPolynomial.divide``.  ``deformed_denominator`` expands Tokuyama's
deformed Weyl denominator from the model's positive roots, as a reference
for the quotient of ``series.tokuyama_quotient``, and ``twisted_character``
the q-twisted character that it multiplies, through ``poly_product``, the
term-by-term product of two weight polynomials.  ``b_rho_n2_form`` expands
the type-B product at cover degree 2 that P of rho is measured against,
long and short roots apart, in the Gauss normal form.
``demazure_by_terms`` is the Demazure operator that writes each term's
whole interval of its alpha-string, as the reference for
``roots._demazure``'s one pass per string.
``polynomial_json_obj`` and ``coeff_text`` render a polynomial's JSON object
and an element's text from the decoded terms, as references for the
renderers that read packed values.  ``element`` builds a ring element from
its canonical terms by multiplying the package's public constructors.

The pattern bounds are written out here from their definitions, apart from
the package's slot walk: ``chain_lower_bound`` from each family's row-chain
inequalities and ``greedy_bound`` from the long word, so the walk's masks and
its membership verdicts can be checked against them.

``gauss_normal_form`` brings a coefficient to the normal form of the Gauss
relations, read off its ``monomials()`` alone, and ``first_mixed_weight``
finds the first weight of a polynomial with more than one Gauss part there.
``GaussInts`` is that normal form as a ring, one int per Gauss key at
sqrt(q) = 2^B, and ``gauss_ints_map`` maps a slot factor into it, so the
package's row loop can run on it.

``levi_multiplicities`` splits a character into the characters of the Levi
on nodes 1..r-1, from the characters alone.

``from_text``, the parser of pattern text, is built on the package: it reads
``LittelmannPattern.to_text`` back.  So are the Demazure prefixes, which set
two parts of the package against each other: ``prefix_weights`` counts the
enumerated patterns that use only the first k letters of the long word, by
``word_positions``, and ``demazure_product`` applies ``roots._demazure``
along a word.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations
from math import lcm
from operator import add, mul, sub

from crystalmds import (CartanSpec, CoeffElement, GaussSymbol, LittelmannPattern,
                        WeightPolynomial, enumerate_patterns, pattern_wt, weyl_character)
from crystalmds.coefficients import kronecker_encode
from crystalmds.roots import _demazure, long_word_blocks
from crystalmds.weightpoly import WeightCodec, weight_codec


def from_text(spec: CartanSpec, text: str) -> "LittelmannPattern":
    rows = tuple(tuple(int(v) for v in part.split(",")) for part in text.strip().split(";"))
    return LittelmannPattern(spec, rows)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class ModelRootSystem:
    """Unit-vector realization with the mirror (fork-ends-first) numbering."""

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        dim = rank + 1 if family == "A" else rank
        e = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]

        def chain(k):  # e_{r+1-k} - e_{r+2-k}, 1-based
            v = [Fraction(0)] * dim
            v[rank - k] = Fraction(1)
            v[rank - k + 1] = Fraction(-1)
            return v

        if family == "A":
            simple = [chain(k) for k in range(1, rank + 1)]
            positive = [[a - b for a, b in zip(e[i], e[j])]
                        for i in range(dim) for j in range(i + 1, dim)]
        elif family in ("B", "C"):
            first = list(e[rank - 1])
            if family == "C":
                first = [2 * x for x in first]
            simple = [first] + [
                [a - b for a, b in zip(e[rank - k], e[rank - k + 1])]
                for k in range(2, rank + 1)]
            positive = []
            for i in range(rank):
                positive.append(list(e[i]) if family == "B" else [2 * x for x in e[i]])
                for j in range(i + 1, rank):
                    positive.append([a - b for a, b in zip(e[i], e[j])])
                    positive.append([a + b for a, b in zip(e[i], e[j])])
        else:
            simple = [[a + b for a, b in zip(e[rank - 2], e[rank - 1])],
                      [a - b for a, b in zip(e[rank - 2], e[rank - 1])]] + [
                [a - b for a, b in zip(e[rank - k], e[rank - k + 1])]
                for k in range(3, rank + 1)]
            positive = []
            for i, j in combinations(range(rank), 2):
                positive.append([a - b for a, b in zip(e[i], e[j])])
                positive.append([a + b for a, b in zip(e[i], e[j])])
        self.simple = simple
        self.positive = positive

    def pairing(self, v, k: int) -> Fraction:
        """<v, alpha_k^vee> for a vector in the ambient coordinates."""
        a = self.simple[k - 1]
        return 2 * _dot(v, a) / _dot(a, a)

    def weight_coords(self, v) -> tuple:
        return tuple(self.pairing(v, k) for k in range(1, self.rank + 1))

    def positive_roots_weight_coords(self) -> set[tuple[int, ...]]:
        out = set()
        for beta in self.positive:
            coords = self.weight_coords(beta)
            assert all(c.denominator == 1 for c in coords)
            out.add(tuple(int(c) for c in coords))
        return out

    def cartan_matrix(self) -> list[list[int]]:
        return [[int(self.pairing(self.simple[j - 1], i))
                 for j in range(1, self.rank + 1)]
                for i in range(1, self.rank + 1)]

    def gram(self) -> list[list[Fraction]]:
        """Inner products of the fundamental weights, from the model."""
        a = self.cartan_matrix()
        ainv = invert_fraction_matrix(a)
        half_norms = [_dot(s, s) / 2 for s in self.simple]
        r = self.rank
        return [[ainv[i][j] * half_norms[i] for j in range(r)] for i in range(r)]


def invert_fraction_matrix(mat):
    """Exact inverse by Fraction Gauss-Jordan elimination (the reference for
    the inverse Cartan matrix of ``roots``)."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        s = aug[col][col]
        aug[col] = [x / s for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def freudenthal_multiplicities(family: str, rank: int,
                               lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the highest-weight module by the Freudenthal
    recursion, entirely from the coordinate model.  The recursion runs in
    integers: the model's Gram matrix is scaled by the lcm of its
    denominators, which leaves each multiplicity, a ratio of two inner
    products, unchanged."""
    model = ModelRootSystem(family, rank)
    cartan = model.cartan_matrix()
    gram = model.gram()
    scale = lcm(*(x.denominator for row in gram for x in row))
    gram = [[int(x * scale) for x in row] for row in gram]
    r = rank

    def ip(u, v) -> int:
        return sum(u[i] * gram[i][j] * v[j] for i in range(r) for j in range(r))

    def sub_alpha(w, k):  # w - alpha_k in weight coords
        return tuple(w[i] - cartan[i][k] for i in range(r))

    pos_roots = sorted(model.positive_roots_weight_coords())
    rho = (1,) * r
    lam_rho = tuple(c + 1 for c in lam)
    cas = ip(lam_rho, lam_rho)

    # depth cap: height of lam minus its lowest weight
    low = list(lam)
    while any(c > 0 for c in low):  # lowest weight = image under the long element
        for i, c in enumerate(low):
            if c > 0:
                low = [low[j] - c * cartan[j][i] for j in range(r)]
                break
    ainv = invert_fraction_matrix(cartan)
    diff = [lam[i] - low[i] for i in range(r)]
    depth_cap = sum(sum(ainv[k][i] * diff[i] for i in range(r)) for k in range(r))
    assert depth_cap.denominator == 1
    depth_cap = int(depth_cap)

    mults: dict[tuple[int, ...], int] = {tuple(lam): 1}
    level = {tuple(lam)}
    for _ in range(depth_cap):
        nxt = set()
        for w in level:
            for k in range(r):
                nxt.add(sub_alpha(w, k))
        level = nxt
        for mu in sorted(level):
            mu_rho = tuple(c + 1 for c in mu)
            denom = cas - ip(mu_rho, mu_rho)
            if denom == 0:
                continue
            total = 0
            for beta in pos_roots:
                for k in range(1, depth_cap + 1):
                    up = tuple(mu[i] + k * beta[i] for i in range(r))
                    m_up = mults.get(up, 0)
                    if m_up:
                        total += m_up * ip(up, beta)
            m, rem = divmod(2 * total, denom)
            assert rem == 0, f"Freudenthal ratio at {mu} is not an integer"
            if m:
                mults[mu] = m
        # only weights go to the next depth: every weight mu != lam of the
        # module has a simple root alpha with mu + alpha a weight
        level = [mu for mu in level if mu in mults]
    return mults


# ---------------------------------------------------------------------------
# Adaptive-string membership bound
# ---------------------------------------------------------------------------

def long_word(family: str, rank: int) -> list[int]:
    letters: list[int] = []
    if family == "A":
        for k in range(1, rank + 1):
            letters += list(range(k, 0, -1))
    elif family in ("B", "C"):
        letters += [1]
        for k in range(2, rank + 1):
            letters += list(range(k, 0, -1)) + list(range(2, k + 1))
    else:
        letters += [1, 2]
        for k in range(3, rank + 1):
            letters += list(range(k, 2, -1)) + [1, 2] + list(range(3, k + 1))
    return letters


def _row_spans(family: str, rank: int) -> dict[int, tuple[int, int]]:
    """Row index -> (first, last) flat column of that row."""
    if family == "A":
        return {i: (i, rank) for i in range(1, rank + 1)}
    if family in ("B", "C"):
        return {i: (i, 2 * rank - i) for i in range(1, rank + 1)}
    return {i: (i, 2 * rank - 1 - i) for i in range(1, rank)}


def string_fill_slots(family: str, rank: int) -> list[tuple[int, int]]:
    """Slots in path order: bottom row first, left to right."""
    spans = _row_spans(family, rank)
    return [(i, j) for i in sorted(spans, reverse=True)
            for j in range(spans[i][0], spans[i][1] + 1)]


@lru_cache(maxsize=None)
def _string_data(family: str, rank: int):
    """Cartan matrix, long-word letters and slot -> path index, per type."""
    slots = tuple(string_fill_slots(family, rank))
    cartan = ModelRootSystem(family, rank).cartan_matrix()
    return (tuple(map(tuple, cartan)), tuple(long_word(family, rank)),
            slots, {slot: h for h, slot in enumerate(slots)})


def greedy_bound(family: str, rank: int, rows, lam: tuple[int, ...],
                 pos: tuple[int, int]) -> int:
    """Upper bound on the entry at ``pos``: the pairing of the head letter
    against the weight left after unwinding all later path segments."""
    cartan, letters, slots, index = _string_data(family, rank)
    h = index[pos]
    c = letters[h]
    bound = lam[c - 1]
    for k in range(h + 1, len(slots)):
        i, j = slots[k]
        bound -= rows[i - 1][j - i] * cartan[c - 1][letters[k] - 1]
    return bound


def chain_lower_bound(family: str, rank: int, rows,
                      pos: tuple[int, int]) -> int | Fraction:
    """Lower bound on the entry at ``pos`` from the chain inequalities of its
    row, entries past the row end reading 0.  In types A and C a row weakly
    decreases.  In type B the middle column r enters doubled:
    a(r-1) >= a(r)/2 and a(r) >= 2 a(r+1), so the bound can be a half.  In
    type D the central pair r-1, r is incomparable: a(r-2) >= both and each
    is >= a(r+1)."""
    i, j = pos
    first, last = _row_spans(family, rank)[i]
    if not first <= j <= last:
        raise ValueError(f"column {j} is outside row {i}")
    r = rank

    def a(col):
        return rows[i - 1][col - first] if col <= last else 0

    if family == "B" and j == r - 1:
        return Fraction(a(r), 2)
    if family == "B" and j == r:
        return 2 * a(r + 1)
    if family == "D" and j == r - 2:
        return max(a(r - 1), a(r))
    if family == "D" and j == r - 1:
        return a(r + 1)
    return a(j + 1)


def oracle_masks(family: str, rank: int, rows, lam: tuple[int, ...]):
    """``(member, circled, boxed)``: whether every entry lies between its
    chain and greedy bounds, and which entries meet each bound."""
    member, circled, boxed = True, [], []
    for i, row in enumerate(rows, start=1):
        crow, brow = [], []
        for j, v in enumerate(row, start=i):
            lo = chain_lower_bound(family, rank, rows, (i, j))
            hi = greedy_bound(family, rank, rows, lam, (i, j))
            member = member and lo <= v <= hi
            crow.append(v == lo)
            brow.append(v == hi)
        circled.append(tuple(crow))
        boxed.append(tuple(brow))
    return member, tuple(circled), tuple(boxed)


# ---------------------------------------------------------------------------
# Weyl group action on weights
# ---------------------------------------------------------------------------

def rho(rs) -> tuple[int, ...]:
    """The Weyl vector: <rho, alpha_k^vee> = 1 for every k."""
    return (1,) * rs.rank


def reflect(rs, w, k: int) -> tuple[int, ...]:
    """Simple reflection through the k-th simple root (1-based)."""
    c = w[k - 1]
    return tuple(w[i] - c * rs.cartan[i][k - 1] for i in range(rs.rank))


def dominant_representative(rs, w) -> tuple[int, ...]:
    """The dominant weight in the Weyl orbit of ``w``, reached by reflecting
    away negative coordinates one at a time."""
    v = tuple(w)
    while True:
        for i, c in enumerate(v):
            if c < 0:
                v = reflect(rs, v, i + 1)
                break
        else:
            return v


def weight_in_hull(rs, lam, w) -> bool:
    """Membership of a lattice point in the convex hull of the Weyl orbit of
    a dominant weight: the dominant representative must sit under ``lam`` in
    the rational dominance order."""
    dom = dominant_representative(rs, w)
    return all(c >= 0 for c in rs.root_coordinates(tuple(a - b for a, b in zip(lam, dom))))


def _signed_orbit(rs, v) -> dict:
    """x^{w(v)} summed over the Weyl group with sign (-1)^{length(w)}.

    ``v`` must be strongly dominant so the orbit is free and breadth-first
    layers realize the length function.
    """
    assert all(c >= 1 for c in v), "signed orbit needs a strongly dominant base point"
    out = {tuple(v): 1}
    frontier = [tuple(v)]
    sign = 1
    while frontier:
        sign = -sign
        nxt = []
        for w in frontier:
            for k in range(1, rs.rank + 1):
                img = reflect(rs, w, k)
                if img not in out:
                    out[img] = sign
                    nxt.append(img)
        frontier = nxt
    return out


def full_denominator_character(rs, lam) -> dict:
    """Weight -> multiplicity of the character of ``lam``: the alternating
    orbit sum of lam + rho divided in one step by the whole alternating
    orbit sum of rho (the Weyl denominator in sum form)."""
    numer = _signed_orbit(rs, tuple(c + 1 for c in lam))
    denom = _signed_orbit(rs, rho(rs))  # leads with +1 at x^rho
    table, rem = divide_terms(rs.height_vec, numer, denom)
    assert not rem, "inexact character division"
    return table


def twisted_character(rs, lam_prime) -> WeightPolynomial:
    """The character of ``lam_prime``, from the model's Freudenthal
    multiplicities, with each multiplicity c at weight w taken to c * q^ht,
    ht the height of the drop lam_prime - w in simple roots: the chi~ of
    Tokuyama's factorization P = D * chi~ at lam = lam_prime + rho."""
    ainv = invert_fraction_matrix(ModelRootSystem(rs.family, rs.rank).cartan_matrix())
    terms = {}
    for w, c in freudenthal_multiplicities(rs.family, rs.rank, tuple(lam_prime)).items():
        ht = sum(_dot(row, map(sub, lam_prime, w)) for row in ainv)
        assert ht.denominator == 1, "character weight outside the root lattice shift"
        terms[w] = CoeffElement.q_power(int(ht), c)
    return WeightPolynomial(rs.height_vec, terms)


def poly_product(a: WeightPolynomial, b: WeightPolynomial) -> WeightPolynomial:
    """The product of two weight polynomials, term by term on their decoded
    tuple weights; the package itself never multiplies polynomials."""
    assert a.height_vec == b.height_vec, "weight polynomials over different root systems"
    acc: dict = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = tuple(map(add, w1, w2))
            acc[w] = acc[w] + c1 * c2 if w in acc else c1 * c2
    return WeightPolynomial(a.height_vec, acc)


def deformed_denominator(rs, bump: tuple[int, ...] | None = None,
                         times: WeightPolynomial | None = None):
    """The deformed Weyl denominator x^rho prod_(a>0) (1 - q^(ht a - 1) x^-a)
    over the model's positive roots of ``rs``'s family, expanded one factor
    at a time through ``poly_product`` on tuple weights: Tokuyama's in type
    A, and Casselman-Shalika's at n = 1 in the others.  A root's height is
    the sum of its simple-root coordinates, read through the inverse of the
    model's Cartan matrix.  The factor of the root ``bump`` (weight
    coordinates), if given, takes q^(ht a).  With ``times``, the product
    starts from x^rho * ``times`` instead of x^rho, so it is D * ``times``
    with no product of two large polynomials."""
    model = ModelRootSystem(rs.family, rs.rank)
    ainv = invert_fraction_matrix(model.cartan_matrix())
    one = CoeffElement.one()
    out = WeightPolynomial(rs.height_vec, {rho(rs): one})
    if times is not None:
        out = poly_product(out, times)
    for vec in model.positive:
        root = tuple(int(c) for c in model.weight_coords(vec))
        ht = sum(_dot(row, root) for row in ainv)
        assert ht.denominator == 1, f"root {root} outside the root lattice"
        e = int(ht) - 1 + (root == bump)
        out = poly_product(out, WeightPolynomial(rs.height_vec, {
            (0,) * rs.rank: one, tuple(-c for c in root): CoeffElement.q_power(e, -1)}))
    return out


def b_rho_n2_form(rank: int) -> dict:
    """x^rho prod_long (1 - q^(ht a - 1) x^-a) prod_short (1 + g_1(1)
    q^(ht a - 1) x^-a) over the model's positive roots of type B ``rank``, at
    cover degree 2, in ``gauss_normal_form``'s shape: weight -> {(): Laurent
    polynomial in sqrt(q)}, since g_1(1) = sqrt(q) at n = 2 and no other
    Gauss key exists there.  A root is long when its model vector has norm 2,
    and its height is read as in ``deformed_denominator``."""
    model = ModelRootSystem("B", rank)
    ainv = invert_fraction_matrix(model.cartan_matrix())
    out = {(1,) * rank: {0: 1}}
    for vec in model.positive:
        root = tuple(int(c) for c in model.weight_coords(vec))
        ht = sum(_dot(row, root) for row in ainv)
        assert ht.denominator == 1, f"root {root} outside the root lattice"
        # the sqrt(q) exponent and sign of the factor's x^-a term
        half, sign = (2 * int(ht) - 2, -1) if _dot(vec, vec) == 2 else (2 * int(ht) - 1, 1)
        nxt: dict = {}
        for w, part in out.items():
            for v, shift, s in ((w, 0, 1), (tuple(map(sub, w, root)), half, sign)):
                acc = nxt.setdefault(v, {})
                for e, c in part.items():
                    acc[e + shift] = acc.get(e + shift, 0) + s * c
        out = nxt
    out = {w: {e: c for e, c in part.items() if c} for w, part in out.items()}
    return {w: {(): part} for w, part in out.items() if part}


# ---------------------------------------------------------------------------
# Reference Demazure operator
# ---------------------------------------------------------------------------

def demazure_by_terms(codec: WeightCodec, table: dict[int, int], k: int) -> dict[int, int]:
    """Demazure operator D_k = (1 - x^-alpha_k s_k) / (1 - x^-alpha_k) on an
    integer table keyed by weights packed with ``codec``.

    With m = <mu, alpha_k^vee>, x^mu goes to its alpha_k-string
    x^(mu - m alpha_k) + ... + x^(mu - alpha_k) + x^mu when m >= 0, to 0 when
    m = -1, and to -(x^(mu + alpha_k) + ... + x^(mu + (-m - 1) alpha_k)) when
    m <= -2.  m is read off field k - 1 of the key, and the string is a
    ``range`` stepped by the packed root, whichever its sign.  Cancelled
    entries stay in the result as zeros.
    """
    alpha, shift = codec.roots[k - 1], (k - 1) * codec.width
    mask, bias = codec.mask, codec.bias
    out: dict[int, int] = {}
    get = out.get
    for mu, c in table.items():
        m = (mu >> shift & mask) - bias
        if m >= 0:
            start, stop = mu - m * alpha, mu + alpha
        else:
            start, stop, c = mu + alpha, mu - m * alpha, -c
        for w in range(start, stop, alpha):
            out[w] = get(w, 0) + c
    return out


# ---------------------------------------------------------------------------
# Reference exact division
# ---------------------------------------------------------------------------

def divide_terms(height_vec: tuple[int, ...], numer: dict, denom: dict) -> tuple[dict, dict]:
    """Divide key -> int coefficient tables by leading-term elimination.

    A key is a weight, optionally followed by coordinates of height 0, taken
    in the fixed order extended to them: descending height, then
    lexicographic.  ``denom``'s leading key must be the only one of its
    weight, and its coefficient 1 or -1, its own inverse; otherwise
    ValueError.  Returns (quotient, remainder).

    One linear map packs each key into one int: the height in the top field,
    then coordinate k in a signed field as wide as the larger of numer's and
    denom's ranges of it, coordinate 0 highest.  On numer's box, and on
    denom's, the int order is the fixed order, negated so that the heap's
    least int leads.  A quotient key is one subtraction, and each divisor
    term costs one add and one dict update.

    Stopping rule: an exact quotient Q has Newt(numer) = Newt(Q) +
    Newt(denom), so its coordinate k lies in [min numer_k - min denom_k,
    max numer_k - max denom_k].  The first popped key whose quotient key
    leaves that box ends the division and stays in the remainder, so an
    inexact division reports a nonzero remainder.  Invariant: while every
    accepted quotient key lies in the box, every remainder key lies in
    numer's box, so no field overflows.  Popped keys strictly decrease
    inside a finite box, so the division ends.

    The reference for ``WeightPolynomial.divide``, which eliminates whole
    weights: with every packed monomial key appended to its weight as the
    last coordinate, one (weight, monomial) term per key, both give the same
    quotient and remainder on exact products and on integer tables.
    """
    if not denom:
        raise ZeroDivisionError("division by the empty table")
    quot: dict = {}
    if not numer:
        return quot, {}
    n_lo, n_hi = _box(numer)
    d_lo, d_hi = _box(denom)
    n_span, d_span = tuple(map(sub, n_hi, n_lo)), tuple(map(sub, d_hi, d_lo))
    widths = [max(a, b).bit_length() for a, b in zip(n_span, d_span)]
    shifts = [sum(widths[k + 1:]) for k in range(len(widths))]
    masks = [(1 << b) - 1 for b in widths]
    top = sum(widths)
    heights = tuple(height_vec) + (0,) * (len(widths) - len(height_vec))
    scale = [-((h << top) + (1 << s)) for h, s in zip(heights, shifts)]

    def pack(key):
        return sum(map(mul, scale, key))

    def unpack(table, lo):
        base = pack(lo)
        return {tuple([((base - x) >> s & m) + b for s, m, b in zip(shifts, masks, lo)]): c
                for x, c in table.items()}

    lead_w = min(denom, key=pack)
    rank = len(height_vec)
    if sum(w[:rank] == lead_w[:rank] for w in denom) > 1:
        raise ValueError(f"divisor leading weight {lead_w[:rank]} holds more than one key")
    unit = denom[lead_w]
    if unit not in (1, -1):
        raise ValueError(f"divisor leading coefficient {unit} is not 1 or -1")
    lead = pack(lead_w)
    den = [(pack(w), c) for w, c in denom.items() if w != lead_w]
    # The quotient key of popped x is in the box iff field k of x, read from
    # numer's corner, is in [lead_k - d_lo_k, n_span_k - (d_hi_k - lead_k)]:
    # an empty range when the box is.  A coordinate constant over denom
    # leaves the whole field allowed.
    base = pack(n_lo)
    checks = [(s, m, a, n - c) for s, m, a, c, n in
              zip(shifts, masks, map(sub, lead_w, d_lo), map(sub, d_hi, lead_w), n_span)
              if a or c]
    rem = {pack(w): c for w, c in numer.items()}
    heap = list(rem)
    heapify(heap)
    get = rem.get
    while heap:
        x = heappop(heap)
        c = get(x)
        if c is None:
            continue  # eliminated after it was pushed
        off = base - x
        if any(not a <= off >> s & m <= b for s, m, a, b in checks):
            break  # cannot belong to any exact quotient
        g = x - lead
        qc = c * unit
        quot[g] = qc
        del rem[x]
        for dk, dc in den:
            t = g + dk
            old = get(t)
            if old is None:
                rem[t] = -qc * dc
                heappush(heap, t)
            elif old == qc * dc:
                del rem[t]
            else:
                rem[t] = old - qc * dc
    return unpack(quot, tuple(map(sub, n_lo, d_lo))), unpack(rem, n_lo)


def _box(table: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least and greatest value of each key coordinate over ``table``."""
    cols = list(zip(*table))
    return tuple(map(min, cols)), tuple(map(max, cols))


# ---------------------------------------------------------------------------
# Reference coefficient ring
# ---------------------------------------------------------------------------

class RefCoeff:
    """Sum of monomials c * q^e * prod g^k, kept as a dict from
    (e, sorted tuple of (symbol, k)) to c, with a symbol the tuple
    (t, residue, degree).  The straightforward encoding, as a reference for
    the package's packed monomials."""

    def __init__(self, terms=None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @staticmethod
    def monomial(c, e, powers):
        """c * q^e * prod sym^k over the (sym, k) pairs, repeats allowed."""
        return RefCoeff({(e, ()): c}) * RefCoeff.product(powers)

    @staticmethod
    def product(powers):
        out = RefCoeff({(0, ()): 1})
        for sym, k in powers:
            out = out * RefCoeff({(0, ((sym, k),)): 1})
        return out

    def __add__(self, other):
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0) + c
        return RefCoeff(acc)

    def __neg__(self):
        return RefCoeff({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc = {}
        for (e1, g1), c1 in self.terms.items():
            for (e2, g2), c2 in other.terms.items():
                powers = dict(g1)
                for sym, k in g2:
                    powers[sym] = powers.get(sym, 0) + k
                key = (e1 + e2, tuple(sorted(powers.items())))
                acc[key] = acc.get(key, 0) + c1 * c2
        return RefCoeff(acc)

    def times_unit(self, sign, e):
        return RefCoeff({(q + e, g): sign * c for (q, g), c in self.terms.items()})

    def monomials(self):
        return [(c, e, g) for (e, g), c in sorted(self.terms.items())]

    def to_json_obj(self):
        return {"monomials": [
            {"int": c, "q": e,
             "gauss": [{"t": t, "c": residue, "pow": k} for (t, residue, _), k in g]}
            for c, e, g in self.monomials()]}


def element(terms: dict) -> CoeffElement:
    """The ring element sum c * q^e * prod sym^m over ``terms``, a dict from
    (e, ((sym, m), ...)) to c, with sym a ``GaussSymbol`` or its
    (t, residue, degree) fields.  Built through the public constructors
    alone: each monomial is ``q_power(e, c)`` times m factors of
    ``symbol(sym)``, and the monomials are added up."""
    out = CoeffElement.zero()
    for (e, gauss), c in terms.items():
        mon = CoeffElement.q_power(e, c)
        for sym, m in gauss:
            for _ in range(m):
                mon = mon * CoeffElement.symbol(GaussSymbol(*sym))
        out = out + mon
    return out


def polynomial_json_obj(poly: WeightPolynomial, family: str, rank: int,
                        n: int, lam) -> dict:
    """The JSON object of ``series.polynomial_json_obj``, built as the package
    built it before it read packed tables: every term decoded through
    ``terms``, the weights sorted by height, then weight, descending, and
    each coefficient rendered from its canonical ``monomials()`` through
    ``RefCoeff``, so every dict and list is fresh."""
    terms = poly.terms
    height = dict(zip(terms, (_dot(poly.height_vec, w) for w in terms)))
    return {
        "family": family,
        "rank": rank,
        "n": n,
        "lambda": list(lam),
        "terms": [{"wt": list(w), "coeff": RefCoeff(
                       {(e, g): c for c, e, g in terms[w].monomials()}).to_json_obj()}
                  for w in sorted(terms, key=lambda w: (height[w], w), reverse=True)],
    }


def coeff_text(el: CoeffElement) -> str:
    """``repr`` of a ring element, written out from its canonical
    ``monomials()``: terms joined by " + ", each the coefficient (left out
    when it is 1 beside a q power or a symbol), q^e and g_t(r mod d)^m
    factors joined by "*"."""
    bits = []
    for c, e, g in el.monomials():
        part = [str(c)] if c != 1 or (e == 0 and not g) else []
        if e:
            part.append("q" if e == 1 else f"q^{e}")
        for (t, r, d), m in g:
            part.append(f"g_{t}({r} mod {d})" + ("" if m == 1 else f"^{m}"))
        bits.append("*".join(part))
    return " + ".join(bits) or "0"


# ---------------------------------------------------------------------------
# Gauss-part normal form
# ---------------------------------------------------------------------------

def gauss_normal_form(el: CoeffElement, n: int) -> dict:
    """The ring element ``el`` at cover degree ``n`` in the normal form of the
    Gauss relations, which hold for p = 1 mod 2n: a zero-free map from a
    Gauss key, the sorted (c, exponent) pairs of g_1(c) over 0 < c < n/2, to
    a Laurent polynomial in sqrt(q), a zero-free map from exponent to int.

    Read off ``monomials()`` alone, with g_t(r) = -1 when n | t*r,
    g_2(r) = g_1(2r mod n), g_1(n/2) = sqrt(q) for even n, and
    g_1(r) = q * g_1(n - r)^-1 when 2r > n.
    """
    out: dict = {}
    for c, e, g in el.monomials():
        half, powers = 2 * e, {}
        for (t, r, degree), m in g:
            assert degree == n, f"symbol of degree {degree} at n = {n}"
            r = t * r % n
            if r == 0:
                c = -c if m % 2 else c
            elif 2 * r == n:
                half += m
            elif 2 * r > n:
                half += 2 * m
                powers[n - r] = powers.get(n - r, 0) - m
            else:
                powers[r] = powers.get(r, 0) + m
        part = out.setdefault(tuple(sorted((r, m) for r, m in powers.items() if m)), {})
        part[half] = part.get(half, 0) + c
    out = {key: {h: c for h, c in part.items() if c} for key, part in out.items()}
    return {key: part for key, part in out.items() if part}


class GaussInts:
    """A coefficient in ``gauss_normal_form``, each Gauss key's Laurent
    polynomial in sqrt(q) evaluated at sqrt(q) = 2^B: a zero-free map from
    key to int.  It has what the int path of ``series._row_sums`` asks of a
    value: +, 0 + x, *, truth and == 0."""
    __slots__ = ("parts",)

    def __init__(self, parts: dict):
        self.parts = {key: v for key, v in parts.items() if v}

    def __add__(self, other):
        parts = dict(self.parts)
        for key, v in other.parts.items():
            parts[key] = parts.get(key, 0) + v
        return GaussInts(parts)

    def __radd__(self, other):
        assert other == 0, other  # a sum's start
        return self

    def __mul__(self, other):
        parts = {}
        for k1, v1 in self.parts.items():
            for k2, v2 in other.parts.items():
                powers = Counter(dict(k1))
                powers.update(dict(k2))
                key = tuple(sorted((c, m) for c, m in powers.items() if m))
                parts[key] = parts.get(key, 0) + v1 * v2
        return GaussInts(parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, GaussInts):
            return self.parts == other.parts
        return other == 0 and not self.parts


def gauss_ints_map(n: int, bits: int):
    """The ring map from a ring element at cover degree ``n`` to its
    ``GaussInts`` at sqrt(q) = 2^``bits``, for a ``slot_table``'s
    ``ring_map``; an element whose normal form has a negative power of
    sqrt(q) raises ValueError (``kronecker_encode``)."""
    def image(el: CoeffElement) -> GaussInts:
        return GaussInts({key: kronecker_encode(part, bits)
                          for key, part in gauss_normal_form(el, n).items()})
    return image


def first_mixed_weight(poly: WeightPolynomial, n: int):
    """The first weight in the fixed order (``sorted_weights``) whose
    coefficient has more than one Gauss key in ``gauss_normal_form``, with
    its keys sorted; None when every weight has at most one."""
    for w in poly.sorted_weights():
        keys = gauss_normal_form(poly.coeff(w), n)
        if len(keys) > 1:
            return w, tuple(sorted(keys))
    return None


# ---------------------------------------------------------------------------
# Levi branching from characters
# ---------------------------------------------------------------------------

def levi_multiplicities(rs, sub_rs, lam) -> Counter:
    """mu -> the multiplicity of the Levi's V(mu) in V(lam), for the Levi on
    nodes 1..r-1, whose root system is ``sub_rs``: ``weyl_character(lam)``
    restricted to the first r-1 coordinates, less m * ``weyl_character`` of
    ``sub_rs`` at the highest remaining weight, in ``sub_rs``' fixed order
    (by its ``height_vec``), until nothing remains.  Raises AssertionError
    if a multiplicity goes negative."""
    rest = Counter()
    for w, v in weyl_character(rs, lam).packed_items():
        rest[w[:-1]] += v[0]
    out = Counter()
    while rest:
        mu = max(rest, key=lambda w: (sum(map(mul, sub_rs.height_vec, w)), w))
        m = out[mu] = rest[mu]
        for w, v in weyl_character(sub_rs, mu).packed_items():
            rest[w] -= m * v[0]
            assert rest[w] >= 0, (mu, w, rest[w])
            if not rest[w]:
                del rest[w]
    return out


# ---------------------------------------------------------------------------
# Demazure prefixes of the long word
# ---------------------------------------------------------------------------

def word_positions(spec: CartanSpec) -> list[range]:
    """Word position of each pattern entry, per row from the top: row i
    holds the block i-th from the end of ``long_word_blocks``, and its entry
    ``off`` is letter ``off`` of that block, at position (lengths of the
    earlier blocks) + ``off`` of ``nice_long_word``."""
    blocks = long_word_blocks(spec)
    starts = [0, *accumulate(map(len, blocks))]
    return [range(starts[b], starts[b + 1]) for b in reversed(range(len(blocks)))]


def prefix_weights(rs, lam) -> list[Counter]:
    """For k = 0..N, the weights, by ``pattern_wt`` and with multiplicity,
    of the patterns of ``enumerate_patterns`` with no nonzero entry at a
    word position >= k."""
    positions = word_positions(rs.spec)
    by_end = [Counter() for _ in range(rs.spec.positive_root_count() + 1)]
    for L in enumerate_patterns(rs, lam):
        end = max((p + 1 for row, span in zip(L.rows, positions)
                   for v, p in zip(row, span) if v), default=0)
        by_end[end][pattern_wt(L, lam)] += 1
    return list(accumulate(by_end))


def demazure_product(rs, lam, letters) -> Counter:
    """pi_{l_m}(...pi_{l_1}(x^lam)) for ``letters`` = l_1 .. l_m, the first
    letter applied first, by ``roots._demazure`` on the codec of ``lam``,
    as weight -> multiplicity."""
    codec = weight_codec(lam, rs.cartan)
    table = {codec.pack(lam): 1}
    for k in letters:
        table = _demazure(codec, table, k)
    return Counter({codec.decode(x): c for x, c in table.items()})
