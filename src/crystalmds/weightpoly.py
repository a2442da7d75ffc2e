"""Finite weight-lattice polynomials with CoeffElement coefficients.

A ``WeightPolynomial`` maps lattice points (integer tuples in the
fundamental-weight basis) to ring elements.  Terms are kept canonical: no
zero coefficients, and a fixed total order on weights (descending height,
ties broken lexicographically) used for leading terms, serialization and
exact division.  Height is evaluated through an integer-scaled functional
supplied by the root system, so ordering never touches rationals.

The engines finish in packed tables, keyed by ``WeightCodec`` ints, and
``poly_from_packed`` keeps such a table, with its codec, as the polynomial.
The first read of ``terms`` decodes it, once: the codec decodes every key a
field at a time (``decode_all``), each distinct integer coefficient becomes
one shared element, and the terms go in without the constructor's copy and
zero scan, since the engines keep no zeros.  From then on the polynomial
holds only the decoded terms.  Until then ``len``, ``is_zero`` and ``==``
read the table: two tables over the same packing (equal height functional,
codec width and packed simple roots) with the same kind of value are equal
exactly when their polynomials are, since the codec is injective on every
weight its fields hold.

Exact division (``divide_terms``) takes tables from weight to packed
monomial dict, the form the engines' sums and ``CoeffElement.packed`` hold,
and runs on one int per (weight, monomial) term: the monomial's key is a last
coordinate of height 0, which extends the order, and one linear map packs
the whole term.  The key's scale is -1, so each weight is packed once and
each of its monomials is that int minus the key.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import mul, sub
from typing import Callable, Collection, Iterator, NamedTuple

from .coefficients import CoeffElement

Weight = tuple[int, ...]


class WeightCodec(NamedTuple):
    width: int                          # bits per weight field
    mask: int                           # the field at a shift reads as
    bias: int                           # (packed >> shift & mask) - bias
    pack: Callable[[Weight], int]
    decode: Callable[[int], Weight]
    decode_all: Callable[[Collection[int]], Iterator[Weight]]  # decode, a field at a time
    roots: tuple[int, ...]              # simple roots, packed without bias


def weight_codec(lam: Weight, cartan) -> WeightCodec:
    """Weights of the module of dominant highest weight ``lam`` as one int.

    Coordinate i sits, biased, in the field of ``width`` bits at shift
    i * width.  Packing is linear, so w - v * alpha_k packs to
    pack(w) - v * roots[k - 1]; the simple roots are the columns of ``cartan``.

    No field overflows into its neighbour.  Every weight the slot walk and the
    Demazure tables reach lies in conv(W lam): the walk's prefix weights are
    weights of crystal elements or points on a root string between two, the
    tables hold weights of V(lam) and points on alpha-strings between them.
    There |<w, alpha_i^vee>| is at most <lam, beta^vee> for a positive coroot
    beta^vee, whose simple-coroot coefficients are at most 2 in types A-D, so
    at most 2 * sum(lam).  A field holds -2^(width-1) .. 2^(width-1) - 1 with
    2^(width-1) > 4 * sum(lam): twice the bound.
    """
    width = (4 * sum(lam) + 1).bit_length() + 1
    bias, mask = 1 << (width - 1), (1 << width) - 1
    shifts = range(0, len(lam) * width, width)
    zero = sum(bias << s for s in shifts)

    def linear(w):
        return sum(x << s for x, s in zip(w, shifts))

    def decode_all(xs):
        return zip(*[[(x >> s & mask) - bias for x in xs] for s in shifts])

    return WeightCodec(width, mask, bias, lambda w: zero + linear(w),
                       lambda x: tuple([(x >> s & mask) - bias for s in shifts]),
                       decode_all, tuple(map(linear, zip(*cartan))))


class WeightPolynomial:
    """Until ``terms`` is first read, a polynomial from ``poly_from_packed``
    holds None in ``_terms`` and in ``_packed`` (codec, packed table, whether
    its values are packed monomial dicts rather than ints).

    ``meta`` is a free-form dict that nothing in the package fills or
    reads; it stays only because ``perfbench/workloads.py`` passes one, and
    goes when that benchmark is rebuilt (ROADMAP item 9)."""
    __slots__ = ("_terms", "_packed", "height_vec", "meta")

    def __init__(self, height_vec: tuple[int, ...],
                 terms: dict[Weight, CoeffElement] | None = None,
                 meta: dict | None = None):
        self.height_vec = tuple(height_vec)
        self._terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}
        self._packed = None
        self.meta = dict(meta) if meta else {}

    @property
    def terms(self) -> dict[Weight, CoeffElement]:
        if self._terms is None:
            codec, table, dicts = self._packed
            values = table.values()
            if dicts:
                elements = map(CoeffElement.from_packed, values)
            else:
                shared = {c: CoeffElement.from_int(c) for c in set(values)}
                elements = map(shared.__getitem__, values)
            self._terms = dict(zip(codec.decode_all(table), elements))
            self._packed = None
        return self._terms

    # -- ordering ----------------------------------------------------------
    def order_key(self, w: Weight):
        return (sum(h * c for h, c in zip(self.height_vec, w)), w)

    def sorted_weights(self) -> list[Weight]:
        """Weights in the fixed order, leading (highest) first."""
        return sorted(self.terms, key=self.order_key, reverse=True)

    def leading(self) -> tuple[Weight, CoeffElement]:
        w = max(self.terms, key=self.order_key)
        return w, self.terms[w]

    # -- basic structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self) -> int:
        return len(self._terms if self._packed is None else self._packed[1])

    def __iter__(self) -> Iterator[tuple[Weight, CoeffElement]]:
        for w in self.sorted_weights():
            yield w, self.terms[w]

    def coeff(self, w: Weight) -> CoeffElement:
        return self.terms.get(tuple(w), CoeffElement.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightPolynomial) or self.height_vec != other.height_vec:
            return False
        if self._packed is not None and other._packed is not None:
            (a, ta, da), (b, tb, db) = self._packed, other._packed
            if a.width == b.width and a.roots == b.roots and da == db:
                return ta == tb
        return self.terms == other.terms

    def __repr__(self):
        bits = [f"({self.terms[w]!r})*x^{w}" for w in self.sorted_weights()]
        return " + ".join(bits) if bits else "0"

    # -- arithmetic ----------------------------------------------------------
    def __mul__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        self._check(other)
        acc: dict[Weight, CoeffElement] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                prod = c1 * c2
                acc[w] = acc[w] + prod if w in acc else prod
        return WeightPolynomial(self.height_vec, acc)

    def _check(self, other: "WeightPolynomial"):
        if self.height_vec != other.height_vec:
            raise ValueError("weight polynomials live over different root systems")

    # -- exact division -------------------------------------------------------
    def divide(self, divisor: "WeightPolynomial") -> tuple["WeightPolynomial", "WeightPolynomial"]:
        """Leading-term elimination under the fixed order (see ``divide_terms``).

        The divisor's leading coefficient must be a ring unit (±q^e).  Both
        operands go in as their elements' packed monomial dicts, read only,
        and each result dict becomes one element.  Returns (quotient,
        remainder); the division was exact iff the remainder is zero.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero weight polynomial")
        if divisor.leading()[1].as_unit_monomial() is None:
            raise ValueError("divisor leading coefficient is not a unit monomial")
        quot, rem = divide_terms(self.height_vec,
                                 {w: el.packed() for w, el in self.terms.items()},
                                 {w: el.packed() for w, el in divisor.terms.items()})
        return (poly_from_packed_terms(self.height_vec, quot),
                poly_from_packed_terms(self.height_vec, rem))


def poly_from_int_terms(height_vec: tuple[int, ...], table: dict[Weight, int],
                        meta: dict | None = None) -> WeightPolynomial:
    return WeightPolynomial(
        height_vec,
        {w: CoeffElement.from_int(c) for w, c in table.items() if c != 0},
        meta,
    )


def poly_from_packed(height_vec: tuple[int, ...], codec: WeightCodec,
                     table: dict) -> WeightPolynomial:
    """The polynomial of a packed table: each key is a packed weight, and
    each value a nonzero int or a zero-free packed monomial dict
    (``CoeffElement.packed``), which the polynomial takes over.  The table
    is kept, not copied, so the caller must not change it; the first read
    of ``terms`` decodes it, and there equal ints share one element."""
    # the terms are canonical already: skip the constructor's copy and scan
    poly = object.__new__(WeightPolynomial)
    poly.height_vec, poly.meta, poly._terms = height_vec, {}, None
    poly._packed = (codec, table, isinstance(next(iter(table.values()), None), dict))
    return poly


def poly_from_packed_terms(height_vec: tuple[int, ...],
                           terms: dict[Weight, dict[int, int]]) -> WeightPolynomial:
    """The polynomial of a weight -> packed monomial dict table, such as
    ``divide_terms`` returns: each dict is taken over by one element
    (``CoeffElement.from_packed``), so the caller must not change it."""
    return WeightPolynomial(height_vec, {w: CoeffElement.from_packed(t) for w, t in terms.items()})


def divide_terms(height_vec: tuple[int, ...], numer: dict, denom: dict) -> tuple[dict, dict]:
    """Divide weight -> packed monomial dict tables by leading-term elimination.

    A table maps each weight tuple to a nonempty, zero-free dict from packed
    monomial key (``CoeffElement.packed``) to int coefficient; both tables are
    only read.  The terms are the (weight, monomial) pairs, taken in the
    fixed order extended by the monomial key as one more coordinate of
    height 0: descending height, then lexicographic.  ``denom``'s leading
    weight must hold one monomial, of coefficient 1 or -1, its own inverse;
    otherwise ValueError.  Returns (quotient, remainder) in the same form,
    with dicts of their own.

    One linear map packs each term into one int: the height in the top
    field, then weight coordinate k in a signed field as wide as the larger
    of numer's and denom's ranges of it, coordinate 0 highest, and the
    monomial key in the lowest field, with scale -1.  So a weight is packed
    once, and each of its monomials is that int minus the key.  On numer's
    box, and on denom's, the int order is the fixed order, negated so that
    the heap's least int leads.  A quotient key is one subtraction, and each
    divisor term costs one add and one dict update.

    Stopping rule: an exact quotient Q has Newt(numer) = Newt(Q) +
    Newt(denom), so its coordinate k lies in [min numer_k - min denom_k,
    max numer_k - max denom_k].  The first popped key whose quotient key
    leaves that box ends the division and stays in the remainder, so an
    inexact division reports a nonzero remainder.  Invariant: while every
    accepted quotient key lies in the box, every remainder key lies in
    numer's box, so no field overflows.  Popped keys strictly decrease
    inside a finite box, so the division ends.
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
    scale = [-((h << top) + (1 << s)) for h, s in zip(height_vec, shifts)] + [-1]

    def pack(key):  # a bare weight packs as its term of monomial key 0
        return sum(map(mul, scale, key))

    def unpack(table, lo):
        # group by the weight fields, then decode each weight once
        base, k_bits, k_mask, k_lo = pack(lo), widths[-1], masks[-1], lo[-1]
        by_weight: dict[int, dict[int, int]] = {}
        for x, c in table.items():
            off = base - x
            by_weight.setdefault(off >> k_bits, {})[(off & k_mask) + k_lo] = c
        fields = [(s - k_bits, m, b) for s, m, b in zip(shifts, masks, lo[:-1])]
        return {tuple([(f >> s & m) + b for s, m, b in fields]): t
                for f, t in by_weight.items()}

    lead_w = min(denom, key=pack)
    if len(denom[lead_w]) != 1:
        raise ValueError(f"divisor leading weight {lead_w} holds {len(denom[lead_w])} "
                         "monomials, not one")
    ((k, unit),) = denom[lead_w].items()
    if unit not in (1, -1):
        raise ValueError(f"divisor leading coefficient {unit} is not 1 or -1")
    lead_key = lead_w + (k,)
    lead = pack(lead_key)
    den = [(x - k, c) for x, t in zip(map(pack, denom), denom.values())
           for k, c in t.items() if x - k != lead]
    # The quotient key of popped x is in the box iff field k of x, read from
    # numer's corner, is in [lead_k - d_lo_k, n_span_k - (d_hi_k - lead_k)]:
    # an empty range when the box is.  A coordinate constant over denom
    # leaves the whole field allowed.
    base = pack(n_lo)
    checks = [(s, m, a, n - c) for s, m, a, c, n in
              zip(shifts, masks, map(sub, lead_key, d_lo), map(sub, d_hi, lead_key), n_span)
              if a or c]
    rem = {x - k: c for x, t in zip(map(pack, numer), numer.values()) for k, c in t.items()}
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
    """Least and greatest value of each weight coordinate over ``table``,
    then of the monomial keys."""
    cols = list(zip(*table))
    keys = table.values()
    return (tuple(map(min, cols)) + (min(map(min, keys)),),
            tuple(map(max, cols)) + (max(map(max, keys)),))
