"""Finite weight-lattice polynomials with CoeffElement coefficients.

A ``WeightPolynomial`` maps lattice points (integer tuples in the
fundamental-weight basis) to ring elements.  Terms are kept canonical: no
zero coefficients, and a fixed total order on weights (descending height,
ties broken lexicographically) used for leading terms, serialization and
division.  Height is evaluated through an integer-scaled functional
supplied by the root system, so ordering never touches rationals.

Every engine finishes in a packed table, keyed by ``WeightCodec`` ints, and
``poly_from_packed`` keeps it, with its codec (and B, for ints at q = 2^B,
which its first read reads back as packed monomial dicts), as the polynomial.
The first read of ``terms`` decodes it, once: the codec decodes every key a
field at a time (``decode_all``), each distinct integer coefficient becomes
one shared element, and the terms go in without the constructor's copy and
zero scan, since the engines return no zeros (``coefficients.mul_into``
builds every packed monomial dict zero-free, and the row sums drop what
cancels); from then on they are all it holds.  Until then ``len``,
``is_zero``, ``==``, ``character_dimension`` (of an int table),
``sorted_weights`` (the keys alone) and ``packed_items``, the ordered reader
behind JSON and text output, read the table: two tables over one packing
(equal height functional, codec width and packed simple roots) with one kind
of value are equal exactly when their polynomials are, the codec being
injective on every weight its fields hold.

No engine path divides or multiplies polynomials, and the class has no
product.  ``WeightPolynomial.divide`` is a short leading-term elimination
over whole weights and their elements, kept for callers outside the
package; the Tokuyama check of ``series`` multiplies int tables instead.
"""
from __future__ import annotations

from operator import mul
from typing import Callable, Collection, Iterator, NamedTuple

from .coefficients import CoeffElement, kronecker_decode

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
                       lambda x: next(decode_all((x,))),
                       decode_all, tuple(map(linear, zip(*cartan))))


class WeightPolynomial:
    """Until ``terms`` is first read, a polynomial from ``poly_from_packed``
    holds None in ``_terms`` and in ``_packed`` (codec, packed table, B, the
    digit width of a table of ints at q = 2^B, else 0), read by ``_table``.

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

    def _table(self) -> tuple[WeightCodec, dict, bool]:
        """``_packed`` as (codec, table, whether its values are dicts), read back from 2^B once."""
        codec, table, bits = self._packed
        if bits:
            table = {x: kronecker_decode(v, bits) for x, v in table.items()}
            self._packed = codec, table, 0
        return codec, table, isinstance(next(iter(table.values()), None), dict)

    @property
    def terms(self) -> dict[Weight, CoeffElement]:
        if self._terms is None:
            codec, table, dicts = self._table()
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
        """The fixed order's key: height, then the weight itself."""
        return sum(map(mul, self.height_vec, w)), w

    def packed_items(self) -> list[tuple[Weight, dict[int, int]]]:
        """(weight, packed monomial dict) per term, in the fixed order,
        leading (highest ``order_key``) first, without decoding the terms:
        each value as its element's ``packed()``, an int c as ``from_int(c)``'s.
        The dicts are shared: do not change them."""
        if self._packed is None:
            pairs = [(w, c.packed()) for w, c in self._terms.items()]
        else:
            codec, table, dicts = self._table()
            values = (table.values() if dicts else
                      [CoeffElement.from_int(c).packed() for c in table.values()])
            pairs = zip(codec.decode_all(table), values)
        h = self.height_vec
        # order_key inline; weights are distinct, so no dict is compared
        keyed = sorted([(sum(map(mul, h, w)), w, v) for w, v in pairs], reverse=True)
        return [(w, v) for _, w, v in keyed]

    def sorted_weights(self) -> list[Weight]:
        """Weights in the fixed order, leading (highest) first; no value is read."""
        packed = self._packed
        weights = self._terms if packed is None else packed[0].decode_all(packed[1])
        return sorted(weights, key=self.order_key, reverse=True)

    # -- basic structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self) -> int:
        return len(self._terms if self._packed is None else self._packed[1])

    def coeff(self, w: Weight) -> CoeffElement:
        return self.terms.get(tuple(w), CoeffElement.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightPolynomial) or self.height_vec != other.height_vec:
            return False
        if self._packed is not None and other._packed is not None:
            (a, ta, da), (b, tb, db) = self._table(), other._table()
            if a.width == b.width and a.roots == b.roots and da == db:
                return ta == tb
        return self.terms == other.terms

    def __repr__(self):
        bits = [f"({self.terms[w]!r})*x^{w}" for w in self.sorted_weights()]
        return " + ".join(bits) if bits else "0"

    # -- division ------------------------------------------------------------
    def divide(self, divisor: "WeightPolynomial") -> tuple["WeightPolynomial", "WeightPolynomial"]:
        """Leading-term elimination under the fixed order.  Returns
        (quotient, remainder) with self = quotient * divisor + remainder; the
        division was exact iff the remainder is zero.

        The divisor's leading coefficient must be a unit +-q^e.  Each step
        takes the remainder's leading weight w to the quotient weight
        g = w - lead(divisor).  An exact quotient has Newt(self) =
        Newt(quotient) + Newt(divisor), so its coordinate k lies in
        [min self_k - min divisor_k, max self_k - max divisor_k]; the first g
        outside that box ends the division, and w stays in the remainder.
        Leading weights strictly decrease inside self's box, so it ends.
        """
        if self.height_vec != divisor.height_vec:
            raise ValueError("weight polynomials live over different root systems")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero weight polynomial")
        lead = max(divisor.terms, key=divisor.order_key)
        (sign, e, gauss), *more = divisor.terms[lead].monomials()
        if more or gauss or sign not in (1, -1):
            raise ValueError("divisor leading coefficient is not a unit monomial")
        inverse = CoeffElement.q_power(-e, sign)
        rest = [(w, c) for w, c in divisor.terms.items() if w != lead]
        box = [(min(a) - min(b), max(a) - max(b))
               for a, b in zip(zip(*self.terms), zip(*divisor.terms))]
        rem, quot = dict(self.terms), {}
        while rem:
            w = max(rem, key=self.order_key)
            g = tuple(a - b for a, b in zip(w, lead))
            if any(not lo <= x <= hi for x, (lo, hi) in zip(g, box)):
                break  # cannot belong to any exact quotient
            c = quot[g] = rem.pop(w) * inverse
            for dw, dc in rest:
                t = tuple(a + b for a, b in zip(g, dw))
                v = rem.pop(t, CoeffElement.zero()) - c * dc
                if not v.is_zero():
                    rem[t] = v
        return (WeightPolynomial(self.height_vec, quot),
                WeightPolynomial(self.height_vec, rem))


def poly_from_int_terms(height_vec: tuple[int, ...], table: dict[Weight, int],
                        meta: dict | None = None) -> WeightPolynomial:
    return WeightPolynomial(height_vec, {w: CoeffElement.from_int(c) for w, c in table.items()},
                            meta)


def poly_from_packed(height_vec: tuple[int, ...], codec: WeightCodec,
                     table: dict, bits: int = 0) -> WeightPolynomial:
    """The polynomial of a packed table: each key a packed weight, each value
    a nonzero int (with ``bits``, one at q = 2^bits, inside the digits of
    ``kronecker_decode``) or a zero-free packed monomial dict, which the
    polynomial takes over.  The table is kept, not copied, so the caller
    must not change it; the first read of ``terms`` decodes it."""
    # the terms are canonical already: skip the constructor's copy and scan
    poly = object.__new__(WeightPolynomial)
    poly.height_vec, poly.meta, poly._terms = height_vec, {}, None
    poly._packed = codec, table, bits
    return poly


def character_dimension(poly: WeightPolynomial) -> int:
    """Sum of integer coefficients (evaluation at the all-ones point).  An
    undecoded int table's values are summed as they are; otherwise each
    decoded term must be one constant monomial."""
    if poly._packed is not None:
        _, table, dicts = poly._table()
        if not dicts:
            return sum(table.values())
    total = 0
    for c in poly.terms.values():
        (k, e, gauss), *more = c.monomials()
        if more or e or gauss:
            raise ValueError("character polynomial has non-constant coefficients")
        total += k
    return total
