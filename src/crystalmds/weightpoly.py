"""Finite weight-lattice polynomials with CoeffElement coefficients.

A ``WeightPolynomial`` maps lattice points (integer tuples in the
fundamental-weight basis) to ring elements.  Terms are kept canonical: no
zero coefficients, and a fixed total order on weights (descending height,
ties broken lexicographically) used for leading terms, serialization and
exact division.  Height is evaluated through an integer-scaled functional
supplied by the root system, so ordering never touches rationals.
"""
from __future__ import annotations

import heapq
from operator import add, mul, neg, sub
from typing import Callable, Iterator, NamedTuple

from .coefficients import CoeffElement

Weight = tuple[int, ...]


class WeightCodec(NamedTuple):
    width: int                          # bits per coordinate field
    pack: Callable[[Weight], int]
    decode: Callable[[int], Weight]
    coord: Callable[[int, int], int]    # (packed, field shift) -> coordinate
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

    return WeightCodec(width, lambda w: zero + linear(w),
                       lambda x: tuple([(x >> s & mask) - bias for s in shifts]),
                       lambda x, shift: (x >> shift & mask) - bias,
                       tuple(map(linear, zip(*cartan))))


class WeightPolynomial:
    __slots__ = ("terms", "height_vec", "meta")

    def __init__(self, height_vec: tuple[int, ...],
                 terms: dict[Weight, CoeffElement] | None = None,
                 meta: dict | None = None):
        self.height_vec = tuple(height_vec)
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}
        self.meta = dict(meta) if meta else {}

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
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Weight, CoeffElement]]:
        for w in self.sorted_weights():
            yield w, self.terms[w]

    def coeff(self, w: Weight) -> CoeffElement:
        return self.terms.get(tuple(w), CoeffElement.zero())

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightPolynomial)
                and self.height_vec == other.height_vec
                and self.terms == other.terms)

    def __repr__(self):
        bits = [f"({self.terms[w]!r})*x^{w}" for w in self.sorted_weights()]
        return " + ".join(bits) if bits else "0"

    # -- arithmetic ----------------------------------------------------------
    def _like(self, terms: dict[Weight, CoeffElement]) -> "WeightPolynomial":
        return WeightPolynomial(self.height_vec, terms, self.meta)

    def __mul__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        self._check(other)
        acc: dict[Weight, CoeffElement] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                prod = c1 * c2
                acc[w] = acc[w] + prod if w in acc else prod
        return self._like(acc)

    def _check(self, other: "WeightPolynomial"):
        if self.height_vec != other.height_vec:
            raise ValueError("weight polynomials live over different root systems")

    # -- exact division -------------------------------------------------------
    def divide(self, divisor: "WeightPolynomial") -> tuple["WeightPolynomial", "WeightPolynomial"]:
        """Leading-term elimination under the fixed order (see ``divide_terms``).

        The divisor's leading coefficient must be a ring unit (±q^e).  Returns
        (quotient, remainder); the division was exact iff the remainder is
        zero.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero weight polynomial")
        unit = divisor.leading()[1].as_unit_monomial()
        if unit is None:
            raise ValueError("divisor leading coefficient is not a unit monomial")
        sign, e = unit
        quot, rem = divide_terms(self.height_vec, self.terms, divisor.terms,
                                 CoeffElement.q_power(-e, sign), CoeffElement.zero())
        return self._like(quot), self._like(rem)


def poly_from_int_terms(height_vec: tuple[int, ...], table: dict[Weight, int],
                        meta: dict | None = None) -> WeightPolynomial:
    return WeightPolynomial(
        height_vec,
        {w: CoeffElement.from_int(c) for w, c in table.items() if c != 0},
        meta,
    )


def divide_terms(height_vec: tuple[int, ...], numer: dict, denom: dict,
                 inverse, zero) -> tuple[dict, dict]:
    """Divide weight -> coefficient tables by leading-term elimination.

    Weights are taken in the fixed order (descending height, then
    lexicographic) from a heap.  Coefficients are ints or CoeffElements;
    ``inverse`` is the inverse of ``denom``'s leading coefficient, which must
    be a ring unit, and ``zero`` is the ring's zero.  Returns (quotient,
    remainder).  Divergence on inexact input is cut off by the trailing-key
    floor: in an exact division every quotient weight key is at least
    trailing(numer) - trailing(denom).
    """
    def rank(w: Weight):  # heap order: the leading weight comes first
        return (-sum(map(mul, height_vec, w)), tuple(map(neg, w)), w)

    quot: dict = {}
    rem = dict(numer)
    if not rem:
        return quot, rem
    lead_w = min(denom, key=rank)
    floor = rank(tuple(map(sub, max(rem, key=rank), max(denom, key=rank))))
    heap = [rank(w) for w in rem]
    heapq.heapify(heap)
    while heap:
        w = heapq.heappop(heap)[2]
        if w not in rem:
            continue  # eliminated after it was pushed
        gamma = tuple(map(sub, w, lead_w))
        if rank(gamma) > floor:
            break  # cannot belong to any exact quotient
        qc = rem[w] * inverse
        quot[gamma] = qc
        for dw, dc in denom.items():
            tw = tuple(map(add, gamma, dw))
            old = rem.get(tw)
            if old is None:
                rem[tw] = -(qc * dc)
                heapq.heappush(heap, rank(tw))
            else:
                upd = old - qc * dc
                if upd == zero:
                    del rem[tw]
                else:
                    rem[tw] = upd
    return quot, rem
