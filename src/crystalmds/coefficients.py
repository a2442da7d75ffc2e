"""Symbolic coefficient ring over formal Gauss sums and the coefficient rules
of decorated patterns.

Coefficients of crystal sums live in the commutative ring

    Z[q, q^-1][ g_t(c) : t in {1,2}, c a residue class ]

where ``q`` is a formal variable (the residue-field order) and ``g_t(c)`` is
an unexpanded unit-scale Gauss sum depending only on the residue class ``c``
of its argument modulo the cover degree ``n``.  The companion sum ``h_t(a)``
always collapses to an explicit Laurent polynomial in ``q``::

    h_t(a) = (q - 1) * q^(a-1)   if n | t*a,      else 0
    g_t(a) = q^(a-1) * <symbol (t, a mod n)>      for n >= 2
    g_t(a) = -q^(a-1)                             for n = 1

At n = 1 the character is trivial: ``g_value`` returns -q^(a-1) itself and
``GaussSymbol`` rejects degree 1, so every n = 1 coefficient is a Laurent
polynomial in ``q``.  The gauss suite of ``verification`` pins these closed
forms against the defining character sums, summed exactly in a prime field.

``CoeffElement`` stores each monomial ``q^e * prod g_i^(m_i)`` as one int:
``e`` in a low two's-complement field of 64 bits and each multiplicity
``m_i`` in a 48-bit field of its own, one field per distinct ``GaussSymbol``
in order of first use (symbols of every cover degree can mix).  The packing
is linear, so a monomial product is an integer sum and a unit ``q^e`` shift
adds ``e``.  Elements are built only by ``zero``, ``one``, ``from_int``,
``q_power``, ``symbol`` and ``from_packed``, and ``CoeffElement(...)`` raises
TypeError.  ``q_power`` and ``symbol`` take integers only, hold
``|e| < Q_EXP_LIMIT`` (2^31) and raise ValueError otherwise, and give each
symbol power 1, so a product of up to 2^32 such factors cannot fill a field.
Keys are decoded to the canonical ``(e, sorted ((GaussSymbol, m), ...))`` form
only for ``monomials()``, JSON and ``repr``: ``e`` by masking the low field,
the Gauss part through ``_gauss_part``, a bounded cache keyed by the symbol
bits ``k - e``.  It holds each part in its three output forms: the canonical
tuple, the JSON list of ``{"t", "c", "pow"}`` dicts and the ``repr`` factors,
so each distinct part is rendered once.  ``json_monomials`` renders a packed
dict with the cached lists shared, read-only, and ``to_json_obj`` copies
them.  The cache is sound because the fields are append-only, so given bits
decode the same way for the life of the process.  ``packed`` and
``from_packed`` hand the packed dict over as it is, with no copy:
``packed()`` is shared and read-only, and ``from_packed`` takes its dict
over as it is, with no zero coefficient in it.  ``__mul__`` and the row
sums of ``series`` share one product, ``mul_into``, which adds keys, so no
other module reads a key; it deletes a key whose sum cancels to 0, so its
dicts stay zero-free and nothing scans them for zeros.  Monomials sort by
their canonical form, a ``GaussSymbol`` as its (t, residue, degree).

A polynomial in q, with no Gauss symbol and no negative exponent, also
has a value at q = 2^B: ``kronecker_encode`` sends sum c * q^e to
sum c * 2^(B * e), and ``kronecker_decode`` reads such an int back as signed
base-2^B digits, which recovers every polynomial whose coefficients lie
strictly inside +-2^(B-1).  ``series`` checks Tokuyama's factorization on
these values, one bigint per coefficient.

A decorated pattern's coefficient is a product of slot factors, all from one
entry rule (``entry_factor``): 0 for a circled and boxed entry a, else q^a,
g_t(a) or h(a) as it is circled, boxed or neither, times q^-a in types B and
D.  A slot's factor is its entry's in types A, B and C.  In type D a row
splits into components, its runs of equal entries (``row_components``), and
each component's factor (``_component_factor``) reads only its own run; a
slot's factor is the product over the runs that close there, in the walk's
right-to-left order: the run to its right when the entries differ, and at
the row's last slot the run holding it too.  So each component is taken
once, at the first slot where it is complete, and a zero prunes the rest of
its row.  ``slot_table`` keys each factor by exactly what it reads, an entry
by (value, circled, boxed, middle) and a run by (j1, value, circled marks,
boxed marks), and computes each distinct key's once for a given (spec, n);
the walks of ``series`` multiply its factors into prefix products.  Given
a map, the table hands out each factor's image instead, so the same walks
multiply in the map's ring.
``pattern_coefficient``, the per-pattern definition they are checked
against, multiplies one pattern's slot factors.  This module holds the
whole rule.

Everything here is immutable; the table of symbol fields only grows.
"""
from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .patterns import DecoratedPattern
    from .roots import CartanSpec


def _integer(name: str, v) -> int:
    """``v`` as an int (``operator.index``): a ValueError naming ``name`` for
    anything that is not an integer, such as a float."""
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {v!r}") from None


class _GaussFields(NamedTuple):
    t: int
    residue: int
    degree: int


class GaussSymbol(_GaussFields):
    """Formal unit-scale Gauss sum g_t(residue), taken modulo ``degree``;
    symbols order as their (t, residue, degree) tuples.

    The degree is at least 2: at degree 1 the sum is the number -1, which
    ``g_value`` returns in place of a symbol.  The fields are checked on
    every construction: by call, ``_make`` and ``_replace``.
    """
    __slots__ = ()

    def __new__(cls, t: int, residue: int, degree: int):
        t, residue, degree = (_integer(f"symbol {name}", v)
                              for name, v in zip(cls._fields, (t, residue, degree)))
        if t not in (1, 2):
            raise ValueError(f"symbol subscript t must be 1 or 2, got {t}")
        if degree < 2:
            raise ValueError(f"a Gauss symbol needs cover degree >= 2, got {degree}")
        if not 0 <= residue < degree:
            raise ValueError("residue must be reduced modulo the degree")
        return super().__new__(cls, t, residue, degree)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


# Packed monomial layout (module docstring): e + sum_i m_i << (_Q_BITS +
# i * _POW_BITS), decoded by adding back the borrow of a negative e.
_Q_BITS = 64
_POW_BITS = 48
_Q_HALF = 1 << (_Q_BITS - 1)
_Q_MASK = (1 << _Q_BITS) - 1
_POW_MASK = (1 << _POW_BITS) - 1
Q_EXP_LIMIT = 1 << 31

_symbols: list[GaussSymbol] = []        # field index -> symbol
_offsets: dict[GaussSymbol, int] = {}   # symbol -> bit offset of its field

# The canonical, unpacked Gauss part of a monomial: a sorted tuple of
# (GaussSymbol, positive multiplicity).
_GaussPart = tuple[tuple[GaussSymbol, int], ...]


def _offset(sym: GaussSymbol) -> int:
    """Bit offset of the field of ``sym``; a new symbol gets the next one."""
    off = _offsets.get(sym)
    if off is None:
        if not isinstance(sym, GaussSymbol):
            raise TypeError(f"expected a GaussSymbol, got {sym!r}")
        off = _offsets[sym] = _Q_BITS + _POW_BITS * len(_symbols)
        _symbols.append(sym)
    return off


def _q_key(e: int) -> int:
    e = _integer("q exponent", e)
    if not -Q_EXP_LIMIT < e < Q_EXP_LIMIT:
        raise ValueError(f"q exponent {e} is outside the bound |e| < {Q_EXP_LIMIT}")
    return e


# Distinct Gauss parts the decode cache keeps; one p_part of the perfbench
# ppart pool decodes 7 to 75 of them.
_DECODE_CACHE_SIZE = 1024


@lru_cache(maxsize=_DECODE_CACHE_SIZE)
def _gauss_part(bits: int) -> tuple[_GaussPart, list[dict], tuple[str, ...]]:
    """The Gauss part of the symbol bits ``k - e`` of a packed key in its
    three output forms: canonical ``((symbol, m), ...)`` in symbol order,
    its JSON list of ``{"t", "c", "pow"}`` dicts, which every caller shares,
    so it is read-only, and its ``repr`` factors."""
    rest = bits >> _Q_BITS
    powers = []
    i = 0
    while rest:
        m = rest & _POW_MASK
        if m:
            powers.append((_symbols[i], m))
        rest >>= _POW_BITS
        i += 1
    powers.sort()
    text = (f"g_{t}({r} mod {d})" + (f"^{m}" if m != 1 else "") for (t, r, d), m in powers)
    return (tuple(powers), [{"t": t, "c": r, "pow": m} for (t, r, _), m in powers],
            tuple(text))


def _monomials(packed: dict[int, int], form: int) -> list[tuple]:
    """(q exponent, gauss part, int coeff, the part's form ``form`` of
    ``_gauss_part``) per monomial of a packed dict, in canonical order.  No
    two monomials share a (q exponent, gauss part), so the sort never
    compares further."""
    mons = []
    for k, c in packed.items():
        e = ((k + _Q_HALF) & _Q_MASK) - _Q_HALF
        forms = _gauss_part(k - e)
        mons.append((e, forms[0], c, forms[form]))
    mons.sort()
    return mons


def json_monomials(packed: dict[int, int]) -> list[dict]:
    """The JSON ``monomials`` list of a packed monomial dict, in canonical
    order.  Each monomial is a fresh dict, but its ``gauss`` list is the
    decode cache's own, shared by every monomial of that Gauss part: do not
    change it."""
    return [{"int": c, "q": e, "gauss": g} for e, _, c, g in _monomials(packed, 1)]


def mul_into(acc: dict[int, int], a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """``acc`` plus the product of the zero-free packed monomial dicts ``a``
    and ``b``, added in place by key sums.  A key whose sum reaches 0 is
    deleted, so a zero-free ``acc`` stays zero-free, and may end as ``{}``."""
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            c = get(k, 0) + c1 * c2
            if c:
                acc[k] = c
            else:
                del acc[k]
    return acc


def _monomial(key: int, coeff) -> "CoeffElement":
    """The element ``coeff`` times the monomial of packed ``key``."""
    coeff = _integer("coefficient", coeff)
    return _wrap({key: coeff} if coeff else {})


class CoeffElement:
    """Canonical sparse sum of monomials ``int * q^e * product of symbols``.

    Instances are immutable; arithmetic returns new elements with zero terms
    dropped and duplicate monomials merged, so structural equality is ring
    equality.  Each monomial is one packed int (module docstring); build
    elements with the static constructors below, since calling the class
    itself raises TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, *a, **k):
        raise TypeError("build elements with zero, one, from_int, q_power, symbol or from_packed")

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("CoeffElement is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "CoeffElement":
        return _ZERO

    @staticmethod
    def one() -> "CoeffElement":
        return _ONE

    @staticmethod
    def from_int(k: int) -> "CoeffElement":
        return CoeffElement.q_power(0, k)

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "CoeffElement":
        return _monomial(_q_key(e), coeff)

    @staticmethod
    def symbol(sym: GaussSymbol, q_exp: int = 0, coeff: int = 1) -> "CoeffElement":
        return _monomial(_q_key(q_exp) + (1 << _offset(sym)), coeff)

    # -- ring structure ----------------------------------------------------
    def __add__(self, other: "CoeffElement") -> "CoeffElement":
        if not isinstance(other, CoeffElement):
            return NotImplemented
        if len(self._terms) < len(other._terms):
            self, other = other, self
        return self._plus(other, 1)

    def __neg__(self) -> "CoeffElement":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "CoeffElement") -> "CoeffElement":
        if not isinstance(other, CoeffElement):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other: "CoeffElement", sign: int) -> "CoeffElement":
        """self + sign * other, merged into a copy of self's terms."""
        if not other._terms:
            return self
        acc = self._terms.copy()
        for k, c in other._terms.items():
            s = acc.get(k, 0) + sign * c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return _wrap(acc)

    def __mul__(self, other: "CoeffElement") -> "CoeffElement":
        if not isinstance(other, CoeffElement):
            return NotImplemented
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return _ZERO
        return _wrap(mul_into({}, a, b))

    def __eq__(self, other) -> bool:
        return isinstance(other, CoeffElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- inspection --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def monomials(self) -> list[tuple[int, int, _GaussPart]]:
        """Monomials as (int coeff, q exponent, gauss part), canonical order."""
        return [(c, e, g) for e, g, c, _ in _monomials(self._terms, 0)]

    def packed(self) -> dict[int, int]:
        """Packed monomial key -> int coefficient; shared, so do not change it."""
        return self._terms

    @staticmethod
    def from_packed(packed: dict[int, int]) -> "CoeffElement":
        """Inverse of ``packed``: the element takes ``packed`` over without
        a copy, so the caller must not change it afterwards.  ``packed`` must
        hold no zero coefficient.  Each key must be a packed monomial within
        the bounds, as sums and differences of packed keys that stay within
        them are."""
        return _wrap(packed)

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for e, g, c, text in _monomials(self._terms, 2):
            part = [str(c)] if (c != 1 or (e == 0 and not g)) else []
            if e:
                part.append(f"q^{e}" if e != 1 else "q")
            part.extend(text)
            bits.append("*".join(part) if part else "1")
        return " + ".join(bits)

    # -- serialization -----------------------------------------------------
    def to_json_obj(self) -> dict:
        """Fresh dicts and lists on every call: callers may change them."""
        return {"monomials": [{**mon, "gauss": [dict(d) for d in mon["gauss"]]}
                              for mon in json_monomials(self._terms)]}


def _wrap(packed: dict[int, int], _new=object.__new__,
          _set=object.__setattr__) -> CoeffElement:
    """Element over an already packed and zero-free dict, taken as is."""
    el = _new(CoeffElement)
    _set(el, "_terms", packed)
    return el


_ZERO = _wrap({})
_ONE = _wrap({0: 1})


def kronecker_encode(packed: dict[int, int], bits: int) -> int:
    """The value at q = 2^bits of a packed monomial dict that holds a
    polynomial in q: sum c * 2^(bits * e).  A negative exponent or a Gauss
    symbol has no such value, and raises ValueError."""
    v = 0
    for k, c in packed.items():
        if not 0 <= k < Q_EXP_LIMIT:
            raise ValueError(f"q = 2^{bits} takes polynomials in q only: monomial key {k} "
                             "has a negative q exponent or a Gauss symbol")
        v += c << bits * k
    return v


def kronecker_decode(v: int, bits: int) -> dict[int, int]:
    """The packed monomial dict of the polynomial whose value at q = 2^bits
    is ``v`` and whose coefficients lie strictly inside +-2^(bits-1):
    ``v`` read as signed base-2^bits digits, low digit first, without the
    zero ones.  The inverse of ``kronecker_encode`` on such polynomials."""
    base, half = 1 << bits, 1 << (bits - 1)
    out = {}
    e = 0
    while v:
        d = v & (base - 1)
        if d >= half:
            d -= base
        if d:
            out[e] = d
        v = (v - d) >> bits
        e += 1
    return out


# ---------------------------------------------------------------------------
# Gauss-sum closed forms
# ---------------------------------------------------------------------------

def h_value(t: int, a: int, n: int) -> CoeffElement:
    """The collapsed sum h_t(a): (q-1)q^(a-1) when n | t*a, else 0.

    The unit count of the length-a residue ring is (q-1)q^(a-1); the sum
    picks it up exactly when the character t*a is trivial.  Pinned against
    the exact sums of ``verification.gauss_exact`` for a wide (t, a, n, p)
    battery.
    """
    _check_ta(t, a, n)
    if (t * a) % n != 0:
        return _ZERO
    return _wrap({_q_key(a): 1, a - 1: -1})


def g_value(t: int, a: int, n: int) -> CoeffElement:
    """The sum g_t(a): q^(a-1) * <symbol (t, a mod n)> for n >= 2.

    The symbol is never expanded (no closed form exists in general).  At
    n = 1 the character is trivial and the sum is exactly -q^(a-1), which
    is returned as is, so no degree-1 symbol is ever built.
    """
    _check_ta(t, a, n)
    if n == 1:
        return CoeffElement.q_power(a - 1, -1)
    return CoeffElement.symbol(GaussSymbol(t, a % n, n), q_exp=a - 1)


def _check_ta(t: int, a: int, n: int):
    for name, v in (("subscript t", t), ("prime-power exponent a", a), ("cover degree n", n)):
        _integer(name, v)
    if t not in (1, 2):
        raise ValueError("subscript t must be 1 or 2")
    if a < 1:
        raise ValueError("prime-power exponent a must be >= 1")
    if n < 1:
        raise ValueError("cover degree n must be >= 1")


# ---------------------------------------------------------------------------
# Decorated-entry contributions
# ---------------------------------------------------------------------------

def entry_factor(family: str, a: int, circled: bool, boxed: bool,
                 middle: bool, n: int) -> CoeffElement:
    """Factor of one decorated entry ``a``, in every family: 0 if circled and
    boxed, else u * q^a if circled, u * g_t(a) if boxed and u * h_s(a) if
    neither.  The unit u is q^-a in types B and D, so a circled entry gives
    the ring's one itself there, and 1 in A and C.  The subscript t is 2 off
    the ``middle`` column in B and at it in C, and 1 elsewhere; s is t in B
    and 1 in A, C and D.  Type D applies the rule to the entries a component
    reads (``_component_factor``), and its circled-and-unboxed case, which
    the published rule leaves open, is completed as 1, as in type B.
    """
    if family not in ("A", "B", "C", "D"):
        raise ValueError(f"entry_factor does not apply to family {family!r}")
    if circled and boxed:
        return _ZERO
    normalized = family in ("B", "D")
    if circled:
        return _ONE if normalized else CoeffElement.q_power(a)
    t = 1
    if family == "B" and not middle:
        t = 2
    elif family == "C" and middle:
        t = 2
    f = g_value(t, a, n) if boxed else h_value(t if family == "B" else 1, a, n)
    return f * CoeffElement.q_power(-a) if normalized else f


# ---------------------------------------------------------------------------
# Type-D components
# ---------------------------------------------------------------------------

class ComponentD(NamedTuple):
    """Maximal run of equal entries in one type-D row, over flat columns
    j1..j2.

    ``kind`` is "generic", "ml" (spans the middle asymmetrically) or "sml"
    (spans the middle symmetrically: j1 + j2 = 2r - 1).  ``length`` is half
    the vertex count of a symmetric run; ``shorter_leg_col`` points at the
    run end nearer the middle for an asymmetric one.  Nothing here depends
    on the row the run lies in.
    """

    j1: int
    j2: int
    value: int
    kind: str
    length: int | None = None
    shorter_leg_col: int | None = None


def _run_end(row, start: int) -> int:
    """End (exclusive) of the maximal run of equal entries from ``start``."""
    v, end = row[start], start + 1
    while end < len(row) and row[end] == v:
        end += 1
    return end


def row_components(spec: CartanSpec, i: int, row) -> tuple[ComponentD, ...]:
    """Partition row ``i`` of a type-D pattern, given as its values left to
    right, into components: each maximal run of equal entries is one."""
    comps = []
    start = 0
    while start < len(row):
        end = _run_end(row, start)
        comps.append(_classify(spec.rank, row[start], i + start, i + end - 1))
        start = end
    return tuple(comps)


def _classify(r: int, value: int, j1: int, j2: int) -> ComponentD:
    # a multiple leaner is a run covering both central columns r - 1 and r
    if j1 > r - 1 or j2 < r:
        return ComponentD(j1, j2, value, "generic")
    if j1 + j2 == 2 * r - 1:
        return ComponentD(j1, j2, value, "sml", length=r - j1)
    left, right = (r - 1) - j1, j2 - r
    shorter = j1 if left < right else j2
    return ComponentD(j1, j2, value, "ml", shorter_leg_col=shorter)


def _component_factor(comp: ComponentD, i: int, crow, brow, entry) -> CoeffElement:
    """sigma of one component, read off the circled and boxed marks ``crow``
    and ``brow`` of its row ``i``, each indexed by column minus ``i``; every
    entry of the run is ``comp.value``.  The one place that knows which
    entries a component's sigma reads, all inside its own run; each read
    goes through ``entry(a, circled, boxed, middle)``, the per-entry factor
    at family D."""
    if any(crow[j - i] and brow[j - i] for j in range(comp.j1, comp.j2 + 1)):
        return _ZERO
    a = comp.value
    if comp.kind != "sml":
        off = (comp.shorter_leg_col if comp.kind == "ml" else comp.j2) - i
        return entry(a, crow[off], brow[off], False)
    # symmetric multiple leaner
    if a == 0:
        return _ONE
    off = comp.j2 - i
    right = entry(a, crow[off], brow[off], False)
    if brow[off]:
        second = entry(a, crow[off - 1], brow[off - 1], False)
        return right * second * CoeffElement.q_power(1 - comp.length)
    return right * (_ONE - CoeffElement.q_power(-comp.length))


def slot_table(spec: CartanSpec, n: int, ring_map: Callable | None = None):
    """The slot factors at this spec and cover degree, as a function of
    (i, j, row, crow, brow): row ``i``'s values and circled and boxed marks,
    each indexed by column minus ``i``, of which only columns j and up,
    placed before the slot in enumeration order, are read.  A slot's factor
    is its entry's ``entry_factor`` in types A, B and C.  In type D it is
    the product of the factors of the runs that close at the slot: the run
    from column j + 1 where a(i, j) differs from a(i, j + 1), and at the
    row's last slot (j == i) the run holding column i too, so each component
    closes at exactly one slot of its row; 1 where none closes.  One dict,
    owned by the returned function, holds every factor computed, keyed by
    all it reads: an entry's by (value, circled, boxed, middle), a run's
    ``_component_factor`` by (j1, value, circled marks, boxed marks), with
    no row index, so rows share it.  Component factors read their entries
    through the same dict, so each distinct key is computed once for as
    long as the caller keeps the function.

    The table owns the check of ``n``, an integer >= 1, else ValueError:
    every crystal sum with coefficients builds one before it walks, and so
    does ``pattern_coefficient``, whatever entries the pattern holds.

    ``ring_map``, if given, is a ring map from ``CoeffElement``: the function
    then returns each slot factor's image, applied once per factor it
    computes, and its ``one`` attribute, the ring's one that a product of
    factors starts from, is the image of 1 (1 for ``kronecker_encode``'s
    ints).  In type D a run's factor is the image of its product: the
    entries it reads stay elements, under keys that no run's key equals."""
    if _integer("cover degree n", n) < 1:
        raise ValueError("cover degree n must be >= 1")
    factors: dict = {}
    family, rank = spec.family, spec.rank  # read once: no field read per slot
    image = ring_map or (lambda f: f)
    one = image(_ONE)

    if family != "D":
        def factor(i, j, row, crow, brow):
            off = j - i
            key = row[off], crow[off], brow[off], j == rank
            f = factors.get(key)
            if f is None:
                f = factors[key] = image(entry_factor(family, *key, n))
            return f
        factor.one = one
        return factor

    def entry(a, circled, boxed, middle) -> CoeffElement:
        key = a, circled, boxed, middle
        f = factors.get(key)
        if f is None:
            f = factors[key] = entry_factor(family, a, circled, boxed, middle, n)
        return f

    def run(i, start, row, crow, brow):
        end = _run_end(row, start)
        key = i + start, row[start], tuple(crow[start:end]), tuple(brow[start:end])
        f = factors.get(key)
        if f is None:
            comp = _classify(rank, row[start], i + start, i + end - 1)
            f = factors[key] = image(_component_factor(comp, i, crow, brow, entry))
        return f

    def closing(i, j, row, crow, brow):
        off = j - i
        nxt = off + 1
        f = run(i, nxt, row, crow, brow) if nxt < len(row) and row[nxt] != row[off] else one
        return f * run(i, 0, row, crow, brow) if off == 0 else f

    closing.one = one
    return closing


def pattern_coefficient(dp: DecoratedPattern, n: int) -> CoeffElement:
    """Total coefficient of a decorated pattern: the product of its slot
    factors, from a ``slot_table`` of its own, which checks ``n``."""
    L = dp.pattern
    factor = slot_table(L.spec, n)
    out = _ONE
    for i, j, _ in L.entries():
        k = i - 1
        out = out * factor(i, j, L.rows[k], dp.circled[k], dp.boxed[k])
        if out.is_zero():
            return _ZERO
    return out
