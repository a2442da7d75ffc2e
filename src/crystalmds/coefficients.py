"""Symbolic coefficient ring over formal Gauss sums, a numeric oracle, and
the coefficient rules of decorated patterns.

Coefficients of crystal sums live in the commutative ring

    Z[q, q^-1][ g_t(c) : t in {1,2}, c a residue class ]

where ``q`` is a formal variable (the residue-field order) and ``g_t(c)`` is
an unexpanded unit-scale Gauss sum depending only on the residue class ``c``
of its argument modulo the cover degree ``n``.  The companion sum ``h_t(a)``
always collapses to an explicit Laurent polynomial in ``q``::

    h_t(a) = (q - 1) * q^(a-1)   if n | t*a,      else 0
    g_t(a) = q^(a-1) * <symbol (t, a mod n)>

``gauss_numeric`` evaluates the defining character sums over an actual
residue ring by direct summation, providing the independent oracle used to
pin these closed forms.  Under degree n = 1 every symbol evaluates to -1
(``specialize_n1``).

``CoeffElement`` stores each monomial ``q^e * prod g_i^(m_i)`` as one int:
``e`` in a low two's-complement field of 64 bits and each multiplicity
``m_i`` in a 48-bit field of its own, one field per distinct ``GaussSymbol``
in order of first use (symbols of every cover degree can mix).  The packing
is linear, so a monomial product is an integer sum and a unit ``q^e`` shift
adds ``e``.  Inputs are held to ``|e| < Q_EXP_LIMIT`` (2^31) and
``1 <= m < POW_LIMIT`` (2^16), and anything outside raises ValueError; that
leaves 32 bits of headroom in every field, so a product of up to 2^32 factors
within those bounds cannot fill a field.  Keys are decoded to the canonical
``(e, sorted ((GaussSymbol, m), ...))`` form only for ``monomials()``, JSON,
``repr`` and ``specialize_n1``: ``e`` by masking the low field, the Gauss
part through ``_gauss_part``, a bounded cache keyed by the symbol bits
``k - e``.  The cache is sound because the fields are append-only, so given
bits decode the same way for the life of the process.  Monomials sort by plain
int tuples ``(e, ((t, residue, degree, m), ...))``, which order exactly as the
canonical form does.

A decorated pattern's coefficient is a product of local factors, one per
slot (``slot_factor``), and each is read off the slot's own row: the entry's
factor in types A, B and C (``entry_factor``), and in type D the product over
the connected components of the row (``row_components``,
``_component_factor``), placed at the row's last slot.  A factor reads
nothing but the slot's local state (``slot_key``), and there are few distinct
states, so ``slot_table`` computes each once for a given (spec, n,
conventions); the prefix products of ``series.p_part`` and the checks of
``series.branch_decompose`` read their factors from one.
``pattern_coefficient`` multiplies the factors of one pattern.
This module holds the whole rule, and it is the only reader of the
``Conventions`` switches that leave the type-D rule open.

Everything here is immutable and safe to share between threads; the table
of symbol fields only grows, under a lock.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import index, itemgetter
from typing import TYPE_CHECKING

from .conventions import DEFAULT, Conventions

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .decorations import DecoratedPattern
    from .roots import CartanSpec


@dataclass(frozen=True, order=True)
class GaussSymbol:
    """Formal unit-scale Gauss sum g_t(residue), taken modulo ``degree``."""

    t: int
    residue: int
    degree: int

    def __post_init__(self):
        if self.t not in (1, 2):
            raise ValueError(f"symbol subscript t must be 1 or 2, got {self.t}")
        if self.degree < 1:
            raise ValueError("cover degree must be >= 1")
        if not 0 <= self.residue < self.degree:
            raise ValueError("residue must be reduced modulo the degree")


# Packed monomial layout (module docstring): e + sum_i m_i << (_Q_BITS +
# i * _POW_BITS), decoded by adding back the borrow of a negative e.
_Q_BITS = 64
_POW_BITS = 48
_Q_HALF = 1 << (_Q_BITS - 1)
_Q_MASK = (1 << _Q_BITS) - 1
_POW_MASK = (1 << _POW_BITS) - 1
Q_EXP_LIMIT = 1 << 31
POW_LIMIT = 1 << 16

_symbols: list[GaussSymbol] = []        # field index -> symbol
_offsets: dict[GaussSymbol, int] = {}   # symbol -> bit offset of its field
_intern_lock = threading.Lock()

# The canonical, unpacked form of a monomial: (q exponent, gauss part), with
# the gauss part a sorted tuple of (GaussSymbol, positive multiplicity).
_GaussPart = tuple[tuple[GaussSymbol, int], ...]
_MonKey = tuple[int, _GaussPart]


def _offset(sym: GaussSymbol) -> int:
    """Bit offset of the field of ``sym``; a new symbol gets the next one."""
    off = _offsets.get(sym)
    if off is None:
        if not isinstance(sym, GaussSymbol):
            raise TypeError(f"expected a GaussSymbol, got {sym!r}")
        with _intern_lock:
            off = _offsets.get(sym)
            if off is None:
                off = _Q_BITS + _POW_BITS * len(_symbols)
                _symbols.append(sym)
                _offsets[sym] = off
    return off


def _q_key(e: int) -> int:
    e = index(e)
    if not -Q_EXP_LIMIT < e < Q_EXP_LIMIT:
        raise ValueError(f"q exponent {e} is outside the bound |e| < {Q_EXP_LIMIT}")
    return e


def _pack(e: int, gauss) -> int:
    k = _q_key(e)
    for sym, m in gauss:
        m = index(m)
        if not 0 < m < POW_LIMIT:
            raise ValueError(f"power {m} of {sym} is outside the bound 1 <= m < {POW_LIMIT}")
        k += m << _offset(sym)
    return k


# Distinct Gauss parts the decode cache keeps; one p_part of the perfbench
# ppart pool decodes 7 to 75 of them.
_DECODE_CACHE_SIZE = 1024


@lru_cache(maxsize=_DECODE_CACHE_SIZE)
def _gauss_part(bits: int) -> tuple[tuple[tuple[int, int, int, int], ...], _GaussPart]:
    """Sort key and canonical Gauss part of the symbol bits ``k - e`` of a
    packed key: ``((t, residue, degree, m), ...)`` and ``((symbol, m), ...)``,
    both in symbol order."""
    rest = bits >> _Q_BITS
    powers = []
    i = 0
    while rest:
        m = rest & _POW_MASK
        if m:
            sym = _symbols[i]
            powers.append(((sym.t, sym.residue, sym.degree, m), (sym, m)))
        rest >>= _POW_BITS
        i += 1
    powers.sort(key=itemgetter(0))
    return tuple(p[0] for p in powers), tuple(p[1] for p in powers)


def _collect(pairs) -> dict[int, int]:
    """Packed dict of (packed key, coefficient) pairs, repeats merged and
    zeros dropped."""
    acc: dict[int, int] = {}
    for k, c in pairs:
        acc[k] = acc.get(k, 0) + c
    return {k: c for k, c in acc.items() if c}


class CoeffElement:
    """Canonical sparse sum of monomials ``int * q^e * product of symbols``.

    Instances are immutable; arithmetic returns new elements with zero terms
    dropped and duplicate monomials merged, so structural equality is ring
    equality.  ``terms`` maps canonical monomials (q exponent, sorted tuple
    of (GaussSymbol, positive multiplicity)) to integers; internally each
    monomial is one packed int (see ``Q_EXP_LIMIT`` and ``POW_LIMIT`` for
    the bounds).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[_MonKey, int] | None = None):
        packed = _collect((_pack(e, g), c) for (e, g), c in (terms or {}).items())
        object.__setattr__(self, "_terms", packed)

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
        return _wrap({0: int(k)} if k else {})

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "CoeffElement":
        return _wrap({_q_key(int(e)): int(coeff)} if coeff else {})

    @staticmethod
    def symbol(sym: GaussSymbol, q_exp: int = 0, coeff: int = 1) -> "CoeffElement":
        return _wrap({_q_key(int(q_exp)) + (1 << _offset(sym)): int(coeff)} if coeff else {})

    # -- ring structure ----------------------------------------------------
    def __add__(self, other: "CoeffElement") -> "CoeffElement":
        if not isinstance(other, CoeffElement):
            return NotImplemented
        if len(self._terms) < len(other._terms):
            self, other = other, self
        if not other._terms:
            return self
        acc = self._terms.copy()
        for k, c in other._terms.items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return _wrap(acc)

    def __neg__(self) -> "CoeffElement":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "CoeffElement") -> "CoeffElement":
        if not isinstance(other, CoeffElement):
            return NotImplemented
        if not other._terms:
            return self
        acc = self._terms.copy()
        for k, c in other._terms.items():
            s = acc.get(k, 0) - c
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
        if len(a) == 1:
            # distinct keys stay distinct under one shift: nothing cancels
            (k1, c1), = a.items()
            return _wrap({k1 + k: c1 * c for k, c in b.items()})
        acc: dict[int, int] = {}
        get = acc.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        if 0 in acc.values():
            acc = {k: c for k, c in acc.items() if c}
        return _wrap(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, CoeffElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- inspection --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def _decoded(self) -> list[tuple[int, tuple, _GaussPart, int]]:
        """(q exponent, sort key, gauss part, int coeff) per monomial, in
        canonical order."""
        mons = []
        for k, c in self._terms.items():
            e = ((k + _Q_HALF) & _Q_MASK) - _Q_HALF
            key, g = _gauss_part(k - e)
            mons.append((e, key, g, c))
        # distinct monomials differ in (e, sort key): no symbol is compared
        mons.sort()
        return mons

    def monomials(self) -> list[tuple[int, int, _GaussPart]]:
        """Monomials as (int coeff, q exponent, gauss part), canonical order."""
        return [(c, e, g) for e, _, g, c in self._decoded()]

    def as_unit_monomial(self) -> tuple[int, int] | None:
        """Return (sign, q_exp) if the element is ±q^e with no symbols."""
        if len(self._terms) != 1:
            return None
        (k, c), = self._terms.items()
        if c not in (1, -1) or not -_Q_HALF <= k < _Q_HALF:
            return None
        return c, k

    def times_unit(self, sign: int, q_exp: int) -> "CoeffElement":
        """Multiply by ±q^e (a ring unit); used by exact division."""
        if sign not in (1, -1):
            raise ValueError(f"unit sign must be 1 or -1, got {sign}")
        e = _q_key(q_exp)
        return _wrap({k + e: sign * c for k, c in self._terms.items()})

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for c, e, g in self.monomials():
            part = [str(c)] if (c != 1 or (e == 0 and not g)) else []
            if e:
                part.append(f"q^{e}" if e != 1 else "q")
            for sym, k in g:
                s = f"g_{sym.t}({sym.residue} mod {sym.degree})"
                part.append(s if k == 1 else f"{s}^{k}")
            bits.append("*".join(part) if part else "1")
        return " + ".join(bits)

    # -- serialization -----------------------------------------------------
    def to_json_obj(self) -> dict:
        """Fresh dicts and lists on every call: callers may change them."""
        return {"monomials": [
            {"int": c, "q": e,
             "gauss": [{"t": t, "c": r, "pow": m} for t, r, _, m in key]}
            for e, key, _, c in self._decoded()]}

    @staticmethod
    def from_json_obj(obj: dict, degree: int) -> "CoeffElement":
        return _wrap(_collect(
            (_pack(mon["q"], [(GaussSymbol(d["t"], d["c"], degree), d["pow"])
                              for d in mon["gauss"]]), mon["int"])
            for mon in obj["monomials"]))


def _wrap(packed: dict[int, int], _new=object.__new__,
          _set=object.__setattr__) -> CoeffElement:
    """Element over an already packed and zero-free dict, taken as is."""
    el = _new(CoeffElement)
    _set(el, "_terms", packed)
    return el


_ZERO = _wrap({})
_ONE = _wrap({0: 1})


# ---------------------------------------------------------------------------
# Gauss-sum closed forms
# ---------------------------------------------------------------------------

def h_value(t: int, a: int, n: int) -> CoeffElement:
    """The collapsed sum h_t(a): (q-1)q^(a-1) when n | t*a, else 0.

    The unit count of the length-a residue ring is (q-1)q^(a-1); the sum
    picks it up exactly when the character t*a is trivial.  Pinned against
    ``gauss_numeric`` for a wide (t, a, n, p) battery.
    """
    _check_ta(t, a, n)
    if (t * a) % n != 0:
        return _ZERO
    return _wrap({_q_key(a): 1, a - 1: -1})


def g_value(t: int, a: int, n: int) -> CoeffElement:
    """The symbolic sum g_t(a) = q^(a-1) * <symbol (t, a mod n)>.

    The symbol is never expanded for n > 1 (no closed form exists in
    general); the n = 1 specialization sends it to -1.
    """
    _check_ta(t, a, n)
    return CoeffElement.symbol(GaussSymbol(t, a % n, n), q_exp=a - 1)


def _check_ta(t: int, a: int, n: int):
    if t not in (1, 2):
        raise ValueError("subscript t must be 1 or 2")
    if a < 1:
        raise ValueError("prime-power exponent a must be >= 1")
    if n < 1:
        raise ValueError("cover degree n must be >= 1")


def specialize_n1(c: CoeffElement) -> CoeffElement:
    """Evaluate a degree-1 element: every symbol becomes -1.

    Rejects symbols carrying a cover degree larger than 1; the result is a
    pure Laurent element in q.
    """
    terms: dict[int, int] = {}
    for k, coeff in c._terms.items():
        e = ((k + _Q_HALF) & _Q_MASK) - _Q_HALF
        for sym, m in _gauss_part(k - e)[1]:
            if sym.degree != 1:
                raise ValueError(f"cannot specialize symbol of degree {sym.degree} at n=1")
            if m % 2:
                coeff = -coeff
        terms[e] = terms.get(e, 0) + coeff
    return _wrap({e: c for e, c in terms.items() if c})


# ---------------------------------------------------------------------------
# Numeric oracle: direct character-sum evaluation over Z / p^c
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _primitive_root(p: int) -> int:
    fac, m = [], p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")  # unreachable for prime p


_CHUNK = 1 << 20


def gauss_numeric(t: int, a_exp: int, c_exp: int, p: int, n: int) -> complex:
    """Direct summation of the Gauss sum with modulus p^c_exp.

    Sums chi(d)^(t*c_exp) * exp(2*pi*i * d * p^a_exp / p^c_exp) over units d
    modulo p^c_exp, where chi is a fixed power-residue character of order n
    modulo p (extended by zero to non-units); the power t*c_exp realises the
    order-n residue symbol of the full modulus applied t times.  Floating
    point; error budget 1e-9 per term.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (p - 1) % n != 0:
        raise ValueError(f"need p = 1 mod n, got p={p}, n={n}")
    if c_exp < 1 or a_exp < 0:
        raise ValueError("need c_exp >= 1 and a_exp >= 0")
    if t not in (1, 2):
        raise ValueError("subscript t must be 1 or 2")
    import numpy as np  # only this oracle needs it; keeps the CLI start light

    # chi(g^k) = exp(2*pi*i*k/n) for a fixed primitive root g.
    ind = np.zeros(p, dtype=np.int64)
    g = _primitive_root(p)
    acc = 1
    for k in range(p - 1):
        ind[acc] = k
        acc = (acc * g) % p
    chi_exp = (ind * (((p - 1) // n) * t * c_exp)) % (p - 1)  # exponent of zeta_(p-1)

    mod = p ** c_exp
    shift = p ** a_exp
    total = 0.0 + 0.0j
    two_pi = 2.0 * np.pi
    for start in range(0, mod, _CHUNK):
        d = np.arange(start, min(start + _CHUNK, mod), dtype=np.int64)
        d = d[(d % p) != 0]
        if d.size == 0:
            continue
        ang = two_pi * (chi_exp[d % p] / float(p - 1) + ((d * shift) % mod) / float(mod))
        total += complex(np.cos(ang).sum(), np.sin(ang).sum())
    return total


# ---------------------------------------------------------------------------
# Decorated-entry contributions
# ---------------------------------------------------------------------------

def entry_factor(family: str, a: int, circled: bool, boxed: bool,
                 middle: bool, n: int) -> CoeffElement:
    """Contribution of one decorated entry in types A, B, C.

    ``middle`` marks the central column of a B/C row; it selects the Gauss
    subscript (t = 1 at the middle in B, t = 2 at the middle in C, the other
    value elsewhere).  Type D contributions are per component, not per entry
    (see ``_component_factor``).
    """
    if family == "A":
        if circled and boxed:
            return _ZERO
        if circled:
            return CoeffElement.q_power(a)
        if boxed:
            return g_value(1, a, n)
        return h_value(1, a, n)
    if family == "B":
        t = 1 if middle else 2
        if circled and boxed:
            return _ZERO
        if circled:
            return _ONE
        if boxed:
            return g_value(t, a, n).times_unit(1, -a)
        return h_value(t, a, n).times_unit(1, -a)
    if family == "C":
        t = 2 if middle else 1
        if circled and boxed:
            return _ZERO
        if circled:
            return CoeffElement.q_power(a)
        if boxed:
            return g_value(t, a, n)
        return h_value(1, a, n)  # already zero unless n | a
    raise ValueError(f"entry_factor does not apply to family {family!r}")


def sigma_entry(a: int, circled: bool, boxed: bool, n: int) -> CoeffElement:
    """Per-entry factor sigma(y) for type D.

    The published rule omits the circled-and-unboxed case; it is completed
    here as 1 (the q^a circling factor against the family's q^-a
    normalization).  ``_component_factor`` evaluates it at the entries a
    component's factor reads; ``count_forced_sigma`` reports how often
    enumerated crystals actually reach the completed case.
    """
    if circled and boxed:
        return _ZERO
    if circled:
        return _ONE
    if boxed:
        return g_value(1, a, n).times_unit(1, -a)
    return h_value(1, a, n).times_unit(1, -a)


# ---------------------------------------------------------------------------
# Type-D components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentD:
    """Maximal run of equal entries in one type-D row.

    ``kind`` is "generic", "ml" (spans the middle asymmetrically) or "sml"
    (spans the middle symmetrically: j1 + j2 = 2r - 1).  ``length`` is half
    the vertex count of a symmetric run; ``shorter_leg_col`` points at the
    run end nearer the middle for an asymmetric one.
    """

    row: int
    j1: int
    j2: int
    value: int
    kind: str
    length: int | None = None
    shorter_leg_col: int | None = None


def row_components(spec: CartanSpec, i: int, row, conv: Conventions = DEFAULT
                   ) -> tuple[ComponentD, ...]:
    """Partition row ``i`` of a type-D pattern, given as its values left to
    right, into components."""
    r = spec.rank
    runs: list[tuple[int, int]] = []
    start = 0
    while start < len(row):
        end = start
        while end + 1 < len(row) and row[end + 1] == row[start]:
            end += 1
        runs.append((i + start, i + end))
        start = end + 1
    if conv.d_component_rule == "strict" and (r - 1, r) in runs:
        # equal central pair with no shared equal neighbour
        k = runs.index((r - 1, r))
        runs[k:k + 1] = [(r - 1, r - 1), (r, r)]
    return tuple(_classify(r, i, row[j1 - i], j1, j2, conv) for j1, j2 in runs)


def _classify(r: int, i: int, value: int, j1: int, j2: int,
              conv: Conventions) -> ComponentD:
    if conv.ml_span_rule == "legs":
        spans = j1 <= r - 2 and j2 >= r + 1
    else:
        spans = j1 <= r - 1 and j2 >= r
    if not spans:
        return ComponentD(i, j1, j2, value, "generic")
    if j1 + j2 == 2 * r - 1:
        return ComponentD(i, j1, j2, value, "sml", length=r - j1)
    left, right = (r - 1) - j1, j2 - r
    shorter = j1 if left < right else j2
    return ComponentD(i, j1, j2, value, "ml", shorter_leg_col=shorter)


def _component_factor(comp: ComponentD, row, crow, brow, n: int,
                      _sigma=sigma_entry) -> CoeffElement:
    """sigma of one component, read off its row: the row's values and its
    circled and boxed marks, each indexed by column minus the row index.
    The one place that knows which entries a component's sigma reads; each
    read goes through ``_sigma``, the per-entry factor."""
    i = comp.row
    if any(crow[j - i] and brow[j - i] for j in range(comp.j1, comp.j2 + 1)):
        return _ZERO
    if comp.kind != "sml":
        off = (comp.shorter_leg_col if comp.kind == "ml" else comp.j2) - i
        return _sigma(row[off], crow[off], brow[off], n)
    # symmetric multiple leaner
    if comp.value == 0:
        return _ONE
    off = comp.j2 - i
    right = _sigma(comp.value, crow[off], brow[off], n)
    if brow[off]:
        second = _sigma(row[off - 1], crow[off - 1], brow[off - 1], n)
        return right * second * CoeffElement.q_power(1 - comp.length)
    return right * (_ONE - CoeffElement.q_power(-comp.length))


def slot_factor(spec: CartanSpec, i: int, j: int, row, crow, brow, n: int,
                conv: Conventions = DEFAULT) -> CoeffElement:
    """Factor of slot (i, j), read off row ``i`` alone: its values and its
    circled and boxed marks, each indexed by column minus the row index.

    In types A, B and C this is the entry's own factor.  In type D the row
    contributes the product of its component factors at its last slot in
    enumeration order (j == i, where the row is complete), and every other
    slot contributes 1.
    """
    if spec.family != "D":
        off = j - i
        return entry_factor(spec.family, row[off], crow[off], brow[off],
                            j == spec.rank, n)
    if j != i:
        return _ONE
    out = _ONE
    for comp in row_components(spec, i, row, conv):
        out = out * _component_factor(comp, row, crow, brow, n)
        if out.is_zero():
            return _ZERO
    return out


def slot_key(spec: CartanSpec, i: int, j: int, row, crow, brow):
    """Everything ``slot_factor`` reads of slot (i, j) besides the spec, the
    cover degree and the conventions, as a hashable key: the entry's value
    and marks and whether it sits in the middle column in types A, B and C,
    the row index and the whole row in type D.  None for a type-D slot
    before its row's last slot, whose factor is 1."""
    if spec.family != "D":
        off = j - i
        return j == spec.rank, row[off], crow[off], brow[off]
    if j != i:
        return None
    return i, tuple(row), tuple(crow), tuple(brow)


def slot_table(spec: CartanSpec, n: int, conv: Conventions = DEFAULT):
    """``slot_factor`` at this spec, cover degree and conventions, as a
    function of (i, j, row, crow, brow) that computes the factor of each
    distinct ``slot_key`` once.  The factors live in a dict owned by the
    returned function, so they last as long as the caller keeps it."""
    factors: dict = {}

    def factor(i, j, row, crow, brow) -> CoeffElement:
        key = slot_key(spec, i, j, row, crow, brow)
        if key is None:
            return _ONE
        f = factors.get(key)
        if f is None:
            f = factors[key] = slot_factor(spec, i, j, row, crow, brow, n, conv)
        return f

    return factor


def pattern_coefficient(dp: DecoratedPattern, n: int,
                        conv: Conventions = DEFAULT, factor=None) -> CoeffElement:
    """Total coefficient of a decorated pattern: the product of its slot
    factors, read from ``factor`` when given (a ``slot_table`` of the
    pattern's spec at ``n`` and ``conv``), else from ``slot_factor``."""
    L = dp.pattern
    if factor is None:
        factor = partial(slot_factor, L.spec, n=n, conv=conv)
    out = _ONE
    for i, j in L.positions():
        k = i - 1
        out = out * factor(i, j, L.rows[k], dp.circled[k], dp.boxed[k])
        if out.is_zero():
            return _ZERO
    return out


def count_forced_sigma(dp: DecoratedPattern) -> int:
    """Number of sigma evaluations on a circled-and-unboxed entry for this
    pattern (the case the published rule leaves open), counted by running
    every component's factor with a counting sigma."""
    spec = dp.pattern.spec
    if spec.family != "D":
        return 0
    forced = 0

    def counting_sigma(a, circled, boxed, n):
        nonlocal forced
        forced += circled and not boxed
        return sigma_entry(a, circled, boxed, n)

    for k, row in enumerate(dp.pattern.rows):
        for comp in row_components(spec, k + 1, row):
            _component_factor(comp, row, dp.circled[k], dp.boxed[k], 1, counting_sigma)
    return forced
