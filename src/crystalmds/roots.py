"""Exact root-system data for types A/B/C/D in Littelmann's numbering.

The numbering runs the Dynkin diagram mirror-image to Bourbaki: index 1 is
the short simple root in type B, the long simple root in type C, and indices
1 and 2 are the two orthogonal fork-end roots in type D.  With this choice
the rank-(r-1) subsystem spanned by indices 1..r-1 is of the same family,
which is what makes top-row deletion of patterns a branching operation.

Weights are plain integer tuples in the fundamental-weight basis throughout
the package, and all weight arithmetic is integer.  Fractions appear only in
the root data built here: the symmetrizer, the inverse Cartan matrix, root
coordinates and the Weyl dimension product.

The Weyl character comes from the Demazure character formula: the Demazure
operators of ``nice_long_word``, the word the patterns are strings along,
applied to x^lam.  It does not use the pattern walk, so it cross-checks it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .coefficients import _integer
from .weightpoly import (Weight, WeightCodec, WeightPolynomial, poly_from_packed,
                         weight_codec)

FAMILIES = ("A", "B", "C", "D")
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# Largest rank accepted.  ``build_root_system`` grows with rank^3 to rank^4
# (r^2 positive roots, each reflected through r simple roots with length-r
# weights): under a second at rank 100 on one core, and without a cap a
# hostile rank such as 3000 runs for minutes before any output.
MAX_RANK = 100


class _CartanFields(NamedTuple):
    family: str
    rank: int


class CartanSpec(_CartanFields):
    """A Cartan family and rank, checked on every construction: by call,
    ``_make`` and ``_replace``."""
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        rank = _integer("rank", rank)
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if rank < _MIN_RANK[family]:
            raise ValueError(f"family {family} needs rank >= {_MIN_RANK[family]}, got {rank}")
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} exceeds the supported maximum {MAX_RANK}")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def positive_root_count(self) -> int:
        r = self.rank
        if self.family == "A":
            return r * (r + 1) // 2
        if self.family == "D":
            return r * r - r
        return r * r


class RootSystem(NamedTuple):
    """Cartan data plus derived exact structures.

    ``cartan[i][j]`` is the pairing of the j-th simple root against the i-th
    simple coroot (0-based storage, 1-based indices in the API).  Columns of
    the Cartan matrix are the simple roots in fundamental-weight coordinates.
    """

    spec: CartanSpec
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[Fraction, ...]
    cartan_inverse: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[Weight, ...]                  # fundamental-weight coords
    positive_roots_root_coords: tuple[tuple[int, ...], ...]
    height_vec: tuple[int, ...]                          # integer-scaled height functional

    # -- basic data ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def family(self) -> str:
        return self.spec.family

    def simple_root(self, k: int) -> Weight:
        """k-th simple root (1-based) in fundamental-weight coordinates."""
        return tuple(self.cartan[i][k - 1] for i in range(self.rank))

    def root_coordinates(self, w: Weight) -> tuple[Fraction, ...]:
        """Coordinates of a lattice point in the simple-root basis (exact).

        The package itself does not call this; the traced tokuyama workload
        in ``perfbench/workloads.py`` does.  It goes when that workload times
        the package's own twisted character (ROADMAP item 9)."""
        ainv = self.cartan_inverse
        return tuple(sum(ainv[k][i] * w[i] for i in range(self.rank))
                     for k in range(self.rank))


def _checked_weight(spec: CartanSpec, w: Weight) -> Weight:
    """``w`` as a tuple of ints; a ValueError unless it has one integer
    coordinate per rank."""
    w = tuple(_integer("weight coordinate", c) for c in w)
    if len(w) != spec.rank:
        raise ValueError(f"weight {w} has {len(w)} coordinates, rank is {spec.rank}")
    return w


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def is_strongly_dominant(w: Weight) -> bool:
    return all(c >= 1 for c in w)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _cartan_matrix(spec: CartanSpec) -> list[list[int]]:
    r = spec.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def chain(i, j):
        a[i][j] = a[j][i] = -1

    if spec.family == "A":
        for i in range(r - 1):
            chain(i, i + 1)
    elif spec.family == "B":
        # index 1 short: its coroot pairs -2 against the long neighbour
        a[0][1] = -2
        a[1][0] = -1
        for i in range(1, r - 1):
            chain(i, i + 1)
    elif spec.family == "C":
        # index 1 long: the short neighbour's coroot pairs -2 against it
        a[0][1] = -1
        a[1][0] = -2
        for i in range(1, r - 1):
            chain(i, i + 1)
    else:  # D: fork ends first, both attached to index 3
        chain(0, 2)
        chain(1, 2)
        for i in range(2, r - 1):
            chain(i, i + 1)
    return a


def _symmetrizer(spec: CartanSpec) -> tuple[Fraction, ...]:
    r = spec.rank
    if spec.family == "B":
        return (Fraction(1),) + (Fraction(2),) * (r - 1)
    if spec.family == "C":
        return (Fraction(2),) + (Fraction(1),) * (r - 1)
    return (Fraction(1),) * r


def _cartan_inverse(spec: CartanSpec) -> list[list[Fraction]]:
    """Inverse Cartan matrix in closed form: entry [k][i] is the coefficient
    of alpha_(k+1) in omega_(i+1).

    ``coeff(a, b)`` is the coefficient of alpha_a in omega_b in Bourbaki's
    numbering (Bourbaki, Lie groups, ch. VI, plates I-IV); ``bourbaki``
    maps each index of this package to Bourbaki's.
    """
    r, fam = spec.rank, spec.family
    if fam == "A":
        bourbaki = list(range(1, r + 1))
    elif fam in ("B", "C"):
        bourbaki = [r + 1 - k for k in range(1, r + 1)]
    else:  # D: the fork ends are Bourbaki's r - 1 and r
        bourbaki = [r - 1, r] + [r + 1 - k for k in range(3, r + 1)]

    def coeff(a: int, b: int) -> Fraction:
        low = min(a, b)
        if fam == "A":
            return Fraction(low * (r + 1 - max(a, b)), r + 1)
        if fam == "B":  # alpha_r short
            return Fraction(low, 2 if b == r else 1)
        if fam == "C":  # alpha_r long
            return Fraction(low, 2 if a == r else 1)
        spin = (r - 1, r)
        if a in spin and b in spin:
            return Fraction(r if a == b else r - 2, 4)
        return Fraction(low, 2 if a in spin or b in spin else 1)

    return [[coeff(bourbaki[k], bourbaki[i]) for i in range(r)] for k in range(r)]


@lru_cache(maxsize=None)
def build_root_system(spec: CartanSpec) -> RootSystem:
    """Assemble the exact root system for a validated Cartan spec."""
    r = spec.rank
    cartan = _cartan_matrix(spec)
    ainv = _cartan_inverse(spec)
    d = _symmetrizer(spec)

    # Upward reflection closure of the simple roots: reflecting a positive
    # root through a simple root it pairs negatively with adds a multiple of
    # that root, so the closure stays positive, and every positive root is
    # reached from a simple root this way.
    simple_wt = [tuple(cartan[i][k] for i in range(r)) for k in range(r)]
    seen: dict[Weight, tuple[int, ...]] = {}
    frontier = []
    for k in range(r):
        rc = tuple(int(i == k) for i in range(r))
        seen[simple_wt[k]] = rc
        frontier.append((simple_wt[k], rc))
    while frontier:
        nxt = []
        for wt, rc in frontier:
            for k in range(r):
                c = wt[k]
                if c >= 0:
                    continue
                nwt = tuple(wt[i] - c * cartan[i][k] for i in range(r))
                if nwt in seen:
                    continue
                nrc = tuple(rc[i] - c * int(i == k) for i in range(r))
                seen[nwt] = nrc
                nxt.append((nwt, nrc))
        frontier = nxt
    positives = sorted(seen.items(), key=lambda p: (sum(p[1]), p[1]))
    if len(positives) != spec.positive_root_count():
        raise AssertionError(
            f"positive-root closure produced {len(positives)} roots for {spec}, "
            f"expected {spec.positive_root_count()}")

    colsums = [sum(ainv[k][i] for k in range(r)) for i in range(r)]
    scale = math.lcm(*(c.denominator for c in colsums))
    height_vec = tuple(int(c * scale) for c in colsums)

    return RootSystem(
        spec=spec,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=d,
        cartan_inverse=tuple(tuple(row) for row in ainv),
        positive_roots=tuple(wt for wt, _ in positives),
        positive_roots_root_coords=tuple(rc for _, rc in positives),
        height_vec=height_vec,
    )


# ---------------------------------------------------------------------------
# The distinguished reduced word for the long element
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def long_word_blocks(spec: CartanSpec) -> tuple[tuple[int, ...], ...]:
    """The blocks of the family's distinguished long word, one per rank in
    increasing order (type D starts at rank 2): the block of rank k holds the
    letters that rank k adds to the word of rank k-1.  Pattern row i holds
    the strings along the block i-th from the end, one entry per letter, so
    this is the one table of the pattern layout."""
    r = spec.rank
    if spec.family == "A":
        return tuple(tuple(range(k, 0, -1)) for k in range(1, r + 1))
    if spec.family in ("B", "C"):
        return ((1,),) + tuple(tuple(range(k, 0, -1)) + tuple(range(2, k + 1))
                               for k in range(2, r + 1))
    return ((1, 2),) + tuple(tuple(range(k, 2, -1)) + (1, 2) + tuple(range(3, k + 1))
                             for k in range(3, r + 1))


def nice_long_word(spec: CartanSpec) -> tuple[int, ...]:
    """The family's distinguished long word, its blocks run together: rank r
    extends rank r-1 by one block of new letters, so the rank-(r-1) word is a
    prefix."""
    letters = tuple(chain.from_iterable(long_word_blocks(spec)))
    if len(letters) != spec.positive_root_count():
        raise AssertionError(f"long word for {spec} has wrong length {len(letters)}")
    return letters


# ---------------------------------------------------------------------------
# Character and dimension (independent of the pattern enumerator)
# ---------------------------------------------------------------------------

def _demazure(codec: WeightCodec, table: dict[int, int], k: int) -> dict[int, int]:
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
    mask, bias = (1 << codec.width) - 1, 1 << (codec.width - 1)
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


def weyl_character(rs: RootSystem, lam: Weight) -> WeightPolynomial:
    """Highest-weight character by the Demazure character formula: the
    Demazure operators of a reduced word for the long element, applied to
    x^lam.  The long element is an involution, so the word may be read in
    either direction.  The cost follows the size of the character, not |W|.
    The tables hold packed weights; zeros are dropped once, after the last
    letter, and the table is decoded in one step."""
    lam = _checked_weight(rs.spec, lam)
    if not is_dominant(lam):
        raise ValueError(f"character requires a dominant weight, got {lam}")
    codec = weight_codec(lam, rs.cartan)
    table = {codec.pack(lam): 1}
    for k in nice_long_word(rs.spec):
        table = _demazure(codec, table, k)
    return poly_from_packed(rs.height_vec, codec, {w: c for w, c in table.items() if c})


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the highest-weight representation, exact product formula."""
    lam = _checked_weight(rs.spec, lam)
    if not is_dominant(lam):
        raise ValueError(f"dimension requires a dominant weight, got {lam}")
    d = rs.symmetrizer
    num = Fraction(1)
    shifted = tuple(c + 1 for c in lam)
    for rc in rs.positive_roots_root_coords:
        top = sum(rc[k] * d[k] * shifted[k] for k in range(rs.rank))
        bot = sum(rc[k] * d[k] for k in range(rs.rank))
        num *= Fraction(top, bot)
    if num.denominator != 1:
        raise AssertionError("Weyl dimension did not reduce to an integer")
    return int(num)


def character_dimension(poly: WeightPolynomial) -> int:
    """Sum of integer coefficients (evaluation at the all-ones point)."""
    total = 0
    for _, coeff in poly.terms.items():
        mons = coeff.monomials()
        for c, e, g in mons:
            if g or e != 0:
                raise ValueError("character polynomial has non-constant coefficients")
            total += c
    return total

