"""Exact root-system data for types A/B/C/D in Littelmann's numbering.

The numbering runs the Dynkin diagram mirror-image to Bourbaki: index 1 is
the short simple root in type B, the long simple root in type C, and indices
1 and 2 are the two orthogonal fork-end roots in type D.  With this choice
the rank-(r-1) subsystem spanned by indices 1..r-1 is of the same family,
which is what makes top-row deletion of patterns a branching operation.

Weights are plain integer tuples in the fundamental-weight basis throughout
the package, and all weight arithmetic is integer.  So is the root data
built here: one reflection closure gives every positive root with its
coroot, and the height functional and the Weyl dimension are read off the
coroots.  Fractions appear only in the inverse Cartan matrix and
``root_coordinates``, which nothing in the package calls;
``_cartan_inverse`` imports them itself.

The Weyl character comes from the Demazure character formula: the Demazure
operators of ``nice_long_word``, the word the patterns are strings along,
applied to x^lam.  It does not use the pattern walk, so it cross-checks it.
Each operator makes one pass per alpha_k-string, its terms' images being
nested intervals of the string, and keeps no zeros.  ``packed_character``
runs that loop on a codec the caller passes and returns the packed int
table; ``weyl_character`` is it on the codec of lam, kept as a polynomial,
whose table ``weightpoly.character_dimension`` sums.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import mul
from typing import NamedTuple

from .coefficients import _integer
from .weightpoly import (Weight, WeightCodec, WeightPolynomial, poly_from_packed,
                         weight_codec)

FAMILIES = ("A", "B", "C", "D")
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# Largest rank accepted.  ``build_root_system`` grows with rank^3 (r^2
# positive roots, each read against r simple roots, and each new one copied
# as three length-r tuples): about 0.2 s at rank 100 on one core, and without
# a cap a hostile rank such as 3000 runs for minutes before any output.
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

    ``positive_coroots[j]`` is the coroot of ``positive_roots[j]`` in
    simple-coroot coordinates.  ``height_vec``, their sum <omega_i, 2 rho^vee>,
    pairs every simple root to 2: h . w is twice the height of a root-lattice w.
    """

    spec: CartanSpec
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Weight, ...]                  # fundamental-weight coords
    positive_roots_root_coords: tuple[tuple[int, ...], ...]
    positive_coroots: tuple[tuple[int, ...], ...]       # simple-coroot coords
    height_vec: tuple[int, ...]                          # <omega_i, 2 rho^vee>

    # -- basic data ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def family(self) -> str:
        return self.spec.family

    def root_coordinates(self, w: Weight) -> tuple:
        """Coordinates of a lattice point in the simple-root basis, as
        Fractions (exact).

        The package itself does not call this; the traced tokuyama workload
        in ``perfbench/workloads.py`` does.  It goes when that workload times
        the package's own twisted character (ROADMAP item 9)."""
        ainv = _cartan_inverse(self.spec)
        return tuple(sum(ainv[k][i] * w[i] for i in range(self.rank))
                     for k in range(self.rank))


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def is_strongly_dominant(w: Weight) -> bool:
    return all(c >= 1 for c in w)


def _highest_weight(spec: CartanSpec, lam: Weight, strong: bool = False) -> Weight:
    """``lam`` as a tuple of ints; a ValueError unless it has one integer
    coordinate per rank and is dominant, and with ``strong`` strongly
    dominant, lam = lam' + rho as a p-part's crystal sum takes it.  The one
    check of a highest weight: every crystal walk, character, dimension,
    pattern weight, p-part, Tokuyama check, branching and CLI command reads
    its ``lam`` through here."""
    lam = tuple(_integer("weight coordinate", c) for c in lam)
    if len(lam) != spec.rank:
        raise ValueError(f"weight {lam} has {len(lam)} coordinates, rank is {spec.rank}")
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    if strong and not is_strongly_dominant(lam):
        raise ValueError(f"highest weight must be strongly dominant, got {lam}")
    return lam


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _cartan_matrix(spec: CartanSpec) -> list[list[int]]:
    r = spec.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i, j):
        a[i][j] = a[j][i] = -1

    if spec.family == "A":
        for i in range(r - 1):
            bond(i, i + 1)
    elif spec.family == "B":
        # index 1 short: its coroot pairs -2 against the long neighbour
        a[0][1] = -2
        a[1][0] = -1
        for i in range(1, r - 1):
            bond(i, i + 1)
    elif spec.family == "C":
        # index 1 long: the short neighbour's coroot pairs -2 against it
        a[0][1] = -1
        a[1][0] = -2
        for i in range(1, r - 1):
            bond(i, i + 1)
    else:  # D: fork ends first, both attached to index 3
        bond(0, 2)
        bond(1, 2)
        for i in range(2, r - 1):
            bond(i, i + 1)
    return a


@lru_cache(maxsize=None)
def _cartan_inverse(spec: CartanSpec) -> tuple[tuple, ...]:
    """Inverse Cartan matrix by exact Gauss-Jordan elimination over the
    rationals: entry [k][i] is the coefficient of alpha_(k+1) in
    omega_(i+1).  Every leading principal minor of a finite-type Cartan
    matrix is positive, so no pivot is zero and no row is swapped."""
    from fractions import Fraction
    r = spec.rank
    rows = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(r)]
            for i, row in enumerate(_cartan_matrix(spec))]
    for k in range(r):
        rows[k] = [x / rows[k][k] for x in rows[k]]
        pivot = [(j, y) for j, y in enumerate(rows[k]) if y]
        for i, row in enumerate(rows):
            f = row[k]
            if i != k and f:
                for j, y in pivot:
                    row[j] -= f * y
    return tuple(tuple(row[r:]) for row in rows)


@lru_cache(maxsize=None)
def build_root_system(spec: CartanSpec) -> RootSystem:
    """Assemble the exact root system for a validated Cartan spec."""
    r = spec.rank
    cartan = _cartan_matrix(spec)
    # column k of the Cartan matrix, the simple root alpha_k in
    # fundamental-weight coordinates, as its nonzero (i, <alpha_k, alpha_i^vee>)
    columns = [[(i, row[k]) for i, row in enumerate(cartan) if row[k]] for k in range(r)]

    # Upward reflection closure of the simple roots: reflecting a positive
    # root b through a simple root it pairs negatively with, c = <b, alpha_k^vee>
    # < 0, adds -c alpha_k, so the closure stays positive, and every positive
    # root is reached from a simple root this way.  Its coroot moves alike,
    # by -<alpha_k, b^vee> alpha_k^vee, the pairing read off column k.
    seen: dict[Weight, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    frontier = []
    for k in range(r):
        unit = tuple(int(i == k) for i in range(r))
        wt = tuple(row[k] for row in cartan)
        seen[wt] = unit, unit
        frontier.append((wt, unit, unit))
    while frontier:
        nxt = []
        for wt, rc, cc in frontier:
            for k, c in enumerate(wt):
                if c >= 0:
                    continue
                nwt = list(wt)
                for i, a in columns[k]:
                    nwt[i] -= c * a
                nwt = tuple(nwt)
                if nwt in seen:
                    continue
                d = sum([cc[i] * a for i, a in columns[k]])
                nrc = rc[:k] + (rc[k] - c,) + rc[k + 1:]
                ncc = cc[:k] + (cc[k] - d,) + cc[k + 1:]
                seen[nwt] = nrc, ncc
                nxt.append((nwt, nrc, ncc))
        frontier = nxt
    positives = sorted(seen.items(), key=lambda p: (sum(p[1][0]), p[1][0]))
    if len(positives) != spec.positive_root_count():
        raise AssertionError(
            f"positive-root closure produced {len(positives)} roots for {spec}, "
            f"expected {spec.positive_root_count()}")
    coroots = tuple(cc for _, (_, cc) in positives)

    return RootSystem(
        spec=spec,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(wt for wt, _ in positives),
        positive_roots_root_coords=tuple(rc for _, (rc, _) in positives),
        positive_coroots=coroots,
        height_vec=tuple(map(sum, zip(*coroots))),
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
    integer table keyed by weights packed with ``codec``, in one pass per
    alpha_k-string; the result holds no zeros.

    With m = <mu, alpha_k^vee>, read off field k - 1 of the key, x^mu goes to
    +x^nu for the points nu of its alpha_k-string of pairing m, m - 2, ..., -m
    when m >= 0, to 0 when m = -1, and to -x^nu for the pairings -m - 2, ...,
    m + 2 when m <= -2.  Each image is symmetric about the string's centre,
    the point of pairing 0 or -1, which is mu - ((m + 1) >> 1) alpha_k, so the
    images on one string are nested.  Level i of the string with centre z and
    e = 1 if z pairs to -1, else 0, is its pair of points z + i alpha_k and
    z + (e - i) alpha_k, for i >= e; the image of x^mu is its coefficient,
    signed, on levels e .. (m + 1) >> 1 (e .. (-m - 1) >> 1 when m <= -2).
    So each term is bucketed at its centre and outer level, and each string
    is walked from its outermost level inward with a running sum, which is
    written at the level's two points when it is not zero, so each point is
    written once, not once per term whose image holds it.
    """
    alpha, shift = codec.roots[k - 1], (k - 1) * codec.width
    mask, bias = codec.mask, codec.bias
    strings: dict[int, dict[int, int]] = {}     # centre -> {outer level: coefficient}
    get = strings.get
    for mu, c in table.items():
        m = (mu >> shift & mask) - bias
        if m >= 0:
            level = (m + 1) >> 1
            centre = mu - level * alpha
        elif m == -1:
            continue
        else:
            level, c = (-m - 1) >> 1, -c
            centre = mu - ((m + 1) >> 1) * alpha
        levels = get(centre)
        if levels is None:
            strings[centre] = {level: c}
        else:
            levels[level] = levels.get(level, 0) + c
    out: dict[int, int] = {}
    for centre, levels in strings.items():
        e = (centre >> shift & mask) != bias
        top = max(levels)
        hi, lo, s = centre + top * alpha, centre + (e - top) * alpha, 0
        for i in range(top, e - 1, -1):
            s += levels.get(i, 0)
            if s:
                out[hi] = out[lo] = s
            hi -= alpha
            lo += alpha
    return out


def packed_character(rs: RootSystem, lam: Weight, codec: WeightCodec) -> dict[int, int]:
    """The character of the dominant weight ``lam`` as a zero-free table from
    weight, packed with ``codec``, to multiplicity: the Demazure operators of
    ``nice_long_word`` applied to x^lam, each of which keeps no zeros.
    ``codec`` must hold conv(W lam), as that of any dominant weight above
    ``lam`` does (see ``weightpoly.weight_codec``)."""
    table = {codec.pack(lam): 1}
    for k in nice_long_word(rs.spec):
        table = _demazure(codec, table, k)
    return table


def weyl_character(rs: RootSystem, lam: Weight) -> WeightPolynomial:
    """Highest-weight character by the Demazure character formula: the
    Demazure operators of a reduced word for the long element, applied to
    x^lam.  The long element is an involution, so the word may be read in
    either direction.  The cost follows the size of the character, not |W|:
    each operator writes each point of each alpha-string it reaches once.
    ``packed_character`` builds the zero-free table on the codec of ``lam``,
    and the polynomial keeps it, to decode it when its terms are first read."""
    lam = _highest_weight(rs.spec, lam)
    codec = weight_codec(lam, rs.cartan)
    return poly_from_packed(rs.height_vec, codec, packed_character(rs, lam, codec))


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the highest-weight representation, exact product formula."""
    lam = _highest_weight(rs.spec, lam)
    shifted = tuple(c + 1 for c in lam)
    num = den = 1
    for coroot in rs.positive_coroots:
        num *= sum(map(mul, shifted, coroot))
        den *= sum(coroot)
    dim, rest = divmod(num, den)
    if rest:
        raise AssertionError("Weyl dimension did not reduce to an integer")
    return dim

