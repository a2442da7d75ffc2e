"""Circling and boxing masks, and the type-D decorated-row components.

An entry is circled when it sits on its cone hyperplane (the row-chain lower
bound is tight) and boxed when it sits on its polytope hyperplane (the
highest-weight upper bound is tight).  An entry may carry both marks; the
coefficient rules send that case to zero.

In type D the contribution of a row is organized by connected components of
equal, chain-comparable entries.  The two central entries of a row are not
mutually comparable; whether an equal central pair with no equal neighbour
still forms one component is governed by ``Conventions.d_component_rule``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .conventions import DEFAULT, Conventions
from .patterns import (LittelmannPattern, Position, _chain_lower_bound,
                       _crystal_walk, _freeze, _walk, row_end)
from .roots import CartanSpec, RootSystem
from .weightpoly import Weight


def circling_lower_bound(L: LittelmannPattern, pos: Position) -> int | Fraction:
    """Cone lower bound for the entry at ``pos``; the halved middle case of
    type B is returned as an exact Fraction."""
    i, j = pos
    if not (1 <= i <= len(L.rows) and i <= j <= row_end(L.spec, i)):
        raise ValueError(f"position {pos} is outside the {L.spec} shape")
    return _chain_lower_bound(L.a, L.spec, i, j)


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


@dataclass(frozen=True)
class DecoratedPattern:
    pattern: LittelmannPattern
    lam: Weight
    circled: tuple[tuple[bool, ...], ...]
    boxed: tuple[tuple[bool, ...], ...]
    components: tuple[ComponentD, ...]
    conv: Conventions = DEFAULT

    def is_circled(self, i: int, j: int) -> bool:
        return self.circled[i - 1][j - i]

    def is_boxed(self, i: int, j: int) -> bool:
        return self.boxed[i - 1][j - i]


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


def _components(L: LittelmannPattern, conv: Conventions) -> tuple[ComponentD, ...]:
    if L.spec.family != "D":
        return ()
    return tuple(comp for i, row in enumerate(L.rows, start=1)
                 for comp in row_components(L.spec, i, row, conv))


def build_components_D(dp: DecoratedPattern) -> tuple[ComponentD, ...]:
    """Partition each row of a type-D decorated pattern into components."""
    if dp.pattern.spec.family != "D":
        raise ValueError("decorated-graph components exist only in type D")
    return _components(dp.pattern, dp.conv)


def _decorated(L: LittelmannPattern, lam: Weight, circled: list, boxed: list,
               conv: Conventions) -> DecoratedPattern:
    return DecoratedPattern(pattern=L, lam=lam, circled=_freeze(circled),
                            boxed=_freeze(boxed),
                            components=_components(L, conv), conv=conv)


def decorate(L: LittelmannPattern, lam: Weight,
             conv: Conventions = DEFAULT) -> DecoratedPattern:
    """Attach circling/boxing masks for a pattern inside the ``lam`` polytope.

    Runs the enumeration walk pinned to ``L``: one bound evaluation per
    entry, and ValueError at the first entry outside the polytope.
    """
    lam = tuple(lam)
    ((_, circled, boxed, _, _),) = _walk(L.spec, lam, pinned=L.rows)
    return _decorated(L, lam, circled, boxed, conv)


def decorated_crystal(rs: RootSystem, lam: Weight,
                      conv: Conventions = DEFAULT) -> Iterator[DecoratedPattern]:
    """Every pattern of the highest-weight crystal, decorated, in enumeration
    order; the masks are read off the bounds the enumeration walk already
    evaluated."""
    lam = tuple(lam)
    spec = rs.spec
    for rows, circled, boxed, _, _ in _crystal_walk(rs, lam):
        yield _decorated(LittelmannPattern(spec, _freeze(rows)), lam, circled, boxed, conv)


def render(dp: DecoratedPattern) -> str:
    """Fixed-width grid with (x) for circled, [x] for boxed, [(x)] for both."""
    cells: list[list[str]] = []
    for i, row in enumerate(dp.pattern.rows, start=1):
        line = []
        for off, v in enumerate(row):
            j = i + off
            tok = str(v)
            if dp.is_circled(i, j):
                tok = f"({tok})"
            if dp.is_boxed(i, j):
                tok = f"[{tok}]"
            line.append(tok)
        cells.append(line)
    width = max(len(tok) for line in cells for tok in line)
    lines = []
    for i, line in enumerate(cells):
        pad = " " * (i * (width + 1))
        lines.append(pad + " ".join(tok.rjust(width) for tok in line))
    return "\n".join(lines)
