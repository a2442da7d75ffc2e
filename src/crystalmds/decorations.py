"""Circling and boxing masks: a decorated pattern is a pattern with its masks.

An entry is circled when it sits on its cone hyperplane (the row-chain lower
bound is tight) and boxed when it sits on its polytope hyperplane (the
highest-weight upper bound is tight).  An entry may carry both marks; the
coefficient rules send that case to zero.  Those rules, including the type-D
partition of each row into components, live in ``coefficients``.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

from .patterns import LittelmannPattern, _freeze, _walk, walk_plan
from .roots import RootSystem
from .weightpoly import Weight


class DecoratedPattern(NamedTuple):
    pattern: LittelmannPattern
    lam: Weight
    circled: tuple[tuple[bool, ...], ...]
    boxed: tuple[tuple[bool, ...], ...]

    def is_circled(self, i: int, j: int) -> bool:
        return self.circled[i - 1][j - i]

    def is_boxed(self, i: int, j: int) -> bool:
        return self.boxed[i - 1][j - i]


def decorate(L: LittelmannPattern, lam: Weight) -> DecoratedPattern:
    """Attach circling/boxing masks for a pattern inside the ``lam`` polytope.

    Runs the enumeration walk pinned to ``L``: one bound evaluation per
    entry, and ValueError at the first entry outside the polytope.
    """
    lam = tuple(lam)
    ((_, circled, boxed, _, _),) = _walk(walk_plan(L.spec, lam), pinned=L.rows)
    return DecoratedPattern(L, lam, _freeze(circled), _freeze(boxed))


def decorated_crystal(rs: RootSystem, lam: Weight) -> Iterator[DecoratedPattern]:
    """Every pattern of the highest-weight crystal, decorated, in enumeration
    order; the masks are read off the bounds the enumeration walk already
    evaluated."""
    lam = tuple(lam)
    spec = rs.spec
    for rows, circled, boxed, _, _ in _walk(walk_plan(spec, lam)):
        yield DecoratedPattern(LittelmannPattern(spec, _freeze(rows)), lam,
                               _freeze(circled), _freeze(boxed))


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
