"""Frozen constants for rules whose published sources are ambiguous or typo-ridden.

Every value below was fixed empirically: the pattern enumerator must reproduce
highest-weight dimensions and characters exactly over a battery of small
weights in every family.  The test suite asserts both that the frozen choice
passes and that each rejected alternative fails, so a change here cannot go
unnoticed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Conventions:
    """Switchboard for the independently arbitrated constants.

    Non-default values exist so the verification suite can demonstrate that
    the alternatives fail; production code should use :data:`DEFAULT`.
    """

    # Scale factor on the middle-column polytope bound, per family.
    middle_bound_scale_b: int = 2
    middle_bound_scale_c: int = 1

    # Central-column aggregate in type D.
    #   "paired":  s(i, r-1) = s(i, r) = sum of both central columns, rows <= i.
    #   "literal": twice the partial sum of column r-1 alone.
    d_middle_aggregate: str = "paired"

    # Component formation in a type-D row when the two central entries are
    # equal but neither flanking neighbour shares the value.
    #   "runs":   the equal central pair forms one component.
    #   "strict": central entries join a component only through an equal,
    #             chain-comparable neighbour, so the pair stays split.
    d_component_rule: str = "runs"

    # Span test for a multiple leaner (type-D component through the middle).
    #   "centrals": any maximal run covering both central columns qualifies.
    #   "legs":     the run must also contain at least one cell of each leg.
    ml_span_rule: str = "centrals"

    def with_flags(self, **kwargs) -> "Conventions":
        return replace(self, **kwargs)


DEFAULT = Conventions()
