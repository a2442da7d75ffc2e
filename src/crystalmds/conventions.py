"""Type-D coefficient rules whose published sources are ambiguous.

Both flags below change type-D coefficients only: characters and crystal
sizes cannot see them, so no check arbitrates between their values yet (an
open item of the roadmap: coefficient-level oracles in every family).  The
defaults are the readings the package has used so far; the test suite runs
``p_part`` under every setting against the per-pattern definition.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Conventions:
    """Switchboard for the type-D component and span rules.

    Production code should use :data:`DEFAULT`; the other values exist so
    the rules can be compared once a coefficient-level oracle exists.
    """

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


DEFAULT = Conventions()
