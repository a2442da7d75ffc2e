"""Exact crystal sums for the four infinite Cartan families.

Patterns parameterize highest-weight crystal elements; decorated patterns
carry Gauss-sum coefficients; their weighted sum is the prime-power part of a
Weyl group multiple Dirichlet series (equivalently a metaplectic Whittaker
value).  Characters, dimensions, exact Gauss sums in a prime field, the
deformed Weyl-denominator factorization and top-row branching serve as
independent verification routes.
"""

from .coefficients import (CoeffElement, ComponentD, GaussSymbol, entry_factor,
                           g_value, h_value, pattern_coefficient, row_components)
from .roots import (CartanSpec, RootSystem, build_root_system, is_dominant,
                    is_strongly_dominant, nice_long_word, weyl_character, weyl_dimension)
from .patterns import (DecoratedPattern, LittelmannPattern, decorate, enumerate_patterns,
                       pattern_shape, pattern_wt, render)
from .series import (BranchDecomposition, WeightPolynomial, branch_decompose,
                     character_via_patterns, p_part, polynomial_json_obj,
                     tokuyama_quotient)
from .weightpoly import character_dimension

__version__ = "0.1.0"
