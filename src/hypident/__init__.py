"""Exact-arithmetic verification of a terminating-hypergeometric /
binomial-sum identity, its coefficient triangles and basis transforms, and
the surface-map counting formula built on top of it.

The package exposes the identity, the triangle routes and the map count;
everything else is imported from its submodule."""

from .hypergeom import lhs_direct
from .identity import (
    IdentityPoint,
    MapCountSpec,
    check_identity,
    lhs_fast,
    map_count,
    rhs_direct,
    rhs_fast,
    summand_equivalence,
)
from .triangles import (
    l_entry_closed,
    l_entry_recurrence,
    l_poly,
    l_poly_from_series,
    r_entry,
    r_entry_closed,
    r_poly,
    triangle_row,
    vanishing_sum,
)

__version__ = "0.1.0"
