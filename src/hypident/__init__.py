"""Exact-arithmetic verification of a terminating-hypergeometric /
binomial-sum identity, its coefficient triangles and basis transforms, and
the surface-map counting formula built on top of it."""

from .exact_arith import ExactInt, ExactRat, binomial, double_factorial_odd, factorial, pow2
from .factorial_basis import (
    FallingPoly,
    falling,
    monomial_to_falling,
    poly_eval,
    rising,
    rising_to_falling,
    stirling2,
)
from .hypergeom import (
    DenominatorPochhammerZero,
    Hyp2F1Spec,
    NonTerminatingSeries,
    hyp2f1_terminating,
    lhs_direct,
)
from .identity import (
    CoefficientLengthMismatch,
    IdentityPoint,
    MapCountSpec,
    VerifyReport,
    binomial_falling_sum,
    check_identity,
    lhs_fast,
    map_count,
    map_summand,
    mapcount_spec_from_file,
    mapcount_spec_from_obj,
    rhs_direct,
    rhs_fast,
    summand_equivalence,
)
from .triangles import (
    IndexOutOfTriangle,
    Triangle,
    c_entry,
    export_csv,
    export_json,
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
