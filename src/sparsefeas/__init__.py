"""Exact real feasibility and positive-zero-set topology for sparse
integer polynomials with at most dim(Supp) + 2 terms."""

from .errors import (
    NoRealSolutionError,
    NotACircuitError,
    ParseError,
    PreconditionError,
    PrecisionLimitError,
    ScaleLimitError,
    SparseFeasError,
    ZeroPolynomialError,
)
from .sparsepoly import (
    PointSet,
    SparsePolynomial,
    Term,
    evaluate,
    from_json,
    make_polynomial,
    parse,
    support,
    to_json,
    to_text,
)
from .feasibility import (
    FeasibilityReport,
    classify_positive,
    feas_circuit,
    feas_real_full,
    feas_simplex,
    topology_report,
)
from .discriminant import (
    CircuitDiscriminant,
    DegeneratePoint,
    adisc_sign,
    adisc_vanish,
    degenerate_point,
)
from .exactsign import (
    GcdFreeBasis,
    binomial_sign,
    binomial_vanish,
    gcd_free_basis,
)
from .geometry import (
    affine_dim,
    find_circuit,
    interior_point,
)
from .intlattice import determinant, hermite_factor, smith_factor
from .oracle import exact_product_compare, grid_scan, multiple_root_count, sturm_count
from .reductions import (
    PolySystem,
    Sat3Formula,
    sat3_to_system,
    shor_normal_form,
    sos_aggregate,
)

__version__ = "0.1.0"
