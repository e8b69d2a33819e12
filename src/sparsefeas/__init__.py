"""Exact real feasibility and positive-zero-set topology for sparse
integer polynomials with at most dim(Supp) + 2 terms."""

from importlib import import_module as _import_module

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
    DominantPair,
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

__version__ = "0.1.0"

# the checkers and the reduction gadgets decide nothing, so their names load
# their module on first use (PEP 562); the deciders above stay plain imports
_LAZY = {
    "exact_product_compare": "oracle",
    "grid_scan": "oracle",
    "multiple_root_count": "oracle",
    "sturm_count": "oracle",
    "PolySystem": "reductions",
    "Sat3Formula": "reductions",
    "sat3_to_system": "reductions",
    "shor_normal_form": "reductions",
    "sos_aggregate": "reductions",
}


def __getattr__(name):
    if name in _LAZY.values():
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
