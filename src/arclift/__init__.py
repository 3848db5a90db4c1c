"""Exact Weierstrass preparation, division, and Newton arc lifting.

The library works over a closed family of exact coefficient rings (prime
fields, the rationals, Z/n, and truncated Artinian local algebras), with
truncated power series as the universal carrier for arcs.  On top of that
it provides strict Weierstrass factorization with divisibility
certificates, Weierstrass/Euclidean division, finite-level jet machinery,
a Newton-style arc-lifting pipeline for complete intersections, and
executable models of the pathological rings whose elements vanish at every
point to infinite order.
"""

import types

from .errors import (
    ArcliftError,
    ArityMismatch,
    CongruenceFailed,
    DegenerateJacobian,
    Indeterminate,
    InsufficientPrecision,
    InvalidDescriptor,
    MixedFamilies,
    MixedRings,
    NoDivide,
    NonLocalRing,
    NotAUnit,
    ParseError,
    PrecisionExhausted,
    ResidualNonzero,
    Verdict,
)
from .jets import Expansion, ModQReduction, ModQVector, expand_around, map_mod_poly, mod_q_reduce
from .newton import (
    ArcPoint,
    JacobianData,
    LiftResult,
    PolyMap,
    arc_lift,
    check_congruence,
    congruence_forward,
    fixed_point_solve,
    jacobian_data,
)
from .pathology import (
    arc_kernel_ring,
    check_identities,
    integer_completion,
    sawed_completion,
    sawed_plane_ring,
    xy_arc_counterexample,
)
from .polynomials import MultiPoly
from .rings import (
    ArtinianLocalRing,
    IntegersMod,
    PrimeFieldRing,
    RationalRing,
    Ring,
    RingElement,
    make_ring,
)
from .series import (
    LaurentSeries,
    TruncatedSeries,
    is_nondegenerate,
    laurent_divide,
    reduced_order,
)
from .weierstrass import (
    INFINITE_WITHIN_PRECISION,
    LowPoly,
    MonicPoly,
    StrictFactorization,
    WeierstrassDivision,
    divides_power_of_t,
    kernel_fiber_basis,
    ord_at_point,
    recombine_division,
    recombine_factorization,
    strict_prepare,
    weierstrass_divide,
)

# Every name imported above; the submodules stay reachable as attributes
# (``arclift.series``) but are not exported.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
__version__ = "0.1.0"
