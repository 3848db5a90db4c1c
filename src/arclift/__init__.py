"""Exact Weierstrass preparation, division, and Newton arc lifting.

The library works over a closed family of exact coefficient rings (prime
fields, the rationals, Z/n, and truncated Artinian local algebras), with
truncated power series as the universal carrier for arcs.  On top of that
it provides strict Weierstrass factorization with divisibility
certificates, Weierstrass/Euclidean division, finite-level jet machinery,
a Newton-style arc-lifting pipeline for complete intersections, and
executable models of the pathological rings whose elements vanish at every
point to infinite order.

``import arclift`` loads no submodule.  Each exported name is read from its
home submodule, which is imported on first use (PEP 562), so a caller pays
only for the modules it reads: ``arc_lift`` loads neither ``pathology`` nor
``jets``.  The name is looked up in the home module on every access and never
stored here, so a rebinding in the home module is always seen.  Submodules
stay importable as ``from arclift import series``, but are not exported.
"""

import importlib as _importlib

# home submodule -> the names it exports, in ``__all__`` order
_EXPORTS = {
    "errors": (
        "ArcliftError", "ArityMismatch", "CongruenceFailed", "DegenerateJacobian",
        "Indeterminate", "InsufficientPrecision", "InvalidDescriptor", "MixedFamilies",
        "MixedRings", "NoDivide", "NonLocalRing", "NotAUnit", "ParseError",
        "PrecisionExhausted", "ResidualNonzero", "Verdict",
    ),
    "jets": (
        "Expansion", "ModQReduction", "ModQVector", "expand_around", "map_mod_poly",
        "mod_q_reduce",
    ),
    "newton": (
        "ArcPoint", "JacobianData", "LiftResult", "PolyMap", "arc_lift", "check_congruence",
        "congruence_forward", "fixed_point_solve", "jacobian_data",
    ),
    "pathology": (
        "arc_kernel_ring", "check_identities", "integer_completion", "sawed_completion",
        "sawed_plane_ring", "xy_arc_counterexample",
    ),
    "polynomials": ("MultiPoly",),
    "rings": (
        "ArtinianLocalRing", "IntegersMod", "PrimeFieldRing", "RationalRing", "Ring",
        "RingElement", "make_ring",
    ),
    "series": (
        "LaurentSeries", "TruncatedSeries", "is_nondegenerate", "laurent_divide",
        "reduced_order",
    ),
    "weierstrass": (
        "INFINITE_WITHIN_PRECISION", "LowPoly", "MonicPoly", "StrictFactorization",
        "WeierstrassDivision", "divides_power_of_t", "kernel_fiber_basis", "ord_at_point",
        "recombine_division", "recombine_factorization", "strict_prepare",
        "weierstrass_divide",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
