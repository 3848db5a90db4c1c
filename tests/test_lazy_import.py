"""``import arclift`` loads no submodule, and the CLI loads ``pathology``
only for the commands that use it.

Each test runs its check in a fresh interpreter, so that no module an
earlier test imported is already in ``sys.modules``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's exports before its names became lazy, in that order, by
# home submodule.
EXPORTS = [
    ("errors", [
        "ArcliftError", "ArityMismatch", "CongruenceFailed", "DegenerateJacobian",
        "Indeterminate", "InsufficientPrecision", "InvalidDescriptor", "MixedFamilies",
        "MixedRings", "NoDivide", "NonLocalRing", "NotAUnit", "ParseError",
        "PrecisionExhausted", "ResidualNonzero", "Verdict",
    ]),
    ("jets", [
        "Expansion", "ModQReduction", "ModQVector", "expand_around", "map_mod_poly",
        "mod_q_reduce",
    ]),
    ("newton", [
        "ArcPoint", "JacobianData", "LiftResult", "PolyMap", "arc_lift", "check_congruence",
        "congruence_forward", "fixed_point_solve", "jacobian_data",
    ]),
    ("pathology", [
        "arc_kernel_ring", "check_identities", "integer_completion", "sawed_completion",
        "sawed_plane_ring", "xy_arc_counterexample",
    ]),
    ("polynomials", ["MultiPoly"]),
    ("rings", [
        "ArtinianLocalRing", "IntegersMod", "PrimeFieldRing", "RationalRing", "Ring",
        "RingElement", "make_ring",
    ]),
    ("series", [
        "LaurentSeries", "TruncatedSeries", "is_nondegenerate", "laurent_divide",
        "reduced_order",
    ]),
    ("weierstrass", [
        "INFINITE_WITHIN_PRECISION", "LowPoly", "MonicPoly", "StrictFactorization",
        "WeierstrassDivision", "divides_power_of_t", "kernel_fiber_basis", "ord_at_point",
        "recombine_division", "recombine_factorization", "strict_prepare",
        "weierstrass_divide",
    ]),
]


def fresh(code):
    """Run ``code`` in a new interpreter that imports arclift from ``src``;
    returns its stdout, and fails the test if it exits non-zero."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('arclift.')))"


def test_import_arclift_loads_no_submodule():
    assert fresh(f"import sys, arclift\n{LOADED}") == "[]\n"


def test_cli_import_loads_neither_pathology_nor_jets():
    loaded = eval(fresh(f"import sys, arclift.cli\n{LOADED}"))
    assert "arclift.cli" in loaded
    assert "arclift.pathology" not in loaded
    assert "arclift.jets" not in loaded


@pytest.mark.parametrize("argv", [
    ["patho", "--check", "identities", "--bound", "2"],
    ["completion", "--p", "3", "--n", "2"],
])
def test_patho_and_completion_load_pathology(argv):
    out = fresh(f"""
        import contextlib, io, sys
        from arclift.cli import main
        assert "arclift.pathology" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({argv!r}) == 0
        print("arclift.pathology" in sys.modules)
    """)
    assert out == "True\n"


def test_every_export_is_its_home_modules_attribute():
    fresh(f"""
        import importlib
        import arclift
        exports = {EXPORTS!r}
        assert arclift.__all__ == [name for _, names in exports for name in names]
        for home, names in exports:
            module = importlib.import_module("arclift." + home)
            for name in names:
                assert getattr(arclift, name) is getattr(module, name), name
                assert name not in vars(arclift), name  # read through, never stored
        # a rebinding in the home module is what the package returns
        from arclift import newton
        original, newton.arc_lift = newton.arc_lift, object()
        assert arclift.arc_lift is newton.arc_lift
        newton.arc_lift = original
        assert arclift.arc_lift is original
    """)


def test_unknown_name_raises_attribute_error_naming_it():
    out = fresh("""
        import arclift
        try:
            arclift.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert "no_such_name" in out


def test_star_import_binds_exactly_all():
    fresh("""
        import arclift
        names = {}
        exec("from arclift import *", names)
        assert set(names) - {"__builtins__"} == set(arclift.__all__)
        for name in arclift.__all__:
            assert names[name] is getattr(arclift, name), name
    """)
