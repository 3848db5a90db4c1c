import json
import time

import pytest

from arclift.cli import main
from arclift.rings import MAX_MODULUS, MAX_MONOMIALS
from arclift.textforms import (
    MAX_DIGITS,
    MAX_NESTING,
    MAX_PRECISION,
    MAX_TERM_PAIRS,
    parse_factorization,
    parse_ring,
    parse_series,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_prepare_text_output(capsys):
    code, out = run_cli(
        capsys,
        "prepare",
        "--ring",
        "Artin(Fp(5); eps; 2)",
        "--series",
        "[eps, 1] + O(t^4)",
    )
    assert code == 0
    assert out.strip() == "{u: [1, 0, 0] + O(t^3), q: t + eps, n: 2, N: 4}"
    ring = parse_ring("Artin(Fp(5); eps; 2)")
    fact = parse_factorization(out.strip(), ring)
    assert fact.certificate_n == 2


def test_prepare_is_byte_deterministic(capsys):
    args = (
        "prepare",
        "--ring",
        "Zmod(27)",
        "--series",
        "[3, 1, 4, 1, 5, 9, 2, 6] + O(t^8)",
        "--output",
        "json",
    )
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["q"].startswith("t + ")
    assert payload["n"] == 3


def test_divide_reports_exactness(capsys):
    code, out = run_cli(
        capsys,
        "divide",
        "--ring",
        "Fp(7)",
        "--series",
        "[1, 1, 1] + O(t^3)",
        "--poly",
        "t^2",
    )
    assert code == 0
    assert out.strip() == "{h: [1] + O(t^1), a: t + 1, exact: true}"


def test_lift_reports_the_cusp_pipeline(capsys):
    code, out = run_cli(
        capsys,
        "lift",
        "--ring",
        "Q",
        "--map",
        "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]",
        "--arc",
        "t^2; t^3 + t^4",
        "--N",
        "16",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "residual_precision: 9"
    v1_line = next(l for l in lines if l.startswith("v1[0]:"))
    ring = parse_ring("Q")
    v1 = parse_series(v1_line.split(":", 1)[1].strip(), ring)
    assert str(v1.coeffs[0].value) == "-1/2"
    ynew_line = next(l for l in lines if l.startswith("x_new[y1]:"))
    ynew = parse_series(ynew_line.split(":", 1)[1].strip(), ring)
    assert [c.value for c in ynew.coeffs[:5]] == [0, 0, 0, 1, 0]


def test_lift_congruence_failure_exits_two(capsys):
    code, out = run_cli(
        capsys,
        "lift",
        "--ring",
        "Q",
        "--map",
        "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]",
        "--arc",
        "t^2; 2*t^3",
        "--N",
        "16",
    )
    assert code == 2
    assert "CongruenceFailed" in out


def test_fiber_command(capsys):
    code, out = run_cli(
        capsys, "fiber", "--ring", "Fp(7)", "--poly", "t^3 + 4*t^2 + 2*t", "--N", "12",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2


@pytest.mark.parametrize("poly, mult", [("t^2 + t", 1), ("t^3 + 2*t^2", 2), ("t^4 + t^3", 3)])
def test_fiber_below_twice_the_t_multiplicity_is_refused_as_too_short(capsys, poly, mult):
    # dividing by q prepares it strictly, which over a field needs N >= 2e
    # for e the multiplicity of t in q: a shorter N is a refusal (exit 1),
    # not an Indeterminate verdict (exit 2), since q is exact
    for n in range(1, 2 * mult + 1):
        code = main(["fiber", "--ring", "Fp(7)", "--poly", poly, "--N", str(n)])
        err = capsys.readouterr().err
        if n < 2 * mult:
            assert code == 1 and f"InsufficientPrecision: the fiber of a q of t-multiplicity {mult} " \
                f"needs N >= {2 * mult}, got {n}" in err, (n, err)
        else:
            assert code == 0, err


def test_patho_identities_table(capsys):
    code, out = run_cli(capsys, "patho", "--check", "identities", "--bound", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all: PASS"
    assert all("| FAIL" not in l for l in lines)
    assert any(l.startswith("x0*x0 = 0") for l in lines)


def test_patho_xy_and_sawed(capsys):
    code, out = run_cli(capsys, "patho", "--check", "xy", "--N", "10")
    assert code == 0
    assert out.strip().splitlines()[-1] == "all: PASS"
    code, out = run_cli(capsys, "patho", "--check", "sawed", "--order", "3", "--ring", "Q")
    assert code == 0
    assert "a0 = -q0*x0 = q0^2*x1 = -q0^3*x2" in out


def test_completion_command(capsys):
    code, out = run_cli(capsys, "completion", "--p", "3", "--n", "2")
    assert code == 0
    assert out.strip() == "{modulus: 9, t: 3, verified: true}"


def test_certify_flag_can_tighten_or_fail(capsys):
    base = (
        "prepare",
        "--ring",
        "Artin(Fp(5); eps; 2)",
        "--series",
        "[eps, 1] + O(t^4)",
    )
    code, out = run_cli(capsys, *base, "--certify", "3")
    assert code == 0
    assert "n: 3" in out
    code, out = run_cli(capsys, *base, "--certify", "1")
    assert code == 2
    assert "NoDivide" in out


def test_indeterminate_exits_two(capsys):
    code, out = run_cli(
        capsys, "prepare", "--ring", "Fp(7)", "--series", "[0, 0] + O(t^2)"
    )
    assert code == 2
    assert "Indeterminate" in out


def test_parse_garbage_exits_one(capsys):
    code = main(["prepare", "--ring", "Fp(7)", "--series", "oops("])
    assert code == 1
    code = main(["prepare", "--ring", "NotARing(3)", "--series", "[1] + O(t^2)"])
    assert code == 1


def test_unknown_flags_exit_one(capsys):
    code = main(["prepare", "--nope"])
    assert code == 1


def test_lift_and_patho_are_byte_deterministic(capsys):
    lift_args = (
        "lift",
        "--ring",
        "Q",
        "--map",
        "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]",
        "--arc",
        "t^2; t^3 + t^4",
        "--N",
        "16",
    )
    _, out1 = run_cli(capsys, *lift_args)
    _, out2 = run_cli(capsys, *lift_args)
    assert out1 == out2
    patho_args = ("patho", "--check", "identities", "--bound", "6", "--output", "json")
    _, out1 = run_cli(capsys, *patho_args)
    _, out2 = run_cli(capsys, *patho_args)
    assert out1 == out2


def test_json_mirrors_text_fields(capsys):
    args = (
        "lift",
        "--ring",
        "Q",
        "--map",
        "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]",
        "--arc",
        "t^2; t^3 + t^4",
        "--N",
        "16",
        "--output",
        "json",
    )
    code, out = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_precision"] == 9
    assert payload["v0"][0]["coeffs"][0] == "-1/2"
    assert payload["x_new"]["y1"]["coeffs"][3] == "1"


CUSP_MAP = "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]"
BIG_PRIME = "100000000000031"  # trial division to its square root takes about a second
LONG_INT = "1" * (MAX_DIGITS + 1)  # int() of it raises ValueError
ARTIN_E20 = "Artin(Fp(5); a,b,c,d,e,f; 20)"  # 177,100 monomials


@pytest.mark.parametrize(
    "argv",
    [
        ("lift", "--ring", "Q", "--map", CUSP_MAP, "--arc", "t^2; t^3 + t^4", "--N", "100000000"),
        ("prepare", "--ring", "Fp(5)", "--series", "[1] + O(t^100000000)"),
        ("prepare", "--ring", "Fp(5)", "--series", "1 + t", "--N", "100000000"),
        ("divide", "--ring", "Q", "--series", "[1] + O(t^100000000)", "--poly", "t"),
        ("lift", "--ring", "Q", "--map", CUSP_MAP, "--arc", "t^2; t^3 + O(t^100000000)",
         "--N", "16"),
        ("fiber", "--ring", "Fp(7)", "--poly", "t^2", "--N", "100000000"),
        ("prepare", "--ring", "Fp(5)", "--series", "1 + t", "--N", str(MAX_PRECISION + 1)),
        ("prepare", "--ring", "Fp(5)", "--series", "t^100000000 + O(t^5)"),
        ("lift", "--ring", "Q", "--N", "16", "--arc", "t^2; t^3",
         "--map", "vars: [x1, y1]; split: 1; eqs: [y1^100000000 - x1^3]"),
        ("prepare", "--ring", "Fp(5)", "--series", "[1] + O(t^4)", "--certify", "100000000"),
        ("patho", "--check", "sawed", "--order", "100000000"),
        ("completion", "--p", "3", "--n", "100000000"),
        ("prepare", "--series", "1 + t", "--ring", f"Fp({BIG_PRIME})"),
        ("prepare", "--series", "1 + t", "--ring", f"Zmod({BIG_PRIME})"),
        ("completion", "--p", BIG_PRIME, "--n", "2"),
        ("prepare", "--ring", f"Fp({LONG_INT})", "--series", "1 + t"),
        ("prepare", "--ring", f"Zmod({LONG_INT})", "--series", "1 - t"),
        ("prepare", "--series", f"{LONG_INT} + t + O(t^4)", "--ring", "Q"),
        ("prepare", "--series", f"[1] + O(t^{LONG_INT})", "--ring", "Fp(3)"),
        ("prepare", "--ring", "Artin(Fp(5);eps;100000000)", "--series", "1/(1+eps)+O(t^2)"),
        ("prepare", "--ring", ARTIN_E20, "--series", "a + (1 + b)*t + O(t^24)"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_oversized_precision_is_refused_before_any_series_is_built(capsys, argv):
    # Building a 10^8-term series takes far longer than the limit below.
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    if any(LONG_INT in arg for arg in argv):
        ceiling = MAX_DIGITS
    elif any(BIG_PRIME in arg for arg in argv):
        ceiling = MAX_MODULUS
    elif ARTIN_E20 in argv:
        ceiling = MAX_MONOMIALS
    else:
        ceiling = MAX_PRECISION
    assert f"exceeds the ceiling {ceiling}" in captured.err
    assert elapsed < 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ("prepare", "--ring", "Fp(5)", "--series", "(" * 1000 + "1" + ")" * 1000 + " + O(t^3)"),
        ("prepare", "--ring", "Fp(5)", "--series", "-" * 3000 + "1 + O(t^3)"),
        ("lift", "--ring", "Q", "--arc", "t^2; t^3", "--N", "16",
         "--map", "vars: [x1, y1]; split: 1; eqs: [" + "(" * 1000 + "y1" + ")" * 1000 + "^2 - x1^3]"),
    ],
    ids=["parentheses", "minus signs", "map"],
)
def test_deep_nesting_exits_1(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"nesting deeper than {MAX_NESTING} levels" in captured.err


def test_map_coefficient_without_image_names_it_and_the_ring(capsys):
    code = main(["lift", "--ring", "Fp(5)", "--arc", "t^2; t^3 + t^4", "--N", "16",
                 "--map", "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3/5]"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "NotAUnit: the coefficient -1/5 has no image in Fp(5)" in captured.err


def test_negative_identity_bound_exits_1(capsys):
    code = main(["patho", "--check", "identities", "--bound", "-3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "0 <= bound <= 12" in captured.err


def test_precision_at_the_ceiling_is_accepted(capsys):
    code, out = run_cli(
        capsys, "prepare", "--ring", "Fp(5)", "--series", "1 + t", "--N", str(MAX_PRECISION)
    )
    assert code == 0 and out.endswith(f"N: {MAX_PRECISION}}}\n")


@pytest.mark.parametrize(
    "ring, series, message",
    [
        ("Zmod(9)", "t/3 + O(t^3)", "NotAUnit: cannot divide by 3: it is not a unit in Zmod(9)"),
        ("Artin(Fp(5); eps; 2)", "1/eps + O(t^3)",
         "NotAUnit: cannot divide by eps: it is not a unit in Artin(Fp(5); eps; 2)"),
    ],
    ids=["zmod", "artin"],
)
def test_literal_non_unit_divisor_names_it_and_the_ring(capsys, ring, series, message):
    code = main(["prepare", "--ring", ring, "--series", series])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, ceiling",
    [
        (("prepare", "--ring", "Q", "--series", "1 + (2^512)^512*t + O(t^3)"), f"{MAX_DIGITS} digits"),
        (("prepare", "--ring", "Q", "--series", "*".join(["2^512"] * 28) + " + t + O(t^3)"),
         f"{MAX_DIGITS} digits"),
        (("prepare", "--ring", "Fp(5)", "--series", "1 + ((t^512)^512)^512 + O(t^4)"),
         str(MAX_PRECISION)),
        (("lift", "--ring", "Q", "--arc", "t^2; t^3", "--N", "16",
          "--map", "vars: [x1, y1]; split: 1; eqs: [((y1 + 1)^512)^512 - x1^3]"), str(MAX_PRECISION)),
        (("lift", "--ring", "Q", "--arc", "t^2; t^3", "--N", "16",
          "--map", "vars: [x1, y1]; split: 1; eqs: [(2^512)^512*y1^2 - x1^3]"), f"{MAX_DIGITS} digits"),
        (("lift", "--ring", "Fp(5)", "--arc", "t^2; t^3; t; t; t", "--N", "16",
          "--map", "vars: [x, y, z, w, u]; split: 4; eqs: [(x + y + z + w + u)^32]"),
         f"{MAX_TERM_PAIRS} term pairs"),
    ],
    ids=["power of 2^512", "product of 2^512", "power of t^512", "map degree", "map integer",
         "map terms"],
)
def test_literals_that_build_too_much_exit_1(capsys, argv, ceiling):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "ParseError: " in captured.err and f"exceeds the ceiling {ceiling}" in captured.err
    assert elapsed < 0.5
