"""Command-line interface with deterministic text and JSON output.

Exit codes separate the two failure kinds: 1 for parse and precondition
problems (the invocation was malformed), 2 for negative mathematical
verdicts (the computation finished and the answer is "no", with a witness
printed).  Identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ArcliftError, ParseError, Verdict
from .series import format_series
from .textforms import (
    check_precision,
    format_factorization,
    parse_arc,
    parse_monic,
    parse_poly_map,
    parse_ring,
    parse_series,
)
from .weierstrass import (
    StrictFactorization,
    divides_power_of_t,
    kernel_fiber_basis,
    strict_prepare,
    weierstrass_divide,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def precision(text):
    """``--N``, ``--certify``, ``--order``, ``--n``: an int no larger than
    ``textforms.MAX_PRECISION``."""
    return check_precision(int(text))


def _series_json(s):
    return {
        "coeffs": [s.ring.format_element(v) for v in s.payloads],
        "precision": s.precision,
    }


def _emit(args, text_lines, payload):
    if args.output == "json":
        return json.dumps(payload, indent=2)
    return "\n".join(text_lines)


def _cmd_prepare(args):
    ring = parse_ring(args.ring)
    x = parse_series(args.series, ring, args.N)
    fact = strict_prepare(x)
    if args.certify is not None:
        divides_power_of_t(fact.q, args.certify)  # NoDivide carries the witness
        fact = StrictFactorization(
            u=fact.u, q=fact.q, certificate_n=args.certify, precision=fact.precision
        )
    text = [format_factorization(fact)]
    payload = {
        "u": _series_json(fact.u),
        "q": repr(fact.q),
        "n": fact.certificate_n,
        "N": fact.precision,
    }
    return _emit(args, text, payload)


def _cmd_divide(args):
    ring = parse_ring(args.ring)
    f = parse_series(args.series, ring, args.N)
    q = parse_monic(args.poly, ring)
    result = weierstrass_divide(f, q)
    exact = "true" if result.exact else "false"
    text = [f"{{h: {format_series(result.h)}, a: {result.a!r}, exact: {exact}}}"]
    payload = {
        "h": _series_json(result.h),
        "a": repr(result.a),
        "exact": result.exact,
    }
    return _emit(args, text, payload)


def _cmd_lift(args):
    from .newton import ArcPoint, arc_lift  # only lift loads newton

    ring = parse_ring(args.ring)
    pm = parse_poly_map(args.map)
    components = parse_arc(args.arc, ring, args.N)
    arc = ArcPoint(pm, components)
    result = arc_lift(arc, args.N)
    text = []
    for i, v in enumerate(result.v1):
        text.append(f"v1[{i}]: {format_series(v)}")
    for i, v in enumerate(result.v0):
        text.append(f"v0[{i}]: {format_series(v)}")
    for name, comp in zip(pm.var_names, result.arc.components):
        text.append(f"x_new[{name}]: {format_series(comp)}")
    text.append(f"residual_precision: {result.precision}")
    payload = {
        "v1": [_series_json(v) for v in result.v1],
        "v0": [_series_json(v) for v in result.v0],
        "x_new": {
            name: _series_json(c) for name, c in zip(pm.var_names, result.arc.components)
        },
        "residual_precision": result.precision,
    }
    return _emit(args, text, payload)


def _cmd_fiber(args):
    ring = parse_ring(args.ring)
    q = parse_monic(args.poly, ring)
    pairs = kernel_fiber_basis(q, args.N)
    text = [f"dimension: {len(pairs)}"]
    for a, v in pairs:
        text.append(f"{{a: {a!r}, v: {format_series(v)}}}")
    payload = {
        "dimension": len(pairs),
        "pairs": [{"a": repr(a), "v": _series_json(v)} for a, v in pairs],
    }
    return _emit(args, text, payload)


def _rows_table(rows):
    width = max(len(r.statement) for r in rows)
    lines = []
    for r in rows:
        verdict = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.statement.ljust(width)} | level {r.level:>2} | {verdict}")
    return lines


def _cmd_patho(args):
    from . import pathology  # only patho and completion load it

    ring = parse_ring(args.ring)
    if args.check == "identities":
        report = pathology.check_identities(args.bound, ring)
        text = _rows_table(report.rows)
        text.append(f"all: {'PASS' if report.all_ok else 'FAIL'}")
        payload = {
            "family": report.family,
            "rows": [
                {"identity": r.statement, "level": r.level, "ok": r.ok} for r in report.rows
            ],
            "all_ok": report.all_ok,
        }
    elif args.check == "sawed":
        report = pathology.sawed_completion(args.order, ring)
        text = [
            f"quotient: k[q0]/(q0^{report.order})",
            f"dimension: {report.dimension}",
            f"basis: {', '.join(report.basis)}",
        ]
        for g in report.generator_images:
            verdict = "PASS" if g.verified else "FAIL"
            text.append(f"{g.name} -> 0 via {g.chain} | {verdict}")
        text.append(f"all: {'PASS' if report.all_ok else 'FAIL'}")
        payload = {
            "order": report.order,
            "dimension": report.dimension,
            "basis": list(report.basis),
            "generators": [
                {"name": g.name, "chain": g.chain, "verified": g.verified}
                for g in report.generator_images
            ],
            "all_ok": report.all_ok,
        }
    else:  # xy
        report = pathology.xy_arc_counterexample(args.N, ring)
        text = [
            f"q: {format_series(report.q)}",
            f"x: {format_series(report.x)}",
            f"q*x: {format_series(report.product)}",
        ]
        text.extend(_rows_table(report.rows))
        text.append(f"all: {'PASS' if report.all_ok else 'FAIL'}")
        payload = {
            "q": _series_json(report.q),
            "x": _series_json(report.x),
            "product_is_zero": report.product_is_zero,
            "x_nonzero": report.x_nonzero,
            "q_nondegenerate": report.q_nondegenerate,
            "rows": [
                {"identity": r.statement, "level": r.level, "ok": r.ok} for r in report.rows
            ],
            "all_ok": report.all_ok,
        }
    return _emit(args, text, payload)


def _cmd_completion(args):
    from . import pathology

    result = pathology.integer_completion(args.p, args.n)
    text = [
        f"{{modulus: {result.modulus}, t: {result.t_image.value}, "
        f"verified: {'true' if result.verified else 'false'}}}"
    ]
    payload = {
        "prime": result.prime,
        "order": result.order,
        "modulus": result.modulus,
        "t_image": result.t_image.value,
        "verified": result.verified,
    }
    return _emit(args, text, payload)


def build_parser():
    parser = _Parser(prog="arclift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring_default=None):
        if ring_default is None:
            p.add_argument("--ring", required=True, help="coefficient ring descriptor")
        else:
            p.add_argument("--ring", default=ring_default)
        p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("prepare", help="strict Weierstrass factorization of a series")
    common(p)
    p.add_argument("--series", required=True)
    p.add_argument(
        "--N", type=precision, default=None, help="precision when the series has no O-tail"
    )
    p.add_argument(
        "--certify",
        type=precision,
        default=None,
        help="verify q divides t^certify instead of the default d*e exponent",
    )
    p.set_defaults(fn=_cmd_prepare)

    p = sub.add_parser("divide", help="Weierstrass division f = q*h + a")
    common(p)
    p.add_argument("--series", required=True, help="the dividend f")
    p.add_argument("--poly", required=True, help="the monic divisor q")
    p.add_argument("--N", type=precision, default=None)
    p.set_defaults(fn=_cmd_divide)

    p = sub.add_parser("lift", help="Newton arc lifting for a polynomial system")
    common(p)
    p.add_argument("--map", required=True, help="vars: [...]; split: k; eqs: [...]")
    p.add_argument("--arc", required=True, help="semicolon-separated series")
    p.add_argument("--N", type=precision, required=True, help="working precision")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("fiber", help="basis of the division kernel fiber over a field")
    common(p)
    p.add_argument("--poly", required=True, help="the monic q")
    p.add_argument("--N", type=precision, default=12)
    p.set_defaults(fn=_cmd_fiber)

    p = sub.add_parser("patho", help="pathological-ring identity reports")
    common(p, ring_default="Fp(5)")
    p.add_argument("--check", choices=("identities", "sawed", "xy"), required=True)
    p.add_argument("--bound", type=int, default=8, help="index bound for identities")
    p.add_argument("--order", type=precision, default=3, help="completion order for sawed")
    p.add_argument("--N", type=precision, default=10, help="precision for the xy arc")
    p.set_defaults(fn=_cmd_patho)

    p = sub.add_parser("completion", help="t-completion of the integer model Z, t acting as p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=precision, required=True)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_completion)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        print(args.fn(args))
        return 0
    except Verdict as exc:
        print(f"verdict: {type(exc).__name__}")
        print(f"witness: {exc}")
        return 2
    except ArcliftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
