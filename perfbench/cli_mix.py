"""The ``cli`` workload: seeded in-process ``arclift.cli.main(argv)`` calls.

Every invocation runs twice, once with text output and once with
``--output json``.  A cycle covers each subcommand: prepare and divide over
every ring descriptor, cusp lifts at N <= 24, fiber over Fp(7), the three
``patho`` reports and ``completion``, plus exit-2 verdicts (NoDivide,
CongruenceFailed, Indeterminate) and exit-1 malformed input.  Each call
parses its descriptors and builds fresh rings and maps, so parsing and
formatting weigh as much as the arithmetic.

The size ladder behind ``n_exponent`` is a lift on the smooth curve
y^2 + y = x^3 over Fp(7) at N = 12 and N = 24 with the same perturbation.

Checks: the exit code must match; for exit 0 the JSON result is re-verified
here (u*q = x, q*h + a = f, f(x_new) = 0, q*v + a = 0, the colimit
identities, p^n), and the text output must say the same as the JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

from arclift import cli, pathology, rings

import oracle
from inputs import cycle_rng
from workload import Item, Workload, passes

RINGS = [
    "Fp(5)",
    "Q",
    "Zmod(9)",
    "Zmod(27)",
    "Artin(Fp(5); eps; 2)",
    "Artin(Fp(2); s1,s2; 3)",
]

# maps for lift: text, equations and Jacobian determinant as {exponents: int}
MAPS = {
    "cusp": (
        "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]",
        [{(0, 2): 1, (3, 0): -1}],
        {(0, 1): 2},
    ),
    "smooth": (
        "vars: [x1, y1]; split: 1; eqs: [y1^2 + y1 - x1^3]",
        [{(0, 2): 1, (0, 1): 1, (3, 0): -1}],
        {(0, 1): 2, (0, 0): 1},
    ),
}

SMOOTH_LADDER = (12, 24)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- text of random inputs ----------------------------------------------------

def _artin_parts(desc):
    if "eps" in desc:
        return 5, ["eps"]
    return 2, ["s1", "s2", "s1^2", "s1*s2", "s2^2"]


def element_text(desc, rng, kind="any"):
    """A random element of the ring as text; kind is any, unit or nilpotent."""
    if desc == "Q":
        if kind == "nilpotent":
            return "0"
        num = rng.choice([k for k in range(-9, 10) if k]) if kind == "unit" else rng.randint(-9, 9)
        den = rng.randint(1, 9)
        return str(num) if den == 1 or num == 0 else f"{num}/{den}"
    m = re.fullmatch(r"(Fp|Zmod)\((\d+)\)", desc)
    if m:
        n = int(m.group(2))
        p = next(f for f in range(2, n + 1) if n % f == 0)
        if kind == "nilpotent":
            return str(p * rng.randrange(n // p))
        if kind == "unit":
            return str(rng.choice([k for k in range(1, n) if k % p]))
        return str(rng.randrange(n))
    p, monos = _artin_parts(desc)
    terms = []
    if kind == "unit":
        terms.append(str(rng.randrange(1, p)))
    elif kind == "any" and rng.random() < 0.6:
        terms.append(str(rng.randrange(p)))
    for mono in monos:
        if rng.random() < 0.5:
            c = rng.randrange(1, p)
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(terms) or "0"


def series_text(coeffs, n):
    return f"[{', '.join(coeffs)}] + O(t^{n})"


def poly_text(coeffs):
    """Ascending coefficient texts as a polynomial in t."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == "0":
            continue
        mono = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
        parts.append(f"({c})" if k == 0 else f"({c})*{mono}")
    return " + ".join(parts) or "0"


def _json_series(s):
    if len(s["coeffs"]) != s["precision"]:
        raise ValueError("a printed series lists one coefficient per known order")
    return series_text(s["coeffs"], s["precision"])


def _level(statement):
    """The level an identity row lives at: its highest x-generator index."""
    return max((int(k) for k in re.findall(r"x(\d+)", statement)), default=0)


# -- the workload ----------------------------------------------------------------

class CliWorkload(Workload):
    name = "cli"
    trace_cycles = 8
    ladder_ratio = SMOOTH_LADDER[1] / SMOOTH_LADDER[0]

    def __init__(self):
        self.rings = {desc: rings.make_ring(desc) for desc in RINGS + ["Fp(7)"]}

    def _pair(self, kind, argv, expect=0, data=None, rung=None, json_ok=True):
        items = []
        for mode in ("text", "json"):
            args = list(argv) + (["--output", "json"] if mode == "json" and json_ok else [])
            items.append(
                Item(
                    label=f"{kind}/{mode}",
                    fn=run_cli,
                    args=(args,),
                    data=dict(kind=kind, expect=expect, mode=mode, **(data or {})),
                    rung=rung,
                )
            )
        return items

    def cycle(self, seed, index):
        rng = cycle_rng(self.name, seed, index)
        items = []
        for desc in RINGS:
            e = self.rings[desc].nilpotency_exponent()
            d = rng.randrange(4)
            n = d * (e + 1) + rng.randint(2, 4)
            coeffs = [element_text(desc, rng, "nilpotent") for _ in range(d)]
            coeffs.append(element_text(desc, rng, "unit"))
            coeffs += [element_text(desc, rng) for _ in range(n - d - 1)]
            text = series_text(coeffs, n)
            items += self._pair("prepare", ["prepare", "--ring", desc, "--series", text],
                                data=dict(ring=desc, series=text))
        for desc in RINGS:
            n = rng.randint(6, 10)
            f = series_text([element_text(desc, rng) for _ in range(n)], n)
            low = [element_text(desc, rng, rng.choice(["any", "nilpotent"]))
                   for _ in range(rng.randint(1, 3))]
            q = poly_text(low + ["1"])
            items += self._pair("divide", ["divide", "--ring", desc, "--series", f, "--poly", q],
                                data=dict(ring=desc, series=f, poly=q))
        for desc, n in (("Q", 16), ("Fp(7)", 24)):
            pert = [element_text(desc, rng) for _ in range(4, 9)]
            arc = f"t^2; t^3 + {poly_text(['0'] * 4 + pert)}"
            items += self._lift(desc, "cusp", arc, n)
        pert_x = [element_text("Fp(7)", rng) for _ in range(2, 6)]
        pert_y = [element_text("Fp(7)", rng) for _ in range(1, 6)]
        arc = f"t + {poly_text(['0', '0'] + pert_x)}; {poly_text(['0'] + pert_y)}"
        for rung, n in enumerate(SMOOTH_LADDER):
            items += self._lift("Fp(7)", "smooth", arc, n, rung)
        # fiber over Fp(7): q with t-multiplicity mult
        deg = rng.randint(2, 4)
        mult = rng.randint(0, deg - 1)
        low = ["0"] * mult + [str(rng.randint(1, 6))]
        low += [str(rng.randrange(7)) for _ in range(deg - mult - 1)]
        q = poly_text(low + ["1"])
        items += self._pair("fiber", ["fiber", "--ring", "Fp(7)", "--poly", q, "--N", "12"],
                            data=dict(poly=q))
        field, bound = rng.choice(["Fp(5)", "Fp(7)", "Q"]), rng.randint(3, 8)
        items += self._pair("identities", ["patho", "--check", "identities", "--ring", field,
                                           "--bound", str(bound)], data=dict(ring=field, bound=bound))
        field = rng.choice(["Fp(5)", "Q"])
        items += self._pair("sawed", ["patho", "--check", "sawed", "--ring", field,
                                      "--order", str(rng.randint(1, 4))], data=dict(ring=field))
        field = rng.choice(["Fp(5)", "Fp(7)", "Q"])
        n = rng.randint(2, 10)
        items += self._pair("xy", ["patho", "--check", "xy", "--ring", field, "--N", str(n)],
                            data=dict(ring=field, n=n))
        p, k = rng.choice([2, 3, 5, 7]), rng.randint(1, 4)
        items += self._pair("completion", ["completion", "--p", str(p), "--n", str(k)],
                            data=dict(p=p, n=k))
        # negative verdicts (exit 2) and malformed input (exit 1)
        c = rng.randint(1, 4)
        items += self._pair("nodivide", ["prepare", "--ring", "Artin(Fp(5); eps; 2)", "--series",
                                         f"[{c}*eps, 1] + O(t^{rng.randint(4, 6)})",
                                         "--certify", "1"],
                            expect=2, data=dict(verdict="NoDivide"))
        c = rng.choice([2, 3, 4, 5])
        items += self._pair("congruence", ["lift", "--ring", "Q", "--map", MAPS["cusp"][0],
                                           "--arc", f"t^2; {c}*t^3", "--N", "16"],
                            expect=2, data=dict(verdict="CongruenceFailed"))
        n = rng.randint(2, 6)
        items += self._pair("indeterminate", ["prepare", "--ring", "Fp(7)", "--series",
                                              series_text(["0"] * n, n)],
                            expect=2, data=dict(verdict="Indeterminate"))
        items += self._pair("garbage", ["prepare", "--ring", "Fp(7)", "--series", "oops("],
                            expect=1, data=dict(error="ParseError"))
        items += self._pair("badring", ["prepare", "--ring", f"NotARing({rng.randint(2, 9)})",
                                        "--series", "[1] + O(t^2)"],
                            expect=1, data=dict(error="ParseError"))
        items += self._pair("badflag", ["prepare", "--nope"], expect=1,
                            data=dict(error="ParseError"), json_ok=False)
        return items

    def _lift(self, desc, curve, arc, n, rung=None):
        argv = ["lift", "--ring", desc, "--map", MAPS[curve][0], "--arc", arc, "--N", str(n)]
        return self._pair("lift", argv, data=dict(ring=desc, curve=curve, arc=arc, n=n), rung=rung)

    # -- checks ------------------------------------------------------------------
    def check(self, items, outputs):
        """Items come in (text, json) pairs; a pair passes or fails together."""
        verdicts = []
        for i in range(0, len(items), 2):
            ok = passes(self._check_pair, items[i], outputs[i], outputs[i + 1])
            verdicts += [ok, ok]
        return verdicts

    def _check_pair(self, item, text_out, json_out):
        if isinstance(text_out, Exception) or isinstance(json_out, Exception):
            return False
        d = item.data
        (tcode, tout, terr), (jcode, jout, jerr) = text_out, json_out
        if tcode != d["expect"] or jcode != d["expect"]:
            return False
        if d["expect"] == 2:
            return tout == jout and tout.startswith(f"verdict: {d['verdict']}\nwitness: ")
        if d["expect"] == 1:
            return tout == jout == "" and terr == jerr and terr.startswith(f"error: {d['error']}: ")
        payload = json.loads(jout)
        expected_text = getattr(self, f"_verify_{d['kind']}")(d, payload)
        return expected_text is not None and tout.rstrip("\n") == expected_text

    # Each _verify_* re-verifies the JSON payload and returns the text output
    # that must accompany it, or None when the payload is wrong.

    def _verify_prepare(self, d, pl):
        ring = self.rings[d["ring"]]
        rd = oracle.Reader(ring)
        zero = ring.zero
        x, n = rd.series(d["series"])
        u = [rd.element(c) for c in pl["u"]["coeffs"]]
        q = rd.poly(pl["q"])
        if pl["N"] != n or not q or q[-1] != ring.one:
            return None
        if oracle.mul_trunc(u, q, n, zero) != x:
            return None
        tn = [zero] * pl["n"] + [ring.one]
        if any(oracle.rem_monic(tn, q[:-1], zero)[1]):
            return None
        return "{u: %s, q: %s, n: %d, N: %d}" % (_json_series(pl["u"]), pl["q"], pl["n"], pl["N"])

    def _verify_divide(self, d, pl):
        ring = self.rings[d["ring"]]
        rd = oracle.Reader(ring)
        zero = ring.zero
        f, n = rd.series(d["series"])
        q = rd.poly(d["poly"])
        deg = len(q) - 1
        h = [rd.element(c) for c in pl["h"]["coeffs"]]
        a = rd.poly(pl["a"])
        window = n - deg
        if pl["h"]["precision"] != window or len(a) > deg:
            return None
        qh = oracle.mul_trunc(q, h, window, zero)
        a += [zero] * (window - len(a))
        if [qh[i] + a[i] for i in range(window)] != f[:window]:
            return None
        low = q[:-1]
        strict = all(not ring.is_unit(c) for c in low)
        e = ring.nilpotency_exponent()
        exact = not any(low) or (strict and n >= deg * (e + 1))
        if pl["exact"] != exact:
            return None
        flag = "true" if exact else "false"
        return "{h: %s, a: %s, exact: %s}" % (_json_series(pl["h"]), pl["a"], flag)

    def _verify_lift(self, d, pl):
        ring = self.rings[d["ring"]]
        rd = oracle.Reader(ring)
        zero = ring.zero
        n = d["n"]
        _, eqs, det = MAPS[d["curve"]]
        arc = []
        for part in d["arc"].split(";"):
            c = rd.poly(part)
            arc.append(c + [zero] * (n - len(c)))
        rho = oracle.first_nonzero(oracle.evaluate(det, arc, n, ring))
        prec = pl["residual_precision"]
        if prec != n - 2 * rho - 1:
            return None
        names = ["x1", "y1"]
        new = []
        for name in names:
            coeffs = [rd.element(c) for c in pl["x_new"][name]["coeffs"]]
            if len(coeffs) < prec:
                return None
            new.append(coeffs[:prec])
        if new[0] != arc[0][:prec] or new[1][: rho + 1] != arc[1][: rho + 1]:
            return None
        if any(any(oracle.evaluate(eq, new, prec, ring)) for eq in eqs):
            return None
        lines = [f"v1[{i}]: {_json_series(v)}" for i, v in enumerate(pl["v1"])]
        lines += [f"v0[{i}]: {_json_series(v)}" for i, v in enumerate(pl["v0"])]
        lines += [f"x_new[{k}]: {_json_series(pl['x_new'][k])}" for k in names]
        lines.append(f"residual_precision: {prec}")
        return "\n".join(lines)

    def _verify_fiber(self, d, pl):
        ring = self.rings["Fp(7)"]
        rd = oracle.Reader(ring)
        zero = ring.zero
        q = rd.poly(d["poly"])
        mult = oracle.first_nonzero(q)
        if pl["dimension"] != len(q) - 1 - mult or len(pl["pairs"]) != pl["dimension"]:
            return None
        lines = [f"dimension: {pl['dimension']}"]
        for pair in pl["pairs"]:
            a = rd.poly(pair["a"])
            v = [rd.element(c) for c in pair["v"]["coeffs"]]
            prec = pair["v"]["precision"]
            qv = oracle.mul_trunc(q, v, prec, zero)
            a += [zero] * (prec - len(a))
            if not any(a) or any(x + y for x, y in zip(qv, a)):
                return None
            lines.append(f"{{a: {pair['a']}, v: {_json_series(pair['v'])}}}")
        return "\n".join(lines)

    @staticmethod
    def _colimit_names(ring):
        names = {f"x{k}": ring.x(k) for k in range(40)}
        names["q0"] = ring.q0()
        if ring.sawed:
            names["a0"] = ring.a0()
        return names

    @staticmethod
    def _table(rows):
        if any(r["level"] != _level(r["identity"]) for r in rows):
            raise ValueError("identity row at the wrong level")
        width = max(len(r["identity"]) for r in rows)
        return [
            f"{r['identity'].ljust(width)} | level {r['level']:>2} | {'PASS' if r['ok'] else 'FAIL'}"
            for r in rows
        ]

    def _verify_identities(self, d, pl):
        ring = pathology.arc_kernel_ring(self.rings[d["ring"]])
        rd = oracle.Reader(ring, self._colimit_names(ring))
        pairs = 0
        for row in pl["rows"]:
            s = row["identity"]
            m = re.fullmatch(r"(x\d+)\*(x\d+) = 0", s)
            if m:
                truth = not (rd.element(m.group(1)) * rd.element(m.group(2)))
                pairs += 1
            elif (m := re.fullmatch(r"(x\d+) != 0", s)):
                truth = bool(rd.element(m.group(1)))
            elif (m := re.fullmatch(r"q0 -> (\S+) kills x(\d+)", s)):
                # inverting q0 kills x_n through the level relation q0^(n+1) x_n = 0
                k = int(m.group(2))
                truth = not (ring.q0() ** (k + 1) * ring.x(k))
            else:
                lhs, rhs = s.split(" = ")
                truth = rd.element(lhs) == rd.element(rhs)
            if row["ok"] != truth:
                return None
        if pairs != (d["bound"] + 1) * (d["bound"] + 2) // 2:
            return None
        all_ok = all(r["ok"] for r in pl["rows"])
        if pl["all_ok"] != all_ok or pl["family"] != "arc-kernel":
            return None
        return "\n".join(self._table(pl["rows"]) + [f"all: {'PASS' if all_ok else 'FAIL'}"])

    def _verify_sawed(self, d, pl):
        ring = pathology.sawed_plane_ring(self.rings[d["ring"]])
        rd = oracle.Reader(ring, self._colimit_names(ring))
        order = pl["order"]
        basis = ["1", "q0"] + [f"q0^{k}" for k in range(2, order)]
        if pl["dimension"] != order or pl["basis"] != basis[:order]:
            return None
        names = ["a0"] + [f"x{i}" for i in range(order + 3)]
        if [g["name"] for g in pl["generators"]] != names:
            return None
        lines = [f"quotient: k[q0]/(q0^{order})", f"dimension: {order}",
                 f"basis: {', '.join(pl['basis'])}"]
        for g in pl["generators"]:
            parts = [rd.element(p) for p in g["chain"].split(" = ")]
            if len(parts) != order + 1 or g["verified"] != all(p == parts[0] for p in parts):
                return None
            lines.append(f"{g['name']} -> 0 via {g['chain']} | {'PASS' if g['verified'] else 'FAIL'}")
        all_ok = all(g["verified"] for g in pl["generators"])
        if pl["all_ok"] != all_ok:
            return None
        return "\n".join(lines + [f"all: {'PASS' if all_ok else 'FAIL'}"])

    def _verify_xy(self, d, pl):
        field = self.rings[d["ring"]]
        ring = pathology.arc_kernel_ring(field)
        rd = oracle.Reader(ring, self._colimit_names(ring))
        n = d["n"]
        q = [rd.element(c) for c in pl["q"]["coeffs"]]
        x = [rd.element(c) for c in pl["x"]["coeffs"]]
        if len(q) != n or len(x) != n:
            return None
        prod = oracle.mul_trunc(q, x, n, ring.zero)
        if pl["product_is_zero"] != (not any(prod)) or pl["x_nonzero"] != any(x):
            return None
        for row in pl["rows"]:
            s = row["identity"]
            if (m := re.fullmatch(r"coefficient t\^(\d+) of q\*x: .* = 0", s)):
                truth = not prod[int(m.group(1))]
            elif s.startswith("x0 != 0"):
                truth = bool(x[0])
            elif (m := re.fullmatch(r"q at q0 = (\S+) stays nonzero", s)):
                # the image of q in k[q0] (x-generators killed) at q0 = c
                point = oracle.Reader(field).element(m.group(1))
                at = oracle.Reader(field, {"q0": point, **{f"x{k}": field.zero for k in range(40)}})
                truth = any(at.element(c) for c in pl["q"]["coeffs"])
            else:
                return None
            if row["ok"] != truth:
                return None
        all_ok = pl["product_is_zero"] and pl["x_nonzero"] and pl["q_nondegenerate"]
        if pl["all_ok"] != all_ok:
            return None
        if not pl["product_is_zero"]:
            return None
        lines = [f"q: {_json_series(pl['q'])}", f"x: {_json_series(pl['x'])}",
                 f"q*x: {series_text(['0'] * n, n)}"]
        return "\n".join(lines + self._table(pl["rows"]) + [f"all: {'PASS' if all_ok else 'FAIL'}"])

    def _verify_completion(self, d, pl):
        p, n = d["p"], d["n"]
        m = p ** n
        verified = m % pl["modulus"] == 0 and (n == 1 or p ** (n - 1) % pl["modulus"] != 0)
        if (pl["prime"], pl["order"], pl["modulus"], pl["t_image"]) != (p, n, m, p % m):
            return None
        if pl["verified"] != verified:
            return None
        flag = "true" if verified else "false"
        return f"{{modulus: {m}, t: {p % m}, verified: {flag}}}"

    def corrupt(self, item, output):
        """Flip the last digit of the output, or the exit code if it has none."""
        code, out, err = output
        digits = [i for i, ch in enumerate(out) if ch.isdigit()]
        if item.data["expect"] != 0 or not digits:
            return (code + 1, out, err)
        i = digits[-1]
        return (code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:], err)
