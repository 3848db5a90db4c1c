"""Reference arithmetic and text reading for checking arclift outputs.

Everything above the ring layer is recomputed here without arclift's series,
polynomial, Weierstrass or text modules: coefficient lists are multiplied by
schoolbook loops, divided by monic polynomials by synthetic division, and
printed results are read back by a small parser of this file's own.  Ring
elements still come from arclift's rings, which supply ``+``, ``*``, ``==``
and truthiness.
"""

from __future__ import annotations

import re
from fractions import Fraction


def mul_trunc(a, b, n, zero):
    """The first n coefficients of the product of coefficient lists a and b."""
    out = [zero] * n
    for i in range(min(len(a), n)):
        ai = a[i]
        if not ai:
            continue
        for j in range(min(len(b), n - i)):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def mul_full(a, b, zero):
    """The exact product of two coefficient lists."""
    if not a or not b:
        return []
    return mul_trunc(a, b, len(a) + len(b) - 1, zero)


def rem_monic(coeffs, low, zero):
    """(quotient, remainder) of a coefficient list by the monic t^d + low."""
    d = len(low)
    rem = list(coeffs) + [zero] * max(0, d - len(coeffs))
    quot = [zero] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if not c:
            continue
        quot[i - d] = c
        for j, qj in enumerate(low):
            rem[i - d + j] = rem[i - d + j] - c * qj
    return quot, rem[:d]


def evaluate(terms, comps, n, ring):
    """An integer polynomial {exponents: int} at coefficient lists, mod t^n."""
    zero = ring.zero
    total = [zero] * n
    for exps, c in terms.items():
        term = [ring.from_int(c)] + [zero] * (n - 1)
        for comp, k in zip(comps, exps):
            for _ in range(k):
                term = mul_trunc(term, comp, n, zero)
        total = [x + y for x, y in zip(total, term)]
    return total


def first_nonzero(coeffs):
    return next((i for i, c in enumerate(coeffs) if c), None)


def split_top(text, sep=","):
    """Split at separators outside parentheses and brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        depth += ch in "(["
        depth -= ch in ")]"
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


class Reader:
    """Reads printed elements and t-polynomials back into ring elements.

    Values are a ``Fraction`` while only numbers are involved, and a dense
    list of ring elements in t once a name appears.  ``names`` maps every
    name other than ``t`` to a ring element.
    """

    def __init__(self, ring, names=None):
        self.ring = ring
        self.names = dict(names if names is not None else ring.generators())

    # -- entry points ----------------------------------------------------
    def poly(self, text):
        self.toks = self._tokens(text)
        self.pos = 0
        value = self._expr()
        if self.pos != len(self.toks):
            raise ValueError(f"trailing input in {text!r}")
        out = self._as_poly(value)
        while out and not out[-1]:
            out.pop()
        return out

    def element(self, text):
        coeffs = self.poly(text)
        if len(coeffs) > 1:
            raise ValueError(f"{text!r} is not a scalar")
        return coeffs[0] if coeffs else self.ring.zero

    def series(self, text):
        """``[c0, c1, ...] + O(t^N)`` as (N coefficients, N)."""
        m = re.fullmatch(r"\s*\[(.*)\]\s*\+\s*O\(t\^(\d+)\)\s*", text, re.DOTALL)
        if not m:
            raise ValueError(f"not a series: {text!r}")
        body = m.group(1).strip()
        n = int(m.group(2))
        coeffs = [self.element(c) for c in split_top(body)] if body else []
        return (coeffs + [self.ring.zero] * n)[:n], n

    # -- grammar ---------------------------------------------------------
    @staticmethod
    def _tokens(text):
        out, pos = [], 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad character in {text!r}")
                break
            out.append(m.groups())
            pos = m.end()
        return out

    def _peek(self):
        return self.toks[self.pos][2] if self.pos < len(self.toks) else None

    def _expr(self):
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self.toks[self.pos][2]
            self.pos += 1
            rhs = self._term()
            value = self._add(value, rhs if op == "+" else self._neg(rhs))
        return value

    def _term(self):
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self.toks[self.pos][2]
            self.pos += 1
            rhs = self._factor()
            if op == "*":
                value = self._mul(value, rhs)
            elif not isinstance(rhs, Fraction) or rhs == 0:
                raise ValueError("division by a non-number")
            else:
                value = self._mul(value, 1 / rhs)
        return value

    def _factor(self):
        if self._peek() == "-":
            self.pos += 1
            return self._neg(self._factor())
        value = self._atom()
        if self._peek() == "^":
            self.pos += 1
            num, _, _ = self.toks[self.pos]
            self.pos += 1
            out = Fraction(1)
            for _ in range(int(num)):
                out = self._mul(out, value)
            value = out
        return value

    def _atom(self):
        num, name, op = self.toks[self.pos]
        self.pos += 1
        if num is not None:
            return Fraction(int(num))
        if name == "t":
            return [self.ring.zero, self.ring.one]
        if name is not None:
            return [self.names[name]]
        if op == "(":
            value = self._expr()
            self.pos += 1  # ")"
            return value
        raise ValueError(f"unexpected {op!r}")

    # -- value algebra -----------------------------------------------------
    def _as_poly(self, v):
        if not isinstance(v, Fraction):
            return list(v)
        if v.denominator == 1:
            return [self.ring.from_int(v.numerator)]
        return [self.ring.from_fraction(v)]

    def _add(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        a, b = self._as_poly(a), self._as_poly(b)
        n = max(len(a), len(b))
        zero = self.ring.zero
        a += [zero] * (n - len(a))
        b += [zero] * (n - len(b))
        return [x + y for x, y in zip(a, b)]

    def _neg(self, a):
        return -a if isinstance(a, Fraction) else [-c for c in a]

    def _mul(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        return mul_full(self._as_poly(a), self._as_poly(b), self.ring.zero)
