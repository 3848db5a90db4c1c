"""Multivariate polynomials with pluggable coefficients.

Coefficients only need ``+``, ``*``, unary ``-`` and truthiness (falsy means
zero), so the same class serves integer-coefficient equation systems,
polynomials over the exact rings, and polynomials in correction variables
whose coefficients are whole truncated series.  ``evaluate_or`` is the one
evaluator; ``newton.evaluate_along`` wraps it for a map's int/Fraction
polynomials along series, and is the only caller in the package that
embeds coefficients.

Terms are stored sparsely as ``{exponent tuple: coefficient}`` with zero
coefficients omitted; printing orders monomials by total degree then
lexicographically, which keeps all text output byte-deterministic.
"""

from __future__ import annotations

from .errors import ArityMismatch


def _term_key(item):
    exps = item[0]
    return (sum(exps), exps)


class MultiPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i, nvars, one):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: one})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if other.nvars != self.nvars:
            raise ArityMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                c = ca * cb
                if e in out:
                    c = out[e] + c
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def scale(self, c):
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=_term_key))))

    def evaluate_or(self, values, zero, embed=lambda c: c):
        """Evaluate at ``values`` (anything with +, *), embedding coefficients;
        the zero polynomial evaluates to ``zero``.

        Variable powers are cached so repeated exponents cost one
        multiplication each.
        """
        if len(values) != self.nvars:
            raise ArityMismatch(f"expected {self.nvars} values, got {len(values)}")
        pow_cache = [{} for _ in range(self.nvars)]

        def vpow(i, k):
            cache = pow_cache[i]
            if k not in cache:
                cache[k] = values[i] * vpow(i, k - 1) if k > 1 else values[i]
            return cache[k]

        total = None
        for e, c in sorted(self.terms.items(), key=_term_key):
            term = embed(c)
            for i, k in enumerate(e):
                if k:
                    term = term * vpow(i, k)
            total = term if total is None else total + term
        return zero if total is None else total

    def map_coefficients(self, fn):
        return MultiPoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_term_key)

    def format(self, names, coeff_str=str):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            cs = coeff_str(c)
            wrap = any(op in cs for op in (" + ", " - "))
            if wrap:
                cs = f"({cs})"
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return self.format(names)
