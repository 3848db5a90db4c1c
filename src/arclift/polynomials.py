"""Multivariate polynomials with pluggable coefficients.

Coefficients only need ``+``, ``*``, unary ``-`` and truthiness (falsy means
zero), so the same class serves int/Fraction equation systems, the
polynomials in x of their Jacobian data, and polynomials over the exact
rings.  ``evaluate_or`` evaluates one polynomial term by term.
``EvaluationPlan`` evaluates several at once as a straight-line program
over one ``MonomialTable``, so each monomial costs one product however many
polynomials use it; ``newton`` builds one per map for its evaluations along
series.  Polynomials in the correction variables with series coefficients
are not MultiPolys: they are ``newton.CorrectionPlan`` programs.

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


class Monomials:
    """The monomials of a straight-line program in ``nvars`` variables
    (Burgisser, Clausen and Shokrollahi, *Algebraic Complexity Theory*,
    1997, ch. 4): slots 0..nvars-1 hold the variables, and ``steps[k] =
    (parent, j)`` makes slot nvars + k the parent slot's monomial times
    variable j, so each monomial of degree >= 2 is one product."""

    __slots__ = ("nvars", "steps", "_slots")

    def __init__(self, nvars):
        self.nvars = nvars
        self.steps = []
        self._slots = {tuple(int(i == j) for i in range(nvars)): j for j in range(nvars)}

    def slot(self, exps):
        """The slot of the monomial with exponents ``exps`` (degree >= 1),
        added with its missing divisors; a parent already present is
        preferred, else the last variable is split off."""
        s = self._slots.get(exps)
        if s is None:
            lower = [(exps[:j] + (k - 1,) + exps[j + 1:], j) for j, k in enumerate(exps) if k]
            parent, j = next((p for p in lower if p[0] in self._slots), lower[-1])
            parent = self.slot(parent)
            s = self._slots[exps] = self.nvars + len(self.steps)
            self.steps.append((parent, j))
        return s

    def within(self, k):
        """The slots of degree >= 2 whose monomials use only the variables
        0..k-1, in slot order (a parent's slot is below its child's)."""
        inside = [j < k for j in range(self.nvars)]
        for parent, j in self.steps:
            inside.append(inside[parent] and j < k)
        return tuple(s for s in range(self.nvars, len(inside)) if inside[s])


class MonomialTable:
    """The values of a ``Monomials`` at ``values``, each computed on first
    read and kept; ``known`` holds (slot, value) pairs computed elsewhere,
    which are kept as they are."""

    __slots__ = ("steps", "nvars", "values")

    def __init__(self, monomials: Monomials, values, known=()):
        if len(values) != monomials.nvars:
            raise ArityMismatch(f"expected {monomials.nvars} values, got {len(values)}")
        self.steps = monomials.steps
        self.nvars = monomials.nvars
        self.values = list(values) + [None] * len(self.steps)
        for s, x in known:
            self.values[s] = x

    def __getitem__(self, s):
        x = self.values[s]
        if x is None:
            parent, j = self.steps[s - self.nvars]
            x = self.values[s] = self[parent] * self.values[j]
        return x


class EvaluationPlan:
    """Several polynomials with scalar coefficients in the same variables
    as one straight-line program over shared ``monomials``.  A coefficient
    of +-1 becomes an addition or a subtraction and any other one a
    ``scale``; equal polynomials share one program."""

    __slots__ = ("monomials", "programs")

    def __init__(self, nvars, polys):
        self.monomials = Monomials(nvars)
        self.programs = {}
        for p in polys:
            if p.nvars != nvars:
                raise ArityMismatch(
                    f"a plan over {nvars} variables got a polynomial in {p.nvars} variables"
                )
            if p not in self.programs:
                self.programs[p] = tuple(
                    (self.monomials.slot(e) if any(e) else None, c, (c == 1) - (c == -1))
                    for e, c in p.sorted_terms()
                )

    def evaluate(self, poly, table: MonomialTable, zero, constant, scale):
        """``poly`` (one of the plan's) at the values behind ``table``:
        ``constant(c)`` is the constant term c, ``scale(x, c)`` is c times
        the monomial value x, and the zero polynomial is ``zero``.
        Coefficients are taken in ``sorted_terms`` order."""
        total = None
        for s, c, sign in self.programs[poly]:
            if s is None:
                term, sign = constant(c), 1
            else:
                term = table[s]
                if not sign:
                    term, sign = scale(term, c), 1
            if total is None:
                total = term if sign > 0 else -term
            else:
                total = total + term if sign > 0 else total - term
        return zero if total is None else total
