"""Parsing and formatting for the deterministic text interfaces.

One expression grammar serves ring-element literals, polynomials in t, and
equation systems:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

The grammar is evaluated against a small algebra object, so the same
parser produces ring elements (names = ring generators), t-polynomials in
the ring's canonical series form (name ``t`` allowed), or integer-coefficient
multivariate polynomials (names = declared variables).  Division is
restricted to scalars; it extends the published grammar so rational
literals like ``1/2`` are expressible.  Ring generators and map variables
are declared as NAMEs, and no generator may be ``t``; unbalanced brackets
anywhere in a record, list or descriptor are a ``ParseError``.

Every exponent ``INT`` after ``^`` is at most ``MAX_PRECISION`` (512) and
is checked before the power is formed, which then costs O(log INT)
products (``rings.power``); a larger exponent is a ``ParseError``.  So are
an integer of more than ``MAX_DIGITS`` digits, anywhere in a text input,
and nesting (parentheses and unary minus) deeper than ``MAX_NESTING``.
What a literal builds is bounded too: a product or power whose
t-polynomial or map equation would pass degree ``MAX_PRECISION`` is a
``ParseError`` before it is formed, and so is a product whose operands'
term counts multiply past ``MAX_TERM_PAIRS``, and a sum, product,
quotient or power that holds an integer of more than ``MAX_DIGITS``
digits, once formed.  So ``(t^512)^512`` builds nothing of degree above
512, ``(x + y + z + w + u)^32`` stops before squaring the 495 terms of
its eighth power, and ``((2^512)^512)^512`` over Q stops at the fifth
squaring inside ``(2^512)^512``.

All formatters order monomials by degree (then lexicographically) and
print canonical coefficient forms, so identical values serialize to
identical bytes.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidDescriptor, NotAUnit, ParseError
from .newton import PolyMap
from .polynomials import MultiPoly
from .rings import ArtinianLocalRing, IntegersMod, PrimeFieldRing, RationalRing, Ring, power
from .series import TruncatedSeries, format_series
from .weierstrass import MonicPoly, StrictFactorization, poly_mul

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(rf"\s*(?:(\d+)|({_NAME})|([-+*/^()]))")

# CPython's default limit on the digits ``int`` converts from text.
MAX_DIGITS = 4300
_INT_CEILING = 10**MAX_DIGITS  # the smallest int of MAX_DIGITS + 1 digits
# The parser recurses a few frames per level of nesting.
MAX_NESTING = 100
# The most term pairs one product in a literal may multiply, which bounds
# the work of a map equation such as (x + y + z + w + u)^32 (58,905 terms,
# 45 s to build); a t-polynomial of degree <= MAX_PRECISION never reaches
# it (at most 257 * 257 pairs).
MAX_TERM_PAIRS = 2**17


def parse_int(digits: str) -> int:
    """int(digits), or ParseError beyond ``MAX_DIGITS`` digits."""
    if len(digits) > MAX_DIGITS:
        raise ParseError(
            f"an integer of {len(digits)} digits exceeds the ceiling {MAX_DIGITS} digits"
        )
    return int(digits)


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r} in {text!r}")
            break
        if m.group(1) is not None:
            out.append(("int", parse_int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, algebra, source):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.source = source
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {self.source!r}")

    def nested(self, rule):
        """``rule()`` inside a parenthesis or after a unary minus."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels in {self.source!r}")
        self.depth += 1
        value = rule()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input in {self.source!r}")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = self.algebra.add(value, rhs) if val == "+" else self.algebra.sub(value, rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                value = self.algebra.mul(value, rhs) if val == "*" else self.algebra.div(value, rhs)
            else:
                return value

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return self.algebra.neg(self.nested(self.factor))
        value = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, k = self.take()
            if kind != "int":
                raise ParseError(f"exponent must be an integer in {self.source!r}")
            check_precision(k, "exponent")
            value = self.algebra.power(value, k)
        return value

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.algebra.from_int(val)
        if kind == "name":
            return self.algebra.from_name(val)
        if kind == "op" and val == "(":
            value = self.nested(self.expr)
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token in {self.source!r}")


class _Algebra:
    """What the algebras share: sums, products, quotients and powers that
    refuse a value of degree above ``MAX_PRECISION`` before it is formed,
    and one holding an integer of more than ``MAX_DIGITS`` digits once it
    is; a product also refuses operands whose term counts multiply past
    ``MAX_TERM_PAIRS``, before it is formed.  Subclasses give ``_add``,
    ``_mul`` and ``_div``, a value's ``degree``, its number of terms
    (``_terms``) and the ints in it that can grow (``_ints``)."""

    def _bounded(self, value):
        for c in self._ints(value):
            if not -_INT_CEILING < c < _INT_CEILING:
                raise ParseError(f"an integer of the literal exceeds the ceiling {MAX_DIGITS} digits")
        return value

    def add(self, a, b):
        return self._bounded(self._add(a, b))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        check_precision(self.degree(a) + self.degree(b), "degree")
        ta, tb = self._terms(a), self._terms(b)
        if ta * tb > MAX_TERM_PAIRS:
            raise ParseError(
                f"a product of {ta} by {tb} terms exceeds the ceiling {MAX_TERM_PAIRS} term pairs")
        return self._bounded(self._mul(a, b))

    def div(self, a, b):
        return self._bounded(self._div(a, b))

    def power(self, a, k):
        """a^k by square-and-multiply over ``mul``, whose checks bound each
        step; the degree is checked once more for all of a^k first."""
        check_precision(self.degree(a) * k, "degree")
        return power(a, k, self.mul, self.from_int(1))


class _TPolyAlgebra(_Algebra):
    """Values are exact t-polynomials as canonical series forms of the ring
    (``weierstrass.poly_mul``) with no trailing zero coefficient, so 0 is
    the form of no coefficients."""

    def __init__(self, ring):
        self.ring = ring
        self.gens = ring.generators()

    def _trim(self, items, scale):
        """The form without its trailing zero coefficients."""
        return self.ring.form_window(items, scale, 0, self.ring.form_trimmed_len(items))

    def _of(self, payloads):
        return self._trim(*self.ring.integer_form(payloads))

    def from_int(self, k):
        return self._of([self.ring.payload_from_int(k)])

    def from_name(self, name):
        if name == "t":
            return self._of([self.ring.payload_from_int(0), self.ring.payload_from_int(1)])
        if name in self.gens:
            return self._of([self.gens[name].value])
        raise ParseError(f"unknown name {name!r} over {self.ring}")

    def degree(self, a):
        return max(self.ring.form_len(a[0]) - 1, 0)

    def _terms(self, a):
        return self.ring.form_len(a[0])

    def _ints(self, a):
        """The ints of the form over Q or an Artinian ring over Q; residues
        have a bound already."""
        return self.ring.form_ints(*a)

    def _add(self, a, b):
        ring = self.ring
        n = max(ring.form_len(a[0]), ring.form_len(b[0]))
        return self._trim(*ring.form_sum(*ring.form_window(*a, 0, n), *ring.form_window(*b, 0, n)))

    def neg(self, a):
        return self._trim(*self.ring.form_neg(*a))

    def _mul(self, a, b):
        return self._trim(*poly_mul(a, b, self.ring))

    def _div(self, a, b):
        size = self.ring.form_len(b[0])
        if size > 1:
            raise ParseError("division is only allowed by scalars")
        if not size:
            raise ParseError("division by zero")
        ring = self.ring
        c = ring.element(ring.from_integer_form(*b)[0])
        try:
            inv = ring.invert(c)
        except NotAUnit:
            raise NotAUnit(f"cannot divide by {c!r}: it is not a unit in {ring}") from None
        return self._mul(a, self._of([inv.value]))


class _MapAlgebra(_Algebra):
    """Values are MultiPoly with int/Fraction coefficients."""

    def __init__(self, var_names):
        self.names = list(var_names)

    def from_int(self, k):
        return MultiPoly.constant(len(self.names), k)

    def from_name(self, name):
        try:
            i = self.names.index(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}") from None
        return MultiPoly.variable(i, len(self.names), 1)

    @staticmethod
    def degree(a):
        return max(map(sum, a.terms), default=0)

    @staticmethod
    def _terms(a):
        return len(a.terms)

    @staticmethod
    def _ints(a):
        return [x for c in a.terms.values() for x in (c.numerator, c.denominator)]

    def _add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _div(self, a, b):
        c = b.terms.get((0,) * b.nvars)
        if len(b.terms) > (1 if c else 0) or not c:
            raise ParseError("division is only allowed by scalar constants")
        return a.scale(Fraction(1, 1) / c)


_CLOSES = {")": "(", "]": "[", "}": "{"}


def _split_top(text, sep=","):
    """Split on a separator at bracket depth zero; a closing bracket that
    matches no opening one, or an opening one never closed, is a
    ParseError."""
    parts = []
    open_brackets = []
    current = []
    for ch in text:
        if ch in "([{":
            open_brackets.append(ch)
        elif ch in _CLOSES:
            if not open_brackets or open_brackets.pop() != _CLOSES[ch]:
                raise ParseError(f"unbalanced {ch!r} in {text!r}")
        if ch == sep and not open_brackets:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if open_brackets:
        raise ParseError(f"unclosed {open_brackets[-1]!r} in {text!r}")
    parts.append("".join(current))
    return parts


def _names(parts, what):
    """The stripped ``parts``, each the tokenizer's NAME, or ParseError
    naming ``what``."""
    names = [s.strip() for s in parts]
    for name in names:
        if not re.fullmatch(_NAME, name):
            raise ParseError(f"{what} {name!r} is not a name")
    return names


# -- rings ---------------------------------------------------------------

def parse_ring(text: str) -> Ring:
    """Descriptors: ``Q``, ``Fp(5)``, ``Zmod(9)``, ``Artin(Fp(5); eps; 2)``."""
    text = text.strip()
    if text == "Q":
        return RationalRing()
    m = re.fullmatch(r"Fp\(\s*(\d+)\s*\)", text)
    if m:
        return PrimeFieldRing(parse_int(m.group(1)))
    m = re.fullmatch(r"Zmod\(\s*(\d+)\s*\)", text)
    if m:
        return IntegersMod(parse_int(m.group(1)))
    m = re.fullmatch(r"Artin\((.*)\)", text, re.DOTALL)
    if m:
        sections = _split_top(m.group(1), ";")
        if len(sections) != 3:
            raise ParseError("Artin descriptor needs base; generators; order")
        if sections[0].lstrip().startswith("Artin("):  # refused before recursing
            raise InvalidDescriptor("base must be a prime field or Q")
        base = parse_ring(sections[0])
        gens = sections[1]
        names = _names(gens.split(",") if gens.strip() else [], "generator")
        if "t" in names:
            raise ParseError("generator 't' would read as the series variable")
        order = _parse_count(sections[2].strip(), "truncation order")
        return ArtinianLocalRing(base, names, check_precision(order, "truncation order"))
    raise ParseError(f"unrecognized ring descriptor {text!r}")


# -- elements and t-polynomials --------------------------------------------

def parse_t_poly(text: str, ring) -> tuple:
    """A polynomial in t with element coefficients, as the ring's canonical
    series form (items, scale) with no trailing zero item."""
    return _Parser(_tokenize(text), _TPolyAlgebra(ring), text).parse()


def parse_element(text: str, ring):
    items, scale = parse_t_poly(text, ring)
    size = ring.form_len(items)
    if size > 1:
        raise ParseError(f"{text!r} is not a scalar (it mentions t)")
    return ring.element(ring.from_integer_form(items, scale)[0]) if size else ring.zero


_O_TAIL = re.compile(r"\+\s*O\(\s*t\^(\d+)\s*\)\s*$")

# The largest precision a series literal may state in its O-tail or take
# by default, and the largest exponent any literal may use; a series is
# built at its full precision, so larger values are refused before any
# coefficient is parsed.  At this N the CLI's cusp lift
# y^2 = x^3 over Q took 45 s with a dense rational perturbation (1.4 s with
# t^4 alone) on a 2-vCPU VM, against 6.6 s at N = 256.
MAX_PRECISION = 512


def check_precision(n: int, what="precision") -> int:
    """n itself, or ParseError when n exceeds ``MAX_PRECISION``; ``what``
    names n in the message."""
    if n > MAX_PRECISION:
        raise ParseError(f"{what} {n} exceeds the ceiling {MAX_PRECISION}")
    return n


def parse_series(text: str, ring, default_precision=None) -> TruncatedSeries:
    """``[c0, c1, ...] + O(t^N)`` or a polynomial in t with an O-tail;
    N is at most ``MAX_PRECISION``."""
    text = text.strip()
    m = _O_TAIL.search(text)
    precision = default_precision
    if m:
        precision = parse_int(m.group(1))
        text = text[: m.start()].strip()
    if precision is not None:
        check_precision(precision)
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"unbalanced brackets in {text!r}")
        inner = text[1:-1].strip()
        coeffs = [parse_element(p, ring) for p in _split_top(inner)] if inner else []
        if precision is None:
            precision = len(coeffs)
        return TruncatedSeries(ring, coeffs, precision)
    form = parse_t_poly(text, ring)
    if precision is None:
        raise ParseError(f"series {text!r} needs an O(t^N) tail or a default precision")
    return TruncatedSeries._of_form(ring, *form, precision)


def parse_monic(text: str, ring) -> MonicPoly:
    items, scale = parse_t_poly(text, ring)
    size = ring.form_len(items)
    if not size or ring.element(ring.from_integer_form(items, scale)[-1]) != ring.one:
        raise ParseError(f"{text!r} is not monic")
    return MonicPoly._of_form(ring, items, scale)


def format_t_poly(ring, payloads) -> str:
    """Degree-descending polynomial text of ascending canonical payloads."""
    terms = []
    for k in range(len(payloads) - 1, -1, -1):
        c = payloads[k]
        if ring.payload_is_zero(c):
            continue
        cs = ring.format_element(c)
        composite = " + " in cs or " - " in cs or ("-" in cs[1:]) or "/" in cs or "*" in cs
        if k == 0:
            terms.append(f"({cs})" if composite else cs)
            continue
        tpow = "t" if k == 1 else f"t^{k}"
        if cs == "1":
            terms.append(tpow)
        elif cs == "-1":
            terms.append(f"-{tpow}")
        else:
            neg = cs.startswith("-") and not composite
            if neg:
                cs = cs[1:]
            if composite:
                cs = f"({cs})"
            term = f"{cs}*{tpow}"
            terms.append("-" + term if neg else term)
    if not terms:
        return "0"
    out = terms[0]
    for part in terms[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


# -- factorizations ---------------------------------------------------------

def format_factorization(f: StrictFactorization) -> str:
    return (
        f"{{u: {format_series(f.u)}, q: {f.q!r}, "
        f"n: {f.certificate_n}, N: {f.precision}}}"
    )


def _parse_count(text: str, what: str) -> int:
    """A field of decimal digits as an int, or ParseError naming ``what``."""
    if not re.fullmatch(r"\d+", text):
        raise ParseError(f"bad {what} {text!r}")
    return parse_int(text)


def _read_record(parts, keys, what):
    """The ``key: value`` parts of a record as a dict with exactly ``keys``;
    a part without a colon, or a key that is unknown, repeated or missing,
    is a ParseError."""
    fields = {}
    for part in parts:
        key, colon, value = part.partition(":")
        key = key.strip()
        if not colon:
            raise ParseError(f"expected key: value in {part!r}")
        if key not in keys:
            raise ParseError(f"{what} has no field {key!r}")
        if key in fields:
            raise ParseError(f"{what} repeats the field {key!r}")
        fields[key] = value.strip()
    missing = set(keys) - set(fields)
    if missing:
        raise ParseError(f"{what} is missing {sorted(missing)}")
    return fields


def parse_factorization(text: str, ring) -> StrictFactorization:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("factorizations are brace-delimited")
    fields = _read_record(_split_top(text[1:-1]), ("u", "q", "n", "N"), "factorization")
    return StrictFactorization(
        u=parse_series(fields["u"], ring),
        q=parse_monic(fields["q"], ring),
        certificate_n=_parse_count(fields["n"], "certificate order"),
        precision=_parse_count(fields["N"], "precision"),
    )


# -- polynomial maps ----------------------------------------------------------

def parse_poly_map(text: str) -> PolyMap:
    """``vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]``"""
    fields = _read_record(_split_top(text, ";"), ("vars", "split", "eqs"), "map")

    def bracket_list(s):
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ParseError(f"expected a bracketed list, got {s!r}")
        inner = s[1:-1].strip()
        return _split_top(inner) if inner else []

    names = _names(bracket_list(fields["vars"]), "variable")
    algebra = _MapAlgebra(names)
    polys = [
        _Parser(_tokenize(src), algebra, src).parse() for src in bracket_list(fields["eqs"])
    ]
    try:
        split = int(fields["split"])
    except ValueError:
        raise ParseError(f"bad split {fields['split']!r}") from None
    return PolyMap(names, split, polys)


def format_poly_map(pm: PolyMap) -> str:
    eqs = ", ".join(p.format(pm.var_names) for p in pm.polys)
    return f"vars: [{', '.join(pm.var_names)}]; split: {pm.split}; eqs: [{eqs}]"


def parse_arc(text: str, ring, default_precision=None):
    """Semicolon-separated series literals, one per coordinate."""
    return tuple(
        parse_series(part, ring, default_precision) for part in _split_top(text, ";")
    )
