"""Seeded random ring elements and series, built from ring-layer operations.

Generation lives in the benchmark rather than in arclift's ``random_*``
helpers, so that the library receives only finished inputs.  Each sampler
takes a ``random.Random`` and returns arclift ring elements.
"""

from __future__ import annotations

import random
from fractions import Fraction

from arclift import rings


def cycle_rng(workload, seed, index):
    """The generator for one cycle of one workload; same arguments, same inputs."""
    return random.Random(f"{workload}:{seed}:{index}")


def _smallest_prime_factor(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


class RingSampler:
    """Random elements, units and nilpotents of one coefficient ring.

    ``int_range`` bounds Q samples to integers in [-k, k] when set; otherwise
    Q samples are fractions with numerators in [-9, 9] and denominators in
    [1, 9].
    """

    def __init__(self, descriptor, int_range=None):
        self.descriptor = descriptor
        self.ring = rings.make_ring(descriptor)
        self.int_range = int_range
        ring = self.ring
        if isinstance(ring, rings.ArtinianLocalRing):
            self.base = RingSampler(repr(ring.base), int_range)
            gens = ring.generators()
            self.monomials = []
            for exps in ring.monomials():
                mono = ring.one
                for name, k in zip(ring.names, exps):
                    for _ in range(k):
                        mono = mono * gens[name]
                self.monomials.append(mono)
        elif isinstance(ring, rings.IntegersMod):
            self.p = _smallest_prime_factor(ring.n)

    def element(self, rng, dense=False):
        """A random element; ``dense`` makes every coefficient nonzero, which
        keeps the cost of arithmetic on it from varying with the draw."""
        ring = self.ring
        if isinstance(ring, rings.PrimeFieldRing):
            return ring.from_int(rng.randrange(1 if dense else 0, ring.p))
        if isinstance(ring, rings.IntegersMod):
            return ring.from_int(rng.randrange(1 if dense else 0, ring.n))
        if isinstance(ring, rings.RationalRing):
            if self.int_range is not None:
                k = rng.randint(1 if dense else 0, self.int_range)
                return ring.from_int(rng.choice((k, -k)))
            num = rng.randint(1 if dense else 0, 9)
            return ring.from_fraction(Fraction(rng.choice((num, -num)), rng.randint(1, 9)))
        out = ring.zero
        for mono in self.monomials:
            if dense or rng.random() < 0.6:
                out = out + self._embed(self.base.element(rng, dense)) * mono
        return out

    def unit(self, rng):
        ring = self.ring
        while True:
            a = self.element(rng)
            if ring.is_unit(a):
                return a

    def nilpotent(self, rng):
        ring = self.ring
        if isinstance(ring, rings.IntegersMod):
            return ring.from_int(self.p * rng.randrange(ring.n // self.p))
        if isinstance(ring, rings.ArtinianLocalRing):
            out = ring.zero
            for mono in self.monomials[1:]:
                if rng.random() < 0.6:
                    out = out + self._embed(self.base.element(rng)) * mono
            return out
        return ring.zero

    def _embed(self, c):
        """A base-field element as a constant of this Artinian ring."""
        value = c.value
        if isinstance(value, Fraction):
            return self.ring.from_fraction(value)
        return self.ring.from_int(value)
