"""Finite-support weight maps with exact rational entries.

A ``Distribution`` merges like terms and drops zero weights on
construction.  Construction does not force the mass to be 1: validation
reports a bad mass as a data problem, and the operations that require a
probability call :meth:`require_probability` up front.  Floats are
rejected outright so no verdict can silently depend on rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from qualtree.ordering import ckey

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


def exact(x) -> Fraction:
    """Convert to Fraction, refusing floating point."""
    if isinstance(x, float):
        raise TypeError(f"floating point weight {x!r}; use an exact rational")
    return Fraction(x)


class Distribution:
    __slots__ = ("_w",)

    def __init__(self, weights: Mapping | Iterable[tuple]):
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict = {}
        for x, w in items:
            w = exact(w)
            if w < 0:
                raise ValueError(f"negative weight {w} for {x!r}")
            if w == 0:
                continue
            acc[x] = acc.get(x, Fraction(0)) + w
        self._w = acc

    @classmethod
    def _trusted(cls, weights: dict) -> "Distribution":
        """Wrap merged, positive ``Fraction`` weights without checking them
        again.  Internal builders use it for rows whose weights come from
        distributions that were validated when they were made."""
        d = cls.__new__(cls)
        d._w = weights
        return d

    @classmethod
    def point(cls, x) -> "Distribution":
        return cls._trusted({x: _ONE})

    @classmethod
    def half_half(cls, x, y) -> "Distribution":
        """The even split over x and y; collapses to a point mass when x == y."""
        return cls._trusted({x: _ONE} if x == y else {x: _HALF, y: _HALF})

    def mass(self) -> Fraction:
        return sum(self._w.values(), Fraction(0))

    def is_probability(self) -> bool:
        return self.mass() == 1

    def require_probability(self, where: str = "distribution") -> "Distribution":
        if not self.is_probability():
            raise ValueError(f"{where} sums to {self.mass()}, expected 1")
        return self

    def support(self) -> frozenset:
        return frozenset(self._w)

    def items(self):
        return sorted(self._w.items(), key=lambda kv: ckey(kv[0]))

    def map(self, fn) -> "Distribution":
        """Push forward along fn, merging collisions."""
        return Distribution([(fn(x), w) for x, w in self._w.items()])

    def __getitem__(self, x) -> Fraction:
        return self._w.get(x, Fraction(0))

    def __contains__(self, x) -> bool:
        return x in self._w

    def __iter__(self):
        """The support, in the order the weights were given."""
        return iter(self._w)

    def __len__(self) -> int:
        return len(self._w)

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self._w == other._w

    def __hash__(self) -> int:
        return hash(frozenset(self._w.items()))

    def __repr__(self) -> str:
        body = " + ".join(f"{w}*{x!r}" for x, w in self.items())
        return f"Distribution({body or 'empty'})"
