"""Partitions, partition pairs, and their numeric statistics.

A partition is stored as a weakly decreasing tuple of positive integers and
doubles as a dictionary key everywhere in the engine (tuple ordering gives a
canonical order for deterministic caches and output).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple


class Partition(tuple):
    """A weakly decreasing sequence of positive integers; () is the empty partition."""

    __slots__ = ()

    def __new__(cls, parts=()):
        cleaned = []
        for p in parts:
            if type(p) is not int:
                raise TypeError(f"partition part {p!r} is not an integer")
            if p < 0:
                raise ValueError(f"negative part {p}")
            if p:
                cleaned.append(p)
        cleaned.sort(reverse=True)
        return super().__new__(cls, cleaned)

    # -- basic statistics ----------------------------------------------------

    @property
    def size(self):
        return sum(self)

    def multiplicities(self):
        """{part value: multiplicity}."""
        out = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    @property
    def z(self):
        """Centraliser order: prod over part values j of j**m_j * m_j!."""
        out = 1
        for j, m in self.multiplicities().items():
            out *= j**m * factorial(m)
        return out

    @property
    def kappa(self):
        """sum lambda_j * (lambda_j - 2j + 1); always even, negated by conjugation."""
        return sum(p * (p - 2 * j - 1) for j, p in enumerate(self))

    def contents(self):
        """Multiset of cell contents j - i (sorted list)."""
        return sorted(j - i for i, p in enumerate(self) for j in range(p))

    def hook_lengths(self):
        """Hook lengths of the cells, row by row."""
        conj = self.conjugate()
        return [p + conj[j] - i - j - 1 for i, p in enumerate(self) for j in range(p)]

    # -- structural operations -------------------------------------------------

    def conjugate(self):
        """Transpose of the Young diagram."""
        if not self:
            return self
        return Partition(sum(1 for p in self if p > i) for i in range(self[0]))

    def union(self, other):
        """The multiset union of the parts."""
        return Partition(tuple(self) + tuple(other))

    def scaled(self, d):
        """Each part multiplied by d (the power-sum scaling of Adams operations)."""
        return Partition(d * p for p in self)

    def contains(self, other):
        """Containment of Young diagrams."""
        if len(other) > len(self):
            return False
        return all(self[i] >= other[i] for i in range(len(other)))

    # -- text syntax -------------------------------------------------------------

    def text(self):
        """Canonical text form, e.g. "[4,2,2]"."""
        return "[" + ",".join(str(p) for p in self) + "]"

    def __repr__(self):
        return f"Partition({list(self)!r})"


EMPTY = Partition()


class PartitionPair(NamedTuple):
    """A composite label [lambda, mu]: positively and negatively oriented rows."""

    pos: Partition
    neg: Partition

    @property
    def size(self):
        return self.pos.size + self.neg.size

    @property
    def kappa(self):
        return self.pos.kappa + self.neg.kappa

    def swap(self):
        return PartitionPair(self.neg, self.pos)

    def conjugate(self):
        return PartitionPair(self.pos.conjugate(), self.neg.conjugate())

    def text(self):
        return f"[{self.pos.text()},{self.neg.text()}]"


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n in reverse-lexicographic order, largest part first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return (EMPTY,)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append(Partition((first,) + tuple(rest)))
    return tuple(out)


@lru_cache(maxsize=None)
def pairs_of_total(n):
    """All PartitionPair with |pos| + |neg| == n."""
    out = []
    for k in range(n + 1):
        for lam in partitions_of(k):
            for mu in partitions_of(n - k):
                out.append(PartitionPair(lam, mu))
    return tuple(out)
