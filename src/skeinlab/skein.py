"""Skein-theoretic evaluation for torus links and framed unknots.

The engine evaluates decorated links of two families:

* ``TorusLink(m, n, L)`` -- the L-component torus link whose components are
  (m, n)-curves, gcd(m, n) = 1, carried by the framed cabling map: decorate
  each component, apply the m-th Adams operation, multiply in the annulus
  algebra, apply the twist tau**(n/m), and close off in the plane.  The
  twist is a monomial with integer exponents.  The Adams operation is a
  ring map, so the product lies in its image, and every label
  (beta, gamma) there has legs with empty m-core: each leg is tiled by
  m-ribbons, and a ribbon's m cell contents are consecutive, so m divides
  |beta| + |gamma| as well as kappa_beta + kappa_gamma (twice the content
  sum).  The natural surface framing contributes writhe m*n per component;
  the ``framing`` vector counts extra kinks on top of that.
* ``FramedUnknot(f)`` -- an unknot with f kinks.

Evaluation in the plane is the ring homomorphism sending the power sums
P_m and P*_m to (t**m - t**-m)/(q**m - q**-m), fixed by the one-crossing
closures A_{i,j} evaluating to t**(i-j) times the unknot scalar.  A kink
multiplies an eigenvector-decorated component by the framing factor
tau = q**(kappa_lam + kappa_mu) * t**(|lam| + |mu|).

Orientation-reversed components are handled by the involution that swaps the
two rows of the decoration label.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import gcd

from .exactring import LaurentQT, RationalQT, _rational, bracket_exponents, bracket_quotient
from .exactring import combination_basis, combination_value, exponent_key, t_bracket, tq_bracket_product
from .partitions import Partition, PartitionPair
from .symfun import (
    adams_schurpair,
    expand_terms,
    multiply_terms,
    schurpair_mult,
    schurpair_to_composite_terms,
)

TORUS = "torus"
UNKNOT = "unknot"


class LabelCountMismatch(ValueError):
    """The number of labels does not match the number of link components."""


@dataclass(frozen=True)
class LinkSpec:
    """A torus link T with per-component framing, or a framed unknot.

    For the torus family the underlying link is the (mL, nL) torus link with
    gcd(m, n) = 1; ``framing[a]`` counts kinks added to component ``a`` beyond
    the surface framing, so the component writhe is m*n + framing[a].  The
    standard planar diagram of T(mL, nL) corresponds to framing -n on every
    component (writhe n(m-1) per component, 0 for the L >= 2 links with
    m = 1).
    """

    family: str
    m: int = 0
    n: int = 0
    L: int = 1
    framing: tuple = ()
    reversed_: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.family not in (TORUS, UNKNOT):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == TORUS:
            if self.L < 1 or self.m < 1:
                raise ValueError("need m >= 1 and L >= 1")
            if gcd(self.m, abs(self.n)) != 1:
                raise ValueError(f"gcd({self.m}, {self.n}) != 1")
        else:
            if self.L != 1:
                raise ValueError("a framed unknot has one component")
        if not all(type(x) is int for x in (*self.framing, *self.reversed_)):
            raise TypeError(f"framing {self.framing} and reversed {set(self.reversed_)} take ints")
        if len(self.framing) != self.L:
            raise ValueError("framing vector length must equal L")
        if not set(self.reversed_) <= set(range(self.L)):
            raise ValueError("reversed component indices out of range")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def torus(cls, m, n, L, framing=None, reversed_=()):
        framing = 0 if framing is None else framing
        framing = (framing,) * L if isinstance(framing, int) else tuple(framing)
        return cls(TORUS, m, n, L, framing, frozenset(reversed_))

    @classmethod
    def unknot(cls, framing=0, reversed_=()):
        return cls(UNKNOT, 0, 0, 1, (framing,), frozenset(reversed_))

    @classmethod
    def torus_diagram(cls, a, b, reversed_=()):
        """The standard (blackboard-framed) diagram of the (a, b) torus link."""
        L = gcd(a, b)
        if L < 1:
            raise ValueError("need a >= 1")
        m, n = a // L, b // L
        return cls.torus(m, n, L, framing=(-n,) * L, reversed_=reversed_)

    # -- derived data --------------------------------------------------------------

    @property
    def writhes(self):
        """Per-component self-writhe of the evaluated diagram."""
        if self.family == UNKNOT:
            return self.framing
        return tuple(self.m * self.n + f for f in self.framing)

    def with_reversed(self, indices):
        return LinkSpec(self.family, self.m, self.n, self.L, self.framing, frozenset(indices))

    def with_framing(self, framing):
        framing = (framing,) * self.L if isinstance(framing, int) else tuple(framing)
        return LinkSpec(self.family, self.m, self.n, self.L, framing, self.reversed_)

    def describe(self):
        if self.family == UNKNOT:
            base = f"U({self.framing[0]})"
        else:
            base = f"T[{self.m},{self.n},{self.L}]{list(self.framing)}"
        if self.reversed_:
            base += f"*rev{sorted(self.reversed_)}"
        return base

    def to_json(self):
        return {
            "family": self.family,
            "m": self.m,
            "n": self.n,
            "L": self.L,
            "framing": list(self.framing),
            "reversed": sorted(self.reversed_),
        }


@dataclass(frozen=True)
class InvariantResult:
    """A computed invariant with its labels; ``normalized`` marks writhe-corrected values."""

    value: RationalQT
    normalized: bool
    labels: tuple


# -- evaluation in the plane ---------------------------------------------------------


@lru_cache(maxsize=None)
def power_value(m):
    """The unknot decorated by P_m: (t**m - t**-m)/(q**m - q**-m)."""
    return bracket_quotient(t_bracket(m), 1, [m])


@lru_cache(maxsize=None)
def unknot_full(lam, mu=()):
    """Full colored unknot invariant for the composite label [lam, mu].

    The quantum dimension of the mixed weight (lam, 0, ..., 0, -mu reversed)
    at t = q**N (Koike 1989), a product.  With [a] = t*q**a - t**-1*q**-a,
    {h} = q**h - q**-h, contents c and hook lengths h of the cells of lam
    and mu, and i, j running over the rows of lam and of mu:

        prod [c] * prod_{i,j} [lam_i+mu_j-i-j+1] * [1-i-j]
                   / ([lam_i-i-j+1] * [mu_j-i-j+1])  over  prod {h}.

    Every net power of an [a] is >= 0: the value is a Laurent polynomial in
    t, and [a] = q**a * t**-1 * (t - q**-a) * (t + q**-a) shares no factor
    with [b] for b != a, so a negative power could not cancel.  The tests
    check the value against the plane evaluation of the composite basis
    element on power sums.
    """
    lam, mu = Partition(lam), Partition(mu)
    powers = Counter(lam.contents() + mu.contents())
    for i, li in enumerate(lam, 1):
        for j, mj in enumerate(mu, 1):
            for a, e in ((li + mj, 1), (0, 1), (li, -1), (mj, -1)):
                powers[a + 1 - i - j] += e
    num = tq_bracket_product(powers.items())
    # num is primitive in t over ZZ[q**+-1], so by Gauss's lemma no phi_d divides it
    exps = bracket_exponents(lam.hook_lengths() + mu.hook_lengths())
    return _rational(num, 1, tuple(sorted(exps.items())))


def _framing_exponents(pair, e, m=1):
    """(q, t) exponents of tau_{pair}**(e/m) = q**(kappa*e/m) * t**(|pair|*e/m).

    m divides kappa and |pair| for every label the torus twist meets (see the
    module docstring), so a remainder is a broken invariant: ArithmeticError.
    """
    e_q, r_q = divmod(pair.kappa * e, m)
    e_t, r_t = divmod(pair.size * e, m)
    if r_q or r_t:
        raise ArithmeticError(f"twist tau**({e}/{m}) of {pair.text()} has a fractional exponent")
    return e_q, e_t


# -- torus-link brackets ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _surface_bracket(m, n, L, pairs):
    """Bracket of the surface-framed torus link decorated by composite labels.

    Applies the m-th Adams operation per component, multiplies the results in
    the annulus algebra, twists every resulting eigenvector by
    tau**(n/m), and evaluates each on the unknot.
    """
    tables = [adams_schurpair(pair, m) for pair in pairs]
    product = reduce(lambda a, b: multiply_terms(a, b, schurpair_mult), tables)
    return RationalQT.sum(
        RationalQT(LaurentQT.monomial(c, *_framing_exponents(pair, n, m)))
        * unknot_full(pair.pos, pair.neg)
        for pair, c in expand_terms(product, schurpair_to_composite_terms).items()
    )


def _validated_pairs(spec, pairs):
    if len(pairs) != spec.L:
        raise LabelCountMismatch(f"{len(pairs)} labels for {spec.L} components")
    out = []
    for a, pair in enumerate(pairs):
        pair = PartitionPair(Partition(pair[0]), Partition(pair[1]))
        if a in spec.reversed_:
            pair = pair.swap()
        out.append(pair)
    return tuple(out)


def _core_key(spec, pairs):
    """The labels that a core depends on; pairs are swap-adjusted.

    A surface bracket depends only on the orbit of its labels under
    permutation and the global swap: the annulus skein is commutative, and the
    involution * (Q_{lam,mu} -> Q_{mu,lam}) is an algebra automorphism that
    commutes with the Adams operations, keeps the twist eigenvalue and keeps
    the plane evaluation.  The orbit is keyed by the larger of the sorted
    labels and the sorted swapped labels, so [lam, ()] stays unswapped (the
    empty partition sorts first).  An unknot keeps its one label.
    """
    if spec.family == UNKNOT:
        return pairs
    return max(tuple(sorted(pairs)), tuple(sorted(pair.swap() for pair in pairs)))


def _core(spec, pairs):
    """Bracket of the basis-decorated link before its kinks; pairs are swap-adjusted."""
    if spec.family == UNKNOT:
        return unknot_full(pairs[0].pos, pairs[0].neg)
    return _surface_bracket(spec.m, spec.n, spec.L, _core_key(spec, pairs))


def _leaves(spec, decorations):
    """(pairs, weight, e_q, e_t) for each choice of one basis term per component.

    Each decoration is a composite-basis term table {PartitionPair: coeff}.
    Reversed components see the orientation involution (label rows swapped).
    ``pairs`` are the chosen labels, ``weight`` the product of their
    coefficients, and q**e_q * t**e_t the product of the kinks' framing
    factors, one per kink, applied before the cabling map.  Each term's kink
    exponents are computed once, from its own component's framing.
    """
    if len(decorations) != spec.L:
        raise LabelCountMismatch(f"{len(decorations)} decorations for {spec.L} components")
    comps = []
    for a, dec in enumerate(decorations):
        if a in spec.reversed_:
            dec = {pair.swap(): c for pair, c in dec.items()}
        f = spec.framing[a]
        comps.append([(pair, c, *_framing_exponents(pair, f)) for pair, c in dec.items()])
    return _decorated_terms(comps, 0, (), 1, 0, 0)


def _decorated_terms(comps, a, pairs, coeff, e_q, e_t):
    """The leaves of ``_leaves`` for each choice of one term (pair, c, d_q, d_t) per component from a on.

    Each prefix of choices multiplies its coefficient and adds its kink
    exponents once, so integer weights multiply as ints.  It lives at module
    level because a nested recursive closure is a reference cycle that only
    the cyclic collector frees.
    """
    if a == len(comps):
        yield pairs, coeff, e_q, e_t
        return
    for pair, c, d_q, d_t in comps[a]:
        yield from _decorated_terms(comps, a + 1, pairs + (pair,), coeff * c, e_q + d_q, e_t + d_t)


def _shifted_leaves(spec, decoration_vectors):
    """The cores {index: value} and, per vector, leaves (index, int w != 0, shift key).

    Each label tuple's core key (``_core_key``) is formed once per call, and
    each distinct core gets the next int index, so the kernel hashes ints.
    """
    cores, vectors, keys, index = {}, [], {}, {}
    for decorations in decoration_vectors:
        leaves = []
        for pairs, w, e_q, e_t in _leaves(spec, decorations):
            if type(w) is not int:
                raise TypeError(f"decoration weight {w!r} is not an int")
            if w:
                key = keys.get(pairs)
                if key is None:
                    orbit = _core_key(spec, pairs)
                    key = index.get(orbit)
                    if key is None:
                        key = index[orbit] = len(cores)
                        cores[key] = _core(spec, orbit)
                    keys[pairs] = key
                leaves.append((key, w, exponent_key(e_q, e_t)))
        vectors.append(leaves)
    return cores, vectors


def torus_framed(spec, decorations):
    """Framed bracket of the link decorated by elements of the annulus skein.

    Each decoration is a composite-basis term table {PartitionPair: coeff},
    the element sum of coeff * Q_pair, coeff an int (else TypeError): one
    vector of the leaves of ``framed_numerators``, canonicalised once on its
    basis (``exactring.combination_value``).
    """
    cores, [leaves] = _shifted_leaves(spec, [decorations])
    return combination_value(cores, leaves)


def framed_numerators(spec, decoration_vectors):
    """Framed brackets of many decoration vectors as one ``combination_basis``.

    Returns the basis over the vectors' common denominator, one vector per
    decoration vector in order; ``bracket_combination(basis, weights, c,
    ks)`` forms integer combinations of the brackets.  The coefficients must
    be ints, else TypeError.  Each distinct core -- the surface bracket, or
    the unknot value -- is read and lifted once; a leaf adds its integer
    weight times its lifted core shifted by its kink exponents, which are
    encoded once per leaf as one term-dict key: on packed rows a whole-slot
    shift of one big integer, else key additions into a term dict, as the
    one gate of the lift-and-add kernel decides.  No monomial product is
    formed and no bracket is canonicalised.  ``torus_framed`` is one vector
    of the same leaves, canonicalised once on its basis.

    Cores are keyed by ``_core_key``, the orbit of their labels under
    permutation and the global swap.  Each leaf's kink exponents are fixed by
    ``_leaves``, from its own components' framings, before the key is formed.
    Decoration vectors whose labels permute or swap one another's therefore
    share their cores and one lift.
    """
    return combination_basis(*_shifted_leaves(spec, decoration_vectors))


def torus_full_invariant(spec, pairs):
    """The framing-independent full colored invariant with the given labels.

    It is the framed bracket at framing -m*n per component (writhe 0), so the
    result does not depend on the framing vector at all.
    """
    labels = _validated_pairs(spec, pairs)
    # the labels are already swapped for reversed components
    unreversed = spec.with_framing(-spec.m * spec.n).with_reversed(())
    value = torus_framed(unreversed, [{pair: 1} for pair in labels])
    return InvariantResult(value=value, normalized=True, labels=labels)


def full_invariant_value(spec, pairs):
    """Shorthand: the RationalQT value of torus_full_invariant."""
    return torus_full_invariant(spec, pairs).value
