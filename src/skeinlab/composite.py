"""Composite invariants and their reformulated, integrality-carrying versions.

The composite invariant attaches one partition per component and sums full
colored invariants against products of Littlewood-Richardson coefficients:

    H_A(L) = sum over (lam^a, mu^a) of prod_a c^{A^a}_{lam^a, mu^a}
             W_{[lam^1,mu^1],...,[lam^L,mu^L]}(L).

The reformulated invariants decorate with power sums instead of eigenvectors:

    Z_mu(L)  = bracket of L decorated with P_{mu^a}, starred on reversed
               components;
    Zh_mu(L) = [mu] * Z_mu(L),   [mu] = prod_a prod_i (q**m_i - q**-m_i);
    Rh_p(L)  = sum of Zh_p over all 2**L orientation-reversal subsets.

Zh lands in ZZ[z^2, t^{+-1}] with z = q - 1/q, and Rh in 2 ZZ[z^2, t^{+-1}];
``integrality_2z`` produces the verdict together with the integer certificate
table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .exactring import LaurentQT, RationalQT, _div_int, bracket_scaled, zsquare_decompose
from .partitions import Partition, PartitionPair
from .skein import torus_framed
from .symfun import pair_weights, power_to_schur_terms


def composite_invariant(spec, labels):
    """H_A for the framing-independent full colored invariants.

    The full invariant is the framed bracket at writhe 0, i.e. framing -m*n
    on every component, so H_A is the framed composite sum there.
    """
    return framed_composite(spec.with_framing(-spec.m * spec.n), labels)


def framed_composite(spec, labels):
    """The LR-weighted sum applied to the framed bracket (no writhe correction)."""
    return torus_framed(spec, [pair_weights(Partition(A)) for A in labels])


# -- reformulated invariants -------------------------------------------------------


@lru_cache(maxsize=None)
def power_decoration(mu):
    """P_mu in the composite basis: sum over A of chi_A(mu) Q_{A, empty}, chi from ``power_to_schur_terms``."""
    empty = Partition()
    return {PartitionPair(A, empty): chi for A, chi in power_to_schur_terms(Partition(mu)).items()}


def z_reform(spec, labels):
    """Zh: the power-sum-decorated bracket times [mu], by phi_d exponents (``bracket_scaled``).

    Reversed components receive the starred power sums; that is exactly the
    label-swap the bracket machinery applies.
    """
    decorations = [power_decoration(Partition(mu)) for mu in labels]
    raw = torus_framed(spec, decorations)
    return bracket_scaled(raw, [p for mu in labels for p in Partition(mu)])


def r_reform(spec, p):
    """Rh_p: the sum of Zh_p over all orientation-reversal subsets.

    For a knot this is 2 Zh_p.  The base spec must not itself carry reversed
    components; reversal bookkeeping happens here.
    """
    if spec.reversed_:
        raise ValueError("r_reform expects an unreversed base spec")
    if p < 1:
        raise ValueError("p must be >= 1")
    labels = tuple(Partition([p]) for _ in range(spec.L))
    return RationalQT.sum(
        z_reform(spec.with_reversed(subset), labels)
        for k in range(spec.L + 1)
        for subset in combinations(range(spec.L), k)
    )


# -- integrality verdicts --------------------------------------------------------------


def _as_laurent(f):
    """f as a LaurentQT, an int coerced as ``RationalQT`` does, or None for a RationalQT with a pole."""
    if isinstance(f, LaurentQT):
        return f
    if isinstance(f, int):
        return LaurentQT.from_int(f)
    if isinstance(f, RationalQT):
        return f.as_laurent()
    raise TypeError(f"expected a LaurentQT, RationalQT or int, not {type(f).__name__}")


def zsquare_member(f):
    """(verdict, stage, table) for membership of f in ZZ[z^2, t^{+-1}]."""
    lau = _as_laurent(f)
    if lau is None:
        return False, "not-laurent", None
    table = zsquare_decompose(lau)
    if table is None:
        return False, "not-zsquare", None
    return True, None, table


def integrality_2z(f):
    """(verdict, stage, table) for membership in 2 ZZ[z^2, t^{+-1}].

    Reduces to a Laurent polynomial, checks that every coefficient is even,
    halves it, and decomposes in powers of z**2; the certificate is the
    integer coefficient table of f/2.
    """
    lau = _as_laurent(f)
    if lau is None:
        return False, "not-laurent", None
    if lau.content() % 2:
        return False, "not-even", None
    return zsquare_member(_div_int(lau, 2))
