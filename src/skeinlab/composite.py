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

Zh_mu is a character-weighted integer combination of the brackets decorated
by one label per component; ``z_reform`` keeps the last basis of those
brackets it built, for the next Zh of the same spec and label sizes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import prod

from .exactring import LaurentQT, RationalQT, _div_int, bracket_combination, zsquare_decompose
from .partitions import Partition, PartitionPair
from .skein import framed_numerators, leaf_key, torus_framed
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


# the basis that z_reform built last: ((spec, label sizes), {label tuple: vector index}, basis)
_kept = None


def z_reform(spec, labels):
    """Zh_mu = [mu] * Z_mu as one integer combination of the brackets of the label tuples.

    P_mu is sum over A of chi_A(mu) Q_{A, empty} (``power_decoration``), so
    Z_mu is the sum over label tuples (A^1, ..., A^L) of
    prod_a chi_{A^a}(mu^a) times the bracket decorated by the Q_{A^a, empty};
    a reversed component swaps its label, which stars its power sum.  The
    brackets are the single-leaf vectors of one ``framed_numerators`` basis,
    one vector per leaf (``skein.leaf_key``), and ``bracket_combination``
    weighs them and folds [mu] into the phi_d exponents.

    The module keeps the last basis built: a call with the same spec and
    label sizes whose nonzero tuples all have a vector there reuses it, and
    any other call builds its own and replaces it.  The entry is one tuple,
    read once per call, so a concurrent caller can only rebuild it.
    """
    global _kept
    mus = [Partition(mu) for mu in labels]
    weights = {}
    for terms in product(*(power_decoration(mu).items() for mu in mus)):
        weights[tuple(pair for pair, _ in terms)] = prod(chi for _, chi in terms)
    key = (spec, tuple(mu.size for mu in mus))
    kept = _kept
    if kept is None or kept[0] != key or not weights.keys() <= kept[1].keys():
        leaves, index = {}, {}
        for pairs in weights:
            index[pairs] = leaves.setdefault(leaf_key(spec, pairs), (len(leaves), pairs))[0]
        basis = framed_numerators(spec, [[{pair: 1} for pair in pairs] for _, pairs in leaves.values()])
        kept = _kept = (key, index, basis)
    _, index, basis = kept
    vector = [0] * len(basis[2])
    for pairs, w in weights.items():
        vector[index[pairs]] += w
    return bracket_combination(basis, vector, 1, [m for mu in mus for m in mu])


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
