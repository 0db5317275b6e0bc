"""The character ring of the annulus skein, as integer term tables.

Everything here lives in Lambda_x (x) Lambda_{x*}, the tensor square of the
ring of symmetric functions.  An element is a plain table {PartitionPair:
coeff} over one of three bases:

* composite  -- composite Schur functions s_{lambda,mu}(x; x*), the
  integral basis matching the annulus eigenvector basis Q_{lambda,mu}; a
  link decoration is a table in this basis;
* schur pair -- plain tensors s_rho(x) s_nu(x*), where products and Adams
  operations reduce to ordinary LR data;
* power pair -- products of power sums P_eta P*_pi, where skein evaluation
  becomes a ring homomorphism.

The basis changes are the alternating Littlewood-Richardson expansions

    s_{lambda,mu} = sum_sigma (-1)^|sigma| c^lambda_{sigma,rho}
                    c^mu_{sigma^t,nu} s_rho (x) s*_nu,
    s_rho (x) s*_nu = sum_eps c^rho_{eps,beta} c^nu_{eps,gamma} s_{beta,gamma},

which are mutually inverse.  Each is a sum over sigma (or eps) of tensor
products of two skew Schur expansions s_{lambda/sigma} (x) s_{mu/sigma^t}
(``chars.skew_terms``); ``expand_terms`` and ``legwise_terms`` apply them,
and the Frobenius kernels, to a whole table.  Adams operations act on
power sums by p_k -> p_{mk} and are computed on Schur functions through
character sums.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .chars import character, schur_expand_product, skew_terms
from .exactring import RationalQT
from .partitions import Partition, PartitionPair, partitions_of

def sum_terms(pairs):
    """Sum (key, value) pairs into {key: total}, leaving out zero totals.

    Integer and Fraction values add as they come; RationalQT values are
    collected per key and summed once, through ``RationalQT.sum``.
    """
    out, pieces = {}, {}
    for key, value in pairs:
        if isinstance(value, RationalQT):
            pieces.setdefault(key, []).append(value)
        else:
            out[key] = out.get(key, 0) + value
    for key, values in pieces.items():
        out[key] = RationalQT.sum([out.get(key, 0), *values])
    return {key: value for key, value in out.items() if value}


# -- integer basis-change kernels -------------------------------------------------


@lru_cache(maxsize=None)
def composite_to_schurpair_terms(lam, mu):
    """s_{lam,mu} expanded over s_rho (x) s*_nu; integer coefficients."""
    lam, mu = Partition(lam), Partition(mu)
    terms = []
    for s in range(min(lam.size, mu.size) + 1):
        sign = -1 if s % 2 else 1
        for sigma in partitions_of(s):
            right = skew_terms(mu, sigma.conjugate())
            for rho, c1 in skew_terms(lam, sigma).items():
                for nu, c2 in right.items():
                    terms.append((PartitionPair(rho, nu), sign * c1 * c2))
    return sum_terms(terms)


@lru_cache(maxsize=None)
def schurpair_to_composite_terms(rho, nu):
    """s_rho (x) s*_nu expanded over composite Schur functions; the inverse map."""
    rho, nu = Partition(rho), Partition(nu)
    terms = []
    for s in range(min(rho.size, nu.size) + 1):
        for eps in partitions_of(s):
            right = skew_terms(nu, eps)
            for beta, c1 in skew_terms(rho, eps).items():
                for gamma, c2 in right.items():
                    terms.append((PartitionPair(beta, gamma), c1 * c2))
    return sum_terms(terms)


@lru_cache(maxsize=None)
def schur_to_power_terms(lam):
    """Frobenius expansion s_lam = sum_mu chi_lam(mu)/z_mu p_mu."""
    lam = Partition(lam)
    out = {}
    for mu in partitions_of(lam.size):
        chi = character(lam, mu)
        if chi:
            out[mu] = Fraction(chi, mu.z)
    return out


@lru_cache(maxsize=None)
def power_to_schur_terms(eta):
    """Inverse Frobenius: p_eta = sum_lam chi_lam(eta) s_lam."""
    eta = Partition(eta)
    out = {}
    for lam in partitions_of(eta.size):
        chi = character(lam, eta)
        if chi:
            out[lam] = chi
    return out


@lru_cache(maxsize=None)
def schurpair_mult(p1, p2):
    """(s_a (x) s*_b) * (s_c (x) s*_d): leg-wise LR products, integer table."""
    left = schur_expand_product(p1.pos, p2.pos)
    right = schur_expand_product(p1.neg, p2.neg)
    return sum_terms(
        (PartitionPair(A, B), c1 * c2) for A, c1 in left.items() for B, c2 in right.items()
    )


def expand_terms(table, kernel):
    """Re-expand {(pos, neg): c} through kernel(pos, neg) -> {target: k}: sum of c * k."""
    return sum_terms(
        (target, c * k)
        for (pos, neg), c in table.items()
        for target, k in kernel(pos, neg).items()
    )


def legwise_terms(table, kernel):
    """Apply kernel(leg) -> {a: k} to both legs of every {(pos, neg): c} entry.

    The result maps (a, b) to the sum of c * k_pos(a) * k_neg(b).
    """
    terms = []
    for (pos, neg), c in table.items():
        right = kernel(neg)
        for a, ka in kernel(pos).items():
            for b, kb in right.items():
                terms.append((PartitionPair(a, b), c * (ka * kb)))
    return sum_terms(terms)


def multiply_terms(t1, t2, kernel):
    """Product of {pair: c} tables through the structure constants kernel(p1, p2)."""
    terms = []
    for p1, c1 in t1.items():
        for p2, c2 in t2.items():
            c = c1 * c2
            for pair, k in kernel(p1, p2).items():
                terms.append((pair, c * k))
    return sum_terms(terms)


@lru_cache(maxsize=None)
def composite_product_terms(p1, p2):
    """Structure constants of the composite basis, through the schur_pair route."""
    t1 = composite_to_schurpair_terms(p1.pos, p1.neg)
    t2 = composite_to_schurpair_terms(p2.pos, p2.neg)
    return expand_terms(multiply_terms(t1, t2, schurpair_mult), schurpair_to_composite_terms)


@lru_cache(maxsize=None)
def pair_weights(A):
    """{(lam, mu): c^A_{lam,mu}} over all pairs splitting the label A."""
    A = Partition(A)
    return {
        PartitionPair(lam, mu): c
        for k in range(A.size + 1)
        for lam in partitions_of(k)
        for mu, c in skew_terms(A, lam).items()
    }


# -- Adams operations ----------------------------------------------------------------


@lru_cache(maxsize=None)
def adams_schur(lam, m):
    """Adams operation on a Schur function: integer table over partitions of m|lam|.

    C^rho = sum_{mu of |lam|} chi_lam(mu) chi_rho(m mu) / z_mu.
    """
    lam = Partition(lam)
    if m < 1:
        raise ValueError("the Adams index must be >= 1")
    if m == 1:
        return {lam: 1}
    acc = sum_terms(
        (rho, coeff * chi)
        for mu, coeff in schur_to_power_terms(lam).items()
        for rho, chi in power_to_schur_terms(mu.scaled(m)).items()
    )
    out = {}
    for rho, val in acc.items():
        if val.denominator != 1:
            raise ArithmeticError(f"non-integral Adams coefficient {val}")
        out[rho] = int(val)
    return out


@lru_cache(maxsize=None)
def adams_schurpair(pair, m):
    """Adams operation on a composite basis element, left in the schur_pair basis."""
    table = composite_to_schurpair_terms(pair.pos, pair.neg)
    return legwise_terms(table, lambda lam: adams_schur(lam, m))


@lru_cache(maxsize=None)
def adams_composite(pair, m):
    """Adams operation on a composite basis element, as an integer table.

    The schur_pair table of ``adams_schurpair`` re-expanded in the composite
    basis.
    """
    return expand_terms(adams_schurpair(pair, m), schurpair_to_composite_terms)


# -- the determinantal construction --------------------------------------------------------------


def q_matrix(lam, mu):
    """The (l+r) x (l+r) matrix of h / h* entries whose determinant is s_{lam,mu}.

    Entries are ('h', k) or ('h*', k); index 0 means the unit and negative
    indices mean zero.  The h*-block sits on top with the parts of mu running
    up the diagonal in reverse order; the h-block follows with the parts of
    lam in order.
    """
    lam, mu = Partition(lam), Partition(mu)
    l, r = len(lam), len(mu)
    size = l + r
    rows = []
    for i in range(1, r + 1):  # h*-rows: diagonal entry mu_{r-i+1}
        part = mu[r - i]
        rows.append([("h*", part + i - j) for j in range(1, size + 1)])
    for a in range(1, l + 1):  # h-rows: diagonal entry lam_a
        part = lam[a - 1]
        rows.append([("h", part + j - r - a) for j in range(1, size + 1)])
    return rows


def _det_monomials(rows, cols, matrix):
    """Cofactor expansion into {(h-index multiset, h*-index multiset): int}."""
    if not rows:
        return {((), ()): 1}
    r0 = rows[0]
    out = []
    for pos, j in enumerate(cols):
        kind, idx = matrix[r0][j]
        if idx < 0:
            continue
        sub = _det_monomials(rows[1:], cols[:pos] + cols[pos + 1 :], matrix)
        sign = -1 if pos % 2 else 1
        for (hs, hstars), c in sub.items():
            if idx > 0:
                key = (
                    (tuple(sorted(hs + (idx,))), hstars)
                    if kind == "h"
                    else (hs, tuple(sorted(hstars + (idx,))))
                )
            else:
                key = (hs, hstars)
            out.append((key, sign * c))
    return sum_terms(out)


def _h_monomial_schur(indices):
    """prod_i h_{m_i} expanded in the Schur basis: h_m = s_(m), one row per factor."""
    return schur_expand_product(*[(m,) for m in indices])


def q_determinant(lam, mu):
    """Expand the determinantal matrix for (lam, mu) as a composite-basis table.

    It must equal {(lam, mu): 1}, the table of s_{lam,mu}.
    """
    lam, mu = Partition(lam), Partition(mu)
    matrix = q_matrix(lam, mu)
    size = len(matrix)
    monos = _det_monomials(tuple(range(size)), tuple(range(size)), matrix)
    return expand_terms(legwise_terms(monos, _h_monomial_schur), schurpair_to_composite_terms)
