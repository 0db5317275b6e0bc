"""Symmetric-group characters and Littlewood-Richardson coefficients.

Characters chi_lambda(C_mu) are computed by the Murnaghan-Nakayama border-strip
recursion on beta-numbers, memoised in memory for the life of the process.

Littlewood-Richardson coefficients come from tableau enumeration
(`lr_coeff`); the tests check it against the character-sum formula.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, partitions_of


class SizeMismatch(ValueError):
    """The two partitions do not have equal size."""


def _beta_numbers(lam):
    """Strictly decreasing first-column hook lengths lam_i + l - i."""
    l = len(lam)
    return [lam[i] + l - 1 - i for i in range(l)]


def _partition_from_beta(beta):
    beta = sorted(beta, reverse=True)
    l = len(beta)
    return Partition(beta[i] - (l - 1 - i) for i in range(l))


@lru_cache(maxsize=None)
def _chi(lam, mu):
    """chi_lam(C_mu) for partitions of equal size, by border-strip recursion."""
    if not mu:
        return 1 if not lam else 0
    # strip the largest part of mu first: deterministic recursion order
    k, rest = mu[0], Partition(mu[1:])
    beta = _beta_numbers(lam)
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        nxt = _partition_from_beta([nb if c == b else c for c in beta])
        term = _chi(nxt, rest)
        total += -term if height % 2 else term
    return total


def character(lam, mu):
    """chi_lambda evaluated on the conjugacy class of cycle type mu."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise SizeMismatch(f"|{lam}| = {lam.size} != {mu.size} = |{mu}|")
    return _chi(lam, mu)


# -- Littlewood-Richardson ---------------------------------------------------------


@lru_cache(maxsize=None)
def lr_coeff(nu, lam, mu):
    """c^nu_{lam, mu} by Littlewood-Richardson tableau enumeration.

    Counts semistandard fillings of the skew shape nu/lam with content mu whose
    reverse reading word is a lattice word.  Zero whenever the sizes do not
    match or lam is not contained in nu.
    """
    nu, lam, mu = Partition(nu), Partition(lam), Partition(mu)
    if lam.size + mu.size != nu.size:
        return 0
    if not nu.contains(lam):
        return 0
    if not mu:
        return 1 if nu == lam else 0
    rows = len(nu)
    lam_pad = list(lam) + [0] * (rows - len(lam))
    nvals = len(mu)
    # cells in reverse reading order: top row first, right to left
    cells = []
    for r in range(rows):
        for c in range(nu[r] - 1, lam_pad[r] - 1, -1):
            cells.append((r, c))
    return _lr_place(0, cells, {}, list(mu), [0] * (nvals + 1), nvals)


def _lr_place(idx, cells, fill, remaining, counts, nvals):
    """The number of LR fillings of cells[idx:] that extend the partial filling ``fill``.

    ``remaining[v - 1]`` is how many v are still to place and ``counts[v]``
    how many are placed; all three are restored before returning.  It lives
    at module level because a nested recursive closure is a reference cycle
    that only the cyclic collector frees.
    """
    if idx == len(cells):
        return 1
    r, c = cells[idx]
    total = 0
    upper = fill.get((r - 1, c))  # strictly above, already placed
    right = fill.get((r, c + 1))  # to the right, already placed
    lo = (upper + 1) if upper is not None else 1
    hi = right if right is not None else nvals
    for v in range(lo, hi + 1):
        if remaining[v - 1] == 0:
            continue
        if v > 1 and counts[v] + 1 > counts[v - 1]:
            continue  # lattice condition on the reverse reading word
        fill[(r, c)] = v
        remaining[v - 1] -= 1
        counts[v] += 1
        total += _lr_place(idx + 1, cells, fill, remaining, counts, nvals)
        counts[v] -= 1
        remaining[v - 1] += 1
        del fill[(r, c)]
    return total


@lru_cache(maxsize=None)
def schur_expand_product(lam, mu):
    """s_lam * s_mu in the Schur basis: {nu: c^nu_{lam,mu}} over nu of the right size."""
    lam, mu = Partition(lam), Partition(mu)
    out = {}
    for nu in partitions_of(lam.size + mu.size):
        c = lr_coeff(nu, lam, mu)
        if c:
            out[nu] = c
    return out
