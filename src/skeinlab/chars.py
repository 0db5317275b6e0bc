"""Symmetric-group characters and Littlewood-Richardson coefficients.

Characters chi_lambda(C_mu) are computed by the Murnaghan-Nakayama border-strip
recursion on beta-numbers, memoised in memory for the life of the process.

Littlewood-Richardson coefficients come from one tableau search per skew
shape: `skew_terms(outer, inner)` expands s_{outer/inner} over the Schur basis.
A product of Schur functions is the skew Schur function of the disjoint union
of its factors, so `schur_expand_product` is one such search; the tests check
both against the character-sum formula.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition


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
def skew_terms(outer, inner):
    """s_{outer/inner} in the Schur basis: {rho: c^outer_{inner, rho}}, largest rho first.

    One search over the semistandard fillings of the skew shape outer/inner
    whose reverse reading word is a lattice word; the content of each filling
    is the rho it counts for (Macdonald I.9).  Empty unless inner is
    contained in outer.
    """
    outer, inner = Partition(outer), Partition(inner)
    if not outer.contains(inner):
        return {}
    inner_pad = list(inner) + [0] * (len(outer) - len(inner))
    # cells in reverse reading order: top row first, right to left
    cells = [
        (r, c) for r, width in enumerate(outer) for c in range(width - 1, inner_pad[r] - 1, -1)
    ]
    tally = {}
    _lr_place(0, cells, {}, [0] * (len(cells) + 2), tally)
    return {Partition(content): n for content, n in sorted(tally.items(), reverse=True)}


def _lr_place(idx, cells, fill, counts, tally):
    """Tally by content the LR fillings of cells[idx:] that extend the partial filling ``fill``.

    ``counts[v]`` is how many v are placed; it and ``fill`` are restored before
    returning.  The lattice condition keeps counts weakly decreasing in v, so
    a value v is open only while v - 1 is placed more often than v.  It lives
    at module level because a nested recursive closure is a reference cycle
    that only the cyclic collector frees.
    """
    if idx == len(cells):
        content = tuple(n for n in counts[1:] if n)
        tally[content] = tally.get(content, 0) + 1
        return
    r, c = cells[idx]
    upper = fill.get((r - 1, c))  # strictly above, already placed
    right = fill.get((r, c + 1))  # to the right, already placed
    lo = (upper + 1) if upper is not None else 1
    hi = right if right is not None else len(counts) - 1
    for v in range(lo, hi + 1):
        if v > 1 and counts[v] >= counts[v - 1]:
            if not counts[v - 1]:
                break  # no larger value is open either
            continue  # lattice condition on the reverse reading word
        fill[(r, c)] = v
        counts[v] += 1
        _lr_place(idx + 1, cells, fill, counts, tally)
        counts[v] -= 1
        del fill[(r, c)]


@lru_cache(maxsize=None)
def lr_coeff(nu, lam, mu):
    """c^nu_{lam, mu}, read from the skew expansion of nu/lam; zero unless |lam| + |mu| = |nu|."""
    nu, lam, mu = Partition(nu), Partition(lam), Partition(mu)
    if lam.size + mu.size != nu.size:
        return 0
    return skew_terms(nu, lam).get(mu, 0)


def schur_expand_product(*factors):
    """s_{f_1} s_{f_2} ... in the Schur basis: {nu: coefficient}, largest nu first.

    The product is the skew Schur function of the disjoint union of the
    factors (Macdonald I.5, I.9): each factor sits below and to the left of
    the one before it, so one ``skew_terms`` search expands it.
    """
    factors = [Partition(f) for f in factors]
    outer, inner = [], []
    for i, lam in enumerate(factors):
        shift = sum(mu[0] for mu in factors[i + 1 :] if mu)
        outer += [part + shift for part in lam]
        inner += [shift] * len(lam)
    return skew_terms(Partition(outer), Partition(inner))
