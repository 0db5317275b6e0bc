"""Independent second routes, used only by the tests as oracles.

The engine computes each quantity one way; every function here computes a
quantity the engine also computes, by a different formula:

* ``lr_via_chars`` -- LR coefficients by the character-sum formula, against
  tableau enumeration (``chars.lr_coeff``);
* ``product_structure_constant`` -- one composite structure constant by the
  quadruple-LR sum, against ``symfun.composite_product_terms``;
* ``r_nu`` and ``r_nu_via_chars`` -- the orientation-symmetrised power-sum
  element by the splitting expansion and by a character sum;
* ``to_power_pairs`` and ``from_power_pairs`` -- a composite-basis table
  (the engine's decorations) re-expanded over power pairs P_eta P*_pi, and
  back, through the schur pair basis;
* ``evaluate`` -- plane evaluation of a power-pair table, against the
  closed-form unknot (``skeinlab.skein.unknot_full``);
* ``framed_bracket_by_sum`` -- a framed bracket as the canonical sum of one
  monomial product per leaf, against ``skeinlab.skein.torus_framed``, which
  lifts each distinct core once and adds every leaf as a key shift;
* ``conj_q`` -- the substitution q -> -1/q, for the conjugation symmetry
  W_{lam^t}(q) = W_lam(-1/q);
* ``meridian_eigenvalue`` -- the meridian map's eigenvalue on [lam, mu];
* ``hopf_bracket`` -- the Hopf link's surface bracket by the Morton-Lukac
  formula (meridian power sums on one component), against
  ``skeinlab.skein._surface_bracket(1, 1, 2, ...)``;
* ``log_series_via_powers``, ``free_energy_via_schur`` and
  ``hat_h_via_t_transform`` -- the free energy by the Schur route: log(1 + u)
  by truncated powers of u, the Adams layers and the inversion through
  characters degree by degree, and fhat_B = sum_A f_A prod_a T_{A^a B^a},
  against the power-sum route of ``lmov``;
* ``log_series_via_common_denominator`` -- the normalised log Z with each
  Zhat_nu combined from the canonical H_A of ``lmov.cs_partition``, against
  ``lmov.log_partition_series``, which lifts each bracket core once;
* ``combination_by_dicts`` -- an integer combination of shifted sums of
  values, over {k} brackets, by Laurent products: each vector summed by
  ``shifted_sums``, which lifts each value by its missing phi_d one factor at
  a time and adds each leaf as a monomial product, the weighted vectors
  added and the total canonicalised with every phi_d tested, against
  ``exactring.bracket_combination`` on a ``combination_basis`` and
  ``exactring.combination_value``, the lift-and-add kernel on packed rows or
  in term dicts;
* ``log_of_zhat_by_rationals`` -- the degree recursion of log Z on canonical
  RationalQT products and sums, against the fraction-free recursion over
  integer term dicts of ``lmov._log_of_zhat``;
* ``free_energy_entries`` -- every nonzero f_A of a ``lmov.FreeEnergyTable``,
  read one label vector at a time;
* ``reassembled_log`` -- log Z rebuilt from a free-energy table by the Schur
  route, against ``lmov.log_partition_series``;
* ``corollary_congruence`` -- the power-substitution congruence of Zh_p;
* ``dict_product`` -- a product of two term dicts keyed by exponent pairs,
  by the plain double loop over term pairs, against the one product loop
  ``exactring._multiply_add`` (``LaurentQT.__mul__`` runs it) and the packed
  product ``exactring.packed_product`` that it takes above its gate;
* ``exact_div_by_pairs`` -- exact division on term dicts keyed by exponent
  pairs, in lex (e_q, e_t) order, against ``exactring.exact_div``, which
  divides on int keys in (e_t, e_q) order;
* ``zsquare_by_peel`` -- the z**2 expansion of a Laurent polynomial by the
  greedy peel per t-exponent, top q-degree first, against
  ``exactring.zsquare_decompose``, which tests each row in q**2 for an even
  palindrome and changes basis by a cached table of columns;
* ``reciprocal`` -- 1 / x for a RationalQT, which the package no longer
  needs: its one use, the pole z**-2 of ``fixtures.hopf_hat_expected``, is
  a division by brackets;
* ``binomial_product`` and ``unknot_full_by_products`` -- products of the
  binomials t*q**a - t**-1*q**-a, and the closed-form unknot over them,
  multiplied one binomial at a time by ``dict_product``, against
  ``exactring.tq_bracket_product`` and ``skeinlab.skein.unknot_full``, which
  pack the whole product at once;
* ``sum_by_lift`` -- a sum of RationalQT values by the term-dict route: each
  numerator multiplied by its missing cyclotomic factors as a Laurent
  polynomial, the lifted numerators added, and every phi_d of the common
  denominator divided out by ``exact_div``, against ``RationalQT.sum``,
  one vector of the lift-and-add kernel, on packed rows above its gate;
* ``splittings`` and ``splitting_weight`` -- the part-multiset splittings of
  nu and their z-ratio weights.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product as iproduct
from math import comb, gcd, lcm

from skeinlab.chars import character, lr_coeff
from skeinlab.composite import z_reform
from skeinlab.exactring import (
    LaurentQT,
    RationalQT,
    _exponents,
    _laurent,
    _rational,
    bracket_exponents,
    bracket_scaled,
    combination_basis,
    cyclotomic_factor,
    exact_div,
    q_brace,
    q_bracket,
    z_square_power,
)
from skeinlab.lmov import (
    _labels_upto,
    _zhat_terms,
    congruence_check,
    cs_partition,
    t_transform,
)
from skeinlab.partitions import EMPTY, Partition, PartitionPair, partitions_of
from skeinlab.skein import _core, _leaves, power_value
from skeinlab.symfun import (
    composite_to_schurpair_terms,
    expand_terms,
    legwise_terms,
    pair_weights,
    power_to_schur_terms,
    schur_to_power_terms,
    schurpair_to_composite_terms,
    sum_terms,
)

P = Partition


# -- Littlewood-Richardson and structure constants ---------------------------------------


def lr_via_chars(nu, lam, mu):
    """c^nu_{lam, mu} through the character-sum formula.

    c^nu_{lam,mu} = sum over rho, tau of
    chi_lam(rho) chi_mu(tau) chi_nu(rho U tau) / (z_rho z_tau).
    """
    nu, lam, mu = Partition(nu), Partition(lam), Partition(mu)
    if lam.size + mu.size != nu.size:
        return 0
    total = Fraction(0)
    for rho in partitions_of(lam.size):
        chi_l = character(lam, rho)
        if not chi_l:
            continue
        for tau in partitions_of(mu.size):
            chi_m = character(mu, tau)
            if not chi_m:
                continue
            chi_n = character(nu, rho.union(tau))
            if not chi_n:
                continue
            total += Fraction(chi_l * chi_m * chi_n, rho.z * tau.z)
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral LR value {total} for {nu}, {lam}, {mu}")
    return int(total)


def product_structure_constant(p1, p2, target):
    """One composite structure constant through the direct quadruple-LR sum:

        M = sum over beta,gamma,theta,delta of
            (sum_sigma c^xi_{sigma,beta} c^nu_{sigma,gamma})
            (sum_eps   c^eta_{eps,theta} c^rho_{eps,delta})
            c^lam_{beta,delta} c^mu_{gamma,theta}

    for [xi, eta] * [rho, nu] -> [lam, mu].
    """
    xi, eta = p1
    rho, nu = p2
    lam, mu = target
    total = 0
    for sb in range(min(xi.size, nu.size) + 1):
        for beta in partitions_of(xi.size - sb):
            for gamma in partitions_of(nu.size - sb):
                inner1 = sum(
                    lr_coeff(xi, sigma, beta) * lr_coeff(nu, sigma, gamma)
                    for sigma in partitions_of(sb)
                )
                if not inner1:
                    continue
                for se in range(min(eta.size, rho.size) + 1):
                    for theta in partitions_of(eta.size - se):
                        c_mu = lr_coeff(mu, gamma, theta)
                        if not c_mu:
                            continue
                        for delta in partitions_of(rho.size - se):
                            c_lam = lr_coeff(lam, beta, delta)
                            if not c_lam:
                                continue
                            inner2 = sum(
                                lr_coeff(eta, eps, theta) * lr_coeff(rho, eps, delta)
                                for eps in partitions_of(se)
                            )
                            total += inner1 * inner2 * c_lam * c_mu
    return total


# -- splittings and the orientation-symmetrised power-sum element ---------------------------


@lru_cache(maxsize=None)
def splittings(nu):
    """All distinct splittings of the part multiset of nu into (B, C).

    Each distinct pair is listed once; the number of occurrence-level
    assignments collapsing onto it equals z(nu) / (z(B) z(C)).
    """
    nu = Partition(nu)
    mult = nu.multiplicities()
    per_value = [[(v, i, mult[v] - i) for i in range(mult[v] + 1)] for v in sorted(mult)]
    out = []
    for combo in iproduct(*per_value):
        left, right = [], []
        for v, i, j in combo:
            left.extend([v] * i)
            right.extend([v] * j)
        out.append((Partition(left), Partition(right)))
    return tuple(out)


def splitting_weight(nu, B, C):
    """z(nu)/(z(B) z(C)); equals the number of merged occurrence assignments."""
    weight = 1
    mB, mC = B.multiplicities(), C.multiplicities()
    for v, m in nu.multiplicities().items():
        weight *= comb(m, mB.get(v, 0))
        if mB.get(v, 0) + mC.get(v, 0) != m:
            raise ValueError("not a splitting of nu")
    return weight


def r_nu(nu):
    """The skein element attached to nu as a power-pair table, by splittings.

    First block: all splittings nu = B u C contribute z_nu/(z_B z_C) P_B P*_C.
    Second block: distinct triples (tau, eta, pi) with tau nonempty and
    nu = tau u tau u eta u pi contribute (-1)^{l(tau)} z_nu/(z_eta z_tau z_pi).
    """
    nu = Partition(nu)
    out = [(PartitionPair(B, C), Fraction(nu.z, B.z * C.z)) for B, C in splittings(nu)]
    mult = nu.multiplicities()
    choices = [[(v, i) for i in range(mult[v] // 2 + 1)] for v in sorted(mult)]
    for combo in iproduct(*choices):
        tau_parts = [v for v, i in combo for _ in range(i)]
        if not tau_parts:
            continue
        tau = Partition(tau_parts)
        rest = list(nu)
        for p in tau_parts + tau_parts:
            rest.remove(p)
        sign = -1 if len(tau) % 2 else 1
        for eta, pi in splittings(Partition(rest)):
            out.append((PartitionPair(eta, pi), sign * Fraction(nu.z, eta.z * tau.z * pi.z)))
    terms = {}
    for pair, w in sum_terms(out).items():
        if w.denominator != 1:
            raise ArithmeticError(f"non-integral splitting weight {w}")
        terms[pair] = int(w)
    return terms


def r_nu_via_chars(nu):
    """sum_A chi_A(nu) sum_{lam,mu} c^A_{lam,mu} s_{lam,mu}, pushed to power sums."""
    nu = Partition(nu)
    composite = []
    for A in partitions_of(nu.size):
        chi = character(A, nu)
        if chi:
            for pair, c in pair_weights(A).items():
                composite.append((pair, chi * c))
    return to_power_pairs(sum_terms(composite))


# -- basis changes and skein evaluation ------------------------------------------------------


def to_power_pairs(table):
    """A composite-basis table {(lam, mu): c} re-expanded over power pairs P_eta P*_pi."""
    schur_pairs = expand_terms(table, composite_to_schurpair_terms)
    return legwise_terms(schur_pairs, schur_to_power_terms)


def from_power_pairs(table):
    """A power-pair table {(eta, pi): c} re-expanded in the composite basis."""
    schur_pairs = legwise_terms(table, power_to_schur_terms)
    return expand_terms(schur_pairs, schurpair_to_composite_terms)


def evaluate(table):
    """The plane evaluation of a power-pair table: a ring homomorphism on power sums."""
    pieces = []
    for pair, coeff in table.items():
        for p in pair.pos + pair.neg:
            coeff = coeff * power_value(p)
        pieces.append(coeff)
    return RationalQT.sum(pieces)


def meridian_eigenvalue(lam, mu=()):
    """Eigenvalue of the meridian map on the composite eigenvector [lam, mu]:

    (q - 1/q) * (t * sum over lam cells of q**(2c) - 1/t * sum over mu cells
    of q**(-2c)) + the unknot scalar, c the cell content.
    """
    return meridian_power(PartitionPair(Partition(lam), Partition(mu)), 1)


def meridian_power(pair, k):
    """E_k(lam, mu): P_k on a meridian loop around a component decorated by [lam, mu].

    {k} (t**k * sum over lam cells of q**(2kc) - t**-k * sum over mu cells of
    q**(-2kc)) + (t**k - t**-k)/{k}, c the cell content and {k} = q**k - q**-k;
    k = 1 is ``meridian_eigenvalue``.  P*_k sees the swapped label.
    """
    terms = [((2 * k * c, k), 1) for c in pair.pos.contents()]
    terms += [((-2 * k * c, -k), -1) for c in pair.neg.contents()]
    return RationalQT(q_bracket(k) * LaurentQT(terms)) + power_value(k)


@lru_cache(maxsize=None)
def _plane_value(pair):
    return evaluate(to_power_pairs({pair: 1}))


def hopf_bracket(A, B):
    """The surface-framed Hopf link decorated by Q_A and Q_B, by Morton and Lukac.

    H. R. Morton, S. G. Lukac, "The HOMFLY polynomial of the decorated Hopf
    link", JKTR 12 (2003): tau_A tau_B <Q_A> Q_B(P_k -> E_k(A), P*_k -> E_k(A
    swapped)), with tau_P = q**kappa_P * t**|P| and E_k = ``meridian_power``.
    Q_B is expanded over power pairs and <Q_A> is the plane evaluation of its
    power-pair table, so neither the annulus product nor the closed-form
    unknot enters.  The engine's route is ``skein._surface_bracket(1, 1, 2, (A, B))``.
    """
    pieces = []
    for (eta, pi), coeff in to_power_pairs({B: 1}).items():
        value = RationalQT.from_fraction(Fraction(coeff))
        for k in eta:
            value = value * meridian_power(A, k)
        for k in pi:
            value = value * meridian_power(A.swap(), k)
        pieces.append(value)
    tau = LaurentQT.monomial(1, A.kappa + B.kappa, A.size + B.size)
    return RationalQT(tau) * _plane_value(A) * RationalQT.sum(pieces)


def framed_bracket_by_sum(spec, decorations):
    """The framed bracket as ``RationalQT.sum`` of coeff * (kink monomial * core) over the leaves.

    One ``RationalQT`` monomial product per leaf, then one canonical sum
    that tests the phi_d by its own rule.  The engine's route,
    ``skein.torus_framed``, lifts each distinct core once to the cores'
    common denominator and adds every leaf as a key shift; both read the
    leaves of ``skein._leaves`` and the cores of ``skein._core``.
    """
    return RationalQT.sum(
        coeff * (RationalQT(LaurentQT.monomial(1, e_q, e_t)) * _core(spec, pairs))
        for pairs, coeff, e_q, e_t in _leaves(spec, decorations)
    )


def conj_q(x):
    """q -> -1/q on a LaurentQT or a RationalQT.

    The substitution fixes every phi_d but phi_2 = -phi_2(-1/q), so a
    RationalQT keeps its denominator, and its numerator changes sign once per
    factor phi_2.
    """
    if isinstance(x, LaurentQT):
        return LaurentQT({(-eq, et): -c if eq & 1 else c for (eq, et), c in x.sorted_terms()})
    num = conj_q(x.num)
    if dict(x._exps).get(2, 0) % 2:
        num = -num
    return RationalQT(num, x.den)


# -- free energy and congruences ------------------------------------------------------------


def _series_mul(a, b, D):
    """The product of two power-sum monomial series, truncated at total degree D."""
    return sum_terms(
        (tuple(x.union(y) for x, y in zip(mu1, mu2)), c1 * c2)
        for mu1, c1 in a.items()
        for mu2, c2 in b.items()
        if sum(p.size for p in mu1 + mu2) <= D
    )


def _schur_vector_to_power(labels, scale=1):
    """prod_a s_{A^a}(x^a) as power-sum monomial coefficients, with x -> x**scale.

    Returns {mu vector: Fraction weight} where the weight is
    prod_a chi_{A^a}(mu^a) / z_{mu^a} and every part is multiplied by scale.
    """
    acc = {(): Fraction(1)}
    for A in labels:
        acc = sum_terms(
            (mus + (mu.scaled(scale),), w * coeff)
            for mus, w in acc.items()
            for mu, coeff in schur_to_power_terms(A).items()
        )
    return acc


def _adams_layer(entries, n, d, sign=1):
    """The degree-n part of sign/d sum_A f_A(q^d, t^d) s_A(x^d) as (mu vector, value) pieces."""
    weight = Fraction(sign, d)
    for labels, value in entries.items():
        if sum(A.size for A in labels) * d != n:
            continue
        scaled = value.substitute_power(d)
        for mus, w in _schur_vector_to_power(labels, scale=d).items():
            yield mus, scaled * RationalQT.from_fraction(w * weight)


def log_series_via_powers(spec, D):
    """log Z = log(1 + u) = sum_i (-1)**(i+1) u**i / i, u = Z - 1 in power sums, degree <= D."""
    zseries = sum_terms(
        (mus, value * RationalQT.from_fraction(w))
        for labels, value in cs_partition(spec, D).items()
        if value
        for mus, w in _schur_vector_to_power(labels).items()
    )
    unit_key = (EMPTY,) * spec.L
    u = {k: v for k, v in zseries.items() if k != unit_key}
    # u has positive degree, so powers beyond D vanish
    pieces = []
    power = u
    sign = 1
    for i in range(1, D + 1):
        if not power:
            break
        factor = RationalQT.from_fraction(Fraction(sign, i))
        pieces.extend((k, v * factor) for k, v in power.items())
        sign = -sign
        if i < D:
            power = _series_mul(power, u, D)
    return sum_terms(pieces)


def log_series_via_common_denominator(spec, D):
    """The normalised log Z from the canonical H_A: {mu vector: {mu} * log Z[mu]}.

    The nonzero signed H_A of one size vector are brought to their least
    common denominator as a ``combination_basis`` with one unshifted leaf
    per vector, and every Zhat_nu is an integer combination of them.
    """
    by_sizes = {}
    for labels, value in cs_partition(spec, D).items():
        if value and any(labels):
            by_sizes.setdefault(tuple(A.size for A in labels), []).append((labels, value))
    zseries = [{} for _ in range(D + 1)]
    for sizes, group in by_sizes.items():
        basis = value_basis([value for _, value in group])
        zseries[sum(sizes)].update(_zhat_terms(sizes, [labels for labels, _ in group], basis))
    return log_of_zhat_by_rationals(zseries, D)


def value_basis(values):
    """The ``combination_basis`` whose vector i is values[i] itself."""
    return combination_basis(dict(enumerate(values)), [[(i, 1, 0)] for i in range(len(values))])


def combination_by_dicts(values, vectors, weights, c, ks):
    """sum_i weights[i] * vector_i / c times prod over k in ks of {k}, by Laurent products.

    Vector i is sum of w * q**e_q * t**e_t * values[key] over its leaves (key,
    w, shift), shift the ``exponent_key`` of q**e_q * t**e_t.  The vectors
    are lifted and summed by ``shifted_sums``, the weighted sum is formed as
    one Laurent polynomial, divided by its integer and phi_d denominator
    with every phi_d tested, and multiplied by the brackets as a canonical
    value.
    """
    lc, exps, nums = shifted_sums(values, vectors)
    total = LaurentQT.zero()
    for num, w in zip(nums, weights):
        if w:
            total = total + num * w
    den = LaurentQT.from_int(lc * c)
    for d, e in exps.items():
        den = den * cyclotomic_factor(d) ** e
    return bracket_scaled(RationalQT(total, den), ks)


def log_of_zhat_by_rationals(zseries, D):
    """{mu vector: Fhat_mu} from zseries[n] = {nu vector: Zhat_nu} of total degree n.

    The degree recursion n Fhat_n = n Zhat_n - sum_{k<n} k Fhat_k Zhat_{n-k}
    with every product a canonical RationalQT and every key summed by
    ``RationalQT.sum``.
    """
    # kf[k] = k Fhat_k, the degree operator applied to Fhat
    kf = [None] * (D + 1)
    out = {}
    for n in range(1, D + 1):
        scaled = [(nus, value * n) for nus, value in zseries[n].items()]
        products = [
            (tuple(x.union(y) for x, y in zip(mus, nus)), -(a * b))
            for k in range(1, n)
            for mus, a in kf[k].items()
            for nus, b in zseries[n - k].items()
        ]
        kf[n] = sum_terms(scaled + products)
        inverse = Fraction(1, n)
        for mus, value in kf[n].items():
            out[mus] = value * inverse
    return out


def free_energy_via_schur(spec, D):
    """{label vector: f_A} up to degree D, extracted in the Schur basis.

    At degree n the d >= 2 Adams layers only involve lower-degree f_A, so
    subtracting them from log Z leaves the d = 1 layer, which inverts through
    characters (p_mu = sum_A chi_A(mu) s_A).
    """
    log_series = log_series_via_powers(spec, D)
    entries = {}
    for n in range(1, D + 1):
        pieces = [(k, v) for k, v in log_series.items() if sum(p.size for p in k) == n]
        for d in range(2, n + 1):
            if n % d == 0:
                pieces.extend(_adams_layer(entries, n, d, sign=-1))
        residue = sum_terms(pieces)
        for labels in _labels_upto(spec.L, n):
            if sum(A.size for A in labels) != n:
                continue
            terms = []
            for mus, value in residue.items():
                chi = 1
                for A, mu in zip(labels, mus):
                    if A.size != mu.size:
                        chi = 0
                        break
                    chi *= character(A, mu)
                    if not chi:
                        break
                if chi:
                    terms.append(value * chi)
            total = RationalQT.sum(terms)
            if total:
                entries[labels] = total
    return entries


def hat_h_via_t_transform(entries, B_labels):
    """fhat_B = sum_A f_A prod_a T_{A^a B^a} over a table {label vector: f_A}."""
    sizes = tuple(B.size for B in B_labels)
    pieces = []
    for labels, value in entries.items():
        if tuple(A.size for A in labels) != sizes:
            continue
        for A, B in zip(labels, B_labels):
            value = value * t_transform(A, B)
        pieces.append(value)
    return RationalQT.sum(pieces)


def free_energy_entries(table):
    """{label vector: f_A} over the nonzero f_A of degree 1 to the table's maximum."""
    out = {}
    for labels in _labels_upto(table.spec.L, table.max_degree)[1:]:
        value = table[labels]
        if value:
            out[labels] = value
    return out


def reassembled_log(table):
    """sum_{d} (1/d) sum_A f_A(q^d, t^d) s_A(x^d) as a power-sum series.

    Rebuilding log Z from a ``lmov.FreeEnergyTable``'s coefficients through
    the Schur basis checks the power-sum extraction of ``lmov.plethystic_h``.
    """
    entries = free_energy_entries(table)
    pieces = []
    for n in range(1, table.max_degree + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                pieces.extend(_adams_layer(entries, n, d))
    return sum_terms(pieces)


def corollary_congruence(spec, p):
    """Zh_p(L) = (-1)^((p-1) wbar) Zh_1(L; q^p, t^p) mod {p}^2, as a verdict."""
    L = spec.L
    a = z_reform(spec, [P([p])] * L)
    b = z_reform(spec, [P([1])] * L).substitute_power(p)
    wbar = sum(spec.writhes)
    if (p - 1) % 2 and wbar % 2:
        b = -b
    verdict, stage, _ = congruence_check(a, b, q_brace(p) * q_brace(p))
    return verdict


# -- products ----------------------------------------------------------------------------


def dict_product(a, b):
    """The term dict of the product of term dicts a and b, one term pair at a time."""
    if len(a) > len(b):
        a, b = b, a
    data = {}
    for (eq1, et1), c1 in a.items():
        for (eq2, et2), c2 in b.items():
            key = (eq1 + eq2, et1 + et2)
            c = data.get(key)
            if c is None:
                data[key] = c1 * c2
            else:
                c += c1 * c2
                if c:
                    data[key] = c
                else:
                    del data[key]
    return data


def exact_div_by_pairs(a, b):
    """a / b for LaurentQT a and b by division on exponent pairs, or None when b does not divide a.

    The division before term dicts were keyed by one int: the remainder's
    lex-largest (e_q, e_t) term is divided by b's, through a max-heap of
    negated pairs, within the quotient's exponent box.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return LaurentQT.zero()
    (aq, AQ), (at_, AT) = a.exponent_box()
    (bq, BQ), (bt, BT) = b.exponent_box()
    lo_q, hi_q, lo_t, hi_t = aq - bq, AQ - BQ, at_ - bt, AT - BT
    if lo_q > hi_q or lo_t > hi_t:
        return None
    b_terms = b.sorted_terms()
    lead_exp, lead_c = max(b_terms)
    rem = dict(a.sorted_terms())
    heap = [(-eq, -et) for eq, et in rem]
    heapify(heap)
    quo = {}
    while rem:
        neq, net = heappop(heap)
        key = (-neq, -net)
        c = rem.get(key)
        if c is None:
            continue
        weq, wet = key[0] - lead_exp[0], key[1] - lead_exp[1]
        if not (lo_q <= weq <= hi_q and lo_t <= wet <= hi_t) or c % lead_c:
            return None
        w = c // lead_c
        quo[(weq, wet)] = w
        for (eq, et), bc in b_terms:
            k2 = (eq + weq, et + wet)
            r = rem.get(k2, 0) - w * bc
            if k2 not in rem:
                heappush(heap, (-k2[0], -k2[1]))
            if r:
                rem[k2] = r
            else:
                rem.pop(k2, None)
    return LaurentQT(quo)


def zsquare_by_peel(f):
    """The table of ``exactring.zsquare_decompose`` by the greedy peel on term dicts, or None.

    Per t-exponent, ascending, the top q-degree 2g of what is left must be
    even and nonnegative; its coefficient c is recorded and c * z**(2g)
    (``z_square_power``) subtracted term by term, until nothing is left.
    """
    slices = {}
    for (eq, et), c in f.sorted_terms():
        slices.setdefault(et, {})[eq] = c
    table = {}
    for Q, poly in sorted(slices.items()):
        while poly:
            d = max(poly)
            if d < 0 or d % 2:
                return None
            c = poly[d]
            for (eq, _), zc in z_square_power(d // 2).sorted_terms():
                r = poly.get(eq, 0) - c * zc
                if r:
                    poly[eq] = r
                else:
                    poly.pop(eq, None)
            table[(d // 2, Q)] = c
    return table


def reciprocal(x):
    """1 / x for a nonzero RationalQT x; ValueError when x.num is not in the bracket family."""
    if not x:
        raise ZeroDivisionError("reciprocal of zero")
    return RationalQT(x.den, x.num)


def sum_by_lift(values):
    """sum of RationalQT values in canonical form, by Laurent products and exact division.

    Values over one denominator are added, each group's numerator is lifted to
    the lcm of the denominators by multiplying it with its missing phi_d one
    factor at a time, and the content and every phi_d of the lcm are then
    cancelled as often as they divide (``exact_div``).  The canonical form is
    unique, so this needs none of the tests that ``RationalQT.sum`` saves.
    """
    groups = {}
    for x in values:
        x = RationalQT._coerce(x)
        key = (x._c, x._exps)
        groups[key] = groups.get(key, LaurentQT.zero()) + x.num
    groups = {key: (*key, num) for key, num in groups.items() if num}
    if not groups:
        return RationalQT(0)
    c, top, lifted = _lifted_by_products(groups)
    total = sum(lifted.values(), LaurentQT.zero())
    if not total:
        return RationalQT(0)
    g = gcd(total.content(), c)
    total, c = _laurent({key: v // g for key, v in total._terms.items()}), c // g
    for d in top:
        while top[d]:
            quo = exact_div(total, cyclotomic_factor(d))
            if quo is None:
                break
            total, top[d] = quo, top[d] - 1
    return _rational(total, c, tuple(sorted((d, e) for d, e in top.items() if e)))


def _lifted_by_products(parts):
    """The lcm c * prod phi_d**top of parts {key: (c, exps, num)}, and each num lifted to it.

    Each numerator is multiplied by the integer it misses and by its missing
    phi_d one factor at a time, as Laurent polynomials.  Returns (c, top,
    {key: lifted num}), top a dict {d: e}.
    """
    c = lcm(*(x_c for x_c, _, _ in parts.values()))
    top = {}
    for _, exps, _ in parts.values():
        for d, e in exps:
            top[d] = max(top.get(d, 0), e)
    lifted = {}
    for key, (x_c, exps, num) in parts.items():
        have = dict(exps)
        num = num * (c // x_c)
        for d, e in top.items():
            for _ in range(e - have.get(d, 0)):
                num = num * cyclotomic_factor(d)
        lifted[key] = num
    return c, top, lifted


def shifted_sums(values, vectors):
    """Sums of w * q**e_q * t**e_t * values[key] over one common denominator, one per vector.

    A vector lists leaves (key, w, shift), shift the ``exponent_key`` of
    q**e_q * t**e_t.  Each RationalQT value is lifted to the lcm of the
    denominators by Laurent products (``_lifted_by_products``), and each leaf
    adds its lifted numerator times the monomial w * q**e_q * t**e_t.
    Returns (c, exps, nums): vector i sums to nums[i] / (c * prod
    phi_d**exps), exps a dict {d: e}.
    """
    c, top, lifted = _lifted_by_products({key: (x._c, x._exps, x.num) for key, x in values.items()})
    nums = []
    for leaves in vectors:
        total = LaurentQT.zero()
        for key, w, shift in leaves:
            total = total + lifted[key] * LaurentQT.monomial(w, *_exponents(shift))
        nums.append(total)
    return c, top, nums


def binomial_product(powers):
    """The term dict of prod over (a, e) of [a]**e, [a] = t*q**a - t**-1*q**-a, one factor at a time."""
    out = {(0, 0): 1}
    for a, e in powers:
        assert e >= 0
        for _ in range(e):
            out = dict_product(out, {(a, 1): 1, (-a, -1): -1})
    return out


def unknot_full_by_products(lam, mu=()):
    """The unknot [lam, mu] by Koike's product, its numerator multiplied binomial by binomial.

    The formula of ``skeinlab.skein.unknot_full``: prod [a]**e over prod {h},
    with the numerator from ``binomial_product``.
    """
    lam, mu = Partition(lam), Partition(mu)
    powers = Counter(lam.contents() + mu.contents())
    for i, li in enumerate(lam, 1):
        for j, mj in enumerate(mu, 1):
            for a, e in ((li + mj, 1), (0, 1), (li, -1), (mj, -1)):
                powers[a + 1 - i - j] += e
    exps = bracket_exponents(lam.hook_lengths() + mu.hook_lengths())
    return _rational(LaurentQT(binomial_product(powers.items())), 1, tuple(sorted(exps.items())))
