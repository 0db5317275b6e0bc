"""Free-energy extraction, integrality checks, congruences, and q -> 1 limits.

The framed partition function attaches one variable set per component:

    Z(L) = sum over label vectors A of
           (-1)**(sum_a w_a |A^a|) H_A(L) prod_a s_{A^a}(x^a),

with w_a the per-component writhe and H_A the framed composite invariant.
Writing log Z = sum_{d >= 1} (1/d) sum_A f_A(q**d, t**d) s_A(x**d) defines the
free-energy coefficients f_A.  The whole layer works in the power-sum basis,
with mu a vector of partitions (one per component), p_mu = prod_a p_{mu^a}(x^a)
and chi_A(mu) = prod_a chi_{A^a}(mu^a):

* Z = sum_nu Z_nu p_nu with Z_nu = sum_A chi_A(nu) H_A / z_nu, and log Z by
  the degree recursion n F_n = n Z_n - sum_{k<n} k F_k Z_{n-k} (Z = exp F,
  and the degree operator is a derivation on power-sum monomials);
* x -> x**d is the diagonal substitution p_mu -> p_{d mu}, so with
  F~_mu the power-sum coefficients of sum_A f_A s_A,
  log Z[nu] = sum_{d | nu} (1/d) F~_{nu/d}(q**d, t**d);
* f_A = sum_mu chi_A(mu) F~_mu.

Both recursions run on bracket-normalised values, with {mu} the product of
q**m - q**-m over all parts of mu.  Two identities keep them exact:
{mu}{nu} = {mu u nu}, so Fhat_mu = {mu} log Z[mu] and Zhat_nu = {nu} Z_nu
obey the degree recursion unchanged; and {nu/d}(q**d) = {nu}, so
G_nu = {nu} F~_nu obeys the Adams recursion with Fhat in place of log Z.
The degree recursion runs fraction-free, on T_n = n Fhat_n =
n Zhat_n - sum_{k<n} T_k Zhat_{n-k}: each T_mu is an integer term dict over
its own integer denominator, every product is added into it with an integer
weight, and n is divided out once, when Fhat_mu is canonicalised.  The Zhat
have integer denominators in practice, so nothing tests a phi_d before that
step; a phi_d that does survive is carried exactly, as a power of the common
phi-part of the Zhat.

The transformed coefficients

    fhat_B = sum_A f_A prod_a T_{A^a B^a},
    T_{AB} = sum_mu chi_A(mu) chi_B(mu) / z_mu prod_i 1/(q**m_i - q**-m_i),

are diagonal there: column orthogonality (sum_A chi_A(mu) chi_A(nu) =
z_mu delta_{mu nu}) gives fhat_B = sum_mu chi_B(mu) F~_mu / {mu}, with
{mu} = prod over all parts m of q**m - q**-m.  They are the integrality
carriers: the claim under test is z**2 fhat_B in ZZ[z**2, t**(+-1)], i.e.
integer coefficients N_{B,g,Q} with fhat_B = sum N z**(2g-2) t**Q.

Congruences A = B mod C always mean (A - B)/C in ZZ[z**2, t**(+-1)].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, lcm, prod

from .chars import SizeMismatch, character
from .composite import r_reform, zsquare_member
from .exactring import (
    LaurentQT,
    RationalQT,
    _canonical,
    _laurent,
    _multiply_add,
    bracket_combination,
    bracket_quotient,
    bracket_scaled,
    common_denominator,
    cyclotomic_factor,
    exact_div,
    q_bracket,
    q_brace,
    q_one_leading,
)
from .partitions import Partition, partitions_of
from .skein import LabelCountMismatch, LinkSpec, framed_numerators, full_invariant_value
from .skein import torus_framed, unknot_full
from .symfun import pair_weights, power_to_schur_terms


def _labels_upto(L, D):
    """All L-tuples of partitions of total size <= D, the empty label first."""
    singles = []
    for n in range(D + 1):
        singles.extend(partitions_of(n))
    out = []
    for combo in iproduct(singles, repeat=L):
        if sum(p.size for p in combo) <= D:
            out.append(tuple(combo))
    out.sort(key=lambda c: (sum(p.size for p in c), c))
    return out


def _chi(labels, mus):
    """chi_A(mu) = prod_a chi_{A^a}(mu^a) for vectors of equal sizes, from memoised tables."""
    out = 1
    for A, mu in zip(labels, mus):
        out *= power_to_schur_terms(mu).get(A, 0)
        if not out:
            break
    return out


def _times(value, n):
    """n * value for a nonzero integer n; n = +-1 costs no product."""
    if n == 1:
        return value
    if n == -1:
        return -value
    return value * n


def _partition_vectors(sizes):
    """Every vector of partitions with the given component sizes."""
    return iproduct(*(partitions_of(n) for n in sizes))


def cs_partition(spec, D):
    """Coefficients of the framed partition function, truncated at total degree D.

    Returns {label vector: signed framed composite invariant}; the sign is
    (-1)**(sum_a w_a |A^a|) with w the per-component writhes of the spec.
    """
    return {
        labels: torus_framed(spec, _signed_decorations(spec, labels))
        for labels in _labels_upto(spec.L, D)
    }


def _signed_decorations(spec, labels):
    """The decorations of H_A, with Z's sign (-1)**(sum_a w_a |A^a|) folded into the first."""
    decorations = [pair_weights(A) for A in labels]
    if sum(w * A.size for w, A in zip(spec.writhes, labels)) % 2:
        decorations[0] = {pair: -c for pair, c in decorations[0].items()}
    return decorations


# -- free energy in the power-sum basis ------------------------------------------------


@dataclass
class FreeEnergyTable:
    """The free energy up to a fixed total degree, held as ghat_mu = F~_mu / {mu}.

    ``hat_h`` reads fhat_B = sum_mu chi_B(mu) ghat_mu from it; the
    coefficient f_A = sum_mu chi_A(mu) {mu} ghat_mu is the same character
    sum with {mu}.
    """

    ghat: dict
    max_degree: int
    spec: LinkSpec

    def character_terms(self, labels):
        """(mu vector, chi_A(mu), ghat_mu) for each mu vector of A's sizes with both nonzero."""
        for mus in _partition_vectors(A.size for A in labels):
            value = self.ghat.get(mus)
            chi = _chi(labels, mus) if value else 0
            if chi:
                yield mus, chi, value


def log_partition_series(spec, D):
    """The bracket-normalised log Z: {mu vector: {mu} * log Z[mu]}, total degree <= D.

    {mu} is the product of q**m - q**-m over all parts of mu.  Z's degree-0
    part, H of the empty label vector, is 1.  The signed H_A of every size
    vector with one multiset of sizes, such as (a, b) and (b, a), come from
    one ``framed_numerators`` call as one combination basis over one common
    denominator, never canonicalised one by one: their cores are keyed by the
    orbit of their labels under permutation and the global swap, so one lift
    serves every permutation and swap, and on packed rows each H_A is one big
    integer.  Each Zhat_nu = {nu} Z_nu is an integer combination of them
    (``bracket_combination``) with {nu} cancelled by phi_d exponents;
    chi_A(nu) is 0 unless A and nu have equal sizes, so the other size
    vectors' H_A carry weight 0.
    Since {mu}{nu} = {mu u nu}, the normalised values Fhat_mu = {mu} log Z[mu]
    and Zhat_nu obey the recursion of F = log Z unchanged:
    n Fhat_n = n Zhat_n - sum_{k<n} k Fhat_k Zhat_{n-k} (``_log_of_zhat``).
    Every value stays exact; a pole that survives the normalisation is
    carried, not dropped.
    """
    return _log_of_zhat(_zhat_series(spec, D), D)


def _zhat_series(spec, D):
    """[{nu vector: Zhat_nu} for each total degree n <= D], the degree-0 entry empty."""
    by_size_set = {}
    for labels in _labels_upto(spec.L, D)[1:]:
        by_size_set.setdefault(tuple(sorted(A.size for A in labels)), []).append(labels)
    zseries = [{} for _ in range(D + 1)]
    for size_set, group in by_size_set.items():
        basis = framed_numerators(spec, [_signed_decorations(spec, labels) for labels in group])
        for sizes in dict.fromkeys(tuple(A.size for A in labels) for labels in group):
            zseries[sum(size_set)].update(_zhat_terms(sizes, group, basis))
    return zseries


def _zhat_terms(sizes, group, basis):
    """(nu vector, Zhat_nu) for every nonzero Zhat_nu of one size vector.

    ``basis`` holds the signed H_A of the label vectors ``group`` as one
    ``combination_basis``; label vectors of other sizes in ``group`` get
    weight chi_A(nu) = 0.
    """
    for nus in _partition_vectors(sizes):
        weights = [_chi(labels, nus) for labels in group]
        if any(weights):
            parts = [m for nu in nus for m in nu]
            total = bracket_combination(basis, weights, prod(nu.z for nu in nus), parts)
            if total:
                yield nus, total


def _log_of_zhat(zseries, D):
    """{mu vector: Fhat_mu} from zseries[n] = {nu vector: Zhat_nu} of total degree n.

    Fraction-free: T_n = n Fhat_n obeys T_n = n Zhat_n - sum_{k<n} T_k Zhat_{n-k},
    and n is divided out once, at the end.  Phi, the common phi-part of all
    the Zhat, comes from ``common_denominator``.  A Zhat_nu of degree m is held
    as an integer Laurent polynomial over a_nu Phi**m (its lifted numerator
    times Phi**(m-1)), and T_mu of degree n as one over den_mu Phi**n, so every
    product T_alpha Zhat_beta lands over den_alpha a_beta Phi**n; when Phi = 1,
    the integer denominators met in practice, nothing is scaled.  A first pass
    collects the pairs with alpha u beta = mu, so that den_mu, the lcm of a_mu
    and of their den_alpha a_beta, is fixed before any product is formed; each
    product is added into mu's term dict (``exactring._multiply_add``, whose
    keys this function never reads) with the integer weight
    den_mu / (den_alpha a_beta).  Each degree ends with one content gcd per
    key, and Fhat_mu is canonicalised once, over n den_mu Phi**n, testing the
    phi_d of Phi.  The denominators are per key because one lcm over all keys
    inflates every weight: it made the trefoil's log stage slower.
    """
    keys = [(m, nus) for m, layer in enumerate(zseries) for nus in layer]
    c, top, lifted = common_denominator(zseries[m][nus] for m, nus in keys)
    phi = prod((cyclotomic_factor(d) ** e for d, e in top.items()), start=LaurentQT.one())
    # zhat[m] = {nu vector: (num, a_nu)}; k * num over c * Phi is Zhat_nu, and k divides c
    zhat = [{} for _ in range(D + 1)]
    for (m, nus), (num, k) in zip(keys, lifted):
        if top and m > 1:
            num = num * phi ** (m - 1)
        zhat[m][nus] = (num, c // k)
    one = LaurentQT.one()
    tees = [{} for _ in range(D + 1)]
    out = {}
    for n in range(1, D + 1):
        # mu vector -> [(f, g, the integer denominator of f * g, sign)], n Zhat_mu first
        pending = {nus: [(one, g, a, n)] for nus, (g, a) in zhat[n].items()}
        for k in range(1, n):
            for mus, (f, d) in tees[k].items():
                for nus, (g, a) in zhat[n - k].items():
                    key = tuple(x.union(y) for x, y in zip(mus, nus))
                    pending.setdefault(key, []).append((f, g, d * a, -1))
        exps = {d: e * n for d, e in top.items()}
        for key, products in pending.items():
            den = lcm(*(fg_den for _, _, fg_den, _ in products))
            acc, reach = {}, 0
            for f, g, fg_den, sign in products:
                acc, fg_reach = _multiply_add(acc, f, g, sign * (den // fg_den))
                reach = max(reach, fg_reach)
            if acc:
                content = gcd(den, *acc.values())
                if content > 1:
                    acc, den = {e: v // content for e, v in acc.items()}, den // content
                tee = _laurent(acc, reach)
                tees[n][key] = (tee, den)
                out[key] = _canonical(tee, n * den, dict(exps), list(exps))
    return out


def plethystic_h(spec, D):
    """Extract the free-energy table from the normalised log Z, degree by degree.

    F~_nu = log Z[nu] - sum_{d >= 2, d | nu} (1/d) F~_{nu/d}(q**d, t**d).  With
    {nu/d}(q**d) = {nu}, G_nu = {nu} F~_nu = {nu}**2 ghat_nu obeys
    G_nu = Fhat_nu - sum_{d >= 2, d | nu} (1/d) G_{nu/d}(q**d, t**d) over
    Fhat = ``log_partition_series``; the table holds ghat_nu = G_nu / {nu}**2.
    """
    log_series = log_partition_series(spec, D)
    G, ghat = {}, {}
    for nus in _labels_upto(spec.L, D)[1:]:
        parts = [m for nu in nus for m in nu]
        pieces = [log_series.get(nus, 0)]
        g = gcd(*parts)
        for d in range(2, g + 1):
            if g % d == 0:
                lower = G.get(tuple(Partition(m // d for m in nu) for nu in nus))
                if lower:
                    pieces.append(lower.substitute_power(d) * Fraction(-1, d))
        total = RationalQT.sum(pieces)
        if total:
            G[nus] = total
            ghat[nus] = bracket_scaled(total, parts * 2, divide=True)
    return FreeEnergyTable(ghat=ghat, max_degree=D, spec=spec)


# -- the transform and the integrality verdict ------------------------------------------


@lru_cache(maxsize=None)
def t_transform(A, B):
    """T_{AB} evaluated on the principal specialisation q**rho.

    sum over mu of chi_A(mu) chi_B(mu) / z_mu * prod_i 1/(q**m_i - q**-m_i);
    requires |A| = |B|.  ``hat_h`` never forms it: in the power-sum basis
    the transform is diagonal.
    """
    A, B = Partition(A), Partition(B)
    if A.size != B.size:
        raise SizeMismatch(f"|{A}| != |{B}|")
    if not A:
        return RationalQT(1)
    return RationalQT.sum(
        bracket_quotient(LaurentQT.from_int(character(A, mu) * character(B, mu)), mu.z, mu)
        for mu in partitions_of(A.size)
    )


def hat_h(spec, B_labels, D=None, table=None):
    """The transformed free energy fhat_B = sum_A f_A prod_a T_{A^a B^a}.

    By column orthogonality of the characters this is the integer-weighted
    sum fhat_B = sum_mu chi_B(mu) ghat_mu, with ghat_mu = F~_mu / {mu} held by
    the table.  The table (given, or computed to degree D, default |B|) must
    reach the total degree |B|; a truncated table would leave fhat_B
    silently 0.  B needs one label per component.
    """
    max_degree = D if table is None else table.max_degree
    B_labels = tuple(Partition(B) for B in B_labels)
    if len(B_labels) != spec.L:
        raise LabelCountMismatch(f"{len(B_labels)} labels for {spec.L} components")
    degree = sum(B.size for B in B_labels)
    if max_degree is not None and degree > max_degree:
        raise ValueError(f"fhat_B has degree {degree}, beyond the table's degree {max_degree}")
    if table is None:
        table = plethystic_h(spec, degree if D is None else D)
    return RationalQT.sum(_times(value, chi) for _, chi, value in table.character_terms(B_labels))


def lmov_check(spec, B_labels, D=None, table=None):
    """Integrality verdict for one transformed coefficient.

    Returns (verdict, N-table, stage): the N-table satisfies
    fhat_B = sum N[g, Q] z**(2g-2) t**Q with all N integers when the verdict
    is true; otherwise ``stage`` names the failing reduction step.  The table
    is the certificate of ``composite.zsquare_member`` for z**2 fhat_B, whose
    keys are already those of fhat_B.  One more factor z**2 would admit
    nothing more: for a Laurent polynomial L with z**2 L in
    ZZ[z**2, t**(+-1)], setting q = 1 shows that the z**0 terms of z**2 L
    vanish, so L lies in that ring too.
    """
    verdict, stage, ntable = zsquare_member(bracket_scaled(hat_h(spec, B_labels, D=D, table=table), (1, 1)))
    return verdict, ntable, stage


# -- congruences ----------------------------------------------------------------------


def congruence_check(A, B, C):
    """Whether (A - B)/C lies in ZZ[z**2, t**(+-1)].

    A and B may be RationalQT; C must be a nonzero Laurent polynomial.
    Returns (verdict, stage, table); once C divides, the quotient's
    ``composite.zsquare_member`` verdict.
    """
    if isinstance(C, RationalQT):
        C = C.as_laurent()
        if C is None:
            raise ValueError("the modulus must be a Laurent polynomial")
    if not C:
        raise ZeroDivisionError("zero modulus")
    lau = (RationalQT._coerce(A) - RationalQT._coerce(B)).as_laurent()
    if lau is None:
        return False, "not-laurent", None
    quot = exact_div(lau, C)
    if quot is None:
        return False, "not-divisible", None
    return zsquare_member(quot)


def congruent_skein_case(p, k):
    """One instance of the congruent skein relation on the torus family.

    Tests Rh_p(T(2, 2k+2)) - Rh_p(T(2, 2k)) against
    (-1)**(p-1) p [p]^2 (Rh_p(T(2, 2k+1)) - Rh_p(U(-2k-1)))
    modulo [p]^2 {p}^2, all with blackboard-framed diagrams.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if k < 0:
        raise ValueError("k must be >= 0")
    plus = LinkSpec.torus_diagram(2, 2 * k + 2)
    minus = LinkSpec.torus_diagram(2, 2 * k)
    zero = LinkSpec.torus_diagram(2, 2 * k + 1)
    infty = LinkSpec.unknot(-(2 * k + 1))
    lhs = r_reform(plus, p) - r_reform(minus, p)
    sign = 1 if (p - 1) % 2 == 0 else -1
    factor = RationalQT(q_bracket(p) * q_bracket(p) * (sign * p))
    rhs = factor * (r_reform(zero, p) - r_reform(infty, p))
    modulus = (q_bracket(p) * q_brace(p)) ** 2
    verdict, stage, table = congruence_check(lhs, rhs, modulus)
    return verdict, stage, table


# -- special polynomials ------------------------------------------------------------------


def special_polynomial(spec, pairs):
    """The q -> 1 limit of the full invariant over the product of unknot values.

    Returns a Laurent polynomial in t; the limit exists and factorises as the
    product over components of the classical q = 1 evaluation raised to the
    total label size.
    """
    v, a = q_one_leading(full_invariant_value(spec, pairs))
    b = RationalQT(1)
    for pair in pairs:
        w, unit = q_one_leading(unknot_full(Partition(pair[0]), Partition(pair[1])))
        v, b = v - w, b * unit
    if v > 0:
        return LaurentQT.zero()
    if v < 0:
        raise ArithmeticError("the normalised invariant has a pole at q = 1")
    # a / b over one common integer denominator; over ZZ the greedy division
    # succeeds exactly when the rational quotient has integer coefficients
    ratio = exact_div(a.num * b.den, b.num * a.den)
    if ratio is None:
        raise ArithmeticError("the limit is not a Laurent polynomial in t over ZZ")
    return ratio
