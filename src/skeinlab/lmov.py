"""Free-energy extraction, integrality checks, congruences, and q -> 1 limits.

The framed partition function attaches one variable set per component:

    Z(L) = sum over label vectors A of
           (-1)**(sum_a w_a |A^a|) H_A(L) prod_a s_{A^a}(x^a),

with w_a the per-component writhe and H_A the framed composite invariant.
Writing log Z = sum_{d >= 1} (1/d) sum_A f_A(q**d, t**d) s_A(x**d) defines the
free-energy coefficients f_A, extracted degree by degree after converting to
the power-sum monomial basis (where x -> x**d is the diagonal substitution
p_j -> p_{jd}).  The transformed coefficients

    fhat_B = sum_A f_A prod_a T_{A^a B^a},
    T_{AB} = sum_mu chi_A(mu) chi_B(mu) / z_mu prod_i 1/(q**m_i - q**-m_i),

are the integrality carriers: the claim under test is z**2 fhat_B in
ZZ[z**2, t**(+-1)], i.e. integer coefficients N_{B,g,Q} with
fhat_B = sum N z**(2g-2) t**Q.

Congruences A = B mod C always mean (A - B)/C in ZZ[z**2, t**(+-1)].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from .chars import SizeMismatch, character
from .composite import framed_composite, r_reform
from .exactring import (
    LaurentQT,
    RationalQT,
    bracket_quotient,
    exact_div,
    q_bracket,
    q_brace,
    q_one_leading,
    zsquare_decompose,
)
from .partitions import EMPTY, Partition, partitions_of
from .skein import LinkSpec, full_invariant_value, unknot_full
from .symfun import schur_to_power_terms, sum_terms


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


def cs_partition(spec, D):
    """Coefficients of the framed partition function, truncated at total degree D.

    Returns {label vector: signed framed composite invariant}; the sign is
    (-1)**(sum_a w_a |A^a|) with w the per-component writhes of the spec.
    """
    writhes = spec.writhes
    out = {}
    for labels in _labels_upto(spec.L, D):
        value = framed_composite(spec, labels)
        exponent = sum(w * A.size for w, A in zip(writhes, labels))
        if exponent % 2:
            value = -value
        out[labels] = value
    return out


# -- power-sum monomial series ------------------------------------------------------


def _series_mul(a, b, D):
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


@dataclass
class FreeEnergyTable:
    """Free-energy coefficients f_A up to a fixed total degree."""

    entries: dict
    max_degree: int
    spec: LinkSpec

    def __getitem__(self, labels):
        labels = tuple(Partition(A) for A in labels)
        return self.entries.get(labels, RationalQT(0))


def log_partition_series(spec, D):
    """log Z as a power-sum monomial series {mu vector: RationalQT}, total degree <= D."""
    zseries = sum_terms(
        (mus, value * RationalQT.from_fraction(w))
        for labels, value in cs_partition(spec, D).items()
        if value
        for mus, w in _schur_vector_to_power(labels).items()
    )
    unit_key = (EMPTY,) * spec.L
    u = {k: v for k, v in zseries.items() if k != unit_key}
    # log(1 + u) truncated: u has positive degree, so powers beyond D vanish
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


def plethystic_h(spec, D):
    """Extract the free-energy table from log Z, degree by degree.

    At degree n the d >= 2 substitution layers only involve lower-degree
    coefficients, so subtracting them leaves the d = 1 layer, which inverts
    through characters (p_mu = sum_A chi_A(mu) s_A).
    """
    log_series = log_partition_series(spec, D)
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
            pieces = []
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
                    pieces.append(value * chi)
            total = RationalQT.sum(pieces)
            if total:
                entries[labels] = total
    return FreeEnergyTable(entries=entries, max_degree=D, spec=spec)


# -- the transform and the integrality verdict ------------------------------------------


@lru_cache(maxsize=None)
def t_transform(A, B):
    """T_{AB} evaluated on the principal specialisation q**rho.

    sum over mu of chi_A(mu) chi_B(mu) / z_mu * prod_i 1/(q**m_i - q**-m_i);
    requires |A| = |B|.
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

    The table (given, or computed to degree D, default |B|) must reach the
    total degree |B|; a truncated table would leave fhat_B silently 0.
    """
    B_labels = tuple(Partition(B) for B in B_labels)
    degree = sum(B.size for B in B_labels)
    if table is None:
        table = plethystic_h(spec, degree if D is None else D)
    if table.max_degree < degree:
        raise ValueError(f"fhat_B has degree {degree}, beyond the table's degree {table.max_degree}")
    sizes = tuple(B.size for B in B_labels)
    pieces = []
    for labels, value in table.entries.items():
        if tuple(A.size for A in labels) != sizes:
            continue
        for A, B in zip(labels, B_labels):
            value = value * t_transform(A, B)
        pieces.append(value)
    return RationalQT.sum(pieces)


def lmov_check(spec, B_labels, D=None, table=None):
    """Integrality verdict for one transformed coefficient.

    Returns (verdict, N-table, stage): the N-table satisfies
    fhat_B = sum N[g, Q] z**(2g-2) t**Q with all N integers when the verdict
    is true; otherwise ``stage`` names the failing reduction step.
    """
    value = hat_h(spec, B_labels, D=D, table=table)
    if not value:
        return True, {}, None
    z2 = q_bracket(1) * q_bracket(1)
    shifted = value * z2
    lau = shifted.as_laurent()
    if lau is None:
        return False, None, "not-laurent"
    # decomposing z^2 fhat with one pole allowed returns keys g with
    # fhat = sum N[g, Q] z^(2g-2) t^Q; g >= 0 holds automatically for Laurent input
    ntable = zsquare_decompose(lau, allowed_pole=1)
    if ntable is None:
        return False, None, "not-zsquare"
    if any(g < 0 for g, _ in ntable):
        return False, None, "pole-too-deep"
    return True, ntable, None


# -- congruences ----------------------------------------------------------------------


def congruence_check(A, B, C):
    """Whether (A - B)/C lies in ZZ[z**2, t**(+-1)].

    A and B may be RationalQT; C must be a nonzero Laurent polynomial.
    Returns (verdict, stage, table).
    """
    if isinstance(C, RationalQT):
        C = C.as_laurent()
        if C is None:
            raise ValueError("the modulus must be a Laurent polynomial")
    if not C:
        raise ZeroDivisionError("zero modulus")
    diff = RationalQT._coerce(A) - RationalQT._coerce(B)
    if not diff:
        return True, None, {}
    lau = diff.as_laurent()
    if lau is None:
        return False, "not-laurent", None
    quot = exact_div(lau, C)
    if quot is None:
        return False, "not-divisible", None
    table = zsquare_decompose(quot, allowed_pole=0)
    if table is None:
        return False, "not-zsquare", None
    return True, None, table


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
