"""The two-variable symmetric-function algebra: bases, products, Adams maps.

The plethysm oracle evaluates everything as honest polynomials in three x
variables and three x* variables; an Adams operation is then literally the
substitution replacing every variable by its m-th power.
"""

import itertools
from fractions import Fraction

import pytest

from skeinlab.chars import lr_coeff
from skeinlab.partitions import EMPTY, Partition, PartitionPair, pairs_of_total, partitions_of
from skeinlab.symfun import (
    adams_composite,
    adams_schur,
    composite_product_terms,
    composite_to_schurpair_terms,
    expand_terms,
    power_to_schur_terms,
    q_determinant,
    q_matrix,
    schur_to_power_terms,
    schurpair_to_composite_terms,
)

from oracles import (
    from_power_pairs,
    product_structure_constant,
    r_nu,
    r_nu_via_chars,
    to_power_pairs,
)

P = Partition


def pair(a, b=()):
    return PartitionPair(P(a), P(b))


def composite_product(p1, p2):
    """Product of two composite basis elements, in the composite basis."""
    return composite_product_terms(pair(*p1), pair(*p2))


def to_composite(schur_pairs):
    """A schur pair table {(rho, nu): c} re-expanded in the composite basis."""
    return expand_terms(schur_pairs, schurpair_to_composite_terms)


class TestBasisChanges:
    def test_mixed_pair_expansion(self):
        assert composite_to_schurpair_terms(P([1]), P([1])) == {
            pair([1], [1]): 1,
            pair([], []): -1,
        }

    def test_one_sided_is_plain(self):
        for lam in partitions_of(3):
            assert composite_to_schurpair_terms(lam, EMPTY) == {PartitionPair(lam, EMPTY): 1}

    def test_row_column_mixed(self):
        assert composite_to_schurpair_terms(P([2]), P([1])) == {
            pair([2], [1]): 1,
            pair([1], []): -1,
        }

    def test_inverse_expansion(self):
        assert to_composite({pair([1], [1]): 1}) == {pair([1], [1]): 1, pair([], []): 1}
        assert to_composite({pair([2, 1]): 1}) == {pair([2, 1]): 1}

    def test_round_trips(self):
        for n in range(4):
            for pr in pairs_of_total(n):
                elem = {pr: 1}
                assert to_composite(composite_to_schurpair_terms(pr.pos, pr.neg)) == elem
                assert from_power_pairs(to_power_pairs(elem)) == elem
                sp = schurpair_to_composite_terms(pr.pos, pr.neg)
                assert expand_terms(sp, composite_to_schurpair_terms) == elem

    def test_frobenius_terms(self):
        assert schur_to_power_terms(P([2])) == {
            P([1, 1]): Fraction(1, 2),
            P([2]): Fraction(1, 2),
        }
        assert power_to_schur_terms(P([2])) == {P([2]): 1, P([1, 1]): -1}


class TestProducts:
    def test_opposite_rows_product(self):
        got = composite_product((P([1]), EMPTY), (EMPTY, P([1])))
        assert got == {pair([1], [1]): 1, pair([], []): 1}

    def test_same_side_reduces_to_lr(self):
        got = composite_product((P([2]), EMPTY), (P([1, 1]), EMPTY))
        expected = {}
        for A in partitions_of(4):
            c = lr_coeff(A, P([2]), P([1, 1]))
            if c:
                expected[PartitionPair(A, EMPTY)] = c
        assert got == expected

    def test_unit(self):
        elem = composite_product((P([2, 1]), P([1])), (EMPTY, EMPTY))
        assert elem == {pair([2, 1], [1]): 1}

    def test_nonnegative_structure_constants(self):
        pairs = [p for n in range(4) for p in pairs_of_total(n)]
        for p1 in pairs:
            for p2 in pairs:
                assert all(c > 0 for c in composite_product_terms(p1, p2).values())

    def test_against_quadruple_sum(self):
        small = [p for n in range(3) for p in pairs_of_total(n)]
        for p1 in small:
            for p2 in small:
                table = composite_product_terms(p1, p2)
                n = p1.size + p2.size
                for na in range(n + 1):
                    for a in partitions_of(na):
                        for b in partitions_of(n - na):
                            target = PartitionPair(a, b)
                            assert table.get(target, 0) == product_structure_constant(
                                p1, p2, target
                            )

    def test_matches_inverse_expansion(self):
        got = composite_product((P([1]), EMPTY), (EMPTY, P([1])))
        assert got == to_composite({pair([1], [1]): 1})


# -- plethysm oracle in 3 + 3 variables ------------------------------------------------

NX = 3


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _h_poly(k, offset):
    if k < 0:
        return {}
    zero = (0,) * (2 * NX)
    if k == 0:
        return {zero: 1}
    out = {}
    for combo in itertools.combinations_with_replacement(range(NX), k):
        e = [0] * (2 * NX)
        for i in combo:
            e[offset + i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out


def _schur_poly(lam, offset):
    l = len(lam)
    zero = (0,) * (2 * NX)
    if l == 0:
        return {zero: 1}
    out = {}
    for perm in itertools.permutations(range(l)):
        sign = 1
        for i in range(l):
            for j in range(i + 1, l):
                if perm[i] > perm[j]:
                    sign = -sign
        term = {zero: sign}
        for i in range(l):
            factor = _h_poly(lam[i] - (i + 1) + (perm[i] + 1), offset)
            if not factor:
                term = {}
                break
            term = _poly_mul(term, factor)
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _composite_poly(lam, mu):
    out = {}
    for pr, c in composite_to_schurpair_terms(lam, mu).items():
        term = _poly_mul(_schur_poly(pr.pos, 0), _schur_poly(pr.neg, NX))
        for e, k in term.items():
            cur = out.get(e, 0) + c * k
            if cur:
                out[e] = cur
            else:
                out.pop(e, None)
    return out


def _substitute_powers(poly, m):
    return {tuple(m * x for x in e): c for e, c in poly.items()}


class TestAdams:
    def test_fundamental_doubling(self):
        assert adams_schur(P([1]), 2) == {P([2]): 1, P([1, 1]): -1}

    def test_identity(self):
        for n in range(4):
            for lam in partitions_of(n):
                assert adams_schur(lam, 1) == {lam: 1}

    def test_fundamental_tripling(self):
        assert adams_schur(P([1]), 3) == {P([3]): 1, P([2, 1]): -1, P([1, 1, 1]): 1}

    def test_composite_reduces_to_schur(self):
        got = adams_composite(pair([1]), 2)
        assert got == {pair([2]): 1, pair([1, 1]): -1}

    def test_composite_identity(self):
        for n in range(3):
            for pr in pairs_of_total(n):
                assert adams_composite(pr, 1) == {pr: 1}

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize(
        "label", [((1,), ()), ((), (1,)), ((1,), (1,)), ((2,), ()), ((1, 1), ())]
    )
    def test_against_polynomial_substitution(self, label, m):
        lam, mu = P(label[0]), P(label[1])
        lhs = _substitute_powers(_composite_poly(lam, mu), m)
        rhs = {}
        for target, c in adams_composite(PartitionPair(lam, mu), m).items():
            for e, k in _composite_poly(target.pos, target.neg).items():
                cur = rhs.get(e, 0) + c * k
                if cur:
                    rhs[e] = cur
                else:
                    rhs.pop(e, None)
        assert lhs == rhs

    def test_schur_against_polynomial_substitution(self):
        for m in (2, 3):
            for n in (1, 2):
                for lam in partitions_of(n):
                    lhs = _substitute_powers(_schur_poly(lam, 0), m)
                    rhs = {}
                    for rho, c in adams_schur(lam, m).items():
                        for e, k in _schur_poly(rho, 0).items():
                            cur = rhs.get(e, 0) + c * k
                            if cur:
                                rhs[e] = cur
                            else:
                                rhs.pop(e, None)
                    assert lhs == rhs


class TestDeterminant:
    def test_trivial_one_by_one(self):
        assert q_determinant(P([1]), EMPTY) == {pair([1]): 1}

    def test_two_by_two_mixed(self):
        assert q_matrix(P([1]), P([1])) == [
            [("h*", 1), ("h*", 0)],
            [("h", 0), ("h", 1)],
        ]
        assert q_determinant(P([1]), P([1])) == {pair([1], [1]): 1}

    def test_reference_matrix(self):
        rows = q_matrix(P([4, 2, 2]), P([3, 2]))
        assert rows == [
            [("h*", 2), ("h*", 1), ("h*", 0), ("h*", -1), ("h*", -2)],
            [("h*", 4), ("h*", 3), ("h*", 2), ("h*", 1), ("h*", 0)],
            [("h", 2), ("h", 3), ("h", 4), ("h", 5), ("h", 6)],
            [("h", -1), ("h", 0), ("h", 1), ("h", 2), ("h", 3)],
            [("h", -2), ("h", -1), ("h", 0), ("h", 1), ("h", 2)],
        ]

    def test_equals_composite_basis(self):
        for na in range(4):
            for lam in partitions_of(na):
                for nb in range(4):
                    for mu in partitions_of(nb):
                        assert q_determinant(lam, mu) == {PartitionPair(lam, mu): 1}


class TestRNu:
    def test_single_row(self):
        for p in (1, 2, 3):
            got = r_nu(P([p]))
            assert got == {pair([p]): 1, pair([], [p]): 1}

    def test_two_ones(self):
        got = r_nu(P([1, 1]))
        assert got == {pair([1, 1]): 1, pair([1], [1]): 2, pair([], [1, 1]): 1, pair([], []): -2}

    def test_empty(self):
        assert r_nu(EMPTY) == {pair([], []): 1}

    def test_dual_routes_agree(self):
        # the splitting expansion against the character sum
        for n in range(5):
            for nu in partitions_of(n):
                assert r_nu(nu) == r_nu_via_chars(nu)
