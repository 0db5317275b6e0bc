"""Character values and LR coefficients against independent brute-force oracles.

The character oracle works entirely inside the polynomial ring in n variables:
complete homogeneous polynomials by monomial enumeration, Schur polynomials by
the Jacobi-Trudi determinant, and character values by solving the triangular
system p_mu = sum_lam chi_lam(mu) s_lam in the monomial-symmetric basis.  No
border-strip code is shared with the engine.
"""

import itertools
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab import chars
from skeinlab.chars import SizeMismatch, character, lr_coeff, schur_expand_product, skew_terms
from skeinlab.partitions import Partition, partitions_of
from skeinlab.symfun import _h_monomial_schur

from oracles import lr_via_chars

P = Partition


def skew_via_chars(outer, inner):
    """{rho: c^outer_{inner, rho}} with every coefficient from the character sum."""
    if inner.size > outer.size:
        return {}
    terms = {}
    for rho in partitions_of(outer.size - inner.size):
        c = lr_via_chars(outer, inner, rho)
        if c:
            terms[rho] = c
    return terms


# -- polynomial helpers (exponent-tuple dicts over Fractions) -------------------------


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def h_poly(k, n):
    """Complete homogeneous polynomial of degree k in n variables."""
    if k < 0:
        return {}
    if k == 0:
        return {(0,) * n: 1}
    out = {}
    for combo in itertools.combinations_with_replacement(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out


def p_poly(k, n):
    return {tuple(k if i == j else 0 for j in range(n)): 1 for i in range(n)}


def schur_poly(lam, n):
    """Jacobi-Trudi determinant det(h_{lam_i - i + j})."""
    l = len(lam)
    if l == 0:
        return {(0,) * n: 1}
    out = {}
    for perm in itertools.permutations(range(l)):
        sign = 1
        seen = list(perm)
        for i in range(l):
            for j in range(i + 1, l):
                if seen[i] > seen[j]:
                    sign = -sign
        term = {(0,) * n: Fraction(sign)}
        for i in range(l):
            factor = h_poly(lam[i] - (i + 1) + (perm[i] + 1), n)
            if not factor:
                term = {}
                break
            term = poly_mul(term, factor)
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def monomial_coeffs(poly, n):
    """Coefficients on the monomial-symmetric basis, keyed by partitions."""
    out = {}
    for e, c in poly.items():
        key = P(sorted((x for x in e if x), reverse=True))
        cur = out.get(key)
        if cur is None:
            out[key] = c
        else:
            assert cur == c, "not a symmetric polynomial"
    return out


def brute_character_table(n):
    """{(lam, mu): chi_lam(mu)} for all partitions of n, by triangular solving."""
    parts = sorted(partitions_of(n), reverse=True)  # decreasing lex
    schur_m = {lam: monomial_coeffs(schur_poly(lam, n), n) for lam in parts}
    table = {}
    for mu in parts:
        poly = {(0,) * n: Fraction(1)}
        for part in mu:
            poly = poly_mul(poly, p_poly(part, n))
        target = monomial_coeffs(poly, n)
        solved = {}
        for lam in parts:  # dominance refines decreasing lex: triangular solve
            residue = target.get(lam, 0)
            for lam2, chi in solved.items():
                residue -= chi * schur_m[lam2].get(lam, 0)
            assert schur_m[lam].get(lam, 0) == 1
            solved[lam] = residue
        for lam, chi in solved.items():
            assert Fraction(chi).denominator == 1
            table[(lam, mu)] = int(chi)
    return table


class TestCharacterOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_murnaghan_nakayama_matches_polynomial_oracle(self, n):
        expected = brute_character_table(n)
        for (lam, mu), value in expected.items():
            assert character(lam, mu) == value


class TestCharacterValues:
    def test_standard_tableau_count(self):
        assert character(P([2, 1]), P([1, 1, 1])) == 2
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert character(lam, P([1] * n)) > 0

    def test_sign_representation(self):
        assert character(P([1, 1]), P([2])) == -1

    def test_trivial_representation(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert character(P([n]), mu) == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            character(P([2]), P([1]))

    def test_orthogonality(self):
        for n in range(1, 7):
            classes = partitions_of(n)
            for mu in classes:
                for nu in classes:
                    total = Fraction(0)
                    for lam in classes:
                        total += Fraction(character(lam, mu) * character(lam, nu), mu.z)
                    assert total == (1 if mu == nu else 0)

    def test_conjugate_sign_rule(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    sign = (-1) ** (n - len(mu))
                    assert character(lam.conjugate(), mu) == sign * character(lam, mu)


class TestLR:
    def test_pieri(self):
        assert lr_coeff(P([2, 1]), P([2]), P([1])) == 1
        assert lr_coeff(P([3, 1]), P([2, 1]), P([1])) == 1

    def test_square_times_square(self):
        assert lr_coeff(P([2, 2]), P([2]), P([2])) == 1

    def test_brute_force_monomial_expansion(self):
        # s_2 * s_2 in four variables, solved on the Schur basis
        n = 4
        prod = poly_mul(schur_poly(P([2]), n), schur_poly(P([2]), n))
        target = monomial_coeffs(prod, n)
        parts = sorted(partitions_of(4), reverse=True)
        schur_m = {lam: monomial_coeffs(schur_poly(lam, n), n) for lam in parts}
        solved = {}
        for lam in parts:
            residue = target.get(lam, 0)
            for lam2, c in solved.items():
                residue -= c * schur_m[lam2].get(lam, 0)
            solved[lam] = residue
        assert solved == {
            P([4]): 1,
            P([3, 1]): 1,
            P([2, 2]): 1,
            P([2, 1, 1]): 0,
            P([1, 1, 1, 1]): 0,
        }
        for lam, c in solved.items():
            assert lr_coeff(lam, P([2]), P([2])) == c

    def test_degree_mismatch(self):
        assert lr_coeff(P([4]), P([2]), P([1])) == 0

    def test_containment(self):
        assert lr_coeff(P([1, 1, 1]), P([2]), P([1])) == 0

    def test_unit(self):
        assert lr_via_chars(P([3, 1]), P([3, 1]), P()) == 1
        assert lr_coeff(P([3, 1]), P([3, 1]), P()) == 1

    def test_tableaux_vs_characters(self):
        for n in range(0, 7):
            for nu in partitions_of(n):
                for k in range(n + 1):
                    for lam in partitions_of(k):
                        for mu in partitions_of(n - k):
                            assert lr_coeff(nu, lam, mu) == lr_via_chars(nu, lam, mu)

    def test_skew_terms_vs_characters(self):
        # every inner partition against every outer of size <= 7, contained or not
        for n in range(8):
            for outer in partitions_of(n):
                for k in range(n + 1):
                    for inner in partitions_of(k):
                        got = skew_terms(outer, inner)
                        assert got == skew_via_chars(outer, inner)
                        # largest rho first, as partitions_of lists them, so that the
                        # tables built from it list their keys in that order too
                        assert list(got) == sorted(got, reverse=True)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_skew_terms_vs_characters_to_size_ten(self, data):
        outer = data.draw(st.sampled_from(partitions_of(data.draw(st.integers(8, 10)))))
        inner, cap = [], outer[0]
        for part in outer:
            cap = data.draw(st.integers(0, min(cap, part)))
            inner.append(cap)
        assert skew_terms(outer, P(inner)) == skew_via_chars(outer, P(inner))

    def test_schur_expand_product(self):
        table = schur_expand_product(P([2]), P([1]))
        assert table == {P([3]): 1, P([2, 1]): 1}


def product_via_chars(lam, mu):
    """{nu: c^nu_{lam, mu}} with every coefficient from the character sum."""
    terms = {}
    for nu in partitions_of(lam.size + mu.size):
        c = lr_via_chars(nu, lam, mu)
        if c:
            terms[nu] = c
    return terms


def kostka(lam, alpha):
    """Semistandard tableaux of shape lam and content alpha, peeled off as horizontal strips."""
    if not alpha:
        return 1 if not lam else 0
    *rest, k = alpha
    rows = list(lam) + [0]
    count = 0
    # mu with lam_{i+1} <= mu_i <= lam_i and |lam| - |mu| = k: lam/mu is a horizontal strip
    for mu in itertools.product(*(range(rows[i + 1], rows[i] + 1) for i in range(len(lam)))):
        if lam.size - sum(mu) == k:
            count += kostka(P(mu), rest)
    return count


class TestProducts:
    """s_lam * s_mu * ... as one skew search over the disjoint union of the factors."""

    def test_pairs_vs_characters(self):
        for n in range(8):
            for k in range(n + 1):
                for lam in partitions_of(k):
                    for mu in partitions_of(n - k):
                        got = schur_expand_product(lam, mu)
                        assert got == product_via_chars(lam, mu), (lam, mu)
                        assert list(got) == sorted(got, reverse=True)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_pairs_vs_characters_to_size_ten(self, data):
        n = data.draw(st.integers(8, 10))
        k = data.draw(st.integers(0, n))
        lam = data.draw(st.sampled_from(partitions_of(k)))
        mu = data.draw(st.sampled_from(partitions_of(n - k)))
        assert schur_expand_product(lam, mu) == product_via_chars(lam, mu)

    def test_three_factors_vs_iterated_pairs(self):
        for n in range(7):
            for a, b in itertools.product(range(n + 1), repeat=2):
                if a + b > n:
                    continue
                for lam, mu, nu in itertools.product(
                    partitions_of(a), partitions_of(b), partitions_of(n - a - b)
                ):
                    iterated = {}
                    for rho, c in schur_expand_product(lam, mu).items():
                        for sigma, d in schur_expand_product(rho, nu).items():
                            iterated[sigma] = iterated.get(sigma, 0) + c * d
                    assert schur_expand_product(lam, mu, nu) == iterated, (lam, mu, nu)

    def test_h_monomials_vs_kostka(self):
        # h_alpha = sum_lam K_{lam, alpha} s_lam, for every composition alpha, zeros included
        for n in range(7):
            for length in range(1, 5):
                for alpha in itertools.product(range(n + 1), repeat=length):
                    if sum(alpha) != n:
                        continue
                    expected = {lam: kostka(lam, alpha) for lam in partitions_of(n)}
                    expected = {lam: c for lam, c in expected.items() if c}
                    assert _h_monomial_schur(alpha) == expected, alpha

    def test_empty_product_and_empty_factors(self):
        assert schur_expand_product() == {P(): 1}
        assert schur_expand_product(P()) == {P(): 1}
        assert schur_expand_product(P(), P([2, 1]), P()) == {P([2, 1]): 1}
        assert schur_expand_product(P([2]), P(), P([1])) == schur_expand_product(P([2]), P([1]))
        assert _h_monomial_schur(()) == {P(): 1}


class TestCache:
    def test_concurrent_lookups_consistent(self):
        chars._chi.cache_clear()  # make the threads fill the memo concurrently
        results = []

        def worker():
            local = []
            for lam in partitions_of(5):
                for mu in partitions_of(5):
                    local.append(character(lam, mu))
            results.append(local)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)
