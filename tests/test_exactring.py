"""Exact-arithmetic layer: ring laws, division, membership, leading terms at q = 1."""

import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from skeinlab import exactring
from skeinlab.exactring import (
    LaurentQT,
    RationalQT,
    _box,
    _cancel_rows,
    _exponent_lists,
    _multiply_add,
    _pack,
    _phi_cancel,
    _slot_width,
    _unpack,
    bracket_combination,
    bracket_factors,
    bracket_quotient,
    bracket_scaled,
    combination_basis,
    combination_value,
    cyclotomic_factor,
    exact_div,
    exponent_key,
    format_laurent,
    packed_product,
    q_bracket,
    q_brace,
    q_one_leading,
    t_bracket,
    t_power,
    tq_bracket_product,
    zsquare_decompose,
    zsquare_recompose,
)

from oracles import (
    binomial_product,
    combination_by_dicts,
    conj_q,
    cyclotomic,
    dict_product,
    exact_div_by_pairs,
    phi_cancel_by_lists,
    reciprocal,
    sum_by_lift,
    zsquare_by_peel,
)


def q_power(e):
    return LaurentQT.monomial(1, e, 0)


def keyed(terms):
    """A term dict on exponent pairs as the LaurentQT term dict, one int key per pair."""
    return LaurentQT(terms)._terms


def laurents(max_terms=4, span=3, coeff=6):
    """Laurent polynomials with integer exponents of both q-parities."""
    term = st.tuples(
        st.integers(-span, span), st.integers(-span, span), st.integers(-coeff, coeff)
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: LaurentQT({(eq, et): c for eq, et, c in ts})
    )


def _bracket_den(c, e_q, e_t, ks):
    out = LaurentQT.monomial(c, e_q, e_t)
    for k in ks:
        out = out * q_bracket(k)
    return out


def bracket_dens():
    """A signed integer times a monomial times up to three q-brackets {k}, k <= 6."""
    return st.builds(
        _bracket_den,
        st.sampled_from([1, -1, 2, -3, 4, 6]),
        st.integers(-3, 3),
        st.integers(-2, 2),
        st.lists(st.integers(1, 6), max_size=3),
    )


def bracket_fractions():
    return st.builds(RationalQT, laurents(), bracket_dens())


def _fields(x):
    return x.num, x._c, x._exps


def _plain_forms(x):
    """The LaurentQT, int, Fraction and constant LaurentQT equal to the RationalQT x, where they exist."""
    if x._exps:
        return []
    forms = [] if x._c > 1 else [x.num]
    terms = x.num.sorted_terms()
    if not terms or (len(terms) == 1 and terms[0][0] == (0, 0)):
        n = terms[0][1] if terms else 0
        forms.append(Fraction(n, x._c))
        if x._c == 1:
            forms += [n, LaurentQT.from_int(n)]
    return forms


def scalars():
    """Scalars n * q**a * t**b / c: ints, Fractions, signed monomials and their quotients."""
    n, a, b = st.integers(-12, 12).filter(bool), st.integers(-3, 3), st.integers(-2, 2)
    return st.one_of(
        n,
        st.fractions(-6, 6, max_denominator=9).filter(bool),
        st.builds(q_t_monomial, st.sampled_from([1, -1]), a, b, st.just(1)),
        st.builds(q_t_monomial, n, a, b, st.integers(1, 12)),
    )


def q_t_monomial(n, a, b, c):
    return RationalQT(LaurentQT.monomial(n, a, b), c)


@st.composite
def sum_parts(draw):
    """Parts for RationalQT.sum over few denominators, so that groups merge.

    Negated copies cancel, and split pairs (f {k} + m) / D, -m / D sum to a
    value whose bracket {k} cancels only after the merge.
    """
    dens = draw(st.lists(bracket_dens(), min_size=1, max_size=3))
    parts = draw(
        st.lists(st.builds(RationalQT, laurents(), st.sampled_from(dens)), min_size=1, max_size=6)
    )
    parts += [-x for x in draw(st.lists(st.sampled_from(parts), max_size=3))]
    splits = st.tuples(laurents(), laurents(), st.integers(1, 6), st.sampled_from(dens))
    for f, m, k, den in draw(st.lists(splits, max_size=2)):
        den = den * q_bracket(k)
        parts += [RationalQT(f * q_bracket(k) + m, den), RationalQT(-m, den)]
    return draw(st.permutations(parts))


def _value_at(f, q, t):
    """f at rational q and t, exactly."""
    if isinstance(f, RationalQT):
        return _value_at(f.num, q, t) / _value_at(f.den, q, t)
    return sum(c * q**eq * t**et for (eq, et), c in f.sorted_terms())


def _assert_canonical(x):
    assert x._c > 0
    assert [d for d, _ in x._exps] == sorted({d for d, _ in x._exps})
    if x._c > 1:
        assert gcd(x.num.content(), x._c) == 1
    for d, e in x._exps:
        assert e > 0
        assert exact_div(x.num, cyclotomic_factor(d)) is None


class TestLaurent:
    def test_zero_coefficients_dropped(self):
        f = LaurentQT({(1, 0): 1, (0, 0): 0})
        assert len(f) == 1
        assert f == q_power(1)

    def test_duplicate_keys_accumulate(self):
        f = LaurentQT([((1, 0), 2), ((1, 0), -2)])
        assert not f

    @given(laurents(), laurents(), laurents())
    @settings(max_examples=120, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_mirror_and_conjugation(self):
        f = q_bracket(3)
        assert f.mirror() == -f
        # q -> -1/q fixes even bracket combinations
        assert conj_q(q_bracket(1) * q_bracket(1)) == q_bracket(1) * q_bracket(1)
        assert conj_q(q_bracket(1)) == q_bracket(1)
        assert conj_q(LaurentQT({(3, 1): 2, (2, 0): 5})) == LaurentQT({(-3, 1): -2, (-2, 0): 5})

    def test_serialization_round_trip(self):
        f = LaurentQT({(3, -1): 7, (0, 2): -1})
        assert LaurentQT.from_records(f.to_records()) == f
        # records are [e_q, 1, e_t, 1, coeff], sorted by (e_t, e_q)
        assert f.to_records() == [[3, 1, -1, 1, "7"], [0, 1, 2, 1, "-1"]]

    def test_format(self):
        assert format_laurent(LaurentQT.zero()) == "0"
        assert format_laurent(q_bracket(1)) == "-q^-1 + q"


class TestExactDiv:
    def test_bracket_factorization(self):
        assert exact_div(q_bracket(2), q_bracket(1)) == LaurentQT(
            {(1, 0): 1, (-1, 0): 1}
        )

    def test_degree_obstruction(self):
        assert exact_div(q_bracket(1), q_bracket(2)) is None

    def test_zero_dividend(self):
        assert exact_div(LaurentQT.zero(), q_bracket(2)) == LaurentQT.zero()

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(q_bracket(1), LaurentQT.zero())

    def test_coefficient_obstruction(self):
        assert exact_div(q_power(1), LaurentQT.from_int(2)) is None

    @given(laurents(), laurents())
    @settings(max_examples=120, deadline=None)
    def test_product_round_trip(self, a, b):
        if not b:
            return
        assert exact_div(a * b, b) == a
        quo = exact_div(a, b)
        if quo is not None:
            assert quo * b == a

    def test_brace(self):
        assert q_brace(3) == LaurentQT({(2, 0): 1, (0, 0): 1, (-2, 0): 1})
        assert exact_div(q_bracket(3), q_bracket(1)) == q_brace(3)


# coefficients at the edges of the 16-, 32- and 64-bit slots of the packed product
EDGE_COEFFS = sorted({s * (2**k + d) for k in (15, 31, 63) for d in (-1, 0, 1) for s in (1, -1)})


def coefficients():
    return st.one_of(st.integers(-9, 9).filter(bool), st.sampled_from(EDGE_COEFFS))


@st.composite
def term_dicts(draw, dense=False):
    """Term dicts on a lattice of exponents: a box, one t-row, one q-column or a monomial.

    The q- and t-steps are 1 or 2, so an operand has mixed or shared parity.
    ``dense`` fills most of a box of 20 to 28 q-steps with small coefficients
    and at most one edge coefficient below 2**31 + 2 in size, which puts a
    product of two of them above the gate of ``packed_product`` and within
    64-bit slots.
    """
    q0, t0 = draw(st.integers(-6, 6)), draw(st.integers(-4, 4))
    q_step, t_step = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    if dense:
        nq, nt = draw(st.integers(20, 28)), draw(st.integers(1, 3))
        cells = [(i, j) for i in range(nq) for j in range(nt)]
        drop = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 4))
        cells = [cell for cell in cells if cell not in drop]
        terms = {(q0 + q_step * i, t0 + t_step * j): draw(st.integers(-9, 9).filter(bool))
                 for i, j in cells}
        edge = draw(st.one_of(st.none(), st.sampled_from([c for c in EDGE_COEFFS if abs(c) < 2**32])))
        if edge is not None:
            terms[draw(st.sampled_from(sorted(terms)))] = edge
        return terms
    shape = draw(st.sampled_from(["box", "row", "column", "monomial"]))
    nq = 1 if shape in ("column", "monomial") else draw(st.integers(1, 9))
    nt = 1 if shape in ("row", "monomial") else draw(st.integers(1, 4))
    size = 1 if shape == "monomial" else draw(st.integers(1, nq * nt))
    cells = draw(st.lists(st.tuples(st.integers(0, nq - 1), st.integers(0, nt - 1)),
                          min_size=1, max_size=size, unique=True))
    return {(q0 + q_step * i, t0 + t_step * j): draw(coefficients()) for i, j in cells}


def _bound(a, b):
    abs_a, abs_b = [abs(c) for c in a.values()], [abs(c) for c in b.values()]
    return min(sum(abs_a) * max(abs_b), max(abs_a) * sum(abs_b))


def ungated_product(a, b):
    """The Kronecker kernel of ``packed_product`` without its density gate, from its packing helpers.

    Sparse operands, which ``packed_product`` declines, reach the kernel
    through this; the layout is ``packed_product``'s, and the tests check the
    two against each other wherever the gate passes.
    """
    parts = _exponent_lists(a), _exponent_lists(b)
    (qa, sqa, ta, sta, pqa, pta), (qb, sqb, tb, stb, pqb, ptb) = map(_box, parts)
    hq, ht = int(pqa and pqb), int(pta and ptb)
    width = (sqa + sqb >> hq) + 1
    w = _slot_width(_bound(a, b))
    if w is None:
        return None
    value = 1
    for part, lo_q, sq, lo_t, st in zip(parts, (qa, qb), (sqa, sqb), (ta, tb), (sta, stb)):
        value *= _pack(part, lo_q, hq, lo_t, ht, width, w, (sq >> hq) + 1 + width * (st >> ht))
    return _unpack(value, qa + qb, hq, ta + tb, ht, width, w, width * ((sta + stb >> ht) + 1))


class TestPackedProduct:
    """The packed product against the plain double loop over term pairs."""

    def test_slot_widths(self):
        assert [_slot_width(b) for b in (1, 2**15 - 1, 2**15, 2**31 - 1, 2**31)] == [16, 16, 32, 32, 64]
        assert _slot_width(2**63 - 1) == 64
        assert _slot_width(2**63) is None

    @pytest.mark.parametrize("c", EDGE_COEFFS)
    def test_edge_coefficients_fill_their_slot(self, c):
        # a monomial times b: the bound is |c| itself, and c and -c both reach it
        a, b = {(2, 1): 1}, {(0, 0): c, (4, 0): -c, (2, 3): c}
        result = ungated_product(keyed(a), keyed(b))
        if abs(c) > 2**63 - 1:
            assert result is None
        else:
            assert result == keyed(dict_product(a, b))

    @given(term_dicts(), term_dicts())
    @settings(max_examples=300, deadline=None)
    def test_kernel_below_the_gate(self, a, b):
        expected = keyed(dict_product(a, b))
        result = ungated_product(keyed(a), keyed(b))
        if _slot_width(_bound(a, b)) is None:
            assert result is None
        else:
            assert result == expected
        # the gated product declines a sparse pair or agrees with the kernel
        assert packed_product(keyed(a), keyed(b)) in (None, result)
        assert (LaurentQT(a) * LaurentQT(b))._terms == expected

    @given(term_dicts(dense=True), term_dicts(dense=True))
    @settings(max_examples=100, deadline=None)
    def test_kernel_above_the_gate(self, a, b):
        expected = keyed(dict_product(a, b))
        assert packed_product(keyed(a), keyed(b)) == expected
        assert ungated_product(keyed(a), keyed(b)) == expected
        assert (LaurentQT(a) * LaurentQT(b))._terms == expected

    def test_gate(self):
        ones = {(i, 0): 1 for i in range(30)}
        row = keyed(ones)
        assert packed_product(row, row) is not None
        # the density gate: a k x 1 monomial shift, and a sparse product whose slots outnumber its term pairs
        assert packed_product(row, keyed({(5, 2): 3})) is None
        sparse = {(40 * i, 0): 1 for i in range(20)}
        assert packed_product(keyed(sparse), keyed(sparse)) is None
        expected = keyed(dict_product(sparse, sparse))
        assert ungated_product(keyed(sparse), keyed(sparse)) == expected
        # past the gate, a product whose coefficient bound needs more than 64 bits is declined too
        wide = {**ones, (7, 0): 2**63}
        assert packed_product(row, keyed(wide)) is None
        assert (LaurentQT(ones) * LaurentQT(wide))._terms == keyed(dict_product(ones, wide))

    @given(
        st.booleans().flatmap(lambda dense: st.tuples(term_dicts(dense), term_dicts(dense))),
        st.one_of(st.just(1), st.integers(-9, 9).filter(bool), st.sampled_from([2**40, -(10**30)])),
        st.one_of(
            st.just({}),
            st.dictionaries(st.tuples(st.integers(-8, 8), st.integers(-6, 6)), coefficients(), max_size=6),
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiply_add_matches_dict_product(self, operands, w, start, data):
        a, b = operands
        fg = dict_product(a, b)
        if start:
            # a key that acc holds at -w times its product coefficient totals 0
            pair = data.draw(st.sampled_from(sorted(fg)))
            start[pair] = -w * fg[pair]
        expected = dict(start)
        for pair, c in fg.items():
            expected[pair] = expected.get(pair, 0) + w * c
        # dense operands pass the size gate and pack; an empty acc with w = 1 takes the packed dict
        event("above the size gate" if min(len(a), len(b)) >= 6 and len(a) * len(b) >= 200 else "below it")
        event("empty acc, w = 1" if not start and w == 1 else "acc or w")
        acc, reach = _multiply_add(dict(keyed(start)), LaurentQT(a), LaurentQT(b), w)
        # zero totals are deleted as they form, so acc is compared unfiltered
        assert acc == keyed({pair: c for pair, c in expected.items() if c})
        assert all(acc.values())
        assert reach >= max(abs(e) for pair in fg for e in pair)

    def test_cancelling_totals_are_dropped(self):
        # the coefficient of q**k sums (-1)**j over i + j = k, which is 0 for every odd k < 20
        ones = {(i, j): 1 for i in range(20) for j in range(2)}
        signs = {(i, j): (-1) ** i for i in range(20) for j in range(2)}
        result = packed_product(keyed(ones), keyed(signs))
        assert result is not None and all(result.values())
        assert result == keyed(dict_product(ones, signs))
        assert exponent_key(1, 0) not in result

    @pytest.mark.parametrize(
        "powers",
        [
            [],
            [(0, 1)],
            [(3, 2), (-2, 1), (0, 0)],
            [(0, 62)],
            [(0, 40), (3, 12), (-5, 10)],
            [(0, 63)],
            [(0, 40), (3, 12), (-5, 11)],
        ],
        ids=["empty", "one", "signed", "62-binomials", "62-mixed", "63-binomials", "63-mixed"],
    )
    def test_tq_bracket_product(self, powers):
        # more than 62 factors take the wide fallback
        assert tq_bracket_product(powers)._terms == keyed(binomial_product(powers))

    def test_tq_bracket_product_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            tq_bracket_product([(1, -1)])


# nonzero integers up to 2**70 in size
BIG_NONZERO = st.builds(lambda sign, c: sign * c, st.sampled_from([-1, 1]), st.integers(1, 2**70))


def zsquare_tables(min_size=0):
    """z**2 tables: g <= 40, |Q| <= 5, coefficients up to 2**70 in size, zero left out."""
    return st.dictionaries(
        st.tuples(st.integers(0, 40), st.integers(-5, 5)), BIG_NONZERO, min_size=min_size, max_size=6
    )


@st.composite
def zsquare_near_misses(draw):
    """A member of ZZ[z**2, t**+-1] made a non-member one way, with the way as its label.

    odd: plus one term of odd q-degree, or that and its mirror image, a
    palindrome centred on q**0; stray: plus one term of even nonzero
    q-degree, which unbalances the palindrome inside its row or runs past it;
    off-centre: the whole member times q**(2j), j != 0; negative: plus a
    slice of its own whose q-exponents are all negative.
    """
    f = zsquare_recompose(draw(zsquare_tables(min_size=1)))
    kind = draw(st.sampled_from(["odd", "stray", "off-centre", "negative"]))
    c = draw(BIG_NONZERO)
    Q = draw(st.integers(-5, 5))
    if kind == "odd":
        a = 2 * draw(st.integers(-42, 41)) + 1
        f = f + LaurentQT.monomial(c, a, Q)
        if draw(st.booleans()):
            # a palindrome centred on q**0, odd all the same
            f = f + LaurentQT.monomial(c, -a, Q)
    elif kind == "stray":
        f = f + LaurentQT.monomial(c, 2 * draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 42)), Q)
    elif kind == "off-centre":
        f = f * LaurentQT.monomial(1, 2 * draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), 0)
    else:
        exps = draw(st.lists(st.integers(-9, -1), min_size=1, max_size=4))
        f = f + LaurentQT({(e, 6): c for e in exps})
    return kind, f


class TestZSquare:
    def test_z_square_itself(self):
        f = LaurentQT({(2, 0): 1, (-2, 0): 1, (0, 0): -2})
        assert zsquare_decompose(f) == {(1, 0): 1}

    def test_odd_powers_rejected(self):
        assert zsquare_decompose(LaurentQT({(1, 0): 1, (-1, 0): 1})) is None

    def test_t_shifted_power(self):
        f = t_power(2) * q_bracket(1) ** 4
        assert zsquare_decompose(f) == {(2, 2): 1}

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(-3, 3)),
            st.integers(-4, 4).filter(bool),
            max_size=4,
        )
    )
    @example({(0, -1): 3, (2, 1): -4, (1, 0): 5})
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, table):
        assert zsquare_decompose(zsquare_recompose(table)) == table

    @staticmethod
    def _check_against_peel(f):
        got, expected = zsquare_decompose(f), zsquare_by_peel(f)
        assert got == expected
        if expected is not None:
            assert list(got) == list(expected)
        return got

    @given(zsquare_tables())
    @example({(40, -5): 2**64 + 1, (0, -5): -(2**65), (39, 5): 3})
    @settings(max_examples=120, deadline=None)
    def test_members_match_the_peel(self, table):
        got = self._check_against_peel(zsquare_recompose(table))
        # Q ascending, then g descending
        assert list(got) == sorted(table, key=lambda gQ: (gQ[1], -gQ[0]))
        assert got == table

    @given(zsquare_near_misses())
    @example(("negative", LaurentQT({(-2, 0): 1})))
    @example(("odd", q_bracket(1)))
    @example(("stray", LaurentQT({(0, 0): 1, (2, 0): 1})))
    @example(("off-centre", q_bracket(1) ** 2 * q_power(2)))
    @settings(max_examples=120, deadline=None)
    def test_near_misses_match_the_peel(self, drawn):
        kind, f = drawn
        event(kind)
        assert self._check_against_peel(f) is None

    def test_columns_expand_x_powers(self, monkeypatch):
        # the table grows in steps from its first column, then expands x**n + x**-n for n <= 40
        monkeypatch.setattr(exactring, "_Z2_COLUMNS", [[[1]]])
        for g in (3, 17, 40):
            assert zsquare_decompose(q_bracket(1) ** (2 * g)) == {(g, 0): 1}
        cols = exactring._Z2_COLUMNS[0]
        assert len(cols) == 41
        for n in range(41):
            expansion = sum((exactring.z_square_power(g) * cols[g][n - g] for g in range(n + 1)), LaurentQT.zero())
            assert expansion == (q_power(2 * n) + q_power(-2 * n) if n else LaurentQT.one())

    def test_production_route_does_not_expand_z_powers(self, monkeypatch):
        members = [zsquare_recompose({(40, -1): 5, (2, 0): -(2**80), (0, 3): 7}), q_bracket(1) ** 6 * t_power(2)]
        misses = [q_bracket(1), q_power(2) + q_power(-4), LaurentQT({(-2, 0): 1})]

        def refuse(g):
            raise AssertionError("zsquare_decompose expanded a z power")

        monkeypatch.setattr(exactring, "z_square_power", refuse)
        monkeypatch.setattr(exactring, "_Z2_COLUMNS", [[[1]]])
        assert zsquare_decompose(members[0]) == {(40, -1): 5, (2, 0): -(2**80), (0, 3): 7}
        assert zsquare_decompose(members[1]) == {(3, 2): 1}
        assert [zsquare_decompose(f) for f in misses] == [None] * 3

    def test_rejects_non_laurent_input(self):
        for x in (5, RationalQT(5), None, "q"):
            with pytest.raises(TypeError):
                zsquare_decompose(x)

    def test_decomposes_per_t_power(self):
        f = t_power(1) * q_bracket(1) ** 2 + t_power(-2) * LaurentQT.from_int(5)
        assert zsquare_decompose(f) == {(1, 1): 1, (0, -2): 5}

    def test_fractional_exponents_rejected(self):
        # exponents are ints by type, so no fractional input can reach zsquare_decompose
        for e in (Fraction(1, 2), Fraction(2), 0.5, 1.0, True):
            with pytest.raises(TypeError):
                LaurentQT({(e, 0): 1})
            with pytest.raises(TypeError):
                LaurentQT.monomial(1, 0, e)
        for rec in ([1, 2, 0, 1, "1"], [2, 1, 3, 2, "1"], [2, 2, 0, 1, "1"]):
            with pytest.raises(ValueError):
                LaurentQT.from_records([rec])


class TestOperandTypes:
    """Subtraction with an operand of another type: NotImplemented, so Python raises TypeError."""

    @pytest.mark.parametrize("other", [2.0, "a", None, [1]])
    @pytest.mark.parametrize("value", [LaurentQT({(1, 0): 1, (0, 1): -2}), RationalQT(LaurentQT.one(), q_bracket(1))])
    def test_other_types_raise_type_error_in_both_orders(self, value, other):
        with pytest.raises(TypeError):
            value - other
        with pytest.raises(TypeError):
            other - value

    def test_ints_and_mixed_values_subtract(self):
        f, x = LaurentQT({(1, 0): 1, (0, 1): -2}), RationalQT(LaurentQT.one(), q_bracket(1))
        assert 3 - f == LaurentQT.from_int(3) - f == -(f - 3)
        assert f - x == -(x - f) == RationalQT(f) - x
        assert Fraction(1, 2) - x == -(x - Fraction(1, 2))

    @pytest.mark.parametrize("value", [LaurentQT.one(), RationalQT(1), LaurentQT.zero(), RationalQT(0)],
                             ids=["laurent-one", "rational-one", "laurent-zero", "rational-zero"])
    def test_bools_compare_as_the_ints_they_equal(self, value):
        n = 1 if value else 0
        for flag in (True, False):
            assert (value == flag) is (flag == value) is (n == flag)
            assert (value != flag) is (flag != value) is (n != flag)
        flag = bool(n)
        assert len({value, flag}) == len({flag, value}) == 1
        assert {value: 0}[flag] == {flag: 0}[value] == 0

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.pow])
    @pytest.mark.parametrize("value", [LaurentQT({(1, 0): 1, (0, 1): -2}), LaurentQT.one(),
                                       RationalQT(LaurentQT.one(), q_bracket(1)), RationalQT(1)])
    def test_arithmetic_with_bools_raises_type_error_in_both_orders(self, value, op, flag):
        with pytest.raises(TypeError):
            op(value, flag)
        with pytest.raises(TypeError):
            op(flag, value)

    @pytest.mark.parametrize("flag", [True, False])
    def test_from_int_rejects_bools(self, flag):
        with pytest.raises(TypeError):
            LaurentQT.from_int(flag)
        with pytest.raises(TypeError):
            RationalQT(flag)

    def test_constants_hash_as_their_numbers(self):
        for n in (0, 5, -1, 2**70):
            assert hash(LaurentQT.from_int(n)) == hash(n) == hash(RationalQT(n))
            assert len({LaurentQT.from_int(n), n, RationalQT(n)}) == 1
        f = LaurentQT({(1, 0): 1, (0, 1): -2})
        assert len({f, RationalQT(f)}) == 1
        assert len({RationalQT.from_fraction(Fraction(-3, 4)), Fraction(-3, 4)}) == 1


class TestRational:
    def test_equality_cross_multiplication(self):
        a = RationalQT(q_bracket(2), q_bracket(1))
        b = RationalQT(LaurentQT({(1, 0): 1, (-1, 0): 1}))
        assert a == b

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalQT(q_power(1), LaurentQT.zero())

    def test_substitute_power(self):
        f = RationalQT(t_power(1), q_bracket(1))
        assert f.substitute_power(3) == RationalQT(t_power(3), q_bracket(3))
        assert RationalQT(q_bracket(1)).substitute_power(2) == RationalQT(q_bracket(2))
        g = RationalQT(q_bracket(2), q_bracket(1))
        assert g.substitute_power(1) == g
        for d in (0, -1, Fraction(1, 2), 2.0):
            for x in (f, f.num):
                with pytest.raises(ValueError):
                    x.substitute_power(d)

    def test_reduced_cancels_brackets(self):
        f = RationalQT(q_bracket(2) * q_bracket(3), q_bracket(3) * q_bracket(1))
        r = f.reduced()
        assert r == f
        # bracket(3) cancels directly and bracket(1) divides bracket(2)
        assert r.den == LaurentQT.one()
        assert r.num == LaurentQT({(1, 0): 1, (-1, 0): 1})
        g = RationalQT(t_power(1) * q_bracket(3), q_bracket(3) * q_bracket(2))
        assert g.reduced().den == q_bracket(2)

    def test_as_laurent(self):
        f = RationalQT(q_bracket(2), q_bracket(1))
        assert f.as_laurent() == LaurentQT({(1, 0): 1, (-1, 0): 1})
        assert RationalQT(q_bracket(1), q_bracket(2)).as_laurent() is None

    def test_sum_groups_denominators(self):
        terms = [RationalQT(q_power(i), q_bracket(2)) for i in range(3)]
        total = RationalQT.sum(terms)
        assert total == RationalQT(q_power(0) + q_power(1) + q_power(2), q_bracket(2))

    def test_power(self):
        f = RationalQT(t_power(1), q_bracket(1))
        assert f**2 == RationalQT(t_power(2), q_bracket(1) * q_bracket(1))
        assert reciprocal(f) == RationalQT(q_bracket(1), t_power(1))
        with pytest.raises(ValueError):
            f**-1


class TestCanonicalForm:
    """Every RationalQT is num / (c * prod phi_d**e_d) in one canonical form."""

    def test_cyclotomic_factors_build_brackets(self):
        for k in range(1, 25):
            prod = LaurentQT.one()
            for d in range(1, k + 1):
                if k % d == 0:
                    prod = prod * cyclotomic_factor(d)
            assert prod == q_bracket(k)

    def test_cyclotomic_factors_match_the_synthetic_division(self):
        # Phi_d from x**d - 1 divided by each Phi_e, e | d, e < d, on dense lists
        for d in range(1, 61):
            coeffs = cyclotomic(d)
            deg = len(coeffs) - 1
            assert cyclotomic_factor(d) == LaurentQT({(2 * j - deg, 0): c for j, c in enumerate(coeffs)}), d
            if d > 1:
                # Phi_d(1) is p for d = p**k and 1 for d with two distinct primes
                primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % r for r in range(2, p))]
                at_one = primes[0] if len(primes) == 1 else 1
                lead = RationalQT.from_fraction(Fraction(1, at_one))
                assert q_one_leading(RationalQT(LaurentQT.one(), cyclotomic_factor(d))) == (0, lead), d

    @given(
        laurents(max_terms=6, span=4).filter(bool),
        st.dictionaries(st.integers(1, 30), st.integers(0, 4), max_size=3),
        st.lists(st.integers(1, 30), max_size=2),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_residue_test_agrees_with_division(self, f, powers, others, data):
        for d, k in powers.items():
            f = f * cyclotomic_factor(d) ** k
        for j in others:
            f = f * cyclotomic_factor(j)
        # d = 1, 2 (odd phi(d)) always among the candidates; exps[d] may undercut the power
        ds = sorted({1, 2, *powers, *others})
        exps = {d: data.draw(st.integers(0, 5)) for d in ds}
        test = data.draw(st.lists(st.sampled_from(ds), unique=True))
        # the oracle: exact_div by one phi_d at a time, at most exps[d] times each
        quo, want = f, dict(exps)
        for d in test:
            while want[d]:
                q = exact_div(quo, cyclotomic_factor(d))
                if q is None:
                    break
                quo, want[d] = q, want[d] - 1
        assert _phi_cancel(f, exps, test) == quo
        assert exps == want

    def test_cancellation_covers_odd_totients(self):
        # phi(1) = phi(2) = 1, so each division moves q-exponents across parity classes
        f = LaurentQT({(0, 0): 3, (1, 2): -1, (4, 1): 2})
        g = f * cyclotomic_factor(1) ** 3 * cyclotomic_factor(2) ** 2 * cyclotomic_factor(6)
        exps = {1: 2, 2: 4, 6: 1, 5: 7}
        assert _phi_cancel(g, exps, [1, 2]) == f * cyclotomic_factor(1) * cyclotomic_factor(6)
        # never past exps[1], down to the true power for 2, and 6 and 5 are not tested
        assert exps == {1: 0, 2: 2, 6: 1, 5: 7}

    def test_residue_classes_split_by_q_parity(self):
        # 1 - q is one class in x = q**2 if the two q-parities share a class
        f = LaurentQT({(0, 0): 1, (1, 0): -1})
        exps = {d: 1 for d in range(1, 13)}
        assert _phi_cancel(f, exps, list(range(1, 13))) is f
        assert exps == {d: 1 for d in range(1, 13)}
        g = f * cyclotomic_factor(3) * cyclotomic_factor(4)
        assert _phi_cancel(g, exps, list(range(1, 13))) == f
        assert [d for d, e in exps.items() if not e] == [3, 4]

    @given(bracket_fractions())
    @settings(max_examples=150, deadline=None)
    def test_invariants_hold(self, x):
        _assert_canonical(x)

    @given(
        sum_parts(),
        st.fractions(-5, 5, max_denominator=4).filter(lambda r: r not in (0, 1, -1)),
        st.fractions(-5, 5, max_denominator=4).filter(lambda t: t != 0),
    )
    @settings(max_examples=150, deadline=None)
    def test_sum_is_exact_and_canonical(self, parts, r, t):
        total = RationalQT.sum(parts)
        _assert_canonical(total)
        assert _value_at(total, r, t) == sum(_value_at(x, r, t) for x in parts)

    @given(bracket_fractions(), bracket_fractions(), bracket_dens())
    @settings(max_examples=150, deadline=None)
    # values equal to an int, a Fraction and a LaurentQT, and zero
    @example(RationalQT(-6, 4), RationalQT(5), LaurentQT.from_int(3))
    @example(RationalQT(LaurentQT({(1, 0): 2, (0, 1): -1})), RationalQT(0), LaurentQT.from_int(-2))
    @example(RationalQT(0), RationalQT(LaurentQT.monomial(3, 2, 1), 6), LaurentQT.one())
    def test_equality_json_and_hash_agree(self, x, y, extra):
        same = (x + y) - y
        scaled = RationalQT(x.num * extra, x.den * extra)
        for a, b in ((x, y), (x, same), (x, scaled), (same, scaled)):
            equal = a == b
            assert equal == (a.to_json() == b.to_json())
            # only this direction: hash(-1) == hash(-2) in CPython
            assert hash(a) == hash(b) or not equal
        assert {x: 1}[same] == 1
        # cross-type pairs: a value without phi_d equals its LaurentQT, int or Fraction
        for a in (x, y, same):
            for b in _plain_forms(a):
                assert a == b and b == a
                assert hash(a) == hash(b)
                assert len({a, b}) == 1

    @given(laurents(), bracket_dens(), st.integers(1, 6), st.sampled_from([1, -2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_common_bracket_cancels_to_identical_fields(self, n, d, k, m):
        assert _fields(RationalQT(n * q_bracket(k) * m, d * q_bracket(k) * m)) == _fields(
            RationalQT(n, d)
        )

    @given(bracket_fractions(), bracket_fractions(), bracket_fractions())
    @settings(max_examples=100, deadline=None)
    def test_ring_laws_against_cross_multiplication(self, x, y, z):
        s = x + y
        assert s.num * x.den * y.den == (x.num * y.den + y.num * x.den) * s.den
        p = x * y
        assert p.num * x.den * y.den == x.num * y.num * p.den
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - x == 0
        assert RationalQT.sum([x, y, z, x]) == x + y + z + x

    @given(
        bracket_fractions(),
        scalars(),
        st.fractions(-5, 5, max_denominator=4).filter(lambda r: r not in (0, 1, -1)),
        st.fractions(-5, 5, max_denominator=4).filter(lambda t: t != 0),
    )
    # gcd(n, c) = 3 and gcd(content(num), c_s) = 7; and 6 * 4/9, where only the second is > 1
    @example(
        RationalQT(LaurentQT({(0, 0): 35, (1, 1): 35}), q_bracket(2) * 6),
        q_t_monomial(9, 2, -1, 7),
        Fraction(2),
        Fraction(3),
    )
    @example(RationalQT(6), Fraction(4, 9), Fraction(2), Fraction(3))
    @settings(max_examples=150, deadline=None)
    def test_scalar_products(self, x, s, r, t):
        sr = s if isinstance(s, RationalQT) else RationalQT.from_fraction(s)
        want = RationalQT(x.num * sr.num, x.den * sr.den)
        for p in (x * s, s * x):
            _assert_canonical(p)
            assert _fields(p) == _fields(want)
            assert _value_at(p, r, t) == _value_at(x, r, t) * _value_at(sr, r, t)

    @given(bracket_fractions(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_substitutions_against_cross_multiplication(self, x, d):
        ops = [lambda f: f.substitute_power(d), lambda f: f.mirror(), conj_q]
        for op in ops:
            y = op(x)
            assert y.num * op(x.den) == op(x.num) * y.den
            assert y == RationalQT(op(x.num), op(x.den))

    def test_split_factor_cancels_in_products(self):
        # phi_1 = (q - 1)(q + 1)/q: each numerator holds one prime of it
        a = RationalQT(LaurentQT({(1, 0): 1, (0, 0): -1}), q_bracket(1))
        b = RationalQT(LaurentQT({(1, 0): 1, (0, 0): 1}), q_bracket(1))
        assert _fields(a * b) == _fields(RationalQT(q_power(1), q_bracket(1)))

    def test_reduced_and_as_laurent_read_the_form(self):
        x = RationalQT(q_bracket(6), q_bracket(2) * 3)
        assert x.reduced() is x
        assert x.as_laurent() is None
        assert (x * 3).as_laurent() == exact_div(q_bracket(6), q_bracket(2))

    @pytest.mark.parametrize(
        "den",
        [
            LaurentQT({(1, 0): 1, (0, 0): 2}),
            LaurentQT({(1, 0): 1, (0, 0): -1}),
            q_bracket(1) + t_power(1),
            q_bracket(3) * LaurentQT({(2, 0): 1, (0, 0): 3}),
            q_bracket(2) * q_bracket(2) * 2 + q_power(0),
        ],
    )
    def test_denominator_outside_the_family_raises(self, den):
        with pytest.raises(ValueError):
            RationalQT(q_power(1), den)
        with pytest.raises(ValueError):
            reciprocal(RationalQT(den))

    @given(
        laurents(), st.integers(0, 4), st.integers(1, 12), st.lists(st.integers(1, 6), max_size=3)
    )
    @settings(max_examples=100, deadline=None)
    def test_bracket_quotient_matches_explicit_denominator(self, f, j, c, ks):
        num = f * q_bracket(j) if j else f
        den = LaurentQT.from_int(c)
        for k in ks:
            den = den * q_bracket(k)
        assert _fields(bracket_quotient(num, c, ks)) == _fields(RationalQT(num, den))

    @given(
        bracket_fractions(),
        st.lists(st.integers(1, 6), max_size=2),
        st.lists(st.integers(1, 6), max_size=4),
    )
    # the denominator shares phi_1 and phi_2 with the brackets, or nothing
    @example(RationalQT(q_power(1) + 3, q_bracket(2) * q_bracket(1)), [], [2, 4])
    @example(RationalQT(q_power(1) + 3, q_bracket(5) * 2), [], [4, 6])
    # the numerator holds {4}, so a quotient by {2}{4} cancels phi_2 and phi_4
    @example(RationalQT(q_power(1) + 3, q_bracket(1)), [4], [2, 4])
    # phi_3 splits in q: num holds one of its two factors, the brackets all of it
    @example(RationalQT(q_power(1) + 1 + q_power(-1), q_bracket(3)), [], [6])
    @example(RationalQT(q_power(1) + 1 + q_power(-1), q_bracket(1)), [], [6, 3])
    @settings(max_examples=150, deadline=None)
    def test_bracket_scaling_matches_generic_route(self, x, held, ks):
        # held brackets in the numerator give the quotient phi_d to cancel
        for j in held:
            x = x * RationalQT(q_bracket(j))
        brackets = LaurentQT.one()
        for k in ks:
            brackets = brackets * q_bracket(k)
        assert _fields(bracket_scaled(x, ks)) == _fields(x * RationalQT(brackets))
        quotient = x * bracket_quotient(LaurentQT.one(), 1, ks)
        assert _fields(bracket_scaled(x, ks, divide=True)) == _fields(quotient)

    @given(bracket_dens())
    @settings(max_examples=100, deadline=None)
    def test_bracket_factors_recompose(self, den):
        inv_unit, c, exps = bracket_factors(den)
        prod = LaurentQT.from_int(c)
        for d, e in exps:
            prod = prod * cyclotomic_factor(d) ** e
        assert den * inv_unit == prod


# coefficients next to the 62-bit bound of the packed rows
ROW_EDGE_COEFFS = [s * (2**k + d) for k in (58, 60, 61) for d in (-1, 0, 1) for s in (1, -1)]


@st.composite
def packed_sum_parts(draw):
    """Parts for RationalQT.sum on both sides of every gate of the packed route.

    Numerators fill boxes of up to 24 q-steps of 1 or 2 (mixed or shared
    q-parity) and up to 3 t-rows, over one to three denominators c * prod {k} with
    k <= 4 (d = 1, 2 lift by an odd phi(d)), integers only, or 1.  Repeated
    denominators merge, negated copies cancel, minus the sum of the other
    parts cancels the total, split pairs (f {k} + m) / D, -m / D cancel {k} only
    after the merge, coefficients near 2**58 to 2**61 reach the 62-bit
    decline, and a far q-shift makes a sparse layout.
    """
    dens = draw(st.lists(st.tuples(st.sampled_from([1, 1, 2, 3, 6]), st.lists(st.integers(1, 4), max_size=3)),
                         min_size=1, max_size=3))
    # one example in five is near the 62-bit decline, and one in five has a sparse layout
    big = draw(st.integers(0, 4)) == 0

    def numerator():
        q0, t0 = draw(st.integers(-6, 6)), draw(st.integers(-2, 2))
        q_step = draw(st.sampled_from([1, 2]))
        nq, nt = draw(st.integers(1, 24)), draw(st.integers(1, 3))
        coeff = st.sampled_from([0, *ROW_EDGE_COEFFS]) if big else st.integers(-9, 9)
        coeffs = draw(st.lists(coeff, min_size=nq * nt, max_size=nq * nt))
        terms = {(q0 + q_step * (i % nq), t0 + i // nq): c for i, c in enumerate(coeffs)}
        return LaurentQT(terms) or LaurentQT.monomial(1, q0, t0)

    parts = []
    for _ in range(draw(st.integers(2, 6))):
        c, ks = draw(st.sampled_from(dens))
        parts.append(bracket_quotient(numerator(), c, ks))
    if draw(st.integers(0, 4)) == 0:
        parts.append(bracket_quotient(numerator() * LaurentQT.monomial(1, 400), *draw(st.sampled_from(dens))))
    for f, m, k, (c, ks) in draw(st.lists(st.tuples(st.just(numerator()), st.just(numerator()),
                                                    st.integers(1, 4), st.sampled_from(dens)), max_size=1)):
        parts += [bracket_quotient(f * q_bracket(k) + m, c, [*ks, k]), bracket_quotient(-m, c, [*ks, k])]
    negate = draw(st.sampled_from(["none", "some", "total"]))
    if negate == "total":
        parts.append(-sum_by_lift(parts))
    elif negate == "some":
        parts += [-x for x in draw(st.lists(st.sampled_from(parts), max_size=2))]
    return draw(st.permutations(parts))


def _count_routes(mp):
    """Counters of the lift-and-add kernel's outcomes, set through the MonkeyPatch ``mp``.

    packed and dicts count the calls of ``exactring._combine`` by the route
    its gate chose, a basis on packed rows or in term dicts, and division the
    cancellations that the packed rows left to ``exact_div``
    (``exactring._phi_cancel_by_division``).
    """
    counts = {"packed": 0, "dicts": 0, "division": 0}
    combine, division = exactring._combine, exactring._phi_cancel_by_division

    def count_combine(*args):
        basis = combine(*args)
        counts["dicts" if basis[3] is None else "packed"] += 1
        return basis

    def count_division(*args):
        counts["division"] += 1
        return division(*args)

    mp.setattr(exactring, "_combine", count_combine)
    mp.setattr(exactring, "_phi_cancel_by_division", count_division)
    return counts


@pytest.fixture
def routes(monkeypatch):
    return _count_routes(monkeypatch)


def _gate_parts(a=40, b=24, c_a=1, start=0, c=1, ks=(7,)):
    """A / (c * {k} over ks) and B: a + b input terms, B lifted by the phi_d of ks.

    A = c_a * sum of q**(2i), i < a, and B = sum of q**(2j + 1) over start <= j
    < start + b.  With ks = (7,), B is lifted by {7} = phi_1 phi_7 = q**7 - q**-7,
    7 x-steps per term: 7b of them, at least 2(a + b) when 5b >= 2a.  Lifted, B
    starts at q**(2 * start - 6) and ends at q**(2 * (start + b) + 6), so the slot
    bound is c_a + 2 and the layout, for start >= 3, one row of start + b + 4 slots.
    """
    num_a = LaurentQT({(2 * i, 0): c_a for i in range(a)})
    num_b = LaurentQT({(2 * j + 1, 0): 1 for j in range(start, start + b)})
    return [bracket_quotient(num_a, c, ks), RationalQT(num_b)]


class TestPackedSum:
    """RationalQT.sum on packed rows against the term-dict route, and its gates."""

    @given(packed_sum_parts())
    @settings(max_examples=300, deadline=None)
    def test_sum_matches_the_dict_route(self, parts):
        expected = sum_by_lift(parts)
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_routes(mp)
            total = RationalQT.sum(parts)
        # --hypothesis-show-statistics shows how often each route ran
        event(next((route for route in ("packed", "dicts") if counts[route]), "one part"))
        assert total == expected
        assert total.to_json() == expected.to_json()

    @pytest.mark.parametrize(
        "kwargs, route",
        [
            ({"a": 40, "b": 23}, "dicts"),
            ({"a": 40, "b": 24}, "packed"),
            # integers alone lift the parts, and phi_1 alone lifts 24 of 64 terms by one x-step
            ({"c": 3, "ks": ()}, "dicts"),
            ({"ks": (1,)}, "dicts"),
            # 7 * 20 x-steps of lift over 50 + 20 terms and over 51 + 20
            ({"a": 50, "b": 20}, "packed"),
            ({"a": 51, "b": 20}, "dicts"),
            # the slot bound c_a + 2 * 1 at 2**62 - 1 and at 2**62
            ({"c_a": 2**62 - 3}, "packed"),
            ({"c_a": 2**62 - 2}, "dicts"),
            # 4 * 64 slots and one more
            ({"start": 228}, "packed"),
            ({"start": 229}, "dicts"),
        ],
        ids=["63-terms", "64-terms", "integer-lift", "light-lift", "lift-2-per-term", "lift-below-2",
             "bound-below-2**62", "bound-2**62", "4-slots-per-term", "sparse"],
    )
    def test_gates(self, routes, kwargs, route):
        parts = _gate_parts(**kwargs)
        total, expected = RationalQT.sum(parts), sum_by_lift(parts)
        assert total == expected
        assert total.to_json() == expected.to_json()
        assert routes[route] == 1
        assert routes["packed"] + routes["dicts"] == 1

    def test_content_cancels_against_the_integer(self, routes):
        # f / (2 {7}) + g / 2 with f = 2 u - g {7}: both canonical, and the total
        # 2 u / (2 {7}) = u / {7} has content 2; g, 30 of the 73 terms, is lifted by 7 x-steps
        u = LaurentQT({(2 * i, 0): i % 3 + 1 for i in range(40)})
        g = LaurentQT({(2 * j + 1, 0): 1 for j in range(30)})
        f = u * 2 - g * q_bracket(7)
        parts = [bracket_quotient(f, 2, [7]), RationalQT(g, 2)]
        assert [x._c for x in parts] == [2, 2]
        total = RationalQT.sum(parts)
        assert routes["packed"] == 1
        assert total == sum_by_lift(parts) == bracket_quotient(u, 1, [7])
        assert total._c == 1

    def test_total_cancels_to_zero(self, routes):
        # -(A + B) merges with A, and the lifted B cancels the merged group
        g = LaurentQT({(2 * j + 1, 0): j % 3 + 1 for j in range(40)})
        parts = [_gate_parts()[0], RationalQT(g)]
        parts.append(-sum_by_lift(parts))
        assert RationalQT.sum(parts) == 0
        assert routes["packed"] == 1

    def test_certificate_regression(self, routes):
        # as one integer over all rows, f is divisible by 2**64 - 1: the rows sum to
        # a multiple of x - 1.  Row by row, phi_1 does not divide f, and phi_2 does once.
        f = {(-5, -6): 1, (-5, -4): -1, (-3, -4): -1, (-3, -2): 1,
             (5, -6): 1, (3, -4): -1, (5, -4): -1, (3, -2): 1}
        one = sum(c << 64 * ((eq + 5) + 11 * ((et + 6) >> 1)) for (eq, et), c in f.items())
        assert one % (2**64 - 1) == 0
        exps = {1: 2, 2: 1}
        quo = _phi_cancel(LaurentQT(f), exps, [1, 2])
        assert exps == {1: 2, 2: 0}
        assert quo * cyclotomic_factor(2) == LaurentQT(f)
        # decided on the packed rows, without the fallback
        assert routes["division"] == 0

    def test_spurious_integer_division_fails_the_certificate(self, routes):
        # five coefficients (2**64 - 1) / 5 < 2**62: the row's value is divisible by
        # Phi_1(2**64) = 2**64 - 1, but its coefficients sum to 2**64 - 1, not 0
        c = (2**64 - 1) // 5
        row = sum(c << 64 * i for i in range(5))
        assert row % (2**64 - 1) == 0
        exps = {1: 1}
        assert _cancel_rows([(0, row)], 5, exps, [1]) is None
        assert exps == {1: 1}
        f = LaurentQT({(2 * i, 0): c for i in range(5)}) * LaurentQT({(0, j): 1 for j in range(8)})
        exps = {1: 1}
        assert _phi_cancel(f, exps, [1]) is f and exps == {1: 1}
        # the certificate failed, so exact_div decided
        assert routes["division"] == 1

    @given(
        laurents(max_terms=40, span=8).filter(bool),
        st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=3),
        st.sampled_from([1, 2**40, 2**61 - 1, 2**62]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_packed_rows_agree_with_lists(self, f, powers, scale, data):
        f = f * scale
        for d, k in powers.items():
            f = f * cyclotomic_factor(d) ** k
        ds = sorted({1, 2, *powers})
        exps = {d: data.draw(st.integers(0, 4)) for d in ds}
        test = data.draw(st.lists(st.sampled_from(ds), unique=True))
        want = dict(exps)
        expected = phi_cancel_by_lists(f, want, test)
        assert _phi_cancel(f, exps, test) == expected
        assert exps == want


class TestSumRoutes:
    """The route the kernel takes on each workload call; a later change cannot flip one silently."""

    def test_colored_torus_bracket_is_packed(self, routes):
        from skeinlab.partitions import Partition, PartitionPair
        from skeinlab.skein import _surface_bracket

        pair = PartitionPair(Partition([2, 1]), Partition([2, 1]))
        _surface_bracket.__wrapped__(2, 5, 1, (pair,))
        assert routes == {"packed": 1, "dicts": 0, "division": 0}

    def test_integer_denominator_sums_of_hat_h_stay_in_term_dicts(self, routes):
        from skeinlab.fixtures import hopf_with_kinks
        from skeinlab.lmov import hat_h, plethystic_h
        from skeinlab.partitions import partitions_of

        spec = hopf_with_kinks(1, -1)
        table = plethystic_h(spec, 5)
        routes.update(dict.fromkeys(routes, 0))
        labels = [p for n in range(6) for p in partitions_of(n)]
        for B1 in labels:
            for B2 in labels:
                if 1 <= B1.size + B2.size <= 5:
                    hat_h(spec, (B1, B2), table=table)
        # 70 sums over two or more denominators, 36 of them from 64 terms on, but
        # integers alone lift them: every sum adds in term dicts
        assert (routes["packed"], routes["dicts"]) == (0, 70)

    def test_largest_sums_of_the_size_4_torus_labels_are_packed(self, routes):
        from skeinlab.partitions import Partition, PartitionPair
        from skeinlab.skein import _surface_bracket

        one = PartitionPair(Partition([1]), Partition())
        for lam in ([4], [3, 1]):
            pairs = (PartitionPair(Partition(lam), Partition()), one, one)
            _surface_bracket.__wrapped__(3, 1, 3, pairs)
        # 87 380 and 119 098 input terms over about 3 900 slots
        assert routes == {"packed": 2, "dicts": 0, "division": 0}

    def test_free_energy_bases_of_four_or_more_vectors_are_packed(self, monkeypatch):
        from skeinlab import lmov
        from skeinlab.fixtures import hopf_with_kinks

        numerators, combination, canonical = lmov.framed_numerators, lmov.bracket_combination, exactring._canonical_packed
        bases, added, calls = [], [], [0]

        def count_numerators(spec, decoration_vectors):
            basis = numerators(spec, decoration_vectors)
            bases.append((len(decoration_vectors), basis[3] is not None))
            return basis

        def count_canonical(*args):
            calls[0] += 1
            return canonical(*args)

        def count_combination(basis, *args):
            before = calls[0]
            value = combination(basis, *args)
            if basis[3] is not None:
                added.append(calls[0] - before)
            return value

        monkeypatch.setattr(lmov, "framed_numerators", count_numerators)
        monkeypatch.setattr(lmov, "bracket_combination", count_combination)
        monkeypatch.setattr(exactring, "_canonical_packed", count_canonical)
        lmov.plethystic_h(hopf_with_kinks(1, -1), 5)
        # one basis per size set (sizes summed over the two components, 1 to 5): the 9 of
        # 4 or more vectors are packed and the 2 smaller ones in term dicts, and every
        # Zhat_nu on a packed basis is added as big integers and cancelled on its rows
        assert sorted(bases) == [(1, False), (2, False), *((n, True) for n in (4, 4, 4, 6, 6, 10, 10, 12, 14))]
        assert added and set(added) == {1}

    def test_huge_weights_decline_to_term_dicts(self, routes):
        from skeinlab.partitions import Partition, PartitionPair
        from skeinlab.skein import LinkSpec, framed_numerators, torus_framed

        spec = LinkSpec.torus(1, 1, 2, framing=(1, -1))
        one, two = PartitionPair(Partition([1]), Partition()), PartitionPair(Partition([2]), Partition())
        decorations = [{one: 2**62, two: -1}, {one: 1}]
        # four vectors would pack, but the slot bound reaches 2**62
        basis = framed_numerators(spec, [decorations] * 4)
        assert basis[3] is None
        assert (routes["packed"], routes["dicts"]) == (0, 1)
        assert bracket_combination(basis, [1, 0, 0, 0], 1, ()) == torus_framed(spec, decorations)

    @pytest.mark.parametrize(
        "link, labels, cores",
        [
            # a big-colored item: one core, lifted by nothing
            (("torus", 2, 5, 1), [[[2, 1], [2, 1]]], 1),
            # a zh-sweep item of the T(3,3) diagram: the power sums p_(2,1), p_2 and p_1, many cores
            (("torus_diagram", 3, 3), [[[2, 1]], [[2]], [[1]]], 4),
        ],
        ids=["big-colored", "zh-sweep"],
    )
    def test_torus_framed_stays_in_term_dicts(self, monkeypatch, link, labels, cores):
        from skeinlab.composite import power_decoration
        from skeinlab.partitions import Partition, PartitionPair
        from skeinlab.skein import LinkSpec, _shifted_leaves, torus_framed

        kind, *args = link
        spec = getattr(LinkSpec, kind)(*args)
        decorations = [
            power_decoration(Partition(lam)) if not mu else {PartitionPair(Partition(lam), Partition(mu[0])): 1}
            for lam, *mu in labels
        ]
        expected = torus_framed(spec, decorations)  # the surface brackets, cached
        counts = _count_routes(monkeypatch)
        assert torus_framed(spec, decorations) == expected
        assert (counts["packed"], counts["dicts"]) == (0, 1)
        assert len(_shifted_leaves(spec, [decorations])[0]) == cores


# a leaf weight this large takes a vector's slot bound past 2**62
HUGE = 2**61 + 1


@st.composite
def framed_combinations(draw):
    """(values, vectors, combinations) from the leaves of a drawn spec's decoration vectors.

    Hopf, T(1,1,3), T(2,3,1) and the unknot, framings in [-3, 3] and reversed
    components; decorations over composite labels with int weights in
    [-3, 3], zero included; combination weights in [-4, 4] over the vectors,
    with integers c and brackets {k}.  One draw in six gives a leaf weight
    near 2**61, which declines the packed basis, one in six a combination
    weight near 2**61, which adds that combination in term dicts, and one in
    four appends a negated copy of a vector so that a combination cancels to 0.
    """
    from skeinlab.partitions import pairs_of_total
    from skeinlab.skein import LinkSpec, _shifted_leaves

    # (m, n, L) of the torus link, or m = 0 for the unknot, and the largest label size
    (m, n, L), max_size = draw(st.sampled_from([((1, 1, 2), 2), ((1, 1, 3), 1), ((2, 3, 1), 2), ((0, 0, 1), 3)]))
    framing = tuple(draw(st.integers(-3, 3)) for _ in range(L))
    reversed_ = draw(st.sets(st.integers(0, L - 1)))
    spec = LinkSpec.torus(m, n, L, framing, reversed_) if m else LinkSpec.unknot(framing[0], reversed_)
    labels = [pr for n in range(1, max_size + 1) for pr in pairs_of_total(n)]
    weight = st.integers(-3, 3)
    if draw(st.integers(0, 5)) == 0:
        weight = st.sampled_from([-HUGE, HUGE, 1])
    decorations = st.lists(
        st.dictionaries(st.sampled_from(labels), weight, min_size=1, max_size=3), min_size=L, max_size=L
    )
    # one to six vectors: the kernel packs a call of four or more
    count = draw(st.integers(1, 6))
    decoration_vectors = draw(st.lists(decorations, min_size=count, max_size=count))
    values, vectors = _shifted_leaves(spec, decoration_vectors)
    cancel = draw(st.integers(0, 3)) == 0
    if cancel:
        vectors.append([(key, -w, shift) for key, w, shift in vectors[0]])
    coefficient = st.integers(-4, 4)
    if draw(st.integers(0, 5)) == 0:
        coefficient = st.sampled_from([-HUGE, HUGE, 0, 1])
    combinations = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(coefficient, min_size=len(vectors), max_size=len(vectors)))
        if cancel:
            weights[-1] = weights[0] = weights[0] or 1
        combinations.append((weights, draw(st.sampled_from([1, 2, 6])), draw(st.lists(st.integers(1, 3), max_size=3))))
    return values, vectors, combinations


# N / phi_1 with N = c * (1 + x + ... + x**4), x = q**2: phi_1 does not divide N, but the
# packed row c * (1 + X + ... + X**4) is divisible by Phi_1(X) at X = 2**64, so its
# quotient must fail the certificate of ``_cancel_rows``
SPURIOUS = RationalQT(LaurentQT({(2 * i, 0): (2**64 - 1) // 5 for i in range(5)}), q_bracket(1))


@st.composite
def value_combinations(draw):
    """(values, vectors, combinations) over drawn values, both q-parities among them.

    Values over one to three denominators c * prod {k}, k <= 3, zero values
    and ``SPURIOUS`` included; leaves with even q-shifts, and one draw in
    six with an odd one, which declines the packed basis.
    """
    dens = st.tuples(st.sampled_from([1, 2, 3]), st.lists(st.integers(1, 3), max_size=2))
    values = {}
    for key in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            values[key] = RationalQT(0)
        elif kind == 1:
            values[key] = SPURIOUS
        else:
            terms = st.tuples(st.integers(-6, 6), st.integers(-1, 1), st.integers(-9, 9))
            num = LaurentQT({(eq, et): c for eq, et, c in draw(st.lists(terms, min_size=1, max_size=10))})
            values[key] = bracket_quotient(num, *draw(dens))
    q_shift = st.integers(-3, 3).map(lambda a: 2 * a)
    if draw(st.integers(0, 5)) == 0:
        q_shift = st.integers(-3, 3)
    leaf = st.builds(
        lambda key, w, e_q, e_t: (key, w, exponent_key(e_q, e_t)),
        st.sampled_from(sorted(values)), st.sampled_from([-3, -2, -1, 1, 2, 3]), q_shift, st.integers(-2, 2),
    )
    # one to six vectors: the kernel packs a call of four or more
    count = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.lists(leaf, min_size=1, max_size=4), min_size=count, max_size=count))
    combinations = [
        (draw(st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors))),
         draw(st.sampled_from([1, 2])), draw(st.lists(st.integers(1, 3), max_size=2)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return values, vectors, combinations


class TestCombinationBasis:
    """The kernel's bases and single vectors against the Laurent-product route of the oracle."""

    @staticmethod
    def _check(values, vectors, combinations):
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_routes(mp)
            basis = combination_basis(values, vectors)
            got = [bracket_combination(basis, *combination) for combination in combinations]
        # --hypothesis-show-statistics shows how often each route ran
        event("packed" if counts["packed"] else "term dicts")
        if basis[3] is not None and any(
            sum(abs(w) * bound for (_, bound), w in zip(basis[2], weights)) >> 62 for weights, _, _ in combinations
        ):
            event("a combination past the slot bound, by dicts")
        for value, combination in zip(got, combinations):
            expected = combination_by_dicts(values, vectors, *combination)
            assert value == expected
            assert value.to_json() == expected.to_json()
            if not expected:
                event("cancels to 0")
        # the first vector alone, canonicalised on its own basis as torus_framed is
        value, expected = combination_value(values, vectors[0]), combination_by_dicts(values, vectors[:1], [1], 1, ())
        assert value == expected
        assert value.to_json() == expected.to_json()

    @given(framed_combinations())
    @settings(max_examples=150, deadline=None)
    def test_framed_combinations_match_the_dict_route(self, drawn):
        self._check(*drawn)

    @given(value_combinations())
    @settings(max_examples=150, deadline=None)
    def test_value_combinations_match_the_dict_route(self, drawn):
        self._check(*drawn)

    def test_integer_lifts_above_one_match_the_dict_route(self):
        # over the common denominator 6 phi_1**2 phi_2 phi_3, value 0 (denominator
        # 2 phi_1) lifts by 3 phi_1 phi_2 phi_3 and value 1 (3 {2}{3}) by the integer 2
        num0 = LaurentQT({(eq, et): 1 + abs(eq) + 3 * et for eq in (-3, -1, 1, 3) for et in (0, 1)})
        num1 = LaurentQT({(eq, et): 2 * eq - et + 1 for eq in (-2, 0, 2) for et in (0, 1)})
        values = {0: bracket_quotient(num0, 2, [2]), 1: bracket_quotient(num1, 3, [2, 3])}
        assert (values[0]._c, values[0]._exps) == (2, ((1, 1),))
        assert (values[1]._c, values[1]._exps) == (3, ((1, 2), (2, 1), (3, 1)))
        # four vectors, so that the basis packs
        vectors = [
            [(0, 1, exponent_key(0, 0)), (1, 2, exponent_key(2, 0))],
            [(1, -3, exponent_key(-2, 0)), (0, 1, exponent_key(2, 0))],
            [(0, 2, exponent_key(0, 0)), (1, 1, exponent_key(0, 0))],
            [(1, 1, exponent_key(4, -1)), (0, -2, exponent_key(-2, 1))],
        ]
        combinations = [
            ([1, 0, 0, 0], 1, ()), ([1, 2, -1, 1], 5, (3,)), ([0, 1, 1, -2], 1, (1, 2)), ([3, -1, 2, 0], 2, ()),
        ]
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_routes(mp)
            basis = combination_basis(values, vectors)
        assert counts["packed"] == 1
        for combination in combinations:
            value = bracket_combination(basis, *combination)
            expected = combination_by_dicts(values, vectors, *combination)
            assert value == expected
            assert value.to_json() == expected.to_json()

    def test_certificate_failure_falls_back_to_division(self):
        # four vectors, so that the basis packs
        values, vectors = {0: SPURIOUS}, [[(0, 1, exponent_key(2, 0))]] * 4
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_routes(mp)
            total = bracket_combination(combination_basis(values, vectors), [1, 0, 0, 0], 1, ())
        assert counts == {"packed": 1, "dicts": 0, "division": 1}
        assert total.to_json() == combination_by_dicts(values, vectors, [1, 0, 0, 0], 1, ()).to_json()
        assert total == SPURIOUS * LaurentQT.monomial(1, 2)


def _lead_at_q_one(f):
    """The leading term of f(exp(h), t) as a sympy expression, from a series in h."""
    sympy = pytest.importorskip("sympy")
    h, t = sympy.symbols("h t")
    expr = sum(
        c * sympy.exp(h * eq) * t**et for (eq, et), c in f.sorted_terms()
    )
    order = 0
    while True:
        series = sympy.expand(sympy.series(expr, h, 0, order + 1).removeO())
        if series != 0:
            return order, sympy.expand(series / h**order)
        order += 1


def _to_sympy(lead):
    """A leading coefficient (a t-polynomial over an integer) as a sympy expression."""
    import sympy

    t = sympy.Symbol("t")
    (_, den), = lead.den.sorted_terms()
    num = sum(c * t**et for (_, et), c in lead.num.sorted_terms())
    return sympy.expand(num / sympy.Integer(den))


class TestQOneLeading:
    def test_bracket(self):
        assert q_one_leading(q_bracket(1)) == (1, 2)

    def test_unknot_scalar(self):
        f = RationalQT(t_bracket(1), q_bracket(1))
        assert q_one_leading(f) == (-1, RationalQT(t_bracket(1)) * Fraction(1, 2))

    def test_constant(self):
        assert q_one_leading(t_power(2)) == (0, t_power(2))
        assert q_one_leading(RationalQT(t_power(2))) == (0, t_power(2))

    def test_high_valuation_needs_no_truncation_order(self):
        assert q_one_leading(q_bracket(1) ** 10) == (10, 1024)

    def test_quotient_valuations_subtract(self):
        f = RationalQT(q_bracket(2) * q_bracket(2), q_bracket(1))
        assert q_one_leading(f) == (1, 8)

    @given(bracket_fractions())
    @settings(max_examples=100, deadline=None)
    def test_factored_denominator_matches_expanded(self, x):
        if not x:
            return
        (v, a), (w, b) = q_one_leading(x.num), q_one_leading(x.den)
        assert q_one_leading(x) == (v - w, a * reciprocal(b))

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            q_one_leading(LaurentQT.zero())

    @pytest.mark.parametrize(
        "value, limit",
        [
            (RationalQT(t_power(2)), t_power(2)),
            (RationalQT(q_bracket(1)), LaurentQT.zero()),
            (RationalQT(LaurentQT.one(), q_bracket(1)), "pole"),
            (RationalQT(t_power(2), 2), "not a Laurent polynomial"),
        ],
        ids=["constant", "zero", "pole", "not-integral"],
    )
    def test_limit_at_q_one(self, monkeypatch, value, limit):
        from skeinlab import lmov
        from skeinlab.skein import LinkSpec

        monkeypatch.setattr(lmov, "full_invariant_value", lambda spec, pairs: value)
        if isinstance(limit, str):
            with pytest.raises(ArithmeticError, match=limit):
                lmov.special_polynomial(LinkSpec.unknot(0), [])
        else:
            assert lmov.special_polynomial(LinkSpec.unknot(0), []) == limit

    @given(st.one_of(laurents(), bracket_fractions()), st.one_of(laurents(), bracket_fractions()))
    @settings(max_examples=100, deadline=None)
    def test_multiplicative(self, f, g):
        if not f or not g:
            return
        (vf, lf), (vg, lg) = q_one_leading(f), q_one_leading(g)
        assert q_one_leading(f * g) == (vf + vg, lf * lg)

    @given(laurents(), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_bracket_power_shifts_valuation(self, f, k):
        if not f:
            return
        v, lead = q_one_leading(f)
        assert q_one_leading(q_bracket(1) ** k * f) == (k + v, lead * 2**k)

    @given(laurents(max_terms=3, span=3), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_matches_sympy_series(self, g, k):
        if not g:
            return
        f = q_bracket(1) ** k * g
        v, lead = q_one_leading(f)
        assert (v, _to_sympy(lead)) == _lead_at_q_one(f)


BOUND = 2**31
EXPONENTS = st.integers(-(BOUND - 1), BOUND - 1)


class TestExponentKeys:
    """Term dicts keyed by one int per exponent pair, every exponent below 2**31 in size."""

    @given(EXPONENTS, EXPONENTS)
    @example(BOUND - 1, BOUND - 1)
    @example(-(BOUND - 1), -(BOUND - 1))
    @example(BOUND - 1, -(BOUND - 1))
    @example(-(BOUND - 1), BOUND - 1)
    @example(-1, 0)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, e_q, e_t):
        f = LaurentQT.monomial(-3, e_q, e_t)
        assert list(f._terms) == [exponent_key(e_q, e_t)]
        assert f.sorted_terms() == [((e_q, e_t), -3)]
        assert f.exponent_box() == ((e_q, e_q), (e_t, e_t))
        assert f.to_records() == [[e_q, 1, e_t, 1, "-3"]]
        assert LaurentQT.from_records(f.to_records()) == f
        assert f.mirror() == LaurentQT.monomial(-3, -e_q, -e_t)
        assert f.leading() == f.trailing() == ((e_q, e_t), -3)

    @given(st.lists(st.tuples(EXPONENTS, EXPONENTS), min_size=1, max_size=12, unique=True))
    @example([(BOUND - 1, 0), (-(BOUND - 1), 1), (0, 0), (1, -(BOUND - 1))])
    @settings(max_examples=200, deadline=None)
    def test_keys_sort_in_record_order(self, pairs):
        f = LaurentQT({pair: i + 1 for i, pair in enumerate(pairs)})
        by_t = sorted(pairs, key=lambda pair: (pair[1], pair[0]))
        assert [pair for pair, _ in f.sorted_terms()] == by_t
        assert [[r[0], r[2]] for r in f.to_records()] == [list(pair) for pair in by_t]
        assert sorted(f._terms) == [exponent_key(*pair) for pair in by_t]
        # the q-parity is the parity of the key
        assert all(key & 1 == pair[0] & 1 for key, pair in zip(sorted(f._terms), by_t))

    @given(st.lists(st.tuples(EXPONENTS, EXPONENTS, st.integers(-5, 5)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash_agree_across_constructions(self, terms):
        f = LaurentQT([((eq, et), c) for eq, et, c in terms])
        g = LaurentQT([((eq, et), c) for eq, et, c in reversed(terms)])
        assert f == g and hash(f) == hash(g)
        assert f + LaurentQT.zero() == f and hash(f * 1) == hash(f)
        assert LaurentQT.from_records(f.to_records()) == f
        assert pickle.loads(pickle.dumps(f)) == f

    @pytest.mark.parametrize(
        "e_q, e_t", [(BOUND, 0), (-BOUND, 0), (0, BOUND), (0, -BOUND), (-BOUND, BOUND), (2**40, 1)]
    )
    def test_bound_where_exponents_enter(self, e_q, e_t):
        with pytest.raises(ArithmeticError):
            exponent_key(e_q, e_t)
        with pytest.raises(ArithmeticError):
            LaurentQT({(e_q, e_t): 1, (0, 0): 2})
        with pytest.raises(ArithmeticError):
            LaurentQT.monomial(1, e_q, e_t)
        with pytest.raises(ArithmeticError):
            LaurentQT.from_records([[0, 1, 0, 1, "2"], [e_q, 1, e_t, 1, "1"]])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_operations_that_reach_the_bound_raise(self, sign):
        edge = sign * (BOUND - 1)
        step = LaurentQT.monomial(1, sign, 0)
        top = LaurentQT.monomial(1, edge, 0)
        with pytest.raises(ArithmeticError):
            top * step
        with pytest.raises(ArithmeticError):
            LaurentQT({(edge, 0): 1, (0, 0): 1}) * (step + LaurentQT.one())
        with pytest.raises(ArithmeticError):
            LaurentQT.monomial(1, 0, edge) * LaurentQT.monomial(1, 0, sign)
        # the dense product goes through the packed route
        row = LaurentQT({(edge - sign * i, 0): 1 for i in range(30)})
        with pytest.raises(ArithmeticError):
            row * LaurentQT({(sign * i, 0): 1 for i in range(1, 31)})
        with pytest.raises(ArithmeticError):
            LaurentQT.monomial(1, sign * 2**30, 1).substitute_power(2)
        # one vector in term dicts, and four that pass the packed gate, whose rows reach the bound
        with pytest.raises(ArithmeticError):
            combination_basis({"top": RationalQT(top)}, [[("top", 1, exponent_key(sign, 0))]])
        with pytest.raises(ArithmeticError):
            combination_basis({"top": RationalQT(top)}, [[("top", 1, exponent_key(2 * sign, 0))]] * 4)
        with pytest.raises(ArithmeticError):
            RationalQT(top, q_bracket(1)) * RationalQT(step)
        with pytest.raises(ArithmeticError):
            tq_bracket_product([(sign * 2**30, 2)])
        with pytest.raises(ArithmeticError):
            top.substitute_power(2)
        # one step back inside, the same operations succeed
        assert (top * step.mirror()).sorted_terms() == [((edge - sign, 0), 1)]
        assert top.mirror().sorted_terms() == [((-edge, 0), 1)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_products_across_the_bound_agree_with_pairs(self, sign):
        # the factors' bounds add past 2**31, the product's exponents do not
        edge = sign * (BOUND - 1)
        a = {(edge - sign * i, j): i + 2 * j + 1 for i in range(20) for j in range(2)}
        b = {(-edge + sign * i, -j): (-1) ** i * (j + 1) for i in range(20) for j in range(2)}
        expected = LaurentQT(dict_product(a, b))
        assert LaurentQT(a) * LaurentQT(b) == expected
        assert packed_product(keyed(a), keyed(b)) == expected._terms
        small, back = {(edge, 0): 1, (0, 1): 2}, {(-edge, 0): 3}
        assert LaurentQT(small) * LaurentQT(back) == LaurentQT(dict_product(small, back))
        assert exact_div(expected, LaurentQT(b)) == LaurentQT(a)

    @given(
        laurents(max_terms=5, span=4), laurents(max_terms=4, span=3).filter(bool), laurents(max_terms=2)
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_div_agrees_with_division_on_pairs(self, f, g, r):
        divisible = f * g
        assert exact_div(divisible, g) == exact_div_by_pairs(divisible, g) == f
        other = divisible + r
        expected = exact_div_by_pairs(other, g)
        assert exact_div(other, g) == expected
        if expected is not None:
            assert expected * g == other

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(4, 2), 2.7, 2.0, True])
    def test_coefficients_must_be_int(self, c):
        with pytest.raises(TypeError):
            LaurentQT({(0, 0): c})
        with pytest.raises(TypeError):
            LaurentQT.monomial(c, 1, 1)
        with pytest.raises(TypeError):
            LaurentQT.from_records([[0, 1, 0, 1, c]])

    def test_record_coefficients_are_int_strings_or_ints(self):
        recs = [[1, 1, 2, 1, "-3"], [0, 1, 0, 1, 4]]
        assert LaurentQT.from_records(recs) == LaurentQT({(1, 2): -3, (0, 0): 4})
        for c in ("2.7", "1/2", ""):
            with pytest.raises(ValueError):
                LaurentQT.from_records([[0, 1, 0, 1, c]])
