"""Free-energy pipeline, transform tables, congruences, special polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import skeinlab.lmov as lmov
from skeinlab import exactring
from skeinlab.chars import SizeMismatch
from skeinlab.composite import framed_composite, r_reform
from skeinlab.exactring import (
    LaurentQT,
    RationalQT,
    _multiply_add,
    bracket_combination,
    cyclotomic_factor,
    exponent_key,
    q_bracket,
    q_brace,
    t_bracket,
)
from skeinlab.lmov import (
    _labels_upto,
    congruence_check,
    congruent_skein_case,
    cs_partition,
    hat_h,
    lmov_check,
    log_partition_series,
    plethystic_h,
    special_polynomial,
    t_transform,
)
from skeinlab.partitions import EMPTY, Partition, PartitionPair, pairs_of_total
from skeinlab.skein import LabelCountMismatch, LinkSpec

from oracles import (
    free_energy_entries,
    free_energy_via_schur,
    hat_h_via_t_transform,
    log_series_via_common_denominator,
    log_series_via_powers,
    reassembled_log,
    value_basis,
)

P = Partition
UNKNOT_SCALAR = RationalQT(t_bracket(1), q_bracket(1))


def pair(a, b=()):
    return PartitionPair(P(a), P(b))


def normalised(value, mus):
    """{mu} * value, {mu} the product of q**m - q**-m over all parts of the vector mu."""
    brackets = LaurentQT.one()
    for mu in mus:
        for m in mu:
            brackets = brackets * q_bracket(m)
    return value * RationalQT(brackets)


# the links checked against the Schur route at degree 5
SCHUR_ROUTE_LINKS = [
    pytest.param(LinkSpec.unknot(1), id="unknot(1)"),
    pytest.param(LinkSpec.unknot(-1), id="unknot(-1)"),
    pytest.param(LinkSpec.torus(1, 1, 2, framing=(0, 0)), id="hopf(0,0)"),
    pytest.param(LinkSpec.torus(1, 1, 2, framing=(1, -1)), id="hopf(1,-1)"),
    pytest.param(LinkSpec.torus(1, 1, 2, framing=(-1, -1)), id="hopf(-1,-1)"),
    pytest.param(
        LinkSpec.torus(1, 1, 2, framing=(-1, -1), reversed_=(1,)), id="hopf(-1,-1)-reversed"
    ),
    pytest.param(LinkSpec.torus(2, 3, 1), id="T(2,3)"),
]


class TestPartitionFunction:
    def test_unknot_degree_one(self):
        coeffs = cs_partition(LinkSpec.unknot(0), 1)
        assert coeffs[(EMPTY,)] == RationalQT(1)
        assert coeffs[(P([1]),)] == UNKNOT_SCALAR * 2

    def test_sign_uses_writhe(self):
        coeffs = cs_partition(LinkSpec.unknot(1), 1)
        assert coeffs[(P([1]),)] == -framed_composite(LinkSpec.unknot(1), [P([1])])
        coeffs = cs_partition(LinkSpec.unknot(2), 1)
        assert coeffs[(P([1]),)] == framed_composite(LinkSpec.unknot(2), [P([1])])

    def test_truncation_by_total_degree(self):
        coeffs = cs_partition(LinkSpec.torus(1, 1, 2, framing=(-1, -1)), 2)
        assert all(sum(a.size for a in labels) <= 2 for labels in coeffs)
        assert (P([1]), P([1])) in coeffs


class TestFreeEnergy:
    def test_degree_one_is_signed_composite(self):
        spec = LinkSpec.unknot(0)
        table = plethystic_h(spec, 1)
        assert table[(P([1]),)] == framed_composite(spec, [P([1])])

    def test_triangular_consistency(self):
        for spec in (
            LinkSpec.unknot(1),
            LinkSpec.torus(1, 1, 2, framing=(0, -2)),
            LinkSpec.torus(1, 1, 2, framing=(-1, -1)),
        ):
            D = 3
            table = plethystic_h(spec, D)
            rebuilt = reassembled_log(table)
            direct = log_partition_series(spec, D)
            for key in set(rebuilt) | set(direct):
                expected = normalised(rebuilt.get(key, RationalQT(0)), key)
                assert direct.get(key, RationalQT(0)) == expected

    @pytest.mark.parametrize("spec", SCHUR_ROUTE_LINKS)
    def test_power_sum_route_matches_schur_route(self, spec):
        # {mu} log Z by the degree recursion against log(1 + u) by powers,
        # f_A against the per-degree Schur inversion, and the character sum
        # for fhat_B against sum_A f_A prod T_{A^a B^a}, key by key
        D = 5
        direct, powers = log_partition_series(spec, D), log_series_via_powers(spec, D)
        assert sorted(direct) == sorted(powers)
        for key, value in powers.items():
            assert direct[key] == normalised(value, key), key
        table = plethystic_h(spec, D)
        entries, schur = free_energy_entries(table), free_energy_via_schur(spec, D)
        assert sorted(entries) == sorted(schur)
        for labels, value in schur.items():
            assert entries[labels] == value, labels
        for labels in _labels_upto(spec.L, D):
            assert hat_h(spec, labels, table=table) == hat_h_via_t_transform(schur, labels), labels

    @pytest.mark.parametrize(
        "spec, D, perturbed",
        [
            pytest.param(LinkSpec.unknot(1), 5, (P([2, 1]),), id="unknot(1)"),
            pytest.param(
                LinkSpec.torus(1, 1, 2, framing=(-1, -1)), 4, (P([2]), P([1])), id="hopf(-1,-1)"
            ),
        ],
    )
    def test_surviving_pole_is_carried(self, monkeypatch, spec, D, perturbed):
        # H_A + c/{3} leaves {nu} Z_nu with a phi_3 for every nu with no part 3:
        # the normalised series must carry it exactly, not assume integrality
        extra = RationalQT(LaurentQT({(1, 1): 1, (0, 0): 2}), q_bracket(3))
        original_numerators, original_partition = lmov.framed_numerators, lmov.cs_partition
        target = lmov._signed_decorations(spec, perturbed)

        def framed_numerators_with_pole(spec, decoration_vectors):
            # the signed H_A of one size vector, the perturbed one shifted by extra
            basis = original_numerators(spec, decoration_vectors)
            units = [[int(i == j) for j in range(len(decoration_vectors))] for i in range(len(decoration_vectors))]
            values = [bracket_combination(basis, unit, 1, ()) for unit in units]
            for i, decorations in enumerate(decoration_vectors):
                if decorations == target:
                    values[i] = values[i] + extra
            return value_basis(values)

        def cs_partition_with_pole(spec, D):
            coeffs = dict(original_partition(spec, D))
            coeffs[perturbed] = coeffs[perturbed] + extra
            return coeffs

        monkeypatch.setattr(lmov, "framed_numerators", framed_numerators_with_pole)
        monkeypatch.setattr(oracles, "cs_partition", cs_partition_with_pole)
        assert any(3 in dict(v._exps) for v in log_partition_series(spec, D).values())
        table = plethystic_h(spec, D)
        entries, schur = free_energy_entries(table), free_energy_via_schur(spec, D)
        assert sorted(entries) == sorted(schur)
        for labels, value in schur.items():
            assert entries[labels] == value, labels
        for labels in _labels_upto(spec.L, D):
            assert hat_h(spec, labels, table=table) == hat_h_via_t_transform(schur, labels), labels

    def test_degree_two_log_subtraction(self):
        # on a single unknot the second log coefficient must remove both the
        # square term and the Adams layer
        spec = LinkSpec.unknot(0)
        table = plethystic_h(spec, 2)
        h1 = table[(P([1]),)]
        h2 = {A: table[(A,)] for A in (P([2]), P([1, 1]))}
        # rebuild degree-2 coefficients of log Z by hand
        from skeinlab.symfun import schur_to_power_terms

        rebuilt = {}
        for A, value in h2.items():
            for mu, w in schur_to_power_terms(A).items():
                key = (mu,)
                rebuilt[key] = rebuilt.get(key, RationalQT(0)) + value * RationalQT.from_fraction(w)
        half = RationalQT.from_fraction(Fraction(1, 2))
        rebuilt[(P([2]),)] = rebuilt.get((P([2]),), RationalQT(0)) + half * h1.substitute_power(2)
        direct = log_partition_series(spec, 2)
        for key in ((P([2]),), (P([1, 1]),)):
            expected = normalised(rebuilt.get(key, RationalQT(0)), key)
            assert direct.get(key, RationalQT(0)) == expected


def assert_same_log_series(spec, D):
    """log_partition_series against the route through canonical H_A, key by key."""
    direct, canonical = log_partition_series(spec, D), log_series_via_common_denominator(spec, D)
    assert sorted(direct) == sorted(canonical)
    for key, value in canonical.items():
        assert direct[key] == value, key


class TestLogSeriesNumerators:
    # the lifted bracket cores of framed_numerators against common_denominator
    # of the canonical H_A, the route they replace
    @pytest.mark.parametrize(
        "spec, D",
        [pytest.param(LinkSpec.unknot(f), 5, id=f"unknot({f})") for f in (-2, 2)]
        + [
            pytest.param(LinkSpec.torus(1, 1, 2, framing=(a, b)), 4, id=f"hopf({a},{b})")
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
        ]
        + [
            pytest.param(
                LinkSpec.torus(1, 1, 2, framing=(1, -1), reversed_=(1,)), 4, id="hopf-reversed"
            ),
            pytest.param(LinkSpec.torus(1, 2, 2), 3, id="T(1,2,2)"),
            pytest.param(LinkSpec.torus(1, 1, 3), 3, id="T(1,1,3)"),
            # permuted size vectors share one lift but carry different framings
            pytest.param(LinkSpec.torus(1, 1, 3, framing=(1, 0, -1)), 4, id="T(1,1,3)(1,0,-1)"),
            pytest.param(
                LinkSpec.torus(1, 1, 3, framing=(1, 0, -1), reversed_=(2,)),
                4,
                id="T(1,1,3)(1,0,-1)-reversed",
            ),
            pytest.param(LinkSpec.torus(1, 1, 2, framing=(2, -1)), 5, id="hopf(2,-1)"),
        ],
    )
    def test_matches_common_denominator_route(self, spec, D):
        assert_same_log_series(spec, D)

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_hopf_framings_degree_four(self, a, b):
        assert_same_log_series(LinkSpec.torus(1, 1, 2, framing=(a, b)), 4)


class TestTransform:
    def test_single_box(self):
        assert t_transform(P([1]), P([1])) == RationalQT(LaurentQT.one(), q_bracket(1))

    def test_mixed_two(self):
        got = t_transform(P([2]), P([1, 1]))
        expected = RationalQT(LaurentQT.one(), q_bracket(1) ** 2 * 2) - RationalQT(
            LaurentQT.one(), q_bracket(2) * 2
        )
        assert got == expected

    def test_diagonal_two(self):
        got = t_transform(P([2]), P([2]))
        expected = RationalQT(LaurentQT.one(), q_bracket(1) ** 2 * 2) + RationalQT(
            LaurentQT.one(), q_bracket(2) * 2
        )
        assert got == expected

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            t_transform(P([2]), P([1]))


class TestLmovCheck:
    def test_unknot_single_box(self):
        spec = LinkSpec.unknot(0)
        table = plethystic_h(spec, 1)
        expected = framed_composite(spec, [P([1])]) * t_transform(P([1]), P([1]))
        assert hat_h(spec, [P([1])], table=table) == expected
        verdict, ntable, stage = lmov_check(spec, [P([1])], table=table)
        assert verdict, stage
        assert ntable == {(0, 1): 2, (0, -1): -2}

    def test_empty_label_vacuous(self):
        spec = LinkSpec.unknot(0)
        verdict, ntable, stage = lmov_check(spec, [EMPTY], D=1)
        assert verdict and ntable == {}

    @pytest.mark.parametrize("D, table_degree", [(2, None), (None, 2), (None, 3)])
    def test_truncated_table_is_refused(self, D, table_degree):
        # fhat_{(2),(2)} has degree 4: a lower-degree table holds none of its f_A
        spec = LinkSpec.torus(1, 1, 2)
        table = None if table_degree is None else plethystic_h(spec, table_degree)
        with pytest.raises(ValueError, match="degree 4"):
            lmov_check(spec, [P([2]), P([2])], D=D, table=table)
        with pytest.raises(ValueError, match="degree 4"):
            hat_h(spec, [P([2]), P([2])], D=D, table=table)

    @pytest.mark.parametrize(
        "spec, labels",
        [
            pytest.param(LinkSpec.torus(1, 1, 2), [P([1])], id="too-few"),
            pytest.param(LinkSpec.unknot(0), [P([1]), P([1])], id="too-many"),
        ],
    )
    def test_wrong_label_count_is_refused(self, spec, labels):
        # a label vector of the wrong length matches no table key; it must
        # not read as fhat_B = 0 and a vacuous true verdict
        table = plethystic_h(spec, 2)
        with pytest.raises(LabelCountMismatch):
            hat_h(spec, labels, table=table)
        with pytest.raises(LabelCountMismatch):
            lmov_check(spec, labels, D=2)
        with pytest.raises(LabelCountMismatch):
            lmov_check(spec, labels, table=table)
        with pytest.raises(LabelCountMismatch):
            table[labels]

    def test_table_lookup_beyond_its_degree_is_refused(self):
        table = plethystic_h(LinkSpec.torus(1, 1, 2), 2)
        assert table[(P([1]), P([1]))]
        with pytest.raises(ValueError, match="degree 3"):
            table[(P([2]), P([1]))]

    def test_hopf_values_pinned(self):
        spec = LinkSpec.torus(1, 1, 2, framing=(-1, -1))
        table = plethystic_h(spec, 4)
        verdict, ntable, _ = lmov_check(spec, [P([2]), P([1, 1])], table=table)
        assert verdict
        assert ntable == {
            (0, -4): 2,
            (0, -2): -5,
            (0, 0): 6,
            (0, 2): -5,
            (0, 4): 2,
        }


class TestCongruence:
    def test_reflexive(self):
        a = RationalQT(q_bracket(2) * q_bracket(2))
        ok, stage, table = congruence_check(a, a, q_bracket(1))
        assert ok and table == {}

    def test_pole_depth_fails(self):
        z2 = q_bracket(1) * q_bracket(1)
        ok, stage, _ = congruence_check(RationalQT(z2), RationalQT(0), z2 * z2)
        assert not ok and stage == "not-divisible"

    def test_known_instance(self):
        # the k = 1 quadruple: plus (2,4), minus (2,2), zero (2,3), infinity U(-3)
        lhs = r_reform(LinkSpec.torus_diagram(2, 4), 2)
        rhs = r_reform(LinkSpec.torus_diagram(2, 2), 2) + RationalQT(
            q_bracket(2) * q_bracket(2) * (-2)
        ) * (r_reform(LinkSpec.torus_diagram(2, 3), 2) - r_reform(LinkSpec.unknot(-3), 2))
        ok, stage, _ = congruence_check(lhs, rhs, (q_bracket(2) * q_brace(2)) ** 2)
        assert ok, stage

    def test_case_runner(self):
        for k in (0, 1):
            verdict, stage, table = congruent_skein_case(2, k)
            assert verdict, (k, stage)

    def test_zero_modulus(self):
        with pytest.raises(ZeroDivisionError):
            congruence_check(RationalQT(1), RationalQT(0), LaurentQT.zero())


class TestSpecialPolynomial:
    def test_trefoil_base(self):
        got = special_polynomial(LinkSpec.torus(2, 3, 1), [pair([1])])
        assert got == LaurentQT({(0, -2): 2, (0, -4): -1})

    def test_trefoil_power_law(self):
        base = special_polynomial(LinkSpec.torus(2, 3, 1), [pair([1])])
        got = special_polynomial(LinkSpec.torus(2, 3, 1), [pair([1], [1])])
        assert got == base * base

    def test_unknot_always_one(self):
        for pr in pairs_of_total(2):
            assert special_polynomial(LinkSpec.unknot(0), [pr]) == LaurentQT.one()

    def test_hopf_components_unknots(self):
        got = special_polynomial(LinkSpec.torus(1, 1, 2), [pair([1]), pair([1])])
        assert got == LaurentQT.one()

    def test_framing_independent(self):
        a = special_polynomial(LinkSpec.torus(2, 3, 1), [pair([2])])
        b = special_polynomial(LinkSpec.torus_diagram(2, 3), [pair([2])])
        assert a == b


def assert_same_log_of_zhat(zseries, D):
    """lmov._log_of_zhat against the RationalQT recursion of the oracle, key by key.

    Returns the fraction-free result.
    """
    fast, slow = lmov._log_of_zhat(zseries, D), oracles.log_of_zhat_by_rationals(zseries, D)
    assert sorted(fast) == sorted(slow)
    for key, value in slow.items():
        assert fast[key] == value, key
        assert fast[key].to_json() == value.to_json(), key
    return fast


# every vector of partitions of total size 1..5 with L components
SYNTHETIC_KEYS = {L: _labels_upto(L, 5)[1:] for L in (1, 2, 3)}


@st.composite
def integer_denominator_values(draw):
    """A nonzero value with an integer denominator; its numerator's content may share primes."""
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(-4, 4), st.integers(-2, 2)),
            st.integers(-30, 30).filter(bool),
            min_size=1,
            max_size=4,
        )
    )
    content = draw(st.sampled_from([1, 2, 3, 6]))
    return RationalQT(LaurentQT(terms) * content, draw(st.sampled_from([1, 2, 3, 4, 6, 12])))


@st.composite
def synthetic_zhat_series(draw):
    """(zseries, D, cancelled): a sparse Zhat series of L <= 3 components and degree D <= 5.

    One value may be divided by phi_3, and ``cancelled`` names a key whose
    Zhat was chosen so that its T_mu cancels to 0, or is None.
    """
    L, D = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    candidates = [key for key in SYNTHETIC_KEYS[L] if sum(A.size for A in key) <= D]
    keys = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=10, unique=True))
    zseries = [{} for _ in range(D + 1)]
    for key in keys:
        zseries[sum(A.size for A in key)][key] = draw(integer_denominator_values())
    if draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        layer = zseries[sum(A.size for A in key)]
        layer[key] = layer[key] * RationalQT(1, cyclotomic_factor(3))
    cancelled = None
    pairs = [(a, b) for a in keys for b in keys if sum(A.size for A in a + b) <= D]
    if pairs and draw(st.booleans()):
        alpha, beta = draw(st.sampled_from(pairs))
        mu = tuple(x.union(y) for x, y in zip(alpha, beta))
        layer = zseries[sum(A.size for A in mu)]
        layer.pop(mu, None)
        # with Zhat_mu absent, Fhat_mu = -(the products) / n; Zhat_mu = -Fhat_mu cancels them
        rest = oracles.log_of_zhat_by_rationals(zseries, D).get(mu)
        if rest:
            layer[mu], cancelled = -rest, mu
    return zseries, D, cancelled


class TestMultiplyAdd:
    ONES = {(i, j): 1 for i in range(20) for j in range(2)}
    SIGNS = {(2 * i - 7, j - 1): (-1) ** i * (i + 1) for i in range(18) for j in range(3)}
    SMALL = {(1, 0): 2, (-1, 0): -1, (0, 1): 3}

    @pytest.mark.parametrize(
        "f, g",
        [(ONES, SIGNS), (SIGNS, ONES), (ONES, SMALL), (SMALL, SMALL)],
        ids=["packed", "packed-swapped", "below-gate", "small"],
    )
    @pytest.mark.parametrize("w", [1, -3, 10**30])
    def test_matches_dict_product(self, f, g, w):
        fg = oracles.dict_product(f, g)
        start = {(0, 0): 5, (3, 1): -2}
        # a key of fg that acc already holds at -w times its value totals 0
        first = next(iter(fg))
        start[first] = -w * fg[first]
        acc = {exponent_key(*pair): c for pair, c in start.items()}
        out, _ = _multiply_add(acc, LaurentQT(f), LaurentQT(g), w)
        expected = dict(start)
        for pair, c in fg.items():
            expected[pair] = expected.get(pair, 0) + w * c
        # a nonempty acc is updated in place, and a zero total is deleted as it forms
        assert out is acc
        assert acc == {exponent_key(*pair): v for pair, v in expected.items() if v}
        assert exponent_key(*first) not in acc

    @pytest.mark.parametrize(
        "f, g, packed", [(ONES, SIGNS, True), (ONES, SMALL, False)], ids=["packed", "below-gate"]
    )
    def test_empty_acc_with_unit_weight(self, monkeypatch, f, g, packed):
        made, pack = [], exactring.packed_product

        def record(a, b, gate=True):
            made.append(pack(a, b, gate))
            return made[-1]

        monkeypatch.setattr(exactring, "packed_product", record)
        acc, _ = _multiply_add({}, LaurentQT(f), LaurentQT(g), 1)
        # the packed product becomes acc itself; below the size gate nothing is packed
        assert len(made) == packed and (not packed or acc is made[0])
        assert acc == {exponent_key(*pair): c for pair, c in oracles.dict_product(f, g).items()}
        assert all(acc.values())


class TestLogOfZhat:
    # the fraction-free recursion against the RationalQT recursion it replaced
    @pytest.mark.parametrize(
        "spec, D",
        [pytest.param(spec.values[0], 5, id=spec.id) for spec in SCHUR_ROUTE_LINKS]
        + [pytest.param(LinkSpec.torus(1, 1, 2, framing=(-1, -1)), 7, id="hopf(-1,-1)-D7")],
    )
    def test_matches_rational_recursion(self, spec, D):
        assert_same_log_of_zhat(lmov._zhat_series(spec, D), D)

    @given(synthetic_zhat_series())
    @settings(max_examples=80, deadline=None)
    def test_synthetic_series(self, case):
        # integer denominators sharing primes with the numerators' content,
        # negative coefficients, a phi_3 pole and a key whose total cancels
        zseries, D, cancelled = case
        fast = assert_same_log_of_zhat(zseries, D)
        if cancelled is not None:
            assert cancelled not in fast
