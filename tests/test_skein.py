"""Bracket evaluation, framing factors, torus invariants, symmetries."""

import gc
import random
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab import skein
from skeinlab.chars import skew_terms
from skeinlab.composite import power_decoration, z_reform
from skeinlab.exactring import LaurentQT, RationalQT, bracket_combination, combination_basis, q_bracket, t_bracket
from skeinlab.partitions import EMPTY, Partition, PartitionPair, pairs_of_total, partitions_of
from skeinlab.skein import (
    LabelCountMismatch,
    LinkSpec,
    _core,
    _core_key,
    _framing_exponents,
    _surface_bracket,
    framed_numerators,
    full_invariant_value,
    torus_framed,
    torus_full_invariant,
    unknot_full,
)
from skeinlab.symfun import pair_weights

from oracles import (
    adams_composite,
    conj_q,
    evaluate,
    framed_bracket_by_sum,
    hopf_bracket,
    meridian_eigenvalue,
    pair_conjugate,
    reciprocal,
    to_power_pairs,
    unknot_full_by_products,
)

P = Partition


def pair(a, b=()):
    return PartitionPair(P(a), P(b))


def framing_factor(lam, mu=()):
    """tau_{lam,mu} = q**(kappa_lam + kappa_mu) * t**(|lam| + |mu|)."""
    return LaurentQT.monomial(1, *_framing_exponents(PartitionPair(P(lam), P(mu)), 1))


def labels_upto(total):
    """Every composite label of total size <= total."""
    return [pr for n in range(total + 1) for pr in pairs_of_total(n)]


def mono(eq, et, c=1):
    return RationalQT(LaurentQT.monomial(c, eq, et))


UNKNOT_SCALAR = RationalQT(t_bracket(1), q_bracket(1))


class TestSpec:
    def test_torus_validation(self):
        with pytest.raises(ValueError):
            LinkSpec.torus(2, 4, 1)
        with pytest.raises(ValueError):
            LinkSpec.torus(2, 3, 2, framing=(0,))
        with pytest.raises(ValueError):
            LinkSpec.torus(1, 1, 2, reversed_={5})

    @pytest.mark.parametrize(
        "framing, reversed_",
        [((1.5,), ()), ((2.0,), ()), ((True,), ()), ((0,), (0.0,))],
        ids=["fractional-framing", "float-framing", "bool-framing", "float-reversed"],
    )
    def test_fields_take_ints(self, framing, reversed_):
        # a float framing used to surface as an internal error or deep in LaurentQT, a bool
        # framing was silently 1, and a float reversed index reached to_json as 0.0
        with pytest.raises(TypeError, match="take ints"):
            LinkSpec.torus(2, 3, 1, framing=framing, reversed_=reversed_)
        with pytest.raises(TypeError, match="take ints"):
            LinkSpec.unknot(framing[0], reversed_=reversed_)

    def test_writhes(self):
        assert LinkSpec.torus(2, 3, 1).writhes == (6,)
        assert LinkSpec.torus_diagram(2, 3).writhes == (3,)
        assert LinkSpec.torus_diagram(2, 4).writhes == (0, 0)
        assert LinkSpec.torus_diagram(3, 3).writhes == (0, 0, 0)
        assert LinkSpec.unknot(-2).writhes == (-2,)

    def test_torus_diagram_splits_gcd(self):
        spec = LinkSpec.torus_diagram(2, 6)
        assert (spec.m, spec.n, spec.L) == (1, 3, 2)


class TestEvaluate:
    def test_power_sums(self):
        assert evaluate({pair([1]): 1}) == UNKNOT_SCALAR
        assert evaluate({pair([2]): 1}) == RationalQT(t_bracket(2), q_bracket(2))
        assert evaluate({pair([], [2]): 1}) == RationalQT(t_bracket(2), q_bracket(2))
        assert evaluate({pair([]): 1}) == RationalQT(1)

    def test_multiplicative(self):
        # a product of power pairs is the union of their parts, leg by leg
        a, b = {pair([2, 1]): 1}, {pair([], [3]): 1}
        assert evaluate({pair([2, 1], [3]): 1}) == evaluate(a) * evaluate(b)


class TestUnknot:
    def test_fundamental(self):
        assert unknot_full(P([1])) == UNKNOT_SCALAR

    def test_empty(self):
        assert unknot_full(EMPTY, EMPTY) == RationalQT(1)

    def test_mixed_pair_is_alternating_combination(self):
        lhs = unknot_full(P([1]), P([1]))
        rhs = UNKNOT_SCALAR * UNKNOT_SCALAR - RationalQT(1)
        assert lhs == rhs

    def test_agrees_with_power_sum_evaluation(self):
        for n in range(9):
            for pr in pairs_of_total(n):
                assert unknot_full(pr.pos, pr.neg) == evaluate(to_power_pairs({pr: 1}))

    def test_packed_numerator_matches_binomial_products(self):
        for n in range(9):
            for pr in pairs_of_total(n):
                value, expected = unknot_full(pr.pos, pr.neg), unknot_full_by_products(pr.pos, pr.neg)
                assert (value.num, value._c, value._exps) == (expected.num, expected._c, expected._exps)


class TestFraming:
    def test_row_two(self):
        assert framing_factor(P([2])) == LaurentQT.monomial(1, 2, 2)

    def test_mixed_pair_cancels_kappa(self):
        assert framing_factor(P([1]), P([1])) == LaurentQT.monomial(1, 0, 2)

    def test_empty(self):
        assert framing_factor(EMPTY, EMPTY) == LaurentQT.one()

    @pytest.mark.parametrize("m, max_size", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_adams_image_twists_integrally(self, m, max_size):
        # the torus twist tau**(n/m) meets only the labels of an m-th Adams image
        for size in range(max_size + 1):
            for source in pairs_of_total(size):
                for target in adams_composite(source, m):
                    assert target.kappa % m == 0 and target.size % m == 0, (source, target)

    def test_fractional_twist_is_an_internal_error(self):
        assert _framing_exponents(pair([2]), 3, 2) == (3, 3)
        with pytest.raises(ArithmeticError, match=r"\[\[1\],\[\]\]"):
            _framing_exponents(pair([1]), 1, 3)


class TestMeridian:
    def test_empty_label(self):
        assert meridian_eigenvalue(EMPTY, EMPTY) == UNKNOT_SCALAR

    def test_single_cell(self):
        expected = RationalQT(q_bracket(1) * LaurentQT.monomial(1, 0, 1)) + UNKNOT_SCALAR
        assert meridian_eigenvalue(P([1]), EMPTY) == expected

    def test_distinct_up_to_three(self):
        values = []
        for n in range(4):
            for pr in pairs_of_total(n):
                values.append((pr, meridian_eigenvalue(pr.pos, pr.neg)))
        for i, (pa, va) in enumerate(values):
            for pb, vb in values[i + 1 :]:
                assert va != vb, (pa, pb)


class TestFramedBrackets:
    def test_single_twist_unknot(self):
        spec = LinkSpec.torus(1, 1, 1)
        for pr in pairs_of_total(2):
            dec = {pr: 1}
            expected = RationalQT(framing_factor(pr.pos, pr.neg)) * unknot_full(
                pr.pos, pr.neg
            )
            assert torus_framed(spec, [dec]) == expected

    def test_kinked_unknot(self):
        for f in (-2, 0, 3):
            spec = LinkSpec.unknot(f)
            for pr in pairs_of_total(2):
                dec = {pr: 1}
                tau = RationalQT(framing_factor(pr.pos, pr.neg))
                kinks = tau**f if f >= 0 else reciprocal(tau) ** -f
                assert torus_framed(spec, [dec]) == kinks * unknot_full(pr.pos, pr.neg)

    def test_trefoil_diagram_bracket(self):
        # writhe-3 planar diagram: t^3 * (2 t^-2 - t^-4 + t^-2 z^2) * unknot scalar,
        # and 2 t^-2 + t^-2 z^2 collapses to t^-2 (q^2 + q^-2)
        spec = LinkSpec.torus_diagram(2, 3)
        hand = RationalQT(LaurentQT({(2, -2): 1, (-2, -2): 1, (0, -4): -1}))
        expected = mono(0, 3) * hand * UNKNOT_SCALAR
        got = torus_framed(spec, [{pair([1]): 1}])
        assert got == expected

    def test_label_count(self):
        with pytest.raises(LabelCountMismatch):
            torus_framed(LinkSpec.torus(1, 1, 2), [{pair([1]): 1}])

    def test_decoration_linearity(self):
        spec = LinkSpec.torus(2, 3, 1)
        dec = {pair([1]): 1, pair([], [1]): 3}
        got = torus_framed(spec, [dec])
        split = torus_framed(spec, [{pair([1]): 1}]) + torus_framed(spec, [{pair([], [1]): 1}]) * 3
        assert got == split

    def test_framed_numerators_take_int_weights_only(self):
        # a RationalQT weight would leave RationalQT coefficients in the numerator:
        # a value equal to the int one whose hash and JSON differ
        spec = LinkSpec.torus(2, 3, 1)
        with pytest.raises(TypeError, match="not an int"):
            framed_numerators(spec, [[{pair([1]): 1, pair([], [1]): RationalQT(3)}]])
        with pytest.raises(TypeError, match="not an int"):
            torus_framed(spec, [{pair([1]): 1, pair([], [1]): RationalQT(3)}])
        basis = framed_numerators(spec, [[{pair([1]): 1, pair([], [1]): 3}]])
        num = bracket_combination(basis, [1], 1, ()).num
        assert all(type(c) is int for _, c in num.sorted_terms())

    @pytest.mark.parametrize(
        "spec, max_size",
        [
            (LinkSpec.torus(1, 1, 2), 2),
            (LinkSpec.torus(1, 1, 2, framing=(2, -1)), 2),
            (LinkSpec.torus(1, 1, 2, framing=(1, 0), reversed_={1}), 2),
            (LinkSpec.torus(2, 3, 1), 3),
            (LinkSpec.torus_diagram(2, 3, reversed_={0}), 3),
            (LinkSpec.torus(2, 1, 2, framing=(0, 1)), 2),
            (LinkSpec.torus_diagram(3, 3), 2),
            (LinkSpec.torus_diagram(3, 3, reversed_={1}), 2),
            (LinkSpec.unknot(-2), 2),
        ],
        ids=["hopf", "hopf-kinks", "hopf-reversed", "T(2,3)", "T(2,3)-diagram-reversed",
             "T(2,1,2)-kinks", "T(3,3)-diagram", "T(3,3)-diagram-reversed", "unknot-kinks"],
    )
    def test_matches_sum_of_products(self, spec, max_size):
        # one lift per distinct core and one key shift per leaf, against the canonical sum of
        # one monomial product per leaf; the int weights include cancelling pairs
        rng = random.Random(spec.describe())
        labels = [pr for pr in labels_upto(max_size) if pr.size]
        for _ in range(25):
            decorations = [
                {pr: rng.choice((-2, -1, 1, 3)) for pr in rng.sample(labels, rng.randint(1, min(3, len(labels))))}
                for _ in range(spec.L)
            ]
            expected = framed_bracket_by_sum(spec, decorations)
            assert torus_framed(spec, decorations) == expected, decorations

    @pytest.mark.parametrize(
        "spec, decorations",
        [
            (
                LinkSpec.torus(1, 1, 2, framing=(-1, -1)),
                [{pair([2]): 1, pair([], [2]): -1}, {pair([1], [1]): -1, pair([], [1]): -1}],
            ),
            (
                LinkSpec.torus(2, 1, 2),
                [{pair([1, 1]): 1, pair([], [1, 1]): -1}, {pair([1], [1]): 1, pair([], [1]): -1}],
            ),
            (
                LinkSpec.torus(1, 1, 2, framing=(1, 1)),
                [{pair([2]): 1, pair([1, 1]): -1}, {pair([2]): 1, pair([1, 1]): 1}],
            ),
        ],
        ids=["hopf-swap-orbit", "T(2,1,2)-swap-orbit", "hopf-permuted-orbit"],
    )
    def test_leaves_sharing_a_core(self, spec, decorations):
        # two leaves of one vector share a core (their labels are one orbit) and cancel: in the
        # first two cases that core alone held the top phi_1 power, so the sum is divisible by
        # it although no two cores hold that power, and a fold that counts the shared core as
        # one holder leaves phi_1**4 in place of phi_1 in the denominator
        cores, [leaves] = skein._shifted_leaves(spec, [decorations])
        assert len(cores) < len(leaves)
        assert torus_framed(spec, decorations) == framed_bracket_by_sum(spec, decorations)

    def test_leaves_no_cyclic_garbage(self):
        # what a call allocates is freed by reference counting alone, so peak
        # memory does not wait on the cyclic collector
        spec = LinkSpec.torus_diagram(2, 4)
        dec = {pair([1]): 1, pair([], [1]): 1}
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            torus_framed(spec, [dec, dec])
            assert skew_terms.__wrapped__(P([3, 2, 1]), P([2, 1]))[P([2, 1])] == 2
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestFullInvariant:
    def test_unknot_any_framing(self):
        for f in (-1, 0, 2):
            res = torus_full_invariant(LinkSpec.unknot(f), [pair([2], [1])])
            assert res.value == unknot_full(P([2]), P([1]))
            assert res.normalized

    def test_framing_independence(self):
        labels = [pair([1], [1])]
        a = full_invariant_value(LinkSpec.torus(2, 3, 1), labels)
        b = full_invariant_value(LinkSpec.torus(2, 3, 1, framing=5), labels)
        c = full_invariant_value(LinkSpec.torus_diagram(2, 3), labels)
        assert a == b == c

    def test_hopf_mixed_orientation(self):
        spec = LinkSpec.torus(1, 1, 2)
        got = full_invariant_value(spec, [pair([2]), pair((), [2])])
        expected = (
            unknot_full(P([2]), P([2]))
            + mono(-4, -2) * unknot_full(P([1]), P([1]))
            + mono(-4, -4)
        )
        assert got == expected

    def test_reversed_component_swaps_label(self):
        spec = LinkSpec.torus(1, 1, 2, reversed_={1})
        direct = full_invariant_value(spec, [pair([2]), pair([2])])
        swapped = full_invariant_value(
            LinkSpec.torus(1, 1, 2), [pair([2]), pair((), [2])]
        )
        assert direct == swapped

    def test_pair_swap_symmetry(self):
        for spec in (LinkSpec.torus(2, 3, 1), LinkSpec.torus(1, 1, 2)):
            for total in range(4):
                for pr in pairs_of_total(total):
                    labels = [pr] * spec.L
                    swapped = [p.swap() for p in labels]
                    assert full_invariant_value(spec, labels) == full_invariant_value(
                        spec, swapped
                    )

    def test_conjugation_symmetry(self):
        for spec in (LinkSpec.torus(2, 3, 1), LinkSpec.torus(1, 1, 2)):
            for total in range(4):
                for pr in pairs_of_total(total):
                    labels = [pr] * spec.L
                    conj = [pair_conjugate(p) for p in labels]
                    assert (
                        full_invariant_value(spec, labels)
                        == conj_q(full_invariant_value(spec, conj))
                    )

    def test_mirror_convention(self):
        for pr in pairs_of_total(2):
            assert (
                full_invariant_value(LinkSpec.torus(2, 3, 1), [pr]).mirror()
                == full_invariant_value(LinkSpec.torus(2, -3, 1), [pr])
            )

    def test_label_count(self):
        with pytest.raises(LabelCountMismatch):
            torus_full_invariant(LinkSpec.torus(2, 3, 1), [pair([1]), pair([1])])


def orbit(pairs):
    """Every reordering of the labels and of the swapped labels, as one set."""
    return frozenset(permutations(pairs)) | frozenset(permutations(p.swap() for p in pairs))


class TestLabelOrder:
    # the annulus skein is commutative and the involution * (Q_{lam,mu} -> Q_{mu,lam}) is an
    # algebra automorphism that keeps the twist and the plane evaluation, so a surface bracket
    # depends only on the orbit of its labels under permutation and the global swap: _core
    # and framed_numerators key their cores by that orbit
    @pytest.mark.parametrize(
        "m, n, L, max_total",
        [(1, 1, 2, 5), (1, 1, 3, 4), (2, 3, 1, 4), (2, 3, 2, 4), (3, 1, 3, 3), (2, 1, 2, 4)],
        ids=["hopf", "T(1,1,3)", "T(2,3,1)", "T(2,3,2)", "T(3,1,3)", "T(2,1,2)"],
    )
    def test_permuted_labels_give_one_bracket(self, m, n, L, max_total):
        # mixed labels included; the cached route must give every member of an orbit the
        # same value, so a key that swaps only some of the labels fails here
        spec = LinkSpec.torus(m, n, L)
        for combo in combinations_with_replacement(labels_upto(max_total), L):
            if sum(pr.size for pr in combo) > max_total:
                continue
            orders = sorted(orbit(combo))
            first = _surface_bracket.__wrapped__(m, n, L, orders[0])
            for order in orders:
                assert _surface_bracket.__wrapped__(m, n, L, order) == first, order
                assert _core(spec, order) == first, order

    def test_one_bracket_per_orbit(self):
        # T(3,3) at the size vector (2, 1, 1), in every order and under every reversal
        # subset: Zh computes one surface bracket per orbit of its leaves' labels
        spec = LinkSpec.torus_diagram(3, 3)
        calls = [
            (spec.with_reversed(subset), labels)
            for A in partitions_of(2)
            for labels in set(permutations((A, P([1]), P([1]))))
            for k in range(spec.L + 1)
            for subset in combinations(range(spec.L), k)
        ]
        leaves = {
            tuple(pr.swap() if a in rev.reversed_ else pr for a, pr in enumerate(pairs))
            for rev, labels in calls
            for pairs in product(*(power_decoration(mu) for mu in labels))
        }
        orbits = {orbit(pairs) for pairs in leaves}
        assert len(orbits) < len(leaves)
        _surface_bracket.cache_clear()
        for rev, labels in calls:
            z_reform(rev, labels)
        assert _surface_bracket.cache_info().currsize == len(orbits)

    def test_one_lift_per_orbit(self, monkeypatch):
        # every order of the labels [2], [1], [1] of H_A: framed_numerators lifts one core
        # per orbit of the leaves' labels, and pair_weights holds both [lam, mu] and [mu, lam]
        spec = LinkSpec.torus(1, 1, 3, framing=(1, 0, -1))
        vectors = [
            [pair_weights(A) for A in labels]
            for labels in sorted(set(permutations((P([2]), P([1]), P([1])))))
        ]
        leaves = {pairs for decorations in vectors for pairs in product(*decorations)}
        orbits = {orbit(pairs) for pairs in leaves}
        assert len(orbits) < len(leaves)
        lifted = []

        def counting(values, leaf_vectors):
            lifted.append(len(values))
            return combination_basis(values, leaf_vectors)

        monkeypatch.setattr(skein, "combination_basis", counting)
        framed_numerators(spec, vectors)
        assert lifted == [len(orbits)]

    def test_core_key_keeps_a_positive_label(self):
        # the larger of the sorted labels and the sorted swapped labels: the empty partition
        # sorts first, so [lam, ()] is evaluated as itself, not through the unknot labels
        # of its swap
        spec = LinkSpec.torus(2, 3, 1)
        assert _core_key(spec, (pair([2]),)) == (pair([2]),)
        assert _core_key(spec, (pair([], [2]),)) == (pair([2]),)


class TestHopfOracle:
    # Morton-Lukac's decorated Hopf link, a route that forms no annulus product;
    # total size 6 covers every bracket of Hopf lmov up to D = 6, and a sample
    # reaches D = 8
    def test_surface_bracket(self):
        for A in labels_upto(6):
            for B in labels_upto(6 - A.size):
                assert _surface_bracket(1, 1, 2, (A, B)) == hopf_bracket(A, B), (A, B)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_surface_bracket_sizes_seven_and_eight(self, data):
        total = data.draw(st.sampled_from((7, 8)))
        A = data.draw(st.sampled_from(labels_upto(total)))
        B = data.draw(st.sampled_from(pairs_of_total(total - A.size)))
        assert _surface_bracket(1, 1, 2, (A, B)) == hopf_bracket(A, B)

    def test_reversed_components_swap_labels(self):
        plain = LinkSpec.torus(1, 1, 2)
        for A in labels_upto(4):
            for B in labels_upto(4 - A.size):
                decorations = [{A: 1}, {B: 1}]
                assert torus_framed(plain.with_reversed({1}), decorations) == hopf_bracket(
                    A, B.swap()
                ), (A, B)
                assert torus_framed(plain.with_reversed({0}), decorations) == hopf_bracket(
                    A.swap(), B
                ), (A, B)

    def test_kinks(self):
        spec = LinkSpec.torus(1, 1, 2, framing=(2, -1))
        for A in labels_upto(4):
            for B in labels_upto(4 - A.size):
                (a_q, a_t), (b_q, b_t) = _framing_exponents(A, 2), _framing_exponents(B, -1)
                kinks = mono(a_q + b_q, a_t + b_t)
                assert torus_framed(spec, [{A: 1}, {B: 1}]) == kinks * hopf_bracket(A, B), (A, B)
