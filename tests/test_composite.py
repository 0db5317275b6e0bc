"""Composite invariants, reformulated invariants, integrality verdicts."""

import sys
import threading
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab import composite
from skeinlab.composite import (
    composite_invariant,
    framed_composite,
    integrality_2z,
    power_decoration,
    r_reform,
    z_reform,
    zsquare_member,
)
from skeinlab.exactring import LaurentQT, RationalQT, q_bracket, t_bracket, t_power
from skeinlab.partitions import EMPTY, Partition, PartitionPair, partitions_of
from skeinlab.skein import LabelCountMismatch, LinkSpec, full_invariant_value, torus_framed
from skeinlab.symfun import pair_weights

from oracles import from_power_pairs, r_nu, z_reform_by_leaves

P = Partition


def pair(a, b=()):
    return PartitionPair(P(a), P(b))


UNKNOT_SCALAR = RationalQT(t_bracket(1), q_bracket(1))

# (m, n, L) of blackboard-framed torus links: knots with m = 2, 3 and either
# chirality, and the two-component T(2, 2) and T(2, 4)
BLACKBOARD_TORUS = [(m, n, 1) for m in (2, 3) for n in range(-5, 6) if gcd(m, n) == 1]
BLACKBOARD_TORUS += [(1, 1, 2), (1, 2, 2)]


class TestComposite:
    def test_unknot_single_box(self):
        got = composite_invariant(LinkSpec.unknot(0), [P([1])])
        assert got == UNKNOT_SCALAR * 2

    def test_empty_label(self):
        assert composite_invariant(LinkSpec.unknot(0), [EMPTY]) == RationalQT(1)
        assert composite_invariant(LinkSpec.torus(2, 3, 1), [EMPTY]) == RationalQT(1)

    def test_trefoil_single_box(self):
        spec = LinkSpec.torus(2, 3, 1)
        got = composite_invariant(spec, [P([1])])
        w = full_invariant_value(spec, [pair([1])])
        assert got == w * 2

    @pytest.mark.parametrize(
        "spec, labels",
        [
            (LinkSpec.torus(2, 3, 1, framing=4), [P([2, 1])]),
            (LinkSpec.torus(1, 1, 2, reversed_={1}), [P([2]), P([1, 1])]),
            (LinkSpec.torus(1, 2, 2, framing=(1, -3), reversed_={0}), [P([1]), P([2])]),
            (LinkSpec.unknot(-1), [P([2, 1])]),
        ],
        ids=["trefoil", "hopf-reversed", "t24-reversed", "kinked-unknot"],
    )
    def test_is_lr_weighted_sum_of_full_invariants(self, spec, labels):
        # H_A = sum over (lam^a, mu^a) of prod_a c^{A^a}_{lam^a,mu^a} W_{[lam,mu]}
        tables = [pair_weights(A).items() for A in labels]
        expected = RationalQT(0)
        for combo in product(*tables):
            weight = 1
            for _, c in combo:
                weight *= c
            expected = expected + full_invariant_value(spec, [pr for pr, _ in combo]) * weight
        assert composite_invariant(spec, labels) == expected

    def test_label_count(self):
        with pytest.raises(LabelCountMismatch):
            composite_invariant(LinkSpec.torus(1, 1, 2), [P([1])])

    def test_non_integer_label_rejected(self):
        with pytest.raises(TypeError):
            composite_invariant(LinkSpec.torus(2, 3, 1), [[1.5]])


class TestFramedComposite:
    def test_unknot_framings(self):
        assert framed_composite(LinkSpec.unknot(0), [P([1])]) == UNKNOT_SCALAR * 2
        got = framed_composite(LinkSpec.unknot(1), [P([1])])
        assert got == RationalQT(t_power(1)) * UNKNOT_SCALAR * 2

    def test_hopf_expands_to_four_brackets(self):
        spec = LinkSpec.torus(1, 1, 2, framing=(-1, -1))
        got = framed_composite(spec, [P([1]), P([1])])
        total = RationalQT(0)
        for p1 in (pair([1]), pair((), [1])):
            for p2 in (pair([1]), pair((), [1])):
                total = total + torus_framed(spec, [{p1: 1}, {p2: 1}])
        assert got == total


class TestZReform:
    def test_power_decoration_is_frobenius(self):
        dec = power_decoration(P([2]))
        assert dec == {pair([2]): 1, pair([1, 1]): -1}

    def test_unknot_row_two(self):
        got = z_reform(LinkSpec.unknot(0), [P([2])])
        assert got == RationalQT(t_bracket(2))

    def test_matches_power_sum_decoration(self):
        # the decorated bracket equals the evaluation of the power-sum element
        spec = LinkSpec.unknot(0)
        for mu in (P([1]), P([2]), P([2, 1])):
            got = z_reform(spec, [mu])
            expected = RationalQT(prod((q_bracket(p) for p in mu), start=LaurentQT.one()))
            for p in mu:
                expected = expected * RationalQT(t_bracket(p), q_bracket(p))
            assert got == expected

    def test_integrality_on_examples(self):
        for spec in (
            LinkSpec.unknot(-2),
            LinkSpec.unknot(2),
            LinkSpec.torus_diagram(2, 2),
            LinkSpec.torus_diagram(2, 3),
        ):
            for mu in (P([1]), P([2]), P([1, 1]), P([3]), P([2, 1])):
                verdict, stage, table = zsquare_member(z_reform(spec, [mu] * spec.L))
                assert verdict, (spec.describe(), mu, stage)
                assert table is not None


# the spec families of the z_reform property test: each family's specs share their
# surface brackets and differ in framing or in reversed components, so a basis kept
# for one of them is wrong for the others
Z_FAMILIES = [[LinkSpec.unknot(f) for f in range(-2, 3)]]
Z_FAMILIES += [
    [LinkSpec.torus_diagram(2, k, reversed_=subset) for subset in ((), (0,), (1,), (0, 1))[: 2 ** gcd(2, k)]]
    for k in range(1, 6)
]
Z_FAMILIES += [[LinkSpec.torus(1, 1, 3, reversed_=subset) for subset in ((), (0,), (1, 2), (0, 1, 2))]]
Z_FAMILIES += [[LinkSpec.torus(1, 1, 3, framing=(0, 1, 0), reversed_=subset) for subset in ((), (2,))]]
Z_FAMILIES += [[LinkSpec.torus(1, 2, 2, framing=(1, -3), reversed_=subset) for subset in ((), (0,))]]
LABELS_OF_SIZE = {n: partitions_of(n) for n in (1, 2, 3)}


@st.composite
def z_reform_calls(draw):
    """A shuffled list of (spec, labels) calls in one or two blocks.

    Each block draws one family and one label-size vector (total size at most 5
    on three components), then several calls of that family and those sizes, so
    that a kept basis is met by subset, equal and superset supports (only [2, 1]
    has a character 0), by other framings and by other reversed components.
    Half of the size vectors are constant, so that permuted label tuples meet
    on equally and on unequally framed components.
    """
    calls = []
    for _ in range(draw(st.integers(1, 2))):
        family = draw(st.sampled_from(Z_FAMILIES))
        L = family[0].L
        if draw(st.booleans()):
            sizes = [draw(st.integers(1, 3 if L < 3 else 1))] * L
        else:
            sizes = st.lists(st.integers(1, 3), min_size=L, max_size=L)
            sizes = draw(sizes.filter(lambda s: L < 3 or sum(s) <= 5))
        for _ in range(draw(st.integers(1, 4))):
            spec = draw(st.sampled_from(family))
            calls.append((spec, [draw(st.sampled_from(LABELS_OF_SIZE[s])) for s in sizes]))
    return draw(st.permutations(calls))


class TestZReformRoute:
    @given(z_reform_calls())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_bracket_of_the_power_sums(self, calls):
        composite._kept = None
        for spec, labels in calls:
            assert z_reform(spec, labels) == z_reform_by_leaves(spec, labels), (spec.describe(), labels)

    def test_kept_basis_is_reused_rebuilt_and_replaced(self, monkeypatch):
        builds = []
        original = composite.framed_numerators

        def counting(spec, vectors):
            builds.append((spec, len(vectors)))
            return original(spec, vectors)

        monkeypatch.setattr(composite, "framed_numerators", counting)
        monkeypatch.setattr(composite, "_kept", None)
        trefoil = LinkSpec.torus_diagram(2, 3)
        # the column label has every character nonzero; [2, 1] has chi_[2,1] = 0 and [3] none
        for mu in ([1, 1, 1], [2, 1], [3], [1, 1, 1]):
            z_reform(trefoil, [P(mu)])
        assert builds == [(trefoil, 3)]
        # a superset support rebuilds, and the subset after it reuses the rebuilt basis
        z_reform(trefoil.with_framing(0), [P([2, 1])])
        z_reform(trefoil.with_framing(0), [P([3])])
        z_reform(trefoil.with_framing(0), [P([2, 1])])
        assert builds[1:] == [(trefoil.with_framing(0), 2), (trefoil.with_framing(0), 3)]
        # a new key rebuilds: another spec, or other label sizes
        hopf = LinkSpec.torus_diagram(2, 2)
        for spec, labels in (
            (hopf, [P([2]), P([1])]),
            (hopf.with_reversed({1}), [P([2]), P([1])]),
            (hopf.with_reversed({1}), [P([1]), P([2])]),
            (LinkSpec.unknot(1), [P([2])]),
        ):
            z_reform(spec, labels)
        reversed_hopf = hopf.with_reversed({1})
        assert [spec for spec, _ in builds[3:]] == [hopf, reversed_hopf, reversed_hopf, LinkSpec.unknot(1)]
        # one entry is kept: the last call's spec and sizes, with one vector per label tuple
        key, index, basis = composite._kept
        assert key == (LinkSpec.unknot(1), (2,))
        assert sorted(index.values()) == list(range(len(basis[2]))) == [0, 1]
        # label tuples that permute one another over equally framed components share one vector
        z_reform(hopf, [P([1, 1]), P([1, 1])])
        _, index, basis = composite._kept
        assert builds[-1] == (hopf, 3) and len(index) == 4
        assert index[(pair([2]), pair([1, 1]))] == index[(pair([1, 1]), pair([2]))]

    def test_concurrent_callers_only_rebuild(self):
        # four threads alternate keys and supports on the one kept entry; each must get its own value
        hopf = LinkSpec.torus_diagram(2, 2)
        cases = [
            (hopf, [P([2, 1]), P([1])]),
            (hopf, [P([1, 1, 1]), P([1])]),
            (hopf.with_reversed({1}), [P([2, 1]), P([1])]),
            (LinkSpec.unknot(1), [P([2])]),
            (LinkSpec.unknot(-1), [P([1, 1])]),
        ]
        expected = [z_reform_by_leaves(spec, labels) for spec, labels in cases]
        wrong, finished, start = [], [], threading.Barrier(4)

        def caller(k):
            start.wait(timeout=60)
            for i in range(1000):
                j = (i * (k + 1) + k) % len(cases)
                if z_reform(*cases[j]) != expected[j]:
                    wrong.append(j)
            finished.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == [0, 1, 2, 3] and not wrong


class TestRReform:
    def test_knot_doubles(self):
        for spec in (LinkSpec.unknot(1), LinkSpec.torus_diagram(2, 3)):
            for p in (1, 2):
                assert r_reform(spec, p) == z_reform(spec, [P([p])]) * 2

    def test_unknot_fundamental(self):
        assert r_reform(LinkSpec.unknot(0), 1) == RationalQT(t_bracket(1)) * 2

    def test_two_component_expansion(self):
        spec = LinkSpec.torus_diagram(2, 2)
        for p in (1, 2):
            labels = [P([p]), P([p])]
            plain = z_reform(spec, labels)
            one_reversed = z_reform(spec.with_reversed({1}), labels)
            assert r_reform(spec, p) == (plain + one_reversed) * 2

    def test_reversal_complement_symmetry(self):
        spec = LinkSpec.torus_diagram(2, 4)
        labels = [P([2]), P([2])]
        assert z_reform(spec.with_reversed({0}), labels) == z_reform(
            spec.with_reversed({1}), labels
        )
        assert z_reform(spec, labels) == z_reform(spec.with_reversed({0, 1}), labels)

    def test_matches_orientation_averaged_skein_element(self):
        # decorating every component with the orientation-symmetrised element
        # reproduces the subset sum
        for spec, p in ((LinkSpec.unknot(1), 2), (LinkSpec.torus_diagram(2, 2), 2)):
            decorations = [from_power_pairs(r_nu(P([p])))] * spec.L
            bracket = torus_framed(spec, decorations)
            assert r_reform(spec, p) == RationalQT(q_bracket(p) ** spec.L) * bracket

    def test_rejects_reversed_base(self):
        with pytest.raises(ValueError):
            r_reform(LinkSpec.torus_diagram(2, 2).with_reversed({0}), 2)


class TestIntegrality2Z:
    def test_even_z_square(self):
        f = LaurentQT({(2, 1): 2, (0, 1): -4, (-2, 1): 2})  # 2 z^2 t
        verdict, stage, table = integrality_2z(f)
        assert verdict and table == {(1, 1): 1}

    def test_odd_powers_fail(self):
        verdict, stage, _ = integrality_2z(LaurentQT({(1, 0): 1, (-1, 0): 1}))
        assert not verdict and stage == "not-even"
        verdict, stage, _ = integrality_2z(LaurentQT({(1, 0): 2, (-1, 0): 2}))
        assert not verdict and stage == "not-zsquare"

    def test_odd_integers_fail(self):
        verdict, stage, _ = integrality_2z(LaurentQT.from_int(3))
        assert not verdict and stage == "not-even"

    def test_rh2_hopf(self):
        verdict, stage, _ = integrality_2z(r_reform(LinkSpec.torus_diagram(2, 2), 2))
        assert verdict, stage

    @given(st.sampled_from(BLACKBOARD_TORUS), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_rhat_in_2z_on_torus_links(self, mnl, p):
        # the paper's theorem: Rh_p lies in 2 ZZ[z^2, t^+-1]
        m, n, L = mnl
        spec = LinkSpec.torus(m, n, L, framing=(-n,) * L)
        verdict, stage, _ = integrality_2z(r_reform(spec, p))
        assert verdict, (spec.describe(), p, stage)

    def test_non_laurent(self):
        verdict, stage, _ = integrality_2z(RationalQT(LaurentQT.one(), q_bracket(1)))
        assert not verdict and stage == "not-laurent"

    def test_ints_coerce_and_other_types_raise(self):
        assert zsquare_member(3) == (True, None, {(0, 0): 3})
        assert zsquare_member(0) == (True, None, {})
        assert integrality_2z(-4) == (True, None, {(0, 0): -2})
        assert integrality_2z(3) == (False, "not-even", None)
        for verdict in (zsquare_member, integrality_2z):
            for x in ("q", None, 1.5):
                with pytest.raises(TypeError):
                    verdict(x)
