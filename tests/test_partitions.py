"""Partition values, statistics, enumeration, splitting combinatorics."""

from fractions import Fraction

import pytest

from skeinlab.partitions import EMPTY, Partition, PartitionPair, pairs_of_total, partitions_of

from oracles import pair_conjugate, splitting_weight, splittings

P = Partition


def partitions_upto(n):
    return [lam for k in range(n + 1) for lam in partitions_of(k)]


class TestPartition:
    def test_normalisation(self):
        assert P([2, 4, 2]) == P([4, 2, 2])
        assert P([3, 0, 1]) == P([3, 1])
        assert P() == EMPTY

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            P([2, -1])

    @pytest.mark.parametrize("parts", [[1.5], [True], [2, False], ["1"], [2.0]])
    def test_non_integer_part_rejected(self, parts):
        with pytest.raises(TypeError):
            P(parts)

    def test_conjugate(self):
        assert P([4, 2, 2]).conjugate() == P([3, 3, 1, 1])
        assert EMPTY.conjugate() == EMPTY
        assert P([1] * 5).conjugate() == P([5])
        for lam in partitions_upto(8):
            assert lam.conjugate().conjugate() == lam

    def test_statistics(self):
        assert (P([2, 1]).z, P([2, 1]).kappa) == (2, 0)
        assert P([2, 1]).contents() == [-1, 0, 1]
        assert (P([2]).z, P([2]).kappa) == (2, 2)
        assert sorted(P([2]).contents()) == [0, 1]
        assert (P([1, 1]).z, P([1, 1]).kappa) == (2, -2)
        assert sorted(P([1, 1]).contents()) == [-1, 0]

    def test_z_value(self):
        assert P([3, 3, 2, 1, 1, 1]).z == (3**2 * 2) * (2**1 * 1) * (1**3 * 6)

    def test_kappa_identities(self):
        for lam in partitions_upto(8):
            assert lam.kappa % 2 == 0
            assert lam.kappa == -lam.conjugate().kappa
            assert lam.kappa == 2 * sum(lam.contents())

    def test_text_round_trip(self):
        lam = P([4, 2, 2])
        assert lam.text() == "[4,2,2]"
        assert EMPTY.text() == "[]"

    def test_union_and_scaling(self):
        assert P([3, 1]).union(P([2, 1])) == P([3, 2, 1, 1])
        assert P([2, 1]).scaled(3) == P([6, 3])

    def test_containment(self):
        assert P([3, 2]).contains(P([2, 2]))
        assert not P([3, 2]).contains(P([1, 1, 1]))


class TestPair:
    def test_swap_and_conjugate(self):
        pr = PartitionPair(P([2, 1]), P([3]))
        assert pr.swap() == PartitionPair(P([3]), P([2, 1]))
        assert pair_conjugate(pr) == PartitionPair(P([2, 1]), P([1, 1, 1]))
        assert pr.size == 6
        assert pr.kappa == P([2, 1]).kappa + P([3]).kappa

    def test_text_round_trip(self):
        pr = PartitionPair(P([4, 2, 2]), P([3, 2]))
        assert pr.text() == "[[4,2,2],[3,2]]"

    def test_pairs_of_total(self):
        assert len(pairs_of_total(0)) == 1
        assert len(pairs_of_total(2)) == 5  # (2|-), (11|-), (1|1), (-|2), (-|11)


class TestEnumeration:
    def test_counts(self):
        assert partitions_of(0) == (EMPTY,)
        assert len(partitions_of(4)) == 5
        assert len(partitions_of(6)) == 11
        assert len(partitions_of(9)) == 30

    def test_reverse_lex_order(self):
        got = partitions_of(4)
        assert got == (P([4]), P([3, 1]), P([2, 2]), P([2, 1, 1]), P([1, 1, 1, 1]))


class TestSplittings:
    def test_unconstrained(self):
        got = set(splittings(P([1, 1])))
        assert got == {(P([1, 1]), EMPTY), (P([1]), P([1])), (EMPTY, P([1, 1]))}

    def test_each_part_left_or_right(self):
        assert len(splittings(P([2, 1]))) == 4

    def test_weights_sum_to_power_of_two(self):
        for n in range(7):
            for nu in partitions_of(n):
                total = Fraction(0)
                for B, C in splittings(nu):
                    w = splitting_weight(nu, B, C)
                    assert w == Fraction(nu.z, B.z * C.z)
                    total += w
                assert total == 2 ** len(nu)

    def test_weight_counts_merged_assignments(self):
        # each part occurrence goes left or right
        for nu in partitions_upto(6):
            counts = {}
            for mask in range(2 ** len(nu)):
                left = P(p for i, p in enumerate(nu) if mask >> i & 1)
                right = P(p for i, p in enumerate(nu) if not mask >> i & 1)
                counts[(left, right)] = counts.get((left, right), 0) + 1
            assert set(counts) == set(splittings(nu))
            for (B, C), count in counts.items():
                assert count == splitting_weight(nu, B, C) == Fraction(nu.z, B.z * C.z)
