"""Structural property suites, runnable from the CLI as ``skeinlab selftest``.

Each suite returns a list of (check name, ok, detail) triples; every check is
an exact algebraic identity, never a numerical tolerance.  The pytest suite
drives the same functions, so the command-line selftest and CI agree by
construction.  Identities that the tests already check at equal or larger
size are left to the tests.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct

from .composite import integrality_2z, r_reform, z_reform, zsquare_member
from .exactring import q_one_leading
from .fixtures import TORUS_KNOT_FAMILY
from .partitions import Partition, PartitionPair, pairs_of_total, partitions_of
from .skein import LinkSpec, full_invariant_value
from .symfun import adams_composite, composite_product_terms, multiply_terms, sum_terms

P = Partition


def suite_symfun():
    checks = []
    ok = True
    deg2 = [p for n in range(3) for p in pairs_of_total(n)]
    for m in (2, 3):
        for p1 in deg2:
            for p2 in deg2:
                lhs = sum_terms(
                    (out, c * k)
                    for target, c in composite_product_terms(p1, p2).items()
                    for out, k in adams_composite(target, m).items()
                )
                a1, a2 = adams_composite(p1, m), adams_composite(p2, m)
                rhs = multiply_terms(a1, a2, composite_product_terms)
                if lhs != rhs:
                    ok = False
    checks.append(("adams-multiplicative", ok, "degree <= 2 factors, m <= 3"))
    return checks


ACCEPTANCE_SPECS = [
    ("U(-2)", LinkSpec.unknot(-2)),
    ("U(-1)", LinkSpec.unknot(-1)),
    ("U(0)", LinkSpec.unknot(0)),
    ("U(1)", LinkSpec.unknot(1)),
    ("U(2)", LinkSpec.unknot(2)),
    ("T(2,2)", LinkSpec.torus_diagram(2, 2)),
    ("T(2,3)", LinkSpec.torus_diagram(2, 3)),
    ("T(2,4)", LinkSpec.torus_diagram(2, 4)),
    ("T(3,3)", LinkSpec.torus_diagram(3, 3)),
]


def suite_composite():
    checks = []
    mus = [p for n in range(1, 4) for p in partitions_of(n)]
    ok = True
    bad = []
    for name, spec in ACCEPTANCE_SPECS:
        for combo in iproduct(mus, repeat=spec.L):
            verdict, stage, _ = zsquare_member(z_reform(spec, list(combo)))
            if not verdict:
                ok = False
                bad.append((name, combo, stage))
    checks.append(("zh-integrality", ok, f"all labels of size <= 3; failures: {bad[:3]}"))
    ok = True
    bad = []
    for name, spec in ACCEPTANCE_SPECS:
        for p in (2, 3):
            verdict, stage, _ = integrality_2z(r_reform(spec, p))
            if not verdict:
                ok = False
                bad.append((name, p, stage))
    checks.append(("rh-2z-integrality", ok, f"p in 2,3; failures: {bad}"))
    ok = True
    for spec in [LinkSpec.torus_diagram(2, 2), LinkSpec.torus_diagram(2, 4)]:
        for p in (2, 3):
            labels = [P([p])] * spec.L
            for k in range(spec.L + 1):
                for subset in combinations(range(spec.L), k):
                    comp = tuple(sorted(set(range(spec.L)) - set(subset)))
                    a = z_reform(spec.with_reversed(subset), labels)
                    b = z_reform(spec.with_reversed(comp), labels)
                    if a != b:
                        ok = False
    checks.append(("reversal-complement-symmetry", ok, "all subsets, L = 2"))
    return checks


def suite_lmov():
    checks = []
    # h-adic valuation bound for decorated brackets: every invariant of a
    # satellite with s strands has a pole of order at most s at q = 1
    ok = True
    spec = LinkSpec.torus(2, 3, 1)
    for lam, mu in TORUS_KNOT_FAMILY:
        pr = PartitionPair(P(lam), P(mu))
        val = q_one_leading(full_invariant_value(spec, [pr]))[0]
        if val < -pr.size:
            ok = False
    spec = LinkSpec.torus(1, 1, 2)
    for pr1, pr2 in [
        (PartitionPair(P([2]), P()), PartitionPair(P(), P([2]))),
        (PartitionPair(P([2]), P()), PartitionPair(P(), P([1, 1]))),
        (PartitionPair(P([1, 1]), P()), PartitionPair(P(), P([1, 1]))),
    ]:
        val = q_one_leading(full_invariant_value(spec, [pr1, pr2]))[0]
        if val < -(pr1.size + pr2.size):
            ok = False
    checks.append(("bracket-valuation-bound", ok, "decorated satellites"))
    return checks


SUITES = {
    "symfun": suite_symfun,
    "composite": suite_composite,
    "lmov": suite_lmov,
}

