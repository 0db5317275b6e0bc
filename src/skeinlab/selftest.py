"""Structural property suites, runnable from the CLI as ``skeinlab selftest``.

Each suite returns a list of (check name, ok, detail) triples; every check is
an exact algebraic identity, never a numerical tolerance.  The pytest suite
drives the same functions, so the command-line selftest and CI agree by
construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product as iproduct

from .chars import character, lr_coeff, lr_via_chars
from .composite import framed_composite, integrality_2z, r_reform, z_reform, zsquare_member
from .exactring import (
    LaurentQT,
    RationalQT,
    exact_div,
    q_bracket,
    q_brace,
    q_one_leading,
    zsquare_decompose,
    zsquare_recompose,
)
from .fixtures import TORUS_KNOT_FAMILY
from .lmov import (
    congruence_check,
    congruent_skein_case,
    log_partition_series,
    plethystic_h,
    t_transform,
    hat_h,
    lmov_check,
)
from .partitions import (
    Partition,
    PartitionPair,
    pairs_of_total,
    partitions_of,
    partitions_upto,
    splittings,
)
from .skein import (
    LinkSpec,
    evaluate,
    full_invariant_value,
    unknot_full,
)
from .symfun import (
    COMPOSITE,
    POWER_PAIR,
    SCHUR_PAIR,
    SymFunc,
    adams_composite,
    composite_product_terms,
    composite_to_schurpair,
    multiply_terms,
    product_structure_constant,
    q_determinant,
    r_nu,
    schurpair_to_composite,
    sum_terms,
)

P = Partition


def _random_laurent(rng, nterms=4, span=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        eq = rng.randint(-span, span)
        et = rng.randint(-span, span)
        terms[(eq, et)] = terms.get((eq, et), 0) + rng.randint(-5, 5)
    return LaurentQT(terms)


def suite_exactring(deep=False):
    rng = random.Random(20240901)
    checks = []
    trials = 60 if deep else 25
    ok = True
    for _ in range(trials):
        a, b, c = (_random_laurent(rng) for _ in range(3))
        if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            ok = False
            break
    checks.append(("ring-axioms", ok, f"{trials} random triples"))
    ok = True
    for _ in range(trials):
        a, b = _random_laurent(rng), _random_laurent(rng)
        if not b:
            continue
        if exact_div(a * b, b) != a:
            ok = False
            break
    checks.append(("exact-div-roundtrip", ok, f"{trials} random products"))
    ok = exact_div(q_bracket(2), q_bracket(1)) == LaurentQT({(1, 0): 1, (-1, 0): 1})
    ok = ok and exact_div(q_bracket(1), q_bracket(2)) is None
    checks.append(("exact-div-brackets", ok, "factor and non-factor"))
    ok = True
    for _ in range(trials):
        table = {}
        for g in range(rng.randint(1, 3)):
            table[(rng.randint(0, 3), rng.randint(-3, 3))] = rng.randint(-4, 4)
        table = {k: v for k, v in table.items() if v}
        f = zsquare_recompose(table)
        if zsquare_decompose(f) != table:
            ok = False
            break
    checks.append(("zsquare-roundtrip", ok, f"{trials} random tables"))
    ok = True
    for _ in range(8):
        f = RationalQT(_random_laurent(rng), q_bracket(rng.randint(1, 2)))
        g = RationalQT(_random_laurent(rng), q_bracket(rng.randint(1, 3)))
        if not f.num or not g.num:
            continue
        (vf, lf), (vg, lg) = q_one_leading(f), q_one_leading(g)
        if q_one_leading(f * g) != (vf + vg, lf * lg):
            ok = False
            break
    checks.append(("q-one-leading-multiplicative", ok, "leading terms of products agree"))
    return checks


def suite_partitions(deep=False):
    checks = []
    top = 8 if deep else 7
    all_parts = partitions_upto(top)
    ok = all(lam.conjugate().conjugate() == lam for lam in all_parts)
    checks.append(("conjugate-involution", ok, f"sizes <= {top}"))
    ok = all(lam.conjugate().kappa == -lam.kappa for lam in all_parts)
    checks.append(("kappa-antisymmetry", ok, f"sizes <= {top}"))
    ok = all(lam.kappa % 2 == 0 for lam in all_parts)
    checks.append(("kappa-even", ok, f"sizes <= {top}"))
    ok = all(lam.kappa == 2 * sum(lam.contents()) for lam in all_parts)
    checks.append(("kappa-contents", ok, "two formulas agree"))
    ok = True
    for nu in partitions_upto(6):
        total = Fraction(0)
        for B, C in splittings(nu):
            total += Fraction(nu.z, B.z * C.z)
        if total != 2 ** len(nu):
            ok = False
        # brute-force occurrence assignment: each part occurrence goes left or right
        seen = {}
        for mask in range(2 ** len(nu)):
            left = P(p for i, p in enumerate(nu) if mask >> i & 1)
            right = P(p for i, p in enumerate(nu) if not mask >> i & 1)
            seen[(left, right)] = seen.get((left, right), 0) + 1
        for B, C in splittings(nu):
            if seen.get((B, C), 0) != Fraction(nu.z, B.z * C.z):
                ok = False
    checks.append(("splitting-z-identity", ok, "weights count occurrence merges"))
    return checks


def suite_chars(deep=False):
    checks = []
    top = 6
    ok = True
    for n in range(1, top + 1):
        classes = partitions_of(n)
        for mu in classes:
            for nu in classes:
                total = Fraction(0)
                for lam in classes:
                    total += Fraction(character(lam, mu) * character(lam, nu), mu.z)
                if total != (1 if mu == nu else 0):
                    ok = False
    checks.append(("orthogonality", ok, f"degrees <= {top}"))
    ok = True
    for n in range(0, top + 1):
        for nu in partitions_of(n):
            for k in range(n + 1):
                for lam in partitions_of(k):
                    for mu in partitions_of(n - k):
                        if lr_coeff(nu, lam, mu) != lr_via_chars(nu, lam, mu):
                            ok = False
    checks.append(("lr-tableaux-vs-characters", ok, f"|nu| <= {top}"))
    ok = True
    for n in range(1, top + 1):
        for lam in partitions_of(n):
            lt = lam.conjugate()
            for mu in partitions_of(n):
                sign = -1 if (n - len(mu)) % 2 else 1
                if character(lt, mu) != sign * character(lam, mu):
                    ok = False
    checks.append(("conjugate-character-sign", ok, f"degrees <= {top}"))
    ok = all(character(lam, (1,) * lam.size) > 0 for lam in partitions_upto(top) if lam)
    checks.append(("dimensions-positive", ok, f"degrees <= {top}"))
    return checks


def suite_symfun(deep=False):
    checks = []
    pair_bound = 3
    pairs = [p for n in range(pair_bound + 1) for p in pairs_of_total(n)]
    ok = True
    for pr in pairs:
        back = composite_to_schurpair(pr.pos, pr.neg).to_basis(COMPOSITE)
        if back != SymFunc.composite(pr.pos, pr.neg):
            ok = False
        back = schurpair_to_composite(pr.pos, pr.neg).to_basis(SCHUR_PAIR)
        if back != SymFunc.schur_pair(pr.pos, pr.neg):
            ok = False
        elem = SymFunc.composite(pr.pos, pr.neg)
        if elem.to_basis(POWER_PAIR).to_basis(COMPOSITE) != elem:
            ok = False
    checks.append(("basis-round-trips", ok, f"pairs of total size <= {pair_bound}"))
    ok = True
    for p1 in pairs:
        for p2 in pairs:
            table = composite_product_terms(p1, p2)
            if any(c <= 0 for c in table.values()):
                ok = False
    checks.append(("product-nonnegative", ok, "composite structure constants"))
    ok = True
    small = [p for n in range(3) for p in pairs_of_total(n)]
    for p1 in small:
        for p2 in small:
            table = composite_product_terms(p1, p2)
            targets = set(table) | {
                PartitionPair(a, b)
                for na in range(p1.size + p2.size + 1)
                for a in partitions_of(na)
                for b in partitions_of(p1.size + p2.size - na)
            }
            for target in targets:
                if table.get(target, 0) != product_structure_constant(p1, p2, target):
                    ok = False
    checks.append(("product-vs-quadruple-sum", ok, "factors of total size <= 2"))
    ok = True
    bound = 3
    for lam in partitions_upto(bound):
        for mu in partitions_upto(bound):
            if q_determinant(lam, mu) != SymFunc.composite(lam, mu):
                ok = False
    checks.append(("determinant-basis", ok, f"|lam|, |mu| <= {bound}"))
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
    ok = True
    for n in range(5):
        for nu in partitions_of(n):
            r_nu(nu, check=True)  # raises on route disagreement
    checks.append(("rnu-dual-route", ok, "|nu| <= 4"))
    return checks


def suite_skein(deep=False):
    checks = []
    ok = True
    for n in range(5):
        for pr in pairs_of_total(n):
            direct = unknot_full(pr.pos, pr.neg)
            via_eval = evaluate(SymFunc.composite(pr.pos, pr.neg))
            if direct != via_eval:
                ok = False
    checks.append(("unknot-evaluation-consistency", ok, "pairs of total size <= 4"))
    specs = [LinkSpec.torus(2, 3, 1), LinkSpec.torus(1, 1, 2)]
    ok = True
    for spec in specs:
        for total in range(4):
            for pr in pairs_of_total(total):
                labels = [pr] * spec.L
                swapped = [p.swap() for p in labels]
                if full_invariant_value(spec, labels) != full_invariant_value(spec, swapped):
                    ok = False
    checks.append(("pair-swap-symmetry", ok, "T(2,3) and T(2,2), sizes <= 3"))
    ok = True
    for spec in specs:
        for total in range(4):
            for pr in pairs_of_total(total):
                labels = [pr] * spec.L
                conj = [p.conjugate() for p in labels]
                lhs = full_invariant_value(spec, labels)
                rhs = full_invariant_value(spec, conj).conj_q()
                if lhs != rhs:
                    ok = False
    checks.append(("conjugation-symmetry", ok, "q -> -1/q against transposed labels"))
    ok = True
    for pr in pairs_of_total(2):
        mirror_val = full_invariant_value(LinkSpec.torus(2, 3, 1), [pr]).mirror()
        direct = full_invariant_value(LinkSpec.torus(2, -3, 1), [pr])
        if mirror_val != direct:
            ok = False
    checks.append(("mirror-symmetry", ok, "T(2,3) vs T(2,-3)"))
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


def suite_composite(deep=False):
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


def corollary_congruence(spec, p):
    """Zh_p(L) = (-1)^((p-1) wbar) Zh_1(L; q^p, t^p) mod {p}^2, as a verdict."""
    L = spec.L
    a = z_reform(spec, [P([p])] * L)
    b = z_reform(spec, [P([1])] * L).substitute_power(p)
    wbar = sum(spec.writhes)
    if (p - 1) % 2 and wbar % 2:
        b = -b
    verdict, stage, _ = congruence_check(a, b, q_brace(p) * q_brace(p))
    return verdict


def suite_lmov(deep=False):
    checks = []
    # degree-1 transformed coefficient of a zero-framed knot
    spec = LinkSpec.unknot(0)
    table = plethystic_h(spec, 1)
    got = hat_h(spec, [P([1])], table=table)
    expected = framed_composite(spec, [P([1])]) * t_transform(P([1]), P([1]))
    ok = got == expected
    verdict, _, _ = lmov_check(spec, [P([1])], table=table)
    checks.append(("degree-one-hat", ok and verdict, "matches H_(1) T_(1)(1)"))
    # triangular consistency of the free-energy extraction
    ok = True
    for spec in [LinkSpec.unknot(1), LinkSpec.torus(1, 1, 2, framing=(-1, -1))]:
        D = 3
        table = plethystic_h(spec, D)
        rebuilt = table.reassembled_log()
        direct = log_partition_series(spec, D)
        keys = set(rebuilt) | set(direct)
        for key in keys:
            a = rebuilt.get(key, RationalQT(0))
            b = direct.get(key, RationalQT(0))
            if a != b:
                ok = False
    checks.append(("free-energy-triangular", ok, "log rebuilt from the table"))
    # h-adic valuation bound for decorated brackets: every invariant of a
    # satellite with s strands has a pole of order at most s at q = 1
    ok = True
    for k in (1,):
        spec = LinkSpec.torus(2, 2 * k + 1, 1)
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
    ok = True
    for k in range(4):
        verdict, stage, _ = congruent_skein_case(2, k)
        if not verdict:
            ok = False
    checks.append(("congruent-skein-p2", ok, "k in 0..3"))
    return checks


SUITES = {
    "exactring": suite_exactring,
    "partitions": suite_partitions,
    "chars": suite_chars,
    "symfun": suite_symfun,
    "skein": suite_skein,
    "composite": suite_composite,
    "lmov": suite_lmov,
}


def run(names=None, deep=False):
    """Run the requested suites (all by default); returns {suite: [(name, ok, detail)]}."""
    names = list(SUITES) if not names else list(names)
    out = {}
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        out[name] = SUITES[name](deep=deep)
    return out
