"""Pinned regression fixtures for the torus-link engine.

Each fixture set stores printed reference values in structured form and
rebuilds both sides symbolically, so a check is exact equality in the
coefficient ring.  The sets are addressable from the command line through
``skeinlab repro <name>``:

* ``example-3.1``  -- the determinantal matrix for the label ((4,2,2), (3,2))
  and determinant expansions for small labels;
* ``example-4.3``  -- six full colored invariants of the (2, 2k+1) torus
  knots, checked at k = 1, 2, 3;
* ``example-6.3``  -- twenty transformed free-energy values for the Hopf link
  at five framings;
* ``theorem-7.9``  -- the congruent skein relation instances at p = 2 with
  their intermediate identities.
"""

from __future__ import annotations

from .exactring import LaurentQT, RationalQT, bracket_scaled, q_bracket, q_brace
from .lmov import congruence_check, congruent_skein_case, hat_h, plethystic_h
from .partitions import Partition, PartitionPair
from .composite import z_reform
from .skein import LinkSpec, full_invariant_value, unknot_full
from .symfun import q_matrix, q_determinant

P = Partition


def _pair(a, b=()):
    return PartitionPair(P(a), P(b))


def _mono(eq, et):
    return RationalQT(LaurentQT.monomial(1, eq, et))


def hopf_with_kinks(a, b):
    """The Hopf link whose two components carry a and b kinks (writhes (a, b))."""
    return LinkSpec.torus(1, 1, 2, framing=(a - 1, b - 1))


# -- example-3.1: the determinantal matrix --------------------------------------------

MATRIX_LABEL = (P([4, 2, 2]), P([3, 2]))

MATRIX_EXPECTED = [
    [("h*", 2), ("h*", 1), ("h*", 0), ("h*", -1), ("h*", -2)],
    [("h*", 4), ("h*", 3), ("h*", 2), ("h*", 1), ("h*", 0)],
    [("h", 2), ("h", 3), ("h", 4), ("h", 5), ("h", 6)],
    [("h", -1), ("h", 0), ("h", 1), ("h", 2), ("h", 3)],
    [("h", -2), ("h", -1), ("h", 0), ("h", 1), ("h", 2)],
]


def check_matrix_fixture():
    checks = []
    computed = q_matrix(*MATRIX_LABEL)
    checks.append(("matrix-rows", computed == MATRIX_EXPECTED))
    for lam, mu in [((1,), ()), ((1,), (1,)), ((2, 1), (2,)), ((2, 2), (1, 1))]:
        ok = q_determinant(P(lam), P(mu)) == {PartitionPair(P(lam), P(mu)): 1}
        checks.append((f"determinant-{P(lam).text()}-{P(mu).text()}", ok))
    return checks


# -- example-4.3: full invariants of the odd (2, n) torus knots -----------------------
#
# Term format: (sign, (q-slope, q-offset), (t-slope, t-offset), pos, neg); the
# exponent at parameter k is slope*k + offset.  Every formula carries a global
# monomial prefactor in the same format.

TORUS_KNOT_FAMILY = {
    ((1,), (1,)): (
        ((0, 0), (-8, -4)),
        [
            (1, (0, 0), (0, 0), (), ()),
            (1, (-4, -2), (4, 2), (1, 1), (1, 1)),
            (-1, (0, 0), (4, 2), (1, 1), (2,)),
            (-1, (0, 0), (4, 2), (2,), (1, 1)),
            (1, (4, 2), (4, 2), (2,), (2,)),
        ],
    ),
    ((2,), (1,)): (
        ((-8, -4), (-12, -6)),
        [
            (-1, (-2, -1), (2, 1), (1, 1), ()),
            (1, (2, 1), (2, 1), (2,), ()),
            (-1, (-2, -1), (6, 3), (2, 2), (1, 1)),
            (1, (2, 1), (6, 3), (2, 2), (2,)),
            (1, (2, 1), (6, 3), (3, 1), (1, 1)),
            (-1, (6, 3), (6, 3), (3, 1), (2,)),
            (-1, (10, 5), (6, 3), (4,), (1, 1)),
            (1, (14, 7), (6, 3), (4,), (2,)),
        ],
    ),
    ((1, 1), (1,)): (
        ((8, 4), (-12, -6)),
        [
            (-1, (-2, -1), (2, 1), (1, 1), ()),
            (1, (2, 1), (2, 1), (2,), ()),
            (-1, (-14, -7), (6, 3), (1, 1, 1, 1), (1, 1)),
            (1, (-10, -5), (6, 3), (1, 1, 1, 1), (2,)),
            (1, (-6, -3), (6, 3), (2, 1, 1), (1, 1)),
            (-1, (-2, -1), (6, 3), (2, 1, 1), (2,)),
            (-1, (-2, -1), (6, 3), (2, 2), (1, 1)),
            (1, (2, 1), (6, 3), (2, 2), (2,)),
        ],
    ),
    ((1, 1), (1, 1)): (
        ((16, 8), (-16, -8)),
        [
            (1, (0, 0), (0, 0), (), ()),
            (1, (-4, -2), (4, 2), (1, 1), (1, 1)),
            (-1, (0, 0), (4, 2), (1, 1), (2,)),
            (-1, (0, 0), (4, 2), (2,), (1, 1)),
            (1, (4, 2), (4, 2), (2,), (2,)),
            (1, (-24, -12), (8, 4), (1, 1, 1, 1), (1, 1, 1, 1)),
            (-1, (-16, -8), (8, 4), (1, 1, 1, 1), (2, 1, 1)),
            (1, (-12, -6), (8, 4), (1, 1, 1, 1), (2, 2)),
            (-1, (-16, -8), (8, 4), (2, 1, 1), (1, 1, 1, 1)),
            (1, (-8, -4), (8, 4), (2, 1, 1), (2, 1, 1)),
            (-1, (-4, -2), (8, 4), (2, 1, 1), (2, 2)),
            (1, (-12, -6), (8, 4), (2, 2), (1, 1, 1, 1)),
            (-1, (-4, -2), (8, 4), (2, 2), (2, 1, 1)),
            (1, (0, 0), (8, 4), (2, 2), (2, 2)),
        ],
    ),
    ((1, 1), (2,)): (
        ((0, 0), (-16, -8)),
        [
            (1, (-4, -2), (4, 2), (1, 1), (1, 1)),
            (-1, (0, 0), (4, 2), (1, 1), (2,)),
            (-1, (0, 0), (4, 2), (2,), (1, 1)),
            (1, (4, 2), (4, 2), (2,), (2,)),
            (1, (-12, -6), (8, 4), (1, 1, 1, 1), (2, 2)),
            (-1, (-8, -4), (8, 4), (1, 1, 1, 1), (3, 1)),
            (1, (0, 0), (8, 4), (1, 1, 1, 1), (4,)),
            (-1, (-4, -2), (8, 4), (2, 1, 1), (2, 2)),
            (1, (0, 0), (8, 4), (2, 1, 1), (3, 1)),
            (-1, (8, 4), (8, 4), (2, 1, 1), (4,)),
            (1, (0, 0), (8, 4), (2, 2), (2, 2)),
            (-1, (4, 2), (8, 4), (2, 2), (3, 1)),
            (1, (12, 6), (8, 4), (2, 2), (4,)),
        ],
    ),
    ((2,), (2,)): (
        ((-16, -8), (-16, -8)),
        [
            (1, (0, 0), (0, 0), (), ()),
            (1, (-4, -2), (4, 2), (1, 1), (1, 1)),
            (-1, (0, 0), (4, 2), (1, 1), (2,)),
            (-1, (0, 0), (4, 2), (2,), (1, 1)),
            (1, (4, 2), (4, 2), (2,), (2,)),
            (1, (0, 0), (8, 4), (2, 2), (2, 2)),
            (-1, (4, 2), (8, 4), (2, 2), (3, 1)),
            (1, (12, 6), (8, 4), (2, 2), (4,)),
            (-1, (4, 2), (8, 4), (3, 1), (2, 2)),
            (1, (8, 4), (8, 4), (3, 1), (3, 1)),
            (-1, (16, 8), (8, 4), (3, 1), (4,)),
            (1, (12, 6), (8, 4), (4,), (2, 2)),
            (-1, (16, 8), (8, 4), (4,), (3, 1)),
            (1, (24, 12), (8, 4), (4,), (4,)),
        ],
    ),
}


def _eval_linear(slope_offset, k):
    slope, offset = slope_offset
    return slope * k + offset


def torus_knot_expected(label, k):
    """Build the reference invariant of the (2, 2k+1) torus knot for one label."""
    prefactor, terms = TORUS_KNOT_FAMILY[label]
    (qs, ts) = prefactor
    total = RationalQT.sum(
        _mono(_eval_linear(qlin, k), _eval_linear(tlin, k)) * sign * unknot_full(P(pos), P(neg))
        for sign, qlin, tlin, pos, neg in terms
    )
    return _mono(_eval_linear(qs, k), _eval_linear(ts, k)) * total


def check_torus_knot_family(ks=(1, 2, 3)):
    checks = []
    for k in ks:
        spec = LinkSpec.torus(2, 2 * k + 1, 1)
        for (lam, mu) in TORUS_KNOT_FAMILY:
            got = full_invariant_value(spec, [_pair(lam, mu)])
            ok = got == torus_knot_expected((lam, mu), k)
            checks.append((f"k={k}-{P(lam).text()},{P(mu).text()}", ok))
    return checks


# -- example-6.3: transformed free energies of the framed Hopf link --------------------
#
# Every displayed value is (t**2 - 1) times sum over rows g of
# (row polynomial in t) * z**(2g-2); rows are stored {g: {t-exponent: coeff}}.

HOPF_HAT_TABLE = {
    (0, 0): {
        ((2,), (2,)): {0: {-2: 1, 0: -7, 2: 6}, 1: {2: 2}},
        ((2,), (1, 1)): {0: {-4: -2, -2: 3, 0: -3, 2: 2}},
        ((1, 1), (2,)): {0: {-4: -2, -2: 3, 0: -3, 2: 2}},
        ((1, 1), (1, 1)): {0: {-4: -6, -2: 7, 0: -1}, 1: {-4: -2}},
    },
    (1, -1): {
        ((2,), (2,)): {0: {-2: 7, 0: -11, 2: 4}, 1: {0: -2, 2: 2}},
        ((2,), (1, 1)): {0: {-4: -2, -2: 19, 0: -19, 2: 2}, 1: {-2: 4, 0: -4}},
        ((1, 1), (2,)): {0: {-4: -2, -2: 3, 0: -3, 2: 2}},
        ((1, 1), (1, 1)): {0: {-4: -4, -2: 11, 0: -7}, 1: {-4: -2, -2: 2}},
    },
    (1, 0): {
        ((2,), (2,)): {0: {0: 3, 2: -17, 4: 14}, 1: {2: -4, 4: 10}, 2: {4: 2}},
        ((2,), (1, 1)): {0: {0: 7, 2: -11, 4: 4}, 1: {2: -2, 4: 2}},
        ((1, 1), (2,)): {0: {0: 1, 2: -7, 4: 6}, 1: {4: 2}},
        ((1, 1), (1, 1)): {0: {-2: -2, 0: 3, 2: -3, 4: 2}},
    },
    (-1, 0): {
        ((2,), (2,)): {0: {-6: -2, -4: 3, -2: -3, 0: 2}},
        ((2,), (1, 1)): {0: {-6: -6, -4: 7, -2: -1}, 1: {-6: -2}},
        ((1, 1), (2,)): {0: {-6: -4, -4: 11, -2: -7}, 1: {-6: -2, -4: 2}},
        ((1, 1), (1, 1)): {0: {-6: -14, -4: 17, -2: -3}, 1: {-6: -10, -4: 4}, 2: {-6: -2}},
    },
    (1, 1): {
        ((2,), (2,)): {0: {2: 9, 4: -39, 6: 30}, 1: {4: -16, 6: 34}, 2: {4: -2, 6: 14}, 3: {6: 2}},
        ((2,), (1, 1)): {0: {2: 3, 4: -17, 6: 14}, 1: {4: -4, 6: 10}, 2: {6: 2}},
        ((1, 1), (2,)): {0: {2: 3, 4: -17, 6: 14}, 1: {4: -4, 6: 10}, 2: {6: 2}},
        ((1, 1), (1, 1)): {0: {2: 1, 4: -7, 6: 6}, 1: {6: 2}},
    },
}


def hopf_hat_expected(rows):
    """sum over g of (t**2 - 1) * row_g(t) * z**(2g - 2), z = q - 1/q = {1}."""
    z2 = q_bracket(1) * q_bracket(1)
    t2m1 = LaurentQT({(0, 2): 1, (0, 0): -1})
    total = RationalQT.sum(
        RationalQT(t2m1 * LaurentQT({(0, e): c for e, c in row.items()}) * z2**g)
        for g, row in rows.items()
    )
    return bracket_scaled(total, (1, 1), divide=True)


def check_hopf_hat_table():
    checks = []
    for (a, b), entries in HOPF_HAT_TABLE.items():
        spec = hopf_with_kinks(a, b)
        table = plethystic_h(spec, 4)
        for labels, rows in entries.items():
            got = hat_h(spec, [P(x) for x in labels], table=table)
            ok = got == hopf_hat_expected(rows)
            name = f"({a},{b})-" + "".join(P(x).text() for x in labels)
            checks.append((name, ok))
    return checks


# -- theorem-7.9: the p = 2 congruent skein instances -----------------------------------


def even_torus_mixed_expected(k):
    """The three mixed-label invariants of the (2, 2k) torus link and the
    reversed-orientation power-sum bracket assembled from them."""
    s11 = unknot_full(P([1]), P([1]))
    w1 = unknot_full(P([2]), P([2])) + _mono(-4 * k, -2 * k) * s11 + _mono(-4 * k, -4 * k)
    w2 = unknot_full(P([2]), P([1, 1])) + _mono(0, -2 * k) * s11
    w3 = unknot_full(P([1, 1]), P([1, 1])) + _mono(4 * k, -2 * k) * s11 + _mono(4 * k, -4 * k)
    return w1, w2, w3


def check_theorem_79(ks=(0, 1, 2, 3), identity_ks=(1, 2)):
    checks = []
    for k in identity_ks:
        spec = LinkSpec.torus(1, k, 2)
        w1e, w2e, w3e = even_torus_mixed_expected(k)
        checks.append(
            (f"k={k}-W[(2),0][0,(2)]", full_invariant_value(spec, [_pair([2]), _pair((), [2])]) == w1e)
        )
        checks.append(
            (f"k={k}-W[(2),0][0,(1^2)]", full_invariant_value(spec, [_pair([2]), _pair((), [1, 1])]) == w2e)
        )
        checks.append(
            (
                f"k={k}-W[(1^2),0][0,(1^2)]",
                full_invariant_value(spec, [_pair([1, 1]), _pair((), [1, 1])]) == w3e,
            )
        )
        # the reversed-orientation bracket: [2]^2 (w1 - 2 w2 + w3)
        zz = z_reform(LinkSpec.torus_diagram(2, 2 * k).with_reversed({1}), [P([2]), P([2])])
        expected = RationalQT(q_bracket(2) * q_bracket(2)) * (w1e - w2e - w2e + w3e)
        checks.append((f"k={k}-reversed-bracket", zz == expected))
    # the negative-kink unknot congruence: Zh_2(U(-2k-1)) = -t^(-4k-2)(t^2 - t^-2) mod {2}^2
    for k in identity_ks:
        got = z_reform(LinkSpec.unknot(-(2 * k + 1)), [P([2])])
        target = RationalQT(LaurentQT({(0, -4 * k): -1, (0, -4 * k - 4): 1}))
        ok, stage, _ = congruence_check(got, target, q_brace(2) * q_brace(2))
        checks.append((f"k={k}-kinked-unknot-congruence", ok))
    for k in ks:
        verdict, stage, _ = congruent_skein_case(2, k)
        checks.append((f"congruent-skein-p2-k{k}", verdict))
    return checks


FIXTURE_SETS = {
    "example-3.1": check_matrix_fixture,
    "example-4.3": check_torus_knot_family,
    "example-6.3": check_hopf_hat_table,
    "theorem-7.9": check_theorem_79,
}


def run_fixture(name):
    """Run one fixture set; returns a list of (check name, ok)."""
    if name not in FIXTURE_SETS:
        raise KeyError(f"unknown fixture set {name!r}; choices: {sorted(FIXTURE_SETS)}")
    return FIXTURE_SETS[name]()
