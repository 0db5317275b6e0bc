"""The three benchmark workloads: seeded inputs, the timed calls, and their output checks.

Input generation is pure Python and runs in the harness; the timed calls and
the checks run in the child process, which imports skeinlab.  The seed picks
label tuples, labels and framings from fixed pools, stratified so that
different seeds do the same work to within a few per cent (see each pool).
"""

from __future__ import annotations

import json
import os
import random
from itertools import product

WORKLOADS = ("zh-sweep", "big-colored", "hopf-free-energy")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references", "big_colored.json")

# -- zh-sweep ------------------------------------------------------------------------

# the acceptance specs (skeinlab.selftest.ACCEPTANCE_SPECS) with their component counts
ZH_SPECS = [
    ("U(-2)", 1), ("U(-1)", 1), ("U(0)", 1), ("U(1)", 1), ("U(2)", 1),
    ("T(2,2)", 2), ("T(2,3)", 1), ("T(2,4)", 2), ("T(3,3)", 3),
]
LABELS_BY_SIZE = {1: [[1]], 2: [[2], [1, 1]], 3: [[3], [2, 1], [1, 1, 1]]}


def _zh_strata():
    """(spec, per-component label sizes) strata of the zh-sweep, in sweep order.

    Every size vector with labels of size <= 3 is a stratum, except that the
    three-component T(3,3) diagram stops at total size 7: one size-9 triple
    alone costs 12-20 s cold, which would swamp the sweep.
    """
    return [
        (spec, sizes)
        for spec, L in ZH_SPECS
        for sizes in product((1, 2, 3), repeat=L)
        if sum(sizes) <= 7
    ]


def _zh_items(rng):
    """Per stratum: the all-column label tuple, then half of the others, seeded.

    The column labels (1^s) have every character nonzero, so that first item
    computes every decorated bracket of its stratum whatever the seed, and
    the seeded remainder reuses them; that keeps both the total work and the
    per-item time distribution comparable across seeds.
    """
    items = []
    for spec, sizes in _zh_strata():
        column = tuple([1] * s for s in sizes)
        others = [c for c in product(*(LABELS_BY_SIZE[s] for s in sizes)) if c != column]
        chosen = rng.sample(others, (len(others) + 1) // 2)
        for labels in [column] + chosen:
            items.append({"spec": spec, "labels": [list(x) for x in labels]})
    return items


# -- big-colored -------------------------------------------------------------------

# (torus (m, n), interchangeable composite labels [lam, mu]); one item per stratum.
# Members of a stratum do the same work: their traced exact_div dividend
# terms and laurent_mul term pairs agree to within 2 % (T(2,7): 11 %), and
# alone in a fresh process they take ~7 s, ~3 s and ~1 s on a 2-core Xeon.
# The seed also picks the chirality: T(m,-n) does the same work as T(m,n)
# and its invariant is the q -> 1/q, t -> 1/t image.  The strata are far
# apart in cost, so the median and the slowest item are the same stratum
# whatever the seed.
BIG_STRATA = [
    ((2, 5), [[[2, 1], [2, 1]]]),
    ((3, 4), [[[3], []], [[], [3]], [[1, 1, 1], []], [[], [1, 1, 1]]]),
    ((2, 7), [[[3], [2]], [[2], [3]], [[1, 1], [3]], [[3], [1, 1]]]),
]


def _big_items(rng):
    items = []
    for (m, n), labels in BIG_STRATA:
        lam, mu = rng.choice(labels)
        items.append({"torus": [m, n], "mirror": rng.random() < 0.5, "pair": [lam, mu]})
    return items


# -- hopf-free-energy -------------------------------------------------------------

HOPF_DEGREE = 5
# (framings (kinks per component), how many to draw).  Framings cost the same
# when they have the same number of nonzero kinks: their traced exact_div
# dividend terms and laurent_mul term pairs agree to 0.1 %.  The unframed
# link comes first in every pass and computes the shared surface brackets.
HOPF_STRATA = [
    ([(0, 0)], 1),
    ([(1, 0), (0, 1), (-1, 0), (0, -1)], 2),
    ([(1, 1), (1, -1), (-1, 1), (-1, -1)], 2),
]


def _hopf_items(rng):
    return [
        {"framing": list(framing)}
        for framings, count in HOPF_STRATA
        for framing in rng.sample(framings, count)
    ]


def generate(workload, seed):
    """The item list of one workload for one seed; equal seeds give equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    return {"zh-sweep": _zh_items, "big-colored": _big_items, "hopf-free-energy": _hopf_items}[
        workload
    ](rng)


# -- execution (child process only) ------------------------------------------------


class Runner:
    """Runs one workload's items and checks their outputs; imports skeinlab lazily."""

    def __init__(self, workload, references=REFERENCES):
        self.workload = workload
        if workload == "zh-sweep":
            from skeinlab.selftest import ACCEPTANCE_SPECS

            self.specs = dict(ACCEPTANCE_SPECS)
        if workload == "big-colored":
            with open(references) as fh:
                self.references = json.load(fh)

    # timed calls: return the raw outputs, checked later

    def run(self, item):
        return getattr(self, "_run_" + self.workload.replace("-", "_"))(item)

    def _run_zh_sweep(self, item):
        from skeinlab.composite import z_reform, zsquare_member
        from skeinlab.partitions import Partition

        value = z_reform(self.specs[item["spec"]], [Partition(x) for x in item["labels"]])
        verdict, stage, table = zsquare_member(value)
        return value, verdict, stage, table

    def _big_spec_pair(self, item):
        from skeinlab.partitions import Partition, PartitionPair
        from skeinlab.skein import LinkSpec

        m, n = item["torus"]
        spec = LinkSpec.torus(m, -n if item["mirror"] else n, 1)
        lam, mu = item["pair"]
        return spec, PartitionPair(Partition(lam), Partition(mu))

    def _run_big_colored(self, item):
        from skeinlab.lmov import special_polynomial
        from skeinlab.skein import full_invariant_value

        spec, pair = self._big_spec_pair(item)
        return full_invariant_value(spec, [pair]), special_polynomial(spec, [pair])

    def _run_hopf_free_energy(self, item):
        from skeinlab.fixtures import hopf_with_kinks
        from skeinlab.lmov import lmov_check, plethystic_h

        spec = hopf_with_kinks(*item["framing"])
        table = plethystic_h(spec, HOPF_DEGREE)
        verdicts = [lmov_check(spec, B, table=table) for B in hopf_b_pairs()]
        return table, verdicts

    # checks: a list of failure descriptions, empty when the output is right

    def check(self, item, output):
        return getattr(self, "_check_" + self.workload.replace("-", "_"))(item, output)

    def _check_zh_sweep(self, item, output):
        from skeinlab.exactring import zsquare_recompose

        value, verdict, stage, table = output
        if not verdict:
            return [f"Zh verdict false at stage {stage}"]
        if not value == zsquare_recompose(table):
            return ["certificate does not recompose to the value"]
        return []

    def _check_big_colored(self, item, output):
        from skeinlab.lmov import special_polynomial
        from skeinlab.partitions import Partition, PartitionPair

        W, special = output
        failures = []
        ref = self.reference(item)
        if ref is None:
            failures.append("no stored reference")
        elif not W == ref:
            failures.append("W differs from the stored reference")
        spec, pair = self._big_spec_pair(item)
        base = special_polynomial(spec, [PartitionPair(Partition([1]), Partition())])
        if special != base ** pair.size:
            failures.append("special polynomial is not base**size")
        return failures

    def _check_hopf_free_energy(self, item, output):
        from skeinlab.fixtures import HOPF_HAT_TABLE, hopf_hat_expected, hopf_with_kinks
        from skeinlab.lmov import hat_h
        from skeinlab.partitions import Partition

        table, verdicts = output
        failures = [
            f"lmov verdict false for B={B} at stage {stage}"
            for B, (verdict, _, stage) in zip(hopf_b_pairs(), verdicts)
            if not verdict
        ]
        a, b = item["framing"]
        spec = hopf_with_kinks(a, b)
        if (a, b) in HOPF_HAT_TABLE:
            pinned = HOPF_HAT_TABLE[(a, b)]
        elif (b, a) in HOPF_HAT_TABLE:
            # the swapped link: fhat_{B1,B2}(a, b) = fhat_{B2,B1}(b, a)
            pinned = {(B2, B1): rows for (B1, B2), rows in HOPF_HAT_TABLE[(b, a)].items()}
        else:
            pinned = {}
        for labels, rows in pinned.items():
            got = hat_h(spec, [Partition(x) for x in labels], table=table)
            if not got == hopf_hat_expected(rows):
                failures.append(f"hat_h{labels} differs from the pinned example-6.3 value")
        return failures

    def reference(self, item):
        """The stored W for a big-colored item, mirrored for a mirror item."""
        from skeinlab.exactring import LaurentQT, RationalQT

        rec = self.references.get(reference_key(item))
        if rec is None:
            return None
        value = RationalQT(LaurentQT.from_records(rec["num"]), LaurentQT.from_records(rec["den"]))
        return value.mirror() if item["mirror"] else value


def reference_key(item):
    m, n = item["torus"]
    lam, mu = item["pair"]
    return f"T({m},{n});{lam};{mu}"


def hopf_b_pairs():
    """Every pair (B1, B2) of nonempty-total size that the degree-5 table covers."""
    from skeinlab.partitions import partitions_of

    singles = [p for n in range(HOPF_DEGREE + 1) for p in partitions_of(n)]
    return [
        (B1, B2)
        for B1 in singles
        for B2 in singles
        if 1 <= B1.size + B2.size <= HOPF_DEGREE
    ]
