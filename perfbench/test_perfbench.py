"""Tests of the benchmark itself: seeded inputs, output checks and the tracer.

Run from the root of a checkout:  python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, generate, reference_key  # noqa: E402

CHEAP_ITEMS = [
    {"torus": [2, 3], "mirror": False, "pair": [[2], [1]]},
    {"torus": [2, 3], "mirror": True, "pair": [[2], [1]]},
]


def _strata(workload, items):
    if workload == "zh-sweep":
        return [(it["spec"], sorted(sum(x) for x in it["labels"])) for it in items]
    if workload == "big-colored":
        return [(it["torus"], sorted(sum(x) for x in it["pair"])) for it in items]
    return [len(items)]


def test_inputs_are_seeded_and_stratified():
    for workload in WORKLOADS:
        assert generate(workload, 7) == generate(workload, 7)
        shapes = {json.dumps(_strata(workload, generate(workload, s))) for s in range(20)}
        assert len(shapes) == 1, workload
        assert len({json.dumps(generate(workload, s)) for s in range(20)}) > 1, workload


def _write_reference(path, corrupt):
    from skeinlab.partitions import Partition, PartitionPair
    from skeinlab.skein import LinkSpec, full_invariant_value

    item = CHEAP_ITEMS[0]
    W = full_invariant_value(
        LinkSpec.torus(2, 3, 1), [PartitionPair(Partition([2]), Partition([1]))]
    )
    if corrupt:
        W = W + 1
    with open(path, "w") as fh:
        json.dump({reference_key(item): W.to_json()}, fh)


def _failed_ratio(tmp_path, corrupt):
    refs = tmp_path / "refs.json"
    _write_reference(refs, corrupt)
    result = run.run_pass(ROOT, "big-colored", CHEAP_ITEMS, traced=False, references=str(refs))
    return len(result["failures"]) / len(CHEAP_ITEMS)


def test_true_reference_passes(tmp_path):
    assert _failed_ratio(tmp_path, corrupt=False) == 0


def test_corrupted_reference_fails(tmp_path):
    assert _failed_ratio(tmp_path, corrupt=True) == 1


def _reduce_some():
    from skeinlab.exactring import RationalQT, q_bracket

    num = q_bracket(6) * q_bracket(4) * q_bracket(3)
    den = q_bracket(2) * q_bracket(3) * q_bracket(5)
    return (RationalQT(num, den) + RationalQT(q_bracket(1), q_bracket(2))).reduced()


def test_tracer_patches_every_binding_and_restores_them():
    import skeinlab.cli  # noqa: F401
    from skeinlab import composite, exactring, lmov

    originals = (exactring.exact_div, lmov.exact_div, exactring.LaurentQT.__dict__["__mul__"])
    plain = _reduce_some()
    t = tracing.Tracer()
    t.install()
    try:
        assert lmov.exact_div is exactring.exact_div is not originals[0]
        assert composite.zsquare_decompose is exactring.zsquare_decompose
        laurent = exactring.LaurentQT.__dict__
        assert laurent["__rmul__"] is laurent["__mul__"] is not originals[2]
        first = _reduce_some()
        n_first = len(t.span_name)
        second = _reduce_some()
    finally:
        t.uninstall()
    assert (exactring.exact_div, lmov.exact_div, exactring.LaurentQT.__dict__["__mul__"]) == originals
    assert exactring.LaurentQT.__dict__["__rmul__"] is originals[2]
    assert first == plain and second == plain
    stats = t.summary()
    calls = stats["exactring.exact_div"]["calls"]
    assert calls > 0 and 2 * n_first == len(t.span_name)
    assert stats["exactring.exact_div"]["none"] > 0
    total = sum(s["self_s"] for s in stats.values())
    outer = sum(t.end[i] - t.start[i] for i in range(len(t.span_name)) if t.parent[i] < 0)
    assert abs(total - outer) < 1e-6


def test_cache_entries_counts_lru_caches_and_character_memo():
    from skeinlab.chars import character

    character((2, 1), (1, 1, 1))
    assert tracing.cache_entries() > 0
