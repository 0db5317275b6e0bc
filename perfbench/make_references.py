"""Recompute the stored big-colored references: W for every label in workloads.BIG_STRATA.

Run from the root of a checkout (takes a few minutes):

    PYTHONPATH=src python3 perfbench/make_references.py

Only the non-mirrored knot is stored; the benchmark checks a mirror item
against the q -> 1/q, t -> 1/t image.  Regenerate only when the engine's
values are meant to change; the point of the file is to catch a change that
was not meant.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import BIG_STRATA, REFERENCES, reference_key  # noqa: E402


def main():
    from skeinlab.partitions import Partition, PartitionPair
    from skeinlab.skein import LinkSpec, full_invariant_value

    refs = {}
    for (m, n), labels in BIG_STRATA:
        for lam, mu in labels:
            item = {"torus": [m, n], "mirror": False, "pair": [lam, mu]}
            W = full_invariant_value(
                LinkSpec.torus(m, n, 1), [PartitionPair(Partition(lam), Partition(mu))]
            )
            refs[reference_key(item)] = W.to_json()
            print(reference_key(item), len(W.num), "/", len(W.den), "terms", flush=True)
    os.makedirs(os.path.dirname(REFERENCES), exist_ok=True)
    with open(REFERENCES, "w") as fh:
        fh.write(format_references(refs))


def format_references(refs):
    """One label per line, keys sorted, so a changed value shows as a one-line diff."""
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key])}" for key in sorted(refs)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    main()
