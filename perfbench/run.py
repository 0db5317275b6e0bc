"""skeinlab benchmark: exact verdicts per second on three workloads, plus a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zh-sweep --seed 1 --seconds 25 --trace 0

Load model: closed loop, one client.  Every pass is a fresh child process
(cold in-process caches, no character-cache directory, no --jobs, fixed
PYTHONHASHSEED) that runs the seeded item list one item after another; the
harness starts the next pass when the previous one has exited, so at most two
processes run.  With ``--trace 0`` passes repeat until ``--seconds`` have
elapsed (at least three) and the end-to-end metrics are medians over passes.
With ``--trace 1`` untraced and traced passes alternate (at least two of
each) and the per-layer metrics come from the traced ones.

Times are reported in reference-speed seconds: each pass also times a fixed
pure-Python calibration kernel every quarter second (child.SpeedProbe), and
each item time is scaled by REFERENCE_CALIBRATION_S over the mean
calibration time around that item.
CPU speed on a shared host drifts by 20-40 % over minutes, which raw
seconds cannot separate from a change in skeinlab; the scaling removes the
drift and keeps the work.  The raw seconds and the speed factors are printed
and kept in the run report.  setup_s and the per-layer seconds are scaled
the same way; peak_rss_mb is as measured.

Every item's output is checked (see workloads.py).  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it name every metric with its unit.  Per-run details and the traced
spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import REFERENCES, WORKLOADS, generate  # noqa: E402

MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
RUN_DEADLINE_S = 170  # a run must end within 180 s, so no pass may outlive this
TAIL_BEYOND = 10  # the tail percentile has at least this many items beyond it
# Median time of child.calibrate() on the 2-core Xeon host where the
# baseline was taken.  Item times are reported at this reference speed (see
# speed_factor); the raw seconds are printed and kept in the run report.
REFERENCE_CALIBRATION_S = 0.012
PROBE_WINDOW_S = 0.25  # calibration samples this close to an item set its speed factor
OUT_DIR = ".perfbench_out"


class BenchError(RuntimeError):
    pass


def run_pass(root, workload, items, traced, spans_path=None, references=REFERENCES, timeout=RUN_DEADLINE_S):
    """Start one child, feed it the job, wait up to ``timeout`` s, and return its parsed result."""
    env = dict(os.environ)
    env.pop("SKEINLAB_CACHE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    job = {
        "workload": workload,
        "items": items,
        "trace": traced,
        "spans_path": spans_path,
        "references": references,
    }
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), repr(spawned)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=root,
    )
    try:
        out, err = proc.communicate(json.dumps(job).encode(), timeout=max(timeout, 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a {workload} pass ran past the {RUN_DEADLINE_S} s deadline of a run")
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}):\n{err.decode(errors='replace')}")
    return json.loads(out.decode().strip().splitlines()[-1])


def tail_time(times):
    """The slowest item with TAIL_BEYOND items beyond it, or the slowest item in a short pass."""
    ordered = sorted(times)
    if len(ordered) > TAIL_BEYOND:
        return ordered[-TAIL_BEYOND - 1]
    return ordered[-1]


def speed_factor(result, start=None, end=None):
    """Reference calibration time over the mean calibration time near [start, end].

    CPU speed on a shared machine switches between states tens of per cent
    apart, for seconds to minutes at a time.  The calibration kernel, timed
    throughout the pass, slows with it, so scaling a time by this factor
    removes the machine's state but not the work.  Without an interval the
    whole pass is used.  A factor below 1 means a slower machine than the
    reference.
    """
    samples = result["calib"]
    if start is not None:
        near = [sec for t, sec in samples if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if not near:
            near = [min(samples, key=lambda s: abs(s[0] - start))[1]]
    else:
        near = [sec for _, sec in samples]
    return REFERENCE_CALIBRATION_S / statistics.fmean(near)


def pass_metrics(result):
    times = [
        t * speed_factor(result, start, start + t)
        for start, t in zip(result["item_start"], result["item_s"])
    ]
    wall = sum(times)
    first = result["item_start"][0]
    return {
        "setup_s": result["setup_s"] * speed_factor(result, first, first),
        "wall_s": wall,
        "items_per_s": len(times) / wall,
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_time(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def same_outputs(a, b):
    """Whether two passes produced equal outputs; W values compare by ring equality."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x is None or y is None:
            if x is not y:
                return False
        elif "W" in x:
            if x["special"] != y["special"] or not _ring_equal(x["W"], y["W"]):
                return False
        elif x != y:
            return False
    return True


def _ring_equal(x, y):
    from skeinlab.exactring import LaurentQT, RationalQT

    def value(rec):
        return RationalQT(LaurentQT.from_records(rec["num"]), LaurentQT.from_records(rec["den"]))

    return value(x) == value(y)


def trace_counts(result):
    """The deterministic part of a traced pass: call counts, sizes, None results, caches."""
    counts = {
        name: [s["calls"], s["size_sum"], s["size_max"], s["none"]]
        for name, s in result["trace"].items()
    }
    counts["cache"] = [result["cache_entries"], result["lr_hit"], result["unknot_hit"]]
    return counts


def measure(root, workload, items, seconds, trace, out_dir):
    """Run the passes; returns (metrics, passes, problems, attempted, failed)."""
    problems = []
    passes = []
    start = time.monotonic()

    def left():
        return start + RUN_DEADLINE_S - time.monotonic()

    if not trace:
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            passes.append(run_pass(root, workload, items, traced=False, timeout=left()))
    else:
        k = 0
        while k < MIN_TRACE_PAIRS or time.monotonic() - start < seconds:
            passes.append(run_pass(root, workload, items, traced=False, timeout=left()))
            spans = os.path.join(out_dir, f"spans-{workload}-{k}.bin")
            passes.append(run_pass(root, workload, items, traced=True, spans_path=spans, timeout=left()))
            k += 1
    for i, p in enumerate(passes[1:], 1):
        if not same_outputs(passes[0]["outputs"], p["outputs"]):
            problems.append(f"pass {i} outputs differ from pass 0")
    untraced = [p for p in passes if "trace" not in p]
    per_pass = [pass_metrics(p) for p in untraced]
    attempted = len(items) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    if not trace:
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["ok_ratio"] = 1 - failed / attempted
        return metrics, passes, problems, attempted, failed

    traced = [p for p in passes if "trace" in p]
    first = trace_counts(traced[0])
    for i, p in enumerate(traced[1:], 1):
        if trace_counts(p) != first:
            problems.append(f"traced pass {i} counts differ from traced pass 0")
    layer = []
    for p in traced:
        factor = speed_factor(p)
        m = tracing.layer_metrics(p)
        layer.append({k: v * factor if k.endswith("_s") else v for k, v in m.items()})
    metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    metrics["trace.overhead_s"] = statistics.median(
        sum(p["item_s"]) * speed_factor(p) for p in traced
    ) - statistics.median(m["wall_s"] for m in per_pass)
    return metrics, passes, problems, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skeinlab", "__init__.py")):
        print("perfbench: run from the root of a skeinlab checkout (src/skeinlab not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    items = generate(args.workload, args.seed)
    try:
        metrics, passes, problems, attempted, failed = measure(
            root, args.workload, items, args.seconds, args.trace, out_dir
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}

    print(f"workload {args.workload}  seed {args.seed}  items/pass {len(items)}  passes {len(passes)}")
    untraced = [p for p in passes if "trace" not in p]
    print(
        "  raw wall_s per untraced pass "
        + " ".join(f"{sum(p['item_s']):.4g}" for p in untraced)
        + "; raw setup_s "
        + " ".join(f"{p['setup_s']:.4g}" for p in untraced)
        + "; speed factor "
        + " ".join(f"{speed_factor(p):.3g}" for p in untraced)
    )
    for item in items:
        print(f"  input {json.dumps(item)}")
    for p_idx, p in enumerate(passes):
        for idx, msgs in p["failures"].items():
            print(f"  FAILED pass {p_idx} item {idx}: {msgs[0].strip().splitlines()[-1]}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(f"  failed_ratio {failed / attempted:.6g} ({failed} of {attempted} item runs)")
    if args.trace:
        spans = sum(p.get("spans", 0) for p in passes)
        print(f"  traced spans {spans}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": items,
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
    }
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
