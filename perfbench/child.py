"""One benchmark pass: a fresh interpreter runs one workload's items against cold caches.

Usage (started by run.py, never by hand): ``python3 perfbench/child.py SPAWN_TIME``
with the job on stdin as JSON: {"workload", "items", "trace", "spans_path",
"references"}.  SPAWN_TIME is the harness's time.monotonic() just before it
started this process, so the child can report its own set-up time.

Prints one JSON object: set-up time, per-item times, failures, outputs, peak
RSS, cache footprint, calibration samples and, when traced, the
per-span-name summary.  Outputs are checked after the timed loop, with
tracing removed.
"""

import contextlib
import json
import resource
import signal
import sys
import time
import traceback

import skeinlab.cli  # noqa: F401  (loads the whole package, as a CLI invocation does)
import tracer as tracing
from workloads import Runner


def serialize(workload, output):
    """A JSON form of one item's output, for comparing passes."""
    if output is None:
        return None
    if workload == "zh-sweep":
        _, verdict, _, table = output
        return {"verdict": verdict, "table": sorted([g, q, c] for (g, q), c in (table or {}).items())}
    if workload == "big-colored":
        W, special = output
        return {"W": W.to_json(), "special": special.to_records()}
    _, verdicts = output
    return {
        "verdicts": [
            [v, None if t is None else sorted([g, q, c] for (g, q), c in t.items())]
            for v, t, _ in verdicts
        ]
    }


PROBE_INTERVAL_S = 0.25
BOUNDARY_SAMPLES = 3


def calibrate():
    """Time a fixed pure-Python kernel shaped like the ring's inner loops.

    It multiplies two sparse polynomials held as dicts of tuple keys, then
    drains the product by repeated max(), as LaurentQT.__mul__ and exact_div
    do.  It never calls skeinlab, so a change to the engine cannot move it;
    only the speed the machine gives this process does.
    """
    a = {(i, i % 7): i * 3 + 1 for i in range(40)}
    b = {(i, -i % 5): i * 7 - 2 for i in range(40)}
    t0 = time.perf_counter()
    out = {}
    for (x1, y1), c1 in a.items():
        for (x2, y2), c2 in b.items():
            key = (x1 + x2, y1 + y2)
            c = out.get(key)
            out[key] = c1 * c2 if c is None else c + c1 * c2
    while out:
        del out[max(out)]
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples calibrate() every PROBE_INTERVAL_S of wall time, also inside long items.

    The samples, [perf_counter() at the start, seconds], come from a SIGALRM
    handler, so they cover the pass evenly in time; ``spent`` is the time the
    handler took, which the caller subtracts from the item it interrupted.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append([t0, calibrate()])
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main():
    spawned = float(sys.argv[1])
    job = json.load(sys.stdin)
    workload, items = job["workload"], job["items"]
    runner = Runner(workload, references=job["references"])
    tracer = None
    run = runner.run
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap(tracing.ITEM_SPAN, runner.run)

    setup_s = time.monotonic() - spawned
    calib = [[time.perf_counter(), calibrate()] for _ in range(BOUNDARY_SAMPLES)]
    probe = SpeedProbe()
    item_start, item_s, outputs, failures = [], [], [], {}
    # a traced pass is not probed: the handler's time would land in some span's self time
    with contextlib.nullcontext() if tracer is not None else probe:
        for idx, item in enumerate(items):
            spent = probe.spent
            t0 = time.perf_counter()
            item_start.append(t0)
            try:
                out = run(item)
            except Exception:  # an item that raises is a failed item; the pass goes on
                out = None
                failures[idx] = [traceback.format_exc(limit=3)]
            item_s.append(time.perf_counter() - t0 - (probe.spent - spent))
            outputs.append(out)
    calib += probe.samples + [[time.perf_counter(), calibrate()] for _ in range(BOUNDARY_SAMPLES)]

    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from skeinlab.chars import lr_coeff
    from skeinlab.skein import unknot_full

    result = {
        "setup_s": setup_s,
        "item_start": item_start,
        "item_s": item_s,
        "calib": calib,
        "peak_rss_mb": peak_rss_mb,
        "cache_entries": tracing.cache_entries(),
        "lr_hit": tracing.hit_ratio(lr_coeff),
        "unknot_hit": tracing.hit_ratio(unknot_full),
    }
    for idx, (item, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        try:
            bad = runner.check(item, out)
        except Exception:
            bad = [traceback.format_exc(limit=3)]
        if bad:
            failures[idx] = bad
    result["failures"] = {str(k): v for k, v in failures.items()}
    result["outputs"] = [serialize(workload, out) for out in outputs]
    if tracer is not None:
        result["spans"] = len(tracer.span_name)
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
