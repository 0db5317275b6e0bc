"""Outside-in tracing of skeinlab's layer boundaries.

The benchmark records spans without touching the package: it replaces each
boundary function with a timing wrapper in every ``skeinlab.*`` namespace that
binds it (``from .exactring import exact_div`` copies the binding, so patching
the defining module alone would miss callers), patches class attributes
together with their aliases (``__rmul__ = __mul__``), and restores every
binding afterwards.

A span is (name, start, end, parent); spans live in flat arrays while the
pass runs and are summarised, and written out, after it ends.  A span's self
time is its duration minus the durations of its child spans, which never
overlap because the engine is single-threaded.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (span name, defining module, attribute path).  The span name's prefix is the
# layer, i.e. the skeinlab module; "bench.item" spans are the benchmark's items.
BOUNDARIES = [
    ("exactring.exact_div", "skeinlab.exactring", "exact_div"),
    ("exactring.zsquare_decompose", "skeinlab.exactring", "zsquare_decompose"),
    ("exactring.laurent_mul", "skeinlab.exactring", "LaurentQT.__mul__"),
    ("exactring.laurent_add", "skeinlab.exactring", "LaurentQT.__add__"),
    ("exactring.rational_add", "skeinlab.exactring", "RationalQT.__add__"),
    ("exactring.rational_mul", "skeinlab.exactring", "RationalQT.__mul__"),
    ("exactring.reduced", "skeinlab.exactring", "RationalQT.reduced"),
    ("exactring.as_laurent", "skeinlab.exactring", "RationalQT.as_laurent"),
    ("skein.unknot_full", "skeinlab.skein", "unknot_full"),
    ("skein.power_value", "skeinlab.skein", "power_value"),
    ("skein.torus_framed", "skeinlab.skein", "torus_framed"),
    ("skein.torus_full_invariant", "skeinlab.skein", "torus_full_invariant"),
    ("composite.z_reform", "skeinlab.composite", "z_reform"),
    ("composite.zsquare_member", "skeinlab.composite", "zsquare_member"),
    ("composite.framed_composite", "skeinlab.composite", "framed_composite"),
    ("composite.power_decoration", "skeinlab.composite", "power_decoration"),
    ("lmov.cs_partition", "skeinlab.lmov", "cs_partition"),
    ("lmov.log_partition_series", "skeinlab.lmov", "log_partition_series"),
    ("lmov.plethystic_h", "skeinlab.lmov", "plethystic_h"),
    ("lmov.t_transform", "skeinlab.lmov", "t_transform"),
    ("lmov.hat_h", "skeinlab.lmov", "hat_h"),
    ("lmov.lmov_check", "skeinlab.lmov", "lmov_check"),
    ("lmov.special_polynomial", "skeinlab.lmov", "special_polynomial"),
    ("chars.character", "skeinlab.chars", "character"),
    ("chars.lr_coeff", "skeinlab.chars", "lr_coeff"),
    ("symfun.schurpair_mult", "skeinlab.symfun", "schurpair_mult"),
    ("symfun.adams_schur", "skeinlab.symfun", "adams_schur"),
    ("symfun.schur_to_power_terms", "skeinlab.symfun", "schur_to_power_terms"),
    ("symfun.composite_to_schurpair_terms", "skeinlab.symfun", "composite_to_schurpair_terms"),
    ("symfun.schurpair_to_composite_terms", "skeinlab.symfun", "schurpair_to_composite_terms"),
]

ITEM_SPAN = "bench.item"
LAYERS = ("exactring", "skein", "composite", "lmov", "chars", "symfun")

# flag bits stored per span
NESTED = 1  # an enclosing span has the same name
NONE_RESULT = 2  # the call returned None (a failed exact division)


def _dividend_terms(args):
    return len(args[0])


def _term_pairs(args):
    a, b = args
    return len(a) * (len(b) if hasattr(b, "_terms") else 1)


# operand sizes recorded per span, by span name
SIZES = {
    "exactring.exact_div": _dividend_terms,
    "exactring.laurent_mul": _term_pairs,
}


def skeinlab_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "skeinlab" or name.startswith("skeinlab."))
    ]


class Tracer:
    """Span store plus the wrappers that fill it; install() / uninstall() patch the package."""

    def __init__(self):
        self.names = [name for name, _, _ in BOUNDARIES] + [ITEM_SPAN]
        self.span_name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.flags = array("b")
        self._stack = [-1]
        self._depth = [0] * len(self.names)
        self._patches = []

    def wrap(self, name, fn):
        """A wrapper around fn that records one span named ``name`` per call."""
        idx = self.names.index(name)
        measure = SIZES.get(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        size, flags, stack, depth = self.size, self.flags, self._stack, self._depth
        clock = perf_counter

        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(idx)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            size.append(measure(args) if measure is not None else 0)
            nested = depth[idx]
            flags.append(NESTED if nested else 0)
            depth[idx] = nested + 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[idx] = nested
                start[sid] = t0
                end[sid] = t1
            if result is None:
                flags[sid] |= NONE_RESULT
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Patch every binding of every boundary function in the loaded skeinlab modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = skeinlab_modules()
        for name, modname, path in BOUNDARIES:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapper = self.wrap(name, original)
                # aliases such as __radd__ / __rmul__ are the same function object
                for alias, value in list(vars(cls).items()):
                    if value is original:
                        self._patches.append((cls, alias, original))
                        setattr(cls, alias, wrapper)
            else:
                original = getattr(owner, path)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, alias, original))
                            setattr(mod, alias, wrapper)

    def uninstall(self):
        """Restore every binding install() replaced, in reverse order."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- summaries -----------------------------------------------------------------

    def summary(self):
        """Per-span-name totals: calls, total_s (outermost spans), self_s, sizes, None results."""
        n = len(self.span_name)
        child_time = [0.0] * n
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child_time[p] += end[sid] - start[sid]
        stats = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size_sum": 0, "size_max": 0, "none": 0}
            for name in self.names
        }
        for sid in range(n):
            s = stats[self.names[span_name[sid]]]
            dur = end[sid] - start[sid]
            s["calls"] += 1
            s["self_s"] += dur - child_time[sid]
            flag = self.flags[sid]
            if not flag & NESTED:
                s["total_s"] += dur
            if flag & NONE_RESULT:
                s["none"] += 1
            sz = self.size[sid]
            s["size_sum"] += sz
            if sz > s["size_max"]:
                s["size_max"] = sz
        return stats

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays in header order."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [
                [key, getattr(self, key).typecode, getattr(self, key).itemsize]
                for key in ("span_name", "parent", "start", "end", "size", "flags")
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _, _ in header["arrays"]:
                getattr(self, key).tofile(fh)


def cache_entries():
    """Entries held by every functools.lru_cache in skeinlab namespaces plus the character memo."""
    seen = set()
    total = 0
    for mod in skeinlab_modules():
        for obj in list(vars(mod).values()):
            members = [obj] + (list(vars(obj).values()) if isinstance(obj, type) else [])
            for member in members:
                if hasattr(member, "cache_info") and id(member) not in seen:
                    seen.add(id(member))
                    total += member.cache_info().currsize
    chars = sys.modules.get("skeinlab.chars")
    table = getattr(chars, "_default_table", None)
    if table is not None:
        total += len(table._memo)
    return total


def hit_ratio(cached_fn):
    info = cached_fn.cache_info()
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def layer_metrics(result):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass's child result."""
    stats = result["trace"]
    item_time = stats[ITEM_SPAN]["total_s"]

    def get(name, key):
        return stats[name][key]

    out = {}
    ed = stats["exactring.exact_div"]
    out["exactring.exact_div.calls"] = ed["calls"]
    out["exactring.exact_div.none_ratio"] = ed["none"] / ed["calls"] if ed["calls"] else 0.0
    out["exactring.exact_div.self_s"] = ed["self_s"]
    out["exactring.exact_div.max_dividend_terms"] = ed["size_max"]
    out["exactring.exact_div.mean_dividend_terms"] = ed["size_sum"] / ed["calls"] if ed["calls"] else 0.0
    out["exactring.reduced.calls"] = get("exactring.reduced", "calls")
    out["exactring.reduced.total_s"] = get("exactring.reduced", "total_s")
    lm = stats["exactring.laurent_mul"]
    out["exactring.laurent_mul.calls"] = lm["calls"]
    out["exactring.laurent_mul.self_s"] = lm["self_s"]
    out["exactring.laurent_mul.term_pairs"] = lm["size_sum"]
    out["exactring.laurent_mul.max_term_pairs"] = lm["size_max"]
    out["exactring.rational_add.calls"] = get("exactring.rational_add", "calls")
    out["exactring.rational_add.total_s"] = get("exactring.rational_add", "total_s")
    out["exactring.rational_mul.calls"] = get("exactring.rational_mul", "calls")
    out["exactring.rational_mul.self_s"] = get("exactring.rational_mul", "self_s")
    out["exactring.as_laurent.calls"] = get("exactring.as_laurent", "calls")
    out["exactring.zsquare_decompose.self_s"] = get("exactring.zsquare_decompose", "self_s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += s["self_s"]
    out["exactring.self_s"] = layer_self["exactring"]
    out["exactring.self_share"] = layer_self["exactring"] / item_time if item_time else 0.0
    out["skein.unknot_full.calls"] = get("skein.unknot_full", "calls")
    out["skein.unknot_full.hit_ratio"] = result["unknot_hit"]
    out["skein.unknot_full.total_s"] = get("skein.unknot_full", "total_s")
    out["skein.torus_framed.calls"] = get("skein.torus_framed", "calls")
    out["skein.torus_framed.total_s"] = get("skein.torus_framed", "total_s")
    out["skein.self_s"] = layer_self["skein"]
    out["composite.z_reform.total_s"] = get("composite.z_reform", "total_s")
    out["composite.zsquare_member.total_s"] = get("composite.zsquare_member", "total_s")
    out["composite.self_s"] = layer_self["composite"]
    out["lmov.cs_partition.total_s"] = get("lmov.cs_partition", "total_s")
    out["lmov.log_partition_series.self_s"] = get("lmov.log_partition_series", "self_s")
    out["lmov.plethystic_h.self_s"] = get("lmov.plethystic_h", "self_s")
    out["lmov.t_transform.total_s"] = get("lmov.t_transform", "total_s")
    out["lmov.lmov_check.total_s"] = get("lmov.lmov_check", "total_s")
    out["lmov.special_polynomial.self_s"] = get("lmov.special_polynomial", "self_s")
    out["lmov.self_s"] = layer_self["lmov"]
    out["chars.character.calls"] = get("chars.character", "calls")
    out["chars.lr_coeff.calls"] = get("chars.lr_coeff", "calls")
    out["chars.lr_coeff.hit_ratio"] = result["lr_hit"]
    out["chars.self_s"] = layer_self["chars"]
    out["symfun.schurpair_mult.calls"] = get("symfun.schurpair_mult", "calls")
    out["symfun.adams_schur.calls"] = get("symfun.adams_schur", "calls")
    out["symfun.self_s"] = layer_self["symfun"]
    out["cache.entries"] = result["cache_entries"]
    return out
