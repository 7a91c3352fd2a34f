"""Outside-in layer tracer for one kuengine CLI command.

    python3 perfbench/tracer.py STATS.json groups --prime 2 --window 0:40

runs `kuengine.cli.main` on the given arguments, exactly as
`python -m kuengine.cli` would, with the public function of each layer
wrapped from outside.  Nothing under src/ is edited: the modules use
from-imports, so every namespace of the package that holds a traced
function gets the wrapper, not just the module that defines it.  Methods
are patched on their class.

Every call records a span (name, start, end, parent) in memory.  When the
command ends the spans are reduced to per-function self time (duration
minus the time covered by child spans) and call counts, and written to
STATS.json together with the size counters, which are computed from call
arguments and return values only, and the hit/miss counters of the
package's lru_caches.  The command's stdout, stderr and exit code are
untouched, so its output digest is the untraced one.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

MODULES = (
    "padic", "monomial", "series", "linalg", "chart", "modules",
    "adams", "k1", "margolis", "render", "cli",
)

# (defining module, qualified name, size counter names, and the function
# computing those counters from (result, *call args)).
TRACED = (
    ("linalg", "gf_rank_sparse", ("nnz", "cells"),
     lambda res, entries, nrows, ncols, p: (len(entries), nrows * ncols)),
    ("linalg", "gf_rank", ("cells",), lambda res, mat, p: (int(mat.size),)),
    ("linalg", "cokernel_exponents", ("cells",),
     lambda res, rows, ncols, p: (len(rows) * ncols,)),
    ("margolis", "ext_bruteforce", (), None),
    ("margolis", "build_HK2", (), None),
    ("chart", "Chart.dots_at", ("dots",), lambda res, self, n: (len(res),)),
    ("chart", "RealizedWindow.rank_invariant", (), None),
    ("modules", "full_chart", ("towers",), lambda res, p, cutoff: (len(res.towers),)),
    ("modules", "build_A", (), None),
    ("monomial", "enumerate_family", (), None),
    ("adams", "e2_window", ("towers",),
     lambda res, p, n_lo, n_hi, s_max: (len(res.towers),)),
    ("adams", "run_differentials", ("differentials",), lambda res, page: (len(res[1]),)),
    ("adams", "einfty_audit", (), None),
    ("render", "document_from_einfty", (), None),
    ("render", "render_svg", (), None),
    ("render", "document_from_chart", (), None),
    ("render", "ChartDocument.to_json", (), None),
    ("cli", "_emit", ("bytes",), lambda res, text, out: (len(text.encode()),)),
)

# The from-import lookup sites each wrapper must reach; install() fails if
# one of them still holds the unwrapped function.
LOOKUP_SITES = {
    "linalg.gf_rank_sparse": ("margolis",),
    "linalg.gf_rank": ("margolis",),
    "linalg.cokernel_exponents": ("chart",),
    "modules.full_chart": ("adams", "k1"),
    "adams.e2_window": ("render",),
    "render.document_from_einfty": ("cli",),
    "render.document_from_chart": ("cli",),
    "render.render_svg": ("cli",),
}

# lru_cache'd public functions whose cache_info() is read at the end.
CACHES = (
    "modules.full_chart",
    "adams.tower",
    "adams.classify",
    "margolis.build_HK2",
    "monomial._cached_family",
    "k1.k1_dims",
)

COUNTER_UNITS = {"nnz": "count", "cells": "count", "dots": "count",
                 "towers": "count", "differentials": "count", "bytes": "B"}


def layer_metrics() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric a traced run reports,
    in a fixed order."""
    out = []
    for mod, qual, counters, _ in TRACED:
        name = f"{mod}.{qual}"
        out.append((f"{name}.self_s", "s"))
        out.append((f"{name}.calls", "count"))
        out.extend((f"{name}.{c}", COUNTER_UNITS[c]) for c in counters)
    for cache in CACHES:
        out.append((f"cache.{cache}.hits", "count"))
        out.append((f"cache.{cache}.misses", "count"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Span store and the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        # (name id, start, end, parent span index or -1); a slot is
        # reserved on entry so children can point at their parent.
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.caches: dict[str, object] = {}

    def wrap(self, name: str, fn, counter_names, count):
        name_id = len(self.names)
        self.names.append(name)
        keys = [f"{name}.{c}" for c in counter_names]
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                stack.pop()
            if count is not None:
                for key, val in zip(keys, count(res, *args, **kwargs)):
                    counters[key] = counters.get(key, 0) + val
            return res

        return traced

    def install(self) -> None:
        """Wrap every traced function at every lookup site.  Raises
        LookupError if a traced name no longer resolves or a listed lookup
        site is left unwrapped, so a rename fails instead of dropping a
        layer."""
        mods = {m: importlib.import_module(f"kuengine.{m}") for m in MODULES}
        for cache in CACHES:
            mod, attr = cache.split(".")
            fn = getattr(mods[mod], attr, None)
            if hasattr(fn, "cache_info"):
                self.caches[cache] = fn
        for mod, qual, counter_names, count in TRACED:
            name = f"{mod}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mods[mod], cls_name, None)
                if cls is None or attr not in vars(cls):
                    raise LookupError(f"traced method {name} does not resolve")
                setattr(cls, attr, self.wrap(name, vars(cls)[attr], counter_names, count))
                continue
            orig = getattr(mods[mod], qual, None)
            if orig is None:
                raise LookupError(f"traced function {name} does not resolve")
            wrapper = self.wrap(name, orig, counter_names, count)
            for ns in mods.values():
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapper)
            for site in LOOKUP_SITES.get(name, ()):
                if getattr(mods[site], qual, None) is not wrapper:
                    raise LookupError(f"{site}.{qual} is not wrapped")

    def stats(self) -> dict:
        """Per-function self time and calls, size counters and cache
        counters, reduced from the recorded spans."""
        # Every span is closed by now: the wrappers close theirs in finally.
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        metrics: dict[str, float] = {}
        for name in self.names:
            metrics[f"{name}.self_s"] = 0.0
            metrics[f"{name}.calls"] = 0
        for i, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            metrics[f"{name}.self_s"] += end - start - child[i]
            metrics[f"{name}.calls"] += 1
        metrics.update(self.counters)
        absent = []
        for cache in CACHES:
            fn = self.caches.get(cache)
            if fn is None:
                absent.append(cache)
                continue
            info = fn.cache_info()
            metrics[f"cache.{cache}.hits"] = info.hits
            metrics[f"cache.{cache}.misses"] = info.misses
        return {"metrics": metrics, "absent_caches": absent}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py STATS.json CLI-ARGS...", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from kuengine import cli

    try:
        rc = cli.main(cli_args)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.stats(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
