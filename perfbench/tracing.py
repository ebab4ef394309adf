"""Spans around movetrait's public functions, recorded from outside the program.

``Tracer.install`` rebinds each traced function, in every loaded movetrait
module that holds a reference to it, to a wrapper that records a span:
name, start and end (perf_counter_ns), thread, and the span that was open
on the same thread when it started. Some wrappers also count work (bytes
parsed, frames through the kernel, evidence iterations). ``restore`` puts
the original functions back. Spans stay in memory until the benchmark
writes them out.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import sys
import threading
import time


def _size(path) -> int:
    return os.path.getsize(path)


# (module, function, span name, counter(args, kwargs, result) -> {name: amount})
TRACED = (
    ("synth", "write_dataset", "synth.write_dataset", None),
    ("synth", "generate_take", "synth.generate_take", None),
    ("mocap", "load_take", "mocap.load_take",
     lambda a, k, r: {"mocap.parsed_bytes": _size(a[0])}),
    ("mocap", "derive_joints", "mocap.derive_joints", None),
    ("mocap", "velocity", "mocap.velocity", None),
    ("features", "pairwise_correntropy", "features.kernel",
     lambda a, k, r: {"features.kernel_frames": len(a[0])}),
    ("features", "extract_features", "features.extract_features", None),
    ("features", "save_feature_matrix", "features.save_feature_matrix",
     lambda a, k, r: {"features.csv_bytes": _size(a[1])}),
    ("features", "load_feature_matrix", "features.load_feature_matrix", None),
    ("regression", "fit_bayes_ridge", "regression.fit_bayes_ridge",
     lambda a, k, r: {"regression.bayes_iterations": r.iterations}),
    ("regression", "fit_pca", "regression.fit_pca", None),
    ("regression", "fit_pcr", "regression.fit_pcr", None),
    ("regression", "save_model", "regression.save_model",
     lambda a, k, r: {"regression.model_bytes": _size(a[1])}),
    ("regression", "load_model", "regression.load_model", None),
    ("evaluation", "cross_validate", "evaluation.cross_validate", None),
    ("evaluation", "write_score_table", "evaluation.write_score_table", None),
    ("importance", "importance_from_model", "importance.importance_from_model", None),
    ("importance", "importance_report", "importance.importance_report", None),
    ("cli", "write_run_info", "cli.write_run_info", None),
    ("cli", "sha256_file", "cli.sha256_file",
     lambda a, k, r: {"cli.hashed_bytes": _size(a[0])}),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = {"name": name, "thread": threading.get_ident(),
                "parent": stack[-1] if stack else None, "counts": {}}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, _, _, _ in TRACED:
            importlib.import_module(f"movetrait.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "movetrait" or n.startswith("movetrait.")]
        for mod_name, fn_name, span_name, counter in TRACED:
            original = getattr(sys.modules[f"movetrait.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, busy seconds, self seconds; plus summed counts.

    Busy seconds add up the durations of all calls, across threads. Self
    seconds subtract the time covered by child spans; children nest on
    their parent's thread, so their durations do not overlap each other.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
    out: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = s["end"] - s["start"]
        agg["calls"] += 1
        agg["busy_s"] += dur / 1e9
        agg["self_s"] += (dur - child_ns.get(s["id"], 0)) / 1e9
        for key, amount in s["counts"].items():
            counts[key] = counts.get(key, 0) + amount
    return {"spans": out, "counts": counts}
