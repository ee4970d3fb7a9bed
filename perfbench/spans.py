"""Span tracing of tmlab's public functions, installed from the benchmark side.

The tracer wraps each function listed in ``TARGETS`` (plus numpy's ``eigh``
and ``eigvalsh``) and records one span per call: name, start, end and the
index of the enclosing span.  ``tmlab`` modules import each other's
functions by name (``harness`` does ``from .means import mean_pd``), so every
``tmlab`` module attribute that refers to a wrapped function is rebound, and
methods are patched on their class.  Spans stay in memory in compact arrays
and are written out once, when the traced run ends.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# (layer metric prefix, module, attribute).  An attribute "Class.method" is
# patched on the class; several targets may share one prefix.
TARGETS = (
    ("core.construct", "tmlab.core", "HermitianTensor.__init__"),
    ("core.spectral_decompose", "tmlab.core", "spectral_decompose"),
    ("core.apply_spectral", "tmlab.core", "apply_spectral"),
    ("core.loewner_compare", "tmlab.core", "loewner_compare"),
    ("functions.eval", "tmlab.functions", "ConnectionFunction.__call__"),
    ("functions.eval", "tmlab.functions", "ConnectionFunction.eval_extended"),
    ("functions.construct", "tmlab.functions", "ConnectionFunction.__post_init__"),
    ("functions.invert_fn", "tmlab.functions", "invert_fn"),
    ("means.mean_pd", "tmlab.means", "mean_pd"),
    ("means.mean_psd", "tmlab.means", "mean_psd"),
    ("means.eta", "tmlab.means", "eta"),
    ("means.epsilon_mean_limit", "tmlab.means", "epsilon_mean_limit"),
    ("bounds.kk_factors", "tmlab.bounds", "kk_factors"),
    ("bounds.dyadic_factors", "tmlab.bounds", "psi_factors"),
    ("bounds.dyadic_factors", "tmlab.bounds", "phi_factors"),
    ("bounds.prop310_factors", "tmlab.bounds", "prop310_factors"),
    ("bounds.trace_tail_bound", "tmlab.bounds", "trace_tail_bound"),
    ("bounds.kyfan_stats", "tmlab.bounds", "kyfan_stats"),
    ("lie_trotter.convergence_study", "tmlab.lie_trotter", "convergence_study"),
    ("lie_trotter.lt_expression", "tmlab.lie_trotter", "lt_expression"),
    ("lie_trotter.exp_log", "tmlab.lie_trotter", "tensor_exp"),
    ("lie_trotter.exp_log", "tmlab.lie_trotter", "tensor_log"),
    ("data_processing.fusion_gap", "tmlab.data_processing", "fusion_gap"),
    ("data_processing.transform_gap", "tmlab.data_processing", "transform_gap"),
    ("data_processing.apply_map", "tmlab.data_processing", "apply_map"),
    ("data_processing.DominationPair", "tmlab.data_processing", "DominationPair.__post_init__"),
    ("harness.sample", "tmlab.harness", "sample"),
    ("harness.sample", "tmlab.harness", "dominated_sample"),
    ("harness.enforce_premise", "tmlab.harness", "enforce_premise"),
    ("harness.suite", "tmlab.harness", "run_suite"),
    ("harness.reports_to_json", "tmlab.harness", "reports_to_json"),
)
EIG_TARGETS = (("core.eigh", "eigh"), ("core.eigvalsh", "eigvalsh"))

# Prefixes reported with self time only; the others report calls as well.
SELF_ONLY = ("harness.suite", "harness.reports_to_json")
BOTH_STATS = tuple(p for p in dict.fromkeys(p for p, _, _ in TARGETS) if p not in SELF_ONLY)


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.eig_keys: set = set()
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name: str, fn, content_key=False):
        nid = self._id(name)
        span_name, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self._stack
        keys = self.eig_keys
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if content_key:
                a = np.ascontiguousarray(args[0])
                keys.add((a.shape, a.dtype.str, hash(a.tobytes())))
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0)
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "tmlab" or n.startswith("tmlab.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for name, attr in EIG_TARGETS:
            orig = getattr(np.linalg, attr)
            self._undo.append((np.linalg, attr, orig))
            setattr(np.linalg, attr, self.wrap(name, orig, content_key=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def per_name(self) -> tuple[dict, dict]:
        """Calls and self seconds per span name."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_ns, minlength=k) / 1e9
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
        )

    def layer_metrics(self, work_items: int) -> dict:
        """Per-layer metrics; ``work_items`` is suite-trials or library calls."""
        calls, self_s = self.per_name()
        out = {}
        for prefix in BOTH_STATS:
            out[f"{prefix}.calls"] = calls.get(prefix, 0)
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
        for prefix in SELF_ONLY:
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
        eig_calls = calls.get("core.eigh", 0) + calls.get("core.eigvalsh", 0)
        out["core.eigh.calls"] = calls.get("core.eigh", 0)
        out["core.eigvalsh.calls"] = calls.get("core.eigvalsh", 0)
        out["core.eig.self_s"] = self_s.get("core.eigh", 0.0) + self_s.get("core.eigvalsh", 0.0)
        out["core.eig_per_distinct_tensor"] = eig_calls / max(1, len(self.eig_keys))
        out["core.eig_per_suite_trial"] = eig_calls / max(1, work_items)
        return out

    def write(self, path) -> None:
        """Write the spans as ``.npz`` arrays plus the name table."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
