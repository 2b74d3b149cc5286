"""Span tracing of bentkit from outside the package.

`Tracer.install` replaces every module binding of each function in
LAYERS with a wrapper that records one span (layer, job, parent span,
start, end).  Spans stay in flat arrays in memory and are written once,
by `save`, when the run ends.  A span's self time is its duration minus
the durations of its child spans; calls cannot overlap, so the children
of a span cover disjoint parts of it.  Spans are timed by wall time;
each job is also timed by `job_clock`, the clock its untraced run uses,
so that trace.job_p50_ms and the untraced job_p50_ms can be compared.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute path, reported quantities)
LAYERS = [
    ("cli.main", "bentkit.cli", "main", ("self_ms",)),
    ("core.parse_truth_table", "bentkit.core", "parse_truth_table", ("calls", "self_ms")),
    ("core.serialize_truth_table", "bentkit.core", "serialize_truth_table", ("calls", "self_ms")),
    ("core.BooleanFunction.values", "bentkit.core", "BooleanFunction.values", ("calls", "self_ms")),
    ("core.BooleanFunction.init", "bentkit.core", "BooleanFunction.__init__", ("calls", "self_ms")),
    ("core.walsh_transform", "bentkit.core", "walsh_transform", ("calls", "self_ms")),
    ("core.mobius", "bentkit.core", "mobius", ("calls", "self_ms")),
    ("analysis.analyze", "bentkit.analysis", "analyze", ("calls", "self_ms")),
    ("analysis.is_bent", "bentkit.analysis", "is_bent", ("calls", "self_ms")),
    ("analysis.nonlinearity", "bentkit.analysis", "nonlinearity", ("calls", "self_ms")),
    ("analysis.resiliency_report", "bentkit.analysis", "resiliency_report", ("calls", "self_ms")),
    ("analysis.plateaued_order", "bentkit.analysis", "plateaued_order", ("calls", "self_ms")),
    ("analysis.dual", "bentkit.analysis", "dual", ("calls", "self_ms")),
    ("constructions.restricted_indirect_sum", "bentkit.constructions", "restricted_indirect_sum", ("self_ms",)),
    ("constructions.restricted_indirect_sum_dual", "bentkit.constructions", "restricted_indirect_sum_dual", ("self_ms",)),
    ("constructions.generalized_indirect_sum", "bentkit.constructions", "generalized_indirect_sum", ("self_ms",)),
    ("constructions.psap_bent", "bentkit.constructions", "psap_bent", ("self_ms",)),
    ("constructions.mm_function", "bentkit.constructions", "mm_function", ("self_ms",)),
    ("constructions.class_d_bent", "bentkit.constructions", "class_d_bent", ("self_ms",)),
    ("galois.GaloisField.mul", "bentkit.galois", "GaloisField.mul", ("calls", "self_ms")),
    ("galois.GaloisField.inv", "bentkit.galois", "GaloisField.inv", ("calls",)),
    ("rand.random_bent", "bentkit.rand", "random_bent", ("self_ms",)),
    ("rand.random_resilient_triple", "bentkit.rand", "random_resilient_triple", ("self_ms",)),
    # traced only to count the three-draw attempts behind accept_ratio
    ("rand.random_resilient", "bentkit.rand", "random_resilient", ()),
    ("rand.XorShift64Star.next_u64", "bentkit.rand", "XorShift64Star.next_u64", ("calls",)),
]

UNITS = {"calls": "count", "self_ms": "ms"}
JOB = "job"  # the root span of each job


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {"cli.import_ms": "ms"}
    for name, _, _, quantities in LAYERS:
        out.update({f"{name}.{q}": UNITS[q] for q in quantities})
    out["rand.random_resilient_triple.accept_ratio"] = "ratio"
    out["trace.job_p50_ms"] = "ms"
    return out


class Tracer:
    def __init__(self, job_clock=time.perf_counter):
        self.names = [JOB] + [layer[0] for layer in LAYERS]
        self.layer = array("i")
        self.job = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.job_clock = job_clock
        self.job_time = array("d")
        self._stack: list[int] = []
        self._job = -1

    def _open(self, layer: int) -> int:
        sid = len(self.layer)
        self.layer.append(layer)
        self.job.append(self._job)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def install(self) -> None:
        """Wrap each listed function wherever a bentkit module binds it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "bentkit"]
        for layer, (_, module, path, _) in enumerate(LAYERS, start=1):
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            if outer:  # a method: its class is shared by every module
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def run_job(self, job: int, fn, *args):
        self._job = job
        t0 = self.job_clock()
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.job_time.append(self.job_clock() - t0)
            self._job = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), job_time=np.frombuffer(self.job_time),
                 **self.arrays())

    def metrics(self, jobs: int) -> dict[str, float]:
        """Per-job call counts and median self times of every layer."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        self_time = duration.copy()
        child = a["parent"] >= 0
        np.subtract.at(self_time, a["parent"][child], duration[child])
        job = a["job"]
        counted = job >= 0
        out: dict[str, float] = {}
        for layer, name in enumerate(self.names[1:], start=1):
            mine = counted & (a["layer"] == layer)
            per_job = np.bincount(job[mine], weights=self_time[mine], minlength=jobs)
            out[f"{name}.calls"] = int(np.count_nonzero(mine)) / jobs
            out[f"{name}.self_ms"] = float(np.median(per_job)) * 1e3
        out["trace.job_p50_ms"] = float(np.median(self.job_time)) * 1e3
        draws = out["rand.random_resilient.calls"]
        out["rand.random_resilient_triple.accept_ratio"] = (
            3 * out["rand.random_resilient_triple.calls"] / draws if draws else 0.0
        )
        units = metric_units()
        return {k: v for k, v in out.items() if k in units}
