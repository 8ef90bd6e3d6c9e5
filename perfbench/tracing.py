"""Per-layer spans for the traced benchmark run.

The traced run installs wrappers, from the benchmark's own files, around
the calls into each module of ``pderom``.  A wrapper records one span per
call: label, start, end and the enclosing span.  Spans stay in memory in
flat arrays and are written out when the round ends; the per-layer table
(calls, inclusive time, self time and computed work per
``<stage>.<module>.<function>``) is derived from them.

Each function is wrapped at the name its caller binds: patching only the
defining module would miss ``from ... import`` bindings.  Each wrapper
counts its own calls, so a binding that a refactor moves is caught by
:meth:`Tracer.unhit` even when another binding shares its span label.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

import pderom.data
import pderom.diffmath
import pderom.inference
import pderom.losses
import pderom.training
from pderom.diffmath import DualBatch
from pderom.solvers import SolverSpec

STAGES = ("gen", "train", "forecast")

# (object holding the binding, attribute, span label, workloads that reach
# it: None for all, else "diffusion" / "burgers" / "sparse" / "hyper" /
# "siren").  The benchmark calls the pipeline entry points through these
# module attributes too, so they are spans of their own.
BINDINGS = (
    (pderom.data, "gen_diffusion", "data.gen_diffusion", "diffusion"),
    (pderom.data, "gen_burgers", "data.gen_burgers", "burgers"),
    (pderom.data, "subsample_grid", "data.subsample_grid", "sparse"),
    (pderom.data, "save_dataset", "data.save_dataset", None),
    (pderom.data, "load_dataset", "data.load_dataset", None),
    (pderom.data, "save_model", "data.save_model", None),
    (pderom.data, "load_model", "data.load_model", None),
    (pderom.data, "rollout", "solvers.rollout", None),
    (SolverSpec, "step", "solvers.step", None),
    (pderom.training, "train", "training.train", None),
    (pderom.training, "batch_terms", "losses.batch_terms", None),
    (pderom.training, "backward", "diffmath.backward", None),
    (pderom.training, "adamw_step", "training.adamw_step", None),
    (pderom.losses, "time_derivative", "solvers.time_derivative", None),
    (pderom.losses, "qr_lstsq", "diffmath.qr_lstsq", None),
    (pderom.losses, "decode", "networks.decode", "siren"),
    (pderom.losses, "affine_decomposition", "networks.affine_decomposition", "hyper"),
    (pderom.losses, "dynamics_eval", "networks.dynamics_eval", None),
    (pderom.inference, "forecast", "inference.forecast", None),
    (pderom.inference, "invert", "inference.invert", None),
    (pderom.inference, "integrate", "inference.integrate", None),
    (pderom.inference, "decode", "networks.decode", "siren"),
    (pderom.inference, "affine_decomposition", "networks.affine_decomposition", "hyper"),
    (pderom.inference, "dynamics_eval", "networks.dynamics_eval", None),
    (pderom.inference, "adamw_step", "training.adamw_step", None),
    (pderom.inference, "backward", "diffmath.backward", None),
    (pderom.inference, "field_rnmse", "losses.field_rnmse", None),
)

# The tape operations the package calls as ``dm.<op>``, with the
# workloads that reach them (same tags as above).  ``dm.broadcast_to``
# is left out: no workload reaches it (dynamics_eval only broadcasts
# beta when its batch differs from the codes').
DIFFMATH_OPS = {
    "add": None, "sub": None, "mul": None, "div": None, "exp": "burgers",
    "sqrt": None, "sin": None, "cos": "hyper", "sigmoid": None,
    "softplus": None, "maximum": "burgers", "minimum": "burgers",
    "pow_const": "burgers", "matmul": None, "sum_": None, "mean_": None,
    "reshape": None, "transpose": None, "concat": None,
    "sine_affine": "siren", "take_rows": None, "take_along": None,
    "slice_": None, "pad_zero": "diffusion", "norm2": None,
}


def reaches(tag, workload) -> bool:
    """Whether a binding tagged ``tag`` is on ``workload``'s call path."""
    return tag is None or tag in (workload.pde, workload.architecture) or (
        tag == "sparse" and workload.sparse_fraction is not None
    )


def _size(x) -> int:
    """Elements a value holds, counting every tangent of a dual."""
    if isinstance(x, DualBatch):
        return x.value.data.size + x.tangent.data.size
    return np.asarray(getattr(x, "data", x)).size


def _inner(x) -> int:
    x = x.value if isinstance(x, DualBatch) else x
    return np.shape(getattr(x, "data", x))[-1]


def matmul_flops(args, out) -> float:
    """2 * K per output element (tangents included); computed, not measured."""
    a, b = args[0], args[1]
    products = _size(out)
    if isinstance(a, DualBatch) and isinstance(b, DualBatch):
        products += out.tangent.data.size  # the product rule makes two
    return 2.0 * _inner(a) * products


def sine_affine_flops(args, out) -> float:
    return 2.0 * _inner(args[0]) * out.data.size


def bytes_written(args, out) -> float:
    return float(os.path.getsize(args[1]))


WORK = {
    "diffmath.matmul": matmul_flops,
    "diffmath.sine_affine": sine_affine_flops,
    "data.save_dataset": bytes_written,
    "data.save_model": bytes_written,
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._saved = []  # (holder, attribute, original) to restore
        # per wrapped binding: (name, span label, workload tag) and calls
        self.bindings: list[tuple[str, str, str | None]] = []
        self.hits: list[int] = []

    def _label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _open(self, lid: int) -> int:
        i = len(self.start)
        self.label.append(lid)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        i = self._open(self._label_id(label))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, label: str, bid: int):
        lid = self._label_id(label)
        work = WORK.get(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.hits[bid] += 1
            i = tracer._open(lid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if work is not None:
                tracer.work[i] = work(args, out)
            return out

        return traced

    def install(self) -> None:
        ops = [(pderom.diffmath, op, f"diffmath.{op}", tag)
               for op, tag in DIFFMATH_OPS.items()]
        for holder, attr, label, tag in (*BINDINGS, *ops):
            original = getattr(holder, attr)  # a moved binding fails here
            self._saved.append((holder, attr, original))
            self.bindings.append((f"{holder.__name__}.{attr}", label, tag))
            self.hits.append(0)
            setattr(holder, attr, self.wrap(original, label, len(self.hits) - 1))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def unhit(self, workload) -> list[str]:
        """Wrapped bindings this workload should reach but never called."""
        return sorted(name for (name, _, tag), calls in zip(self.bindings, self.hits)
                      if calls == 0 and reaches(tag, workload))

    def unreached(self, workload) -> list[str]:
        """Span labels that no binding on this workload's call path records."""
        labels = {label for _, label, _ in self.bindings}
        return sorted(labels - {label for _, label, tag in self.bindings
                                if reaches(tag, workload)})

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), label=np.array(self.label),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end), work=np.array(self.work))

    def table(self) -> dict:
        """Per-layer metrics ``<stage>.<module>.<function>.<stat>``.

        ``s`` is inclusive and ``self_s`` exclusive time.  In the forecast
        stage ``networks.decode`` counts only decodes outside ``invert``
        (the final decode); ``inference.integrate.nfev`` counts dynamics
        evaluations under ``integrate``.
        """
        label = np.array(self.label, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        work = np.array(self.work)
        n = len(label)
        nested = parent >= 0
        children = np.zeros(n)
        np.add.at(children, parent[nested], dur[nested])
        self_t = dur - children

        ids = self._ids
        stage_of = {ids[s]: s for s in STAGES if s in ids}
        invert = ids.get("inference.invert", -2)
        integrate = ids.get("inference.integrate", -2)
        stage = [None] * n
        under_invert = np.zeros(n, dtype=bool)
        under_integrate = np.zeros(n, dtype=bool)
        for i in range(n):  # a parent always precedes its children
            p = parent[i]
            if p < 0:
                stage[i] = stage_of.get(label[i])
            else:
                stage[i] = stage[p]
                under_invert[i] = under_invert[p] or label[p] == invert
                under_integrate[i] = under_integrate[p] or label[p] == integrate

        rows: dict[str, list] = {}
        for i in range(n):
            st, lab = stage[i], self.labels[label[i]]
            if st is None or lab in STAGES:
                continue
            if st == "forecast" and lab == "networks.decode" and under_invert[i]:
                continue
            row = rows.setdefault(f"{st}.{lab}", [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += self_t[i]
            row[3] += work[i]

        out: dict[str, float] = {}
        for key, (calls, incl, excl, w) in sorted(rows.items()):
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = incl
            out[f"{key}.self_s"] = excl
            if key.split(".", 1)[1] in ("diffmath.matmul", "diffmath.sine_affine"):
                out[f"{key}.gflop"] = w / 1e9
        for st in STAGES:
            written = sum(rows.get(f"{st}.data.{f}", [0, 0, 0, 0])[3]
                          for f in ("save_dataset", "save_model"))
            out[f"{st}.data.bytes_written"] = written
        dyn = ids.get("networks.dynamics_eval", -2)
        out["forecast.inference.integrate.nfev"] = int(sum(
            1 for i in range(n)
            if label[i] == dyn and under_integrate[i] and stage[i] == "forecast"
        ))
        return out
