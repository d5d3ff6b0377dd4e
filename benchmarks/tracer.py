"""Outside-in tracing of driftalign's layers, without touching the package.

Every driftalign module calls its collaborators through names bound in its
own globals (``from .subspaces import pca_subspace``), so a call made by
module M is found in ``sys.modules["driftalign.M"].__dict__``. The tracer
swaps those bindings for timing wrappers while it is installed and puts the
originals back when it is removed. The package code itself is unchanged.

Spans are folded into one record per op as they close: for each span name,
the seconds spent in it, the seconds minus its wrapped children (self time)
and the call count. With ``tracemalloc`` running, each span also records the
peak number of bytes allocated above the level at its entry.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# (module whose globals hold the binding, attribute, span name). The span is
# named after the module that defines the function. Bindings absent from the
# package under test are skipped, so their metrics read 0.
PATCHES = (
    ("pipeline", "pca_subspace", "subspaces.pca_subspace"),
    ("pipeline", "complement", "subspaces.complement"),
    ("pipeline", "train", "classifiers.train"),
    ("pipeline", "predict", "classifiers.predict"),
    ("pipeline", "init_mean", "subspace_mean.init_mean"),
    ("pipeline", "update_mean", "subspace_mean.update_mean"),
    ("pipeline", "flow_kernel", "flow_kernel.flow_kernel"),
    ("pipeline", "apply_transform", "flow_kernel.apply_transform"),
    ("subspace_mean", "geodesic", "subspaces.geodesic"),
    ("subspace_mean", "evaluate", "subspaces.evaluate"),
    ("subspace_mean", "principal_system", "subspaces.principal_system"),
    ("subspace_mean", "complement", "subspaces.complement"),
    ("subspaces", "principal_system", "subspaces.principal_system"),
    ("subspaces", "complement", "subspaces.complement"),
    ("subspaces", "_qr_polish", "subspaces.qr_polish"),
    ("flow_kernel", "principal_system", "subspaces.principal_system"),
    ("flow_kernel", "TransformKernel", "flow_kernel.validate"),
    ("verify", "geodesic_suite", "verify.geodesic_suite"),
    ("verify", "mean_suite", "verify.mean_suite"),
    ("verify", "kernel_suite", "verify.kernel_suite"),
    ("verify", "flow_kernel", "flow_kernel.flow_kernel"),
    ("verify", "quadrature_kernel", "flow_kernel.quadrature_kernel"),
    ("verify", "karcher_mean", "subspace_mean.karcher_mean"),
    ("verify", "update_mean", "subspace_mean.update_mean"),
    ("verify", "geodesic", "subspaces.geodesic"),
    ("verify", "complement", "subspaces.complement"),
)

# process_batch calls apply_transform twice when it feeds the previous kernel
# back (first the feedback multiply, then the adaptation) and once otherwise.
APPLY = "flow_kernel.apply_transform"
APPLY_FEEDBACK = "flow_kernel.apply_feedback"
APPLY_ADAPT = "flow_kernel.apply_adapt"


class Tracer:
    """Times wrapped calls and folds them into one record per op."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._record: dict[str, list[float]] = {}
        self._applies: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        # Largest bytes allocated inside one call of each span, over all calls.
        self.peak_bytes: dict[str, int] = {}

    def install(self) -> None:
        """Swap every present binding in PATCHES for a timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in PATCHES:
            module = sys.modules.get(f"driftalign.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def remove(self) -> None:
        """Restore the original bindings."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(span, fn, *args, **kwargs)

        return traced

    def call(self, span: str, fn, *args, **kwargs):
        """Run ``fn`` as one span of the current record."""
        # frame: [seconds in wrapped children, bytes at entry, peak bytes seen]
        memory = tracemalloc.is_tracing()
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame = [0.0, current, current]
        else:
            frame = [0.0, 0, 0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += seconds
            entry = self._record.setdefault(span, [0.0, 0.0, 0])
            entry[0] += seconds
            entry[1] += seconds - frame[0]
            entry[2] += 1
            if span == APPLY:
                self._applies.append(seconds)
            if memory:
                peak = max(frame[2], tracemalloc.get_traced_memory()[1])
                self.peak_bytes[span] = max(self.peak_bytes.get(span, 0), peak - frame[1])
                if self._stack:
                    self._stack[-1][2] = max(self._stack[-1][2], peak)

    def take(self) -> dict[str, list[float]]:
        """Close the current record and return it: span -> [s, self s, calls]."""
        record, self._record = self._record, {}
        applies, self._applies = self._applies, []
        if applies:
            record[APPLY_ADAPT] = [applies[-1], applies[-1], 1]
        if len(applies) > 1:
            feedback = sum(applies[:-1])
            record[APPLY_FEEDBACK] = [feedback, feedback, len(applies) - 1]
        return record
