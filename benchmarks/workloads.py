"""The benchmark's workloads: what each op is and how its inputs are made.

A stream workload is a sequence of passes. Pass p is generated from seed
``seed + p``; each op is one ``process_batch`` call on the next batch. The
verify workload's op p is ``run_all(seed=seed + p, instances=1)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from driftalign import (
    DatasetBundle,
    PipelineConfig,
    StreamSpec,
    gen_rotating_drift,
    gen_waveform,
    variant_config,
)


@dataclass(frozen=True)
class StreamWorkload:
    name: str
    make: Callable[[int], DatasetBundle]  # seed -> one pass
    config: PipelineConfig
    # True: every pass is its own stream with a fresh init_pipeline.
    # False: one init on the first pass's source; later passes only extend
    # the stream, which is sound for a family without drift.
    init_per_pass: bool
    min_ops: int
    warmup_ops: int


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    min_ops: int


def _rotating(batch: int, batches: int, d: int) -> Callable[[int], DatasetBundle]:
    def make(seed: int) -> DatasetBundle:
        spec = StreamSpec(batch_size=batch, batch_count=batches, seed=seed, source_size=500)
        return gen_rotating_drift(spec, classes=2, d=d, total_rotation=math.pi / 3)

    return make


def _waveform40(seed: int) -> DatasetBundle:
    return gen_waveform(StreamSpec(batch_size=100, batch_count=50, seed=seed, source_size=500), "w40")


# min_ops: at least 100 per run so that ten samples lie beyond p90. final_acc
# is taken over exactly the first min_ops ops, so it repeats for a seed.
WORKLOADS = {
    # The acceptance reference stream; kNN predict dominates, geometry tiny.
    "paper_d10": StreamWorkload(
        name="paper_d10",
        make=_rotating(batch=50, batches=60, d=10),
        config=variant_config("gfk_gmean_fb", sub_dim=3),
        init_per_pass=True,
        min_ops=600,
        warmup_ops=20,
    ),
    # Pure-Python Pegasos training in set-up; no running mean, no feedback.
    "svm_waveform": StreamWorkload(
        name="svm_waveform",
        make=_waveform40,
        config=variant_config("gfk", sub_dim=10, classifier="svm"),
        init_per_pass=False,
        min_ops=500,
        warmup_ops=20,
    ),
    # The self-verification path; quadrature oracle dominates.
    "verify_oracle": VerifyWorkload(name="verify_oracle", min_ops=100),
}


class StreamInputs:
    """Iterates ("init", source) and ("op", batch) events, pass after pass.

    Generation happens inside ``next()``; its wall time is summed in
    ``gen_s`` so callers can keep it out of their timed region.
    """

    def __init__(self, workload: StreamWorkload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.gen_s = 0.0

    def bundle(self, p: int) -> DatasetBundle:
        start = time.perf_counter()
        bundle = self.workload.make(self.seed + p)
        self.gen_s += time.perf_counter() - start
        return bundle

    def __iter__(self) -> Iterator[tuple[str, object]]:
        p = 0
        while True:
            bundle = self.bundle(p)
            if p == 0 or self.workload.init_per_pass:
                yield "init", bundle.source
            for batch in bundle.stream:
                yield "op", batch
            p += 1


class VerifyInputs:
    """Iterates ("op", seed) events over consecutive seeds."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.gen_s = 0.0

    def __iter__(self) -> Iterator[tuple[str, object]]:
        p = 0
        while True:
            yield "op", self.seed + p
            p += 1
