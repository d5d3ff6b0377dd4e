"""driftalign benchmark: one closed-loop caller drives the public API.

    python3 benchmarks/run.py --workload paper_d10 --seed 1 --seconds 20 --trace 0

The pipeline is strictly sequential (each batch needs the state the previous
one left), so one caller sends the next op only after the previous returns.
An op is one ``process_batch`` call on a stream workload, or one
``run_all(seed=s, instances=1)`` on ``verify_oracle``. A run measures for at
least ``--seconds`` of loop time and at least the workload's ``min_ops`` ops
(``TRACE_MIN_OPS`` in a traced run).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a traced
and an untraced pipeline in lockstep on the same inputs, reports the
per-layer metrics of the traced one and the tracing overhead, and checks
that both produce identical outputs. The last line of standard output is
the JSON result; the lines before it are for people. The exit code is 1 when
a correctness check fails or the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Acceptance pin for gfk_gmean_fb on the seed-0 reference stream, in percent
# (tests/test_acceptance.py), and its window.
PIN_FINAL = 94.4667
PIN_TOL = 0.2
# A run stops at this much loop time per lane even short of min_ops, which
# bounds a run's length when the machine runs slow.
LOOP_CAP_S = 50.0
# A traced run needs enough ops for per-layer medians, not for a p90; its
# call counts are taken over exactly this many first ops.
TRACE_MIN_OPS = 20
# A set-up sample is taken after the op that ends each such stretch of loop
# time, so that the samples span the run rather than a few seconds at its
# ends. One sample repeats the set-up back to back until this much time has
# passed and reports the mean per call, so that it spans several of the
# host's speed flips instead of landing on one level (README, "Noise on a
# shared host").
SETUP_EVERY_S = 4.0
SETUP_SAMPLE_S = 0.2

# Gated end-to-end metrics. The op-time median and the ops-per-second rate
# are printed for people but not gated: on a host whose speed flips between
# two levels, the median of a run lands on either level and the rate follows
# the share of time spent on each, so neither repeats across runs. The p90
# lies on the slow level in nearly every run (README, "Noise on a shared host").
END_TO_END = (
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("final_acc", "%"),
    ("peak_alloc_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# (metric, unit, span, stat). Stats: ms and self_ms are medians over ops of
# the time in the span per op; calls is calls per op over the first
# TRACE_MIN_OPS ops; peak_mb is the most bytes one call allocated in the
# memory pass; init_ms is the median over init_pipeline calls.
PER_LAYER = (
    ("pipeline.process_batch.ms", "ms", "pipeline.process_batch", "ms"),
    ("pipeline.process_batch.self_ms", "ms", "pipeline.process_batch", "self_ms"),
    ("pipeline.init_pipeline.ms", "ms", "pipeline.init_pipeline", "init_ms"),
    ("classifiers.train.ms", "ms", "classifiers.train", "init_ms"),
    ("classifiers.predict.ms", "ms", "classifiers.predict", "ms"),
    ("classifiers.predict.peak_mb", "MB", "classifiers.predict", "peak_mb"),
    ("subspaces.pca_subspace.ms", "ms", "subspaces.pca_subspace", "ms"),
    ("subspaces.pca_subspace.init_ms", "ms", "subspaces.pca_subspace", "init_ms"),
    ("subspaces.pca_subspace.peak_mb", "MB", "subspaces.pca_subspace", "peak_mb"),
    ("subspaces.complement.ms", "ms", "subspaces.complement", "ms"),
    ("subspaces.complement.init_ms", "ms", "subspaces.complement", "init_ms"),
    ("subspaces.complement.calls", "count", "subspaces.complement", "calls"),
    ("subspaces.principal_system.ms", "ms", "subspaces.principal_system", "ms"),
    ("subspaces.principal_system.calls", "count", "subspaces.principal_system", "calls"),
    ("subspaces.qr_polish.calls", "count", "subspaces.qr_polish", "calls"),
    ("subspace_mean.update_mean.ms", "ms", "subspace_mean.update_mean", "ms"),
    ("subspace_mean.update_mean.self_ms", "ms", "subspace_mean.update_mean", "self_ms"),
    ("subspace_mean.update_mean.peak_mb", "MB", "subspace_mean.update_mean", "peak_mb"),
    ("flow_kernel.flow_kernel.ms", "ms", "flow_kernel.flow_kernel", "ms"),
    ("flow_kernel.flow_kernel.self_ms", "ms", "flow_kernel.flow_kernel", "self_ms"),
    ("flow_kernel.flow_kernel.peak_mb", "MB", "flow_kernel.flow_kernel", "peak_mb"),
    ("flow_kernel.validate.ms", "ms", "flow_kernel.validate", "ms"),
    ("flow_kernel.apply_feedback.ms", "ms", "flow_kernel.apply_feedback", "ms"),
    ("flow_kernel.apply_adapt.ms", "ms", "flow_kernel.apply_adapt", "ms"),
    ("flow_kernel.quadrature_kernel.ms", "ms", "flow_kernel.quadrature_kernel", "ms"),
    ("subspace_mean.karcher_mean.ms", "ms", "subspace_mean.karcher_mean", "ms"),
    ("verify.run_all.ms", "ms", "verify.run_all", "ms"),
    ("verify.geodesic_suite.ms", "ms", "verify.geodesic_suite", "ms"),
    ("verify.mean_suite.ms", "ms", "verify.mean_suite", "ms"),
    ("verify.kernel_suite.ms", "ms", "verify.kernel_suite", "ms"),
)


def import_package():
    """Import driftalign from this checkout's src/, or exit with code 1."""
    sys.path.insert(0, str(SRC))
    try:
        import driftalign
        import driftalign.verify  # noqa: F401 - not imported by the package itself
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import driftalign from {SRC}: {exc}")
    if Path(driftalign.__file__).resolve().parent.parent != SRC:
        sys.exit(f"benchmark: driftalign imported from {driftalign.__file__}, not from {SRC}")
    return driftalign


def blas_info() -> tuple[str, int | None]:
    """BLAS library name and the thread count it runs with by default."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown", None
    name = str(blas.get("name", "unknown"))
    lib_dirs = [Path(np.__file__).parent.parent / "numpy.libs"]
    if blas.get("lib directory"):
        lib_dirs.append(Path(blas["lib directory"]))
    for lib_dir in lib_dirs:
        for lib in sorted(lib_dir.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return name, int(fn())
    return name, None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


class Lane:
    """One caller's view of the program: state carried across its ops.

    With a tracer, every call is made with the tracer installed and leaves
    one record per op in ``op_records`` and per init in ``init_records``.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.op_records: list[dict] = []
        self.init_records: list[dict] = []

    def timed(self, root: str, records: list, fn, *args):
        """(seconds, fn(*args)); an exception from fn propagates."""
        tracer = self.tracer
        if tracer is None:
            start = time.perf_counter()
            result = fn(*args)
            return time.perf_counter() - start, result
        tracer.install()
        try:
            start = time.perf_counter()
            result = tracer.call(root, fn, *args)
            return time.perf_counter() - start, result
        finally:
            tracer.remove()
            records.append(tracer.take())


class StreamLane(Lane):
    def __init__(self, da, config, tracer=None) -> None:
        super().__init__(tracer)
        self.da = da
        self.config = config
        self.state = None

    def init(self, source) -> float:
        seconds, self.state = self.time_init(source)
        return seconds

    def time_init(self, source):
        """(seconds, state) of one init_pipeline call; the lane's state is kept."""
        return self.timed("pipeline.init_pipeline", self.init_records, self.da.init_pipeline, source, self.config)

    def op(self, batch):
        """(seconds, predictions); predictions is None when the batch failed."""
        try:
            seconds, (predictions, state, _) = self.timed(
                "pipeline.process_batch", self.op_records, self.da.process_batch, self.state, batch
            )
        except Exception:
            traceback.print_exc()
            return None, None
        self.state = state
        return seconds, predictions

    def score(self, batch, predictions, n_classes: int) -> float | None:
        """Batch accuracy, or None when the predictions are not valid labels."""
        import numpy as np

        if predictions is None:
            return None
        p = np.asarray(predictions)
        if p.shape != (batch.n_rows,) or not np.issubdtype(p.dtype, np.integer):
            return None
        if p.size and (p.min() < 0 or p.max() >= n_classes):
            return None
        return float(np.mean(p == batch.true_labels))


class VerifyLane(Lane):
    def __init__(self, tracer=None) -> None:
        super().__init__(tracer)
        self.run_all = sys.modules["driftalign.verify"].run_all

    def op(self, seed: int):
        try:
            return self.timed("verify.run_all", self.op_records, self.run_all, seed, 1)
        except Exception:
            traceback.print_exc()
            return None, None

    @staticmethod
    def score(_seed, checks, _n_classes) -> float | None:
        """Share of properties that passed."""
        if not checks:
            return None
        return sum(1 for c in checks if c.passed) / len(checks)


def same_output(a, b) -> bool:
    import numpy as np

    if isinstance(a, list):
        return a == b
    return a is not None and b is not None and a.dtype == b.dtype and np.array_equal(a, b)


def measure(inputs, lanes, seconds: float, min_ops: int, n_classes: int, setup=None) -> dict:
    """Closed loop over the inputs until both limits are met.

    ``lanes[0]`` is the measured lane. A second lane runs the same ops in
    lockstep, each op alternating which lane goes first, and its outputs must
    match. Loop time excludes input generation, which happens in ``next()``,
    and the ``setup()`` samples taken every ``SETUP_EVERY_S`` of loop time.
    """
    times = [[] for _ in lanes]
    setup_times = []
    setup_due = 0.0
    scores: list[float | None] = []
    mismatches = 0
    loop_s = 0.0
    ops = 0
    for kind, item in inputs:
        start = time.perf_counter()
        if kind == "init":
            for lane in lanes:
                lane.init(item)
        else:
            order = range(len(lanes)) if ops % 2 == 0 else reversed(range(len(lanes)))
            results = {}
            for i in order:
                results[i] = lanes[i].op(item)
            for i, (op_s, _) in results.items():
                if op_s is not None:
                    times[i].append(op_s)
            output = results[0][1]
            scores.append(lanes[0].score(item, output, n_classes))
            if len(lanes) > 1 and not same_output(output, results[1][1]):
                mismatches += 1
        loop_s += time.perf_counter() - start
        if kind == "op":
            ops += 1
            if setup and loop_s >= setup_due:
                setup_times.append(setup())
                setup_due = loop_s + SETUP_EVERY_S
            if (loop_s >= seconds and ops >= min_ops) or loop_s >= LOOP_CAP_S * len(lanes):
                break
    return {"times": times, "setup_times": setup_times, "scores": scores, "mismatches": mismatches,
            "loop_s": loop_s, "ops": ops}


def fault_check(seed: int) -> tuple[str, bool, str]:
    """The verify suite must catch a flipped kernel cross term."""
    run_all = sys.modules["driftalign.verify"].run_all
    checks = run_all(seed=seed, instances=1, inject_fault="gfk-cross-sign")
    caught = any(c.name == "kernel_matches_quadrature" and not c.passed for c in checks)
    return "fault_gfk_cross_sign_caught", caught, f"seed {seed}"


def pin_check(da, workloads) -> tuple[str, bool, str]:
    """The first pass of paper_d10 at seed 0 reproduces the acceptance pin."""
    wl = workloads.WORKLOADS["paper_d10"]
    bundle = wl.make(0)
    lane = StreamLane(da, wl.config)
    lane.init(bundle.source)
    accs = [lane.score(b, lane.op(b)[1], bundle.source.n_classes) for b in bundle.stream]
    scored = [a for a in accs if a is not None]
    final = 100.0 * sum(scored) / len(scored) if scored else float("nan")
    ok = len(scored) == len(accs) and abs(final - PIN_FINAL) <= PIN_TOL
    return "paper_d10_seed0_pin", ok, f"final {final:.4f} vs pin {PIN_FINAL} +- {PIN_TOL}"


def median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def per_layer(lane: Lane, peak_bytes: dict, min_ops: int, overhead: float) -> dict:
    ops = lane.op_records
    inits = lane.init_records
    out = {}
    for metric, unit, span, stat in PER_LAYER:
        if stat == "ms":
            value = median_ms([r.get(span, (0.0,))[0] for r in ops])
        elif stat == "self_ms":
            value = median_ms([r.get(span, (0.0, 0.0))[1] for r in ops])
        elif stat == "init_ms":
            value = median_ms([r.get(span, (0.0,))[0] for r in inits])
        elif stat == "calls":
            first = ops[:min_ops]
            value = sum(r.get(span, (0, 0, 0))[2] for r in first) / max(len(first), 1)
        else:
            value = peak_bytes.get(span, 0) / 1e6
        out[metric] = {"value": value, "unit": unit}
    out["tracing.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return out


def self_shares(lane: Lane) -> dict:
    """Each span's share of the op's wall time, by self time, over all ops."""
    totals: dict[str, float] = {}
    for record in lane.op_records:
        for span, (_, self_s, _) in record.items():
            totals[span] = totals.get(span, 0.0) + self_s
    # apply_feedback/apply_adapt re-label apply_transform's time.
    totals.pop("flow_kernel.apply_transform", None)
    whole = sum(totals.values())
    return {span: s / whole for span, s in sorted(totals.items(), key=lambda kv: -kv[1])} if whole else {}


def import_time_s() -> float:
    """Wall time for a fresh interpreter to import the package."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import driftalign.verify"],
        check=True, cwd=ROOT,
    )
    return time.perf_counter() - start


def end_to_end(result: dict, setup_times, peak_alloc: int, scores, failed: int, attempted: int) -> dict:
    times = result["times"][0]
    values = {
        "op_ms_p90": 1e3 * statistics.quantiles(times, n=10)[8] if len(times) >= 2 else 0.0,
        "setup_s": statistics.median(setup_times),
        "final_acc": 100.0 * sum(scores) / len(scores) if scores else 0.0,
        "peak_alloc_mb": peak_alloc / 1e6,
        "ok_ratio": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run(args) -> int:
    da = import_package()
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    is_stream = isinstance(wl, workloads.StreamWorkload)
    traced = args.trace == 1
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    def lane(tracer=None):
        return StreamLane(da, wl.config, tracer) if is_stream else VerifyLane(tracer)

    # Warm-up: a discarded prefix, so lazy BLAS set-up stays out of op times.
    if is_stream:
        first = workloads.StreamInputs(wl, args.seed).bundle(0)
        n_classes = first.source.n_classes
        warm = lane()
        warm.init(first.source)
        for batch in first.stream[: wl.warmup_ops]:
            warm.op(batch)
    else:
        n_classes = 0
        lane().op(args.seed)

    # Set-up samples, taken during the loop: init_pipeline on the first
    # pass's source (the state is immutable, so repeats are safe). The verify
    # path has no init; its set-up is a fresh interpreter importing the
    # package.
    main_lane = lane(Tracer() if traced else None)

    def reinit() -> float:
        return main_lane.time_init(first.source)[0]

    if is_stream:
        once = reinit
    elif traced:
        once = None  # a traced verify run reports no end-to-end metric
    else:
        once = import_time_s

    def setup() -> float:
        calls, spent = 0, 0.0
        while calls == 0 or spent < SETUP_SAMPLE_S:
            spent += once()
            calls += 1
        return spent / calls

    # The measured loop starts with a fresh init_pipeline. Traced runs carry
    # an untraced reference lane in lockstep.
    inputs = workloads.StreamInputs(wl, args.seed) if is_stream else workloads.VerifyInputs(args.seed)
    lanes = [main_lane, lane()] if traced else [main_lane]
    min_ops = TRACE_MIN_OPS if traced else wl.min_ops
    result = measure(inputs, lanes, args.seconds, min_ops, n_classes, setup if once else None)
    print(f"inputs generated in {inputs.gen_s:.3f} s, outside the timed loop")
    setup_times = result["setup_times"]

    # Memory pass, untimed, under tracemalloc: init and the warm-up prefix,
    # which includes the feedback batches; later batches have the same shapes.
    mem_tracer = Tracer() if traced else None
    mem_lane = lane(mem_tracer)
    tracemalloc.start()
    try:
        if is_stream:
            mem_lane.init(first.source)
            for batch in first.stream[: wl.warmup_ops]:
                mem_lane.op(batch)
        else:
            mem_lane.op(args.seed)
        peak_alloc = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    checks = [fault_check(args.seed)]
    if wl.name == "paper_d10":
        checks.append(pin_check(da, workloads))
    if traced:
        checks.append(("traced_outputs_identical", result["mismatches"] == 0,
                       f"{result['mismatches']} of {result['ops']} ops differ"))
    for name, ok, detail in checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")

    # A stream op fails when it raises, is skipped or returns invalid labels;
    # a verify op fails when any property fails.
    scores = result["scores"]
    failed = sum(1 for s in scores if s is None or (not is_stream and s < 1.0))
    failed += sum(1 for _, ok, _ in checks if not ok)
    attempted = result["ops"] + len(checks)
    times = result["times"][0]
    print(f"samples ops={result['ops']} timed={len(times)} beyond_p90={len(times) - int(0.9 * len(times))} "
          f"loop_s={result['loop_s']:.3f} setup_samples={len(setup_times)}")
    if result["ops"] < min_ops:
        print(f"note: loop capped at {LOOP_CAP_S * len(lanes)} s with {result['ops']} < {min_ops} ops")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted}: ops and checks)")
    ungated = {"op_ms_p50": median_ms(times), "ops_per_s": result["ops"] / result["loop_s"]}
    print(f"ungated op_ms_p50 {ungated['op_ms_p50']:.6g} ms, ops_per_s {ungated['ops_per_s']:.6g} 1/s")

    shares = {}
    if traced:
        plain = result["times"][1]
        overhead = statistics.median(times) / statistics.median(plain) if times and plain else 0.0
        print(f"tracing overhead: traced op_ms_p50 {median_ms(times):.4f} ms vs untraced "
              f"{median_ms(plain):.4f} ms, ratio {overhead:.4f}")
        shares = self_shares(main_lane)
        print("self_time_shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
        metrics = per_layer(main_lane, mem_tracer.peak_bytes, min_ops, overhead)
    else:
        counted = [s for s in scores[: wl.min_ops] if s is not None]
        metrics = end_to_end(result, setup_times, peak_alloc, counted, failed, attempted)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")

    correct = failed == 0
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        record = dict(line, workload=wl.name, seed=args.seed, trace=args.trace, env=env, ungated=ungated,
                      self_time_shares=shares, checks=[list(c) for c in checks])
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_d10", "svm_waveform", "verify_oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum loop time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", help="also write the full record as JSON")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
