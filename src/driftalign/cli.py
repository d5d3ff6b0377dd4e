"""Command line interface: run one variant, run the ablation ladder, verify.

Exit codes: 0 success, 1 usage error, 2 data error (a DataError, a
NumericalError or an unreadable file), 3 config error (a ConfigError), 4
verification failure. Any other exception is a bug and ends with a
traceback. Reports are JSON; passing --zero-timings writes all timing fields
as zero so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from .classifiers import KnnParams, SvmParams
from .errors import ConfigError, DataError, NumericalError
from .pipeline import VARIANT_FLAGS, AccuracyTrace, PipelineConfig, run_stream
from .streams import DatasetBundle, StreamSpec, gen_rotating_drift, gen_waveform, load_csv
from .verify import run_all


class UsageError(Exception):
    """Raised instead of argparse's default SystemExit(2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 — argparse hook
        raise UsageError(message)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", metavar="PATH", help="CSV with feature columns plus a trailing integer label")
    src.add_argument(
        "--gen",
        choices=("waveform21", "waveform40", "rotating"),
        help="generate a synthetic dataset instead of reading a file",
    )
    p.add_argument("--source-frac", type=float, default=0.2, help="leading fraction of CSV rows used as source")
    p.add_argument("--skip-header", action="store_true", help="skip one CSV header row")
    p.add_argument("--batch", type=int, default=50, help="mini-batch size")
    p.add_argument("--batch-count", type=int, default=60, help="number of generated batches")
    p.add_argument("--source-size", type=int, default=500, help="number of generated source rows")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--rotation", type=float, default=math.pi / 3, help="total drift rotation in radians (rotating)")
    p.add_argument("--classes", type=int, default=2, help="class count (rotating)")
    p.add_argument("--dim", type=int, default=10, help="ambient dimension (rotating)")


def _out_path(path: str) -> str:
    """argparse type for --out, so that an unwritable path fails before any data is read."""
    if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"{path!r} is empty, a directory or in a missing directory")
    return path


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=3, help="subspace dimension (must satisfy k < d/2)")
    p.add_argument("--classifier", choices=("knn", "svm"), default="knn")
    p.add_argument("--knn-neighbors", type=int, default=1)
    p.add_argument("--svm-lambda", type=float, default=1e-4)
    p.add_argument("--svm-epochs", type=int, default=100)
    p.add_argument("--svm-seed", type=int, default=0)
    p.add_argument("--out", required=True, type=_out_path, metavar="PATH", help="where to write the JSON report")
    p.add_argument("--zero-timings", action="store_true", help="write timing fields as 0.0 for reproducible bytes")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftalign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one adaptation variant over a stream")
    _add_data_args(run)
    _add_pipeline_args(run)
    run.add_argument(
        "--variant",
        required=True,
        choices=tuple(VARIANT_FLAGS),
        help="ablation variant to run",
    )
    run.set_defaults(func=cmd_run)

    ablate = sub.add_parser("ablate", help="run the full ablation ladder over one stream")
    _add_data_args(ablate)
    _add_pipeline_args(ablate)
    ablate.set_defaults(func=cmd_ablate)

    verify = sub.add_parser("verify", help="run the seeded self-verification suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--instances", type=int, default=None, help="override instances per property")
    verify.add_argument(
        "--inject-fault",
        choices=("gfk-cross-sign",),
        default=None,
        help="deliberately break one computation to prove the suite can fail",
    )
    verify.set_defaults(func=cmd_verify)
    return parser


def _load_bundle(args: argparse.Namespace) -> tuple[DatasetBundle, dict]:
    """The bundle the data flags name, and the report's echo of those flags."""
    if args.csv is not None:
        data = {
            "csv": args.csv,
            "source_fraction": args.source_frac,
            "skip_header": args.skip_header,
        }
        return load_csv(args.csv, args.source_frac, args.batch, args.skip_header), data
    spec = StreamSpec(
        batch_size=args.batch,
        batch_count=args.batch_count,
        seed=args.seed,
        source_size=args.source_size,
    )
    data = {
        "generator": args.gen,
        "batch_count": args.batch_count,
        "source_size": args.source_size,
        "seed": args.seed,
    }
    if args.gen == "waveform21":
        return gen_waveform(spec, "w21"), data
    if args.gen == "waveform40":
        return gen_waveform(spec, "w40"), data
    data["rotation"] = args.rotation
    data["classes"] = args.classes
    data["dim"] = args.dim
    return gen_rotating_drift(spec, classes=args.classes, d=args.dim, total_rotation=args.rotation), data


def _variant_payload(name: str, classifier: str, trace: AccuracyTrace, zero_timings: bool) -> dict:
    seconds_per_step = {
        step: (0.0 if zero_timings else seconds)
        for step, seconds in sorted(trace.step_seconds.items())
    }
    return {
        "name": name,
        "classifier": classifier,
        "per_batch": list(trace.per_batch),
        "running": list(trace.running),
        "final": trace.final,
        "seconds_total": sum(seconds_per_step.values()),
        "seconds_per_step": seconds_per_step,
    }


def _run_variants(args: argparse.Namespace, command: str, names: Sequence[str]) -> int:
    bundle, data = _load_bundle(args)
    if args.classifier == "knn":
        params = KnnParams(n_neighbors=args.knn_neighbors)
    else:
        params = SvmParams(regularization=args.svm_lambda, epochs=args.svm_epochs, seed=args.svm_seed)
    configs = [PipelineConfig(sub_dim=args.k, variant=name, classifier=params) for name in names]
    traces = run_stream(bundle.source, bundle.stream, configs)
    variants = [_variant_payload(n, args.classifier, t, args.zero_timings) for n, t in zip(names, traces)]
    report_config = {
        "command": command,
        "data": data,
        "batch_size": args.batch,
        "k": args.k,
        "classifier": args.classifier,
        "knn_neighbors": args.knn_neighbors,
        "svm": {
            "regularization": args.svm_lambda,
            "epochs": args.svm_epochs,
            "seed": args.svm_seed,
        },
        "zero_timings": args.zero_timings,
    }
    if command == "run":
        report_config["variant"] = args.variant
    payload = {"config": report_config, "variants": variants}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for entry in variants:
        final = "n/a" if entry["final"] is None else f"{entry['final']:.4f}"
        print(f"{entry['name']:<14} {entry['classifier']:<4} final accuracy {final}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    return _run_variants(args, "run", [args.variant])


def cmd_ablate(args: argparse.Namespace) -> int:
    return _run_variants(args, "ablate", list(VARIANT_FLAGS))


def cmd_verify(args: argparse.Namespace) -> int:
    checks = run_all(seed=args.seed, instances=args.instances, inject_fault=args.inject_fault)
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<{width}}  {c.detail}")
    failures = [c for c in checks if not c.passed]
    if failures:
        names = ", ".join(c.name for c in failures)
        print(f"{len(failures)} of {len(checks)} properties failed: {names}", file=sys.stderr)
        return 4
    print(f"all {len(checks)} properties passed")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    # The bases carry the policy (see errors).
    except (DataError, NumericalError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
