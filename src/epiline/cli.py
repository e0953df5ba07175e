"""Command-line surface.

Commands: pairs, visualize, augment, bench, verify, sweep. Every command is
deterministic given its flags and seed, never mutates its input files, and
exits nonzero with a message on error. The EPILINE_THREADS environment
variable caps BLAS parallelism for the whole invocation, or says on stderr
why it could not.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import synthetic
from .attention import (
    AttentionConfig,
    augment_pipeline,
    read_weights,
    seeded_weights,
    write_weights,
)
from .cam_io import load_camera_pair
from .complexity import Strategy, blas_thread_cap, gmacs, run_benchmark
from .errors import EpilineError
from .pair_search import (
    SearchConfig,
    pair_set_from_dict,
    pair_set_to_dict,
    precision_sweep,
    search_pairs,
)
from .geometry import EpipolarLine, epipolar_line
from .sequences import FeatureMap, read_feature_map, write_feature_map
from .verify import run_all
from .viz import render_pair_images, write_ppm


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h_text, w_text = text.lower().split("x")
        h, w = int(h_text), int(w_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size must look like HxW, got {text!r}") from None
    if h < 1 or w < 1:
        raise argparse.ArgumentTypeError(f"size must be at least 1x1, got {text!r}")
    return h, w


def _add_cam_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--ref-cam", help="reference-view camera file", required=required)
    parser.add_argument("--src-cam", help="source-view camera file", required=required)
    parser.add_argument(
        "--size", type=_parse_size, required=required, help="image size as HxW, e.g. 64x80"
    )


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sk", type=float, default=0.1, help="slope rounding step")
    parser.add_argument("--sb", type=float, default=10.0, help="intercept rounding step (px)")
    parser.add_argument("--delta", type=float, default=1.0, help="source distance threshold (px)")
    parser.add_argument(
        "--min-cluster", type=int, default=2, help="smallest retained reference cluster"
    )


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        s_k=args.sk, s_b=args.sb, delta=args.delta, min_cluster_size=args.min_cluster
    )


def _load_pair(args):
    pair, _ = load_camera_pair(args.ref_cam, args.src_cam, args.size)
    return pair


def cmd_pairs(args) -> int:
    pair = _load_pair(args)
    pair_set = search_pairs(pair, _search_config(args))
    text = json.dumps(pair_set_to_dict(pair_set), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_visualize(args) -> int:
    if args.pairs_json:
        with open(args.pairs_json, "r", encoding="utf-8") as fh:
            pair_set = pair_set_from_dict(json.load(fh))
    else:
        if not (args.ref_cam and args.src_cam and args.size):
            raise EpilineError("visualize needs either --pairs-json or cameras plus --size")
        pair_set = search_pairs(_load_pair(args), _search_config(args))
    ref_img, src_img = render_pair_images(pair_set)
    write_ppm(f"{args.out}_ref.ppm", ref_img)
    write_ppm(f"{args.out}_src.ppm", src_img)
    return 0


def cmd_augment(args) -> int:
    pair = _load_pair(args)
    pair_set = search_pairs(pair, _search_config(args))
    h, w = pair.image_size

    weights = config = None
    if args.weights:
        weights, config = read_weights(args.weights)
    if args.features:
        ref_map = read_feature_map(args.features[0])
        src_map = read_feature_map(args.features[1])
    else:
        channels = config.channels if config else args.channels
        rng = np.random.default_rng(args.seed)
        ref_map = FeatureMap(synthetic.random_feature_map(rng, h, w, channels))
        src_map = FeatureMap(synthetic.random_feature_map(rng, h, w, channels))
    if config is None:
        channels = src_map.channels
        if channels % args.heads != 0:
            raise EpilineError(f"{channels} channels are not divisible by --heads {args.heads}")
        config = AttentionConfig(channels=channels, heads=args.heads)
        weights = seeded_weights(config, args.seed)
    elif config.channels != src_map.channels:
        raise EpilineError(
            f"weight file expects {config.channels} channels, features have "
            f"{src_map.channels}"
        )

    enhanced = augment_pipeline(ref_map, src_map, pair_set, weights, config)
    write_feature_map(args.out, enhanced)
    if args.symmetric:
        enhanced_ref = augment_pipeline(ref_map, src_map, pair_set, weights, config, side="ref")
        stem, dot, suffix = args.out.rpartition(".")
        ref_out = f"{stem}_ref{dot}{suffix}" if dot else f"{args.out}_ref"
        write_feature_map(ref_out, enhanced_ref)
    if args.save_weights:
        write_weights(args.save_weights, weights, config)
    return 0


def cmd_bench(args) -> int:
    if args.ref_cam and args.src_cam:
        pair = _load_pair(args)
    else:
        h, w = args.size if args.size else (64, 80)
        pair = synthetic.random_pair(np.random.default_rng(args.seed), h, w)
    strategies = [Strategy(name.strip()) for name in args.strategies.split(",")]
    config = AttentionConfig(channels=args.channels, heads=args.heads)
    # The cap is entered here rather than by run_benchmark so that the header
    # can say whether it took.
    with blas_thread_cap(1) if not args.parallel else contextlib.nullcontext() as not_applied:
        reports = run_benchmark(
            pair,
            config,
            strategies,
            repeats=args.repeats,
            seed=args.seed,
            search=_search_config(args),
            single_threaded=False,
        )
    mode = "parallel" if args.parallel else "single-threaded"
    if not_applied:
        mode = f"single-thread cap not applied: {not_applied}"
    header = f"{'strategy':<16} {'MACs':>14} {'GMACs':>7} {'median ms':>10}"
    lines = [f"# {mode}", header, "-" * len(header)]
    for report in reports:
        lines.append(
            f"{report.strategy.value:<16} {report.mac_count:>14d} "
            f"{gmacs(report.mac_count):>7.2f} {report.wall_time * 1e3:>10.3f}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("strategy,macs,gmacs,median_ms,peak_tokens\n")
            for report in reports:
                fh.write(
                    f"{report.strategy.value},{report.mac_count},"
                    f"{gmacs(report.mac_count)},{report.wall_time * 1e3:.6f},"
                    f"{report.peak_tokens}\n"
                )
    return 0


def _slope_flipped_line(coeffs) -> EpipolarLine:
    """The closed-form line with its slope negated: the fault --inject-fault plants."""
    line = epipolar_line(coeffs)
    return EpipolarLine(line.orientation, -line.slope, line.intercept)


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise EpilineError("trials must be at least 1")
    line_fn = _slope_flipped_line if args.inject_fault else epipolar_line
    results = run_all(seed=args.seed, trials=args.trials, line_fn=line_fn)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        sys.stdout.write(
            f"{status} {result.name}: max residual {result.max_residual:.3e} "
            f"(threshold {result.threshold:.1e}; {result.detail})\n"
        )
    return 0 if failures == 0 else 1


def cmd_sweep(args) -> int:
    pair = _load_pair(args)
    sk_values = [float(v) for v in args.sk_list.split(",")]
    sb_values = [float(v) for v in args.sb_list.split(",")]
    grid = [(sk, sb) for sk in sk_values for sb in sb_values]
    base = SearchConfig(delta=args.delta, min_cluster_size=args.min_cluster)
    rows = precision_sweep(pair, grid, base)
    header = f"{'s_k':>8} {'s_b':>8} {'clusters':>9} {'coverage':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.s_k:>8g} {row.s_b:>8g} {row.cluster_count:>9d} {row.coverage:>9.4f}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("s_k,s_b,clusters,coverage\n")
            for row in rows:
                fh.write(f"{row.s_k},{row.s_b},{row.cluster_count},{row.coverage}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiline",
        description="Line-pair search and line-constrained feature aggregation "
        "for calibrated view pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairs", help="search line pairs and emit them as JSON")
    _add_cam_flags(p)
    _add_search_flags(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("visualize", help="render cluster tints as two PPM images")
    _add_cam_flags(p, required=False)
    _add_search_flags(p)
    p.add_argument("--pairs-json", help="reuse a JSON pair set instead of searching")
    p.add_argument("--out", required=True, help="output prefix for <prefix>_ref/src.ppm")
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("augment", help="run the full augmentation over feature maps")
    _add_cam_flags(p)
    _add_search_flags(p)
    p.add_argument(
        "--features",
        nargs=2,
        metavar=("REF", "SRC"),
        help="reference and source feature-map files; omitted = seeded random maps",
    )
    p.add_argument("--weights", help="weight container file; omitted = seeded weights")
    p.add_argument("--save-weights", help="also store the weights used")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=64, help="channels for generated maps")
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--out", required=True, help="output feature-map file")
    p.add_argument(
        "--symmetric",
        action="store_true",
        help="additionally augment the reference map (mirrored pass)",
    )
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("bench", help="compare aggregation strategies")
    _add_cam_flags(p, required=False)
    _add_search_flags(p)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument(
        "--strategies",
        default="line-to-line,point-to-line,plane-to-plane",
        help="comma-separated strategy names",
    )
    p.add_argument("--parallel", action="store_true", help="leave BLAS threading on")
    p.add_argument("--out", help="also write a CSV here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="cluster statistics over a quantization grid")
    _add_cam_flags(p)
    p.add_argument("--sk", dest="sk_list", default="0.1", help="comma-separated slope steps")
    p.add_argument("--sb", dest="sb_list", default="10", help="comma-separated intercept steps")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--min-cluster", type=int, default=2)
    p.add_argument("--out", help="also write a CSV here")
    p.set_defaults(func=cmd_sweep)

    return parser


def _apply_thread_cap(stack: contextlib.ExitStack, value: str) -> None:
    """Enter the EPILINE_THREADS cap, or say on stderr why it is not applied."""
    try:
        limit = max(1, int(value))
    except ValueError:
        reason = "not an integer"
    else:
        reason = stack.enter_context(blas_thread_cap(limit))
    if reason:
        sys.stderr.write(f"epiline: EPILINE_THREADS={value!r} not applied: {reason}\n")


def main(argv=None) -> int:
    thread_cap = os.environ.get("EPILINE_THREADS")
    with contextlib.ExitStack() as stack:
        if thread_cap:
            _apply_thread_cap(stack, thread_cap)
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except (EpilineError, OSError, ValueError) as exc:
            sys.stderr.write(f"epiline: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())
