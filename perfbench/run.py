"""End-to-end and per-layer benchmark of line-pair search and line attention.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long-lines --seed 1 --seconds 13 --trace 0

Workloads (closed loop, one client, one worker process per run):

    long-lines   library search + augment at 128x160, s_k=0.1, s_b=10
    short-lines  the same with s_k=0.01, s_b=1: many short lines
    pair-export  ``epiline pairs`` in-process at 256x320, s_k=0.01, s_b=1
    mirrored     ``epiline augment --symmetric`` at 64x80 on one fixed rig

The worker runs with BLAS pinned to one thread and refuses to report if the
count in effect is not 1. ``setup_s`` is the median over several fresh
processes of the time from process start to ready-for-the-first-op. With
``--trace 0`` the last line holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics from a run that measures every input both
traced and untraced. A layer that was never reached is listed on a ``#``
line as absent, its metrics read 0 (the result line holds numbers only),
and ``trace.absent_metrics`` counts them. Metric names and units come from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 10  # extra set-up-only processes; setup_s is the median with the worker's own
RUN_TIMEOUT_S = 170.0


def _worker(args, work: str, setup_only: bool):
    """Run the worker once; returns (parsed result, seconds since spawn)."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", work,
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - spawned - result["gen_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["long-lines", "short-lines", "pair-export", "mirrored"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)  # metric names and units
    if not os.path.isfile(os.path.join(ROOT, "src", "epiline", "__init__.py")):
        print(f"no library source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setups = [_worker(args, work, setup_only=True)[1] for _ in range(SETUP_PROBES)]
        result, setup = _worker(args, work, setup_only=False)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    setups.append(setup)
    if result["tail"] is None:
        print("benchmark failed: too few ops for a tail latency", file=sys.stderr)
        return 1

    env = result["env"]
    value, percentile, samples = result["tail"]
    stats = result["stats"]
    ok_pixels = sum(s["ok_pixels"] for s in stats.values())
    seconds = sum(s["seconds"] for s in stats.values())
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"# numpy {env['numpy']}  {env['blas']}  BLAS threads {env['threads']} (verified)  "
        f"nproc {env['nproc']}  python {env['python']}"
    )
    print(
        f"# ops {result['attempted']}  failed {result['failed']}  "
        f"fail_ratio {result['failed'] / result['attempted']:.4f}  "
        f"latency_tail_ms is p{percentile:.1f} of {samples} samples  "
        f"rig_repeat_share {result['rig_repeat_share']:.3f}"
    )
    factor = result["speed_factor"]
    print(
        f"# host speed factor {factor:.4f} (times below are scaled by it); unscaled: "
        f"setup_s {statistics.median(setups):.6g}  throughput_mpix_s {ok_pixels / seconds / 1e6:.6g}  "
        f"latency_p50_ms {statistics.median(result['latencies']) * 1e3:.6g}  latency_tail_ms {value * 1e3:.6g}"
    )
    for problem in result["problems"]:
        print(f"# FAILED {problem.strip().splitlines()[-1]}")

    if args.trace:
        absent = result["absent"]
        values = {k: 0.0 if k in absent else v for k, v in result["per_layer"].items()}
        values["trace.absent_metrics"] = len(absent)
        for name in absent:
            print(f"# absent layer metric: {name}")
        for name in result["missing_names"]:
            print(f"# name not found in the library: {name}")
        for error in result["hook_errors"]:
            print(f"# count dropped: {error}")
        listed = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups) * factor,
            "throughput_mpix_s": ok_pixels / (seconds * factor) / 1e6,
            "latency_p50_ms": statistics.median(result["latencies"]) * factor * 1e3,
            "latency_tail_ms": value * factor * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
            "success_ratio": 1.0 - result["failed"] / result["attempted"],
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"# {name:34s} {metric['value']!s:>24} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
