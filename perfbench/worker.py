"""One benchmark run of one workload, in a process of its own.

The parent (``run.py``) starts this file with BLAS pinned to one thread and
``PYTHONPATH`` pointing at the checkout's ``src``. The worker imports the
library, loads weights, and reports when it became ready; then it runs one
warm-up op, a self-test of its own checker, and closed-loop ops until their
summed in-op time reaches ``--seconds``. Inputs are generated and outputs
checked between ops, outside the timed region. The result is one JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field

import numpy as np

import inputs
import oracle

DELTA = 1.0
BRUTE_EVERY = 4  # brute-force pair-set checks on ops 0, 4, 8, ...
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
WALL_CAP_S = 110.0  # stop measuring early rather than overrun the run limit
# Median time of calibrate() on the reference machine (2-vCPU x86-64 VM with
# AVX-512, numpy 2.4.6, one BLAS thread).
CALIBRATION_REFERENCE_S = 0.0125


class Calibration:
    """A fixed mix of GEMM, exp and JSON work timed between ops.

    The host's speed drifts by +-20% over seconds to minutes (other tenants).
    Times reported as end-to-end metrics are scaled by reference / median
    calibration time of the run, so that two runs on the same code agree.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 64))
        self.b = rng.standard_normal((64, 1024))
        self.items = list(range(20000))
        self.samples = []

    def measure(self):
        start = time.perf_counter()
        for _ in range(3):
            s = self.a @ self.b
            np.exp(s - s.max(axis=1, keepdims=True)).sum()
            json.dumps(self.items)
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference speed over this run's speed: < 1 when the host ran slow."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.samples)


@dataclass(frozen=True)
class Workload:
    kind: str  # "library", "pairs" or "mirrored"
    height: int
    width: int
    s_k: float
    s_b: float


WORKLOADS = {
    "long-lines": Workload("library", 128, 160, 0.1, 10.0),
    "short-lines": Workload("library", 128, 160, 0.01, 1.0),
    "pair-export": Workload("pairs", 256, 320, 0.01, 1.0),
    "mirrored": Workload("mirrored", 64, 80, 0.1, 10.0),
}


@dataclass
class OpInput:
    rig: inputs.Rig
    ref: np.ndarray | None = None  # feature maps (float64, or float32 for EPFM)
    src: np.ndarray | None = None
    camera_pair: object = None
    cache: dict = field(default_factory=dict)  # oracle results, reused by the self-test


def blas_info() -> dict:
    """Thread count in effect and build string of numpy's bundled OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {"threads": get_threads(), "blas": get_config().decode().strip()}
    raise RuntimeError("cannot find numpy's OpenBLAS to read its thread count")


class Runner:
    """Builds inputs, runs ops and checks outputs for one workload."""

    def __init__(self, name: str, seed: int, work: str):
        self.spec = WORKLOADS[name]
        self.work = work
        self.rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        self.weights = inputs.weight_tensors(seed)
        self.weights_path = os.path.join(work, "weights.epwt")
        inputs.write_epwt(self.weights_path, self.weights)
        self.rigs = inputs.RigSequence(self.rng, self.spec.height, self.spec.width)
        self.fixed_rig = None
        if self.spec.kind == "mirrored":
            self.fixed_rig = inputs.centre_rig(self.spec.height, self.spec.width)
            inputs.write_cam_files(self.fixed_rig, self._path("ref.cam"), self._path("src.cam"))
        self.fixed_pairs = None
        self.fixed_problems = []

    def _path(self, name):
        return os.path.join(self.work, name)

    # -- set-up (timed as setup_s) ------------------------------------------

    def load(self):
        import epiline
        import epiline.attention
        import epiline.cli
        import epiline.pair_search
        import epiline.sequences

        src_dir = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        if not os.path.realpath(epiline.__file__).startswith(src_dir + os.sep):
            raise RuntimeError(f"imported {epiline.__file__}, not the checkout's src/epiline")
        self.pair_search = epiline.pair_search
        self.attention = epiline.attention
        self.cli = epiline.cli
        self.feature_map = epiline.sequences.FeatureMap
        if self.spec.kind == "library":
            self.search = epiline.pair_search.SearchConfig(s_k=self.spec.s_k, s_b=self.spec.s_b, delta=DELTA)
            self.lib_weights, self.lib_config = epiline.attention.read_weights(self.weights_path)

    # -- oracle preparation for the fixed rig -------------------------------

    def prepare(self):
        """The mirrored workload's pair set, exported once by the CLI and checked."""
        if self.spec.kind != "mirrored":
            return
        out = self._path("fixed_pairs.json")
        code = self.cli.main(["pairs", *self._cam_args(), "--out", out])
        if code != 0:
            self.fixed_problems = [f"epiline pairs exited {code} for the fixed rig"]
            return
        with open(out, encoding="utf-8") as fh:
            self.fixed_pairs = oracle.from_schema1(json.load(fh))
        self.fixed_problems = oracle.check_pairs(
            self.fixed_pairs, self.fixed_rig, self.spec.s_k, self.spec.s_b, DELTA, brute=True
        )

    def _cam_args(self):
        spec = self.spec
        return [
            "--ref-cam", self._path("ref.cam"), "--src-cam", self._path("src.cam"),
            "--size", f"{spec.height}x{spec.width}", "--sk", repr(spec.s_k), "--sb", repr(spec.s_b),
            "--delta", repr(DELTA),
        ]

    # -- inputs (untimed) ----------------------------------------------------

    def make_input(self) -> OpInput:
        spec = self.spec
        if spec.kind == "mirrored":
            inp = OpInput(self.fixed_rig)
            inp.ref = inputs.feature_map(self.rng, spec.height, spec.width).astype(np.float32)
            inp.src = inputs.feature_map(self.rng, spec.height, spec.width).astype(np.float32)
            inputs.write_epfm(self._path("ref.epfm"), inp.ref)
            inputs.write_epfm(self._path("src.epfm"), inp.src)
            for stale in ("out.epfm", "out_ref.epfm"):
                if os.path.exists(self._path(stale)):
                    os.remove(self._path(stale))
            return inp
        inp = OpInput(self.rigs.next())
        if spec.kind == "pairs":
            inputs.write_cam_files(inp.rig, self._path("ref.cam"), self._path("src.cam"))
            if os.path.exists(self._path("pairs.json")):
                os.remove(self._path("pairs.json"))
        else:
            inp.camera_pair = inputs.camera_pair(inp.rig)
            inp.ref = inputs.feature_map(self.rng, spec.height, spec.width)
            inp.src = inputs.feature_map(self.rng, spec.height, spec.width)
        return inp

    # -- the timed op --------------------------------------------------------

    def run(self, inp: OpInput):
        kind = self.spec.kind
        if kind == "library":
            pairs = self.pair_search.search_pairs(inp.camera_pair, self.search)
            out = self.attention.augment_pipeline(
                self.feature_map(inp.ref), self.feature_map(inp.src), pairs, self.lib_weights, self.lib_config
            )
            return pairs, out
        if kind == "pairs":
            return self.cli.main(["pairs", *self._cam_args(), "--out", self._path("pairs.json")])
        return self.cli.main(
            [
                "augment", *self._cam_args(),
                "--features", self._path("ref.epfm"), self._path("src.epfm"),
                "--weights", self.weights_path, "--out", self._path("out.epfm"), "--symmetric",
            ]
        )

    # -- outputs and checks (untimed) ---------------------------------------

    def read(self, raw) -> dict:
        """The op's outputs in the checker's terms; raises when there are none."""
        kind = self.spec.kind
        if kind == "library":
            pairs, out = raw
            return {"pairs": oracle.from_library(pairs), "maps": {"src": np.asarray(out.data)}}
        if raw != 0:
            raise RuntimeError(f"epiline exited {raw}")
        if kind == "pairs":
            with open(self._path("pairs.json"), encoding="utf-8") as fh:
                return {"pairs": oracle.from_schema1(json.load(fh)), "maps": {}}
        maps = {side: inputs.read_epfm(self._path(name)) for side, name in (("src", "out.epfm"), ("ref", "out_ref.epfm"))}
        return {"pairs": None, "maps": maps}

    def check(self, index: int, inp: OpInput, output: dict) -> list:
        spec = self.spec
        if output["pairs"] is not None:
            problems = oracle.check_pairs(
                output["pairs"], inp.rig, spec.s_k, spec.s_b, DELTA, brute=index % BRUTE_EVERY == 0
            )
            if problems:
                return problems
        if spec.kind == "library":
            if "src" not in inp.cache:
                inp.cache["src"] = oracle.augmented_side(inp.src, inp.ref, output["pairs"], "src", self.weights)
            return oracle.compare_f64(output["maps"]["src"], inp.cache["src"][0], "source map")
        if spec.kind == "mirrored":
            if self.fixed_problems:
                return self.fixed_problems
            problems = []
            for side, keys in (("src", inp.ref), ("ref", inp.src)):
                query = inp.src if side == "src" else inp.ref
                if side not in inp.cache:
                    inp.cache[side] = oracle.augmented_side(query, keys, self.fixed_pairs, side, self.weights)
                expected, scattered = inp.cache[side]
                problems += oracle.compare_f32(
                    output["maps"][side], expected, scattered, self.weights["kernel"], f"{side} map"
                )
            return problems
        return []

    def perturbed(self, output: dict) -> dict:
        """The same output with one token changed: the self-test's input."""
        if output["maps"]:
            side = "src"
            maps = dict(output["maps"])
            changed = maps[side].copy()
            pairs = output["pairs"] or self.fixed_pairs
            xy = next(p.src for p in pairs.pairs if len(p.src))
            changed[xy[0, 1], xy[0, 0], 0] += 1e-3 * (1.0 + abs(float(changed[xy[0, 1], xy[0, 0], 0])))
            maps[side] = changed
            return {"pairs": output["pairs"], "maps": maps}
        pairs = output["pairs"]
        first = pairs.pairs[0]
        moved = first.ref.copy()
        moved[0, 0] = moved[0, 0] + 1 if moved[0, 0] + 1 < pairs.width else moved[0, 0] - 1
        copy = oracle.PairSet(list(pairs.pairs), pairs.ref_hole, pairs.src_hole, pairs.height, pairs.width)
        copy.pairs[0] = oracle.LinePair(first.swapped, first.qk, first.qb, first.k, first.b, moved, first.src)
        return {"pairs": copy, "maps": {}}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rig_key(rig: inputs.Rig) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in (rig.k_ref, rig.k_src, rig.rotation, rig.translation))


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): the highest percentile with ten samples beyond it."""
    n = len(latencies)
    if n < MIN_OPS:
        return None
    return sorted(latencies)[n - MIN_OPS], 100.0 * (n - 10) / n, n


def attempt(runner: Runner, inp: OpInput, index: int, tracer):
    """One timed op, traced when ``tracer`` is given, then its check.

    Returns (seconds, problems, output). An exception from the library, or an
    output the checker cannot read, is a failed op, not a failed run.
    """
    start = time.perf_counter()
    try:
        raw = tracer.op(lambda: runner.run(inp)) if tracer else runner.run(inp)
    except Exception:
        return time.perf_counter() - start, [traceback.format_exc(limit=3)], None
    elapsed = time.perf_counter() - start
    try:
        output = runner.read(raw)
        return elapsed, runner.check(index, inp, output), output
    except Exception:
        return elapsed, [traceback.format_exc(limit=3)], None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    gen_start = time.perf_counter()
    env = blas_info()
    if env["threads"] != 1:
        print(f"refusing to report: BLAS runs {env['threads']} threads, not 1", file=sys.stderr)
        return 3
    runner = Runner(args.workload, args.seed, args.work)
    gen_s = time.perf_counter() - gen_start
    runner.load()
    ready = time.monotonic()
    result = {"ready": ready, "gen_s": gen_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    env.update(numpy=np.__version__, nproc=os.cpu_count(), python=sys.version.split()[0])
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(runner.spec.height, runner.spec.width)
        tracer.install()
    runner.prepare()

    seen_rigs = set()
    warm = runner.make_input()
    seen_rigs.add(rig_key(warm.rig))
    _, warm_problems, warm_out = attempt(runner, warm, 0, None)
    if not warm_problems and not runner.check(0, warm, runner.perturbed(warm_out)):
        print("refusing to report: the checker accepted a perturbed output", file=sys.stderr)
        return 4

    pixels = runner.spec.height * runner.spec.width
    stats = {mode: {"seconds": 0.0, "ok_pixels": 0} for mode in ("plain", "traced")}
    latencies, problems = [], []
    # Every run makes at least MIN_OPS ops, on the same rigs whatever the
    # seed; the peak over those does not depend on how fast the host ran.
    peak_rss_mb = None
    attempted = failed = inputs_used = repeats = 0
    calibration = Calibration()
    wall_start = time.monotonic()
    while (sum(s["seconds"] for s in stats.values()) < args.seconds or attempted < MIN_OPS) and (
        time.monotonic() - wall_start < WALL_CAP_S
    ):
        inputs_used += 1
        inp = runner.make_input()
        key = rig_key(inp.rig)
        repeats += key in seen_rigs
        seen_rigs.add(key)
        # A traced run measures every input twice, traced and untraced in
        # alternating order, so the tracing overhead compares equal work.
        modes = ["plain"] if tracer is None else ["plain", "traced"][:: 1 if inputs_used % 2 else -1]
        for mode in modes:
            calibration.measure()
            elapsed, op_problems, _ = attempt(runner, inp, inputs_used, tracer if mode == "traced" else None)
            attempted += 1
            if attempted == MIN_OPS:
                peak_rss_mb = _peak_rss_mb()
            latencies.append(elapsed)
            stats[mode]["seconds"] += elapsed
            if op_problems:
                failed += 1
                problems.append(f"op {attempted}: {op_problems[0]}")
            else:
                stats[mode]["ok_pixels"] += pixels

    result.update(
        attempted=attempted,
        failed=failed,
        problems=problems[:5] + [f"warm-up: {p}" for p in warm_problems[:2]],
        latencies=latencies,
        stats=stats,
        tail=tail(latencies),
        peak_rss_mb=peak_rss_mb or _peak_rss_mb(),
        speed_factor=calibration.factor(),
        rig_repeat_share=repeats / inputs_used,
        env=env,
    )
    if warm_problems:
        result["failed"] += 1
        result["attempted"] += 1
    if tracer is not None:
        tracer.restore()
        result["per_layer"] = tracer.metrics(stats, repeats / inputs_used)
        result["absent"] = sorted(k for k, v in result["per_layer"].items() if v is None)
        result["missing_names"] = tracer.missing
        result["hook_errors"] = sorted(tracer.hook_errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
