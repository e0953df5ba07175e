"""Analytic multiply-accumulate counts and wall-clock comparison of the three
aggregation strategies.

Closed forms, with C channels over an H x W image holding M line pairs of S
mean source pixels each:

    vanilla attention   B * (9*N1*C^2 + 2*N2*C^2 + 2*N1*N2*C)
    linear attention    B * (10*N1*C^2 + 3*N2*C^2)
    point-to-line       H*W * (9*C^2 + 2*S*C^2 + 2*S*C)       (B=HW, N1=1, N2=S)
    line-to-line        M * (11*S*C^2 + 2*S^2*C)              (B=M, N1=N2=S)
    plane-to-plane      13 * H*W * C^2                        (linear, B=1, N1=N2=HW)

All counts are exact Python integers, so there is no overflow.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attention import (
    AttentionConfig,
    AttentionWeights,
    et_forward,
    feed_forward,
    mhca,
    seeded_weights,
    sine_pe,
)
from .errors import RepeatsTooFewError, UnknownStrategyError
from .geometry import CameraPair
from .pair_search import SearchConfig, search_pairs
from .sequences import FeatureMap, LineSequence, gather
from .synthetic import random_feature_map


class Strategy(Enum):
    """How non-local context is aggregated."""

    POINT_TO_LINE = "point-to-line"
    LINE_TO_LINE = "line-to-line"
    PLANE_TO_PLANE = "plane-to-plane"


def _as_strategy(value) -> Strategy:
    if isinstance(value, Strategy):
        return value
    try:
        return Strategy(value)
    except ValueError:
        raise UnknownStrategyError(
            f"unknown strategy {value!r}; expected one of "
            f"{[s.value for s in Strategy]}"
        ) from None


@dataclass(frozen=True)
class ComplexityParams:
    """Sizes entering the closed-form counts; every field must be >= 1."""

    B: int = 1
    N1: int = 1
    N2: int = 1
    C: int = 1
    H: int = 1
    W: int = 1
    S: int = 1
    M: int = 1

    def __post_init__(self):
        for name in ("B", "N1", "N2", "C", "H", "W", "S", "M"):
            value = int(getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)


def vanilla_attention_macs(p: ComplexityParams) -> int:
    """Multiply-accumulates of full softmax attention over B batches."""
    return p.B * (9 * p.N1 * p.C * p.C + 2 * p.N2 * p.C * p.C + 2 * p.N1 * p.N2 * p.C)


def linear_attention_macs(p: ComplexityParams) -> int:
    """Multiply-accumulates of kernelized linear attention over B batches."""
    return p.B * (10 * p.N1 * p.C * p.C + 3 * p.N2 * p.C * p.C)


def strategy_macs(strategy, h: int, w: int, c: int, s: int, m: int) -> int:
    """Closed-form count for one aggregation strategy.

    Args:
        strategy: Strategy enum or its string value.
        h, w: Image size in pixels.
        c: Channel count.
        s: Mean pixels per line.
        m: Line-pair count.
    """
    strategy = _as_strategy(strategy)
    h, w, c, s, m = int(h), int(w), int(c), int(s), int(m)
    for name, value in (("h", h), ("w", w), ("c", c), ("s", s), ("m", m)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if strategy is Strategy.POINT_TO_LINE:
        return h * w * (9 * c * c + 2 * s * c * c + 2 * s * c)
    if strategy is Strategy.LINE_TO_LINE:
        return m * (11 * s * c * c + 2 * s * s * c)
    return 13 * h * w * c * c


def gmacs(count: int) -> float:
    """Count in units of 1e9, rounded to two decimals for reporting."""
    return round(count / 1e9, 2)


@dataclass(frozen=True)
class CostReport:
    """Analytic and (optionally) measured cost of one strategy."""

    strategy: Strategy
    mac_count: int
    wall_time: float | None  # median seconds per forward pass
    peak_tokens: int


def _point_to_line_forward(
    ref_seqs: list[LineSequence],
    src_seqs: list[LineSequence],
    weights: AttentionWeights,
    config: AttentionConfig,
) -> list[np.ndarray]:
    """Same augmentation math as the batched path, one query pixel at a time.

    Every source pixel independently re-projects its whole line's keys and
    values, which is what makes this strategy expensive. Attention rows are
    independent, so the result equals the batched line-to-line output.
    """
    out = []
    for ref_seq, src_seq in zip(ref_seqs, src_seqs):
        if src_seq.n == 0:
            out.append(np.asarray(src_seq.tokens, dtype=np.float64))
            continue
        src = np.asarray(src_seq.tokens, dtype=np.float64).copy()
        ref = np.asarray(ref_seq.tokens, dtype=np.float64)
        if config.pe_mode == "sine":
            src = src + sine_pe(src.shape[0], config.channels)
            if ref.shape[0] > 0:
                ref = ref + sine_pe(ref.shape[0], config.channels)
        for block in weights.blocks:
            after_intra = np.empty_like(src)
            for j in range(src.shape[0]):
                q = src[j : j + 1]
                after_intra[j] = mhca(q, src, block.intra, config.heads)[0] + src[j]
            src = after_intra
            if ref.shape[0] > 0:
                after_cross = np.empty_like(src)
                for j in range(src.shape[0]):
                    q = src[j : j + 1]
                    after_cross[j] = mhca(q, ref, block.cross, config.heads)[0] + src[j]
                src = after_cross
                for j in range(src.shape[0]):
                    src[j] = feed_forward(src[j : j + 1], block.ffn)[0] + src[j]
        out.append(src)
    return out


def _elu_plus_one(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x + 1.0, np.exp(x))


def _linear_self_attention(
    seq: np.ndarray, proj, heads: int
) -> np.ndarray:
    """Kernelized attention with feature map elu(x) + 1; linear in sequence length."""
    n, c = seq.shape
    d = c // heads
    q = _elu_plus_one((seq @ proj.wq + proj.bq).reshape(n, heads, d).transpose(1, 0, 2))
    k = _elu_plus_one((seq @ proj.wk + proj.bk).reshape(n, heads, d).transpose(1, 0, 2))
    v = (seq @ proj.wv + proj.bv).reshape(n, heads, d).transpose(1, 0, 2)
    kv = k.transpose(0, 2, 1) @ v  # (heads, d, d)
    normalizer = q @ k.sum(axis=1)[:, :, None]  # (heads, n, 1)
    context = (q @ kv) / normalizer
    merged = context.transpose(1, 0, 2).reshape(n, c)
    return merged @ proj.wo + proj.bo


def _plane_to_plane_forward(
    src_map: FeatureMap, weights: AttentionWeights, config: AttentionConfig
) -> None:
    """Whole-image linear self-attention, one pass per block with a residual."""
    tokens = np.asarray(src_map.data, dtype=np.float64).reshape(-1, src_map.channels)
    for block in weights.blocks:
        tokens = _linear_self_attention(tokens, block.intra, config.heads) + tokens


@contextlib.contextmanager
def blas_thread_cap(limit: int):
    """Cap the BLAS thread pools at ``limit`` threads inside the ``with`` block.

    Yields None while the cap is in effect, or the reason it could not be
    applied; BLAS then keeps its own thread count.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError as exc:
        yield f"threadpoolctl is not importable ({exc})"
        return
    with threadpool_limits(limits=limit):
        yield None


def _median_seconds(fn, repeats: int) -> float:
    fn()  # warm-up, discarded
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_benchmark(
    pair: CameraPair,
    config: AttentionConfig,
    strategies: list,
    repeats: int,
    seed: int = 0,
    search: SearchConfig = SearchConfig(),
    single_threaded: bool = True,
) -> list[CostReport]:
    """Time each strategy's forward pass on seeded features sized to the rig.

    Analytic counts use the measured pair statistics: M is the pair count and
    S the mean source pixels per pair, rounded to the nearest integer so the
    closed forms stay exact. Wall times are medians over ``repeats`` runs
    after one discarded warm-up; with ``single_threaded`` the BLAS pools are
    capped at one thread for a fair comparison, when :func:`blas_thread_cap`
    can apply the cap; when it cannot, a ``RuntimeWarning`` says why.

    Raises:
        RepeatsTooFewError: When fewer than 3 repeats are requested.
    """
    if repeats < 3:
        raise RepeatsTooFewError(f"at least 3 repeats required, got {repeats}")
    strategies = [_as_strategy(s) for s in strategies]

    pair_set = search_pairs(pair, search)
    h, w = pair.image_size
    c = config.channels
    rng = np.random.default_rng(seed)
    ref_map = FeatureMap(random_feature_map(rng, h, w, c))
    src_map = FeatureMap(random_feature_map(rng, h, w, c))
    weights = seeded_weights(config, seed)
    ref_seqs = gather(ref_map, pair_set, "ref")
    src_seqs = gather(src_map, pair_set, "src")

    m = max(1, pair_set.cluster_count)
    src_lengths = [p.n_src for p in pair_set.pairs]
    s = max(1, round(float(np.mean(src_lengths))) if src_lengths else 1)
    line_peak = max(
        (max(p.n_src, p.n_ref) for p in pair_set.pairs), default=0
    )

    runners = {
        Strategy.LINE_TO_LINE: lambda: et_forward(ref_seqs, src_seqs, weights, config),
        Strategy.POINT_TO_LINE: lambda: _point_to_line_forward(
            ref_seqs, src_seqs, weights, config
        ),
        Strategy.PLANE_TO_PLANE: lambda: _plane_to_plane_forward(src_map, weights, config),
    }
    peaks = {
        Strategy.LINE_TO_LINE: line_peak,
        Strategy.POINT_TO_LINE: line_peak,
        Strategy.PLANE_TO_PLANE: h * w,
    }

    reports = []
    with blas_thread_cap(1) if single_threaded else contextlib.nullcontext() as not_applied:
        if not_applied:
            warnings.warn(f"single-thread cap not applied: {not_applied}", RuntimeWarning, 2)
        for strategy in strategies:
            reports.append(
                CostReport(
                    strategy=strategy,
                    mac_count=strategy_macs(strategy, h, w, c, s, m),
                    wall_time=_median_seconds(runners[strategy], repeats),
                    peak_tokens=peaks[strategy],
                )
            )
    return reports
