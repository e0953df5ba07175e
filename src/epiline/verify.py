"""Self-check suites runnable from the command line.

Each suite cross-validates one subsystem against an independent formulation:
projected points against the closed-form line, that line against the
fundamental matrix, the batched attention against a plain per-head loop, and
the cost model against its frozen reference counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import synthetic
from .attention import AttentionConfig, et_forward, seeded_weights
from .complexity import Strategy, gmacs, strategy_macs
from .geometry import (
    epipolar_line,
    fundamental_matrix,
    pixel_coeffs,
    project_pixel_sweep,
    projection_constants,
)
from .sequences import LineSequence


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    threshold: float
    detail: str


def collinearity_suite(seed: int = 0, trials: int = 100, line_fn=epipolar_line) -> SuiteResult:
    """Projections at many depths must sit on the line ``line_fn`` derives.

    ``trials`` rigs x 10 pixels x 100 depths; the perpendicular residual of
    every finite projection to the derived line must stay below 1e-6 px.
    """
    rng = np.random.default_rng(seed)
    depths = np.linspace(*synthetic.DEPTH_SWEEP, 100)
    worst = 0.0
    for _ in range(trials):
        pair = synthetic.random_pair(rng)
        constants = projection_constants(pair)
        h, w = pair.image_size
        for _ in range(10):
            x = int(rng.integers(0, w))
            y = int(rng.integers(0, h))
            coeffs = pixel_coeffs(constants, x, y)
            line = line_fn(coeffs)
            xs, ys, finite = project_pixel_sweep(coeffs, depths)
            if finite.any():
                residual = line.perpendicular_distance(xs[finite], ys[finite]).max()
                worst = max(worst, float(residual))
    return SuiteResult(
        name="collinearity",
        passed=worst < 1e-6,
        max_residual=worst,
        threshold=1e-6,
        detail=f"{trials} rigs x 10 pixels x 100 depths",
    )


def fundamental_suite(seed: int = 0, trials: int = 100, line_fn=epipolar_line) -> SuiteResult:
    """The slope/intercept line from ``line_fn`` and the fundamental matrix must agree.

    For each draw, the implicit forms of the two are compared by the cosine
    of their angle, which must exceed 1 - 1e-9 in magnitude.
    """
    rng = np.random.default_rng(seed)
    draws_per_rig = 100
    worst_deviation = 0.0
    for _ in range(trials):
        pair = synthetic.random_pair(rng)
        constants = projection_constants(pair)
        f = fundamental_matrix(pair)
        h, w = pair.image_size
        for _ in range(draws_per_rig):
            x = int(rng.integers(0, w))
            y = int(rng.integers(0, h))
            line = line_fn(pixel_coeffs(constants, x, y))
            lhs = line.coeffs3()
            rhs = f @ np.array([x, y, 1.0])
            cosine = abs(float(lhs @ rhs)) / (
                float(np.linalg.norm(lhs)) * float(np.linalg.norm(rhs))
            )
            worst_deviation = max(worst_deviation, 1.0 - cosine)
    return SuiteResult(
        name="fundamental-equivalence",
        passed=worst_deviation < 1e-9,
        max_residual=worst_deviation,
        threshold=1e-9,
        detail=f"{trials * draws_per_rig} (rig, pixel) draws",
    )


def reference_attention(query, kv, proj, heads: int) -> np.ndarray:
    """Multi-head attention one head and one query at a time.

    Only the reduction over keys is vectorized, so sequence lengths in the
    hundreds stay tractable. Shares no code with :mod:`epiline.attention`.
    """
    query = np.asarray(query, dtype=np.float64)
    kv = np.asarray(kv, dtype=np.float64)
    q = query @ proj.wq + proj.bq
    k = kv @ proj.wk + proj.bk
    v = kv @ proj.wv + proj.bv
    n_q, c = q.shape
    d = c // heads
    merged = np.zeros((n_q, c))
    for head in range(heads):
        lo, hi = head * d, (head + 1) * d
        kh, vh = k[:, lo:hi], v[:, lo:hi]
        for i in range(n_q):
            logits = kh @ q[i, lo:hi] / math.sqrt(d)
            row = np.exp(logits - logits.max())
            row /= row.sum()
            merged[i, lo:hi] = row @ vh
    return merged @ proj.wo + proj.bo


def reference_sine_pe(n: int, c: int) -> np.ndarray:
    """Sinusoidal position table filled entry by entry."""
    pe = np.zeros((n, c))
    for pos in range(n):
        for i in range(c // 2):
            angle = pos / (10000.0 ** (2 * i / c))
            pe[pos, 2 * i] = np.sin(angle)
            pe[pos, 2 * i + 1] = np.cos(angle)
    return pe


def reference_et_forward(ref_tokens, src_tokens, weights, config) -> list[np.ndarray]:
    """The block forward pass, pair by pair, over raw (n, c) token arrays.

    Returns the augmented source tokens of every pair; an empty source
    sequence comes back empty, and an empty reference sequence skips the
    cross-attention and feed-forward steps.
    """
    out = []
    for ref, src in zip(ref_tokens, src_tokens):
        src = np.asarray(src, dtype=np.float64).copy()
        ref = np.asarray(ref, dtype=np.float64).copy()
        if src.shape[0] == 0:
            out.append(src)
            continue
        if config.pe_mode == "sine":
            src = src + reference_sine_pe(src.shape[0], config.channels)
            if ref.shape[0]:
                ref = ref + reference_sine_pe(ref.shape[0], config.channels)
        for block in weights.blocks:
            src = reference_attention(src, src, block.intra, config.heads) + src
            if ref.shape[0]:
                src = reference_attention(src, ref, block.cross, config.heads) + src
                hidden = np.maximum(src @ block.ffn.w1 + block.ffn.b1, 0.0)
                src = hidden @ block.ffn.w2 + block.ffn.b2 + src
        out.append(src)
    return out


def attention_suite(seed: int = 0, trials: int = 20) -> SuiteResult:
    """Batched augmentation must match the per-head loop within 1e-8."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        c = int(rng.choice([16, 32, 64]))
        heads = int(rng.choice([2, 4, 8]))
        config = AttentionConfig(channels=c, heads=heads, pe_mode="sine")
        weights = seeded_weights(config, seed=seed + trial)
        n_pairs = int(rng.integers(1, 4))
        ref_seqs, src_seqs = [], []
        for index in range(n_pairs):
            n_ref = int(rng.integers(0, 24))
            n_src = int(rng.integers(0, 24))
            ref_seqs.append(
                LineSequence(
                    index,
                    rng.standard_normal((n_ref, c)),
                    np.stack([np.arange(n_ref), np.zeros(n_ref, dtype=int)], axis=1),
                )
            )
            src_seqs.append(
                LineSequence(
                    index,
                    rng.standard_normal((n_src, c)),
                    np.stack([np.arange(n_src), np.ones(n_src, dtype=int)], axis=1),
                )
            )
        got = et_forward(ref_seqs, src_seqs, weights, config)
        expected = reference_et_forward(
            [seq.tokens for seq in ref_seqs], [seq.tokens for seq in src_seqs], weights, config
        )
        for got_seq, exp_tokens in zip(got, expected):
            if got_seq.n:
                worst = max(worst, float(np.abs(got_seq.tokens - exp_tokens).max()))
    return SuiteResult(
        name="attention-oracle",
        passed=worst < 1e-8,
        max_residual=worst,
        threshold=1e-8,
        detail=f"{trials} random instances vs per-head loop",
    )


# Frozen reference counts at H=80, W=64, C=64, S=30, M=30.
_REFERENCE_COUNTS = {
    Strategy.POINT_TO_LINE: 1_466_695_680,
    Strategy.LINE_TO_LINE: 44_006_400,
    Strategy.PLANE_TO_PLANE: 272_629_760,
}


def complexity_suite() -> SuiteResult:
    """The closed forms must reproduce the frozen counts exactly."""
    mismatches = []
    for strategy, expected in _REFERENCE_COUNTS.items():
        got = strategy_macs(strategy, h=80, w=64, c=64, s=30, m=30)
        if got != expected:
            mismatches.append(f"{strategy.value}: {got} != {expected}")
    rounded_ok = (
        round(_REFERENCE_COUNTS[Strategy.POINT_TO_LINE] / 1e9, 1) == 1.5
        and gmacs(_REFERENCE_COUNTS[Strategy.LINE_TO_LINE]) == 0.04
        and gmacs(_REFERENCE_COUNTS[Strategy.PLANE_TO_PLANE]) == 0.27
    )
    if not rounded_ok:
        mismatches.append("rounded GMAC values drifted")
    return SuiteResult(
        name="complexity-regression",
        passed=not mismatches,
        max_residual=float(len(mismatches)),
        threshold=1.0,
        detail="; ".join(mismatches) if mismatches else "3 exact counts + roundings",
    )


def run_all(seed: int = 0, trials: int = 100, line_fn=epipolar_line) -> list[SuiteResult]:
    """Run every suite; ``trials`` scales the randomized ones.

    ``line_fn`` maps pixel projection coefficients to an EpipolarLine for the
    two geometry suites; substituting a faulty one shows that they catch it.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return [
        collinearity_suite(seed=seed, trials=trials, line_fn=line_fn),
        fundamental_suite(seed=seed, trials=trials, line_fn=line_fn),
        attention_suite(seed=seed, trials=max(1, trials // 5)),
        complexity_suite(),
    ]
