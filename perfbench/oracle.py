"""The benchmark's own output checks, independent of the library's code.

* Pair sets: both views are partitioned, every assigned source pixel lies
  within delta of its line, pixels are ordered along their line, and every
  reference pixel's cluster line is its own epipolar line (from the
  fundamental matrix) rounded onto the grid. On a deterministic subset of ops,
  a brute-force pass also re-derives the nearest line of every source pixel
  and the reference clustering.
* Feature maps: line attention as a per-head float64 loop, a scatter onto the
  template, and the local convolution as a direct loop over kernel taps.

Every check returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from inputs import HEADS, Rig

# Float64 feature maps: the library and this loop sum in different orders.
F64_TOL = 1e-8


@dataclass
class LinePair:
    swapped: bool
    qk: int
    qb: int
    k: float
    b: float
    ref: np.ndarray  # (n_ref, 2) int64, columns (x, y)
    src: np.ndarray  # (n_src, 2) int64


@dataclass
class PairSet:
    pairs: list
    ref_hole: np.ndarray  # (H, W) bool
    src_hole: np.ndarray
    height: int
    width: int


def from_library(pair_set) -> PairSet:
    """Read an ``EpipolarPairSet`` through its public attributes."""
    pairs = [
        LinePair(
            p.key.orientation.value == "swapped",
            int(p.key.qk),
            int(p.key.qb),
            float(p.line.slope),
            float(p.line.intercept),
            np.asarray(p.ref_pixels, dtype=np.int64).reshape(-1, 2),
            np.asarray(p.src_pixels, dtype=np.int64).reshape(-1, 2),
        )
        for p in pair_set.pairs
    ]
    h, w = pair_set.image_size
    return PairSet(pairs, np.asarray(pair_set.ref_hole_mask), np.asarray(pair_set.src_hole_mask), h, w)


def _runs_to_mask(runs, h: int, w: int) -> np.ndarray:
    flat = np.zeros(h * w, dtype=bool)
    for start, length in runs:
        flat[start : start + length] = True
    return flat.reshape(h, w)


def from_schema1(data: dict) -> PairSet:
    """Read the schema-1 JSON export."""
    if data.get("schema") != 1:
        raise ValueError(f"unexpected schema {data.get('schema')!r}")
    h, w = data["image_size"]
    pairs = [
        LinePair(
            e["orientation"] == "swapped",
            int(e["qk"]),
            int(e["qb"]),
            float(e["k"]),
            float(e["b"]),
            np.asarray(e["ref_pixels"], dtype=np.int64).reshape(-1, 2),
            np.asarray(e["src_pixels"], dtype=np.int64).reshape(-1, 2),
        )
        for e in data["pairs"]
    ]
    return PairSet(
        pairs,
        _runs_to_mask(data["ref_hole_mask"]["runs"], h, w),
        _runs_to_mask(data["src_hole_mask"]["runs"], h, w),
        h,
        w,
    )


def _distance(p: LinePair, xy: np.ndarray) -> np.ndarray:
    x, y = xy[:, 0].astype(float), xy[:, 1].astype(float)
    if p.swapped:
        return np.abs(x - p.k * y - p.b) / math.sqrt(1.0 + p.k * p.k)
    return np.abs(y - p.k * x - p.b) / math.sqrt(1.0 + p.k * p.k)


def _arc(p: LinePair, xy: np.ndarray) -> np.ndarray:
    x, y = xy[:, 0].astype(float), xy[:, 1].astype(float)
    norm = math.sqrt(1.0 + p.k * p.k)
    return (p.k * x + y) / norm if p.swapped else (x + p.k * y) / norm


def _partition(ps: PairSet, side: str) -> list:
    h, w = ps.height, ps.width
    counts = np.zeros(h * w, dtype=np.int64)
    for p in ps.pairs:
        xy = p.ref if side == "ref" else p.src
        if len(xy) and (xy.min() < 0 or xy[:, 0].max() >= w or xy[:, 1].max() >= h):
            return [f"{side} pixel outside the image"]
        np.add.at(counts, xy[:, 1] * w + xy[:, 0], 1)
    hole = ps.ref_hole if side == "ref" else ps.src_hole
    counts += np.asarray(hole, dtype=bool).ravel()
    bad = int((counts != 1).sum())
    return [f"{side} partition broken at {bad} pixels"] if bad else []


def _reference_lines(rig: Rig) -> dict:
    """Each reference pixel's epipolar line in both orientations.

    Keys: ``swapped`` (the orientation with |slope| <= 1), ``ambiguous``
    (|slope| within rounding of 1), and ``slope``/``intercept`` indexed by
    orientation (0 standard, 1 swapped).
    """
    ys, xs = np.mgrid[0 : rig.height, 0 : rig.width]
    homog = np.stack([xs.ravel(), ys.ravel(), np.ones(xs.size)]).astype(float)
    a, b, c = rig.fundamental() @ homog
    # a*x' + b*y' + c = 0 moves along (b, -a): y' = k*x' + i for |a| <= |b|,
    # otherwise x' = k*y' + i.
    with np.errstate(divide="ignore", invalid="ignore"):
        return {
            "swapped": np.abs(a) > np.abs(b),
            "ambiguous": np.abs(np.abs(a) - np.abs(b)) <= 1e-9 * np.maximum(np.abs(a), np.abs(b)),
            "slope": (-a / b, -b / a),
            "intercept": (-c / b, -c / a),
        }


def check_pairs(ps: PairSet, rig: Rig, s_k: float, s_b: float, delta: float, brute: bool) -> list:
    """Every pair-set invariant; ``brute`` adds the brute-force re-derivations."""
    problems = _partition(ps, "ref") + _partition(ps, "src")
    if problems:
        return problems
    keys = [(int(p.swapped), p.qk, p.qb) for p in ps.pairs]
    if keys != sorted(set(keys)):
        problems.append("pairs are not strictly sorted by (orientation, qk, qb)")
    lines = _reference_lines(rig)
    w = ps.width
    for i, p in enumerate(ps.pairs):
        if abs(p.k - p.qk * s_k) > 1e-9 * max(1.0, abs(p.k)) or abs(p.b - p.qb * s_b) > 1e-9 * max(
            1.0, abs(p.b)
        ):
            problems.append(f"pair {i}: line does not match its key")
        if len(p.ref) < 2:
            problems.append(f"pair {i}: reference cluster of {len(p.ref)} pixels")
        if len(p.src) and not (_distance(p, p.src) < delta).all():
            problems.append(f"pair {i}: source pixel farther than delta from its line")
        for side, xy in (("ref", p.ref), ("src", p.src)):
            if len(xy) > 1 and (np.diff(_arc(p, xy)) < -1e-9).any():
                problems.append(f"pair {i}: {side} pixels out of order along the line")
        flat = p.ref[:, 1] * w + p.ref[:, 0]
        same_side = (lines["swapped"][flat] == p.swapped) | lines["ambiguous"][flat]
        intercept = lines["intercept"][int(p.swapped)][flat]
        k_off = np.abs(lines["slope"][int(p.swapped)][flat] / s_k - p.qk)
        b_off = np.abs(intercept / s_b - p.qb)
        b_tol = 0.5 + 1e-7 + 1e-9 * np.abs(intercept / s_b)
        if not (same_side & (k_off <= 0.5 + 1e-7) & (b_off <= b_tol)).all():
            problems.append(f"pair {i}: a reference pixel's own line does not round to the key")
    if brute and not problems:
        problems += _brute_source(ps, delta) + _brute_reference(ps, s_k, s_b, lines)
    return problems


def _brute_source(ps: PairSet, delta: float) -> list:
    """Every source pixel within delta of some line belongs to a nearest one
    (within 1e-9), and no other source pixel is assigned."""
    h, w = ps.height, ps.width
    ys, xs = np.mgrid[0:h, 0:w]
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    assigned = np.full(h * w, -1)
    for i, p in enumerate(ps.pairs):
        assigned[p.src[:, 1] * w + p.src[:, 0]] = i
    best = np.full(h * w, np.inf)
    own = np.full(h * w, np.inf)
    for i, p in enumerate(ps.pairs):
        d = _distance(p, grid)
        best = np.minimum(best, d)
        own = np.where(assigned == i, d, own)
    slack = 1e-9
    near_edge = np.abs(best - delta) <= slack
    should = best < delta
    wrong_membership = (should != (assigned >= 0)) & ~near_edge
    wrong_line = (assigned >= 0) & (own > best + slack)
    bad = int((wrong_membership | wrong_line).sum())
    return [f"nearest-line check failed at {bad} source pixels"] if bad else []


def _brute_reference(ps: PairSet, s_k: float, s_b: float, lines: dict) -> list:
    """Re-cluster the reference view: clusters of 2+ pixels are pairs, the rest holes."""
    swapped = lines["swapped"]
    qk_f = np.where(swapped, lines["slope"][1], lines["slope"][0]) / s_k
    qb_f = np.where(swapped, lines["intercept"][1], lines["intercept"][0]) / s_b
    near_tie = (np.abs(np.abs(qk_f - np.floor(qk_f)) - 0.5) < 1e-7) | (
        np.abs(np.abs(qb_f - np.floor(qb_f)) - 0.5) < 1e-7 * max(1.0, float(np.abs(qb_f).max()))
    )
    unsure = lines["ambiguous"] | near_tie
    keys = np.stack([swapped.astype(np.int64), np.rint(qk_f).astype(np.int64), np.rint(qb_f).astype(np.int64)], axis=1)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    group_unsure = np.zeros(counts.size, dtype=bool)
    np.logical_or.at(group_unsure, inverse, unsure)
    w = ps.width
    member = np.full(ps.height * w, -1)
    bad = 0
    for i, p in enumerate(ps.pairs):
        flat = p.ref[:, 1] * w + p.ref[:, 0]
        member[flat] = i
        mismatch = (keys[flat] != np.array([int(p.swapped), p.qk, p.qb])).any(axis=1) & ~unsure[flat]
        bad += int(mismatch.sum())
    hole = member < 0
    wrongly_dropped = hole & (counts[inverse] >= 2) & ~group_unsure[inverse]
    bad += int(wrongly_dropped.sum())
    return [f"reference clustering check failed at {bad} pixels"] if bad else []


def _sine(n: int, c: int) -> np.ndarray:
    pos = np.arange(n, dtype=np.float64)[:, None]
    angle = pos / 10000.0 ** (np.arange(0, c, 2, dtype=np.float64) / c)
    pe = np.empty((n, c))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def _attend(queries: np.ndarray, keys: np.ndarray, p: dict) -> np.ndarray:
    """Multi-head attention, one head at a time."""
    n, c = queries.shape
    d = c // HEADS
    q = queries @ p["wq"] + p["bq"]
    k = keys @ p["wk"] + p["bk"]
    v = keys @ p["wv"] + p["bv"]
    context = np.empty((n, c))
    for h in range(HEADS):
        cols = slice(h * d, (h + 1) * d)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(d)
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        context[:, cols] = (scores / scores.sum(axis=1, keepdims=True)) @ v[:, cols]
    return context @ p["wo"] + p["bo"]


def line_attention(queries: np.ndarray, keys: np.ndarray, weights: dict) -> np.ndarray:
    """Augment one query line from itself and its paired key line."""
    c = queries.shape[1]
    s = queries.astype(np.float64) + _sine(len(queries), c)
    r = keys.astype(np.float64) + _sine(len(keys), c) if len(keys) else keys
    for block in weights["blocks"]:
        s = _attend(s, s, block["intra"]) + s
        if len(r):
            s = _attend(s, r, block["cross"]) + s
            f = block["ffn"]
            s = np.maximum(s @ f["w1"] + f["b1"], 0.0) @ f["w2"] + f["b2"] + s
    return s


def local_conv(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size zero-padded convolution, one kernel tap at a time."""
    h, w, _ = x.shape
    k = kernel.shape[0]
    r = k // 2
    out = np.broadcast_to(bias, (h, w, kernel.shape[3])).astype(np.float64)
    for u in range(k):
        for v in range(k):
            dy, dx = u - r, v - r
            ys, xs = slice(max(0, -dy), min(h, h - dy)), slice(max(0, -dx), min(w, w - dx))
            yi, xi = slice(ys.start + dy, ys.stop + dy), slice(xs.start + dx, xs.stop + dx)
            out[ys, xs] += x[yi, xi] @ kernel[u, v]
    return out


def augmented_side(query_map, key_map, ps: PairSet, query_side: str, weights: dict):
    """Expected augmented map of ``query_side`` plus the scattered map the
    convolution saw (kept in the template's dtype, as the library keeps it)."""
    scattered = query_map.copy()
    for p in ps.pairs:
        q_xy, k_xy = (p.src, p.ref) if query_side == "src" else (p.ref, p.src)
        if len(q_xy) == 0:
            continue
        tokens = query_map[q_xy[:, 1], q_xy[:, 0]]
        keys = key_map[k_xy[:, 1], k_xy[:, 0]]
        scattered[q_xy[:, 1], q_xy[:, 0]] = line_attention(tokens, keys, weights)
    return local_conv(scattered.astype(np.float64), weights["kernel"], weights["bias"]), scattered


def compare_f64(actual: np.ndarray, expected: np.ndarray, what: str) -> list:
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != {expected.shape}"]
    err = np.abs(actual - expected) - F64_TOL * (1.0 + np.abs(expected))
    bad = int((~(err <= 0.0)).sum())
    return [f"{what}: {bad} values off by more than {F64_TOL:g}"] if bad else []


def _ulp32(x: np.ndarray) -> np.ndarray:
    return np.spacing(np.abs(x).astype(np.float32)).astype(np.float64)


def compare_f32(actual: np.ndarray, expected: np.ndarray, scattered: np.ndarray, kernel, what: str) -> list:
    """Float32 output against the float64 oracle.

    Allowed: one float32 rounding of the output, plus what one-ulp flips in the
    float32 scattered map can change after the convolution.
    """
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != {expected.shape}"]
    propagated = local_conv(_ulp32(scattered), np.abs(kernel), np.zeros(kernel.shape[3]))
    err = np.abs(actual.astype(np.float64) - expected) - (_ulp32(expected) + propagated)
    bad = int((~(err <= 0.0)).sum())
    return [f"{what}: {bad} values off by more than float32 rounding"] if bad else []
