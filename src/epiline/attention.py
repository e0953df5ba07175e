"""Line-sequence attention: per-line self-attention, cross-line attention with
a feed-forward stage, and a final local convolution.

Each source sequence is augmented in place of its residual stream:

    s = mhsa(s) + s                      (within the source line)
    s = mhca(s, r, r) + s                (from the paired reference line)
    s = ffn(s) + s

stackable ``n_blocks`` times, with sinusoidal position offsets along the line
added once before the first block. Augmented sequences are scattered back to
the grid and a stride-1 convolution re-aggregates local context, filling the
hole pixels no sequence wrote to. All arithmetic runs in float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    IndexMisalignmentError,
    OddChannelsError,
)
from .pair_search import EpipolarPairSet
from .sequences import FeatureMap, LineSequence, gather, scatter

_EPWT_MAGIC = b"EPWT"

_PE_MODES = ("none", "sine")


@dataclass(frozen=True)
class AttentionConfig:
    """Shape and wiring of the augmentation stack."""

    channels: int
    heads: int
    ffn_ratio: int = 4
    n_blocks: int = 1
    pe_mode: str = "sine"
    la_kernel: int = 3

    def __post_init__(self):
        if self.channels < 1 or self.heads < 1 or self.channels % self.heads != 0:
            raise ValueError(
                f"channels ({self.channels}) must be a positive multiple of heads ({self.heads})"
            )
        if self.ffn_ratio < 1:
            raise ValueError("ffn_ratio must be at least 1")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be at least 1")
        if self.la_kernel < 1 or self.la_kernel % 2 == 0:
            raise ValueError("la_kernel must be odd")
        if self.pe_mode not in _PE_MODES:
            raise ValueError(f"pe_mode must be one of {_PE_MODES}, got {self.pe_mode!r}")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


@dataclass(frozen=True)
class AttentionProjection:
    """Query/key/value/output projections of one attention layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray


@dataclass(frozen=True)
class FeedForwardWeights:
    w1: np.ndarray  # (c, ffn_ratio * c)
    b1: np.ndarray
    w2: np.ndarray  # (ffn_ratio * c, c)
    b2: np.ndarray


@dataclass(frozen=True)
class BlockWeights:
    intra: AttentionProjection
    cross: AttentionProjection
    ffn: FeedForwardWeights


@dataclass(frozen=True)
class LocalAugmentWeights:
    kernel: np.ndarray  # (k, k, c_in, c_out)
    bias: np.ndarray  # (c_out,)


@dataclass(frozen=True)
class AttentionWeights:
    """Weights for every block plus the local convolution."""

    blocks: tuple[BlockWeights, ...]
    local: LocalAugmentWeights


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically shifted softmax; rows sum to one."""
    shifted = scores - scores.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def sine_pe(n: int, c: int) -> np.ndarray:
    """Sinusoidal position offsets for an n-token sequence of c channels.

    Channel 2i holds sin(pos / 10000^(2i/c)), channel 2i+1 the matching cos.
    Positions index tokens along the ordered sequence.
    """
    if c % 2 != 0:
        raise OddChannelsError(f"channel count must be even, got {c}")
    positions = np.arange(n, dtype=np.float64)[:, None]
    wavelengths = 10000.0 ** (np.arange(0, c, 2, dtype=np.float64) / c)
    angles = positions / wavelengths[None, :]
    pe = np.empty((n, c), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def mhca(
    query_seq: np.ndarray,
    kv_seq: np.ndarray,
    proj: AttentionProjection,
    heads: int,
    return_attention: bool = False,
):
    """Multi-head attention with queries from one sequence, keys/values from another.

    Scores are scaled by sqrt(head_dim) and softmaxed over keys per head.
    Returns the pre-residual output (n_q, c), or (output, attention) with
    attention shaped (heads, n_q, n_kv) when requested.
    """
    query_seq = np.asarray(query_seq, dtype=np.float64)
    kv_seq = np.asarray(kv_seq, dtype=np.float64)
    n_q, c = query_seq.shape
    n_kv = kv_seq.shape[0]
    if n_q < 1 or n_kv < 1:
        raise ValueError("attention requires at least one query and one key")
    if c % heads != 0:
        raise ValueError(f"channels ({c}) not divisible by heads ({heads})")
    d = c // heads

    q = query_seq @ proj.wq + proj.bq
    k = kv_seq @ proj.wk + proj.bk
    v = kv_seq @ proj.wv + proj.bv

    qh = q.reshape(n_q, heads, d).transpose(1, 0, 2)
    kh = k.reshape(n_kv, heads, d).transpose(1, 0, 2)
    vh = v.reshape(n_kv, heads, d).transpose(1, 0, 2)

    scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(d)
    attention = softmax(scores, axis=-1)
    context = attention @ vh
    merged = context.transpose(1, 0, 2).reshape(n_q, c)
    out = merged @ proj.wo + proj.bo
    if return_attention:
        return out, attention
    return out


def mhsa(seq: np.ndarray, proj: AttentionProjection, heads: int, return_attention: bool = False):
    """Multi-head self-attention: queries, keys and values from the same sequence."""
    return mhca(seq, seq, proj, heads, return_attention=return_attention)


def feed_forward(seq: np.ndarray, ffn: FeedForwardWeights) -> np.ndarray:
    return np.maximum(seq @ ffn.w1 + ffn.b1, 0.0) @ ffn.w2 + ffn.b2


def et_forward(
    ref_seqs: list[LineSequence],
    src_seqs: list[LineSequence],
    weights: AttentionWeights,
    config: AttentionConfig,
) -> list[LineSequence]:
    """Augment every source sequence from itself and its paired reference sequence.

    Pairs with an empty source sequence pass through untouched; pairs with an
    empty reference sequence skip the cross-attention and feed-forward steps.
    Inputs are never mutated.

    Raises:
        IndexMisalignmentError: When the two lists are not aligned pair-by-pair.
    """
    if len(ref_seqs) != len(src_seqs):
        raise IndexMisalignmentError(
            f"{len(ref_seqs)} reference sequences vs {len(src_seqs)} source sequences"
        )
    out = []
    for ref_seq, src_seq in zip(ref_seqs, src_seqs):
        if ref_seq.pair_index != src_seq.pair_index:
            raise IndexMisalignmentError(
                f"pair index mismatch: {ref_seq.pair_index} vs {src_seq.pair_index}"
            )
        if src_seq.n == 0:
            out.append(src_seq)
            continue
        src = np.asarray(src_seq.tokens, dtype=np.float64).copy()
        ref = np.asarray(ref_seq.tokens, dtype=np.float64).copy()
        if config.pe_mode == "sine":
            src = src + sine_pe(src.shape[0], config.channels)
            if ref.shape[0] > 0:
                ref = ref + sine_pe(ref.shape[0], config.channels)
        for block in weights.blocks:
            src = mhsa(src, block.intra, config.heads) + src
            if ref.shape[0] > 0:
                src = mhca(src, ref, block.cross, config.heads) + src
                src = feed_forward(src, block.ffn) + src
        out.append(
            LineSequence(pair_index=src_seq.pair_index, tokens=src, pixel_order=src_seq.pixel_order)
        )
    return out


def local_augment(fmap: FeatureMap, local: LocalAugmentWeights) -> FeatureMap:
    """Stride-1, zero-padded, same-size convolution over the whole map.

    Applied to every pixel, holes included; that is what fills hole pixels
    with neighboring context.
    """
    kernel = np.asarray(local.kernel, dtype=np.float64)
    k = kernel.shape[0]
    if kernel.ndim != 4 or kernel.shape[1] != k or k % 2 == 0:
        raise ValueError(f"kernel must be (k, k, c_in, c_out) with odd k, got {kernel.shape}")
    if kernel.shape[2] != fmap.channels:
        raise ValueError(
            f"kernel expects {kernel.shape[2]} input channels, map has {fmap.channels}"
        )
    r = k // 2
    h, w, _ = fmap.data.shape
    c_out = kernel.shape[3]
    padded = np.zeros((h + 2 * r, w + 2 * r, fmap.channels), dtype=np.float64)
    padded[r : r + h, r : r + w] = fmap.data
    out = np.zeros((h, w, c_out), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            out += padded[u : u + h, v : v + w] @ kernel[u, v]
    out += np.asarray(local.bias, dtype=np.float64)
    return FeatureMap(out)


def identity_local_weights(channels: int, kernel_size: int = 3) -> LocalAugmentWeights:
    """Delta kernel: the convolution becomes the identity map."""
    kernel = np.zeros((kernel_size, kernel_size, channels, channels))
    kernel[kernel_size // 2, kernel_size // 2] = np.eye(channels)
    return LocalAugmentWeights(kernel=kernel, bias=np.zeros(channels))


def augment_pipeline(
    ref_map: FeatureMap,
    src_map: FeatureMap,
    pairs: EpipolarPairSet,
    weights: AttentionWeights,
    config: AttentionConfig,
    side: str = "src",
) -> FeatureMap:
    """Gather both sides, augment one side's sequences, scatter, then smooth.

    With ``side="src"`` each source sequence attends to its paired reference
    sequence and the enhanced source map is returned. ``side="ref"`` is the
    mirrored pass: reference sequences attend to their source partners and
    the enhanced reference map is returned. Hole pixels of the returned side
    keep their template values until the final convolution mixes in their
    neighborhoods.
    """
    if side not in ("ref", "src"):
        raise ValueError(f"side must be 'ref' or 'src', got {side!r}")
    other = "ref" if side == "src" else "src"
    maps = {"ref": ref_map, "src": src_map}
    keys = gather(maps[other], pairs, other)
    queries = gather(maps[side], pairs, side)
    augmented = et_forward(keys, queries, weights, config)
    scattered = scatter(augmented, pairs, template=maps[side])
    return local_augment(scattered, weights.local)


# The eight tensors of one projection in dataclass-field order, which is the
# order seeded_weights draws them in, and in the interleaved order of EPWT.
_DRAW_ORDER = tuple(f.name for f in fields(AttentionProjection))
_EPWT_ORDER = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def _weight_spec(config: AttentionConfig, projection_order=_EPWT_ORDER):
    """Every weight tensor of the stack as (key, shape), in EPWT payload order.

    A key is the attribute path into AttentionWeights, e.g. "blocks.0.intra.wq".
    Per block come the intra and cross projections, each in
    ``projection_order``, then ffn w1, b1, w2, b2; then the local kernel and
    bias.
    """
    c, hidden, k = config.channels, config.ffn_ratio * config.channels, config.la_kernel
    for b in range(config.n_blocks):
        for layer in ("intra", "cross"):
            for name in projection_order:
                yield f"blocks.{b}.{layer}.{name}", (c, c) if name.startswith("w") else (c,)
        yield f"blocks.{b}.ffn.w1", (c, hidden)
        yield f"blocks.{b}.ffn.b1", (hidden,)
        yield f"blocks.{b}.ffn.w2", (hidden, c)
        yield f"blocks.{b}.ffn.b2", (c,)
    yield "local.kernel", (k, k, c, c)
    yield "local.bias", (c,)


def _assemble(config: AttentionConfig, tensors: dict) -> AttentionWeights:
    """AttentionWeights from arrays keyed as in :func:`_weight_spec`."""

    def group(cls, prefix):
        return cls(**{f.name: tensors[f"{prefix}.{f.name}"] for f in fields(cls)})

    blocks = tuple(
        BlockWeights(
            intra=group(AttentionProjection, f"blocks.{b}.intra"),
            cross=group(AttentionProjection, f"blocks.{b}.cross"),
            ffn=group(FeedForwardWeights, f"blocks.{b}.ffn"),
        )
        for b in range(config.n_blocks)
    )
    return AttentionWeights(blocks=blocks, local=group(LocalAugmentWeights, "local"))


def _tensor(weights: AttentionWeights, key: str) -> np.ndarray:
    """The tensor at a :func:`_weight_spec` key."""
    node = weights
    for part in key.split("."):
        node = node[int(part)] if part.isdigit() else getattr(node, part)
    return np.asarray(node)


def seeded_weights(config: AttentionConfig, seed: int) -> AttentionWeights:
    """Reproducible weights, uniform in [-1/sqrt(c), 1/sqrt(c)].

    There is no training here, so initialization only pins down demo and
    benchmark outputs. Tensors are drawn in dataclass-field order.
    """
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(config.channels)
    return _assemble(
        config,
        {
            key: rng.uniform(-bound, bound, size=shape)
            for key, shape in _weight_spec(config, _DRAW_ORDER)
        },
    )


def zero_weights(config: AttentionConfig) -> AttentionWeights:
    """All-zero weights; with an identity local kernel the pipeline is the identity."""
    return _assemble(config, {key: np.zeros(shape) for key, shape in _weight_spec(config)})


def write_weights(path, weights: AttentionWeights, config: AttentionConfig) -> None:
    """Write the binary container: 'EPWT' header then f32 tensors.

    Header fields: u32 n_blocks, channels, heads, ffn_ratio, la_kernel. The
    tensor payload order is, per block: intra wq,bq,wk,bk,wv,bv,wo,bo; cross
    likewise; ffn w1,b1,w2,b2; then the local kernel and bias.

    Raises:
        ValueError: When the weights do not have the shapes ``config`` implies.
    """
    if len(weights.blocks) != config.n_blocks:
        raise ValueError(f"{len(weights.blocks)} weight blocks, config has {config.n_blocks}")
    tensors = []
    for key, shape in _weight_spec(config):
        tensor = _tensor(weights, key)
        if tensor.shape != shape:
            raise ValueError(f"weight {key} is {tensor.shape}, config implies {shape}")
        tensors.append(tensor)
    header = _EPWT_MAGIC + struct.pack(
        "<IIIII",
        config.n_blocks,
        config.channels,
        config.heads,
        config.ffn_ratio,
        config.la_kernel,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for tensor in tensors:
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def read_weights(path) -> tuple[AttentionWeights, AttentionConfig]:
    """Read a weight container; the positional mode defaults to "sine"."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24 or blob[:4] != _EPWT_MAGIC:
        raise ValueError(f"{path}: not a weight file (bad magic)")
    n_blocks, channels, heads, ffn_ratio, la_kernel = struct.unpack("<IIIII", blob[4:24])
    config = AttentionConfig(
        channels=channels,
        heads=heads,
        ffn_ratio=ffn_ratio,
        n_blocks=n_blocks,
        pe_mode="sine",
        la_kernel=la_kernel,
    )
    values = np.frombuffer(blob, dtype="<f4", offset=24).astype(np.float64)
    tensors, consumed = {}, 0
    for key, shape in _weight_spec(config):
        size = math.prod(shape)
        chunk = values[consumed : consumed + size]
        if chunk.size != size:
            raise ValueError(f"{path}: truncated weight payload")
        tensors[key] = chunk.reshape(shape)
        consumed += size
    if consumed != values.size:
        raise ValueError(f"{path}: {values.size - consumed} unread trailing values")
    return _assemble(config, tensors), config
