"""Attention-stack tests: encodings, attention kernels, the block forward pass,
the local convolution, and weight serialization."""

import numpy as np
import pytest

from epiline import (
    AttentionConfig,
    AttentionWeights,
    FeatureMap,
    IndexMisalignmentError,
    LineSequence,
    OddChannelsError,
    SearchConfig,
    augment_pipeline,
    et_forward,
    gather,
    identity_local_weights,
    local_augment,
    mhca,
    mhsa,
    read_weights,
    scatter,
    search_pairs,
    seeded_weights,
    sine_pe,
    write_weights,
    zero_weights,
)
from epiline import synthetic
from epiline.attention import LocalAugmentWeights
from epiline.verify import reference_attention, reference_et_forward, reference_sine_pe

from tests import oracles


def make_sequences(rng, config, lengths):
    """Aligned (ref, src) LineSequence lists with the given (n_ref, n_src) lengths."""
    refs, srcs = [], []
    for index, (n_ref, n_src) in enumerate(lengths):
        refs.append(
            LineSequence(
                index,
                rng.standard_normal((n_ref, config.channels)),
                np.stack([np.arange(n_ref), np.full(n_ref, 2 * index)], axis=1),
            )
        )
        srcs.append(
            LineSequence(
                index,
                rng.standard_normal((n_src, config.channels)),
                np.stack([np.arange(n_src), np.full(n_src, 2 * index + 1)], axis=1),
            )
        )
    return refs, srcs


class TestSinePe:
    def test_position_zero_row(self):
        pe = sine_pe(4, 6)
        np.testing.assert_array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_two_channel_single_frequency(self):
        pe = sine_pe(3, 2)
        assert pe[1, 0] == pytest.approx(np.sin(1.0))
        assert pe[1, 1] == pytest.approx(np.cos(1.0))

    def test_bounded_and_distinct_rows(self):
        pe = sine_pe(512, 32)
        assert pe.min() >= -1.0 and pe.max() <= 1.0
        assert len(np.unique(pe, axis=0)) == 512

    def test_matches_naive_loop(self):
        np.testing.assert_allclose(sine_pe(20, 8), reference_sine_pe(20, 8), atol=1e-15)

    def test_odd_channels_rejected(self):
        with pytest.raises(OddChannelsError):
            sine_pe(4, 7)


class TestMhsa:
    def test_single_token_attention_is_one(self):
        config = AttentionConfig(channels=8, heads=2, pe_mode="none")
        weights = seeded_weights(config, 0)
        proj = weights.blocks[0].intra
        x = np.random.default_rng(0).standard_normal((1, 8))
        out, attn = mhsa(x, proj, heads=2, return_attention=True)
        np.testing.assert_array_equal(attn, np.ones((2, 1, 1)))
        expected = (x @ proj.wv + proj.bv) @ proj.wo + proj.bo
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_permutation_equivariance_without_pe(self):
        rng = np.random.default_rng(1)
        config = AttentionConfig(channels=16, heads=4, pe_mode="none")
        proj = seeded_weights(config, 1).blocks[0].intra
        x = rng.standard_normal((9, 16))
        perm = rng.permutation(9)
        np.testing.assert_allclose(
            mhsa(x, proj, 4)[perm], mhsa(x[perm], proj, 4), atol=1e-10
        )

    def test_matches_naive_per_head_loop(self):
        rng = np.random.default_rng(2)
        config = AttentionConfig(channels=16, heads=4, pe_mode="none")
        proj = seeded_weights(config, 2).blocks[0].intra
        x = rng.standard_normal((12, 16))
        expected = reference_attention(x, x, proj, 4)
        np.testing.assert_allclose(mhsa(x, proj, 4), expected, atol=1e-10)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        config = AttentionConfig(channels=24, heads=8, pe_mode="none")
        proj = seeded_weights(config, 3).blocks[0].intra
        x = rng.standard_normal((30, 24)) * 10.0
        _, attn = mhsa(x, proj, 8, return_attention=True)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


class TestMhca:
    def test_single_key_gets_full_weight(self):
        rng = np.random.default_rng(4)
        config = AttentionConfig(channels=8, heads=2, pe_mode="none")
        proj = seeded_weights(config, 4).blocks[0].cross
        q = rng.standard_normal((5, 8))
        kv = rng.standard_normal((1, 8))
        out, attn = mhca(q, kv, proj, 2, return_attention=True)
        np.testing.assert_array_equal(attn, np.ones((2, 5, 1)))
        expected = np.tile((kv @ proj.wv + proj.bv) @ proj.wo + proj.bo, (5, 1))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identical_keys_make_weights_irrelevant(self):
        rng = np.random.default_rng(5)
        config = AttentionConfig(channels=8, heads=2, pe_mode="none")
        proj = seeded_weights(config, 5).blocks[0].cross
        q = rng.standard_normal((4, 8))
        row = rng.standard_normal(8)
        kv = np.tile(row, (6, 1))
        out = mhca(q, kv, proj, 2)
        expected = (row @ proj.wv + proj.bv) @ proj.wo + proj.bo
        np.testing.assert_allclose(out, np.tile(expected, (4, 1)), atol=1e-12)

    def test_rectangular_shapes_match_naive(self):
        rng = np.random.default_rng(6)
        config = AttentionConfig(channels=16, heads=4, pe_mode="none")
        proj = seeded_weights(config, 6).blocks[0].cross
        q = rng.standard_normal((5, 16))
        kv = rng.standard_normal((7, 16))
        expected = reference_attention(q, kv, proj, 4)
        np.testing.assert_allclose(mhca(q, kv, proj, 4), expected, atol=1e-10)

    def test_empty_inputs_rejected(self):
        config = AttentionConfig(channels=8, heads=2, pe_mode="none")
        proj = seeded_weights(config, 7).blocks[0].cross
        with pytest.raises(ValueError):
            mhca(np.zeros((0, 8)), np.zeros((3, 8)), proj, 2)


class TestEtForward:
    def test_zero_weights_are_identity(self):
        rng = np.random.default_rng(8)
        config = AttentionConfig(channels=16, heads=4, pe_mode="none")
        weights = zero_weights(config)
        refs, srcs = make_sequences(rng, config, [(6, 4), (3, 8)])
        out = et_forward(refs, srcs, weights, config)
        for before, after in zip(srcs, out):
            np.testing.assert_array_equal(after.tokens, before.tokens)

    def test_single_token_pair_composition_by_hand(self):
        rng = np.random.default_rng(9)
        config = AttentionConfig(channels=8, heads=2, pe_mode="none")
        weights = seeded_weights(config, 9)
        block = weights.blocks[0]
        refs, srcs = make_sequences(rng, config, [(1, 1)])
        out = et_forward(refs, srcs, weights, config)[0].tokens

        s = srcs[0].tokens.astype(float)
        r = refs[0].tokens.astype(float)
        s = mhsa(s, block.intra, 2) + s
        s = mhca(s, r, block.cross, 2) + s
        s = np.maximum(s @ block.ffn.w1 + block.ffn.b1, 0.0) @ block.ffn.w2 + block.ffn.b2 + s
        np.testing.assert_allclose(out, s, atol=1e-12)

    def test_matches_sequential_naive_oracle(self):
        rng = np.random.default_rng(10)
        config = AttentionConfig(channels=16, heads=4, pe_mode="sine")
        weights = seeded_weights(config, 10)
        lengths = [(int(rng.integers(0, 20)), int(rng.integers(0, 20))) for _ in range(10)]
        refs, srcs = make_sequences(rng, config, lengths)
        got = et_forward(refs, srcs, weights, config)
        expected = reference_et_forward(
            [r.tokens for r in refs], [s.tokens for s in srcs], weights, config
        )
        for got_seq, exp_tokens in zip(got, expected):
            np.testing.assert_allclose(got_seq.tokens, exp_tokens, atol=1e-8)

    def test_empty_ref_skips_cross_and_ffn(self):
        rng = np.random.default_rng(11)
        config = AttentionConfig(channels=8, heads=2, pe_mode="none")
        weights = seeded_weights(config, 11)
        refs, srcs = make_sequences(rng, config, [(0, 5)])
        out = et_forward(refs, srcs, weights, config)[0].tokens
        s = srcs[0].tokens.astype(float)
        expected = mhsa(s, weights.blocks[0].intra, 2) + s
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_empty_src_passes_through(self):
        rng = np.random.default_rng(12)
        config = AttentionConfig(channels=8, heads=2)
        weights = seeded_weights(config, 12)
        refs, srcs = make_sequences(rng, config, [(4, 0)])
        out = et_forward(refs, srcs, weights, config)
        assert out[0] is srcs[0]

    def test_does_not_mutate_inputs(self):
        rng = np.random.default_rng(13)
        config = AttentionConfig(channels=8, heads=2, pe_mode="sine")
        weights = seeded_weights(config, 13)
        refs, srcs = make_sequences(rng, config, [(3, 3)])
        ref_copy = refs[0].tokens.copy()
        src_copy = srcs[0].tokens.copy()
        et_forward(refs, srcs, weights, config)
        np.testing.assert_array_equal(refs[0].tokens, ref_copy)
        np.testing.assert_array_equal(srcs[0].tokens, src_copy)

    def test_misaligned_lists_rejected(self):
        rng = np.random.default_rng(14)
        config = AttentionConfig(channels=8, heads=2)
        weights = seeded_weights(config, 14)
        refs, srcs = make_sequences(rng, config, [(2, 2), (2, 2)])
        with pytest.raises(IndexMisalignmentError):
            et_forward(refs[:1], srcs, weights, config)
        srcs_shifted = [srcs[1], srcs[0]]
        with pytest.raises(IndexMisalignmentError):
            et_forward(refs, srcs_shifted, weights, config)

    def test_sine_pe_breaks_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        base = dict(channels=16, heads=4)
        weights = seeded_weights(AttentionConfig(pe_mode="none", **base), 15)
        refs, srcs = make_sequences(rng, AttentionConfig(pe_mode="none", **base), [(6, 6)])
        perm = rng.permutation(6)

        def run(pe_mode, src_tokens):
            config = AttentionConfig(pe_mode=pe_mode, **base)
            seq = [LineSequence(0, src_tokens, srcs[0].pixel_order)]
            return et_forward(refs, seq, weights, config)[0].tokens

        for pe_mode, should_hold in (("none", True), ("sine", False)):
            plain = run(pe_mode, srcs[0].tokens)[perm]
            permuted = run(pe_mode, srcs[0].tokens[perm])
            if should_hold:
                np.testing.assert_allclose(plain, permuted, atol=1e-10)
            else:
                assert np.abs(plain - permuted).max() > 1e-3

    def test_cross_pair_isolation(self):
        rng = np.random.default_rng(16)
        config = AttentionConfig(channels=16, heads=4, pe_mode="sine")
        weights = seeded_weights(config, 16)
        refs, srcs = make_sequences(rng, config, [(5, 5), (5, 5), (5, 5)])
        baseline = et_forward(refs, srcs, weights, config)
        changed_ref = LineSequence(
            1, refs[1].tokens + rng.standard_normal(refs[1].tokens.shape), refs[1].pixel_order
        )
        perturbed = et_forward([refs[0], changed_ref, refs[2]], srcs, weights, config)
        np.testing.assert_array_equal(baseline[0].tokens, perturbed[0].tokens)
        np.testing.assert_array_equal(baseline[2].tokens, perturbed[2].tokens)
        assert np.abs(baseline[1].tokens - perturbed[1].tokens).max() > 1e-6

    def test_stacked_blocks_run(self):
        rng = np.random.default_rng(17)
        config = AttentionConfig(channels=8, heads=2, n_blocks=3, pe_mode="sine")
        weights = seeded_weights(config, 17)
        refs, srcs = make_sequences(rng, config, [(4, 6)])
        got = et_forward(refs, srcs, weights, config)
        expected = reference_et_forward(
            [refs[0].tokens], [srcs[0].tokens], weights, config
        )
        np.testing.assert_allclose(got[0].tokens, expected[0], atol=1e-8)


class TestLocalAugment:
    def test_identity_kernel(self):
        rng = np.random.default_rng(19)
        fmap = FeatureMap(rng.standard_normal((6, 7, 4)))
        out = local_augment(fmap, identity_local_weights(4))
        np.testing.assert_array_equal(out.data, fmap.data)

    def test_box_filter_fills_interior_hole(self):
        v = 2.5
        data = np.full((5, 5, 1), v)
        data[2, 2, 0] = 0.0
        kernel = np.full((3, 3, 1, 1), 1.0 / 9.0)
        out = local_augment(FeatureMap(data), LocalAugmentWeights(kernel, np.zeros(1)))
        assert out.data[2, 2, 0] == pytest.approx(8.0 / 9.0 * v, abs=1e-12)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(20)
        data = rng.standard_normal((6, 5, 3))
        kernel = rng.standard_normal((3, 3, 3, 2))
        bias = rng.standard_normal(2)
        out = local_augment(FeatureMap(data), LocalAugmentWeights(kernel, bias))
        np.testing.assert_allclose(out.data, oracles.naive_conv2d(data, kernel, bias), atol=1e-10)

    def test_translation_equivariance_in_interior(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((10, 10, 2))
        shifted = np.roll(data, shift=(1, 1), axis=(0, 1))
        kernel = rng.standard_normal((3, 3, 2, 2))
        weights = LocalAugmentWeights(kernel, np.zeros(2))
        out = local_augment(FeatureMap(data), weights).data
        out_shifted = local_augment(FeatureMap(shifted), weights).data
        np.testing.assert_allclose(
            out_shifted[2:-2, 2:-2], np.roll(out, (1, 1), (0, 1))[2:-2, 2:-2], atol=1e-12
        )


class TestAugmentPipeline:
    def build(self, seed=22, h=16, w=16, c=8):
        rng = np.random.default_rng(seed)
        pair = synthetic.random_pair(rng, h, w)
        pairs = search_pairs(pair, SearchConfig(s_k=0.1, s_b=2.0, delta=1.0))
        ref_map = FeatureMap(rng.standard_normal((h, w, c)))
        src_map = FeatureMap(rng.standard_normal((h, w, c)))
        return pairs, ref_map, src_map

    def test_zero_weights_identity_kernel_is_identity(self):
        pairs, ref_map, src_map = self.build()
        config = AttentionConfig(channels=8, heads=2, pe_mode="none")
        weights = zero_weights(config)
        weights = AttentionWeights(blocks=weights.blocks, local=identity_local_weights(8))
        out = augment_pipeline(ref_map, src_map, pairs, weights, config)
        np.testing.assert_array_equal(out.data, src_map.data)

    def test_holes_changed_only_by_final_convolution(self):
        pairs, ref_map, src_map = self.build(seed=23)
        assert pairs.src_hole_mask.any()
        config = AttentionConfig(channels=8, heads=2, pe_mode="sine")
        weights = seeded_weights(config, 23)

        ref_seqs = gather(ref_map, pairs, "ref")
        src_seqs = gather(src_map, pairs, "src")
        scattered = scatter(et_forward(ref_seqs, src_seqs, weights, config), pairs, src_map)
        holes = pairs.src_hole_mask
        np.testing.assert_array_equal(scattered.data[holes], src_map.data[holes])

        out = augment_pipeline(ref_map, src_map, pairs, weights, config)
        assert np.abs(out.data[holes] - src_map.data[holes]).max() > 1e-9

    def test_pipeline_equals_manual_composition(self):
        pairs, ref_map, src_map = self.build(seed=24)
        config = AttentionConfig(channels=8, heads=2, pe_mode="sine")
        weights = seeded_weights(config, 24)
        manual = local_augment(
            scatter(
                et_forward(
                    gather(ref_map, pairs, "ref"),
                    gather(src_map, pairs, "src"),
                    weights,
                    config,
                ),
                pairs,
                src_map,
            ),
            weights.local,
        )
        out = augment_pipeline(ref_map, src_map, pairs, weights, config)
        np.testing.assert_array_equal(out.data, manual.data)

    def test_ref_side_is_the_mirrored_composition(self):
        pairs, ref_map, src_map = self.build(seed=27)
        config = AttentionConfig(channels=8, heads=2, pe_mode="sine")
        weights = seeded_weights(config, 27)
        src_seqs, ref_seqs = gather(src_map, pairs, "src"), gather(ref_map, pairs, "ref")
        mirrored = et_forward(src_seqs, ref_seqs, weights, config)
        manual = local_augment(scatter(mirrored, pairs, ref_map), weights.local)
        out = augment_pipeline(ref_map, src_map, pairs, weights, config, side="ref")
        np.testing.assert_array_equal(out.data, manual.data)
        with pytest.raises(ValueError):
            augment_pipeline(ref_map, src_map, pairs, weights, config, side="both")


class TestWeightFile:
    def test_round_trip_preserves_forward_pass(self, tmp_path):
        rng = np.random.default_rng(25)
        config = AttentionConfig(channels=8, heads=2, n_blocks=2, pe_mode="sine")
        weights = seeded_weights(config, 25)
        path = tmp_path / "weights.epwt"
        write_weights(path, weights, config)
        loaded, loaded_config = read_weights(path)
        assert loaded_config == config

        refs, srcs = make_sequences(rng, config, [(5, 6)])
        # f32 storage quantizes the weights, so run both passes with the
        # loaded copy and demand exact agreement.
        first = et_forward(refs, srcs, loaded, loaded_config)[0].tokens
        second = et_forward(refs, srcs, loaded, loaded_config)[0].tokens
        np.testing.assert_array_equal(first, second)
        for tensor_pairs in zip(
            (weights.blocks[0].intra.wq, weights.blocks[1].ffn.w1, weights.local.kernel),
            (loaded.blocks[0].intra.wq, loaded.blocks[1].ffn.w1, loaded.local.kernel),
        ):
            original, restored = tensor_pairs
            np.testing.assert_array_equal(
                np.asarray(original, dtype=np.float32), restored.astype(np.float32)
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.epwt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_weights(path)

    def test_truncation_detected(self, tmp_path):
        config = AttentionConfig(channels=8, heads=2)
        weights = seeded_weights(config, 26)
        path = tmp_path / "weights.epwt"
        write_weights(path, weights, config)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            read_weights(path)

    def test_weights_that_disagree_with_config_rejected(self, tmp_path):
        config = AttentionConfig(channels=8, heads=2)
        weights = seeded_weights(config, 28)
        for other in (AttentionConfig(8, 2, n_blocks=2), AttentionConfig(8, 2, ffn_ratio=2)):
            with pytest.raises(ValueError):
                write_weights(tmp_path / "w.epwt", weights, other)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(channels=10, heads=4),
            dict(channels=8, heads=2, ffn_ratio=0),
            dict(channels=8, heads=2, n_blocks=0),
            dict(channels=8, heads=2, la_kernel=4),
            dict(channels=8, heads=2, pe_mode="fourier"),
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AttentionConfig(**kwargs)
