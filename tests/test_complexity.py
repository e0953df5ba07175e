"""Cost-model tests: closed forms, reference values, scaling, and the bench harness."""

import sys

import numpy as np
import pytest

from epiline import (
    AttentionConfig,
    ComplexityParams,
    RepeatsTooFewError,
    Strategy,
    UnknownStrategyError,
    gmacs,
    linear_attention_macs,
    run_benchmark,
    strategy_macs,
    vanilla_attention_macs,
)
from epiline import synthetic
from epiline.attention import et_forward, seeded_weights
from epiline.complexity import _point_to_line_forward
from epiline.pair_search import SearchConfig, search_pairs
from epiline.sequences import FeatureMap, gather


class TestClosedForms:
    def test_unit_plug_in(self):
        p = ComplexityParams(B=1, N1=1, N2=1, C=1)
        assert vanilla_attention_macs(p) == 13
        assert linear_attention_macs(p) == 13

    def test_vanilla_line_to_line_example(self):
        p = ComplexityParams(B=30, N1=30, N2=30, C=64)
        assert vanilla_attention_macs(p) == 44_006_400

    def test_linear_plane_to_plane_example(self):
        p = ComplexityParams(B=1, N1=5120, N2=5120, C=64)
        assert linear_attention_macs(p) == 272_629_760
        assert linear_attention_macs(p) == 13 * 5120 * 64 * 64

    def test_linear_term_merge_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 4000))
            c = int(rng.integers(1, 256))
            p = ComplexityParams(B=1, N1=n, N2=n, C=c)
            assert linear_attention_macs(p) == 13 * n * c * c

    def test_doubling_channels_scales_near_four(self):
        for c in (32, 64, 128, 256):
            base = ComplexityParams(B=4, N1=50, N2=60, C=c)
            doubled = ComplexityParams(B=4, N1=50, N2=60, C=2 * c)
            ratio = vanilla_attention_macs(doubled) / vanilla_attention_macs(base)
            # The C^2 terms dominate; the 2*N1*N2*C term only drags the ratio
            # slightly below 4 is impossible, above 4 it cannot go.
            assert 3.5 <= ratio <= 4.0

    def test_params_reject_zero(self):
        with pytest.raises(ValueError):
            ComplexityParams(B=0)


class TestStrategyMacs:
    REFERENCE = {
        Strategy.POINT_TO_LINE: 1_466_695_680,
        Strategy.LINE_TO_LINE: 44_006_400,
        Strategy.PLANE_TO_PLANE: 272_629_760,
    }

    def test_reference_values_exact(self):
        for strategy, expected in self.REFERENCE.items():
            assert strategy_macs(strategy, h=80, w=64, c=64, s=30, m=30) == expected

    def test_reference_values_round_to_reported_gmacs(self):
        assert round(self.REFERENCE[Strategy.POINT_TO_LINE] / 1e9, 1) == 1.5
        assert gmacs(self.REFERENCE[Strategy.LINE_TO_LINE]) == 0.04
        assert gmacs(self.REFERENCE[Strategy.PLANE_TO_PLANE]) == 0.27

    def test_accepts_string_names(self):
        assert strategy_macs("line-to-line", 80, 64, 64, 30, 30) == 44_006_400

    def test_unknown_strategy(self):
        with pytest.raises(UnknownStrategyError):
            strategy_macs("grid-to-grid", 80, 64, 64, 30, 30)

    def test_point_to_line_scales_linearly_in_area(self):
        base = strategy_macs(Strategy.POINT_TO_LINE, 80, 64, 64, 30, 30)
        doubled = strategy_macs(Strategy.POINT_TO_LINE, 160, 64, 64, 30, 30)
        assert doubled == 2 * base

    def test_line_to_line_independent_of_area(self):
        small = strategy_macs(Strategy.LINE_TO_LINE, 80, 64, 64, 30, 30)
        large = strategy_macs(Strategy.LINE_TO_LINE, 800, 640, 64, 30, 30)
        assert small == large

    def test_results_are_exact_ints(self):
        value = strategy_macs(Strategy.POINT_TO_LINE, 80000, 64000, 4096, 3000, 3000)
        assert isinstance(value, int)
        # Large enough to overflow int64; Python integers must stay exact.
        assert value == 80000 * 64000 * (9 * 4096**2 + 2 * 3000 * 4096**2 + 2 * 3000 * 4096)
        assert value > 2**63


class TestRunBenchmark:
    def small_rig(self):
        return synthetic.rectified_pair(12, 12, focal=128.0)

    def test_repeats_precondition(self):
        config = AttentionConfig(channels=8, heads=2)
        with pytest.raises(RepeatsTooFewError):
            run_benchmark(self.small_rig(), config, [Strategy.LINE_TO_LINE], repeats=1)

    def test_reports_have_expected_fields(self):
        config = AttentionConfig(channels=8, heads=2)
        reports = run_benchmark(
            self.small_rig(),
            config,
            ["line-to-line", "plane-to-plane"],
            repeats=3,
            search=SearchConfig(s_k=0.1, s_b=1.0, delta=1.0),
        )
        assert [r.strategy for r in reports] == [
            Strategy.LINE_TO_LINE,
            Strategy.PLANE_TO_PLANE,
        ]
        for report in reports:
            assert report.mac_count > 0
            assert report.wall_time > 0.0
            assert report.peak_tokens >= 1

    def test_unapplied_single_thread_cap_warns(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        config = AttentionConfig(channels=8, heads=2)
        search = SearchConfig(s_k=0.1, s_b=1.0, delta=1.0)
        with pytest.warns(RuntimeWarning, match="cap not applied: threadpoolctl is not importable"):
            run_benchmark(self.small_rig(), config, ["line-to-line"], repeats=3, search=search)

    def test_analytic_counts_are_deterministic(self):
        config = AttentionConfig(channels=8, heads=2)
        args = dict(
            config=config,
            strategies=[Strategy.LINE_TO_LINE, Strategy.POINT_TO_LINE],
            repeats=3,
            search=SearchConfig(s_k=0.1, s_b=1.0, delta=1.0),
        )
        first = run_benchmark(self.small_rig(), **args)
        second = run_benchmark(self.small_rig(), **args)
        assert [r.mac_count for r in first] == [r.mac_count for r in second]
        assert [r.peak_tokens for r in first] == [r.peak_tokens for r in second]

    def test_analytic_ordering_on_measured_rigs(self):
        # With pair statistics measured from real 64x80 searches at the
        # default steps, the analytic counts keep the order line-to-line <
        # plane-to-plane < point-to-line.
        for seed in range(5):
            rng = np.random.default_rng(50 + seed)
            pair = synthetic.random_pair(rng, 64, 80)
            result = search_pairs(pair, SearchConfig())
            m = result.cluster_count
            s = max(1, round(float(np.mean([p.n_src for p in result.pairs]))))
            macs = {
                strategy: strategy_macs(strategy, 64, 80, 64, s, m)
                for strategy in Strategy
            }
            assert (
                macs[Strategy.LINE_TO_LINE]
                < macs[Strategy.PLANE_TO_PLANE]
                < macs[Strategy.POINT_TO_LINE]
            )

    def test_point_to_line_reproduces_batched_outputs(self):
        # Attention rows are independent, so the per-pixel strategy must give
        # the same augmented tokens as the batched one, just slower.
        rng = np.random.default_rng(1)
        pair = synthetic.random_pair(rng, 12, 16)
        pair_set = search_pairs(pair, SearchConfig(s_k=0.1, s_b=2.0, delta=1.0))
        config = AttentionConfig(channels=8, heads=2, pe_mode="sine")
        weights = seeded_weights(config, 1)
        ref_map = FeatureMap(rng.standard_normal((12, 16, 8)))
        src_map = FeatureMap(rng.standard_normal((12, 16, 8)))
        ref_seqs = gather(ref_map, pair_set, "ref")
        src_seqs = gather(src_map, pair_set, "src")
        batched = et_forward(ref_seqs, src_seqs, weights, config)
        per_pixel = _point_to_line_forward(ref_seqs, src_seqs, weights, config)
        for got, expected in zip(per_pixel, batched):
            np.testing.assert_allclose(got, expected.tokens, atol=1e-10)
