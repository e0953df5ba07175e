"""Acceptance gate: every release criterion, one test each, at its stated
tolerance. Each test prints a single PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from epiline import (
    AttentionConfig,
    CameraExtrinsics,
    CameraIntrinsics,
    FeatureMap,
    LineSequence,
    Orientation,
    QuantizedLineKey,
    SearchConfig,
    Strategy,
    et_forward,
    fundamental_matrix,
    gather,
    gmacs,
    mhsa,
    run_benchmark,
    scatter,
    search_pairs,
    seeded_weights,
    strategy_macs,
    write_cam_file,
    zero_weights,
)
from epiline import synthetic
from epiline.cli import main as cli_main
from epiline.geometry import (
    epipolar_line,
    line_parameter_grid,
    pixel_coeffs,
    project_pixel_sweep,
    projection_constants,
)
from epiline.verify import reference_et_forward

from tests import oracles


@contextmanager
def report(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {label}")


def test_criterion_01_complexity_regression():
    with report(1, "complexity regression (exact counts, paper-rounded GMACs, <1 ms)"):
        expected = {
            Strategy.POINT_TO_LINE: 1_466_695_680,
            Strategy.LINE_TO_LINE: 44_006_400,
            Strategy.PLANE_TO_PLANE: 272_629_760,
        }
        for strategy, value in expected.items():
            strategy_macs(strategy, h=80, w=64, c=64, s=30, m=30)  # warm-up
        start = time.perf_counter()
        got = {
            strategy: strategy_macs(strategy, h=80, w=64, c=64, s=30, m=30)
            for strategy in expected
        }
        elapsed = time.perf_counter() - start
        assert got == expected
        assert round(got[Strategy.POINT_TO_LINE] / 1e9, 1) == 1.5
        assert gmacs(got[Strategy.LINE_TO_LINE]) == 0.04
        assert gmacs(got[Strategy.PLANE_TO_PLANE]) == 0.27
        assert elapsed < 1e-3, f"three evaluations took {elapsed * 1e3:.3f} ms"


def test_criterion_02_collinearity_oracle():
    with report(2, "collinearity: 1000 rigs x 10 px x 100 depths, residual < 1e-6 px"):
        rng = np.random.default_rng(20_02)
        depths = np.linspace(*synthetic.DEPTH_SWEEP, 100)
        worst = 0.0
        start = time.perf_counter()
        for _ in range(1000):
            pair = synthetic.random_pair(rng)
            constants = projection_constants(pair)
            for _ in range(10):
                x = int(rng.integers(0, pair.width))
                y = int(rng.integers(0, pair.height))
                coeffs = pixel_coeffs(constants, x, y)
                line = epipolar_line(coeffs)
                xs, ys, finite = project_pixel_sweep(coeffs, depths)
                if finite.any():
                    residual = line.perpendicular_distance(xs[finite], ys[finite]).max()
                    worst = max(worst, float(residual))
        elapsed = time.perf_counter() - start
        assert worst < 1e-6, f"max residual {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_03_fundamental_equivalence():
    with report(3, "fundamental-matrix direction cosine > 1 - 1e-9 on 10,000 draws"):
        rng = np.random.default_rng(20_03)
        worst = 0.0
        start = time.perf_counter()
        for _ in range(200):
            pair = synthetic.random_pair(rng)
            constants = projection_constants(pair)
            f = fundamental_matrix(pair)
            for _ in range(50):
                x = int(rng.integers(0, pair.width))
                y = int(rng.integers(0, pair.height))
                lhs = epipolar_line(pixel_coeffs(constants, x, y)).coeffs3()
                rhs = f @ np.array([x, y, 1.0])
                cosine = abs(lhs @ rhs) / (np.linalg.norm(lhs) * np.linalg.norm(rhs))
                worst = max(worst, 1.0 - cosine)
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"max deviation {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_04_rectified_exactness():
    with report(4, "rectified 8x8 rig: 8 clusters, row i <-> row i, no holes"):
        pair = synthetic.rectified_pair(8, 8)
        result = search_pairs(pair, SearchConfig(s_k=0.1, s_b=1.0, delta=1.0))
        assert result.cluster_count == 8
        for i, entry in enumerate(result.pairs):
            assert entry.key == QuantizedLineKey(Orientation.STANDARD, 0, i)
            assert set(map(tuple, entry.ref_pixels)) == {(x, i) for x in range(8)}
            assert set(map(tuple, entry.src_pixels)) == {(x, i) for x in range(8)}
        assert not result.ref_hole_mask.any()
        assert not result.src_hole_mask.any()


def test_criterion_05_partition_and_distance_soundness():
    with report(5, "20 random rigs: exact partition, 100% distance recheck"):
        config = SearchConfig(s_k=0.1, s_b=2.0, delta=1.0)
        for seed in range(20):
            rng = np.random.default_rng(20_05_00 + seed)
            pair = synthetic.random_pair(rng, 64, 80)
            result = search_pairs(pair, config)

            seen = np.zeros((64, 80), dtype=int)
            for entry in result.pairs:
                seen[entry.ref_pixels[:, 1], entry.ref_pixels[:, 0]] += 1
            seen[result.ref_hole_mask] += 1
            assert (seen == 1).all(), "reference pixels not exactly partitioned"

            for entry in result.pairs:
                if entry.n_src == 0:
                    continue
                xs = entry.src_pixels[:, 0].astype(float)
                ys = entry.src_pixels[:, 1].astype(float)
                k, b = entry.line.slope, entry.line.intercept
                if entry.key.orientation is Orientation.STANDARD:
                    distances = np.abs(ys - k * xs - b) / np.sqrt(1.0 + k * k)
                else:
                    distances = np.abs(xs - k * ys - b) / np.sqrt(1.0 + k * k)
                assert (distances < config.delta).all(), "distance recheck failed"


def test_criterion_06_quantization_monotonicity_and_error_bound():
    with report(6, "coarsening never increases clusters; rounding error <= step/2"):
        for seed in range(10):
            rng = np.random.default_rng(20_06_00 + seed)
            pair = synthetic.random_pair(rng, 64, 80)
            fine_config = SearchConfig(s_k=0.1, s_b=2.0, delta=1.0)
            coarse_config = SearchConfig(s_k=0.2, s_b=4.0, delta=1.0)
            fine = search_pairs(pair, fine_config)
            coarse = search_pairs(pair, coarse_config)
            assert coarse.cluster_count <= fine.cluster_count

            constants = projection_constants(pair)
            swapped, slope, intercept, _ = line_parameter_grid(constants, 64, 80)
            for result, config in ((fine, fine_config), (coarse, coarse_config)):
                for entry in result.pairs:
                    xs, ys = entry.ref_pixels[:, 0], entry.ref_pixels[:, 1]
                    slope_err = np.abs(slope[ys, xs] - entry.line.slope).max()
                    intercept_err = np.abs(intercept[ys, xs] - entry.line.intercept).max()
                    assert slope_err <= config.s_k / 2 + 1e-12
                    assert intercept_err <= config.s_b / 2 + 1e-12


def test_criterion_07_attention_oracle_equivalence():
    with report(7, "attention matches per-head loop (1e-8); rows sum to 1; identities"):
        rng = np.random.default_rng(20_07)
        config = AttentionConfig(channels=64, heads=8, pe_mode="sine")

        # 50 seeded instances, sequence lengths up to 256.
        for trial in range(50):
            weights = seeded_weights(config, seed=trial)
            n_ref = int(rng.integers(0, 257))
            n_src = int(rng.integers(1, 257))
            ref_tokens = rng.standard_normal((n_ref, 64))
            src_tokens = rng.standard_normal((n_src, 64))
            refs = [LineSequence(0, ref_tokens, _order(n_ref, 0))]
            srcs = [LineSequence(0, src_tokens, _order(n_src, 1))]
            got = et_forward(refs, srcs, weights, config)[0].tokens
            expected = reference_et_forward([ref_tokens], [src_tokens], weights, config)[0]
            assert np.abs(got - expected).max() < 1e-8

        # Attention rows sum to one within 1e-12.
        proj = seeded_weights(config, 999).blocks[0].intra
        x = rng.standard_normal((64, 64)) * 5.0
        _, attention = mhsa(x, proj, 8, return_attention=True)
        assert np.abs(attention.sum(axis=-1) - 1.0).max() < 1e-12

        # Zero-weight pipeline is the exact identity.
        plain = AttentionConfig(channels=64, heads=8, pe_mode="none")
        zeroed = zero_weights(plain)
        srcs = [LineSequence(0, rng.standard_normal((17, 64)), _order(17, 1))]
        refs = [LineSequence(0, rng.standard_normal((9, 64)), _order(9, 0))]
        out = et_forward(refs, srcs, zeroed, plain)[0]
        assert np.array_equal(out.tokens, srcs[0].tokens)

        # Permutation equivariance holds without positions, breaks with them.
        proj = seeded_weights(plain, 1000).blocks[0].intra
        tokens = rng.standard_normal((12, 64))
        perm = rng.permutation(12)
        np.testing.assert_allclose(
            mhsa(tokens, proj, 8)[perm], mhsa(tokens[perm], proj, 8), atol=1e-10
        )
        sine_weights = seeded_weights(config, 1000)
        base_out = et_forward(
            [refs[0]], [LineSequence(0, tokens, _order(12, 1))], sine_weights, config
        )[0].tokens
        perm_out = et_forward(
            [refs[0]], [LineSequence(0, tokens[perm], _order(12, 1))], sine_weights, config
        )[0].tokens
        assert np.abs(base_out[perm] - perm_out).max() > 1e-3


def _order(n, parity):
    return np.stack([np.arange(n), np.full(n, parity)], axis=1)


def test_criterion_08_round_trip_codec():
    with report(8, "scatter(gather(map)) bitwise identity on 100 random maps"):
        rng = np.random.default_rng(20_08)
        pair = synthetic.random_pair(rng, 16, 20)
        pairs = search_pairs(pair, SearchConfig(s_k=0.1, s_b=2.0, delta=1.0))
        for _ in range(100):
            channels = int(rng.integers(1, 9))
            fmap = FeatureMap(rng.standard_normal((16, 20, channels)))
            back = scatter(gather(fmap, pairs, "src"), pairs, fmap)
            assert np.array_equal(back.data, fmap.data)
            back_ref = scatter(gather(fmap, pairs, "ref"), pairs, fmap)
            assert np.array_equal(back_ref.data, fmap.data)


def test_criterion_09_wall_clock_trend():
    with report(9, "median line-to-line <= point-to-line at 64x80 and 128x160"):
        config = AttentionConfig(channels=64, heads=8)
        for size_seed, (h, w) in ((1, (64, 80)), (2, (128, 160))):
            pair = synthetic.random_pair(np.random.default_rng(size_seed), h, w)
            reports = run_benchmark(
                pair,
                config,
                [Strategy.LINE_TO_LINE, Strategy.POINT_TO_LINE],
                repeats=5,
                seed=0,
                single_threaded=True,
            )
            times = {r.strategy: r.wall_time for r in reports}
            assert times[Strategy.LINE_TO_LINE] <= times[Strategy.POINT_TO_LINE], (
                f"at {h}x{w}: line-to-line {times[Strategy.LINE_TO_LINE]:.4f}s vs "
                f"point-to-line {times[Strategy.POINT_TO_LINE]:.4f}s"
            )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with report(10, "pairs and visualize outputs byte-identical across runs"):
        k = CameraIntrinsics(128.0, 128.0, 0.0, 0.0)
        write_cam_file(tmp_path / "ref.txt", k, CameraExtrinsics.identity(), 2.0, 0.1)
        write_cam_file(
            tmp_path / "src.txt",
            k,
            CameraExtrinsics(np.eye(3), np.array([-1.0, 0.0, 0.0])),
            2.0,
            0.1,
        )
        args = [
            "--ref-cam", str(tmp_path / "ref.txt"),
            "--src-cam", str(tmp_path / "src.txt"),
            "--size", "8x8",
            "--sb", "1.0",
        ]

        outputs = []
        for _ in range(2):
            assert cli_main(["pairs", *args]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # stdout is valid JSON

        images = []
        for run in range(2):
            prefix = tmp_path / f"viz{run}"
            assert cli_main(["visualize", *args, "--out", str(prefix)]) == 0
            images.append(
                (
                    (tmp_path / f"viz{run}_ref.ppm").read_bytes(),
                    (tmp_path / f"viz{run}_src.ppm").read_bytes(),
                )
            )
        assert images[0] == images[1]
