"""Command-line behavior: schemas, determinism, exit codes."""

import hashlib
import json
import sys

import numpy as np
import pytest

from epiline import (
    CameraExtrinsics,
    CameraIntrinsics,
    read_feature_map,
    write_cam_file,
)
from epiline import synthetic
from epiline.cli import main
from epiline.pair_search import EpipolarPairSet, pair_set_to_dict


@pytest.fixture()
def rectified_cams(tmp_path):
    k = CameraIntrinsics(128.0, 128.0, 0.0, 0.0)
    ref = CameraExtrinsics.identity()
    # World-to-camera translation -1 puts the source camera at world x = +1.
    src = CameraExtrinsics(np.eye(3), np.array([-1.0, 0.0, 0.0]))
    ref_path, src_path = tmp_path / "ref.txt", tmp_path / "src.txt"
    write_cam_file(ref_path, k, ref, 2.0, 0.1)
    write_cam_file(src_path, k, src, 2.0, 0.1)
    return str(ref_path), str(src_path)


def cam_args(cams, size="8x8", sb="1.0"):
    ref, src = cams
    return ["--ref-cam", ref, "--src-cam", src, "--size", size, "--sb", sb]


class TestPairsCommand:
    def test_rectified_rig_emits_eight_pairs(self, rectified_cams, capsys):
        assert main(["pairs", *cam_args(rectified_cams)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert len(data["pairs"]) == 8
        for entry in data["pairs"]:
            assert set(entry) == {
                "orientation", "qk", "qb", "k", "b", "ref_pixels", "src_pixels",
            }
        assert data["ref_hole_mask"]["runs"] == []

    def test_stdout_is_byte_identical_across_runs(self, rectified_cams, capsys):
        main(["pairs", *cam_args(rectified_cams)])
        first = capsys.readouterr().out
        main(["pairs", *cam_args(rectified_cams)])
        second = capsys.readouterr().out
        assert first == second

    def test_zero_baseline_fails_with_message(self, tmp_path, capsys):
        k = CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
        identity = CameraExtrinsics.identity()
        for name in ("ref.txt", "src.txt"):
            write_cam_file(tmp_path / name, k, identity, 2.0, 0.1)
        rc = main(
            [
                "pairs",
                "--ref-cam", str(tmp_path / "ref.txt"),
                "--src-cam", str(tmp_path / "src.txt"),
                "--size", "8x8",
            ]
        )
        assert rc != 0
        assert "nonzero baseline required" in capsys.readouterr().err

    def test_input_files_never_mutated(self, rectified_cams, tmp_path, capsys):
        before = [open(path, "rb").read() for path in rectified_cams]
        main(["pairs", *cam_args(rectified_cams), "--out", str(tmp_path / "p.json")])
        main(["visualize", *cam_args(rectified_cams), "--out", str(tmp_path / "v")])
        capsys.readouterr()
        after = [open(path, "rb").read() for path in rectified_cams]
        assert before == after

    def test_unknown_flag_rejected(self, rectified_cams):
        with pytest.raises(SystemExit) as excinfo:
            main(["pairs", *cam_args(rectified_cams), "--frobnicate"])
        assert excinfo.value.code == 2

    def test_out_file(self, rectified_cams, tmp_path):
        out = tmp_path / "pairs.json"
        assert main(["pairs", *cam_args(rectified_cams), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema"] == 1

    def test_convergent_sample_cams_regression(self, tmp_path):
        # A seeded convergent rig written out in the camera text convention;
        # the resulting pair count was frozen on the first run.
        rng = np.random.default_rng(64_80)
        pair = synthetic.random_pair(rng, 64, 80)
        write_cam_file(
            tmp_path / "ref.txt", pair.ref_intrinsics, CameraExtrinsics.identity(), 2.0, 0.1
        )
        write_cam_file(
            tmp_path / "src.txt", pair.src_intrinsics, pair.rel_extrinsics, 2.0, 0.1
        )
        out = tmp_path / "pairs.json"
        rc = main(
            [
                "pairs",
                "--ref-cam", str(tmp_path / "ref.txt"),
                "--src-cam", str(tmp_path / "src.txt"),
                "--size", "64x80",
                "--out", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["image_size"] == [64, 80]
        for entry in data["pairs"]:
            assert entry["orientation"] in ("standard", "swapped")
            assert isinstance(entry["qk"], int) and isinstance(entry["qb"], int)
            assert all(len(px) == 2 for px in entry["ref_pixels"])
            assert all(len(px) == 2 for px in entry["src_pixels"])
        for mask_key in ("ref_hole_mask", "src_hole_mask"):
            mask = data[mask_key]
            assert mask["height"] == 64 and mask["width"] == 80
            assert all(len(run) == 2 for run in mask["runs"])
        assert len(data["pairs"]) == 20  # frozen baseline


class TestVisualizeCommand:
    def test_rectified_bands_and_determinism(self, rectified_cams, tmp_path):
        prefix_a = tmp_path / "viz_a"
        prefix_b = tmp_path / "viz_b"
        for prefix in (prefix_a, prefix_b):
            assert main(["visualize", *cam_args(rectified_cams), "--out", str(prefix)]) == 0

        ref_bytes = (tmp_path / "viz_a_ref.ppm").read_bytes()
        src_bytes = (tmp_path / "viz_a_src.ppm").read_bytes()
        assert ref_bytes.startswith(b"P6\n8 8\n255\n")
        assert ref_bytes == (tmp_path / "viz_b_ref.ppm").read_bytes()
        assert src_bytes == (tmp_path / "viz_b_src.ppm").read_bytes()

        pixels = np.frombuffer(ref_bytes[11:], dtype=np.uint8).reshape(8, 8, 3)
        # Eight horizontal one-color bands, all distinct, same order in both views.
        row_colors = [tuple(pixels[y, 0]) for y in range(8)]
        for y in range(8):
            assert (pixels[y] == pixels[y, 0]).all()
        assert len(set(row_colors)) == 8
        src_pixels = np.frombuffer(src_bytes[11:], dtype=np.uint8).reshape(8, 8, 3)
        np.testing.assert_array_equal(pixels, src_pixels)

    def test_from_pairs_json(self, rectified_cams, tmp_path):
        pairs_path = tmp_path / "pairs.json"
        main(["pairs", *cam_args(rectified_cams), "--out", str(pairs_path)])
        assert (
            main(
                [
                    "visualize",
                    "--pairs-json", str(pairs_path),
                    "--out", str(tmp_path / "viz"),
                ]
            )
            == 0
        )
        direct = tmp_path / "direct"
        main(["visualize", *cam_args(rectified_cams), "--out", str(direct)])
        assert (tmp_path / "viz_ref.ppm").read_bytes() == (tmp_path / "direct_ref.ppm").read_bytes()

    def test_requires_some_input(self, tmp_path, capsys):
        rc = main(["visualize", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "pairs-json" in capsys.readouterr().err

    def test_empty_pair_set_renders_black(self, tmp_path):
        empty = EpipolarPairSet(
            pairs=(),
            ref_hole_mask=np.ones((4, 5), dtype=bool),
            src_hole_mask=np.ones((4, 5), dtype=bool),
            image_size=(4, 5),
        )
        pairs_path = tmp_path / "empty.json"
        pairs_path.write_text(json.dumps(pair_set_to_dict(empty)))
        assert main(["visualize", "--pairs-json", str(pairs_path), "--out", str(tmp_path / "e")]) == 0
        for name in ("e_ref.ppm", "e_src.ppm"):
            blob = (tmp_path / name).read_bytes()
            header_end = blob.index(b"255\n") + 4
            assert blob[header_end:] == b"\x00" * (4 * 5 * 3)


class TestAugmentCommand:
    def test_writes_feature_map(self, rectified_cams, tmp_path):
        out = tmp_path / "aug.epfm"
        rc = main(
            [
                "augment", *cam_args(rectified_cams),
                "--channels", "16", "--heads", "4",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        fmap = read_feature_map(out)
        assert (fmap.height, fmap.width, fmap.channels) == (8, 8, 16)

    def test_symmetric_also_writes_reference_map(self, rectified_cams, tmp_path):
        out = tmp_path / "aug.epfm"
        rc = main(
            [
                "augment", *cam_args(rectified_cams),
                "--channels", "8", "--heads", "2",
                "--out", str(out), "--symmetric",
            ]
        )
        assert rc == 0
        assert (tmp_path / "aug_ref.epfm").exists()

    def test_deterministic_given_seed(self, rectified_cams, tmp_path):
        outs = []
        for name in ("a.epfm", "b.epfm"):
            out = tmp_path / name
            main(
                [
                    "augment", *cam_args(rectified_cams),
                    "--channels", "8", "--heads", "2",
                    "--seed", "9", "--out", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_supplied_feature_maps(self, rectified_cams, tmp_path):
        from epiline import FeatureMap, write_feature_map

        rng = np.random.default_rng(7)
        ref_path = tmp_path / "ref.epfm"
        src_path = tmp_path / "src.epfm"
        write_feature_map(ref_path, FeatureMap(rng.standard_normal((8, 8, 4))))
        write_feature_map(src_path, FeatureMap(rng.standard_normal((8, 8, 4))))
        out = tmp_path / "aug.epfm"
        rc = main(
            [
                "augment", *cam_args(rectified_cams),
                "--features", str(ref_path), str(src_path),
                "--heads", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert read_feature_map(out).channels == 4

    def test_feature_and_weight_channel_mismatch(self, rectified_cams, tmp_path, capsys):
        from epiline import AttentionConfig, FeatureMap, write_feature_map
        from epiline.attention import seeded_weights, write_weights

        rng = np.random.default_rng(8)
        for name, channels in (("ref.epfm", 4), ("src.epfm", 4)):
            write_feature_map(
                tmp_path / name, FeatureMap(rng.standard_normal((8, 8, channels)))
            )
        config = AttentionConfig(channels=8, heads=2)
        write_weights(tmp_path / "w.epwt", seeded_weights(config, 0), config)
        rc = main(
            [
                "augment", *cam_args(rectified_cams),
                "--features", str(tmp_path / "ref.epfm"), str(tmp_path / "src.epfm"),
                "--weights", str(tmp_path / "w.epwt"),
                "--out", str(tmp_path / "aug.epfm"),
            ]
        )
        assert rc == 1
        assert "channels" in capsys.readouterr().err

    def test_heads_that_do_not_divide_channels_rejected(self, rectified_cams, tmp_path, capsys):
        out = tmp_path / "aug.epfm"
        rc = main(
            [
                "augment", *cam_args(rectified_cams),
                "--channels", "6", "--heads", "4",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert "6 channels are not divisible by --heads 4" in capsys.readouterr().err
        assert not out.exists()

    def test_weight_file_round_trip(self, rectified_cams, tmp_path):
        weights_path = tmp_path / "weights.epwt"
        first = tmp_path / "first.epfm"
        main(
            [
                "augment", *cam_args(rectified_cams),
                "--channels", "8", "--heads", "2", "--seed", "5",
                "--out", str(first), "--save-weights", str(weights_path),
            ]
        )
        second = tmp_path / "second.epfm"
        rc = main(
            [
                "augment", *cam_args(rectified_cams),
                "--weights", str(weights_path),
                "--out", str(second),
            ]
        )
        assert rc == 0
        assert second.exists()


class TestVerifyCommand:
    def test_passes_with_default_suites(self, capsys):
        assert main(["verify", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_default_trial_count_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_injected_fault_breaks_geometry_suites(self, capsys):
        assert main(["verify", "--trials", "3", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert "FAIL collinearity" in out

    def test_zero_trials_is_usage_error(self, capsys):
        assert main(["verify", "--trials", "0"]) == 1
        assert "trials" in capsys.readouterr().err


class TestSweepCommand:
    def test_table_and_csv(self, rectified_cams, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--ref-cam", rectified_cams[0],
                "--src-cam", rectified_cams[1],
                "--size", "8x8",
                "--sk", "0.1", "--sb", "1,2",
                "--min-cluster", "1",
                "--out", str(csv_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "s_k,s_b,clusters,coverage"
        assert len(lines) == 3


class TestThreadCap:
    def test_thread_cap_env_var_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("EPILINE_THREADS", "1")
        assert main(["verify", "--trials", "2"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4

    def test_garbage_thread_cap_ignored(self, monkeypatch, capsys):
        monkeypatch.setenv("EPILINE_THREADS", "many")
        assert main(["verify", "--trials", "2"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "value, reason", [("2", "threadpoolctl is not importable"), ("many", "not an integer")]
    )
    def test_unapplied_cap_is_reported(self, monkeypatch, capsys, value, reason):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setenv("EPILINE_THREADS", value)
        assert main(["verify", "--trials", "2"]) == 0
        err = capsys.readouterr().err
        assert f"epiline: EPILINE_THREADS={value!r} not applied: {reason}" in err

    def test_bench_header_says_cap_not_applied(self, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        args = ["bench", "--size", "8x8", "--channels", "8", "--heads", "2", "--repeats", "3"]
        assert main([*args, "--strategies", "line-to-line", "--sb", "1.0"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("# single-thread cap not applied: threadpoolctl")


class TestBenchCommand:
    def test_synthetic_rig_smoke(self, capsys):
        rc = main(
            [
                "bench",
                "--size", "12x12",
                "--channels", "8", "--heads", "2",
                "--repeats", "3",
                "--strategies", "line-to-line,plane-to-plane",
                "--sb", "1.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "line-to-line" in out and "plane-to-plane" in out

    def test_bad_size_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--size", "12by12", "--repeats", "3"])
        assert excinfo.value.code == 2

    def test_camera_files_and_csv(self, rectified_cams, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = main(
            [
                "bench", *cam_args(rectified_cams),
                "--channels", "8", "--heads", "2",
                "--repeats", "3",
                "--strategies", "line-to-line",
                "--out", str(csv_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "strategy,macs,gmacs,median_ms,peak_tokens"
        assert lines[1].startswith("line-to-line,")

    def test_too_few_repeats(self, capsys):
        rc = main(["bench", "--size", "10x10", "--repeats", "1", "--channels", "8", "--heads", "2"])
        assert rc == 1
        assert "repeats" in capsys.readouterr().err


class TestGoldenOutputs:
    """Pinned output bytes. They guard the two weight-tensor orders (seeded
    draw order, EPWT file order) and both sides of the augment pipeline."""

    def test_weight_file_bytes(self, tmp_path):
        from epiline import AttentionConfig, seeded_weights, write_weights

        config = AttentionConfig(64, 8)
        write_weights(tmp_path / "w.epwt", seeded_weights(config, 0), config)
        digest = hashlib.sha256((tmp_path / "w.epwt").read_bytes()).hexdigest()
        assert digest == "15b21cd44e45cd4ecf3587ac6003ac980a5ad0f4518bb2069de54cfb34cd2895"

    def test_symmetric_augment_bytes(self, tmp_path):
        pair = synthetic.random_pair(np.random.default_rng(16_20), 16, 20)
        ref_cam, src_cam = tmp_path / "ref.txt", tmp_path / "src.txt"
        write_cam_file(ref_cam, pair.ref_intrinsics, CameraExtrinsics.identity(), 2.0, 0.1)
        write_cam_file(src_cam, pair.src_intrinsics, pair.rel_extrinsics, 2.0, 0.1)
        out = tmp_path / "aug.epfm"
        rc = main(
            [
                "augment", *cam_args((str(ref_cam), str(src_cam)), size="16x20", sb="2"),
                "--channels", "16", "--heads", "4", "--seed", "0",
                "--out", str(out), "--symmetric",
            ]
        )
        assert rc == 0
        digests = [
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out, tmp_path / "aug_ref.epfm")
        ]
        assert digests == [
            "0918f402cb6458551f9f8c97f3de3aa3ad13a641f445b2db6674a7ec2579a7be",
            "bb038be5647588873f2986d40a50605c72e1db839624b24c52979f45190d0ae3",
        ]
